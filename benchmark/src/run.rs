//! One workload run: set-up, the timed reps behind the end-to-end
//! metrics (untraced), or the traced run behind the per-layer ledger.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use addr_compression::CompressionScheme;
use tcmp_core::sim::PhaseProfile;
use tcmp_core::SimResult;

use crate::layers::{self, Named};
use crate::metrics::{self, MetricDef};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, Summary};
use crate::sys;
use crate::workload::{
    cell_digest, config_cells, direct_pass, mismatched_cells, run_rep, sim_digest, sim_ratios,
    CellOut, Kind, RepEnv, RepOut, Workload,
};

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed reps, however short the measuring window.
const MIN_REPS: usize = 3;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// The measuring window.
    pub seconds: u64,
    pub trace: bool,
    /// Where results, traces and scratch state go (inside the checkout).
    pub out: PathBuf,
}

/// The correctness gate: every cell `Ok`, and every pass's per-cell
/// digests equal to the first pass's (which also makes a profiled pass
/// prove profiling bit-neutral).
#[derive(Default)]
struct Gate {
    reference: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn judge(&mut self, what: &str, results: &[SimResult]) {
        self.attempted += results.len() as u64;
        if self.reference.is_empty() {
            self.reference = results.iter().map(cell_digest).collect();
        }
        let bad = mismatched_cells(results, &self.reference);
        if bad > 0 {
            self.failed += bad as u64;
            self.problems.push(format!(
                "{what}: {bad} cell(s) differ from the first pass of this run"
            ));
        }
    }

    fn fail(&mut self, what: &str, cells: usize, error: &str) {
        self.attempted += cells as u64;
        self.failed += cells as u64;
        self.problems.push(format!("{what}: {error}"));
    }
}

/// Metrics in registry order, each with the summary of its samples.
type Measured = Vec<(&'static MetricDef, Summary)>;

/// What a set-up leaves for the reps.
struct Ready {
    w: Workload,
    /// One pass of directly or first computed results, in cell order.
    reference: Vec<SimResult>,
}

fn results_of(cells: Vec<CellOut>) -> Vec<SimResult> {
    cells.into_iter().map(|c| c.result).collect()
}

/// One complete set-up: build the inputs, run the direct reference
/// (`serve_campaign`: its CSVs are checked against it), and one
/// warm-up rep through the workload's own path.
fn set_up(o: &RunOpts, scratch: &Path, k: usize, gate: &mut Gate) -> Result<Ready, String> {
    let mut quiet = Tracer::new(false);
    let w = Workload::build(&o.workload, o.seed)?;
    let direct = if w.kind == Kind::Serve {
        let results = results_of(direct_pass(&w, &mut quiet, false)?);
        gate.judge(&format!("set-up {k} direct reference run"), &results);
        Some(results)
    } else {
        None
    };
    let warm = run_rep(
        &w,
        &mut RepEnv {
            tracer: &mut quiet,
            scratch: scratch.join(format!("s{k}")),
            reference: direct.as_deref(),
        },
    )?;
    gate.judge(&format!("set-up {k} warm-up rep"), &warm.results);
    let reference = direct.unwrap_or(warm.results);
    Ok(Ready { w, reference })
}

fn ordered(
    defs: &'static [MetricDef],
    mut samples: BTreeMap<&'static str, Vec<f64>>,
    zero_prefix: Option<&str>,
) -> Result<Measured, String> {
    defs.iter()
        .map(|d| match samples.remove(d.name) {
            Some(v) if !v.is_empty() && v.iter().all(|x| x.is_finite()) => Ok((d, Summary::of(&v))),
            Some(v) => Err(format!("metric {} measured as {v:?}", d.name)),
            None if zero_prefix.is_some_and(|p| d.name.starts_with(p)) => {
                Ok((d, Summary::single(0.0)))
            }
            None => Err(format!("metric {} was not measured", d.name)),
        })
        .collect()
}

fn sum<T>(items: &[T], f: impl Fn(&T) -> u64) -> f64 {
    items.iter().map(f).sum::<u64>() as f64
}

/// The timed reps and the ten end-to-end metrics.
fn end_to_end(
    o: &RunOpts,
    scratch: &Path,
    ready: &Ready,
    setup_s: &[f64],
    gate: &mut Gate,
) -> Result<(usize, Measured), String> {
    let w = &ready.w;
    let mut quiet = Tracer::new(false);
    let mut reps: Vec<RepOut> = Vec::new();
    let window = Instant::now();
    while reps.len() < MIN_REPS || window.elapsed() < Duration::from_secs(o.seconds) {
        let n = reps.len();
        let rep = run_rep(
            w,
            &mut RepEnv {
                tracer: &mut quiet,
                scratch: scratch.join(format!("r{n}")),
                reference: Some(&ready.reference),
            },
        );
        match rep {
            Ok(rep) => {
                gate.judge(&format!("rep {n}"), &rep.results);
                reps.push(rep);
            }
            Err(e) => {
                // A failing rep would fail again; do not fill the window with it.
                gate.fail(&format!("rep {n}"), w.cells_per_rep(), &e);
                break;
            }
        }
    }
    if reps.is_empty() {
        return Err(gate.problems.join("; "));
    }
    let per_rep = |f: &dyn Fn(&RepOut) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let (exec_time, link_ed2p) = sim_ratios(&ready.reference)?;
    let mut m: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    m.insert("setup_s", setup_s.to_vec());
    m.insert("wall_s", per_rep(&|r| r.wall_s));
    m.insert("cpu_s", per_rep(&|r| r.cpu_s));
    m.insert(
        "sim_cycles_per_s",
        per_rep(&|r| sum(&r.results, |c| c.cycles) / r.wall_s),
    );
    m.insert(
        "host_ns_per_msg",
        per_rep(&|r| r.wall_s * 1e9 / sum(&r.results, |c| c.network_messages)),
    );
    m.insert(
        "cells_per_s",
        per_rep(&|r| r.results.len() as f64 / r.wall_s),
    );
    m.insert(
        "peak_rss_mb",
        vec![sys::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?],
    );
    m.insert(
        "cell_ok_rate",
        vec![1.0 - gate.failed as f64 / gate.attempted as f64],
    );
    m.insert("exec_time_ratio", vec![exec_time]);
    m.insert("link_ed2p_ratio", vec![link_ed2p]);
    Ok((reps.len(), ordered(&metrics::END_TO_END, m, None)?))
}

/// Per-layer numbers read from one profiled pass: the engine's phase
/// profile summed over the cells, against the cells' own counts.
fn traced_metrics(cells: &[CellOut]) -> Named {
    let mut p = PhaseProfile::default();
    for c in cells {
        let q = c.profile.as_ref().expect("profiled pass");
        p.iterations += q.iterations;
        p.mem_fills_ns += q.mem_fills_ns;
        p.calendar_ns += q.calendar_ns;
        p.noc_tick_ns += q.noc_tick_ns;
        p.l1_deliver_ns += q.l1_deliver_ns;
        p.l2_deliver_ns += q.l2_deliver_ns;
        p.cores_ns += q.cores_ns;
        p.advance_ns += q.advance_ns;
    }
    let total = p.total_ns() as f64;
    let run = sum(cells, |c| c.run_ns);
    let iters = p.iterations as f64;
    let msgs = sum(cells, |c| c.result.network_messages);
    let hops = sum(cells, |c| c.flit_hops);
    let mean = |f: &dyn Fn(&SimResult) -> f64, keep: &dyn Fn(&SimResult) -> bool| {
        let v: Vec<f64> = cells
            .iter()
            .map(|c| &c.result)
            .filter(|r| keep(r))
            .map(f)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let all = |_: &SimResult| true;
    let us = |f: fn(&CellOut) -> u64| {
        median(&cells.iter().map(|c| f(c) as f64 / 1e3).collect::<Vec<_>>())
    };
    vec![
        ("noc.tick_share", p.noc_tick_ns as f64 / total),
        ("noc.tick_ns_per_flit_hop", p.noc_tick_ns as f64 / hops),
        ("noc.tick_ns_per_iter", p.noc_tick_ns as f64 / iters),
        ("noc.msgs", msgs),
        ("noc.flit_hops", hops),
        (
            "noc.critical_latency_cycles",
            mean(&|r| r.critical_latency, &all),
        ),
        ("coherence.l2_share", p.l2_deliver_ns as f64 / total),
        ("coherence.l1_share", p.l1_deliver_ns as f64 / total),
        ("coherence.fill_share", p.mem_fills_ns as f64 / total),
        (
            "coherence.handler_ns_per_msg",
            (p.l1_deliver_ns + p.l2_deliver_ns) as f64 / msgs,
        ),
        ("coherence.l1_miss_rate", mean(&|r| r.l1_miss_rate, &all)),
        ("coherence.l2_recalls", sum(cells, |c| c.result.l2_recalls)),
        ("coherence.mem_reads", sum(cells, |c| c.result.mem_reads)),
        (
            "compression.coverage",
            mean(&|r| r.coverage, &|r| r.scheme != CompressionScheme::None),
        ),
        ("cpu.cores_share", p.cores_ns as f64 / total),
        (
            "cpu.cores_ns_per_instr",
            p.cores_ns as f64 / sum(cells, |c| c.result.instructions),
        ),
        (
            "cpu.mem_stall_cycles",
            sum(cells, |c| c.result.mem_stall_cycles),
        ),
        (
            "cpu.barrier_stall_cycles",
            sum(cells, |c| c.result.barrier_stall_cycles),
        ),
        ("core.calendar_share", p.calendar_ns as f64 / total),
        ("core.advance_share", p.advance_ns as f64 / total),
        ("core.unattributed_share", (run - total) / run),
        ("core.iter_ns", run / iters),
        ("core.sim_new_us", us(|c| c.new_ns)),
        ("core.finish_us", us(|c| c.finish_ns)),
    ]
}

fn pass_wall_s(cells: &[CellOut]) -> f64 {
    sum(cells, |c| c.new_ns + c.run_ns + c.finish_ns) / 1e9
}

/// The traced run: alternating untraced/profiled direct passes for
/// half the window, a traced rep through the workload's own path where
/// that differs, and the replay ledger.
fn per_layer(
    o: &RunOpts,
    scratch: &Path,
    ready: &Ready,
    gate: &mut Gate,
) -> Result<(usize, Measured), String> {
    let w = &ready.w;
    let mut tr = Tracer::new(true);
    let mut m: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let push = |m: &mut BTreeMap<_, Vec<f64>>, named: Named| {
        for (name, v) in named {
            m.entry(name).or_default().push(v);
        }
    };

    let (baseline, proposal) = config_cells(w);
    let rate = |cells: &[CellOut], idx: &[usize]| {
        idx.iter().map(|&i| cells[i].result.cycles).sum::<u64>() as f64
            / (idx.iter().map(|&i| cells[i].run_ns).sum::<u64>() as f64 / 1e9)
    };
    let window = Instant::now();
    let mut pairs = 0u32;
    let mut run_ns = Vec::new();
    let mut direct_walls = Vec::new();
    while pairs == 0 || window.elapsed() < Duration::from_secs(o.seconds) / 2 {
        pairs += 1;
        tr.set_rep(pairs);
        tr.set_enabled(false);
        let plain = direct_pass(w, &mut tr, false)?;
        tr.set_enabled(true);
        let span = tr.begin("rep.profiled");
        let profiled = direct_pass(w, &mut tr, true);
        tr.end(span);
        let profiled = profiled?;
        push(&mut m, traced_metrics(&profiled));
        push(
            &mut m,
            vec![
                (
                    "core.profile_overhead_ratio",
                    pass_wall_s(&profiled) / pass_wall_s(&plain),
                ),
                ("core.cell_cycles_per_s.baseline", rate(&plain, &baseline)),
                ("core.cell_cycles_per_s.proposal", rate(&plain, &proposal)),
            ],
        );
        run_ns = plain.iter().map(|c| c.run_ns).collect();
        direct_walls.push(pass_wall_s(&plain));
        gate.judge(&format!("untraced pass {pairs}"), &results_of(plain));
        gate.judge(
            &format!("profiled pass {pairs} (profiling must be bit-neutral)"),
            &results_of(profiled),
        );
    }

    // The workload's own path, with spans around the calls it makes.
    let mut reps = 0;
    if matches!(w.kind, Kind::Fig6 | Kind::Serve) {
        let window = Instant::now();
        let mut timings = Vec::new();
        while reps < if w.kind == Kind::Serve { 2 } else { 1 }
            || (w.kind == Kind::Serve && window.elapsed() < Duration::from_secs(o.seconds) / 4)
        {
            reps += 1;
            tr.set_rep(pairs + reps as u32);
            let rep = run_rep(
                w,
                &mut RepEnv {
                    tracer: &mut tr,
                    scratch: scratch.join(format!("t{reps}")),
                    reference: Some(&ready.reference),
                },
            )?;
            gate.judge(&format!("traced rep {reps}"), &rep.results);
            timings.extend(rep.serve);
        }
        let cells = w.specs.len() as f64;
        let direct = median(&direct_walls);
        for t in &timings {
            push(
                &mut m,
                vec![
                    ("serve.start_ms", t.start_ms),
                    ("serve.submit_ack_ms", t.submit_ack_ms),
                    ("serve.first_event_ms", t.first_event_ms),
                    ("serve.finalise_ms", t.finalise_ms),
                    (
                        "serve.dispatch_overhead_ms_per_cell",
                        (t.cold_s - direct) * 1e3 / cells,
                    ),
                    ("serve.warm_speedup", t.cold_s / t.warm_s),
                    ("serve.warm_hit_ratio", t.warm_hits as f64 / cells),
                    ("serve.status_ms", t.status_ms),
                    ("serve.drain_ms", t.drain_ms),
                ],
            );
        }
        if w.kind == Kind::Serve {
            push(
                &mut m,
                vec![(
                    "serve.proto_roundtrip_us",
                    layers::proto_roundtrip_us(o.seed),
                )],
            );
        }
    }

    tr.set_rep(0);
    push(
        &mut m,
        layers::ledger(w, &ready.reference, &run_ns, scratch, &mut tr)?,
    );

    let path = o.out.join(format!("trace.{}.json", w.name));
    crate::report::write_json(&path, &tr.to_chrome_trace())?;
    println!(
        "-- spans ({} recorded, written to {}); self = span - children",
        tr.spans().len(),
        path.display()
    );
    for s in tr.self_times() {
        println!(
            "{:<28} x{:<6} total {:>10.3} ms  self {:>10.3} ms",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    let zero = (w.kind != Kind::Serve).then_some("serve.");
    Ok((
        pairs as usize + reps,
        ordered(&metrics::PER_LAYER, m, zero)?,
    ))
}

/// Run one workload and report. `started` is when the process began:
/// the first set-up is timed from there.
pub fn run(o: &RunOpts, started: Instant) -> Result<Outcome, String> {
    let scratch = o
        .out
        .join("tmp")
        .join(format!("{}-{}", o.workload, std::process::id()));
    let mut gate = Gate::default();
    let setups = if o.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut ready = None;
    for k in 0..setups {
        let t0 = if k == 0 { started } else { Instant::now() };
        ready = Some(set_up(o, &scratch, k, &mut gate)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up");
    let (reps, metrics) = if o.trace {
        per_layer(o, &scratch, &ready, &mut gate)?
    } else {
        end_to_end(o, &scratch, &ready, &setup_s, &mut gate)?
    };
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(Outcome {
        workload: o.workload.clone(),
        seed: o.seed,
        trace: o.trace,
        seconds: o.seconds,
        reps,
        setups,
        attempted: gate.attempted,
        failed: gate.failed,
        sim_digest: sim_digest(&gate.reference),
        metrics,
        problems: gate.problems,
    })
}
