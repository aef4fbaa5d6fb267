//! The four workloads: their cell lists, how one rep runs, and the
//! correctness gate every rep passes through.
//!
//! A workload is a list of *cells* — one `CmpSimulator` run each — and
//! every list holds baseline and proposal cells, so all ten end-to-end
//! metrics are defined on all four workloads. Load model: closed loop,
//! one generator, every simulation at `sim_threads = 1`, sweeps at
//! `jobs = 1`, the daemon with one worker. Modelled caches start empty
//! in every cell and statistics cover the whole run.

use std::path::PathBuf;
use std::time::Instant;

use addr_compression::CompressionScheme;
use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::geometry::MeshShape;
use cmp_common::hash::{fnv64, Fnv64};
use mesh_noc::ChannelKind;
use tcmp_core::experiment::{figure6_configs, geomean, normalize, run_matrix_jobs};
use tcmp_core::sim::PhaseProfile;
use tcmp_core::supervisor::result_to_json;
use tcmp_core::{CmpSimulator, ConfigSpec, InterconnectChoice, RunSpec, SimConfig, SimResult};
use wire_model::wires::VlWidth;

use crate::serve;
use crate::spans::Tracer;
use crate::sys::cpu_seconds;

/// Apps of the Figure-6 sweep: deliberately weighted to compute-bound
/// ones, so this is the workload a NoC change should move least.
pub const FIG6_APPS: [&str; 6] = [
    "FFT",
    "LU-cont",
    "Water-nsq",
    "Water-spa",
    "EM3D",
    "Ocean-cont",
];
/// Apps of the campaign submitted through the daemon (18 cells). Not
/// FFT: the seed moves its message count by ±15 % at this scale, which
/// at 60 % of a three-app campaign would drown the service overheads
/// this workload is here to show; these three move by ±5 %.
pub const SERVE_APPS: [&str; 3] = ["LU-cont", "Water-nsq", "Water-spa"];
/// Trace scale of the Figure-6 and campaign cells (60–200 ms each).
pub const SWEEP_SCALE: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hotspot,
    Mesh,
    Fig6,
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The machine every cell simulates.
    pub cmp: CmpConfig,
    /// The cell list of one direct pass, in run order.
    pub specs: Vec<RunSpec>,
}

/// The paper's proposal: 34 B of B-Wires + a 5-byte VL channel, with a
/// 4-entry DBRC keeping 2 low-order bytes.
pub fn proposal() -> ConfigSpec {
    let scheme = CompressionScheme::Dbrc {
        entries: 4,
        low_bytes: 2,
    };
    ConfigSpec {
        label: scheme.label(),
        interconnect: InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
        scheme,
    }
}

fn is_baseline(c: &ConfigSpec) -> bool {
    c.interconnect == InterconnectChoice::Baseline && c.scheme == CompressionScheme::None
}

fn is_proposal(c: &ConfigSpec) -> bool {
    let p = proposal();
    c.interconnect == p.interconnect && c.scheme == p.scheme
}

fn sweep_specs(apps: &[&str], seed: u64) -> Result<Vec<RunSpec>, String> {
    let configs = figure6_configs(false);
    let mut specs = Vec::with_capacity(apps.len() * configs.len());
    for name in apps {
        let app =
            workloads::apps::app_by_name(name).ok_or_else(|| format!("unknown app {name}"))?;
        for config in &configs {
            specs.push(RunSpec {
                app: app.clone(),
                config: config.clone(),
                seed,
                scale: SWEEP_SCALE,
            });
        }
    }
    Ok(specs)
}

impl Workload {
    /// Build the inputs of workload `name`. The seed only feeds trace
    /// generation; the program sees generated inputs.
    pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
        let pair = |app: workloads::profile::AppProfile, scale: f64| {
            [ConfigSpec::baseline(), proposal()]
                .into_iter()
                .map(|config| RunSpec {
                    app: app.clone(),
                    config,
                    seed,
                    scale,
                })
                .collect::<Vec<_>>()
        };
        Ok(match name {
            "hotspot_4x4" => Workload {
                name: "hotspot_4x4",
                kind: Kind::Hotspot,
                cmp: CmpConfig::default(),
                specs: pair(workloads::synthetic::hotspot(20_000, 64), 1.0),
            },
            "mesh_16x16_sparse" => Workload {
                name: "mesh_16x16_sparse",
                kind: Kind::Mesh,
                cmp: CmpConfig {
                    mesh: MeshShape::square(16),
                    directory: DirectoryConfig::sparse(),
                    ..CmpConfig::default()
                },
                specs: pair(workloads::apps::fft(), 0.002),
            },
            "fig6_sweep" => Workload {
                name: "fig6_sweep",
                kind: Kind::Fig6,
                cmp: CmpConfig::default(),
                specs: sweep_specs(&FIG6_APPS, seed)?,
            },
            "serve_campaign" => Workload {
                name: "serve_campaign",
                kind: Kind::Serve,
                cmp: CmpConfig::default(),
                specs: sweep_specs(&SERVE_APPS, seed)?,
            },
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Cells one rep runs (the campaign runs its list twice: cold,
    /// then warm).
    pub fn cells_per_rep(&self) -> usize {
        match self.kind {
            Kind::Serve => 2 * self.specs.len(),
            _ => self.specs.len(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.specs[0].seed
    }
}

/// One directly run cell with the benchmark-side timings around it.
pub struct CellOut {
    pub result: SimResult,
    pub new_ns: u64,
    pub run_ns: u64,
    /// `CmpSimulator::finish` alone (profiled cells only; `run` folds
    /// it in otherwise).
    pub finish_ns: u64,
    pub profile: Option<PhaseProfile>,
    /// Σ `link_flit_counts` over the configured channels.
    pub flit_hops: u64,
}

/// The configuration of one cell on `cmp`, stepped by `sim_threads`
/// scheduler threads.
pub fn sim_config(cmp: &CmpConfig, spec: &RunSpec, sim_threads: usize) -> SimConfig {
    let mut cfg = SimConfig::new(spec.config.interconnect, spec.config.scheme);
    cfg.cmp = cmp.clone();
    cfg.sim_threads = Some(sim_threads);
    cfg
}

/// Run one cell directly on `sim_threads` scheduler threads (1 everywhere
/// but the epoch-overhead row). Unprofiled, this is exactly
/// `CmpSimulator::new` + `run`; profiled, the engine's phase profile
/// is on, the run is stepped so `finish` gets its own span, and the
/// profile's buckets become children of the run span.
pub fn run_cell(
    cmp: &CmpConfig,
    spec: &RunSpec,
    tr: &mut Tracer,
    profiled: bool,
    sim_threads: usize,
) -> Result<CellOut, String> {
    let cfg = sim_config(cmp, spec, sim_threads);
    let cell = tr.begin("cell");
    let (mut sim, new_ns) = tr.time("CmpSimulator::new", || {
        CmpSimulator::new(cfg, &spec.app, spec.seed, spec.scale)
    });
    let describe = |e: tcmp_core::SimError| {
        format!(
            "cell {}|{}: {}",
            spec.app.name,
            spec.config.label,
            e.brief()
        )
    };
    let out = if profiled {
        sim.enable_profiling();
        let run = tr.begin("CmpSimulator::run");
        let t0 = Instant::now();
        let stepped = loop {
            match sim.step() {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let run_ns = t0.elapsed().as_nanos() as u64;
        let profile = sim.phase_profile().cloned();
        if let Some(p) = &profile {
            tr.attach_children(
                run,
                &[
                    ("phase.mem_fills", p.mem_fills_ns),
                    ("phase.calendar", p.calendar_ns),
                    ("phase.noc_tick", p.noc_tick_ns),
                    ("phase.l1_deliver", p.l1_deliver_ns),
                    ("phase.l2_deliver", p.l2_deliver_ns),
                    ("phase.cores", p.cores_ns),
                    ("phase.advance", p.advance_ns),
                ],
            );
        }
        tr.end(run);
        stepped.map_err(describe).map(|()| {
            let (result, finish_ns) = tr.time("CmpSimulator::finish", || sim.finish());
            let kinds: &[ChannelKind] = match spec.config.interconnect {
                InterconnectChoice::Baseline => &[ChannelKind::B],
                InterconnectChoice::Heterogeneous(_) => &[ChannelKind::B, ChannelKind::Vl],
                InterconnectChoice::ReplyPartitioning => &[ChannelKind::L, ChannelKind::Pw],
            };
            let flit_hops = kinds
                .iter()
                .flat_map(|&k| sim.link_flit_counts(k))
                .map(|(_, _, flits)| flits)
                .sum();
            CellOut {
                result,
                new_ns,
                run_ns,
                finish_ns,
                profile,
                flit_hops,
            }
        })
    } else {
        let (ran, run_ns) = tr.time("CmpSimulator::run", || sim.run());
        ran.map_err(describe).map(|result| CellOut {
            result,
            new_ns,
            run_ns,
            finish_ns: 0,
            profile: None,
            flit_hops: 0,
        })
    };
    tr.end(cell);
    out
}

/// Run the workload's cell list directly, one cell after another.
pub fn direct_pass(w: &Workload, tr: &mut Tracer, profiled: bool) -> Result<Vec<CellOut>, String> {
    w.specs
        .iter()
        .map(|spec| run_cell(&w.cmp, spec, tr, profiled, 1))
        .collect()
}

/// One rep's outcome.
pub struct RepOut {
    /// Results of every cell the rep ran, in cell order.
    pub results: Vec<SimResult>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub serve: Option<serve::Timings>,
}

/// What a rep needs beyond the workload itself.
pub struct RepEnv<'a> {
    pub tracer: &'a mut Tracer,
    /// Scratch directory of this rep (inside the checkout).
    pub scratch: PathBuf,
    /// Directly computed results of the cell list (`serve_campaign`
    /// compares its CSVs against these).
    pub reference: Option<&'a [SimResult]>,
}

/// Run one rep of `w` the way a user would run it.
pub fn run_rep(w: &Workload, env: &mut RepEnv) -> Result<RepOut, String> {
    if w.kind == Kind::Serve {
        let reference = env
            .reference
            .ok_or("serve_campaign needs its reference run")?;
        return serve::campaign_rep(w, reference, &env.scratch, env.tracer);
    }
    let rep = env.tracer.begin("rep");
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    let results = match w.kind {
        Kind::Fig6 => env
            .tracer
            .time("run_matrix_jobs", || {
                run_matrix_jobs(&w.cmp, &w.specs, Some(1))
            })
            .0
            .map_err(|e| e.to_string()),
        _ => direct_pass(w, env.tracer, false)
            .map(|cells| cells.into_iter().map(|c| c.result).collect()),
    };
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
    env.tracer.end(rep);
    Ok(RepOut {
        results: results?,
        wall_s,
        cpu_s,
        serve: None,
    })
}

/// FNV of a cell's rendered result row: two commits compare simulated
/// statistics exactly through it.
pub fn cell_digest(r: &SimResult) -> u64 {
    fnv64(result_to_json(r).render().as_bytes())
}

/// The workload's `sim_digest`: FNV over its cells' digests in order.
pub fn sim_digest(cells: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &d in cells {
        h.write_u64(d);
    }
    h.finish()
}

/// Cells of `results` whose digest differs from the reference pass
/// (results repeat the reference list cyclically: the campaign runs it
/// twice). A length mismatch fails every cell.
pub fn mismatched_cells(results: &[SimResult], reference: &[u64]) -> usize {
    if reference.is_empty() || results.len() % reference.len() != 0 {
        return results.len().max(1);
    }
    results
        .iter()
        .enumerate()
        .filter(|(i, r)| cell_digest(r) != reference[i % reference.len()])
        .count()
}

/// The two simulated ratios of the paper, over one pass of results:
/// geomean across apps of proposal ÷ baseline execution time and link
/// ED²P.
pub fn sim_ratios(results: &[SimResult]) -> Result<(f64, f64), String> {
    let p = proposal();
    let rows = normalize(results).map_err(|e| e.to_string())?;
    let rows: Vec<_> = rows.iter().filter(|r| r.config == p.label).collect();
    if rows.is_empty() {
        return Err("no proposal cell in the workload".to_string());
    }
    Ok((
        geomean(rows.iter().map(|r| r.exec_time)),
        geomean(rows.iter().map(|r| r.link_ed2p)),
    ))
}

/// Indices of the baseline and of the proposal cells of `w`.
pub fn config_cells(w: &Workload) -> (Vec<usize>, Vec<usize>) {
    let pick = |f: fn(&ConfigSpec) -> bool| {
        w.specs
            .iter()
            .enumerate()
            .filter(|(_, s)| f(&s.config))
            .map(|(i, _)| i)
            .collect()
    };
    (pick(is_baseline), pick(is_proposal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_holds_baseline_and_proposal_cells() {
        for (name, cells) in [
            ("hotspot_4x4", 2),
            ("mesh_16x16_sparse", 2),
            ("fig6_sweep", 36),
            ("serve_campaign", 18),
        ] {
            let w = Workload::build(name, 7).expect("builds");
            assert_eq!(w.specs.len(), cells, "{name}");
            assert!(w.specs.iter().all(|s| s.seed == 7), "{name}: seed plumbed");
            let (base, prop) = config_cells(&w);
            assert!(!base.is_empty() && base.len() == prop.len(), "{name}");
        }
        assert!(Workload::build("nope", 1).is_err());
        assert_eq!(
            Workload::build("serve_campaign", 1)
                .expect("builds")
                .cells_per_rep(),
            36
        );
    }

    #[test]
    fn digest_mismatch_is_counted_per_cell() {
        assert_eq!(sim_digest(&[1, 2]), sim_digest(&[1, 2]));
        assert_ne!(sim_digest(&[1, 2]), sim_digest(&[2, 1]));
        assert_eq!(
            mismatched_cells(&[], &[]),
            1,
            "nothing to compare is a failure"
        );
    }
}
