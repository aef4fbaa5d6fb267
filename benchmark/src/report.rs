//! What a run leaves behind: the printed table, the one-line result the
//! driver reads, the results file with its provenance stamp, and the
//! comparison of two results files.

use std::path::Path;

use cmp_common::journal::Json;

use crate::metrics::{self, Better, MetricDef};
use crate::stats::Summary;

/// The paper's landmarks (EXPERIMENTS.md) printed beside the simulated
/// ratios.
pub const PAPER_LANDMARKS: &str = "paper: Water/LU 0.98-0.99 execution time, 4-entry DBRC geomean \
     ~0.92 execution time / ~0.70 link ED2P; the workloads here are scaled-down subsets, so the \
     difference is indicative, not an error bar";

/// The outcome of one workload run.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    /// Timed reps behind the host-time medians.
    pub reps: usize,
    pub setups: usize,
    /// Cells attempted / failing any check, over every rep run.
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    /// Metrics in the order of [`metrics::END_TO_END`] or
    /// [`metrics::PER_LAYER`].
    pub metrics: Vec<(&'static MetricDef, Summary)>,
    /// What failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Where this build and this box come from; stamped into every results
/// file.
pub fn provenance() -> Json {
    Json::Obj(vec![
        (
            "git_sha".into(),
            Json::str(tcmp_core::supervisor::build_git_sha()),
        ),
        ("nproc".into(), Json::u64(crate::sys::nproc() as u64)),
        ("rustc".into(), Json::str(crate::sys::rustc_version())),
        (
            "release_profile".into(),
            Json::str("lto=fat codegen-units=1 (the root workspace's, copied verbatim)"),
        ),
        (
            "load_model".into(),
            Json::str(
                "closed loop, one generator, one client connection; sim_threads=1, jobs=1, \
                 one daemon worker",
            ),
        ),
        (
            "modelled_caches".into(),
            Json::str("start empty in every cell; statistics cover the whole run"),
        ),
    ])
}

fn summary_json(def: &MetricDef, s: &Summary) -> Json {
    Json::Obj(vec![
        ("unit".into(), Json::str(def.unit)),
        ("value".into(), Json::f64(s.median)),
        ("n".into(), Json::u64(s.n as u64)),
        ("min".into(), Json::f64(s.min)),
        ("q1".into(), Json::f64(s.q1)),
        ("q3".into(), Json::f64(s.q3)),
        ("max".into(), Json::f64(s.max)),
    ])
}

/// The results-file document of one workload run.
pub fn outcome_json(o: &Outcome) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::str(&o.workload)),
        ("seed".into(), Json::u64(o.seed)),
        ("trace".into(), Json::Bool(o.trace)),
        ("seconds".into(), Json::u64(o.seconds)),
        ("reps".into(), Json::u64(o.reps as u64)),
        ("setups".into(), Json::u64(o.setups as u64)),
        ("provenance".into(), provenance()),
        (
            "sim_digest".into(),
            Json::str(format!("{:016x}", o.sim_digest)),
        ),
        ("correct".into(), Json::Bool(o.correct())),
        ("attempted".into(), Json::u64(o.attempted)),
        ("failed".into(), Json::u64(o.failed)),
        (
            "problems".into(),
            Json::Arr(o.problems.iter().map(Json::str).collect()),
        ),
        (
            "metrics".into(),
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|(d, s)| (d.name.to_string(), summary_json(d, s)))
                    .collect(),
            ),
        ),
    ])
}

/// The single line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each value with all its digits.
pub fn driver_line(o: &Outcome) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.correct())),
        ("attempted".into(), Json::u64(o.attempted.max(1))),
        ("failed".into(), Json::u64(o.failed)),
        (
            "metrics".into(),
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|(d, s)| {
                        (
                            d.name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::f64(s.median)),
                                ("unit".into(), Json::str(d.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a != 0.0 && !(1e-3..1e7).contains(&a) {
        format!("{v:.4e}")
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Print every metric by name with its unit (and, where a metric has
/// more than one sample, quartiles, min, max and n).
pub fn print_outcome(o: &Outcome) {
    println!(
        "== {} seed {} {} ({} setups, {} timed reps; nproc {}; caches start empty, statistics \
         cover the whole run)",
        o.workload,
        o.seed,
        if o.trace {
            "traced: per-layer ledger"
        } else {
            "untraced: end-to-end"
        },
        o.setups,
        o.reps,
        crate::sys::nproc(),
    );
    for (d, s) in &o.metrics {
        let mut line = format!("{:<40} {:>14} {:<6}", d.name, fmt_value(s.median), d.unit);
        if s.n > 1 {
            line.push_str(&format!(
                " q1 {} q3 {} min {} max {} n {}",
                fmt_value(s.q1),
                fmt_value(s.q3),
                fmt_value(s.min),
                fmt_value(s.max),
                s.n
            ));
        }
        if let Some(b) = d.bound {
            line.push_str(&format!(
                " [{} is better, bound {:.0}%]",
                d.better.label(),
                b * 100.0
            ));
        }
        println!("{line}");
    }
    if !o.trace {
        println!("   ({PAPER_LANDMARKS})");
    }
    println!(
        "sim_digest {:016x}  cells attempted {} failed {}",
        o.sim_digest, o.attempted, o.failed
    );
    for p in &o.problems {
        println!("FAILED CHECK: {p}");
    }
}

pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How two medians of one metric relate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both runs' own spread is within it too.
    Agrees,
    /// The second run is worse than the first by more than the bound.
    Worse,
    /// The second run is better than the first by more than the bound.
    Better,
    /// A run's own quartile spread exceeds the bound: the difference
    /// cannot be told from noise, so it is not reported as unchanged.
    Unresolved,
}

/// By what share of `a` the second median is *worse* (negative =
/// better), given the metric's direction.
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(def: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let worse = worse_by(def, a.median, b.median);
    if a.iqr_share().max(b.iqr_share()) > bound && worse.abs() <= bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Agrees
    }
}

fn summary_from(j: &Json) -> Option<Summary> {
    let f = |k: &str| j.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: j.get("n").and_then(Json::as_u64)? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("value")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

/// Print, per workload × end-to-end metric of two suite results files,
/// both medians, their relative difference, the bound and a verdict.
/// Returns how many metrics moved by more than their bound.
pub fn compare(first: &Path, second: &Path) -> Result<usize, String> {
    let (a, b) = (read_json(first)?, read_json(second)?);
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "not a suite results file (no \"workloads\")".to_string())
    };
    let (a, b) = (workloads(&a)?, workloads(&b)?);
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound", "spread"
    );
    let mut moved = 0;
    for wa in &a {
        let name = wa.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = b
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!(
                "workload {name} is missing from {}",
                second.display()
            ));
        };
        for def in &metrics::END_TO_END {
            let pick = |w: &Json| {
                w.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(summary_from)
                    .ok_or_else(|| format!("{name}: no metric {}", def.name))
            };
            let (sa, sb) = (pick(wa)?, pick(wb)?);
            let v = verdict(def, &sa, &sb);
            if matches!(v, Verdict::Worse | Verdict::Better) {
                moved += 1;
            }
            println!(
                "{:<18} {:<18} {:>14} {:>14} {:>8.2}% {:>6.1}% {:>7.2}%  {}",
                name,
                def.name,
                fmt_value(sa.median),
                fmt_value(sb.median),
                worse_by(def, sa.median, sb.median) * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                sa.iqr_share().max(sb.iqr_share()) * 100.0,
                match v {
                    Verdict::Agrees => "agrees",
                    Verdict::Worse => "WORSE",
                    Verdict::Better => "BETTER",
                    Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                }
            );
        }
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def;

    fn outcome() -> Outcome {
        Outcome {
            workload: "hotspot_4x4".into(),
            seed: 7,
            trace: false,
            seconds: 1,
            reps: 3,
            setups: 3,
            attempted: 8,
            failed: 0,
            sim_digest: 0xABCD,
            metrics: vec![
                (def("wall_s").expect("known"), Summary::of(&[2.0, 2.5, 3.0])),
                (def("cell_ok_rate").expect("known"), Summary::single(1.0)),
            ],
            problems: vec![],
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&outcome());
        assert!(!line.contains('\n'));
        let Json::Obj(fields) = Json::parse(&line).expect("valid JSON") else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let doc = Json::Obj(fields);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn results_document_round_trips_with_its_stamp() {
        let mut o = outcome();
        o.failed = 1;
        o.problems.push("cell digest differs from rep 0".into());
        let doc = Json::parse(&outcome_json(&o).render()).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("sim_digest").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        let stamp = doc.get("provenance").expect("provenance");
        for key in [
            "git_sha",
            "nproc",
            "rustc",
            "release_profile",
            "modelled_caches",
        ] {
            assert!(stamp.get(key).is_some(), "stamp carries {key}");
        }
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(summary_from(wall), Some(Summary::of(&[2.0, 2.5, 3.0])));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = def("wall_s").expect("known");
        let rate = def("sim_cycles_per_s").expect("known");
        let bound = wall.bound.expect("bounded");
        let tight = |m: f64| Summary::of(&[m * 0.999, m, m * 1.001]);
        let (within, beyond) = (1.0 + bound / 2.0, 1.0 + 2.0 * bound);
        assert_eq!(
            verdict(wall, &tight(10.0), &tight(10.0 * within)),
            Verdict::Agrees
        );
        assert_eq!(
            verdict(wall, &tight(10.0), &tight(10.0 * beyond)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall, &tight(10.0 * beyond), &tight(10.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(rate, &tight(10.0 * beyond), &tight(10.0)),
            Verdict::Worse
        );
        let noisy = Summary::of(&[10.0 * (1.0 - bound), 10.0, 10.0 * (1.0 + bound)]);
        assert_eq!(
            verdict(wall, &noisy, &tight(10.0 * within)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(wall, &noisy, &tight(10.0 * beyond)), Verdict::Worse);
        let exact = def("cell_ok_rate").expect("known");
        assert_eq!(
            verdict(exact, &Summary::single(1.0), &Summary::single(1.0)),
            Verdict::Agrees
        );
        assert_eq!(
            verdict(exact, &Summary::single(1.0), &Summary::single(0.5)),
            Verdict::Worse
        );
    }
}
