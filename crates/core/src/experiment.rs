//! The evaluation's run matrix, parallel execution and normalisation.
//!
//! Section 5 normalises every number against the baseline configuration
//! (75-byte B-Wire links, no compression) and reports, per application:
//! execution time (Figure 6 top), link ED²P (Figure 6 bottom) and
//! full-CMP ED²P (Figure 7), for a set of Stride/DBRC configurations plus
//! the perfect-compression bound.

use addr_compression::CompressionScheme;
use cmp_common::config::CmpConfig;
use wire_model::wires::VlWidth;
use workloads::profile::AppProfile;

use crate::engine::{SimError, SimResult};
use crate::niface::InterconnectChoice;
use crate::supervisor::{run_matrix_supervised, RunPolicy};

/// One (interconnect, scheme) configuration of the matrix.
#[derive(Clone, Debug)]
pub struct ConfigSpec {
    /// Legend label (matches the paper's figures).
    pub label: String,
    pub interconnect: InterconnectChoice,
    pub scheme: CompressionScheme,
}

impl ConfigSpec {
    /// The baseline every figure normalises against.
    pub fn baseline() -> Self {
        ConfigSpec {
            label: "baseline".to_string(),
            interconnect: InterconnectChoice::Baseline,
            scheme: CompressionScheme::None,
        }
    }

    /// A compression scheme over the matching heterogeneous link: the
    /// number of low-order bytes determines the VL width (Section 5.2:
    /// "the number of bytes used to send the low order bits (1 or 2
    /// bytes) determines the number of VL-Wires (4 or 5 bytes)").
    pub fn compressed(scheme: CompressionScheme) -> Self {
        let vl = VlWidth::for_low_order_bytes(scheme.low_order_bytes());
        ConfigSpec {
            label: scheme.label(),
            interconnect: InterconnectChoice::Heterogeneous(vl),
            scheme,
        }
    }
}

/// The full configuration list of Figures 6/7: baseline, the eight
/// Stride/DBRC combinations of Figure 2, and (optionally) the three
/// perfect-compression bounds drawn as solid lines.
pub fn paper_configs(include_perfect: bool) -> Vec<ConfigSpec> {
    let mut v = vec![ConfigSpec::baseline()];
    v.extend(
        CompressionScheme::paper_matrix()
            .into_iter()
            .map(ConfigSpec::compressed),
    );
    if include_perfect {
        for low in [1usize, 2] {
            v.push(ConfigSpec::compressed(CompressionScheme::Perfect {
                low_bytes: low,
            }));
        }
    }
    v
}

/// The configurations plotted in Figure 6: the paper keeps only schemes
/// "with a compression coverage over 80 %" as bars (plus the baseline
/// and the perfect-compression solid lines), in [`paper_configs`] order.
pub fn figure6_configs(include_perfect: bool) -> Vec<ConfigSpec> {
    // below 80 %: 1-byte Stride and 4/64-entry DBRC with 1 low-order byte
    let low = |s: &CompressionScheme| {
        use CompressionScheme::{Dbrc, Stride};
        matches!(
            s,
            Stride { low_bytes: 1 }
                | Dbrc {
                    entries: 4 | 64,
                    low_bytes: 1
                }
        )
    };
    let mut v = paper_configs(include_perfect);
    v.retain(|c| !low(&c.scheme));
    v
}

/// One run of the matrix.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub app: AppProfile,
    pub config: ConfigSpec,
    pub seed: u64,
    pub scale: f64,
}

/// A run of the matrix that ended in a `SimError`, identified by its
/// (application, configuration) pair.
#[derive(Debug)]
pub struct RunFailure {
    pub app: String,
    pub config: String,
    pub error: SimError,
}

/// All failed runs of a matrix. Successful runs are discarded: a partial
/// matrix cannot be normalised, so the caller needs the full failure list
/// rather than a subset of results.
#[derive(Debug)]
pub struct MatrixError {
    pub failures: Vec<RunFailure>,
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} run(s) failed:", self.failures.len())?;
        for fail in &self.failures {
            write!(
                f,
                "\n  app={} config={}: {}",
                fail.app, fail.config, fail.error
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for MatrixError {}

/// Execute the matrix on all available cores, preserving input order.
///
/// A failing run no longer takes the whole matrix down: every spec is
/// attempted, and if any fail the returned [`MatrixError`] names each
/// failing (app, config) pair with its [`SimError`]. A run that
/// *panics* (a simulator bug, not a structured failure) is likewise
/// caught and reported as [`SimError::Panic`] instead of poisoning the
/// shared result set and aborting the whole sweep.
pub fn run_matrix(cmp: &CmpConfig, specs: &[RunSpec]) -> Result<Vec<SimResult>, MatrixError> {
    run_matrix_jobs(cmp, specs, None)
}

/// [`run_matrix`] with an explicit cap on worker threads (`None` = all
/// available cores). `Some(1)` runs the matrix sequentially on the
/// calling thread's schedule — useful for benchmarking and for keeping
/// memory bounded on small machines.
///
/// This is [`run_matrix_supervised`] under the default policy with no
/// journal, for callers that want all rows or the failure list.
pub fn run_matrix_jobs(
    cmp: &CmpConfig,
    specs: &[RunSpec],
    jobs: Option<usize>,
) -> Result<Vec<SimResult>, MatrixError> {
    let report = run_matrix_supervised(cmp, specs, jobs, &RunPolicy::default(), None);
    let mut failed = report.failures.into_iter().peekable();
    let mut ok = Vec::with_capacity(specs.len());
    let mut failures = Vec::new();
    for (i, (spec, slot)) in specs.iter().zip(report.results).enumerate() {
        match slot {
            Some(r) => ok.push(r),
            None => failures.push(RunFailure {
                app: spec.app.name.to_string(),
                config: spec.config.label.clone(),
                // An unfilled slot with no failure entry means the
                // worker died before storing even the caught panic —
                // report it rather than crashing the collector.
                error: failed
                    .next_if(|f| f.index == i)
                    .map(|f| f.error)
                    .unwrap_or_else(|| SimError::Panic {
                        message: "worker exited without reporting a result".to_string(),
                    }),
            }),
        }
    }
    if failures.is_empty() {
        Ok(ok)
    } else {
        Err(MatrixError { failures })
    }
}

/// A figure row: one application under one configuration, normalised to
/// that application's baseline run.
#[derive(Clone, Debug)]
pub struct NormalizedRow {
    pub app: String,
    pub config: String,
    /// Execution time relative to baseline (Figure 6 top; < 1 is faster).
    pub exec_time: f64,
    /// Link ED²P relative to baseline (Figure 6 bottom).
    pub link_ed2p: f64,
    /// Full-CMP ED²P relative to baseline (Figure 7).
    pub chip_ed2p: f64,
    /// Compression coverage of this run (Figure 2).
    pub coverage: f64,
}

/// `normalize` was asked to scale an application that has no baseline
/// run in the result set — typically a filtered or partially-failed
/// matrix. Names the application and what the set does contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissingBaseline {
    /// Application with no baseline run.
    pub app: String,
    /// Configuration labels the result set does contain for that app.
    pub available: Vec<String>,
}

impl std::fmt::Display for MissingBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no baseline run for application '{}': cannot normalise; \
             the result set only has [{}] for it — include a \
             `ConfigSpec::baseline()` run in the matrix",
            self.app,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for MissingBaseline {}

/// Normalise `results` against the baseline run of each application.
/// Fails with a descriptive [`MissingBaseline`] when an application in
/// the set has no baseline run to normalise against.
pub fn normalize(results: &[SimResult]) -> Result<Vec<NormalizedRow>, MissingBaseline> {
    let baseline = |app: &str| -> Result<&SimResult, MissingBaseline> {
        results
            .iter()
            .find(|r| {
                r.app == app
                    && r.interconnect == InterconnectChoice::Baseline
                    && r.scheme == CompressionScheme::None
            })
            .ok_or_else(|| MissingBaseline {
                app: app.to_string(),
                available: results
                    .iter()
                    .filter(|r| r.app == app)
                    .map(config_label)
                    .collect(),
            })
    };
    results
        .iter()
        .filter(|r| {
            !(r.interconnect == InterconnectChoice::Baseline && r.scheme == CompressionScheme::None)
        })
        .map(|r| {
            let b = baseline(&r.app)?;
            Ok(NormalizedRow {
                app: r.app.clone(),
                config: config_label(r),
                exec_time: r.cycles as f64 / b.cycles as f64,
                link_ed2p: r.link_ed2p() / b.link_ed2p(),
                chip_ed2p: r.chip_ed2p() / b.chip_ed2p(),
                coverage: r.coverage,
            })
        })
        .collect()
}

/// What [`normalize_partial`] could and could not scale.
#[derive(Clone, Debug, Default)]
pub struct PartialNormalization {
    /// Rows for every application that *does* have a baseline run, in
    /// input order.
    pub rows: Vec<NormalizedRow>,
    /// Applications skipped because the set has no baseline run for
    /// them (a partially-failed or resumed-and-incomplete matrix),
    /// deduplicated, in input order.
    pub missing_baseline: Vec<String>,
}

/// [`normalize`] for a partial result set — e.g. a supervised matrix
/// where some cells failed terminally. Applications without a baseline
/// run are reported, not fatal, so the figures that *can* be produced
/// still are.
pub fn normalize_partial(results: &[SimResult]) -> PartialNormalization {
    let mut out = PartialNormalization::default();
    let has_baseline = |app: &str| {
        results.iter().any(|r| {
            r.app == app
                && r.interconnect == InterconnectChoice::Baseline
                && r.scheme == CompressionScheme::None
        })
    };
    let (with, without): (Vec<_>, Vec<_>) =
        results.iter().cloned().partition(|r| has_baseline(&r.app));
    for r in &without {
        if !out.missing_baseline.iter().any(|a| a == &r.app) {
            out.missing_baseline.push(r.app.clone());
        }
    }
    out.rows = normalize(&with).expect("every app in the filtered set has a baseline");
    out
}

/// Label of a result's configuration.
pub fn config_label(r: &SimResult) -> String {
    match (r.interconnect, r.scheme) {
        (InterconnectChoice::Baseline, CompressionScheme::None) => "baseline".into(),
        (_, scheme) => scheme.label(),
    }
}

/// Geometric-mean helper for summarising per-app ratios.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for x in xs {
        assert!(x > 0.0, "geomean needs positive values");
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        return 1.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CmpSimulator, SimConfig};
    use workloads::synthetic;

    #[test]
    fn paper_configs_cover_the_matrix() {
        let c = paper_configs(true);
        // baseline + 8 schemes + 2 perfect bounds
        assert_eq!(c.len(), 11);
        assert_eq!(c[0].label, "baseline");
        assert!(c.iter().any(|s| s.label == "2-byte Stride"));
        assert!(c.iter().any(|s| s.label == "64-entry DBRC (2B LO)"));
        assert!(c.iter().any(|s| s.label.starts_with("perfect")));
        // low-order bytes pick the VL width
        let s = c
            .iter()
            .find(|s| s.label == "4-entry DBRC (1B LO)")
            .unwrap();
        assert_eq!(
            s.interconnect,
            InterconnectChoice::Heterogeneous(VlWidth::FourBytes)
        );
        let s = c
            .iter()
            .find(|s| s.label == "4-entry DBRC (2B LO)")
            .unwrap();
        assert_eq!(
            s.interconnect,
            InterconnectChoice::Heterogeneous(VlWidth::FiveBytes)
        );
    }

    #[test]
    fn matrix_runs_in_parallel_and_normalises() {
        let cmp = CmpConfig::default();
        let app = synthetic::hotspot(800, 64);
        let specs: Vec<RunSpec> = [
            ConfigSpec::baseline(),
            ConfigSpec::compressed(CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2,
            }),
            ConfigSpec::compressed(CompressionScheme::Perfect { low_bytes: 2 }),
        ]
        .into_iter()
        .map(|config| RunSpec {
            app: app.clone(),
            config,
            seed: 7,
            scale: 1.0,
        })
        .collect();
        let results = run_matrix(&cmp, &specs).expect("matrix runs cleanly");
        assert_eq!(results.len(), 3);
        let rows = normalize(&results).expect("baseline present");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.exec_time > 0.5 && row.exec_time < 1.5, "{row:?}");
            assert!(row.link_ed2p > 0.0);
            assert!(row.chip_ed2p > 0.0);
        }
        // perfect compression should not be slower than DBRC
        let dbrc = rows.iter().find(|r| r.config.contains("DBRC")).unwrap();
        let perfect = rows.iter().find(|r| r.config.contains("perfect")).unwrap();
        assert!(perfect.exec_time <= dbrc.exec_time * 1.02);
    }

    #[test]
    fn failing_runs_are_reported_not_fatal() {
        // A watchdog budget far below what the workload needs: the run
        // fails, and the matrix error names the (app, config) pair
        // instead of panicking the worker thread.
        let app = synthetic::hotspot(800, 64);
        let spec = RunSpec {
            app,
            config: ConfigSpec::baseline(),
            seed: 7,
            scale: 1.0,
        };
        let mut cfg = SimConfig::new(spec.config.interconnect, spec.config.scheme);
        cfg.cmp = CmpConfig::default();
        cfg.max_cycles = 10;
        let mut sim = CmpSimulator::new(cfg, &spec.app, spec.seed, spec.scale);
        let error = sim.run().expect_err("watchdog must fire");
        let matrix_err = MatrixError {
            failures: vec![RunFailure {
                app: spec.app.name.to_string(),
                config: spec.config.label.clone(),
                error,
            }],
        };
        let msg = matrix_err.to_string();
        assert!(msg.contains("1 run(s) failed"), "{msg}");
        assert!(msg.contains("hotspot"), "{msg}");
        assert!(msg.contains("baseline"), "{msg}");
    }

    #[test]
    fn panicking_run_is_reported_as_structured_failure() {
        // An invalid machine description makes the simulator constructor
        // panic inside the worker thread; the matrix must surface that as
        // a SimError::Panic naming the (app, config) pair, not poison the
        // shared result set.
        let cmp = CmpConfig {
            l1_mshrs: 0,
            ..CmpConfig::default()
        };
        let app = synthetic::hotspot(200, 64);
        let specs = vec![RunSpec {
            app,
            config: ConfigSpec::baseline(),
            seed: 7,
            scale: 1.0,
        }];
        let err = run_matrix(&cmp, &specs).expect_err("panic must surface as an error");
        assert_eq!(err.failures.len(), 1);
        match &err.failures[0].error {
            SimError::Panic { message } => {
                assert!(message.contains("valid machine config"), "{message}");
                assert_eq!(err.failures[0].error.cycle(), 0);
                assert!(err.failures[0].error.dump().is_none());
            }
            other => panic!("expected SimError::Panic, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("worker panicked"), "{msg}");
        assert!(msg.contains("hotspot"), "{msg}");
    }

    #[test]
    fn job_capped_matrix_matches_unbounded_run() {
        let cmp = CmpConfig::default();
        let app = synthetic::hotspot(400, 64);
        let specs: Vec<RunSpec> = [
            ConfigSpec::baseline(),
            ConfigSpec::compressed(CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2,
            }),
        ]
        .into_iter()
        .map(|config| RunSpec {
            app: app.clone(),
            config,
            seed: 7,
            scale: 1.0,
        })
        .collect();
        let parallel = run_matrix(&cmp, &specs).expect("parallel matrix");
        let serial = run_matrix_jobs(&cmp, &specs, Some(1)).expect("serial matrix");
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.cycles, s.cycles, "job cap must not change results");
            assert_eq!(p.network_messages, s.network_messages);
        }
    }

    #[test]
    fn normalize_without_baseline_is_a_descriptive_error() {
        let cmp = CmpConfig::default();
        let app = synthetic::hotspot(400, 64);
        let specs = vec![RunSpec {
            app,
            config: ConfigSpec::compressed(CompressionScheme::Perfect { low_bytes: 2 }),
            seed: 7,
            scale: 1.0,
        }];
        let results = run_matrix(&cmp, &specs).expect("run succeeds");
        let err = normalize(&results).expect_err("no baseline in the set");
        assert_eq!(err.app, "hotspot");
        let msg = err.to_string();
        assert!(msg.contains("no baseline run"), "{msg}");
        assert!(msg.contains("hotspot"), "{msg}");
        assert!(msg.contains("perfect"), "{msg}");
    }

    #[test]
    fn geomean_behaviour() {
        assert!((geomean([1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }
}
