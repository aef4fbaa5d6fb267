//! Coverage probes only observe a run. Figure 2 measures every scheme
//! as a passive probe on a baseline run, and `tcmp-fig all` serves that
//! one run to every figure that reads the baseline (Figures 5, 6 and 7,
//! the ablation, the 4×4 sensitivity cell), so a probe that moved
//! anything but its own coverage would move their numbers too.

use tiled_cmp::common::config::DirectoryConfig;
use tiled_cmp::prelude::*;
use tiled_cmp::sim::supervisor::result_to_json;

const SEED: u64 = 2026;
const SCALE: f64 = 0.01;

/// The baseline row of `app` on `directory`, with `probes` attached,
/// rendered as the journal writes it but without `probe_coverages`.
fn baseline_row(app: &AppProfile, directory: DirectoryConfig, probes: bool) -> String {
    let mut cfg = SimConfig::baseline();
    cfg.cmp.directory = directory;
    if probes {
        cfg.coverage_probes = CompressionScheme::paper_matrix();
    }
    let mut row = CmpSimulator::new(cfg, app, SEED, SCALE)
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", app.name));
    assert_eq!(row.probe_coverages.len(), if probes { 8 } else { 0 });
    row.probe_coverages.clear();
    result_to_json(&row).render()
}

#[test]
fn coverage_probes_leave_the_run_unchanged() {
    let apps = [
        tiled_cmp::workloads::apps::fft(),
        tiled_cmp::workloads::apps::mp3d(),
    ];
    for app in &apps {
        for directory in [DirectoryConfig::FullMap, DirectoryConfig::sparse()] {
            assert_eq!(
                baseline_row(app, directory, true),
                baseline_row(app, directory, false),
                "{} on {}: the probes changed the run",
                app.name,
                directory.label()
            );
        }
    }
}
