//! Cross-crate protocol integration: invariants that must hold for every
//! workload/configuration combination on the full simulator.

use tiled_cmp::prelude::*;

fn run(app: &AppProfile, cfg: SimConfig, scale: f64) -> SimResult {
    CmpSimulator::new(cfg, app, 99, scale)
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", app.name))
}

/// Every (workload kind × interconnect × scheme) corner completes without
/// deadlock and with conserved messages.
#[test]
fn all_pattern_kinds_complete_on_all_configs() {
    let apps = [
        tiled_cmp::workloads::synthetic::streaming(1_500, 2048),
        tiled_cmp::workloads::synthetic::uniform_random(1_500, 1 << 15, 0.4),
        tiled_cmp::workloads::synthetic::hotspot(1_000, 32),
    ];
    let configs = [
        SimConfig::baseline(),
        SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::ThreeBytes),
            CompressionScheme::None,
        ),
        SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 1,
            },
        ),
        SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            CompressionScheme::Stride { low_bytes: 2 },
        ),
        SimConfig::new(
            InterconnectChoice::ReplyPartitioning,
            CompressionScheme::None,
        ),
    ];
    for app in &apps {
        for cfg in &configs {
            let r = run(app, cfg.clone(), 1.0);
            assert!(r.cycles > 0);
            // request/response conservation: each request is answered
            let req = r.class_fraction(MessageClass::Request);
            let resp = r.class_fraction(MessageClass::ResponseData)
                + r.class_fraction(MessageClass::ResponseNoData);
            assert!(
                (req - resp).abs() < 0.08,
                "{} {:?}: requests {req} vs responses {resp}",
                app.name,
                cfg.interconnect,
            );
        }
    }
}

/// Protocol stress: tiny L2 forces constant inclusion recalls; tiny L1
/// forces constant writebacks; the run must still complete and balance.
#[test]
fn recall_and_writeback_storm() {
    let app = tiled_cmp::workloads::synthetic::uniform_random(800, 1 << 14, 0.5);
    let mut cfg = SimConfig::baseline();
    cfg.cmp.l2_slice.size_bytes = 16 * 1024; // 64 sets x 4 ways per slice
    cfg.cmp.l1.size_bytes = 2 * 1024; // 8 sets x 4 ways
    let r = run(&app, cfg, 1.0);
    assert!(r.l2_recalls > 0, "tiny L2 must recall");
    assert!(r.mem_reads > 0);
    assert!(
        r.class_fraction(MessageClass::ReplacementData)
            + r.class_fraction(MessageClass::ReplacementNoData)
            > 0.05,
        "tiny L1 must generate replacements"
    );
}

/// One-MSHR cores (fully blocking) and deep-MSHR cores both work.
#[test]
fn mshr_depth_extremes() {
    let app = tiled_cmp::workloads::synthetic::uniform_random(600, 1 << 13, 0.3);
    for mshrs in [1usize, 16] {
        let mut cfg = SimConfig::baseline();
        cfg.cmp.l1_mshrs = mshrs;
        let r = run(&app, cfg, 1.0);
        assert!(r.cycles > 0, "mshrs={mshrs}");
    }
}

/// Barriers synchronise across wildly imbalanced cores without hanging.
#[test]
fn barrier_under_imbalance() {
    use tiled_cmp::workloads::profile::{Pattern, Region, StructureSpec};
    // shared-heavy profile where miss costs differ strongly by tile
    let app = AppProfile {
        name: "imbalanced",
        refs_per_core: 3_000,
        compute_per_ref: 2.0,
        locality_run: 16.0,
        barriers: 10,
        structures: vec![StructureSpec {
            weight: 1.0,
            region: Region::Shared {
                offset_lines: 0,
                lines: 64,
            },
            pattern: Pattern::Migratory { objects: 16 },
            write_frac: 1.0,
        }],
    };
    let r = run(&app, SimConfig::baseline(), 1.0);
    assert!(r.barrier_stall_cycles > 0);
}

/// Different mesh sizes (4, 16, 64 tiles) run the same protocol.
#[test]
fn mesh_size_sweep() {
    let app = tiled_cmp::workloads::synthetic::uniform_random(500, 1 << 13, 0.3);
    for side in [2u16, 4, 8] {
        let mut cfg = SimConfig::baseline();
        cfg.cmp.mesh = tiled_cmp::common::geometry::MeshShape::square(side);
        let r = run(&app, cfg, 1.0);
        assert!(r.cycles > 0, "{side}x{side}");
        assert!(r.network_messages > 0);
    }
}

/// The experiment matrix runner + normaliser work end to end.
#[test]
fn matrix_and_normalisation() {
    let cmp = CmpConfig::default();
    let app = tiled_cmp::workloads::apps::fft();
    let specs: Vec<RunSpec> = [
        ConfigSpec::baseline(),
        ConfigSpec::compressed(CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 2,
        }),
    ]
    .into_iter()
    .map(|config| RunSpec {
        app: app.clone(),
        config,
        seed: 5,
        scale: 0.005,
    })
    .collect();
    let results = run_matrix_jobs(&cmp, &specs, None).expect("matrix runs cleanly");
    let rows = normalize(&results).expect("baseline run present in the matrix");
    assert_eq!(rows.len(), 1);
    assert!(rows[0].exec_time > 0.5 && rows[0].exec_time <= 1.05);
    assert!(rows[0].link_ed2p > 0.0);
}

/// Energy accounting is internally consistent: breakdown parts sum to the
/// totals, and a longer run never has less energy.
#[test]
fn energy_consistency() {
    let app = tiled_cmp::workloads::synthetic::streaming(1_000, 4096);
    let small = run(&app, SimConfig::baseline(), 1.0);
    let big = {
        let app = tiled_cmp::workloads::synthetic::streaming(3_000, 4096);
        run(&app, SimConfig::baseline(), 1.0)
    };
    let e = &small.energy;
    let sum = e.core_dynamic
        + e.core_static
        + e.link_dynamic
        + e.link_static
        + e.router_dynamic
        + e.compression_dynamic
        + e.compression_static;
    assert!((sum.value() - e.chip().value()).abs() < 1e-12);
    assert!(big.energy.chip().value() > small.energy.chip().value());
    assert!(big.cycles > small.cycles);
}
