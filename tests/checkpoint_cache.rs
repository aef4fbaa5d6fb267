//! The warm-start checkpoint store, end to end through the public API:
//! a store can only ever change wall-clock time — never numbers — and
//! a corrupted checkpoint is detected, quarantined and transparently
//! replaced by a fresh simulation.

use std::path::PathBuf;

use tiled_cmp::common::fsx::Fs;
use tiled_cmp::prelude::*;
use tiled_cmp::sim::supervisor::result_to_json;

const SEED: u64 = 0xD5A1_F00D;
const SCALE: f64 = 0.002;
const WARM: u64 = 50_000;

fn proposal_cfg() -> SimConfig {
    SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
        CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        },
    )
}

/// A fresh store in its own scratch directory.
fn scratch_store(tag: &str) -> (DiskStore, PathBuf) {
    let root = std::env::temp_dir().join(format!("tcmp-ckpt-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).expect("open store");
    (store, root)
}

/// Byte-exact fingerprint: the rendered journal row round-trips raw
/// number tokens, so equal strings ⇒ equal bits.
fn fp(r: &SimResult) -> String {
    result_to_json(r).render()
}

/// Store on miss, fast-forward on hit — and both runs, plus an
/// entirely uncached one, produce bit-identical results.
#[test]
fn warm_start_is_bit_identical_to_a_cold_run() {
    let app = tiled_cmp::workloads::apps::fft();
    let policy = RunPolicy::default();
    let (cache, root) = scratch_store("bit-identical");

    let cold = run_supervised(proposal_cfg(), &app, SEED, SCALE, &policy).expect("cold run");
    let (first, warm1) = run_supervised_cached(
        proposal_cfg(),
        &app,
        SEED,
        SCALE,
        &policy,
        Some((&cache, WARM)),
    )
    .expect("first cached run");
    assert_eq!(warm1, WarmStart::Stored, "first run simulates and stores");
    let (second, warm2) = run_supervised_cached(
        proposal_cfg(),
        &app,
        SEED,
        SCALE,
        &policy,
        Some((&cache, WARM)),
    )
    .expect("second cached run");
    assert_eq!(warm2, WarmStart::Warmed, "second run fast-forwards");

    assert_eq!(fp(&first), fp(&cold), "stored-path run matches cold run");
    assert_eq!(fp(&second), fp(&cold), "warmed run matches cold run");

    let stats = cache.counters();
    assert_eq!((stats.stores, stats.misses, stats.hits), (1, 1, 1));
    assert_eq!(stats.quarantined, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// A corrupted checkpoint fails digest verification at load: it is
/// quarantined (counted, removed), the run transparently falls back to
/// a fresh simulation with identical results, and a clean checkpoint
/// replaces the bad one.
#[test]
fn corrupted_checkpoint_is_quarantined_with_identical_results() {
    let app = tiled_cmp::workloads::apps::fft();
    let policy = RunPolicy::default();
    let (cache, root) = scratch_store("corrupt");

    let (reference, _) = run_supervised_cached(
        proposal_cfg(),
        &app,
        SEED,
        SCALE,
        &policy,
        Some((&cache, WARM)),
    )
    .expect("seeding run");

    let key = warm_key(&proposal_cfg(), &app, SEED, SCALE, WARM);
    let file = root.join(format!("{}-{:016x}.ckpt", key.0, key.1));
    let mut bytes = std::fs::read(&file).expect("the seeding run stored under the public warm_key");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&file, bytes).expect("corrupt the checkpoint file");

    let (recovered, warm) = run_supervised_cached(
        proposal_cfg(),
        &app,
        SEED,
        SCALE,
        &policy,
        Some((&cache, WARM)),
    )
    .expect("run against the corrupt checkpoint");
    assert_eq!(
        warm,
        WarmStart::Quarantined,
        "the torn checkpoint must be detected, not restored"
    );
    assert_eq!(
        fp(&recovered),
        fp(&reference),
        "fallback to fresh simulation must not change a single bit"
    );
    assert_eq!(cache.counters().quarantined, 1);

    // The quarantined entry was replaced by a clean checkpoint.
    let (again, warm) = run_supervised_cached(
        proposal_cfg(),
        &app,
        SEED,
        SCALE,
        &policy,
        Some((&cache, WARM)),
    )
    .expect("run against the re-stored checkpoint");
    assert_eq!(warm, WarmStart::Warmed);
    assert_eq!(fp(&again), fp(&reference));
    let _ = std::fs::remove_dir_all(&root);
}

/// A run that completes before the warm point stores nothing and says
/// so; a `warm_cycles` of 0 disables the store entirely.
#[test]
fn warm_point_edge_cases() {
    let app = tiled_cmp::workloads::apps::fft();
    let policy = RunPolicy::default();
    let (cache, root) = scratch_store("edges");
    let (_, warm) = run_supervised_cached(
        proposal_cfg(),
        &app,
        SEED,
        SCALE,
        &policy,
        Some((&cache, u64::MAX)),
    )
    .expect("run finishing before its warm point");
    assert_eq!(warm, WarmStart::Finished);
    assert_eq!(
        cache.counters().resident_files,
        0,
        "nothing to store past the end of the run"
    );

    let (_, warm) = run_supervised_cached(
        proposal_cfg(),
        &app,
        SEED,
        SCALE,
        &policy,
        Some((&cache, 0)),
    )
    .expect("run with the cache disabled");
    assert_eq!(warm, WarmStart::Disabled);
    assert_eq!(cache.counters().resident_files, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint written in the previous layout (version 4: a full-map
/// directory recorded every resident line, `Invalid` included, and a
/// sparse one its sharer lists in records of its own, where layout 5
/// writes one packed entry per tracked line for both) is never read as
/// this one: the load quarantines it, counted, and the cell runs cold to
/// the same bits, storing a layout-5 checkpoint in its place.
#[test]
fn a_layout_4_checkpoint_is_a_counted_quarantine_and_the_cell_runs_cold() {
    use tiled_cmp::sim::checkpoint::VERSION;
    assert_eq!(VERSION, 5);
    let app = tiled_cmp::workloads::apps::fft();
    let policy = RunPolicy::default();
    let (cache, root) = scratch_store("layout-4");
    let run = || {
        run_supervised_cached(
            proposal_cfg(),
            &app,
            SEED,
            SCALE,
            &policy,
            Some((&cache, WARM)),
        )
        .expect("a run")
    };
    let (reference, _) = run();

    let key = warm_key(&proposal_cfg(), &app, SEED, SCALE, WARM);
    let file = root.join(format!("{}-{:016x}.ckpt", key.0, key.1));
    let mut bytes = std::fs::read(&file).expect("the seeding run stored a checkpoint");
    // The header is the magic, then the layout version.
    assert_eq!(bytes[4..8], VERSION.to_le_bytes());
    bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
    std::fs::write(&file, bytes).expect("stamp the checkpoint as layout 4");

    let (cold, warm) = run();
    assert_eq!(
        warm,
        WarmStart::Quarantined,
        "a layout-4 file is not restored"
    );
    assert_eq!(fp(&cold), fp(&reference));
    assert_eq!(cache.counters().quarantined, 1);
    let (again, warm) = run();
    assert_eq!(warm, WarmStart::Warmed, "the cold run stored layout 5");
    assert_eq!(fp(&again), fp(&reference));
    let _ = std::fs::remove_dir_all(&root);
}
