//! Snapshot/restore round trips through the public API.
//!
//! Whole-machine checkpoints ([`CmpSimulator::snapshot`] /
//! [`CmpSimulator::restore`]) are pinned from the outside: a run that is
//! checkpointed, finished, rewound and re-finished must be bit-identical
//! to an uncheckpointed run — same cycles, message totals, instruction
//! counts and energy — on both the baseline and the paper's proposal
//! configuration. A snapshot is its encoded bytes and a restore decodes
//! them over whatever the target machine holds, so the second half of
//! the file searches that decode for state it fails to overwrite, and
//! checks that snapshots of a different machine are refused whole.

use tiled_cmp::common::config::DirectoryConfig;
use tiled_cmp::common::fault::FaultConfig;
use tiled_cmp::common::rng::SimRng;
use tiled_cmp::compression::CompressionScheme;
use tiled_cmp::prelude::{
    AppProfile, CmpSimulator, InterconnectChoice, MachineSnapshot, SimConfig, SimResult, VlWidth,
};
use tiled_cmp::sim::supervisor::result_to_json;
use tiled_cmp::sim::RestoreError;
use tiled_cmp::workloads::apps;

const SEED: u64 = 0xD5A1_F00D;
const SCALE: f64 = 0.01;

fn proposal_cfg() -> SimConfig {
    SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
        CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 1,
        },
    )
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles diverged");
    assert_eq!(
        a.network_messages, b.network_messages,
        "{what}: message totals diverged"
    );
    assert_eq!(
        a.instructions, b.instructions,
        "{what}: instruction counts diverged"
    );
    assert_eq!(a.mem_reads, b.mem_reads, "{what}: memory reads diverged");
    assert_eq!(
        a.energy.link_dynamic.value(),
        b.energy.link_dynamic.value(),
        "{what}: link energy diverged"
    );
    assert_eq!(
        a.energy.core_dynamic.value(),
        b.energy.core_dynamic.value(),
        "{what}: core energy diverged"
    );
}

/// Run `sim` to completion, checkpointing at iteration `at`; returns the
/// snapshot and the straight-through result.
fn run_with_checkpoint(sim: &mut CmpSimulator, at: usize) -> (MachineSnapshot, SimResult) {
    let mut snap = None;
    let mut iters = 0usize;
    while sim.step().expect("checkpointed run completes") {
        iters += 1;
        if iters == at {
            snap = Some(sim.snapshot());
        }
    }
    // Tiny runs may drain before `at` iterations; a boundary snapshot of
    // the finished machine still has to round-trip.
    let snap = snap.unwrap_or_else(|| sim.snapshot());
    (snap, sim.finish())
}

fn round_trip(cfg: SimConfig, what: &str) {
    let app = apps::fft();

    let mut reference = CmpSimulator::new(cfg.clone(), &app, SEED, SCALE);
    let straight = reference.run().expect("reference run completes");

    let mut sim = CmpSimulator::new(cfg, &app, SEED, SCALE);
    let (snap, first) = run_with_checkpoint(&mut sim, 500);
    assert_identical(&straight, &first, what);

    // Rewind the drained machine to the mid-run checkpoint and replay.
    sim.restore(&snap);
    assert_eq!(sim.cycle(), snap.cycle(), "{what}: restore lost the clock");
    while sim.step().expect("replayed run completes") {}
    let replay = sim.finish();
    assert_identical(&straight, &replay, what);
}

#[test]
fn baseline_checkpoint_replays_bit_identically() {
    round_trip(SimConfig::baseline(), "baseline");
}

#[test]
fn proposal_checkpoint_replays_bit_identically() {
    round_trip(proposal_cfg(), "16-entry DBRC over 4B VL");
}

/// A snapshot restored into a *fresh* simulator (same construction
/// parameters) must also resume bit-identically — the checkpoint carries
/// the whole machine, not just deltas against the donor.
#[test]
fn snapshot_transplants_into_a_fresh_simulator() {
    let app = apps::fft();
    let cfg = proposal_cfg();

    let mut donor = CmpSimulator::new(cfg.clone(), &app, SEED, SCALE);
    let (snap, straight) = run_with_checkpoint(&mut donor, 300);

    let mut fresh = CmpSimulator::new(cfg, &app, SEED, SCALE);
    fresh.restore(&snap);
    while fresh.step().expect("transplanted run completes") {}
    let transplanted = fresh.finish();
    assert_identical(&straight, &transplanted, "transplant");
}

/// A snapshot captured under one directory organisation refuses to
/// restore into a simulator running the other — a structured
/// [`RestoreError::DirectoryMismatch`] naming both organisations, not
/// silently transplanted state with the wrong capacity-metering
/// semantics. The refused simulator stays fully usable.
#[test]
fn snapshot_transplant_across_directories_is_refused() {
    let app = apps::fft();
    let mut donor = CmpSimulator::new(proposal_cfg(), &app, SEED, SCALE);
    let (snap, _) = run_with_checkpoint(&mut donor, 300);

    let mut cfg = proposal_cfg();
    cfg.cmp.directory = DirectoryConfig::sparse();
    let mut heir = CmpSimulator::new(cfg, &app, SEED, SCALE);
    match heir.try_restore(&snap) {
        Err(RestoreError::DirectoryMismatch {
            simulator,
            snapshot,
        }) => {
            assert_eq!(simulator, DirectoryConfig::sparse());
            assert_eq!(snapshot, DirectoryConfig::FullMap);
        }
        other => panic!("expected DirectoryMismatch, got {other:?}"),
    }
    // The refusal must be side-effect free: the heir still runs.
    while heir.step().expect("heir runs after the refusal") {}
    heir.finish();
}

// ---------------------------------------------------------------------------
// Restore is total
// ---------------------------------------------------------------------------

/// Scale of the searched runs: 150–250 k scheduler iterations, enough
/// for "40 k iterations further" to land mid-run, at half the cost of
/// [`SCALE`].
const SEARCH_SCALE: f64 = 0.004;

/// Byte-exact fingerprint of a result (the journal row renders raw
/// number tokens, so equal strings ⇒ equal bits).
fn fp(r: &SimResult) -> String {
    result_to_json(r).render()
}

/// Step up to `iters` more iterations (fewer if the run drains first).
fn advance(sim: &mut CmpSimulator, iters: u64) {
    for _ in 0..iters {
        if !sim.step().expect("clean run") {
            break;
        }
    }
}

/// Restore `snap` over whatever `sim` holds and check that nothing of
/// the previous occupant survives: re-capturing right away yields the
/// checkpoint's bytes, and the continuation is the straight run's.
fn restore_and_finish(sim: &mut CmpSimulator, snap: &MachineSnapshot, want: &str, what: &str) {
    sim.try_restore(snap)
        .unwrap_or_else(|e| panic!("{what}: restore refused: {e}"));
    assert!(
        sim.snapshot().save_bytes() == snap.save_bytes(),
        "{what}: the restored machine re-encodes differently — some \
         load_state leaves state of the previous occupant behind"
    );
    let got = fp(&sim.run().unwrap_or_else(|e| panic!("{what}: {e}")));
    assert_eq!(got, want, "{what}: continuation diverged");
}

/// One (app, configuration): checkpoints at seeded iterations — one in
/// the cold-start miss burst, the rest anywhere in the run — each
/// restored over (a) its own simulator after it ran 1, ~4 k and ~40 k
/// iterations further, (b) a fresh simulator, (c) a simulator that ran a
/// different trace seed to an unrelated point.
fn restore_is_total(app: &AppProfile, cfg: &SimConfig, rng: &mut SimRng, what: &str) {
    let mut straight = CmpSimulator::new(cfg.clone(), app, SEED, SEARCH_SCALE);
    let mut total = 0u64;
    while straight.step().expect("straight run") {
        total += 1;
    }
    let want = fp(&straight.finish());
    assert!(total > 2_000, "{what}: run too short to search ({total})");

    let mut points = vec![50 + rng.below(350)];
    points.extend((0..3).map(|_| 1 + rng.below(total - 1)));
    for at in points {
        let what = format!("{what} @ iteration {at} of {total}");
        let mut sim = CmpSimulator::new(cfg.clone(), app, SEED, SEARCH_SCALE);
        advance(&mut sim, at);
        let snap = sim.snapshot();

        for further in [1, 3_500 + rng.below(1_000), 35_000 + rng.below(10_000)] {
            sim.restore(&snap);
            advance(&mut sim, further);
            let what = format!("{what}, same simulator {further} iterations on");
            restore_and_finish(&mut sim, &snap, &want, &what);
        }

        let mut fresh = CmpSimulator::new(cfg.clone(), app, SEED, SEARCH_SCALE);
        restore_and_finish(
            &mut fresh,
            &snap,
            &want,
            &format!("{what}, fresh simulator"),
        );

        let other_seed = SEED ^ (1 + rng.below(u64::MAX - 1));
        let mut other = CmpSimulator::new(cfg.clone(), app, other_seed, SEARCH_SCALE);
        advance(&mut other, rng.below(total));
        let what = format!("{what}, simulator of seed {other_seed:#x}");
        restore_and_finish(&mut other, &snap, &want, &what);
    }
}

fn searched_configs() -> Vec<(&'static str, SimConfig)> {
    let mut sparse_multicast = SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
        CompressionScheme::Multicast {
            entries: 4,
            low_bytes: 2,
        },
    );
    sparse_multicast.cmp.directory = DirectoryConfig::sparse();
    vec![
        ("baseline", SimConfig::baseline()),
        ("DBRC-16 over 4B VL", proposal_cfg()),
        (
            "Stride over Reply Partitioning",
            SimConfig::new(
                InterconnectChoice::ReplyPartitioning,
                CompressionScheme::Stride { low_bytes: 2 },
            ),
        ),
        ("multicast codec, sparse directory", sparse_multicast),
    ]
}

fn search(app: AppProfile, seed: u64) {
    let mut rng = SimRng::new(seed);
    for (what, cfg) in searched_configs() {
        restore_is_total(&app, &cfg, &mut rng, &format!("{} / {what}", app.name));
    }
}

#[test]
fn restore_is_total_on_fft() {
    search(apps::fft(), 0x7074A1);
}

#[test]
fn restore_is_total_on_mp3d() {
    search(apps::mp3d(), 0x7074A2);
}

/// The same search with the robustness layer live: a fault injector
/// (recoverable codec desyncs) and the sanitizer both carry seeded state
/// that a restore must overwrite too. Which of them is armed is machine
/// *shape*: the armed machine's snapshot is refused by an unarmed
/// simulator — structurally, leaving it untouched — and vice versa.
#[test]
fn restore_is_total_with_injector_and_sanitizer_armed() {
    let app = apps::fft();
    let mut plain = proposal_cfg();
    plain.sanitizer = None;
    let mut armed = plain.clone();
    armed.faults = FaultConfig::desync_only(0x00DE_57AC, 0.02, 200);
    armed.sanitizer = Some(tiled_cmp::coherence::sanitizer::SanitizerConfig { period: 512 });
    restore_is_total(&app, &armed, &mut SimRng::new(0x7074A3), "FFT / armed");

    for (donor_cfg, heir_cfg) in [(&armed, &plain), (&plain, &armed)] {
        let mut donor = CmpSimulator::new(donor_cfg.clone(), &app, SEED, SEARCH_SCALE);
        advance(&mut donor, 300);
        let mut reference = CmpSimulator::new(heir_cfg.clone(), &app, SEED, SEARCH_SCALE);
        let want = fp(&reference.run().expect("reference run"));
        let mut heir = CmpSimulator::new(heir_cfg.clone(), &app, SEED, SEARCH_SCALE);
        advance(&mut heir, 120);
        match heir.try_restore(&donor.snapshot()) {
            Err(RestoreError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch across arming, got {other:?}"),
        }
        assert_eq!(fp(&heir.run().expect("heir runs on")), want);
    }
}

// ---------------------------------------------------------------------------
// Foreign machines are refused whole
// ---------------------------------------------------------------------------

/// A snapshot of a machine with different cache geometry — twice the
/// L1, or the same L1 size at twice the associativity, which leaves
/// every encoded array the same length — fits no check on tile count or
/// directory, and used to be transplanted silently. The shape
/// fingerprint refuses it, and the refused simulator runs on to exactly
/// its own straight-run result.
#[test]
fn snapshot_of_a_foreign_cache_geometry_is_refused_untouched() {
    let app = apps::fft();
    let mut reference = CmpSimulator::new(proposal_cfg(), &app, SEED, SCALE);
    let want = fp(&reference.run().expect("reference run"));

    let mut bigger = proposal_cfg();
    bigger.cmp.l1.size_bytes *= 2;
    let mut wider = proposal_cfg();
    wider.cmp.l1.ways *= 2;
    for (what, foreign) in [("L1 size x2", bigger), ("L1 ways x2", wider)] {
        let mut donor = CmpSimulator::new(foreign, &app, SEED, SCALE);
        let (snap, _) = run_with_checkpoint(&mut donor, 300);

        let mut heir = CmpSimulator::new(proposal_cfg(), &app, SEED, SCALE);
        advance(&mut heir, 120);
        match heir.try_restore(&snap) {
            Err(RestoreError::ConfigMismatch {
                simulator,
                snapshot,
            }) => assert_ne!(simulator, snapshot),
            other => panic!("{what}: expected ConfigMismatch, got {other:?}"),
        }
        assert_eq!(
            fp(&heir.run().expect("heir runs on")),
            want,
            "{what}: the refusal touched the simulator"
        );
    }
}
