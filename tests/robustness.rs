//! End-to-end robustness tests: seeded fault campaigns against the full
//! simulator, exercising the detect → fall back → resynchronise path of
//! the compressed NI and the structured-error path of the protocol
//! layer. Companion to `tcmp-fig faults`, which runs the same fault
//! classes as a campaign over every application.

use tiled_cmp::coherence::sanitizer::{Invariant, SanitizerConfig};
use tiled_cmp::common::fault::FaultConfig;
use tiled_cmp::prelude::*;
use tiled_cmp::sim::supervisor::supervise;
use tiled_cmp::sim::SimError;

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

/// A lost coherence message wedges the workload; the run must terminate
/// with a structured deadlock report that names the stuck tile and what
/// it is queued on — not hang, not panic.
#[test]
fn dropped_message_yields_deadlock_diagnostics_naming_the_stuck_tile() {
    let app = tiled_cmp::workloads::apps::fft();
    let mut cfg = proposal_cfg();
    cfg.faults = FaultConfig {
        seed: 7,
        drop: 1.0,
        max_faults: Some(1),
        ..FaultConfig::none()
    };
    let err = CmpSimulator::new(cfg, &app, SEED, SCALE)
        .run()
        .expect_err("a dropped request can never complete");
    match &err {
        SimError::Deadlock {
            cycle,
            diagnostics,
            dump,
        } => {
            assert!(*cycle > 0);
            assert!(
                diagnostics.contains("cores unfinished"),
                "diagnostics should summarise liveness: {diagnostics}"
            );
            // the dump names each stuck tile and the line it waits on
            assert!(
                !dump.tiles.is_empty(),
                "state dump must include the wedged tiles"
            );
            let rendered = format!("{err}");
            assert!(rendered.contains("tile"), "dump names the tile: {rendered}");
            assert!(
                rendered.contains("waiting on memory for line")
                    || rendered.contains("MSHRs")
                    || rendered.contains("queued"),
                "dump names what the tile is stuck on: {rendered}"
            );
        }
        other => panic!("expected a deadlock, got: {other}"),
    }
}

/// The fault-campaign smoke path: a seeded desync campaign completes,
/// every injected divergence is detected and every detection is
/// resynchronised, with uncompressed fallback traffic covering the
/// resync windows.
#[test]
fn desync_campaign_smoke_recovers_every_divergence() {
    let app = tiled_cmp::workloads::apps::mp3d();
    let mut cfg = proposal_cfg();
    cfg.faults = FaultConfig::desync_only(0xFA_017, 0.01, 25);
    let r = CmpSimulator::new(cfg, &app, SEED, SCALE)
        .run()
        .expect("desyncs are recoverable; the run must complete");
    assert!(r.fault_stats.desyncs.get() > 0, "campaign injected nothing");
    assert!(r.resync.desyncs_detected > 0, "no divergence detected");
    assert!(r.resync.desyncs_detected <= r.fault_stats.desyncs.get());
    assert_eq!(
        r.resync.resyncs_completed, r.resync.desyncs_detected,
        "every detected divergence must be resynchronised"
    );
    assert!(
        r.resync.fallback_msgs >= r.resync.desyncs_detected,
        "each detection forces at least its own message onto the fallback path"
    );
}

/// A corrupted address must surface as a structured protocol error whose
/// state dump is taken at the failure cycle — never as a panic.
#[test]
fn corrupted_address_is_a_structured_protocol_error() {
    let app = tiled_cmp::workloads::apps::fft();
    let mut cfg = proposal_cfg();
    cfg.faults = FaultConfig {
        seed: 3,
        corrupt: 1.0,
        max_faults: Some(1),
        ..FaultConfig::none()
    };
    match CmpSimulator::new(cfg, &app, SEED, SCALE).run() {
        Err(SimError::Protocol { cycle, error, dump }) => {
            assert_eq!(dump.cycle, cycle);
            let msg = format!("{error}");
            assert!(msg.contains("tile"), "error names the tile: {msg}");
            assert!(msg.contains("line"), "error names the line: {msg}");
        }
        Err(SimError::Deadlock { .. }) => {
            // also acceptable: the corrupted message resolved the wrong
            // line, leaving the real requester wedged — still structured
        }
        other => panic!("expected a structured failure, got: {other:?}"),
    }
}

/// The sanitizer sweep catches a live single-owner corruption injected
/// mid-run through the full `CmpSimulator::step` loop.
#[test]
fn sanitizer_catches_live_corruption_through_the_public_step_api() {
    let app = tiled_cmp::workloads::apps::fft();
    let mut cfg = proposal_cfg();
    cfg.sanitizer = Some(SanitizerConfig { period: 256 });
    let mut sim = CmpSimulator::new(cfg, &app, SEED, SCALE);
    let mut injected = None;
    let err = loop {
        match sim.step() {
            Ok(true) => {}
            Ok(false) => panic!("run completed without the sweep firing"),
            Err(e) => break e,
        }
        if injected.is_none() {
            injected = sim.fault_inject_violation(Invariant::SingleOwner);
        }
    };
    let (tile, line) = injected.expect("a corruption was planted before the abort");
    match err {
        SimError::Sanitizer {
            cycle, violations, ..
        } => {
            assert!(cycle > 0);
            let hit = violations
                .iter()
                .find(|v| v.invariant == Invariant::SingleOwner)
                .expect("the planted class is reported");
            assert_eq!(hit.line, line);
            let rendered = format!("{hit}");
            assert!(rendered.contains(&format!("tile {}", tile.index())) || hit.tile == tile);
            assert!(rendered.contains("0x"), "report names the line: {rendered}");
        }
        other => panic!("expected a sanitizer abort, got: {other}"),
    }
}

/// With faults disabled and the sanitizer off, the robustness layer is
/// invisible: the golden fft run still produces the seed's exact counts.
/// The forward-progress watchdog is ON at its default here — its
/// observation is read-only, so the goldens must stay bit-identical.
#[test]
fn robustness_layer_is_neutral_on_the_golden_run() {
    let app = tiled_cmp::workloads::apps::fft();
    let mut cfg = SimConfig::baseline();
    cfg.faults = FaultConfig::none();
    cfg.sanitizer = None;
    assert!(cfg.watchdog.is_some(), "watchdog defaults to on");
    let r = CmpSimulator::new(cfg, &app, 0xD5A1_F00D, 0.01)
        .run()
        .expect("clean run");
    assert_eq!(r.cycles, 554_045);
    assert_eq!(r.network_messages, 23_473);
    assert_eq!(r.fault_stats.total(), 0);
    assert_eq!(r.resync.desyncs_detected, 0);
    assert_eq!(r.sanitizer_sweeps, 0);
}

/// The synthetic livelock: with Reply Partitioning, lost whole-line
/// fills let cores run ahead on partial replies until every MSHR is
/// pinned on a fill that will never arrive — then blocked accesses
/// retry every cycle forever. The forward-progress watchdog must abort
/// in bounded cycles with per-tile stall diagnostics, where the old
/// behaviour was spinning to the 2-billion-cycle cap.
#[test]
fn livelock_reproducer_trips_the_watchdog_with_diagnostics() {
    let app = tiled_cmp::workloads::apps::fft();
    // Reply Partitioning is the config that splits data responses into a
    // partial (critical-word) reply plus the whole-line fill.
    let mut cfg = SimConfig::new(
        InterconnectChoice::ReplyPartitioning,
        CompressionScheme::None,
    );
    assert!(cfg.interconnect.splits_replies(), "needs partial replies");
    cfg.watchdog = Some(WatchdogConfig {
        stall_iterations: 50_000,
    });
    let mut sim = CmpSimulator::new(cfg, &app, SEED, SCALE);
    sim.fault_drop_data_replies(true);
    let err = loop {
        match sim.step() {
            Ok(true) => {}
            Ok(false) => panic!("a run with lost fills must never complete"),
            Err(e) => break e,
        }
    };
    match &err {
        SimError::NoForwardProgress {
            cycle,
            stalled_for,
            tiles,
            dump,
            ..
        } => {
            assert!(
                *cycle < 10_000_000,
                "bounded abort, not a spin to the cap (cycle {cycle})"
            );
            assert!(*stalled_for >= 50_000, "a real stall window: {stalled_for}");
            assert!(!tiles.is_empty(), "per-tile diagnostics must be present");
            assert!(
                tiles.iter().any(|t| t.mshrs_in_use > 0),
                "the livelock pins MSHRs; diagnostics must show it"
            );
            assert_eq!(dump.cycle, *cycle);
            let rendered = format!("{err}");
            assert!(
                rendered.contains("no forward progress"),
                "report is self-describing: {rendered}"
            );
            assert!(
                rendered.contains("MSHRs in use"),
                "report shows MSHR occupancy: {rendered}"
            );
        }
        other => panic!("expected NoForwardProgress, got: {other}"),
    }
}

/// Forensic supervision of the livelock: with periodic snapshots and
/// forensics on, a watchdog abort comes back with a rewind-and-replay
/// report — the machine was rewound to the last checkpoint, re-stepped
/// with the protocol sanitizer armed, and the abort reproduced with the
/// coherence state found consistent (a genuine scheduling livelock,
/// not metadata corruption).
#[test]
fn watchdog_abort_under_forensics_yields_a_rewind_and_replay_report() {
    let app = tiled_cmp::workloads::apps::fft();
    let mut cfg = SimConfig::new(
        InterconnectChoice::ReplyPartitioning,
        CompressionScheme::None,
    );
    cfg.watchdog = Some(WatchdogConfig {
        stall_iterations: 50_000,
    });
    let mut sim = CmpSimulator::new(cfg, &app, SEED, SCALE);
    sim.fault_drop_data_replies(true);
    let policy = RunPolicy {
        snapshot_period: Some(10_000),
        forensics: true,
        ..RunPolicy::default()
    };
    let failure = supervise(&mut sim, &policy).expect_err("the livelock must abort");
    assert!(matches!(failure.error, SimError::NoForwardProgress { .. }));
    let rendered = format!("{failure}");
    assert!(rendered.contains("forensics:"), "{rendered}");
    let forensics = failure
        .forensics
        .expect("snapshots were taken, so forensics must run");
    assert!(forensics.rewound_to > 0, "a checkpoint existed");
    assert!(
        forensics.rewound_to < failure.error.cycle(),
        "the rewind goes backwards"
    );
    assert!(
        forensics.replayed_to >= forensics.rewound_to,
        "the replay steps forward again"
    );
    assert!(
        forensics.verdict.contains("reproduced"),
        "deterministic replay reproduces the abort: {}",
        forensics.verdict
    );
}

/// The fault injector now also covers the memory-controller response
/// path: a delay-only campaign must perturb off-chip fill timing (the
/// `mem_replies` breakdown counts it), the run must still complete,
/// and the same seed must reproduce the same numbers.
#[test]
fn memory_reply_fault_campaign_delays_fills_and_stays_deterministic() {
    let app = tiled_cmp::workloads::apps::fft();
    let run = || {
        let mut cfg = proposal_cfg();
        // A sub-1.0 probability matters: a re-fired delayed reply rolls
        // the dice again, so `delay: 1.0` would re-delay every fill
        // forever and (correctly) trip the no-forward-progress watchdog.
        cfg.faults = FaultConfig {
            seed: 0xBEE_F00D,
            delay: 0.25,
            delay_cycles: 64,
            ..FaultConfig::none()
        };
        CmpSimulator::new(cfg, &app, SEED, SCALE)
            .run()
            .expect("delays are always recoverable; the run must complete")
    };
    let r = run();
    assert!(r.fault_stats.delays.get() > 0, "campaign injected nothing");
    assert!(
        r.fault_stats.mem_replies.get() > 0,
        "no fault ever landed on the memory response path"
    );
    assert!(
        r.fault_stats.mem_replies.get() <= r.fault_stats.total(),
        "mem_replies is a breakdown of the per-class totals, not extra faults"
    );
    let again = run();
    assert_eq!(r.cycles, again.cycles, "same seed, same schedule");
    assert_eq!(r.network_messages, again.network_messages);
    assert_eq!(
        r.fault_stats.mem_replies.get(),
        again.fault_stats.mem_replies.get()
    );
}

/// A healthy golden run must never trip the watchdog, even at a stall
/// budget far tighter than the default: retirement or delivery happens
/// constantly, and idle stretches are fast-forwarded in single
/// iterations the watchdog is immune to.
#[test]
fn healthy_run_never_trips_an_aggressive_watchdog() {
    let app = tiled_cmp::workloads::apps::fft();
    let mut cfg = proposal_cfg();
    cfg.watchdog = Some(WatchdogConfig {
        stall_iterations: 10_000,
    });
    let r = CmpSimulator::new(cfg, &app, SEED, SCALE)
        .run()
        .expect("healthy run completes despite the aggressive watchdog");
    assert!(r.instructions > 0);
}
