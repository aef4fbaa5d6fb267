use super::*;
use cmp_common::persist::PersistError;
use cmp_common::types::MessageClass;
use wire_model::wires::VlWidth;
use workloads::synthetic;

const SEED: u64 = 0xC0FFEE;

fn run_app(app: &AppProfile, cfg: SimConfig, scale: f64) -> SimResult {
    let mut sim = CmpSimulator::new(cfg, app, SEED, scale);
    sim.run().unwrap_or_else(|e| panic!("{}: {e}", app.name))
}

#[test]
fn home_mappings_agree() {
    assert!(CmpSimulator::homes_agree(&CmpConfig::default()));
}

#[test]
fn streaming_workload_completes_on_baseline() {
    let app = synthetic::streaming(3_000, 4096);
    let r = run_app(&app, SimConfig::baseline(), 1.0);
    assert!(r.cycles > 0);
    assert!(r.instructions > 0);
    assert!(r.network_messages > 0, "streaming misses generate traffic");
    assert!(r.l1_miss_rate > 0.01, "4096-line stream must miss");
    assert!(r.energy.chip().value() > 0.0);
}

#[test]
fn hotspot_exercises_coherence_on_all_configs() {
    let app = synthetic::hotspot(1_500, 64);
    for cfg in [
        SimConfig::baseline(),
        SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2,
            },
        ),
    ] {
        let r = run_app(&app, cfg, 1.0);
        // migratory lines force forwards + revisions
        assert!(
            r.class_fraction(MessageClass::CoherenceCmd) > 0.05,
            "{:?}: coherence commands missing",
            r.interconnect
        );
        assert!(r.class_fraction(MessageClass::ResponseData) > 0.10);
    }
}

#[test]
fn deterministic_across_runs() {
    let app = synthetic::uniform_random(1_000, 1 << 14, 0.3);
    let cfg = SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
        CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 1,
        },
    );
    let a = run_app(&app, cfg.clone(), 1.0);
    let b = run_app(&app, cfg, 1.0);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.network_messages, b.network_messages);
    assert!((a.energy.chip().value() - b.energy.chip().value()).abs() < 1e-15);
}

#[test]
fn heterogeneous_with_compression_beats_baseline_on_traffic_bound_load() {
    let app = synthetic::hotspot(2_000, 128);
    let base = run_app(&app, SimConfig::baseline(), 1.0);
    let prop = run_app(
        &app,
        SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            CompressionScheme::Perfect { low_bytes: 2 },
        ),
        1.0,
    );
    assert!(
        prop.cycles < base.cycles,
        "proposal {} vs baseline {}",
        prop.cycles,
        base.cycles
    );
    assert!(
        prop.critical_latency < base.critical_latency,
        "critical latency should shrink: {} vs {}",
        prop.critical_latency,
        base.critical_latency
    );
}

#[test]
fn perfect_compression_yields_full_coverage() {
    let app = synthetic::uniform_random(1_000, 1 << 16, 0.3);
    let r = run_app(
        &app,
        SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
            CompressionScheme::Perfect { low_bytes: 1 },
        ),
        1.0,
    );
    assert!((r.coverage - 1.0).abs() < 1e-12);
    // and DBRC on a streaming load gets high but imperfect coverage
    let s = synthetic::streaming(2_000, 4096);
    let r = run_app(
        &s,
        SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2,
            },
        ),
        1.0,
    );
    assert!(r.coverage > 0.9, "streaming coverage {}", r.coverage);
    assert!(r.coverage < 1.0);
}

#[test]
fn barriers_synchronise_all_cores() {
    let mut app = synthetic::streaming(2_000, 512);
    app.barriers = 5;
    let r = run_app(&app, SimConfig::baseline(), 1.0);
    assert!(r.cycles > 0);
}

#[test]
fn real_app_smoke_mp3d() {
    let app = workloads::apps::mp3d();
    let r = run_app(&app, SimConfig::baseline(), 0.01);
    assert!(r.network_messages > 1_000);
    // Figure 5 sanity: all fractions sum to 1
    let total: f64 = MessageClass::ALL.iter().map(|&c| r.class_fraction(c)).sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn reply_partitioning_completes_and_splits_responses() {
    let app = synthetic::uniform_random(1_500, 1 << 15, 0.3);
    let base = run_app(&app, SimConfig::baseline(), 1.0);
    let rp = run_app(
        &app,
        SimConfig::new(
            InterconnectChoice::ReplyPartitioning,
            CompressionScheme::None,
        ),
        1.0,
    );
    // every remote data response gains a partial twin
    let count = |r: &SimResult, class| {
        r.messages
            .iter()
            .find(|c| c.class == class)
            .map(|c| (c.count, c.mean_latency))
            .unwrap_or((0, 0.0))
    };
    let (partials, partial_lat) = count(&rp, MessageClass::PartialReply);
    let (data, data_lat) = count(&rp, MessageClass::ResponseData);
    assert!(partials > 0);
    assert!(
        partials.abs_diff(data) <= data / 10,
        "partials {partials} should track data responses {data}"
    );
    // the partial replies run well ahead of the PW-wire data
    assert!(
        partial_lat < data_lat * 0.6,
        "partial {partial_lat} vs ordinary {data_lat}"
    );
    // and the run is no slower than the baseline
    assert!(
        rp.cycles <= base.cycles * 101 / 100,
        "RP {} vs baseline {}",
        rp.cycles,
        base.cycles
    );
}

/// The incremental event calendar (core-ready heap, done/busy
/// counters, cached ready cycles) must agree with brute-force scans
/// of the underlying components after every scheduler iteration,
/// across randomized workloads and both interconnects.
#[test]
fn event_calendar_matches_brute_force_scans() {
    use cmp_common::randtest::{self, f64_in, u64_in, usize_in};
    randtest::run_cases("sim-event-calendar", 4, |rng| {
        let ops = u64_in(rng, 400, 1_200);
        let lines = 1u64 << usize_in(rng, 8, 12);
        let writes = f64_in(rng, 0.2, 0.6);
        let app = synthetic::uniform_random(ops, lines, writes);
        let cfg = if rng.chance(0.5) {
            SimConfig::baseline()
        } else {
            SimConfig::new(
                InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
                CompressionScheme::Dbrc {
                    entries: 4,
                    low_bytes: 2,
                },
            )
        };
        let mut engine = CmpSimulator::new(cfg, &app, rng.next_u64(), 1.0);
        let mut iters = 0u64;
        loop {
            let more = engine.step().expect("run must not deadlock");
            let unfinished = engine.tiles.iter().filter(|t| !t.core.is_done()).count();
            assert_eq!(engine.cores_unfinished, unfinished, "done counter drifted");
            let busy = engine
                .l2s
                .iter()
                .filter(|b| !b.slice.is_quiescent())
                .count();
            assert_eq!(engine.busy_l2_count, busy, "busy-L2 counter drifted");
            for (d, bank) in engine.l2s.iter().enumerate() {
                assert_eq!(bank.busy, !bank.slice.is_quiescent(), "bank {d} flag");
            }
            for (t, tile) in engine.tiles.iter().enumerate() {
                assert_eq!(
                    engine.calendar.core_next[t],
                    tile.core.ready_at().unwrap_or(Cycle::MAX),
                    "cached ready cycle for core {t}"
                );
            }
            let brute = engine.tiles.iter().filter_map(|t| t.core.ready_at()).min();
            assert_eq!(
                engine.calendar.earliest_ready_core(engine.now),
                brute,
                "calendar head"
            );
            iters += 1;
            if !more {
                break;
            }
        }
        assert!(iters > 10, "workload too small to exercise the calendar");
    });
}

#[test]
fn watchdog_fires_on_tiny_budget() {
    let app = synthetic::streaming(5_000, 4096);
    let mut cfg = SimConfig::baseline();
    cfg.max_cycles = 100;
    let mut sim = CmpSimulator::new(cfg, &app, SEED, 1.0);
    match sim.run() {
        Err(SimError::Watchdog { .. }) => {}
        other => panic!("expected watchdog, got {other:?}"),
    }
}

fn compressed_cfg() -> SimConfig {
    SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
        CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 1,
        },
    )
}

#[test]
fn sanitizer_sweeps_are_neutral_on_a_clean_run() {
    let app = synthetic::hotspot(1_200, 64);
    let mut off = compressed_cfg();
    off.sanitizer = None;
    let mut on = compressed_cfg();
    on.sanitizer = Some(coherence::sanitizer::SanitizerConfig { period: 128 });
    let a = run_app(&app, off, 1.0);
    let b = run_app(&app, on, 1.0);
    assert_eq!(a.cycles, b.cycles, "sweeps must not perturb the run");
    assert_eq!(a.network_messages, b.network_messages);
    assert_eq!(a.sanitizer_sweeps, 0);
    assert!(b.sanitizer_sweeps > 0, "sweeps must actually run");
}

#[test]
fn desync_faults_are_detected_and_recovered() {
    let app = synthetic::hotspot(1_500, 64);
    let mut cfg = compressed_cfg();
    cfg.faults = FaultConfig::desync_only(0x00DE_57AC, 0.02, 50);
    let r = run_app(&app, cfg, 1.0);
    assert!(r.fault_stats.desyncs.get() > 0, "campaign must fire");
    assert!(r.resync.desyncs_detected > 0, "tags must catch divergence");
    assert!(
        r.resync.desyncs_detected <= r.fault_stats.desyncs.get(),
        "injections between detections coalesce"
    );
    assert_eq!(
        r.resync.resyncs_completed, r.resync.desyncs_detected,
        "every detected divergence recovers"
    );
    assert!(r.resync.fallback_msgs >= r.resync.desyncs_detected);
}

#[test]
fn fault_free_campaign_config_changes_nothing() {
    let app = synthetic::uniform_random(800, 1 << 12, 0.3);
    let clean = run_app(&app, compressed_cfg(), 1.0);
    let mut cfg = compressed_cfg();
    cfg.faults = FaultConfig {
        seed: 42,
        ..FaultConfig::none()
    };
    let r = run_app(&app, cfg, 1.0);
    assert_eq!(clean.cycles, r.cycles, "disabled faults are bit-neutral");
    assert_eq!(clean.network_messages, r.network_messages);
    assert_eq!(r.fault_stats.total(), 0);
    assert_eq!(r.resync, crate::niface::ResyncStats::default());
}

#[test]
fn corrupt_fault_is_rejected_as_structured_protocol_error() {
    let app = synthetic::streaming(2_000, 2048);
    let mut cfg = SimConfig::baseline();
    cfg.faults = FaultConfig {
        seed: 11,
        corrupt: 1.0,
        max_faults: Some(1),
        ..FaultConfig::none()
    };
    let mut sim = CmpSimulator::new(cfg, &app, SEED, 1.0);
    match sim.run() {
        Err(SimError::Protocol { cycle, error, dump }) => {
            assert!(cycle > 0);
            let s = error.to_string();
            assert!(s.contains("tile") && s.contains("line"), "{s}");
            assert_eq!(dump.cycle, cycle);
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn sanitizer_catches_every_injected_invariant_class() {
    use coherence::sanitizer::Invariant;
    for class in [
        Invariant::SingleOwner,
        Invariant::SharerAgreement,
        Invariant::MshrConsistency,
        Invariant::DirectoryInclusion,
    ] {
        let app = synthetic::hotspot(1_500, 64);
        let mut cfg = SimConfig::baseline();
        cfg.sanitizer = Some(coherence::sanitizer::SanitizerConfig { period: 64 });
        let mut sim = CmpSimulator::new(cfg, &app, SEED, 1.0);
        // Warm the machine until the hook finds a target, then run on.
        let mut injected = None;
        let outcome = loop {
            match sim.step() {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
            if injected.is_none() {
                injected = sim.fault_inject_violation(class);
            }
        };
        let (tile, line) = injected.unwrap_or_else(|| panic!("{class:?}: no target found"));
        match outcome {
            Err(SimError::Sanitizer {
                violations, dump, ..
            }) => {
                assert!(
                    violations.iter().any(|v| v.invariant == class),
                    "{class:?} not reported: {violations:?}"
                );
                let v = violations.iter().find(|v| v.invariant == class).unwrap();
                let s = v.to_string();
                assert!(
                    s.contains("cycle") && s.contains("tile") && s.contains("0x"),
                    "finding must name cycle, tile and line: {s}"
                );
                // the corrupted coordinates appear among the findings
                assert!(
                    violations.iter().any(|v| v.line == line
                        && (v.tile == tile || class == Invariant::SharerAgreement)),
                    "{class:?}: injected ({tile:?}, {line:#x}) missing from {violations:?}"
                );
                assert!(dump.cycle > 0);
            }
            other => panic!("{class:?}: expected sanitizer abort, got {other:?}"),
        }
    }
}

/// A snapshot taken mid-run restores into the same engine and replays
/// the remaining schedule bit-identically.
#[test]
fn engine_snapshot_round_trips_mid_run() {
    let app = synthetic::hotspot(1_500, 64);
    let cfg = compressed_cfg();

    // Straight run for the reference result.
    let mut straight = CmpSimulator::new(cfg.clone(), &app, SEED, 1.0);
    while straight.step().expect("clean run") {}
    let reference = straight.finish();

    // Checkpoint partway, run to completion, then rewind and re-run.
    let mut engine = CmpSimulator::new(cfg, &app, SEED, 1.0);
    for _ in 0..200 {
        assert!(engine.step().expect("clean run"));
    }
    let snap = engine.snapshot();
    assert_eq!(snap.cycle(), engine.cycle());
    while engine.step().expect("clean run") {}
    let first = engine.finish();

    engine.try_restore(&snap).expect("rewind");
    assert_eq!(engine.cycle(), snap.cycle());
    while engine.step().expect("clean run") {}
    let second = engine.finish();

    for r in [&first, &second] {
        assert_eq!(r.cycles, reference.cycles, "restore perturbed the run");
        assert_eq!(r.network_messages, reference.network_messages);
        assert_eq!(r.instructions, reference.instructions);
        assert!((r.energy.chip().value() - reference.energy.chip().value()).abs() < 1e-15);
    }
}

#[test]
fn env_knob_parsing_accepted_forms() {
    // TCMP_SANITIZE: 0/empty off, 1 on, anything else malformed.
    assert_eq!(parse_sanitize(""), Ok(false));
    assert_eq!(parse_sanitize("0"), Ok(false));
    assert_eq!(parse_sanitize("1"), Ok(true));
    for bad in ["yes", "on", "2", "true"] {
        let err = parse_sanitize(bad).expect_err(bad);
        assert!(err.contains("TCMP_SANITIZE"), "warning names the knob");
        assert!(err.contains("accepted"), "warning documents accepted forms");
    }
}

#[test]
fn byte_encoded_snapshot_resumes_bit_identically() {
    // The disk-spill round trip: run to a mid-point, take the snapshot's
    // bytes, parse them back, restore into a *fresh* machine, and check
    // both finish with identical results — the property the checkpoint
    // store's warm starts rest on.
    let app = synthetic::hotspot(1_500, 64);
    let cfg = compressed_cfg();

    let mut original = CmpSimulator::new(cfg.clone(), &app, SEED, 1.0);
    for _ in 0..200 {
        assert!(original.step().expect("clean run"));
    }
    let snap = original.snapshot();
    let bytes = snap.save_bytes();

    let mut resumed = CmpSimulator::new(cfg.clone(), &app, SEED, 1.0);
    let mut parsed = resumed.snapshot();
    parsed.load_bytes(&bytes).expect("parse");
    assert_eq!(parsed.digest(), snap.digest(), "parsed snapshot is a copy");
    assert_eq!(parsed.cycle(), snap.cycle());
    resumed.try_restore(&parsed).expect("restore");
    assert_eq!(resumed.encode_state(), snap.state());

    let finish = |e: &mut CmpSimulator| {
        while e.step().expect("clean run") {}
        e.finish()
    };
    let (a, b) = (finish(&mut original), finish(&mut resumed));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.network_messages, b.network_messages);
    assert_eq!(a.mem_stall_cycles, b.mem_stall_cycles);
    assert_eq!(a.barrier_stall_cycles, b.barrier_stall_cycles);
    assert_eq!(a.mem_reads, b.mem_reads);
    assert!((a.energy.chip().value() - b.energy.chip().value()).abs() == 0.0);
    assert!((a.coverage - b.coverage).abs() == 0.0);
}

/// Damaged snapshot bytes never panic and never restore: each is
/// refused by the parser (`load_bytes`: framing and checksum) or by
/// `try_restore`'s header checks, and in both cases the target
/// machine — here one that has run on past the checkpoint — is left
/// exactly as it was.
#[test]
fn corrupt_snapshot_bytes_are_structured_errors_never_panics() {
    let app = synthetic::hotspot(800, 64);
    let mut engine = CmpSimulator::new(compressed_cfg(), &app, SEED, 1.0);
    for _ in 0..100 {
        assert!(engine.step().expect("clean run"));
    }
    let snap = engine.snapshot();
    let bytes = snap.save_bytes();
    for _ in 0..50 {
        assert!(engine.step().expect("clean run"));
    }
    let untouched = engine.encode_state();

    let restore_from = |engine: &mut CmpSimulator, bytes: &[u8]| -> Result<(), String> {
        let mut parsed = snap.clone();
        parsed.load_bytes(bytes).map_err(|e| e.to_string())?;
        engine.try_restore(&parsed).map_err(|e| e.to_string())
    };

    // Truncation at any point, and trailing garbage.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 7]);
    let cuts = [
        0,
        1,
        8,
        40,
        bytes.len() / 3,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    let damaged = cuts
        .iter()
        .map(|&cut| bytes[..cut].to_vec())
        .chain([padded]);
    for (i, bad) in damaged.enumerate() {
        restore_from(&mut engine, &bad).expect_err("damaged bytes must not restore");
        assert!(
            engine.encode_state() == untouched,
            "case {i} touched the machine"
        );
    }
    // Single-bit rot: every byte of the header region, then a stride
    // through the state. The checksum covers header and state alike, so
    // nothing slips through — counters and energy accumulators included.
    let stride = (64..bytes.len()).step_by(bytes.len() / 97 + 1);
    for flip_at in (0..64).chain(stride) {
        let mut rotted = bytes.clone();
        rotted[flip_at] ^= 0x10;
        restore_from(&mut engine, &rotted)
            .expect_err(&format!("rot at byte {flip_at} must not restore"));
        assert!(
            engine.encode_state() == untouched,
            "rot at byte {flip_at} touched the machine"
        );
    }
    // The intact bytes still rewind the machine.
    restore_from(&mut engine, &bytes).expect("intact bytes restore");
    assert!(engine.encode_state() == snap.state());
}

/// Past the header and checksum a decode failure is still a structured
/// error — [`RestoreError::Decode`], the one variant that leaves the
/// machine partly overwritten — and never a panic.
#[test]
fn validly_checksummed_garbage_is_a_structured_decode_error() {
    let app = synthetic::hotspot(800, 64);
    let mut engine = CmpSimulator::new(compressed_cfg(), &app, SEED, 1.0);
    for _ in 0..100 {
        assert!(engine.step().expect("clean run"));
    }
    let good = engine.snapshot();
    for keep in [0, 8, good.state().len() / 2, good.state().len() - 1] {
        let bad = good.with_state(good.state()[..keep].to_vec());
        match engine.try_restore(&bad) {
            Err(RestoreError::Decode(PersistError { .. })) => {}
            other => panic!("state cut to {keep} bytes: expected Decode, got {other:?}"),
        }
    }
    let mut padded = good.state().to_vec();
    padded.push(0);
    assert!(matches!(
        engine.try_restore(&good.with_state(padded)),
        Err(RestoreError::Decode(_))
    ));
    // "Must be rebuilt" is the contract; a good snapshot of the same
    // shape is as good as a rebuild, because decoding is total.
    engine.try_restore(&good).expect("good snapshot restores");
    assert!(engine.encode_state() == good.state());
}

#[test]
fn snapshot_digest_detects_corruption_and_matches_reruns() {
    let app = synthetic::hotspot(1_500, 64);
    let cfg = compressed_cfg();

    let mut engine = CmpSimulator::new(cfg.clone(), &app, SEED, 1.0);
    for _ in 0..200 {
        assert!(engine.step().expect("clean run"));
    }
    let snap = engine.snapshot();
    let digest = snap.digest();
    assert_eq!(snap.digest(), digest, "digest is a pure function");

    // The same prefix re-simulated yields the same digest.
    let mut again = CmpSimulator::new(cfg, &app, SEED, 1.0);
    for _ in 0..200 {
        assert!(again.step().expect("clean run"));
    }
    assert_eq!(again.snapshot().digest(), digest);

    // Any perturbation of the captured machine changes it.
    let mut torn = snap.state().to_vec();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x10;
    assert_ne!(snap.with_state(torn).digest(), digest);
}

/// The checksum is checked where a snapshot's bytes are parsed, so rot
/// never yields a `MachineSnapshot` at all: every single-bit flip in
/// the header (every bit of every byte before the state) and along a
/// stride through the state is refused by `load_bytes` itself, which
/// leaves its target unchanged.
#[test]
fn load_bytes_refuses_single_bit_rot_anywhere() {
    let app = synthetic::hotspot(800, 64);
    let mut engine = CmpSimulator::new(compressed_cfg(), &app, SEED, 1.0);
    for _ in 0..100 {
        assert!(engine.step().expect("clean run"));
    }
    let snap = engine.snapshot();
    let bytes = snap.save_bytes();
    let header = bytes.len() - snap.state().len();
    let header_flips = (0..header).flat_map(|at| (0..8).map(move |bit| (at, bit)));
    let state_flips = (header..bytes.len())
        .step_by(bytes.len() / 97 + 1)
        .enumerate()
        .map(|(i, at)| (at, i % 8));
    let mut target = CmpSimulator::new(compressed_cfg(), &app, SEED, 1.0).snapshot();
    let before = target.digest();
    for (at, bit) in header_flips.chain(state_flips) {
        let mut rotted = bytes.clone();
        rotted[at] ^= 1 << bit;
        target
            .load_bytes(&rotted)
            .expect_err(&format!("bit {bit} of byte {at} flipped must not parse"));
        assert_eq!(
            target.digest(),
            before,
            "a refused parse changed its target"
        );
    }
    target.load_bytes(&bytes).expect("intact bytes parse");
    assert_eq!(target.digest(), snap.digest());
}
