//! Crash-resumable campaign tests: a sweep killed at any instant —
//! between cells, mid-cell, even mid-journal-append — must resume with
//! only the unfinished cells re-run and assemble a result set
//! bit-identical to an uninterrupted sweep.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;

use tiled_cmp::prelude::*;
use tiled_cmp::sim::supervisor::{result_to_json, CellMachine};

const SEED: u64 = 0xD5A1_F00D;
const SCALE: f64 = 0.002;

/// A small Figure-6-shaped sweep: 2 apps × 3 configs.
fn sweep_specs() -> Vec<RunSpec> {
    let configs = vec![
        ConfigSpec::baseline(),
        ConfigSpec::compressed(CompressionScheme::Stride { low_bytes: 2 }),
        ConfigSpec::compressed(CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 1,
        }),
    ];
    let mut specs = Vec::new();
    for app in [
        tiled_cmp::workloads::apps::fft(),
        tiled_cmp::workloads::apps::mp3d(),
    ] {
        for config in &configs {
            specs.push(RunSpec {
                app: app.clone(),
                config: config.clone(),
                seed: SEED,
                scale: SCALE,
            });
        }
    }
    specs
}

/// Fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcmp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Canonical byte-exact fingerprint of each result slot: the rendered
/// journal row (raw number tokens, so equal strings ⇒ equal bits).
fn fingerprints(results: &[Option<SimResult>]) -> Vec<Option<String>> {
    results
        .iter()
        .map(|r| r.as_ref().map(|r| result_to_json(r).render()))
        .collect()
}

/// The headline property: a campaign killed mid-flight (here: after two
/// cells, with a start record and a torn half-append left behind, which
/// is exactly the residue of a SIGKILL during a journal write) resumes
/// with only the remaining cells re-run — and the final rows are
/// bit-identical to a never-interrupted sweep.
#[test]
fn killed_and_resumed_sweep_is_bit_identical_to_an_uninterrupted_one() {
    let cmp = CmpConfig::default();
    let specs = sweep_specs();
    let policy = RunPolicy::default();

    // The uninterrupted reference.
    let reference = run_matrix_supervised(&cmp, &specs, Some(2), &policy, None);
    assert!(reference.is_complete(), "reference sweep must complete");

    // Interrupted campaign: run only the first two cells, then "die" —
    // the sweep's run state is dropped with the rest never claimed.
    let dir = scratch_dir("resume");
    let meta = campaign_meta(&cmp, &specs);
    {
        let mut journal = Journal::create(&dir, &meta).expect("fresh journal");
        let partial = SweepState::new(&specs, Some(&mut journal));
        let machine = CellMachine::plain(&cmp);
        for index in 0..2 {
            partial.run_cell(&machine, index, &policy, None, |_, _, _| ());
        }
        assert_eq!(partial.pending(), (2..specs.len()).collect::<Vec<_>>());
        drop(partial);
        // SIGKILL residue, first half: a cell that started but never
        // finished. Written by the journal itself, as the dying process
        // would have — a hand-written line carries no crc, and a record
        // without one inside a checksummed journal is refused as damage.
        journal
            .record_start(&cell_key(&specs[2]), 1)
            .expect("start record");
        // journal dropped here — the "process" is gone
    }
    // Second half: a torn, half-written record at the tail.
    {
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(tiled_cmp::common::journal::JOURNAL_FILE))
            .expect("journal exists");
        write!(f, "{{\"event\":\"finish\",\"cell\":\"tor").unwrap();
    }

    // Resume: the two finished cells replay from disk, the interrupted
    // third cell and the rest re-run.
    let mut journal = Journal::resume(&dir, &meta).expect("journal resumes past the torn tail");
    assert_eq!(journal.replay.skippable(), 2);
    assert!(journal.replay.interrupted.contains(&cell_key(&specs[2])));
    let resumed = run_matrix_supervised(&cmp, &specs, Some(2), &policy, Some(&mut journal));
    assert_eq!(resumed.skipped, 2);
    assert!(resumed.is_complete(), "resumed sweep must complete");

    assert_eq!(
        fingerprints(&resumed.results),
        fingerprints(&reference.results),
        "resumed rows must be bit-identical to the uninterrupted sweep"
    );

    // A journal never mixes sweeps: a different spec list (different
    // config hash) must be refused at resume.
    let other_meta = campaign_meta(&cmp, &specs[..3]);
    assert!(
        Journal::resume(&dir, &other_meta).is_err(),
        "resume must refuse a journal from a different sweep"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Failed cells release their journal entries: a sweep whose every cell
/// dies on a tight cycle budget leaves nothing skippable, and the next
/// attempt with a sane policy re-runs and completes all of them.
#[test]
fn failed_cells_release_their_journal_entries_and_rerun_on_resume() {
    let cmp = CmpConfig::default();
    let specs = sweep_specs();
    let dir = scratch_dir("release");
    let meta = campaign_meta(&cmp, &specs);
    {
        let mut journal = Journal::create(&dir, &meta).expect("fresh journal");
        let starved = run_matrix_supervised(
            &cmp,
            &specs,
            Some(2),
            &RunPolicy {
                cycle_budget: Some(1_000),
                ..RunPolicy::default()
            },
            Some(&mut journal),
        );
        assert_eq!(starved.failures.len(), specs.len(), "every cell starves");
        assert!(starved.results.iter().all(Option::is_none));
    }
    let mut journal = Journal::resume(&dir, &meta).expect("journal resumes");
    assert_eq!(
        journal.replay.skippable(),
        0,
        "failed cells must not be skippable"
    );
    assert_eq!(journal.replay.failed.len(), specs.len());
    let retried = run_matrix_supervised(
        &cmp,
        &specs,
        Some(2),
        &RunPolicy::default(),
        Some(&mut journal),
    );
    assert!(retried.is_complete(), "released cells re-run to completion");
    assert_eq!(retried.skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A *panicking* cell (a simulator bug, here provoked by a degenerate
/// zero-entry DBRC) is converted to `SimError::Panic`, reported against
/// its cell, journaled as a fail record — and does not poison the rest
/// of the sweep or leave a dangling start entry behind.
#[test]
fn panicking_cell_is_released_and_does_not_poison_the_sweep() {
    let cmp = CmpConfig::default();
    let mut specs = sweep_specs();
    specs.insert(
        1,
        RunSpec {
            app: tiled_cmp::workloads::apps::fft(),
            config: ConfigSpec::compressed(CompressionScheme::Dbrc {
                entries: 0,
                low_bytes: 2,
            }),
            seed: SEED,
            scale: SCALE,
        },
    );
    let dir = scratch_dir("panic");
    let meta = campaign_meta(&cmp, &specs);
    {
        let mut journal = Journal::create(&dir, &meta).expect("fresh journal");
        let report = run_matrix_supervised(
            &cmp,
            &specs,
            Some(2),
            &RunPolicy::default(),
            Some(&mut journal),
        );
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.index, 1);
        assert!(matches!(failure.error, SimError::Panic { .. }));
        // every other cell still completed
        assert_eq!(
            report.results.iter().flatten().count(),
            specs.len() - 1,
            "one panicking cell must not take down the sweep"
        );
    }
    let journal = Journal::resume(&dir, &meta).expect("journal resumes");
    assert_eq!(journal.replay.skippable(), specs.len() - 1);
    assert!(
        journal.replay.interrupted.is_empty(),
        "the panicking cell's start entry must be released by its fail record"
    );
    assert_eq!(journal.replay.failed.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Row order is a function of the spec list alone: under worker-pool
/// scheduling, retries and mixed failures, `results` stays
/// index-aligned with the specs and two identical sweeps produce
/// identical reports.
#[test]
fn row_order_is_deterministic_under_retries_and_mixed_failures() {
    let cmp = CmpConfig::default();
    // Mixed scales: the small cells fit the cycle budget, the big ones
    // exceed it and fail (twice, thanks to retries) — deterministically.
    let mut specs = sweep_specs();
    for (i, spec) in specs.iter_mut().enumerate() {
        if i % 2 == 1 {
            spec.scale = 0.01;
        }
    }
    let policy = RunPolicy {
        // between the ~370k cycles of the 0.002-scale cells and the
        // ~530-560k of the 0.01-scale ones
        cycle_budget: Some(450_000),
        retries: 1,
        backoff: std::time::Duration::ZERO,
        ..RunPolicy::default()
    };
    let run = |jobs| run_matrix_supervised(&cmp, &specs, Some(jobs), &policy, None);
    let (a, b) = (run(4), run(1));
    assert!(!a.failures.is_empty(), "the big cells must fail");
    assert!(
        a.results.iter().flatten().count() > 0,
        "the small cells must pass"
    );
    for (i, slot) in a.results.iter().enumerate() {
        if let Some(r) = slot {
            assert_eq!(r.app, specs[i].app.name, "slot {i} aligned with its spec");
        }
    }
    for f in &a.failures {
        assert_eq!(f.attempts, 2, "one retry means two attempts");
    }
    assert!(a.failures.windows(2).all(|w| w[0].index < w[1].index));
    assert_eq!(
        fingerprints(&a.results),
        fingerprints(&b.results),
        "4-way and sequential sweeps must agree bit-for-bit"
    );
    assert_eq!(
        a.failures.iter().map(|f| f.index).collect::<Vec<_>>(),
        b.failures.iter().map(|f| f.index).collect::<Vec<_>>()
    );
}
