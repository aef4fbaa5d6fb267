//! The campaign service's robustness contract, end to end:
//!
//! * a service SIGKILLed mid-campaign resumes on restart and renders
//!   CSVs **byte-identical** to an uninterrupted run's;
//! * overload, drain and bad input are structured refusals, never
//!   panics or silent drops;
//! * a torn campaign directory is quarantined while healthy campaigns
//!   keep working;
//! * the shared checkpoint store warms later campaigns without
//!   changing a single bit, and a store that cannot open runs every
//!   cell cold;
//! * a cell whose row another campaign has finished simulates nothing:
//!   the row is journaled into its own campaign, byte for byte, across
//!   restarts and kills too — and only a cell that would produce that
//!   very row takes it; a cell whose twin is still running waits for
//!   that run, and runs itself if the run fails;
//! * and over the real Unix socket: a submitter sees every simulated
//!   cell start, a campaign outlives its submitter and a re-attaching
//!   client catches up to the end.
#![cfg(unix)]

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

use cmp_common::config::DirectoryConfig;
use cmp_common::journal::JOURNAL_FILE;
use tcmp_serve::client::Client;
use tcmp_serve::daemon;
use tcmp_serve::proto::{CampaignRequest, Event, Figure, RejectReason, Request, Response};
use tcmp_serve::service::{ServeConfig, ServiceHandle, BUILD_FILE};

const SEED: u64 = 0xD5A1_F00D;
const SCALE: f64 = 0.002;
/// One app over the six non-perfect Figure 6 configurations.
const CELLS: usize = 6;
const WAIT: Duration = Duration::from_secs(300);

/// Sets a daemon's stop flag when dropped. Taken right after the
/// daemon thread is spawned inside a `thread::scope`, it ends the daemon
/// when an assertion in the scope fails, so the test fails instead of
/// the scope waiting on the daemon forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcmp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny_request() -> CampaignRequest {
    CampaignRequest {
        figure: Figure::Fig6,
        apps: vec!["FFT".to_string()],
        seed: SEED,
        scale: SCALE,
        perfect: false,
        retries: 0,
        deadline_s: None,
        directory: DirectoryConfig::FullMap,
    }
}

/// The tiny request under a wall deadline that has passed by the first
/// poll of the clock: every cell simulates to the warm point, stores
/// its checkpoint and then fails, so it leaves checkpoints for the
/// tiny request's cells but no row any cell could take.
fn expiring_request() -> CampaignRequest {
    CampaignRequest {
        deadline_s: Some(0),
        ..tiny_request()
    }
}

fn serve_cfg(root: PathBuf) -> ServeConfig {
    ServeConfig {
        root,
        jobs: 2,
        ..ServeConfig::default()
    }
}

fn submit_ok(handle: &ServiceHandle, request: CampaignRequest) -> String {
    match handle.service().submit(request) {
        Response::Submitted {
            campaign, cells, ..
        } => {
            assert_eq!(cells, CELLS);
            campaign
        }
        other => panic!("expected Submitted, got {other:?}"),
    }
}

/// The labels of `live`'s `CellFinish` events, in arrival order, up to
/// `CampaignDone`; panics on a failed cell, and on a cell that started
/// a simulation when `simulates` is false.
fn live_labels(live: &Receiver<Event>, simulates: bool) -> Vec<String> {
    let mut labels = Vec::new();
    loop {
        match live.recv_timeout(WAIT).expect("live event") {
            Event::CellFinish { warm, .. } => labels.push(warm),
            Event::CellFail { cell, error, .. } => panic!("cell {cell} failed: {error}"),
            Event::CampaignDone { .. } => return labels,
            Event::CellStart { cell, .. } => assert!(simulates, "cell {cell} simulated"),
        }
    }
}

/// The records of campaign `id`'s journal of one `kind`, sorted.
fn journal_records(root: &Path, id: &str, kind: &str) -> Vec<String> {
    let path = root.join("campaigns").join(id).join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let tag = format!("{{\"event\":\"{kind}\"");
    let mut records: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with(&tag))
        .map(str::to_string)
        .collect();
    records.sort();
    records
}

/// The CSVs of `request` run by a service with warm starts off, on a
/// root of its own.
fn cold_csvs(tag: &str, request: CampaignRequest) -> Vec<(String, String)> {
    let root = scratch_dir(tag);
    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("start");
    let id = submit_ok(&handle, request);
    assert!(handle.wait_campaign(&id, WAIT));
    handle.drain();
    let csvs = read_csvs(&root, &id);
    let _ = std::fs::remove_dir_all(&root);
    csvs
}

/// Every `results.*` file of campaign `id`, by name.
fn read_csvs(root: &Path, id: &str) -> Vec<(String, String)> {
    let dir = root.join("campaigns").join(id);
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut csvs: Vec<(String, String)> = entries
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("results."))
        .map(|name| {
            let path = dir.join(&name);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            (name, text)
        })
        .collect();
    csvs.sort();
    assert!(!csvs.is_empty(), "campaign {id} wrote no CSV");
    csvs
}

/// The headline acceptance criterion: kill the service mid-campaign
/// (the in-process `cell_limit` analogue of SIGKILL — workers stop
/// dead without finalising anything), restart it on the same root, and
/// the resumed campaign's CSVs are byte-for-byte the ones an
/// uninterrupted service produces.
#[test]
fn killed_and_resumed_campaign_renders_bit_identical_csvs() {
    let ref_root = scratch_dir("serve-ref");
    let handle = ServiceHandle::start(serve_cfg(ref_root.clone())).expect("start");
    let ref_id = submit_ok(&handle, tiny_request());
    assert!(
        handle.wait_campaign(&ref_id, WAIT),
        "reference run finishes"
    );
    handle.drain();

    let kill_root = scratch_dir("serve-kill");
    let mut cfg = serve_cfg(kill_root.clone());
    cfg.cell_limit = Some(2);
    let handle = ServiceHandle::start(cfg).expect("start");
    let id = submit_ok(&handle, tiny_request());
    // Workers die after claiming two cells; four are left journaled as
    // unfinished and no CSV exists yet.
    handle.join();
    assert!(
        !kill_root
            .join("campaigns")
            .join(&id)
            .join("results.exec_time.csv")
            .exists(),
        "the killed service must not have finalised"
    );

    let handle = ServiceHandle::start(serve_cfg(kill_root.clone())).expect("restart");
    assert!(handle.wait_campaign(&id, WAIT), "resumed campaign finishes");
    handle.drain();

    let reference = read_csvs(&ref_root, &ref_id);
    let resumed = read_csvs(&kill_root, &id);
    for ((file, a), (_, b)) in reference.iter().zip(&resumed) {
        assert_eq!(
            a, b,
            "{file} differs between uninterrupted and resumed runs"
        );
    }
}

/// The directory organisation is a campaign-scoped knob, not a global
/// one: a sparse-directory campaign runs to completion on the shared
/// worker pool, its request round-trips through `campaign.json`, and
/// its journal fingerprint differs from a full-map campaign over the
/// same spec list (so resuming one under the other's journal is a
/// detected mismatch).
#[test]
fn sparse_directory_campaigns_run_and_fingerprint_differently() {
    let root = scratch_dir("serve-sparse");
    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("start");
    let full = submit_ok(&handle, tiny_request());
    let sparse = submit_ok(
        &handle,
        CampaignRequest {
            directory: DirectoryConfig::sparse(),
            ..tiny_request()
        },
    );
    assert!(handle.wait_campaign(&full, WAIT), "full-map finishes");
    assert!(handle.wait_campaign(&sparse, WAIT), "sparse finishes");
    let stamp_full = handle.service().attach(&full).unwrap().plan().stamp();
    let stamp_sparse = handle.service().attach(&sparse).unwrap().plan().stamp();
    assert_ne!(
        stamp_full, stamp_sparse,
        "the directory organisation must be part of the journal fingerprint"
    );
    let text = std::fs::read_to_string(root.join("campaigns").join(&sparse).join("campaign.json"))
        .expect("persisted request");
    assert!(
        text.contains("sparse:64"),
        "campaign.json records the directory flag: {text}"
    );
    handle.drain();
}

/// Admission control and input validation are structured refusals:
/// an over-bound campaign gets the numbers it needs to back off, an
/// unknown app is named, a draining service says so — and none of
/// them leave any state behind.
#[test]
fn overload_drain_and_bad_input_are_structured_rejections() {
    let root = scratch_dir("serve-overload");
    let mut cfg = serve_cfg(root.clone());
    cfg.queue_bound = 3;
    // Workers claim nothing, so the queue cannot drain under the test.
    cfg.cell_limit = Some(0);
    let handle = ServiceHandle::start(cfg).expect("start");
    let service = handle.service();

    match service.submit(tiny_request()) {
        Response::Rejected(RejectReason::Overloaded {
            queued,
            bound,
            requested,
        }) => assert_eq!((queued, bound, requested), (0, 3, CELLS)),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    match service.submit(CampaignRequest {
        apps: vec!["NotAnApp".to_string()],
        ..tiny_request()
    }) {
        Response::Rejected(RejectReason::UnknownApp(app)) => assert_eq!(app, "NotAnApp"),
        other => panic!("expected UnknownApp, got {other:?}"),
    }
    // A machine that does not validate is refused before admission, so
    // it neither burns a campaign id nor leaves a directory for the
    // next start to quarantine.
    match service.submit(CampaignRequest {
        directory: DirectoryConfig::Sparse { dir_mshrs: 0 },
        ..tiny_request()
    }) {
        Response::Rejected(RejectReason::Malformed(why)) => {
            assert!(why.contains("at least one MSHR"), "{why}")
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert!(
        std::fs::read_dir(root.join("campaigns"))
            .expect("campaigns dir")
            .next()
            .is_none(),
        "a refused campaign persists nothing"
    );

    service.begin_drain();
    match service.submit(tiny_request()) {
        Response::Rejected(RejectReason::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    handle.join();
}

/// `CampaignDone` is the last word on a campaign: a subscriber has every
/// cell's terminal event (caught up or live) by the time it arrives, and
/// nothing follows it — the daemon stops relaying there, so a cell event
/// emitted later would never reach its client. Starved cells fail fast
/// and together, and every cell gets a worker, so the workers finish as
/// close to at once as a test can arrange.
#[test]
fn campaign_done_follows_every_cell_event() {
    let root = scratch_dir("serve-order");
    let mut cfg = serve_cfg(root.clone());
    cfg.jobs = CELLS;
    let handle = ServiceHandle::start(cfg).expect("start");
    let mut streams = Vec::new();
    for _ in 0..3 {
        let id = submit_ok(
            &handle,
            CampaignRequest {
                directory: DirectoryConfig::Sparse { dir_mshrs: 1 },
                ..tiny_request()
            },
        );
        let campaign = handle.service().attach(&id).expect("attach");
        // Subscribe, then catch up — the daemon's order.
        let live = campaign.subscribe();
        let mut told = HashSet::new();
        let mut events = campaign.catchup().into_iter();
        loop {
            let event = events
                .next()
                .unwrap_or_else(|| live.recv_timeout(WAIT).expect("live event"));
            match event {
                Event::CellFinish { index, .. } | Event::CellFail { index, .. } => {
                    told.insert(index);
                }
                Event::CampaignDone { .. } => break,
                Event::CellStart { .. } => {}
            }
        }
        assert_eq!(told.len(), CELLS, "{id}: cells told before campaign_done");
        streams.push((id, live));
    }
    // Every worker has returned: whatever was going to be emitted, was.
    handle.drain();
    for (id, live) in streams {
        // (a second `CampaignDone` is fine: one caught up, one live)
        let late: Vec<Event> = live
            .try_iter()
            .filter(|e| !matches!(e, Event::CampaignDone { .. }))
            .collect();
        assert!(
            late.is_empty(),
            "{id}: events after campaign_done: {late:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A campaign directory torn by a crash (its journal corrupted
/// mid-file) is quarantined on restart: the service still starts,
/// refuses attachment to the damaged campaign with a structured
/// reason, never reuses its id, and runs fresh campaigns normally.
#[test]
fn corrupt_campaign_directory_is_quarantined_not_fatal() {
    let root = scratch_dir("serve-quarantine");
    let mut cfg = serve_cfg(root.clone());
    cfg.cell_limit = Some(1);
    let handle = ServiceHandle::start(cfg).expect("start");
    let id = submit_ok(&handle, tiny_request());
    handle.join();

    // Corrupt the first record line (the byte right after the meta
    // line's newline) — interior damage, not a tolerated torn tail.
    let journal = root.join("campaigns").join(&id).join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal).expect("read journal");
    let first_newline = bytes.iter().position(|&b| b == b'\n').expect("meta line");
    bytes[first_newline + 1] = b'X';
    std::fs::write(&journal, bytes).expect("tear journal");

    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("restart despite the tear");
    match handle.service().attach(&id) {
        Err(RejectReason::UnknownCampaign(bad)) => assert_eq!(bad, id),
        Err(other) => panic!("expected UnknownCampaign, got {other}"),
        Ok(_) => panic!("the torn campaign must not resume"),
    }
    let fresh = submit_ok(&handle, tiny_request());
    assert_ne!(fresh, id, "a quarantined id is never reused");
    assert!(
        handle.wait_campaign(&fresh, WAIT),
        "fresh campaign finishes"
    );
    handle.drain();
}

/// One checkpoint store spans all campaigns: a first campaign whose
/// cells fail after the warm point finishes no row, so a second
/// submission of the sweep fast-forwards every cell from the first
/// one's checkpoints and still renders byte-identical CSVs.
#[test]
fn shared_cache_warms_a_second_campaign_bit_identically() {
    let root = scratch_dir("serve-cache");
    let mut cfg = serve_cfg(root.clone());
    cfg.warm_cycles = 50_000;
    let handle = ServiceHandle::start(cfg).expect("start");
    let service = Arc::clone(handle.service());

    let first = submit_ok(&handle, expiring_request());
    assert!(handle.wait_campaign(&first, WAIT));
    let (done, failed, _) = service.attach(&first).expect("attach").progress();
    assert_eq!((done, failed), (0, CELLS), "every cell outran its deadline");
    let second = submit_ok(&handle, tiny_request());
    assert!(handle.wait_campaign(&second, WAIT));
    handle.drain();

    let stats = service
        .checkpoints()
        .expect("warm-cycles > 0 opens the store")
        .counters();
    assert_eq!(
        stats.stores, CELLS as u64,
        "one checkpoint per config prefix"
    );
    assert_eq!(stats.hits, CELLS as u64, "every second-campaign cell warms");
    assert_eq!(stats.quarantined, 0);

    let cold = cold_csvs("serve-cache-ref", tiny_request());
    let warmed = read_csvs(&root, &second);
    for ((file, a), (_, b)) in cold.iter().zip(&warmed) {
        assert_eq!(a, b, "{file} differs between cold and warmed campaigns");
    }
}

/// The store makes warm starts survive restarts, and rows do not
/// survive a rebuild: a second service lifetime on the same root, whose
/// binary is not the one that made the first campaign's rows (its
/// [`BUILD_FILE`] names another build), takes none of them. It warms
/// every cell of the repeated sweep from the first lifetime's spilled
/// checkpoints, renders byte-identical CSVs, and reports the disk
/// traffic in its status counters.
#[test]
fn disk_tier_warms_a_restarted_service_bit_identically() {
    let root = scratch_dir("serve-disk");
    let mut cfg = serve_cfg(root.clone());
    cfg.warm_cycles = 50_000;

    let handle = ServiceHandle::start(cfg.clone()).expect("start");
    let first = submit_ok(&handle, tiny_request());
    assert!(handle.wait_campaign(&first, WAIT));
    let spilled = handle
        .service()
        .checkpoints()
        .expect("warm-cycles > 0 opens the store")
        .counters();
    assert_eq!(spilled.stores, CELLS as u64, "one spill per configuration");
    assert_eq!(spilled.resident_files, CELLS as u64);
    handle.drain();

    // New lifetime, same root: the store's index is rebuilt by scan,
    // and the first campaign's rows are another build's.
    let build_file = root.join("campaigns").join(&first).join(BUILD_FILE);
    assert!(build_file.exists(), "a new campaign names its build");
    std::fs::write(&build_file, "another build").expect("rewrite the build file");
    let handle = ServiceHandle::start(cfg).expect("restart");
    assert!(
        !build_file.exists(),
        "a resumed campaign of another build names none"
    );
    let second = submit_ok(&handle, tiny_request());
    assert!(handle.wait_campaign(&second, WAIT));
    match handle.service().status() {
        Response::StatusReport { cache, .. } => {
            assert_eq!(cache.disk_hits, CELLS as u64, "every cell warms from disk");
            assert_eq!(cache.disk_quarantined, 0);
            assert_eq!(cache.hits, CELLS as u64, "disk hits count as warm starts");
            assert_eq!(
                cache.disk_stores, 0,
                "nothing re-spills: dedup by configuration across restarts"
            );
            assert!(cache.disk_resident_bytes > 0);
        }
        other => panic!("expected StatusReport, got {other:?}"),
    }
    handle.drain();
    assert_eq!(
        journal_records(&root, &second, "start").len(),
        CELLS,
        "every cell simulated"
    );

    let cold = read_csvs(&root, &first);
    let warmed = read_csvs(&root, &second);
    for ((file, a), (_, b)) in cold.iter().zip(&warmed) {
        assert_eq!(
            a, b,
            "{file} differs between the cold and the disk-warmed lifetime"
        );
    }
}

/// A resubmitted request simulates nothing: every cell is answered from
/// the row the first campaign finished — even queued right behind it —
/// with the `journal` label, the checkpoint store untouched, `finish`
/// records byte-equal to the first campaign's and no `start` record,
/// and byte-equal CSVs. After a restart, a third submission is answered
/// the same way from the resumed campaigns' rows.
#[test]
fn an_identical_resubmission_is_answered_from_the_finished_rows() {
    let root = scratch_dir("serve-reuse");
    let mut cfg = serve_cfg(root.clone());
    cfg.warm_cycles = 50_000;
    // One worker: the second campaign queues behind the first, and is
    // subscribed to before any of its cells is claimed.
    cfg.jobs = 1;
    let handle = ServiceHandle::start(cfg.clone()).expect("start");
    let first = submit_ok(&handle, tiny_request());
    let second = submit_ok(&handle, tiny_request());
    let live = handle
        .service()
        .attach(&second)
        .expect("attach")
        .subscribe();
    assert_eq!(live_labels(&live, false), vec!["journal"; CELLS]);
    assert!(handle.wait_campaign(&first, WAIT));
    let counters = handle.service().checkpoints().expect("store").counters();
    assert_eq!(
        (counters.stores, counters.hits, counters.misses),
        (CELLS as u64, 0, CELLS as u64),
        "only the first campaign used the store"
    );
    handle.drain();

    let finished = journal_records(&root, &first, "finish");
    assert_eq!(finished.len(), CELLS);
    let handle = ServiceHandle::start(cfg).expect("restart");
    let third = submit_ok(&handle, tiny_request());
    assert!(handle.wait_campaign(&third, WAIT));
    let counters = handle.service().checkpoints().expect("store").counters();
    assert_eq!((counters.stores, counters.hits, counters.misses), (0, 0, 0));
    handle.drain();

    let csvs = read_csvs(&root, &first);
    for id in [&second, &third] {
        assert_eq!(journal_records(&root, id, "finish"), finished, "{id}");
        assert!(journal_records(&root, id, "start").is_empty(), "{id}");
        assert_eq!(read_csvs(&root, id), csvs, "{id}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A request that differs from a finished one only in its wall
/// deadline, which schedules a run but never shapes its row, is answered
/// in full from the finished rows: the `journal` label, no `CellStart`,
/// no `start` record, the first campaign's `finish` records.
#[test]
fn a_resubmission_with_another_deadline_is_answered_from_the_finished_rows() {
    let root = scratch_dir("serve-deadline");
    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("start");
    let first = submit_ok(&handle, tiny_request());
    assert!(handle.wait_campaign(&first, WAIT));
    let (response, live) = handle.service().submit_watched(CampaignRequest {
        deadline_s: Some(3600),
        ..tiny_request()
    });
    let second = match response {
        Response::Submitted { campaign, .. } => campaign,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let live = live.expect("a submitted campaign is watched");
    assert_eq!(live_labels(&live, false), vec!["journal"; CELLS]);
    handle.drain();
    assert_eq!(
        journal_records(&root, &second, "finish"),
        journal_records(&root, &first, "finish")
    );
    assert!(journal_records(&root, &second, "start").is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

/// Figure 7 re-scores Figure 6's runs: submitted right after Figure 6,
/// every one of its cells is answered from Figure 6's rows.
#[test]
fn figure_7_after_figure_6_is_answered_in_full() {
    let root = scratch_dir("serve-fig7");
    let mut cfg = serve_cfg(root.clone());
    cfg.jobs = 1;
    let handle = ServiceHandle::start(cfg).expect("start");
    let fig6 = submit_ok(&handle, tiny_request());
    let fig7 = submit_ok(
        &handle,
        CampaignRequest {
            figure: Figure::Fig7,
            ..tiny_request()
        },
    );
    let live = handle.service().attach(&fig7).expect("attach").subscribe();
    assert_eq!(live_labels(&live, false), vec!["journal"; CELLS]);
    assert!(handle.wait_campaign(&fig6, WAIT));
    handle.drain();
    assert_eq!(
        journal_records(&root, &fig7, "finish"),
        journal_records(&root, &fig6, "finish")
    );
    assert!(journal_records(&root, &fig7, "start").is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

/// Figures 6 and 7 submitted back to back on two workers run each of
/// their six shared simulations once: a Figure 7 cell claimed while
/// its Figure 6 twin still runs waits for that run instead of
/// simulating it again. Both campaigns render what each renders alone.
#[test]
fn figures_6_and_7_submitted_together_simulate_each_cell_once() {
    let fig7 = CampaignRequest {
        figure: Figure::Fig7,
        ..tiny_request()
    };
    let (fig6_alone, fig7_alone) = (
        cold_csvs("serve-fig6-alone", tiny_request()),
        cold_csvs("serve-fig7-alone", fig7.clone()),
    );
    let root = scratch_dir("serve-fig6-fig7");
    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("start");
    let fig6 = submit_ok(&handle, tiny_request());
    let fig7 = submit_ok(&handle, fig7);
    assert!(handle.wait_campaign(&fig6, WAIT) && handle.wait_campaign(&fig7, WAIT));
    handle.drain();
    let starts =
        journal_records(&root, &fig6, "start").len() + journal_records(&root, &fig7, "start").len();
    assert_eq!(starts, CELLS, "each simulation started once");
    assert_eq!(read_csvs(&root, &fig6), fig6_alone);
    assert_eq!(read_csvs(&root, &fig7), fig7_alone);
    let _ = std::fs::remove_dir_all(&root);
}

/// A cell parked on a run that fails takes no row from it: it goes back
/// to the queue and runs itself, once that run has failed. Here one
/// starved cell (`sparse:1`: one directory MSHR) is submitted twice to
/// two idle workers, so the second copy is claimed while the first
/// runs — for at least the 100 ms backoff before its one retry.
#[test]
fn a_cell_parked_on_a_failing_run_runs_once_that_run_fails() {
    let starved = CampaignRequest {
        figure: Figure::Fig5,
        directory: DirectoryConfig::Sparse { dir_mshrs: 1 },
        retries: 1,
        ..tiny_request()
    };
    let root = scratch_dir("serve-parked-fail");
    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("start");
    let submit = |request| match handle.service().submit(request) {
        Response::Submitted {
            campaign, cells, ..
        } => {
            assert_eq!(cells, 1);
            campaign
        }
        other => panic!("expected Submitted, got {other:?}"),
    };
    let first = submit(starved.clone());
    let second = submit(starved);
    let live = handle
        .service()
        .attach(&second)
        .expect("attach")
        .subscribe();
    match live.recv_timeout(WAIT).expect("an event") {
        Event::CellStart { .. } => {}
        other => panic!("the second copy did not wait for the first: {other:?}"),
    }
    let (_, failed, _) = handle.service().attach(&first).expect("first").progress();
    assert_eq!(failed, 1, "the second copy started before the first failed");
    assert!(handle.wait_campaign(&second, WAIT));
    handle.drain();
    for id in [&first, &second] {
        assert_eq!(journal_records(&root, id, "start").len(), 2, "{id}");
        assert_eq!(journal_records(&root, id, "fail").len(), 1, "{id}");
        assert!(journal_records(&root, id, "finish").is_empty(), "{id}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A cell parked on its twin's run is still waiting to run, so the
/// status report counts it as queued until that run settles. The
/// starved cell of the test above keeps its first copy running for at
/// least its 100 ms retry backoff; the second copy, submitted once the
/// first is claimed, is claimed by the idle worker and parked.
#[test]
fn status_counts_a_cell_parked_on_its_twins_run() {
    let starved = CampaignRequest {
        figure: Figure::Fig5,
        directory: DirectoryConfig::Sparse { dir_mshrs: 1 },
        retries: 1,
        ..tiny_request()
    };
    let root = scratch_dir("serve-parked-status");
    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("start");
    let queued = || match handle.service().status() {
        Response::StatusReport { queued, .. } => queued,
        other => panic!("expected StatusReport, got {other:?}"),
    };
    let submit = |request| match handle.service().submit(request) {
        Response::Submitted { campaign, .. } => campaign,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let first = submit(starved.clone());
    while queued() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let second = submit(starved);
    std::thread::sleep(Duration::from_millis(30));
    let parked = queued();
    let (_, failed, _) = handle.service().attach(&first).expect("first").progress();
    assert_eq!(
        failed, 0,
        "the first copy failed before the status was taken"
    );
    assert_eq!(parked, 1, "the parked copy is counted");
    assert!(handle.wait_campaign(&second, WAIT));
    assert_eq!(queued(), 0);
    handle.drain();
    let _ = std::fs::remove_dir_all(&root);
}

/// Only a cell that would produce the very row takes it: Figure 2's
/// baseline carries coverage probes Figure 5's lacks, and a retrying
/// policy may reseed faults, so neither takes Figure 5's row — while a
/// plain repeat of Figure 5 does.
#[test]
fn a_row_is_taken_only_by_a_cell_that_would_produce_it() {
    let root = scratch_dir("serve-noreuse");
    let mut cfg = serve_cfg(root.clone());
    cfg.jobs = 1;
    let handle = ServiceHandle::start(cfg).expect("start");
    let submit = |request: CampaignRequest| match handle.service().submit(request) {
        Response::Submitted {
            campaign, cells, ..
        } => {
            assert_eq!(cells, 1, "one FFT cell");
            campaign
        }
        other => panic!("expected Submitted, got {other:?}"),
    };
    let fig5 = || CampaignRequest {
        figure: Figure::Fig5,
        ..tiny_request()
    };
    let _first = submit(fig5());
    let cases = [
        (
            CampaignRequest {
                figure: Figure::Fig2,
                ..tiny_request()
            },
            "disabled",
        ),
        (
            CampaignRequest {
                retries: 1,
                ..fig5()
            },
            "disabled",
        ),
        (fig5(), "journal"),
    ];
    let lives: Vec<_> = cases
        .iter()
        .map(|(request, _)| {
            let id = submit(request.clone());
            handle.service().attach(&id).expect("attach").subscribe()
        })
        .collect();
    for ((request, want), live) in cases.iter().zip(&lives) {
        let simulates = *want != "journal";
        assert_eq!(
            live_labels(live, simulates),
            vec![*want],
            "{:?} with {} retries",
            request.figure,
            request.retries
        );
    }
    handle.drain();
    let _ = std::fs::remove_dir_all(&root);
}

/// A campaign answered from finished rows is journaled like any other:
/// killed (the `cell_limit` analogue of SIGKILL) two cells in, it
/// resumes on restart — its two taken rows replayed, the rest taken
/// from the resumed first campaign — to the first campaign's CSVs.
#[test]
fn a_killed_campaign_of_taken_rows_resumes_to_the_same_csvs() {
    let root = scratch_dir("serve-reuse-kill");
    let mut cfg = serve_cfg(root.clone());
    cfg.cell_limit = Some(CELLS + 2);
    let handle = ServiceHandle::start(cfg).expect("start");
    let first = submit_ok(&handle, tiny_request());
    assert!(handle.wait_campaign(&first, WAIT));
    let second = submit_ok(&handle, tiny_request());
    handle.join();
    assert_eq!(journal_records(&root, &second, "finish").len(), 2);
    assert!(
        !root
            .join("campaigns")
            .join(&second)
            .join("results.exec_time.csv")
            .exists(),
        "the killed service must not have finalised"
    );

    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("restart");
    assert!(
        handle.wait_campaign(&second, WAIT),
        "resumed campaign finishes"
    );
    handle.drain();
    assert_eq!(
        journal_records(&root, &second, "finish"),
        journal_records(&root, &first, "finish")
    );
    assert!(journal_records(&root, &second, "start").is_empty());
    assert_eq!(read_csvs(&root, &second), read_csvs(&root, &first));
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint store that cannot open (here `<root>/checkpoints` is a
/// regular file) costs warm starts, never the service: it starts, every
/// cell reports `disabled`, and the CSVs are byte-identical to those of
/// a service with warm starts off.
#[test]
fn unopenable_checkpoint_store_runs_every_cell_cold() {
    // The second campaign runs under another trace seed: other
    // simulations, so it takes none of the first campaign's rows.
    let reseeded = CampaignRequest {
        seed: SEED + 1,
        ..tiny_request()
    };
    let references = [
        cold_csvs("serve-nostore-ref", tiny_request()),
        cold_csvs("serve-nostore-ref2", reseeded.clone()),
    ];

    let root = scratch_dir("serve-nostore");
    std::fs::write(root.join("checkpoints"), b"not a directory").expect("block the store");
    let mut cfg = serve_cfg(root.clone());
    cfg.warm_cycles = 50_000;
    // One worker: the first campaign holds it while the second one is
    // subscribed to, so every cell of the second is seen live.
    cfg.jobs = 1;
    let handle = ServiceHandle::start(cfg).expect("a blocked store must not stop the service");
    assert!(handle.service().checkpoints().is_none());
    let first = submit_ok(&handle, tiny_request());
    let second = submit_ok(&handle, reseeded);
    let live = handle
        .service()
        .attach(&second)
        .expect("attach")
        .subscribe();
    let mut warm = Vec::new();
    loop {
        match live.recv_timeout(WAIT).expect("live event") {
            Event::CellFinish { warm: w, .. } => warm.push(w),
            Event::CellFail { cell, error, .. } => panic!("cell {cell} failed: {error}"),
            Event::CampaignDone { .. } => break,
            Event::CellStart { .. } => {}
        }
    }
    assert_eq!(warm, vec!["disabled"; CELLS], "every cell runs cold");
    assert!(handle.wait_campaign(&first, WAIT));
    match handle.service().status() {
        Response::StatusReport { cache, .. } => assert_eq!(cache, Default::default()),
        other => panic!("expected StatusReport, got {other:?}"),
    }
    handle.drain();

    for (id, cold) in [&first, &second].into_iter().zip(&references) {
        assert_eq!(
            &read_csvs(&root, id),
            cold,
            "{id}: CSVs differ from the warm-start-off run"
        );
    }
}

/// The real front door: submit over the Unix socket, vanish mid-stream
/// (the campaign must not care), re-attach from a new connection and
/// catch up — the merged catch-up + live stream covers every cell and
/// ends with `campaign_done`. The daemon removes its socket on exit.
#[test]
fn socket_submitter_can_vanish_and_reattach() {
    let root = scratch_dir("serve-socket");
    let socket = root.join("serve.sock");
    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("start");
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let service = Arc::clone(handle.service());
        let daemon_socket = socket.clone();
        let daemon_stop = &stop;
        let daemon = s.spawn(move || daemon::serve(&service, &daemon_socket, daemon_stop));
        let stop_daemon = StopOnDrop(&stop);

        let mut client = connect_retrying(&socket);
        let id = match client
            .request(&Request::Submit(tiny_request()))
            .expect("submit")
        {
            Response::Submitted {
                campaign, cells, ..
            } => {
                assert_eq!(cells, CELLS);
                campaign
            }
            other => panic!("expected Submitted, got {other:?}"),
        };
        // Read one event to prove the stream is live, then vanish.
        client
            .next_event()
            .expect("event stream")
            .expect("at least one event before the campaign ends");
        drop(client);

        let mut client = connect_retrying(&socket);
        match client
            .request(&Request::Attach {
                campaign: id.clone(),
            })
            .expect("attach")
        {
            Response::Attached {
                campaign, cells, ..
            } => {
                assert_eq!(campaign, id);
                assert_eq!(cells, CELLS);
            }
            other => panic!("expected Attached, got {other:?}"),
        }
        let mut finished: HashSet<usize> = HashSet::new();
        let (completed, failed) = loop {
            match client.next_event().expect("event stream") {
                Some(Event::CellFinish { index, .. }) => {
                    finished.insert(index);
                }
                Some(Event::CellFail { cell, error, .. }) => {
                    panic!("cell {cell} failed: {error}")
                }
                Some(Event::CampaignDone {
                    completed, failed, ..
                }) => break (completed, failed),
                Some(_) => {}
                None => panic!("stream closed before campaign_done"),
            }
        };
        assert_eq!((completed, failed), (CELLS, 0));
        assert_eq!(
            finished.len(),
            CELLS,
            "catch-up + live events cover every cell after index dedup"
        );

        // Status over the wire sees the finished campaign.
        let mut client = connect_retrying(&socket);
        match client.request(&Request::Status).expect("status") {
            Response::StatusReport { campaigns, .. } => {
                let c = campaigns.iter().find(|c| c.id == id).expect("our campaign");
                assert!(c.finished);
                assert_eq!(c.done, CELLS);
            }
            other => panic!("expected StatusReport, got {other:?}"),
        }

        drop(stop_daemon);
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
    assert!(!socket.exists(), "the daemon removes its socket on exit");
    handle.drain();
}

/// A `--submit` client over the socket sees a `CellStart` for every cell
/// the campaign simulates, the cells the workers claim before the
/// daemon answers included: one per `start` record in the journal.
#[test]
fn socket_submitter_sees_every_simulated_cells_start() {
    let root = scratch_dir("serve-socket-starts");
    let socket = root.join("serve.sock");
    let handle = ServiceHandle::start(serve_cfg(root.clone())).expect("start");
    let stop = AtomicBool::new(false);

    // Events are gathered inside the scope and judged after the daemon
    // is joined.
    let (response, mut started, ended) = std::thread::scope(|s| {
        let service = Arc::clone(handle.service());
        let daemon_socket = socket.clone();
        let daemon_stop = &stop;
        let daemon = s.spawn(move || daemon::serve(&service, &daemon_socket, daemon_stop));
        let stop_daemon = StopOnDrop(&stop);

        let mut client = connect_retrying(&socket);
        let response = client.request(&Request::Submit(tiny_request()));
        let mut started: Vec<usize> = Vec::new();
        let mut ended = None;
        while let Ok(Some(event)) = client.next_event() {
            match event {
                Event::CellStart { index, .. } => started.push(index),
                Event::CellFail { cell, error, .. } => {
                    ended = Some(format!("cell {cell} failed: {error}"));
                    break;
                }
                Event::CampaignDone { .. } => {
                    ended = Some("done".to_string());
                    break;
                }
                Event::CellFinish { .. } => {}
            }
        }
        drop(stop_daemon);
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
        (response, started, ended)
    });
    let id = match response.expect("submit") {
        Response::Submitted { campaign, .. } => campaign,
        other => panic!("expected Submitted, got {other:?}"),
    };
    assert_eq!(
        ended.as_deref(),
        Some("done"),
        "the stream ends at campaign_done"
    );
    started.sort_unstable();
    let journaled = journal_records(&root, &id, "start").len();
    assert_eq!(journaled, CELLS, "every cell simulated");
    assert_eq!(
        started,
        (0..CELLS).collect::<Vec<_>>(),
        "one CellStart per simulated cell"
    );
    handle.drain();
    let _ = std::fs::remove_dir_all(&root);
}

fn connect_retrying(socket: &Path) -> Client {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(socket) {
            Ok(c) => return c,
            Err(e) if std::time::Instant::now() >= deadline => {
                panic!("connecting to {}: {e}", socket.display())
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}
