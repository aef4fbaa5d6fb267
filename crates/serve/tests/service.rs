//! The campaign service's robustness contract, end to end:
//!
//! * a service SIGKILLed mid-campaign resumes on restart and renders
//!   CSVs **byte-identical** to an uninterrupted run's;
//! * overload, drain and bad input are structured refusals, never
//!   panics or silent drops;
//! * a torn campaign directory is quarantined while healthy campaigns
//!   keep working;
//! * the shared checkpoint cache warms later campaigns without
//!   changing a single bit;
//! * and over the real Unix socket: a campaign outlives its submitter
//!   and a re-attaching client catches up to the end.
#![cfg(unix)]

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cmp_common::config::DirectoryConfig;
use cmp_common::journal::JOURNAL_FILE;
use tcmp_serve::client::Client;
use tcmp_serve::daemon;
use tcmp_serve::proto::{CampaignRequest, Event, Figure, RejectReason, Request, Response};
use tcmp_serve::service::{ServeConfig, ServiceHandle};

const SEED: u64 = 0xD5A1_F00D;
const SCALE: f64 = 0.002;
/// One app over the six non-perfect Figure 6 configurations.
const CELLS: usize = 6;
const WAIT: Duration = Duration::from_secs(300);

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

fn read_csvs(root: &Path, id: &str) -> Vec<(String, String)> {
    ["results.exec_time.csv", "results.link_ed2p.csv"]
        .iter()
        .map(|file| {
            let path = root.join("campaigns").join(id).join(file);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            (file.to_string(), text)
        })
        .collect()
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
    let stamp_full = handle.service().attach(&full).unwrap().stamp();
    let stamp_sparse = handle.service().attach(&sparse).unwrap().stamp();
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

/// One checkpoint cache spans all campaigns: the second submission of
/// the same sweep fast-forwards every cell past the warm point and
/// still renders byte-identical CSVs.
#[test]
fn shared_cache_warms_a_second_campaign_bit_identically() {
    let root = scratch_dir("serve-cache");
    let mut cfg = serve_cfg(root.clone());
    cfg.warm_cycles = 50_000;
    let handle = ServiceHandle::start(cfg).expect("start");
    let service = Arc::clone(handle.service());

    let first = submit_ok(&handle, tiny_request());
    assert!(handle.wait_campaign(&first, WAIT));
    let second = submit_ok(&handle, tiny_request());
    assert!(handle.wait_campaign(&second, WAIT));
    handle.drain();

    let stats = service.cache().stats();
    assert_eq!(
        stats.stores, CELLS as u64,
        "one checkpoint per config prefix"
    );
    assert_eq!(stats.hits, CELLS as u64, "every second-campaign cell warms");
    assert_eq!(stats.quarantined, 0);

    let cold = read_csvs(&root, &first);
    let warmed = read_csvs(&root, &second);
    for ((file, a), (_, b)) in cold.iter().zip(&warmed) {
        assert_eq!(a, b, "{file} differs between cold and warmed campaigns");
    }
}

/// The disk tier makes warm starts survive restarts: a second service
/// lifetime on the same root — empty memory cache — warms every cell
/// of a repeated sweep from the first lifetime's spilled checkpoints,
/// renders byte-identical CSVs, and reports the disk traffic in its
/// status counters.
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
        .cache()
        .disk()
        .expect("warm-cycles > 0 opens the disk tier")
        .counters();
    assert_eq!(spilled.stores, CELLS as u64, "one spill per configuration");
    assert_eq!(spilled.resident_files, CELLS as u64);
    handle.drain();

    // New lifetime, same root: the memory tier starts empty, the disk
    // tier is rebuilt by scan.
    let handle = ServiceHandle::start(cfg).expect("restart");
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

    let cold = read_csvs(&root, &first);
    let warmed = read_csvs(&root, &second);
    for ((file, a), (_, b)) in cold.iter().zip(&warmed) {
        assert_eq!(
            a, b,
            "{file} differs between the cold and the disk-warmed lifetime"
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

        stop.store(true, Ordering::SeqCst);
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
    assert!(!socket.exists(), "the daemon removes its socket on exit");
    handle.drain();
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
