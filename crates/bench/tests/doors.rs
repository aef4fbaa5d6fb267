//! A figure campaign has two front doors — the figure binaries' local
//! run and `--submit` to a `tcmp-serve` daemon — and one meaning: the
//! same request renders the same bytes through either, stamp line
//! included, and fails the same way when its machine starves.
#![cfg(unix)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use cmp_bench::matrix::run_figure;
use cmp_bench::Options;
use cmp_common::config::DirectoryConfig;
use cmp_common::journal::JOURNAL_FILE;
use tcmp_serve::client::Client;
use tcmp_serve::daemon;
use tcmp_serve::proto::{Event, Figure, Request, Response};
use tcmp_serve::service::{ServeConfig, ServiceHandle};

/// One app over the six non-perfect Figure 6 configurations.
const CELLS: usize = 6;
const WAIT: Duration = Duration::from_secs(300);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcmp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny_options(directory: Option<DirectoryConfig>) -> Options {
    Options {
        scale: 0.002,
        apps: vec!["FFT".to_string()],
        seed: 0xD5A1_F00D,
        perfect: false,
        directory,
        ..Options::default()
    }
}

fn serve_cfg(root: &Path) -> ServeConfig {
    ServeConfig {
        root: root.to_path_buf(),
        jobs: 2,
        ..ServeConfig::default()
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every CSV the daemon finalises for a request equals, byte for byte,
/// the file the local driver writes for the same flags — under the
/// full-map directory and under `--directory sparse` (which the local
/// door used to drop), for both figures.
#[test]
fn both_doors_render_the_same_bytes() {
    let root = scratch_dir("doors-agree");
    let handle = ServiceHandle::start(serve_cfg(&root)).expect("start");
    let mut stamps = Vec::new();
    for (figure, suffixes) in [
        (Figure::Fig6, &["exec_time.csv", "link_ed2p.csv"][..]),
        (Figure::Fig7, &["chip_ed2p.csv"][..]),
    ] {
        for directory in [None, Some(DirectoryConfig::sparse())] {
            let mut opts = tiny_options(directory);
            let csv = root.join(format!("local-{}-{}", figure.label(), stamps.len()));
            opts.csv = Some(csv.to_str().expect("utf-8 temp path").to_string());
            assert_eq!(run_figure(&opts, figure, ""), 0, "the local run completes");

            let id = match handle.service().submit(opts.request(figure)) {
                Response::Submitted {
                    campaign, cells, ..
                } => {
                    assert_eq!(cells, CELLS);
                    campaign
                }
                other => panic!("expected Submitted, got {other:?}"),
            };
            assert!(handle.wait_campaign(&id, WAIT), "campaign {id} finishes");
            for suffix in suffixes {
                let local = read(&match figure {
                    Figure::Fig6 => PathBuf::from(format!("{}.{suffix}", csv.display())),
                    Figure::Fig7 => csv.clone(),
                });
                let served = read(
                    &root
                        .join("campaigns")
                        .join(&id)
                        .join(format!("results.{suffix}")),
                );
                assert!(local.starts_with("# git_sha="), "stamped: {local}");
                assert_eq!(
                    local,
                    served,
                    "{} {suffix} under {directory:?} differs between the doors",
                    figure.label()
                );
                stamps.push(local.lines().next().expect("stamp line").to_string());
            }
        }
    }
    // fig6 full-map ×2, fig6 sparse ×2, fig7 full-map, fig7 sparse: the
    // directory is part of the stamp, the figure is not.
    assert_eq!(stamps[0], stamps[4]);
    assert_eq!(stamps[2], stamps[5]);
    assert_ne!(stamps[0], stamps[2]);
    handle.drain();
    let _ = std::fs::remove_dir_all(&root);
}

/// Follow a campaign's stream to `CampaignDone`; returns each failed
/// cell's attempt count by index (first report wins, as in the real
/// client) and the `(completed, failed)` totals.
fn follow(client: &mut Client) -> (BTreeMap<usize, u32>, (usize, usize)) {
    let mut fails = BTreeMap::new();
    loop {
        match client.next_event().expect("event stream") {
            Some(Event::CellFail {
                index, attempts, ..
            }) => {
                fails.entry(index).or_insert(attempts);
            }
            Some(Event::CellFinish { cell, .. }) => panic!("starved cell {cell} finished"),
            Some(Event::CampaignDone {
                completed, failed, ..
            }) => return (fails, (completed, failed)),
            Some(Event::CellStart { .. }) => {}
            None => panic!("stream closed before campaign_done"),
        }
    }
}

/// A campaign whose machine starves (`sparse:1`: one directory MSHR)
/// fails every cell through either door: the local run exits 1; the
/// daemon streams six `CellFail`s carrying the real attempt count —
/// live and again to a re-attaching client — ends `0 completed, 6
/// failed`, makes the `--submit` client exit 1, and leaves the cells
/// unfinished in the journal so a restarted service runs them again.
#[test]
fn a_starved_campaign_fails_every_cell_through_either_door() {
    let root = scratch_dir("doors-starved");
    let socket = root.join("s");
    let mut opts = tiny_options(Some(DirectoryConfig::Sparse { dir_mshrs: 1 }));
    opts.retries = 1;
    assert_eq!(run_figure(&opts, Figure::Fig6, ""), 1, "the local door");

    let handle = ServiceHandle::start(serve_cfg(&root)).expect("start");
    let stop = AtomicBool::new(false);
    let all_failed_twice: BTreeMap<usize, u32> = (0..CELLS).map(|i| (i, 2)).collect();
    let id = std::thread::scope(|s| {
        let daemon = s.spawn(|| daemon::serve(handle.service(), &socket, &stop));
        let connect =
            || Client::connect_retry(&socket, 8, Duration::from_millis(20)).expect("connect");

        let mut client = connect();
        let request = Request::Submit(opts.request(Figure::Fig6));
        let id = match client.request(&request).expect("submit") {
            Response::Submitted {
                campaign, cells, ..
            } => {
                assert_eq!(cells, CELLS);
                campaign
            }
            other => panic!("expected Submitted, got {other:?}"),
        };
        assert_eq!(follow(&mut client), (all_failed_twice.clone(), (0, CELLS)));

        // A re-attaching client is told the real attempt count.
        let mut client = connect();
        let attach = Request::Attach {
            campaign: id.clone(),
        };
        match client.request(&attach).expect("attach") {
            Response::Attached { cells, done, .. } => assert_eq!((cells, done), (CELLS, CELLS)),
            other => panic!("expected Attached, got {other:?}"),
        }
        assert_eq!(follow(&mut client), (all_failed_twice.clone(), (0, CELLS)));

        let submitting = Options {
            submit: Some(socket.clone()),
            ..opts.clone()
        };
        assert_eq!(run_figure(&submitting, Figure::Fig6, ""), 1, "--submit");

        stop.store(true, Ordering::SeqCst);
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
        id
    });
    handle.drain();

    let journal = read(&root.join("campaigns").join(&id).join(JOURNAL_FILE));
    assert_eq!(journal.matches("\"event\":\"fail\"").count(), CELLS);
    assert!(!journal.contains("\"event\":\"finish\""), "{journal}");

    let handle = ServiceHandle::start(serve_cfg(&root)).expect("restart");
    assert!(handle.wait_campaign(&id, WAIT), "the re-run finishes");
    let (done, failed, _) = handle.service().attach(&id).expect("resumed").progress();
    assert_eq!(
        (done, failed),
        (0, CELLS),
        "every cell ran, and failed, again"
    );
    handle.drain();
    let journal = read(&root.join("campaigns").join(&id).join(JOURNAL_FILE));
    assert_eq!(journal.matches("\"event\":\"fail\"").count(), 2 * CELLS);
    let _ = std::fs::remove_dir_all(&root);
}
