//! `tcmp-fig` runs every figure campaign on a campaign service — one
//! it starts in-process, or with `--submit` a `tcmp-serve` daemon — so
//! a request has one meaning whichever way it goes: the same bytes,
//! stamp line included, for one figure or for `all`, and the same
//! failure when its machine starves.
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
use tcmp_serve::proto::{Event, Figure, Request, Response, Sides, FIGURES};
use tcmp_serve::service::{ServeConfig, ServiceHandle};
use tcmp_serve::CampaignPlan;

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

/// Every figure, the mesh sweep on a 2×2 mesh only.
fn every_figure() -> Vec<Figure> {
    let side_2 = Sides::of(&[2]).expect("a valid side");
    FIGURES
        .iter()
        .map(|&(_, figure)| match figure {
            Figure::Sensitivity { .. } => Figure::Sensitivity { sides: side_2 },
            other => other,
        })
        .collect()
}

/// The figure's cell count and, per table, the file the local door
/// writes for `--csv` and the one the daemon finalises.
fn files(opts: &Options, figure: Figure, campaign: &Path) -> (usize, Vec<(PathBuf, PathBuf)>) {
    let plan = CampaignPlan::new(&opts.request(figure)).expect("plans");
    let tables = plan.render(&vec![None; plan.specs.len()]);
    let csv = opts.csv.as_ref().expect("--csv");
    let files = tables
        .iter()
        .map(|(suffix, _)| {
            let local = match tables.len() {
                1 => csv.clone(),
                _ => format!("{csv}.{suffix}"),
            };
            (local.into(), campaign.join(format!("results.{suffix}")))
        })
        .collect();
    (plan.specs.len(), files)
}

/// Every CSV the daemon finalises for a request equals, byte for byte,
/// the file the local door writes for the same flags — for every
/// figure, under the full-map directory and under `--directory sparse`.
#[test]
fn both_doors_render_the_same_bytes() {
    let root = scratch_dir("doors-agree");
    let handle = ServiceHandle::start(serve_cfg(&root)).expect("start");
    let mut stamps = BTreeMap::new();
    for figure in every_figure() {
        for directory in [None, Some(DirectoryConfig::sparse())] {
            let mut opts = tiny_options(directory);
            let csv = root.join(format!("local-{}-{}", figure.name(), stamps.len()));
            opts.csv = Some(csv.to_str().expect("utf-8 temp path").to_string());
            assert_eq!(run_figure(&opts, figure), 0, "the local run completes");

            let id = match handle.service().submit(opts.request(figure)) {
                Response::Submitted { campaign, .. } => campaign,
                other => panic!("expected Submitted, got {other:?}"),
            };
            assert!(handle.wait_campaign(&id, WAIT), "campaign {id} finishes");
            let (_, files) = files(&opts, figure, &root.join("campaigns").join(&id));
            for (local, served) in files {
                let (local, served) = (read(&local), read(&served));
                assert!(local.starts_with("# git_sha="), "stamped: {local}");
                assert!(!local.contains("n/a"), "every cell completed: {local}");
                assert_eq!(
                    local,
                    served,
                    "{} under {directory:?} differs between the doors",
                    figure.label()
                );
                let stamp = local.lines().next().expect("stamp line").to_string();
                stamps.insert((figure.name(), directory.is_some()), stamp);
            }
        }
    }
    // The directory and the cells are part of the stamp, the rendering
    // is not: Figures 6 and 7 are one sweep, Figures 2 and 5 are not.
    for sparse in [false, true] {
        assert_eq!(stamps[&("fig6", sparse)], stamps[&("fig7", sparse)]);
        assert_ne!(stamps[&("fig2", sparse)], stamps[&("fig5", sparse)]);
    }
    assert_ne!(stamps[&("fig6", false)], stamps[&("fig6", true)]);
    handle.drain();
    let _ = std::fs::remove_dir_all(&root);
}

/// A journal carries its figure's identity: a Figure 5 `--out`
/// directory is refused by `--resume` under Figure 2 (whose only
/// difference is the probes riding along) and left untouched, and
/// resumes under Figure 5 without re-running a cell.
#[test]
fn a_journal_resumes_only_under_the_figure_that_wrote_it() {
    let root = scratch_dir("doors-resume");
    let dir = root.join("fig5");
    let out = Options {
        out: Some(dir.clone()),
        ..tiny_options(None)
    };
    assert_eq!(run_figure(&out, Figure::Fig5), 0);
    let journal_file = dir.join("campaigns").join("c0001").join(JOURNAL_FILE);
    let journal = read(&journal_file);
    let resume = Options {
        resume: Some(dir.clone()),
        ..tiny_options(None)
    };
    assert_eq!(run_figure(&resume, Figure::Fig2), 1, "fig2 refuses it");
    assert_eq!(read(&journal_file), journal, "untouched");
    assert_eq!(run_figure(&resume, Figure::Fig5), 0, "fig5 resumes it");
    assert_eq!(read(&journal_file), journal, "nothing re-ran");
    let _ = std::fs::remove_dir_all(&root);
}

/// `all` through `--submit` writes every figure's directory — its CSVs
/// and `results.md` — byte for byte as a local `all --out` does, and
/// the local door adds the analytic tables beside them.
#[test]
fn all_writes_the_same_figure_directories_through_either_door() {
    let root = scratch_dir("doors-all");
    let local = root.join("local");
    let out = Options {
        out: Some(local.clone()),
        ..tiny_options(None)
    };
    assert_eq!(run_figure(&out, Figure::All), 0, "the local door");

    let socket = root.join("s");
    let served = root.join("served");
    let handle = ServiceHandle::start(serve_cfg(&served)).expect("start");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let daemon = s.spawn(|| daemon::serve(handle.service(), &socket, &stop));
        let _ = Client::connect_retry(&socket, 8, Duration::from_millis(20)).expect("connect");
        let submit = Options {
            submit: Some(socket.clone()),
            ..tiny_options(None)
        };
        assert_eq!(run_figure(&submit, Figure::All), 0, "--submit");
        stop.store(true, Ordering::SeqCst);
        daemon.join().expect("daemon thread").expect("daemon exits");
    });
    handle.drain();

    let campaign = |root: &Path| root.join("campaigns").join("c0001");
    let (local, served) = (campaign(&local), campaign(&served));
    let mut compared = 0;
    for &(name, _) in &FIGURES {
        let files = std::fs::read_dir(served.join(name)).expect("a figure directory");
        for file in files {
            let file = file.expect("a directory entry").file_name();
            let (ours, theirs) = (local.join(name).join(&file), served.join(name).join(&file));
            assert_eq!(read(&ours), read(&theirs), "{}", theirs.display());
            compared += 1;
        }
    }
    // Nine CSVs and seven results.md.
    assert_eq!(compared, 16);
    for table in ["table1", "table2", "table3"] {
        assert!(local.join(table).join("results.csv").is_file(), "{table}");
        assert!(!served.join(table).exists(), "the daemon writes no {table}");
    }
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
/// fails every cell through either door: the local run exits 1 and
/// renders what the daemon renders; the daemon streams one `CellFail` per cell carrying the
/// real attempt count — live and again to a re-attaching client — ends
/// `0 completed, N failed`, makes the `--submit` client exit 1, and
/// leaves the cells unfinished in the journal so a restarted service
/// runs them again. For Figure 6 and for Figure 5, whose binary used to
/// panic here.
#[test]
fn a_starved_campaign_fails_every_cell_through_either_door() {
    for figure in [Figure::Fig6, Figure::Fig5] {
        starve(figure);
    }
}

fn starve(figure: Figure) {
    let root = scratch_dir(&format!("doors-starved-{}", figure.name()));
    let socket = root.join("s");
    let mut opts = tiny_options(Some(DirectoryConfig::Sparse { dir_mshrs: 1 }));
    opts.retries = 1;
    opts.csv = Some(root.join("local.csv").to_str().expect("utf-8").to_string());
    assert_eq!(run_figure(&opts, figure), 1, "the local door");
    let (cells, files) = files(&opts, figure, &root.join("campaigns").join("c0001"));
    opts.csv = None;

    let handle = ServiceHandle::start(serve_cfg(&root)).expect("start");
    let stop = AtomicBool::new(false);
    let all_failed_twice: BTreeMap<usize, u32> = (0..cells).map(|i| (i, 2)).collect();
    let id = std::thread::scope(|s| {
        let daemon = s.spawn(|| daemon::serve(handle.service(), &socket, &stop));
        let connect =
            || Client::connect_retry(&socket, 8, Duration::from_millis(20)).expect("connect");

        let mut client = connect();
        let request = Request::Submit(opts.request(figure));
        let id = match client.request(&request).expect("submit") {
            Response::Submitted {
                campaign,
                cells: queued,
                ..
            } => {
                assert_eq!(queued, cells);
                campaign
            }
            other => panic!("expected Submitted, got {other:?}"),
        };
        assert_eq!(follow(&mut client), (all_failed_twice.clone(), (0, cells)));

        // A re-attaching client is told the real attempt count.
        let mut client = connect();
        let attach = Request::Attach {
            campaign: id.clone(),
        };
        match client.request(&attach).expect("attach") {
            Response::Attached {
                cells: total, done, ..
            } => assert_eq!((total, done), (cells, cells)),
            other => panic!("expected Attached, got {other:?}"),
        }
        assert_eq!(follow(&mut client), (all_failed_twice.clone(), (0, cells)));

        let submitting = Options {
            submit: Some(socket.clone()),
            ..opts.clone()
        };
        assert_eq!(run_figure(&submitting, figure), 1, "--submit");

        stop.store(true, Ordering::SeqCst);
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
        id
    });
    handle.drain();
    // Both doors render the failure the same way: the per-app figures
    // show the app's row as n/a, Figure 6 drops it.
    for (local, served) in &files {
        assert_eq!(read(local), read(served), "{}", local.display());
    }
    if figure == Figure::Fig5 {
        assert!(read(&files[0].0).contains("FFT,n/a,n/a"));
    }

    let journal = read(&root.join("campaigns").join(&id).join(JOURNAL_FILE));
    assert_eq!(journal.matches("\"event\":\"fail\"").count(), cells);
    assert!(!journal.contains("\"event\":\"finish\""), "{journal}");

    let handle = ServiceHandle::start(serve_cfg(&root)).expect("restart");
    assert!(handle.wait_campaign(&id, WAIT), "the re-run finishes");
    let (done, failed, _) = handle.service().attach(&id).expect("resumed").progress();
    assert_eq!(
        (done, failed),
        (0, cells),
        "every cell ran, and failed, again"
    );
    handle.drain();
    let journal = read(&root.join("campaigns").join(&id).join(JOURNAL_FILE));
    assert_eq!(journal.matches("\"event\":\"fail\"").count(), 2 * cells);
    let _ = std::fs::remove_dir_all(&root);
}

/// The local door prints a `start` line for every cell it simulates,
/// the first cells its workers claim included: one per `start` record
/// in the campaign's journal.
#[test]
fn the_local_door_prints_every_cells_start() {
    let root = scratch_dir("doors-starts");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tcmp-fig"))
        .args(["fig6", "--scale", "0.002", "--app", "FFT", "--no-perfect"])
        .args(["--jobs", "2", "--out"])
        .arg(&root)
        .output()
        .expect("run tcmp-fig");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "tcmp-fig failed:\n{stderr}");
    let printed = stderr.lines().filter(|l| l.starts_with("  start ")).count();
    let journal = read(&root.join("campaigns").join("c0001").join(JOURNAL_FILE));
    let started = journal
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"start\""))
        .count();
    assert_eq!(started, 6, "every cell simulated:\n{journal}");
    assert_eq!(
        printed, started,
        "one start line per simulated cell:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
