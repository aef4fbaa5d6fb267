//! The `serve_campaign` rep: one campaign through the daemon, cold
//! then warm, followed to `CampaignDone` and to its CSVs on disk.
//!
//! Each rep gets a fresh state root, an in-process
//! `ServiceHandle::start` (one worker, `warm_cycles = 100_000`) and
//! `daemon::serve` on a real Unix socket. One client submits the same
//! 18-cell Figure-6 campaign twice: the first pass stores a checkpoint
//! per cell (`stored`), the second fast-forwards every cell from one
//! (`warmed`). The timed part is first submit → second campaign's CSVs
//! verified; daemon start and drain are timed on their own.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmp_common::config::DirectoryConfig;
use cmp_common::journal::Journal;
use tcmp_core::experiment::{normalize_partial, NormalizedRow};
use tcmp_core::report::figure_table;
use tcmp_core::supervisor::{campaign_meta, cell_key, result_from_json};
use tcmp_core::SimResult;
use tcmp_serve::client::Client;
use tcmp_serve::daemon;
use tcmp_serve::proto::{CampaignRequest, Event, Figure, Request, Response};
use tcmp_serve::service::{ServeConfig, ServiceHandle};

use crate::spans::Tracer;
use crate::sys::cpu_seconds;
use crate::workload::{RepOut, Workload, SERVE_APPS, SWEEP_SCALE};

/// Warm-start point of the checkpoint cache, in simulated cycles
/// (every campaign cell runs past it).
pub const WARM_CYCLES: u64 = 100_000;

/// How long any single wait on the daemon may take before the rep is
/// declared failed.
const PATIENCE: Duration = Duration::from_secs(60);

/// Benchmark-side timings of one campaign rep.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    pub start_ms: f64,
    pub submit_ack_ms: f64,
    pub first_event_ms: f64,
    pub finalise_ms: f64,
    pub cold_s: f64,
    pub warm_s: f64,
    /// Cells of the second campaign that fast-forwarded.
    pub warm_hits: usize,
    pub status_ms: f64,
    pub drain_ms: f64,
}

pub fn request(seed: u64) -> CampaignRequest {
    CampaignRequest {
        figure: Figure::Fig6,
        apps: SERVE_APPS.iter().map(|s| s.to_string()).collect(),
        seed,
        scale: SWEEP_SCALE,
        perfect: false,
        retries: 0,
        deadline_s: None,
        directory: DirectoryConfig::FullMap,
    }
}

/// Picks the ratio a figure plots from a normalised row.
type Plotted = fn(&NormalizedRow) -> f64;

/// The CSV files a Figure-6 campaign finalises, with the metric each
/// plots.
const CSVS: [(&str, Plotted); 2] = [
    ("results.exec_time.csv", |r| r.exec_time),
    ("results.link_ed2p.csv", |r| r.link_ed2p),
];

/// What the campaign's CSVs must contain, rendered from directly
/// computed results with the same table code the service uses.
fn expected_csvs(reference: &[SimResult]) -> Vec<String> {
    let n = normalize_partial(reference);
    CSVS.iter()
        .map(|(_, metric)| figure_table("", &n.rows, &n.missing_baseline, metric).to_csv())
        .collect()
}

fn without_stamp(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn connect(socket: &Path) -> Result<Client, String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        match Client::connect(socket) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("connecting to {}: {e}", socket.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One campaign followed from submit to `CampaignDone`.
struct Followed {
    id: String,
    ack: Duration,
    first_event: Duration,
    /// Last `CellFinish` → `CampaignDone` received and CSVs present.
    finalise: Duration,
    wall: Duration,
    /// Cells that crossed the warm point the expected way.
    as_expected: usize,
    csvs: Vec<String>,
}

/// Submit the campaign on a fresh connection and follow its event
/// stream to the end; check 18 `CellFinish`, no failure, every warm
/// label, and the CSVs against `expected`.
fn follow_campaign(
    w: &Workload,
    root: &Path,
    expect_warm: &str,
    expected: &[String],
    tr: &mut Tracer,
) -> Result<Followed, String> {
    let cells = w.specs.len();
    let span = tr.begin(&format!("campaign.{expect_warm}"));
    let mut client = connect(&root.join("s"))?;
    let t0 = Instant::now();
    let (response, _) = tr.time("Client::request", || {
        client.request(&Request::Submit(request(w.seed())))
    });
    let ack = t0.elapsed();
    let id = match response.map_err(|e| format!("submit: {e}"))? {
        Response::Submitted {
            campaign, cells: n, ..
        } if n == cells => campaign,
        other => return Err(format!("submit answered {other:?}")),
    };
    let mut first_event = None;
    let mut last_finish = t0;
    let mut finished = vec![false; cells];
    let mut as_expected = 0;
    loop {
        let (event, _) = tr.time("Client::next_event", || client.next_event());
        first_event.get_or_insert_with(|| t0.elapsed());
        if t0.elapsed() > PATIENCE {
            return Err(format!("campaign {id} still running after {PATIENCE:?}"));
        }
        match event.map_err(|e| format!("event stream: {e}"))? {
            Some(Event::CellFinish { index, warm, .. }) if index < cells => {
                // Catch-up and live streams may overlap; the first
                // report of a cell counts.
                if !std::mem::replace(&mut finished[index], true) {
                    last_finish = Instant::now();
                    if warm == expect_warm {
                        as_expected += 1;
                    } else if warm != "journal" {
                        return Err(format!(
                            "cell {index} crossed the warm point {warm:?}, expected {expect_warm:?}"
                        ));
                    }
                }
            }
            Some(Event::CellFail { cell, error, .. }) => {
                return Err(format!("cell {cell} failed in the service: {error}"))
            }
            Some(Event::CampaignDone {
                completed, failed, ..
            }) => {
                if (completed, failed) != (cells, 0) || finished.iter().any(|f| !f) {
                    return Err(format!(
                        "campaign {id} done with {completed} completed, {failed} failed, \
                         {} CellFinish events",
                        finished.iter().filter(|f| **f).count()
                    ));
                }
                break;
            }
            Some(_) => {}
            None => return Err(format!("event stream of {id} closed before CampaignDone")),
        }
    }
    let dir = root.join("campaigns").join(&id);
    let mut csvs = Vec::new();
    let verify = tr.begin("csv.verify");
    for (file, _) in CSVS {
        csvs.push(
            std::fs::read_to_string(dir.join(file))
                .map_err(|e| format!("campaign {id}: reading {file}: {e}"))?,
        );
    }
    let finalise = last_finish.elapsed();
    for ((file, _), (got, want)) in CSVS.iter().zip(csvs.iter().zip(expected)) {
        if &without_stamp(got) != want {
            return Err(format!(
                "campaign {id}: {file} differs from the directly computed table"
            ));
        }
    }
    tr.end(verify);
    let wall = t0.elapsed();
    tr.end(span);
    Ok(Followed {
        id,
        ack,
        first_event: first_event.unwrap_or_default(),
        finalise,
        wall,
        as_expected,
        csvs,
    })
}

/// The rows a finished campaign journaled, in cell order; the journal
/// must report every cell skippable on resume.
fn journaled_results(w: &Workload, root: &Path, id: &str) -> Result<Vec<SimResult>, String> {
    let dir = root.join("campaigns").join(id);
    let journal = Journal::resume(&dir, &campaign_meta(&w.cmp, &w.specs))
        .map_err(|e| format!("campaign {id}: journal resume: {e}"))?;
    if journal.replay.skippable() != w.specs.len() {
        return Err(format!(
            "campaign {id}: journal reports {} skippable cells of {}",
            journal.replay.skippable(),
            w.specs.len()
        ));
    }
    w.specs
        .iter()
        .map(|spec| {
            let key = cell_key(spec);
            let row = journal
                .replay
                .completed
                .get(&key)
                .ok_or_else(|| format!("campaign {id}: no journal row for {key}"))?;
            result_from_json(row).map_err(|e| format!("campaign {id}: row {key}: {e}"))
        })
        .collect()
}

/// Run one campaign rep under `root` (created fresh, removed after).
pub fn campaign_rep(
    w: &Workload,
    reference: &[SimResult],
    root: &Path,
    tr: &mut Tracer,
) -> Result<RepOut, String> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("creating {}: {e}", root.display()))?;
    let expected = expected_csvs(reference);
    let rep = tr.begin("rep");

    let cfg = ServeConfig {
        root: root.to_path_buf(),
        jobs: 1,
        warm_cycles: WARM_CYCLES,
        ..ServeConfig::default()
    };
    let (handle, start_ns) = tr.time("ServiceHandle::start", || ServiceHandle::start(cfg));
    let handle = handle.map_err(|e| format!("starting the service: {e}"))?;
    let service = Arc::clone(handle.service());
    let socket = root.join("s");
    let stop = AtomicBool::new(false);

    let mut timings = Timings {
        start_ms: start_ns as f64 / 1e6,
        ..Timings::default()
    };
    let outcome = std::thread::scope(|s| {
        let daemon = s.spawn(|| daemon::serve(&service, &socket, &stop));
        let campaigns = (|| {
            let (cpu0, t0) = (cpu_seconds(), Instant::now());
            let cold = follow_campaign(w, root, "stored", &expected, tr)?;
            let warm = follow_campaign(w, root, "warmed", &expected, tr)?;
            if cold.csvs != warm.csvs {
                return Err("warm campaign's CSVs differ from the cold campaign's".to_string());
            }
            let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);

            let t = Instant::now();
            let (status, _) = tr.time("Client::request(status)", || {
                connect(&socket)?
                    .request(&Request::Status)
                    .map_err(|e| e.to_string())
            });
            match status? {
                Response::StatusReport { campaigns, .. }
                    if campaigns.len() == 2 && campaigns.iter().all(|c| c.finished) => {}
                other => return Err(format!("status answered {other:?}")),
            }
            timings.status_ms = ms(t.elapsed());
            Ok((cold, warm, wall_s, cpu_s))
        })();
        // Stop the daemon on every path; a connection handler notices
        // within its poll interval.
        let drain = tr.begin("drain");
        let t = Instant::now();
        stop.store(true, Ordering::SeqCst);
        let served = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())
            .and_then(|r| r.map_err(|e| format!("daemon: {e}")));
        (campaigns, served, drain, t)
    });
    let (campaigns, served, drain, drain_t0) = outcome;
    handle.drain();
    timings.drain_ms = ms(drain_t0.elapsed());
    tr.end(drain);
    tr.end(rep);
    served?;
    let (cold, warm, wall_s, cpu_s) = campaigns?;

    timings.submit_ack_ms = ms(cold.ack);
    timings.first_event_ms = ms(cold.first_event);
    timings.finalise_ms = ms(cold.finalise);
    timings.cold_s = cold.wall.as_secs_f64();
    timings.warm_s = warm.wall.as_secs_f64();
    timings.warm_hits = warm.as_expected;

    let mut results = journaled_results(w, root, &cold.id)?;
    results.extend(journaled_results(w, root, &warm.id)?);
    let _ = std::fs::remove_dir_all(root);
    Ok(RepOut {
        results,
        wall_s,
        cpu_s,
        serve: Some(timings),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_lines_are_ignored_when_comparing_csvs() {
        let stamped = "# git_sha=abc config_hash=1 cells=18\napplication,baseline\nFFT,1.000\n";
        assert_eq!(without_stamp(stamped), "application,baseline\nFFT,1.000\n");
    }
}
