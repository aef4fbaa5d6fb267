//! `--submit` mode of `tcmp-fig`: hand the sweep to a running
//! `tcmp-serve` daemon and follow its event stream.
//!
//! The daemon owns the worker pool, the journal, and the result CSVs
//! (under its `--root`, in the campaign's directory); this client only
//! narrates progress. It can disconnect at any point — the campaign
//! keeps running — and `--attach ID` re-joins it later, receiving
//! catch-up events for everything already done. Catch-up and live
//! streams may overlap, so cell events are deduplicated by index here.

use std::collections::HashSet;

use tcmp_serve::client::Client;
use tcmp_serve::proto::{Event, Figure, Request, Response};

use crate::cli::Options;

/// Submit (or re-attach to) a figure campaign on the daemon named by
/// `--submit`, stream its events, and return the process exit code:
/// 0 when the campaign completed with no failed cells, 1 otherwise.
pub fn run_remote(opts: &Options, figure: Figure) -> i32 {
    let socket = opts.submit.as_ref().expect("--submit checked by caller");
    // A daemon mid-restart (or not yet listening) looks like NotFound /
    // ConnectionRefused for a moment; ride it out rather than failing a
    // scripted sweep on a race.
    let mut client = match Client::connect_retry(socket, 5, std::time::Duration::from_millis(250)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", socket.display());
            return 1;
        }
    };
    let request = match &opts.attach {
        Some(id) => Request::Attach {
            campaign: id.clone(),
        },
        None => Request::Submit(opts.request(figure)),
    };
    let response = match client.request(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("daemon request failed: {e}");
            return 1;
        }
    };
    let campaign = match response {
        Response::Submitted {
            campaign, cells, ..
        } => {
            eprintln!("submitted campaign {campaign}: {cells} cells queued on the daemon");
            campaign
        }
        Response::Attached {
            campaign,
            cells,
            done,
        } => {
            eprintln!("attached to campaign {campaign}: {done} of {cells} cells already done");
            campaign
        }
        Response::Rejected(reason) => {
            eprintln!("daemon refused the request: {reason}");
            return 1;
        }
        Response::StatusReport { .. } => {
            eprintln!("daemon answered with an unexpected status report");
            return 1;
        }
    };
    let mut settled: HashSet<usize> = HashSet::new();
    loop {
        match client.next_event() {
            Ok(Some(event)) => {
                // Catch-up + live streams overlap by design: a cell's
                // terminal event can arrive twice. First one wins.
                if matches!(event, Event::CellFinish { .. } | Event::CellFail { .. }) {
                    if let Some(index) = event.index() {
                        if !settled.insert(index) {
                            continue;
                        }
                    }
                }
                match event {
                    Event::CellStart { cell, .. } => eprintln!("  start  {cell}"),
                    Event::CellFinish {
                        cell, cycles, warm, ..
                    } => eprintln!("  done   {cell}  ({cycles} cycles, warm-start: {warm})"),
                    Event::CellFail {
                        cell,
                        attempts,
                        error,
                        ..
                    } => eprintln!("  FAILED {cell} after {attempts} attempt(s): {error}"),
                    Event::CampaignDone {
                        completed, failed, ..
                    } => {
                        eprintln!(
                            "campaign {campaign} done: {completed} completed, {failed} failed; \
                             CSVs are in the daemon's campaigns/{campaign}/ directory"
                        );
                        return i32::from(failed > 0);
                    }
                }
            }
            Ok(None) => {
                eprintln!(
                    "daemon closed the stream before campaign {campaign} finished \
                     (draining?); re-attach later with --submit ... --attach {campaign}"
                );
                return 1;
            }
            Err(e) => {
                eprintln!("event stream from the daemon broke: {e}");
                return 1;
            }
        }
    }
}
