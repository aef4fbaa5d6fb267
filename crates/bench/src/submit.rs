//! `--submit` mode of `tcmp-fig`: hand the campaign to a running
//! `tcmp-serve` daemon and follow its event stream.
//!
//! The daemon owns the worker pool, the journal, and the result CSVs
//! (under its `--root`, in the campaign's directory); this client only
//! narrates progress, with the printer the local door uses
//! ([`crate::matrix::follow`]). It can disconnect at any point — the
//! campaign keeps running — and `--attach ID` re-joins it later,
//! receiving catch-up events for everything already done.

use tcmp_serve::client::Client;
use tcmp_serve::proto::{Figure, Request, Response};

use crate::cli::Options;
use crate::matrix::follow;

/// Submit (or re-attach to) a figure campaign on the daemon named by
/// `--submit`, stream its events, and return the process exit code:
/// 0 when every cell ended as the figure expects, 1 otherwise.
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
    let events = std::iter::from_fn(|| {
        (client.next_event()).unwrap_or_else(|e| {
            eprintln!("event stream from the daemon broke: {e}");
            None
        })
    });
    match follow(&campaign, events) {
        Some((_, failed)) => {
            eprintln!("CSVs are in the daemon's campaigns/{campaign}/ directory");
            i32::from(failed > 0)
        }
        None => {
            eprintln!(
                "the stream ended before campaign {campaign} finished \
                 (daemon stopped?); re-attach later with --submit ... --attach {campaign}"
            );
            1
        }
    }
}
