//! The Unix-socket front door: accept connections, parse one request
//! line each, answer, and stream campaign events until the campaign
//! finishes, the client goes away, or the daemon is asked to stop.
//!
//! The accept loop is non-blocking and polls a stop flag, so a stop is
//! honoured within one poll interval; connection handlers poll the same
//! flag between reads and writes, so every handler thread exits
//! boundedly and the daemon can join them all before returning. The
//! `tcmp-serve` binary sets no flag: it is crash-only, stopped by a
//! signal's default action and recovered from its journals on restart.
//! In-process callers (tests, the benchmark) set it to end the loop.

use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use cmp_common::journal::Json;

use crate::proto::{Event, RejectReason, Request, Response};
use crate::service::Service;
use crate::wire::{LineReader, ReadLine};

/// Accept-loop poll interval: a connection waits half of it on
/// average before it is accepted, so it is kept short (an idle daemon
/// wakes 500 times a second).
const POLL: Duration = Duration::from_millis(2);
/// Per-handler read and event-wait timeout: how long a handler may
/// take to notice the daemon closing.
const HANDLER_POLL: Duration = Duration::from_millis(200);

/// Run the accept loop on `socket` until `stop` becomes true, then
/// join every connection handler and remove the socket file. A stale
/// socket file from a SIGKILLed daemon is detected (nobody answers a
/// connect) and replaced; a live one is refused.
pub fn serve(service: &Arc<Service>, socket: &Path, stop: &AtomicBool) -> io::Result<()> {
    if socket.exists() {
        match UnixStream::connect(socket) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", socket.display()),
                ))
            }
            // The expected residue of a SIGKILL: a socket file nobody
            // is listening on.
            Err(_) => std::fs::remove_file(socket)?,
        }
    }
    let listener = UnixListener::bind(socket)?;
    listener.set_nonblocking(true)?;
    let closing = Arc::new(AtomicBool::new(false));
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let closing = Arc::clone(&closing);
                handlers.push(std::thread::spawn(move || {
                    // A broken pipe from a vanished client is normal;
                    // anything else is worth a log line, never a crash.
                    if let Err(e) = handle(&service, stream, &closing) {
                        if e.kind() != io::ErrorKind::BrokenPipe {
                            eprintln!("connection handler: {e}");
                        }
                    }
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                closing.store(true, Ordering::SeqCst);
                let _ = std::fs::remove_file(socket);
                return Err(e);
            }
        }
    }
    closing.store(true, Ordering::SeqCst);
    for h in handlers {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(socket);
    Ok(())
}

fn write_line(stream: &mut UnixStream, json: Json) -> io::Result<()> {
    let line = json.render();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Serve one connection: one request, one response, then (for
/// submit/attach) the event stream.
fn handle(service: &Arc<Service>, stream: UnixStream, closing: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(HANDLER_POLL))?;
    let mut reader = LineReader::new(stream.try_clone()?);
    let mut writer = stream;
    let line = loop {
        if closing.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.poll_line()? {
            ReadLine::Line(l) => break l,
            ReadLine::Idle => continue,
            ReadLine::Eof => return Ok(()),
        }
    };
    let request = Json::parse(&line)
        .and_then(|j| Request::from_json(&j))
        .map_err(RejectReason::Malformed);
    match request {
        Err(reason) => write_line(&mut writer, Response::Rejected(reason).to_json()),
        Ok(Request::Status) => write_line(&mut writer, service.status().to_json()),
        Ok(Request::Submit(req)) => {
            // Subscribed before the cells are queued, so the stream
            // carries every cell's `CellStart`, the first claimed too.
            let (response, live) = service.submit_watched(req);
            let campaign = match &response {
                Response::Submitted { campaign, .. } => service.attach(campaign).ok(),
                _ => None,
            };
            write_line(&mut writer, response.to_json())?;
            if let (Some(c), Some(rx)) = (campaign, live) {
                stream_events(c.catchup(), rx, &mut writer, closing)?;
            }
            Ok(())
        }
        Ok(Request::Attach { campaign }) => match service.attach(&campaign) {
            Err(reason) => write_line(&mut writer, Response::Rejected(reason).to_json()),
            Ok(c) => {
                let (done, failed, _) = c.progress();
                write_line(
                    &mut writer,
                    Response::Attached {
                        campaign: c.id.clone(),
                        cells: c.cells(),
                        done: done + failed,
                    }
                    .to_json(),
                )?;
                let (told, live) = c.watch();
                stream_events(told, live, &mut writer, closing)?;
                Ok(())
            }
        },
    }
}

/// Replay catch-up events, then relay `rx`'s live events until the
/// campaign finishes, the client disconnects, or the daemon closes.
/// `rx` must be subscribed before the catch-up set was snapshotted so
/// no event can fall between them; the overlap is resolved by
/// client-side deduplication.
fn stream_events(
    catchup: Vec<Event>,
    rx: Receiver<Event>,
    writer: &mut UnixStream,
    closing: &AtomicBool,
) -> io::Result<()> {
    let mut done = false;
    for event in catchup {
        done |= matches!(event, Event::CampaignDone { .. });
        write_line(writer, event.to_json())?;
    }
    while !done {
        if closing.load(Ordering::SeqCst) {
            return Ok(());
        }
        match rx.recv_timeout(HANDLER_POLL) {
            Ok(event) => {
                done = matches!(event, Event::CampaignDone { .. });
                write_line(writer, event.to_json())?;
            }
            Err(RecvTimeoutError::Timeout) => continue,
            // The service dropped this subscriber (it fell behind) —
            // nothing more will arrive; let the client re-attach.
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
    Ok(())
}
