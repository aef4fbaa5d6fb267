//! Blocking client for the campaign service (Unix only): one request,
//! one response, then an event stream. Used by `tcmp-fig`'s
//! `--submit`/`--attach` modes and the integration tests.

use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use cmp_common::journal::Json;

use crate::proto::{Event, Request, Response};
use crate::wire::LineReader;

/// A connected client.
pub struct Client {
    writer: UnixStream,
    reader: LineReader<UnixStream>,
}

fn protocol_error(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

impl Client {
    /// Connect to the service socket.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        let reader = LineReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// [`Client::connect`] with bounded retry for *transient* failures:
    /// the socket file not existing yet or the connection being refused
    /// both happen routinely when a daemon is still starting (or being
    /// restarted under a supervisor) as a `--submit` fires. Waits
    /// `backoff`, doubling each attempt, for up to `attempts` tries;
    /// any other error kind (permissions, not-a-socket, …) is
    /// permanent and returned immediately.
    pub fn connect_retry(
        socket: impl AsRef<Path>,
        attempts: u32,
        backoff: Duration,
    ) -> io::Result<Client> {
        let socket = socket.as_ref();
        let mut delay = backoff;
        let mut tried = 0;
        loop {
            match Client::connect(socket) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    tried += 1;
                    let transient = matches!(
                        e.kind(),
                        io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused
                    );
                    if !transient || tried >= attempts.max(1) {
                        return Err(e);
                    }
                    eprintln!(
                        "cannot reach {} ({e}); retrying in {:.1}s ({} of {} attempts used)",
                        socket.display(),
                        delay.as_secs_f64(),
                        tried,
                        attempts.max(1)
                    );
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
            }
        }
    }

    /// Send one request and read its response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let line = request.to_json().render();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let line = self
            .reader
            .read_line()?
            .ok_or_else(|| protocol_error("connection closed before a response".into()))?;
        let json = Json::parse(&line).map_err(protocol_error)?;
        Response::from_json(&json).map_err(protocol_error)
    }

    /// Read the next event; `None` when the service closes the stream
    /// (campaign done, or daemon drained).
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        let Some(line) = self.reader.read_line()? else {
            return Ok(None);
        };
        let json = Json::parse(&line).map_err(protocol_error)?;
        Event::from_json(&json).map_err(protocol_error).map(Some)
    }
}
