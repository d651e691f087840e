//! Concurrent Unix-socket serving: per-connection threads over one
//! shared [`Service`].
//!
//! The listener accepts up to [`ServeConfig::max_clients`] concurrent
//! connections and hands each to a scoped thread running the same
//! line loop stdio mode uses; a connection past the bound receives a
//! single typed `busy` response and is closed (a client retries
//! later — overload is data, never a hang or a silent drop). All
//! sharing lives inside [`Service`] (see its module docs for the
//! concurrency model); this module only owns sockets and threads.
//!
//! **Shutdown.** The accept loop and every connection reader poll the
//! caller's TERM flag every 50 ms (with `load`, not `swap` — every
//! thread must observe the one signal). On TERM each connection
//! drains *its own* batches to *its own* stream, so every live client
//! receives the results it was promised; the listener then runs a
//! final drain for orphaned points (clients that disconnected with
//! work queued), emits the status record to stderr — an operator must
//! see what the drain completed, so it never goes to a sink — and
//! journals a copy into the WAL when one is configured. A `shutdown`
//! request from any client drains the whole queue to that client and
//! stops the listener.
//!
//! [`ServeConfig::max_clients`]: crate::ServeConfig::max_clients

#![cfg(unix)]

use std::io::{self, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use noc_eval::serve::ServeResponse;

use crate::lines::{Framed, RequestLines};
use crate::Service;

/// How often idle loops poll the TERM flag (both the accept loop and
/// each connection's read timeout). Keep in sync with the binary's
/// usage text.
pub const TERM_POLL: Duration = Duration::from_millis(50);

/// Run the socket server until TERM or a `shutdown` request. Binds
/// (replacing any stale socket file), serves concurrently, and
/// finishes with the orphan drain + operator status record described
/// in the module docs.
pub fn serve(service: &Service, path: &Path, term: &AtomicBool) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    // set by a `shutdown` request; TERM-like for the accept loop, but
    // connection threads exit without draining (the queue is already
    // empty — the shutdown handler drained it to the requester)
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if term.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let live = service.client_connected();
                    if live > service.max_clients() as u64 {
                        service.client_disconnected();
                        reject(service, stream);
                        continue;
                    }
                    let stop = &stop;
                    scope.spawn(move || {
                        if let Err(e) = handle_connection(service, stream, term, stop) {
                            eprintln!("noc-serve: connection error: {e}");
                        }
                        service.client_disconnected();
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(TERM_POLL);
                }
                Err(e) => return Err(e),
            }
        }
        // scope joins every connection thread here, so per-connection
        // drains finish before the final orphan drain below
    })?;
    let _ = std::fs::remove_file(path);
    service.drain_to_operator(&mut io::stderr().lock())
}

/// Turn away a connection past the client bound: one `busy` line,
/// then close. Write errors are ignored — the client may already be
/// gone, and the listener must keep accepting.
fn reject(service: &Service, stream: UnixStream) {
    let active = service.client_rejected();
    let mut out = stream;
    let resp = ServeResponse::Busy { active, max: service.max_clients() as u64 };
    let _ = writeln!(out, "{}", resp.to_json());
    let _ = out.flush();
}

/// One connection's line loop: read with a [`TERM_POLL`] timeout so
/// the TERM flag stays responsive mid-connection (partial bytes stay
/// buffered across timeouts), remember which batches this client
/// touched, and on TERM drain exactly those batches back to it. A line
/// the framing refuses (over-long, not UTF-8) gets its one typed
/// `error` response and the connection is closed.
fn handle_connection(
    service: &Service,
    stream: UnixStream,
    term: &AtomicBool,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(TERM_POLL))?;
    let mut lines = RequestLines::new(BufReader::new(stream.try_clone()?));
    let mut out = stream;
    let mut batches: Vec<String> = Vec::new();
    loop {
        if term.load(Ordering::SeqCst) {
            return service.drain(Some(&batches), &mut out);
        }
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match lines.next_line() {
            Ok(Framed::Eof) => return Ok(()), // client hung up
            Ok(Framed::Refused(reason)) => return service.refuse_line(reason, &mut out),
            Ok(Framed::Line(line)) => {
                let (alive, touched) = service.handle_line_noting(&line, &mut out)?;
                if !alive {
                    stop.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                if let Some(b) = touched {
                    if !batches.contains(&b) {
                        batches.push(b);
                    }
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(_) => return Ok(()),
        }
    }
}
