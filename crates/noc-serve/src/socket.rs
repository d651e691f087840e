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
//! **Accepting.** `accept` blocks, so a connection is picked up the
//! moment it arrives. Nothing interrupts a blocked `accept` when the
//! TERM flag goes up (the handler's `signal(2)` restarts system calls),
//! so a watcher thread polls the flags every [`TERM_POLL`] and, once one
//! is set, wakes the listener with a throw-away connection to its own
//! path — again each poll, until the accept loop has left. The loop
//! looks at the flags before it counts a connection, so the wake-up
//! never shows in `health`. (The wake-up goes through the socket's
//! path: a server whose socket file was replaced under it can no longer
//! be reached by clients, and not by its watcher either.)
//!
//! **Writing.** Each connection's responses go through one `BufWriter`
//! that the service flushes once per burst (see [`Service`]'s module
//! docs), and the stream carries a [`WRITE_STALL`] write timeout: a
//! client that stops reading fails that one guarded write like a
//! hang-up — one `connection error` line on stderr, the connection
//! closes, its unfinished batch is abandoned — instead of holding its
//! thread, and with it a later shutdown, forever.
//!
//! **Shutdown.** Every connection reader polls the caller's TERM flag
//! every [`TERM_POLL`] through its read timeout (with `load`, not
//! `swap` — every thread must observe the one signal). On TERM each
//! connection drains *its own* batches to *its own* stream, so every
//! live client receives the results it was promised; the listener then
//! runs a final drain for orphaned points (clients that disconnected
//! with work queued), emits the status record to stderr — an operator
//! must see what the drain completed, so it never goes to a sink — and
//! journals a copy into the WAL when one is configured. A `shutdown`
//! request from any client drains the whole queue to that client and
//! stops the listener.
//!
//! [`ServeConfig::max_clients`]: crate::ServeConfig::max_clients

#![cfg(unix)]

use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use crate::lines::{Framed, RequestLines};
use crate::Service;

/// How often idle threads poll the TERM flag (the listener's watcher
/// and each connection's read timeout). Keep in sync with the binary's
/// module docs.
pub const TERM_POLL: Duration = Duration::from_millis(50);

/// How long one write to a client may go without the client taking a
/// byte before the connection is given up as stalled (the kernel's
/// timer wheel may add up to an eighth).
pub const WRITE_STALL: Duration = Duration::from_secs(5);

/// Run the socket server until TERM or a `shutdown` request. Binds
/// (replacing any stale socket file), serves concurrently, and
/// finishes with the orphan drain + operator status record described
/// in the module docs.
pub fn serve(service: &Service, path: &Path, term: &AtomicBool) -> io::Result<()> {
    serve_guarded(service, path, term, WRITE_STALL)
}

/// [`serve`] with the stalled-client bound as a parameter, so the tests
/// need not wait out [`WRITE_STALL`].
pub(crate) fn serve_guarded(
    service: &Service,
    path: &Path,
    term: &AtomicBool,
    write_stall: Duration,
) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    // set by a `shutdown` request; TERM-like for the accept loop, but
    // connection threads exit without draining (the queue is already
    // empty — the shutdown handler drained it to the requester)
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let stopping = || term.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst);
    std::thread::scope(|scope| -> io::Result<()> {
        // hangs up when the accept loop leaves, which ends the watcher
        let (_accepting, left) = mpsc::channel::<()>();
        scope.spawn(move || {
            while left.recv_timeout(TERM_POLL) == Err(RecvTimeoutError::Timeout) {
                if stopping() {
                    let _ = UnixStream::connect(path);
                }
            }
        });
        loop {
            let (stream, _) = listener.accept()?;
            // before the connection is counted: the watcher's wake-up
            // (or a client racing the shutdown) is dropped unanswered
            if stopping() {
                return Ok(());
            }
            let live = service.client_connected();
            if live > service.max_clients() as u64 {
                service.client_disconnected();
                // the client may already be gone, and the listener
                // must keep accepting
                let _ =
                    writer(stream, write_stall).and_then(|mut out| service.reject_client(&mut out));
                continue;
            }
            scope.spawn(move || {
                if let Err(e) = handle_connection(service, stream, term, stop, write_stall) {
                    eprintln!("noc-serve: connection error: {e}");
                }
                service.client_disconnected();
            });
        }
        // scope joins every connection thread here, so per-connection
        // drains finish before the final orphan drain below
    })?;
    let _ = std::fs::remove_file(path);
    service.drain_to_operator(&mut io::stderr().lock())
}

/// The response writer of one connection: the stream behind a
/// `BufWriter` (the service flushes it per burst), with the stall
/// guard set.
fn writer(stream: UnixStream, write_stall: Duration) -> io::Result<BufWriter<UnixStream>> {
    stream.set_write_timeout(Some(write_stall))?;
    Ok(BufWriter::new(stream))
}

/// One connection: read with a [`TERM_POLL`] timeout so the TERM flag
/// stays responsive mid-connection (partial bytes stay buffered across
/// timeouts), answer through the connection's [`writer`].
fn handle_connection(
    service: &Service,
    stream: UnixStream,
    term: &AtomicBool,
    stop: &AtomicBool,
    write_stall: Duration,
) -> io::Result<()> {
    stream.set_read_timeout(Some(TERM_POLL))?;
    let lines = RequestLines::new(BufReader::new(stream.try_clone()?));
    let mut out = writer(stream, write_stall)?;
    let served = serve_lines(service, lines, &mut out, term, stop);
    // every way out of the loop ends in a flush, so bytes are left only
    // behind a failed one — which `BufWriter`'s drop would try again,
    // waiting out a second stall
    let (_stream, _unsent) = out.into_parts();
    // read timeouts never leave the line loop: one that does is a write
    served.map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::Error::new(
            io::ErrorKind::TimedOut,
            format!("client took no bytes for {write_stall:?}, dropped as stalled"),
        ),
        _ => e,
    })
}

/// The connection's line loop: remember which batches this client
/// touched, and on TERM drain exactly those batches back to it. A line
/// the framing refuses (over-long, not UTF-8) gets its one typed
/// `error` response and the connection is closed.
fn serve_lines(
    service: &Service,
    mut lines: RequestLines<BufReader<UnixStream>>,
    out: &mut BufWriter<UnixStream>,
    term: &AtomicBool,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut batches: Vec<String> = Vec::new();
    loop {
        if term.load(Ordering::SeqCst) {
            return service.drain(Some(&batches), out);
        }
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match lines.next_line() {
            Ok(Framed::Eof) => return Ok(()), // client hung up
            Ok(Framed::Refused(reason)) => return service.refuse_line(reason, out),
            Ok(Framed::Line(line)) => {
                let (alive, touched) = service.handle_line_noting(&line, out)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use noc_eval::serve::{ServeRequest, SweepRequest};
    use noc_sim::config::{NetConfig, TopologyKind};
    use noc_traffic::PatternKind;
    use std::io::{BufRead, Write};
    use std::time::Instant;

    fn sweep_line() -> String {
        let sw = SweepRequest {
            batch: "sw".into(),
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(11),
            patterns: vec![PatternKind::Uniform],
            loads: vec![0.05, 0.1, 0.15, 0.2],
            seeds: 1,
            packet_size: 1,
            warmup: 200,
            measure: 400,
            drain_max: 4_000,
            budget: None,
            allow_degraded: false,
            analytic_admission: false,
            max_attempts: None,
            deadline_ms: None,
        };
        ServeRequest::Sweep(Box::new(sw)).to_json()
    }

    fn connect(path: &Path) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(path) {
                Ok(s) => return s,
                Err(e) => assert!(Instant::now() < deadline, "no socket at {path:?}: {e}"),
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// One sweep, answered: the outcome fragments of its result lines.
    fn sweep_outcomes(stream: &UnixStream, line: &str) -> Vec<String> {
        let mut out = stream;
        writeln!(out, "{line}").unwrap();
        let mut outcomes = Vec::new();
        for l in BufReader::new(stream).lines() {
            let l = l.unwrap();
            if l.contains("\"resp\": \"sweep-done\"") {
                return outcomes;
            }
            if let Some(at) = l.find("\"outcome\": ") {
                outcomes.push(l[at..].to_string());
            }
        }
        panic!("server hung up before sweep-done");
    }

    #[test]
    fn a_client_that_stops_reading_is_dropped_not_waited_for() {
        let sock =
            std::env::temp_dir().join(format!("noc_serve_stall_{}.sock", std::process::id()));
        let svc = Service::new(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let term = AtomicBool::new(false);
        let stall = Duration::from_millis(500);
        let line = sweep_line();
        std::thread::scope(|scope| {
            let server = {
                let (svc, sock, term) = (&svc, &sock, &term);
                scope.spawn(move || serve_guarded(svc, sock, term, stall))
            };
            let first = sweep_outcomes(&connect(&sock), &line);
            assert_eq!(first.len(), 4);

            // asks for the (now cached) sweep over and over and never
            // reads: its receive buffer fills, the server's flush blocks,
            // the server stops reading, and this side's writes block too
            let mut staller = connect(&sock);
            staller.set_write_timeout(Some(Duration::from_millis(100))).unwrap();
            let request = format!("{line}\n");
            let mut sent = 0;
            while sent < 100_000 && staller.write_all(request.as_bytes()).is_ok() {
                sent += 1;
            }
            assert!(sent < 100_000, "the stalled connection never pushed back");

            // everyone else is served meanwhile
            let second = sweep_outcomes(&connect(&sock), &line);
            assert_eq!(second, first);

            // and TERM is not held up past the stall bound
            let t = Instant::now();
            term.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
            assert!(t.elapsed() < stall + 2 * TERM_POLL, "TERM took {:?}", t.elapsed());
            drop(staller);
        });
        assert_eq!(svc.snapshot().clients, 0);
    }
}
