//! The `noc-serve` binary: a persistent evaluation service speaking
//! the `noc-eval/serve/v1` line protocol on stdin/stdout, or serving
//! up to `--max-clients` concurrent connections on a Unix socket with
//! `--socket PATH`.
//!
//! ```text
//! noc-serve [--wal PATH] [--queue N] [--workers N] [--max-attempts N]
//!           [--budget CYCLES] [--chaos N]
//!           [--socket PATH] [--max-clients N]
//! ```
//!
//! `SIGTERM`/`SIGINT` (and EOF on stdin) trigger a graceful drain:
//! queued points are evaluated (in socket mode, each live connection
//! receives its own batches), the WAL is flushed, and a final
//! `status` record is emitted before exit. `SIGKILL` is survivable by
//! design: restart with the same `--wal` and finished points replay
//! from the journal instead of recomputing. The signal is noticed
//! within 50 ms (a flag polled by the stdin loop, each connection's
//! reader and the socket listener's watcher; connections themselves
//! are accepted without a poll). A socket client that stops reading
//! for 5 s is disconnected.

use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use noc_serve::lines::{Framed, RequestLines};
use noc_serve::{ServeConfig, Service};

/// Set from the signal handler; polled (with `load`, never `swap` —
/// every connection thread must observe the one signal) by the
/// request loops.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        // async-signal-safe: one atomic store
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler: extern "C" fn(i32) = on_term;
    let addr = handler as *const () as usize;
    unsafe {
        signal(SIGTERM, addr);
        signal(SIGINT, addr);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> ! {
    eprintln!(
        "usage: noc-serve [--wal PATH] [--queue N] [--workers N] [--max-attempts N]\n\
         \u{20}                [--budget CYCLES] [--chaos N]\n\
         \u{20}                [--socket PATH] [--max-clients N]\n\
         Speaks noc-eval/serve/v1, one JSON object per line, on stdin/stdout\n\
         (or on --socket PATH, serving up to --max-clients connections\n\
         concurrently; further clients get a typed `busy` response).\n\
         Requests: point, sweep (server-side grid expansion), run, cancel,\n\
         health, shutdown. SIGTERM/EOF drain gracefully; --wal makes\n\
         finished points survive SIGKILL."
    );
    std::process::exit(2);
}

fn next_val(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("noc-serve: {flag} needs a value");
        usage();
    })
}

fn parse_num(flag: &str, raw: &str) -> u64 {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("noc-serve: {flag} wants an unsigned integer, got {raw:?}");
        usage();
    })
}

/// Like [`parse_num`] but range-checked: a value that does not fit the
/// flag's actual width is a usage error, never a silent wrap (a bare
/// `as u32` would turn `--max-attempts 4294967297` into 1).
fn parse_checked<T: TryFrom<u64>>(flag: &str, raw: &str) -> T {
    let v = parse_num(flag, raw);
    T::try_from(v).unwrap_or_else(|_| {
        eprintln!(
            "noc-serve: {flag} value {v} is out of range (max {})",
            match std::mem::size_of::<T>() {
                4 => u32::MAX as u64,
                _ => usize::MAX as u64,
            }
        );
        usage();
    })
}

fn main() {
    install_signal_handlers();
    let mut cfg = ServeConfig::default();
    let mut socket: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--wal" => cfg.wal = Some(PathBuf::from(next_val(&mut args, "--wal"))),
            "--queue" => {
                cfg.queue_capacity = parse_checked("--queue", &next_val(&mut args, "--queue"))
            }
            "--workers" => {
                cfg.workers = parse_checked("--workers", &next_val(&mut args, "--workers"))
            }
            "--max-attempts" => {
                cfg.max_attempts =
                    parse_checked("--max-attempts", &next_val(&mut args, "--max-attempts"))
            }
            "--budget" => {
                cfg.default_budget = parse_num("--budget", &next_val(&mut args, "--budget"))
            }
            "--chaos" => cfg.chaos = parse_num("--chaos", &next_val(&mut args, "--chaos")),
            "--socket" => socket = Some(PathBuf::from(next_val(&mut args, "--socket"))),
            "--max-clients" => {
                cfg.max_clients =
                    parse_checked("--max-clients", &next_val(&mut args, "--max-clients"))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("noc-serve: unknown flag {other:?}");
                usage();
            }
        }
    }
    let service = match Service::new(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("noc-serve: {e}");
            std::process::exit(1);
        }
    };
    let result = match socket {
        Some(path) => serve_socket(&service, &path),
        None => serve_stdio(&service),
    };
    if let Err(e) = result {
        eprintln!("noc-serve: {e}");
        std::process::exit(1);
    }
}

/// stdin/stdout mode. A reader thread feeds a channel so the main loop
/// can poll the TERM flag every 50 ms even while stdin is idle. A line
/// the framing refuses (over-long, not UTF-8) is answered with a typed
/// `error` and skipped. Responses go through a `BufWriter` the service
/// flushes once per burst, as in socket mode.
fn serve_stdio(service: &Service) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<Framed>();
    std::thread::spawn(move || {
        let mut lines = RequestLines::new(BufReader::new(std::io::stdin().lock()));
        while let Ok(framed) = lines.next_line() {
            // EOF (or a read error) hangs up the channel: the main
            // loop drains exactly as on SIGTERM
            if framed == Framed::Eof || tx.send(framed).is_err() {
                return;
            }
        }
    });
    let mut out = BufWriter::new(std::io::stdout().lock());
    loop {
        if TERM.load(Ordering::SeqCst) {
            return service.shutdown(&mut out);
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Framed::Line(line)) => {
                if !service.handle_line(&line, &mut out)? {
                    return Ok(());
                }
            }
            Ok(Framed::Refused(reason)) => service.refuse_line(reason, &mut out)?,
            Ok(Framed::Eof) | Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return service.shutdown(&mut out),
        }
    }
}

/// Unix-socket mode: the concurrent server in [`noc_serve::socket`].
#[cfg(unix)]
fn serve_socket(service: &Service, path: &std::path::Path) -> std::io::Result<()> {
    noc_serve::socket::serve(service, path, &TERM)
}

#[cfg(not(unix))]
fn serve_socket(_service: &Service, _path: &std::path::Path) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--socket requires a Unix platform; use stdin/stdout mode",
    ))
}
