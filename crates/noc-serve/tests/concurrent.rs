//! Concurrent multi-client socket serving: N clients with overlapping
//! grids over one shared [`Service`] must produce exactly the bits a
//! single serial client produces — including across a WAL restart —
//! and the `--max-clients` bound must answer with a typed `busy`
//! record, never a silent drop.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use noc_eval::serve::{
    parse_response, PointRequest, ServeOutcome, ServeRequest, ServeResponse, ServeResult,
};
use noc_serve::{socket, ServeConfig, Service};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_traffic::PatternKind;

fn point(batch: &str, seed: u64, load: f64) -> PointRequest {
    PointRequest {
        batch: batch.into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
        pattern: PatternKind::Uniform,
        packet_size: 1,
        load,
        warmup: 200,
        measure: 500,
        drain_max: 5_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: false,
    }
}

fn quick_cfg() -> ServeConfig {
    ServeConfig { workers: 2, default_budget: 1_000_000, ..ServeConfig::default() }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc_serve_conc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

/// Connect to the server socket, retrying while the listener binds.
fn connect(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("server socket never appeared at {}: {e}", path.display()),
        }
    }
}

/// One client session: submit every point of `batch`, run it, and
/// read responses until the batch-done marker. Returns the parsed
/// responses in arrival order.
fn client_session(path: &Path, batch: &str, pts: &[PointRequest]) -> Vec<ServeResponse> {
    let stream = connect(path);
    let mut out = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for p in pts {
        let mut q = p.clone();
        q.batch = batch.into();
        writeln!(out, "{}", ServeRequest::Point(Box::new(q)).to_json()).unwrap();
    }
    let run = ServeRequest::Run { batch: batch.into(), max_attempts: None, deadline_ms: None };
    writeln!(out, "{}", run.to_json()).unwrap();
    out.flush().unwrap();
    let mut resps = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server hung up before batch-done for {batch}");
        let resp = parse_response(line.trim()).expect(&line);
        let done = matches!(&resp, ServeResponse::BatchDone { batch: b, .. } if b == batch);
        resps.push(resp);
        if done {
            return resps;
        }
    }
}

/// key -> canonical outcome bytes, from a response stream.
fn canonical_map(resps: &[ServeResponse]) -> HashMap<String, String> {
    let mut m = HashMap::new();
    for r in resps {
        if let ServeResponse::Result(ServeResult { key, outcome, .. }) = r {
            let bytes = outcome.canonical();
            if let Some(prev) = m.insert(key.clone(), bytes.clone()) {
                assert_eq!(prev, bytes, "two answers for {key} disagreed");
            }
        }
    }
    m
}

/// Serial reference: the same points through one in-process service.
fn serial_reference(pts: &[PointRequest]) -> HashMap<String, String> {
    let svc = Service::new(quick_cfg()).unwrap();
    let mut buf = Vec::new();
    for p in pts {
        svc.handle_line(&ServeRequest::Point(Box::new(p.clone())).to_json(), &mut buf).unwrap();
    }
    let run =
        ServeRequest::Run { batch: pts[0].batch.clone(), max_attempts: None, deadline_ms: None };
    svc.handle_line(&run.to_json(), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let resps: Vec<_> = text.lines().map(|l| parse_response(l).expect(l)).collect();
    canonical_map(&resps)
}

/// Three clients hammer one server with *overlapping* grids (every
/// pair of clients shares points, so cache inserts and WAL appends
/// race); the union of their answers must be bit-identical to a
/// serial single-client run of the same configs.
#[test]
fn three_concurrent_clients_with_overlapping_grids_match_serial() {
    let sock = tmp("three.sock");
    let wal = tmp("three.wal");
    let svc = Service::new(ServeConfig { wal: Some(wal.clone()), ..quick_cfg() }).unwrap();
    let term = AtomicBool::new(false);

    // client c gets points [c, c+4): windows overlap by 3 points
    let grid: Vec<PointRequest> =
        (0..6).map(|i| point("ref", 1000 + i, 0.08 + 0.02 * i as f64)).collect();
    let maps: Vec<HashMap<String, String>> = std::thread::scope(|scope| {
        let server = {
            let (svc, sock, term) = (&svc, &sock, &term);
            scope.spawn(move || socket::serve(svc, sock, term))
        };
        let clients: Vec<_> = (0..3)
            .map(|c| {
                let (sock, grid) = (&sock, &grid);
                scope.spawn(move || {
                    let mine = &grid[c..c + 4];
                    let resps = client_session(sock, &format!("client{c}"), mine);
                    canonical_map(&resps)
                })
            })
            .collect();
        let maps: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        term.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
        maps
    });

    let reference = serial_reference(&grid);
    let mut union: HashMap<String, String> = HashMap::new();
    for m in maps {
        for (k, v) in m {
            if let Some(prev) = union.insert(k.clone(), v.clone()) {
                assert_eq!(prev, v, "clients disagreed on {k}");
            }
        }
    }
    assert_eq!(union.len(), reference.len(), "every grid point was answered");
    for (k, v) in &reference {
        assert_eq!(union.get(k), Some(v), "concurrent answer for {k} diverged from serial");
    }

    // WAL race safety: a fresh service replays every deterministic
    // outcome, bit-identical, no matter how the appends interleaved
    let resumed = Service::new(ServeConfig { wal: Some(wal.clone()), ..quick_cfg() }).unwrap();
    assert_eq!(resumed.cached_results(), reference.len());
    let replayed = serial_reference_with(&resumed, &grid);
    for (k, v) in &reference {
        assert_eq!(replayed.get(k), Some(v), "WAL replay for {k} diverged");
    }
    let _ = std::fs::remove_file(&wal);
}

/// Like [`serial_reference`] but over an existing service instance.
fn serial_reference_with(svc: &Service, pts: &[PointRequest]) -> HashMap<String, String> {
    let mut buf = Vec::new();
    for p in pts {
        svc.handle_line(&ServeRequest::Point(Box::new(p.clone())).to_json(), &mut buf).unwrap();
    }
    let run =
        ServeRequest::Run { batch: pts[0].batch.clone(), max_attempts: None, deadline_ms: None };
    svc.handle_line(&run.to_json(), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let resps: Vec<_> = text.lines().map(|l| parse_response(l).expect(l)).collect();
    canonical_map(&resps)
}

/// A connection past `--max-clients` receives one typed `busy` record
/// and a clean close — and the slot frees up when a client leaves.
#[test]
fn client_bound_answers_busy_then_frees_the_slot() {
    let sock = tmp("busy.sock");
    let svc = Service::new(ServeConfig { max_clients: 1, ..quick_cfg() }).unwrap();
    let term = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = {
            let (svc, sock, term) = (&svc, &sock, &term);
            scope.spawn(move || socket::serve(svc, sock, term))
        };
        // first client occupies the only slot
        let first = connect(&sock);
        // wait until the server has registered it
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.snapshot().clients < 1 {
            assert!(Instant::now() < deadline, "first client never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        // second client is turned away with a typed busy record
        let second = connect(&sock);
        let mut reader = BufReader::new(second);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse_response(line.trim()).expect(&line);
        let ServeResponse::Busy { active, max } = resp else {
            panic!("expected busy, got {resp:?}");
        };
        assert_eq!((active, max), (1, 1));
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "busy connection is closed");
        assert_eq!(svc.snapshot().busy, 1);
        // the slot frees once the first client hangs up
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.snapshot().clients > 0 {
            assert!(Instant::now() < deadline, "slot never freed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let resps = client_session(&sock, "after", &[point("after", 7, 0.1)]);
        assert!(matches!(resps.last(), Some(ServeResponse::BatchDone { points: 1, ok: 1, .. })));
        term.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    });
}

/// SIGTERM with live connections: each client's queued-but-unrun
/// batches drain to *that client's* stream, ending in the status
/// record — no client is left waiting on a dead socket.
#[test]
fn term_drains_queued_points_to_the_live_connection() {
    let sock = tmp("drain.sock");
    let svc = Service::new(quick_cfg()).unwrap();
    let term = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = {
            let (svc, sock, term) = (&svc, &sock, &term);
            scope.spawn(move || socket::serve(svc, sock, term))
        };
        let stream = connect(&sock);
        let mut out = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // queue two points but never send `run`
        for i in 0..2u64 {
            let p = point("hanging", 40 + i, 0.1);
            writeln!(out, "{}", ServeRequest::Point(Box::new(p)).to_json()).unwrap();
        }
        out.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.snapshot().queue_depth < 2 {
            assert!(Instant::now() < deadline, "points never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        term.store(true, Ordering::SeqCst);
        let mut resps = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            resps.push(parse_response(line.trim()).expect(&line));
        }
        let results: Vec<_> =
            resps.iter().filter(|r| matches!(r, ServeResponse::Result(_))).collect();
        assert_eq!(results.len(), 2, "queued points drained to the client: {resps:?}");
        assert!(
            resps.iter().all(|r| !matches!(
                r,
                ServeResponse::Result(ServeResult { outcome: ServeOutcome::Shed { .. }, .. })
            )),
            "drained points are evaluated, not shed: {resps:?}"
        );
        assert!(
            resps.iter().any(|r| matches!(r, ServeResponse::Status(_))),
            "the drain ends with a status record: {resps:?}"
        );
        server.join().unwrap().unwrap();
    });
}

/// A line the framing refuses — one that never ends, or one that is
/// not UTF-8 — costs its sender exactly one typed `error` response and
/// the connection; the server keeps serving everyone else.
#[test]
fn unreadable_lines_get_one_error_then_the_connection_closes() {
    let sock = tmp("hostile.sock");
    let svc = Service::new(quick_cfg()).unwrap();
    let term = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = {
            let (svc, sock, term) = (&svc, &sock, &term);
            scope.spawn(move || socket::serve(svc, sock, term))
        };
        let bound = noc_eval::serve::MAX_LINE_BYTES;
        let hostile: [(&str, Vec<u8>); 2] = [
            ("longer than", vec![b'x'; bound + (1 << 16)]), // no newline, ever
            ("UTF-8", b"{\"req\": \"\xff\xfe\"}\n".to_vec()),
        ];
        for (why, bytes) in hostile {
            let stream = connect(&sock);
            let mut out = stream.try_clone().unwrap();
            // the server may hang up before the last bytes are written
            let writer = scope.spawn(move || drop(out.write_all(&bytes)));
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let ServeResponse::Error { reason } = parse_response(line.trim()).expect(&line) else {
                panic!("expected a typed error, got {line}")
            };
            assert!(reason.contains(why), "{reason}");
            line.clear();
            // a reset (unread bytes were pending) is as good as EOF
            assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "then the connection closes");
            writer.join().unwrap();
        }
        let resps = client_session(&sock, "after", &[point("after", 9, 0.1)]);
        assert!(matches!(resps.last(), Some(ServeResponse::BatchDone { points: 1, ok: 1, .. })));
        term.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    });
}

/// Send `line` and read — 64 KiB at a time — until the response ends in
/// a `sweep-done` line. Returns the response and the `read` calls it
/// took.
fn sweep_reads(stream: &mut UnixStream, line: &str) -> (String, usize) {
    use std::io::Read;
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut got = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut reads = 0;
    loop {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server hung up mid-sweep");
        got.extend_from_slice(&chunk[..n]);
        reads += 1;
        let text = std::str::from_utf8(&got).unwrap();
        let last = text.strip_suffix('\n').and_then(|t| t.lines().last());
        if last.is_some_and(|l| l.contains("\"resp\": \"sweep-done\"")) {
            return (String::from_utf8(got).unwrap(), reads);
        }
    }
}

/// A cached sweep crosses the socket as one burst: the client, already
/// blocked in `read` when the server starts answering, needs no more
/// than two reads for all ten lines (a write per line would wake it for
/// the first line alone).
#[test]
fn a_cached_sweep_reaches_the_client_in_one_burst() {
    let sock = tmp("burst.sock");
    let svc = Service::new(quick_cfg()).unwrap();
    let term = AtomicBool::new(false);
    let sw = noc_eval::serve::SweepRequest {
        batch: "sw".into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(5),
        patterns: vec![PatternKind::Uniform],
        loads: vec![0.05, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2],
        seeds: 1,
        packet_size: 1,
        warmup: 200,
        measure: 500,
        drain_max: 5_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: false,
        max_attempts: None,
        deadline_ms: None,
    };
    let line = ServeRequest::Sweep(Box::new(sw)).to_json();
    std::thread::scope(|scope| {
        let server = {
            let (svc, sock, term) = (&svc, &sock, &term);
            scope.spawn(move || socket::serve(svc, sock, term))
        };
        let mut stream = connect(&sock);
        let (cold, _) = sweep_reads(&mut stream, &line);
        assert_eq!(cold.lines().count(), 10, "8 results, batch-done, sweep-done");
        for _ in 0..5 {
            let (cached, reads) = sweep_reads(&mut stream, &line);
            assert_eq!(cached.lines().count(), 10);
            assert_eq!(cached.matches("\"cached\": true").count(), 8);
            assert!(reads <= 2, "a cached sweep took {reads} reads");
        }
        term.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    });
}

/// The listener blocks in `accept`: an idle server answers a new
/// connection's first request at once, not at its next poll — and TERM
/// still ends it with nobody connected, without the wake-up connection
/// ever counting as a client.
#[test]
fn an_idle_listener_answers_at_once_and_still_hears_term() {
    let sock = tmp("idle.sock");
    let svc = Service::new(quick_cfg()).unwrap();
    let term = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = {
            let (svc, sock, term) = (&svc, &sock, &term);
            scope.spawn(move || socket::serve(svc, sock, term))
        };
        drop(connect(&sock));
        let mut answered = Vec::new();
        for _ in 0..5 {
            // idle for longer than a poll period, then time one exchange
            std::thread::sleep(Duration::from_millis(70));
            let t = Instant::now();
            let stream = UnixStream::connect(&sock).unwrap();
            let mut out = stream.try_clone().unwrap();
            writeln!(out, "{}", ServeRequest::Health.to_json()).unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            answered.push(t.elapsed());
            assert!(matches!(parse_response(line.trim()), Ok(ServeResponse::Health(_))), "{line}");
        }
        answered.sort();
        // the median: one descheduled exchange is the host's business
        assert!(answered[2] < Duration::from_millis(10), "connect-to-health took {answered:?}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.snapshot().clients > 0 {
            assert!(Instant::now() < deadline, "clients never left");
            std::thread::sleep(Duration::from_millis(5));
        }
        let t = Instant::now();
        term.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
        assert!(t.elapsed() < Duration::from_millis(500), "TERM took {:?}", t.elapsed());
    });
    let h = svc.snapshot();
    assert_eq!((h.clients, h.busy), (0, 0), "the wake-up connection is not a client");
}
