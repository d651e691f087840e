//! `serve_replay` — the CI gate for `noc-serve`'s crash tolerance.
//!
//! Drives the real `noc-serve` binary through eight lives:
//!
//! 1. **Reference** — an uninterrupted run of a scripted batch.
//! 2. **Kill and resume** — the same script against a WAL-backed
//!    service that is `SIGKILL`ed right after its first result line;
//!    a restarted service replaying the same script must produce a
//!    *complete* result set *bit-identical* to the reference.
//! 3. **Overload** — a queue-capacity-2 service fed 8 points: every
//!    point must get a typed answer (`Shed` with a reason, or a
//!    `degraded: true` analytic prediction) — no hangs, no drops.
//! 4. **Chaos retry** — `--chaos 2` injects two evaluation panics;
//!    with 3 attempts the final results must still be bit-identical
//!    to the reference.
//! 5. **Graceful drain** — `SIGTERM` with points queued must evaluate
//!    them, emit a final `status` record, and exit 0.
//! 6. **Concurrent clients** — three socket clients with overlapping
//!    grids; the server is `SIGKILL`ed mid-load, restarted on the
//!    same WAL, and the resubmitted run's union of answers must be
//!    complete and bit-identical to the reference.
//! 7. **Sweep** — one server-side `sweep` request must stream exactly
//!    the bytes its expansion submitted point-by-point streams, plus
//!    one `sweep-done` summary record.
//! 8. **Stalled reader** — a socket client that keeps asking for cached
//!    sweeps and never reads must not hold anyone up: a second client
//!    is answered byte-identically meanwhile, and `SIGTERM` still exits
//!    0 once the server's write-stall bound has dropped the connection.
//!
//! Usage: `cargo run --release -p noc-bench --bin serve_replay -- [quick|full] [--serve-bin PATH]`

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use noc_eval::serve::{
    parse_response, PointRequest, ServeOutcome, ServeRequest, ServeResponse, SweepRequest,
};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_traffic::PatternKind;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

fn script_points(quick: bool) -> Vec<PointRequest> {
    let n = if quick { 12 } else { 24 };
    (0..n)
        .map(|i| PointRequest {
            batch: "replay".into(),
            net: NetConfig::baseline()
                .with_topology(TopologyKind::Mesh2D { k: 8 })
                .with_seed(0xA5E5_0000 + i as u64),
            pattern: PatternKind::Uniform,
            packet_size: 1,
            load: 0.05 + 0.02 * (i % 10) as f64,
            warmup: if quick { 2_000 } else { 5_000 },
            measure: if quick { 4_000 } else { 10_000 },
            drain_max: 40_000,
            budget: Some(5_000_000),
            allow_degraded: false,
            analytic_admission: false,
        })
        .collect()
}

fn script_lines(points: &[PointRequest]) -> Vec<String> {
    points
        .iter()
        .map(|p| p.to_json())
        .chain([ServeRequest::Run {
            batch: "replay".into(),
            max_attempts: None,
            deadline_ms: None,
        }
        .to_json()])
        .collect()
}

fn spawn(bin: &PathBuf, extra: &[String]) -> Child {
    Command::new(bin)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot spawn {}: {e}", bin.display())))
}

fn send_lines(child: &mut Child, lines: &[String]) {
    let stdin = child.stdin.as_mut().expect("piped stdin");
    for l in lines {
        writeln!(stdin, "{l}").unwrap_or_else(|e| fail(&format!("writing to service: {e}")));
    }
    stdin.flush().unwrap();
}

/// `SIGTERM` to a running service.
fn sigterm(child: &Child) {
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot send SIGTERM: {e}")));
    if !term.success() {
        fail("kill -TERM failed");
    }
}

/// Send the script, close stdin (EOF triggers a graceful drain), and
/// collect every raw response line until the service exits.
fn run_raw(bin: &PathBuf, extra: &[String], lines: &[String]) -> Vec<String> {
    let mut child = spawn(bin, extra);
    send_lines(&mut child, lines);
    drop(child.stdin.take());
    let out = child.stdout.take().expect("piped stdout");
    let raw: Vec<String> = BufReader::new(out)
        .lines()
        .map(|l| l.unwrap_or_else(|e| fail(&format!("reading from service: {e}"))))
        .collect();
    let status = child.wait().expect("service exit status");
    if !status.success() {
        fail(&format!("service exited with {status}"));
    }
    raw
}

/// [`run_raw`], parsed.
fn run_to_completion(bin: &PathBuf, extra: &[String], lines: &[String]) -> Vec<ServeResponse> {
    run_raw(bin, extra, lines)
        .iter()
        .map(|l| {
            parse_response(l).unwrap_or_else(|e| fail(&format!("unparseable response {l:?}: {e}")))
        })
        .collect()
}

/// Point number -> (canonical outcome, cached flag). Volatile fields
/// (`cached`, `attempts`) are deliberately excluded from the identity.
fn result_map(resps: &[ServeResponse]) -> BTreeMap<u64, (String, bool)> {
    let mut map = BTreeMap::new();
    for r in resps {
        if let ServeResponse::Result(r) = r {
            if map.insert(r.point, (r.outcome.canonical(), r.cached)).is_some() {
                fail(&format!("point {} answered twice", r.point));
            }
        }
    }
    map
}

fn assert_identical(
    label: &str,
    reference: &BTreeMap<u64, (String, bool)>,
    got: &BTreeMap<u64, (String, bool)>,
) {
    if got.len() != reference.len() {
        fail(&format!(
            "{label}: incomplete results ({} of {} points answered)",
            got.len(),
            reference.len()
        ));
    }
    for (point, (want, _)) in reference {
        let Some((have, _)) = got.get(point) else {
            fail(&format!("{label}: point {point} missing"));
        };
        if have != want {
            fail(&format!(
                "{label}: point {point} differs\n  reference: {want}\n  got:       {have}"
            ));
        }
    }
    println!("  {label}: {} points bit-identical", reference.len());
}

fn main() {
    let mut quick = true;
    let mut bin: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "quick" => quick = true,
            "full" => quick = false,
            "--serve-bin" => {
                bin = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    fail("--serve-bin needs a path");
                })))
            }
            other => fail(&format!("unknown argument {other:?} (expected quick|full)")),
        }
    }
    // default: the noc-serve binary sitting next to this harness
    let bin = bin.unwrap_or_else(|| {
        let me = std::env::current_exe().expect("current_exe");
        me.parent().expect("target dir").join("noc-serve")
    });
    if !bin.exists() {
        fail(&format!(
            "{} not found; build it first (cargo build --release -p noc-serve)",
            bin.display()
        ));
    }
    let workers = vec!["--workers".to_string(), "2".to_string()];
    let points = script_points(quick);
    let script = script_lines(&points);

    // -- 1: uninterrupted reference ------------------------------------
    println!("[1/8] reference run ({} points)", points.len());
    let reference = result_map(&run_to_completion(&bin, &workers, &script));
    if reference.len() != points.len() {
        fail(&format!("reference run answered {} of {} points", reference.len(), points.len()));
    }
    if let Some(p) = reference.iter().find(|(_, (o, _))| !o.contains("\"outcome\": \"ok\"")) {
        fail(&format!("reference point {} not ok: {}", p.0, p.1 .0));
    }

    // -- 2: SIGKILL mid-batch, restart, resume -------------------------
    println!("[2/8] SIGKILL mid-batch, restart with the same WAL");
    let wal = std::env::temp_dir().join(format!("serve_replay_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let wal_args: Vec<String> =
        vec!["--wal".into(), wal.display().to_string(), "--workers".into(), "2".into()];
    {
        let mut child = spawn(&bin, &wal_args);
        send_lines(&mut child, &script);
        let out = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(out);
        let mut line = String::new();
        let mut seen = 0usize;
        // kill the instant the first result appears: the rest of the
        // batch is still in flight
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                fail("service died before emitting any result");
            }
            if matches!(parse_response(line.trim()), Ok(ServeResponse::Result(_))) {
                seen += 1;
                break;
            }
        }
        child.kill().expect("SIGKILL");
        let _ = child.wait();
        println!("  killed after {seen} result line(s)");
    }
    let resumed_resps = run_to_completion(&bin, &wal_args, &script);
    let resumed = result_map(&resumed_resps);
    assert_identical("kill-and-resume", &reference, &resumed);
    let cached = resumed.values().filter(|(_, c)| *c).count();
    println!(
        "  resume replayed {cached} point(s) from the WAL, recomputed {}",
        resumed.len() - cached
    );
    if cached == 0 {
        fail("resume replayed nothing from the WAL: durability is not working");
    }
    let _ = std::fs::remove_file(&wal);

    // -- 3: overload returns typed shed/degraded answers ---------------
    println!("[3/8] overload: queue capacity 2, 8 points");
    let mut overload_script = Vec::new();
    for i in 0..8u64 {
        let mut p = points[0].clone();
        p.batch = "ov".into();
        p.net.seed = 0xBEEF_0000 + i;
        p.allow_degraded = i % 2 == 1;
        overload_script.push(p.to_json());
    }
    overload_script.push(
        ServeRequest::Run { batch: "ov".into(), max_attempts: None, deadline_ms: None }.to_json(),
    );
    let mut small_q = vec!["--queue".to_string(), "2".to_string()];
    small_q.extend(workers.clone());
    let ov = run_to_completion(&bin, &small_q, &overload_script);
    let ov_results = result_map(&ov);
    if ov_results.len() != 8 {
        fail(&format!("overload: {} of 8 points answered (silent drop)", ov_results.len()));
    }
    let (mut n_ok, mut n_shed, mut n_degraded) = (0, 0, 0);
    for r in &ov {
        if let ServeResponse::Result(r) = r {
            match &r.outcome {
                ServeOutcome::Ok { .. } => n_ok += 1,
                ServeOutcome::Shed { reason } => {
                    if !reason.contains("queue full") {
                        fail(&format!("shed without a queue-full reason: {reason:?}"));
                    }
                    n_shed += 1;
                }
                ServeOutcome::Degraded { predicted_saturation, .. } => {
                    if !predicted_saturation.is_finite() || *predicted_saturation <= 0.0 {
                        fail("degraded answer with no saturation prediction");
                    }
                    if !r.to_json().contains("\"degraded\": true") {
                        fail("degraded answer missing the degraded tag");
                    }
                    n_degraded += 1;
                }
                other => fail(&format!("unexpected overload outcome: {other:?}")),
            }
        }
    }
    if n_ok != 2 || n_shed != 3 || n_degraded != 3 {
        fail(&format!(
            "overload mix wrong: {n_ok} ok / {n_shed} shed / {n_degraded} degraded \
             (expected 2/3/3)"
        ));
    }
    println!("  all 8 answered: {n_ok} ok, {n_shed} shed, {n_degraded} degraded");

    // -- 4: chaos-injected panics are retried deterministically --------
    println!("[4/8] chaos: 2 injected panics, 3 attempts");
    let mut chaos_args =
        vec!["--chaos".to_string(), "2".to_string(), "--max-attempts".to_string(), "3".to_string()];
    chaos_args.extend(workers.clone());
    let chaos = result_map(&run_to_completion(&bin, &chaos_args, &script));
    assert_identical("chaos-retry", &reference, &chaos);

    // -- 5: SIGTERM drains queued points gracefully --------------------
    println!("[5/8] SIGTERM graceful drain");
    {
        let mut child = spawn(&bin, &workers);
        let mut lines: Vec<String> = points[..2]
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.batch = "drain".into();
                p.to_json()
            })
            .collect();
        lines.push(ServeRequest::Health.to_json());
        send_lines(&mut child, &lines);
        let out = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(out);
        let mut line = String::new();
        // the health answer proves both points were admitted before we
        // pull the trigger
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                fail("service died before answering health");
            }
            if let Ok(ServeResponse::Health(h)) = parse_response(line.trim()) {
                if h.queue_depth != 2 {
                    fail(&format!(
                        "expected 2 queued points before SIGTERM, got {}",
                        h.queue_depth
                    ));
                }
                break;
            }
        }
        sigterm(&child);
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        let resps: Vec<ServeResponse> = rest
            .lines()
            .map(|l| parse_response(l).unwrap_or_else(|e| fail(&format!("bad line {l:?}: {e}"))))
            .collect();
        let drained = resps.iter().filter(|r| matches!(r, ServeResponse::Result(_))).count();
        if drained != 2 {
            fail(&format!("SIGTERM drained {drained} of 2 queued points"));
        }
        let Some(ServeResponse::Status(h)) = resps.last() else {
            fail(&format!("final record must be a status, got {:?}", resps.last()));
        };
        if !h.draining || h.queue_depth != 0 {
            fail("final status should report a drained, empty service");
        }
        let status = child.wait().expect("exit status");
        if !status.success() {
            fail(&format!("SIGTERM exit status {status} (want 0)"));
        }
        println!("  drained 2 points, clean status, exit 0");
    }

    // -- 6: concurrent clients, SIGKILL, WAL resume --------------------
    let key_ref: BTreeMap<String, String> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.key(), reference[&(i as u64)].0.clone()))
        .collect();
    life_concurrent(&bin, &points, &key_ref);

    // -- 7: server-side sweep expansion --------------------------------
    life_sweep(&bin, &workers, quick);

    // -- 8: a client that stops reading ----------------------------------
    life_stalled_reader(&bin, quick);

    println!("serve_replay: all eight lives PASS");
}

/// Life 6: three socket clients with overlapping grids hammer one
/// server; SIGKILL mid-load; a restarted server on the same WAL must
/// answer the resubmitted grids completely and bit-identically to the
/// stdio reference.
#[cfg(unix)]
fn life_concurrent(bin: &PathBuf, points: &[PointRequest], key_ref: &BTreeMap<String, String>) {
    use std::time::{Duration, Instant};
    println!("[6/8] three concurrent clients, SIGKILL mid-load, WAL resume");
    let dir = std::env::temp_dir();
    let sock = dir.join(format!("serve_replay_{}.sock", std::process::id()));
    let wal = dir.join(format!("serve_replay_mc_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_file(&wal);
    let args: Vec<String> = [
        "--socket",
        &sock.display().to_string(),
        "--wal",
        &wal.display().to_string(),
        "--workers",
        "2",
        "--max-clients",
        "4",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // overlapping windows: every adjacent pair of clients shares points
    let stride = points.len() / 3;
    let subsets: Vec<&[PointRequest]> =
        (0..3).map(|c| &points[c * stride..(points.len()).min((c + 2) * stride)]).collect();

    // first life: clients race until the WAL holds at least one record,
    // then the server dies mid-load
    let mut child = spawn_socket_server(bin, &args);
    wait_for_socket(&sock);
    std::thread::scope(|scope| {
        for (c, subset) in subsets.iter().enumerate() {
            let (sock, subset) = (&sock, *subset);
            scope.spawn(move || mc_client(sock, &format!("mc{c}"), subset, false));
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if std::fs::metadata(&wal).map(|m| m.len() > 0).unwrap_or(false) {
                break;
            }
            if Instant::now() > deadline {
                fail("no WAL record appeared under concurrent load");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        child.kill().expect("SIGKILL");
        let _ = child.wait();
        // clients see EOF/EPIPE and return; the scope joins them
    });
    println!(
        "  killed mid-load ({} WAL bytes)",
        std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0)
    );

    // second life: same WAL, same grids, answers must be complete and
    // bit-identical to the reference
    let mut child = spawn_socket_server(bin, &args);
    wait_for_socket(&sock);
    let mut union: BTreeMap<String, String> = BTreeMap::new();
    let maps = std::thread::scope(|scope| {
        let handles: Vec<_> = subsets
            .iter()
            .enumerate()
            .map(|(c, subset)| {
                let (sock, subset) = (&sock, *subset);
                scope.spawn(move || mc_client(sock, &format!("mc{c}"), subset, true))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    for m in maps {
        for (k, v) in m {
            if let Some(prev) = union.insert(k.clone(), v.clone()) {
                if prev != v {
                    fail(&format!("concurrent clients disagreed on {k}"));
                }
            }
        }
    }
    sigterm(&child);
    let status = child.wait().expect("exit status");
    if !status.success() {
        fail(&format!("socket server exit status {status} (want 0)"));
    }
    if union.len() != key_ref.len() {
        fail(&format!(
            "concurrent resume answered {} of {} distinct points",
            union.len(),
            key_ref.len()
        ));
    }
    for (k, want) in key_ref {
        match union.get(k) {
            Some(have) if have == want => {}
            Some(have) => fail(&format!(
                "concurrent resume differs for {k}\n  reference: {want}\n  got:       {have}"
            )),
            None => fail(&format!("concurrent resume missing {k}")),
        }
    }
    println!("  resumed run: {} distinct points bit-identical across 3 clients", union.len());
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&sock);
}

#[cfg(not(unix))]
fn life_concurrent(_bin: &PathBuf, _points: &[PointRequest], _key_ref: &BTreeMap<String, String>) {
    println!("[6/8] concurrent socket clients: skipped (requires Unix sockets)");
}

/// Spawn the server in socket mode (stdin/stdout unused; stderr shows
/// through so drain status records stay visible in CI logs).
#[cfg(unix)]
fn spawn_socket_server(bin: &PathBuf, args: &[String]) -> Child {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot spawn {}: {e}", bin.display())))
}

#[cfg(unix)]
fn wait_for_socket(path: &std::path::Path) {
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(30);
    while std::os::unix::net::UnixStream::connect(path).is_err() {
        if Instant::now() > deadline {
            fail(&format!("server socket never appeared at {}", path.display()));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One socket client: submit `pts` under `batch`, run it, read until
/// the batch-done marker, and return `key -> canonical outcome`. With
/// `strict` off, IO failures (the server being SIGKILLed under us)
/// return whatever was collected so far.
#[cfg(unix)]
fn mc_client(
    sock: &std::path::Path,
    batch: &str,
    pts: &[PointRequest],
    strict: bool,
) -> BTreeMap<String, String> {
    use std::os::unix::net::UnixStream;
    let mut map = BTreeMap::new();
    let stream = match UnixStream::connect(sock) {
        Ok(s) => s,
        Err(e) if !strict => {
            let _ = e;
            return map;
        }
        Err(e) => fail(&format!("client {batch} cannot connect: {e}")),
    };
    let mut out = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut lines: Vec<String> = pts
        .iter()
        .map(|p| {
            let mut q = p.clone();
            q.batch = batch.into();
            q.to_json()
        })
        .collect();
    lines.push(
        ServeRequest::Run { batch: batch.into(), max_attempts: None, deadline_ms: None }.to_json(),
    );
    for l in &lines {
        if let Err(e) = writeln!(out, "{l}") {
            if strict {
                fail(&format!("client {batch} write: {e}"));
            }
            return map;
        }
    }
    let _ = out.flush();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                if strict {
                    fail(&format!("server hung up on client {batch} before batch-done"));
                }
                return map;
            }
            Ok(_) => {}
            Err(e) => {
                if strict {
                    fail(&format!("client {batch} read: {e}"));
                }
                return map;
            }
        }
        match parse_response(line.trim()) {
            Ok(ServeResponse::Result(r)) => {
                map.insert(r.key, r.outcome.canonical());
            }
            Ok(ServeResponse::BatchDone { batch: b, .. }) if b == batch => return map,
            Ok(_) => {}
            Err(e) => {
                if strict {
                    fail(&format!("client {batch} got unparseable line {line:?}: {e}"));
                }
                return map;
            }
        }
    }
}

/// The grid lives 7 and 8 submit as one `sweep` line.
fn replay_sweep(quick: bool) -> SweepRequest {
    SweepRequest {
        batch: "sw".into(),
        net: NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k: 8 })
            .with_seed(0x5EED_0001),
        patterns: vec![PatternKind::Uniform, PatternKind::Transpose],
        loads: vec![0.05, 0.08],
        seeds: if quick { 1 } else { 2 },
        packet_size: 1,
        warmup: if quick { 2_000 } else { 5_000 },
        measure: if quick { 4_000 } else { 10_000 },
        drain_max: 40_000,
        budget: Some(5_000_000),
        allow_degraded: false,
        analytic_admission: false,
        max_attempts: None,
        deadline_ms: None,
    }
}

/// Life 7: one `sweep` line against the real binary must stream byte
/// for byte what its expansion submitted point-by-point streams, plus
/// exactly one `sweep-done` summary.
fn life_sweep(bin: &PathBuf, workers: &[String], quick: bool) {
    println!("[7/8] server-side sweep expansion");
    let sw = replay_sweep(quick);
    let expanded = sw.expand();
    let mut point_lines: Vec<String> = expanded.iter().map(|p| p.to_json()).collect();
    point_lines.push(
        ServeRequest::Run { batch: sw.batch.clone(), max_attempts: None, deadline_ms: None }
            .to_json(),
    );
    let point_raw = run_raw(bin, workers, &point_lines);
    let sweep_raw = run_raw(bin, workers, &[sw.to_json()]);

    let mut summaries = Vec::new();
    let mut rest = Vec::new();
    for l in sweep_raw {
        match parse_response(&l) {
            Ok(ServeResponse::SweepDone { .. }) => summaries.push(l),
            _ => rest.push(l),
        }
    }
    if summaries.len() != 1 {
        fail(&format!("expected exactly one sweep-done record, got {}", summaries.len()));
    }
    let Ok(ServeResponse::SweepDone { expanded: n, ok, .. }) = parse_response(&summaries[0]) else {
        unreachable!()
    };
    if n != expanded.len() as u64 || ok != n {
        fail(&format!(
            "sweep summary wrong: expanded {n}, ok {ok} (want {} each): {}",
            expanded.len(),
            summaries[0]
        ));
    }
    if rest != point_raw {
        for (i, (a, b)) in rest.iter().zip(&point_raw).enumerate() {
            if a != b {
                fail(&format!(
                    "sweep stream diverges from point-by-point at line {i}\n  sweep: {a}\n  points: {b}"
                ));
            }
        }
        fail(&format!(
            "sweep stream has {} lines, point-by-point has {}",
            rest.len(),
            point_raw.len()
        ));
    }
    println!(
        "  sweep of {} points byte-identical to individual submission, summary verified",
        expanded.len()
    );
}

/// Life 8: a client that stops reading. It asks for an already
/// answered sweep until its receive buffer is full and the server's
/// write to it blocks; a second client must still be answered, byte for
/// byte what the first pass answered, and `SIGTERM` must exit 0 within
/// the write-stall bound (5 s) instead of waiting on the stalled
/// connection forever.
#[cfg(unix)]
fn life_stalled_reader(bin: &PathBuf, quick: bool) {
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};
    println!("[8/8] stalled reader: served around, dropped, SIGTERM exits");
    let sock = std::env::temp_dir().join(format!("serve_replay_stall_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let args: Vec<String> = ["--socket", &sock.display().to_string(), "--workers", "2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut child = spawn_socket_server(bin, &args);
    wait_for_socket(&sock);
    let line = replay_sweep(quick).to_json();
    // one sweep on a fresh connection: `(key, canonical outcome)` per result
    let answered = |who: &str| -> Vec<(String, String)> {
        let stream = UnixStream::connect(&sock)
            .unwrap_or_else(|e| fail(&format!("{who} client cannot connect: {e}")));
        let mut out = stream.try_clone().expect("clone stream");
        writeln!(out, "{line}").unwrap_or_else(|e| fail(&format!("{who} client write: {e}")));
        let mut results = Vec::new();
        for l in BufReader::new(stream).lines() {
            let l = l.unwrap_or_else(|e| fail(&format!("{who} client read: {e}")));
            match parse_response(&l) {
                Ok(ServeResponse::Result(r)) => results.push((r.key, r.outcome.canonical())),
                Ok(ServeResponse::SweepDone { .. }) => return results,
                Ok(_) => {}
                Err(e) => fail(&format!("{who} client got unparseable line {l:?}: {e}")),
            }
        }
        fail(&format!("server hung up on the {who} client before sweep-done"))
    };
    let first = answered("first");
    if first.is_empty() || first.iter().any(|(_, o)| !o.contains("\"outcome\": \"ok\"")) {
        fail(&format!("first pass of the sweep was not all ok: {first:?}"));
    }

    let mut staller = UnixStream::connect(&sock)
        .unwrap_or_else(|e| fail(&format!("staller cannot connect: {e}")));
    staller.set_write_timeout(Some(Duration::from_millis(200))).expect("write timeout");
    let request = format!("{line}\n");
    let mut sent = 0;
    // ends when the server, blocked writing to us, has stopped reading
    while sent < 1_000_000 && staller.write_all(request.as_bytes()).is_ok() {
        sent += 1;
    }
    if sent == 1_000_000 {
        fail("the stalled connection never pushed back");
    }
    println!("  staller queued {sent} cached sweeps and reads none of them");

    if answered("second") != first {
        fail("the second client's answers differ from the first pass");
    }
    println!("  second client answered {} points bit-identically meanwhile", first.len());

    let t = Instant::now();
    sigterm(&child);
    let status = loop {
        match child.try_wait().expect("exit status") {
            Some(status) => break status,
            None if t.elapsed() > Duration::from_secs(8) => {
                let _ = child.kill();
                fail("server still running 8 s after SIGTERM: wedged on the stalled client");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if !status.success() {
        fail(&format!("socket server exit status {status} (want 0)"));
    }
    println!("  SIGTERM -> exit 0 after {:.1} s", t.elapsed().as_secs_f64());
    drop(staller);
    let _ = std::fs::remove_file(&sock);
}

#[cfg(not(unix))]
fn life_stalled_reader(_bin: &PathBuf, _quick: bool) {
    println!("[8/8] stalled reader: skipped (requires Unix sockets)");
}
