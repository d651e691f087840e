//! `serve-fleet`, `serve-cached`, `serve-admission`: the real
//! `noc-serve` binary, driven over its Unix socket by closed-loop
//! clients (a client sends its next sweep only after `sweep-done`).
//!
//! An operation is one result line (one point); an operation's latency
//! is its sweep's: line written to `sweep-done` read. The timed loops
//! only look at each response line's kind and keep the raw bytes; every
//! byte is verified after the clock stops, so the generator does not
//! compete with the server for the host's two cores.
//!
//! Everything a run creates lives in its own directory under
//! `benchmark/out/` and is removed on every exit path; the server is a
//! child that is reaped on every exit path, a panicking client thread
//! included.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use noc_analytic::AnalyticModel;
use noc_eval::serve::{
    parse_response, HealthSnapshot, PointRequest, ServeOutcome, ServeRequest, ServeResponse,
    SweepRequest, SERVE_SCHEMA,
};
use noc_exp::derive_seed;
use noc_openloop::measure_budgeted;
use noc_sim::config::NetConfig;
use noc_traffic::{PatternKind, SizeKind};

use crate::layers;
use crate::report::{peak_rss_mb, BenchError, Report};
use crate::stats::{median, percentile, sorted, steady_rate, Digest};
use crate::trace::Tracer;

/// How long the server may take to bind its socket.
const SOCKET_WAIT: Duration = Duration::from_secs(5);
/// How long any single response line, or the server's exit, may take.
const RESPONSE_WAIT: Duration = Duration::from_secs(60);
/// The server's own default cycle budget (`ServeConfig::default`).
const DEFAULT_BUDGET: u64 = 50_000_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// `serve-fleet`: every sweep is new, every point is simulated.
    Cold,
    /// `serve-cached`: every sweep was answered before.
    Cached,
    /// `serve-admission`: the cached replay with `analytic_admission`
    /// on and two rungs past saturation.
    Admission,
}

pub struct ServeSpec {
    pub phase: Phase,
    pub warmup: u64,
    pub measure: u64,
    /// Cold: sweeps in the fixed part. Replay: lines each client owns.
    pub fixed_sweeps: usize,
    pub clients: usize,
    /// Server starts timed for `setup_s` (the median is reported).
    pub setups: usize,
    /// Served points compared byte for byte with a direct evaluation.
    pub direct_checks: usize,
}

/// Seven cheap rungs and one near-saturation straggler per sweep.
pub const LOADS: [f64; 8] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.34, 0.38];
/// Past the 8x8 mesh's effective saturation: answered `degraded` when
/// the sweep opts into analytic admission.
pub const ADMISSION_LOADS: [f64; 2] = [0.42, 0.46];

pub fn spec(phase: Phase, smoke: bool) -> ServeSpec {
    let cold = phase == Phase::Cold;
    let (warmup, measure) = match (cold, smoke) {
        (true, false) => (150, 700),
        // replayed sweeps cost the same whatever they once simulated
        (false, false) => (100, 400),
        (_, true) => (50, 150),
    };
    ServeSpec {
        phase,
        warmup,
        measure,
        fixed_sweeps: match (cold, smoke) {
            (true, false) => 16,
            (false, false) => 12,
            (_, true) => 3,
        },
        clients: if cold { 1 } else { 2 },
        setups: if smoke { 2 } else { 5 },
        direct_checks: if smoke { 8 } else { 24 },
    }
}

/// Sweep `index` of a run: the baseline 8x8 mesh over [`LOADS`], base
/// seed `derive_seed(seed, index)` (the service derives each point's
/// seed from it), batch label `s<index>`.
pub fn sweep(spec: &ServeSpec, seed: u64, index: u64, admission: bool) -> SweepRequest {
    let mut loads = LOADS.to_vec();
    if admission {
        loads.extend(ADMISSION_LOADS);
    }
    SweepRequest {
        batch: format!("s{index}"),
        net: NetConfig::baseline().with_seed(derive_seed(seed, index)),
        patterns: vec![PatternKind::Uniform],
        loads,
        seeds: 1,
        packet_size: 1,
        warmup: spec.warmup,
        measure: spec.measure,
        drain_max: 20_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: admission,
        max_attempts: None,
        deadline_ms: None,
    }
}

/// A run's private directory under `benchmark/out/`, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Result<Self, BenchError> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(crate::OUT_DIR).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `noc-serve` binary under test: `NOC_SERVE_BIN`, else the file
/// next to this executable (one target directory holds both).
fn server_binary() -> Result<PathBuf, BenchError> {
    let path = match std::env::var_os("NOC_SERVE_BIN") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()?.with_file_name("noc-serve"),
    };
    // absolute, because the child runs in its scratch directory
    path.canonicalize().map_err(|_| BenchError::BinaryMissing(path))
}

/// One life of the server process. Dropping it kills and reaps the
/// child, so no exit path — error return or panic — leaves one behind.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Start the server in `dir` (socket, WAL and stderr log live
    /// there; relative names keep the socket path short) and wait until
    /// it has answered one `health` request. Returns the seconds from
    /// spawn to that answer.
    fn start(dir: &Path) -> Result<(Server, f64), BenchError> {
        let bin = server_binary()?;
        let log =
            std::fs::OpenOptions::new().create(true).append(true).open(dir.join("stderr.log"))?;
        let t = Instant::now();
        let child = Command::new(bin)
            .current_dir(dir)
            .args(["--socket", "s.sock", "--wal", "serve.wal"])
            .args(["--workers", "2", "--queue", "4096", "--max-clients", "4"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut server = Server { child, socket: dir.join("s.sock") };
        let mut client = loop {
            match UnixStream::connect(&server.socket) {
                Ok(stream) => break Client::new(stream)?,
                Err(_) if t.elapsed() < SOCKET_WAIT => {
                    if let Some(status) = server.child.try_wait()? {
                        return Err(BenchError::ServerExit(format!(
                            "exited at start-up: {status}"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => {
                    return Err(BenchError::SocketTimeout {
                        socket: server.socket.clone(),
                        waited_ms: SOCKET_WAIT.as_millis() as u64,
                    })
                }
            }
        };
        client.health()?;
        Ok((server, t.elapsed().as_secs_f64()))
    }

    fn connect(&self) -> Result<Client, BenchError> {
        Client::new(UnixStream::connect(&self.socket)?)
    }

    /// `SIGTERM`, then wait for the graceful drain; anything but exit
    /// code 0 is an error.
    fn terminate(mut self) -> Result<(), BenchError> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: plain FFI call with integer arguments; the pid is our
        // own child, which `self` has not reaped yet, so it cannot have
        // been recycled.
        if unsafe { kill(self.child.id() as i32, SIGTERM) } != 0 {
            return Err(BenchError::ServerExit("could not be sent SIGTERM".into()));
        }
        let t = Instant::now();
        loop {
            match self.child.try_wait()? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    return Err(BenchError::ServerExit(format!("drain ended with {status}")))
                }
                None if t.elapsed() > RESPONSE_WAIT => {
                    return Err(BenchError::ServerExit("still running 60 s after SIGTERM".into()))
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // no-ops on a child that `terminate` already reaped
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Kind of one response line, read off its fixed prefix.
#[derive(PartialEq, Eq, Debug)]
enum Kind {
    Result,
    SweepDone,
    Other,
}

fn response_prefix() -> String {
    format!("{{\"schema\": \"{SERVE_SCHEMA}\", \"resp\": \"")
}

fn kind_of(line: &[u8], prefix: &[u8]) -> Option<Kind> {
    let rest = line.strip_prefix(prefix)?;
    Some(if rest.starts_with(b"result\"") {
        Kind::Result
    } else if rest.starts_with(b"sweep-done\"") {
        Kind::SweepDone
    } else {
        Kind::Other
    })
}

/// One closed-loop connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    prefix: Vec<u8>,
}

impl Client {
    fn new(stream: UnixStream) -> Result<Self, BenchError> {
        // a server that stops answering becomes an error, not a hang
        stream.set_read_timeout(Some(RESPONSE_WAIT))?;
        stream.set_write_timeout(Some(RESPONSE_WAIT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream, prefix: response_prefix().into_bytes() })
    }

    fn health(&mut self) -> Result<HealthSnapshot, BenchError> {
        writeln!(self.writer, "{}", ServeRequest::Health.to_json())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        match parse_response(line.trim()) {
            Ok(ServeResponse::Health(h)) => Ok(h),
            other => Err(BenchError::Protocol(format!("health answered {other:?} ({line:?})"))),
        }
    }

    /// Send one sweep line and append the raw response to `raw` up to
    /// and including its `sweep-done` line. Returns the latency and the
    /// number of result lines.
    fn sweep(&mut self, line: &str, raw: &mut Vec<u8>) -> Result<(Duration, u64), BenchError> {
        let t = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut results = 0;
        loop {
            let start = raw.len();
            if self.reader.read_until(b'\n', raw)? == 0 {
                return Err(BenchError::Protocol("server closed the connection mid-sweep".into()));
            }
            match kind_of(&raw[start..], &self.prefix) {
                Some(Kind::Result) => results += 1,
                Some(Kind::SweepDone) => return Ok((t.elapsed(), results)),
                Some(Kind::Other) => {}
                None => {
                    let text = String::from_utf8_lossy(&raw[start..]).into_owned();
                    return Err(BenchError::Protocol(format!(
                        "unrecognized response line {text:?}"
                    )));
                }
            }
        }
    }
}

/// One verified result line: its sequence number within its batch
/// label, whether it was answered from the cache, and its canonical
/// outcome fragment (the bytes the service journals).
struct Answer {
    point: u64,
    cached: bool,
    fragment: String,
}

/// Split a raw response stream into its result lines, in order.
fn answers(raw: &[u8]) -> Result<Vec<Answer>, String> {
    let text = std::str::from_utf8(raw).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"resp\": \"result\"")) {
        let at = line.find("\"outcome\": ").ok_or_else(|| format!("no outcome in {line:?}"))?;
        let fragment = line[at..].trim_end_matches('}').to_string();
        // the fragment must be exactly what the schema would emit
        let parsed = ServeOutcome::parse(line)?;
        if parsed.canonical() != fragment {
            return Err(format!("outcome fragment is not canonical: {line:?}"));
        }
        let point = line
            .split_once("\"point\": ")
            .and_then(|(_, rest)| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("no point number in {line:?}"))?;
        out.push(Answer { point, cached: line.contains("\"cached\": true"), fragment });
    }
    Ok(out)
}

/// The bytes a direct evaluation of `p` gives for its outcome.
fn direct_fragment(p: &PointRequest) -> Result<String, String> {
    match measure_budgeted(&p.open_loop(), DEFAULT_BUDGET) {
        Ok(Ok(r)) => Ok(ServeOutcome::Ok {
            avg_latency: r.avg_latency,
            throughput: r.throughput,
            stable: r.stable,
            measured: r.measured_packets,
            cycles: r.cycles,
        }
        .canonical()),
        other => Err(format!("direct evaluation of load {} gave {other:?}", p.load)),
    }
}

/// The bytes analytic admission answers for a point past saturation.
fn degraded_fragment(p: &PointRequest) -> Result<String, String> {
    let m = AnalyticModel::of(&p.net, p.pattern, SizeKind::Fixed(1)).map_err(|e| e.to_string())?;
    if p.load < m.effective_saturation {
        return Err(format!("load {} is below the model's saturation", p.load));
    }
    Ok(ServeOutcome::Degraded {
        predicted_latency: m.latency_at(p.load),
        predicted_saturation: m.effective_saturation,
        stable: false,
    }
    .canonical())
}

/// Median spawn-to-first-health over `setups` fresh servers; the last
/// one, still running, is the one the run measures.
fn set_up(spec: &ServeSpec) -> Result<(Scratch, Server, f64), BenchError> {
    let mut ready_s = Vec::new();
    loop {
        let scratch = Scratch::new("serve")?;
        let (server, ready) = Server::start(&scratch.0)?;
        ready_s.push(ready);
        if ready_s.len() == spec.setups {
            return Ok((scratch, server, median(&ready_s)));
        }
        server.terminate()?;
    }
}

fn no_robustness_events(report: &mut Report, h: &HealthSnapshot) {
    report.check(h.shed + h.timeouts + h.panics + h.retries + h.busy == 0, || {
        format!(
            "health: shed {} timeouts {} panics {} retries {} busy {}",
            h.shed, h.timeouts, h.panics, h.retries, h.busy
        )
    });
}

/// What the timed phase of any of the three workloads produced.
struct Timed {
    digest: Digest,
    ops: u64,
    /// Result lines per second, summed over the clients' lanes.
    ops_per_s: f64,
    latencies_ms: Vec<f64>,
    rss_mb: f64,
    health: HealthSnapshot,
}

pub fn run(
    phase: Phase,
    smoke: bool,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Report, BenchError> {
    let spec = spec(phase, smoke);
    let mut report = Report::default();
    // the traced run spends half its time on the binary and the rest on
    // the in-process service and the direct layer calls
    let binary_seconds = if tracer.is_some() { seconds / 2.0 } else { seconds };
    // declared before the server so it is dropped after it
    let (scratch, server, setup_s) = set_up(&spec)?;
    let timed = match phase {
        Phase::Cold => {
            cold(&spec, seed, binary_seconds, &scratch, server, &mut report, tracer.as_deref_mut())?
        }
        _ => replay(&spec, seed, binary_seconds, server, &mut report, tracer.as_deref_mut())?,
    };
    report.attempted = timed.ops;
    report.digest(timed.digest);
    no_robustness_events(&mut report, &timed.health);

    let lat_us = sorted(timed.latencies_ms.iter().map(|ms| ms * 1e3).collect());
    report.rate_and_latency(timed.ops_per_s, timed.latencies_ms, tracer.is_some());
    let Some(tracer) = tracer else {
        report.metric("setup_s", setup_s);
        report.metric("peak_rss_mb", timed.rss_mb);
        return Ok(report);
    };
    report.metric("trace.spans", tracer.spans().len() as f64);
    report.metric("noc-serve.binary_sweep_p50_us", percentile(&lat_us, 50.0));
    report.metric("noc-serve.binary_sweep_p90_us", percentile(&lat_us, 90.0));
    report.metric("noc-serve.completed", timed.health.completed as f64);
    report.metric("noc-serve.cache_hits", timed.health.cache_hits as f64);
    report.metric("noc-serve.degraded", timed.health.degraded as f64);
    report.metric("noc-serve.wal_records", timed.health.wal_records as f64);
    layers::serve_layers(
        &spec,
        seed,
        seconds - binary_seconds,
        percentile(&lat_us, 50.0),
        &mut report,
    )?;
    Ok(report)
}

/// `serve-fleet`: one client, distinct sweeps until the clock runs out,
/// then the checks, `SIGTERM`, and a resume on the same WAL.
fn cold(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    server: Server,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<Timed, BenchError> {
    let mut digest = Digest::default();
    let mut client = server.connect()?;
    let mut raw = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut ops = 0;
    let clock = Instant::now();
    while latencies_ms.len() < spec.fixed_sweeps || clock.elapsed().as_secs_f64() < seconds {
        let index = latencies_ms.len() as u64;
        let line = sweep(spec, seed, index, false).to_json();
        let span = tracer.as_deref_mut().map(|t| t.open("client.sweep", None, index));
        let (latency, results) = client.sweep(&line, &mut raw)?;
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
        report.check(results == LOADS.len() as u64, || format!("sweep {index}: {results} results"));
        latencies_ms.push(latency.as_secs_f64() * 1e3);
        ops += results;
    }
    let sweep_s: Vec<f64> = latencies_ms.iter().map(|ms| ms / 1e3).collect();
    let ops_per_s = steady_rate(&sweep_s, LOADS.len() as f64);
    let rss_mb = peak_rss_mb(server.child.id())?;
    let health = client.health()?;
    report.check(
        health.completed == ops && health.wal_records == ops && health.cache_hits == 0,
        || format!("health after {ops} cold points: {health:?}"),
    );

    // every outcome simulated and `ok`; the fixed part feeds the digest
    let served = answers(&raw).map_err(BenchError::Protocol)?;
    let fixed = spec.fixed_sweeps * LOADS.len();
    let bad = served
        .iter()
        .filter(|a| a.cached || !a.fragment.starts_with("\"outcome\": \"ok\""))
        .count();
    if bad > 0 {
        report.fail(bad as u64, format!("{bad} cold results were cached or not ok"));
    }
    served.iter().take(fixed).for_each(|a| digest.bytes(a.fragment.as_bytes()));

    // some of them byte-equal to a direct evaluation
    let points: Vec<PointRequest> =
        (0..spec.fixed_sweeps as u64).flat_map(|i| sweep(spec, seed, i, false).expand()).collect();
    for (p, a) in points.iter().zip(&served).take(spec.direct_checks) {
        match direct_fragment(p) {
            Ok(direct) => report.check(direct == a.fragment, || {
                format!("served {:?} != direct {direct:?}", a.fragment)
            }),
            Err(why) => report.fail(1, why),
        }
    }

    // SIGTERM drains and exits 0; a restart on the same WAL answers the
    // fixed part from the journal, byte for byte
    drop(client);
    server.terminate()?;
    let (resumed, ready_s) = Server::start(&scratch.0)?;
    report.info.push(("resume_ready_ms", format!("{:.3}", ready_s * 1e3)));
    if tracer.is_some() {
        report.metric("noc-serve.resume_ready_ms", ready_s * 1e3);
    }
    let mut client = resumed.connect()?;
    let mut replayed = Vec::new();
    for i in 0..spec.fixed_sweeps as u64 {
        client.sweep(&sweep(spec, seed, i, false).to_json(), &mut replayed)?;
    }
    let replayed = answers(&replayed).map_err(BenchError::Protocol)?;
    let same = replayed.len() == fixed
        && replayed.iter().zip(&served).all(|(r, s)| r.cached && r.fragment == s.fragment);
    report.check(same, || "resume: replayed fixed part differs from the cold answers".into());
    let after = client.health()?;
    report.check(after.cache_hits == fixed as u64 && after.wal_records >= ops, || {
        format!("health after resume: {after:?}")
    });
    no_robustness_events(report, &after);
    drop(client);
    resumed.terminate()?;
    Ok(Timed { digest, ops, ops_per_s, latencies_ms, rss_mb, health })
}

/// What each of a client's lines must answer on every replay, rung by
/// rung: its first pass's fragments and — under admission — the bytes
/// the model gives for the two rungs past saturation.
fn expected_answers(
    spec: &ServeSpec,
    seed: u64,
    client: usize,
    first: &[Answer],
) -> Result<Vec<Vec<String>>, String> {
    let mut expected: Vec<Vec<String>> = first
        .chunks(LOADS.len())
        .map(|line| line.iter().map(|a| a.fragment.clone()).collect())
        .collect();
    if spec.phase == Phase::Admission {
        for (i, want) in expected.iter_mut().enumerate() {
            let points = sweep(spec, seed, (client * spec.fixed_sweeps + i) as u64, true).expand();
            for p in &points[LOADS.len()..] {
                want.push(degraded_fragment(p)?);
            }
        }
    }
    Ok(expected)
}

/// `serve-cached` / `serve-admission`: each client first has its own
/// lines answered once (untimed), then replays them in a closed loop
/// until the clock runs out.
fn replay(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    server: Server,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<Timed, BenchError> {
    let admission = spec.phase == Phase::Admission;
    let lines_of = |client: usize, admission: bool| -> Vec<String> {
        (0..spec.fixed_sweeps)
            .map(|i| {
                sweep(spec, seed, (client * spec.fixed_sweeps + i) as u64, admission).to_json()
            })
            .collect()
    };
    let origin = Instant::now();
    let barrier = Barrier::new(spec.clients);
    // per client: its first pass, its raw replay bytes, and each replayed
    // sweep's (start since `origin`, latency)
    type Lane = (Vec<Answer>, Vec<u8>, Vec<(Duration, Duration)>);
    let lanes: Vec<Result<Lane, BenchError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let (server, barrier, lines_of) = (&server, &barrier, &lines_of);
                s.spawn(move || -> Result<Lane, BenchError> {
                    // first pass: simulate and journal this client's points
                    let opened = server.connect().and_then(|mut client| {
                        let mut first = Vec::new();
                        for line in lines_of(c, false) {
                            client.sweep(&line, &mut first)?;
                        }
                        Ok((client, first))
                    });
                    // every thread reaches the barrier, failed or not
                    barrier.wait();
                    let (mut client, first) = opened?;
                    let lines = lines_of(c, admission);
                    let mut raw = Vec::new();
                    let mut sweeps = Vec::new();
                    let clock = Instant::now();
                    let mut next = 0;
                    while next < lines.len() || clock.elapsed().as_secs_f64() < seconds {
                        let started = origin.elapsed();
                        let (latency, _) = client.sweep(&lines[next % lines.len()], &mut raw)?;
                        sweeps.push((started, latency));
                        next += 1;
                    }
                    let first = answers(&first).map_err(BenchError::Protocol)?;
                    Ok((first, raw, sweeps))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let rss_mb = peak_rss_mb(server.child.id())?;
    let health = server.connect()?.health()?;

    let per_sweep = LOADS.len() + if admission { ADMISSION_LOADS.len() } else { 0 };
    let mut timed = Timed {
        digest: Digest::default(),
        ops: 0,
        ops_per_s: 0.0,
        latencies_ms: Vec::new(),
        rss_mb,
        health,
    };
    let mut degraded = 0u64;
    for (c, lane) in lanes.into_iter().enumerate() {
        let (first, raw, sweeps) = lane?;
        let sweep_s: Vec<f64> = sweeps.iter().map(|(_, latency)| latency.as_secs_f64()).collect();
        timed.ops_per_s += steady_rate(&sweep_s, per_sweep as f64);
        for (i, (started, latency)) in sweeps.iter().enumerate() {
            timed.latencies_ms.push(latency.as_secs_f64() * 1e3);
            if let Some(t) = tracer.as_deref_mut() {
                let start = t.at(origin + *started);
                t.add(
                    "client.sweep",
                    None,
                    (c * 1_000_000 + i) as u64,
                    start,
                    start + latency.as_nanos() as u64,
                    1,
                );
            }
        }
        let simulated_ok = |a: &Answer| !a.cached && a.fragment.starts_with("\"outcome\": \"ok\"");
        if first.len() != spec.fixed_sweeps * LOADS.len() || !first.iter().all(simulated_ok) {
            report.fail(1, format!("client {c}: first pass was not all simulated ok points"));
            continue;
        }
        let expected = expected_answers(spec, seed, c, &first).map_err(BenchError::Protocol)?;
        expected.iter().flatten().for_each(|f| timed.digest.bytes(f.as_bytes()));
        let served = answers(&raw).map_err(BenchError::Protocol)?;
        timed.ops += served.len() as u64;
        report.check(served.len() == sweeps.len() * per_sweep, || {
            format!("client {c}: {} results for {} sweeps", served.len(), sweeps.len())
        });
        let mut bad = 0u64;
        for (n, a) in served.iter().enumerate() {
            // a label's sequence numbers run on from its first pass, and
            // admission answers its rungs before the batch is evaluated,
            // so the rung comes from the number, not the position
            let line = (n / per_sweep) % spec.fixed_sweeps;
            let rung = (a.point as usize).wrapping_sub(LOADS.len()) % per_sweep;
            let simulated = rung < LOADS.len();
            degraded += !simulated as u64;
            bad += (a.fragment != expected[line][rung] || a.cached != simulated) as u64;
        }
        if bad > 0 {
            report.fail(
                bad,
                format!("client {c}: {bad} replayed results differ from their first answer"),
            );
        }
    }
    let first_pass = (spec.clients * spec.fixed_sweeps * LOADS.len()) as u64;
    let h = &timed.health;
    report.check(
        h.cache_hits == timed.ops - degraded
            && h.degraded == degraded
            && h.completed == timed.ops + first_pass
            && h.wal_records == first_pass,
        || format!("health after {} replayed points ({degraded} degraded): {h:?}", timed.ops),
    );
    server.terminate()?;
    Ok(timed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_are_a_function_of_the_seed() {
        let spec = spec(Phase::Admission, false);
        let lines = |seed| -> Vec<String> {
            (0..24).map(|i| sweep(&spec, seed, i, true).to_json()).collect()
        };
        assert_eq!(lines(4), lines(4), "same seed, same bytes");
        assert_ne!(lines(4), lines(5));
        let mut distinct = lines(4);
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 24, "every line of a run is its own sweep");
        // the line is what the service parses back
        let sw = sweep(&spec, 4, 3, true);
        match noc_eval::serve::parse_request(&sw.to_json()).unwrap() {
            ServeRequest::Sweep(parsed) => {
                assert_eq!(parsed.net.seed, derive_seed(4, 3));
                assert_eq!(parsed.loads.len(), 10);
                assert!(parsed.analytic_admission);
                assert_eq!(parsed.expand()[9].key(), sw.expand()[9].key());
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn admission_rungs_are_past_saturation_and_the_ladder_is_not() {
        let spec = spec(Phase::Admission, false);
        let points = sweep(&spec, 1, 0, true).expand();
        let m =
            AnalyticModel::of(&points[0].net, PatternKind::Uniform, SizeKind::Fixed(1)).unwrap();
        assert!(LOADS.iter().all(|&l| l < m.effective_saturation), "{}", m.effective_saturation);
        for p in &points[LOADS.len()..] {
            assert!(degraded_fragment(p).unwrap().contains("\"degraded\": true"));
        }
        assert!(degraded_fragment(&points[0]).is_err());
    }

    #[test]
    fn response_lines_are_classified_by_their_prefix() {
        let prefix = response_prefix().into_bytes();
        let done = ServeResponse::SweepDone {
            batch: "s1".into(),
            expanded: 8,
            ok: 8,
            degraded: 0,
            shed: 0,
            invalid: 0,
            timeout: 0,
        };
        assert_eq!(kind_of(done.to_json().as_bytes(), &prefix), Some(Kind::SweepDone));
        let batch = ServeResponse::BatchDone { batch: "s1".into(), points: 8, ok: 8 };
        assert_eq!(kind_of(batch.to_json().as_bytes(), &prefix), Some(Kind::Other));
        let result = ServeResponse::Result(noc_eval::serve::ServeResult {
            batch: "s1".into(),
            point: 3,
            key: "k".into(),
            cached: true,
            attempts: 0,
            outcome: ServeOutcome::Timeout { budget: 9, wall: false },
        });
        let line = result.to_json();
        assert_eq!(kind_of(line.as_bytes(), &prefix), Some(Kind::Result));
        assert_eq!(kind_of(b"garbage", &prefix), None);
        let parsed = answers(format!("{line}\n{}\n", done.to_json()).as_bytes()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(parsed[0].cached && parsed[0].point == 3);
        assert_eq!(parsed[0].fragment, "\"outcome\": \"timeout\", \"budget\": 9, \"wall\": false");
    }

    #[test]
    fn a_missing_binary_or_socket_is_a_typed_error() {
        // tests run in the package directory, not the repository root
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let scratch = Scratch(dir.join(format!("test-{}", std::process::id())));
        std::fs::create_dir_all(&scratch.0).unwrap();
        std::env::set_var("NOC_SERVE_BIN", "/nonexistent/noc-serve");
        let err = Server::start(&scratch.0).err().expect("no such binary");
        assert!(matches!(err, BenchError::BinaryMissing(_)), "{err}");
        // a program that never binds the socket: typed, not a hang
        std::env::set_var("NOC_SERVE_BIN", "/bin/sleep");
        let err = Server::start(&scratch.0).err().expect("sleep is not a server");
        assert!(
            matches!(err, BenchError::ServerExit(_) | BenchError::SocketTimeout { .. }),
            "{err}"
        );
        std::env::remove_var("NOC_SERVE_BIN");
        let dir = scratch.0.clone();
        drop(scratch);
        assert!(!dir.exists(), "scratch directory is removed on drop");
    }
}
