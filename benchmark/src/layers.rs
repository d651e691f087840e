//! Per-layer costs behind the serve workloads, measured from outside:
//! an in-process `noc_serve::Service` writing to a `Vec<u8>`, and
//! direct calls into `noc-eval`'s schema, `noc-exp`'s WAL and
//! `noc-analytic`'s model on the workload's own lines and points.

use std::hint::black_box;
use std::time::Instant;

use noc_analytic::AnalyticModel;
use noc_eval::serve::{
    parse_request, PointRequest, ServeOutcome, ServeRequest, ServeResponse, ServeResult,
};
use noc_exp::Wal;
use noc_openloop::measure_budgeted;
use noc_serve::{ServeConfig, Service};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_traffic::{PatternKind, SizeKind};

use crate::report::{BenchError, Report};
use crate::stats::median;
use crate::workloads::serve::{sweep, Phase, Scratch, ServeSpec, LOADS};

/// Median microseconds of one `f()` call, timed in groups of `group`
/// calls (single calls are below the clock's resolution).
fn median_us<T>(groups: usize, group: usize, mut f: impl FnMut() -> T) -> f64 {
    let per_call: Vec<f64> = (0..groups)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..group {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / 1e3 / group as f64
        })
        .collect();
    median(&per_call)
}

/// A typical simulated outcome, for the calls that only format, parse
/// or journal one.
fn sample_outcome() -> ServeOutcome {
    ServeOutcome::Ok {
        avg_latency: 17.208_333_333_333_332,
        throughput: 0.249_843_75,
        stable: true,
        measured: 15_990,
        cycles: 1_287,
    }
}

/// `noc-eval` serve-schema costs on this workload's own lines. Returns
/// the schema's share of one cached sweep (parse, expand, then key and
/// emit per point), in microseconds.
fn schema_costs(lines: &[String], report: &mut Report) -> f64 {
    let mut next = 0usize;
    let mut line = || {
        next += 1;
        &lines[next % lines.len()]
    };
    let parse = median_us(50, 20, || parse_request(line()));
    let sweeps: Vec<_> = lines
        .iter()
        .filter_map(|l| match parse_request(l) {
            Ok(ServeRequest::Sweep(s)) => Some(s),
            _ => None,
        })
        .collect();
    let mut i = 0usize;
    let expand = median_us(50, 20, || {
        i += 1;
        sweeps[i % sweeps.len()].expand()
    });
    let points: Vec<PointRequest> = sweeps.iter().flat_map(|s| s.expand()).collect();
    let key = median_us(50, 100, || {
        i += 1;
        points[i % points.len()].key()
    });
    let outcome = sample_outcome();
    let result = ServeResponse::Result(ServeResult {
        batch: "s17".into(),
        point: 3,
        key: points[0].key(),
        cached: true,
        attempts: 0,
        outcome: outcome.clone(),
    });
    let emit = median_us(50, 100, || result.to_json());
    let canonical = median_us(50, 100, || outcome.canonical());
    let fragment = outcome.canonical();
    let outcome_parse = median_us(50, 100, || ServeOutcome::parse(&fragment));
    report.metric("noc-eval.parse_request_us", parse);
    report.metric("noc-eval.expand_us", expand);
    report.metric("noc-eval.key_us", key);
    report.metric("noc-eval.emit_result_us", emit);
    report.metric("noc-eval.outcome_canonical_us", canonical);
    report.metric("noc-eval.outcome_parse_us", outcome_parse);
    let per_sweep = points.len() as f64 / sweeps.len() as f64;
    parse + expand + per_sweep * (key + emit)
}

/// `noc-exp` WAL costs in `dir`: append, commit (one fsync per 8
/// appends, as one served sweep pays), replay of 10 000 records.
fn wal_costs(dir: &Scratch, point: &PointRequest, report: &mut Report) -> Result<(), BenchError> {
    let payload = sample_outcome().canonical();
    let key = point.key();
    let path = dir.0.join("micro.wal");
    let (wal, _) = Wal::open(&path)?;
    let (mut append_us, mut commit_us) = (Vec::new(), Vec::new());
    for _ in 0..64 {
        for _ in 0..LOADS.len() {
            let t = Instant::now();
            wal.append(&key, &payload)?;
            append_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        let t = Instant::now();
        wal.commit()?;
        commit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    report.metric("noc-exp.wal_append_us", median(&append_us));
    report.metric("noc-exp.wal_commit_us", median(&commit_us));
    report.metric("noc-exp.wal_bytes_per_record", wal.size_bytes() as f64 / wal.records() as f64);
    for _ in wal.records()..10_000 {
        wal.append(&key, &payload)?;
    }
    wal.commit()?;
    drop(wal);
    let replay_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let opened = Wal::open(&path).map(|(_, replay)| replay.records.len());
            (opened, t.elapsed().as_secs_f64() * 1e3)
        })
        .map(|(opened, ms)| opened.map(|n| (n == 10_000).then_some(ms)))
        .collect::<Result<Option<Vec<f64>>, _>>()?
        .ok_or_else(|| BenchError::Protocol("WAL replay lost records".into()))?;
    report.metric("noc-exp.wal_replay_ms", median(&replay_ms));
    Ok(())
}

/// `noc-analytic` host costs: building the model (what analytic
/// admission pays per point) and one latency query.
fn analytic_costs(report: &mut Report) -> Result<(), BenchError> {
    let of = |k: usize| {
        let net = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k });
        AnalyticModel::of(&net, PatternKind::Uniform, SizeKind::Fixed(1))
    };
    let model = of(8)?;
    report.metric("noc-analytic.model_of_us.mesh8", median_us(15, 1, || of(8)));
    report.metric("noc-analytic.model_of_us.mesh16", median_us(3, 1, || of(16)));
    let mut load = 0.05;
    let query = median_us(50, 20, || {
        load = if load > 0.3 { 0.05 } else { load + 0.01 };
        model.latency_at(load)
    });
    report.metric("noc-analytic.latency_at_ns", query * 1e3);
    Ok(())
}

fn service(dir: &Scratch, wal: &str) -> Result<Service, BenchError> {
    Ok(Service::new(ServeConfig {
        workers: 2,
        queue_capacity: 4096,
        wal: Some(dir.0.join(wal)),
        ..ServeConfig::default()
    })?)
}

/// One sweep through `Service::handle_line`, in milliseconds.
fn handle(svc: &Service, line: &str, sink: &mut Vec<u8>) -> Result<f64, BenchError> {
    sink.clear();
    let t = Instant::now();
    svc.handle_line(line, sink)?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// The traced run's second half: the same sweeps through an in-process
/// service for about `seconds`, then the direct layer calls.
/// `binary_p50_us` is the sweep latency the real binary just showed.
pub fn serve_layers(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    binary_p50_us: f64,
    report: &mut Report,
) -> Result<(), BenchError> {
    let dir = Scratch::new("layers")?;
    let svc = service(&dir, "inproc.wal")?;
    // indices past anything the binary phase used: fresh seeds
    let fresh = |i: usize, admission: bool| sweep(spec, seed, (1 << 32) + i as u64, admission);
    let admission = spec.phase == Phase::Admission;
    let lines: Vec<String> =
        (0..spec.fixed_sweeps).map(|i| fresh(i, admission).to_json()).collect();
    let schema_us = schema_costs(&lines, report);
    let mut sink = Vec::new();
    let clock = Instant::now();

    if spec.phase == Phase::Cold {
        // cold sweeps, each followed by a serial direct evaluation of
        // its points: the two workers were useful for that share
        let (mut cold_ms, mut util) = (Vec::new(), Vec::new());
        while cold_ms.len() < 3 || clock.elapsed().as_secs_f64() < seconds {
            let sw = fresh(cold_ms.len(), false);
            let wall_ms = handle(&svc, &sw.to_json(), &mut sink)?;
            let t = Instant::now();
            for p in sw.expand() {
                let direct = measure_budgeted(&p.open_loop(), 50_000_000);
                black_box(direct?.ok());
            }
            util.push(t.elapsed().as_secs_f64() * 1e3 / (svc.workers() as f64 * wall_ms));
            cold_ms.push(wall_ms);
        }
        report.metric("noc-serve.sweep_cold_ms", median(&cold_ms));
        report.metric("noc-serve.worker_util", median(&util));
        service_start_cost(&dir, spec, seed, report)?;
        return wal_costs(&dir, &fresh(0, false).expand()[0], report);
    }

    // replay phases: answer every line once, then time the replays
    for i in 0..spec.fixed_sweeps {
        handle(&svc, &fresh(i, false).to_json(), &mut sink)?;
    }
    let mut replay_us = Vec::new();
    while replay_us.len() < lines.len() || clock.elapsed().as_secs_f64() < seconds {
        replay_us.push(handle(&svc, &lines[replay_us.len() % lines.len()], &mut sink)? * 1e3);
    }
    let p50 = median(&replay_us);
    report.metric("noc-serve.wire_overhead_us", binary_p50_us - p50);
    if admission {
        report.metric("noc-serve.sweep_admission_us", p50);
        analytic_costs(report)
    } else {
        report.metric("noc-serve.sweep_cached_us", p50);
        report.metric("noc-serve.cached_self_us", p50 - schema_us);
        Ok(())
    }
}

/// `Service::new` against a journal of 800 records (what a restart
/// after a hundred sweeps replays).
fn service_start_cost(
    dir: &Scratch,
    spec: &ServeSpec,
    seed: u64,
    report: &mut Report,
) -> Result<(), BenchError> {
    let points: Vec<PointRequest> =
        (0..100).flat_map(|i| sweep(spec, seed, (2 << 32) + i, false).expand()).collect();
    let payload = ServeOutcome::Timeout { budget: 1, wall: false }.canonical();
    let (wal, _) = Wal::open(&dir.0.join("start.wal"))?;
    points.iter().try_for_each(|p| wal.append(&p.key(), &payload))?;
    wal.commit()?;
    drop(wal);
    let mut new_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let svc = service(dir, "start.wal")?;
        new_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(svc.cached_results() == points.len(), || {
            format!("Service::new replayed {} of {} records", svc.cached_results(), points.len())
        });
    }
    report.metric("noc-serve.service_new_ms", median(&new_ms));
    Ok(())
}
