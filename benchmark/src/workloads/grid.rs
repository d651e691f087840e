//! `grid-closedloop`: the paper's own method — closed-loop batch runs
//! and execution-driven `cmp-sim` runs — fanned out by the grid engine.
//!
//! One *batch* is the 60-point template below, freshly seeded, through
//! one `noc_exp::run_grid_with(points, 2, …)` call. Batches repeat until
//! the clock runs out; batch 0 is the *fixed part* every count and the
//! result digest are taken over. An operation is one point.

use std::thread::ThreadId;
use std::time::Instant;

use cmp_sim::{run_cmp, CmpConfig, CmpResult};
use noc_closedloop::{run_batch, BatchBehavior, BatchConfig, BatchResult, ReplyModel};
use noc_exp::{derive_seed, run_grid_with};
use noc_sim::config::NetConfig;
use noc_sim::network::Network;
use noc_traffic::PatternKind;
use noc_workloads::all_benchmarks;

use crate::report::{peak_rss_mb, BenchError, Report};
use crate::stats::{median, steady_rate, Digest};
use crate::timed::{CallbackTimes, Timed};
use crate::trace::{SpanId, Tracer};

const WORKERS: usize = 2;

/// Points of batch 0 re-evaluated serially after the clock.
const RECHECK: usize = 12;

#[derive(Clone, Copy)]
pub struct GridSpec {
    /// Operations per node of every batch-model point (`b`).
    pub batch: u64,
    /// Per-core user instructions of every `cmp-sim` point.
    pub instructions: u64,
    /// Times the point lists are built and validated (median reported).
    pub setups: usize,
    /// Batches whose point lists one set-up builds: more than a run of
    /// the contract's length consumes.
    pub setup_batches: u64,
}

pub fn spec(smoke: bool) -> GridSpec {
    if smoke {
        GridSpec { batch: 30, instructions: 4_000, setups: 5, setup_batches: 4 }
    } else {
        GridSpec { batch: 150, instructions: 25_000, setups: 25, setup_batches: 32 }
    }
}

#[derive(Clone)]
pub enum Point {
    Batch(BatchConfig),
    Cmp(CmpConfig),
}

impl Point {
    fn net_mut(&mut self) -> &mut NetConfig {
        match self {
            Point::Batch(c) => &mut c.net,
            Point::Cmp(c) => &mut c.net,
        }
    }
}

/// The 60-point template on the baseline 8x8 mesh: the plain batch
/// model over m x pattern x router delay (36), the enhanced injection
/// model (4), and `cmp-sim` over the five benchmark profiles x router
/// delay on its Table II 4x4 mesh (20).
pub fn template(spec: &GridSpec) -> Vec<Point> {
    let mut points = Vec::with_capacity(60);
    for m in [1usize, 2, 4, 8, 16, 32] {
        for pattern in [PatternKind::Uniform, PatternKind::Transpose, PatternKind::BitComplement] {
            for tr in [1u32, 4] {
                points.push(Point::Batch(BatchConfig {
                    net: NetConfig::baseline().with_router_delay(tr),
                    pattern,
                    batch: spec.batch,
                    max_outstanding: m,
                    ..BatchConfig::default()
                }));
            }
        }
    }
    for m in [4usize, 16] {
        for latency in [20u64, 100] {
            points.push(Point::Batch(BatchConfig {
                batch: spec.batch,
                max_outstanding: m,
                nar: 0.1,
                reply_model: ReplyModel::Fixed { latency },
                ..BatchConfig::default()
            }));
        }
    }
    for profile in all_benchmarks() {
        for tr in [1u32, 2, 4, 8] {
            points.push(Point::Cmp(
                CmpConfig::table2(profile)
                    .with_router_delay(tr)
                    .with_instructions(spec.instructions),
            ));
        }
    }
    points
}

/// Batch `index`'s point list: the template with point `j` seeded
/// `derive_seed(seed, index * len + j)`, every network validated.
pub fn point_list(spec: &GridSpec, seed: u64, index: u64) -> Result<Vec<Point>, BenchError> {
    let mut points = template(spec);
    let len = points.len() as u64;
    for (j, p) in points.iter_mut().enumerate() {
        let net = p.net_mut();
        net.seed = derive_seed(seed, index * len + j as u64);
        // both models run two message classes on the network
        let mut two_class = net.clone();
        two_class.classes = 2;
        two_class.validate().map_err(|e| BenchError::Usage(format!("point {j}: {e}")))?;
    }
    Ok(points)
}

enum Simulated {
    Batch(BatchResult),
    Cmp(CmpResult),
}

impl Simulated {
    fn fold(&self, d: &mut Digest) {
        match self {
            Simulated::Batch(r) => {
                d.u64(r.runtime);
                d.f64(r.normalized_runtime);
                d.f64(r.throughput);
                r.per_node_runtime.iter().for_each(|&t| d.u64(t));
                d.u64(r.completed);
                d.u64(r.timer_added);
                d.u64(r.drained as u64);
            }
            Simulated::Cmp(r) => {
                d.u64(r.runtime);
                d.u64(r.user_flits);
                d.u64(r.kernel_flits);
                d.u64(r.timer_interrupts);
                d.u64(r.instructions);
                d.f64(r.nar);
                r.traffic_matrix.iter().flatten().for_each(|&c| d.u64(c));
                d.u64(r.drained as u64);
            }
        }
    }

    fn bits(&self) -> Digest {
        let mut d = Digest::default();
        self.fold(&mut d);
        d
    }

    fn drained(&self) -> bool {
        match self {
            Simulated::Batch(r) => r.drained,
            Simulated::Cmp(r) => r.drained,
        }
    }

    /// Simulated router-cycles: the model's runtime on its network.
    fn cycles(&self) -> u64 {
        match self {
            Simulated::Batch(r) => r.runtime,
            Simulated::Cmp(r) => r.runtime,
        }
    }
}

/// What the traced run sees inside one batch-model point.
struct Inside {
    new_ns: u64,
    drain_ns: u64,
    calls: CallbackTimes,
    flit_hops: u64,
}

struct Evaluated {
    sim: Simulated,
    start: Instant,
    end: Instant,
    worker: ThreadId,
    inside: Option<Inside>,
}

fn simulate(p: &Point) -> Simulated {
    // the list was validated when it was built
    match p {
        Point::Batch(c) => Simulated::Batch(run_batch(c).expect("validated point")),
        Point::Cmp(c) => Simulated::Cmp(run_cmp(c).expect("validated point")),
    }
}

/// `noc_closedloop::run_batch` rebuilt from its public pieces around a
/// timed behaviour (its result is checked against the real one's).
fn run_batch_timed(cfg: &BatchConfig) -> (BatchResult, Inside) {
    let mut net_cfg = cfg.net.clone();
    net_cfg.classes = 2;
    let t = Instant::now();
    let mut net = Network::new(net_cfg).expect("validated point");
    let new_ns = t.elapsed().as_nanos() as u64;
    let nodes = net.num_nodes();
    let mut b = Timed::new(BatchBehavior::new(cfg, nodes, net.topo().radix(0)));
    let t = Instant::now();
    let drained = net.drain(&mut b, cfg.max_cycles);
    let drain_ns = t.elapsed().as_nanos() as u64;
    let runtime = b.inner.runtime().max(1);
    let completed = b.inner.completed();
    let flits = completed * (cfg.request_size + cfg.reply_size) as u64;
    let result = BatchResult {
        runtime,
        normalized_runtime: runtime as f64 / cfg.batch as f64,
        throughput: flits as f64 / nodes as f64 / runtime as f64,
        per_node_runtime: b.inner.per_node_runtime(),
        completed,
        timer_added: b.inner.timer_added,
        drained,
    };
    let flit_hops = net.pipeline_stats().sa_grants;
    (result, Inside { new_ns, drain_ns, calls: b.times, flit_hops })
}

fn evaluate(p: &Point, traced: bool) -> Evaluated {
    let start = Instant::now();
    let (sim, inside) = match (p, traced) {
        (Point::Batch(c), true) => {
            let (r, inside) = run_batch_timed(c);
            (Simulated::Batch(r), Some(inside))
        }
        _ => (simulate(p), None),
    };
    Evaluated { sim, start, end: Instant::now(), worker: std::thread::current().id(), inside }
}

/// One set-up: the point lists a run consumes, built and validated,
/// and one pass of the template at minimal work through the grid
/// engine — worker threads spawned, every model's code and a
/// `Network::new` per point touched once — before the first timed point.
fn set_up(spec: &GridSpec, seed: u64) -> Result<(), BenchError> {
    for index in 0..spec.setup_batches {
        std::hint::black_box(point_list(spec, seed, index)?);
    }
    let minimal = GridSpec { batch: 1, instructions: 1, ..*spec };
    let results = run_grid_with(&point_list(&minimal, seed, 0)?, WORKERS, |_, p| simulate(p));
    match results.iter().position(|r| !r.drained()) {
        Some(j) => Err(BenchError::Usage(format!("warm-up point {j} did not drain"))),
        None => Ok(()),
    }
}

/// What is kept of every point of every measured batch.
struct PointTime {
    batch_model: bool,
    ms: f64,
    cycles: u64,
}

/// Last worker's end minus first worker's end: how long one worker sat
/// idle while the other finished the batch's tail.
fn tail_s(out: &[Evaluated]) -> f64 {
    let mut ends: Vec<(ThreadId, Instant)> = Vec::new();
    for e in out {
        match ends.iter_mut().find(|(w, _)| *w == e.worker) {
            Some((_, end)) => *end = (*end).max(e.end),
            None => ends.push((e.worker, e.end)),
        }
    }
    let first = ends.iter().map(|w| w.1).min().expect("a batch has points");
    let last = ends.iter().map(|w| w.1).max().expect("a batch has points");
    (last - first).as_secs_f64()
}

/// One point's spans: the point under its batch, and — where the run
/// was rebuilt around the timing decorator — the engine run under the
/// point and the behaviour's callbacks under the run.
fn record(tr: &mut Tracer, batch: Option<SpanId>, request: u64, e: &Evaluated) {
    let name = if e.inside.is_some() { "noc-closedloop.point" } else { "cmp-sim.point" };
    let (start, end) = (tr.at(e.start), tr.at(e.end));
    let point = tr.add(name, batch, request, start, end, 1);
    if let Some(i) = &e.inside {
        let run = tr.add("noc-sim.run", Some(point), request, end - i.drain_ns, end, 1);
        let calls = i.calls.generate_calls + i.calls.deliver_calls;
        tr.add_aggregate("noc-closedloop.behavior", run, 0, i.calls.total_ns(), calls);
    }
}

pub fn run(
    spec: &GridSpec,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Report, BenchError> {
    let mut report = Report::default();
    let traced = tracer.is_some();

    let mut setup_s = Vec::new();
    for _ in 0..spec.setups {
        let t = Instant::now();
        set_up(spec, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let (mut batch_s, mut tails) = (Vec::new(), Vec::new());
    let mut times: Vec<PointTime> = Vec::new();
    let mut fixed: Vec<Evaluated> = Vec::new();
    let clock = Instant::now();
    while batch_s.is_empty() || clock.elapsed().as_secs_f64() < seconds {
        let index = batch_s.len() as u64;
        let points = point_list(spec, seed, index)?;
        let span = tracer.as_deref_mut().map(|t| t.open("noc-exp.run_grid", None, index));
        let t = Instant::now();
        let out = run_grid_with(&points, WORKERS, |_, p| evaluate(p, traced));
        batch_s.push(t.elapsed().as_secs_f64());
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.close(id);
        }
        tails.push(tail_s(&out));
        for (j, e) in out.iter().enumerate() {
            times.push(PointTime {
                batch_model: matches!(e.sim, Simulated::Batch(_)),
                ms: (e.end - e.start).as_secs_f64() * 1e3,
                cycles: e.sim.cycles(),
            });
            if let Some(tr) = tracer.as_deref_mut() {
                record(tr, span, index * points.len() as u64 + j as u64, e);
            }
        }
        if index == 0 {
            fixed = out;
        }
    }

    // checks on the fixed part: every point drained, and a serial
    // evaluation by the real `run_batch`/`run_cmp` gives the bits the
    // two workers gave (in the traced run, gave through the rebuilt
    // `run_batch`)
    report.attempted = times.len() as u64;
    let points = point_list(spec, seed, 0)?;
    let mut digest = Digest::default();
    let stride = (points.len() / RECHECK).max(1);
    for (j, (p, e)) in points.iter().zip(&fixed).enumerate() {
        e.sim.fold(&mut digest);
        report.check(e.sim.drained(), || format!("point {j} hit its cycle cap before draining"));
        if j % stride == 0 {
            report.check(simulate(p).bits() == e.sim.bits(), || {
                format!("point {j}: serial re-evaluation differs from the {WORKERS}-worker result")
            });
        }
    }
    report.digest(digest);

    let latencies_ms: Vec<f64> = times.iter().map(|t| t.ms).collect();
    let point_max_ms = latencies_ms.iter().cloned().fold(0.0, f64::max);
    report.rate_and_latency(steady_rate(&batch_s, points.len() as f64), latencies_ms, traced);
    let Some(tracer) = tracer else {
        report.metric("setup_s", median(&setup_s));
        report.metric("peak_rss_mb", peak_rss_mb(std::process::id())?);
        return Ok(report);
    };

    let busy_s = times.iter().map(|t| t.ms).sum::<f64>() / 1e3;
    report.metric("trace.spans", tracer.spans().len() as f64);
    report.metric("noc-exp.points", fixed.len() as f64);
    report.metric("noc-exp.busy_s", busy_s);
    report
        .metric("noc-exp.idle_frac", 1.0 - busy_s / (WORKERS as f64 * batch_s.iter().sum::<f64>()));
    report.metric("noc-exp.tail_s", tails.iter().sum::<f64>() / tails.len() as f64);
    report.metric("noc-exp.point_max_ms", point_max_ms);

    // per model: points and simulated cycles of the fixed part, host
    // time over every batch
    let mut batch_model_cycles = 0;
    for (layer, batch_model) in [("noc-closedloop", true), ("cmp-sim", false)] {
        let of_fixed =
            || fixed.iter().filter(|e| matches!(e.sim, Simulated::Batch(_)) == batch_model);
        let all: Vec<&PointTime> = times.iter().filter(|t| t.batch_model == batch_model).collect();
        let cycles: u64 = all.iter().map(|t| t.cycles).sum();
        let ms: Vec<f64> = all.iter().map(|t| t.ms).collect();
        report.metric(format!("{layer}.points"), of_fixed().count() as f64);
        report.metric(format!("{layer}.point_p50_ms"), median(&ms));
        report.metric(
            format!("{layer}.sim_cycles"),
            of_fixed().map(|e| e.sim.cycles()).sum::<u64>() as f64,
        );
        report
            .metric(format!("{layer}.cycles_per_s"), cycles as f64 * 1e3 / ms.iter().sum::<f64>());
        if batch_model {
            batch_model_cycles = cycles;
        }
    }
    let instructions = fixed.iter().map(|e| match &e.sim {
        Simulated::Cmp(r) => r.instructions,
        Simulated::Batch(_) => 0,
    });
    report.metric("cmp-sim.instructions", instructions.sum::<u64>() as f64);
    report.metric("noc-closedloop.behavior_s", tracer.total_s("noc-closedloop.behavior"));

    // the engine under the batch-model points (cmp-sim's behaviour is
    // not rebuilt, so its points are not split)
    let (run_s, self_s) = (tracer.total_s("noc-sim.run"), tracer.self_s("noc-sim.run"));
    let inside = || fixed.iter().filter_map(|e| e.inside.as_ref());
    let new_us: Vec<f64> = inside().map(|i| i.new_ns as f64 / 1e3).collect();
    report.metric("noc-sim.new_us", median(&new_us));
    report.metric("noc-sim.run_s", run_s);
    report.metric("noc-sim.self_s", self_s);
    report.metric("noc-sim.self_share", 100.0 * self_s / run_s);
    report.metric("noc-sim.ns_per_router_cycle", run_s * 1e9 / (batch_model_cycles * 64) as f64);
    report.metric(
        "noc-sim.cycles",
        fixed.iter().filter(|e| e.inside.is_some()).map(|e| e.sim.cycles()).sum::<u64>() as f64,
    );
    report.metric("noc-sim.steps", inside().map(|i| i.calls.generate_calls).sum::<u64>() as f64);
    report.metric("noc-sim.flit_hops", inside().map(|i| i.flit_hops).sum::<u64>() as f64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(points: &[Point]) -> Vec<u64> {
        points
            .iter()
            .map(|p| match p {
                Point::Batch(c) => c.net.seed,
                Point::Cmp(c) => c.net.seed,
            })
            .collect()
    }

    #[test]
    fn point_lists_are_a_function_of_the_seed() {
        let spec = spec(true);
        let a = point_list(&spec, 5, 0).unwrap();
        assert_eq!(a.len(), 60);
        assert_eq!(a.iter().filter(|p| matches!(p, Point::Cmp(_))).count(), 20);
        assert_eq!(seeds(&a), seeds(&point_list(&spec, 5, 0).unwrap()));
        assert_ne!(seeds(&a), seeds(&point_list(&spec, 6, 0).unwrap()));
        // batches never share a seed with each other
        let mut all = seeds(&a);
        all.extend(seeds(&point_list(&spec, 5, 1).unwrap()));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 120);
    }

    #[test]
    fn rebuilt_run_batch_gives_run_batch_bits() {
        let spec = spec(true);
        for p in point_list(&spec, 3, 0).unwrap().iter().step_by(7) {
            if let Point::Batch(c) = p {
                let (rebuilt, inside) = run_batch_timed(c);
                let real = run_batch(c).unwrap();
                assert_eq!(Simulated::Batch(rebuilt).bits(), Simulated::Batch(real).bits());
                assert!(inside.flit_hops > 0 && inside.calls.generate_calls > 0);
            }
        }
    }
}
