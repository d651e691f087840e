//! `sim-loaded` and `sim-sparse`: the open-loop measurement loop of
//! `noc_openloop::measure`, rebuilt from its public pieces so the
//! benchmark can slice one long window into timed chunks.
//!
//! A *round* is one chunk (a fixed number of simulated cycles) of each
//! of the workload's two segments, one thread. Rounds repeat until the
//! clock runs out; the first [`FIXED_ROUNDS`] of them are the
//! *fixed part*: packets generated in it are the marked ones, and every
//! count and every simulated result is taken over it, so they repeat
//! exactly however long the run lasts.

use std::hint::black_box;
use std::time::Instant;

use noc_analytic::AnalyticModel;
use noc_exp::derive_seed;
use noc_openloop::{measure, OpenLoopBehavior, OpenLoopConfig};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;
use noc_traffic::{Bernoulli, PatternKind, SizeKind};

use crate::report::{peak_rss_mb, BenchError, Report};
use crate::stats::{median, steady_rate, Digest};
use crate::timed::{CallbackTimes, Timed};
use crate::trace::{SpanId, Tracer};

/// Rounds in the fixed part.
const FIXED_ROUNDS: u64 = 16;

/// Cap on the cycles spent draining marked packets after the clock.
const DRAIN_MAX: u64 = 100_000;

/// One network the workload simulates.
pub struct Segment {
    pub name: &'static str,
    pub topology: TopologyKind,
    /// Offered load, flits/cycle/node (uniform pattern, 1-flit packets).
    pub load: f64,
    pub warmup: u64,
    /// Simulated cycles per timed chunk.
    pub chunk: u64,
    /// `(warmup, measure)` of the short prefix the identity checks run.
    pub prefix: (u64, u64),
}

pub struct SimSpec {
    pub segments: [Segment; 2],
    /// Times the set-up is repeated (the median is reported).
    pub setups: usize,
    /// True for the loaded regime: the traced run compares the model's
    /// latency at the segment's load, not its zero-load latency.
    pub loaded: bool,
}

/// The workload definitions. Loads of `sim-loaded` are ~81 % of
/// `noc-analytic`'s effective saturation for the mesh, pinned as
/// literals so a model change cannot silently move the workload.
pub fn spec(loaded: bool, smoke: bool) -> SimSpec {
    let seg = |name, topology, load, warmup, chunk, prefix| Segment {
        name,
        topology,
        load,
        warmup,
        chunk,
        prefix,
    };
    use TopologyKind::{Mesh2D, Torus2D};
    let segments = match (loaded, smoke) {
        (true, false) => [
            seg("mesh16", Mesh2D { k: 16 }, 0.16, 3_000, 350, (300, 700)),
            seg("mesh32", Mesh2D { k: 32 }, 0.08, 2_000, 90, (300, 700)),
        ],
        (false, false) => [
            seg("mesh32", Mesh2D { k: 32 }, 0.001, 5_000, 3_500, (500, 1_500)),
            seg("torus32", Torus2D { k: 32 }, 0.001, 5_000, 3_500, (500, 1_500)),
        ],
        // the smoke scale keeps the segment names (they are metric
        // names) on networks small enough to check in a second
        (true, true) => [
            seg("mesh16", Mesh2D { k: 8 }, 0.25, 300, 200, (100, 300)),
            seg("mesh32", Mesh2D { k: 12 }, 0.15, 300, 200, (100, 300)),
        ],
        (false, true) => [
            seg("mesh32", Mesh2D { k: 12 }, 0.002, 500, 5_000, (200, 600)),
            seg("torus32", Torus2D { k: 12 }, 0.002, 500, 5_000, (200, 600)),
        ],
    };
    // a loaded set-up is a second of warm-up simulation, a sparse one 70 ms
    let setups = match (smoke, loaded) {
        (true, _) => 1,
        (false, true) => 3,
        (false, false) => 7,
    };
    SimSpec { segments, setups, loaded }
}

/// The traffic source as the engine sees it: bare in the untraced run,
/// behind the timing decorator in the traced one.
trait Source: NodeBehavior {
    fn wrap(inner: OpenLoopBehavior) -> Self;
    fn open_loop(&self) -> &OpenLoopBehavior;
    fn times(&self) -> CallbackTimes;
}

impl Source for OpenLoopBehavior {
    fn wrap(inner: OpenLoopBehavior) -> Self {
        inner
    }
    fn open_loop(&self) -> &OpenLoopBehavior {
        self
    }
    fn times(&self) -> CallbackTimes {
        CallbackTimes::default()
    }
}

impl Source for Timed<OpenLoopBehavior> {
    fn wrap(inner: OpenLoopBehavior) -> Self {
        Timed::new(inner)
    }
    fn open_loop(&self) -> &OpenLoopBehavior {
        &self.inner
    }
    fn times(&self) -> CallbackTimes {
        self.times
    }
}

fn net_config(seg: &Segment, seed: u64) -> NetConfig {
    NetConfig::baseline().with_topology(seg.topology).with_seed(seed)
}

fn behavior(net: &Network, load: f64, seed: u64, mark: (u64, u64)) -> OpenLoopBehavior {
    let nodes = net.num_nodes();
    OpenLoopBehavior::new(
        nodes,
        PatternKind::Uniform.build(nodes, net.topo().radix(0)),
        SizeKind::Fixed(1).build(),
        || Box::new(Bernoulli { p: load }),
        seed,
        mark.0,
        mark.1,
    )
}

/// The engine's and the source's counters at one moment, in the order
/// of [`COUNT_METRICS`].
type Counts = [u64; 10];

/// Per-layer count metrics: each is the sum over the segments of a
/// counter's growth across the fixed part.
const COUNT_METRICS: [&str; 10] = [
    "noc-sim.flit_hops",
    "noc-sim.va_grants",
    "noc-sim.va_blocked",
    "noc-sim.sa_conflicts",
    "noc-sim.sa_credit_starved",
    "noc-sim.flits_injected",
    "noc-sim.packets_delivered",
    "noc-openloop.packets_generated",
    "noc-openloop.generate_calls",
    "noc-openloop.deliver_calls",
];

/// One segment, constructed and warmed up.
struct Live<S> {
    net: Network,
    src: S,
    new_ns: u64,
    behavior_new_ns: u64,
    /// Counters right after warm-up: where the fixed part starts.
    base: Counts,
    chunk_ns: Vec<f64>,
    chunk_hops: Vec<f64>,
}

impl<S: Source> Live<S> {
    fn set_up(seg: &Segment, seed: u64) -> Result<Self, BenchError> {
        let t = Instant::now();
        let mut net = Network::new(net_config(seg, seed))?;
        let new_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let mark = (seg.warmup, seg.warmup + FIXED_ROUNDS * seg.chunk);
        let mut src = S::wrap(behavior(&net, seg.load, seed, mark));
        let behavior_new_ns = t.elapsed().as_nanos() as u64;
        net.run(seg.warmup, &mut src);
        let mut live = Live {
            net,
            src,
            new_ns,
            behavior_new_ns,
            base: [0; 10],
            chunk_ns: vec![],
            chunk_hops: vec![],
        };
        live.base = live.counts();
        Ok(live)
    }

    fn counts(&self) -> Counts {
        let (pipe, st, calls) = (self.net.pipeline_stats(), self.net.stats(), self.src.times());
        [
            pipe.sa_grants,
            pipe.va_grants,
            pipe.va_blocked,
            pipe.sa_conflicts,
            pipe.sa_credit_starved,
            st.flits_injected,
            st.packets_delivered,
            self.src.open_loop().generated,
            calls.generate_calls,
            calls.deliver_calls,
        ]
    }

    /// One timed chunk; in the traced run, its spans under `round`.
    fn chunk(&mut self, cycles: u64, tracer: Option<&mut Tracer>, round: Option<SpanId>) -> u64 {
        let hops = self.net.pipeline_stats().sa_grants;
        let calls = self.src.times();
        let start = tracer.as_deref().map(Tracer::now);
        let t = Instant::now();
        self.net.run(cycles, &mut self.src);
        let ns = t.elapsed().as_nanos() as u64;
        self.chunk_ns.push(ns as f64);
        self.chunk_hops.push((self.net.pipeline_stats().sa_grants - hops) as f64);
        if let (Some(tr), Some(start), Some(round)) = (tracer, start, round) {
            let request = tr.spans()[round].request;
            let calls = self.src.times().since(&calls);
            let run = tr.add("noc-sim.run", Some(round), request, start, start + ns, 1);
            let next = tr.add_aggregate(
                "noc-openloop.generate",
                run,
                0,
                calls.generate_ns,
                calls.generate_calls,
            );
            tr.add_aggregate(
                "noc-openloop.deliver",
                run,
                next,
                calls.deliver_ns,
                calls.deliver_calls,
            );
        }
        ns
    }

    /// Median host ns per flit-hop and per chunk, over every chunk.
    fn medians(&self) -> (f64, f64) {
        let per_hop: Vec<f64> =
            self.chunk_ns.iter().zip(&self.chunk_hops).map(|(ns, h)| ns / h).collect();
        (median(&per_hop), median(&self.chunk_ns))
    }
}

/// The identity checks on a short prefix of a segment's configuration:
/// the rebuilt loop gives the bits `noc_openloop::measure` gives, and
/// the event-driven engine delivers the same packets at the same cycles
/// as the full-scan reference twin. Returns the prefix's delivery
/// digest.
fn check_prefix(seg: &Segment, seed: u64) -> Result<u64, String> {
    let (warmup, window) = seg.prefix;
    let cfg = OpenLoopConfig {
        net: net_config(seg, seed),
        load: seg.load,
        warmup,
        measure: window,
        drain_max: 20_000,
        ..OpenLoopConfig::default()
    };
    let end = warmup + window;
    let mut net = Network::new(cfg.net.clone()).map_err(|e| e.to_string())?;
    let mut b = behavior(&net, seg.load, seed, (warmup, end));
    net.run(warmup, &mut b);
    net.run(window, &mut b);
    while b.marked_outstanding > 0 && net.cycle() < end + cfg.drain_max {
        net.step(&mut b);
    }
    let lib = measure(&cfg).map_err(|e| e.to_string())?;
    let throughput = b.window_flits as f64 / window as f64 / net.num_nodes() as f64;
    let same = lib.avg_latency.to_bits() == b.latency.mean().to_bits()
        && lib.max_latency.to_bits() == b.latency.max().unwrap_or(0.0).to_bits()
        && lib.avg_queue_time.to_bits() == b.queue_time.mean().to_bits()
        && lib.avg_network_time.to_bits() == b.network_time.mean().to_bits()
        && lib.throughput.to_bits() == throughput.to_bits()
        && lib.measured_packets == b.latency.count()
        && lib.cycles == net.cycle()
        && lib.drained == (b.marked_outstanding == 0);
    if !same {
        return Err(format!("{}: rebuilt loop differs from noc_openloop::measure", seg.name));
    }
    let mut ref_net = Network::new(cfg.net.clone()).map_err(|e| e.to_string())?;
    let mut ref_b = behavior(&ref_net, seg.load, seed, (warmup, end));
    while ref_net.cycle() < net.cycle() {
        ref_net.try_step_reference(&mut ref_b).map_err(|e| e.to_string())?;
    }
    let (fast, reference) = (net.stats().delivery_digest, ref_net.stats().delivery_digest);
    if fast != reference {
        return Err(format!(
            "{}: try_step digest {fast:016x} != try_step_reference digest {reference:016x}",
            seg.name
        ));
    }
    Ok(fast)
}

/// Median host ns of one `fire` and one `dest` call through the trait
/// objects the open-loop source holds (1 M calls each).
fn traffic_call_costs() -> (f64, f64) {
    const CALLS: u32 = 1_000_000;
    let mut rng = SimRng::new(7);
    let mut process: Box<dyn noc_traffic::InjectionProcess> = Box::new(Bernoulli { p: 0.1 });
    let pattern = PatternKind::Uniform.build(1024, 32);
    let t = Instant::now();
    let mut fired = 0u32;
    for _ in 0..CALLS {
        fired += black_box(process.fire(&mut rng)) as u32;
    }
    let fire_ns = t.elapsed().as_nanos() as f64 / CALLS as f64;
    let t = Instant::now();
    let mut sum = 0usize;
    for i in 0..CALLS {
        sum += black_box(pattern.dest(i as usize & 1023, &mut rng));
    }
    let dest_ns = t.elapsed().as_nanos() as f64 / CALLS as f64;
    black_box((fired, sum));
    (fire_ns, dest_ns)
}

pub fn run(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Report, BenchError> {
    match tracer {
        None => run_with::<OpenLoopBehavior>(spec, seed, seconds, None),
        Some(t) => run_with::<Timed<OpenLoopBehavior>>(spec, seed, seconds, Some(t)),
    }
}

fn run_with<S: Source>(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Report, BenchError> {
    let mut report = Report::default();
    let seeds = [derive_seed(seed, 0), derive_seed(seed, 1)];

    // set-up: constructions and warm-up runs, repeated; the last one is
    // the one measured
    let (mut setup_s, mut new_us, mut behavior_new_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut lives: Vec<Live<S>> = Vec::new();
    for _ in 0..spec.setups {
        let t = Instant::now();
        lives.clear();
        for (seg, &s) in spec.segments.iter().zip(&seeds) {
            lives.push(Live::set_up(seg, s)?);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        new_us.push(lives.iter().map(|l| l.new_ns).sum::<u64>() as f64 / 1e3);
        behavior_new_us.push(lives.iter().map(|l| l.behavior_new_ns).sum::<u64>() as f64 / 1e3);
    }

    // measured rounds; the counters and digests when the fixed part ends
    let mut round_s = Vec::new();
    let mut fixed: Vec<(Counts, u64)> = Vec::new();
    let clock = Instant::now();
    while (round_s.len() as u64) < FIXED_ROUNDS || clock.elapsed().as_secs_f64() < seconds {
        let span = tracer.as_deref_mut().map(|t| t.open("round", None, round_s.len() as u64));
        let mut ns = 0;
        for (seg, live) in spec.segments.iter().zip(&mut lives) {
            ns += live.chunk(seg.chunk, tracer.as_deref_mut(), span);
        }
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.close(id);
        }
        round_s.push(ns as f64 / 1e9);
        if round_s.len() as u64 == FIXED_ROUNDS {
            fixed = lives.iter().map(|l| (l.counts(), l.net.stats().delivery_digest)).collect();
        }
    }
    report.attempted = round_s.len() as u64;

    // drain what is left of the fixed part's marked packets
    let t = Instant::now();
    for live in &mut lives {
        let limit = live.net.cycle() + DRAIN_MAX;
        while live.src.open_loop().marked_outstanding > 0 && live.net.cycle() < limit {
            live.net.step(&mut live.src);
        }
    }
    let drain_s = t.elapsed().as_secs_f64();

    // checks, and the digest of everything simulated in the fixed part
    let mut digest = Digest::default();
    for (((seg, live), &s), (_, delivered)) in
        spec.segments.iter().zip(&lives).zip(&seeds).zip(&fixed)
    {
        let b = live.src.open_loop();
        let window = (FIXED_ROUNDS * seg.chunk) as f64;
        let accepted = b.window_flits as f64 / window / live.net.num_nodes() as f64;
        report.check(b.marked_outstanding == 0, || {
            format!("{}: {} marked packets never drained", seg.name, b.marked_outstanding)
        });
        report.check(accepted >= 0.98 * seg.load, || {
            format!("{}: accepted {accepted} of offered {}", seg.name, seg.load)
        });
        match check_prefix(seg, s) {
            Ok(prefix) => digest.u64(prefix),
            Err(why) => report.fail(1, why),
        }
        digest.u64(*delivered);
        digest.f64(b.latency.mean());
        digest.u64(b.latency.count());
        digest.u64(b.window_flits);
    }
    report.digest(digest);

    // the load-independent units: mean over the segments of the
    // per-chunk medians
    let medians: Vec<(f64, f64)> = lives.iter().map(Live::medians).collect();
    let ns_per_flit_hop = medians.iter().map(|m| m.0).sum::<f64>() / 2.0;
    let ns_per_router_cycle = (spec.segments.iter().zip(&lives).zip(&medians))
        .map(|((seg, live), m)| m.1 / (seg.chunk * live.net.num_nodes() as u64) as f64)
        .sum::<f64>()
        / 2.0;
    report.info.push(("ns_per_flit_hop", format!("{ns_per_flit_hop:.3}")));
    report.info.push(("ns_per_router_cycle", format!("{ns_per_router_cycle:.4}")));
    report.rate_and_latency(
        steady_rate(&round_s, 1.0),
        round_s.iter().map(|s| s * 1e3).collect(),
        tracer.is_some(),
    );

    let Some(tracer) = tracer else {
        report.metric("setup_s", median(&setup_s));
        report.metric("peak_rss_mb", peak_rss_mb(std::process::id())?);
        return Ok(report);
    };

    // per-layer metrics: host time over every measured round ...
    let run_s = tracer.total_s("noc-sim.run");
    let self_s = tracer.self_s("noc-sim.run");
    let generate_s = tracer.total_s("noc-openloop.generate");
    report.metric("trace.spans", tracer.spans().len() as f64);
    report.metric("noc-sim.new_us", median(&new_us));
    report.metric("noc-sim.run_s", run_s);
    report.metric("noc-sim.self_s", self_s);
    report.metric("noc-sim.self_share", 100.0 * self_s / run_s);
    report.metric("noc-sim.drain_s", drain_s);
    report.metric("noc-sim.ns_per_flit_hop", ns_per_flit_hop);
    report.metric("noc-sim.ns_per_router_cycle", ns_per_router_cycle);
    report.metric("noc-openloop.behavior_new_us", median(&behavior_new_us));
    report.metric("noc-openloop.generate_s", generate_s);
    report.metric("noc-openloop.generate_share", 100.0 * generate_s / run_s);
    report.metric("noc-openloop.deliver_s", tracer.total_s("noc-openloop.deliver"));
    let (fire_ns, dest_ns) = traffic_call_costs();
    report.metric("noc-traffic.fire_ns", fire_ns);
    report.metric("noc-traffic.dest_ns", dest_ns);

    // ... counts over the fixed part, summed over the segments ...
    let grown: Vec<f64> = (0..COUNT_METRICS.len())
        .map(|i| {
            lives.iter().zip(&fixed).map(|(live, (at, _))| (at[i] - live.base[i]) as f64).sum()
        })
        .collect();
    let count = |name: &str| -> f64 {
        let i = COUNT_METRICS.iter().position(|n| *n == name);
        grown[i.expect("a name from COUNT_METRICS")]
    };
    for (name, value) in COUNT_METRICS.iter().zip(&grown) {
        report.metric(*name, *value);
    }
    let cycles: u64 = spec.segments.iter().map(|s| s.chunk * FIXED_ROUNDS).sum();
    report.metric("noc-sim.cycles", cycles as f64);
    // the engine calls `generate` once per sweep it makes
    report.metric("noc-sim.steps", count("noc-openloop.generate_calls"));
    let (va, sa) = (count("noc-sim.va_grants"), count("noc-sim.flit_hops"));
    report.metric("noc-sim.va_grant_ratio", va / (va + count("noc-sim.va_blocked")));
    let lost = count("noc-sim.sa_conflicts") + count("noc-sim.sa_credit_starved");
    report.metric("noc-sim.sa_grant_ratio", sa / (sa + lost));

    // ... and per segment, with noc-analytic's error against the
    // simulated latency of the fixed part beside the speed
    let mut rel_err = Vec::new();
    for (((seg, live), &s), (per_hop, per_chunk)) in
        spec.segments.iter().zip(&lives).zip(&seeds).zip(medians)
    {
        let simulated = live.src.open_loop().latency.mean();
        report.metric(format!("noc-sim.{}.ns_per_flit_hop", seg.name), per_hop);
        report.metric(
            format!("noc-sim.{}.cycles_per_s", seg.name),
            seg.chunk as f64 * 1e9 / per_chunk,
        );
        report.metric(format!("noc-sim.{}.avg_latency_cycles", seg.name), simulated);
        let model =
            AnalyticModel::of(&net_config(seg, s), PatternKind::Uniform, SizeKind::Fixed(1))?;
        let predicted =
            if spec.loaded { model.latency_at(seg.load) } else { Some(model.zero_load_latency) };
        match predicted {
            Some(p) => rel_err.push((p - simulated).abs() / simulated),
            None => report
                .fail(1, format!("{}: load {} is past the model's saturation", seg.name, seg.load)),
        }
    }
    let name =
        if spec.loaded { "noc-analytic.latency_rel_err" } else { "noc-analytic.zero_load_rel_err" };
    report.metric(name, rel_err.iter().sum::<f64>() / rel_err.len().max(1) as f64);
    Ok(report)
}
