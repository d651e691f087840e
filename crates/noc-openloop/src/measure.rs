//! Single-point open-loop measurement.

use noc_exp::robust::Diverged;
use noc_sim::config::NetConfig;
use noc_sim::error::ConfigError;
use noc_sim::flit::Cycle;
use noc_sim::network::Network;
use noc_traffic::{Bernoulli, PatternKind, SizeKind};

use crate::behavior::OpenLoopBehavior;

/// One open-loop experiment point.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Network configuration.
    pub net: NetConfig,
    /// Spatial traffic pattern.
    pub pattern: PatternKind,
    /// Packet size distribution.
    pub size: SizeKind,
    /// Offered load in flits/cycle/node.
    pub load: f64,
    /// Warmup cycles before measurement.
    pub warmup: u64,
    /// Measurement window in cycles.
    pub measure: u64,
    /// Maximum drain cycles after the window.
    pub drain_max: u64,
    /// Retain raw latency samples for exact percentiles (p50/p95/p99 in
    /// the result); costs memory proportional to measured packets.
    pub percentiles: bool,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::baseline(),
            pattern: PatternKind::Uniform,
            size: SizeKind::Fixed(1),
            load: 0.1,
            warmup: 10_000,
            measure: 20_000,
            drain_max: 100_000,
            percentiles: false,
        }
    }
}

impl OpenLoopConfig {
    /// Set the offered load (flits/cycle/node).
    pub fn with_load(mut self, load: f64) -> Self {
        self.load = load;
        self
    }

    /// Quick preset for unit tests: short windows.
    pub fn quick(mut self) -> Self {
        self.warmup = 1_000;
        self.measure = 3_000;
        self.drain_max = 20_000;
        self
    }

    /// Point `index` of a grid built on `self`: `self` at `load`, with
    /// the RNG seed derived from `(net.seed, index)` so points are
    /// decorrelated and independent of evaluation order.
    pub fn point(&self, index: usize, load: f64) -> Self {
        let mut cfg = self.clone().with_load(load);
        cfg.net.seed = noc_exp::derive_seed(self.net.seed, index as u64);
        cfg
    }

    /// Cycle at which the measurement window closes (saturating: a
    /// window near `u64::MAX` ends there instead of wrapping).
    pub fn window_end(&self) -> Cycle {
        self.warmup.saturating_add(self.measure)
    }

    /// Every rule a measurement of `self` must pass: a valid network, a
    /// pattern defined on its topology, packets of at least one flit, a
    /// load that is non-negative and needs a per-node generation
    /// probability of at most 1, and a non-empty measurement window.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.net.validate()?;
        self.pattern.validate(&self.net.topology)?;
        self.size.validate()?;
        let (load, mean) = (self.load, self.size.mean());
        let p = load / mean;
        let (name, why) = if load < 0.0 {
            ("load", format!("load {load} is negative; offered load is flits/cycle/node, >= 0"))
        } else if p.is_nan() || p > 1.0 {
            (
                "load",
                format!(
                    "load {load} with mean packet size {mean} needs generation probability {p} > 1"
                ),
            )
        } else if self.measure == 0 {
            (
                "measure",
                "measurement window must be >= 1 cycle; throughput over an empty window is 0/0"
                    .into(),
            )
        } else {
            return Ok(());
        };
        Err(ConfigError::Parameter { name, why })
    }

    /// [`OpenLoopConfig::validate`] under a hard cycle budget: a zero
    /// budget is refused too, since it could never complete the warmup.
    pub fn validate_budgeted(&self, cycle_budget: u64) -> Result<(), ConfigError> {
        if cycle_budget > 0 {
            return self.validate();
        }
        let why = "cycle budget must be >= 1; a zero budget can never complete the warmup";
        Err(ConfigError::Parameter { name: "cycle_budget", why: why.into() })
    }

    /// The open-loop source of this point on a network of `nodes` nodes
    /// and radix `radix`: Bernoulli generation at `load / mean packet
    /// size` per node per cycle, seeded from `net.seed`, marking packets
    /// generated in `[warmup, window_end())`. Call
    /// [`OpenLoopConfig::validate`] first.
    pub fn source(&self, nodes: usize, radix: usize) -> OpenLoopBehavior {
        let p = self.load / self.size.mean();
        let mut b = OpenLoopBehavior::new(
            nodes,
            self.pattern.build(nodes, radix),
            self.size.build(),
            || Box::new(Bernoulli { p }),
            self.net.seed,
            self.warmup,
            self.window_end(),
        );
        if self.percentiles {
            b.keep_samples();
        }
        b
    }
}

/// Result of one open-loop measurement.
#[derive(Debug, Clone)]
pub struct OpenLoopResult {
    /// Offered load (flits/cycle/node).
    pub offered: f64,
    /// Average latency of marked packets (cycles).
    pub avg_latency: f64,
    /// Maximum marked-packet latency observed.
    pub max_latency: f64,
    /// Per-source-node average latency.
    pub node_avg_latency: Vec<f64>,
    /// Worst per-node average latency (the paper's "worst-case"
    /// open-loop statistic, Fig 8).
    pub worst_node_latency: f64,
    /// Accepted throughput during the window (flits/cycle/node).
    pub throughput: f64,
    /// Latency percentiles `(p50, p95, p99)` when
    /// [`OpenLoopConfig::percentiles`] was set.
    pub latency_percentiles: Option<(f64, f64, f64)>,
    /// 95% confidence half-width on the average latency.
    pub latency_ci95: f64,
    /// Average source-queue wait (generation to injection) — queueing
    /// the infinite source queue absorbs; grows without bound past
    /// saturation.
    pub avg_queue_time: f64,
    /// Average in-network time (injection to tail delivery).
    pub avg_network_time: f64,
    /// Ratio of the most-loaded channel's flit count to the mean over
    /// used channels — the load-imbalance signature that separates DOR
    /// from load-balanced routing under permutations.
    pub channel_imbalance: f64,
    /// Number of marked packets measured.
    pub measured_packets: u64,
    /// True when every marked packet was delivered before the drain cap.
    pub drained: bool,
    /// True when the point is below saturation: all marked packets
    /// drained *and* accepted throughput tracks the offered load (within
    /// 10%). Past saturation the network accepts less than offered.
    pub stable: bool,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Observability snapshot, present iff the network config enabled
    /// metrics collection ([`NetConfig::with_metrics`]).
    pub metrics: Option<noc_sim::MetricsSnapshot>,
}

/// Analytic zero-load latency lower bound for a single-flit packet at
/// the average minimal distance: `H_avg * (t_r + t_link) + t_r`.
pub fn zero_load_latency_bound(cfg: &NetConfig) -> f64 {
    let topo = cfg.topology.build();
    let h = topo.avg_min_hops();
    // link delay is uniform across our topologies
    let t_link = topo.link_delay(0, 1) as f64;
    let tr = cfg.router_delay as f64;
    h * (tr + t_link) + tr
}

/// Run one open-loop measurement.
///
/// The offered `load` is in flits/cycle/node; the per-node packet
/// generation probability is `load / mean_packet_size`.
pub fn measure(cfg: &OpenLoopConfig) -> Result<OpenLoopResult, ConfigError> {
    cfg.validate()?;
    match measure_impl(cfg, None)? {
        Ok(r) => Ok(r),
        Err(d) => unreachable!("no cycle budget was set, yet the point diverged at {}", d.budget),
    }
}

/// Run one open-loop measurement under a hard cycle budget — the
/// watchdog the evaluation service relies on to turn a stuck point into
/// a typed outcome instead of a silent hang.
///
/// The budget bounds **total simulated cycles**. A zero budget is a
/// [`ConfigError`] (it could never complete even the warmup); a budget
/// too small to fit `warmup + measure`, or exhausted while draining
/// marked packets, yields `Ok(Err(Diverged))` carrying the budget that
/// was exceeded so the caller can journal, report, or retry it.
pub fn measure_budgeted(
    cfg: &OpenLoopConfig,
    cycle_budget: u64,
) -> Result<Result<OpenLoopResult, Diverged>, ConfigError> {
    cfg.validate_budgeted(cycle_budget)?;
    measure_impl(cfg, Some(cycle_budget))
}

/// Run a point `cfg.validate()` accepted.
fn measure_impl(
    cfg: &OpenLoopConfig,
    budget: Option<u64>,
) -> Result<Result<OpenLoopResult, Diverged>, ConfigError> {
    let mut net = Network::new(cfg.net.clone())?;
    let nodes = net.num_nodes();
    let mut b = cfg.source(nodes, net.topo().radix(0));
    let window_end = cfg.window_end();
    // no budget is a budget no run reaches; a window that cannot fit the
    // budget diverges before the first step, not a config error (grids
    // legitimately mix window sizes against one service-wide budget)
    let limit = budget.unwrap_or(u64::MAX);
    if window_end > limit {
        return Ok(Err(Diverged { budget: limit }));
    }
    net.run(window_end, &mut b);
    let drain_end = window_end.saturating_add(cfg.drain_max);
    while b.marked_outstanding > 0 && net.cycle() < drain_end {
        if net.cycle() >= limit {
            return Ok(Err(Diverged { budget: limit }));
        }
        net.step(&mut b);
    }
    let drained = b.marked_outstanding == 0;

    let node_avg_latency: Vec<f64> = b.node_latency.iter().map(|s| s.mean()).collect();
    let worst = node_avg_latency.iter().cloned().fold(0.0, f64::max);
    let throughput = b.window_flits as f64 / cfg.measure as f64 / nodes as f64;
    let latency_percentiles = cfg.percentiles.then(|| {
        (
            b.samples.percentile(50.0).unwrap_or(0.0),
            b.samples.percentile(95.0).unwrap_or(0.0),
            b.samples.percentile(99.0).unwrap_or(0.0),
        )
    });
    let loads: Vec<u64> = net.link_loads().iter().map(|&(_, c)| c).filter(|&c| c > 0).collect();
    let channel_imbalance = if loads.is_empty() {
        0.0
    } else {
        let max = *loads.iter().max().expect("nonempty") as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        max / mean
    };
    Ok(Ok(OpenLoopResult {
        offered: cfg.load,
        avg_latency: b.latency.mean(),
        max_latency: b.latency.max().unwrap_or(0.0),
        worst_node_latency: worst,
        node_avg_latency,
        throughput,
        latency_percentiles,
        latency_ci95: b.latency.ci95_half_width(),
        avg_queue_time: b.queue_time.mean(),
        avg_network_time: b.network_time.mean(),
        channel_imbalance,
        measured_packets: b.latency.count(),
        drained,
        stable: drained && throughput >= 0.9 * cfg.load,
        cycles: net.cycle(),
        metrics: net.metrics_snapshot(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::TopologyKind;

    fn quick(load: f64) -> OpenLoopConfig {
        OpenLoopConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            ..OpenLoopConfig::default()
        }
        .quick()
        .with_load(load)
    }

    #[test]
    fn low_load_latency_near_zero_load_bound() {
        let cfg = quick(0.05);
        let r = measure(&cfg).unwrap();
        assert!(r.stable);
        let t0 = zero_load_latency_bound(&cfg.net);
        assert!(r.avg_latency >= t0 * 0.8, "{} vs bound {t0}", r.avg_latency);
        assert!(r.avg_latency <= t0 * 1.8, "{} vs bound {t0}", r.avg_latency);
    }

    #[test]
    fn throughput_tracks_offered_below_saturation() {
        let r = measure(&quick(0.2)).unwrap();
        assert!(r.stable);
        assert!((r.throughput - 0.2).abs() < 0.03, "throughput = {}", r.throughput);
    }

    #[test]
    fn latency_monotone_in_load() {
        let lo = measure(&quick(0.05)).unwrap();
        let mid = measure(&quick(0.25)).unwrap();
        assert!(mid.avg_latency > lo.avg_latency);
    }

    #[test]
    fn overload_is_flagged_unstable() {
        // 4x4 mesh saturates well below 0.9 flits/cycle/node
        let r = measure(&quick(0.9)).unwrap();
        assert!(!r.stable);
    }

    #[test]
    fn impossible_load_rejected() {
        let mut cfg = quick(1.5);
        cfg.size = SizeKind::Fixed(1);
        let err = measure(&cfg).unwrap_err();
        assert!(err.to_string().contains("> 1"), "{err}");
    }

    #[test]
    fn negative_load_rejected_with_negative_message() {
        // regression: the rejection message used to claim "generation
        // probability > 1" even when the load was negative
        let err = measure(&quick(-0.1)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("negative"), "{msg}");
        assert!(!msg.contains("> 1"), "{msg}");
    }

    #[test]
    fn zero_flit_packets_rejected() {
        // regression: a bimodal mix with a 0-flit length has a positive
        // mean, so it used to pass and then panic the engine's one-flit
        // assert on the first short packet
        let mut cfg = quick(0.1);
        cfg.size = SizeKind::Bimodal { short: 0, long: 4, p_long: 0.5 };
        let err = measure(&cfg).unwrap_err();
        assert!(matches!(err, ConfigError::Parameter { name: "packet_size", .. }), "{err}");
    }

    #[test]
    fn empty_measurement_window_rejected() {
        // regression: `measure: 0` used to simulate the warmup and
        // report `throughput: NaN` (0 flits / 0 cycles)
        let mut cfg = quick(0.1);
        cfg.measure = 0;
        let err = measure(&cfg).unwrap_err();
        assert!(matches!(err, ConfigError::Parameter { name: "measure", .. }), "{err}");
    }

    #[test]
    fn per_node_latencies_populated() {
        let r = measure(&quick(0.1)).unwrap();
        assert_eq!(r.node_avg_latency.len(), 16);
        assert!(r.worst_node_latency >= r.avg_latency);
        assert!(r.node_avg_latency.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn latency_decomposes_into_queue_plus_network() {
        let r = measure(&quick(0.2)).unwrap();
        assert!(
            (r.avg_queue_time + r.avg_network_time - r.avg_latency).abs() < 1e-9,
            "{} + {} != {}",
            r.avg_queue_time,
            r.avg_network_time,
            r.avg_latency
        );
        // at moderate load most of the time is in the network
        assert!(r.avg_network_time > r.avg_queue_time);
        // past saturation the source queue dominates
        let over = measure(&quick(0.9)).unwrap();
        assert!(over.avg_queue_time > over.avg_network_time);
    }

    #[test]
    fn percentiles_available_when_requested() {
        let mut cfg = quick(0.1);
        cfg.percentiles = true;
        let r = measure(&cfg).unwrap();
        let (p50, p95, p99) = r.latency_percentiles.unwrap();
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99);
        assert!(p99 >= r.avg_latency, "tail above mean");
        assert!(r.latency_ci95 > 0.0);
        // without the flag, no samples are kept
        let r2 = measure(&quick(0.1)).unwrap();
        assert!(r2.latency_percentiles.is_none());
    }

    #[test]
    fn metrics_snapshot_rides_along_when_enabled() {
        let mut cfg = quick(0.2);
        cfg.net = cfg.net.with_metrics(128);
        let r = measure(&cfg).unwrap();
        let snap = r.metrics.expect("metrics enabled must yield a snapshot");
        snap.check_conservation().expect("channel totals must equal the link ledger");
        assert!(snap.link_flits > 0);
        assert_eq!(snap.cycles, r.cycles);
        // the collector ran from cycle 0, so every channel's binned
        // series must account for its full ledger total
        for c in &snap.channels {
            assert_eq!(c.flits.total() as u64, c.total, "channel {}:{}", c.src, c.port);
        }
        // occupancy was sampled every cycle on every router
        assert!(snap.routers.iter().all(|r| r.occupancy.count() == snap.cycles));
        // without the flag, no snapshot is allocated
        let r2 = measure(&quick(0.2)).unwrap();
        assert!(r2.metrics.is_none());
    }

    #[test]
    fn channel_imbalance_distinguishes_patterns() {
        // uniform random spreads load; transpose concentrates it on a few
        // dimension-crossing channels under DOR
        let uni = quick(0.1);
        let mut tp = quick(0.1);
        tp.pattern = PatternKind::Transpose;
        let ru = measure(&uni).unwrap();
        let rt = measure(&tp).unwrap();
        assert!(ru.channel_imbalance >= 1.0);
        assert!(
            rt.channel_imbalance > ru.channel_imbalance,
            "transpose {} should be more imbalanced than uniform {}",
            rt.channel_imbalance,
            ru.channel_imbalance
        );
    }

    #[test]
    fn zero_cycle_budget_is_a_config_error() {
        let err = measure_budgeted(&quick(0.1), 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cycle_budget"), "{msg}");
        assert!(msg.contains(">= 1"), "{msg}");
    }

    #[test]
    fn budget_smaller_than_the_window_diverges_immediately() {
        // quick() uses warmup=1000, measure=3000: a 100-cycle budget can
        // never fit the window
        let d = measure_budgeted(&quick(0.1), 100).unwrap().unwrap_err();
        assert_eq!(d, Diverged { budget: 100 }, "Diverged must carry the exceeded budget");
    }

    #[test]
    fn budget_exhausted_during_drain_diverges() {
        // past saturation the drain phase runs long; a budget just past
        // the window end trips the watchdog inside the drain loop
        let d = measure_budgeted(&quick(0.9), 4_500).unwrap().unwrap_err();
        assert_eq!(d.budget, 4_500);
    }

    #[test]
    fn generous_budget_is_bit_identical_to_unbudgeted() {
        let cfg = quick(0.2);
        let plain = measure(&cfg).unwrap();
        let budgeted = measure_budgeted(&cfg, 1_000_000).unwrap().unwrap();
        assert_eq!(plain.avg_latency.to_bits(), budgeted.avg_latency.to_bits());
        assert_eq!(plain.throughput.to_bits(), budgeted.throughput.to_bits());
        assert_eq!(plain.measured_packets, budgeted.measured_packets);
        assert_eq!(plain.cycles, budgeted.cycles);
    }

    #[test]
    fn zero_load_bound_scales_with_tr() {
        let base = zero_load_latency_bound(&NetConfig::baseline());
        let tr2 = zero_load_latency_bound(&NetConfig::baseline().with_router_delay(2));
        let tr4 = zero_load_latency_bound(&NetConfig::baseline().with_router_delay(4));
        // paper: ratios ~1.5 and ~2.5 (channel delay added per hop keeps
        // the ratio below 2x/4x); exact value depends on the ejection
        // pipeline accounting, so allow a modest band
        assert!((tr2 / base - 1.5).abs() < 0.1, "{}", tr2 / base);
        assert!((tr4 / base - 2.55).abs() < 0.15, "{}", tr4 / base);
    }
}
