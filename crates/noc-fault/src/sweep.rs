//! Graceful-degradation sweeps: metrics vs. number of failed links.
//!
//! Each point of a degradation sweep runs one open-loop style
//! measurement on a network with `k` failed physical links (plus
//! optional router failures and transient corruption), then *settles*:
//! generation stops at the end of the measurement window and the
//! simulation steps until the network is idle **and** the
//! retransmission ledger has resolved every transfer (delivered or
//! abandoned). Only then is the delivered fraction exact rather than a
//! snapshot.
//!
//! An invalid base config, or a corruption rate or retransmission
//! policy no fault plan accepts, is one [`ConfigError`] before any
//! point runs. Points run through [`noc_exp::run_grid_robust`]: a
//! scenario that panics the engine reports `Panicked`, one that fails
//! to settle within [`DegradationConfig::settle_max`] reports
//! `Diverged`, and the rest of the curve survives. Results are
//! bit-identical across runs and thread counts — point `k` always runs
//! [`OpenLoopConfig::point`]`(k, ..)` for traffic and an independently
//! derived scenario seed for faults, regardless of which worker
//! evaluates it (`NOC_THREADS=1` is the reference; see
//! `tests/replay_prop.rs`).

use noc_exp::{derive_seed, run_grid_robust, Diverged, PointOutcome};
use noc_openloop::{OpenLoopBehavior, OpenLoopConfig};
use noc_sim::error::ConfigError;
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::fault::{FaultPlan, RetxPolicy};
use noc_sim::network::{Network, NodeBehavior};
use noc_stats::Ratio;

use crate::{FaultConfig, FaultSchedule};

/// Configuration of a degradation sweep.
#[derive(Debug, Clone)]
pub struct DegradationConfig {
    /// The healthy-network measurement each point starts from (traffic
    /// pattern, load, warmup/measure windows, base seed).
    pub base: OpenLoopConfig,
    /// Cycle at which the permanent faults fire. Faults during warmup
    /// (`fail_at <= base.warmup`) measure the degraded steady state;
    /// mid-window faults measure the transition.
    pub fail_at: u64,
    /// The sweep axis: points fail `0..=max_failed_links` links.
    pub max_failed_links: usize,
    /// Routers to fail-stop at every point (usually 0; the sweep axis
    /// is links).
    pub router_failures: usize,
    /// Transient per-head-per-channel corruption probability.
    pub corrupt_rate: f64,
    /// End-to-end retransmission policy (`None`: lost packets stay
    /// lost and the delivered fraction measures raw damage).
    pub retx: Option<RetxPolicy>,
    /// Settling budget: cycles past the measurement window a point may
    /// use to drain and resolve every transfer before it is declared
    /// diverged.
    pub settle_max: u64,
}

impl DegradationConfig {
    /// A sweep over `max_failed_links` with retransmission enabled and
    /// faults firing at the end of warmup.
    pub fn new(base: OpenLoopConfig, max_failed_links: usize) -> Self {
        let fail_at = base.warmup;
        let settle_max = base.drain_max;
        Self {
            base,
            fail_at,
            max_failed_links,
            router_failures: 0,
            corrupt_rate: 0.0,
            retx: Some(RetxPolicy::default()),
            settle_max,
        }
    }
}

/// One point of a degradation curve.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPoint {
    /// Physical links failed at this point (the sweep axis).
    pub failed_links: usize,
    /// Transfers delivered / transfers started, exact.
    pub delivered: Ratio,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Transfers abandoned (unreachable destination or attempts
    /// exhausted).
    pub abandoned: u64,
    /// Whole packets swallowed by faults.
    pub packets_dropped: u64,
    /// Average latency of marked (in-window) delivered packets.
    pub avg_latency: f64,
    /// Accepted throughput during the window (flits/cycle/node).
    pub throughput: f64,
    /// Cycle-exact delivery digest of the run (determinism fingerprint).
    pub digest: u64,
    /// Total cycles simulated, including settling.
    pub cycles: u64,
}

/// An open-loop source with a hard generation cutoff, so a degraded
/// run can settle: past `cutoff` no new packets are pulled and the
/// behavior reports quiescent. Built only by [`run_gated`].
pub(crate) struct GatedSource {
    pub(crate) inner: OpenLoopBehavior,
    cutoff: Cycle,
    /// Set by the first pull at or past the cutoff; until then the
    /// behavior must not report quiescent (the engine's quiescent-cycle
    /// fast-forward would skip generation cycles otherwise).
    done: bool,
}

impl NodeBehavior for GatedSource {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        if cycle >= self.cutoff {
            self.done = true;
            return None;
        }
        self.inner.pull(node, cycle)
    }

    fn deliver(&mut self, node: usize, d: &Delivered, cycle: Cycle) {
        self.inner.deliver(node, d, cycle);
    }

    fn quiescent(&self) -> bool {
        self.done // generation is bounded by the cutoff
    }
}

/// The run under every point of both sweeps: `base` traffic (its
/// [`OpenLoopConfig::source`]) on `net`, built from `base.net` and
/// carrying the point's fault plan, if any, generated until the end of
/// the measurement window, then stepped until the fabric is idle and
/// every transfer resolved — or `Diverged` once `settle_max` further
/// cycles have passed. Callers validate `base` first and assemble their
/// point from the returned network and source.
pub(crate) fn run_gated(
    mut net: Network,
    base: &OpenLoopConfig,
    settle_max: u64,
) -> Result<(Network, GatedSource), Diverged> {
    let cutoff = base.window_end();
    let inner = base.source();
    let mut b = GatedSource { inner, cutoff, done: false };

    net.run(cutoff, &mut b);
    // settle: drain the fabric and resolve every transfer
    let budget = cutoff.saturating_add(settle_max);
    while !(net.is_idle() && net.fault_settled()) {
        if net.cycle() >= budget {
            return Err(Diverged { budget });
        }
        net.step(&mut b);
    }
    Ok((net, b))
}

/// Run one faulted measurement: `base` traffic (seeded exactly by
/// `base.net.seed`) against an explicit fault `plan`, then settle.
///
/// This is the single-scenario building block under
/// [`degradation_sweep`]; tests and tools that need a *specific* fault
/// set (rather than a seeded sweep axis) call it directly.
/// `failed_links` only labels the returned point.
///
/// # Errors
/// The [`ConfigError`] of a `base` that fails
/// [`OpenLoopConfig::validate`] or of a `plan` that
/// [`Network::set_fault_plan`] refuses. A run that does not settle
/// within `settle_max` cycles past its window is `Ok(Err(Diverged))`.
pub fn run_faulted(
    base: &OpenLoopConfig,
    plan: FaultPlan,
    failed_links: usize,
    settle_max: u64,
) -> Result<Result<DegradationPoint, Diverged>, ConfigError> {
    base.validate()?;
    let mut net = Network::new(base.net.clone())?;
    net.set_fault_plan(plan)?;
    let (net, b) = match run_gated(net, base, settle_max) {
        Ok(run) => run,
        Err(d) => return Ok(Err(d)),
    };
    let nodes = net.num_nodes();
    let fs = net.fault_stats().expect("fault plan installed above").clone();
    Ok(Ok(DegradationPoint {
        failed_links,
        delivered: Ratio::new(fs.transfers_delivered, fs.transfers_started),
        retransmissions: fs.retransmissions,
        abandoned: fs.transfers_abandoned,
        packets_dropped: fs.packets_dropped,
        avg_latency: b.inner.latency.mean(),
        throughput: b.inner.window_flits as f64 / base.measure as f64 / nodes as f64,
        digest: net.stats().delivery_digest,
        cycles: net.cycle(),
    }))
}

/// Evaluate degradation point `k` (that many failed links).
fn eval_point(
    cfg: &DegradationConfig,
    k: usize,
) -> Result<Result<DegradationPoint, ConfigError>, Diverged> {
    // per-point traffic seed, as every other grid in this workspace
    let base = cfg.base.point(k, cfg.base.load);

    // the fault scenario draws from its own seed family so the traffic
    // stream of point k is unchanged by turning faults on
    let fault_cfg = FaultConfig {
        seed: derive_seed(cfg.base.net.seed, 0x0fa1_7000 + k as u64),
        link_failures: k,
        router_failures: cfg.router_failures,
        fail_at: cfg.fail_at,
        corrupt_rate: cfg.corrupt_rate,
    };
    let schedule = FaultSchedule::generate(&fault_cfg, base.net.topology);
    match run_faulted(&base, schedule.plan(cfg.retx, None), k, cfg.settle_max) {
        Ok(point) => point.map(Ok),
        Err(e) => Ok(Err(e)),
    }
}

/// Measure the degradation curve: one point per failed-link count in
/// `0..=max_failed_links`, in parallel, each isolated by the robust
/// grid. An invalid `base`, corruption rate or retransmission policy
/// is refused before any point runs. Output is bit-identical across
/// runs and thread counts.
pub fn degradation_sweep(
    cfg: &DegradationConfig,
) -> Result<Vec<PointOutcome<DegradationPoint>>, ConfigError> {
    cfg.base.validate()?;
    // every point arms this plan, less its events
    FaultPlan { corrupt_rate: cfg.corrupt_rate, retx: cfg.retx, ..FaultPlan::default() }
        .validate()?;
    let ks: Vec<usize> = (0..=cfg.max_failed_links).collect();
    let outcomes = run_grid_robust(&ks, |_, &k| eval_point(cfg, k));
    outcomes.into_iter().map(PointOutcome::transpose).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::{NetConfig, TopologyKind};

    fn quick_cfg(max_links: usize) -> DegradationConfig {
        let base = OpenLoopConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            ..OpenLoopConfig::default()
        }
        .quick()
        .with_load(0.1);
        DegradationConfig { settle_max: 60_000, ..DegradationConfig::new(base, max_links) }
    }

    #[test]
    fn zero_fault_point_matches_healthy_engine_exactly() {
        // point 0 fails no links; its digest must equal a run of the
        // same seed with no fault plan installed at all (the fault layer
        // must be invisible until a fault actually exists)
        let cfg = quick_cfg(0);
        let out = degradation_sweep(&cfg).unwrap();
        let PointOutcome::Ok(p0) = &out[0] else { panic!("point 0 must succeed: {out:?}") };
        assert!(p0.delivered.is_complete());
        assert_eq!(p0.abandoned, 0);
        assert_eq!(p0.packets_dropped, 0);

        // healthy twin: same derived point seed, no fault plan at all
        let base = cfg.base.point(0, cfg.base.load);
        let net = Network::new(base.net.clone()).unwrap();
        let (net, _) = run_gated(net, &base, cfg.settle_max).expect("healthy run settles");
        assert_eq!(p0.digest, net.stats().delivery_digest, "fault layer perturbed a healthy run");
    }

    #[test]
    fn sweep_replays_bit_identically() {
        let cfg = quick_cfg(3);
        assert_eq!(degradation_sweep(&cfg), degradation_sweep(&cfg));
    }

    #[test]
    fn invalid_base_is_one_error_before_any_point_runs() {
        let mut cfg = quick_cfg(3);
        cfg.base.measure = 0;
        match degradation_sweep(&cfg) {
            Err(ConfigError::Parameter { name: "measure", .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_plan_is_one_error_before_any_point_runs() {
        let zero_timeout = RetxPolicy { timeout: 0, ..RetxPolicy::default() };
        for (cfg, field) in [
            (DegradationConfig { corrupt_rate: f64::NAN, ..quick_cfg(3) }, "corrupt_rate"),
            (DegradationConfig { corrupt_rate: 2.0, ..quick_cfg(3) }, "corrupt_rate"),
            (DegradationConfig { retx: Some(zero_timeout), ..quick_cfg(3) }, "retx.timeout"),
        ] {
            match degradation_sweep(&cfg) {
                Err(ConfigError::Parameter { name, .. }) if name == field => {}
                other => panic!("{field}: {other:?}"),
            }
        }
    }

    #[test]
    fn retransmission_recovers_everything_on_connected_survivors() {
        // 2 failed links leave a 4x4 mesh connected with very high
        // probability for the fixed scenario seed; retransmission must
        // then deliver every transfer
        let cfg = quick_cfg(2);
        for o in degradation_sweep(&cfg).unwrap() {
            let PointOutcome::Ok(p) = o else { panic!("unexpected outcome: {o:?}") };
            assert!(
                p.delivered.is_complete(),
                "k={}: delivered {} with {} abandoned",
                p.failed_links,
                p.delivered,
                p.abandoned
            );
        }
    }
}
