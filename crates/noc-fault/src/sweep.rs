//! The fault sweep: one gated open-loop measurement per fault plan,
//! and the degradation curve's plans (metrics vs. number of failed
//! links).
//!
//! Each point runs the base measurement on a network carrying its
//! [`FaultPlan`], then *settles*: generation stops at the end of the
//! measurement window and the simulation steps until the network is
//! idle **and** the retransmission ledger has resolved every transfer
//! (delivered or abandoned). Only then is the delivered fraction exact
//! rather than a snapshot.
//!
//! An invalid base config, or a plan the simulator would refuse, is one
//! [`ConfigError`] before any point runs. Points run through
//! [`noc_exp::run_grid_robust`]: a scenario that panics the engine
//! reports `Panicked`, one that fails to settle within its settling
//! budget reports `Diverged`, and the rest of the curve survives.
//! Results are bit-identical across runs and thread counts — point `k`
//! always runs [`OpenLoopConfig::point`]`(k, ..)` for traffic under
//! plan `k`, whose fault seed the plan builders derive from their own
//! seed family, regardless of which worker evaluates it
//! (`NOC_THREADS=1` is the reference; see `tests/replay_prop.rs`).

use noc_exp::{derive_seed, run_grid_robust, Diverged, PointOutcome};
use noc_openloop::{OpenLoopBehavior, OpenLoopConfig};
use noc_sim::error::ConfigError;
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::fault::{validate_events, FaultPlan, FaultStats, RetxPolicy};
use noc_sim::network::{Network, NodeBehavior};
use noc_stats::Ratio;

use crate::FaultConfig;

/// The degradation curve's plans: permanent link failures, one plan
/// per failed-link count.
#[derive(Debug, Clone)]
pub struct DegradationConfig {
    /// The healthy-network measurement each point starts from (traffic
    /// pattern, load, warmup/measure windows, base seed).
    pub base: OpenLoopConfig,
    /// Cycle at which the permanent faults fire. Faults during warmup
    /// (`fail_at <= base.warmup`) measure the degraded steady state;
    /// mid-window faults measure the transition.
    pub fail_at: u64,
    /// The sweep axis: plans fail `0..=max_failed_links` links.
    pub max_failed_links: usize,
    /// Routers to fail-stop in every plan (usually 0; the sweep axis
    /// is links).
    pub router_failures: usize,
    /// Transient per-head-per-channel corruption probability.
    pub corrupt_rate: f64,
    /// End-to-end retransmission policy (`None`: lost packets stay
    /// lost and the delivered fraction measures raw damage).
    pub retx: Option<RetxPolicy>,
}

impl DegradationConfig {
    /// A sweep over `max_failed_links` with retransmission enabled and
    /// faults firing at the end of warmup.
    pub fn new(base: OpenLoopConfig, max_failed_links: usize) -> Self {
        let fail_at = base.warmup;
        Self {
            base,
            fail_at,
            max_failed_links,
            router_failures: 0,
            corrupt_rate: 0.0,
            retx: Some(RetxPolicy::default()),
        }
    }

    /// One plan per failed-link count `k` in `0..=max_failed_links`:
    /// plan `k` fails `k` links (and `router_failures` routers), drawn
    /// from a fault seed of its own family, so the traffic stream of
    /// point `k` is unchanged by turning faults on.
    ///
    /// # Errors
    /// The [`ConfigError`] of a `base` that fails
    /// [`OpenLoopConfig::validate`], before any link is enumerated.
    pub fn plans(&self) -> Result<Vec<FaultPlan>, ConfigError> {
        self.base.validate()?;
        let topo = self.base.net.topology;
        let plan = |k: usize| {
            let faults = FaultConfig {
                seed: derive_seed(self.base.net.seed, 0x0fa1_7000 + k as u64),
                link_failures: k,
                router_failures: self.router_failures,
                fail_at: self.fail_at,
                corrupt_rate: self.corrupt_rate,
            };
            FaultPlan { retx: self.retx, ..faults.plan(topo) }
        };
        Ok((0..=self.max_failed_links).map(plan).collect())
    }
}

/// One settled point of a fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// The fault layer's counters once every transfer resolved.
    pub stats: FaultStats,
    /// Average latency of marked (in-window) delivered packets.
    pub avg_latency: f64,
    /// Accepted throughput during the window (flits/cycle/node).
    pub throughput: f64,
    /// Cycle-exact delivery digest of the run (determinism fingerprint;
    /// must not depend on worker thread count).
    pub digest: u64,
    /// Total cycles simulated, including settling.
    pub cycles: u64,
}

impl FaultPoint {
    /// Transfers delivered / transfers started, exact after settling.
    pub fn delivered(&self) -> Ratio {
        Ratio::new(self.stats.transfers_delivered, self.stats.transfers_started)
    }
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

/// The run under every fault point: `base` traffic (its
/// [`OpenLoopConfig::source`]) on `net`, built from `base.net` and
/// carrying the point's fault plan, if any, generated until the end of
/// the measurement window, then stepped until the fabric is idle and
/// every transfer resolved — or `Diverged` once `settle_max` further
/// cycles have passed. Callers validate `base` first.
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
/// This is the single-scenario building block under [`fault_sweep`];
/// tests and tools that need a *specific* fault set (rather than a
/// seeded sweep axis) call it directly.
///
/// # Errors
/// The [`ConfigError`] of a `base` that fails
/// [`OpenLoopConfig::validate`] or of a `plan` that
/// [`Network::set_fault_plan`] refuses. A run that does not settle
/// within `settle_max` cycles past its window is `Ok(Err(Diverged))`.
pub fn run_faulted(
    base: &OpenLoopConfig,
    plan: FaultPlan,
    settle_max: u64,
) -> Result<Result<FaultPoint, Diverged>, ConfigError> {
    base.validate()?;
    let mut net = Network::new(base.net.clone())?;
    net.set_fault_plan(plan)?;
    let (net, b) = match run_gated(net, base, settle_max) {
        Ok(run) => run,
        Err(d) => return Ok(Err(d)),
    };
    let nodes = net.num_nodes();
    Ok(Ok(FaultPoint {
        stats: net.fault_stats().expect("fault plan installed above").clone(),
        avg_latency: b.inner.latency.mean(),
        throughput: b.inner.window_flits as f64 / base.measure as f64 / nodes as f64,
        digest: net.stats().delivery_digest,
        cycles: net.cycle(),
    }))
}

/// Run one point per plan, in parallel, each isolated by the robust
/// grid: point `k` runs [`OpenLoopConfig::point`]`(k, base.load)` under
/// `plans[k]` and settles within `settle_max` cycles past its window.
/// An invalid `base`, or a plan [`FaultPlan::validate`] or
/// [`validate_events`] (against `base.net.topology`) refuses, is one
/// [`ConfigError`] before any point runs. Output is bit-identical
/// across runs and thread counts.
pub fn fault_sweep(
    base: &OpenLoopConfig,
    plans: &[FaultPlan],
    settle_max: u64,
) -> Result<Vec<PointOutcome<FaultPoint>>, ConfigError> {
    base.validate()?;
    for plan in plans {
        plan.validate()?;
        validate_events(&plan.events, base.net.topology)?;
    }
    let outcomes = run_grid_robust(plans, |k, plan| {
        match run_faulted(&base.point(k, base.load), plan.clone(), settle_max) {
            Ok(point) => point.map(Ok),
            Err(e) => Ok(Err(e)),
        }
    });
    outcomes.into_iter().map(PointOutcome::transpose).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::{NetConfig, TopologyKind};

    const SETTLE_MAX: u64 = 60_000;

    fn quick_cfg(max_links: usize) -> DegradationConfig {
        let base = OpenLoopConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            ..OpenLoopConfig::default()
        }
        .quick()
        .with_load(0.1);
        DegradationConfig::new(base, max_links)
    }

    fn sweep(cfg: &DegradationConfig) -> Result<Vec<PointOutcome<FaultPoint>>, ConfigError> {
        fault_sweep(&cfg.base, &cfg.plans()?, SETTLE_MAX)
    }

    #[test]
    fn zero_fault_point_matches_healthy_engine_exactly() {
        // point 0 fails no links; its digest must equal a run of the
        // same seed with no fault plan installed at all (the fault layer
        // must be invisible until a fault actually exists)
        let cfg = quick_cfg(0);
        let out = sweep(&cfg).unwrap();
        let PointOutcome::Ok(p0) = &out[0] else { panic!("point 0 must succeed: {out:?}") };
        assert!(p0.delivered().is_complete());
        assert_eq!(p0.stats.transfers_abandoned, 0);
        assert_eq!(p0.stats.packets_dropped, 0);

        // healthy twin: same derived point seed, no fault plan at all
        let base = cfg.base.point(0, cfg.base.load);
        let net = Network::new(base.net.clone()).unwrap();
        let (net, _) = run_gated(net, &base, SETTLE_MAX).expect("healthy run settles");
        assert_eq!(p0.digest, net.stats().delivery_digest, "fault layer perturbed a healthy run");
    }

    #[test]
    fn sweep_replays_bit_identically() {
        let cfg = quick_cfg(3);
        assert_eq!(sweep(&cfg), sweep(&cfg));
    }

    #[test]
    fn invalid_base_is_one_error_before_any_point_runs() {
        let mut cfg = quick_cfg(3);
        cfg.base.measure = 0;
        match cfg.plans() {
            Err(ConfigError::Parameter { name: "measure", .. }) => {}
            other => panic!("{other:?}"),
        }
        match fault_sweep(&cfg.base, &[], SETTLE_MAX) {
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
            match sweep(&cfg) {
                Err(ConfigError::Parameter { name, .. }) if name == field => {}
                other => panic!("{field}: {other:?}"),
            }
        }
        // an event outside the topology, in the last plan only
        let cfg = quick_cfg(1);
        let mut plans = cfg.plans().unwrap();
        plans[1].events.push(noc_sim::FaultEvent::RouterFail { cycle: 1, router: 99 });
        match fault_sweep(&cfg.base, &plans, SETTLE_MAX) {
            Err(ConfigError::Parameter { name: "events", .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retransmission_recovers_everything_on_connected_survivors() {
        // 2 failed links leave a 4x4 mesh connected with very high
        // probability for the fixed scenario seed; retransmission must
        // then deliver every transfer
        for (k, o) in sweep(&quick_cfg(2)).unwrap().into_iter().enumerate() {
            let PointOutcome::Ok(p) = o else { panic!("unexpected outcome: {o:?}") };
            assert!(
                p.delivered().is_complete(),
                "k={k}: delivered {} with {} abandoned",
                p.delivered(),
                p.stats.transfers_abandoned
            );
        }
    }
}
