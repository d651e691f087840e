//! The resilience curve's plans: intermittent fault-and-repair
//! timelines swept over link MTBF/MTTR.
//!
//! Where [`DegradationConfig`](crate::DegradationConfig) asks *how much
//! is permanently lost* when k links die, this asks *how well the
//! fabric rides through outages that heal*: each plan is a
//! [`FlapConfig`]-sampled flapping timeline armed with the configured
//! recovery — end-to-end retransmission, link-level retry, both, or
//! neither — and [`fault_sweep`](crate::fault_sweep) runs each one and
//! settles until every transfer is delivered or abandoned.
//!
//! Plan `k` draws its flap seed from an independent family, so the
//! traffic stream of point `k` is unchanged by the recovery arms or the
//! axis, and output is bit-identical across runs and worker thread
//! counts (`NOC_THREADS=1` is the reference; see `tests/replay_prop.rs`).

use noc_exp::derive_seed;
use noc_openloop::OpenLoopConfig;
use noc_sim::error::ConfigError;
use noc_sim::network::fault::{FaultPlan, LinkRetryPolicy, RetxPolicy};

use crate::FlapConfig;

/// The resilience curve's plans: one flapping timeline per
/// `(mtbf, mttr)` axis entry.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// The measurement each point runs (traffic pattern, load,
    /// warmup/measure windows, base seed).
    pub base: OpenLoopConfig,
    /// Template flap scenario; each plan overrides `seed`, `mtbf`,
    /// and `mttr` but keeps `links`, `start`, `horizon`, and
    /// `corrupt_rate` from here.
    pub flap: FlapConfig,
    /// The sweep axis: `(mtbf, mttr)` pairs, one plan each.
    pub axis: Vec<(u64, u64)>,
    /// End-to-end retransmission policy every plan arms (`None`: off).
    pub retx: Option<RetxPolicy>,
    /// Link-level retry policy every plan arms (`None`: off).
    pub link_retry: Option<LinkRetryPolicy>,
}

impl ResilienceConfig {
    /// A sweep over `(mtbf, mttr)` pairs with both recovery mechanisms
    /// armed at their defaults, two flapping links, and the flap
    /// horizon pinned to the end of the measurement window (so every
    /// point ends healed before it settles).
    pub fn new(base: OpenLoopConfig, axis: Vec<(u64, u64)>) -> Self {
        let flap = FlapConfig {
            links: 2,
            start: 16,
            horizon: base.window_end(),
            corrupt_rate: 1e-3,
            ..FlapConfig::default()
        };
        Self {
            base,
            flap,
            axis,
            retx: Some(RetxPolicy::default()),
            link_retry: Some(LinkRetryPolicy::default()),
        }
    }

    /// One armed plan per axis entry: plan `k` is the timeline of
    /// `flap` with entry `k`'s MTBF/MTTR and a flap seed of its own
    /// family.
    ///
    /// # Errors
    /// The [`ConfigError`] of a `base` that fails
    /// [`OpenLoopConfig::validate`], before any link is enumerated, or
    /// of the first axis entry [`FlapConfig::validate`] refuses.
    pub fn plans(&self) -> Result<Vec<FaultPlan>, ConfigError> {
        self.base.validate()?;
        let topo = self.base.net.topology;
        let plan = |(k, &(mtbf, mttr)): (usize, &(u64, u64))| {
            let flap = FlapConfig {
                seed: derive_seed(self.base.net.seed, 0xf1a9_0000 + k as u64),
                mtbf,
                mttr,
                ..self.flap
            };
            Ok(FaultPlan { retx: self.retx, link_retry: self.link_retry, ..flap.plan(topo)? })
        };
        self.axis.iter().enumerate().map(plan).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fault_sweep, last_repair_cycle, link_availability, FaultPoint};
    use noc_exp::PointOutcome;
    use noc_openloop::MAX_WINDOW_CYCLES;
    use noc_sim::config::{NetConfig, TopologyKind};

    const SETTLE_MAX: u64 = 60_000;

    fn quick_cfg() -> ResilienceConfig {
        let base = OpenLoopConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            ..OpenLoopConfig::default()
        }
        .quick()
        .with_load(0.1);
        ResilienceConfig::new(base, vec![(400, 60)])
    }

    fn sweep(cfg: &ResilienceConfig) -> Result<Vec<PointOutcome<FaultPoint>>, ConfigError> {
        fault_sweep(&cfg.base, &cfg.plans()?, SETTLE_MAX)
    }

    /// The only point of a one-entry sweep, which must settle.
    fn only_point(cfg: &ResilienceConfig) -> FaultPoint {
        match &sweep(cfg).unwrap()[..] {
            [PointOutcome::Ok(p)] => p.clone(),
            out => panic!("point must succeed: {out:?}"),
        }
    }

    #[test]
    fn sweep_replays_bit_identically() {
        let cfg = ResilienceConfig { axis: vec![(300, 40), (600, 80), (1200, 160)], ..quick_cfg() };
        assert_eq!(sweep(&cfg), sweep(&cfg));
    }

    #[test]
    fn invalid_axis_is_one_error_before_any_point_runs() {
        let cfg = ResilienceConfig { axis: vec![(300, 40), (600, 0)], ..quick_cfg() };
        match cfg.plans() {
            Err(ConfigError::Parameter { name: "mttr", .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    /// A base whose window ends near `u64::MAX` is refused by its own
    /// validation, naming the window. A base at the window ceiling
    /// passes it, but its flap horizon still leaves the timeline
    /// unbounded: the plans refuse that one naming the horizon.
    #[test]
    fn an_unbounded_flap_horizon_is_refused() {
        let named = |r: Result<(), ConfigError>| match r {
            Err(ConfigError::Parameter { name, .. }) => name,
            other => panic!("{other:?}"),
        };
        let plans = |base| ResilienceConfig::new(base, vec![(400, 60)]).plans().map(drop);
        let past = OpenLoopConfig { warmup: u64::MAX - 10, ..quick_cfg().base };
        assert_eq!(named(past.validate()), "warmup");
        assert_eq!(named(plans(past)), "warmup");
        let ceiling = OpenLoopConfig { warmup: MAX_WINDOW_CYCLES, ..quick_cfg().base };
        assert_eq!(ceiling.validate(), Ok(()));
        assert_eq!(named(plans(ceiling)), "horizon");
    }

    #[test]
    fn invalid_armed_policy_is_one_error_before_any_point_runs() {
        let zero_timeout = RetxPolicy { timeout: 0, ..RetxPolicy::default() };
        let no_replays = LinkRetryPolicy { max_replays: 0, ..LinkRetryPolicy::default() };
        for (cfg, field) in [
            (ResilienceConfig { retx: Some(zero_timeout), ..quick_cfg() }, "retx.timeout"),
            (
                ResilienceConfig { retx: None, link_retry: Some(no_replays), ..quick_cfg() },
                "link_retry.max_replays",
            ),
        ] {
            match sweep(&cfg) {
                Err(ConfigError::Parameter { name, .. }) if name == field => {}
                other => panic!("{field}: {other:?}"),
            }
        }
    }

    #[test]
    fn recovery_arms_the_machinery_it_claims() {
        let cfg = quick_cfg();
        let (retx, link_retry) = (cfg.retx, cfg.link_retry);
        let run =
            |retx, link_retry| only_point(&ResilienceConfig { retx, link_retry, ..quick_cfg() });
        let none = run(None, None);
        let e2e = run(retx, None);
        let link = run(None, link_retry);
        let combined = run(retx, link_retry);
        assert_eq!((none.stats.retransmissions, none.stats.link_replays), (0, 0));
        assert_eq!(e2e.stats.link_replays, 0);
        assert_eq!(link.stats.retransmissions, 0);
        for p in [&none, &e2e, &link, &combined] {
            assert!(p.stats.epochs >= 2, "every outage closes at least two epochs");
        }
        let plan = &cfg.plans().unwrap()[0];
        let availability = link_availability(&plan.events, cfg.base.net.topology, cfg.flap.horizon);
        assert!(availability < 1.0, "the timeline must actually flap");
        // end-to-end recovery must deliver everything the no-recovery
        // run lost (survivor paths exist on a flapping 4x4 mesh)
        assert!(combined.delivered().is_complete());
        assert!(e2e.delivered().is_complete());
        assert!(combined.delivered().fraction() >= none.delivered().fraction());
    }

    #[test]
    fn flap_points_end_healed_with_full_delivery() {
        // the CI acceptance shape: an intermittent scenario with
        // combined recovery reaches delivered == started after the
        // final repair epoch
        let cfg = quick_cfg();
        let p = only_point(&cfg);
        assert!(p.delivered().is_complete(), "delivered {} after final repair", p.delivered());
        assert!(p.stats.epochs > 0, "the scenario must actually change the graph");
        let last_repair = last_repair_cycle(&cfg.plans().unwrap()[0].events);
        assert!(last_repair.is_some_and(|r| r < p.cycles), "settles after the last repair");
    }
}
