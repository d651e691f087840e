//! Resilience sweeps: availability, delivered fraction, and recovery
//! latency vs. link MTBF/MTTR under intermittent fault-and-repair
//! timelines.
//!
//! Where [`crate::sweep`] asks *how much is permanently lost* when k
//! links die, this module asks *how well the fabric rides through
//! outages that heal*: each point runs one gated open-loop measurement
//! against a [`FlapConfig`]-sampled flapping timeline and a selectable
//! [`RecoveryMode`] — end-to-end retransmission, link-level retry,
//! both, or neither — then settles until every transfer is delivered
//! or abandoned.
//!
//! Points run through [`noc_exp::run_grid_robust`] with the same seed
//! discipline as every other grid in the workspace: point `k` runs
//! [`OpenLoopConfig::point`]`(k, ..)` for traffic and draws its flap
//! seed from an independent family, so output is bit-identical across
//! runs and worker thread counts (`NOC_THREADS=1` is the reference;
//! see `tests/replay_prop.rs`).

use noc_exp::{derive_seed, run_grid_robust, Diverged, PointOutcome};
use noc_openloop::OpenLoopConfig;
use noc_sim::error::ConfigError;
use noc_sim::network::fault::{FaultPlan, LinkRetryPolicy, RetxPolicy};
use noc_sim::network::Network;
use noc_stats::Ratio;

use crate::sweep::run_gated;
use crate::{FaultSchedule, FlapConfig};

/// Which loss-recovery machinery a run arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// No recovery: losses stay lost (measures raw damage).
    None,
    /// End-to-end retransmission from the source NI ledger only.
    EndToEnd,
    /// Link-level retry (bounded replay from the per-link retry
    /// buffer) only; drops that exhaust the replay budget stay lost.
    LinkLevel,
    /// Both: link-level retry absorbs transient corruption, end-to-end
    /// retransmission covers replay exhaustion and outage swallows.
    Combined,
}

impl RecoveryMode {
    /// All modes, in presentation order.
    pub const ALL: [RecoveryMode; 4] = [
        RecoveryMode::None,
        RecoveryMode::EndToEnd,
        RecoveryMode::LinkLevel,
        RecoveryMode::Combined,
    ];

    /// Short stable label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryMode::None => "none",
            RecoveryMode::EndToEnd => "e2e",
            RecoveryMode::LinkLevel => "link",
            RecoveryMode::Combined => "combined",
        }
    }

    /// Split the mode into the two plan knobs it arms.
    pub fn split(
        &self,
        retx: RetxPolicy,
        link_retry: LinkRetryPolicy,
    ) -> (Option<RetxPolicy>, Option<LinkRetryPolicy>) {
        match self {
            RecoveryMode::None => (None, None),
            RecoveryMode::EndToEnd => (Some(retx), None),
            RecoveryMode::LinkLevel => (None, Some(link_retry)),
            RecoveryMode::Combined => (Some(retx), Some(link_retry)),
        }
    }
}

/// Configuration of a resilience sweep.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// The measurement each point runs (traffic pattern, load,
    /// warmup/measure windows, base seed).
    pub base: OpenLoopConfig,
    /// Template flap scenario; each point overrides `seed`, `mtbf`,
    /// and `mttr` but keeps `links`, `start`, `horizon`, and
    /// `corrupt_rate` from here.
    pub flap: FlapConfig,
    /// The sweep axis: `(mtbf, mttr)` pairs, one point each.
    pub axis: Vec<(u64, u64)>,
    /// Which recovery machinery every point arms.
    pub recovery: RecoveryMode,
    /// End-to-end retransmission policy (used by `EndToEnd`/`Combined`).
    pub retx: RetxPolicy,
    /// Link-level retry policy (used by `LinkLevel`/`Combined`).
    pub link_retry: LinkRetryPolicy,
    /// Settling budget past the measurement window before a point is
    /// declared diverged.
    pub settle_max: u64,
}

impl ResilienceConfig {
    /// A sweep over `(mtbf, mttr)` pairs with combined recovery, two
    /// flapping links, and the flap horizon pinned to the end of the
    /// measurement window (so every point ends healed before it
    /// settles).
    pub fn new(base: OpenLoopConfig, axis: Vec<(u64, u64)>) -> Self {
        let settle_max = base.drain_max;
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
            recovery: RecoveryMode::Combined,
            retx: RetxPolicy::default(),
            link_retry: LinkRetryPolicy::default(),
            settle_max,
        }
    }

    /// Switch the recovery mode.
    pub fn with_recovery(mut self, recovery: RecoveryMode) -> Self {
        self.recovery = recovery;
        self
    }
}

/// One point of a resilience curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePoint {
    /// Mean cycles between outages of a flapping link (the axis).
    pub mtbf: u64,
    /// Mean cycles to repair an outage (the axis).
    pub mttr: u64,
    /// Scheduled fraction of directed-channel-cycles up over the flap
    /// horizon (1.0 = no outage ever).
    pub availability: f64,
    /// Transfers delivered / transfers started, exact after settling.
    pub delivered: Ratio,
    /// End-to-end retransmissions performed.
    pub retransmissions: u64,
    /// Transfers abandoned (attempts exhausted, or unreachable with no
    /// repair left to wait for).
    pub abandoned: u64,
    /// Link-level replay rounds performed.
    pub link_replays: u64,
    /// Head flits lost even after exhausting the replay budget.
    pub replay_drops: u64,
    /// Topology epochs closed (fault/repair batches that changed the
    /// surviving graph).
    pub epochs: u64,
    /// Cycles from the last repair event until the run fully settled
    /// (0 when it settled before the last repair landed).
    pub recovery_cycles: u64,
    /// Average latency of marked (in-window) delivered packets.
    pub avg_latency: f64,
    /// Cycle-exact delivery digest of the run (determinism
    /// fingerprint; must not depend on worker thread count).
    pub digest: u64,
    /// Total cycles simulated, including settling.
    pub cycles: u64,
}

/// Evaluate resilience point `k` (one `(mtbf, mttr)` pair).
fn eval_point(
    cfg: &ResilienceConfig,
    k: usize,
) -> Result<Result<ResiliencePoint, ConfigError>, Diverged> {
    let (mtbf, mttr) = cfg.axis[k];
    let base = cfg.base.point(k, cfg.base.load);

    // flap scenarios draw from their own seed family, so the traffic
    // stream of point k is unchanged by the recovery mode or the axis
    let flap = FlapConfig {
        seed: derive_seed(cfg.base.net.seed, 0xf1a9_0000 + k as u64),
        mtbf,
        mttr,
        ..cfg.flap
    };
    let topo = base.net.topology;
    let built = FaultSchedule::try_generate_intermittent(&flap, topo)
        .and_then(|schedule| Ok((schedule, Network::new(base.net.clone())?)));
    let (schedule, mut net) = match built {
        Ok(built) => built,
        Err(e) => return Ok(Err(e)),
    };
    let last_repair = schedule.last_repair_cycle();
    let availability = schedule.link_availability(topo, flap.horizon);

    let (retx, link_retry) = cfg.recovery.split(cfg.retx, cfg.link_retry);
    if let Err(e) = net.set_fault_plan(schedule.plan(retx, link_retry)) {
        return Ok(Err(e));
    }
    let (net, b) = run_gated(net, &base, cfg.settle_max)?;

    let fs = net.fault_stats().expect("fault plan installed above").clone();
    Ok(Ok(ResiliencePoint {
        mtbf,
        mttr,
        availability,
        delivered: Ratio::new(fs.transfers_delivered, fs.transfers_started),
        retransmissions: fs.retransmissions,
        abandoned: fs.transfers_abandoned,
        link_replays: fs.link_replays,
        replay_drops: fs.replay_drops,
        epochs: fs.epochs,
        recovery_cycles: last_repair.map_or(0, |r| net.cycle().saturating_sub(r)),
        avg_latency: b.inner.latency.mean(),
        digest: net.stats().delivery_digest,
        cycles: net.cycle(),
    }))
}

/// Measure the resilience curve: one point per `(mtbf, mttr)` pair, in
/// parallel, each isolated by the robust grid. An invalid `base`, an
/// axis pair no flap timeline can use, or a corruption rate or armed
/// recovery policy no fault plan accepts is refused before any point
/// runs. Output is bit-identical across runs and thread counts.
pub fn resilience_sweep(
    cfg: &ResilienceConfig,
) -> Result<Vec<PointOutcome<ResiliencePoint>>, ConfigError> {
    cfg.base.validate()?;
    for &(mtbf, mttr) in &cfg.axis {
        FlapConfig { mtbf, mttr, ..cfg.flap }.validate()?;
    }
    // every point arms this plan, less its events; a policy the
    // recovery mode leaves off is not judged
    let (retx, link_retry) = cfg.recovery.split(cfg.retx, cfg.link_retry);
    FaultPlan { corrupt_rate: cfg.flap.corrupt_rate, retx, link_retry, ..FaultPlan::default() }
        .validate()?;
    let ks: Vec<usize> = (0..cfg.axis.len()).collect();
    let outcomes = run_grid_robust(&ks, |_, &k| eval_point(cfg, k));
    outcomes.into_iter().map(PointOutcome::transpose).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::{NetConfig, TopologyKind};

    fn quick_cfg(recovery: RecoveryMode) -> ResilienceConfig {
        let base = OpenLoopConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            ..OpenLoopConfig::default()
        }
        .quick()
        .with_load(0.1);
        ResilienceConfig { settle_max: 60_000, ..ResilienceConfig::new(base, vec![(400, 60)]) }
            .with_recovery(recovery)
    }

    #[test]
    fn sweep_replays_bit_identically() {
        let mut cfg = quick_cfg(RecoveryMode::Combined);
        cfg.axis = vec![(300, 40), (600, 80), (1200, 160)];
        assert_eq!(resilience_sweep(&cfg), resilience_sweep(&cfg));
    }

    #[test]
    fn invalid_axis_is_one_error_before_any_point_runs() {
        let mut cfg = quick_cfg(RecoveryMode::Combined);
        cfg.axis = vec![(300, 40), (600, 0)];
        match resilience_sweep(&cfg) {
            Err(ConfigError::Parameter { name: "mttr", .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_armed_policy_is_one_error_before_any_point_runs() {
        let zero_timeout = RetxPolicy { timeout: 0, ..RetxPolicy::default() };
        let no_replays = LinkRetryPolicy { max_replays: 0, ..LinkRetryPolicy::default() };
        let combined = quick_cfg(RecoveryMode::Combined);
        let link_level = quick_cfg(RecoveryMode::LinkLevel);
        for (cfg, field) in [
            (ResilienceConfig { retx: zero_timeout, ..combined }, "retx.timeout"),
            (
                ResilienceConfig { link_retry: no_replays, ..link_level.clone() },
                "link_retry.max_replays",
            ),
        ] {
            match resilience_sweep(&cfg) {
                Err(ConfigError::Parameter { name, .. }) if name == field => {}
                other => panic!("{field}: {other:?}"),
            }
        }
        // a policy the mode leaves off is not judged
        let out = resilience_sweep(&ResilienceConfig { retx: zero_timeout, ..link_level }).unwrap();
        assert!(matches!(out[..], [PointOutcome::Ok(_)]), "{out:?}");
    }

    #[test]
    fn recovery_modes_arm_the_machinery_they_claim() {
        let outcomes: Vec<_> = RecoveryMode::ALL
            .iter()
            .map(|&m| {
                let out = resilience_sweep(&quick_cfg(m)).unwrap();
                let PointOutcome::Ok(p) = out.into_iter().next().unwrap() else {
                    panic!("point must succeed for {m:?}")
                };
                (m, p)
            })
            .collect();
        for (m, p) in &outcomes {
            match m {
                RecoveryMode::None => {
                    assert_eq!(p.retransmissions, 0);
                    assert_eq!(p.link_replays, 0);
                }
                RecoveryMode::EndToEnd => assert_eq!(p.link_replays, 0),
                RecoveryMode::LinkLevel => assert_eq!(p.retransmissions, 0),
                RecoveryMode::Combined => {}
            }
            assert!(p.availability < 1.0, "the timeline must actually flap");
            assert!(p.epochs >= 2, "every outage closes at least two epochs");
        }
        // end-to-end recovery must deliver everything the no-recovery
        // run lost (survivor paths exist on a flapping 4x4 mesh)
        let by = |m: RecoveryMode| &outcomes.iter().find(|(x, _)| *x == m).unwrap().1;
        assert!(by(RecoveryMode::Combined).delivered.is_complete());
        assert!(by(RecoveryMode::EndToEnd).delivered.is_complete());
        assert!(
            by(RecoveryMode::Combined).delivered.fraction()
                >= by(RecoveryMode::None).delivered.fraction()
        );
    }

    #[test]
    fn flap_points_end_healed_with_full_delivery() {
        // the CI acceptance shape: an intermittent scenario with
        // combined recovery reaches delivered == started after the
        // final repair epoch
        let cfg = quick_cfg(RecoveryMode::Combined);
        let out = resilience_sweep(&cfg).unwrap();
        let PointOutcome::Ok(p) = &out[0] else { panic!("point must succeed: {out:?}") };
        assert!(p.delivered.is_complete(), "delivered {} after final repair", p.delivered);
        assert!(p.epochs > 0, "the scenario must actually change the graph");
    }
}
