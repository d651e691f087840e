//! # noc-fault — deterministic fault injection and graceful degradation
//!
//! The paper's scenarios all assume a perfect fabric; this crate asks
//! the next question — *what does the latency/throughput curve look
//! like when links or routers die?* A fault scenario is one object, the
//! simulator's [`FaultPlan`], and every sweep runs a list of them:
//!
//! * [`FaultConfig::plan`] and [`FlapConfig::plan`]: seeded, replayable
//!   plan generators. From a `(seed, topology)` pair they sample which
//!   physical channels and routers fail (SplitMix64-derived sub-seeds
//!   per decision family, so link choice, router choice, and transient
//!   corruption draw from independent deterministic streams). Same
//!   seed, same topology ⇒ bit-identical events, always.
//!   [`FaultConfig`] describes permanent fail-stop scenarios;
//!   [`FlapConfig`] describes *intermittent* fault-and-repair
//!   timelines: a set of flapping links, each cycling down/up from an
//!   independent per-link sub-seed, with every outage repaired before
//!   the horizon. Both leave recovery off; a caller arms it with struct
//!   update (`FaultPlan { retx, link_retry, ..flap.plan(topo)? }`).
//! * [`fault_sweep`]: the one runner. Point `k` runs the base traffic
//!   of point `k` under the `k`-th plan and settles, through `noc-exp`'s
//!   crash-proof grid, so a pathological fault scenario reports
//!   [`noc_exp::PointOutcome::Diverged`] instead of hanging the sweep.
//!   Every point is a [`FaultPoint`].
//! * [`DegradationConfig`] and [`ResilienceConfig`]: the two curves'
//!   plan lists — permanent failures vs. the number of failed links,
//!   and flapping links vs. MTBF/MTTR under any of end-to-end
//!   retransmission, link-level retry, both, or neither.
//!
//! The simulator-side fault semantics (what a dead channel does to
//! flits, credits, and the sanitizer's conservation laws) live in
//! [`noc_sim::network::fault`]; the static counterpart (certifying
//! that a surviving topology is still routable, over the same
//! `FaultLedger` and `SurvivorTable` the engine reroutes by) is
//! `noc_verify::check_fault_connectivity`, which returns the
//! simulator's `ConfigError` for an event outside the topology.

#![warn(missing_docs)]

pub mod resilience;
pub mod sweep;

pub use resilience::ResilienceConfig;
pub use sweep::{fault_sweep, run_faulted, DegradationConfig, FaultPoint};

use noc_sim::config::TopologyKind;
use noc_sim::error::ConfigError;
use noc_sim::network::fault::{FaultEvent, FaultPlan};
use noc_sim::rng::SimRng;

/// What to break, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault scenario (independent of the traffic seed).
    pub seed: u64,
    /// Physical (bidirectional) links to fail; both directions die.
    pub link_failures: usize,
    /// Routers to fail-stop (their incident links die too).
    pub router_failures: usize,
    /// Cycle at which every permanent fault fires.
    pub fail_at: u64,
    /// Transient per-head-per-channel corruption probability.
    pub corrupt_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self { seed: 1, link_failures: 0, router_failures: 0, fail_at: 0, corrupt_rate: 0.0 }
    }
}

impl FaultConfig {
    /// Sample a permanent scenario for `topo` from `self.seed`, with no
    /// recovery armed.
    ///
    /// Physical links are enumerated in deterministic `(router, port)`
    /// order, deduplicated to one entry per bidirectional pair, and
    /// sampled by a partial Fisher–Yates shuffle; routers are sampled
    /// the same way from an independent sub-seed. Requests for more
    /// failures than exist are clamped to "all of them". The events
    /// list both directions of each failed link, then the routers.
    pub fn plan(&self, topo: TopologyKind) -> FaultPlan {
        let mut edges = physical_links(topo);
        let picks =
            sample_front(&mut edges, self.link_failures, noc_exp::derive_seed(self.seed, 0));
        let mut routers: Vec<usize> = (0..topo.num_nodes()).collect();
        let rpicks =
            sample_front(&mut routers, self.router_failures, noc_exp::derive_seed(self.seed, 1));

        let mut events = Vec::with_capacity(2 * picks + rpicks);
        for &(r, p, v, vp) in &edges[..picks] {
            events.push(FaultEvent::LinkFail { cycle: self.fail_at, router: r, port: p });
            events.push(FaultEvent::LinkFail { cycle: self.fail_at, router: v, port: vp });
        }
        for &r in &routers[..rpicks] {
            events.push(FaultEvent::RouterFail { cycle: self.fail_at, router: r });
        }
        unarmed_plan(events, self.corrupt_rate, self.seed)
    }
}

/// Most outages a valid [`FlapConfig`] can schedule, counted at the
/// worst case: every flapping link's outages each last the minimum 2
/// cycles (one down, one up), so `links * (horizon - start) / 2` of
/// them fit. Each outage is four 32-byte events (on 64-bit targets), so
/// this bounds a generated plan to 128 MiB and its generation loop to
/// as many draws; real timelines, with means of hundreds of cycles,
/// are orders of magnitude smaller.
pub const MAX_FLAP_OUTAGES: u64 = 1 << 20;

/// An intermittent ("flapping") fault scenario: which links flap, how
/// often, and for how long.
///
/// Each flapping link cycles down/up from its own SplitMix64-derived
/// sub-seed. Down/up interval lengths are uniform on `1..=2*mtbf` and
/// `1..=2*mttr` respectively (so the configured values are the means),
/// and a link only goes down when its repair also lands strictly
/// before `horizon` — every generated timeline ends with the fabric
/// fully healed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapConfig {
    /// Seed of the fault scenario (independent of the traffic seed).
    pub seed: u64,
    /// Number of physical (bidirectional) links that flap.
    pub links: usize,
    /// Mean up-time between outages, in cycles (≥ 1).
    pub mtbf: u64,
    /// Mean time to repair an outage, in cycles (≥ 1).
    pub mttr: u64,
    /// No link goes down before this cycle.
    pub start: u64,
    /// Every repair lands strictly before this cycle (> `start`).
    pub horizon: u64,
    /// Transient per-head-per-channel corruption probability.
    pub corrupt_rate: f64,
}

impl Default for FlapConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            links: 1,
            mtbf: 2_000,
            mttr: 200,
            start: 100,
            horizon: 20_000,
            corrupt_rate: 0.0,
        }
    }
}

impl FlapConfig {
    /// Reject parameter values that cannot describe a timeline, or
    /// whose timeline could overflow a cycle count or schedule more
    /// than [`MAX_FLAP_OUTAGES`] outages.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.mtbf == 0 {
            return Err(ConfigError::Parameter { name: "mtbf", why: "must be >= 1 cycle".into() });
        }
        if self.mttr == 0 {
            return Err(ConfigError::Parameter { name: "mttr", why: "must be >= 1 cycle".into() });
        }
        if self.horizon <= self.start {
            return Err(ConfigError::Parameter {
                name: "horizon",
                why: format!("horizon {} must exceed start {}", self.horizon, self.start),
            });
        }
        if !self.corrupt_rate.is_finite() || !(0.0..=1.0).contains(&self.corrupt_rate) {
            return Err(ConfigError::Parameter {
                name: "corrupt_rate",
                why: format!("{} is not a probability", self.corrupt_rate),
            });
        }
        // an interval is drawn below twice its mean, and the last draw
        // starts before `horizon`: every cycle computed is below
        // `horizon + 2 * mtbf + 2 * mttr`
        let span = |name, mean: u64| {
            let span = mean.checked_mul(2).filter(|&w| usize::try_from(w).is_ok());
            span.ok_or_else(|| ConfigError::Parameter {
                name,
                why: format!("{mean} cycles overflows the interval draw"),
            })
        };
        let (up, down) = (span("mtbf", self.mtbf)?, span("mttr", self.mttr)?);
        if self.horizon.checked_add(up).and_then(|c| c.checked_add(down)).is_none() {
            return Err(ConfigError::Parameter {
                name: "horizon",
                why: format!("horizon {} + 2 * mtbf + 2 * mttr overflows a cycle", self.horizon),
            });
        }
        let outages = (self.links as u64).saturating_mul((self.horizon - self.start) / 2);
        if outages > MAX_FLAP_OUTAGES {
            return Err(ConfigError::Parameter {
                name: "horizon",
                why: format!(
                    "{} links over cycles {}..{} may schedule {outages} outages, \
                     more than {MAX_FLAP_OUTAGES}",
                    self.links, self.start, self.horizon
                ),
            });
        }
        Ok(())
    }

    /// Sample an intermittent fault-and-repair timeline for `topo`,
    /// with no recovery armed.
    ///
    /// Flapping links are picked by the same partial Fisher–Yates
    /// sampling as [`FaultConfig::plan`] (from its own sub-seed), then
    /// each link's down/up timeline is drawn from an independent
    /// per-link sub-seed — so adding a flapping link never perturbs the
    /// timelines of the others. Events cover both directions of each
    /// physical link and come out stably sorted by cycle.
    ///
    /// # Errors
    /// The [`ConfigError`] of [`FlapConfig::validate`].
    pub fn plan(&self, topo: TopologyKind) -> Result<FaultPlan, ConfigError> {
        self.validate()?;
        let mut edges = physical_links(topo);
        let picks = sample_front(&mut edges, self.links, noc_exp::derive_seed(self.seed, 3));

        let mut events = Vec::new();
        for (i, &(r, p, v, vp)) in edges[..picks].iter().enumerate() {
            let mut rng = SimRng::new(noc_exp::derive_seed(self.seed, 0x100 + i as u64));
            let mut t = self.start;
            loop {
                let down = t + 1 + rng.below(2 * self.mtbf as usize) as u64;
                let up = down + 1 + rng.below(2 * self.mttr as usize) as u64;
                if up >= self.horizon {
                    break; // an outage only happens if its repair fits
                }
                events.push(FaultEvent::LinkFail { cycle: down, router: r, port: p });
                events.push(FaultEvent::LinkFail { cycle: down, router: v, port: vp });
                events.push(FaultEvent::LinkRepair { cycle: up, router: r, port: p });
                events.push(FaultEvent::LinkRepair { cycle: up, router: v, port: vp });
                t = up;
            }
        }
        events.sort_by_key(FaultEvent::cycle);
        Ok(unarmed_plan(events, self.corrupt_rate, self.seed))
    }
}

/// A plan of `events` with the scenario's transient corruption (its
/// RNG seeded from the scenario `seed`) and no recovery armed.
fn unarmed_plan(events: Vec<FaultEvent>, corrupt_rate: f64, seed: u64) -> FaultPlan {
    FaultPlan {
        events,
        corrupt_rate,
        corrupt_seed: noc_exp::derive_seed(seed, 2),
        ..FaultPlan::default()
    }
}

/// The cycle of the last repair among `events`, if there is one.
pub fn last_repair_cycle(events: &[FaultEvent]) -> Option<u64> {
    events.iter().filter(|e| e.is_repair()).map(FaultEvent::cycle).max()
}

/// Scheduled downtime of `events` summed over *directed* channels,
/// clipped to `horizon`. Outages still open at `horizon` (only
/// possible for permanent scenarios) count until `horizon`.
fn scheduled_downtime(events: &[FaultEvent], horizon: u64) -> u64 {
    let mut open: std::collections::HashMap<(usize, usize), u64> = std::collections::HashMap::new();
    let mut down = 0u64;
    for e in events {
        match *e {
            FaultEvent::LinkFail { cycle, router, port } => {
                open.entry((router, port)).or_insert(cycle.min(horizon));
            }
            FaultEvent::LinkRepair { cycle, router, port } => {
                if let Some(from) = open.remove(&(router, port)) {
                    down += cycle.min(horizon).saturating_sub(from);
                }
            }
            _ => {}
        }
    }
    for (_, from) in open {
        down += horizon.saturating_sub(from);
    }
    down
}

/// Fraction of `topo`'s directed-channel-cycles up over `[0, horizon)`
/// under the link events of `events` — the "availability" axis of the
/// resilience figures.
pub fn link_availability(events: &[FaultEvent], topo: TopologyKind, horizon: u64) -> f64 {
    // every physical link is two directed channels
    let channels = 2 * physical_links(topo).len() as u64;
    if channels == 0 || horizon == 0 {
        return 1.0;
    }
    1.0 - scheduled_downtime(events, horizon) as f64 / (channels * horizon) as f64
}

/// One `(router, port, neighbor, neighbor port)` entry per physical
/// (bidirectional) link, in `(router, port)` order: of the link's two
/// directions, the one whose endpoint is lexicographically smallest.
fn physical_links(topo: TopologyKind) -> Vec<(usize, usize, usize, usize)> {
    let mut edges = Vec::new();
    for r in 0..topo.num_nodes() {
        for p in 1..topo.num_ports() {
            if let Some((v, vp)) = topo.neighbor(r, p) {
                if (r, p) <= (v, vp) {
                    edges.push((r, p, v, vp));
                }
            }
        }
    }
    edges
}

/// Partial Fisher–Yates from `seed`: move a sample of `k` items
/// (clamped to all of them) to the front of `items`; returns how many.
fn sample_front<T>(items: &mut [T], k: usize, seed: u64) -> usize {
    let mut rng = SimRng::new(seed);
    let k = k.min(items.len());
    for i in 0..k {
        let j = i + rng.below(items.len() - i);
        items.swap(i, j);
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    const MESH4: TopologyKind = TopologyKind::Mesh2D { k: 4 };

    #[test]
    fn physical_links_list_each_bidirectional_link_once_in_router_port_order() {
        let edges = physical_links(MESH4);
        // 2 * k * (k-1) bidirectional links in a k x k mesh
        assert_eq!(edges.len(), 24);
        assert!(edges.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        for &(r, p, v, vp) in &edges {
            assert!((r, p) < (v, vp), "kept the smaller endpoint's direction");
            assert_eq!(MESH4.neighbor(v, vp), Some((r, p)), "the reverse direction");
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            seed: 42,
            link_failures: 3,
            router_failures: 1,
            fail_at: 500,
            corrupt_rate: 1e-3,
        };
        let a = cfg.plan(MESH4);
        let b = cfg.plan(MESH4);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 2 * 3 + 1, "both directions per link plus the router");
    }

    #[test]
    fn different_seeds_differ() {
        let mk =
            |seed| FaultConfig { seed, link_failures: 4, ..FaultConfig::default() }.plan(MESH4);
        assert_ne!(mk(1).events, mk(2).events);
    }

    #[test]
    fn link_events_come_in_matched_pairs() {
        let s = FaultConfig { seed: 7, link_failures: 5, ..FaultConfig::default() }.plan(MESH4);
        for pair in s.events.chunks(2) {
            let [FaultEvent::LinkFail { router: r, port: p, .. }, FaultEvent::LinkFail { router: v, port: vp, .. }] =
                pair
            else {
                panic!("expected paired LinkFail events, got {pair:?}");
            };
            assert_eq!(MESH4.neighbor(*r, *p), Some((*v, *vp)), "reverse direction of same link");
        }
    }

    #[test]
    fn intermittent_same_seed_same_timeline() {
        let cfg = FlapConfig { seed: 9, links: 3, mtbf: 300, mttr: 40, ..FlapConfig::default() };
        let a = cfg.plan(MESH4).unwrap();
        let b = cfg.plan(MESH4).unwrap();
        assert_eq!(a, b);
        assert!(!a.events.is_empty(), "a 20k-cycle horizon at mtbf 300 must flap");
    }

    #[test]
    fn intermittent_timelines_end_healed_and_sorted() {
        let cfg = FlapConfig { seed: 5, links: 4, mtbf: 500, mttr: 60, ..FlapConfig::default() };
        let s = cfg.plan(MESH4).unwrap();

        // sorted by cycle, all within (start, horizon)
        let cycles: Vec<u64> = s.events.iter().map(FaultEvent::cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "events not sorted");
        assert!(cycles.iter().all(|&c| c > cfg.start && c < cfg.horizon));

        // every directed channel's fails and repairs alternate and balance
        use std::collections::HashMap;
        let mut state: HashMap<(usize, usize), bool> = HashMap::new();
        for e in &s.events {
            match *e {
                FaultEvent::LinkFail { router, port, .. } => {
                    let down = state.entry((router, port)).or_insert(false);
                    assert!(!*down, "double fail on {router}/{port}");
                    *down = true;
                }
                FaultEvent::LinkRepair { router, port, .. } => {
                    let down = state.entry((router, port)).or_insert(false);
                    assert!(*down, "repair of a healthy link {router}/{port}");
                    *down = false;
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(state.values().all(|&d| !d), "a link is still down at the horizon");
        assert_eq!(scheduled_downtime(&s.events, cfg.horizon) > 0, !s.events.is_empty());
        let avail = link_availability(&s.events, MESH4, cfg.horizon);
        assert!((0.0..1.0).contains(&avail), "availability {avail} out of range");
    }

    #[test]
    fn flap_validation_rejects_nonsense() {
        for bad in [
            FlapConfig { mtbf: 0, ..FlapConfig::default() },
            FlapConfig { mttr: 0, ..FlapConfig::default() },
            FlapConfig { start: 100, horizon: 100, ..FlapConfig::default() },
            FlapConfig { corrupt_rate: f64::NAN, ..FlapConfig::default() },
            FlapConfig { corrupt_rate: 1.5, ..FlapConfig::default() },
        ] {
            assert!(bad.plan(MESH4).is_err(), "accepted {bad:?}");
        }
    }

    /// A timeline whose arithmetic could overflow a cycle count, or
    /// whose worst case schedules more than `MAX_FLAP_OUTAGES` outages,
    /// is refused naming its field before any draw; the bound itself is
    /// accepted.
    #[test]
    fn flap_timelines_that_could_overflow_or_never_end_are_refused() {
        let window = 2 * MAX_FLAP_OUTAGES;
        for (bad, field) in [
            (FlapConfig { mtbf: u64::MAX, ..FlapConfig::default() }, "mtbf"),
            (FlapConfig { mttr: u64::MAX, ..FlapConfig::default() }, "mttr"),
            (FlapConfig { mtbf: u64::MAX / 2, ..FlapConfig::default() }, "horizon"),
            (
                FlapConfig { start: u64::MAX - 2, horizon: u64::MAX, ..FlapConfig::default() },
                "horizon",
            ),
            (FlapConfig { start: 0, horizon: window + 2, ..FlapConfig::default() }, "horizon"),
            (FlapConfig { links: usize::MAX, ..FlapConfig::default() }, "horizon"),
        ] {
            match bad.plan(MESH4) {
                Err(ConfigError::Parameter { name, .. }) if name == field => {}
                other => panic!("{bad:?}: {other:?}"),
            }
        }
        let edge = FlapConfig { start: 0, horizon: window + 1, ..FlapConfig::default() };
        assert_eq!(edge.validate(), Ok(()));
        let idle =
            FlapConfig { links: 0, start: 0, horizon: u64::MAX / 2, ..FlapConfig::default() };
        assert_eq!(idle.plan(MESH4).map(|p| p.events.len()), Ok(0));
    }

    #[test]
    fn oversized_requests_are_clamped() {
        let s = FaultConfig {
            seed: 3,
            link_failures: 10_000,
            router_failures: 10_000,
            ..FaultConfig::default()
        }
        .plan(MESH4);
        // 4x4 mesh: 24 physical links, 16 routers
        assert_eq!(s.events.len(), 2 * 24 + 16);
    }
}
