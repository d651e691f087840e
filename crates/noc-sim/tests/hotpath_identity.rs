//! The event-driven hot path (active-router worklists, NI bitsets,
//! quiescent-cycle fast-forward) must be observationally invisible:
//! property tests pin the delivery digest — a cycle-exact FNV-1a
//! fingerprint of the full delivery stream — of [`Network::try_step`]
//! against the naive full-scan reference sweep
//! (`Network::try_step_reference`) across topologies, routings, loads,
//! and the fault/metrics toggles. Fault scenarios include timed
//! fault-and-repair timelines and both recovery modes (end-to-end
//! retransmission and link-level retry), so the fault-aware
//! fast-forward — jumping to the next link/NI event, fault event, or
//! retransmission deadline — is digest-checked against the per-cycle
//! scan.
//!
//! The CI matrix also runs this file with `--features sanitize`, so the
//! per-cycle conservation sanitizer watches both sweeps too.

use proptest::prelude::*;

use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::fault::{FaultEvent, FaultPlan, LinkRetryPolicy, RetxPolicy};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;

/// Bernoulli uniform-random injector with a hard generation cutoff,
/// deterministic in its seed — both sweeps build identical copies.
struct Injector {
    rng: SimRng,
    p: f64,
    size: u16,
    nodes: usize,
    cutoff: Cycle,
    done: bool,
    polled: Vec<Cycle>,
    delivered: Vec<(usize, u64, Cycle)>,
}

impl Injector {
    fn new(nodes: usize, p: f64, size: u16, cutoff: Cycle, seed: u64) -> Self {
        Self {
            rng: SimRng::new(seed),
            p,
            size,
            nodes,
            cutoff,
            done: false,
            polled: vec![Cycle::MAX; nodes],
            delivered: Vec::new(),
        }
    }
}

impl NodeBehavior for Injector {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        if cycle >= self.cutoff {
            self.done = true;
            return None;
        }
        // one Bernoulli draw per node per cycle, like the open-loop driver
        if self.polled[node] == cycle {
            return None;
        }
        self.polled[node] = cycle;
        if !self.rng.chance(self.p) {
            return None;
        }
        let dst = self.rng.below(self.nodes);
        Some(PacketSpec { dst, size: self.size, class: 0, payload: 0 })
    }

    fn deliver(&mut self, node: usize, d: &Delivered, cycle: Cycle) {
        self.delivered.push((node, d.uid, cycle));
    }

    fn quiescent(&self) -> bool {
        self.done
    }
}

/// How a scenario exercises the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    /// No fault plan installed.
    None,
    /// Permanent faults, end-to-end retransmission (the PR 3 shape).
    Permanent,
    /// Fault-and-repair timeline, end-to-end retransmission.
    Intermittent,
    /// Fault-and-repair timeline, link-level retry AND retransmission.
    LinkRetry,
    /// Repairs land long after injection stops, so the network sits
    /// quiescent waiting on fault events and deferred retransmission
    /// deadlines — the scenario where fault-aware fast-forward pays.
    LateRepair,
}

#[derive(Debug, Clone, Copy)]
struct Scenario {
    cfg_topo: TopologyKind,
    cfg_routing: RoutingKind,
    seed: u64,
    load: f64,
    size: u16,
    fault_mode: FaultMode,
    with_metrics: bool,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let topo =
        prop_oneof![Just(TopologyKind::Mesh2D { k: 4 }), Just(TopologyKind::Torus2D { k: 4 })];
    let routing = prop_oneof![
        Just(RoutingKind::Dor),
        Just(RoutingKind::Valiant),
        Just(RoutingKind::Romm),
        Just(RoutingKind::MinAdaptive),
    ];
    let fault_mode = prop_oneof![
        Just(FaultMode::None),
        Just(FaultMode::Permanent),
        Just(FaultMode::Intermittent),
        Just(FaultMode::LinkRetry),
        Just(FaultMode::LateRepair),
    ];
    (topo, routing, 0u64..1000, 1u64..5, 1u16..4, fault_mode, prop::bool::ANY).prop_map(
        |(cfg_topo, cfg_routing, seed, load, size, fault_mode, with_metrics)| Scenario {
            cfg_topo,
            cfg_routing,
            seed,
            load: load as f64 * 0.04,
            size,
            fault_mode,
            with_metrics,
        },
    )
}

fn plan_for(s: &Scenario) -> Option<FaultPlan> {
    let retx = Some(RetxPolicy { timeout: 64, backoff_cap: 256, max_attempts: 3 });
    match s.fault_mode {
        FaultMode::None => None,
        FaultMode::Permanent => Some(FaultPlan {
            events: vec![
                FaultEvent::LinkFail { cycle: 40, router: 5, port: 1 },
                FaultEvent::RouterFail { cycle: 90, router: 10 },
            ],
            corrupt_rate: 0.01,
            corrupt_seed: s.seed ^ 0xfa11,
            retx,
            link_retry: None,
        }),
        FaultMode::Intermittent | FaultMode::LinkRetry => Some(FaultPlan {
            events: vec![
                FaultEvent::LinkFail { cycle: 40, router: 5, port: 1 },
                FaultEvent::RouterFail { cycle: 90, router: 10 },
                FaultEvent::RouterRepair { cycle: 140, router: 10 },
                FaultEvent::LinkRepair { cycle: 170, router: 5, port: 1 },
            ],
            corrupt_rate: 0.01,
            corrupt_seed: s.seed ^ 0xfa11,
            retx,
            link_retry: (s.fault_mode == FaultMode::LinkRetry).then_some(LinkRetryPolicy {
                replay_rtt: 4,
                max_replays: 2,
                buf_depth: 4,
            }),
        }),
        FaultMode::LateRepair => Some(FaultPlan {
            events: vec![
                FaultEvent::LinkFail { cycle: 40, router: 5, port: 1 },
                FaultEvent::RouterFail { cycle: 90, router: 10 },
                FaultEvent::RouterRepair { cycle: 600, router: 10 },
                FaultEvent::LinkRepair { cycle: 700, router: 5, port: 1 },
            ],
            corrupt_rate: 0.02,
            corrupt_seed: s.seed ^ 0xfa11,
            retx,
            link_retry: None,
        }),
    }
}

/// `(node, uid, cycle)` delivery log entries as observed by the behavior.
type DeliveryLog = Vec<(usize, u64, Cycle)>;

/// Run one scenario with either the event-driven or the reference
/// sweep; return the digest, the behavior-observed delivery log, the
/// final cycle, the headline counters, and the number of steps taken
/// (steps < cycles proves fast-forward engaged).
fn run(s: &Scenario, reference: bool) -> (u64, DeliveryLog, Cycle, u64, u64, u64) {
    let mut cfg = NetConfig::baseline()
        .with_topology(s.cfg_topo)
        .with_routing(s.cfg_routing)
        .with_vcs(4)
        .with_seed(s.seed);
    if s.with_metrics {
        cfg = cfg.with_metrics(64);
    }
    let mut net = Network::new(cfg).unwrap();
    let with_fault = if let Some(plan) = plan_for(s) {
        net.set_fault_plan(plan).unwrap();
        true
    } else {
        false
    };
    let cutoff = 200;
    let mut b = Injector::new(net.num_nodes(), s.load / s.size as f64, s.size, cutoff, s.seed ^ 1);
    let mut steps = 0u64;
    while !(net.is_idle() && net.fault_settled() && b.quiescent()) || net.cycle() < cutoff {
        if reference {
            net.try_step_reference(&mut b).unwrap();
        } else {
            net.try_step(&mut b).unwrap();
        }
        steps += 1;
        assert!(steps < 100_000, "run did not settle");
        if with_fault && net.cycle() > 20_000 {
            break; // abandoned retransmissions can wait out long timeouts
        }
    }
    let stats = net.stats();
    (
        stats.delivery_digest,
        b.delivered,
        net.cycle(),
        stats.flits_injected,
        stats.flits_ejected,
        steps,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The worklist sweep and the full-scan reference sweep are
    /// bit-identical in every observable: digest, per-delivery log,
    /// final cycle, and flit counters — including fault-and-repair
    /// timelines under both recovery modes, where the fast sweep
    /// fast-forwards over quiescent stretches and the reference walks
    /// every cycle.
    #[test]
    fn hot_path_matches_reference_sweep(s in scenario_strategy()) {
        let fast = run(&s, false);
        let slow = run(&s, true);
        prop_assert_eq!(fast.0, slow.0, "delivery digest diverged for {:?}", s);
        prop_assert_eq!(&fast.1, &slow.1, "delivery log diverged for {:?}", s);
        prop_assert_eq!(fast.2, slow.2, "final cycle diverged for {:?}", s);
        prop_assert_eq!(fast.3, slow.3, "flits_injected diverged for {:?}", s);
        prop_assert_eq!(fast.4, slow.4, "flits_ejected diverged for {:?}", s);
    }
}

/// Deterministic spot check (always runs, even when proptest shrinks
/// its case budget): the highest-contrast scenario — torus, adaptive
/// routing, an intermittent fault/repair timeline with link-level
/// retry, and metrics on.
#[test]
fn hot_path_identity_smoke() {
    for fault_mode in [FaultMode::Permanent, FaultMode::Intermittent, FaultMode::LinkRetry] {
        let s = Scenario {
            cfg_topo: TopologyKind::Torus2D { k: 4 },
            cfg_routing: RoutingKind::MinAdaptive,
            seed: 7,
            load: 0.12,
            size: 3,
            fault_mode,
            with_metrics: true,
        };
        let fast = run(&s, false);
        let slow = run(&s, true);
        assert_eq!(fast.0, slow.0, "delivery digest diverged ({fault_mode:?})");
        assert_eq!(fast.1, slow.1, "delivery log diverged ({fault_mode:?})");
        assert_eq!(fast.2, slow.2, "final cycle diverged ({fault_mode:?})");
    }
}

/// Fault-plan runs regain event-driven speed: with retransmission
/// timeouts creating long quiescent stretches, the fast sweep must
/// take strictly fewer steps than simulated cycles (the reference
/// twin, by construction, steps every cycle — and the digest identity
/// above proves the jumps are invisible).
#[test]
fn fault_runs_fast_forward_over_dead_time() {
    let s = Scenario {
        cfg_topo: TopologyKind::Mesh2D { k: 4 },
        cfg_routing: RoutingKind::Dor,
        seed: 11,
        load: 0.08,
        size: 2,
        fault_mode: FaultMode::LateRepair,
        with_metrics: false,
    };
    let fast = run(&s, false);
    let slow = run(&s, true);
    assert_eq!(fast.0, slow.0, "digest diverged");
    assert!(
        fast.5 < fast.2,
        "expected fast-forward under a fault plan: {} steps for {} cycles",
        fast.5,
        fast.2
    );
    assert_eq!(slow.5, slow.2, "reference sweep must step every cycle");
}
