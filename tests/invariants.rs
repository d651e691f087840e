//! Property-based invariants over the whole stack (proptest): packet
//! conservation, deterministic replay, latency lower bounds, and batch
//! accounting, across randomized configurations; and one traffic-pattern
//! validity rule, checked against the generator and every runner.

use proptest::prelude::*;

use noc_analytic::{AnalyticModel, TrafficMatrix};
use noc_closedloop::BatchConfig;
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{Arbitration, NetConfig, RoutingKind, TopologyKind};
use noc_sim::error::ConfigError;
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;
use noc_traffic::{PatternKind, SizeKind};

/// A scripted behavior for conservation tests.
struct Script {
    sends: Vec<(u64, usize, usize, u16)>,
    delivered: Vec<(u64, u64)>, // (uid, latency)
    min_hops_violations: usize,
    net_info: Vec<(usize, usize)>, // (src, dst) by uid order (unused growth ok)
}

impl NodeBehavior for Script {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        let idx = self.sends.iter().position(|&(c, s, ..)| s == node && c <= cycle)?;
        let (_, src, dst, size) = self.sends.remove(idx);
        self.net_info.push((src, dst));
        Some(PacketSpec { dst, size, class: 0, payload: 0 })
    }

    fn deliver(&mut self, _node: usize, d: &Delivered, cycle: Cycle) {
        self.delivered.push((d.uid, cycle - d.birth));
    }

    fn quiescent(&self) -> bool {
        self.sends.is_empty()
    }
}

fn topo_strategy() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Mesh2D { k: 4 }),
        Just(TopologyKind::Torus2D { k: 4 }),
        Just(TopologyKind::Ring { n: 8 }),
    ]
}

fn routing_strategy() -> impl Strategy<Value = RoutingKind> {
    prop_oneof![
        Just(RoutingKind::Dor),
        Just(RoutingKind::Valiant),
        Just(RoutingKind::Romm),
        Just(RoutingKind::MinAdaptive),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every injected packet is delivered exactly once, on any topology,
    /// routing, buffering, and arbitration the config system accepts.
    #[test]
    fn packets_are_conserved(
        topo in topo_strategy(),
        routing in routing_strategy(),
        vc_buf in 1usize..6,
        tr in 1u32..5,
        arb in prop_oneof![Just(Arbitration::RoundRobin), Just(Arbitration::AgeBased)],
        seed in 0u64..1000,
        n_packets in 1usize..120,
    ) {
        let cfg = NetConfig::baseline()
            .with_topology(topo)
            .with_routing(routing)
            .with_vcs(4)
            .with_vc_buf(vc_buf)
            .with_router_delay(tr)
            .with_arbitration(arb)
            .with_seed(seed);
        prop_assume!(cfg.validate().is_ok());
        let nodes = topo.num_nodes();
        let mut rng = noc_sim::rng::SimRng::new(seed ^ 0xfeed);
        let sends: Vec<(u64, usize, usize, u16)> = (0..n_packets)
            .map(|i| ((i % 17) as u64, rng.below(nodes), rng.below(nodes), 1 + rng.below(4) as u16))
            .collect();
        let mut net = Network::new(cfg).unwrap();
        let mut b = Script { sends, delivered: Vec::new(), min_hops_violations: 0, net_info: Vec::new() };
        prop_assert!(net.drain(&mut b, 500_000), "network failed to drain");
        prop_assert_eq!(b.delivered.len(), n_packets);
        // no duplicate deliveries
        let mut uids: Vec<u64> = b.delivered.iter().map(|&(u, _)| u).collect();
        uids.sort_unstable();
        uids.dedup();
        prop_assert_eq!(uids.len(), n_packets);
        let _ = b.min_hops_violations;
    }

    /// Latency never beats the analytic zero-load lower bound:
    /// `H_min * (t_r + t_link) + t_r` for the head plus serialization.
    #[test]
    fn latency_respects_physics(
        seed in 0u64..500,
        tr in 1u32..5,
        n_packets in 1usize..40,
    ) {
        let topo = TopologyKind::Mesh2D { k: 4 };
        let cfg = NetConfig::baseline().with_topology(topo).with_router_delay(tr).with_seed(seed);
        let nodes = 16;
        let mut rng = noc_sim::rng::SimRng::new(seed);
        let sends: Vec<(u64, usize, usize, u16)> = (0..n_packets)
            .map(|i| (i as u64, rng.below(nodes), rng.below(nodes), 1u16))
            .collect();
        // remember pairs to check bounds by uid (uids assigned in pull order)
        let pairs: Vec<(usize, usize)> = Vec::new();
        let mut net = Network::new(cfg).unwrap();
        let mut b = Script { sends, delivered: Vec::new(), min_hops_violations: 0, net_info: pairs };
        prop_assert!(net.drain(&mut b, 200_000));
        let t = TopologyKind::Mesh2D { k: 4 }.build();
        // uid order == pull order == net_info order
        for &(uid, latency) in &b.delivered {
            let (src, dst) = b.net_info[uid as usize];
            if src == dst {
                // local delivery bypasses the fabric at exactly tr + 1
                prop_assert_eq!(latency, tr as u64 + 1);
            } else {
                let h = t.min_hops(src, dst) as u64;
                let bound = h * (tr as u64 + 1) + tr as u64;
                prop_assert!(latency >= bound,
                    "latency {} beats physics bound {} for {}->{}", latency, bound, src, dst);
            }
        }
    }

    /// Identical (config, seed) pairs replay cycle-exactly, for any
    /// routing algorithm.
    #[test]
    fn deterministic_replay(
        routing in routing_strategy(),
        seed in 0u64..200,
    ) {
        let run = || {
            let cfg = NetConfig::baseline()
                .with_topology(TopologyKind::Mesh2D { k: 4 })
                .with_routing(routing)
                .with_vcs(4)
                .with_seed(seed);
            let mut rng = noc_sim::rng::SimRng::new(seed);
            let sends: Vec<(u64, usize, usize, u16)> =
                (0..60).map(|i| (i as u64 % 11, rng.below(16), rng.below(16), 1u16)).collect();
            let mut net = Network::new(cfg).unwrap();
            let mut b = Script { sends, delivered: Vec::new(), min_hops_violations: 0, net_info: Vec::new() };
            net.drain(&mut b, 200_000);
            let mut log = b.delivered;
            log.sort_unstable();
            log
        };
        prop_assert_eq!(run(), run());
    }

    /// Batch accounting: exactly `N x b` operations complete; runtime
    /// bounds follow from injection bandwidth and round-trip latency.
    #[test]
    fn batch_accounting_holds(
        m in 1usize..16,
        b in 20u64..200,
        seed in 0u64..100,
    ) {
        let cfg = BatchConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
            pattern: PatternKind::Uniform,
            batch: b,
            max_outstanding: m,
            ..BatchConfig::default()
        };
        let r = noc_closedloop::run_batch(&cfg).unwrap();
        prop_assert!(r.drained);
        prop_assert_eq!(r.completed, 16 * b);
        // each node injects b requests at <= 1 flit/cycle
        prop_assert!(r.runtime >= b, "runtime {} below injection bound {b}", r.runtime);
        // and per-node runtimes are within the global runtime
        prop_assert!(r.per_node_runtime.iter().all(|&t| t <= r.runtime));
        // throughput identity: theta = 2b/T
        let theta = 2.0 * b as f64 / r.runtime as f64;
        prop_assert!((r.throughput - theta).abs() < 1e-9);
    }
}

/// Every pattern on square and ring topologies, power-of-two and not:
/// each pair `validate` accepts draws in-range destinations (a bijection
/// for the permutations) with an exact matrix whose rows sum to 1, and
/// each pair it refuses, `measure`, the analytic model and the batch
/// model refuse with the identical `pattern` error.
#[test]
fn one_pattern_rule_matches_the_generator_and_every_runner() {
    let topologies = [
        TopologyKind::Mesh2D { k: 4 },
        TopologyKind::Mesh2D { k: 3 },
        TopologyKind::Torus2D { k: 4 },
        TopologyKind::FoldedTorus2D { k: 4 },
        TopologyKind::Ring { n: 16 },
        TopologyKind::Ring { n: 12 },
    ];
    let hotspot = |node, frac| PatternKind::Hotspot { node, frac };
    let patterns = [
        PatternKind::Uniform,
        PatternKind::Transpose,
        PatternKind::BitComplement,
        PatternKind::BitReversal,
        PatternKind::Shuffle,
        PatternKind::Tornado,
        PatternKind::Neighbor,
        hotspot(5, 0.25),
        hotspot(9999, 0.5),
        hotspot(5, f64::NAN),
        hotspot(5, 1.5),
    ];
    let mut accepted = 0;
    let mut rng = SimRng::new(7);
    for topo in topologies {
        // 4 VCs: the batch model's two classes validate on every topology
        let net = NetConfig::baseline().with_topology(topo).with_vcs(4);
        let (nodes, k) = (topo.num_nodes(), topo.build().radix(0));
        for pattern in patterns {
            let err = match pattern.validate(&topo) {
                Ok(()) => {
                    accepted += 1;
                    let dest = pattern.build(nodes, k);
                    let mut hit = vec![false; nodes];
                    for src in 0..nodes {
                        for _ in 0..8 {
                            let d = dest.dest(src, &mut rng);
                            assert!(d < nodes, "{pattern} on {topo:?}: {src} -> {d}");
                            hit[d] = true;
                        }
                    }
                    if pattern.is_permutation() {
                        assert!(hit.iter().all(|&h| h), "{pattern} on {topo:?} is no bijection");
                    }
                    let m = TrafficMatrix::new(pattern, nodes, k);
                    for src in 0..nodes {
                        let sum: f64 = (0..nodes).map(|d| m.prob(src, d)).sum();
                        assert!((sum - 1.0).abs() < 1e-12, "{pattern} on {topo:?}: row {src}");
                    }
                    continue;
                }
                Err(e) => e,
            };
            assert!(matches!(err, ConfigError::Parameter { name: "pattern", .. }), "{err}");
            let open = OpenLoopConfig { net: net.clone(), pattern, ..OpenLoopConfig::default() };
            assert_eq!(noc_openloop::measure(&open).unwrap_err(), err);
            assert_eq!(AnalyticModel::of(&net, pattern, SizeKind::Fixed(1)).unwrap_err(), err);
            let batch =
                BatchConfig { net: net.clone(), pattern, batch: 10, ..BatchConfig::default() };
            assert_eq!(noc_closedloop::run_batch(&batch).unwrap_err(), err);
        }
    }
    // uniform and the in-range hotspot everywhere, the coordinate
    // patterns on the four square grids, the bit patterns on the four
    // power-of-two node counts
    assert_eq!(accepted, 6 + 6 + 3 * 4 + 3 * 4);
}
