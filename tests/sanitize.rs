//! Runtime invariant sanitizer integration tests.
//!
//! Only built with `--features sanitize`: every [`Network::try_step`]
//! call below runs the full per-cycle invariant suite (flit
//! conservation, per-channel credit conservation, wormhole framing,
//! allocation consistency, progress watchdog) and fails the test on
//! the first violation.

#![cfg(feature = "sanitize")]

use noc_closedloop::batch::BatchConfig;
use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;

/// Open-loop Bernoulli source: each node independently starts a packet
/// with probability `rate / size` per cycle toward a uniform random
/// destination, giving an offered load of `rate` flits/node/cycle.
struct Bernoulli {
    rate: f64,
    size: u16,
    rng: SimRng,
    nodes: usize,
    delivered: u64,
    polled: Vec<Cycle>,
}

impl Bernoulli {
    fn new(rate: f64, size: u16, nodes: usize, seed: u64) -> Self {
        Self {
            rate,
            size,
            rng: SimRng::new(seed),
            nodes,
            delivered: 0,
            polled: vec![Cycle::MAX; nodes],
        }
    }
}

impl NodeBehavior for Bernoulli {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        // one Bernoulli trial per node per cycle
        if self.polled[node] == cycle {
            return None;
        }
        self.polled[node] = cycle;
        if !self.rng.chance(self.rate / self.size as f64) {
            return None;
        }
        let dst = self.rng.below(self.nodes);
        Some(PacketSpec { dst, size: self.size, class: 0, payload: 0 })
    }

    fn deliver(&mut self, _node: usize, _d: &Delivered, _cycle: Cycle) {
        self.delivered += 1;
    }

    fn quiescent(&self) -> bool {
        false // an open-loop source never stops by itself
    }
}

/// Closed-loop batch workload (request/reply with MSHR backpressure)
/// stepped under the sanitizer; every cycle is checked.
#[test]
fn closed_loop_batch_clean_under_sanitizer() {
    let cfg = BatchConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        batch: 100,
        max_outstanding: 4,
        request_size: 1,
        reply_size: 2,
        ..BatchConfig::default()
    };
    let (mut net, mut b) = cfg.start().expect("valid config");
    let nodes = net.num_nodes();

    let mut drained = false;
    for _ in 0..200_000u64 {
        net.try_step(&mut b).expect("invariant violation");
        if net.is_idle() && b.quiescent() {
            drained = true;
            break;
        }
    }
    assert!(drained, "batch workload must complete");
    assert_eq!(b.completed(), nodes as u64 * 100);

    let stats = net.sanitize_stats();
    assert!(stats.cycles_checked > 0, "sanitizer must have run");
    assert!(stats.conservation_checks > 0);
    assert!(stats.credit_checks > 0);
    assert!(stats.framing_checks > 0);
}

/// Open-loop source driven well past saturation for 50k cycles; the
/// sanitizer checks every cycle and must observe zero violations.
#[test]
fn open_loop_saturation_clean_under_sanitizer() {
    let cfg = NetConfig::baseline()
        .with_topology(TopologyKind::Mesh2D { k: 4 })
        .with_routing(RoutingKind::Dor)
        .with_vcs(2)
        .with_vc_buf(4);
    let mut net = Network::new(cfg).expect("valid config");
    let nodes = net.num_nodes();
    // uniform mesh saturates near 0.5 flits/node/cycle; 0.9 swamps it
    let mut b = Bernoulli::new(0.9, 2, nodes, 42);

    for _ in 0..50_000u64 {
        net.try_step(&mut b).expect("invariant violation");
    }
    assert!(b.delivered > 0, "saturated network still delivers");
    assert!(net.stats().flits_injected > 10_000, "load must actually stress the fabric");

    let stats = net.sanitize_stats();
    assert_eq!(stats.cycles_checked, 50_000);
    assert!(stats.credit_checks > 0);
    assert!(stats.framing_checks > 0);
    assert!(stats.idle_cycles < 1_000, "saturated network must keep making progress");
}

/// The watchdog must stay silent on a healthy run even with a tight
/// threshold, and its idle counter must reset on every delivery.
#[test]
fn watchdog_quiet_on_healthy_traffic() {
    let cfg = NetConfig::baseline().with_topology(TopologyKind::Ring { n: 8 });
    let mut net = Network::new(cfg).expect("valid config");
    let nodes = net.num_nodes();
    net.set_watchdog(50);
    let mut b = Bernoulli::new(0.2, 1, nodes, 7);
    for _ in 0..20_000u64 {
        net.try_step(&mut b).expect("healthy run must not trip the watchdog");
    }
    assert!(b.delivered > 100);
}
