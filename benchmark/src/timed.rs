//! A timing decorator around any [`NodeBehavior`].
//!
//! The engine spends its time either in its own phases or inside the
//! behaviour's callbacks; timing the callbacks from outside and
//! subtracting them from `Network::run` splits the two without touching
//! either crate. The decorator forwards every call unchanged — same
//! packets, same order, same RNG draws — so a decorated run delivers
//! the same `delivery_digest` as a bare one (tested below).
//!
//! `generate` is timed as one call per cycle rather than per `pull`:
//! the engine only ever polls an undegraded network through `generate`,
//! and two clock reads per node per cycle would cost more than the
//! batch model's `pull` itself. The engine's `sink` (source-queue
//! admission) runs inside that call and is charged to the behaviour;
//! it is a queue push per generated packet.

use std::time::Instant;

use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::NodeBehavior;

/// Host time and call counts of the behaviour's callbacks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallbackTimes {
    pub generate_ns: u64,
    pub generate_calls: u64,
    pub deliver_ns: u64,
    pub deliver_calls: u64,
}

impl CallbackTimes {
    /// Total host time spent inside the behaviour.
    pub fn total_ns(&self) -> u64 {
        self.generate_ns + self.deliver_ns
    }

    /// Component-wise difference against an earlier reading.
    pub fn since(&self, earlier: &CallbackTimes) -> CallbackTimes {
        CallbackTimes {
            generate_ns: self.generate_ns - earlier.generate_ns,
            generate_calls: self.generate_calls - earlier.generate_calls,
            deliver_ns: self.deliver_ns - earlier.deliver_ns,
            deliver_calls: self.deliver_calls - earlier.deliver_calls,
        }
    }
}

/// `inner`, with every engine callback timed.
pub struct Timed<B> {
    pub inner: B,
    pub times: CallbackTimes,
}

impl<B> Timed<B> {
    pub fn new(inner: B) -> Self {
        Self { inner, times: CallbackTimes::default() }
    }
}

impl<B: NodeBehavior> NodeBehavior for Timed<B> {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        // only reached on fault-degraded networks, which the benchmark
        // never builds; forwarded untimed so the decorator stays total
        self.inner.pull(node, cycle)
    }

    fn deliver(&mut self, node: usize, delivered: &Delivered, cycle: Cycle) {
        let t = Instant::now();
        self.inner.deliver(node, delivered, cycle);
        self.times.deliver_ns += t.elapsed().as_nanos() as u64;
        self.times.deliver_calls += 1;
    }

    fn quiescent(&self) -> bool {
        // untimed: the engine only asks on cycles where the network
        // is already empty
        self.inner.quiescent()
    }

    fn generate(&mut self, nodes: usize, cycle: Cycle, sink: &mut dyn FnMut(usize, PacketSpec)) {
        let t = Instant::now();
        self.inner.generate(nodes, cycle, sink);
        self.times.generate_ns += t.elapsed().as_nanos() as u64;
        self.times.generate_calls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_closedloop::{BatchBehavior, BatchConfig};
    use noc_openloop::OpenLoopBehavior;
    use noc_sim::config::{NetConfig, TopologyKind};
    use noc_sim::network::Network;
    use noc_traffic::{Bernoulli, PatternKind, SizeKind};

    fn mesh4(seed: u64) -> NetConfig {
        NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed)
    }

    fn open_loop(seed: u64) -> OpenLoopBehavior {
        OpenLoopBehavior::new(
            16,
            PatternKind::Uniform.build(16, 4),
            SizeKind::Fixed(1).build(),
            || Box::new(Bernoulli { p: 0.2 }),
            seed,
            100,
            600,
        )
    }

    #[test]
    fn decorator_is_transparent_open_loop() {
        let mut bare_net = Network::new(mesh4(9)).unwrap();
        let mut bare = open_loop(9);
        bare_net.run(1_000, &mut bare);
        let mut timed_net = Network::new(mesh4(9)).unwrap();
        let mut timed = Timed::new(open_loop(9));
        timed_net.run(1_000, &mut timed);
        assert_eq!(bare_net.stats().delivery_digest, timed_net.stats().delivery_digest);
        assert_eq!(bare.generated, timed.inner.generated);
        assert_eq!(bare.latency.mean().to_bits(), timed.inner.latency.mean().to_bits());
        assert_eq!(timed.times.generate_calls, 1_000, "one generate sweep per cycle");
        assert_eq!(timed.times.deliver_calls, timed_net.stats().packets_delivered);
        assert!(timed.times.generate_ns > 0 && timed.times.deliver_ns > 0);
    }

    #[test]
    fn decorator_is_transparent_batch() {
        let cfg =
            BatchConfig { net: mesh4(5), batch: 40, max_outstanding: 4, ..Default::default() };
        let mut net_cfg = cfg.net.clone();
        net_cfg.classes = 2;
        let mut bare_net = Network::new(net_cfg.clone()).unwrap();
        let mut bare = BatchBehavior::new(&cfg, 16, 4);
        assert!(bare_net.drain(&mut bare, 100_000));
        let mut timed_net = Network::new(net_cfg).unwrap();
        let mut timed = Timed::new(BatchBehavior::new(&cfg, 16, 4));
        assert!(timed_net.drain(&mut timed, 100_000));
        assert_eq!(bare_net.stats().delivery_digest, timed_net.stats().delivery_digest);
        assert_eq!(bare_net.cycle(), timed_net.cycle());
        assert_eq!(bare.runtime(), timed.inner.runtime());
        assert_eq!(timed.inner.completed(), 16 * 40);
    }
}
