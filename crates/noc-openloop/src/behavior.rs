//! The open-loop traffic source: an infinite source queue fed by an
//! injection process, independent of network state.

use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::NodeBehavior;
use noc_sim::rng::{Coin, SimRng};
use noc_stats::{OnlineStats, Summary};
use noc_traffic::{InjectionProcess, SizeDist, TrafficPattern};

/// Payload tag marking packets generated inside the measurement window.
const MARKED: u64 = 1;

/// Open-loop workload: each node generates packets by an independent
/// Bernoulli-style process, destinations drawn from a traffic pattern.
///
/// Packets generated within `[mark_from, mark_until)` are marked;
/// latency statistics cover marked packets only. Flit deliveries during
/// the same window are counted for accepted throughput.
pub struct OpenLoopBehavior {
    pattern: Box<dyn TrafficPattern>,
    size: Box<dyn SizeDist>,
    processes: Vec<Box<dyn InjectionProcess>>,
    rng: SimRng,
    /// `pull`'s once-per-node-per-cycle poll state. `generate` polls
    /// and consumes a whole cycle in one sweep and never touches it: the
    /// engine polls a cycle through exactly one of the two.
    last_polled: Vec<Cycle>,
    pending: Vec<bool>,
    /// Every node's process as one prepared coin, when all of them are
    /// the same fixed Bernoulli flip: `generate` then scans for the next
    /// node that fires with [`SimRng::first_heads`] instead of making a
    /// virtual `fire` call per node per cycle (identical RNG stream).
    uniform: Option<Coin>,
    mark_from: Cycle,
    mark_until: Cycle,
    /// Marked packets still in flight.
    pub marked_outstanding: u64,
    /// Latency of marked packets (generation to tail delivery).
    pub latency: OnlineStats,
    /// Source-queue component of marked-packet latency (generation to
    /// head-flit injection) — queueing delay the network never sees.
    pub queue_time: OnlineStats,
    /// In-network component (injection to tail delivery).
    pub network_time: OnlineStats,
    /// Per-source-node latency of marked packets.
    pub node_latency: Vec<OnlineStats>,
    /// Raw marked latencies per source, for exact percentiles (bounded:
    /// only collected when `keep_samples` is set).
    pub samples: Summary,
    keep_samples: bool,
    /// Flits delivered during the measurement window.
    pub window_flits: u64,
    /// Packets generated (all phases).
    pub generated: u64,
}

impl OpenLoopBehavior {
    /// Build a source for `nodes` nodes. `make_process` constructs the
    /// per-node injection process (one each so burst state is private).
    pub fn new(
        nodes: usize,
        pattern: Box<dyn TrafficPattern>,
        size: Box<dyn SizeDist>,
        make_process: impl Fn() -> Box<dyn InjectionProcess>,
        seed: u64,
        mark_from: Cycle,
        mark_until: Cycle,
    ) -> Self {
        let processes: Vec<_> = (0..nodes).map(|_| make_process()).collect();
        let uniform = match processes.first().and_then(|p| p.fixed_bernoulli()) {
            Some(p) if processes.iter().all(|q| q.fixed_bernoulli() == Some(p)) => {
                Some(Coin::new(p))
            }
            _ => None,
        };
        Self {
            pattern,
            size,
            processes,
            rng: SimRng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            last_polled: vec![Cycle::MAX; nodes],
            pending: vec![false; nodes],
            uniform,
            mark_from,
            mark_until,
            marked_outstanding: 0,
            latency: OnlineStats::new(),
            queue_time: OnlineStats::new(),
            network_time: OnlineStats::new(),
            node_latency: vec![OnlineStats::new(); nodes],
            samples: Summary::new(),
            keep_samples: false,
            window_flits: 0,
            generated: 0,
        }
    }

    /// Retain raw marked latency samples for exact percentiles
    /// (memory grows with measured packet count).
    pub fn keep_samples(&mut self) {
        self.keep_samples = true;
    }

    fn in_window(&self, cycle: Cycle) -> bool {
        (self.mark_from..self.mark_until).contains(&cycle)
    }

    /// The packet `node`'s process just fired: destination, then size.
    fn packet(&mut self, node: usize, marked: bool) -> PacketSpec {
        self.generated += 1;
        let dst = self.pattern.dest(node, &mut self.rng);
        let size = self.size.draw(&mut self.rng);
        if marked {
            self.marked_outstanding += 1;
        }
        PacketSpec { dst, size, class: 0, payload: if marked { MARKED } else { 0 } }
    }
}

impl NodeBehavior for OpenLoopBehavior {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        // poll the injection process exactly once per node per cycle
        if self.last_polled[node] != cycle {
            self.last_polled[node] = cycle;
            self.pending[node] = self.processes[node].fire(&mut self.rng);
        }
        if !self.pending[node] {
            return None;
        }
        self.pending[node] = false;
        Some(self.packet(node, self.in_window(cycle)))
    }

    fn deliver(&mut self, _node: usize, d: &Delivered, cycle: Cycle) {
        if self.in_window(cycle) {
            self.window_flits += d.size as u64;
        }
        if d.payload == MARKED {
            self.marked_outstanding -= 1;
            let lat = (cycle - d.birth) as f64;
            self.latency.push(lat);
            self.queue_time.push((d.inject - d.birth) as f64);
            self.network_time.push((cycle - d.inject) as f64);
            self.node_latency[d.src].push(lat);
            if self.keep_samples {
                self.samples.push(lat);
            }
        }
    }

    fn quiescent(&self) -> bool {
        // an open-loop source never stops by itself; the measurement
        // driver decides when to stop stepping
        false
    }

    fn generate(&mut self, nodes: usize, cycle: Cycle, sink: &mut dyn FnMut(usize, PacketSpec)) {
        // batched twin of `pull`: identical draws in identical order
        // (one process poll per node, then destination and size per
        // packet), with every node polled and consumed in this one
        // sweep, so none of `pull`'s per-node dedup state is needed.
        debug_assert_eq!(nodes, self.processes.len());
        let marked = self.in_window(cycle);
        match self.uniform {
            // every node the same fixed Bernoulli flip: skip the nodes
            // that do not fire in a call-free scan, stopping at each hit
            Some(coin) => {
                let mut from = 0;
                while let Some(node) = self.rng.first_heads(coin, from..nodes) {
                    sink(node, self.packet(node, marked));
                    from = node + 1;
                }
            }
            None => {
                for node in 0..nodes {
                    if self.processes[node].fire(&mut self.rng) {
                        sink(node, self.packet(node, marked));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::{Bernoulli, PatternKind, SizeKind};

    fn behavior(load: f64, from: Cycle, until: Cycle) -> OpenLoopBehavior {
        OpenLoopBehavior::new(
            4,
            PatternKind::Uniform.build(4, 2),
            SizeKind::Fixed(1).build(),
            move || Box::new(Bernoulli { p: load }),
            7,
            from,
            until,
        )
    }

    type Packets = Vec<(usize, PacketSpec)>;

    fn source(
        nodes: usize,
        make: impl Fn() -> Box<dyn InjectionProcess>,
        seed: u64,
        mark: (Cycle, Cycle),
    ) -> OpenLoopBehavior {
        OpenLoopBehavior::new(
            nodes,
            PatternKind::Uniform.build(nodes, 1),
            SizeKind::Fixed(2).build(),
            make,
            seed,
            mark.0,
            mark.1,
        )
    }

    fn via_generate(b: &mut OpenLoopBehavior, nodes: usize, cycle: Cycle) -> Packets {
        let mut out = Packets::new();
        b.generate(nodes, cycle, &mut |node, spec| out.push((node, spec)));
        out
    }

    /// The engine's default `generate`: the per-node pull loop.
    fn via_pull(b: &mut OpenLoopBehavior, nodes: usize, cycle: Cycle) -> Packets {
        let mut out = Packets::new();
        for node in 0..nodes {
            while let Some(spec) = b.pull(node, cycle) {
                out.push((node, spec));
            }
        }
        out
    }

    #[test]
    fn generate_matches_pull_loop_exactly() {
        // the batched override must replay the default per-node pull
        // loop bit for bit: same packets, same order, same RNG stream,
        // across the mark window opening (cycle 40) and closing (120)
        for p in [0.0, 1e-4, 0.35, 1.0] {
            for nodes in [1, 64, 1024] {
                let mk = || source(nodes, move || Box::new(Bernoulli { p }), 42, (40, 120));
                let (mut batched, mut pulled) = (mk(), mk());
                assert!(batched.uniform.is_some());
                for cycle in 0..160 {
                    let got = via_generate(&mut batched, nodes, cycle);
                    let want = via_pull(&mut pulled, nodes, cycle);
                    assert_eq!(got, want, "p {p} nodes {nodes} cycle {cycle}");
                }
                assert_eq!(batched.generated, pulled.generated, "p {p} nodes {nodes}");
                assert_eq!(batched.marked_outstanding, pulled.marked_outstanding);
                assert_eq!(batched.rng.below(1 << 30), pulled.rng.below(1 << 30));
                if p * nodes as f64 >= 0.1 {
                    assert!(batched.marked_outstanding > 0, "p {p} nodes {nodes}");
                }
            }
        }
    }

    #[test]
    fn uniform_path_never_calls_fire() {
        // a process that declares a fixed Bernoulli flip but panics when
        // fired: `generate` must make the flip itself, drawing what a
        // real `Bernoulli` of the same `p` draws
        struct Declared(f64);
        impl InjectionProcess for Declared {
            fn fire(&mut self, _: &mut SimRng) -> bool {
                panic!("the uniform path made a virtual fire call")
            }
            fn fixed_bernoulli(&self) -> Option<f64> {
                Some(self.0)
            }
        }
        let mut declared = source(256, || Box::new(Declared(0.01)), 3, (0, 50));
        let mut real = source(256, || Box::new(Bernoulli { p: 0.01 }), 3, (0, 50));
        for cycle in 0..100 {
            let got = via_generate(&mut declared, 256, cycle);
            assert_eq!(got, via_generate(&mut real, 256, cycle), "cycle {cycle}");
        }
        assert!(declared.generated > 0);
        assert_eq!(declared.generated, real.generated);
    }

    #[test]
    fn generate_matches_pull_loop_without_uniform_fast_path() {
        // bursty processes have state, so `fixed_bernoulli` is None and
        // `generate` must take the general virtual-dispatch loop; it
        // still has to replay the pull loop exactly
        use noc_traffic::OnOff;
        let mk = || source(16, || Box::new(OnOff::new(0.6, 0.2, 0.3)), 42, (5, 40));
        let (mut batched, mut pulled) = (mk(), mk());
        assert!(batched.uniform.is_none());
        for cycle in 0..60 {
            let got = via_generate(&mut batched, 16, cycle);
            assert_eq!(got, via_pull(&mut pulled, 16, cycle), "cycle {cycle}");
        }
        assert_eq!(batched.generated, pulled.generated);
    }

    #[test]
    fn protocols_may_alternate_between_cycles() {
        // the engine polls a cycle through exactly one of
        // `generate`/`pull` but may switch between cycles (a router
        // dies, is repaired): `generate` on even cycles and the pull
        // loop on odd ones must equal the pure pull loop, on the
        // prepared-coin scan and the virtual-dispatch loop alike; the
        // sparse 1024-node case has cycles with several scan hits
        use noc_traffic::OnOff;
        type Mk = fn() -> Box<dyn InjectionProcess>;
        let cases: [(usize, Mk); 3] = [
            (8, || Box::new(Bernoulli { p: 0.5 })),
            (8, || Box::new(OnOff::new(0.6, 0.2, 0.3))),
            (1024, || Box::new(Bernoulli { p: 0.003 })),
        ];
        for (which, (nodes, make)) in cases.into_iter().enumerate() {
            let mk = || source(nodes, make, 9, (0, 100));
            let (mut mixed, mut pure) = (mk(), mk());
            assert_eq!(mixed.uniform.is_some(), which != 1);
            let mut most_hits = 0;
            for cycle in 0..40 {
                let got = if cycle % 2 == 0 {
                    let got = via_generate(&mut mixed, nodes, cycle);
                    most_hits = most_hits.max(got.len());
                    got
                } else {
                    via_pull(&mut mixed, nodes, cycle)
                };
                assert_eq!(got, via_pull(&mut pure, nodes, cycle), "case {which} cycle {cycle}");
            }
            assert_eq!(mixed.generated, pure.generated);
            assert!(most_hits >= 2, "case {which}: at most {most_hits} packets in a cycle");
        }
    }

    #[test]
    fn polls_once_per_cycle() {
        let mut b = behavior(1.0, 0, 100);
        // p = 1.0: first pull yields a packet, second pull same cycle must not
        assert!(b.pull(0, 0).is_some());
        assert!(b.pull(0, 0).is_none());
        assert!(b.pull(0, 1).is_some());
    }

    #[test]
    fn marks_only_in_window() {
        let mut b = behavior(1.0, 10, 20);
        assert_eq!(b.pull(0, 5).unwrap().payload, 0);
        assert_eq!(b.pull(0, 10).unwrap().payload, MARKED);
        assert_eq!(b.pull(0, 19).unwrap().payload, MARKED);
        assert_eq!(b.pull(0, 20).unwrap().payload, 0);
        assert_eq!(b.marked_outstanding, 2);
    }

    #[test]
    fn latency_recorded_on_marked_delivery() {
        let mut b = behavior(1.0, 0, 100);
        let spec = b.pull(2, 0).unwrap();
        let d = Delivered {
            uid: 0,
            src: 2,
            dst: spec.dst,
            size: 1,
            class: 0,
            birth: 0,
            inject: 0,
            payload: spec.payload,
        };
        b.deliver(spec.dst, &d, 15);
        assert_eq!(b.latency.count(), 1);
        assert_eq!(b.latency.mean(), 15.0);
        assert_eq!(b.node_latency[2].count(), 1);
        assert_eq!(b.marked_outstanding, 0);
    }

    #[test]
    fn window_flits_counted() {
        let mut b = behavior(1.0, 10, 20);
        let d = Delivered {
            uid: 0,
            src: 0,
            dst: 1,
            size: 4,
            class: 0,
            birth: 5,
            inject: 5,
            payload: 0,
        };
        b.deliver(1, &d, 15);
        b.deliver(1, &d, 25); // outside window
        assert_eq!(b.window_flits, 4);
    }
}
