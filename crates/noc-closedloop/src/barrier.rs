//! The barrier model (closed loop with inter-node dependency).
//!
//! Every node streams `b` packets into the network as fast as flow
//! control allows; the run completes when the last packet of the last
//! node is delivered — a global barrier. The paper notes this measures
//! essentially network throughput and tracks open-loop saturation, which
//! is why the batch model is the focus; we implement it for completeness
//! and for the comparison tests.

use noc_sim::config::NetConfig;
use noc_sim::error::ConfigError;
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;
use noc_traffic::{Pattern, PatternKind, SizeKind};

/// Barrier-model configuration.
#[derive(Debug, Clone)]
pub struct BarrierConfig {
    /// Network configuration (single message class).
    pub net: NetConfig,
    /// Spatial pattern of destinations.
    pub pattern: PatternKind,
    /// Packets per node.
    pub batch: u64,
    /// Packet length in flits.
    pub size: u16,
    /// Simulation cycle cap.
    pub max_cycles: u64,
}

impl Default for BarrierConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::baseline(),
            pattern: PatternKind::Uniform,
            batch: 1000,
            size: 1,
            max_cycles: 50_000_000,
        }
    }
}

impl BarrierConfig {
    /// Every rule a barrier run of `self` must pass, first error first:
    /// a valid network, a pattern defined on its topology, packets of at
    /// least one flit, and at least one packet per node.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.net.validate()?;
        self.pattern.validate(&self.net.topology)?;
        SizeKind::Fixed(self.size).validate()?;
        if self.batch == 0 {
            let why = "must be >= 1 packet per node; an empty barrier measures nothing".into();
            return Err(ConfigError::Parameter { name: "batch", why });
        }
        Ok(())
    }
}

/// Result of one barrier-model run.
#[derive(Debug, Clone)]
pub struct BarrierResult {
    /// Cycle the last packet was delivered.
    pub runtime: u64,
    /// Achieved throughput (flits/cycle/node).
    pub throughput: f64,
    /// Per-node cycle at which that node's last packet was *delivered*.
    pub per_node_last_delivery: Vec<u64>,
    /// True when everything drained within the cap.
    pub drained: bool,
}

struct BarrierBehavior {
    pattern: Pattern,
    size: u16,
    rng: SimRng,
    remaining: Vec<u64>,
    polled: Vec<Cycle>,
    last_delivery_by_src: Vec<u64>,
    last_delivery: u64,
}

impl NodeBehavior for BarrierBehavior {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        if self.polled[node] == cycle || self.remaining[node] == 0 {
            return None;
        }
        self.polled[node] = cycle;
        self.remaining[node] -= 1;
        let dst = self.pattern.dest(node, &mut self.rng);
        Some(PacketSpec { dst, size: self.size, class: 0, payload: node as u64 })
    }

    fn deliver(&mut self, _node: usize, d: &Delivered, cycle: Cycle) {
        self.last_delivery_by_src[d.src] = cycle;
        self.last_delivery = self.last_delivery.max(cycle);
    }

    fn quiescent(&self) -> bool {
        self.remaining.iter().all(|&r| r == 0)
    }
}

/// Run the barrier model to completion.
pub fn run_barrier(cfg: &BarrierConfig) -> Result<BarrierResult, ConfigError> {
    cfg.validate()?;
    let mut net = Network::new(cfg.net.clone())?;
    let nodes = net.num_nodes();
    let k = net.topo().radix(0);
    let mut b = BarrierBehavior {
        pattern: cfg.pattern.build(nodes, k),
        size: cfg.size,
        rng: SimRng::new(cfg.net.seed ^ 0xbaaa_aaad),
        remaining: vec![cfg.batch; nodes],
        polled: vec![Cycle::MAX; nodes],
        last_delivery_by_src: vec![0; nodes],
        last_delivery: 0,
    };
    let drained = net.drain(&mut b, cfg.max_cycles);
    let runtime = b.last_delivery.max(1);
    Ok(BarrierResult {
        runtime,
        throughput: (cfg.batch * cfg.size as u64) as f64 / runtime as f64,
        per_node_last_delivery: b.last_delivery_by_src,
        drained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::TopologyKind;

    fn quick(b: u64) -> BarrierConfig {
        BarrierConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            batch: b,
            ..BarrierConfig::default()
        }
    }

    #[test]
    fn barrier_completes_and_reports() {
        let r = run_barrier(&quick(100)).unwrap();
        assert!(r.drained);
        assert!(r.runtime >= 100, "can't deliver faster than injection");
        assert!(r.throughput > 0.0 && r.throughput <= 1.0);
        assert_eq!(r.per_node_last_delivery.len(), 16);
    }

    #[test]
    fn barrier_throughput_approaches_saturation_for_large_b() {
        // the barrier model measures network throughput; for a large
        // batch, per-node throughput should land near the uniform-traffic
        // saturation point, well above the m=1 batch model's rate
        let r = run_barrier(&quick(2000)).unwrap();
        assert!(r.throughput > 0.35, "throughput = {}", r.throughput);
    }

    #[test]
    fn barrier_packets_carry_the_configured_size() {
        // an NI injects one flit per cycle, so `batch` packets of `size`
        // flits cannot finish sooner than `size * batch` cycles
        let r = run_barrier(&BarrierConfig { size: 4, ..quick(100) }).unwrap();
        assert!(r.drained);
        assert!(r.runtime >= 4 * 100, "runtime {} for 100 4-flit packets", r.runtime);
    }

    #[test]
    fn empty_barrier_is_refused() {
        match run_barrier(&quick(0)) {
            Err(ConfigError::Parameter { name: "batch", .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn barrier_deterministic() {
        let a = run_barrier(&quick(200)).unwrap();
        let b = run_barrier(&quick(200)).unwrap();
        assert_eq!(a.runtime, b.runtime);
    }
}
