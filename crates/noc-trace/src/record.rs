//! Trace capture: wrap any [`NodeBehavior`] and record every packet it
//! generates.

use noc_closedloop::BatchConfig;
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::NodeBehavior;
use noc_sim::ConfigError;

use crate::trace::{Trace, TraceRecord};

/// Wraps a workload and records its packet generations. Capture order
/// follows the engine's per-cycle node sweep, so records are in
/// non-decreasing cycle order automatically.
pub struct Recorder<B> {
    /// The wrapped workload.
    pub inner: B,
    /// The trace being captured.
    pub trace: Trace,
}

impl<B: NodeBehavior> Recorder<B> {
    /// Start recording around `inner` for a `nodes`-node network.
    pub fn new(inner: B, nodes: usize) -> Self {
        Self { inner, trace: Trace::new(nodes) }
    }
}

impl<B: NodeBehavior> NodeBehavior for Recorder<B> {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        let spec = self.inner.pull(node, cycle)?;
        self.trace.push(TraceRecord {
            cycle,
            src: node as u32,
            dst: spec.dst as u32,
            size: spec.size,
            class: spec.class,
        });
        Some(spec)
    }

    fn deliver(&mut self, node: usize, d: &Delivered, cycle: Cycle) {
        self.inner.deliver(node, d, cycle);
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }
}

/// Convenience: run the batch model once ([`BatchConfig::start`], so
/// under its rules) while capturing its trace. Returns the trace and
/// the closed-loop runtime it exhibited.
pub fn record_batch(cfg: &BatchConfig) -> Result<(Trace, u64), ConfigError> {
    let (mut net, behavior) = cfg.start()?;
    let mut rec = Recorder::new(behavior, net.num_nodes());
    net.drain(&mut rec, cfg.max_cycles);
    let runtime = rec.inner.runtime();
    Ok((rec.trace, runtime))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::{NetConfig, TopologyKind};

    #[test]
    fn batch_trace_captures_requests_and_replies() {
        let cfg = BatchConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            batch: 25,
            max_outstanding: 2,
            ..BatchConfig::default()
        };
        let (trace, runtime) = record_batch(&cfg).unwrap();
        assert_eq!(trace.nodes, 16);
        assert_eq!(trace.len() as u64, 2 * 16 * 25);
        assert!(runtime > 0);
        assert!(trace.duration() <= runtime);
        // both classes present
        assert!(trace.records.iter().any(|r| r.class == 0));
        assert!(trace.records.iter().any(|r| r.class == 1));
    }

    #[test]
    fn trace_timing_reflects_feedback() {
        // an m=1 trace has request gaps >= the round-trip time; the same
        // batch at m=8 packs requests much closer together
        let gap = |m: usize| {
            let cfg = BatchConfig {
                net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
                batch: 30,
                max_outstanding: m,
                ..BatchConfig::default()
            };
            let (trace, _) = record_batch(&cfg).unwrap();
            // average inter-request gap at node 0
            let cycles: Vec<u64> = trace
                .records
                .iter()
                .filter(|r| r.src == 0 && r.class == 0)
                .map(|r| r.cycle)
                .collect();
            let span = cycles.last().unwrap() - cycles[0];
            span as f64 / (cycles.len() - 1) as f64
        };
        assert!(gap(1) > 2.0 * gap(8), "m=1 gap {} vs m=8 gap {}", gap(1), gap(8));
    }
}
