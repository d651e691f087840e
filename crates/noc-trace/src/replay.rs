//! Trace replay: inject recorded packets at their recorded times,
//! regardless of network state — faithfully reproducing trace-driven
//! simulation *including* its causality blindness.

use std::collections::VecDeque;

use noc_sim::config::NetConfig;
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::ConfigError;
use noc_stats::OnlineStats;

use crate::trace::Trace;

/// The replaying [`NodeBehavior`]: per-source queues of records,
/// released when their recorded cycle arrives. An overloaded network
/// simply accumulates them in the (infinite) source queues — recorded
/// timestamps are never stretched, which is precisely the methodology's
/// documented weakness.
pub struct Replayer {
    queues: Vec<VecDeque<(Cycle, u32, u16, u8)>>,
    /// Per-packet latency relative to the *recorded* generation time.
    pub latency: OnlineStats,
    /// Cycle of the last delivery.
    pub last_delivery: Cycle,
    /// Packets delivered.
    pub delivered: u64,
}

impl Replayer {
    /// Build a replayer from a trace.
    pub fn new(trace: &Trace) -> Self {
        let mut queues = vec![VecDeque::new(); trace.nodes];
        for r in &trace.records {
            queues[r.src as usize].push_back((r.cycle, r.dst, r.size, r.class));
        }
        Self { queues, latency: OnlineStats::new(), last_delivery: 0, delivered: 0 }
    }
}

impl NodeBehavior for Replayer {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        let &(ready, dst, size, class) = self.queues[node].front()?;
        if ready > cycle {
            return None;
        }
        self.queues[node].pop_front();
        Some(PacketSpec { dst: dst as usize, size, class, payload: ready })
    }

    fn deliver(&mut self, _node: usize, d: &Delivered, cycle: Cycle) {
        // payload carries the recorded generation time
        self.latency.push((cycle - d.payload) as f64);
        self.last_delivery = cycle;
        self.delivered += 1;
    }

    fn quiescent(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }
}

/// Result of replaying a trace on a network.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Cycle the last packet was delivered.
    pub runtime: u64,
    /// Average latency relative to recorded generation times.
    pub avg_latency: f64,
    /// Worst packet latency.
    pub max_latency: f64,
    /// Packets delivered.
    pub delivered: u64,
    /// True when the replay drained before the cycle cap.
    pub drained: bool,
}

/// Replay `trace` on a network configured by `net` (message classes are
/// sized to cover every class in the trace). A trace it cannot inject
/// (another node count, a 0-flit or off-network record) is a `trace` error.
pub fn replay(net: &NetConfig, trace: &Trace) -> Result<ReplayResult, ConfigError> {
    let mut cfg = net.clone();
    let max_class = trace.records.iter().map(|r| r.class).max().unwrap_or(0);
    cfg.classes = cfg.classes.max(max_class as usize + 1);
    let mut network = Network::new(cfg)?;
    let nodes = network.num_nodes();
    let bad = trace.records.iter().find(|r| r.size == 0 || r.src.max(r.dst) as usize >= nodes);
    if trace.nodes != nodes || bad.is_some() {
        let why = format!("{} nodes captured, {nodes} replayed; bad record {bad:?}", trace.nodes);
        return Err(ConfigError::Parameter { name: "trace", why });
    }
    let mut rep = Replayer::new(trace);
    // generous cap: traces replayed on slower networks stretch, but a
    // replay can never legitimately exceed ~makespan + full drain
    let cap = trace.duration().max(1) * 4 + 1_000_000;
    let drained = network.drain(&mut rep, cap);
    Ok(ReplayResult {
        runtime: rep.last_delivery,
        avg_latency: rep.latency.mean(),
        max_latency: rep.latency.max().unwrap_or(0.0),
        delivered: rep.delivered,
        drained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::record_batch;
    use crate::trace::TraceRecord;
    use noc_closedloop::BatchConfig;
    use noc_sim::config::TopologyKind;

    fn net4() -> NetConfig {
        NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 })
    }

    #[test]
    fn replay_delivers_everything() {
        let mut trace = Trace::new(16);
        for i in 0..50u64 {
            trace.push(TraceRecord {
                cycle: i,
                src: (i % 16) as u32,
                dst: ((i * 7 + 3) % 16) as u32,
                size: 1 + (i % 3) as u16,
                class: 0,
            });
        }
        let r = replay(&net4(), &trace).unwrap();
        assert!(r.drained);
        assert_eq!(r.delivered, 50);
        assert!(r.runtime >= trace.duration());
        assert!(r.avg_latency > 0.0 && r.max_latency >= r.avg_latency);
    }

    #[test]
    fn replay_of_batch_trace_matches_closed_loop_on_same_network() {
        let cfg =
            BatchConfig { net: net4(), batch: 60, max_outstanding: 2, ..BatchConfig::default() };
        let (trace, closed_rt) = record_batch(&cfg).unwrap();
        let r = replay(&cfg.net, &trace).unwrap();
        assert!(r.drained);
        assert_eq!(r.delivered as usize, trace.len());
        let ratio = r.runtime as f64 / closed_rt as f64;
        assert!((0.85..1.15).contains(&ratio), "same-network replay ratio {ratio}");
    }

    #[test]
    fn replay_ignores_causality_and_underestimates_degradation() {
        // the paper's core criticism of trace-driven evaluation: capture
        // at tr=1, replay at tr=8 — the trace keeps injecting on the
        // tr=1 schedule, so the measured runtime barely grows, while the
        // closed-loop model slows dramatically.
        let base =
            BatchConfig { net: net4(), batch: 80, max_outstanding: 1, ..BatchConfig::default() };
        let (trace, closed_rt1) = record_batch(&base).unwrap();

        let slow_cfg = BatchConfig { net: base.net.clone().with_router_delay(8), ..base.clone() };
        let closed_rt8 = noc_closedloop::run_batch(&slow_cfg).unwrap().runtime;
        let closed_slowdown = closed_rt8 as f64 / closed_rt1 as f64;

        let replay_rt8 = replay(&slow_cfg.net, &trace).unwrap().runtime;
        let replay_slowdown = replay_rt8 as f64 / closed_rt1 as f64;

        assert!(closed_slowdown > 2.0, "closed loop must feel tr=8: {closed_slowdown}");
        assert!(
            replay_slowdown < 0.6 * closed_slowdown,
            "trace replay should hide most of the degradation: replay {replay_slowdown:.2} \
             vs closed {closed_slowdown:.2}"
        );
    }

    #[test]
    fn uninjectable_traces_are_refused() {
        let rec = |size, dst| TraceRecord { cycle: 0, src: 1, dst, size, class: 0 };
        let mut wide = Trace::new(64);
        wide.push(rec(1, 40));
        let mut empty_packet = Trace::new(16);
        empty_packet.push(rec(0, 2));
        let mut off_net = Trace::new(16);
        off_net.push(rec(1, 16));
        for trace in [wide, empty_packet, off_net] {
            match replay(&net4(), &trace) {
                Err(ConfigError::Parameter { name: "trace", .. }) => {}
                other => panic!("{trace:?}: {other:?}"),
            }
        }
        // a 0-flit record never parses in the first place
        assert!(Trace::from_text("nodes 16\n0 1 2 0 0\n").is_err());
    }

    #[test]
    fn empty_trace_replays_trivially() {
        let r = replay(&net4(), &Trace::new(16)).unwrap();
        assert!(r.drained);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.avg_latency, 0.0);
    }
}
