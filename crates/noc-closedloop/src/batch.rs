//! The batch model (closed loop with intra-node dependency).
//!
//! Every node must complete a batch of `b` remote operations. Each
//! operation is a request packet; when it reaches its destination, a
//! reply is generated (optionally after a memory-model delay) and sent
//! back. A node may have at most `m` operations outstanding — the MSHR
//! model — and, with the enhanced injection model, issues new requests
//! only at its network access rate (NAR). Runtime is the cycle the last
//! reply lands; the node with the largest runtime defines `T`, making
//! this a *worst-case* measurement (unlike open-loop averages).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use noc_sim::config::NetConfig;
use noc_sim::error::ConfigError;
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;
use noc_traffic::{Pattern, PatternKind, SizeKind};

use crate::kernel::{KernelModel, TimerAccumulator};
use crate::reply::ReplyModel;

/// Message class of request packets.
pub const REQUEST: u8 = 0;
/// Message class of reply packets.
pub const REPLY: u8 = 1;

/// Batch-model experiment configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Network configuration (`classes` is forced to 2).
    pub net: NetConfig,
    /// Spatial pattern of request destinations.
    pub pattern: PatternKind,
    /// Operations per node (`b`).
    pub batch: u64,
    /// Maximum outstanding operations per node (`m`, the MSHR count).
    pub max_outstanding: usize,
    /// Request packet length in flits.
    pub request_size: u16,
    /// Reply packet length in flits.
    pub reply_size: u16,
    /// Network access rate: probability per cycle that a node with a
    /// spare MSHR issues its next request. `1.0` is the baseline model.
    pub nar: f64,
    /// Reply-latency model.
    pub reply_model: ReplyModel,
    /// Optional kernel-traffic model.
    pub kernel: Option<KernelModel>,
    /// Simulation cycle cap (guards against misconfiguration).
    pub max_cycles: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::baseline(),
            pattern: PatternKind::Uniform,
            batch: 1000,
            max_outstanding: 1,
            request_size: 1,
            reply_size: 1,
            nar: 1.0,
            reply_model: ReplyModel::Immediate,
            kernel: None,
            max_cycles: 50_000_000,
        }
    }
}

impl BatchConfig {
    /// Set the network access rate.
    pub fn with_nar(mut self, nar: f64) -> Self {
        self.nar = nar;
        self
    }

    /// Set the reply model.
    pub fn with_reply(mut self, r: ReplyModel) -> Self {
        self.reply_model = r;
        self
    }

    /// Replicate `index` of `self`: the RNG seed derived from
    /// `(net.seed, index)`, independent of evaluation order.
    pub fn point(&self, index: usize) -> Self {
        let mut cfg = self.clone();
        cfg.net.seed = noc_exp::derive_seed(self.net.seed, index as u64);
        cfg
    }

    /// Every rule a batch-model run of `self` must pass, first error
    /// first: a network valid with the model's two message classes, a
    /// pattern defined on its topology, request and reply packets of at
    /// least one flit, `batch` and `max_outstanding` >= 1, a `nar` in
    /// (0, 1], a probabilistic reply model's `mem_frac` in [0, 1], and a
    /// kernel model with finite, non-negative `static_frac` and
    /// `timer_rate` whose timer cannot overflow the 64-bit request
    /// counters within `max_cycles`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.net.clone().with_classes(2).validate()?;
        self.pattern.validate(&self.net.topology)?;
        for (name, size) in [("request_size", self.request_size), ("reply_size", self.reply_size)] {
            if let Err(ConfigError::Parameter { why, .. }) = SizeKind::Fixed(size).validate() {
                return Err(ConfigError::Parameter { name, why });
            }
        }
        let mem_frac = match self.reply_model {
            ReplyModel::Probabilistic { mem_frac, .. } => mem_frac,
            _ => 0.0,
        };
        let k = self.kernel.unwrap_or_else(KernelModel::none);
        // within `max_cycles` timer ticks a node gains at most this many
        // requests; with the effective batch, times the node count, it
        // must stay inside half of `u64` (the rest absorbs float rounding)
        let added = (self.max_cycles as f64 * k.timer_rate + 1.0) * k.timer_packets as f64;
        let total =
            (k.effective_batch(self.batch) as f64 + added) * self.net.topology.num_nodes() as f64;
        let (name, why) = if self.batch == 0 {
            ("batch", "must be >= 1 operation per node; T/b of an empty batch is 0/0".into())
        } else if self.max_outstanding == 0 {
            ("max_outstanding", "must be >= 1; a node with no MSHR never issues".into())
        } else if !(self.nar > 0.0 && self.nar <= 1.0) {
            ("nar", format!("{} is not in (0, 1]; a node must issue with some chance", self.nar))
        } else if !(0.0..=1.0).contains(&mem_frac) {
            ("mem_frac", format!("{mem_frac} is not a probability in [0, 1]"))
        } else if !(k.static_frac.is_finite() && k.static_frac >= 0.0) {
            ("static_frac", format!("{} is not a finite fraction >= 0", k.static_frac))
        } else if !(k.timer_rate.is_finite() && k.timer_rate >= 0.0) {
            ("timer_rate", format!("{} is not a finite rate >= 0 events/cycle", k.timer_rate))
        } else if k.timer_rate > 0.0 && k.timer_packets > 0 && total >= (u64::MAX / 2) as f64 {
            let why = format!(
                "{} per event at rate {} can add {added:e} requests per node within \
                 max_cycles {}, overflowing the 64-bit request counters",
                k.timer_packets, k.timer_rate, self.max_cycles
            );
            ("timer_packets", why)
        } else {
            return Ok(());
        };
        Err(ConfigError::Parameter { name, why })
    }

    /// Validate `self`, then build its run: the network with two message
    /// classes (requests, replies) and the batch behaviour on it.
    pub fn start(&self) -> Result<(Network, BatchBehavior), ConfigError> {
        self.validate()?;
        let mut net_cfg = self.net.clone();
        net_cfg.classes = 2;
        let net = Network::new(net_cfg)?;
        let b = BatchBehavior::new(self, net.num_nodes(), net.topo().radix(0));
        Ok((net, b))
    }
}

/// Result of one batch-model run.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Total runtime `T`: cycle when the last reply was delivered.
    pub runtime: u64,
    /// Runtime normalized to the batch size (`T / b`).
    pub normalized_runtime: f64,
    /// Achieved throughput in flits/cycle/node:
    /// `completed x (request + reply flits) / (N x T)`;
    /// equals the paper's `2 b / T` for single-flit packets without
    /// kernel traffic.
    pub throughput: f64,
    /// Per-node completion cycle (last reply at that node) — Fig 7.
    pub per_node_runtime: Vec<u64>,
    /// Requests completed in total (includes kernel-added work).
    pub completed: u64,
    /// Requests added by the kernel timer model.
    pub timer_added: u64,
    /// True when everything drained before `max_cycles`.
    pub drained: bool,
}

#[derive(Debug, Clone, Default)]
struct NodeState {
    to_issue: u64,
    issued: u64,
    outstanding: usize,
    completed: u64,
    last_reply: u64,
}

/// The batch-model [`NodeBehavior`].
pub struct BatchBehavior {
    pattern: Pattern,
    rng: SimRng,
    nodes: Vec<NodeState>,
    replies: Vec<BinaryHeap<Reverse<(Cycle, usize)>>>,
    m: usize,
    nar: f64,
    request_size: u16,
    reply_size: u16,
    reply_model: ReplyModel,
    kernel: KernelModel,
    timer: TimerAccumulator,
    user_target: u64,
    last_cycle: Cycle,
    req_polled: Vec<Cycle>,
    /// Requests added dynamically by timer events.
    pub timer_added: u64,
}

impl BatchBehavior {
    /// Build the behavior for `nodes` nodes.
    pub fn new(cfg: &BatchConfig, nodes: usize, k: usize) -> Self {
        let kernel = cfg.kernel.unwrap_or_else(KernelModel::none);
        let user_target = kernel.effective_batch(cfg.batch);
        let mut states = vec![NodeState::default(); nodes];
        for st in &mut states {
            st.to_issue = user_target;
        }
        Self {
            pattern: cfg.pattern.build(nodes, k),
            rng: SimRng::new(cfg.net.seed ^ 0xbadc_0ffe_u64),
            nodes: states,
            replies: (0..nodes).map(|_| BinaryHeap::new()).collect(),
            m: cfg.max_outstanding,
            nar: cfg.nar,
            request_size: cfg.request_size,
            reply_size: cfg.reply_size,
            reply_model: cfg.reply_model,
            kernel,
            timer: TimerAccumulator::default(),
            user_target,
            last_cycle: Cycle::MAX,
            req_polled: vec![Cycle::MAX; nodes],
            timer_added: 0,
        }
    }

    /// Per-node completion cycles.
    pub fn per_node_runtime(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.last_reply).collect()
    }

    /// Total completed requests.
    pub fn completed(&self) -> u64 {
        self.nodes.iter().map(|n| n.completed).sum()
    }

    /// Global runtime: the worst node's completion cycle.
    pub fn runtime(&self) -> u64 {
        self.nodes.iter().map(|n| n.last_reply).max().unwrap_or(0)
    }

    /// True while any node still has *user* batch work unfinished —
    /// the window during which timer traffic keeps being added.
    fn user_work_pending(&self) -> bool {
        self.nodes.iter().any(|n| n.completed < self.user_target)
    }

    fn tick(&mut self, cycle: Cycle) {
        if self.last_cycle == cycle {
            return;
        }
        self.last_cycle = cycle;
        if self.kernel.timer_rate > 0.0 && self.user_work_pending() {
            let events = self.timer.tick(self.kernel.timer_rate);
            if events > 0 {
                let extra = events * self.kernel.timer_packets;
                for st in &mut self.nodes {
                    st.to_issue += extra;
                }
                self.timer_added += extra * self.nodes.len() as u64;
            }
        }
    }
}

impl NodeBehavior for BatchBehavior {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        self.tick(cycle);
        // 1) ready replies take priority (they unblock remote MSHRs)
        if let Some(&Reverse((ready, dst))) = self.replies[node].peek() {
            if ready <= cycle {
                self.replies[node].pop();
                return Some(PacketSpec { dst, size: self.reply_size, class: REPLY, payload: 0 });
            }
        }
        // 2) at most one request attempt per node per cycle
        if self.req_polled[node] == cycle {
            return None;
        }
        self.req_polled[node] = cycle;
        let can_issue = {
            let st = &self.nodes[node];
            st.to_issue > 0 && st.outstanding < self.m
        };
        if can_issue && self.rng.chance(self.nar) {
            let st = &mut self.nodes[node];
            st.to_issue -= 1;
            st.issued += 1;
            st.outstanding += 1;
            let dst = self.pattern.dest(node, &mut self.rng);
            return Some(PacketSpec { dst, size: self.request_size, class: REQUEST, payload: 0 });
        }
        None
    }

    fn deliver(&mut self, node: usize, d: &Delivered, cycle: Cycle) {
        match d.class {
            REQUEST => {
                // the "memory system" at `node` services the request and
                // schedules the reply toward the requester
                let delay = self.reply_model.delay(&mut self.rng);
                self.replies[node].push(Reverse((cycle + delay, d.src)));
            }
            REPLY => {
                let st = &mut self.nodes[node];
                st.outstanding -= 1;
                st.completed += 1;
                st.last_reply = cycle;
            }
            c => panic!("unexpected message class {c}"),
        }
    }

    fn quiescent(&self) -> bool {
        self.nodes.iter().all(|n| n.to_issue == 0 && n.outstanding == 0)
            && self.replies.iter().all(|q| q.is_empty())
    }
}

/// Run the batch model to completion ([`BatchConfig::start`], then drain).
pub fn run_batch(cfg: &BatchConfig) -> Result<BatchResult, ConfigError> {
    let (mut net, mut b) = cfg.start()?;
    let drained = net.drain(&mut b, cfg.max_cycles);
    let nodes = net.num_nodes();
    let runtime = b.runtime().max(1);
    let completed = b.completed();
    let flits = completed * (cfg.request_size + cfg.reply_size) as u64;
    Ok(BatchResult {
        runtime,
        normalized_runtime: runtime as f64 / cfg.batch as f64,
        throughput: flits as f64 / nodes as f64 / runtime as f64,
        per_node_runtime: b.per_node_runtime(),
        completed,
        timer_added: b.timer_added,
        drained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::TopologyKind;

    fn quick(b: u64, m: usize) -> BatchConfig {
        BatchConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            batch: b,
            max_outstanding: m,
            ..BatchConfig::default()
        }
    }

    #[test]
    fn completes_exactly_n_times_b() {
        let r = run_batch(&quick(50, 2)).unwrap();
        assert!(r.drained);
        assert_eq!(r.completed, 16 * 50);
        assert_eq!(r.per_node_runtime.len(), 16);
        assert!(r.per_node_runtime.iter().all(|&t| t > 0 && t <= r.runtime));
    }

    #[test]
    fn more_mshrs_reduce_runtime() {
        let m1 = run_batch(&quick(100, 1)).unwrap();
        let m4 = run_batch(&quick(100, 4)).unwrap();
        let m16 = run_batch(&quick(100, 16)).unwrap();
        assert!(m4.runtime < m1.runtime, "{} vs {}", m4.runtime, m1.runtime);
        assert!(m16.runtime < m4.runtime, "{} vs {}", m16.runtime, m4.runtime);
        assert!(m16.throughput > m1.throughput);
    }

    #[test]
    fn throughput_is_two_b_over_t_for_unit_packets() {
        let r = run_batch(&quick(100, 4)).unwrap();
        let expect = 2.0 * 100.0 / r.runtime as f64;
        assert!((r.throughput - expect).abs() < 1e-9);
    }

    #[test]
    fn m1_runtime_is_batch_times_round_trip() {
        // with m = 1 every operation is a full round trip; on a 4x4 mesh
        // the average round trip is ~2 x (H_avg x 2 + 1) plus queueing.
        let r = run_batch(&quick(200, 1)).unwrap();
        let per_op = r.runtime as f64 / 200.0;
        assert!(per_op > 8.0 && per_op < 20.0, "per-op = {per_op}");
    }

    #[test]
    fn nar_throttles_injection() {
        let full = run_batch(&quick(100, 4)).unwrap();
        let throttled = run_batch(&quick(100, 4).with_nar(0.05)).unwrap();
        assert!(throttled.runtime > 2 * full.runtime);
        // ~one request per 20 cycles per node: runtime near b / NAR
        let expect = 100.0 / 0.05;
        let ratio = throttled.runtime as f64 / expect;
        assert!(ratio > 0.8 && ratio < 1.6, "ratio = {ratio}");
    }

    #[test]
    fn reply_latency_extends_runtime() {
        let fast = run_batch(&quick(100, 1)).unwrap();
        let slow = run_batch(&quick(100, 1).with_reply(ReplyModel::Fixed { latency: 50 })).unwrap();
        // with m = 1 each op serializes on the reply delay
        let delta = (slow.runtime - fast.runtime) as f64 / 100.0;
        assert!((delta - 50.0).abs() < 5.0, "delta per op = {delta}");
    }

    #[test]
    fn kernel_static_inflation_increases_work() {
        let plain = run_batch(&quick(100, 4)).unwrap();
        let kernel = Some(KernelModel { static_frac: 0.5, timer_rate: 0.0, timer_packets: 0 });
        let inflated = run_batch(&BatchConfig { kernel, ..quick(100, 4) }).unwrap();
        assert_eq!(inflated.completed, 16 * 150);
        assert!(inflated.runtime > plain.runtime);
    }

    #[test]
    fn kernel_timer_adds_runtime_proportional_traffic() {
        let kernel = Some(KernelModel { static_frac: 0.0, timer_rate: 0.01, timer_packets: 2 });
        let cfg = BatchConfig { kernel, ..quick(200, 2) };
        let r = run_batch(&cfg).unwrap();
        assert!(r.drained);
        assert!(r.timer_added > 0);
        assert_eq!(r.completed, 16 * 200 + r.timer_added);
    }

    #[test]
    fn transpose_pattern_works_with_self_traffic() {
        let mut cfg = quick(50, 2);
        cfg.pattern = PatternKind::Transpose;
        let r = run_batch(&cfg).unwrap();
        assert!(r.drained);
        assert_eq!(r.completed, 16 * 50);
        // diagonal nodes (self traffic) finish much earlier than corners
        let diag = r.per_node_runtime[0];
        let corner = r.per_node_runtime[3]; // (3,0) <-> (0,3) is a long haul
        assert!(diag < corner, "diag {diag} vs corner {corner}");
    }

    #[test]
    fn deterministic_runs() {
        let a = run_batch(&quick(100, 4)).unwrap();
        let b = run_batch(&quick(100, 4)).unwrap();
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.per_node_runtime, b.per_node_runtime);
    }

    #[test]
    fn hostile_points_are_refused_by_name() {
        let kernel = |static_frac, timer_rate, timer_packets| {
            Some(KernelModel { static_frac, timer_rate, timer_packets })
        };
        let memory =
            |mem_frac| ReplyModel::Probabilistic { l2_latency: 20, mem_latency: 300, mem_frac };
        let base = quick(10, 2);
        let cases = [
            ("request_size", BatchConfig { request_size: 0, ..base.clone() }),
            ("reply_size", BatchConfig { reply_size: 0, ..base.clone() }),
            ("batch", BatchConfig { batch: 0, ..base.clone() }),
            ("max_outstanding", BatchConfig { max_outstanding: 0, ..base.clone() }),
            ("nar", base.clone().with_nar(f64::NAN)),
            ("nar", base.clone().with_nar(-1.0)),
            ("nar", base.clone().with_nar(f64::INFINITY)),
            ("mem_frac", base.clone().with_reply(memory(1.5))),
            ("static_frac", BatchConfig { kernel: kernel(-2.0, 0.0, 0), ..base.clone() }),
            ("timer_rate", BatchConfig { kernel: kernel(0.0, -1.0, 1), ..base.clone() }),
            ("timer_packets", BatchConfig { kernel: kernel(0.0, 0.01, u64::MAX), ..base.clone() }),
        ];
        for (field, cfg) in cases {
            match cfg.start().map(|_| ()) {
                Err(ConfigError::Parameter { name, .. }) if name == field => {}
                other => panic!("{field}: {other:?}"),
            }
        }
        // a timer that adds nothing cannot overflow anything
        assert!(BatchConfig { kernel: kernel(0.0, 0.0, u64::MAX), ..base }.validate().is_ok());
    }

    #[test]
    fn normalized_runtime_decreases_with_b() {
        // Fig 2: runtime per operation amortizes the pipeline fill
        let small = run_batch(&quick(10, 8)).unwrap();
        let large = run_batch(&quick(500, 8)).unwrap();
        assert!(large.normalized_runtime < small.normalized_runtime);
    }
}
