//! Edge cases and termination guarantees for the closed-loop models.

use noc_closedloop::{run_barrier, run_batch, BarrierConfig, BatchConfig, KernelModel, ReplyModel};
use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_sim::ConfigError;
use noc_traffic::PatternKind;

fn net4() -> NetConfig {
    NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 })
}

#[test]
fn batch_size_one_still_terminates() {
    let r = run_batch(&BatchConfig {
        net: net4(),
        batch: 1,
        max_outstanding: 1,
        ..BatchConfig::default()
    })
    .unwrap();
    assert!(r.drained);
    assert_eq!(r.completed, 16);
    // a single op per node: runtime is one round trip
    assert!(r.runtime < 100, "runtime {}", r.runtime);
}

#[test]
fn m_larger_than_batch_is_harmless() {
    let r = run_batch(&BatchConfig {
        net: net4(),
        batch: 5,
        max_outstanding: 64,
        ..BatchConfig::default()
    })
    .unwrap();
    assert!(r.drained);
    assert_eq!(r.completed, 16 * 5);
}

#[test]
fn zero_nar_is_refused() {
    // NAR = 0 never issues, so the run could only spin to its cap
    let err = run_batch(&BatchConfig {
        net: net4(),
        batch: 10,
        max_outstanding: 1,
        nar: 0.0,
        max_cycles: 5_000,
        ..BatchConfig::default()
    })
    .unwrap_err();
    assert!(matches!(err, ConfigError::Parameter { name: "nar", .. }), "{err}");
}

#[test]
fn tiny_nar_still_terminates() {
    let r = run_batch(&BatchConfig {
        net: net4(),
        batch: 20,
        max_outstanding: 4,
        nar: 0.01,
        ..BatchConfig::default()
    })
    .unwrap();
    assert!(r.drained);
    assert_eq!(r.completed, 16 * 20);
    // runtime dominated by the injection gate: ~ b / nar
    let per_op = r.runtime as f64 / 20.0;
    assert!(per_op > 50.0, "per-op {per_op} should reflect the NAR gate");
}

#[test]
fn kernel_timer_terminates_even_at_high_rate() {
    // timer adds 1 packet per node every 20 cycles; capacity is far
    // higher, so the run must converge shortly after user work finishes
    let r = run_batch(&BatchConfig {
        net: net4(),
        batch: 100,
        max_outstanding: 8,
        kernel: Some(KernelModel { static_frac: 0.0, timer_rate: 0.05, timer_packets: 1 }),
        ..BatchConfig::default()
    })
    .unwrap();
    assert!(r.drained, "timer model must not prevent termination");
    assert!(r.timer_added > 0);
    assert_eq!(r.completed, 16 * 100 + r.timer_added);
}

#[test]
fn reply_latency_zero_equals_immediate() {
    let a = run_batch(&BatchConfig {
        net: net4(),
        batch: 50,
        max_outstanding: 2,
        reply_model: ReplyModel::Immediate,
        ..BatchConfig::default()
    })
    .unwrap();
    let b = run_batch(&BatchConfig {
        net: net4(),
        batch: 50,
        max_outstanding: 2,
        reply_model: ReplyModel::Fixed { latency: 0 },
        ..BatchConfig::default()
    })
    .unwrap();
    assert_eq!(a.runtime, b.runtime, "Fixed(0) must behave like Immediate");
}

#[test]
fn adaptive_routing_at_saturation_never_deadlocks() {
    // regression: the 8x8 mesh with 4 VCs and 2 message classes leaves
    // exactly one adaptive + one escape VC per class. Committing heads
    // to credit-less adaptive VCs used to close a credit cycle here
    // (uniform, m=32) — Duato's escape guarantee requires that blocked
    // heads stay unallocated until a claimable VC (with credits) exists.
    let r = run_batch(&BatchConfig {
        net: NetConfig::baseline().with_routing(RoutingKind::MinAdaptive).with_vcs(4),
        batch: 300,
        max_outstanding: 32,
        max_cycles: 2_000_000,
        ..BatchConfig::default()
    })
    .unwrap();
    assert!(r.drained, "MA deadlocked at saturation");
    assert_eq!(r.completed, 64 * 300);
}

#[test]
fn batch_works_on_every_routing_algorithm() {
    for routing in
        [RoutingKind::Dor, RoutingKind::Valiant, RoutingKind::Romm, RoutingKind::MinAdaptive]
    {
        let r = run_batch(&BatchConfig {
            net: net4().with_routing(routing).with_vcs(8),
            batch: 40,
            max_outstanding: 4,
            ..BatchConfig::default()
        })
        .unwrap();
        assert!(r.drained, "{routing:?}");
        assert_eq!(r.completed, 16 * 40, "{routing:?}");
    }
}

#[test]
fn batch_request_reply_sizes_affect_throughput_metric() {
    // 5-flit replies (cache lines) quintuple the reply traffic; theta
    // accounts for flits, so it rises even as runtime grows
    let small = run_batch(&BatchConfig {
        net: net4(),
        batch: 80,
        max_outstanding: 8,
        request_size: 1,
        reply_size: 1,
        ..BatchConfig::default()
    })
    .unwrap();
    let big = run_batch(&BatchConfig {
        net: net4(),
        batch: 80,
        max_outstanding: 8,
        request_size: 1,
        reply_size: 5,
        ..BatchConfig::default()
    })
    .unwrap();
    assert!(big.runtime > small.runtime, "bigger replies take longer");
    let expected_big = 80.0 * 6.0 / big.runtime as f64;
    assert!((big.throughput - expected_big).abs() < 1e-9);
}

#[test]
fn barrier_and_batch_agree_on_topology_ranking_at_high_m() {
    // at m = 32 the batch model is throughput-bound, like the barrier model
    let batch_rt = |topo: TopologyKind, vcs: usize| {
        run_batch(&BatchConfig {
            net: NetConfig::baseline().with_topology(topo).with_vcs(vcs),
            batch: 200,
            max_outstanding: 32,
            ..BatchConfig::default()
        })
        .unwrap()
        .runtime
    };
    let barrier_rt = |topo: TopologyKind, vcs: usize| {
        run_barrier(&BarrierConfig {
            net: NetConfig::baseline().with_topology(topo).with_vcs(vcs),
            batch: 200,
            ..BarrierConfig::default()
        })
        .unwrap()
        .runtime
    };
    let topos = [(TopologyKind::Mesh2D { k: 8 }, 4), (TopologyKind::FoldedTorus2D { k: 8 }, 4)];
    let batch: Vec<u64> = topos.iter().map(|&(t, v)| batch_rt(t, v)).collect();
    let barrier: Vec<u64> = topos.iter().map(|&(t, v)| barrier_rt(t, v)).collect();
    // both should rank the torus (higher bisection) faster than the mesh
    assert!(batch[1] < batch[0], "batch: torus {} vs mesh {}", batch[1], batch[0]);
    assert!(barrier[1] < barrier[0], "barrier: torus {} vs mesh {}", barrier[1], barrier[0]);
}

#[test]
fn transpose_batch_on_bigger_mesh_matches_paper_fig11_shape() {
    // per-node runtime distribution under transpose is bimodal-ish:
    // diagonal (self) nodes finish almost immediately, corner pairs last
    let r = run_batch(&BatchConfig {
        net: NetConfig::baseline(),
        pattern: PatternKind::Transpose,
        batch: 100,
        max_outstanding: 1,
        ..BatchConfig::default()
    })
    .unwrap();
    let diag: Vec<u64> = (0..8).map(|i| r.per_node_runtime[i * 8 + i]).collect();
    let offdiag_max = r
        .per_node_runtime
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 8 != i / 8)
        .map(|(_, &t)| t)
        .max()
        .unwrap();
    for &d in &diag {
        assert!(d < offdiag_max / 2, "diagonal {d} vs off-diag max {offdiag_max}");
    }
}
