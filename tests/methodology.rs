//! End-to-end tests of the paper's core methodology claims, at reduced
//! (CI-sized) scale. Shapes, not absolute numbers, are asserted.

use noc_closedloop::BatchConfig;
use noc_eval::correlate::correlate_open_batch;
use noc_eval::Effort;
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};
use noc_traffic::PatternKind;

fn tiny() -> Effort {
    Effort {
        warmup: 500,
        measure: 1_500,
        drain: 20_000,
        batch: 120,
        instructions: 8_000,
        sweep_points: 4,
    }
}

/// Section III-B: router-delay effects match between open loop and
/// batch model once both are normalized (the Fig 5 claim, r ~ 0.99).
#[test]
fn open_and_closed_loop_agree_on_router_delay() {
    let variants: Vec<(String, NetConfig)> = [1u32, 2, 4]
        .iter()
        .map(|&tr| (format!("tr={tr}"), NetConfig::baseline().with_router_delay(tr)))
        .collect();
    let out =
        correlate_open_batch(&variants, &[1, 2, 4, 8], PatternKind::Uniform, &tiny(), false, &[])
            .unwrap();
    let r = out.r_all.expect("enough points");
    assert!(r > 0.9, "open/closed correlation too weak: r = {r}");
}

/// Section III-C: on the topology comparison, worst-case open-loop
/// latency correlates with batch runtime better than average latency
/// (the Fig 8 claim: mesh wins on average but loses on worst case).
#[test]
fn worst_case_latency_explains_topology_ranking() {
    let topos = vec![
        ("mesh".to_string(), NetConfig::baseline().with_vcs(4)),
        (
            "torus".to_string(),
            NetConfig::baseline().with_topology(TopologyKind::FoldedTorus2D { k: 8 }).with_vcs(4),
        ),
        (
            "ring".to_string(),
            NetConfig::baseline().with_topology(TopologyKind::Ring { n: 64 }).with_vcs(4),
        ),
    ];
    let worst =
        correlate_open_batch(&topos, &[1, 2, 4], PatternKind::Uniform, &tiny(), true, &[]).unwrap();
    let r = worst.r_all.expect("enough points");
    assert!(r > 0.85, "worst-case correlation r = {r}");
}

/// Section II-B1 / Fig 2: achieved batch throughput grows with m and
/// approaches the network's saturation throughput.
#[test]
fn batch_throughput_saturates_with_m() {
    let run = |m: usize| {
        noc_closedloop::run_batch(&BatchConfig {
            net: NetConfig::baseline(),
            batch: 400,
            max_outstanding: m,
            ..BatchConfig::default()
        })
        .unwrap()
        .throughput
    };
    let t1 = run(1);
    let t8 = run(8);
    let t32 = run(32);
    assert!(t8 > 2.0 * t1, "m=8 should far exceed m=1: {t8} vs {t1}");
    assert!(t32 >= t8 * 0.9, "throughput must not materially degrade with more MSHRs");
    // 8x8 mesh uniform DOR: open-loop saturates ~0.4; the batch model's
    // worst-node metric lands slightly below it
    assert!(t32 > 0.3 && t32 < 0.5, "saturation throughput {t32} out of range");
}

/// Fig 3(a)+4(a): router delay shifts latency but not throughput, in
/// both methodologies.
#[test]
fn router_delay_leaves_saturation_untouched() {
    // b large enough that the tr-dependent pipeline-fill/tail phases are
    // amortized (they are O(round trip), runtime is O(b))
    let theta = |tr: u32| {
        noc_closedloop::run_batch(&BatchConfig {
            net: NetConfig::baseline().with_router_delay(tr),
            batch: 600,
            max_outstanding: 32,
            ..BatchConfig::default()
        })
        .unwrap()
        .throughput
    };
    let t1 = theta(1);
    let t4 = theta(4);
    assert!((t1 - t4).abs() / t1 < 0.12, "saturation should be ~independent of tr: {t1} vs {t4}");

    // but the m=1 (latency-bound) runtime must scale with zero-load latency
    let rt = |tr: u32| {
        noc_closedloop::run_batch(&BatchConfig {
            net: NetConfig::baseline().with_router_delay(tr),
            batch: 150,
            max_outstanding: 1,
            ..BatchConfig::default()
        })
        .unwrap()
        .runtime as f64
    };
    let ratio = rt(4) / rt(1);
    assert!(ratio > 2.0 && ratio < 3.2, "m=1 tr=4/tr=1 runtime ratio = {ratio}");
}

/// Fig 3(b): small VC buffers cut open-loop throughput; Fig 4(b): the
/// same shows up as batch throughput at large m.
#[test]
fn small_buffers_throttle_throughput() {
    let theta = |q: usize| {
        noc_closedloop::run_batch(&BatchConfig {
            net: NetConfig::baseline().with_vc_buf(q),
            batch: 150,
            max_outstanding: 32,
            ..BatchConfig::default()
        })
        .unwrap()
        .throughput
    };
    let q1 = theta(1);
    let q16 = theta(16);
    assert!(q16 > 1.15 * q1, "q=16 should outrun q=1: {q16} vs {q1}");
}

/// Fig 9(b)/10(b)/11: under transpose, VAL pays average latency but not
/// worst-case batch runtime at m = 1.
#[test]
fn valiant_worst_case_matches_dor_on_transpose() {
    use noc_sim::config::RoutingKind;
    let batch = |r: RoutingKind| {
        noc_closedloop::run_batch(&BatchConfig {
            net: NetConfig::baseline().with_routing(r).with_vcs(4),
            pattern: PatternKind::Transpose,
            batch: 150,
            max_outstanding: 1,
            ..BatchConfig::default()
        })
        .unwrap()
    };
    let dor = batch(RoutingKind::Dor);
    let val = batch(RoutingKind::Valiant);
    let overhead = val.runtime as f64 / dor.runtime as f64;
    assert!(
        overhead < 1.25,
        "VAL m=1 worst-case overhead should be small (paper 1.7%): {overhead}"
    );

    // ...while its *average* per-node runtime is clearly worse than DOR's
    let avg = |r: &noc_closedloop::BatchResult| {
        r.per_node_runtime.iter().sum::<u64>() as f64 / r.per_node_runtime.len() as f64
    };
    assert!(
        avg(&val) > 1.2 * avg(&dor),
        "VAL average should be visibly worse: {} vs {}",
        avg(&val),
        avg(&dor)
    );
}

/// The open-loop latency-load curve fundamentals on the 8x8 mesh.
#[test]
fn latency_load_curve_shape() {
    let e = tiny();
    let measure = |load: f64| {
        noc_openloop::measure(&OpenLoopConfig {
            net: NetConfig::baseline(),
            load,
            warmup: e.warmup,
            measure: e.measure,
            drain_max: e.drain,
            ..OpenLoopConfig::default()
        })
        .unwrap()
    };
    let lo = measure(0.05);
    let mid = measure(0.3);
    let t0 = noc_openloop::zero_load_latency_bound(&NetConfig::baseline()).unwrap();
    assert!(lo.stable && mid.stable);
    assert!(lo.avg_latency >= t0 * 0.9);
    assert!(mid.avg_latency > lo.avg_latency);
    let over = measure(0.8);
    assert!(!over.stable, "0.8 flits/cycle/node must be beyond saturation");
}
