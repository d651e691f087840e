//! Validation against the execution-driven substrate (paper Sections IV
//! and V), at reduced scale: the *ordering* of correlations is the
//! claim — extended batch models track the execution-driven simulator
//! better than the plain batch model, and OS modeling helps most at the
//! slow clock where kernel traffic dominates.

use cmp_sim::CmpConfig;
use noc_eval::correlate::{correlate_sweep_batch, run_cmp_sweep, CmpBatchOutcome, CmpSweep};
use noc_eval::{BatchExtension, Effort};
use noc_workloads::{all_benchmarks, BenchmarkProfile, ClockFreq};

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

fn profiles() -> Vec<BenchmarkProfile> {
    // a contrast-rich subset keeps CI fast: low-NAR lu, high-NAR barnes,
    // high-L2-miss fft
    all_benchmarks().into_iter().filter(|p| ["lu", "fft", "barnes"].contains(&p.name)).collect()
}

fn cmp_cfg(p: &BenchmarkProfile, e: &Effort, os: bool) -> CmpConfig {
    CmpConfig::table2(*p).with_instructions(e.instructions).with_os(os)
}

const TRS: [u32; 3] = [1, 4, 8];

/// The execution-driven side, run once per test.
fn cmp_sweep(ps: &[BenchmarkProfile]) -> CmpSweep {
    let e = tiny();
    run_cmp_sweep(ps, |p| cmp_cfg(p, &e, false), &TRS).unwrap()
}

fn correlate(sweep: &CmpSweep, ps: &[BenchmarkProfile], ext: BatchExtension) -> CmpBatchOutcome {
    correlate_sweep_batch(sweep, ps, ext, &tiny(), 4).unwrap()
}

/// Fig 15 vs Fig 19: the NAR-enhanced injection model correlates with
/// execution-driven runs at least as well as the plain batch model —
/// because the plain model predicts identical slowdowns for every
/// benchmark while real benchmarks differ.
#[test]
fn enhanced_injection_beats_plain_batch() {
    let ps = profiles();
    let sweep = cmp_sweep(&ps);
    let plain = correlate(&sweep, &ps, BatchExtension::plain());
    let inj = correlate(&sweep, &ps, BatchExtension::inj());
    let (rp, ri) = (plain.r.unwrap(), inj.r.unwrap());
    assert!(ri >= rp - 0.02, "BA_inj (r={ri:.3}) should not trail plain BA (r={rp:.3})");
    assert!(ri > 0.7, "BA_inj should correlate decently: r = {ri:.3}");
}

/// The plain batch model cannot distinguish benchmarks: its normalized
/// runtimes are identical across benchmarks at each tr, while the
/// execution-driven runtimes differ (the Fig 14 observation).
#[test]
fn plain_batch_is_benchmark_blind_but_cmp_is_not() {
    let ps = profiles();
    let out = correlate(&cmp_sweep(&ps), &ps, BatchExtension::plain());
    // batch_norm at tr=8 identical across benchmarks (same model!)
    let batch8: Vec<f64> = out.points.iter().filter(|p| p.tr == 8).map(|p| p.batch_norm).collect();
    let spread = batch8.iter().cloned().fold(0.0, f64::max)
        - batch8.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 1e-9, "plain batch must be benchmark-independent");
    // but execution-driven slowdowns differ across benchmarks
    let cmp8: Vec<f64> = out.points.iter().filter(|p| p.tr == 8).map(|p| p.cmp_norm).collect();
    let cspread = cmp8.iter().cloned().fold(0.0, f64::max)
        - cmp8.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(cspread > 0.05, "benchmarks should react differently to tr: spread {cspread}");
}

/// Section V / Fig 22: with kernel-heavy execution-driven references
/// (75 MHz clock), adding the OS model to the batch side must not hurt,
/// and kernel traffic should be a large share at 75 MHz.
#[test]
fn os_model_tracks_slow_clock_kernel_traffic() {
    let e = tiny();
    let bs = all_benchmarks()[0];
    let slow = cmp_sim::run_cmp(&cmp_cfg(&bs, &e, true).with_clock(ClockFreq::MHz75)).unwrap();
    let fast = cmp_sim::run_cmp(&cmp_cfg(&bs, &e, true).with_clock(ClockFreq::GHz3)).unwrap();
    assert!(
        slow.kernel_fraction() > fast.kernel_fraction() + 0.05,
        "75 MHz kernel share {:.2} should exceed 3 GHz {:.2}",
        slow.kernel_fraction(),
        fast.kernel_fraction()
    );
    assert!(slow.timer_interrupts > fast.timer_interrupts);
}

/// The NAR extension reproduces Fig 16's punchline: at low NAR the
/// router delay stops mattering even with many MSHRs.
#[test]
fn low_nar_erases_router_delay_sensitivity() {
    use noc_closedloop::BatchConfig;
    use noc_sim::config::NetConfig;
    let run = |nar: f64, tr: u32| {
        noc_closedloop::run_batch(&BatchConfig {
            net: NetConfig::baseline().with_router_delay(tr),
            batch: 120,
            max_outstanding: 16,
            nar,
            ..BatchConfig::default()
        })
        .unwrap()
        .runtime as f64
    };
    let high_nar_ratio = run(1.0, 4) / run(1.0, 1);
    let low_nar_ratio = run(0.04, 4) / run(0.04, 1);
    assert!(low_nar_ratio < 1.15, "low NAR should hide router delay: ratio {low_nar_ratio}");
    assert!(
        high_nar_ratio > low_nar_ratio + 0.1,
        "high NAR must feel tr more: {high_nar_ratio} vs {low_nar_ratio}"
    );
}

/// Fig 17(b) vs (c): equal mean reply latency, different distribution —
/// the probabilistic model (rare long stalls) yields a *lower* injection
/// rate under an MSHR cap than the fixed model.
#[test]
fn reply_distribution_matters_beyond_its_mean() {
    use noc_closedloop::{BatchConfig, ReplyModel};
    use noc_sim::config::NetConfig;
    let run = |model: ReplyModel| {
        noc_closedloop::run_batch(&BatchConfig {
            net: NetConfig::baseline(),
            batch: 150,
            max_outstanding: 4,
            reply_model: model,
            ..BatchConfig::default()
        })
        .unwrap()
    };
    let fixed = run(ReplyModel::Fixed { latency: 50 });
    let prob = run(ReplyModel::Probabilistic { l2_latency: 20, mem_latency: 300, mem_frac: 0.1 });
    assert!(
        prob.throughput < fixed.throughput,
        "long-tail replies should throttle harder: {} vs {}",
        prob.throughput,
        fixed.throughput
    );
}

/// Memory latency dominating the round trip suppresses router-delay
/// sensitivity (Fig 17's overall message).
#[test]
fn memory_latency_masks_router_delay() {
    use noc_closedloop::{BatchConfig, ReplyModel};
    use noc_sim::config::NetConfig;
    let run = |tr: u32, lat: u64| {
        noc_closedloop::run_batch(&BatchConfig {
            net: NetConfig::baseline().with_router_delay(tr),
            batch: 120,
            max_outstanding: 1,
            reply_model: ReplyModel::Fixed { latency: lat },
            ..BatchConfig::default()
        })
        .unwrap()
        .runtime as f64
    };
    let bare = run(4, 0) / run(1, 0);
    let masked = run(4, 300) / run(1, 300);
    assert!(masked < 1.3, "300-cycle memory should hide tr: ratio {masked}");
    assert!(bare > masked + 0.5, "bare network must feel tr: {bare} vs {masked}");
}
