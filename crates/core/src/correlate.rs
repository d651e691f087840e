//! The paper's correlation pipelines.
//!
//! * [`correlate_open_batch`] — Figs 5 & 8: run the batch model over a
//!   set of network variants and `m` values, feed each achieved
//!   throughput back into an open-loop run as the offered load, then
//!   correlate per-`m`-normalized batch runtimes against per-`m`-
//!   normalized open-loop latencies.
//! * [`run_cmp_sweep`] + [`correlate_sweep_batch`] — Figs 14, 15, 19 &
//!   22: run the execution-driven simulator once over benchmarks x
//!   router delays, then each batch-model variant over the same delays,
//!   normalize each benchmark to its `t_r = 1` baseline, and correlate.

use cmp_sim::{run_cmp, CmpConfig};
use noc_closedloop::run_batch;
use noc_openloop::{measure, OpenLoopConfig};
use noc_sim::config::NetConfig;
use noc_sim::error::ConfigError;
use noc_stats::pearson;
use noc_traffic::{PatternKind, SizeKind};
use noc_workloads::BenchmarkProfile;

use crate::bridge::{batch_for_profile, BatchExtension};
use crate::effort::Effort;

/// One point of the open-loop vs batch scatter (Fig 5 / Fig 8).
#[derive(Debug, Clone)]
pub struct OpenBatchPoint {
    /// Variant label (e.g. `"tr=2"` or `"torus"`).
    pub variant: String,
    /// MSHR count `m`.
    pub m: usize,
    /// Batch runtime (cycles).
    pub runtime: u64,
    /// Achieved batch throughput, fed to the open loop as offered load.
    pub theta: f64,
    /// Open-loop latency at offered load `theta` (average or worst-node,
    /// per the `worst_case` flag).
    pub latency: f64,
    /// Batch runtime normalized to this `m`'s first variant.
    pub norm_runtime: f64,
    /// Open-loop latency normalized to this `m`'s first variant.
    pub norm_latency: f64,
    /// True when the open-loop point was below saturation (drained and
    /// accepted ~= offered). Near-saturation latency "approaches
    /// infinity" (paper footnote 3), so unstable points are excluded
    /// from the filtered correlation.
    pub stable: bool,
}

/// Outcome of the open-loop vs batch correlation.
#[derive(Debug, Clone)]
pub struct OpenBatchOutcome {
    /// Scatter points, grouped by `m`, variants in input order.
    pub points: Vec<OpenBatchPoint>,
    /// Pearson correlation over all points.
    pub r_all: Option<f64>,
    /// Pearson correlation excluding `m` values in `excluded_ms` and
    /// points whose open-loop companion ran at/past saturation — the
    /// paper excludes m = 16, 32 for exactly this reason.
    pub r_filtered: Option<f64>,
    /// The `m` values excluded from `r_filtered`.
    pub excluded_ms: Vec<usize>,
}

/// Run the Fig 5 / Fig 8 pipeline.
///
/// `variants` are (label, network) pairs; the first variant is each
/// `m`'s normalization baseline. When `worst_case` is set the open-loop
/// statistic is the worst per-node average latency (Fig 8's topology
/// comparison); otherwise the global average (Fig 5).
pub fn correlate_open_batch(
    variants: &[(String, NetConfig)],
    ms: &[usize],
    pattern: PatternKind,
    effort: &Effort,
    worst_case: bool,
    excluded_ms: &[usize],
) -> Result<OpenBatchOutcome, ConfigError> {
    // every (m, variant) cell is an independent batch run plus an
    // open-loop run chained on its throughput, so the whole grid fans
    // out; normalization to each m's first variant happens afterwards
    let grid: Vec<(usize, usize)> = ms
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| (0..variants.len()).map(move |vi| (mi, vi)))
        .collect();
    let raw = noc_exp::run_grid(&grid, |_, &(mi, vi)| {
        let m = ms[mi];
        let net = &variants[vi].1;
        let bcfg = noc_closedloop::BatchConfig {
            net: net.clone(),
            pattern,
            batch: effort.batch,
            max_outstanding: m,
            ..noc_closedloop::BatchConfig::default()
        };
        let batch = run_batch(&bcfg)?;
        // feed achieved throughput back as open-loop offered load
        let load = batch.throughput.clamp(1e-4, 1.0);
        let ocfg = OpenLoopConfig {
            net: net.clone(),
            pattern,
            size: SizeKind::Fixed(1),
            load,
            warmup: effort.warmup,
            measure: effort.measure,
            drain_max: effort.drain,
            percentiles: false,
        };
        Ok((batch, measure(&ocfg)?))
    });

    let mut points = Vec::new();
    let mut cells = raw.into_iter();
    for &m in ms {
        let mut base_runtime = None;
        let mut base_latency = None;
        for (label, _) in variants {
            let (batch, open): (noc_closedloop::BatchResult, _) =
                cells.next().expect("grid covers every (m, variant) cell")?;
            let latency = if worst_case { open.worst_node_latency } else { open.avg_latency };
            let stable = open.stable;
            let runtime = batch.runtime;
            let b_rt = *base_runtime.get_or_insert(runtime as f64);
            let b_lat = *base_latency.get_or_insert(latency.max(1e-9));
            points.push(OpenBatchPoint {
                variant: label.clone(),
                m,
                runtime,
                theta: batch.throughput,
                latency,
                norm_runtime: runtime as f64 / b_rt,
                norm_latency: latency / b_lat,
                stable,
            });
        }
    }
    // a variant whose achieved throughput stops growing with m has
    // saturated: its runtime is throughput-bound while open-loop latency
    // at the (capped) theta sits in the critical regime where no finite
    // window measures it meaningfully — flag those points too
    for (label, _) in variants {
        let mut prev_theta: Option<f64> = None;
        let mut saturated = false;
        for &m in ms {
            let idx =
                points.iter().position(|p| &p.variant == label && p.m == m).expect("point exists");
            if let Some(prev) = prev_theta {
                if points[idx].theta < 1.05 * prev {
                    saturated = true;
                }
            }
            if saturated {
                points[idx].stable = false;
            }
            prev_theta = Some(points[idx].theta);
        }
    }

    let xy = |pts: &[&OpenBatchPoint]| {
        let x: Vec<f64> = pts.iter().map(|p| p.norm_latency).collect();
        let y: Vec<f64> = pts.iter().map(|p| p.norm_runtime).collect();
        pearson(&x, &y)
    };
    let all: Vec<&OpenBatchPoint> = points.iter().collect();
    let filtered: Vec<&OpenBatchPoint> =
        points.iter().filter(|p| !excluded_ms.contains(&p.m) && p.stable).collect();
    Ok(OpenBatchOutcome {
        r_all: xy(&all),
        r_filtered: xy(&filtered),
        excluded_ms: excluded_ms.to_vec(),
        points,
    })
}

/// One point of the execution-driven vs batch scatter (Fig 15/19/22).
#[derive(Debug, Clone)]
pub struct CmpBatchPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Router delay `t_r`.
    pub tr: u32,
    /// Execution-driven runtime normalized to the benchmark's `t_r = 1`.
    pub cmp_norm: f64,
    /// Batch-model runtime normalized to the benchmark's `t_r = 1`.
    pub batch_norm: f64,
    /// Raw execution-driven runtime (cycles).
    pub cmp_runtime: u64,
    /// Raw batch runtime (cycles).
    pub batch_runtime: u64,
}

/// Outcome of the execution-driven vs batch correlation.
#[derive(Debug, Clone)]
pub struct CmpBatchOutcome {
    /// Extension label (BA, BA_inj, ...).
    pub label: String,
    /// Scatter points.
    pub points: Vec<CmpBatchPoint>,
    /// Pearson correlation over normalized runtimes.
    pub r: Option<f64>,
}

/// Precomputed execution-driven runtimes over a (benchmark x router
/// delay) grid, reusable across batch-model variants — running GEMS (or
/// even our fast substitute) once per variant would be pure waste.
#[derive(Debug, Clone)]
pub struct CmpSweep {
    /// Router delays swept.
    pub trs: Vec<u32>,
    /// `(benchmark, runtimes-per-tr)` in sweep order.
    pub runtimes: Vec<(String, Vec<u64>)>,
}

/// Run the execution-driven side of the validation once.
pub fn run_cmp_sweep(
    profiles: &[BenchmarkProfile],
    make_cmp: impl Fn(&BenchmarkProfile) -> CmpConfig + Sync,
    trs: &[u32],
) -> Result<CmpSweep, ConfigError> {
    let grid: Vec<(usize, u32)> = profiles
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| trs.iter().map(move |&tr| (pi, tr)))
        .collect();
    let raw = noc_exp::run_grid(&grid, |_, &(pi, tr)| {
        let cfg = make_cmp(&profiles[pi]).with_router_delay(tr);
        run_cmp(&cfg).map(|r| r.runtime)
    });
    let mut cells = raw.into_iter();
    let mut runtimes = Vec::new();
    for profile in profiles {
        let rts = (0..trs.len())
            .map(|_| cells.next().expect("grid covers every (profile, tr) cell"))
            .collect::<Result<Vec<u64>, ConfigError>>()?;
        runtimes.push((profile.name.to_string(), rts));
    }
    Ok(CmpSweep { trs: trs.to_vec(), runtimes })
}

/// Correlate a precomputed execution-driven sweep against one batch
/// variant.
pub fn correlate_sweep_batch(
    sweep: &CmpSweep,
    profiles: &[BenchmarkProfile],
    ext: BatchExtension,
    effort: &Effort,
    m: usize,
) -> Result<CmpBatchOutcome, ConfigError> {
    let mut points = Vec::new();
    for profile in profiles {
        let cmp_rts = &sweep
            .runtimes
            .iter()
            .find(|(name, _)| name == profile.name)
            .expect("profile present in sweep")
            .1;
        let batch_rts: Vec<u64> = noc_exp::run_grid(&sweep.trs, |_, &tr| {
            let net = crate::bridge::table2_net(tr);
            let bcfg = batch_for_profile(net, profile, ext, effort.batch, m);
            run_batch(&bcfg).map(|r| r.runtime)
        })
        .into_iter()
        .collect::<Result<_, ConfigError>>()?;
        for (i, &tr) in sweep.trs.iter().enumerate() {
            points.push(CmpBatchPoint {
                benchmark: profile.name.to_string(),
                tr,
                cmp_norm: cmp_rts[i] as f64 / cmp_rts[0] as f64,
                batch_norm: batch_rts[i] as f64 / batch_rts[0] as f64,
                cmp_runtime: cmp_rts[i],
                batch_runtime: batch_rts[i],
            });
        }
    }
    let x: Vec<f64> = points.iter().map(|p| p.cmp_norm).collect();
    let y: Vec<f64> = points.iter().map(|p| p.batch_norm).collect();
    Ok(CmpBatchOutcome { label: ext.label(), r: pearson(&x, &y), points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::TopologyKind;

    #[test]
    fn open_batch_small_pipeline_runs_and_correlates() {
        let net = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 });
        let variants = vec![
            ("tr=1".to_string(), net.clone().with_router_delay(1)),
            ("tr=4".to_string(), net.with_router_delay(4)),
        ];
        let effort = Effort { batch: 150, ..Effort::quick() };
        let out =
            correlate_open_batch(&variants, &[1, 4], PatternKind::Uniform, &effort, false, &[])
                .unwrap();
        assert_eq!(out.points.len(), 4);
        // per-m baselines are 1.0
        assert_eq!(out.points[0].norm_runtime, 1.0);
        assert_eq!(out.points[0].norm_latency, 1.0);
        // tr=4 must be slower than tr=1 in both models
        assert!(out.points[1].norm_runtime > 1.2);
        assert!(out.points[1].norm_latency > 1.2);
        let r = out.r_all.unwrap();
        assert!(r > 0.8, "r = {r}");
    }
}
