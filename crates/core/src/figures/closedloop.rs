//! Closed-loop (batch model) figures: Fig 2 (batch size), Fig 4 (router
//! parameters), Fig 6(b) (topologies), Fig 7 (per-node runtimes),
//! Fig 10 (routing algorithms), Fig 11 (node distributions), Fig 16
//! (NAR injection model), Fig 17 (reply models).

use noc_closedloop::{run_batch, BatchConfig, ReplyModel};
use noc_sim::config::NetConfig;
use noc_stats::Histogram;
use noc_traffic::PatternKind;

use super::openloop::{fig06_topologies, fig09_routings, openloop_point};
use super::{render_curves, Curve};
use crate::effort::Effort;

/// The paper's `m` sweep for batch figures.
pub const MS: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn batch_cfg(net: NetConfig, pattern: PatternKind, b: u64, m: usize) -> BatchConfig {
    BatchConfig { net, pattern, batch: b, max_outstanding: m, ..BatchConfig::default() }
}

/// Fig 2: runtime normalized to batch size, vs `b`, for each `m`.
#[derive(Debug, Clone)]
pub struct Fig02 {
    /// One curve per `m`: x = batch size, y = runtime / b.
    pub curves: Vec<Curve>,
}

/// Run Fig 2. `quick` effort caps the largest batch size.
pub fn fig02(effort: &Effort) -> Fig02 {
    let bs: Vec<u64> = [1u64, 10, 100, 1_000, 10_000]
        .into_iter()
        .filter(|&b| b <= effort.batch.max(1_000) * 10)
        .collect();
    let curves = MS
        .iter()
        .map(|&m| Curve {
            label: format!("m={m}"),
            points: bs
                .iter()
                .map(|&b| {
                    let r =
                        run_batch(&batch_cfg(NetConfig::baseline(), PatternKind::Uniform, b, m))
                            .expect("valid config");
                    (b as f64, r.normalized_runtime)
                })
                .collect(),
        })
        .collect();
    Fig02 { curves }
}

impl Fig02 {
    /// Text report.
    pub fn render(&self) -> String {
        render_curves("Fig 2: normalized runtime vs batch size", &self.curves)
    }
}

/// One batch sweep point: runtime (normalized) and achieved throughput
/// per `m`.
#[derive(Debug, Clone)]
pub struct BatchSweep {
    /// Variant label.
    pub label: String,
    /// `(m, normalized runtime)`; normalized to the sweep baseline
    /// provided at construction.
    pub runtime: Vec<(usize, f64)>,
    /// `(m, achieved throughput theta)`.
    pub theta: Vec<(usize, f64)>,
}

/// Sweep the batch model over `m` for each network variant; runtimes
/// are normalized to the first variant at `m = 1`.
pub fn batch_m_sweep(
    variants: &[(String, NetConfig)],
    pattern: PatternKind,
    effort: &Effort,
) -> Vec<BatchSweep> {
    // the (variant, m) grid fans out in parallel; the normalization
    // baseline (first variant at the first m) is applied afterwards
    let grid: Vec<(usize, usize)> =
        variants.iter().enumerate().flat_map(|(vi, _)| MS.iter().map(move |&m| (vi, m))).collect();
    let raw = noc_exp::run_grid(&grid, |_, &(vi, m)| {
        run_batch(&batch_cfg(variants[vi].1.clone(), pattern, effort.batch, m))
            .expect("valid config")
    });
    let baseline = raw.first().map(|r| r.runtime as f64).unwrap_or(1.0);
    let mut cells = raw.into_iter();
    variants
        .iter()
        .map(|(label, _)| {
            let mut runtime = Vec::new();
            let mut theta = Vec::new();
            for &m in &MS {
                let r = cells.next().expect("grid covers every (variant, m) cell");
                runtime.push((m, r.runtime as f64 / baseline));
                theta.push((m, r.throughput));
            }
            BatchSweep { label: label.clone(), runtime, theta }
        })
        .collect()
}

/// Fig 4: batch-model impact of router delay (a) and buffer size (b).
#[derive(Debug, Clone)]
pub struct Fig04 {
    /// (a) router-delay sweep.
    pub router_delay: Vec<BatchSweep>,
    /// (b) buffer-size sweep.
    pub buffer_size: Vec<BatchSweep>,
}

/// Run Fig 4.
pub fn fig04(effort: &Effort) -> Fig04 {
    let tr_variants: Vec<(String, NetConfig)> = [1u32, 2, 4]
        .iter()
        .map(|&tr| (format!("tr={tr}"), NetConfig::baseline().with_router_delay(tr)))
        .collect();
    let q_variants: Vec<(String, NetConfig)> = [4usize, 8, 16, 32]
        .iter()
        .map(|&q| (format!("q={q}"), NetConfig::baseline().with_vc_buf(q)))
        .collect();
    Fig04 {
        router_delay: batch_m_sweep(&tr_variants, PatternKind::Uniform, effort),
        buffer_size: batch_m_sweep(&q_variants, PatternKind::Uniform, effort),
    }
}

impl Fig04 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig 4: batch model, router parameter sweeps ==\n");
        for (title, sweeps) in
            [("(a) router delay", &self.router_delay), ("(b) buffer size", &self.buffer_size)]
        {
            out.push_str(&format!("-- {title} --\n"));
            out.push_str("variant      m      T_norm     theta\n");
            for s in sweeps {
                for ((m, t), (_, th)) in s.runtime.iter().zip(&s.theta) {
                    out.push_str(&format!("{:<12} {:<6} {:<10.3} {:.4}\n", s.label, m, t, th));
                }
            }
        }
        out
    }
}

/// Fig 6(b): batch-model topology comparison.
#[derive(Debug, Clone)]
pub struct Fig06b {
    /// Per-topology m sweeps.
    pub sweeps: Vec<BatchSweep>,
}

/// Run Fig 6(b).
pub fn fig06b(effort: &Effort) -> Fig06b {
    Fig06b { sweeps: batch_m_sweep(&fig06_topologies(), PatternKind::Uniform, effort) }
}

impl Fig06b {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig 6(b): batch model, topology comparison ==\n");
        out.push_str("topology   m      T_norm     theta\n");
        for s in &self.sweeps {
            for ((m, t), (_, th)) in s.runtime.iter().zip(&s.theta) {
                out.push_str(&format!("{:<10} {:<6} {:<10.3} {:.4}\n", s.label, m, t, th));
            }
        }
        out
    }
}

/// Fig 7: per-node runtime maps on mesh and torus (batch, small `m`).
#[derive(Debug, Clone)]
pub struct Fig07 {
    /// Mesh per-node normalized runtimes (row-major k x k).
    pub mesh: Vec<f64>,
    /// Torus per-node normalized runtimes.
    pub torus: Vec<f64>,
    /// Grid radix.
    pub k: usize,
}

/// Run Fig 7.
pub fn fig07(effort: &Effort) -> Fig07 {
    let run = |net: NetConfig| -> Vec<f64> {
        let r = run_batch(&batch_cfg(net, PatternKind::Uniform, effort.batch, 2))
            .expect("valid config");
        let max = r.per_node_runtime.iter().copied().max().unwrap_or(1) as f64;
        r.per_node_runtime.iter().map(|&t| t as f64 / max).collect()
    };
    let topos = fig06_topologies();
    Fig07 { mesh: run(topos[0].1.clone()), torus: run(topos[1].1.clone()), k: 8 }
}

impl Fig07 {
    /// Text report: two shaded grids.
    pub fn render(&self) -> String {
        let grid = |v: &[f64]| -> String {
            let mut out = String::new();
            for y in 0..self.k {
                for x in 0..self.k {
                    out.push_str(&format!("{:.2} ", v[y * self.k + x]));
                }
                out.push('\n');
            }
            out
        };
        format!(
            "== Fig 7: per-node normalized runtime ==\n-- (a) mesh --\n{}-- (b) torus --\n{}",
            grid(&self.mesh),
            grid(&self.torus)
        )
    }

    /// Spread (max/min) of node runtimes — large on mesh, ~1 on torus.
    pub fn spread(v: &[f64]) -> f64 {
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(0.0, f64::max);
        max / min.max(1e-12)
    }
}

/// Fig 10: batch-model routing algorithm comparison, uniform (a) and
/// transpose (b).
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// (a) uniform.
    pub uniform: Vec<BatchSweep>,
    /// (b) transpose.
    pub transpose: Vec<BatchSweep>,
}

/// Run Fig 10.
pub fn fig10(effort: &Effort) -> Fig10 {
    Fig10 {
        uniform: batch_m_sweep(&fig09_routings(), PatternKind::Uniform, effort),
        transpose: batch_m_sweep(&fig09_routings(), PatternKind::Transpose, effort),
    }
}

impl Fig10 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig 10: batch model, routing algorithms ==\n");
        for (title, sweeps) in [("(a) uniform", &self.uniform), ("(b) transpose", &self.transpose)]
        {
            out.push_str(&format!("-- {title} --\n"));
            out.push_str("routing   m      T_norm     theta\n");
            for s in sweeps {
                for ((m, t), (_, th)) in s.runtime.iter().zip(&s.theta) {
                    out.push_str(&format!("{:<9} {:<6} {:<10.3} {:.4}\n", s.label, m, t, th));
                }
            }
        }
        out
    }

    /// VAL's runtime overhead over DOR at `m = 1` under transpose — the
    /// paper reports a negligible 1.7% because worst-case (corner)
    /// traffic routes identically.
    pub fn val_over_dor_transpose_m1(&self) -> f64 {
        let get = |label: &str| {
            self.transpose
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.runtime.iter().find(|(m, _)| *m == 1).map(|(_, t)| *t))
                .unwrap_or(f64::NAN)
        };
        get("VAL") / get("DOR")
    }
}

/// Fig 11: distribution across nodes of open-loop average latency
/// (a: DOR, b: VAL) and batch runtime (c: DOR, d: VAL) under transpose.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// (a) open-loop per-node latency histogram fractions for DOR.
    pub latency_dor: Vec<(f64, f64)>,
    /// (b) same for VAL.
    pub latency_val: Vec<(f64, f64)>,
    /// (c) batch per-node runtime histogram fractions for DOR.
    pub runtime_dor: Vec<(f64, f64)>,
    /// (d) same for VAL.
    pub runtime_val: Vec<(f64, f64)>,
    /// Mean per-node latency (DOR, VAL) — paper: DOR ~44% lower.
    pub mean_latency: (f64, f64),
    /// Worst-node runtime (DOR, VAL) — paper: nearly identical.
    pub worst_runtime: (f64, f64),
}

/// Run Fig 11 (transpose, `m = 1`, low load for the open loop).
pub fn fig11(effort: &Effort) -> Fig11 {
    let routings = fig09_routings();
    let dor_net = routings[0].1.clone();
    let val_net = routings[3].1.clone();

    let lat_hist = |net: NetConfig| -> (Vec<(f64, f64)>, f64) {
        let r = openloop_point(net, PatternKind::Transpose, 0.05, effort);
        let mut h = Histogram::new(0.0, 40.0, 20);
        for &l in &r.node_avg_latency {
            h.push(l);
        }
        (h.fractions(), r.avg_latency)
    };
    let rt_hist = |net: NetConfig| -> (Vec<(f64, f64)>, f64) {
        let r = run_batch(&batch_cfg(net, PatternKind::Transpose, effort.batch, 1))
            .expect("valid config");
        let max = r.runtime as f64;
        let mut h = Histogram::new(0.0, max * 1.05, 20);
        for &t in &r.per_node_runtime {
            h.push(t as f64);
        }
        (h.fractions(), max)
    };

    let (latency_dor, mean_dor) = lat_hist(dor_net.clone());
    let (latency_val, mean_val) = lat_hist(val_net.clone());
    let (runtime_dor, worst_dor) = rt_hist(dor_net);
    let (runtime_val, worst_val) = rt_hist(val_net);
    Fig11 {
        latency_dor,
        latency_val,
        runtime_dor,
        runtime_val,
        mean_latency: (mean_dor, mean_val),
        worst_runtime: (worst_dor, worst_val),
    }
}

impl Fig11 {
    /// Text report.
    pub fn render(&self) -> String {
        let hist = |h: &[(f64, f64)]| -> String {
            h.iter()
                .filter(|(_, f)| *f > 0.0)
                .map(|(c, f)| format!("  {c:>10.1}: {:>5.1}%", f * 100.0))
                .collect::<Vec<_>>()
                .join("\n")
        };
        format!(
            "== Fig 11: node distributions under transpose (m=1) ==\n\
             (a) open-loop avg latency, DOR (mean {:.1}):\n{}\n\
             (b) open-loop avg latency, VAL (mean {:.1}):\n{}\n\
             (c) batch runtime, DOR (worst {:.0}):\n{}\n\
             (d) batch runtime, VAL (worst {:.0}):\n{}\n",
            self.mean_latency.0,
            hist(&self.latency_dor),
            self.mean_latency.1,
            hist(&self.latency_val),
            self.worst_runtime.0,
            hist(&self.runtime_dor),
            self.worst_runtime.1,
            hist(&self.runtime_val),
        )
    }
}

/// Fig 16: the enhanced injection model — runtime and throughput vs NAR
/// for each router delay, at `m` in {1, 4, 16}.
#[derive(Debug, Clone)]
pub struct Fig16 {
    /// Per-m groups; within each, one [`BatchSweep`]-like series per tr,
    /// with x = NAR instead of m.
    pub groups: Vec<Fig16Group>,
}

/// One `m` panel of Fig 16.
#[derive(Debug, Clone)]
pub struct Fig16Group {
    /// MSHR count.
    pub m: usize,
    /// `(tr, nar, normalized runtime, theta)` rows; runtime normalized
    /// to `tr = 1` at the same NAR.
    pub rows: Vec<(u32, f64, f64, f64)>,
}

/// The NAR sweep values of Fig 16.
pub const NARS: [f64; 6] = [0.04, 0.12, 0.2, 0.28, 0.36, 1.0];

/// Run Fig 16.
pub fn fig16(effort: &Effort) -> Fig16 {
    let groups = [1usize, 4, 16]
        .iter()
        .map(|&m| {
            let mut rows = Vec::new();
            for &nar in &NARS {
                let mut base = None;
                for &tr in &[1u32, 2, 4] {
                    let cfg = batch_cfg(
                        NetConfig::baseline().with_router_delay(tr),
                        PatternKind::Uniform,
                        effort.batch,
                        m,
                    )
                    .with_nar(nar);
                    let r = run_batch(&cfg).expect("valid config");
                    let b = *base.get_or_insert(r.runtime as f64);
                    rows.push((tr, nar, r.runtime as f64 / b, r.throughput));
                }
            }
            Fig16Group { m, rows }
        })
        .collect();
    Fig16 { groups }
}

impl Fig16 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig 16: enhanced injection model (NAR) ==\n");
        for g in &self.groups {
            out.push_str(&format!("-- m = {} --\nNAR      tr   T_norm   theta\n", g.m));
            for &(tr, nar, t, th) in &g.rows {
                out.push_str(&format!("{nar:<8} {tr:<4} {t:<8.3} {th:.4}\n"));
            }
        }
        out
    }

    /// Runtime ratio tr=4 / tr=1 at the lowest and highest NAR for the
    /// largest m — the paper's observation that low NAR erases the
    /// router-delay penalty.
    pub fn tr4_sensitivity(&self) -> (f64, f64) {
        let g = self.groups.last().expect("groups nonempty");
        let at = |nar: f64, tr: u32| {
            g.rows
                .iter()
                .find(|&&(t, n, _, _)| t == tr && (n - nar).abs() < 1e-9)
                .map(|&(_, _, v, _)| v)
                .unwrap_or(f64::NAN)
        };
        (at(NARS[0], 4), at(1.0, 4))
    }
}

/// Fig 17: the enhanced reply model — runtime/throughput vs `m` for
/// three memory models.
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// Panels: (label, sweeps per tr).
    pub panels: Vec<(String, Vec<BatchSweep>)>,
}

/// Run Fig 17.
pub fn fig17(effort: &Effort) -> Fig17 {
    let models = [
        ("memory latency = 20".to_string(), ReplyModel::Fixed { latency: 20 }),
        ("memory latency = 50".to_string(), ReplyModel::Fixed { latency: 50 }),
        (
            "memory latency = 20 + 0.1 * 300".to_string(),
            ReplyModel::Probabilistic { l2_latency: 20, mem_latency: 300, mem_frac: 0.1 },
        ),
    ];
    let panels = models
        .into_iter()
        .map(|(label, model)| {
            let mut baseline: Option<f64> = None;
            let sweeps = [1u32, 2, 4]
                .iter()
                .map(|&tr| {
                    let mut runtime = Vec::new();
                    let mut theta = Vec::new();
                    for &m in &MS {
                        let cfg = batch_cfg(
                            NetConfig::baseline().with_router_delay(tr),
                            PatternKind::Uniform,
                            effort.batch,
                            m,
                        )
                        .with_reply(model);
                        let r = run_batch(&cfg).expect("valid config");
                        let base = *baseline.get_or_insert(r.runtime as f64);
                        runtime.push((m, r.runtime as f64 / base));
                        theta.push((m, r.throughput));
                    }
                    BatchSweep { label: format!("tr={tr}"), runtime, theta }
                })
                .collect();
            (label, sweeps)
        })
        .collect();
    Fig17 { panels }
}

impl Fig17 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig 17: enhanced reply model ==\n");
        for (label, sweeps) in &self.panels {
            out.push_str(&format!("-- {label} --\nvariant  m      T_norm    theta\n"));
            for s in sweeps {
                for ((m, t), (_, th)) in s.runtime.iter().zip(&s.theta) {
                    out.push_str(&format!("{:<8} {:<6} {:<9.3} {:.4}\n", s.label, m, t, th));
                }
            }
        }
        out
    }
}
