//! Open-loop figures: Fig 1 (canonical latency–load curve), Fig 3
//! (router delay & buffer size), Fig 6(a) (topologies), Fig 9 (routing
//! algorithms under uniform and transpose traffic).

use noc_openloop::{measure, sweep, OpenLoopConfig};
use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_traffic::{PatternKind, SizeKind};

use super::{render_curves, Curve};
use crate::effort::Effort;

fn base_openloop(net: NetConfig, pattern: PatternKind, effort: &Effort) -> OpenLoopConfig {
    OpenLoopConfig {
        net,
        pattern,
        size: SizeKind::Fixed(1),
        load: 0.0,
        warmup: effort.warmup,
        measure: effort.measure,
        drain_max: effort.drain,
    }
}

/// Sweep a configuration and keep `(load, avg_latency)` for points that
/// drained (unstable points make latency meaningless, as the paper
/// notes: saturation latency "approaches infinity").
fn latency_curve(
    label: &str,
    net: NetConfig,
    pattern: PatternKind,
    effort: &Effort,
    max_load: f64,
    worst: bool,
) -> Curve {
    let cfg = base_openloop(net, pattern, effort);
    let pts = sweep(&cfg, &effort.loads(max_load));
    Curve {
        label: label.to_string(),
        points: pts
            .iter()
            .filter(|p| p.result.drained)
            .map(|p| {
                let y = if worst { p.result.worst_node_latency } else { p.result.avg_latency };
                (p.load, y)
            })
            .collect(),
    }
}

/// Fig 1: the canonical latency vs offered traffic curve on the
/// baseline 8x8 mesh, annotated with zero-load latency and saturation.
#[derive(Debug, Clone)]
pub struct Fig01 {
    /// The latency–load curve.
    pub curve: Curve,
    /// Zero-load latency estimate (latency at the lowest measured load).
    pub zero_load: f64,
    /// Saturation bracket from bisection (stable, unstable).
    pub saturation: (f64, f64),
}

/// Run Fig 1.
pub fn fig01(effort: &Effort) -> Fig01 {
    let net = NetConfig::baseline();
    let curve =
        latency_curve("uniform/DOR", net.clone(), PatternKind::Uniform, effort, 0.44, false);
    let sat = noc_openloop::saturation_throughput(
        &base_openloop(net, PatternKind::Uniform, effort),
        300.0,
        0.02,
    )
    .expect("valid saturation search parameters");
    Fig01 { zero_load: curve.first_y().unwrap_or(0.0), saturation: sat, curve }
}

impl Fig01 {
    /// Text report.
    pub fn render(&self) -> String {
        format!(
            "{}zero-load latency T0 = {:.1} cycles\nsaturation throughput theta in [{:.3}, {:.3}] flits/cycle/node\n",
            render_curves("Fig 1: latency vs offered traffic (8x8 mesh, uniform, DOR)", std::slice::from_ref(&self.curve)),
            self.zero_load,
            self.saturation.0,
            self.saturation.1
        )
    }
}

/// Fig 3: open-loop impact of router delay (a) and VC buffer size (b).
#[derive(Debug, Clone)]
pub struct Fig03 {
    /// (a): curves for `t_r` in {1, 2, 4}.
    pub router_delay: Vec<Curve>,
    /// (b): curves for `q` in {4, 8, 16, 32}.
    pub buffer_size: Vec<Curve>,
}

/// Run Fig 3.
pub fn fig03(effort: &Effort) -> Fig03 {
    let router_delay = [1u32, 2, 4]
        .iter()
        .map(|&tr| {
            latency_curve(
                &format!("tr={tr}"),
                NetConfig::baseline().with_router_delay(tr),
                PatternKind::Uniform,
                effort,
                0.44,
                false,
            )
        })
        .collect();
    let buffer_size = [4usize, 8, 16, 32]
        .iter()
        .map(|&q| {
            latency_curve(
                &format!("q={q}"),
                NetConfig::baseline().with_vc_buf(q),
                PatternKind::Uniform,
                effort,
                0.48,
                false,
            )
        })
        .collect();
    Fig03 { router_delay, buffer_size }
}

impl Fig03 {
    /// Text report.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}",
            render_curves("Fig 3(a): open-loop, router delay sweep", &self.router_delay),
            render_curves("Fig 3(b): open-loop, VC buffer size sweep", &self.buffer_size)
        )
    }

    /// Zero-load latency ratios relative to `t_r = 1` (paper: ~1.5, ~2.5).
    pub fn zero_load_ratios(&self) -> Vec<f64> {
        let base = self.router_delay[0].first_y().unwrap_or(1.0);
        self.router_delay.iter().map(|c| c.first_y().unwrap_or(0.0) / base).collect()
    }
}

/// Fig 6(a): open-loop topology comparison (mesh, folded torus, ring).
#[derive(Debug, Clone)]
pub struct Fig06a {
    /// One curve per topology.
    pub curves: Vec<Curve>,
}

/// The topology variants of Fig 6–8 (64 nodes each), with enough VCs
/// for dateline deadlock freedom on the wrapped topologies.
pub fn fig06_topologies() -> Vec<(String, NetConfig)> {
    vec![
        ("mesh".into(), NetConfig::baseline().with_vcs(4)),
        (
            "torus".into(),
            NetConfig::baseline().with_topology(TopologyKind::FoldedTorus2D { k: 8 }).with_vcs(4),
        ),
        (
            "ring".into(),
            NetConfig::baseline().with_topology(TopologyKind::Ring { n: 64 }).with_vcs(4),
        ),
    ]
}

/// Run Fig 6(a).
pub fn fig06a(effort: &Effort) -> Fig06a {
    let curves = fig06_topologies()
        .into_iter()
        .map(|(label, net)| {
            let max = if label == "ring" { 0.12 } else { 0.6 };
            latency_curve(&label, net, PatternKind::Uniform, effort, max, false)
        })
        .collect();
    Fig06a { curves }
}

impl Fig06a {
    /// Text report.
    pub fn render(&self) -> String {
        render_curves("Fig 6(a): open-loop topology comparison (uniform)", &self.curves)
    }
}

/// Fig 9: open-loop routing algorithm comparison under uniform (a) and
/// transpose (b) traffic.
#[derive(Debug, Clone)]
pub struct Fig09 {
    /// (a) uniform random.
    pub uniform: Vec<Curve>,
    /// (b) transpose.
    pub transpose: Vec<Curve>,
}

/// The routing variants of Figs 9–11 (4 VCs so VAL's two phases fit).
pub fn fig09_routings() -> Vec<(String, NetConfig)> {
    [RoutingKind::Dor, RoutingKind::MinAdaptive, RoutingKind::Romm, RoutingKind::Valiant]
        .into_iter()
        .map(|r| {
            let label = match r {
                RoutingKind::Dor => "DOR",
                RoutingKind::MinAdaptive => "MA",
                RoutingKind::Romm => "ROMM",
                RoutingKind::Valiant => "VAL",
            };
            (label.to_string(), NetConfig::baseline().with_routing(r).with_vcs(4))
        })
        .collect()
}

/// Run Fig 9.
pub fn fig09(effort: &Effort) -> Fig09 {
    let run = |pattern: PatternKind, max: f64| -> Vec<Curve> {
        fig09_routings()
            .into_iter()
            .map(|(label, net)| latency_curve(&label, net, pattern, effort, max, false))
            .collect()
    };
    Fig09 { uniform: run(PatternKind::Uniform, 0.44), transpose: run(PatternKind::Transpose, 0.3) }
}

impl Fig09 {
    /// Text report.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}",
            render_curves("Fig 9(a): routing algorithms, uniform", &self.uniform),
            render_curves("Fig 9(b): routing algorithms, transpose", &self.transpose)
        )
    }
}

/// Shared helper for single-point measurements in other figures.
pub fn openloop_point(
    net: NetConfig,
    pattern: PatternKind,
    load: f64,
    effort: &Effort,
) -> noc_openloop::OpenLoopResult {
    measure(&base_openloop(net, pattern, effort).with_load(load)).expect("valid config")
}
