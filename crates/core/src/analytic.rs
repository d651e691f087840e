//! Cross-validation of the static analytic model against the
//! simulator, in the same spirit as the paper's open-vs-batch
//! correlation study: predict each configuration's saturation
//! throughput with `noc-analytic`, measure it with `noc-openloop`'s
//! bisection search, and report per-case relative errors plus the
//! Pearson correlation. Rendered by `repro analytic` and gated by
//! `analytic_smoke`; the study has no file export.

use noc_analytic::AnalyticModel;
use noc_openloop::{saturation_throughput, OpenLoopConfig, SweepPoint};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::error::ConfigError;
use noc_stats::pearson;
use noc_traffic::{PatternKind, SizeKind};

use crate::effort::Effort;

/// One cross-validation case: a labeled `(network, pattern)` point.
pub type AnalyticCase = (String, NetConfig, PatternKind);

/// The default cross-validation set: DOR meshes and tori the verifier
/// certifies deadlock-free, under patterns whose matrices are exact.
pub fn default_cases() -> Vec<AnalyticCase> {
    let mesh = |k| NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k });
    let torus = |k| NetConfig::baseline().with_topology(TopologyKind::Torus2D { k });
    vec![
        ("mesh4/uniform".into(), mesh(4), PatternKind::Uniform),
        ("mesh8/uniform".into(), mesh(8), PatternKind::Uniform),
        ("torus4/uniform".into(), torus(4), PatternKind::Uniform),
        ("torus8/uniform".into(), torus(8), PatternKind::Uniform),
        ("mesh8/transpose".into(), mesh(8), PatternKind::Transpose),
        ("torus8/tornado".into(), torus(8), PatternKind::Tornado),
    ]
}

/// One case's predicted vs measured saturation.
#[derive(Debug, Clone)]
pub struct AnalyticPoint {
    /// Case label.
    pub label: String,
    /// True when `noc_verify` certifies the configuration (the model's
    /// accuracy contract only covers certified configs).
    pub certified: bool,
    /// Capacity bound `1 / max_channel_load`.
    pub ideal: f64,
    /// Model-predicted saturation throughput.
    pub predicted: f64,
    /// Simulator bisection bracket (stable side).
    pub measured_lo: f64,
    /// Simulator bisection bracket (unstable side).
    pub measured_hi: f64,
    /// `|predicted - measured| / measured` with measured the bracket
    /// midpoint.
    pub rel_err: f64,
}

/// Outcome of the cross-validation study.
#[derive(Debug, Clone)]
pub struct AnalyticStudy {
    /// Latency cap used on both sides of the comparison.
    pub latency_cap: f64,
    /// Per-case results.
    pub points: Vec<AnalyticPoint>,
    /// Pearson correlation of predicted vs measured saturation.
    pub r: Option<f64>,
    /// Worst per-case relative error.
    pub max_rel_err: f64,
    /// Mean per-case relative error.
    pub mean_rel_err: f64,
}

/// Run the study: one analytic model plus one simulator bisection per
/// case, fanned out through `noc_exp::run_grid`.
pub fn analytic_study(
    cases: &[AnalyticCase],
    effort: &Effort,
    latency_cap: f64,
) -> Result<AnalyticStudy, ConfigError> {
    let raw = noc_exp::run_grid(cases, |_, (label, net, pattern)| {
        let model = AnalyticModel::of(net, *pattern, SizeKind::Fixed(1))?;
        let predicted = model.predicted_saturation(latency_cap);
        let certified = noc_verify::verify(net).is_certified();
        let cfg = OpenLoopConfig {
            net: net.clone(),
            pattern: *pattern,
            warmup: effort.warmup,
            measure: effort.measure,
            drain_max: effort.drain,
            ..OpenLoopConfig::default()
        };
        let (lo, hi) = saturation_throughput(&cfg, latency_cap, 0.02)?;
        let measured = 0.5 * (lo + hi);
        let rel_err =
            if measured > 0.0 { (predicted - measured).abs() / measured } else { f64::INFINITY };
        Ok(AnalyticPoint {
            label: label.clone(),
            certified,
            ideal: model.ideal_saturation,
            predicted,
            measured_lo: lo,
            measured_hi: hi,
            rel_err,
        })
    });
    let points = raw.into_iter().collect::<Result<Vec<_>, ConfigError>>()?;
    let x: Vec<f64> = points.iter().map(|p| p.predicted).collect();
    let y: Vec<f64> = points.iter().map(|p| 0.5 * (p.measured_lo + p.measured_hi)).collect();
    let max_rel_err = points.iter().map(|p| p.rel_err).fold(0.0, f64::max);
    let mean_rel_err = if points.is_empty() {
        0.0
    } else {
        points.iter().map(|p| p.rel_err).sum::<f64>() / points.len() as f64
    };
    Ok(AnalyticStudy { latency_cap, points, r: pearson(&x, &y), max_rel_err, mean_rel_err })
}

impl AnalyticStudy {
    /// Text report: one line per case plus the summary statistics.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== analytic cross-validation (latency cap {} cycles) ==\n\
             {:<18} {:>6} {:>9} {:>9} {:>19} {:>8}\n",
            self.latency_cap, "case", "cert", "ideal", "predicted", "measured [lo, hi]", "rel err",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<18} {:>6} {:>9.4} {:>9.4}    [{:.4}, {:.4}] {:>7.1}%\n",
                p.label,
                if p.certified { "yes" } else { "no" },
                p.ideal,
                p.predicted,
                p.measured_lo,
                p.measured_hi,
                100.0 * p.rel_err,
            ));
        }
        out.push_str(&format!(
            "r = {}, max rel err {:.1}%, mean rel err {:.1}%\n",
            self.r.map(|r| format!("{r:.4}")).unwrap_or_else(|| "n/a".into()),
            100.0 * self.max_rel_err,
            100.0 * self.mean_rel_err,
        ));
        out
    }
}

/// Overlay the model's predicted latency-load curve on measured sweep
/// points, as an ASCII plot.
pub fn analytic_overlay(title: &str, model: &AnalyticModel, measured: &[SweepPoint]) -> String {
    let max_load = measured.iter().map(|p| p.load).fold(0.0, f64::max).max(1e-6);
    let dense: Vec<f64> = (1..=64).map(|i| max_load * i as f64 / 64.0).collect();
    let predicted = model.curve(&dense);
    // unstable measured points sit at effectively unbounded latency;
    // clip the overlay to stable ones so the y-range stays readable
    let meas: Vec<(f64, f64)> = measured
        .iter()
        .filter(|p| p.result.stable)
        .map(|p| (p.load, p.result.avg_latency))
        .collect();
    crate::plot::ascii_plot(
        title,
        &[
            crate::plot::Series { label: "predicted", points: &predicted },
            crate::plot::Series { label: "measured", points: &meas },
        ],
        64,
        14,
    )
}

/// The analytic channel-load heatmap: per-router peak outgoing expected
/// load on a `k x k` grid (same shape as the measured
/// [`crate::figures::metrics_heatmap`]).
pub fn load_heatmap(model: &AnalyticModel) -> String {
    let n = model.nodes;
    let k = (n as f64).sqrt().round() as usize;
    let peaks = model.loads.per_router_peak();
    if k * k != n || n == 0 {
        let mut out = String::new();
        let mut channels = model.loads.channels();
        channels.sort_by(|a, b| b.load.partial_cmp(&a.load).expect("loads are finite"));
        for c in channels.into_iter().take(8) {
            out.push_str(&format!(
                "channel at router {} port {}: {:.3} per unit load\n",
                c.node, c.port, c.load
            ));
        }
        return out;
    }
    crate::plot::ascii_heatmap(
        "expected peak outgoing channel load per router (rows are y):",
        &peaks,
        k,
        "traversals per unit offered load",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_analytic::Confidence;

    fn tiny_study() -> AnalyticStudy {
        let cases = vec![(
            "mesh4/uniform".to_string(),
            NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            PatternKind::Uniform,
        )];
        analytic_study(&cases, &Effort::quick(), 300.0).unwrap()
    }

    #[test]
    fn study_predicts_within_tolerance_on_mesh4() {
        let s = tiny_study();
        assert_eq!(s.points.len(), 1);
        let p = &s.points[0];
        assert!(p.certified);
        assert!(
            p.rel_err < 0.15,
            "rel err {:.3} (pred {} vs [{}, {}])",
            p.rel_err,
            p.predicted,
            p.measured_lo,
            p.measured_hi
        );
        assert!(s.render().contains("mesh4/uniform"));
    }

    #[test]
    fn overlay_and_heatmap_render() {
        let net = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 });
        let model = AnalyticModel::of(&net, PatternKind::Uniform, SizeKind::Fixed(1)).unwrap();
        assert_eq!(model.confidence, Confidence::High);
        let cfg = OpenLoopConfig { net, ..OpenLoopConfig::default() }.quick();
        let sweep = noc_openloop::sweep(&cfg, &[0.1, 0.3]);
        let overlay = analytic_overlay("mesh4 uniform", &model, &sweep);
        assert!(overlay.contains("predicted") && overlay.contains("measured"));
        let hm = load_heatmap(&model);
        assert!(hm.contains("scale"), "{hm}");
        assert_eq!(hm.lines().count(), 1 + 4 + 1, "4x4 grid plus header and legend");
    }
}
