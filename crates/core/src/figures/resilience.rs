//! The resilience figure: delivered fraction and recovery latency vs.
//! link availability under intermittent fault-and-repair timelines,
//! with one curve per [`RecoveryMode`] — so the link-level-retry vs.
//! end-to-end-retransmission trade-off is a single picture. Rendered
//! by `repro ext_resilience`; it has no file export.

use noc_exp::PointOutcome;
use noc_fault::{resilience_sweep, RecoveryMode, ResilienceConfig, ResiliencePoint};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};

use super::{render_curves, Curve};
use crate::effort::Effort;
use crate::report::render_table;

/// One recovery mode's resilience curve.
#[derive(Debug, Clone)]
pub struct ResilienceCurve {
    /// Stable mode label (`none`, `e2e`, `link`, `combined`).
    pub mode: String,
    /// Successful sweep points, one per `(mtbf, mttr)` axis entry.
    pub points: Vec<ResiliencePoint>,
    /// One message per axis entry that diverged or panicked instead
    /// of settling.
    pub failed: Vec<String>,
}

/// The resilience showcase: all four recovery modes swept over the
/// same MTBF axis on the same flapping 8x8 mesh.
#[derive(Debug, Clone)]
pub struct ResilienceFigure {
    /// One curve per recovery mode, in [`RecoveryMode::ALL`] order.
    pub curves: Vec<ResilienceCurve>,
    /// The `(mtbf, mttr)` axis shared by every curve.
    pub axis: Vec<(u64, u64)>,
}

/// Run the resilience figure: a mesh with flapping links, MTBF swept
/// from frequent to rare outages at a fixed MTBF/MTTR ratio, each
/// recovery mode measured over the identical traffic and flap seeds
/// (the mode only changes the recovery machinery, never the workload).
pub fn resilience_figure(effort: &Effort) -> ResilienceFigure {
    let k = if effort.warmup < 5_000 { 4 } else { 8 };
    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k }),
        load: 0.1,
        warmup: effort.warmup,
        measure: effort.measure,
        drain_max: effort.drain,
        ..OpenLoopConfig::default()
    };
    let horizon = base.warmup + base.measure;
    // MTBF from one outage per ~tenth of the window up to ~one per
    // window; MTTR pinned at an eighth of MTBF
    let steps = effort.sweep_points.clamp(3, 8) as u64;
    let axis: Vec<(u64, u64)> = (1..=steps)
        .map(|i| {
            let mtbf = (horizon / 10 * i).max(8);
            (mtbf, (mtbf / 8).max(1))
        })
        .collect();

    let curves = RecoveryMode::ALL
        .iter()
        .map(|&mode| {
            let cfg = ResilienceConfig::new(base.clone(), axis.clone()).with_recovery(mode);
            let mut points = Vec::new();
            let mut failed = Vec::new();
            let outcomes = resilience_sweep(&cfg).expect("valid sweep config");
            for (o, (mtbf, _)) in outcomes.into_iter().zip(&axis) {
                match o {
                    PointOutcome::Ok(p) => points.push(p),
                    PointOutcome::Panicked { message } => {
                        failed.push(format!("mtbf {mtbf} PANICKED: {message}"))
                    }
                    PointOutcome::Diverged { budget } => {
                        failed.push(format!("mtbf {mtbf} DIVERGED (budget {budget} cycles)"))
                    }
                }
            }
            ResilienceCurve { mode: mode.label().into(), points, failed }
        })
        .collect();
    ResilienceFigure { curves, axis }
}

impl ResilienceFigure {
    /// Delivered-fraction-vs-MTBF curves, one per mode.
    pub fn delivered_curves(&self) -> Vec<Curve> {
        self.curves
            .iter()
            .map(|c| Curve {
                label: c.mode.clone(),
                points: c.points.iter().map(|p| (p.mtbf as f64, p.delivered.fraction())).collect(),
            })
            .collect()
    }

    /// Recovery-latency-vs-MTBF curves (cycles from the last repair to
    /// full settlement), one per mode.
    pub fn recovery_curves(&self) -> Vec<Curve> {
        self.curves
            .iter()
            .map(|c| Curve {
                label: c.mode.clone(),
                points: c
                    .points
                    .iter()
                    .map(|p| (p.mtbf as f64, p.recovery_cycles as f64))
                    .collect(),
            })
            .collect()
    }

    /// Text report: the delivered and recovery plots plus a per-mode
    /// table of the headline counters.
    pub fn render(&self) -> String {
        let mut out = render_curves(
            "resilience: delivered fraction vs link MTBF (cycles)",
            &self.delivered_curves(),
        );
        out.push_str(&render_curves(
            "resilience: recovery latency after last repair vs link MTBF",
            &self.recovery_curves(),
        ));
        let mut rows = Vec::new();
        for c in &self.curves {
            for p in &c.points {
                rows.push(vec![
                    c.mode.clone(),
                    p.mtbf.to_string(),
                    p.mttr.to_string(),
                    format!("{:.4}", p.availability),
                    p.delivered.to_string(),
                    p.retransmissions.to_string(),
                    p.link_replays.to_string(),
                    p.epochs.to_string(),
                    p.recovery_cycles.to_string(),
                    format!("{:.2}", p.avg_latency),
                ]);
            }
        }
        // every column sized from its widest cell: `6250/6250 (100.0%)`
        // must not push the columns after `delivered` out of line
        out.push_str(&render_table(
            &[
                "mode",
                "mtbf",
                "mttr",
                "avail",
                "delivered",
                "retx",
                "replays",
                "epochs",
                "recovery",
                "latency",
            ],
            &rows,
        ));
        for c in &self.curves {
            for message in &c.failed {
                out.push_str(&format!("{}: {message}\n", c.mode));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_figure() -> ResilienceFigure {
        let mut effort = Effort::quick();
        effort.sweep_points = 3;
        resilience_figure(&effort)
    }

    #[test]
    fn figure_runs_and_recovers_with_retransmission() {
        let fig = quick_figure();
        assert_eq!(fig.curves.len(), 4);
        for c in &fig.curves {
            assert_eq!(c.points.len() + c.failed.len(), fig.axis.len(), "{}", c.mode);
        }
        // every point's availability is a probability and < 1 (it flaps)
        for c in &fig.curves {
            for p in &c.points {
                assert!((0.0..1.0).contains(&p.availability), "{}: {}", c.mode, p.availability);
            }
        }
        // modes with an end-to-end ledger deliver everything after heal
        for mode in ["e2e", "combined"] {
            let c = fig.curves.iter().find(|c| c.mode == mode).unwrap();
            assert!(
                c.points.iter().all(|p| p.delivered.is_complete()),
                "{mode} must fully recover on a connected flapping mesh"
            );
        }
        let r = fig.render();
        assert!(r.contains("delivered fraction vs link MTBF"));
        assert!(r.contains("combined"));
    }

    /// On every row — the fully recovered `N/N (100.0%)` ones included
    /// — each value starts at its header's byte offset.
    #[test]
    fn table_columns_start_at_their_headers() {
        let fig = quick_figure();
        let text = fig.render();
        let mut lines = text.lines().skip_while(|l| !l.starts_with("mode "));
        let header = lines.next().expect("table header");
        let at = |name| header.find(name).expect("column header");
        let points: Vec<_> = fig.curves.iter().flat_map(|c| &c.points).collect();
        let rows: Vec<&str> = lines.skip(1).take(points.len()).collect();
        assert_eq!(rows.len(), points.len());
        assert!(points.iter().any(|p| p.delivered.is_complete()));
        for (p, row) in points.iter().zip(rows) {
            assert!(row[at("avail")..].starts_with(&format!("{:.4} ", p.availability)), "{row}");
            assert!(row[at("retx")..].starts_with(&format!("{} ", p.retransmissions)), "{row}");
            assert!(row[at("recovery")..].starts_with(&format!("{} ", p.recovery_cycles)), "{row}");
            assert!(row[at("latency")..].starts_with(&format!("{:.2}", p.avg_latency)), "{row}");
        }
    }
}
