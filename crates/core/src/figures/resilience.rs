//! The resilience figure: delivered fraction and recovery latency vs.
//! link availability under intermittent fault-and-repair timelines,
//! with one curve per recovery arm (none, end-to-end retransmission,
//! link-level retry, both) — so the link-level-retry vs.
//! end-to-end-retransmission trade-off is a single picture. Rendered
//! by `repro ext_resilience`; it has no file export.

use noc_exp::PointOutcome;
use noc_fault::{fault_sweep, last_repair_cycle, link_availability, FaultPoint, ResilienceConfig};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::network::fault::FaultPlan;

use super::{render_curves, Curve};
use crate::effort::Effort;
use crate::report::render_table;

/// One recovery arm's resilience curve.
#[derive(Debug, Clone)]
pub struct ResilienceCurve {
    /// Stable label of the armed recovery (`none`, `e2e`, `link`,
    /// `combined`).
    pub mode: String,
    /// One outcome per `(mtbf, mttr)` axis entry.
    pub outcomes: Vec<PointOutcome<FaultPoint>>,
}

/// The resilience showcase: all four recovery arms swept over the
/// same MTBF axis on the same flapping 8x8 mesh.
#[derive(Debug, Clone)]
pub struct ResilienceFigure {
    /// One curve per recovery arm: none, end-to-end, link-level, both.
    pub curves: Vec<ResilienceCurve>,
    /// The `(mtbf, mttr)` axis shared by every curve.
    pub axis: Vec<(u64, u64)>,
    /// Scheduled fraction of directed-channel-cycles up over the flap
    /// horizon, per axis entry (every curve runs the same timelines).
    pub availability: Vec<f64>,
    /// The cycle of each axis entry's last repair, if it has one.
    pub last_repair: Vec<Option<u64>>,
}

/// Run the resilience figure: a mesh with flapping links, MTBF swept
/// from frequent to rare outages at a fixed MTBF/MTTR ratio, each
/// recovery arm measured over the identical traffic and flap seeds
/// (the arm only changes the recovery machinery, never the workload).
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

    let cfg = ResilienceConfig::new(base, axis.clone());
    let plans = cfg.plans().expect("valid sweep config");
    let (retx, link_retry) = (cfg.retx, cfg.link_retry);
    let arms = [
        ("none", None, None),
        ("e2e", retx, None),
        ("link", None, link_retry),
        ("combined", retx, link_retry),
    ];
    let curves = arms
        .into_iter()
        .map(|(mode, retx, link_retry)| {
            let armed: Vec<FaultPlan> =
                plans.iter().map(|p| FaultPlan { retx, link_retry, ..p.clone() }).collect();
            let outcomes = fault_sweep(&cfg.base, &armed, cfg.base.drain_max);
            ResilienceCurve { mode: mode.into(), outcomes: outcomes.expect("valid sweep config") }
        })
        .collect();
    let topo = cfg.base.net.topology;
    ResilienceFigure {
        curves,
        axis,
        availability: plans
            .iter()
            .map(|p| link_availability(&p.events, topo, cfg.flap.horizon))
            .collect(),
        last_repair: plans.iter().map(|p| last_repair_cycle(&p.events)).collect(),
    }
}

impl ResilienceFigure {
    /// The settled points of `curve`, each with its axis index.
    fn settled<'a>(
        &self,
        curve: &'a ResilienceCurve,
    ) -> impl Iterator<Item = (usize, &'a FaultPoint)> {
        curve.outcomes.iter().enumerate().filter_map(|(k, o)| match o {
            PointOutcome::Ok(p) => Some((k, p)),
            _ => None,
        })
    }

    /// Cycles from axis entry `k`'s last repair until its point `p`
    /// fully settled (0 when it settled before the last repair).
    fn recovery_cycles(&self, k: usize, p: &FaultPoint) -> u64 {
        self.last_repair[k].map_or(0, |r| p.cycles.saturating_sub(r))
    }

    /// One curve per arm, of `y` against MTBF over its settled points.
    fn curves_of(&self, y: impl Fn(usize, &FaultPoint) -> f64) -> Vec<Curve> {
        self.curves
            .iter()
            .map(|c| Curve {
                label: c.mode.clone(),
                points: self.settled(c).map(|(k, p)| (self.axis[k].0 as f64, y(k, p))).collect(),
            })
            .collect()
    }

    /// Delivered-fraction-vs-MTBF curves, one per arm.
    pub fn delivered_curves(&self) -> Vec<Curve> {
        self.curves_of(|_, p| p.delivered().fraction())
    }

    /// Recovery-latency-vs-MTBF curves (cycles from the last repair to
    /// full settlement), one per arm.
    pub fn recovery_curves(&self) -> Vec<Curve> {
        self.curves_of(|k, p| self.recovery_cycles(k, p) as f64)
    }

    /// Text report: the delivered and recovery plots plus a per-arm
    /// table of the headline counters, then one line per axis entry
    /// that diverged or panicked instead of settling.
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
            for (k, p) in self.settled(c) {
                let (mtbf, mttr) = self.axis[k];
                rows.push(vec![
                    c.mode.clone(),
                    mtbf.to_string(),
                    mttr.to_string(),
                    format!("{:.4}", self.availability[k]),
                    p.delivered().to_string(),
                    p.stats.retransmissions.to_string(),
                    p.stats.link_replays.to_string(),
                    p.stats.epochs.to_string(),
                    self.recovery_cycles(k, p).to_string(),
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
            for (o, (mtbf, _)) in c.outcomes.iter().zip(&self.axis) {
                match o {
                    PointOutcome::Ok(_) => {}
                    PointOutcome::Panicked { message } => {
                        out.push_str(&format!("{}: mtbf {mtbf} PANICKED: {message}\n", c.mode))
                    }
                    PointOutcome::Diverged { budget } => out.push_str(&format!(
                        "{}: mtbf {mtbf} DIVERGED (budget {budget} cycles)\n",
                        c.mode
                    )),
                }
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
            assert_eq!(c.outcomes.len(), fig.axis.len(), "{}", c.mode);
        }
        // every point's availability is a probability and < 1 (it flaps)
        for a in &fig.availability {
            assert!((0.0..1.0).contains(a), "{a}");
        }
        // arms with an end-to-end ledger deliver everything after heal
        for mode in ["e2e", "combined"] {
            let c = fig.curves.iter().find(|c| c.mode == mode).unwrap();
            assert!(
                c.outcomes
                    .iter()
                    .all(|o| matches!(o, PointOutcome::Ok(p) if p.delivered().is_complete())),
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
        let points: Vec<_> = fig.curves.iter().flat_map(|c| fig.settled(c)).collect();
        let rows: Vec<&str> = lines.skip(1).take(points.len()).collect();
        assert_eq!(rows.len(), points.len());
        assert!(points.iter().any(|(_, p)| p.delivered().is_complete()));
        for ((k, p), row) in points.into_iter().zip(rows) {
            let avail = format!("{:.4} ", fig.availability[k]);
            assert!(row[at("avail")..].starts_with(&avail), "{row}");
            let retx = format!("{} ", p.stats.retransmissions);
            assert!(row[at("retx")..].starts_with(&retx), "{row}");
            let recovery = format!("{} ", fig.recovery_cycles(k, p));
            assert!(row[at("recovery")..].starts_with(&recovery), "{row}");
            assert!(row[at("latency")..].starts_with(&format!("{:.2}", p.avg_latency)), "{row}");
        }
    }
}
