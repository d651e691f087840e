//! The resilience figure: delivered fraction and recovery latency vs.
//! link availability under intermittent fault-and-repair timelines,
//! with one curve per [`RecoveryMode`] — so the link-level-retry vs.
//! end-to-end-retransmission trade-off is a single picture.
//!
//! Export has the `noc-eval/metrics/v1` shape: a schema-versioned
//! header (`noc-eval/resilience/v1`), then one point record per line,
//! through the shared codec in [`crate::json`].

use noc_exp::PointOutcome;
use noc_fault::{resilience_sweep, RecoveryMode, ResilienceConfig, ResiliencePoint};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};

use super::{render_curves, Curve};
use crate::effort::Effort;
use crate::json::{rows, Obj, Record};

/// Schema tag emitted and required by this module.
pub const RESILIENCE_SCHEMA: &str = "noc-eval/resilience/v1";

/// One recovery mode's resilience curve.
#[derive(Debug, Clone)]
pub struct ResilienceCurve {
    /// Stable mode label (`none`, `e2e`, `link`, `combined`).
    pub mode: String,
    /// Successful sweep points, one per `(mtbf, mttr)` axis entry.
    pub points: Vec<ResiliencePoint>,
    /// Axis entries that diverged or panicked instead of settling.
    pub failed_points: usize,
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
            let mut failed_points = 0;
            for o in resilience_sweep(&cfg) {
                match o {
                    PointOutcome::Ok(p) => points.push(p),
                    _ => failed_points += 1,
                }
            }
            ResilienceCurve { mode: mode.label().into(), points, failed_points }
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
        out.push_str("mode      mtbf    avail   delivered  retx  replays  epochs  recovery\n");
        for c in &self.curves {
            for p in &c.points {
                out.push_str(&format!(
                    "{:<9} {:<7} {:.4}  {:<9} {:<5} {:<8} {:<7} {}\n",
                    c.mode,
                    p.mtbf,
                    p.availability,
                    format!("{}", p.delivered),
                    p.retransmissions,
                    p.link_replays,
                    p.epochs,
                    p.recovery_cycles,
                ));
            }
            if c.failed_points > 0 {
                out.push_str(&format!(
                    "{:<9} {} point(s) diverged or panicked\n",
                    c.mode, c.failed_points
                ));
            }
        }
        out
    }
}

/// Serialize a figure to the `noc-eval/resilience/v1` schema: one
/// point record per line so the parser (and humans with grep) can scan
/// it line by line.
pub fn resilience_to_json(fig: &ResilienceFigure) -> String {
    let curves = fig.curves.iter().map(|c| {
        let points = c.points.iter().map(|p| {
            Obj::new()
                .val("mtbf", p.mtbf)
                .val("mttr", p.mttr)
                .fixed("availability", p.availability, 6)
                .val("delivered_num", p.delivered.num)
                .val("delivered_den", p.delivered.den)
                .val("retransmissions", p.retransmissions)
                .val("link_replays", p.link_replays)
                .val("replay_drops", p.replay_drops)
                .val("epochs", p.epochs)
                .val("recovery_cycles", p.recovery_cycles)
                .fixed("avg_latency", p.avg_latency, 4)
                .val("digest", p.digest)
                .val("cycles", p.cycles)
        });
        Obj::new()
            .str("mode", &c.mode)
            .val("failed_points", c.failed_points)
            .val("points", rows(4, points))
    });
    Obj::document(RESILIENCE_SCHEMA)
        .val("axis_points", fig.axis.len())
        .val("curves", rows(2, curves))
        .finish()
}

/// The subset of a resilience file the parser recovers.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResilience {
    /// `(mode, mtbf, availability, delivered fraction, recovery_cycles)`
    /// per point record, in file order.
    pub points: Vec<(String, u64, f64, f64, u64)>,
}

/// Parse the `noc-eval/resilience/v1` schema. Any structural problem
/// returns an error string, never a panic.
pub fn parse_resilience_json(text: &str) -> Result<ParsedResilience, String> {
    let doc = Record::parse(text)?;
    doc.expect_schema(RESILIENCE_SCHEMA)?;
    let mut points = Vec::new();
    for curve in doc.records("curves")? {
        let mode: String = curve.req("mode")?;
        for p in curve.req::<Vec<Record<'_>>>("points")? {
            let (num, den): (u64, u64) = (p.req("delivered_num")?, p.req("delivered_den")?);
            let delivered = if den == 0 { 1.0 } else { num as f64 / den as f64 };
            let (mtbf, avail, recovery) =
                (p.req("mtbf")?, p.req("availability")?, p.req("recovery_cycles")?);
            points.push((mode.clone(), mtbf, avail, delivered, recovery));
        }
    }
    if points.is_empty() {
        return Err("schema header found but no point records parsed".into());
    }
    Ok(ParsedResilience { points })
}

/// Parse and check plausibility: availability and delivered fraction
/// must both be probabilities.
pub fn validate_resilience_json(text: &str) -> Result<ParsedResilience, String> {
    let parsed = parse_resilience_json(text)?;
    for (mode, mtbf, avail, delivered, _) in &parsed.points {
        if !(0.0..=1.0).contains(avail) || !(0.0..=1.0).contains(delivered) {
            return Err(format!(
                "implausible point ({mode}, mtbf {mtbf}): availability {avail}, delivered {delivered}"
            ));
        }
    }
    Ok(parsed)
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
            assert_eq!(c.points.len() + c.failed_points, fig.axis.len(), "{}", c.mode);
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

    #[test]
    fn json_round_trips_and_validates() {
        let fig = quick_figure();
        let json = resilience_to_json(&fig);
        assert!(json.contains(RESILIENCE_SCHEMA));
        let parsed = validate_resilience_json(&json).unwrap();
        let expect: usize = fig.curves.iter().map(|c| c.points.len()).sum();
        assert_eq!(parsed.points.len(), expect);
        // modes arrive in figure order with the right point counts
        for c in &fig.curves {
            assert_eq!(parsed.points.iter().filter(|(m, ..)| m == &c.mode).count(), c.points.len());
        }
    }

    #[test]
    fn foreign_or_corrupt_json_degrades_without_panicking() {
        assert!(parse_resilience_json("{}").is_err());
        assert!(parse_resilience_json("{\"schema\": \"noc-eval/metrics/v1\"}").is_err());
        let hollow = format!("{{\"schema\": \"{RESILIENCE_SCHEMA}\"}}");
        assert!(parse_resilience_json(&hollow).is_err());
        let fig = quick_figure();
        let doctored =
            resilience_to_json(&fig).replacen("\"availability\": 0.", "\"availability\": 7.", 1);
        assert!(validate_resilience_json(&doctored).is_err());
    }
}
