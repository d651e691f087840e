//! Analytic grid pruning: use the model to decide which load-sweep
//! points need the simulator at all.

use noc_exp::PrunedGrid;
use noc_openloop::{measure, validate_latency_cap, OpenLoopConfig, OpenLoopResult, SweepPoint};
use noc_sim::error::ConfigError;

use crate::model::{AnalyticModel, Confidence};

/// Run an open-loop load sweep, simulating only points whose verdict
/// the analytic model cannot call: those within `band` (relative) of
/// the predicted saturation throughput. Points clearly below get an
/// analytic stable result; points clearly above get an analytic
/// unstable one. A low-confidence model (adaptive routing) disables
/// pruning entirely and every point is simulated.
///
/// Simulated points are **bit-identical** to a full
/// [`noc_openloop::sweep`] over the same `loads`: each evaluates at its
/// original grid index, so the per-point derived RNG seed is unchanged,
/// and, as in the full sweep, they start in longest-first order of
/// [`OpenLoopConfig::work`].
/// Skipped points are marked in [`PrunedGrid::skipped`] and carry
/// model-synthesized results (zero `measured_packets`, no metrics).
///
/// `latency_cap` follows [`noc_openloop::validate_latency_cap`]; `band`
/// must be non-negative and finite.
pub fn sweep_pruned(
    base: &OpenLoopConfig,
    loads: &[f64],
    latency_cap: f64,
    band: f64,
) -> Result<PrunedGrid<SweepPoint>, ConfigError> {
    validate_latency_cap(latency_cap)?;
    if !(band >= 0.0 && band.is_finite()) {
        let why = format!("pruned sweep needs a non-negative finite band, got {band}");
        return Err(ConfigError::Parameter { name: "band", why });
    }
    let model = AnalyticModel::of(&base.net, base.pattern, base.size)?;
    let sat = model.predicted_saturation(latency_cap);
    let prune = |_i: usize, &load: &f64| -> Option<SweepPoint> {
        if model.confidence == Confidence::Low {
            return None;
        }
        if (load - sat).abs() <= band * sat {
            return None; // too close to the predicted edge: simulate
        }
        Some(SweepPoint { load, result: synthesize(&model, load, sat, latency_cap) })
    };
    let eval = |i: usize, &load: &f64| -> SweepPoint {
        // the ORIGINAL grid index, so the point's seed is the full sweep's
        let result = measure(&base.point(i, load)).expect("sweep point must be a valid config");
        SweepPoint { load, result }
    };
    let work = |&load: &f64| base.clone().with_load(load).work();
    Ok(noc_exp::run_grid_pruned(loads, prune, work, eval))
}

/// Model-synthesized stand-in for a skipped measurement. Fields a
/// static model cannot know (per-node latency, queue decomposition, metrics)
/// are zeroed or absent; `measured_packets == 0` marks the point as
/// analytic.
fn synthesize(model: &AnalyticModel, load: f64, sat: f64, latency_cap: f64) -> OpenLoopResult {
    let stable = load < sat;
    let latency = if stable {
        model.latency_at(load).unwrap_or(latency_cap).min(latency_cap)
    } else {
        latency_cap
    };
    OpenLoopResult {
        offered: load,
        avg_latency: latency,
        max_latency: latency,
        node_avg_latency: Vec::new(),
        worst_node_latency: latency,
        throughput: if stable { load } else { sat },
        latency_ci95: 0.0,
        avg_queue_time: 0.0,
        avg_network_time: latency,
        channel_imbalance: model.loads.imbalance(),
        measured_packets: 0,
        drained: stable,
        stable,
        cycles: 0,
        metrics: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
    use noc_traffic::SizeKind;

    fn base() -> OpenLoopConfig {
        OpenLoopConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            ..OpenLoopConfig::default()
        }
        .quick()
    }

    #[test]
    fn pruned_points_match_full_sweep_bit_for_bit() {
        let loads: Vec<f64> = (1..=8).map(|i| i as f64 * 0.1).collect();
        let full = noc_openloop::sweep(&base(), &loads);
        let pruned = sweep_pruned(&base(), &loads, 300.0, 0.25).unwrap();
        assert!(pruned.skipped_count() > 0, "expected the model to prune something");
        for (i, (p, f)) in pruned.results.iter().zip(&full).enumerate() {
            if pruned.skipped[i] {
                assert_eq!(p.result.measured_packets, 0, "skipped points are analytic");
                continue;
            }
            assert_eq!(
                p.result.avg_latency.to_bits(),
                f.result.avg_latency.to_bits(),
                "load {}",
                p.load
            );
            assert_eq!(p.result.throughput.to_bits(), f.result.throughput.to_bits());
            assert_eq!(p.result.stable, f.result.stable);
            assert_eq!(p.result.cycles, f.result.cycles);
        }
    }

    #[test]
    fn skipped_verdicts_agree_with_the_simulator() {
        let loads: Vec<f64> = (1..=8).map(|i| i as f64 * 0.1).collect();
        let full = noc_openloop::sweep(&base(), &loads);
        let pruned = sweep_pruned(&base(), &loads, 300.0, 0.25).unwrap();
        for (i, p) in pruned.results.iter().enumerate() {
            if pruned.skipped[i] {
                assert_eq!(
                    p.result.stable, full[i].result.stable,
                    "analytic verdict at load {} disagrees with the simulator",
                    p.load
                );
            }
        }
    }

    #[test]
    fn low_confidence_disables_pruning() {
        let mut cfg = base();
        cfg.net = cfg.net.with_routing(RoutingKind::MinAdaptive);
        let loads = [0.05, 0.2, 0.8];
        let pruned = sweep_pruned(&cfg, &loads, 300.0, 0.25).unwrap();
        assert_eq!(pruned.skipped_count(), 0, "adaptive model must simulate everything");
    }

    #[test]
    fn bad_parameters_rejected() {
        let loads = [0.1];
        assert!(sweep_pruned(&base(), &loads, f64::NAN, 0.2).is_err());
        assert!(sweep_pruned(&base(), &loads, 0.0, 0.2).is_err());
        assert!(sweep_pruned(&base(), &loads, 300.0, -0.1).is_err());
        assert!(sweep_pruned(&base(), &loads, 300.0, f64::INFINITY).is_err());
        // a size no point can inject is refused up front, with the error
        // `measure` gives, not simulated until a point's `expect`
        let zero = OpenLoopConfig { size: SizeKind::Fixed(0), ..base() };
        let want = measure(&zero.point(0, 0.1)).map(drop);
        assert!(matches!(want, Err(ConfigError::Parameter { name: "packet_size", .. })));
        assert_eq!(sweep_pruned(&zero, &loads, 300.0, 0.2).map(drop), want);
    }
}
