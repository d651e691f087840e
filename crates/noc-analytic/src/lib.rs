//! Static channel-load analysis for the `noc-sim` core: predict
//! saturation throughput and the latency-load curve *without running a
//! single simulated cycle*, lint configurations for load pathologies,
//! and prune experiment grids down to the points that actually need the
//! simulator.
//!
//! The crate is the second static pass built on `noc-verify`'s public
//! route enumerator ([`noc_verify::routes::enumerate_routes`]): where
//! the verifier turns route walks into channel *dependency* edges, this
//! crate turns the same walks, link by link and without the routing
//! state it never reads, into expected channel *loads*:
//!
//! 1. [`TrafficMatrix`] — the exact per-pair destination probabilities
//!    a spatial pattern induces, read row by row from the pattern's own
//!    exact distribution (`noc_traffic::PatternKind::row`).
//! 2. [`LoadMap`] — matrix-weighted route enumeration: `gamma_c`, the
//!    expected traversals of channel `c` per unit offered load.
//! 3. [`AnalyticModel`] — ideal saturation throughput
//!    `1 / max(gamma)`, zero-load latency, and an M/D/1-style
//!    latency-vs-load curve, with a calibrated flow-control efficiency
//!    factor bridging the capacity bound to what the simulated router
//!    sustains.
//! 4. [`lints`] — static findings (channel overload, load imbalance,
//!    starvation-prone arbitration pairings) through `noc-verify`'s
//!    [`Finding`] machinery.
//! 5. [`sweep_pruned`] — an open-loop load sweep that simulates only
//!    the points within a band of the predicted saturation; everything
//!    else is answered analytically, bit-identically preserving the
//!    simulated points.
//!
//! ```
//! use noc_sim::config::NetConfig;
//! use noc_traffic::{PatternKind, SizeKind};
//!
//! let report = noc_analytic::analyze(
//!     &NetConfig::baseline(),
//!     PatternKind::Uniform,
//!     SizeKind::Fixed(1),
//!     0.2,
//! )
//! .unwrap();
//! assert!(report.model.ideal_saturation > 0.4);
//! assert!(report.findings.is_empty());
//! ```

#![warn(missing_docs)]

mod lints;
mod load;
mod matrix;
mod model;
mod prune;

pub use lints::{lints, IMBALANCE_WARNING};
pub use load::{ChannelLoad, LoadMap};
pub use matrix::TrafficMatrix;
pub use model::{
    AnalyticModel, Confidence, DETERMINISTIC_EFFICIENCY, EJECT_EFFICIENCY, RANDOM_EFFICIENCY,
    WRAP_EFFICIENCY,
};
pub use prune::sweep_pruned;

use noc_sim::config::NetConfig;
use noc_sim::error::ConfigError;
use noc_traffic::{PatternKind, SizeKind};
use noc_verify::Finding;

/// Model plus findings for one analyzed point.
#[derive(Debug, Clone)]
pub struct AnalyticReport {
    /// The performance model.
    pub model: AnalyticModel,
    /// Static lints at the requested operating load.
    pub findings: Vec<Finding>,
}

impl AnalyticReport {
    /// Compact single-line summary, mirroring
    /// `noc_verify::VerifyReport::one_line`.
    pub fn one_line(&self) -> String {
        format!(
            "noc-analytic: {} — theta* = {:.3} (effective {:.3}), T0 = {:.1} cycles, \
             imbalance {:.2}x; {} finding(s)",
            self.model.config_desc,
            self.model.ideal_saturation,
            self.model.effective_saturation,
            self.model.zero_load_latency,
            self.model.loads.imbalance(),
            self.findings.len(),
        )
    }
}

/// Analyze one `(network, pattern, size)` point at operating load
/// `load`: build the model and run the static lints.
pub fn analyze(
    net: &NetConfig,
    pattern: PatternKind,
    size: SizeKind,
    load: f64,
) -> Result<AnalyticReport, ConfigError> {
    let model = AnalyticModel::of(net, pattern, size)?;
    let findings = lints(&model, net, load);
    Ok(AnalyticReport { model, findings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::TopologyKind;

    #[test]
    fn analyze_baseline_is_clean_and_summarizes() {
        let r =
            analyze(&NetConfig::baseline(), PatternKind::Uniform, SizeKind::Fixed(1), 0.2).unwrap();
        assert!(r.findings.is_empty());
        let line = r.one_line();
        assert!(line.contains("theta*"), "{line}");
        assert!(line.contains("T0"), "{line}");
    }

    #[test]
    fn analyze_surfaces_overload() {
        let r = analyze(
            &NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 8 }),
            PatternKind::Uniform,
            SizeKind::Fixed(1),
            0.9,
        )
        .unwrap();
        assert!(r.findings.iter().any(|f| f.check == "channel-overload"));
    }
}
