//! The analytic performance model: ideal saturation throughput,
//! zero-load latency, and an M/D/1-style latency-vs-offered-load curve,
//! all derived from the static channel-load map.

use noc_sim::config::NetConfig;
use noc_sim::error::ConfigError;
use noc_traffic::{PatternKind, SizeKind};

use crate::load::LoadMap;
use crate::matrix::TrafficMatrix;

/// How much the model's predictions can be trusted for decisions like
/// grid pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// Exact route enumeration and exact traffic matrix: the channel
    /// loads are the true expectations, only the queueing curve is a
    /// model.
    High,
    /// The route set itself is approximated (adaptive routing's
    /// equal-split expected flow): predictions are indicative only and
    /// must not suppress simulation.
    Low,
}

/// Flow-control efficiency — the fraction of a channel's ideal 1
/// flit/cycle bandwidth the simulated router sustains before latency
/// diverges — for random traffic (uniform, hotspot spillover) on
/// topologies without wraparound links.
///
/// The load map's `1 / max_load` is a *capacity* bound: it assumes
/// perfect flow control. The simulated router loses throughput to
/// finite VC buffers (credit round-trips), switch allocation conflicts,
/// and head-of-line blocking (cf. Dally & Towles' 60-80% rule of thumb
/// for practical routers). All four regime constants below were
/// calibrated once against `noc-openloop`'s bisection search on the
/// baseline buffer configuration (2 VCs x 4 flits, t_r = 1); the
/// cross-validation study in `noc-eval` re-checks them on every CI run.
pub const RANDOM_EFFICIENCY: f64 = 0.79;

/// Flow-control efficiency on topologies with wraparound links: the
/// dateline VC restriction confines packets that cross (or may cross)
/// the wrap to half the VCs, roughly a 0.7x penalty on top of
/// [`RANDOM_EFFICIENCY`] across the torus calibration set.
pub const WRAP_EFFICIENCY: f64 = 0.55;

/// Flow-control efficiency for deterministic streams: a fixed
/// permutation under deterministic (DOR) routing offers each channel a
/// constant-rate flow with no arrival variance, so the hot channel
/// sustains essentially its full bandwidth.
pub const DETERMINISTIC_EFFICIENCY: f64 = 1.0;

/// Efficiency of the ejection (local-port) channel: the final hop is a
/// dedicated drain with no routing contention, so when the ejection
/// channel is the bottleneck (concentrating patterns like hotspot) the
/// measured saturation sits within a percent of its capacity.
pub const EJECT_EFFICIENCY: f64 = 0.99;

/// Static performance model of one `(network, pattern, size)` point.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    /// One-line description of what was modeled.
    pub config_desc: String,
    /// Node count.
    pub nodes: usize,
    /// The expected per-channel load map (per unit offered load).
    pub loads: LoadMap,
    /// Mean packet size in flits.
    pub mean_packet_size: f64,
    /// Router pipeline delay `t_r` in cycles.
    pub router_delay: f64,
    /// Per-hop link delay in cycles (uniform across our topologies).
    pub link_delay: f64,
    /// Zero-load latency `T0`: expected hops times per-hop delay, plus
    /// ejection and serialization.
    pub zero_load_latency: f64,
    /// Ideal saturation throughput `1 / max_channel_load` in
    /// flits/cycle/node (the max runs over router links *and* ejection
    /// channels): no offered load above this is sustainable no matter
    /// how good the router is.
    pub ideal_saturation: f64,
    /// Where the latency curve actually diverges: the tighter of the
    /// efficiency-scaled router-link bound and the ejection bound.
    pub effective_saturation: f64,
    /// The flow-control efficiency regime applied to router links
    /// (one of [`RANDOM_EFFICIENCY`], [`WRAP_EFFICIENCY`],
    /// [`DETERMINISTIC_EFFICIENCY`]).
    pub flow_efficiency: f64,
    /// Trustworthiness of the prediction.
    pub confidence: Confidence,
}

impl AnalyticModel {
    /// Build the model for `net` under `pattern` with packet sizes
    /// drawn from `size`. Fails if the network configuration is
    /// invalid or `pattern` is not defined on its topology.
    pub fn of(net: &NetConfig, pattern: PatternKind, size: SizeKind) -> Result<Self, ConfigError> {
        net.validate()?;
        pattern.validate(&net.topology)?;
        let topo = net.topology.build();
        let matrix = TrafficMatrix::new(pattern, topo.num_nodes(), topo.radix(0));
        let loads = LoadMap::build(net, &*topo, &matrix);
        let s = size.mean();
        let tr = net.router_delay as f64;
        let t_link = topo.link_delay(0, 1) as f64;
        let t0 = loads.avg_hops() * (tr + t_link) + tr + (s - 1.0);
        let gmax = loads.max();
        let gej = loads.max_eject();
        let ideal = match gmax.max(gej) {
            g if g > 0.0 => 1.0 / g,
            _ => f64::INFINITY,
        };
        // Efficiency regime: deterministic streams only arise from a
        // permutation under single-path deterministic routing; wrap
        // links (dateline VCs) dominate everything else.
        let eta = if topo.has_wrap() {
            WRAP_EFFICIENCY
        } else if pattern.is_permutation() && net.routing == noc_sim::config::RoutingKind::Dor {
            DETERMINISTIC_EFFICIENCY
        } else {
            RANDOM_EFFICIENCY
        };
        let sat_net = if gmax > 0.0 { eta / gmax } else { f64::INFINITY };
        let sat_ej = if gej > 0.0 { EJECT_EFFICIENCY / gej } else { f64::INFINITY };
        let confidence = if loads.exact() { Confidence::High } else { Confidence::Low };
        Ok(Self {
            config_desc: format!(
                "{:?}/{:?} {} on {} nodes, mean packet {s} flit(s)",
                net.routing,
                pattern,
                topo.name(),
                topo.num_nodes()
            ),
            nodes: topo.num_nodes(),
            loads,
            mean_packet_size: s,
            router_delay: tr,
            link_delay: t_link,
            zero_load_latency: t0,
            ideal_saturation: ideal,
            effective_saturation: sat_net.min(sat_ej),
            flow_efficiency: eta,
            confidence,
        })
    }

    /// Predicted average packet latency at offered load `load`
    /// (flits/cycle/node), or `None` at or beyond the effective
    /// saturation point where the queueing model diverges.
    ///
    /// Every channel is treated as an M/D/1 queue with deterministic
    /// service of one packet (`mean_packet_size` cycles at 1
    /// flit/cycle) and utilization `rho = load * gamma_c /`
    /// [`Self::flow_efficiency`]; a random packet pays the wait of each
    /// channel it crosses, weighted by its expected traversals.
    pub fn latency_at(&self, load: f64) -> Option<f64> {
        // NaN fails both comparisons, so it falls through to None
        if load.is_nan() || load < 0.0 || load >= self.effective_saturation {
            return None;
        }
        let s = self.mean_packet_size;
        let eta = self.flow_efficiency;
        let wait = |gamma: f64| {
            let rho = (load * gamma / eta).min(1.0 - 1e-9);
            rho * s / (2.0 * (1.0 - rho))
        };
        Some(self.zero_load_latency + self.loads.expected_wait(wait))
    }

    /// The predicted latency-load curve at the given offered loads;
    /// points at or past saturation are omitted.
    pub fn curve(&self, loads: &[f64]) -> Vec<(f64, f64)> {
        loads.iter().filter_map(|&l| self.latency_at(l).map(|lat| (l, lat))).collect()
    }

    /// Predicted saturation throughput: the offered load where the
    /// modeled latency crosses `latency_cap` cycles, never above the
    /// effective capacity bound. Mirrors the simulator-side
    /// `saturation_throughput` definition (stable and below the cap).
    pub fn predicted_saturation(&self, latency_cap: f64) -> f64 {
        let cap_ok = |l: f64| self.latency_at(l).is_some_and(|lat| lat <= latency_cap);
        let mut hi = self.effective_saturation.min(1.0);
        if cap_ok(hi * (1.0 - 1e-6)) {
            return hi;
        }
        let mut lo = 0.0;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if cap_ok(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Per-channel utilization `load * gamma_c` (against unit
    /// capacity), for the overload lint.
    pub fn overloaded_channels(&self, load: f64) -> Vec<crate::load::ChannelLoad> {
        self.loads.channels().into_iter().filter(|c| load * c.load >= 1.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::TopologyKind;

    fn mesh4() -> AnalyticModel {
        AnalyticModel::of(
            &NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            PatternKind::Uniform,
            SizeKind::Fixed(1),
        )
        .unwrap()
    }

    #[test]
    fn zero_load_latency_matches_openloop_bound() {
        let net = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 });
        let m = mesh4();
        // uniform traffic, single-flit packets: T0 is exactly the
        // open-loop harness's analytic bound
        let bound = noc_openloop::zero_load_latency_bound(&net);
        assert!((m.zero_load_latency - bound).abs() < 1e-9, "{} vs {bound}", m.zero_load_latency);
    }

    #[test]
    fn latency_curve_is_monotone_and_diverges() {
        let m = mesh4();
        let t0 = m.latency_at(1e-9).unwrap();
        assert!((t0 - m.zero_load_latency).abs() < 1e-3);
        let mut prev = 0.0;
        for l in [0.1, 0.2, 0.3, 0.4, 0.5] {
            let lat = m.latency_at(l).unwrap();
            assert!(lat > prev, "latency must grow with load");
            prev = lat;
        }
        assert!(m.latency_at(m.effective_saturation).is_none());
        assert!(m.latency_at(-0.1).is_none());
        assert!(m.latency_at(f64::NAN).is_none());
    }

    #[test]
    fn predicted_saturation_is_capped_by_capacity() {
        let m = mesh4();
        let sat = m.predicted_saturation(300.0);
        assert!(sat > 0.0 && sat <= m.effective_saturation + 1e-9, "sat = {sat}");
        // a tighter cap can only lower the prediction
        assert!(m.predicted_saturation(30.0) <= sat + 1e-12);
    }

    #[test]
    fn ideal_saturation_is_inverse_max_load() {
        let m = mesh4();
        assert!((m.ideal_saturation - 15.0 / 16.0).abs() < 1e-9);
        assert_eq!(m.confidence, Confidence::High);
    }

    #[test]
    fn adaptive_model_has_low_confidence() {
        let m = AnalyticModel::of(
            &NetConfig::baseline()
                .with_topology(TopologyKind::Mesh2D { k: 4 })
                .with_routing(noc_sim::config::RoutingKind::MinAdaptive),
            PatternKind::Uniform,
            SizeKind::Fixed(1),
        )
        .unwrap();
        assert_eq!(m.confidence, Confidence::Low);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = NetConfig::baseline().with_vc_buf(0);
        assert!(AnalyticModel::of(&bad, PatternKind::Uniform, SizeKind::Fixed(1)).is_err());
    }
}
