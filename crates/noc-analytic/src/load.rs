//! Expected channel-load maps: route enumeration (from `noc-verify`)
//! weighted by an exact traffic matrix.

use noc_sim::config::NetConfig;
use noc_sim::routing::RouteState;
use noc_verify::routes::{enumerate_routes, RouteVisitor};

use crate::matrix::TrafficMatrix;

/// One physical channel and its expected load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelLoad {
    /// Upstream router driving the link.
    pub node: usize,
    /// Output port at `node` (1-based, never the local port).
    pub port: usize,
    /// Expected traversals per unit offered load: with every node
    /// injecting `L` flits/cycle, this channel carries `L * load`
    /// flits/cycle against a capacity of 1.
    pub load: f64,
}

/// Expected per-channel load of one `(config, pattern)` combination.
///
/// For channel `c`, `gamma_c = sum over (src, dst) pairs of
/// p(src, dst) * f_c(src, dst)`, where `p` is the traffic matrix and
/// `f_c` the expected number of times a `src -> dst` packet traverses
/// `c` under the configured routing (exact for deterministic and
/// oblivious routing; an equal-split flow approximation for adaptive).
/// Channels are physical links — all VCs of a link share its single
/// flit/cycle of bandwidth, so loads are accumulated per link.
#[derive(Debug, Clone)]
pub struct LoadMap {
    nodes: usize,
    ports: usize,
    gamma: Vec<f64>,
    eject: Vec<f64>,
    total_hops: f64,
    exact: bool,
}

/// Accumulates matrix-weighted route hops into per-link loads.
struct Accumulate<'a> {
    matrix: &'a TrafficMatrix,
    ports: usize,
    gamma: Vec<f64>,
    total_hops: f64,
    /// The current route's weight, `p(src, dst) * route_weight`.
    p: f64,
}

impl<'a> Accumulate<'a> {
    fn new(cfg: &NetConfig, matrix: &'a TrafficMatrix) -> Self {
        let topo = cfg.topology;
        let ports = topo.num_ports();
        let gamma = vec![0.0; topo.num_nodes() * (ports - 1)];
        Self { matrix, ports, gamma, total_hops: 0.0, p: 0.0 }
    }

    fn add(&mut self, node: usize, port: usize, w: f64) {
        self.gamma[node * (self.ports - 1) + (port - 1)] += w;
        self.total_hops += w;
    }
}

impl RouteVisitor for Accumulate<'_> {
    /// Walk every route that carries traffic: a route with `p <= 0`
    /// adds nothing, so it is skipped; a NaN `p` is walked.
    fn route(&mut self, src: usize, dst: usize, weight: f64, _init: RouteState) -> bool {
        self.p = self.matrix.prob(src, dst) * weight;
        self.p > 0.0 || self.p.is_nan()
    }

    fn link(&mut self, node: usize, port: usize) {
        self.add(node, port, self.p);
    }

    fn flow(&mut self, src: usize, dst: usize, weight: f64, node: usize, port: usize) {
        let p = self.matrix.prob(src, dst) * weight;
        if p > 0.0 {
            self.add(node, port, p);
        }
    }
}

impl LoadMap {
    /// Enumerate all routes of `cfg` and accumulate the expected load
    /// each channel sees under `matrix`.
    pub fn build(cfg: &NetConfig, matrix: &TrafficMatrix) -> Self {
        let topo = cfg.topology;
        let mut acc = Accumulate::new(cfg, matrix);
        let e = enumerate_routes(cfg, &mut acc);
        // Ejection (local-port) loads come straight from the matrix:
        // every network-crossing packet to `dst` drains through dst's
        // single 1 flit/cycle ejection channel, which concentrating
        // patterns (hotspot) can saturate long before any router link.
        let n = topo.num_nodes();
        let mut eject = vec![0.0f64; n];
        for src in 0..n {
            for (dst, e) in eject.iter_mut().enumerate() {
                if src != dst {
                    *e += matrix.prob(src, dst);
                }
            }
        }
        Self {
            nodes: n,
            ports: acc.ports,
            gamma: acc.gamma,
            eject,
            total_hops: acc.total_hops,
            exact: e.exact,
        }
    }

    /// Expected load of the channel leaving `node` through `port`.
    pub fn gamma(&self, node: usize, port: usize) -> f64 {
        self.gamma[node * (self.ports - 1) + (port - 1)]
    }

    /// True when the underlying route enumeration was exact (cleared
    /// for adaptive routing's expected-flow approximation).
    pub fn exact(&self) -> bool {
        self.exact
    }

    /// Largest per-channel load over router-to-router links.
    pub fn max(&self) -> f64 {
        self.gamma.iter().cloned().fold(0.0, f64::max)
    }

    /// Expected ejection load of `node`'s local port per unit offered
    /// load.
    pub fn eject(&self, node: usize) -> f64 {
        self.eject[node]
    }

    /// Largest per-node ejection load.
    pub fn max_eject(&self) -> f64 {
        self.eject.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean load over channels that carry any traffic.
    pub fn mean_used(&self) -> f64 {
        let used: Vec<f64> = self.gamma.iter().cloned().filter(|&g| g > 0.0).collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / used.len() as f64
        }
    }

    /// Max/mean load ratio over used channels — the static counterpart
    /// of the simulator's measured `channel_imbalance`.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_used();
        if mean > 0.0 {
            self.max() / mean
        } else {
            0.0
        }
    }

    /// Expected hop count of a random packet (network-entering traffic
    /// contributes its path length; self-traffic contributes zero).
    pub fn avg_hops(&self) -> f64 {
        self.total_hops / self.nodes as f64
    }

    /// The most loaded channel, if any traffic flows at all.
    pub fn hottest(&self) -> Option<ChannelLoad> {
        let (i, &g) = self
            .gamma
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))?;
        (g > 0.0).then(|| self.channel(i, g))
    }

    /// Every channel with nonzero load, unsorted.
    pub fn channels(&self) -> Vec<ChannelLoad> {
        self.gamma
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g > 0.0)
            .map(|(i, &g)| self.channel(i, g))
            .collect()
    }

    /// The channel at index `i` of `gamma`, carrying `load`.
    fn channel(&self, i: usize, load: f64) -> ChannelLoad {
        ChannelLoad { node: i / (self.ports - 1), port: i % (self.ports - 1) + 1, load }
    }

    /// Per-router peak outgoing load, for `k x k` heatmaps (same shape
    /// as the observability layer's measured heatmap).
    pub fn per_router_peak(&self) -> Vec<f64> {
        (0..self.nodes)
            .map(|r| (1..self.ports).map(|p| self.gamma(r, p)).fold(0.0, f64::max))
            .collect()
    }

    /// Sum of per-packet expected waits weighted by traversal counts:
    /// `sum_c (gamma_c / n) * wait(gamma_c)`. Used by the latency model.
    pub(crate) fn expected_wait(&self, wait: impl Fn(f64) -> f64) -> f64 {
        self.gamma.iter().filter(|&&g| g > 0.0).map(|&g| g / self.nodes as f64 * wait(g)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::TopologyKind;
    use noc_traffic::PatternKind;

    fn map(cfg: &NetConfig, pat: PatternKind) -> LoadMap {
        let topo = cfg.topology;
        let m = TrafficMatrix::new(pat, topo.num_nodes(), topo.radix(0));
        LoadMap::build(cfg, &m)
    }

    #[test]
    fn uniform_mesh_bisection_load_matches_closed_form() {
        // 4-ary 2-mesh, DOR, uniform: the central +x channel in a row
        // carries traffic from the 2 sources on its left (same row, x
        // routed first) to the 2 x 4 destinations on its right:
        // 2 * 8 / 15 = 16/15.
        let cfg = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 });
        let lm = map(&cfg, PatternKind::Uniform);
        assert!((lm.max() - 16.0 / 15.0).abs() < 1e-9, "max = {}", lm.max());
        assert!(lm.exact());
    }

    #[test]
    fn avg_hops_matches_topology_average_for_uniform() {
        let cfg = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 });
        let lm = map(&cfg, PatternKind::Uniform);
        // uniform excluding self is exactly the topology's average
        // minimal distance; DOR paths are minimal
        assert!((lm.avg_hops() - cfg.topology.avg_min_hops()).abs() < 1e-9);
    }

    #[test]
    fn neighbor_traffic_is_perfectly_balanced_on_a_torus() {
        let cfg = NetConfig::baseline().with_topology(TopologyKind::Torus2D { k: 4 });
        let lm = map(&cfg, PatternKind::Neighbor);
        // +1 in each dimension with wraparound: every +x and +y channel
        // carries exactly one flow; imbalance over *used* channels is 1
        assert!((lm.imbalance() - 1.0).abs() < 1e-9, "imbalance = {}", lm.imbalance());
        assert!((lm.max() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transpose_under_dor_is_imbalanced() {
        let cfg = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 8 });
        let uni = map(&cfg, PatternKind::Uniform);
        let tp = map(&cfg, PatternKind::Transpose);
        assert!(
            tp.imbalance() > uni.imbalance(),
            "transpose {} <= uniform {}",
            tp.imbalance(),
            uni.imbalance()
        );
    }

    #[test]
    fn adaptive_map_is_flagged_inexact_and_spreads_load() {
        let cfg = NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k: 4 })
            .with_routing(noc_sim::config::RoutingKind::MinAdaptive);
        let lm = map(&cfg, PatternKind::Transpose);
        assert!(!lm.exact());
        let dor = map(
            &NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            PatternKind::Transpose,
        );
        // adaptive routing spreads the transpose hot channels
        assert!(lm.max() <= dor.max() + 1e-9, "{} vs {}", lm.max(), dor.max());
    }

    /// Counts the routes and links the visitor it wraps walks.
    struct Count<'a, V> {
        inner: &'a mut V,
        walked: usize,
        links: usize,
    }

    impl<V: RouteVisitor> RouteVisitor for Count<'_, V> {
        fn route(&mut self, src: usize, dst: usize, weight: f64, init: RouteState) -> bool {
            let walk = self.inner.route(src, dst, weight, init);
            self.walked += walk as usize;
            walk
        }

        fn link(&mut self, node: usize, port: usize) {
            self.links += 1;
            self.inner.link(node, port);
        }
    }

    #[test]
    fn a_permutation_walks_only_its_nonzero_routes() {
        let cfg = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 8 });
        let topo = cfg.topology;
        let m = TrafficMatrix::new(PatternKind::Transpose, 64, 8);
        let mut acc = Accumulate::new(&cfg, &m);
        let mut count = Count { inner: &mut acc, walked: 0, links: 0 };
        let e = enumerate_routes(&cfg, &mut count);
        // every route is offered and counted; only the 56 that carry
        // traffic are walked (the 8 diagonal nodes send to themselves)
        assert_eq!(e.routes, 64 * 63);
        assert_eq!(count.walked, 64 - 8);
        let pairs = (0..64).flat_map(|src| (0..64).map(move |dst| (src, dst)));
        let carried = pairs.filter(|&(src, dst)| src != dst && m.prob(src, dst) > 0.0);
        assert_eq!(count.links, carried.map(|(src, dst)| topo.min_hops(src, dst)).sum::<usize>());
        // and the skipped routes were the ones adding nothing
        let lm = LoadMap::build(&cfg, &m);
        assert_eq!(acc.gamma, lm.gamma);
        assert_eq!(acc.total_hops.to_bits(), lm.total_hops.to_bits());
    }

    #[test]
    fn hottest_and_heatmap_shapes() {
        let cfg = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 });
        let lm = map(&cfg, PatternKind::Uniform);
        let hot = lm.hottest().unwrap();
        assert!((hot.load - lm.max()).abs() < 1e-12);
        assert!((1..=4).contains(&hot.port));
        assert_eq!(lm.per_router_peak().len(), 16);
        assert!(!lm.channels().is_empty());
    }
}
