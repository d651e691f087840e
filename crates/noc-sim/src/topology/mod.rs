//! Network topologies.
//!
//! [`TopologyKind`] is the topology: its four variants — the paper's
//! k-ary 2-mesh, folded torus and ring, plus an unfolded torus — are
//! k-ary n-cubes with `n <= 2`, and their geometry (ports, coordinates,
//! neighbors, hop counts) is inherent on that `Copy` enum. Every method
//! here assumes [`TopologyKind::validate`] accepted the value: below
//! radix 2 or past [`crate::config::MAX_NODES`] the arithmetic is
//! meaningless or overflows.
//!
//! # Port convention
//!
//! Every router has `1 + 2 * n_dims` ports:
//! * port `0` — the local injection/ejection port (to the NI),
//! * port `1 + 2*d` — dimension `d`, **positive** direction,
//! * port `2 + 2*d` — dimension `d`, **negative** direction.
//!
//! Node ids are row-major with dimension 0 fastest: node `x + k * y` of
//! a `k x k` network sits at `(x, y)`.

use crate::config::TopologyKind;

/// Maximum dimensions supported (a fixed bound keeps coordinates inline).
pub const MAX_DIMS: usize = 4;

/// Inline coordinate vector.
pub type Coords = [usize; MAX_DIMS];

/// The local (injection/ejection) port index.
pub const LOCAL_PORT: usize = 0;

/// Port for dimension `d`, positive direction.
pub fn port_plus(d: usize) -> usize {
    1 + 2 * d
}

/// Port for dimension `d`, negative direction.
pub fn port_minus(d: usize) -> usize {
    2 + 2 * d
}

/// Dimension of a non-local port.
pub fn port_dim(port: usize) -> usize {
    debug_assert!(port >= 1);
    (port - 1) / 2
}

/// True if `port` is the positive direction of its dimension.
pub fn port_is_plus(port: usize) -> bool {
    debug_assert!(port >= 1);
    (port - 1).is_multiple_of(2)
}

impl TopologyKind {
    /// Number of nodes (== routers; concentration is 1 as in the paper).
    pub fn num_nodes(&self) -> usize {
        match *self {
            TopologyKind::Ring { n } => n,
            _ => self.radix(0) * self.radix(1),
        }
    }

    /// Number of dimensions: 1 for the ring, 2 for the `k x k` variants.
    pub fn dims(&self) -> usize {
        match self {
            TopologyKind::Ring { .. } => 1,
            _ => 2,
        }
    }

    /// Ports per router, including the local port 0.
    pub fn num_ports(&self) -> usize {
        1 + 2 * self.dims()
    }

    /// Radix (nodes per dimension) of dimension `d`.
    pub fn radix(&self, d: usize) -> usize {
        debug_assert!(d < self.dims());
        match *self {
            TopologyKind::Mesh2D { k }
            | TopologyKind::FoldedTorus2D { k }
            | TopologyKind::Torus2D { k } => k,
            TopologyKind::Ring { n } => n,
        }
    }

    /// True if the dimensions wrap around (every variant but the mesh),
    /// which needs dateline VCs.
    pub fn has_wrap(&self) -> bool {
        !matches!(self, TopologyKind::Mesh2D { .. })
    }

    /// Whether dimension `d` has wraparound links. A wrap dimension of
    /// radix 2 has coincident +1/-1 neighbors; it still counts as
    /// wrapping for VC (dateline) purposes.
    pub fn wraps(&self, d: usize) -> bool {
        debug_assert!(d < self.dims());
        self.has_wrap()
    }

    /// Propagation delay in cycles of every inter-router link: 2 on the
    /// folded torus, modeling the folded physical layout the paper
    /// assumes ("the folded-torus increases the channel delay"), else 1.
    pub fn link_delay(&self) -> u32 {
        match self {
            TopologyKind::FoldedTorus2D { .. } => 2,
            _ => 1,
        }
    }

    /// Coordinates of `node` (entries beyond [`TopologyKind::dims`] are 0).
    pub fn coords_of(&self, node: usize) -> Coords {
        debug_assert!(node < self.num_nodes());
        // on a ring `node < k`, so the second coordinate is 0
        let k = self.radix(0);
        [node % k, node / k, 0, 0]
    }

    /// Node at the given coordinates (entries beyond
    /// [`TopologyKind::dims`] are ignored).
    pub fn node_at(&self, coords: &Coords) -> usize {
        (0..self.dims()).rev().fold(0, |node, d| {
            debug_assert!(coords[d] < self.radix(d));
            node * self.radix(d) + coords[d]
        })
    }

    /// The router and input port reached from `node` via output `port`,
    /// or `None` if the port is unconnected (mesh edge) or local.
    pub fn neighbor(&self, node: usize, port: usize) -> Option<(usize, usize)> {
        if port == LOCAL_PORT || port >= self.num_ports() {
            return None;
        }
        let d = port_dim(port);
        let k = self.radix(d);
        let c = self.coords_of(node)[d];
        let wrap = self.has_wrap();
        let (nc, in_port) = if port_is_plus(port) {
            if c + 1 < k {
                (c + 1, port_minus(d))
            } else if wrap {
                (0, port_minus(d))
            } else {
                return None;
            }
        } else if c > 0 {
            (c - 1, port_plus(d))
        } else if wrap {
            (k - 1, port_plus(d))
        } else {
            return None;
        };
        let stride = if d == 0 { 1 } else { k };
        Some((node - c * stride + nc * stride, in_port))
    }

    /// Minimal hop count between two nodes.
    pub fn min_hops(&self, a: usize, b: usize) -> usize {
        let (ca, cb) = (self.coords_of(a), self.coords_of(b));
        (0..self.dims())
            .map(|d| {
                let dist = ca[d].abs_diff(cb[d]);
                if self.has_wrap() {
                    dist.min(self.radix(d) - dist)
                } else {
                    dist
                }
            })
            .sum()
    }

    /// Average minimal hop count under uniform traffic (excluding
    /// self-traffic), used for zero-load latency bounds.
    pub fn avg_min_hops(&self) -> f64 {
        let n = self.num_nodes();
        let mut total = 0usize;
        for a in 0..n {
            for b in 0..n {
                total += self.min_hops(a, b);
            }
        }
        total as f64 / (n * (n - 1)) as f64
    }

    /// Human-readable name: `"8x8 mesh"`, `"8x8 torus"`,
    /// `"8x8 folded-torus"` or `"64 ring"`.
    pub fn name(&self) -> String {
        match *self {
            TopologyKind::Mesh2D { k } => format!("{k}x{k} mesh"),
            TopologyKind::Torus2D { k } => format!("{k}x{k} torus"),
            TopologyKind::FoldedTorus2D { k } => format!("{k}x{k} folded-torus"),
            TopologyKind::Ring { n } => format!("{n} ring"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MESH4: TopologyKind = TopologyKind::Mesh2D { k: 4 };
    const TORUS4: TopologyKind = TopologyKind::Torus2D { k: 4 };
    const MESH8: TopologyKind = TopologyKind::Mesh2D { k: 8 };
    const TORUS8: TopologyKind = TopologyKind::Torus2D { k: 8 };

    /// One of each variant, at several radices.
    fn every_kind() -> Vec<TopologyKind> {
        (2..=7)
            .flat_map(|k| {
                [
                    TopologyKind::Mesh2D { k },
                    TopologyKind::Torus2D { k },
                    TopologyKind::FoldedTorus2D { k },
                    TopologyKind::Ring { n: k * k },
                ]
            })
            .collect()
    }

    #[test]
    fn port_helpers_roundtrip() {
        for d in 0..MAX_DIMS {
            assert_eq!(port_dim(port_plus(d)), d);
            assert_eq!(port_dim(port_minus(d)), d);
            assert!(port_is_plus(port_plus(d)));
            assert!(!port_is_plus(port_minus(d)));
        }
    }

    #[test]
    fn port_indices_are_dense() {
        assert_eq!(port_plus(0), 1);
        assert_eq!(port_minus(0), 2);
        assert_eq!(port_plus(1), 3);
        assert_eq!(port_minus(1), 4);
    }

    #[test]
    fn coords_roundtrip() {
        for t in every_kind() {
            for n in 0..t.num_nodes() {
                let c = t.coords_of(n);
                assert_eq!(t.node_at(&c), n, "{t:?}");
                assert!((0..t.dims()).all(|d| c[d] < t.radix(d)), "{t:?} {c:?}");
                assert!(c[t.dims()..].iter().all(|&x| x == 0), "{t:?} {c:?}");
            }
        }
    }

    #[test]
    fn mesh_neighbors() {
        // node 5 = (1,1)
        assert_eq!(MESH4.neighbor(5, port_plus(0)), Some((6, port_minus(0))));
        assert_eq!(MESH4.neighbor(5, port_minus(0)), Some((4, port_plus(0))));
        assert_eq!(MESH4.neighbor(5, port_plus(1)), Some((9, port_minus(1))));
        assert_eq!(MESH4.neighbor(5, port_minus(1)), Some((1, port_plus(1))));
        // corners have no outward links
        assert_eq!(MESH4.neighbor(0, port_minus(0)), None);
        assert_eq!(MESH4.neighbor(0, port_minus(1)), None);
        assert_eq!(MESH4.neighbor(15, port_plus(0)), None);
        assert_eq!(MESH4.neighbor(15, port_plus(1)), None);
        // local port has no neighbor
        assert_eq!(MESH4.neighbor(5, 0), None);
    }

    #[test]
    fn torus_wraps() {
        assert_eq!(TORUS4.neighbor(3, port_plus(0)), Some((0, port_minus(0))));
        assert_eq!(TORUS4.neighbor(0, port_minus(0)), Some((3, port_plus(0))));
        assert_eq!(TORUS4.neighbor(12, port_plus(1)), Some((0, port_minus(1))));
        assert_eq!(TORUS4.neighbor(0, port_minus(1)), Some((12, port_plus(1))));
    }

    #[test]
    fn links_are_reciprocal() {
        for t in every_kind() {
            for n in 0..t.num_nodes() {
                for p in 1..t.num_ports() {
                    if let Some((m, q)) = t.neighbor(n, p) {
                        let back = t.neighbor(m, q).expect("reverse link must exist");
                        assert_eq!(back, (n, p), "{t:?}: reciprocity at node {n} port {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn min_hops_mesh() {
        assert_eq!(MESH8.min_hops(0, 63), 14); // corner to corner
        assert_eq!(MESH8.min_hops(0, 0), 0);
        assert_eq!(MESH8.min_hops(0, 7), 7);
        assert_eq!(MESH8.min_hops(0, 8), 1);
    }

    #[test]
    fn min_hops_torus() {
        assert_eq!(TORUS8.min_hops(0, 63), 2); // corner to corner wraps
        assert_eq!(TORUS8.min_hops(0, 7), 1);
        assert_eq!(TORUS8.min_hops(0, 4), 4); // half way: no shortcut
    }

    #[test]
    fn min_hops_ring() {
        let t = TopologyKind::Ring { n: 8 };
        assert_eq!(t.min_hops(0, 1), 1);
        assert_eq!(t.min_hops(0, 7), 1);
        assert_eq!(t.min_hops(0, 4), 4);
    }

    #[test]
    fn avg_hops_mesh_matches_formula() {
        // For a k-ary 2-mesh under uniform traffic the per-dimension
        // average distance including self is (k^2 - 1) / 3k, so 5.25 for
        // an 8x8 mesh; excluding self scales it by 64/63.
        assert!((MESH8.avg_min_hops() - 5.25 * 64.0 / 63.0).abs() < 1e-12);
    }

    #[test]
    fn avg_hops_torus_less_than_mesh() {
        assert!(TORUS8.avg_min_hops() < MESH8.avg_min_hops());
    }

    #[test]
    fn folded_torus_link_delay() {
        assert_eq!(TopologyKind::FoldedTorus2D { k: 8 }.link_delay(), 2);
        assert_eq!(TORUS8.link_delay(), 1);
        assert_eq!(MESH8.link_delay(), 1);
        assert_eq!(TopologyKind::Ring { n: 8 }.link_delay(), 1);
    }

    #[test]
    fn ring_is_one_dim() {
        let t = TopologyKind::Ring { n: 64 };
        assert_eq!(t.dims(), 1);
        assert_eq!(t.num_ports(), 3);
        assert_eq!(t.num_nodes(), 64);
        assert!(t.wraps(0));
        assert!(t.has_wrap());
    }

    #[test]
    fn only_the_mesh_does_not_wrap() {
        assert!(!MESH8.wraps(0) && !MESH8.wraps(1));
        assert!(!MESH8.has_wrap());
        assert!(TORUS8.has_wrap() && TopologyKind::FoldedTorus2D { k: 8 }.has_wrap());
    }

    #[test]
    fn names_are_pinned() {
        // these strings reach `repro verify`, `explore` and the analytic
        // model's config description
        assert_eq!(MESH8.name(), "8x8 mesh");
        assert_eq!(TORUS8.name(), "8x8 torus");
        assert_eq!(TopologyKind::FoldedTorus2D { k: 8 }.name(), "8x8 folded-torus");
        assert_eq!(TopologyKind::Ring { n: 64 }.name(), "64 ring");
    }
}
