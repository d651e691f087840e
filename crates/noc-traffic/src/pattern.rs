//! Spatial traffic patterns: who talks to whom.
//!
//! [`PatternKind`] is the one definition of each pattern: how it draws
//! a destination ([`PatternKind::build`] and [`Pattern::dest`]), the exact distribution of
//! that draw ([`PatternKind::row`]), its wire name (`Display` and
//! [`PatternKind::parse`]) and the topologies it is defined on
//! ([`PatternKind::validate`]). Permutation patterns (transpose, bit
//! complement, ...) follow the standard definitions of Dally & Towles.
//! Patterns that permute node *bits* need a power-of-two node count;
//! coordinate patterns (transpose, tornado, neighbor) need a 2D `k x k`
//! topology and take the per-dimension radix `k`; hotspot needs its
//! node in range and a fraction in `[0, 1]`. `validate` refuses every
//! other pairing, and `dest` assumes it was called.

use std::fmt;

use noc_sim::config::TopologyKind;
use noc_sim::error::ConfigError;
use noc_sim::rng::SimRng;

/// Serializable pattern selector for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternKind {
    /// Uniform random (excluding self).
    Uniform,
    /// Coordinate transpose on a `k x k` layout: `(x, y) -> (y, x)`;
    /// diagonal nodes map to themselves.
    Transpose,
    /// Bit complement: `dst = !src` over `log2(n)` bits.
    BitComplement,
    /// Bit reversal: reverse the `log2(n)` address bits.
    BitReversal,
    /// Perfect shuffle: rotate the address bits left by one.
    Shuffle,
    /// Tornado on a `k x k` layout: each dimension sends almost half-way
    /// around, the worst case for DOR on rings/tori.
    Tornado,
    /// Nearest neighbor: `+1` in each dimension (with wraparound).
    Neighbor,
    /// Hotspot: with probability `frac` traffic targets `node`;
    /// otherwise uniform random.
    Hotspot {
        /// The hot node.
        node: usize,
        /// Fraction of traffic aimed at it.
        frac: f64,
    },
}

/// Wire names of the patterns without parameters; `hotspot:NODE:FRAC`
/// is the one name that carries them.
const NAMES: [(PatternKind, &str); 7] = [
    (PatternKind::Uniform, "uniform"),
    (PatternKind::Transpose, "transpose"),
    (PatternKind::BitComplement, "bitcomp"),
    (PatternKind::BitReversal, "bitrev"),
    (PatternKind::Shuffle, "shuffle"),
    (PatternKind::Tornado, "tornado"),
    (PatternKind::Neighbor, "neighbor"),
];

impl fmt::Display for PatternKind {
    /// The wire name (`uniform`, `transpose`, `bitcomp`, `bitrev`,
    /// `shuffle`, `tornado`, `neighbor`, `hotspot:NODE:FRAC` with `FRAC`
    /// in shortest round-trip form); [`PatternKind::parse`] inverts it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let PatternKind::Hotspot { node, frac } = self {
            return write!(f, "hotspot:{node}:{frac:?}");
        }
        let (_, name) =
            NAMES.iter().find(|(kind, _)| kind == self).expect("every fixed pattern has a name");
        f.write_str(name)
    }
}

impl PatternKind {
    /// The pattern a wire name denotes, if any.
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(rest) = s.strip_prefix("hotspot:") {
            let (node, frac) = rest.split_once(':')?;
            return Some(PatternKind::Hotspot {
                node: node.parse().ok()?,
                frac: frac.parse().ok()?,
            });
        }
        NAMES.iter().find(|(_, name)| *name == s).map(|&(kind, _)| kind)
    }

    /// Refuse a pattern on a topology it is not defined on, naming
    /// `pattern`: coordinate patterns need a 2D `k x k` topology, bit
    /// patterns a power-of-two node count, and hotspot a node below the
    /// node count and a fraction in `[0, 1]`. An invalid topology is
    /// refused first, naming `topology`.
    pub fn validate(&self, topo: &TopologyKind) -> Result<(), ConfigError> {
        topo.validate()?;
        let nodes = topo.num_nodes();
        let why = match *self {
            PatternKind::Transpose | PatternKind::Tornado | PatternKind::Neighbor
                if matches!(topo, TopologyKind::Ring { .. }) =>
            {
                format!("{self} needs a 2D k x k topology, not a ring")
            }
            PatternKind::BitComplement | PatternKind::BitReversal | PatternKind::Shuffle
                if !nodes.is_power_of_two() =>
            {
                format!(
                    "{self} permutes address bits and needs a power-of-two node count, not {nodes}"
                )
            }
            PatternKind::Hotspot { node, .. } if node >= nodes => {
                format!("hot node {node} is not one of the {nodes} nodes")
            }
            PatternKind::Hotspot { frac, .. } if !(0.0..=1.0).contains(&frac) => {
                format!("hotspot fraction {frac} is not in [0, 1]")
            }
            _ => return Ok(()),
        };
        Err(ConfigError::Parameter { name: "pattern", why })
    }

    /// Instantiate for a network of `nodes` nodes arranged `k x k`
    /// (coordinate patterns use `k`; bit patterns use `nodes`).
    pub fn build(&self, nodes: usize, k: usize) -> Pattern {
        Pattern { kind: *self, nodes, k }
    }

    /// True for the fixed permutations, whose `dest` never draws: every
    /// source has exactly one destination.
    pub fn is_permutation(&self) -> bool {
        !matches!(self, PatternKind::Uniform | PatternKind::Hotspot { .. })
    }

    /// The exact distribution of `dest(src)` on `nodes` nodes arranged
    /// `k x k`: sets `row[dst]` to the probability that a packet sourced
    /// at `src` targets `dst`. `row` holds `nodes` zeros on entry.
    pub fn row(&self, src: usize, nodes: usize, k: usize, row: &mut [f64]) {
        let w = 1.0 / (nodes - 1).max(1) as f64;
        match *self {
            // `dest`: with probability `frac` (and src != hot) the hot
            // node, otherwise uniform excluding self
            PatternKind::Hotspot { node: hot, frac } if src != hot => {
                for (dst, p) in row.iter_mut().enumerate() {
                    if dst == hot {
                        *p = frac + (1.0 - frac) * w;
                    } else if dst != src {
                        *p = (1.0 - frac) * w;
                    }
                }
            }
            // uniform, and the hot node itself, which sprays uniformly
            PatternKind::Uniform | PatternKind::Hotspot { .. } => {
                for (dst, p) in row.iter_mut().enumerate() {
                    if dst != src {
                        *p = w;
                    }
                }
            }
            // a fixed permutation ignores the RNG, so one evaluation of
            // its own `dest` is exact
            _ => {
                let dst = Pattern { kind: *self, nodes, k }.dest(src, &mut SimRng::new(0));
                row[dst] = 1.0;
            }
        }
    }
}

/// A [`PatternKind`] instantiated on `nodes` nodes arranged `k x k`:
/// maps a source to a destination, possibly randomly.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    kind: PatternKind,
    nodes: usize,
    k: usize,
}

/// Uniform random destination, excluding self by redrawing (a node
/// never needs the network to talk to itself).
fn uniform(nodes: usize, src: usize, rng: &mut SimRng) -> usize {
    if nodes == 1 {
        return src;
    }
    loop {
        let d = rng.below(nodes);
        if d != src {
            return d;
        }
    }
}

impl Pattern {
    /// Destination for a packet sourced at `src`.
    pub fn dest(&self, src: usize, rng: &mut SimRng) -> usize {
        let (n, k) = (self.nodes, self.k);
        match self.kind {
            PatternKind::Uniform => uniform(n, src, rng),
            PatternKind::Hotspot { node, frac } => {
                if rng.chance(frac) && node != src {
                    node
                } else {
                    uniform(n, src, rng)
                }
            }
            PatternKind::Transpose => {
                let (x, y) = (src % k, src / k);
                x * k + y
            }
            PatternKind::BitComplement => !src & (n - 1),
            PatternKind::BitReversal => {
                let bits = n.trailing_zeros();
                let mut d = 0usize;
                for b in 0..bits {
                    if src & (1 << b) != 0 {
                        d |= 1 << (bits - 1 - b);
                    }
                }
                d
            }
            PatternKind::Shuffle => {
                let bits = n.trailing_zeros();
                let hi = (src >> (bits - 1)) & 1;
                ((src << 1) | hi) & (n - 1)
            }
            PatternKind::Tornado => {
                let shift = k / 2 - if k.is_multiple_of(2) { 1 } else { 0 };
                let (x, y) = (src % k, src / k);
                let dx = (x + shift.max(1)) % k;
                let dy = (y + shift.max(1)) % k;
                dy * k + dx
            }
            PatternKind::Neighbor => {
                let (x, y) = (src % k, src / k);
                ((y + 1) % k) * k + (x + 1) % k
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn uniform_never_self_and_covers_all() {
        let p = PatternKind::Uniform.build(16, 4);
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = p.dest(3, &mut r);
            assert_ne!(d, 3);
            assert!(d < 16);
            seen[d] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn transpose_swaps_coords() {
        let p = PatternKind::Transpose.build(64, 8);
        let mut r = rng();
        // (1, 2) = node 17 -> (2, 1) = node 10
        assert_eq!(p.dest(2 * 8 + 1, &mut r), 8 + 2);
        // diagonal fixed points
        assert_eq!(p.dest(0, &mut r), 0);
        assert_eq!(p.dest(9, &mut r), 9);
        // involution: applying twice is identity
        for s in 0..64 {
            assert_eq!(p.dest(p.dest(s, &mut r), &mut r), s);
        }
    }

    #[test]
    fn bit_complement_is_involution() {
        let p = PatternKind::BitComplement.build(64, 8);
        let mut r = rng();
        assert_eq!(p.dest(0, &mut r), 63);
        for s in 0..64 {
            assert_eq!(p.dest(p.dest(s, &mut r), &mut r), s);
        }
    }

    #[test]
    fn bit_reversal_examples() {
        let p = PatternKind::BitReversal.build(64, 8);
        let mut r = rng();
        assert_eq!(p.dest(0b000001, &mut r), 0b100000);
        assert_eq!(p.dest(0b100110, &mut r), 0b011001);
        for s in 0..64 {
            assert_eq!(p.dest(p.dest(s, &mut r), &mut r), s, "involution");
        }
    }

    #[test]
    fn shuffle_rotates() {
        let p = PatternKind::Shuffle.build(64, 8);
        let mut r = rng();
        assert_eq!(p.dest(0b000001, &mut r), 0b000010);
        assert_eq!(p.dest(0b100000, &mut r), 0b000001);
        // applying log2(n) times is identity
        for s in 0..64 {
            let mut v = s;
            for _ in 0..6 {
                v = p.dest(v, &mut r);
            }
            assert_eq!(v, s);
        }
    }

    #[test]
    fn tornado_half_rotation() {
        let p = PatternKind::Tornado.build(64, 8);
        let mut r = rng();
        // shift = 3 for k = 8
        assert_eq!(p.dest(0, &mut r), 3 * 8 + 3);
        // never self for even k >= 4
        for s in 0..64 {
            assert_ne!(p.dest(s, &mut r), s);
        }
    }

    #[test]
    fn neighbor_is_plus_one() {
        let p = PatternKind::Neighbor.build(16, 4);
        let mut r = rng();
        assert_eq!(p.dest(0, &mut r), 5);
        assert_eq!(p.dest(15, &mut r), 0); // wraps both dims
    }

    #[test]
    fn hotspot_concentrates() {
        let p = PatternKind::Hotspot { node: 7, frac: 0.5 }.build(16, 4);
        let mut r = rng();
        let hits = (0..4000).filter(|_| p.dest(0, &mut r) == 7).count();
        let rate = hits as f64 / 4000.0;
        // 0.5 direct + (0.5 * 1/15) uniform spillover
        assert!((rate - 0.533).abs() < 0.04, "rate = {rate}");
    }

    #[test]
    fn wire_names_round_trip() {
        for (kind, name) in NAMES {
            assert_eq!(kind.to_string(), name);
            assert_eq!(PatternKind::parse(name), Some(kind));
        }
        let hot = PatternKind::Hotspot { node: 5, frac: 0.25 };
        assert_eq!(hot.to_string(), "hotspot:5:0.25");
        assert_eq!(PatternKind::parse("hotspot:5:0.25"), Some(hot));
        for bad in ["", "Uniform", "hotspot", "hotspot:5", "hotspot:x:0.1", "hotspot:5:y"] {
            assert_eq!(PatternKind::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn validate_names_the_pattern() {
        let refused = |p: PatternKind, t: TopologyKind| {
            matches!(p.validate(&t), Err(ConfigError::Parameter { name: "pattern", .. }))
        };
        let (mesh3, mesh4) = (TopologyKind::Mesh2D { k: 3 }, TopologyKind::Mesh2D { k: 4 });
        assert!(refused(PatternKind::Transpose, TopologyKind::Ring { n: 16 }));
        assert!(refused(PatternKind::BitComplement, mesh3));
        assert!(PatternKind::BitComplement.validate(&TopologyKind::Ring { n: 16 }).is_ok());
        assert!(PatternKind::Transpose.validate(&mesh3).is_ok());
        assert!(refused(PatternKind::Hotspot { node: 16, frac: 0.5 }, mesh4));
        assert!(refused(PatternKind::Hotspot { node: 5, frac: f64::NAN }, mesh4));
        assert!(refused(PatternKind::Hotspot { node: 5, frac: f64::INFINITY }, mesh4));
        assert!(PatternKind::Hotspot { node: 15, frac: 1.0 }.validate(&mesh4).is_ok());
        // the topology's own rule comes first, under its own name
        let err = PatternKind::Uniform.validate(&TopologyKind::Mesh2D { k: 1 }).unwrap_err();
        assert!(matches!(err, ConfigError::Parameter { name: "topology", .. }), "{err}");
    }
}
