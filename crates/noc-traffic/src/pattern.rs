//! Spatial traffic patterns: who talks to whom.
//!
//! Permutation patterns (transpose, bit complement, ...) follow the
//! standard definitions of Dally & Towles. Patterns that permute node
//! *bits* require a power-of-two node count; coordinate patterns
//! (transpose, tornado, neighbor) require a square 2D layout and take
//! the per-dimension radix `k`.

use noc_sim::rng::SimRng;

/// A spatial traffic pattern: maps a source to a destination, possibly
/// randomly.
pub trait TrafficPattern: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> String;

    /// Destination for a packet sourced at `src`.
    fn dest(&self, src: usize, rng: &mut SimRng) -> usize;

    /// True for deterministic (permutation) patterns.
    fn is_permutation(&self) -> bool {
        true
    }
}

/// Uniform random traffic, excluding self by redrawing (a node never
/// needs the network to talk to itself).
#[derive(Debug, Clone, Copy)]
pub struct UniformRandom {
    /// Node count.
    pub nodes: usize,
}

impl TrafficPattern for UniformRandom {
    fn name(&self) -> String {
        "uniform".into()
    }

    fn dest(&self, src: usize, rng: &mut SimRng) -> usize {
        if self.nodes == 1 {
            return src;
        }
        loop {
            let d = rng.below(self.nodes);
            if d != src {
                return d;
            }
        }
    }

    fn is_permutation(&self) -> bool {
        false
    }
}

/// Coordinate transpose on a `k x k` layout: `(x, y) -> (y, x)`.
/// Diagonal nodes map to themselves.
#[derive(Debug, Clone, Copy)]
pub struct Transpose {
    /// Per-dimension radix.
    pub k: usize,
}

impl TrafficPattern for Transpose {
    fn name(&self) -> String {
        "transpose".into()
    }

    fn dest(&self, src: usize, _rng: &mut SimRng) -> usize {
        let (x, y) = (src % self.k, src / self.k);
        x * self.k + y
    }
}

/// Bit complement: `dst = !src` over `log2(n)` bits.
#[derive(Debug, Clone, Copy)]
pub struct BitComplement {
    /// Node count (must be a power of two).
    pub nodes: usize,
}

impl TrafficPattern for BitComplement {
    fn name(&self) -> String {
        "bitcomp".into()
    }

    fn dest(&self, src: usize, _rng: &mut SimRng) -> usize {
        debug_assert!(self.nodes.is_power_of_two());
        !src & (self.nodes - 1)
    }
}

/// Bit reversal: reverse the `log2(n)` address bits.
#[derive(Debug, Clone, Copy)]
pub struct BitReversal {
    /// Node count (must be a power of two).
    pub nodes: usize,
}

impl TrafficPattern for BitReversal {
    fn name(&self) -> String {
        "bitrev".into()
    }

    fn dest(&self, src: usize, _rng: &mut SimRng) -> usize {
        debug_assert!(self.nodes.is_power_of_two());
        let bits = self.nodes.trailing_zeros();
        let mut d = 0usize;
        for b in 0..bits {
            if src & (1 << b) != 0 {
                d |= 1 << (bits - 1 - b);
            }
        }
        d
    }
}

/// Perfect shuffle: rotate address bits left by one.
#[derive(Debug, Clone, Copy)]
pub struct Shuffle {
    /// Node count (must be a power of two).
    pub nodes: usize,
}

impl TrafficPattern for Shuffle {
    fn name(&self) -> String {
        "shuffle".into()
    }

    fn dest(&self, src: usize, _rng: &mut SimRng) -> usize {
        debug_assert!(self.nodes.is_power_of_two());
        let bits = self.nodes.trailing_zeros();
        let hi = (src >> (bits - 1)) & 1;
        ((src << 1) | hi) & (self.nodes - 1)
    }
}

/// Tornado on a `k x k` layout: each dimension sends almost half-way
/// around, the worst case for DOR on rings/tori.
#[derive(Debug, Clone, Copy)]
pub struct Tornado {
    /// Per-dimension radix.
    pub k: usize,
}

impl TrafficPattern for Tornado {
    fn name(&self) -> String {
        "tornado".into()
    }

    fn dest(&self, src: usize, _rng: &mut SimRng) -> usize {
        let shift = self.k / 2 - if self.k.is_multiple_of(2) { 1 } else { 0 };
        let (x, y) = (src % self.k, src / self.k);
        let dx = (x + shift.max(1)) % self.k;
        let dy = (y + shift.max(1)) % self.k;
        dy * self.k + dx
    }
}

/// Nearest neighbor: `+1` in each dimension (with wraparound).
#[derive(Debug, Clone, Copy)]
pub struct Neighbor {
    /// Per-dimension radix.
    pub k: usize,
}

impl TrafficPattern for Neighbor {
    fn name(&self) -> String {
        "neighbor".into()
    }

    fn dest(&self, src: usize, _rng: &mut SimRng) -> usize {
        let (x, y) = (src % self.k, src / self.k);
        ((y + 1) % self.k) * self.k + (x + 1) % self.k
    }
}

/// Hotspot: with probability `frac`, traffic targets `hotspot`;
/// otherwise uniform random.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot {
    /// Node count.
    pub nodes: usize,
    /// The hot node.
    pub hotspot: usize,
    /// Fraction of traffic aimed at the hot node.
    pub frac: f64,
}

impl TrafficPattern for Hotspot {
    fn name(&self) -> String {
        format!("hotspot({}, {:.2})", self.hotspot, self.frac)
    }

    fn dest(&self, src: usize, rng: &mut SimRng) -> usize {
        if rng.chance(self.frac) && self.hotspot != src {
            self.hotspot
        } else {
            UniformRandom { nodes: self.nodes }.dest(src, rng)
        }
    }

    fn is_permutation(&self) -> bool {
        false
    }
}

/// An arbitrary fixed permutation.
#[derive(Debug, Clone)]
pub struct Permutation {
    /// `map[src] = dst`.
    pub map: Vec<usize>,
}

impl TrafficPattern for Permutation {
    fn name(&self) -> String {
        "permutation".into()
    }

    fn dest(&self, src: usize, _rng: &mut SimRng) -> usize {
        self.map[src]
    }
}

/// Serializable pattern selector for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternKind {
    /// Uniform random (excluding self).
    Uniform,
    /// Coordinate transpose.
    Transpose,
    /// Bit complement.
    BitComplement,
    /// Bit reversal.
    BitReversal,
    /// Perfect shuffle.
    Shuffle,
    /// Tornado.
    Tornado,
    /// Nearest neighbor.
    Neighbor,
    /// Hotspot with the given node and fraction.
    Hotspot {
        /// The hot node.
        node: usize,
        /// Fraction of traffic aimed at it.
        frac: f64,
    },
}

impl PatternKind {
    /// Instantiate for a network of `nodes` nodes arranged `k x k`
    /// (coordinate patterns use `k`; bit patterns use `nodes`).
    pub fn build(&self, nodes: usize, k: usize) -> Box<dyn TrafficPattern> {
        match *self {
            PatternKind::Uniform => Box::new(UniformRandom { nodes }),
            PatternKind::Transpose => Box::new(Transpose { k }),
            PatternKind::BitComplement => Box::new(BitComplement { nodes }),
            PatternKind::BitReversal => Box::new(BitReversal { nodes }),
            PatternKind::Shuffle => Box::new(Shuffle { nodes }),
            PatternKind::Tornado => Box::new(Tornado { k }),
            PatternKind::Neighbor => Box::new(Neighbor { k }),
            PatternKind::Hotspot { node, frac } => Box::new(Hotspot { nodes, hotspot: node, frac }),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PatternKind::Uniform => "uniform",
            PatternKind::Transpose => "transpose",
            PatternKind::BitComplement => "bitcomp",
            PatternKind::BitReversal => "bitrev",
            PatternKind::Shuffle => "shuffle",
            PatternKind::Tornado => "tornado",
            PatternKind::Neighbor => "neighbor",
            PatternKind::Hotspot { .. } => "hotspot",
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
        let p = UniformRandom { nodes: 16 };
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
        let p = Transpose { k: 8 };
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
        let p = BitComplement { nodes: 64 };
        let mut r = rng();
        assert_eq!(p.dest(0, &mut r), 63);
        for s in 0..64 {
            assert_eq!(p.dest(p.dest(s, &mut r), &mut r), s);
        }
    }

    #[test]
    fn bit_reversal_examples() {
        let p = BitReversal { nodes: 64 };
        let mut r = rng();
        assert_eq!(p.dest(0b000001, &mut r), 0b100000);
        assert_eq!(p.dest(0b100110, &mut r), 0b011001);
        for s in 0..64 {
            assert_eq!(p.dest(p.dest(s, &mut r), &mut r), s, "involution");
        }
    }

    #[test]
    fn shuffle_rotates() {
        let p = Shuffle { nodes: 64 };
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
        let p = Tornado { k: 8 };
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
        let p = Neighbor { k: 4 };
        let mut r = rng();
        assert_eq!(p.dest(0, &mut r), 5);
        assert_eq!(p.dest(15, &mut r), 0); // wraps both dims
    }

    #[test]
    fn hotspot_concentrates() {
        let p = Hotspot { nodes: 16, hotspot: 7, frac: 0.5 };
        let mut r = rng();
        let hits = (0..4000).filter(|_| p.dest(0, &mut r) == 7).count();
        let rate = hits as f64 / 4000.0;
        // 0.5 direct + (0.5 * 1/15) uniform spillover
        assert!((rate - 0.533).abs() < 0.04, "rate = {rate}");
    }

    #[test]
    fn permutation_map() {
        let p = Permutation { map: vec![2, 0, 1] };
        let mut r = rng();
        assert_eq!(p.dest(0, &mut r), 2);
        assert_eq!(p.dest(2, &mut r), 1);
    }

    #[test]
    fn kind_builds_all() {
        let mut r = rng();
        for kind in [
            PatternKind::Uniform,
            PatternKind::Transpose,
            PatternKind::BitComplement,
            PatternKind::BitReversal,
            PatternKind::Shuffle,
            PatternKind::Tornado,
            PatternKind::Neighbor,
            PatternKind::Hotspot { node: 0, frac: 0.1 },
        ] {
            let p = kind.build(64, 8);
            let d = p.dest(5, &mut r);
            assert!(d < 64, "{} out of range", kind.name());
        }
    }
}
