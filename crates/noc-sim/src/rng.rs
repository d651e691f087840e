//! Deterministic simulation RNG.
//!
//! All stochastic choices in the simulator (traffic destinations,
//! Valiant/ROMM intermediates, Bernoulli injection) draw from a single
//! seeded generator so that a `(config, seed)` pair fully determines a
//! run, cycle for cycle.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seeded simulation RNG. Thin wrapper over [`SmallRng`] exposing only
/// the primitives the simulator needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

/// A Bernoulli(`p`) trial prepared once for [`SimRng::toss`] and
/// [`SimRng::first_heads`]: the same trial as [`SimRng::chance`]`(p)`,
/// drawing the same stream, with the float convert and compare folded
/// into one integer threshold on the raw 64-bit draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coin(Face);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Face {
    /// `p <= 0`: never fires, draws nothing.
    Never,
    /// `p >= 1`: always fires, draws nothing.
    Always,
    /// Draws `x` and fires iff `x` is below the threshold.
    Below(u64),
}

impl Coin {
    /// Prepare the trial `chance(p)` makes.
    ///
    /// `chance` compares `(x >> 11) · 2^-53` with `p`, exactly, so it
    /// fires iff `x >> 11 < ceil(p · 2^53)`, iff `x < ceil(p · 2^53) << 11`.
    /// `p · 2^53` is exact (a power-of-two scale) and below `2^53` for
    /// `p < 1`, so the shift cannot overflow. NaN casts to 0: it draws
    /// and never fires, as `chance(NaN)` does.
    pub fn new(p: f64) -> Coin {
        if p <= 0.0 {
            Coin(Face::Never)
        } else if p >= 1.0 {
            Coin(Face::Always)
        } else {
            let scaled = p * (1u64 << 53) as f64;
            let mut ceil = scaled as u64;
            if (ceil as f64) < scaled {
                ceil += 1;
            }
            Coin(Face::Below(ceil << 11))
        }
    }
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { inner: SmallRng::seed_from_u64(seed) }
    }

    /// Fork an independent stream (for per-component RNGs) by drawing a
    /// fresh seed from this stream.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.inner.gen())
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with probability `p`. `p <= 0` never fires and
    /// `p >= 1` always does, both without drawing; any other `p`,
    /// NaN included, draws one value, and NaN never fires.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// The prepared trial `coin`: the same draws and outcome as
    /// `chance(p)` for the `p` it was prepared from.
    pub fn toss(&mut self, coin: Coin) -> bool {
        match coin.0 {
            Face::Never => false,
            Face::Always => true,
            Face::Below(threshold) => self.inner.next_u64() < threshold,
        }
    }

    /// The first index of `range` whose [`toss`](Self::toss) of `coin`
    /// fires, tossing once per index in order and stopping at the hit:
    /// the same draws and answer as a `chance` loop over the range.
    ///
    /// The scan runs on a local copy of the state with no call in the
    /// loop, so the state stays in registers, and is written back once.
    pub fn first_heads(&mut self, coin: Coin, mut range: Range<usize>) -> Option<usize> {
        let threshold = match coin.0 {
            Face::Never => return None,
            Face::Always => return range.next(),
            Face::Below(threshold) => threshold,
        };
        let mut rng = self.inner.clone();
        let hit = range.find(|_| rng.next_u64() < threshold);
        self.inner = rng;
        hit
    }

    /// Uniform float in `[0,1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.below(1 << 30) == b.below(1 << 30)).count();
        assert!(same < 5);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_rate_is_roughly_p() {
        let mut r = SimRng::new(9);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
    }

    /// Probabilities where a prepared coin could part from `chance`:
    /// the no-draw edges, NaN, the smallest positive values, the largest
    /// value below 1, exact multiples of 2^-53 and their neighbours, and
    /// ordinary uniform values.
    fn adversarial_p() -> impl Strategy<Value = f64> {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let near_grid = move |k: u64, side: u8| match side {
            0 => k as f64 * ulp,
            1 => (k as f64 * ulp).next_up(),
            _ => (k as f64 * ulp).next_down(),
        };
        prop_oneof![
            Just(0.0),
            Just(-0.5),
            Just(1.0),
            Just(1.5),
            Just(f64::NAN),
            Just(5e-324),
            Just(f64::MIN_POSITIVE),
            Just(1.0 - ulp),
            (1u64..1 << 53, 0u8..3).prop_map(move |(k, side)| near_grid(k, side)),
            (1u64..4096, 0u8..3).prop_map(move |(k, side)| near_grid(k, side)),
            0.0f64..1.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
        #[test]
        fn toss_is_chance_bit_for_bit(seed in 0u64..=u64::MAX, p in adversarial_p()) {
            let coin = Coin::new(p);
            // the threshold sits exactly on chance's float boundary,
            // which a random draw lands next to with odds 2^-53
            if let Face::Below(threshold) = coin.0 {
                let unit = |m: u64| m as f64 / (1u64 << 53) as f64;
                let first_miss = threshold >> 11;
                prop_assert!(first_miss == 0 || unit(first_miss - 1) < p, "p = {p:e}");
                prop_assert!(unit(first_miss) >= p || p.is_nan(), "p = {p:e}");
            }
            let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
            for _ in 0..16 {
                prop_assert_eq!(a.toss(coin), b.chance(p), "p = {:e}", p);
            }
            for _ in 0..8 {
                prop_assert_eq!(a.below(1 << 30), b.below(1 << 30), "p = {:e}", p);
            }
        }

        #[test]
        fn first_heads_is_the_first_hit_of_a_chance_loop(
            seed in 0u64..=u64::MAX,
            p in adversarial_p(),
            width in prop_oneof![Just(0usize), Just(1usize), Just(1024usize)],
            start in 0usize..5,
        ) {
            let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
            let mut range = start..start + width;
            let got = a.first_heads(Coin::new(p), range.clone());
            let want = range.find(|_| b.chance(p));
            prop_assert_eq!(got, want, "p = {:e}", p);
            // the loop stops at its hit, and a miss makes all `width`
            // chance draws: the states agree either way
            prop_assert_eq!(&a.inner, &b.inner, "p = {:e}", p);
            for _ in 0..8 {
                prop_assert_eq!(a.below(1 << 30), b.below(1 << 30), "p = {:e}", p);
            }
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
        }
        for _ in 0..1000 {
            let v = r.range(3, 9);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn fork_is_independent_but_deterministic() {
        let mut a = SimRng::new(5);
        let mut b = SimRng::new(5);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..50 {
            assert_eq!(fa.below(100), fb.below(100));
        }
    }
}
