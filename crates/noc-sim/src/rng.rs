//! Deterministic simulation RNG.
//!
//! All stochastic choices in the simulator (traffic destinations,
//! Valiant/ROMM intermediates, Bernoulli injection) draw from a single
//! seeded generator so that a `(config, seed)` pair fully determines a
//! run, cycle for cycle.
//!
//! The generator is defined here, not borrowed from a crate: every
//! pinned digest in the repository (the golden engine digests, each
//! `result_digest`, each WAL record) is a function of its exact values,
//! and `the_stream_is_pinned` below pins those values themselves. Any
//! change to the arithmetic in this file moves every pin.

use std::ops::Range;

/// Seeded simulation RNG: xoshiro256++ over four state words, seeded
/// by SplitMix64. Its exact stream is pinned, not just its statistics.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// A Bernoulli(`p`) trial prepared once for [`SimRng::first_heads`]:
/// the same trial as [`SimRng::chance`]`(p)`, drawing the same stream,
/// with the float convert and compare folded into one integer threshold
/// on the raw 64-bit draw.
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

/// SplitMix64: expands a 64-bit seed into the generator's state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state
        if s == [0; 4] {
            s = [0x9e37_79b9_7f4a_7c15, 1, 2, 3];
        }
        Self { s }
    }

    /// The next raw 64-bit draw (xoshiro256++).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)`: the high word of one raw draw times
    /// `n` (Lemire's widening multiply, with no rejection step; the bias
    /// is below 2^-64 per draw).
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p`: one raw draw `x` fires iff
    /// `(x >> 11) · 2^-53 < p`. `p <= 0` never fires and `p >= 1` always
    /// does, both without drawing; any other `p`, NaN included, draws
    /// one value, and NaN never fires.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
        }
    }

    /// The first index of `range` whose trial of `coin` fires, drawing
    /// once per index in order and stopping at the hit: the same draws
    /// and answer as a `chance` loop over the range.
    ///
    /// The scan runs on a local copy of the state with no call in the
    /// loop, so the state stays in registers, and is written back once.
    pub fn first_heads(&mut self, coin: Coin, mut range: Range<usize>) -> Option<usize> {
        let threshold = match coin.0 {
            Face::Never => return None,
            Face::Always => return range.next(),
            Face::Below(threshold) => threshold,
        };
        let mut rng = SimRng { s: self.s };
        let hit = range.find(|_| rng.next_u64() < threshold);
        self.s = rng.s;
        hit
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
        fn first_heads_is_the_first_hit_of_a_chance_loop(
            seed in 0u64..=u64::MAX,
            p in adversarial_p(),
            width in prop_oneof![Just(0usize), Just(1usize), Just(1024usize)],
            start in 0usize..5,
        ) {
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
            let mut range = start..start + width;
            let got = a.first_heads(coin, range.clone());
            let want = range.find(|_| b.chance(p));
            prop_assert_eq!(got, want, "p = {:e}", p);
            // the loop stops at its hit, and a miss makes all `width`
            // chance draws: the states agree either way
            prop_assert_eq!(a.s, b.s, "p = {:e}", p);
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
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SimRng::new(3);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.below(8)] += 1;
        }
        for &b in &buckets {
            assert!((9_000..11_000).contains(&b), "bucket skew: {buckets:?}");
        }
    }

    /// The stream itself, as known answers: per seed, the first four
    /// `below(usize::MAX)` draws (a raw draw `x` reads `x - 1`, or 0 for
    /// `x == 0`), the next four `below(64)` draws, and the next eight
    /// `chance(0.5)` outcomes as bits, the first in bit 0. Every engine
    /// digest follows from these; if this test fails, every pin moves.
    #[test]
    fn the_stream_is_pinned() {
        #[rustfmt::skip]
        const PINS: [(u64, [usize; 4], [usize; 4], u8); 4] = [
            (0x0, [0x53175d61490b23de, 0x61da6f3dc380d506, 0x5c0fdf91ec9a7bfb, 0x02eebf8c3bbe5e19],
                [0x1f, 0x01, 0x36, 0x36], 0xff),
            (0x1, [0xcfc5d07f6f03c29a, 0xbf424132963fe08c, 0x19a37d5757aaf51f, 0xbf08119f05cd56d5],
                [0x0b, 0x25, 0x3f, 0x21], 0xfb),
            (0x0c5eed01, [0x6893f07fa181c6e8, 0x0f0371f33067b62a, 0x5d59b5e575269944, 0x65be050907ea7e0f],
                [0x08, 0x06, 0x25, 0x11], 0x29),
            (u64::MAX, [0x56ccf8ce948e27b1, 0xe68588432e5a5b8f, 0xe3e9b5a48119ca8a, 0x460f19495532ae72],
                [0x29, 0x19, 0x38, 0x1f], 0xe4),
        ];
        for (seed, raw, below64, heads) in PINS {
            let mut r = SimRng::new(seed);
            let got_raw = [(); 4].map(|_| r.below(usize::MAX));
            let got_below64 = [(); 4].map(|_| r.below(64));
            let got_heads = (0..8).fold(0u8, |bits, i| bits | (r.chance(0.5) as u8) << i);
            assert_eq!(got_raw, raw, "seed {seed:#x}");
            assert_eq!(got_below64, below64, "seed {seed:#x}");
            assert_eq!(got_heads, heads, "seed {seed:#x}");
        }
    }
}
