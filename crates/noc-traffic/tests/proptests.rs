//! Property tests on traffic patterns and injection processes.

use proptest::prelude::*;

use noc_sim::rng::SimRng;
use noc_traffic::{Bernoulli, InjectionProcess, PatternKind, SizeKind};

proptest! {
    #[test]
    fn all_patterns_produce_in_range_destinations(
        seed in 0u64..1000,
        src in 0usize..64,
    ) {
        let mut rng = SimRng::new(seed);
        for kind in [
            PatternKind::Uniform,
            PatternKind::Transpose,
            PatternKind::BitComplement,
            PatternKind::BitReversal,
            PatternKind::Shuffle,
            PatternKind::Tornado,
            PatternKind::Neighbor,
            PatternKind::Hotspot { node: 3, frac: 0.3 },
        ] {
            let p = kind.build(64, 8);
            for _ in 0..8 {
                let d = p.dest(src, &mut rng);
                prop_assert!(d < 64, "{kind} produced {d}");
            }
        }
    }

    #[test]
    fn bit_patterns_are_bijections(k_pow in 2u32..5) {
        let n = 1usize << (2 * k_pow); // square power of two
        let mut rng = SimRng::new(0);
        for kind in [
            PatternKind::Transpose,
            PatternKind::BitComplement,
            PatternKind::BitReversal,
            PatternKind::Shuffle,
        ] {
            let p = kind.build(n, 1 << k_pow);
            let mut seen = vec![false; n];
            for s in 0..n {
                let d = p.dest(s, &mut rng);
                prop_assert!(!seen[d], "{kind} not injective at {s}->{d}");
                seen[d] = true;
            }
        }
    }

    #[test]
    fn uniform_never_targets_self(seed in 0u64..500, src in 0usize..64) {
        let p = PatternKind::Uniform.build(64, 8);
        let mut rng = SimRng::new(seed);
        for _ in 0..20 {
            prop_assert_ne!(p.dest(src, &mut rng), src);
        }
    }

    #[test]
    fn bernoulli_rate_concentrates(p in 0.01f64..0.99, seed in 0u64..100) {
        let mut proc = Bernoulli { p };
        let mut rng = SimRng::new(seed);
        let n = 40_000;
        let fires = (0..n).filter(|_| proc.fire(&mut rng)).count() as f64;
        let rate = fires / n as f64;
        // 5-sigma band for a binomial
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        prop_assert!((rate - p).abs() < 5.0 * sigma + 1e-3, "rate {rate} vs p {p}");
    }

    #[test]
    fn size_distributions_respect_support_and_mean(
        short in 1u16..4,
        long in 4u16..12,
        p_long in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let kind = SizeKind::Bimodal { short, long, p_long };
        let d = kind.build();
        let mut rng = SimRng::new(seed);
        let mut sum = 0u64;
        let n = 20_000;
        for _ in 0..n {
            let s = d.draw(&mut rng);
            prop_assert!(s == short || s == long);
            sum += s as u64;
        }
        let mean = sum as f64 / n as f64;
        prop_assert!((mean - kind.mean()).abs() < 0.15 * (long as f64), "{mean} vs {}", kind.mean());
    }
}
