//! Property tests on the statistics substrate.

use proptest::prelude::*;

use noc_stats::{linear_fit, pearson, percentile, Histogram, OnlineStats, TimeSeries};

proptest! {
    #[test]
    fn pearson_is_bounded_and_symmetric(
        xy in prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 2..200),
    ) {
        let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
        let y: Vec<f64> = xy.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&x, &y) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
            let r2 = pearson(&y, &x).unwrap();
            prop_assert!((r - r2).abs() < 1e-9, "must be symmetric");
        }
    }

    #[test]
    fn pearson_invariant_under_affine_transform(
        xy in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
        let y: Vec<f64> = xy.iter().map(|p| p.1).collect();
        let xt: Vec<f64> = x.iter().map(|v| a * v + b).collect();
        if let (Some(r1), Some(r2)) = (pearson(&x, &y), pearson(&xt, &y)) {
            prop_assert!((r1 - r2).abs() < 1e-6, "{r1} vs {r2}");
        }
    }

    #[test]
    fn linear_fit_residuals_orthogonal(
        xy in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100),
    ) {
        let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
        let y: Vec<f64> = xy.iter().map(|p| p.1).collect();
        if let Some((a, b)) = linear_fit(&x, &y) {
            // least squares: residuals sum to ~0
            let resid_sum: f64 = x.iter().zip(&y).map(|(&xv, &yv)| yv - (a + b * xv)).sum();
            prop_assert!(resid_sum.abs() < 1e-6 * (y.len() as f64) * 1e3, "sum = {resid_sum}");
        }
    }

    #[test]
    fn percentile_is_monotone_and_bounded(
        mut v in prop::collection::vec(-1e6f64..1e6, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = percentile(&v, lo).unwrap();
        let b = percentile(&v, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        prop_assert!(a >= v[0] - 1e-9 && b <= v[v.len() - 1] + 1e-9);
    }

    #[test]
    fn online_stats_match_two_pass(
        v in prop::collection::vec(-1e4f64..1e4, 1..300),
    ) {
        let mut s = OnlineStats::new();
        for &x in &v {
            s.push(x);
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        prop_assert!((s.mean() - mean).abs() <= 1e-7 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
    }

    #[test]
    fn online_stats_merge_any_split(
        v in prop::collection::vec(-1e4f64..1e4, 2..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((v.len() as f64 * split_frac) as usize).min(v.len());
        let mut whole = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in v.iter().enumerate() {
            whole.push(x);
            if i < split { a.push(x) } else { b.push(x) }
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-7 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-5 * (1.0 + whole.variance()));
    }

    #[test]
    fn histogram_conserves_counts(
        v in prop::collection::vec(-10.0f64..20.0, 0..300),
        bins in 1usize..40,
    ) {
        let mut h = Histogram::new(0.0, 10.0, bins);
        for &x in &v {
            h.push(x);
        }
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), v.len() as u64);
        prop_assert_eq!(h.total(), v.len() as u64);
        // fractions sum to the in-range share
        let frac_sum: f64 = h.fractions().iter().map(|(_, f)| f).sum();
        if !v.is_empty() {
            prop_assert!((frac_sum - binned as f64 / v.len() as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn time_series_total_conserved(
        events in prop::collection::vec((0u64..100_000, 0.0f64..10.0), 0..200),
        width in 1u64..5_000,
    ) {
        let mut ts = TimeSeries::new(width);
        let mut total = 0.0;
        for &(c, w) in &events {
            ts.push(c, w);
            total += w;
        }
        prop_assert!((ts.total() - total).abs() < 1e-9 * (1.0 + total));
        // rates integrate back to the total
        let integrated: f64 = ts.rates().iter().map(|(_, r)| r * width as f64).sum();
        prop_assert!((integrated - total).abs() < 1e-6 * (1.0 + total));
    }
}
