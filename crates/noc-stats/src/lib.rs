//! Statistics substrate for the on-chip network evaluation framework.
//!
//! Everything the measurement harnesses need to summarize simulations:
//! streaming moments ([`OnlineStats`]), fixed-bin [`Histogram`]s,
//! exact [`percentile`]s, [`pearson`] correlation (the paper's headline
//! comparison metric), least-squares [`linear_fit`], and time-series
//! binning ([`TimeSeries`]) for injection-rate-over-time plots (Fig 21).
//!
//! The crate is dependency-light and deterministic: all estimators are
//! exact or numerically stable streaming forms (Welford), never sampled.

pub mod histogram;
pub mod online;
pub mod ratio;
pub mod series;

pub use histogram::Histogram;
pub use online::OnlineStats;
pub use ratio::Ratio;
pub use series::TimeSeries;

/// Pearson product-moment correlation coefficient of two equal-length
/// samples.
///
/// Returns `None` if the slices differ in length, have fewer than two
/// points, or either sample has zero variance (correlation undefined).
///
/// This is the statistic the paper reports for every scatter plot
/// (Figs 5, 8, 15, 19, 22).
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// let r = noc_stats::pearson(&x, &y).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Ordinary least-squares fit `y = a + b x`. Returns `(intercept, slope)`.
///
/// Returns `None` under the same degenerate conditions as [`pearson`]
/// (mismatched lengths, fewer than two points, zero variance in `x`).
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
    }
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    Some((my - slope * mx, slope))
}

/// Exact percentile of a sample by linear interpolation between closest
/// ranks (the "inclusive" / NumPy `linear` definition). `p` is in `[0,100]`.
///
/// Returns `None` on an empty sample; `p` outside `[0,100]` is clamped.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Normalize a slice by its first element, the paper's convention for
/// "runtime normalized to the baseline (`t_r = 1`)" plots.
///
/// Returns an empty vector if the input is empty; panics if the baseline
/// (first element) is zero, because a zero baseline makes every
/// normalized value meaningless rather than merely degenerate.
pub fn normalize_to_first(v: &[f64]) -> Vec<f64> {
    match v.first() {
        None => Vec::new(),
        Some(&b) => {
            assert!(b != 0.0, "cannot normalize to a zero baseline");
            v.iter().map(|x| x / b).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| -0.5 * v + 2.0).collect();
        assert!((pearson(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_is_small() {
        // deterministic "noise": alternate +1/-1 around a constant
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let r = pearson(&x, &y).unwrap();
        assert!(r.abs() < 0.1, "r = {r}");
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None); // zero variance
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v - 4.0).collect();
        let (a, b) = linear_fit(&x, &y).unwrap();
        assert!((a + 4.0).abs() < 1e-9);
        assert!((b - 2.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[9.0], 73.0), Some(9.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 10.0), Some(1.0));
    }

    #[test]
    fn normalize_to_first_works() {
        assert_eq!(normalize_to_first(&[2.0, 4.0, 1.0]), vec![1.0, 2.0, 0.5]);
        assert!(normalize_to_first(&[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn normalize_zero_baseline_panics() {
        normalize_to_first(&[0.0, 1.0]);
    }
}
