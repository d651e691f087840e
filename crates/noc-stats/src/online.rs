//! Streaming (single-pass) moment estimation via Welford's algorithm.

/// Numerically stable streaming mean/variance/min/max accumulator.
///
/// Used throughout the harnesses for per-packet latency so that million-
/// packet simulations never have to buffer individual samples.
#[derive(Debug, Clone)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// Same as [`OnlineStats::new`]. A derived `Default` would zero-fill
/// `min`/`max`, so an accumulator built via `Default` and pushed only
/// positive samples would report `min = Some(0.0)`.
impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 when empty (harnesses treat an empty window as zero
    /// traffic rather than NaN-poisoning downstream arithmetic).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation, `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Half-width of the 95% confidence interval on the mean (normal
    /// approximation, `1.96 * s / sqrt(n)`); 0 for fewer than two
    /// observations. Used to judge whether a steady-state measurement
    /// window was long enough.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * (self.sample_variance() / self.n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 104729) as f64).collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let (m, v) = naive(&xs);
        assert!((s.mean() - m).abs() < 1e-6 * m.abs());
        assert!((s.variance() - v).abs() < 1e-6 * v.abs());
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min).into());
        assert_eq!(s.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max).into());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 100.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < 123 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn ci95_shrinks_with_n() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for i in 0..20 {
            small.push((i % 5) as f64);
        }
        for i in 0..2000 {
            large.push((i % 5) as f64);
        }
        assert!(small.ci95_half_width() > large.ci95_half_width());
        assert!(large.ci95_half_width() > 0.0);
        let mut one = OnlineStats::new();
        one.push(1.0);
        assert_eq!(one.ci95_half_width(), 0.0);
    }

    #[test]
    fn default_matches_new() {
        // regression: the derived Default zero-filled min/max, so a
        // Default-built accumulator reported min = Some(0.0) after
        // pushing only positive samples
        let mut s = OnlineStats::default();
        s.push(3.0);
        s.push(7.0);
        assert_eq!(s.min(), Some(3.0));
        assert_eq!(s.max(), Some(7.0));
        // and with only negative samples, max must not stick at 0.0
        let mut neg = OnlineStats::default();
        neg.push(-5.0);
        assert_eq!(neg.min(), Some(-5.0));
        assert_eq!(neg.max(), Some(-5.0));
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
        assert_eq!(s.sum(), 42.0);
    }
}
