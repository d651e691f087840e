//! Buffered sample summary: keeps raw samples so exact percentiles and
//! worst-case values (the batch model's key statistic) are available.

use crate::{percentile, OnlineStats};

/// A sample buffer plus derived statistics.
///
/// Unlike [`OnlineStats`], this stores every observation, so use it for
/// per-node quantities (64–256 values), not per-packet quantities.
#[derive(Debug, Clone)]
pub struct Summary {
    samples: Vec<f64>,
}

/// Same as [`Summary::new`]: kept manual (not derived) so the empty
/// state has a single definition, mirroring [`OnlineStats`]'s fix.
impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Self { samples: Vec::new() }
    }

    /// Build from an existing sample vector.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self { samples }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Sample mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        let mut s = OnlineStats::new();
        for &x in &self.samples {
            s.push(x);
        }
        s.mean()
    }

    /// Maximum — the batch model's worst-case runtime statistic.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().cloned().reduce(f64::max)
    }

    /// Minimum.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().cloned().reduce(f64::min)
    }

    /// Exact percentile `p` in `[0,100]`, `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary"));
        percentile(&sorted, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.percentile(50.0), Some(2.0));
    }

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.percentile(50.0), None);
    }

    #[test]
    fn default_matches_new() {
        let mut s = Summary::default();
        assert!(s.is_empty());
        s.push(4.0);
        assert_eq!(s.min(), Some(4.0));
    }

    #[test]
    fn from_samples_roundtrip() {
        let s = Summary::from_samples(vec![5.0, 7.0]);
        assert_eq!(s.samples(), &[5.0, 7.0]);
        assert_eq!(s.mean(), 6.0);
    }
}
