//! Binned time series, used for injection-rate-over-time plots
//! (paper Fig 21: flits/cycle vs time, split user/kernel).

/// Accumulates event weights into fixed-width time bins.
///
/// A bin's *rate* is its accumulated weight divided by the bin width, so
/// pushing one unit per cycle yields a rate of 1.0 regardless of width.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: u64,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// New series with the given bin width in cycles.
    ///
    /// # Panics
    /// If `bin_width == 0`.
    pub fn new(bin_width: u64) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        Self { bin_width, bins: Vec::new() }
    }

    /// Add `weight` at time `cycle`, growing the series as needed.
    pub fn push(&mut self, cycle: u64, weight: f64) {
        let idx = (cycle / self.bin_width) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += weight;
    }

    /// Bin width in cycles.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Number of bins currently materialized.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// `(bin_start_cycle, rate_per_cycle)` pairs.
    pub fn rates(&self) -> Vec<(u64, f64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u64 * self.bin_width, w / self.bin_width as f64))
            .collect()
    }

    /// Total accumulated weight.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_is_flat() {
        let mut ts = TimeSeries::new(100);
        for c in 0..1000 {
            ts.push(c, 1.0);
        }
        let rates = ts.rates();
        assert_eq!(rates.len(), 10);
        for (_, r) in rates {
            assert!((r - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_events_land_in_right_bin() {
        let mut ts = TimeSeries::new(10);
        ts.push(5, 2.0);
        ts.push(25, 4.0);
        let rates = ts.rates();
        assert_eq!(rates.len(), 3);
        assert_eq!(rates[0], (0, 0.2));
        assert_eq!(rates[1], (10, 0.0));
        assert_eq!(rates[2], (20, 0.4));
        assert_eq!(ts.total(), 6.0);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new(10);
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert!(ts.rates().is_empty());
        assert_eq!(ts.total(), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        TimeSeries::new(0);
    }
}
