//! Fixed-width-bin histograms for latency / runtime distribution plots
//! (paper Fig 11: "% of nodes" vs average latency / runtime).

/// A histogram over `[lo, hi)` with `bins` equal-width bins plus overflow
/// and underflow counters.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// New histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Panics
    /// If `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self { lo, hi, counts: vec![0; bins], underflow: 0, overflow: 0, total: 0 }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            // guard against idx == len from floating-point edge cases
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at/above the upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations pushed (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(bin_center, fraction_of_total)` pairs — the paper's Fig 11 format.
    pub fn fractions(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.lo + (i as f64 + 0.5) * w;
                let frac = if self.total == 0 { 0.0 } else { c as f64 / self.total as f64 };
                (center, frac)
            })
            .collect()
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + i as f64 * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_receive_correct_values() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert_eq!(h.counts(), &[1; 10]);
        assert_eq!(h.total(), 10);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_over_flow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-0.1);
        h.push(1.0); // upper edge is exclusive
        h.push(5.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn boundary_goes_to_lower_bin_edge_rule() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.push(0.0);
        h.push(1.0);
        h.push(3.999999);
        assert_eq!(h.counts(), &[1, 1, 0, 1]);
    }

    #[test]
    fn fractions_sum_to_inrange_share() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for i in 0..8 {
            h.push(i as f64);
        }
        h.push(100.0); // overflow
        let total_frac: f64 = h.fractions().iter().map(|(_, f)| f).sum();
        assert!((total_frac - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 10.0, 5);
        let f = h.fractions();
        assert_eq!(f[0].0, 1.0);
        assert_eq!(f[4].0, 9.0);
        assert_eq!(h.bin_lo(0), 0.0);
        assert_eq!(h.bin_lo(4), 8.0);
    }

    #[test]
    #[should_panic]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        Histogram::new(1.0, 1.0, 4);
    }
}
