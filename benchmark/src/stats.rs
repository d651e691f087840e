//! Order statistics, run-to-run spread, and the result digest.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the samples at or below it.
/// (`noc_stats::percentile` interpolates between samples; a reported
/// latency here is always one that was measured, and the ten-beyond
/// rule below counts samples past a rank.)
///
/// # Panics
/// On an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile that still has at least ten samples
/// strictly beyond its nearest-rank position — the tail a sample of
/// size `n` can support. `None` below 20 samples (not even the median
/// has ten beyond it).
pub fn supported_tail(n: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&p| {
        let rank = ((p as f64 / 100.0) * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// Sort a sample ascending (times and rates here are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    v
}

/// Median of an unsorted sample (mean of the two middle values when
/// the count is even, as Python's `statistics.median`).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the
/// benchmark's acceptance spread is defined. Needs two or more values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Run-to-run spread as a share of the median: the interquartile
/// distance with four or more runs, the full range with fewer (two
/// runs have no quartiles worth the name).
pub fn relative_spread(v: &[f64]) -> f64 {
    let m = median(v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let width = if v.len() >= 4 {
        let (q1, q3) = quartiles(v);
        q3 - q1
    } else {
        let s = sorted(v.to_vec());
        s[s.len() - 1] - s[0]
    };
    (width / m).abs()
}

/// Slices a lane's unit times are cut into by [`steady_rate`].
const SLICES: usize = 16;

/// Throughput of one closed-loop lane as the host allows it to be seen.
/// This is a shared host: its interference is bursty, lasts seconds,
/// and only ever adds time. The lane's consecutive unit times are cut
/// into about sixteen slices of equal unit count, each slice's rate is
/// its operations over its time, and the **upper-quartile slice rate**
/// (nearest rank) is returned: the rate of the code when the host lets
/// it run. A slice still averages many units, so one freak unit cannot
/// set the answer, and a slowdown of the code itself moves every slice.
/// (Measured here: under heavy interference this statistic's run-to-run
/// spread was 0.5 - 0.8x the median slice rate's on every workload
/// tried; on a calm host the two agree. README, "How steady it is".)
///
/// # Panics
/// On an empty lane.
pub fn steady_rate(unit_s: &[f64], ops_per_unit: f64) -> f64 {
    assert!(!unit_s.is_empty(), "rate of an empty lane");
    let per_slice = unit_s.len().div_ceil(SLICES);
    let rates: Vec<f64> = unit_s
        .chunks_exact(per_slice)
        .map(|slice| per_slice as f64 * ops_per_unit / slice.iter().sum::<f64>())
        .collect();
    percentile(&sorted(rates), 75.0)
}

/// FNV-1a accumulator over the bits of every simulated result a
/// workload produces from its fixed part, so two commits (or a traced
/// and an untraced run) compare simulated behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(noc_sim::network::DIGEST_SEED)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold one float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // nearest rank never interpolates: the answer is a sample
        let odd = [1.0, 2.0, 4.0];
        assert_eq!(percentile(&odd, 50.0), 2.0);
        assert_eq!(percentile(&odd, 67.0), 4.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples sits at rank 90 with exactly ten beyond it
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(99), Some(89));
        assert_eq!(supported_tail(1000), Some(99));
        assert_eq!(supported_tail(20), Some(50));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
        // the rule holds for what it returns and fails one step up
        for n in [37usize, 64, 128, 250] {
            let p = supported_tail(n).unwrap();
            let rank = |p: u32| ((p as f64 / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank(p) >= 10);
            assert!(p == 99 || n - rank(p + 1) < 10);
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        assert_eq!(median(&[8.0, 1.0, 4.0, 2.0]), 3.0);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // fewer than four runs: full range over the median
        assert!((relative_spread(&[10.0, 11.0]) - 1.0 / 10.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[3.0]), 0.0);
    }

    #[test]
    fn steady_rate_sees_through_bursts_but_not_through_a_slower_lane() {
        // 64 units of 10 ms, 8 operations each: 800 ops/s
        let calm = vec![0.010; 64];
        assert!((steady_rate(&calm, 8.0) - 800.0).abs() < 1e-9);
        // interference triples 60 % of the units: operations over wall
        // time drops by more than half, the steadied rate does not move
        let mut noisy = calm.clone();
        noisy[8..46].iter_mut().for_each(|u| *u = 0.030);
        assert!(64.0 * 8.0 / noisy.iter().sum::<f64>() < 400.0);
        assert!((steady_rate(&noisy, 8.0) - 800.0).abs() < 1e-9);
        // a uniformly slower lane is slower
        assert!((steady_rate(&[0.020; 64], 8.0) - 400.0).abs() < 1e-9);
        // one freak unit is averaged inside its slice, it does not set
        // the answer
        let mut freak = calm.clone();
        freak[5] = 0.001;
        assert!(steady_rate(&freak, 8.0) < 1.3 * 800.0);
        // fewer units than slices: every unit is a slice (rates 120,
        // 60, 30: the nearest-rank upper quartile is the fastest)
        assert!((steady_rate(&[0.5, 1.0, 2.0], 60.0) - 120.0).abs() < 1e-9);
        // the ragged tail is dropped, not folded into a short slice
        let mut ragged = vec![0.010; 33];
        ragged[32] = 1e-6;
        assert!((steady_rate(&ragged, 1.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn digest_depends_on_every_bit_and_on_order() {
        let mut a = Digest::default();
        a.u64(1);
        a.f64(0.5);
        let mut b = Digest::default();
        b.f64(0.5);
        b.u64(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.u64(1);
        c.f64(0.5);
        assert_eq!(a, c);
        assert_ne!(a, Digest::default());
    }
}
