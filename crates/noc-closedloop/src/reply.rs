//! Reply-latency models: how long the destination "memory system" takes
//! before injecting the reply (paper Section IV-C2).

use noc_sim::rng::SimRng;

/// Delay between a request's arrival and its reply's injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplyModel {
    /// Reply generated the same cycle (the baseline batch model).
    Immediate,
    /// Fixed latency for every remote access (e.g. an L2 hit).
    Fixed {
        /// Cycles added before the reply is injected.
        latency: u64,
    },
    /// Probabilistic memory hierarchy: every access pays `l2_latency`;
    /// with probability `mem_frac` it also pays `mem_latency` (an L2
    /// miss to DRAM). The paper's Fig 17(c) uses 20 + 10% x 300.
    Probabilistic {
        /// L2 access latency (always paid).
        l2_latency: u64,
        /// Main-memory latency (paid on a miss).
        mem_latency: u64,
        /// L2 miss fraction.
        mem_frac: f64,
    },
}

impl ReplyModel {
    /// Draw the delay for one request.
    pub fn delay(&self, rng: &mut SimRng) -> u64 {
        match *self {
            ReplyModel::Immediate => 0,
            ReplyModel::Fixed { latency } => latency,
            ReplyModel::Probabilistic { l2_latency, mem_latency, mem_frac } => {
                l2_latency + if rng.chance(mem_frac) { mem_latency } else { 0 }
            }
        }
    }

    /// Mean delay in cycles.
    pub fn mean(&self) -> f64 {
        match *self {
            ReplyModel::Immediate => 0.0,
            ReplyModel::Fixed { latency } => latency as f64,
            ReplyModel::Probabilistic { l2_latency, mem_latency, mem_frac } => {
                l2_latency as f64 + mem_frac * mem_latency as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_is_zero() {
        let mut rng = SimRng::new(1);
        assert_eq!(ReplyModel::Immediate.delay(&mut rng), 0);
        assert_eq!(ReplyModel::Immediate.mean(), 0.0);
    }

    #[test]
    fn fixed_is_constant() {
        let mut rng = SimRng::new(1);
        let m = ReplyModel::Fixed { latency: 20 };
        assert!((0..50).all(|_| m.delay(&mut rng) == 20));
        assert_eq!(m.mean(), 20.0);
    }

    #[test]
    fn probabilistic_matches_paper_fig17c() {
        // 20 + 0.1 * 300 = 50 mean
        let m = ReplyModel::Probabilistic { l2_latency: 20, mem_latency: 300, mem_frac: 0.1 };
        assert_eq!(m.mean(), 50.0);
        let mut rng = SimRng::new(2);
        let mut sum = 0u64;
        let n = 100_000;
        for _ in 0..n {
            let d = m.delay(&mut rng);
            assert!(d == 20 || d == 320);
            sum += d;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 50.0).abs() < 2.0, "mean = {mean}");
    }

    #[test]
    fn same_mean_different_distribution() {
        // the paper's point: Fig 17(b) and (c) share a mean of 50 but
        // behave differently under an MSHR cap
        let fixed = ReplyModel::Fixed { latency: 50 };
        let prob = ReplyModel::Probabilistic { l2_latency: 20, mem_latency: 300, mem_frac: 0.1 };
        assert_eq!(fixed.mean(), prob.mean());
    }
}
