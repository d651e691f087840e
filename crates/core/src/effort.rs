//! Experiment scale: every figure runner takes an [`Effort`] so the
//! same code serves fast CI tests and the full reproduction.

/// Simulation budgets for one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Open-loop warmup cycles.
    pub warmup: u64,
    /// Open-loop measurement cycles.
    pub measure: u64,
    /// Open-loop drain cap.
    pub drain: u64,
    /// Batch size `b` for closed-loop runs.
    pub batch: u64,
    /// User instructions per core for execution-driven runs.
    pub instructions: u64,
    /// Number of offered-load points in sweep figures.
    pub sweep_points: usize,
}

impl Effort {
    /// Fast settings for unit/integration tests (seconds).
    pub fn quick() -> Self {
        Self {
            warmup: 1_000,
            measure: 3_000,
            drain: 30_000,
            batch: 200,
            instructions: 15_000,
            sweep_points: 6,
        }
    }

    /// Full reproduction settings (minutes) — matches the paper's
    /// `b = 1000` steady-state convention.
    pub fn paper() -> Self {
        Self {
            warmup: 10_000,
            measure: 30_000,
            drain: 150_000,
            batch: 1_000,
            instructions: 150_000,
            sweep_points: 14,
        }
    }

    /// Parse from a CLI-ish string (`"quick"` or `"paper"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Self::quick()),
            "paper" | "full" => Some(Self::paper()),
            _ => None,
        }
    }

    /// Evenly spaced offered loads up to `max` (exclusive of zero).
    pub fn loads(&self, max: f64) -> Vec<f64> {
        (1..=self.sweep_points).map(|i| max * i as f64 / self.sweep_points as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_known() {
        assert!(Effort::parse("quick").is_some());
        assert!(Effort::parse("paper").is_some());
        assert!(Effort::parse("full").is_some());
        assert!(Effort::parse("bogus").is_none());
    }

    #[test]
    fn loads_are_increasing_positive() {
        let l = Effort::quick().loads(0.48);
        assert_eq!(l.len(), 6);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert!(l[0] > 0.0);
        assert!((l.last().unwrap() - 0.48).abs() < 1e-12);
    }

    #[test]
    fn paper_is_larger_than_quick() {
        let q = Effort::quick();
        let p = Effort::paper();
        assert!(p.batch > q.batch);
        assert!(p.measure > q.measure);
        assert!(p.instructions > q.instructions);
    }
}
