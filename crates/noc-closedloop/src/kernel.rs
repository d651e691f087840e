//! OS-activity modeling for the batch model (paper Section V).
//!
//! Two kernel traffic sources with very different scaling:
//! * **syscall/trap traffic** (thread creation, synchronization) is
//!   proportional to the *application*, so it statically inflates the
//!   batch size before simulation;
//! * **periodic timer interrupts** are proportional to *wall-clock
//!   runtime*, so extra "batches" are injected every `1/R_timer` cycles
//!   for as long as the user work is incomplete.

/// Kernel-traffic extension of the batch model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelModel {
    /// Application-dependent additional traffic as a fraction of the
    /// batch size (Table IV "application dependent additional traffic";
    /// e.g. 0.58 for blackscholes): `b_eff = b * (1 + static_frac)`.
    pub static_frac: f64,
    /// Timer interrupt rate in events per cycle (Table IV `R_timer`).
    pub timer_rate: f64,
    /// Requests added to every node's remaining batch per timer event.
    pub timer_packets: u64,
}

impl KernelModel {
    /// No kernel traffic (identity extension).
    pub fn none() -> Self {
        Self { static_frac: 0.0, timer_rate: 0.0, timer_packets: 0 }
    }

    /// Effective static batch size for a base batch `b`.
    pub fn effective_batch(&self, b: u64) -> u64 {
        (b as f64 * (1.0 + self.static_frac)).round() as u64
    }
}

/// Accumulator for timer events: converts a fractional per-cycle rate
/// into discrete event counts.
#[derive(Debug, Clone, Default)]
pub struct TimerAccumulator {
    acc: f64,
}

impl TimerAccumulator {
    /// Advance one cycle at `rate` events/cycle; returns the number of
    /// timer events that fire this cycle (0 almost always, 1 sometimes).
    pub fn tick(&mut self, rate: f64) -> u64 {
        self.acc += rate;
        let fired = self.acc.floor();
        self.acc -= fired;
        fired as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_batch_inflates() {
        let k = KernelModel { static_frac: 0.58, timer_rate: 0.0, timer_packets: 0 };
        assert_eq!(k.effective_batch(1000), 1580);
        assert_eq!(KernelModel::none().effective_batch(1000), 1000);
    }

    #[test]
    fn timer_fires_at_rate() {
        let mut acc = TimerAccumulator::default();
        let rate = 0.0080; // lu's R_timer
        let events: u64 = (0..100_000).map(|_| acc.tick(rate)).sum();
        assert_eq!(events, 800);
    }

    #[test]
    fn timer_zero_never_fires() {
        let mut acc = TimerAccumulator::default();
        assert!((0..1000).all(|_| acc.tick(0.0) == 0));
    }

    #[test]
    fn timer_events_spread_out() {
        let mut acc = TimerAccumulator::default();
        let gaps: Vec<usize> = {
            let mut fires = Vec::new();
            for c in 0..10_000 {
                if acc.tick(0.01) > 0 {
                    fires.push(c);
                }
            }
            fires.windows(2).map(|w| w[1] - w[0]).collect()
        };
        assert!(gaps.iter().all(|&g| g == 100), "period must be 1/rate");
    }
}
