//! Temporal injection processes: when a node generates a packet.

use noc_sim::rng::SimRng;

/// A per-node packet generation process, polled once per cycle.
pub trait InjectionProcess: Send {
    /// Returns true when a packet should be generated this cycle.
    fn fire(&mut self, rng: &mut SimRng) -> bool;

    /// If every [`fire`](Self::fire) call is exactly `rng.chance(p)` for
    /// a fixed `p` — no internal state, no history dependence — return
    /// that `p`. Batched generation sweeps then prepare `p` once as a
    /// [`Coin`](noc_sim::rng::Coin) and find each cycle's firing nodes
    /// with [`SimRng::first_heads`]: one raw draw and one integer compare
    /// per node, in a loop with no call in it, so the RNG state stays in
    /// registers — drawing the *identical* RNG stream that one virtual
    /// `fire` per node would. Processes with memory (burst state,
    /// accumulators) must return `None`.
    fn fixed_bernoulli(&self) -> Option<f64> {
        None
    }
}

/// Bernoulli process: independent per-cycle coin flip — the standard
/// open-loop injection process.
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    /// Packet generation probability per cycle.
    pub p: f64,
}

impl InjectionProcess for Bernoulli {
    fn fire(&mut self, rng: &mut SimRng) -> bool {
        rng.chance(self.p)
    }

    fn fixed_bernoulli(&self) -> Option<f64> {
        Some(self.p)
    }
}

/// Two-state Markov-modulated (on/off) bursty process: in the ON state
/// packets are generated with probability `rate_on` per cycle; state
/// transitions happen with probabilities `p_on_off` / `p_off_on`.
#[derive(Debug, Clone, Copy)]
pub struct OnOff {
    /// Generation probability while ON.
    pub rate_on: f64,
    /// P(ON -> OFF) per cycle.
    pub p_on_off: f64,
    /// P(OFF -> ON) per cycle.
    pub p_off_on: f64,
    on: bool,
}

impl OnOff {
    /// New bursty process, starting OFF.
    pub fn new(rate_on: f64, p_on_off: f64, p_off_on: f64) -> Self {
        Self { rate_on, p_on_off, p_off_on, on: false }
    }

    /// Steady-state fraction of time spent ON.
    pub fn duty_cycle(&self) -> f64 {
        self.p_off_on / (self.p_off_on + self.p_on_off)
    }
}

impl InjectionProcess for OnOff {
    fn fire(&mut self, rng: &mut SimRng) -> bool {
        if self.on {
            if rng.chance(self.p_on_off) {
                self.on = false;
            }
        } else if rng.chance(self.p_off_on) {
            self.on = true;
        }
        self.on && rng.chance(self.rate_on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_rate() {
        let mut p = Bernoulli { p: 0.25 };
        let mut rng = SimRng::new(1);
        let fires = (0..100_000).filter(|_| p.fire(&mut rng)).count();
        let rate = fires as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn onoff_mean_rate_matches_duty_cycle() {
        let mut p = OnOff::new(0.8, 0.02, 0.02); // 50% duty
        assert!((p.duty_cycle() - 0.5).abs() < 1e-12);
        let mut rng = SimRng::new(5);
        let fires = (0..200_000).filter(|_| p.fire(&mut rng)).count();
        let rate = fires as f64 / 200_000.0;
        assert!((rate - 0.4).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn onoff_is_bursty() {
        // long dwell times: consecutive fires should cluster far more than
        // Bernoulli at the same mean rate
        let mut p = OnOff::new(0.9, 0.01, 0.01);
        let mut rng = SimRng::new(7);
        let fires: Vec<bool> = (0..50_000).map(|_| p.fire(&mut rng)).collect();
        let pairs = fires.windows(2).filter(|w| w[0] && w[1]).count();
        let singles = fires.iter().filter(|&&f| f).count();
        let cond = pairs as f64 / singles as f64; // P(fire | fired)
        let marginal = singles as f64 / fires.len() as f64;
        assert!(cond > 1.5 * marginal, "cond = {cond}, marginal = {marginal}");
    }
}
