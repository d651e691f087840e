//! Packet size distributions (Table I: 1-flit, bimodal 1 & 4 flit).

use noc_sim::rng::SimRng;

/// A packet length distribution.
pub trait SizeDist: Send + Sync {
    /// Draw a packet length in flits.
    fn draw(&self, rng: &mut SimRng) -> u16;

    /// Mean packet length in flits (used to convert flit loads into
    /// packet generation rates).
    fn mean(&self) -> f64;
}

/// Every packet has the same length.
#[derive(Debug, Clone, Copy)]
pub struct FixedSize(pub u16);

impl SizeDist for FixedSize {
    fn draw(&self, _rng: &mut SimRng) -> u16 {
        self.0
    }

    fn mean(&self) -> f64 {
        self.0 as f64
    }
}

/// Two-point mixture: the paper's "bimodal (1 flit and 4 flit)" traffic.
#[derive(Debug, Clone, Copy)]
pub struct Bimodal {
    /// Short packet length.
    pub short: u16,
    /// Long packet length.
    pub long: u16,
    /// Probability of drawing `long`.
    pub p_long: f64,
}

impl Bimodal {
    /// The paper's default: 1-flit and 4-flit, even mix.
    pub fn paper_default() -> Self {
        Self { short: 1, long: 4, p_long: 0.5 }
    }
}

impl SizeDist for Bimodal {
    fn draw(&self, rng: &mut SimRng) -> u16 {
        if rng.chance(self.p_long) {
            self.long
        } else {
            self.short
        }
    }

    fn mean(&self) -> f64 {
        self.p_long * self.long as f64 + (1.0 - self.p_long) * self.short as f64
    }
}

/// Serializable size selector for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeKind {
    /// All packets `0` flits long.
    Fixed(u16),
    /// Mixture of short/long.
    Bimodal {
        /// Short length.
        short: u16,
        /// Long length.
        long: u16,
        /// Probability of `long`.
        p_long: f64,
    },
}

impl SizeKind {
    /// Instantiate the distribution.
    pub fn build(&self) -> Box<dyn SizeDist> {
        match *self {
            SizeKind::Fixed(n) => Box::new(FixedSize(n)),
            SizeKind::Bimodal { short, long, p_long } => Box::new(Bimodal { short, long, p_long }),
        }
    }

    /// Mean length in flits (the built distribution's, without
    /// allocating it: admission asks once per point).
    pub fn mean(&self) -> f64 {
        match *self {
            SizeKind::Fixed(n) => FixedSize(n).mean(),
            SizeKind::Bimodal { short, long, p_long } => Bimodal { short, long, p_long }.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = SimRng::new(1);
        let d = FixedSize(3);
        assert!((0..100).all(|_| d.draw(&mut rng) == 3));
        assert_eq!(d.mean(), 3.0);
    }

    #[test]
    fn bimodal_mean_and_support() {
        let d = Bimodal::paper_default();
        assert_eq!(d.mean(), 2.5);
        let mut rng = SimRng::new(2);
        let mut longs = 0;
        for _ in 0..10_000 {
            let s = d.draw(&mut rng);
            assert!(s == 1 || s == 4);
            if s == 4 {
                longs += 1;
            }
        }
        let frac = longs as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn size_kind_builds() {
        assert_eq!(SizeKind::Fixed(1).mean(), 1.0);
        assert_eq!(SizeKind::Bimodal { short: 1, long: 4, p_long: 0.5 }.mean(), 2.5);
        let mut rng = SimRng::new(3);
        assert_eq!(SizeKind::Fixed(2).build().draw(&mut rng), 2);
    }
}
