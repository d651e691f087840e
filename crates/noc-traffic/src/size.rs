//! Packet size distributions (Table I: 1-flit, bimodal 1 & 4 flit).

use noc_sim::error::ConfigError;
use noc_sim::rng::SimRng;

/// A packet length distribution.
pub trait SizeDist: Send + Sync {
    /// Draw a packet length in flits.
    fn draw(&self, rng: &mut SimRng) -> u16;
}

/// Serializable size selector for experiment configs, and the
/// distribution itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeKind {
    /// Every packet the same length in flits.
    Fixed(u16),
    /// Two-point mixture, e.g. the paper's "bimodal (1 flit and 4 flit)"
    /// traffic.
    Bimodal {
        /// Short length.
        short: u16,
        /// Long length.
        long: u16,
        /// Probability of `long`.
        p_long: f64,
    },
}

impl SizeDist for SizeKind {
    fn draw(&self, rng: &mut SimRng) -> u16 {
        match *self {
            SizeKind::Fixed(n) => n,
            SizeKind::Bimodal { short, long, p_long } => {
                if rng.chance(p_long) {
                    long
                } else {
                    short
                }
            }
        }
    }
}

impl SizeKind {
    /// Instantiate the distribution.
    pub fn build(&self) -> Box<dyn SizeDist> {
        Box::new(*self)
    }

    /// Mean packet length in flits (converts flit loads into packet
    /// generation rates).
    pub fn mean(&self) -> f64 {
        match *self {
            SizeKind::Fixed(n) => n as f64,
            SizeKind::Bimodal { short, long, p_long } => {
                p_long * long as f64 + (1.0 - p_long) * short as f64
            }
        }
    }

    /// Refuse sizes the engine cannot inject, naming `packet_size`:
    /// every length is at least one flit, and `p_long` is a probability.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let why = match *self {
            SizeKind::Fixed(0) => "fixed size 0; packets are at least one flit".to_string(),
            SizeKind::Bimodal { short, long, .. } if short == 0 || long == 0 => {
                format!("bimodal lengths {short} and {long}; packets are at least one flit")
            }
            SizeKind::Bimodal { p_long, .. } if !(0.0..=1.0).contains(&p_long) => {
                format!("bimodal p_long {p_long} is not in [0, 1]")
            }
            _ => return Ok(()),
        };
        Err(ConfigError::Parameter { name: "packet_size", why })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = SimRng::new(1);
        let d = SizeKind::Fixed(3);
        assert!((0..100).all(|_| d.draw(&mut rng) == 3));
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.build().draw(&mut rng), 3);
    }

    #[test]
    fn bimodal_mean_and_support() {
        let d = SizeKind::Bimodal { short: 1, long: 4, p_long: 0.5 };
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
    fn zero_flit_and_improbable_sizes_are_refused() {
        let bimodal = |short, long, p_long| SizeKind::Bimodal { short, long, p_long };
        for bad in [
            SizeKind::Fixed(0),
            bimodal(0, 4, 0.5),
            bimodal(1, 0, 0.5),
            bimodal(1, 4, f64::NAN),
            bimodal(1, 4, 1.5),
            bimodal(1, 4, -0.1),
        ] {
            match bad.validate() {
                Err(ConfigError::Parameter { name: "packet_size", .. }) => {}
                other => panic!("{bad:?}: {other:?}"),
            }
        }
        assert!(SizeKind::Fixed(1).validate().is_ok());
        assert!(bimodal(1, 4, 1.0).validate().is_ok());
    }
}
