//! Benchmark profiles: the paper's Tables III and IV.

/// Statistical characterization of one benchmark, as measured by the
/// paper on Simics/GEMS (Tables III and IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Ideal-network cycle count (Table III), for scale reference.
    pub ideal_cycles: u64,
    /// Total flits injected (Table III).
    pub total_flits: u64,
    /// Aggregate network access rate under an ideal network (Table III).
    pub nar: f64,
    /// Aggregate L2 miss rate (Table III).
    pub l2_miss: f64,
    /// User-mode NAR (Table IV).
    pub nar_user: f64,
    /// Kernel-mode NAR (Table IV).
    pub nar_os: f64,
    /// User-mode L2 miss rate (Table IV).
    pub l2_miss_user: f64,
    /// Kernel-mode L2 miss rate (Table IV).
    pub l2_miss_os: f64,
    /// Application-dependent additional kernel traffic, as a fraction of
    /// the application traffic (Table IV).
    pub os_extra_traffic: f64,
    /// Timer-interrupt batch rate `R_timer` (Table IV), in
    /// batches/kilocycle at the 75 MHz reference clock.
    pub r_timer: f64,
}

impl BenchmarkProfile {
    /// L1-miss probability per instruction implied by a NAR, assuming
    /// each miss injects `flits_per_miss` flits network-wide (request at
    /// the requester plus reply at the home node).
    pub fn miss_prob(nar: f64, flits_per_miss: f64) -> f64 {
        (nar / flits_per_miss).clamp(0.0, 1.0)
    }
}

/// Reference core clock for OS timer modeling (Fig 20/21/22): the Simics
/// Serengeti default 75 MHz versus a modern 3 GHz core. The timer tick
/// frequency is fixed in wall-clock time, so the *cycle* interval between
/// interrupts scales with the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockFreq {
    /// 75 MHz (Simics Serengeti default): timer interrupts every ~75k
    /// cycles at a 1 kHz tick.
    MHz75,
    /// 3 GHz: timer interrupts every ~3M cycles.
    GHz3,
}

impl ClockFreq {
    /// Clock frequency in Hz.
    pub fn hz(&self) -> f64 {
        match self {
            ClockFreq::MHz75 => 75.0e6,
            ClockFreq::GHz3 => 3.0e9,
        }
    }

    /// Cycles between 1 kHz OS timer ticks, scaled by `scale` (use
    /// `scale < 1` when simulating a scaled-down instruction budget so
    /// the interrupt *count* stays representative).
    pub fn timer_interval_cycles(&self, scale: f64) -> u64 {
        ((self.hz() / 1000.0) * scale).max(1.0) as u64
    }

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            ClockFreq::MHz75 => "75 MHz",
            ClockFreq::GHz3 => "3 GHz",
        }
    }
}

/// The five benchmarks of the paper with their measured statistics.
pub fn all_benchmarks() -> [BenchmarkProfile; 5] {
    [
        BenchmarkProfile {
            name: "blackscholes",
            ideal_cycles: 44_228_000,
            total_flits: 39_576_862,
            nar: 0.028,
            l2_miss: 0.006,
            nar_user: 0.024,
            nar_os: 0.266,
            l2_miss_user: 0.004,
            l2_miss_os: 0.013,
            os_extra_traffic: 0.58,
            r_timer: 0.00245,
        },
        BenchmarkProfile {
            name: "lu",
            ideal_cycles: 247_498_080,
            total_flits: 86_601_157,
            nar: 0.011,
            l2_miss: 0.183,
            nar_user: 0.021,
            nar_os: 0.048,
            l2_miss_user: 0.418,
            l2_miss_os: 0.005,
            os_extra_traffic: 0.53,
            r_timer: 0.0080,
        },
        BenchmarkProfile {
            name: "canneal",
            ideal_cycles: 70_915_759,
            total_flits: 90_944_651,
            nar: 0.040,
            l2_miss: 0.207,
            nar_user: 0.038,
            nar_os: 0.126,
            l2_miss_user: 0.274,
            l2_miss_os: 0.029,
            os_extra_traffic: 0.57,
            r_timer: 0.0038,
        },
        BenchmarkProfile {
            name: "fft",
            ideal_cycles: 139_433_783,
            total_flits: 147_472_376,
            nar: 0.033,
            l2_miss: 0.629,
            nar_user: 0.033,
            nar_os: 0.442,
            l2_miss_user: 0.708,
            l2_miss_os: 0.021,
            os_extra_traffic: 0.34,
            r_timer: 0.0056,
        },
        BenchmarkProfile {
            name: "barnes",
            ideal_cycles: 501_330_834,
            total_flits: 753_434_335,
            nar: 0.047,
            l2_miss: 0.019,
            nar_user: 0.055,
            nar_os: 0.063,
            l2_miss_user: 0.011,
            l2_miss_os: 0.017,
            os_extra_traffic: 0.67,
            r_timer: 0.0015,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_benchmarks_present() {
        let b = all_benchmarks();
        let names: Vec<_> = b.iter().map(|p| p.name).collect();
        assert_eq!(names, ["blackscholes", "lu", "canneal", "fft", "barnes"]);
    }

    #[test]
    fn table_iii_nar_consistent_with_counts() {
        // NAR ~= total_flits / (ideal_cycles x 16 cores)... the paper's
        // table III NAR column is flits/cycle/node; check rough agreement
        for p in all_benchmarks() {
            let implied = p.total_flits as f64 / p.ideal_cycles as f64 / 16.0;
            assert!(
                (implied - p.nar).abs() / p.nar < 2.2,
                "{}: implied {implied}, table {}",
                p.name,
                p.nar
            );
        }
    }

    #[test]
    fn rates_are_probabilities() {
        for p in all_benchmarks() {
            for v in [p.nar, p.l2_miss, p.nar_user, p.nar_os, p.l2_miss_user, p.l2_miss_os] {
                assert!((0.0..=1.0).contains(&v), "{}: {v}", p.name);
            }
            assert!(p.os_extra_traffic > 0.0 && p.os_extra_traffic < 1.0);
            assert!(p.r_timer > 0.0 && p.r_timer < 0.1);
        }
    }

    #[test]
    fn miss_prob_conversion() {
        assert_eq!(BenchmarkProfile::miss_prob(0.06, 6.0), 0.01);
        assert_eq!(BenchmarkProfile::miss_prob(12.0, 6.0), 1.0, "clamped");
    }

    #[test]
    fn clock_intervals_scale() {
        assert_eq!(ClockFreq::MHz75.timer_interval_cycles(1.0), 75_000);
        assert_eq!(ClockFreq::GHz3.timer_interval_cycles(1.0), 3_000_000);
        assert_eq!(ClockFreq::MHz75.timer_interval_cycles(0.1), 7_500);
        // the 40x ratio between clocks is what drives Fig 20's contrast
        let r = ClockFreq::GHz3.timer_interval_cycles(1.0) as f64
            / ClockFreq::MHz75.timer_interval_cycles(1.0) as f64;
        assert_eq!(r, 40.0);
    }

    #[test]
    fn lu_is_the_kernel_heavy_one() {
        // the paper singles out lu: kernel traffic > 80% of total at 75MHz,
        // reflected in the highest R_timer
        let b = all_benchmarks();
        let lu = b.iter().find(|p| p.name == "lu").unwrap();
        assert!(b.iter().all(|p| p.r_timer <= lu.r_timer));
    }
}
