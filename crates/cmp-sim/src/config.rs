//! CMP configuration: the paper's Table II parameters.

use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::ConfigError;
use noc_workloads::{BenchmarkProfile, ClockFreq};

/// Execution-driven CMP simulation configuration.
///
/// Defaults mirror Table II: 16 in-order cores on a 4x4 mesh, 10-cycle
/// shared L2 banks, 300-cycle DRAM, 16-byte links (so a 64-byte line is
/// a 5-flit reply), 8 VCs x 4 buffers, 1-cycle routers, DOR.
/// [`CmpConfig::validate`] owns what a valid point is; `run_cmp` calls
/// it first.
#[derive(Debug, Clone)]
pub struct CmpConfig {
    /// Network configuration (`classes` forced to 2 at run time).
    pub net: NetConfig,
    /// Benchmark statistical profile (Tables III & IV).
    pub profile: BenchmarkProfile,
    /// User instructions per core (scaled down from the paper's runs;
    /// the profile statistics are rates, so scaling preserves shape).
    pub user_instructions: u64,
    /// Core clock, controlling the timer-interrupt cycle interval.
    pub clock: ClockFreq,
    /// Model OS activity (syscall phases + timer interrupts)?
    pub os_model: bool,
    /// Scale factor on the timer interval (use < 1 with scaled-down
    /// instruction budgets to keep interrupt counts representative).
    pub timer_scale: f64,
    /// Instructions executed by each timer-interrupt handler.
    pub timer_handler_instructions: u64,
    /// Fraction of L1 misses that are stores (non-blocking).
    pub store_frac: f64,
    /// Store-buffer/MSHR entries per core.
    pub mshrs: usize,
    /// L2 bank access latency (cycles).
    pub l2_latency: u64,
    /// DRAM access latency added on an L2 miss (cycles).
    pub mem_latency: u64,
    /// Request packet size (flits).
    pub req_flits: u16,
    /// Data reply size (flits): 64-byte line over 16-byte links + header.
    pub reply_flits: u16,
    /// Store acknowledgment size (flits).
    pub ack_flits: u16,
    /// Simulation cycle cap.
    pub max_cycles: u64,
}

impl CmpConfig {
    /// Table II defaults for a given benchmark profile.
    pub fn table2(profile: BenchmarkProfile) -> Self {
        Self {
            net: NetConfig {
                topology: TopologyKind::Mesh2D { k: 4 },
                vcs: 8,
                vc_buf: 4,
                router_delay: 1,
                ..NetConfig::baseline()
            },
            profile,
            user_instructions: 200_000,
            clock: ClockFreq::GHz3,
            os_model: true,
            timer_scale: 0.05,
            timer_handler_instructions: 300,
            store_frac: 0.3,
            mshrs: 8,
            l2_latency: 10,
            mem_latency: 300,
            req_flits: 1,
            reply_flits: 5,
            ack_flits: 1,
            max_cycles: 20_000_000,
        }
    }

    /// Set the router delay (the Fig 14/15 sweep parameter).
    pub fn with_router_delay(mut self, tr: u32) -> Self {
        self.net.router_delay = tr;
        self
    }

    /// Set the core clock.
    pub fn with_clock(mut self, clock: ClockFreq) -> Self {
        self.clock = clock;
        self
    }

    /// Enable/disable the OS model.
    pub fn with_os(mut self, os: bool) -> Self {
        self.os_model = os;
        self
    }

    /// Set the per-core user instruction budget.
    pub fn with_instructions(mut self, n: u64) -> Self {
        self.user_instructions = n;
        self
    }

    /// Average flits injected per L1 miss across loads and stores
    /// (request + reply/ack), used to convert NAR into a per-instruction
    /// miss probability.
    pub fn flits_per_miss(&self) -> f64 {
        let load = (self.req_flits + self.reply_flits) as f64;
        let store = (self.req_flits + self.ack_flits) as f64;
        (1.0 - self.store_frac) * load + self.store_frac * store
    }

    /// Per-instruction L1 miss probability in user mode.
    pub fn miss_prob_user(&self) -> f64 {
        BenchmarkProfile::miss_prob(self.profile.nar_user, self.flits_per_miss())
    }

    /// Per-instruction L1 miss probability in kernel mode.
    pub fn miss_prob_os(&self) -> f64 {
        BenchmarkProfile::miss_prob(self.profile.nar_os, self.flits_per_miss())
    }

    /// Instructions of the startup (thread creation) syscall phase per
    /// core, sized so that startup+finish kernel traffic is the
    /// profile's `os_extra_traffic` fraction of the application traffic.
    pub fn startup_instructions(&self) -> u64 {
        (self.syscall_instructions_total() as f64 * 0.6) as u64
    }

    /// Instructions of the finish (join/teardown) syscall phase per core.
    pub fn finish_instructions(&self) -> u64 {
        (self.syscall_instructions_total() as f64 * 0.4) as u64
    }

    fn syscall_instructions_total(&self) -> u64 {
        // os_extra = (os_instr x nar_os) / (user_instr x nar_user)
        if self.profile.nar_os <= 0.0 {
            return 0;
        }
        (self.profile.os_extra_traffic * self.user_instructions as f64 * self.profile.nar_user
            / self.profile.nar_os) as u64
    }

    /// Cycle interval between timer interrupts for the configured clock.
    pub fn timer_interval(&self) -> u64 {
        self.clock.timer_interval_cycles(self.timer_scale)
    }

    /// Every rule a [`run_cmp`](crate::run_cmp) of `self` must pass,
    /// first error first: a network valid with two message classes
    /// (requests and replies), packets of at least one flit, a
    /// `store_frac` in [0, 1], and, with the OS model on, a finite
    /// positive `timer_scale` whose timer interval exceeds
    /// `timer_handler_instructions`, so cores retire user work between
    /// interrupts.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.net.clone().with_classes(2).validate()?;
        let flits = [
            ("req_flits", self.req_flits),
            ("reply_flits", self.reply_flits),
            ("ack_flits", self.ack_flits),
        ];
        if let Some(&(name, _)) = flits.iter().find(|f| f.1 == 0) {
            let why = "0 flits; packets are at least one flit".into();
            return Err(ConfigError::Parameter { name, why });
        }
        let (name, why) = if !(0.0..=1.0).contains(&self.store_frac) {
            ("store_frac", format!("{} is not a probability in [0, 1]", self.store_frac))
        } else if self.os_model
            && !(self.timer_scale.is_finite()
                && self.timer_scale > 0.0
                && self.timer_interval() > self.timer_handler_instructions)
        {
            let why = format!(
                "{} gives a {}-cycle timer interval, not above the {}-instruction \
                 handler: cores would only service interrupts",
                self.timer_scale,
                self.timer_interval(),
                self.timer_handler_instructions
            );
            ("timer_scale", why)
        } else {
            return Ok(());
        };
        Err(ConfigError::Parameter { name, why })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workloads::all_benchmarks;

    fn cfg() -> CmpConfig {
        CmpConfig::table2(all_benchmarks()[0])
    }

    #[test]
    fn table2_defaults() {
        let c = cfg();
        assert_eq!(c.net.vcs, 8);
        assert_eq!(c.l2_latency, 10);
        assert_eq!(c.mem_latency, 300);
        assert_eq!(c.reply_flits, 5); // 64B line / 16B links + header
        c.net.validate().unwrap();
    }

    #[test]
    fn miss_probs_from_profile() {
        let c = cfg();
        // blackscholes: nar_user 0.024 / flits_per_miss (0.7*6 + 0.3*2 = 4.8)
        assert!((c.flits_per_miss() - 4.8).abs() < 1e-12);
        assert!((c.miss_prob_user() - 0.024 / 4.8).abs() < 1e-12);
        assert!(c.miss_prob_os() > c.miss_prob_user(), "kernel is memory-hungrier");
    }

    #[test]
    fn syscall_budget_matches_extra_traffic_fraction() {
        let c = cfg();
        let os_instr = (c.startup_instructions() + c.finish_instructions()) as f64;
        let os_flits = os_instr * c.profile.nar_os;
        let user_flits = c.user_instructions as f64 * c.profile.nar_user;
        let frac = os_flits / user_flits;
        assert!((frac - c.profile.os_extra_traffic).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn timer_interval_scales_with_clock() {
        let slow = cfg().with_clock(noc_workloads::ClockFreq::MHz75);
        let fast = cfg().with_clock(noc_workloads::ClockFreq::GHz3);
        assert_eq!(fast.timer_interval() / slow.timer_interval(), 40);
    }

    #[test]
    fn hostile_points_are_refused_by_name() {
        let base = cfg();
        let cases = [
            ("req_flits", CmpConfig { req_flits: 0, ..base.clone() }),
            ("reply_flits", CmpConfig { reply_flits: 0, ..base.clone() }),
            ("ack_flits", CmpConfig { ack_flits: 0, ..base.clone() }),
            ("store_frac", CmpConfig { store_frac: f64::NAN, ..base.clone() }),
            ("timer_scale", CmpConfig { timer_scale: 0.0, ..base.clone() }),
            ("timer_scale", CmpConfig { timer_scale: -1.0, ..base.clone() }),
            // a 300-cycle interval at 3 GHz: exactly the handler's length
            ("timer_scale", CmpConfig { timer_scale: 1e-4, ..base.clone() }),
        ];
        for (field, c) in cases {
            match c.validate() {
                Err(ConfigError::Parameter { name, .. }) if name == field => {}
                other => panic!("{field}: {other:?}"),
            }
        }
        // without the OS model no timer fires, so its scale is unused
        assert!(CmpConfig { timer_scale: 0.0, ..cfg().with_os(false) }.validate().is_ok());
        for p in all_benchmarks() {
            for clock in [ClockFreq::GHz3, ClockFreq::MHz75] {
                CmpConfig::table2(p).with_clock(clock).validate().unwrap();
            }
        }
    }

    #[test]
    fn all_profiles_give_valid_probabilities() {
        for p in all_benchmarks() {
            let c = CmpConfig::table2(p);
            assert!((0.0..=1.0).contains(&c.miss_prob_user()), "{}", p.name);
            assert!((0.0..=1.0).contains(&c.miss_prob_os()), "{}", p.name);
            assert!(c.startup_instructions() > 0, "{}", p.name);
        }
    }
}
