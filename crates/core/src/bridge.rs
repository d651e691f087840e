//! Bridges benchmark profiles (Tables III & IV) into batch-model
//! configurations — the paper's enhanced batch models (Section IV-C, V).

use cmp_sim::CmpConfig;
use noc_closedloop::{BatchConfig, KernelModel, ReplyModel};
use noc_sim::config::NetConfig;
use noc_workloads::{BenchmarkProfile, ClockFreq};

/// Which batch-model extensions to enable (the BA / BA_inj / BA_re /
/// BA_inj+re / +OS variants of Figs 14–22).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchExtension {
    /// Enhanced injection model: gate injection at the benchmark's NAR.
    pub injection: bool,
    /// Enhanced reply model: probabilistic L2/memory latency from the
    /// benchmark's L2 miss rate.
    pub reply: bool,
    /// Kernel model at the given clock (static syscall inflation +
    /// timer batches).
    pub kernel: Option<ClockFreq>,
}

impl BatchExtension {
    /// The plain baseline batch model (BA).
    pub fn plain() -> Self {
        Self { injection: false, reply: false, kernel: None }
    }

    /// BA_inj.
    pub fn inj() -> Self {
        Self { injection: true, reply: false, kernel: None }
    }

    /// BA_re.
    pub fn re() -> Self {
        Self { injection: false, reply: true, kernel: None }
    }

    /// BA_inj+re.
    pub fn inj_re() -> Self {
        Self { injection: true, reply: true, kernel: None }
    }

    /// BA_inj+re with the OS model at `clock`.
    pub fn full(clock: ClockFreq) -> Self {
        Self { injection: true, reply: true, kernel: Some(clock) }
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match (self.injection, self.reply, self.kernel) {
            (false, false, None) => "BA".into(),
            (true, false, None) => "BA_inj".into(),
            (false, true, None) => "BA_re".into(),
            (true, true, None) => "BA_inj+re".into(),
            (i, r, Some(c)) => format!(
                "BA{}{}+os({})",
                if i { "_inj" } else { "" },
                if r { "_re" } else { "" },
                c.label()
            ),
        }
    }
}

/// Build a batch-model configuration that mimics `profile` on the given
/// network, with the chosen extensions (paper Sections IV-C and V).
///
/// * the NAR gate uses the profile's aggregate NAR (Table III), as the
///   paper does for BA_inj;
/// * the reply model uses L2 latency 20 + DRAM 300 at the profile's L2
///   miss rate (the paper's Fig 17(c) parameters);
/// * the kernel model statically inflates the batch by the profile's
///   additional-traffic fraction and adds timer batches at `R_timer`,
///   scaled by the clock ratio (Table IV's rates are 75 MHz-referenced;
///   a 3 GHz core sees 40x fewer interrupts per cycle).
pub fn batch_for_profile(
    net: NetConfig,
    profile: &BenchmarkProfile,
    ext: BatchExtension,
    batch: u64,
    m: usize,
) -> BatchConfig {
    let mut cfg = BatchConfig { net, batch, max_outstanding: m, ..BatchConfig::default() };
    if ext.injection {
        cfg.nar = profile.nar;
    }
    if ext.reply {
        cfg.reply_model = ReplyModel::Probabilistic {
            l2_latency: 20,
            mem_latency: 300,
            mem_frac: profile.l2_miss,
        };
    }
    if let Some(clock) = ext.kernel {
        let clock_scale = ClockFreq::MHz75.hz() / clock.hz();
        cfg.kernel = Some(KernelModel {
            static_frac: profile.os_extra_traffic,
            // Table IV R_timer is batches/kilocycle at 75 MHz
            timer_rate: profile.r_timer * clock_scale,
            timer_packets: 2,
        });
    }
    cfg
}

/// The Table II network configuration used for every batch-vs-GEMS
/// comparison (16-node 4x4 mesh).
pub fn table2_net(tr: u32) -> NetConfig {
    CmpConfig::table2(noc_workloads::all_benchmarks()[0]).net.with_router_delay(tr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workloads::all_benchmarks;

    #[test]
    fn labels() {
        assert_eq!(BatchExtension::plain().label(), "BA");
        assert_eq!(BatchExtension::inj().label(), "BA_inj");
        assert_eq!(BatchExtension::re().label(), "BA_re");
        assert_eq!(BatchExtension::inj_re().label(), "BA_inj+re");
        assert!(BatchExtension::full(ClockFreq::GHz3).label().contains("os"));
    }

    #[test]
    fn plain_extension_is_baseline_batch() {
        let p = all_benchmarks()[0];
        let cfg = batch_for_profile(table2_net(1), &p, BatchExtension::plain(), 100, 4);
        assert_eq!(cfg.nar, 1.0);
        assert_eq!(cfg.reply_model, ReplyModel::Immediate);
        assert!(cfg.kernel.is_none());
        assert_eq!(cfg.batch, 100);
        assert_eq!(cfg.max_outstanding, 4);
    }

    #[test]
    fn extensions_pull_profile_numbers() {
        let p = *all_benchmarks().iter().find(|p| p.name == "fft").unwrap();
        let cfg =
            batch_for_profile(table2_net(2), &p, BatchExtension::full(ClockFreq::MHz75), 100, 4);
        assert_eq!(cfg.nar, 0.033);
        assert_eq!(
            cfg.reply_model,
            ReplyModel::Probabilistic { l2_latency: 20, mem_latency: 300, mem_frac: 0.629 }
        );
        let k = cfg.kernel.unwrap();
        assert_eq!(k.static_frac, 0.34);
        assert!((k.timer_rate - 0.0056).abs() < 1e-12, "75 MHz keeps Table IV rate");
        assert_eq!(cfg.net.router_delay, 2);
    }

    #[test]
    fn faster_clock_scales_timer_down() {
        let p = all_benchmarks()[0];
        let slow =
            batch_for_profile(table2_net(1), &p, BatchExtension::full(ClockFreq::MHz75), 100, 4);
        let fast =
            batch_for_profile(table2_net(1), &p, BatchExtension::full(ClockFreq::GHz3), 100, 4);
        let ratio = slow.kernel.unwrap().timer_rate / fast.kernel.unwrap().timer_rate;
        assert!((ratio - 40.0).abs() < 1e-9);
    }

    #[test]
    fn table2_net_validates() {
        table2_net(1).with_classes(2).validate().unwrap();
        assert_eq!(table2_net(4).router_delay, 4);
    }
}
