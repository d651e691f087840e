//! The execution-driven simulation: cores coupled to the NoC (or to an
//! ideal network for NAR measurement).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;
use noc_stats::TimeSeries;

use crate::config::CmpConfig;
use crate::core_model::{Core, MemRequest};

/// Message class of memory requests.
const REQUEST: u8 = 0;
/// Message class of data replies / store acks.
const REPLY: u8 = 1;

const OS_BIT: u64 = 1;
const STORE_BIT: u64 = 2;
const L2MISS_BIT: u64 = 4;

/// Result of an execution-driven run.
#[derive(Debug, Clone)]
pub struct CmpResult {
    /// Cycle the last memory operation completed.
    pub runtime: u64,
    /// Flits injected by user-mode activity.
    pub user_flits: u64,
    /// Flits injected by kernel-mode activity.
    pub kernel_flits: u64,
    /// User-mode injection rate over time (Fig 21).
    pub series_user: TimeSeries,
    /// Kernel-mode injection rate over time (Fig 21).
    pub series_kernel: TimeSeries,
    /// Timer interrupts delivered.
    pub timer_interrupts: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Average injection rate (flits/cycle/node) over the whole run —
    /// when measured with [`run_ideal`], this is the benchmark's NAR.
    pub nar: f64,
    /// Actual traffic matrix (`src * N + dst` packet counts) — Fig 13(b).
    pub traffic_matrix: Option<Vec<u64>>,
    /// True when the run completed before the cycle cap.
    pub drained: bool,
}

impl CmpResult {
    /// Kernel share of total traffic (Fig 20's stacked split).
    pub fn kernel_fraction(&self) -> f64 {
        let total = (self.user_flits + self.kernel_flits) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.kernel_flits as f64 / total
        }
    }
}

/// The CMP as a [`NodeBehavior`] over the NoC.
pub struct CmpBehavior {
    cfg: CmpConfig,
    cores: Vec<Core>,
    /// Per-node RNGs for home-bank (address) selection, independent of
    /// network timing.
    dst_rng: Vec<SimRng>,
    /// Per-bank scheduled replies: `(ready, requester, payload)`.
    banks: Vec<BinaryHeap<Reverse<(Cycle, usize, u64)>>>,
    /// Next cycle each (pipelined) L2 bank can accept a request: banks
    /// issue at most one access per cycle, so hotspot banks queue.
    bank_free: Vec<Cycle>,
    /// Requests produced by core ticks awaiting injection.
    outbox: Vec<VecDeque<PacketSpec>>,
    ticked: Vec<Cycle>,
    last_cycle: Cycle,
    next_timer: u64,
    /// Timer interrupts delivered so far.
    pub timer_interrupts: u64,
    /// User/kernel flit counters.
    pub user_flits: u64,
    /// Kernel flit counter.
    pub kernel_flits: u64,
    /// Injection-rate time series (user).
    pub ts_user: TimeSeries,
    /// Injection-rate time series (kernel).
    pub ts_kernel: TimeSeries,
    /// Cycle of the last completed memory operation.
    pub last_activity: Cycle,
}

impl CmpBehavior {
    /// Build the behavior for `nodes` tiles.
    pub fn new(cfg: &CmpConfig, nodes: usize) -> Self {
        let series_bin = (cfg.user_instructions / 64).max(256);
        let cores = (0..nodes).map(|n| Core::new(cfg, n)).collect();
        Self {
            cores,
            dst_rng: (0..nodes)
                .map(|n| SimRng::new(cfg.net.seed ^ 0xc3a9_51b2 ^ ((n as u64) << 32)))
                .collect(),
            banks: (0..nodes).map(|_| BinaryHeap::new()).collect(),
            bank_free: vec![0; nodes],
            outbox: (0..nodes).map(|_| VecDeque::new()).collect(),
            ticked: vec![Cycle::MAX; nodes],
            last_cycle: Cycle::MAX,
            next_timer: cfg.timer_interval().max(1),
            timer_interrupts: 0,
            user_flits: 0,
            kernel_flits: 0,
            ts_user: TimeSeries::new(series_bin),
            ts_kernel: TimeSeries::new(series_bin),
            last_activity: 0,
            cfg: cfg.clone(),
        }
    }

    fn global_tick(&mut self, cycle: Cycle) {
        if self.last_cycle == cycle {
            return;
        }
        self.last_cycle = cycle;
        if self.cfg.os_model && cycle >= self.next_timer {
            self.next_timer = cycle + self.cfg.timer_interval().max(1);
            let any_active = self.cores.iter().any(|c| !c.done());
            if any_active {
                self.timer_interrupts += 1;
                for core in &mut self.cores {
                    core.timer_interrupt(self.cfg.timer_handler_instructions);
                }
            }
        }
    }

    fn count(&mut self, flits: u64, os: bool, cycle: Cycle) {
        if os {
            self.kernel_flits += flits;
            self.ts_kernel.push(cycle, flits as f64);
        } else {
            self.user_flits += flits;
            self.ts_user.push(cycle, flits as f64);
        }
    }

    /// Instructions retired across cores.
    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }

    /// All cores finished?
    pub fn all_done(&self) -> bool {
        self.cores.iter().all(|c| c.done())
    }

    /// The result of a run whose last memory operation completed at
    /// `runtime` (at least 1).
    fn result(self, runtime: u64, traffic_matrix: Option<Vec<u64>>, drained: bool) -> CmpResult {
        let flits = self.user_flits + self.kernel_flits;
        CmpResult {
            runtime,
            user_flits: self.user_flits,
            kernel_flits: self.kernel_flits,
            timer_interrupts: self.timer_interrupts,
            instructions: self.instructions(),
            nar: flits as f64 / runtime as f64 / self.cores.len() as f64,
            series_user: self.ts_user,
            series_kernel: self.ts_kernel,
            traffic_matrix,
            drained,
        }
    }
}

impl NodeBehavior for CmpBehavior {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        self.global_tick(cycle);

        // 1) bank replies that are ready
        if let Some(&Reverse((ready, dst, payload))) = self.banks[node].peek() {
            if ready <= cycle {
                self.banks[node].pop();
                let size = if payload & STORE_BIT != 0 {
                    self.cfg.ack_flits
                } else {
                    self.cfg.reply_flits
                };
                self.count(size as u64, payload & OS_BIT != 0, cycle);
                return Some(PacketSpec { dst, size, class: REPLY, payload });
            }
        }

        // 2) tick the core once per cycle; queue any request it makes
        if self.ticked[node] != cycle {
            self.ticked[node] = cycle;
            let req = self.cores[node].tick();
            let (os, store, l2_miss) = match req {
                MemRequest::None => (false, false, false),
                MemRequest::Load { os, l2_miss } => (os, false, l2_miss),
                MemRequest::Store { os, l2_miss } => (os, true, l2_miss),
            };
            if req != MemRequest::None {
                // shared L2 is line-interleaved across all tiles: the home
                // bank of a random line is uniform over nodes
                let dst = self.dst_rng[node].below(self.cores.len());
                let payload = (os as u64 * OS_BIT)
                    | (store as u64 * STORE_BIT)
                    | (l2_miss as u64 * L2MISS_BIT);
                self.count(self.cfg.req_flits as u64, os, cycle);
                self.outbox[node].push_back(PacketSpec {
                    dst,
                    size: self.cfg.req_flits,
                    class: REQUEST,
                    payload,
                });
            }
        }

        // 3) drain the outbox
        self.outbox[node].pop_front()
    }

    fn deliver(&mut self, node: usize, d: &Delivered, cycle: Cycle) {
        self.last_activity = cycle;
        match d.class {
            REQUEST => {
                // hit/miss was decided at issue time (core RNG): the bank
                // applies the corresponding latency, accepting at most one
                // access per cycle (pipelined bank, queues under hotspots)
                let start = cycle.max(self.bank_free[node]);
                self.bank_free[node] = start + 1;
                let delay = self.cfg.l2_latency
                    + if d.payload & L2MISS_BIT != 0 { self.cfg.mem_latency } else { 0 };
                self.banks[node].push(Reverse((start + delay, d.src, d.payload)));
            }
            REPLY => {
                if d.payload & STORE_BIT != 0 {
                    self.cores[node].store_ack();
                } else {
                    self.cores[node].load_reply();
                }
            }
            c => panic!("unexpected class {c}"),
        }
    }

    fn quiescent(&self) -> bool {
        self.all_done()
            && self.banks.iter().all(|b| b.is_empty())
            && self.outbox.iter().all(|o| o.is_empty())
    }
}

/// Run the execution-driven simulation on the real NoC, after
/// [`CmpConfig::validate`].
pub fn run_cmp(cfg: &CmpConfig) -> Result<CmpResult, noc_sim::ConfigError> {
    cfg.validate()?;
    let mut net_cfg = cfg.net.clone();
    net_cfg.classes = 2;
    let mut net = Network::new(net_cfg)?;
    net.enable_traffic_matrix();
    let mut b = CmpBehavior::new(cfg, net.num_nodes());
    let drained = net.drain(&mut b, cfg.max_cycles);
    let runtime = b.last_activity.max(1);
    Ok(b.result(runtime, net.traffic_matrix().map(|m| m.to_vec()), drained))
}

/// Run under an *ideal network* — fully connected, single-cycle,
/// infinite bandwidth — to measure the benchmark's network access rate
/// (NAR) exactly as the paper defines it (Table III).
pub fn run_ideal(cfg: &CmpConfig) -> CmpResult {
    let nodes = cfg.net.topology.num_nodes();
    let mut b = CmpBehavior::new(cfg, nodes);
    // completion events: (ready, node, store?)
    let mut events: BinaryHeap<Reverse<(Cycle, usize, bool)>> = BinaryHeap::new();
    let mut cycle: Cycle = 0;
    loop {
        b.global_tick(cycle);
        while let Some(&Reverse((ready, node, store))) = events.peek() {
            if ready > cycle {
                break;
            }
            events.pop();
            if store {
                b.cores[node].store_ack();
            } else {
                b.cores[node].load_reply();
            }
        }
        for node in 0..nodes {
            let req = b.cores[node].tick();
            let (os, store, l2_miss) = match req {
                MemRequest::None => continue,
                MemRequest::Load { os, l2_miss } => (os, false, l2_miss),
                MemRequest::Store { os, l2_miss } => (os, true, l2_miss),
            };
            let reply = if store { b.cfg.ack_flits } else { b.cfg.reply_flits };
            b.count((b.cfg.req_flits + reply) as u64, os, cycle);
            let svc = b.cfg.l2_latency + if l2_miss { b.cfg.mem_latency } else { 0 };
            // 1 cycle to the bank, service, 1 cycle back
            events.push(Reverse((cycle + 2 + svc, node, store)));
        }
        if b.all_done() && events.is_empty() {
            break;
        }
        cycle += 1;
        if cycle >= cfg.max_cycles {
            break;
        }
    }
    b.result(cycle.max(1), None, cycle < cfg.max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workloads::{all_benchmarks, ClockFreq};

    fn quick(name: &str) -> CmpConfig {
        let p = *all_benchmarks().iter().find(|p| p.name == name).unwrap();
        CmpConfig::table2(p).with_instructions(20_000)
    }

    #[test]
    fn cmp_run_completes_and_counts() {
        let r = run_cmp(&quick("blackscholes").with_os(false)).unwrap();
        assert!(r.drained);
        assert_eq!(r.instructions, 16 * 20_000);
        assert_eq!(r.kernel_flits, 0, "no OS model, no kernel traffic");
        assert!(r.user_flits > 0);
        assert!(r.runtime >= 20_000, "runtime at least the instruction count");
    }

    #[test]
    fn os_model_generates_kernel_traffic() {
        let r = run_cmp(&quick("blackscholes")).unwrap();
        assert!(r.drained);
        assert!(r.kernel_flits > 0);
        assert!(r.kernel_fraction() > 0.1, "fraction = {}", r.kernel_fraction());
    }

    #[test]
    fn slower_clock_means_more_interrupts() {
        let fast = run_cmp(&quick("blackscholes").with_clock(ClockFreq::GHz3)).unwrap();
        let slow = run_cmp(&quick("blackscholes").with_clock(ClockFreq::MHz75)).unwrap();
        assert!(
            slow.timer_interrupts > 4 * fast.timer_interrupts.max(1),
            "slow {} vs fast {}",
            slow.timer_interrupts,
            fast.timer_interrupts
        );
        assert!(slow.kernel_fraction() > fast.kernel_fraction());
    }

    #[test]
    fn router_delay_slows_network_bound_benchmarks_more() {
        // what matters is the *network-time share* of runtime: barnes
        // (NAR 0.047, L2 miss 1.1% -> round trips are mostly network
        // latency) must feel tr more than fft (NAR 0.033, L2 miss 71% ->
        // round trips are dominated by the 300-cycle DRAM)
        let slowdown = |name: &str| {
            let r1 = run_cmp(&quick(name).with_os(false)).unwrap();
            let r8 = run_cmp(&quick(name).with_os(false).with_router_delay(8)).unwrap();
            r8.runtime as f64 / r1.runtime as f64
        };
        let barnes = slowdown("barnes");
        let fft = slowdown("fft");
        assert!(barnes >= 1.0 && fft >= 1.0);
        assert!(
            barnes > fft,
            "network-bound barnes ({barnes:.3}) should feel tr more than DRAM-bound fft ({fft:.3})"
        );
    }

    #[test]
    fn ideal_run_measures_nar_in_profile_ballpark() {
        for name in ["blackscholes", "barnes"] {
            let cfg = quick(name).with_os(false);
            let r = run_ideal(&cfg);
            assert!(r.drained);
            // the measured ideal-network injection rate should be within
            // ~2.5x of the profile's user NAR (blocking loads deflate it)
            let target = cfg.profile.nar_user;
            assert!(
                r.nar > target / 3.0 && r.nar < target * 1.5,
                "{name}: measured {} vs profile {target}",
                r.nar
            );
        }
    }

    #[test]
    fn traffic_matrix_is_near_uniform() {
        // Fig 13(b): address interleaving randomizes traffic
        let r = run_cmp(&quick("lu").with_os(false)).unwrap();
        let m = r.traffic_matrix.unwrap();
        let score = noc_workloads::comm::structure_score(
            &m.iter().map(|&v| v as f64).collect::<Vec<_>>(),
            16,
        );
        assert!(score < 0.5, "actual traffic should look uniform, score = {score}");
    }

    #[test]
    fn deterministic() {
        let a = run_cmp(&quick("fft")).unwrap();
        let b = run_cmp(&quick("fft")).unwrap();
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.user_flits, b.user_flits);
        assert_eq!(a.kernel_flits, b.kernel_flits);
    }
}
