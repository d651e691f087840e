//! System-level figures: Fig 12 (example routes), Fig 13 (communication
//! matrices), Fig 20 (user/kernel traffic split), Fig 21 (injection rate
//! over time), and Tables I–IV.

use cmp_sim::{run_cmp, run_ideal, CmpConfig};
use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_sim::trace_route;
use noc_workloads::{all_benchmarks, lu_app_matrix, matrix_to_ascii, ClockFreq};

use super::correlation::validation_cmp;
use crate::effort::Effort;

/// Fig 12: example corner-to-corner routes under DOR and VAL on the
/// 8x8 mesh for the transpose-critical pair.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// DOR route (node sequence).
    pub dor: Vec<usize>,
    /// VAL routes for several seeds (node sequences via intermediates).
    pub val: Vec<Vec<usize>>,
    /// The (src, dst) pair traced.
    pub pair: (usize, usize),
}

/// Run Fig 12: the transpose worst-case pair (7,0) <-> (0,7), i.e.
/// nodes 7 and 56 on the 8x8 mesh, each route [`trace_route`]'s walk
/// of the engine's own routing function.
pub fn fig12() -> Fig12 {
    let topo = TopologyKind::Mesh2D { k: 8 };
    let (src, dst) = (7usize, 56usize);
    let dor = trace_route(topo, RoutingKind::Dor, src, dst, 0);
    let val = (1..=4).map(|seed| trace_route(topo, RoutingKind::Valiant, src, dst, seed)).collect();
    Fig12 { dor, val, pair: (src, dst) }
}

impl Fig12 {
    /// Text report.
    pub fn render(&self) -> String {
        let fmt = |p: &[usize]| {
            p.iter().map(|n| format!("({},{})", n % 8, n / 8)).collect::<Vec<_>>().join(" -> ")
        };
        let mut out = format!(
            "== Fig 12: example routes, corner pair {:?} ==\nDOR  ({} hops): {}\n",
            self.pair,
            self.dor.len() - 1,
            fmt(&self.dor)
        );
        for (i, v) in self.val.iter().enumerate() {
            out.push_str(&format!("VAL#{} ({} hops): {}\n", i + 1, v.len() - 1, fmt(v)));
        }
        out.push_str(
            "note: DOR's corner-to-corner route is the worst case either way;\n\
             VAL's intermediate only adds hops, which is why worst-case runtime\n\
             matches DOR under transpose (Fig 11).\n",
        );
        out
    }
}

/// Fig 13: lu's application-level communication pattern vs the actual
/// injected traffic under the shared interleaved L2.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Analytic app-level matrix (16 x 16 weights).
    pub app_matrix: Vec<f64>,
    /// Measured traffic matrix from the execution-driven run.
    pub actual_matrix: Vec<f64>,
    /// Structure scores (coefficient of variation): (app, actual).
    pub structure: (f64, f64),
}

/// Run Fig 13.
pub fn fig13(effort: &Effort) -> Fig13 {
    let lu = *all_benchmarks().iter().find(|p| p.name == "lu").expect("lu profile");
    let cfg = validation_cmp(&lu, effort, false);
    let r = run_cmp(&cfg).expect("valid config");
    let actual: Vec<f64> =
        r.traffic_matrix.expect("matrix recording enabled").iter().map(|&v| v as f64).collect();
    let app = lu_app_matrix(16);
    let structure = (
        noc_workloads::comm::structure_score(&app, 16),
        noc_workloads::comm::structure_score(&actual, 16),
    );
    Fig13 { app_matrix: app, actual_matrix: actual, structure }
}

impl Fig13 {
    /// Text report with ASCII heat maps.
    pub fn render(&self) -> String {
        format!(
            "== Fig 13: lu communication pattern ==\n\
             -- (a) application-level (structure score {:.2}) --\n{}\
             -- (b) actual injected traffic (structure score {:.2}) --\n{}",
            self.structure.0,
            matrix_to_ascii(&self.app_matrix, 16),
            self.structure.1,
            matrix_to_ascii(&self.actual_matrix, 16),
        )
    }
}

/// Fig 20: user/kernel injection split per benchmark at both clocks,
/// as router delay varies.
#[derive(Debug, Clone)]
pub struct Fig20 {
    /// `(clock, benchmark, tr, user rate, kernel rate)` rows
    /// (flits/cycle/node).
    pub rows: Vec<(String, String, u32, f64, f64)>,
}

/// Run Fig 20.
pub fn fig20(effort: &Effort) -> Fig20 {
    let mut rows = Vec::new();
    for clock in [ClockFreq::MHz75, ClockFreq::GHz3] {
        for p in all_benchmarks() {
            for &tr in &[1u32, 2, 4, 8] {
                let cfg = validation_cmp(&p, effort, true).with_clock(clock).with_router_delay(tr);
                let r = run_cmp(&cfg).expect("valid config");
                let n = 16.0;
                rows.push((
                    clock.label().to_string(),
                    p.name.to_string(),
                    tr,
                    r.user_flits as f64 / r.runtime as f64 / n,
                    r.kernel_flits as f64 / r.runtime as f64 / n,
                ));
            }
        }
    }
    Fig20 { rows }
}

impl Fig20 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== Fig 20: network injection rate, user vs kernel ==\n\
             clock    benchmark      tr   user       kernel     kernel%\n",
        );
        for (clock, name, tr, u, k) in &self.rows {
            let frac = if u + k > 0.0 { k / (u + k) * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "{clock:<8} {name:<14} {tr:<4} {u:<10.5} {k:<10.5} {frac:.0}%\n"
            ));
        }
        out
    }

    /// Mean kernel traffic fraction at a clock.
    pub fn kernel_fraction(&self, clock: &str) -> f64 {
        let rows: Vec<_> = self.rows.iter().filter(|(c, ..)| c == clock).collect();
        let total: f64 = rows.iter().map(|(_, _, _, u, k)| u + k).sum();
        let kernel: f64 = rows.iter().map(|(_, _, _, _, k)| k).sum();
        if total == 0.0 {
            0.0
        } else {
            kernel / total
        }
    }
}

/// One Fig 21 time series: `(cycle, user rate, kernel rate)` rows.
pub type RateSeries = Vec<(u64, f64, f64)>;

/// Fig 21: blackscholes injection rate over time, user vs kernel, at
/// both clocks.
#[derive(Debug, Clone)]
pub struct Fig21 {
    /// `(clock, series)` pairs.
    pub series: Vec<(String, RateSeries)>,
    /// Timer interrupt counts per clock.
    pub interrupts: Vec<(String, u64)>,
}

/// Run Fig 21.
pub fn fig21(effort: &Effort) -> Fig21 {
    let bs = all_benchmarks()[0];
    let mut series = Vec::new();
    let mut interrupts = Vec::new();
    for clock in [ClockFreq::MHz75, ClockFreq::GHz3] {
        let cfg = validation_cmp(&bs, effort, true).with_clock(clock);
        let r = run_cmp(&cfg).expect("valid config");
        let user = r.series_user.rates();
        let kernel = r.series_kernel.rates();
        let n = user.len().max(kernel.len());
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let (c, u) = user.get(i).copied().unwrap_or((i as u64, 0.0));
            let k = kernel.get(i).map(|&(_, k)| k).unwrap_or(0.0);
            rows.push((c, u, k));
        }
        series.push((clock.label().to_string(), rows));
        interrupts.push((clock.label().to_string(), r.timer_interrupts));
    }
    Fig21 { series, interrupts }
}

impl Fig21 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig 21: blackscholes injection rate over time ==\n");
        for ((clock, rows), (_, ints)) in self.series.iter().zip(&self.interrupts) {
            out.push_str(&format!("-- {clock} ({ints} timer interrupts) --\n"));
            out.push_str("cycle        user(flits/cyc)  kernel(flits/cyc)\n");
            for (c, u, k) in rows {
                out.push_str(&format!("{c:<12} {u:<16.4} {k:.4}\n"));
            }
        }
        out
    }
}

/// Table I: the synthetic-network parameter space (configuration echo).
pub fn table1() -> String {
    "== Table I: simulation parameters ==\n\
     Topology            8x8 2D mesh (baseline), 16x16 2D mesh, folded torus, ring\n\
     Virtual channels    2 (baseline), 4\n\
     VC buffer size      1, 2, 4 (baseline), 8, 16, 32\n\
     Router delay        1 (baseline), 2, 4, 8 cycles\n\
     Routing             DOR (baseline), VAL, MA, ROMM\n\
     Arbitration         round robin (baseline), age-based\n\
     Link delay          1 cycle (2 for folded torus)\n\
     Link bandwidth      1 flit/cycle\n\
     Packet sizes        1 flit, bimodal (1 and 4 flits)\n\
     Traffic             uniform random, bit reversal, bit complement, transpose\n"
        .to_string()
}

/// Table II: the CMP parameter echo.
pub fn table2() -> String {
    let cfg = CmpConfig::table2(all_benchmarks()[0]);
    format!(
        "== Table II: CMP simulation parameters ==\n\
         Cores               16 in-order (synthetic streams)\n\
         L1                  private, blocking loads, {} MSHR store buffer\n\
         L2                  shared, line-interleaved, {} cycle access\n\
         Memory              {} cycle DRAM\n\
         Network             4x4 mesh, {} VCs x {} buffers, 16-byte links\n\
         Packets             {}-flit requests, {}-flit data replies\n\
         Router delay        1/2/4/8 cycles (swept)\n",
        cfg.mshrs,
        cfg.l2_latency,
        cfg.mem_latency,
        cfg.net.vcs,
        cfg.net.vc_buf,
        cfg.req_flits,
        cfg.reply_flits,
    )
}

/// Table III: measure NAR and L2 miss rate per benchmark under the
/// ideal network, next to the paper's values.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// `(benchmark, measured NAR, paper NAR, paper L2 miss)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Run Table III.
pub fn table3(effort: &Effort) -> Table3 {
    let rows = all_benchmarks()
        .iter()
        .map(|p| {
            let cfg = validation_cmp(p, effort, false);
            let r = run_ideal(&cfg);
            (p.name.to_string(), r.nar, p.nar, p.l2_miss)
        })
        .collect();
    Table3 { rows }
}

impl Table3 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== Table III: NAR under ideal network ==\n\
             benchmark      NAR(measured)  NAR(paper)  L2miss(paper)\n",
        );
        for (name, m, p, l2) in &self.rows {
            out.push_str(&format!("{name:<14} {m:<14.4} {p:<11.3} {l2:.3}\n"));
        }
        out
    }
}

/// Table IV: the per-benchmark user/OS characterization (profile echo).
pub fn table4() -> String {
    let mut out = String::from(
        "== Table IV: benchmark characteristics ==\n\
         benchmark      NARu    NARos   L2u     L2os    extra   Rtimer\n",
    );
    for p in all_benchmarks() {
        out.push_str(&format!(
            "{:<14} {:<7.3} {:<7.3} {:<7.3} {:<7.3} {:<7.2} {:.5}\n",
            p.name,
            p.nar_user,
            p.nar_os,
            p.l2_miss_user,
            p.l2_miss_os,
            p.os_extra_traffic,
            p.r_timer
        ));
    }
    out
}

/// Simulator speed (the paper's "minutes vs 88.5 hours" motivation):
/// cycles simulated per wall-clock second for one batch run. Speed is
/// *tracked* by the repo benchmark (`benchmark/`), not here.
pub fn sim_speed(effort: &Effort) -> String {
    let cfg = noc_closedloop::BatchConfig {
        net: NetConfig::baseline(),
        batch: effort.batch,
        max_outstanding: 8,
        ..noc_closedloop::BatchConfig::default()
    };
    let start = std::time::Instant::now();
    let r = noc_closedloop::run_batch(&cfg).expect("valid config");
    let wall = start.elapsed().as_secs_f64();
    format!(
        "batch model: {} cycles, {} packets in {:.2}s ({:.0} cycles/s, 64-node network)\n",
        r.runtime,
        r.completed * 2,
        wall,
        r.runtime as f64 / wall
    )
}
