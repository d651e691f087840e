//! Graceful-degradation curve: delivered fraction, retransmissions,
//! and post-fault latency/throughput vs. number of failed links on the
//! 8x8 mesh (4x4 under `quick`), uniform traffic at moderate load.
//!
//! Each point runs through the crash-proof grid: a panicking or
//! non-settling fault scenario is reported in place, never able to
//! poison the rest of the curve. Output is byte-identical across runs
//! and thread counts for a fixed effort (`NOC_THREADS=1` vs default
//! prints the same table).
use noc_fault::{degradation_sweep, DegradationConfig};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};

fn main() {
    let (e, _) = noc_bench::parse_args(&[]);
    let quick = e.warmup < 5_000;
    let k = if quick { 4 } else { 8 };
    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k }),
        load: 0.15,
        warmup: e.warmup,
        measure: e.measure,
        drain_max: e.drain,
        ..OpenLoopConfig::default()
    };
    let max_links = if quick { 4 } else { 8 };
    let cfg = DegradationConfig::new(base, max_links);

    println!("== graceful degradation: {k}x{k} mesh, uniform, load 0.15 ==");
    println!("links  delivered            retx     abandoned  dropped  latency   thruput");
    for outcome in degradation_sweep(&cfg) {
        match outcome {
            noc_exp::PointOutcome::Ok(p) => println!(
                "{:<6} {:<20} {:<8} {:<10} {:<8} {:<9.2} {:.4}",
                p.failed_links,
                p.delivered.to_string(),
                p.retransmissions,
                p.abandoned,
                p.packets_dropped,
                p.avg_latency,
                p.throughput
            ),
            noc_exp::PointOutcome::Panicked { message } => println!("point PANICKED: {message}"),
            noc_exp::PointOutcome::Diverged { budget } => {
                println!("point DIVERGED (budget {budget} cycles)")
            }
        }
    }
}
