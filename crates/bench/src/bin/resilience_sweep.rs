//! Resilience curve: availability, delivered fraction, and recovery
//! latency vs. link MTBF under intermittent fault-and-repair
//! timelines on the 8x8 mesh (4x4 under `quick`), with one table per
//! recovery mode — none, end-to-end retransmission, link-level retry,
//! and both combined — over identical traffic and flap seeds.
//!
//! Each point runs through the crash-proof grid: a panicking or
//! non-settling scenario is reported in place, never able to poison
//! the rest of the curve. Output is byte-identical across runs and
//! thread counts for a fixed effort (`NOC_THREADS=1` vs default
//! prints the same table).
use noc_fault::{resilience_sweep, RecoveryMode, ResilienceConfig};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};

fn main() {
    let (e, _) = noc_bench::parse_args(&[]);
    let quick = e.warmup < 5_000;
    let k = if quick { 4 } else { 8 };
    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k }),
        load: 0.1,
        warmup: e.warmup,
        measure: e.measure,
        drain_max: e.drain,
        ..OpenLoopConfig::default()
    };
    let horizon = base.warmup + base.measure;
    let steps = if quick { 3u64 } else { 6 };
    let axis: Vec<(u64, u64)> = (1..=steps)
        .map(|i| {
            let mtbf = (horizon / 10 * i).max(8);
            (mtbf, (mtbf / 8).max(1))
        })
        .collect();

    println!("== resilience: {k}x{k} mesh, uniform, load 0.1, flapping links ==");
    for mode in RecoveryMode::ALL {
        let cfg = ResilienceConfig::new(base.clone(), axis.clone()).with_recovery(mode);
        println!("-- recovery: {} --", mode.label());
        println!(
            "mtbf    mttr   avail    delivered        retx     replays  epochs  recovery  latency"
        );
        for outcome in resilience_sweep(&cfg) {
            match outcome {
                noc_exp::PointOutcome::Ok(p) => println!(
                    "{:<7} {:<6} {:.4}   {:<16} {:<8} {:<8} {:<7} {:<9} {:.2}",
                    p.mtbf,
                    p.mttr,
                    p.availability,
                    p.delivered.to_string(),
                    p.retransmissions,
                    p.link_replays,
                    p.epochs,
                    p.recovery_cycles,
                    p.avg_latency
                ),
                noc_exp::PointOutcome::Panicked { message } => {
                    println!("point PANICKED: {message}")
                }
                noc_exp::PointOutcome::Diverged { budget } => {
                    println!("point DIVERGED (budget {budget} cycles)")
                }
            }
        }
    }
}
