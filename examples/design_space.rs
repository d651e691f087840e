//! Design-space exploration: the workflow the paper's framework is for.
//!
//! Sweeps router delay x buffer size on the 8x8 mesh with the batch
//! model (system view) and the open loop (network view), and prints a
//! combined table showing where the two views agree and where the
//! open-loop view would mislead.
//!
//! Run with: `cargo run --release --example design_space`

use noc_closedloop::BatchConfig;
use noc_openloop::OpenLoopConfig;
use noc_sim::config::NetConfig;

fn main() {
    println!("design-space sweep: 8x8 mesh, uniform traffic");
    println!(
        "{:<6} {:<4} {:>12} {:>10} {:>14} {:>12}",
        "tr", "q", "batch T", "theta", "open T0(cyc)", "open@theta"
    );
    for &tr in &[1u32, 2, 4] {
        for &q in &[2usize, 4, 8] {
            let net = NetConfig::baseline().with_router_delay(tr).with_vc_buf(q);

            // system view: closed-loop batch model with a small MSHR count
            let batch = noc_closedloop::run_batch(&BatchConfig {
                net: net.clone(),
                batch: 500,
                max_outstanding: 4,
                ..BatchConfig::default()
            })
            .expect("valid configuration");

            // network view: zero-load latency + latency at the achieved load
            let t0 = noc_openloop::zero_load_latency_bound(&net).expect("valid configuration");
            let at_theta = noc_openloop::measure(&OpenLoopConfig {
                net,
                load: batch.throughput,
                warmup: 2_000,
                measure: 5_000,
                drain_max: 50_000,
                ..OpenLoopConfig::default()
            })
            .expect("valid configuration");

            println!(
                "{:<6} {:<4} {:>12} {:>10.3} {:>14.1} {:>12.1}",
                tr, q, batch.runtime, batch.throughput, t0, at_theta.avg_latency
            );
        }
    }
    println!("\nreading: batch runtime is the system metric; if you only looked at");
    println!("open-loop latency you would overweight router-delay effects for");
    println!("workloads that never stress the network (see fig16/fig22 binaries).");
}
