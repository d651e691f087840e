//! Thread-scaling harness: times the same fixed open-loop grid at 1, 2,
//! 4, and 8 worker threads (forced via `NOC_THREADS`) and emits a
//! `noc-eval/scalability/v1` JSON report (`BENCH_scalability.json`, or
//! `BENCH_JSON` to redirect; empty string disables).
//!
//! Grid points are evaluated through [`noc_exp::run_grid`], the same
//! work-stealing pool every sweep figure uses, so the curve measures
//! the engine users actually run. Point results must be bit-identical
//! across thread counts (the parallel==serial guarantee); the bin exits
//! nonzero if any thread count disagrees with the serial results.
//!
//! Shared CI runners are noisy and may have fewer than 8 hardware
//! threads, so the report records — it does not gate. CI runs it
//! next to `sim_speed` in the non-blocking bench-smoke job.

use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};

/// Thread counts swept, in run order. Serial first: its results are the
/// reference the parallel runs are checked against.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// Fingerprint of one grid point's result, folded over the fields that
/// a scheduling difference could plausibly corrupt.
fn fingerprint(r: &noc_openloop::OpenLoopResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        r.avg_latency.to_bits(),
        r.throughput.to_bits(),
        r.measured_packets,
        r.cycles,
        r.worst_node_latency.to_bits(),
    ] {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn main() {
    let e = noc_bench::effort_from_args();
    // 16 independent points (4 loads x 4 seeds) on the baseline mesh:
    // enough work to occupy 8 workers, small enough for CI smoke
    let loads = [0.05, 0.15, 0.25, 0.35];
    let points: Vec<OpenLoopConfig> = loads
        .iter()
        .flat_map(|&load| {
            (0..4).map(move |s| OpenLoopConfig {
                net: NetConfig::baseline()
                    .with_topology(TopologyKind::Mesh2D { k: 8 })
                    .with_seed(noc_exp::derive_seed(0x5ca1_ab17, s)),
                load,
                warmup: e.warmup,
                measure: e.measure,
                drain_max: e.drain,
                ..OpenLoopConfig::default()
            })
        })
        .collect();

    let mut serial_prints: Vec<u64> = Vec::new();
    let mut entries: Vec<(usize, f64, f64)> = Vec::new(); // (threads, wall, speedup)
    let mut identical = true;
    let mut serial_wall = 0.0f64;
    for &t in THREADS {
        std::env::set_var("NOC_THREADS", t.to_string());
        let start = std::time::Instant::now();
        let results = noc_exp::run_grid(&points, |_, cfg| {
            noc_openloop::measure(cfg).expect("valid scalability grid config")
        });
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        let prints: Vec<u64> = results.iter().map(fingerprint).collect();
        if t == 1 {
            serial_prints = prints;
            serial_wall = wall;
        } else if prints != serial_prints {
            eprintln!("scalability: results at {t} threads differ from serial");
            identical = false;
        }
        entries.push((t, wall, serial_wall / wall));
        println!(
            "{t} threads: {:.2}s for {} points ({:.2}x vs serial)",
            wall,
            points.len(),
            serial_wall / wall
        );
    }

    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_scalability.json".into());
    if !path.is_empty() {
        let report = noc_bench::ScalabilityReport {
            points: points.len(),
            host_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            identical_results: identical,
            entries,
        };
        match std::fs::write(&path, report.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }
    if !identical {
        std::process::exit(1);
    }
}
