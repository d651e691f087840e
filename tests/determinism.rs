//! Regression test for the experiment engine's core guarantee:
//! parallel execution is **bit-identical** to serial execution, the
//! width-1 run (`NOC_THREADS=1`, `run_grid_with`'s inline branch) being
//! the serial reference.
//!
//! Results are compared through their `Debug` form, which covers every
//! field —
//! including all f64 statistics, whose exact bits would differ if any
//! point saw a different seed or evaluation order mattered.
//!
//! Runs under `--features sanitize` too, so the invariant checker
//! watches both executions.
//!
//! Two further points — one batch-model run, one `cmp-sim` run — are
//! pinned by literal values, so the layers above the engine are held
//! across commits the way `golden_digests.rs` holds the engine itself.

use cmp_sim::{run_cmp, CmpConfig};
use noc_closedloop::{run_batch, run_batch_seeds, BatchConfig, KernelModel};
use noc_openloop::{sweep, OpenLoopConfig};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_workloads::{all_benchmarks, ClockFreq};

/// One test (not several) so the `NOC_THREADS` override cannot race
/// concurrent test threads reading the environment.
#[test]
fn parallel_grid_is_bit_identical_to_serial() {
    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        ..OpenLoopConfig::default()
    }
    .quick();
    let loads = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4];
    let bcfg = BatchConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        batch: 60,
        max_outstanding: 4,
        ..BatchConfig::default()
    };
    // width 4 forces a real worker pool even on a single-core CI host
    let at_width = |width: &str| {
        std::env::set_var("NOC_THREADS", width);
        (format!("{:?}", sweep(&base, &loads)), format!("{:?}", run_batch_seeds(&bcfg, 5)))
    };
    let (ser_sweep, ser_batch) = at_width("1");
    let (par_sweep, par_batch) = at_width("4");
    std::env::remove_var("NOC_THREADS");
    assert_eq!(par_sweep, ser_sweep, "parallel sweep diverged from serial reference");
    assert_eq!(par_batch, ser_batch, "parallel batch replicates diverged from serial reference");
}

/// One batch-model point pinned by literal values: the closed-loop layer
/// above the engine (issue pacing, reply generation, the kernel timer)
/// must produce the same run on every commit, not only agree with its
/// width-1 run within one tree. Re-bless only for an intended behaviour
/// change, and say so in the commit.
#[test]
fn batch_point_is_pinned_across_commits() {
    let cfg = BatchConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(7),
        batch: 200,
        max_outstanding: 4,
        kernel: Some(KernelModel { static_frac: 0.25, timer_rate: 0.01, timer_packets: 2 }),
        ..BatchConfig::default()
    };
    let r = run_batch(&cfg).unwrap();
    assert!(r.drained);
    let per_node =
        (r.per_node_runtime.iter().sum::<u64>(), *r.per_node_runtime.iter().max().unwrap());
    assert_eq!((r.runtime, r.completed, r.timer_added, per_node), (1189, 4352, 352, (18069, 1189)));
}

/// One execution-driven `cmp-sim` point pinned the same way (core model,
/// MSHRs, L2/memory replies, OS timer — everything above the engine).
#[test]
fn cmp_point_is_pinned_across_commits() {
    let cfg = CmpConfig::table2(all_benchmarks()[0])
        .with_instructions(6_000)
        .with_clock(ClockFreq::MHz75)
        .with_router_delay(2);
    let r = run_cmp(&cfg).unwrap();
    assert!(r.drained);
    assert_eq!(
        (r.runtime, r.user_flits, r.kernel_flits, r.instructions, r.timer_interrupts),
        (9894, 2188, 3766, 110592, 2)
    );
}
