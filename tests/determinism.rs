//! Regression test for the experiment engine's core guarantee:
//! parallel execution is **bit-identical** to serial execution.
//!
//! Results are compared through their `Debug` form, which covers every
//! field —
//! including all f64 statistics, whose exact bits would differ if any
//! point saw a different seed or evaluation order mattered.
//!
//! Runs under `--features sanitize` too, so the invariant checker
//! watches both executions.

use noc_closedloop::{run_batch_seeds, run_batch_seeds_serial, BatchConfig};
use noc_openloop::{sweep, sweep_serial, OpenLoopConfig};
use noc_sim::config::{NetConfig, TopologyKind};

/// One test (not several) so the `NOC_THREADS` override cannot race
/// concurrent test threads reading the environment.
#[test]
fn parallel_grid_is_bit_identical_to_serial() {
    // force a real worker pool even on a single-core CI host
    std::env::set_var("NOC_THREADS", "4");

    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        ..OpenLoopConfig::default()
    }
    .quick();
    let loads = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4];
    let par = sweep(&base, &loads);
    let ser = sweep_serial(&base, &loads);
    assert_eq!(
        format!("{par:?}"),
        format!("{ser:?}"),
        "parallel sweep diverged from serial reference"
    );

    let bcfg = BatchConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        batch: 60,
        max_outstanding: 4,
        ..BatchConfig::default()
    };
    let par = run_batch_seeds(&bcfg, 5).unwrap();
    let ser = run_batch_seeds_serial(&bcfg, 5).unwrap();
    assert_eq!(
        format!("{par:?}"),
        format!("{ser:?}"),
        "parallel batch replicates diverged from serial reference"
    );
}
