//! Multi-seed replication of closed-loop runs.
//!
//! Closed-loop runtime `T` is a worst-case statistic (the slowest node
//! defines it), so single runs are noisy; the paper's tables average
//! several seeds. Replicates are embarrassingly parallel (each builds a
//! fresh network), so [`run_batch_seeds`] fans them out through
//! [`noc_exp::run_grid`]. Replicate `i` always runs
//! [`BatchConfig::point`]`(i)`, regardless of worker or evaluation
//! order, so output is bit-identical at every width, `NOC_THREADS=1`
//! (the serial reference) included.

use noc_sim::error::ConfigError;

use crate::batch::{run_batch, BatchConfig, BatchResult};

/// Run `replicates` independent batch-model experiments in parallel,
/// differing only in their derived RNG seed. Results come back in
/// replicate order and are bit-identical at every worker count
/// (regression-tested in the workspace's `tests/determinism.rs`).
pub fn run_batch_seeds(
    base: &BatchConfig,
    replicates: usize,
) -> Result<Vec<BatchResult>, ConfigError> {
    let indices: Vec<usize> = (0..replicates).collect();
    noc_exp::run_grid(&indices, |_, &i| run_batch(&base.point(i))).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::{NetConfig, TopologyKind};

    fn quick() -> BatchConfig {
        BatchConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
            batch: 50,
            max_outstanding: 4,
            ..BatchConfig::default()
        }
    }

    #[test]
    fn replicates_use_distinct_derived_seeds() {
        let base = quick();
        let (a, b) = (base.point(0), base.point(1));
        assert_ne!(a.net.seed, b.net.seed);
        assert_ne!(a.net.seed, base.net.seed, "replicate 0 must not reuse the base seed");
    }

    #[test]
    fn replicates_replay_bit_for_bit() {
        let base = quick();
        let a = run_batch_seeds(&base, 4).unwrap();
        let b = run_batch_seeds(&base, 4).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn replicates_differ() {
        let rs = run_batch_seeds(&quick(), 4).unwrap();
        assert_eq!(rs.len(), 4);
        // distinct seeds should give at least two distinct runtimes
        let distinct: std::collections::HashSet<u64> = rs.iter().map(|r| r.runtime).collect();
        assert!(distinct.len() >= 2, "all replicates identical: {rs:?}");
        assert!(rs.iter().all(|r| r.drained && r.throughput > 0.0));
    }
}
