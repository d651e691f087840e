//! Multi-seed replication of closed-loop runs.
//!
//! Closed-loop runtime `T` is a worst-case statistic (the slowest node
//! defines it), so single runs are noisy; the paper's tables average
//! several seeds. Replicates are embarrassingly parallel (each builds a
//! fresh network), so [`run_batch_seeds`] fans them out through
//! [`noc_exp::run_grid`]. Replicate `i` always runs with the RNG seed
//! `derive_seed(cfg.net.seed, i)`, regardless of worker or evaluation
//! order, so output is bit-identical at every width, `NOC_THREADS=1`
//! (the serial reference) included.

use noc_sim::error::ConfigError;

use crate::batch::{run_batch, BatchConfig, BatchResult};

/// The configuration of replicate `index`: `base` with the replicate's
/// RNG seed derived from `(base.net.seed, index)`.
fn replicate_config(base: &BatchConfig, index: usize) -> BatchConfig {
    let mut cfg = base.clone();
    cfg.net.seed = noc_exp::derive_seed(base.net.seed, index as u64);
    cfg
}

/// Run `replicates` independent batch-model experiments in parallel,
/// differing only in their derived RNG seed. Results come back in
/// replicate order and are bit-identical at every worker count
/// (regression-tested in the workspace's `tests/determinism.rs`).
pub fn run_batch_seeds(
    base: &BatchConfig,
    replicates: usize,
) -> Result<Vec<BatchResult>, ConfigError> {
    let indices: Vec<usize> = (0..replicates).collect();
    noc_exp::run_grid(&indices, |_, &i| run_batch(&replicate_config(base, i))).into_iter().collect()
}

/// Summary of a multi-seed batch: mean runtime and its spread.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSeedSummary {
    /// Number of replicates.
    pub replicates: usize,
    /// Mean runtime over replicates.
    pub mean_runtime: f64,
    /// Smallest replicate runtime.
    pub min_runtime: u64,
    /// Largest replicate runtime.
    pub max_runtime: u64,
    /// Mean achieved throughput (flits/cycle/node).
    pub mean_throughput: f64,
}

/// Reduce per-replicate results to a [`BatchSeedSummary`].
///
/// Panics when `results` is empty.
pub fn summarize_batch_seeds(results: &[BatchResult]) -> BatchSeedSummary {
    assert!(!results.is_empty(), "summarize_batch_seeds needs at least one replicate");
    let n = results.len();
    BatchSeedSummary {
        replicates: n,
        mean_runtime: results.iter().map(|r| r.runtime as f64).sum::<f64>() / n as f64,
        min_runtime: results.iter().map(|r| r.runtime).min().unwrap(),
        max_runtime: results.iter().map(|r| r.runtime).max().unwrap(),
        mean_throughput: results.iter().map(|r| r.throughput).sum::<f64>() / n as f64,
    }
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
        let a = replicate_config(&base, 0);
        let b = replicate_config(&base, 1);
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
    fn replicates_differ_and_summary_brackets_them() {
        let rs = run_batch_seeds(&quick(), 4).unwrap();
        assert_eq!(rs.len(), 4);
        // distinct seeds should give at least two distinct runtimes
        let distinct: std::collections::HashSet<u64> = rs.iter().map(|r| r.runtime).collect();
        assert!(distinct.len() >= 2, "all replicates identical: {rs:?}");
        let s = summarize_batch_seeds(&rs);
        assert_eq!(s.replicates, 4);
        assert!(s.min_runtime as f64 <= s.mean_runtime && s.mean_runtime <= s.max_runtime as f64);
        assert!(s.mean_throughput > 0.0);
    }
}
