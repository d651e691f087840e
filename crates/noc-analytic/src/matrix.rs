//! Exact traffic matrices: the per-pair destination probabilities of a
//! spatial pattern, one [`PatternKind::row`] per source — the pattern's
//! own exact distribution, next to the `dest` it describes.

use noc_traffic::PatternKind;

/// Dense `n x n` destination-probability matrix: `prob(src, dst)` is
/// the probability that a packet sourced at `src` targets `dst`. Every
/// row sums to 1; permutation patterns may place mass on the diagonal
/// (e.g. transpose fixed points), which corresponds to traffic that
/// never enters the network.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    p: Vec<f64>,
}

impl TrafficMatrix {
    /// The exact matrix of `pattern` on `nodes` nodes arranged `k x k`
    /// (the same instantiation contract as [`PatternKind::build`]).
    pub fn new(pattern: PatternKind, nodes: usize, k: usize) -> Self {
        let mut p = vec![0.0f64; nodes * nodes];
        for (src, row) in p.chunks_exact_mut(nodes).enumerate() {
            pattern.row(src, nodes, k, row);
        }
        Self { n: nodes, p }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Probability that a packet sourced at `src` targets `dst`.
    pub fn prob(&self, src: usize, dst: usize) -> f64 {
        self.p[src * self.n + dst]
    }

    /// Fraction of all injected traffic that targets its own source
    /// (diagonal mass averaged over sources) — it consumes injection
    /// bandwidth but never loads a network channel.
    pub fn self_traffic(&self) -> f64 {
        (0..self.n).map(|s| self.prob(s, s)).sum::<f64>() / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_sums_to_one(m: &TrafficMatrix) {
        for src in 0..m.nodes() {
            let sum: f64 = (0..m.nodes()).map(|d| m.prob(src, d)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {src} sums to {sum}");
        }
    }

    #[test]
    fn all_patterns_rows_sum_to_one() {
        for pat in [
            PatternKind::Uniform,
            PatternKind::Transpose,
            PatternKind::BitComplement,
            PatternKind::BitReversal,
            PatternKind::Shuffle,
            PatternKind::Tornado,
            PatternKind::Neighbor,
            PatternKind::Hotspot { node: 3, frac: 0.2 },
        ] {
            row_sums_to_one(&TrafficMatrix::new(pat, 16, 4));
        }
    }

    #[test]
    fn uniform_excludes_self() {
        let m = TrafficMatrix::new(PatternKind::Uniform, 16, 4);
        assert_eq!(m.self_traffic(), 0.0);
        assert!((m.prob(0, 1) - 1.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_diagonal_is_self_traffic() {
        let m = TrafficMatrix::new(PatternKind::Transpose, 16, 4);
        // k = 4: nodes (i, i) are fixed points -> 4 of 16 sources
        assert!((m.self_traffic() - 4.0 / 16.0).abs() < 1e-12);
        // (1, 0) = node 1 -> (0, 1) = node 4
        assert_eq!(m.prob(1, 4), 1.0);
    }

    #[test]
    fn hotspot_concentrates_on_the_hot_node() {
        let m = TrafficMatrix::new(PatternKind::Hotspot { node: 7, frac: 0.5 }, 16, 4);
        let w = 1.0 / 15.0;
        assert!((m.prob(0, 7) - (0.5 + 0.5 * w)).abs() < 1e-12);
        assert!((m.prob(0, 1) - 0.5 * w).abs() < 1e-12);
        // the hot node itself sprays uniformly
        assert!((m.prob(7, 0) - w).abs() < 1e-12);
    }
}
