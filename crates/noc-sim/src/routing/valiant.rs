//! Valiant's randomized routing (VAL): every packet is first routed (DOR)
//! to a uniformly random intermediate node, then (DOR) to its
//! destination. Trades locality for load balance: doubles average hop
//! count on uniform traffic but converts any permutation into two
//! uniform-random phases.

#[cfg(test)]
mod tests {
    use crate::config::{RoutingKind, TopologyKind};
    use crate::rng::SimRng;

    /// The walked path and the intermediate `init` drew (`usize::MAX`
    /// for a degenerate direct route).
    fn walk(topo: TopologyKind, src: usize, dst: usize, rng: &mut SimRng) -> (Vec<usize>, usize) {
        let (path, init) = super::super::tests::walk(topo, RoutingKind::Valiant, src, dst, rng);
        (path, init.intermediate)
    }

    #[test]
    fn valiant_always_terminates_at_dst() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let mut rng = SimRng::new(11);
        for s in 0..16 {
            for d in 0..16 {
                for _ in 0..4 {
                    let (path, _) = walk(t, s, d, &mut rng);
                    assert_eq!(*path.last().unwrap(), d);
                }
            }
        }
    }

    #[test]
    fn valiant_passes_through_intermediate() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let (path, mid) = walk(t, 0, 63, &mut rng);
            if mid != usize::MAX {
                assert!(path.contains(&mid), "path {path:?} must visit {mid}");
            }
            assert_eq!(*path.last().unwrap(), 63);
        }
    }

    #[test]
    fn valiant_path_length_is_two_phase_minimal() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            let src = rng.below(64);
            let dst = rng.below(64);
            let (path, mid) = walk(t, src, dst, &mut rng);
            let expect = if mid == usize::MAX {
                t.min_hops(src, dst)
            } else {
                t.min_hops(src, mid) + t.min_hops(mid, dst)
            };
            assert_eq!(path.len() - 1, expect);
        }
    }

    #[test]
    fn valiant_average_hops_exceed_minimal() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let mut rng = SimRng::new(7);
        let mut val_hops = 0usize;
        let mut min_hops = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            let src = rng.below(64);
            let mut dst = rng.below(64);
            while dst == src {
                dst = rng.below(64);
            }
            let (path, _) = walk(t, src, dst, &mut rng);
            val_hops += path.len() - 1;
            min_hops += t.min_hops(src, dst);
        }
        let ratio = val_hops as f64 / min_hops as f64;
        assert!(ratio > 1.5 && ratio < 2.5, "VAL should roughly double hops, got {ratio}");
    }

    #[test]
    fn valiant_on_torus_terminates() {
        let t = TopologyKind::Torus2D { k: 4 };
        let mut rng = SimRng::new(13);
        for s in 0..16 {
            for d in 0..16 {
                let (path, _) = walk(t, s, d, &mut rng);
                assert_eq!(*path.last().unwrap(), d);
            }
        }
    }
}
