//! ROMM: Randomized, Oblivious, Multi-phase Minimal routing
//! (Nesson & Johnsson, SPAA '95). Two-phase ROMM draws the intermediate
//! node uniformly from the *minimal quadrant* between source and
//! destination, so the full path remains minimal while spreading load
//! over many minimal paths.

use super::RouteLut;
use crate::config::TopologyKind;
use crate::rng::SimRng;
use crate::topology::{Coords, MAX_DIMS};

/// Sample an intermediate node inside the minimal box from `src` to
/// `dst` (inclusive of both endpoints): one uniform draw per unresolved
/// dimension, in ascending dimension order.
pub(super) fn sample_mid(
    topo: TopologyKind,
    lut: &RouteLut,
    src: usize,
    dst: usize,
    rng: &mut SimRng,
) -> usize {
    let (cs, cd) = lut.rows(src, dst);
    let mut mid: Coords = [0; MAX_DIMS];
    for d in 0..lut.dims {
        let (c, k) = (cs[d] as usize, lut.radix[d] as usize);
        let (go_plus, dist) = lut.heading(d, cs[d], cd[d]);
        mid[d] = if dist == 0 {
            c
        } else {
            let step = rng.below(dist as usize + 1); // 0..=dist keeps us in the box
            if go_plus {
                (c + step) % k
            } else {
                (c + k - step) % k
            }
        };
    }
    topo.node_at(&mid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoutingKind;

    fn walk(topo: TopologyKind, src: usize, dst: usize, rng: &mut SimRng) -> Vec<usize> {
        super::super::tests::walk(topo, RoutingKind::Romm, src, dst, rng).0
    }

    #[test]
    fn romm_is_minimal_on_mesh() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let mut rng = SimRng::new(23);
        for _ in 0..500 {
            let src = rng.below(64);
            let dst = rng.below(64);
            let path = walk(t, src, dst, &mut rng);
            assert_eq!(*path.last().unwrap(), dst);
            assert_eq!(path.len() - 1, t.min_hops(src, dst), "ROMM must stay minimal");
        }
    }

    #[test]
    fn romm_is_minimal_on_torus() {
        let t = TopologyKind::Torus2D { k: 6 };
        let mut rng = SimRng::new(29);
        for _ in 0..500 {
            let src = rng.below(36);
            let dst = rng.below(36);
            let path = walk(t, src, dst, &mut rng);
            assert_eq!(*path.last().unwrap(), dst);
            assert_eq!(path.len() - 1, t.min_hops(src, dst));
        }
    }

    #[test]
    fn romm_mid_stays_in_box() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let mut rng = SimRng::new(31);
        let src = t.node_at(&[1, 2, 0, 0]);
        let dst = t.node_at(&[5, 6, 0, 0]);
        let lut = RouteLut::new(t);
        for _ in 0..200 {
            let mid = sample_mid(t, &lut, src, dst, &mut rng);
            let c = t.coords_of(mid);
            assert!((1..=5).contains(&c[0]) && (2..=6).contains(&c[1]), "mid {c:?} outside box");
        }
    }

    #[test]
    fn romm_spreads_paths() {
        // Unlike DOR, ROMM should use more than one distinct path between
        // a corner pair over many trials.
        let t = TopologyKind::Mesh2D { k: 4 };
        let mut rng = SimRng::new(37);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            distinct.insert(walk(t, 0, 15, &mut rng));
        }
        assert!(distinct.len() > 3, "only {} distinct paths", distinct.len());
    }

    #[test]
    fn romm_same_node() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let mut rng = SimRng::new(41);
        let path = walk(t, 5, 5, &mut rng);
        assert_eq!(path, vec![5]);
    }
}
