//! Dimension-ordered routing (DOR / XY): fully resolve dimension 0, then
//! dimension 1, and so on. Minimal and deadlock-free on meshes; on tori
//! it relies on dateline VC switching (handled by the VC book).

#[cfg(test)]
mod tests {
    use crate::config::RoutingKind::Dor;
    use crate::config::TopologyKind;
    use crate::rng::SimRng;
    use crate::routing::{RouteLut, RouteState};
    use crate::topology::port_plus;

    /// Walk a packet from src to dst taking the first candidate each hop.
    fn walk(topo: TopologyKind, src: usize, dst: usize) -> Vec<usize> {
        super::super::tests::walk(topo, Dor, src, dst, &mut SimRng::new(1)).0
    }

    #[test]
    fn dor_reaches_all_destinations_mesh() {
        let t = TopologyKind::Mesh2D { k: 4 };
        for s in 0..16 {
            for d in 0..16 {
                let path = walk(t, s, d);
                assert_eq!(*path.last().unwrap(), d);
                assert_eq!(path.len() - 1, t.min_hops(s, d), "DOR must be minimal");
            }
        }
    }

    #[test]
    fn dor_reaches_all_destinations_torus_and_ring() {
        for t in [TopologyKind::Torus2D { k: 4 }, TopologyKind::Ring { n: 8 }] {
            for s in 0..t.num_nodes() {
                for d in 0..t.num_nodes() {
                    let path = walk(t, s, d);
                    assert_eq!(*path.last().unwrap(), d);
                    assert_eq!(path.len() - 1, t.min_hops(s, d));
                }
            }
        }
    }

    #[test]
    fn dor_x_before_y() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let path = walk(t, 0, t.node_at(&[2, 2, 0, 0]));
        // nodes 0 -> 1 -> 2 -> 6 -> 10
        assert_eq!(path, vec![0, 1, 2, 6, 10]);
    }

    #[test]
    fn dor_single_candidate() {
        let lut = RouteLut::new(TopologyKind::Mesh2D { k: 4 });
        let c = Dor.candidates(&lut, 0, 5, &RouteState::direct());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0), port_plus(0));
        assert!(Dor.candidates(&lut, 5, 5, &RouteState::direct()).is_empty());
    }
}
