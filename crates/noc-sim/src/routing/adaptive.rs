//! Minimal adaptive (MA) routing with a DOR escape channel (Duato's
//! protocol): a packet may take any productive minimal port, chosen by
//! the router based on downstream credit availability. Deadlock freedom
//! comes from Duato's protocol: each (class, phase) VC block reserves
//! escape VC(s) on which packets are restricted to the deterministic DOR
//! output, guaranteeing a deadlock-free escape sub-network that blocked
//! packets eventually use.

#[cfg(test)]
mod tests {
    use crate::config::RoutingKind::MinAdaptive;
    use crate::config::TopologyKind;
    use crate::rng::SimRng;
    use crate::routing::{RouteLut, RouteState};

    #[test]
    fn ma_candidates_are_minimal_and_dor_first() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let lut = RouteLut::new(t);
        let algo = MinAdaptive;
        let mut rng = SimRng::new(1);
        for _ in 0..500 {
            let src = rng.below(64);
            let dst = rng.below(64);
            if src == dst {
                continue;
            }
            let state = algo.init(t, &lut, src, dst, &mut rng);
            let cands = algo.candidates(&lut, src, dst, &state);
            assert!(!cands.is_empty());
            // every candidate must reduce distance by exactly 1
            for p in cands.iter() {
                let next = t.neighbor(src, p).unwrap().0;
                assert_eq!(t.min_hops(next, dst), t.min_hops(src, dst) - 1);
            }
            // first candidate is the DOR port
            assert_eq!(cands.get(0), lut.dor_port(src, dst).unwrap());
        }
    }

    #[test]
    fn ma_any_candidate_walk_reaches_dst_minimally() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let lut = RouteLut::new(t);
        let algo = MinAdaptive;
        let mut rng = SimRng::new(2);
        for _ in 0..300 {
            let src = rng.below(64);
            let dst = rng.below(64);
            let mut state = algo.init(t, &lut, src, dst, &mut rng);
            let mut cur = src;
            let mut hops = 0;
            while cur != dst {
                let cands = algo.candidates(&lut, cur, dst, &state);
                assert!(!cands.is_empty());
                // take a random candidate to exercise adaptivity
                let port = cands.get(rng.below(cands.len()));
                state = algo.advance(&lut, cur, port, &state);
                cur = t.neighbor(cur, port).unwrap().0;
                hops += 1;
                assert!(hops <= t.min_hops(src, dst), "walk exceeded minimal length");
            }
            assert_eq!(hops, t.min_hops(src, dst));
        }
    }

    #[test]
    fn ma_two_candidates_when_both_dims_unresolved() {
        let lut = RouteLut::new(TopologyKind::Mesh2D { k: 4 });
        let algo = MinAdaptive;
        let cands = algo.candidates(&lut, 0, 15, &RouteState::direct());
        assert_eq!(cands.len(), 2);
        let cands1 = algo.candidates(&lut, 0, 3, &RouteState::direct());
        assert_eq!(cands1.len(), 1);
    }
}
