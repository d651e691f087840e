//! Route tracing on an idle network (paper Fig 12: example DOR vs VAL
//! paths between a source/destination pair).

use crate::config::{RoutingKind, TopologyKind};
use crate::rng::SimRng;
use crate::routing::RouteLut;

/// The nodes a packet would visit from `src` to `dst` under `routing`
/// (taking the primary — DOR — candidate at every hop), including both
/// endpoints. For two-phase algorithms the randomly chosen intermediate
/// depends on `seed`.
///
/// # Panics
/// If `src` or `dst` is not a node of `topo`. A dead output port or a
/// route longer than `4 * nodes` hops would be a routing bug, and
/// panics naming `src`, `dst` and the node.
pub fn trace_route(
    topo: TopologyKind,
    routing: RoutingKind,
    src: usize,
    dst: usize,
    seed: u64,
) -> Vec<usize> {
    let n = topo.num_nodes();
    assert!(src < n && dst < n, "trace {src} -> {dst}: not a pair of the {n} nodes");
    let lut = RouteLut::new(topo);
    let mut rng = SimRng::new(seed);
    let mut state = routing.init(topo, &lut, src, dst, &mut rng);
    let mut cur = src;
    let mut path = vec![cur];
    // generous bound: no route should exceed twice the network diameter
    for _ in 0..4 * n {
        let cands = routing.candidates(&lut, cur, dst, &state);
        if cands.is_empty() {
            return path; // candidates run out only at dst
        }
        let port = cands.get(0);
        state = routing.advance(&lut, cur, port, &state);
        let Some((next, _)) = topo.neighbor(cur, port) else {
            panic!("trace {src} -> {dst}: routing picked dead port {port} at node {cur}");
        };
        cur = next;
        path.push(cur);
    }
    panic!("trace {src} -> {dst}: no termination within the hop bound (at node {cur})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoutingKind::{Dor, Valiant};

    #[test]
    fn dor_trace_corner_to_corner() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let path = trace_route(t, Dor, 0, 63, 1);
        assert_eq!(path.len(), 15); // 14 hops
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), 63);
    }

    #[test]
    fn valiant_trace_visits_intermediate() {
        let t = TopologyKind::Mesh2D { k: 8 };
        // For corner-to-corner transpose partners, VAL's intermediate is in
        // the minimal rectangle with probability ~1 only when it happens to
        // be; just verify termination and variable length.
        let p1 = trace_route(t, Valiant, 0, 63, 1);
        let p2 = trace_route(t, Valiant, 0, 63, 2);
        assert_eq!(*p1.last().unwrap(), 63);
        assert_eq!(*p2.last().unwrap(), 63);
    }

    #[test]
    fn trace_self_is_trivial() {
        let t = TopologyKind::Mesh2D { k: 4 };
        assert_eq!(trace_route(t, Dor, 5, 5, 0), vec![5]);
    }
}
