//! Route tracing on an idle network (paper Fig 12: example DOR vs VAL
//! paths between a source/destination pair).

use std::fmt;

use crate::config::TopologyKind;
use crate::rng::SimRng;
use crate::routing::{RouteLut, RoutingAlgorithm};

/// Why a route trace could not be completed.
///
/// Every variant indicates a misbehaving routing function (or a
/// topology/routing mismatch), not a property of the traffic: a correct
/// algorithm always produces a finite path ending at the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The routing function nominated an output port with no link behind
    /// it (fell off a mesh edge).
    Disconnected {
        /// Node where the dead port was selected.
        at: usize,
        /// The unconnected output port.
        port: usize,
        /// Nodes visited so far, including `at`.
        path: Vec<usize>,
    },
    /// The routing function stopped producing candidates (or exhausted
    /// the hop bound) before reaching the destination.
    Unterminated {
        /// Trace source.
        src: usize,
        /// Trace destination.
        dst: usize,
        /// Node where the trace stalled.
        stopped_at: usize,
        /// Hops taken before stalling.
        hops: usize,
        /// Whether the hop bound was exhausted (a routing livelock) as
        /// opposed to the candidate set going empty early.
        bound_exhausted: bool,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Disconnected { at, port, path } => write!(
                f,
                "route trace selected dead output port {port} at node {at} \
                 (path so far: {path:?})"
            ),
            TraceError::Unterminated { src, dst, stopped_at, hops, bound_exhausted } => {
                let why = if *bound_exhausted {
                    "exceeded the hop bound (routing livelock?)"
                } else {
                    "ran out of candidate ports"
                };
                write!(
                    f,
                    "route trace {src} -> {dst} {why} at node {stopped_at} after {hops} hop(s)"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The nodes a packet would visit from `src` to `dst` under `routing`
/// (taking the primary — DOR — candidate at every hop), including both
/// endpoints. For two-phase algorithms the randomly chosen intermediate
/// depends on `seed`.
///
/// Returns a [`TraceError`] instead of panicking when the routing
/// function misbehaves (dead port, empty candidate set away from the
/// destination, or no termination within `4 * nodes` hops), so figure
/// and verification code can report the failure and continue.
pub fn trace_route(
    topo: TopologyKind,
    routing: &dyn RoutingAlgorithm,
    src: usize,
    dst: usize,
    seed: u64,
) -> Result<Vec<usize>, TraceError> {
    let lut = RouteLut::new(topo);
    let mut rng = SimRng::new(seed);
    let mut state = routing.init(topo, &lut, src, dst, &mut rng);
    let mut cur = src;
    let mut path = vec![cur];
    // generous bound: no route should exceed twice the network diameter
    let bound = 4 * topo.num_nodes();
    let mut bound_exhausted = true;
    for _ in 0..bound {
        let cands = routing.candidates(&lut, cur, dst, &state);
        if cands.is_empty() {
            bound_exhausted = false;
            break;
        }
        let port = cands.get(0);
        state = routing.advance(&lut, cur, port, &state);
        cur = match topo.neighbor(cur, port) {
            Some((next, _)) => next,
            None => return Err(TraceError::Disconnected { at: cur, port, path }),
        };
        path.push(cur);
    }
    if cur != dst {
        return Err(TraceError::Unterminated {
            src,
            dst,
            stopped_at: cur,
            hops: path.len() - 1,
            bound_exhausted,
        });
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoutingKind::{Dor, Valiant};
    use crate::routing::{PortSet, RouteState};

    #[test]
    fn dor_trace_corner_to_corner() {
        let t = TopologyKind::Mesh2D { k: 8 };
        let path = trace_route(t, &Dor, 0, 63, 1).unwrap();
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
        let p1 = trace_route(t, &Valiant, 0, 63, 1).unwrap();
        let p2 = trace_route(t, &Valiant, 0, 63, 2).unwrap();
        assert_eq!(*p1.last().unwrap(), 63);
        assert_eq!(*p2.last().unwrap(), 63);
    }

    #[test]
    fn trace_self_is_trivial() {
        let t = TopologyKind::Mesh2D { k: 4 };
        assert_eq!(trace_route(t, &Dor, 5, 5, 0).unwrap(), vec![5]);
    }

    /// A routing function that ping-pongs between two neighbors forever.
    struct PingPong;

    impl RoutingAlgorithm for PingPong {
        fn name(&self) -> &'static str {
            "PINGPONG"
        }
        fn num_phases(&self) -> usize {
            1
        }
        fn is_adaptive(&self) -> bool {
            false
        }
        fn init(
            &self,
            _topo: TopologyKind,
            _lut: &RouteLut,
            _src: usize,
            _dst: usize,
            _rng: &mut SimRng,
        ) -> RouteState {
            RouteState::direct()
        }
        fn candidates(&self, _: &RouteLut, cur: usize, _dst: usize, _: &RouteState) -> PortSet {
            use crate::topology::{port_minus, port_plus};
            let mut set = PortSet::new();
            // +x from even nodes, -x from odd: back and forth along one link
            set.push(if cur.is_multiple_of(2) { port_plus(0) } else { port_minus(0) });
            set
        }
        fn advance(
            &self,
            _: &RouteLut,
            _cur: usize,
            _port: usize,
            state: &RouteState,
        ) -> RouteState {
            *state
        }
    }

    /// A routing function that walks off the mesh edge.
    struct EdgeJumper;

    impl RoutingAlgorithm for EdgeJumper {
        fn name(&self) -> &'static str {
            "EDGE"
        }
        fn num_phases(&self) -> usize {
            1
        }
        fn is_adaptive(&self) -> bool {
            false
        }
        fn init(
            &self,
            _topo: TopologyKind,
            _lut: &RouteLut,
            _src: usize,
            _dst: usize,
            _rng: &mut SimRng,
        ) -> RouteState {
            RouteState::direct()
        }
        fn candidates(&self, _: &RouteLut, _cur: usize, _dst: usize, _: &RouteState) -> PortSet {
            let mut set = PortSet::new();
            set.push(crate::topology::port_minus(0)); // -x from node 0: off the edge
            set
        }
        fn advance(
            &self,
            _: &RouteLut,
            _cur: usize,
            _port: usize,
            state: &RouteState,
        ) -> RouteState {
            *state
        }
    }

    #[test]
    fn livelocked_routing_reports_instead_of_panicking() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let err = trace_route(t, &PingPong, 0, 15, 0).unwrap_err();
        match &err {
            TraceError::Unterminated { src, dst, hops, bound_exhausted, .. } => {
                assert_eq!((*src, *dst), (0, 15));
                assert_eq!(*hops, 4 * 16);
                assert!(bound_exhausted);
            }
            other => panic!("expected Unterminated, got {other:?}"),
        }
        assert!(err.to_string().contains("livelock"), "{err}");
    }

    #[test]
    fn dead_port_reports_instead_of_panicking() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let err = trace_route(t, &EdgeJumper, 0, 15, 0).unwrap_err();
        match &err {
            TraceError::Disconnected { at, path, .. } => {
                assert_eq!(*at, 0);
                assert_eq!(path, &vec![0]);
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
        assert!(err.to_string().contains("dead output port"), "{err}");
    }
}
