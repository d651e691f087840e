//! Route enumeration: the public API other static passes consume, plus
//! the channel-dependency-graph builder that drives the deadlock
//! verdict.
//!
//! [`enumerate_routes`] walks every route the configured routing
//! function can produce and reports it to a [`RouteVisitor`]:
//!
//! * **Deterministic and oblivious two-phase routing** (DOR, Valiant,
//!   ROMM): every `(src, dst, intermediate)` choice yields one exact
//!   route. [`RouteVisitor::route`] announces it with its probability
//!   weight within the pair (Valiant draws the intermediate uniformly
//!   over all nodes; ROMM uniformly over the minimal box) and its
//!   initial [`RouteState`]; unless the visitor declines it, each of
//!   its links follows in path order through [`RouteVisitor::link`].
//! * **Minimal adaptive**: the route taken depends on runtime buffer
//!   occupancy, so there is no fixed path set. The enumerator instead
//!   propagates expected flow through the exact reachable
//!   `(node, dateline, last_dim)` state DAG, splitting each state's
//!   weight equally over its candidate ports, and delivers one
//!   [`RouteVisitor::flow`] link per state transition. This is an
//!   approximation of the runtime behavior (flagged by
//!   [`Enumeration::exact`] = false), but hop weights still conserve
//!   flow: per `(src, dst)` pair, one unit enters at `src` and one unit
//!   drains at `dst`.
//!
//! **The next-hop table.** Exact paths are not re-derived hop by hop.
//! [`enumerate_routes`] first fills one table per call,
//! `next[target * n + v] = (port, neighbor)`, with one
//! `candidates(lut, v, target, &RouteState::direct())` call per entry,
//! and walks every DOR, Valiant and ROMM route from it. This is exact
//! because a non-adaptive port depends only on `(v, effective_target)`:
//! no other part of a packet's state (phase, dateline, last dimension)
//! reaches `RouteLut::dor_port`, and a two-phase route is the DOR walk
//! to its intermediate followed by the DOR walk to its destination.
//! The visitor sees the same links in the same order as a hop-by-hop
//! walk would produce, so every float sum a consumer accumulates is the
//! same to the bit. A `#[cfg(test)]` twin that asks the routing function
//! at every hop is proptested against the table. The table holds `n²`
//! entries of 8 bytes, the size of the traffic matrix `noc-analytic`
//! already allocates, and is freed on return; a link costs one table
//! read and one statically dispatched [`RouteVisitor::link`] call.
//!
//! **State is computed where it is read.** The walk does not thread the
//! per-hop [`RouteState`]: a visitor that needs it (the CDG builder's VC
//! masks) keeps the `init` its `route` call received and advances it in
//! `link` with the same `RoutingKind::advance` the router calls, which
//! yields exactly the states a hop-by-hop walk would. A visitor that only
//! sums loads never pays for it.
//!
//! [`build_cdg`] consumes the same enumeration for the deterministic
//! kinds — consecutive hops contribute the cross-product of their legal
//! VC masks as dependency edges — and switches to Duato's *extended*
//! escape dependency graph for minimal adaptive routing (direct
//! escape-to-escape dependencies plus indirect ones bridged by adaptive
//! hops). Packet state is threaded exactly through every reachable
//! path, so escape VC selection is precise; only the waiting relation
//! is over-approximated, hence a cycle there yields `Unknown`, not
//! `Refuted`. Both adaptive passes read one state DAG per pair, built
//! by the same exploration (`StateDag`): the flow pass propagates
//! weight over it, the CDG pass escape-hop reachability.
//!
//! Analysis covers message class 0 only. `VcBook` gives every class a
//! disjoint, identically-shaped block of the VC space (by construction,
//! and `certify.rs` checks it), so a dependency cycle exists in some
//! class iff it exists in class 0.

use std::collections::HashMap;
use std::ops::Range;

use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_sim::routing::{RouteLut, RouteState, VcBook};

use crate::cdg::Cdg;

/// Size and exactness of one [`enumerate_routes`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Enumeration {
    /// Routes offered to the visitor, walked or declined (one per
    /// source, destination, and intermediate/state choice; one per pair
    /// for adaptive routing).
    pub routes: u64,
    /// True when every reported route is realizable exactly as stated —
    /// i.e. only [`RouteVisitor::route`] and [`RouteVisitor::link`] were
    /// used. Adaptive routing reports expected flow instead and clears
    /// this flag.
    pub exact: bool,
}

/// Consumer of a route enumeration.
///
/// Implementations accumulate whatever they need — dependency edges,
/// channel loads, hop-count distributions — from the exact walks the
/// verifier itself uses, instead of re-deriving routes from the routing
/// functions.
pub trait RouteVisitor {
    /// One exact route from `src` to `dst` begins, taken with
    /// probability `weight` among the pair's routes (weights over a pair
    /// sum to 1), with the packet in routing state `init` at `src`.
    /// Returning `false` skips its links.
    fn route(&mut self, src: usize, dst: usize, weight: f64, init: RouteState) -> bool;

    /// The current route's next link, in path order: the packet leaves
    /// `node` through output `port` (1-based; never the local port).
    fn link(&mut self, node: usize, port: usize);

    /// One expected-flow link of an adaptive route set: a packet from
    /// `src` to `dst` leaves `node` through output `port` an expected
    /// `weight` times (equal-split approximation over candidate ports).
    /// The default implementation ignores flow, which is correct for
    /// visitors that only consume exact paths.
    fn flow(&mut self, src: usize, dst: usize, weight: f64, node: usize, port: usize) {
        let _ = (src, dst, weight, node, port);
    }
}

/// Dense id of the channel `(cur --port--> neighbor, vc)`.
fn channel_id(topo: TopologyKind, cur: usize, port: usize, vc: usize, vcs: usize) -> u32 {
    debug_assert!(port >= 1);
    let link = cur * (topo.num_ports() - 1) + (port - 1);
    (link * vcs + vc) as u32
}

/// Append the ids of the channels of link `cur --port-->` whose VC is
/// in `mask` to `out`, lowest VC first.
fn push_channels(
    out: &mut Vec<u32>,
    topo: TopologyKind,
    cur: usize,
    port: usize,
    mask: u64,
    vcs: usize,
) {
    let mut bits = mask;
    while bits != 0 {
        let vc = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        out.push(channel_id(topo, cur, port, vc, vcs));
    }
}

/// Decode a channel id back to `(router, port, vc)`.
pub fn decode_channel(topo: TopologyKind, id: u32, vcs: usize) -> (usize, usize, usize) {
    let id = id as usize;
    let vc = id % vcs;
    let link = id / vcs;
    let ports = topo.num_ports() - 1;
    (link / ports, link % ports + 1, vc)
}

/// Enumerate every route of `cfg.routing` over `cfg.topology`, reporting
/// each to `visitor`. See the module docs for the exact semantics per
/// routing kind. Adaptive routes are walked with the engine's own
/// `candidates`/`advance` over a [`RouteLut`] built here from the
/// topology; deterministic and oblivious routes read their links from a
/// next-hop table filled once per call by the same `candidates` (module
/// docs).
pub fn enumerate_routes<V: RouteVisitor + ?Sized>(cfg: &NetConfig, visitor: &mut V) -> Enumeration {
    let (topo, routing) = (cfg.topology, cfg.routing);
    let lut = &RouteLut::new(topo);
    let n = topo.num_nodes();
    if routing != RoutingKind::MinAdaptive {
        let next = NextHop::new(topo, lut, routing);
        let walk = |src, dst, init, visitor: &mut V| next.walk(src, dst, init, visitor);
        return visit_paths(topo, lut, routing, visitor, walk);
    }
    // Adaptive traversability depends on the VC partition: a non-DOR
    // candidate is only usable when an adaptive VC exists for it.
    let book = VcBook::relaxed(cfg.vcs, cfg.classes, routing, topo).ok().map(|(book, _)| book);
    let mut routes = 0u64;
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                adaptive_flows(topo, lut, routing, book.as_ref(), src, dst, visitor);
                routes += 1;
            }
        }
    }
    Enumeration { routes, exact: false }
}

/// Report every exact route of a deterministic or oblivious `routing`
/// to `visitor`, in the one visit order every consumer's float sums
/// depend on: pairs row-major by `(src, dst)`, and per pair the direct
/// route first, then one route per intermediate in ascending node
/// order (Valiant) or in [`minimal_box`] order (ROMM). `walk` reports
/// the links of the route from `src` to `dst` starting in state `init`,
/// and runs only for the routes the visitor does not decline.
fn visit_paths<V: RouteVisitor + ?Sized>(
    topo: TopologyKind,
    lut: &RouteLut,
    routing: RoutingKind,
    visitor: &mut V,
    mut walk: impl FnMut(usize, usize, RouteState, &mut V),
) -> Enumeration {
    let n = topo.num_nodes();
    let mut routes = 0u64;
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let (w, mids) = match routing {
                // init() draws the intermediate uniformly over all n
                // nodes and maps mid == src to a direct route.
                RoutingKind::Valiant => (1.0 / n as f64, (0..n).collect()),
                // The intermediate is uniform over the minimal box
                // (independent per-dimension uniform steps).
                RoutingKind::Romm => {
                    let mids = minimal_box(topo, lut, src, dst);
                    (1.0 / mids.len() as f64, mids)
                }
                _ => (1.0, Vec::new()),
            };
            let mut offer = |init| {
                if visitor.route(src, dst, w, init) {
                    walk(src, dst, init, visitor);
                }
                routes += 1;
            };
            offer(RouteState::direct());
            for mid in mids {
                if mid != src {
                    offer(RouteState::via(mid));
                }
            }
        }
    }
    Enumeration { routes, exact: true }
}

/// The next-hop table of a non-adaptive routing function (the module
/// docs say why it is exact): for every `(target, v)` with
/// `v != target`, the output port a packet at `v` steering toward
/// `target` takes, and the router that port leads to.
struct NextHop {
    n: usize,
    /// `step[target * n + v]`: `(port, neighbor)`; the diagonal is
    /// never read (a packet at its target ejects).
    step: Vec<(u8, u32)>,
}

impl NextHop {
    fn new(topo: TopologyKind, lut: &RouteLut, routing: RoutingKind) -> Self {
        let n = topo.num_nodes();
        let ports = topo.num_ports();
        assert!(n <= u32::MAX as usize && ports <= u8::MAX as usize);
        // neighbors depend only on (v, port): ask the topology once each
        let neighbor: Vec<u32> = (0..n)
            .flat_map(|v| (0..ports).map(move |port| (v, port)))
            .map(|(v, port)| topo.neighbor(v, port).map_or(u32::MAX, |(u, _)| u as u32))
            .collect();
        let direct = RouteState::direct();
        let mut step = Vec::with_capacity(n * n);
        for target in 0..n {
            for v in 0..n {
                step.push(if v == target {
                    (0, u32::MAX)
                } else {
                    let port = routing.candidates(lut, v, target, &direct).get(0);
                    let next = neighbor[v * ports + port];
                    assert!(next != u32::MAX, "routing produced a dead port");
                    (port as u8, next)
                });
            }
        }
        Self { n, step }
    }

    /// Report the links of one route to `visitor`. A route's effective
    /// target changes only where the packet reaches its intermediate, so
    /// it is the row of `init`'s effective target and then the row of
    /// `dst` (the same row twice for a direct route, whose second pass
    /// is empty).
    fn walk<V: RouteVisitor + ?Sized>(
        &self,
        src: usize,
        dst: usize,
        init: RouteState,
        visitor: &mut V,
    ) {
        let mut cur = src;
        for target in [init.effective_target(src, dst), dst] {
            let row = &self.step[target * self.n..][..self.n];
            while cur != target {
                let (port, next) = row[cur];
                visitor.link(cur, port as usize);
                cur = next as usize;
            }
        }
    }
}

/// Packet state relevant to routing decisions at a router.
type StateKey = (usize, bool, u8); // (node, dateline, last_dim)

/// One transition of a [`StateDag`]: the packet leaves `node` through
/// output `port` and lands in state `to`.
struct DagHop {
    node: usize,
    port: usize,
    /// Routing state after the hop, as `advance` returns it.
    state: RouteState,
    to: usize,
    /// The hop is the DOR candidate, which the escape sub-network may
    /// take.
    dor: bool,
}

/// The exact reachable `(node, dateline, last_dim)` state DAG of one
/// `(src, dst)` pair of a minimal adaptive routing function, which both
/// adaptive passes read: [`adaptive_flows`] propagates expected flow
/// over it, [`escape_dependencies`] escape-hop reachability.
///
/// Every hop strictly decreases the distance to `dst`, so the states
/// form a DAG. States are numbered as they are discovered (state 0 is
/// `src`) and explored depth first, last discovered first; `hops` holds
/// every transition in that exploration order, each state's own hops
/// together and in candidate order.
struct StateDag {
    states: Vec<StateKey>,
    hops: Vec<DagHop>,
    /// `out[s]`: the range of `hops` leaving state `s` (empty for `dst`).
    out: Vec<Range<usize>>,
}

impl StateDag {
    /// Explore from `src`. A non-DOR candidate is traversable only when
    /// `book` gives it an adaptive VC; the DOR candidate always is, via
    /// the escape sub-network. Without a book every candidate is.
    fn explore(
        topo: TopologyKind,
        lut: &RouteLut,
        routing: RoutingKind,
        book: Option<&VcBook>,
        src: usize,
        dst: usize,
    ) -> Self {
        let init = RouteState::direct();
        let start: StateKey = (src, init.dateline, init.last_dim);
        let mut state_ix: HashMap<StateKey, usize> = HashMap::from([(start, 0)]);
        let mut dag = Self { states: vec![start], hops: Vec::new(), out: vec![Range::default()] };
        let mut frontier = vec![0usize];
        while let Some(si) = frontier.pop() {
            let (node, dateline, last_dim) = dag.states[si];
            if node == dst {
                continue;
            }
            let first = dag.hops.len();
            let state = RouteState { dateline, last_dim, ..RouteState::direct() };
            let cands = routing.candidates(lut, node, dst, &state);
            for (ci, port) in cands.iter().enumerate() {
                let ns = routing.advance(lut, node, port, &state);
                let next_node =
                    topo.neighbor(node, port).expect("adaptive candidate must be a live port").0;
                let dor = ci == 0;
                let no_adaptive_vc =
                    |book: &VcBook| book.allowed(0, ns.phase as usize, ns.dateline, false) == 0;
                if !dor && book.is_some_and(no_adaptive_vc) {
                    continue;
                }
                let key: StateKey = (next_node, ns.dateline, ns.last_dim);
                let to = *state_ix.entry(key).or_insert_with(|| {
                    dag.states.push(key);
                    dag.out.push(Range::default());
                    frontier.push(dag.states.len() - 1);
                    dag.states.len() - 1
                });
                dag.hops.push(DagHop { node, port, state: ns, to, dor });
            }
            dag.out[si] = first..dag.hops.len();
        }
        dag
    }
}

/// Emit the equal-split expected-flow links of one `(src, dst)` pair of
/// a minimal adaptive route set.
///
/// Weights are propagated over the pair's [`StateDag`] in order of
/// decreasing distance (all predecessors of a state are strictly
/// farther from `dst`), and each state splits its accumulated weight
/// equally over its hops.
fn adaptive_flows<V: RouteVisitor + ?Sized>(
    topo: TopologyKind,
    lut: &RouteLut,
    routing: RoutingKind,
    book: Option<&VcBook>,
    src: usize,
    dst: usize,
    visitor: &mut V,
) {
    let dag = StateDag::explore(topo, lut, routing, book, src, dst);
    // Propagate weight in order of decreasing distance to dst; ties in
    // distance never depend on each other (every hop moves closer).
    let mut order: Vec<usize> = (0..dag.states.len()).collect();
    order.sort_by_key(|&s| std::cmp::Reverse((topo.min_hops(dag.states[s].0, dst), s)));
    let mut weight = vec![0.0f64; dag.states.len()];
    weight[0] = 1.0;
    for s in order {
        let (w, out) = (weight[s], &dag.hops[dag.out[s].clone()]);
        if w <= 0.0 || out.is_empty() {
            continue;
        }
        let share = w / out.len() as f64;
        for hop in out {
            visitor.flow(src, dst, share, hop.node, hop.port);
            weight[hop.to] += share;
        }
    }
}

/// CDG plus enumeration metadata.
pub struct CdgBuild {
    /// The dependency graph.
    pub cdg: Cdg,
    /// Route walks enumerated.
    pub routes: u64,
    /// True when every edge is realizable by a real packet, so a cycle
    /// refutes deadlock freedom outright.
    pub exact: bool,
}

/// Accumulates CDG edges from exact route enumeration: consecutive links
/// contribute the cross-product of their legal VC masks. The packet's
/// state is threaded from each route's `init` by the router's own
/// `advance`, link by link.
struct CdgVisitor<'a> {
    topo: TopologyKind,
    routing: RoutingKind,
    lut: &'a RouteLut,
    book: &'a VcBook,
    cdg: &'a mut Cdg,
    /// The current route's state after its latest link.
    state: RouteState,
    /// Channels of the current route's previous link.
    prev: Vec<u32>,
    here: Vec<u32>,
}

impl RouteVisitor for CdgVisitor<'_> {
    fn route(&mut self, _src: usize, _dst: usize, _weight: f64, init: RouteState) -> bool {
        self.state = init;
        self.prev.clear();
        true
    }

    fn link(&mut self, node: usize, port: usize) {
        self.state = self.routing.advance(self.lut, node, port, &self.state);
        let vcs = self.book.vcs();
        let mask = self.book.allowed(0, self.state.phase as usize, self.state.dateline, false);
        self.here.clear();
        push_channels(&mut self.here, self.topo, node, port, mask, vcs);
        for &a in &self.prev {
            for &b in &self.here {
                self.cdg.add_edge(a, b);
            }
        }
        std::mem::swap(&mut self.prev, &mut self.here);
    }
}

/// Enumerate all routes of `cfg.routing` and build the CDG.
pub fn build_cdg(cfg: &NetConfig, book: &VcBook) -> CdgBuild {
    let topo = cfg.topology;
    let vcs = book.vcs();
    let mut cdg = Cdg::new(topo.num_nodes() * (topo.num_ports() - 1) * vcs);
    let lut = RouteLut::new(topo);
    if cfg.routing == RoutingKind::MinAdaptive {
        // Duato's criterion needs the escape sub-network's extended
        // dependency graph, not expected flow — built separately.
        let n = topo.num_nodes();
        let mut routes = 0u64;
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    escape_dependencies(topo, &lut, cfg.routing, book, &mut cdg, src, dst);
                    routes += 1;
                }
            }
        }
        return CdgBuild { cdg, routes, exact: false };
    }
    let mut visitor = CdgVisitor {
        topo,
        routing: cfg.routing,
        lut: &lut,
        book,
        cdg: &mut cdg,
        state: RouteState::direct(),
        prev: Vec::new(),
        here: Vec::new(),
    };
    let e = enumerate_routes(cfg, &mut visitor);
    CdgBuild { cdg, routes: e.routes, exact: e.exact }
}

/// All nodes inside the minimal quadrant between `src` and `dst`, in
/// the order ROMM's per-dimension draw visits them; direction and extent
/// per dimension come from [`RouteLut::heading`], the same call ROMM's
/// `init` samples from.
pub fn minimal_box(topo: TopologyKind, lut: &RouteLut, src: usize, dst: usize) -> Vec<usize> {
    let cs = topo.coords_of(src);
    let cd = topo.coords_of(dst);
    let mut nodes = vec![cs];
    for d in 0..topo.dims() {
        let k = topo.radix(d);
        let (go_plus, dist) = lut.heading(d, cs[d] as u16, cd[d] as u16);
        let mut next = Vec::with_capacity(nodes.len() * (dist as usize + 1));
        for base in &nodes {
            for step in 0..=dist as usize {
                let mut nc = *base;
                nc[d] = if go_plus { (cs[d] + step) % k } else { (cs[d] + k - step) % k };
                next.push(nc);
            }
        }
        nodes = next;
    }
    nodes.iter().map(|c| topo.node_at(c)).collect()
}

/// One escape hop of a pair's [`StateDag`].
struct EscapeHop {
    /// State index the hop lands in.
    head_state: usize,
    /// Channel ids (escape VCs) the hop occupies.
    channels: Vec<u32>,
}

/// Build the extended escape-network dependency graph for one
/// `(src, dst)` pair of a minimal adaptive routing function.
///
/// Every DOR hop of the pair's [`StateDag`] is an escape hop, numbered
/// in exploration order. A reverse pass over the DAG computes, for each
/// state, the set of escape hops reachable from it, and every escape
/// hop gains an edge to every escape hop reachable beyond it (the
/// transitive closure of direct + adaptive-bridged dependencies, which
/// has the same cycles as Duato's extended dependency graph).
fn escape_dependencies(
    topo: TopologyKind,
    lut: &RouteLut,
    routing: RoutingKind,
    book: &VcBook,
    cdg: &mut Cdg,
    src: usize,
    dst: usize,
) {
    let vcs = book.vcs();
    let dag = StateDag::explore(topo, lut, routing, Some(book), src, dst);
    let mut escapes: Vec<EscapeHop> = Vec::new();
    // per hop: its escape hop id, if it is a DOR hop
    let mut escape_of = vec![None; dag.hops.len()];
    for (h, hop) in dag.hops.iter().enumerate().filter(|(_, hop)| hop.dor) {
        let emask = book.allowed(0, hop.state.phase as usize, hop.state.dateline, true);
        let mut channels = Vec::new();
        push_channels(&mut channels, topo, hop.node, hop.port, emask, vcs);
        escape_of[h] = Some(escapes.len());
        escapes.push(EscapeHop { head_state: hop.to, channels });
    }

    // reach[s] = bitset of escape hops reachable from state s; computed
    // in order of increasing distance to dst (all successors first).
    let words = escapes.len().div_ceil(64);
    let mut reach: Vec<Vec<u64>> = vec![vec![0u64; words]; dag.states.len()];
    let mut order: Vec<usize> = (0..dag.states.len()).collect();
    order.sort_by_key(|&s| topo.min_hops(dag.states[s].0, dst));
    for s in order {
        let mut acc = vec![0u64; words];
        for h in dag.out[s].clone() {
            for (a, &r) in acc.iter_mut().zip(&reach[dag.hops[h].to]) {
                *a |= r;
            }
            if let Some(e) = escape_of[h] {
                acc[e / 64] |= 1 << (e % 64);
            }
        }
        reach[s] = acc;
    }

    for hop in &escapes {
        let r = &reach[hop.head_state];
        for (w, &word) in r.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let e2 = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for &a in &hop.channels {
                    for &b in &escapes[e2].channels {
                        cdg.add_edge(a, b);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One committed hop of a route: the packet leaves `node` through
    /// output `port`, landing in the routing state `state`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Hop {
        node: usize,
        port: usize,
        state: RouteState,
    }

    /// Walk one deterministic route into `hops` (cleared first), asking
    /// the routing function and the topology at every hop: the reference
    /// twin [`NextHop::walk`] is tested against.
    fn walk_path(
        topo: TopologyKind,
        lut: &RouteLut,
        routing: RoutingKind,
        src: usize,
        dst: usize,
        init: RouteState,
        hops: &mut Vec<Hop>,
    ) {
        hops.clear();
        let mut cur = src;
        let mut state = init;
        loop {
            let cands = routing.candidates(lut, cur, dst, &state);
            if cands.is_empty() {
                return; // ejected
            }
            // Deterministic/oblivious routing emits exactly one candidate.
            let port = cands.get(0);
            let ns = routing.advance(lut, cur, port, &state);
            hops.push(Hop { node: cur, port, state: ns });
            cur = topo.neighbor(cur, port).expect("routing produced a dead port").0;
            state = ns;
        }
    }

    /// Collects routes (with their link counts) and flows for assertions.
    #[derive(Default)]
    struct Collect {
        paths: Vec<(usize, usize, f64, usize)>,
        flows: Vec<(usize, usize, f64, usize, usize)>,
    }

    impl RouteVisitor for Collect {
        fn route(&mut self, src: usize, dst: usize, weight: f64, _init: RouteState) -> bool {
            self.paths.push((src, dst, weight, 0));
            true
        }

        fn link(&mut self, _node: usize, _port: usize) {
            self.paths.last_mut().expect("a link belongs to a route").3 += 1;
        }

        fn flow(&mut self, src: usize, dst: usize, weight: f64, node: usize, port: usize) {
            self.flows.push((src, dst, weight, node, port));
        }
    }

    #[test]
    fn dor_paths_are_minimal_and_unit_weight() {
        let cfg = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 });
        let topo = cfg.topology;
        let mut v = Collect::default();
        let e = enumerate_routes(&cfg, &mut v);
        assert!(e.exact);
        assert_eq!(e.routes, 16 * 15);
        assert_eq!(v.paths.len(), 16 * 15);
        for &(src, dst, w, len) in &v.paths {
            assert_eq!(w, 1.0);
            assert_eq!(len, topo.min_hops(src, dst), "{src}->{dst}");
        }
    }

    #[test]
    fn valiant_weights_sum_to_one_per_pair() {
        let cfg = NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k: 4 })
            .with_routing(RoutingKind::Valiant);
        let mut v = Collect::default();
        let e = enumerate_routes(&cfg, &mut v);
        assert!(e.exact);
        let total: f64 = v.paths.iter().filter(|p| p.0 == 0 && p.1 == 5).map(|p| p.2).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    }

    #[test]
    fn romm_weights_sum_to_one_and_paths_are_minimal() {
        let cfg = NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k: 4 })
            .with_routing(RoutingKind::Romm);
        let topo = cfg.topology;
        let mut v = Collect::default();
        enumerate_routes(&cfg, &mut v);
        for (src, dst) in [(0usize, 15usize), (3, 12), (1, 2)] {
            let pair: Vec<_> = v.paths.iter().filter(|p| p.0 == src && p.1 == dst).collect();
            let total: f64 = pair.iter().map(|p| p.2).sum();
            assert!((total - 1.0).abs() < 1e-9, "{src}->{dst}: {total}");
            for p in pair {
                assert_eq!(p.3, topo.min_hops(src, dst), "ROMM path must stay minimal");
            }
        }
    }

    #[test]
    fn adaptive_flow_conserves_per_pair() {
        let cfg = NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k: 4 })
            .with_routing(RoutingKind::MinAdaptive);
        let topo = cfg.topology;
        let mut v = Collect::default();
        let e = enumerate_routes(&cfg, &mut v);
        assert!(!e.exact);
        assert!(v.paths.is_empty());
        // flow into each node minus flow out must be 0 everywhere except
        // -1 at src and +1 at dst
        let (src, dst) = (0usize, 15usize);
        let mut net = [0.0f64; 16];
        for &(s, d, w, node, port) in &v.flows {
            if (s, d) != (src, dst) {
                continue;
            }
            net[node] -= w;
            let to = topo.neighbor(node, port).unwrap().0;
            net[to] += w;
        }
        for (node, &flux) in net.iter().enumerate() {
            let expect = if node == src {
                -1.0
            } else if node == dst {
                1.0
            } else {
                0.0
            };
            assert!((flux - expect).abs() < 1e-9, "node {node}: {flux} != {expect}");
        }
    }

    /// One route, exactly as a visitor saw it: `src`, `dst`, the weight
    /// as bits, `init`, and its links as hops with their states.
    type Visit = (usize, usize, u64, RouteState, Vec<Hop>);

    /// The reference transcript: `route` calls as offered, each route's
    /// hops (states included) written by the hop-by-hop `walk_path`.
    #[derive(Default)]
    struct Transcript(Vec<Visit>);

    impl RouteVisitor for Transcript {
        fn route(&mut self, src: usize, dst: usize, weight: f64, init: RouteState) -> bool {
            self.0.push((src, dst, weight.to_bits(), init, Vec::new()));
            true
        }

        fn link(&mut self, _node: usize, _port: usize) {
            unreachable!("the reference walk writes its own hops")
        }
    }

    /// Replays a transcript against the link-by-link protocol and fails
    /// at the first route that differs. It threads each route's state
    /// from `init` with the router's `advance`, as the CDG builder does,
    /// so the states are compared too.
    struct Replay {
        want: std::vec::IntoIter<Visit>,
        got: Option<Visit>,
        routing: RoutingKind,
        lut: RouteLut,
        routes: usize,
    }

    impl Replay {
        /// Compare the route reported so far, if any, with the next one
        /// the reference walked.
        fn check(&mut self) {
            if let Some(got) = self.got.take() {
                let want = self.want.next().expect("more routes than the reference walked");
                assert_eq!(got, want, "route {}", self.routes);
                self.routes += 1;
            }
        }
    }

    impl RouteVisitor for Replay {
        fn route(&mut self, src: usize, dst: usize, weight: f64, init: RouteState) -> bool {
            self.check();
            self.got = Some((src, dst, weight.to_bits(), init, Vec::new()));
            true
        }

        fn link(&mut self, node: usize, port: usize) {
            let (.., init, hops) = self.got.as_mut().expect("a link belongs to a route");
            let state = hops.last().map_or(*init, |hop| hop.state);
            let state = self.routing.advance(&self.lut, node, port, &state);
            hops.push(Hop { node, port, state });
        }
    }

    /// The four variants at radix 2..=`max_k`, rings of 2..=16 nodes.
    fn cube(max_k: usize) -> impl Strategy<Value = TopologyKind> {
        (0usize..4, 2usize..=max_k, 2usize..=16).prop_map(|(kind, k, n)| match kind {
            0 => TopologyKind::Mesh2D { k },
            1 => TopologyKind::Torus2D { k },
            2 => TopologyKind::FoldedTorus2D { k },
            _ => TopologyKind::Ring { n },
        })
    }

    /// The table walk is the reference walk: `enumerate_routes` tells the
    /// visitor exactly what the hop-by-hop `walk_path` does — same routes,
    /// same order, same weight bits and `init`, same links — and the
    /// states `advance` threads from `init` over those links are the
    /// reference walk's states.
    fn assert_table_walk_matches_the_reference_walk(topo: TopologyKind, routing: RoutingKind) {
        let lut = RouteLut::new(topo);
        let mut reference = Transcript::default();
        let walk = |src, dst, init, t: &mut Transcript| {
            let hops = &mut t.0.last_mut().expect("walked after its route call").4;
            walk_path(topo, &lut, routing, src, dst, init, hops)
        };
        let want = visit_paths(topo, &lut, routing, &mut reference, walk);
        let cfg = NetConfig::baseline().with_topology(topo).with_routing(routing);
        let mut replay =
            Replay { want: reference.0.into_iter(), got: None, routing, lut, routes: 0 };
        let got = enumerate_routes(&cfg, &mut replay);
        replay.check();
        assert_eq!(got, want);
        assert!(replay.want.next().is_none(), "fewer routes than the reference walked");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn table_walk_matches_the_reference_walk(
            topo in cube(7),
            routing in prop_oneof![Just(RoutingKind::Dor), Just(RoutingKind::Romm)],
        ) {
            assert_table_walk_matches_the_reference_walk(topo, routing);
        }

        /// Valiant walks n^3 routes, so its radix stops at 5.
        #[test]
        fn table_walk_matches_the_reference_walk_under_valiant(topo in cube(5)) {
            assert_table_walk_matches_the_reference_walk(topo, RoutingKind::Valiant);
        }
    }
}
