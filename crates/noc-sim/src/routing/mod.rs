//! Routing algorithms and virtual-channel partitioning.
//!
//! Implemented algorithms (Table I of the paper), the four variants of
//! [`RoutingKind`], which is the routing function itself:
//! * [`RoutingKind::Dor`] — dimension-ordered routing (X then Y),
//!   deterministic minimal;
//! * [`RoutingKind::Valiant`] — VAL: route to a uniformly random
//!   intermediate node, then to the destination, DOR in each phase;
//! * [`RoutingKind::Romm`] — two-phase randomized minimal: the
//!   intermediate is drawn from the minimal quadrant, so the overall path
//!   stays minimal;
//! * [`RoutingKind::MinAdaptive`] — minimal adaptive with a Duato-style
//!   DOR escape VC.
//!
//! # Deadlock freedom
//!
//! Virtual channels are partitioned by *(message class) x (routing phase)*;
//! within each block, wrap-around (torus/ring) dimensions use dateline VC
//! switching, and adaptive routing reserves escape VCs that are restricted
//! to the DOR output. [`VcBook`] computes the partition and validates that
//! the configured VC count suffices — a too-small count is a configuration
//! error, not a silent deadlock.

#[cfg(test)]
mod adaptive;
#[cfg(test)]
mod dor;
mod romm;
#[cfg(test)]
mod valiant;

use crate::config::{RoutingKind, TopologyKind};
use crate::error::ConfigError;
use crate::rng::SimRng;
use crate::topology::MAX_DIMS;

/// Per-packet routing state carried on the head flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteState {
    /// Intermediate node for two-phase algorithms (`usize::MAX` if none).
    pub intermediate: usize,
    /// Current phase (0 = toward intermediate, 1 = toward destination).
    pub phase: u8,
    /// Set when the packet has crossed the current dimension's dateline.
    pub dateline: bool,
    /// Dimension the packet was last routed in (dateline resets when the
    /// dimension changes); `u8::MAX` before the first hop.
    pub last_dim: u8,
}

impl RouteState {
    /// State for a single-phase route.
    pub fn direct() -> Self {
        Self { intermediate: usize::MAX, phase: 1, dateline: false, last_dim: u8::MAX }
    }

    /// State for a two-phase route through `mid`.
    pub fn via(mid: usize) -> Self {
        Self { intermediate: mid, phase: 0, dateline: false, last_dim: u8::MAX }
    }

    /// The node this packet is currently steering toward.
    pub fn target(&self, dst: usize) -> usize {
        if self.phase == 0 {
            self.intermediate
        } else {
            dst
        }
    }

    /// Routing target accounting for the phase transition: a packet
    /// sitting *at* its intermediate routes toward the destination (the
    /// flip is applied to its state by `advance` when the next
    /// hop commits, so the hop out of the intermediate uses phase-1
    /// VCs while the hop into it used phase-0 VCs — this ordering is
    /// what keeps the two phase sub-networks' channel dependencies
    /// acyclic).
    pub fn effective_target(&self, cur: usize, dst: usize) -> usize {
        if self.phase == 0 && cur == self.intermediate {
            dst
        } else {
            self.target(dst)
        }
    }
}

/// A small inline set of candidate output ports, in priority order.
/// By convention the first entry is always the DOR (escape-safe) port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortSet {
    ports: [u8; 8],
    len: u8,
}

impl PortSet {
    /// Empty set.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a port.
    ///
    /// # Panics
    /// If more than 8 ports are pushed (no supported topology has more).
    #[inline]
    pub fn push(&mut self, port: usize) {
        assert!((self.len as usize) < 8, "too many candidate ports");
        self.ports[self.len as usize] = port as u8;
        self.len += 1;
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no candidate exists (packet is at its target).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Candidate `i`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        debug_assert!(i < self.len());
        self.ports[i] as usize
    }

    /// Iterate over candidates in priority order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// True if `port` is a member.
    pub fn contains(&self, port: usize) -> bool {
        self.iter().any(|p| p == port)
    }
}

/// The routing function itself: the router calls
/// [`candidates`](RoutingKind::candidates) for the head flit of each
/// packet waiting for VC allocation, then
/// [`advance`](RoutingKind::advance) once a hop has been committed to
/// update phase/dateline state. Both read geometry from a [`RouteLut`];
/// the engine, [`crate::trace_route`], the `noc-verify` route enumerator
/// and (through it) the `noc-analytic` load model all call this one pair
/// on a `RoutingKind` they hold by value, so every per-flit call is a
/// `match` over inlinable bodies.
impl RoutingKind {
    /// Short name (`"DOR"`, `"VAL"`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            RoutingKind::Dor => "DOR",
            RoutingKind::Valiant => "VAL",
            RoutingKind::Romm => "ROMM",
            RoutingKind::MinAdaptive => "MA",
        }
    }

    /// Number of routing phases (1 or 2); determines VC partitioning.
    pub fn num_phases(&self) -> usize {
        match self {
            RoutingKind::Dor | RoutingKind::MinAdaptive => 1,
            RoutingKind::Valiant | RoutingKind::Romm => 2,
        }
    }

    /// True if the algorithm routes adaptively and therefore needs escape
    /// VCs restricted to the DOR output.
    pub fn is_adaptive(&self) -> bool {
        *self == RoutingKind::MinAdaptive
    }

    /// Initialize per-packet state at injection (chooses the intermediate
    /// node for two-phase algorithms). `lut` must be built from `topo`.
    pub fn init(
        &self,
        topo: TopologyKind,
        lut: &RouteLut,
        src: usize,
        dst: usize,
        rng: &mut SimRng,
    ) -> RouteState {
        let mid = match self {
            RoutingKind::Dor | RoutingKind::MinAdaptive => return RouteState::direct(),
            RoutingKind::Valiant => rng.below(topo.num_nodes()),
            RoutingKind::Romm => romm::sample_mid(topo, lut, src, dst, rng),
        };
        if mid == src {
            // degenerate phase 0: go straight to the destination
            RouteState::direct()
        } else {
            RouteState::via(mid)
        }
    }

    /// Candidate output ports at router `cur` for a packet with state
    /// `state` destined to `dst`. The first candidate is the DOR port.
    /// Returns an empty set iff the packet should be ejected here.
    #[inline]
    pub fn candidates(
        &self,
        lut: &RouteLut,
        cur: usize,
        dst: usize,
        state: &RouteState,
    ) -> PortSet {
        let target = state.effective_target(cur, dst);
        if *self == RoutingKind::MinAdaptive {
            return lut.minimal_ports(cur, target);
        }
        // DOR within each phase for everything else
        let mut set = PortSet::new();
        if let Some(p) = lut.dor_port(cur, target) {
            set.push(p);
        }
        set
    }

    /// State after taking `port` out of `cur` (phase transition at the
    /// intermediate node, dateline crossing, dimension change).
    #[inline]
    pub fn advance(
        &self,
        lut: &RouteLut,
        cur: usize,
        port: usize,
        state: &RouteState,
    ) -> RouteState {
        use crate::topology::port_dim;
        let mut next = *state;
        // phase transition happens when the packet leaves its intermediate:
        // the hop *into* the intermediate stays on phase-0 VCs, the hop
        // *out* starts a fresh phase-1 DOR route on phase-1 VCs. Flipping
        // one hop earlier (on arrival) would let a U-turning packet place
        // both its inbound and outbound hops in the same VC class and close
        // a channel-dependency cycle across one link pair.
        if next.phase == 0 && cur == next.intermediate {
            next.phase = 1;
            next.dateline = false;
            next.last_dim = u8::MAX;
        }
        let d = port_dim(port) as u8;
        if next.last_dim != d {
            next.dateline = false;
            next.last_dim = d;
        }
        if lut.crosses_dateline(cur, port) {
            next.dateline = true;
        }
        next
    }
}

/// Whether the hop `cur --port-->` crosses the wraparound ("dateline")
/// link of the port's dimension. [`RouteLut::new`] fills its dateline
/// table from this; per-hop code reads the table.
pub fn crosses_dateline(topo: TopologyKind, cur: usize, port: usize) -> bool {
    use crate::topology::{port_dim, port_is_plus};
    if port == 0 {
        return false;
    }
    let d = port_dim(port);
    if !topo.wraps(d) {
        return false;
    }
    let c = topo.coords_of(cur)[d];
    let k = topo.radix(d);
    if port_is_plus(port) {
        c == k - 1
    } else {
        c == 0
    }
}

/// Precomputed routing geometry for one [`TopologyKind`]: the engine,
/// [`crate::trace_route`] and the analysis crates read per-hop geometry
/// from here, never from the topology.
///
/// Route computation (`dor_port`, `minimal_ports`, `crosses_dateline`)
/// runs on every VC-allocation attempt — at saturation that is more than
/// one call per router per cycle. Asking the [`TopologyKind`] each time
/// would be a `match` and a per-dimension division per query, so
/// per-node coordinates and per-dimension radix/wrap flags are
/// materialized once here, and each query becomes a few subtractions
/// over two `u16` coordinate rows. Compared to full `n x n` port tables
/// this is O(n) memory (8 KiB of coordinates for a 1k-node network vs a
/// megabyte of table), so the whole structure stays L1-resident under
/// random traffic, and construction is O(n) instead of O(n^2) — cheap
/// enough that every analysis entry point builds its own per call.
#[derive(Debug, Clone)]
pub struct RouteLut {
    dims: usize,
    /// `coords[node * dims + d]`: coordinate of `node` in dimension `d`.
    coords: Vec<u16>,
    /// Radix per dimension (slots past `dims` are zero).
    radix: [u16; MAX_DIMS],
    /// Wraparound flag per dimension.
    wraps: [bool; MAX_DIMS],
    /// `dateline[node]` bit `port`: the hop `node --port-->` crosses the
    /// wraparound link of the port's dimension.
    dateline: Vec<u16>,
}

impl RouteLut {
    /// Precompute the geometry cache for a validated `topo` (O(n);
    /// minimal-port queries are computed on the fly from it).
    pub fn new(topo: TopologyKind) -> Self {
        let n = topo.num_nodes();
        let ports = topo.num_ports();
        let dims = topo.dims();
        let mut radix = [0u16; MAX_DIMS];
        let mut wraps = [false; MAX_DIMS];
        for d in 0..dims {
            let k = topo.radix(d);
            assert!(k <= u16::MAX as usize, "per-dimension radix must fit u16");
            radix[d] = k as u16;
            wraps[d] = topo.wraps(d);
        }
        let mut coords = vec![0u16; n * dims];
        for v in 0..n {
            let c = topo.coords_of(v);
            for d in 0..dims {
                coords[v * dims + d] = c[d] as u16;
            }
        }
        let mut dateline = vec![0u16; n];
        for (node, mask) in dateline.iter_mut().enumerate() {
            for port in 1..ports {
                if crosses_dateline(topo, node, port) {
                    *mask |= 1 << port;
                }
            }
        }
        Self { dims, coords, radix, wraps, dateline }
    }

    /// Coordinate rows of `cur` and `target`.
    #[inline]
    fn rows(&self, cur: usize, target: usize) -> (&[u16], &[u16]) {
        let d = self.dims;
        (&self.coords[cur * d..cur * d + d], &self.coords[target * d..target * d + d])
    }

    /// Productive direction (`true` = `+`) and hop distance in dimension
    /// `d` from coordinate `from` to `to`. This is the one place the wrap
    /// tie-break lives: on a wraparound dimension equidistant targets go
    /// `+`. Equal coordinates give distance 0 (direction meaningless).
    #[inline]
    pub fn heading(&self, d: usize, from: u16, to: u16) -> (bool, u16) {
        if self.wraps[d] {
            let k = self.radix[d];
            let plus_dist = if to >= from { to - from } else { to + k - from };
            // coordinates are in range, so the opposite way round is the
            // rest of the ring
            let minus_dist = k - plus_dist;
            (plus_dist <= minus_dist, plus_dist.min(minus_dist))
        } else {
            (to > from, to.abs_diff(from))
        }
    }

    /// Productive port in dimension `d` (callers guarantee the
    /// coordinates differ).
    #[inline]
    fn port_toward(&self, d: usize, from: u16, to: u16) -> usize {
        use crate::topology::{port_minus, port_plus};
        if self.heading(d, from, to).0 {
            port_plus(d)
        } else {
            port_minus(d)
        }
    }

    /// Dimension-ordered next port toward `target`, or `None` if `cur ==
    /// target`: the productive port of the lowest unresolved dimension.
    #[inline]
    pub fn dor_port(&self, cur: usize, target: usize) -> Option<usize> {
        if cur == target {
            return None;
        }
        let (cc, ct) = self.rows(cur, target);
        for d in 0..self.dims {
            if cc[d] != ct[d] {
                return Some(self.port_toward(d, cc[d], ct[d]));
            }
        }
        None
    }

    /// All minimal productive ports toward `target` — one per unresolved
    /// dimension, so the DOR port is always first; empty when `cur ==
    /// target`.
    #[inline]
    pub fn minimal_ports(&self, cur: usize, target: usize) -> PortSet {
        let mut set = PortSet::new();
        if cur == target {
            return set;
        }
        let (cc, ct) = self.rows(cur, target);
        for d in 0..self.dims {
            if cc[d] != ct[d] {
                set.push(self.port_toward(d, cc[d], ct[d]));
            }
        }
        set
    }

    /// Whether the hop `cur --port-->` crosses a dateline (one bit probe
    /// of the table filled from the free [`crosses_dateline`]).
    #[inline]
    pub fn crosses_dateline(&self, cur: usize, port: usize) -> bool {
        self.dateline[cur] & (1 << port) != 0
    }
}

/// The virtual-channel partition: which VCs a packet may occupy at the
/// next router, given its class, phase, dateline state, and whether the
/// hop uses the adaptive or the escape sub-function.
#[derive(Debug, Clone)]
pub struct VcBook {
    vcs: usize,
    classes: usize,
    phases: usize,
    block: usize,
    /// escape VCs per block (adaptive routing only)
    escape: usize,
    adaptive: bool,
    wrap: bool,
    /// Memoized [`VcBook::allowed`] masks over the full (class, phase,
    /// dateline, escape) domain — the hot path reads one word instead of
    /// rebuilding a mask bit by bit.
    allowed_cache: Vec<u64>,
}

impl VcBook {
    /// Build and validate the partition: [`VcBook::relaxed`], with its
    /// first deficiency as the error.
    pub fn new(
        vcs: usize,
        classes: usize,
        routing: RoutingKind,
        topo: TopologyKind,
    ) -> Result<Self, ConfigError> {
        let (book, deficiencies) = Self::relaxed(vcs, classes, routing, topo)?;
        match deficiencies.into_iter().next() {
            Some(e) => Err(e),
            None => Ok(book),
        }
    }

    /// Build the partition even when its blocks are below the minima
    /// deadlock freedom needs, listing every violated minimum in the
    /// order [`VcBook::new`] checks them: an uneven split
    /// ([`ConfigError::VcPartition`]), then the adaptive escape or wrap
    /// dateline block size ([`ConfigError::VcBlockTooSmall`]). The
    /// static analysis reasons about such books; that is how it finds a
    /// cycle witness for a one-VC torus. A block too small for a
    /// dateline split or a second escape VC uses its whole block or
    /// escape VC 0 instead.
    ///
    /// # Errors
    /// Only when no layout exists: more than 64 VCs (the mask width), a
    /// zero `vcs` or `classes` (a [`ConfigError::Parameter`] naming it),
    /// or fewer VCs than `(class, phase)` blocks.
    pub fn relaxed(
        vcs: usize,
        classes: usize,
        routing: RoutingKind,
        topo: TopologyKind,
    ) -> Result<(Self, Vec<ConfigError>), ConfigError> {
        let phases = routing.num_phases();
        if vcs > 64 {
            return Err(ConfigError::Parameter {
                name: "vcs",
                why: "at most 64 VCs supported (bitmask width)".into(),
            });
        }
        for (name, count) in [("vcs", vcs), ("classes", classes)] {
            if count == 0 {
                return Err(ConfigError::Parameter { name, why: "must be positive".into() });
            }
        }
        let blocks = classes.saturating_mul(phases);
        if vcs < blocks {
            return Err(ConfigError::VcPartition { vcs, classes, phases });
        }
        let mut deficiencies = Vec::new();
        if !vcs.is_multiple_of(blocks) {
            deficiencies.push(ConfigError::VcPartition { vcs, classes, phases });
        }
        let block = vcs / blocks;
        let wrap = topo.has_wrap();
        let adaptive = routing.is_adaptive();
        let escape = if adaptive {
            let esc = if wrap { 2 } else { 1 };
            if block < esc + 1 {
                deficiencies.push(ConfigError::VcBlockTooSmall {
                    available: block,
                    needed: esc + 1,
                    why: "adaptive routing needs escape VC(s) plus at least one adaptive VC",
                });
            }
            esc.min(block)
        } else {
            if wrap && block < 2 {
                deficiencies.push(ConfigError::VcBlockTooSmall {
                    available: block,
                    needed: 2,
                    why: "torus/ring dateline needs two VCs per (class, phase) block",
                });
            }
            0
        };
        let mut book =
            Self { vcs, classes, phases, block, escape, adaptive, wrap, allowed_cache: Vec::new() };
        let mut cache = Vec::with_capacity(classes * phases * 4);
        for class in 0..classes {
            for phase in 0..phases {
                for dateline in [false, true] {
                    for escape_only in [false, true] {
                        cache.push(book.compute_allowed(class, phase, dateline, escape_only));
                    }
                }
            }
        }
        book.allowed_cache = cache;
        Ok((book, deficiencies))
    }

    /// Total VCs.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Message classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Bitmask of VCs a packet `(class, phase)` may use at the downstream
    /// buffer after a hop, where `dateline` is the packet's state *after*
    /// the hop and `escape_only` selects the escape sub-function
    /// (deterministic DOR hop for adaptive routing).
    #[inline]
    pub fn allowed(&self, class: usize, phase: usize, dateline: bool, escape_only: bool) -> u64 {
        debug_assert!(class < self.classes);
        let phase = phase.min(self.phases - 1);
        let idx =
            ((class * self.phases + phase) * 2 + dateline as usize) * 2 + escape_only as usize;
        self.allowed_cache[idx]
    }

    /// The mask computation backing [`VcBook::allowed`]'s cache.
    fn compute_allowed(
        &self,
        class: usize,
        phase: usize,
        dateline: bool,
        escape_only: bool,
    ) -> u64 {
        let base = (class * self.phases + phase) * self.block;
        let (lo, hi) = if self.adaptive {
            if escape_only {
                // dateline selects which escape VC within the block; a
                // relaxed book with one escape VC has nothing to switch to
                let idx = if self.wrap && dateline && self.escape >= 2 { 1 } else { 0 };
                (idx, idx + 1)
            } else {
                // all adaptive VCs (beyond the escape ones)
                (self.escape, self.block)
            }
        } else if self.wrap && self.block >= 2 {
            let half = self.block / 2;
            if dateline {
                (half, self.block)
            } else {
                (0, half)
            }
        } else {
            // mesh, or a relaxed wrap block too small to split
            (0, self.block)
        };
        (lo..hi).fold(0, |mask, v| mask | 1 << (base + v))
    }

    /// VCs a packet of `class` may use at the injection port (phase 0,
    /// no dateline; for adaptive routing both escape and adaptive VCs are
    /// legal entry points, but we inject on adaptive VCs when available).
    pub fn injection(&self, class: usize) -> u64 {
        if self.adaptive {
            self.allowed(class, 0, false, false) | self.allowed(class, 0, false, true)
        } else {
            self.allowed(class, 0, false, false)
        }
    }

    /// All VCs belonging to `class`, regardless of phase or dateline —
    /// used at ejection, where deadlock restrictions no longer apply.
    pub fn class_mask(&self, class: usize) -> u64 {
        debug_assert!(class < self.classes);
        let per_class = self.phases * self.block;
        (0..per_class).fold(0, |mask, v| mask | 1 << (class * per_class + v))
    }

    /// True when `vc` is an escape VC of its block (adaptive routing).
    pub fn is_escape(&self, vc: usize) -> bool {
        self.adaptive && (vc % self.block) < self.escape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{port_minus, port_plus};

    /// Walk a packet from `src` to `dst` through the one routing API,
    /// taking the first candidate each hop; returns the nodes visited and
    /// the state `init` drew (shared by the per-algorithm test modules).
    pub(super) fn walk(
        topo: TopologyKind,
        algo: RoutingKind,
        src: usize,
        dst: usize,
        rng: &mut SimRng,
    ) -> (Vec<usize>, RouteState) {
        let lut = RouteLut::new(topo);
        let init = algo.init(topo, &lut, src, dst, rng);
        let (mut state, mut cur, mut path) = (init, src, vec![src]);
        for _ in 0..10_000 {
            let cands = algo.candidates(&lut, cur, dst, &state);
            if cands.is_empty() {
                break;
            }
            let port = cands.get(0);
            state = algo.advance(&lut, cur, port, &state);
            cur = topo.neighbor(cur, port).unwrap().0;
            path.push(cur);
        }
        (path, init)
    }

    #[test]
    fn route_state_target() {
        let s = RouteState::via(7);
        assert_eq!(s.target(3), 7);
        let mut s2 = s;
        s2.phase = 1;
        assert_eq!(s2.target(3), 3);
        assert_eq!(RouteState::direct().target(5), 5);
    }

    #[test]
    fn portset_basics() {
        let mut s = PortSet::new();
        assert!(s.is_empty());
        s.push(3);
        s.push(1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), 3);
        assert_eq!(s.get(1), 1);
        assert!(s.contains(1));
        assert!(!s.contains(2));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn dor_port_mesh_goes_x_first() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let lut = RouteLut::new(t);
        // from (0,0) to (2,3): x first
        assert_eq!(lut.dor_port(0, t.node_at(&[2, 3, 0, 0])), Some(port_plus(0)));
        // same column: y
        assert_eq!(lut.dor_port(0, t.node_at(&[0, 3, 0, 0])), Some(port_plus(1)));
        // arrived
        assert_eq!(lut.dor_port(5, 5), None);
        // negative directions
        assert_eq!(lut.dor_port(t.node_at(&[3, 3, 0, 0]), 0), Some(port_minus(0)));
    }

    #[test]
    fn dor_port_torus_takes_short_way() {
        let lut = RouteLut::new(TopologyKind::Torus2D { k: 8 });
        // (0,0) -> (7,0): wrap in -x (distance 1) beats +x (distance 7)
        assert_eq!(lut.dor_port(0, 7), Some(port_minus(0)));
        // distance 4 tie: deterministic positive
        assert_eq!(lut.dor_port(0, 4), Some(port_plus(0)));
    }

    #[test]
    fn minimal_ports_counts() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let lut = RouteLut::new(t);
        let both = lut.minimal_ports(0, t.node_at(&[2, 2, 0, 0]));
        assert_eq!(both.len(), 2);
        assert_eq!(both.get(0), port_plus(0), "DOR port first");
        let one = lut.minimal_ports(0, t.node_at(&[0, 2, 0, 0]));
        assert_eq!(one.len(), 1);
        assert!(lut.minimal_ports(5, 5).is_empty());
    }

    #[test]
    fn dateline_detection() {
        let t = TopologyKind::Torus2D { k: 4 };
        // node (3,0) going +x wraps
        assert!(crosses_dateline(t, 3, port_plus(0)));
        assert!(!crosses_dateline(t, 2, port_plus(0)));
        // node (0,y) going -x wraps
        assert!(crosses_dateline(t, 0, port_minus(0)));
        // mesh never crosses
        let m = TopologyKind::Mesh2D { k: 4 };
        assert!(!crosses_dateline(m, 3, port_plus(0)));
    }

    #[test]
    fn vcbook_single_class_mesh() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let dor = RoutingKind::Dor;
        let book = VcBook::new(2, 1, dor, t).unwrap();
        assert_eq!(book.allowed(0, 0, false, false), 0b11);
        assert_eq!(book.injection(0), 0b11);
    }

    #[test]
    fn vcbook_two_classes() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let dor = RoutingKind::Dor;
        let book = VcBook::new(4, 2, dor, t).unwrap();
        assert_eq!(book.allowed(0, 0, false, false), 0b0011);
        assert_eq!(book.allowed(1, 0, false, false), 0b1100);
    }

    #[test]
    fn vcbook_torus_dateline_split() {
        let t = TopologyKind::Torus2D { k: 4 };
        let dor = RoutingKind::Dor;
        let book = VcBook::new(4, 2, dor, t).unwrap();
        assert_eq!(book.allowed(0, 0, false, false), 0b0001);
        assert_eq!(book.allowed(0, 0, true, false), 0b0010);
        assert_eq!(book.allowed(1, 0, false, false), 0b0100);
        assert_eq!(book.allowed(1, 0, true, false), 0b1000);
    }

    #[test]
    fn vcbook_valiant_phases() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let val = RoutingKind::Valiant;
        let book = VcBook::new(2, 1, val, t).unwrap();
        assert_eq!(book.allowed(0, 0, false, false), 0b01);
        assert_eq!(book.allowed(0, 1, false, false), 0b10);
    }

    #[test]
    fn vcbook_adaptive_escape() {
        let t = TopologyKind::Mesh2D { k: 4 };
        let ma = RoutingKind::MinAdaptive;
        let book = VcBook::new(2, 1, ma, t).unwrap();
        assert_eq!(book.allowed(0, 0, false, true), 0b01, "escape VC");
        assert_eq!(book.allowed(0, 0, false, false), 0b10, "adaptive VC");
        assert!(book.is_escape(0));
        assert!(!book.is_escape(1));
        assert_eq!(book.injection(0), 0b11);
    }

    #[test]
    fn vcbook_rejections() {
        let t = TopologyKind::Torus2D { k: 4 };
        let dor = RoutingKind::Dor;
        // torus with 2 classes needs 4 VCs: 2 is rejected
        assert!(VcBook::new(2, 2, dor, t).is_err());
        // indivisible
        let m = TopologyKind::Mesh2D { k: 4 };
        assert!(VcBook::new(3, 2, dor, m).is_err());
        // adaptive torus needs 3 per block
        let ma = RoutingKind::MinAdaptive;
        assert!(VcBook::new(2, 1, ma, t).is_err());
        assert!(VcBook::new(3, 1, ma, t).is_ok());
        // a zero count, or more VCs than the mask has bits, names its field
        let refused = |vcs, classes| match VcBook::new(vcs, classes, dor, m) {
            Err(ConfigError::Parameter { name, .. }) => name,
            other => panic!("({vcs}, {classes}) not refused by name: {other:?}"),
        };
        assert_eq!(refused(0, 1), "vcs");
        assert_eq!(refused(2, 0), "classes");
        assert_eq!(refused(0, 0), "vcs");
        assert_eq!(refused(65, 1), "vcs");
        assert!(VcBook::new(64, 1, dor, m).is_ok());
    }

    #[test]
    fn advance_phase_transition() {
        let lut = RouteLut::new(TopologyKind::Mesh2D { k: 4 });
        let val = RoutingKind::Valiant;
        // packet at node 0 with intermediate 1 (one hop +x away):
        // the hop INTO the intermediate stays phase 0 (phase-0 VCs)...
        let s = RouteState::via(1);
        let s1 = val.advance(&lut, 0, port_plus(0), &s);
        assert_eq!(s1.phase, 0, "arrival hop is the last phase-0 hop");
        // ...and the hop OUT of the intermediate flips to phase 1 with a
        // fresh DOR route
        let s2 = val.advance(&lut, 1, port_plus(1), &s1);
        assert_eq!(s2.phase, 1);
        assert_eq!(s2.last_dim, 1, "new hop's dimension recorded after reset");
        // effective_target reflects the flip while sitting at the mid
        assert_eq!(s1.effective_target(1, 9), 9);
        assert_eq!(s1.effective_target(0, 9), 1);
    }

    #[test]
    fn advance_tracks_dateline_and_dim_change() {
        let lut = RouteLut::new(TopologyKind::Torus2D { k: 4 });
        let dor = RoutingKind::Dor;
        let s = RouteState::direct();
        // wrap hop in x
        let s1 = dor.advance(&lut, 3, port_plus(0), &s);
        assert!(s1.dateline);
        assert_eq!(s1.last_dim, 0);
        // then a hop in y resets the dateline
        let s2 = dor.advance(&lut, 0, port_plus(1), &s1);
        assert!(!s2.dateline);
        assert_eq!(s2.last_dim, 1);
    }
}
