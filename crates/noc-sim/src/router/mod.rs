//! Input-queued virtual-channel routers, stored as one network-wide
//! struct-of-arrays slab.
//!
//! Each cycle a router performs two logical stages:
//!
//! 1. **VC allocation** — every idle input VC with a head flit at its
//!    front computes its candidate output ports (via the routing
//!    algorithm) and tries to claim a free output VC permitted by the VC
//!    partition ([`crate::routing::VcBook`]). Adaptive routing picks the
//!    candidate port with the most free downstream credits, falling back
//!    to the escape VC on the DOR port.
//! 2. **Switch allocation** — a separable input-first allocator: each
//!    input port nominates one ready VC, then each output port grants one
//!    input. Winning flits depart; the router pipeline latency `t_r` is
//!    applied on the link (a flit granted at cycle `t` reaches the next
//!    router at `t + t_r + t_link`).
//!
//! The physical buffer depth is enforced end-to-end by credits: a flit
//! may only be granted toward an output VC holding credits, and credits
//! return upstream when flits depart the downstream buffer.
//!
//! # Memory layout
//!
//! [`RouterSlab`] owns every router's state in flat network-wide arrays
//! (input VC metadata, flit rings, output VC credits, rotating arbiter
//! pointers, occupancy counters, pipeline statistics) indexed by router
//! id, so per-cycle sweeps touch contiguous memory instead of chasing a
//! `Vec` of per-router heap objects, and O(1) per-router facts (is this
//! router idle? what is its occupancy?) live in dense arrays the engine
//! and the metrics collector can scan 64 routers per cache line. The
//! per-router view types [`RouterMut`] / [`RouterRef`] carry the router
//! id plus a slab borrow and expose the same method API a standalone
//! router struct would. Both allocators arbitrate over bitmasks of
//! requesters (see [`round_robin`] / [`oldest`]), so a router visit
//! builds no candidate list and needs no scratch memory.

mod arbiter;
mod buffer;

pub use arbiter::{oldest, round_robin};
pub use buffer::{InputVc, OutputVc, VcState};

use crate::config::{Arbitration, RoutingKind};
use crate::error::SimError;
use crate::flit::{Flit, PacketSlab, NO_PACKET};
use crate::network::fault::SurvivorTable;
use crate::routing::{PortSet, RouteLut, VcBook};
use crate::topology::LOCAL_PORT;

/// Most ports a router may have: `2 * MAX_DIMS + 1 = 9` today; the
/// switch allocator's per-output request masks are `u16`.
const MAX_PORTS: usize = 16;

/// A switch-allocation winner: one flit leaving the router this cycle.
#[derive(Debug, Clone, Copy)]
pub struct SaWin {
    /// Output port the flit leaves through (0 = ejection).
    pub out_port: u8,
    /// Output VC (== downstream input VC).
    pub out_vc: u8,
    /// Input port the flit came from (0 = injection).
    pub in_port: u8,
    /// Input VC the flit came from.
    pub in_vc: u8,
    /// The departing flit (with `vc` rewritten to `out_vc`).
    pub flit: Flit,
}

/// Per-router pipeline event counters, for bottleneck analysis: when a
/// network saturates, the dominant counter tells you whether output VCs
/// (`va_blocked`) or downstream buffer credits (`sa_credit_starved`)
/// are the limiting resource.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Successful VC allocations (one per packet per hop).
    pub va_grants: u64,
    /// VC-allocation attempts that found no free output VC.
    pub va_blocked: u64,
    /// Switch-allocation grants (one per flit per hop).
    pub sa_grants: u64,
    /// Active VCs that could not bid for the switch for lack of credits
    /// (per VC per cycle).
    pub sa_credit_starved: u64,
    /// Input-stage switch nominations that lost output arbitration —
    /// two or more input ports contended for the same output port in
    /// the same cycle (per losing bid per cycle).
    pub sa_conflicts: u64,
}

/// Context the router needs each cycle (shared, immutable).
pub struct RouterCtx<'a> {
    /// Routing algorithm, held by value: its per-flit calls are a
    /// `match` over inlinable bodies, not a vtable jump.
    pub routing: RoutingKind,
    /// Precomputed routing geometry the routing function reads.
    pub lut: &'a RouteLut,
    /// VC partition.
    pub book: &'a VcBook,
    /// Arbitration policy.
    pub arb: Arbitration,
    /// Degraded-mode rerouting table, installed after a permanent
    /// fault. When present it overrides the routing function's
    /// candidate ports with surviving shortest-path next hops.
    pub survivors: Option<&'a SurvivorTable>,
}

/// All routers of one network in struct-of-arrays form.
///
/// Every array is indexed by router id times a per-router stride; the
/// fabric is homogeneous, so `ports`/`vcs`/`vc_buf` are stored once.
#[derive(Debug)]
pub struct RouterSlab {
    n: usize,
    ports: usize,
    vcs: usize,
    vc_buf: usize,
    /// Input VCs, flattened `[router][port][vc]`.
    inputs: Vec<InputVc>,
    /// Flit ring storage, flattened `[router][port][vc][slot]`.
    flit_buf: Vec<Flit>,
    /// Output VC state, flattened `[router][port][vc]`.
    out_vcs: Vec<OutputVc>,
    /// Per-output-port rotating pointer for the switch-output arbiter,
    /// flattened `[router][port]`.
    sa_rr: Vec<u32>,
    /// Per-output-port rotating pointer for free-VC selection.
    vc_rr: Vec<u32>,
    /// Per-input-port rotating pointer for the switch-input arbiter.
    sa_in_ptr: Vec<u32>,
    /// Per-router rotating pointer for VC-allocation priority.
    va_ptr: Vec<u32>,
    /// Flits buffered per router (O(1) idle checks and occupancy
    /// sampling sweep a dense array).
    occupancy: Vec<u32>,
    /// Bit `port * vcs + vc` is set iff that input VC awaits VC
    /// allocation (idle with a head flit at its front): the allocator's
    /// request mask.
    wants_mask: Vec<u64>,
    /// Bit `port * vcs + vc` is set iff that input VC is in `Active`
    /// state (the switch-allocation bidders).
    active_mask: Vec<u64>,
    /// Pipeline event counters, per router.
    pipeline: Vec<PipelineStats>,
}

impl RouterSlab {
    /// Build `n` routers of `ports` ports, `vcs` VCs per port, and
    /// `vc_buf`-deep input buffers with matching initial output
    /// credits. The ejection port (output 0) is an infinite sink.
    pub fn new(n: usize, ports: usize, vcs: usize, vc_buf: usize) -> Self {
        assert!(
            (1..=u8::MAX as usize).contains(&vc_buf),
            "vc_buf must be in 1..=255 (ring cursors are u8)"
        );
        assert!(
            ports * vcs <= 64,
            "ports * vcs must be <= 64 (input-VC worklists are u64 bitmasks)"
        );
        assert!(ports <= MAX_PORTS, "at most {MAX_PORTS} ports (switch request masks are u16)");
        let pv = ports * vcs;
        let inputs = (0..n * pv).map(|_| InputVc::new()).collect();
        let flit_buf = vec![Flit { pkt: NO_PACKET, seq: 0, vc: 0, tail: false }; n * pv * vc_buf];
        let out_vcs = (0..n * pv)
            .map(|f| {
                let credits = if (f % pv) / vcs == LOCAL_PORT { u32::MAX } else { vc_buf as u32 };
                OutputVc::new(credits)
            })
            .collect();
        Self {
            n,
            ports,
            vcs,
            vc_buf,
            inputs,
            flit_buf,
            out_vcs,
            sa_rr: vec![0; n * ports],
            vc_rr: vec![0; n * ports],
            sa_in_ptr: vec![0; n * ports],
            va_ptr: vec![0; n],
            occupancy: vec![0; n],
            wants_mask: vec![0; n],
            active_mask: vec![0; n],
            pipeline: vec![PipelineStats::default(); n],
        }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the slab holds no routers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Ports per router.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// VCs per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// True when router `r` buffers no flit anywhere.
    #[inline]
    pub fn is_idle(&self, r: usize) -> bool {
        self.occupancy[r] == 0
    }

    /// Per-router buffered-flit counts (dense, for contiguous metric
    /// sweeps).
    #[inline]
    pub fn occupancies(&self) -> &[u32] {
        &self.occupancy
    }

    /// Per-router pipeline counters (dense).
    #[inline]
    pub fn pipelines(&self) -> &[PipelineStats] {
        &self.pipeline
    }

    /// Immutable view of router `r`.
    #[inline]
    pub fn router(&self, r: usize) -> RouterRef<'_> {
        debug_assert!(r < self.n);
        RouterRef { slab: self, r }
    }

    /// Mutable view of router `r`.
    #[inline]
    pub fn router_mut(&mut self, r: usize) -> RouterMut<'_> {
        debug_assert!(r < self.n);
        RouterMut { slab: self, r }
    }

    // -- internal indexing ------------------------------------------------

    /// Network-flat input/output VC index of router `r`'s `(port, vc)`
    /// pair given as a router-flat `port * vcs + vc` index.
    #[inline]
    fn io(&self, r: usize, flat: usize) -> usize {
        r * self.ports * self.vcs + flat
    }

    /// Network-flat per-port index.
    #[inline]
    fn pp(&self, r: usize, port: usize) -> usize {
        r * self.ports + port
    }

    #[inline]
    fn q_front_flat(&self, r: usize, flat: usize) -> Option<&Flit> {
        let gi = self.io(r, flat);
        let ivc = &self.inputs[gi];
        if ivc.len == 0 {
            None
        } else {
            Some(&self.flit_buf[gi * self.vc_buf + ivc.head as usize])
        }
    }

    #[inline]
    fn q_len_at(&self, r: usize, port: usize, vc: usize) -> usize {
        self.inputs[self.io(r, port * self.vcs + vc)].qlen()
    }

    fn q_iter_at(&self, r: usize, port: usize, vc: usize) -> impl Iterator<Item = &Flit> + '_ {
        let gi = self.io(r, port * self.vcs + vc);
        let ivc = &self.inputs[gi];
        let (head, len) = (ivc.head as usize, ivc.len as usize);
        let base = gi * self.vc_buf;
        let cap = self.vc_buf;
        (0..len).map(move |i| {
            let mut slot = head + i;
            if slot >= cap {
                slot -= cap;
            }
            &self.flit_buf[base + slot]
        })
    }

    fn buffered_flits_of(&self, r: usize) -> usize {
        let base = r * self.ports * self.vcs;
        self.inputs[base..base + self.ports * self.vcs].iter().map(|vc| vc.qlen()).sum()
    }
}

/// Immutable per-router view over the slab (sanitizer, metrics, debug
/// dumps).
#[derive(Clone, Copy)]
pub struct RouterRef<'a> {
    slab: &'a RouterSlab,
    r: usize,
}

impl<'a> RouterRef<'a> {
    /// Router/node id.
    #[inline]
    pub fn id(&self) -> usize {
        self.r
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.slab.ports
    }

    /// Number of VCs per port.
    pub fn vcs(&self) -> usize {
        self.slab.vcs
    }

    /// True when no flit is buffered anywhere in this router.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.slab.occupancy[self.r] == 0
    }

    /// Flits currently buffered across all input VCs (O(1), maintained
    /// incrementally — same value as [`RouterRef::buffered_flits`]).
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.slab.occupancy[self.r] as usize
    }

    /// Input VC at (`port`, `vc`).
    #[inline]
    pub fn input(&self, port: usize, vc: usize) -> &'a InputVc {
        &self.slab.inputs[self.slab.io(self.r, port * self.slab.vcs + vc)]
    }

    /// Output VC state at (`port`, `vc`).
    #[inline]
    pub fn out_vc(&self, port: usize, vc: usize) -> &'a OutputVc {
        &self.slab.out_vcs[self.slab.io(self.r, port * self.slab.vcs + vc)]
    }

    /// Buffered flit count of input VC (`port`, `vc`).
    #[inline]
    pub fn q_len(&self, port: usize, vc: usize) -> usize {
        self.slab.q_len_at(self.r, port, vc)
    }

    /// Front flit of input VC (`port`, `vc`), if any.
    #[inline]
    pub fn q_front(&self, port: usize, vc: usize) -> Option<&'a Flit> {
        self.slab.q_front_flat(self.r, port * self.slab.vcs + vc)
    }

    /// Iterate the buffered flits of input VC (`port`, `vc`) front to
    /// back (sanitizer/debug use; not on the hot path).
    pub fn q_iter(&self, port: usize, vc: usize) -> impl Iterator<Item = &'a Flit> + 'a {
        self.slab.q_iter_at(self.r, port, vc)
    }

    /// Total flits buffered across all input VCs, re-derived from the
    /// queues (the sanitizer's independent recount).
    pub fn buffered_flits(&self) -> usize {
        self.slab.buffered_flits_of(self.r)
    }

    /// Pipeline counters of this router.
    pub fn pipeline(&self) -> &'a PipelineStats {
        &self.slab.pipeline[self.r]
    }
}

/// Mutable per-router view over the slab — the engine's handle for one
/// router's cycle work.
pub struct RouterMut<'a> {
    slab: &'a mut RouterSlab,
    r: usize,
}

impl RouterMut<'_> {
    /// Router/node id.
    #[inline]
    pub fn id(&self) -> usize {
        self.r
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.slab.ports
    }

    /// Number of VCs per port.
    pub fn vcs(&self) -> usize {
        self.slab.vcs
    }

    /// True when no flit is buffered anywhere in this router.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.slab.occupancy[self.r] == 0
    }

    /// Flits currently buffered across all input VCs (O(1)).
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.slab.occupancy[self.r] as usize
    }

    /// Input VC at (`port`, `vc`).
    #[inline]
    pub fn input(&self, port: usize, vc: usize) -> &InputVc {
        &self.slab.inputs[self.slab.io(self.r, port * self.slab.vcs + vc)]
    }

    /// Output VC state at (`port`, `vc`).
    #[inline]
    pub fn out_vc(&self, port: usize, vc: usize) -> &OutputVc {
        &self.slab.out_vcs[self.slab.io(self.r, port * self.slab.vcs + vc)]
    }

    /// Mutable output VC state at (`port`, `vc`).
    #[inline]
    pub fn out_vc_mut(&mut self, port: usize, vc: usize) -> &mut OutputVc {
        let gi = self.slab.io(self.r, port * self.slab.vcs + vc);
        &mut self.slab.out_vcs[gi]
    }

    /// Front flit of input VC (`port`, `vc`), if any.
    #[inline]
    pub fn q_front(&self, port: usize, vc: usize) -> Option<&Flit> {
        self.slab.q_front_flat(self.r, port * self.slab.vcs + vc)
    }

    /// Append a flit to input VC `flat`. Caller enforces the depth bound.
    #[inline]
    fn q_push_flat(&mut self, flat: usize, flit: Flit) {
        let gi = self.slab.io(self.r, flat);
        let vc_buf = self.slab.vc_buf;
        let ivc = &mut self.slab.inputs[gi];
        debug_assert!((ivc.len as usize) < vc_buf);
        let mut slot = ivc.head as usize + ivc.len as usize;
        if slot >= vc_buf {
            slot -= vc_buf;
        }
        ivc.len += 1;
        self.slab.flit_buf[gi * vc_buf + slot] = flit;
    }

    /// Pop the front flit of input VC `flat`, if any.
    #[inline]
    fn q_pop_flat(&mut self, flat: usize) -> Option<Flit> {
        let gi = self.slab.io(self.r, flat);
        let vc_buf = self.slab.vc_buf;
        let ivc = &mut self.slab.inputs[gi];
        if ivc.len == 0 {
            return None;
        }
        let slot = ivc.head as usize;
        ivc.head = if slot + 1 >= vc_buf { 0 } else { slot as u8 + 1 };
        ivc.len -= 1;
        Some(self.slab.flit_buf[gi * vc_buf + slot])
    }

    /// Deposit an arriving flit into its input buffer.
    ///
    /// # Errors
    /// [`SimError::BufferOverflow`] if the buffer is already full —
    /// the upstream router spent a credit it did not have.
    #[inline]
    pub fn deposit(&mut self, port: usize, flit: Flit) -> Result<(), SimError> {
        let flat = port * self.slab.vcs + flit.vc as usize;
        let vc = &self.slab.inputs[self.slab.io(self.r, flat)];
        if vc.qlen() >= self.slab.vc_buf {
            return Err(SimError::BufferOverflow {
                router: self.r,
                port,
                vc: flit.vc as usize,
                depth: self.slab.vc_buf,
            });
        }
        // wormhole ordering: an empty, unallocated VC only ever receives
        // a packet head, so this deposit creates an allocation request
        if vc.state == VcState::Idle && vc.is_empty() {
            debug_assert_eq!(flit.seq, 0, "body flit into empty idle VC");
            self.slab.wants_mask[self.r] |= 1 << flat;
        }
        self.q_push_flat(flat, flit);
        self.slab.occupancy[self.r] += 1;
        Ok(())
    }

    /// Return a credit to output (`port`, `vc`).
    ///
    /// # Errors
    /// [`SimError::CreditOverflow`] if the credit count would exceed the
    /// downstream buffer depth.
    #[inline]
    pub fn credit(&mut self, port: usize, vc: usize) -> Result<(), SimError> {
        let gi = self.slab.io(self.r, port * self.slab.vcs + vc);
        let out = &mut self.slab.out_vcs[gi];
        if port != LOCAL_PORT {
            if out.credits >= self.slab.vc_buf as u32 {
                return Err(SimError::CreditOverflow {
                    router: self.r,
                    port,
                    vc,
                    depth: self.slab.vc_buf,
                });
            }
            out.credits += 1;
        }
        Ok(())
    }

    /// Total credits across VCs of `port` allowed by `mask` that are
    /// currently unowned — the local congestion metric used for adaptive
    /// routing.
    fn free_credit_score(&self, port: usize, mask: u64) -> u64 {
        let base = self.slab.io(self.r, port * self.slab.vcs);
        let mut score = 0;
        for (v, vc) in self.slab.out_vcs[base..base + self.slab.vcs].iter().enumerate() {
            if mask & (1 << v) != 0 && vc.is_free() {
                score += vc.credits as u64;
            }
        }
        score
    }

    /// Non-destructive check: does `mask` contain a claimable VC
    /// (unowned with credits) on `port`?
    fn pick_probe(&self, port: usize, mask: u64) -> bool {
        let base = self.slab.io(self.r, port * self.slab.vcs);
        self.slab.out_vcs[base..base + self.slab.vcs]
            .iter()
            .enumerate()
            .any(|(v, vc)| mask & (1 << v) != 0 && vc.is_free() && vc.credits > 0)
    }

    /// Pick a *claimable* VC of `port` within `mask` starting from the
    /// rotating pointer; returns the VC index. Claimable means unowned
    /// AND holding at least one credit: committing a packet to a
    /// credit-less VC would let it wait forever there, which breaks
    /// Duato's escape guarantee for adaptive routing (a blocked head
    /// must always be able to fall back to the escape VC — so heads stay
    /// unallocated, retrying each cycle, until a VC they can actually
    /// enter is available).
    fn pick_free_vc(&mut self, port: usize, mask: u64) -> Option<usize> {
        let n = self.slab.vcs;
        let base = self.slab.io(self.r, port * n);
        let pp = self.slab.pp(self.r, port);
        let mut v = self.slab.vc_rr[pp] as usize;
        for _ in 0..n {
            let ovc = &self.slab.out_vcs[base + v];
            if mask & (1 << v) != 0 && ovc.is_free() && ovc.credits > 0 {
                self.slab.vc_rr[pp] = if v + 1 == n { 0 } else { (v + 1) as u32 };
                return Some(v);
            }
            v += 1;
            if v == n {
                v = 0;
            }
        }
        None
    }

    /// Stage 1: VC allocation (includes route computation). Waiting
    /// input VCs are served in priority order and granted greedily
    /// (later grants see earlier claims, so no output VC is
    /// double-allocated): round-robin serves the bits of `wants_mask`
    /// at or above the rotating pointer, then those below; age-based
    /// serves oldest packet first.
    ///
    /// # Errors
    /// [`SimError::MissingFlit`] if allocation state disagrees with
    /// buffer contents.
    pub fn vc_allocate(
        &mut self,
        ctx: &RouterCtx<'_>,
        packets: &mut PacketSlab,
    ) -> Result<(), SimError> {
        let r = self.r;
        let space = (self.slab.ports * self.slab.vcs) as u32;
        let ptr = self.slab.va_ptr[r];
        self.slab.va_ptr[r] = if ptr + 1 >= space { 0 } else { ptr + 1 };
        let wants = self.slab.wants_mask[r];
        if wants == 0 {
            return Ok(()); // every buffered flit belongs to an allocated packet
        }
        match ctx.arb {
            Arbitration::RoundRobin => {
                let at_or_after = wants & (u64::MAX << ptr);
                for mut m in [at_or_after, wants ^ at_or_after] {
                    while m != 0 {
                        let flat = m.trailing_zeros() as usize;
                        m &= m - 1;
                        self.try_allocate_one(ctx, packets, flat)?;
                    }
                }
            }
            Arbitration::AgeBased => {
                // ages are only fetched here: round-robin never touches
                // the packet slab to order its requesters
                let mut birth = [0u64; 64];
                let mut m = wants;
                while m != 0 {
                    let flat = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if let Some(head) = self.slab.q_front_flat(r, flat) {
                        birth[flat] = packets.get(head.pkt).birth;
                    }
                }
                let mut left = wants;
                while left != 0 {
                    let flat = oldest(left, |f| birth[f]);
                    left &= !(1 << flat);
                    self.try_allocate_one(ctx, packets, flat)?;
                }
            }
        }
        Ok(())
    }

    /// Attempt VC allocation for one input VC (given by its flat
    /// `port * vcs + vc` index); claims output state on success.
    fn try_allocate_one(
        &mut self,
        ctx: &RouterCtx<'_>,
        packets: &mut PacketSlab,
        flat: usize,
    ) -> Result<(), SimError> {
        let id = self.r;
        let vcs = self.slab.vcs;
        // bit `flat` of `wants_mask` <=> that input VC wants allocation
        debug_assert!(self.slab.inputs[self.slab.io(id, flat)].wants_allocation());
        let pid = self
            .slab
            .q_front_flat(id, flat)
            .ok_or(SimError::MissingFlit {
                router: id,
                port: flat / vcs,
                vc: flat % vcs,
                stage: "VC allocation",
            })?
            .pkt;
        let rec = packets.route(pid);
        let (class, dst, route) = (rec.class as usize, rec.dst as usize, rec.route);
        let cands = match ctx.survivors {
            Some(s) if id != dst => {
                let sp = s.ports(id, dst);
                if sp.is_empty() {
                    // unreachable in the surviving topology: route as if
                    // healthy — every original path crosses a dead
                    // element, so the packet terminates by being
                    // swallowed there instead of wedging a buffer here
                    ctx.routing.candidates(ctx.lut, id, dst, &route)
                } else {
                    sp
                }
            }
            Some(_) => PortSet::new(), // at the destination: eject
            None => ctx.routing.candidates(ctx.lut, id, dst, &route),
        };

        let claim = if cands.is_empty() {
            // eject here: any VC of the packet's class partition
            let mask = ctx.book.class_mask(class);
            self.pick_free_vc(LOCAL_PORT, mask).map(|vc| (LOCAL_PORT, vc, route))
        } else if ctx.routing.is_adaptive() {
            // adaptive: best candidate port by free downstream credits
            let mut best: Option<(usize, u64, crate::routing::RouteState, u64)> = None;
            for port in cands.iter() {
                let ns = ctx.routing.advance(ctx.lut, id, port, &route);
                let mask = ctx.book.allowed(class, ns.phase as usize, ns.dateline, false);
                let score = self.free_credit_score(port, mask);
                let has_free = self.pick_probe(port, mask);
                if has_free && best.as_ref().is_none_or(|&(_, s, _, _)| score > s) {
                    best = Some((port, score, ns, mask));
                }
            }
            match best {
                Some((port, _, ns, mask)) => self.pick_free_vc(port, mask).map(|vc| (port, vc, ns)),
                None => {
                    // escape: DOR port, escape VC
                    let port = cands.get(0);
                    let ns = ctx.routing.advance(ctx.lut, id, port, &route);
                    let mask = ctx.book.allowed(class, ns.phase as usize, ns.dateline, true);
                    self.pick_free_vc(port, mask).map(|vc| (port, vc, ns))
                }
            }
        } else {
            let port = cands.get(0);
            let ns = ctx.routing.advance(ctx.lut, id, port, &route);
            let mask = ctx.book.allowed(class, ns.phase as usize, ns.dateline, false);
            self.pick_free_vc(port, mask).map(|vc| (port, vc, ns))
        };

        if let Some((port, vc, ns)) = claim {
            self.slab.pipeline[id].va_grants += 1;
            let gi = self.slab.io(id, port * vcs + vc);
            self.slab.out_vcs[gi].owner = pid;
            self.slab.wants_mask[id] &= !(1 << flat);
            self.slab.active_mask[id] |= 1 << flat;
            let ii = self.slab.io(id, flat);
            let ivc = &mut self.slab.inputs[ii];
            ivc.state = VcState::Active;
            ivc.out_port = port as u8;
            ivc.out_vc = vc as u8;
            ivc.pkt = pid;
            if port != LOCAL_PORT {
                packets.route_mut(pid).route = ns;
            }
        } else {
            self.slab.pipeline[id].va_blocked += 1;
        }
        Ok(())
    }

    /// Stage 2: separable input-first switch allocation. Each input
    /// port nominates one of its credited, non-empty active VCs, each
    /// requested output port grants one of the nominating input ports;
    /// both stages arbitrate over request masks. Winning flits are
    /// appended to `wins`; buffer/credit/ownership state is updated.
    ///
    /// # Errors
    /// [`SimError::MissingFlit`] if a granted input VC's buffer is
    /// empty.
    pub fn switch_allocate(
        &mut self,
        ctx: &RouterCtx<'_>,
        packets: &PacketSlab,
        wins: &mut Vec<SaWin>,
    ) -> Result<(), SimError> {
        let ports = self.slab.ports;
        let vcs = self.slab.vcs;
        let id = self.r;
        let base = self.slab.io(id, 0);
        let amask = self.slab.active_mask[id];
        if amask == 0 {
            return Ok(()); // no active VC, nothing can bid
        }
        // packet ages are only fetched for the age-based policy
        let age_based = matches!(ctx.arb, Arbitration::AgeBased);
        let birth =
            |slab: &RouterSlab, flat: usize| packets.get(slab.inputs[base + flat].pkt).birth;

        // input stage: per port, the mask of VCs able to bid (every
        // active VC held back by credits alone counts as starved), then
        // one nomination; `out_req[o]` collects the input ports bidding
        // for output `o`
        let mut req_vc = [0u8; MAX_PORTS];
        let mut out_req = [0u16; MAX_PORTS];
        let mut omask = 0u32;
        let mut nominated = 0u64;
        let vc_bits = (1u64 << vcs) - 1;
        for (p, nominee) in req_vc.iter_mut().enumerate().take(ports) {
            let mut m = (amask >> (p * vcs)) & vc_bits;
            let mut ready = 0u64;
            while m != 0 {
                let v = m.trailing_zeros() as usize;
                m &= m - 1;
                let ivc = &self.slab.inputs[base + p * vcs + v];
                debug_assert_eq!(ivc.state, VcState::Active);
                if ivc.is_empty() {
                    continue; // allocated, but the next body flit is in flight
                }
                let op = ivc.out_port as usize;
                if op == LOCAL_PORT
                    || self.slab.out_vcs[base + op * vcs + ivc.out_vc as usize].credits > 0
                {
                    ready |= 1 << v;
                } else {
                    self.slab.pipeline[id].sa_credit_starved += 1;
                }
            }
            if ready == 0 {
                continue;
            }
            let v = if age_based {
                oldest(ready, |v| birth(self.slab, p * vcs + v))
            } else {
                round_robin(ready, self.slab.sa_in_ptr[self.slab.pp(id, p)])
            };
            let op = self.slab.inputs[base + p * vcs + v].out_port as usize;
            *nominee = v as u8;
            out_req[op] |= 1 << p;
            omask |= 1 << op;
            nominated += 1;
        }

        // output stage: one grant per requested output port, ascending
        let mut granted = 0u64;
        while omask != 0 {
            let o = omask.trailing_zeros() as usize;
            omask &= omask - 1;
            let reqs = out_req[o] as u64;
            let in_port = if age_based {
                oldest(reqs, |p| birth(self.slab, p * vcs + req_vc[p] as usize))
            } else {
                round_robin(reqs, self.slab.sa_rr[self.slab.pp(id, o)])
            };
            let in_vc = req_vc[in_port] as usize;

            // commit
            let in_flat = in_port * vcs + in_vc;
            let out_vc = self.slab.inputs[base + in_flat].out_vc as usize;
            let Some(mut flit) = self.q_pop_flat(in_flat) else {
                return Err(SimError::MissingFlit {
                    router: id,
                    port: in_port,
                    vc: in_vc,
                    stage: "switch traversal",
                });
            };
            self.slab.occupancy[id] -= 1;
            flit.vc = out_vc as u8;
            debug_assert_eq!(
                flit.tail,
                flit.seq as usize == packets.get(flit.pkt).size as usize - 1,
                "flit tail bit disagrees with packet size"
            );
            if o != LOCAL_PORT {
                self.slab.out_vcs[base + o * vcs + out_vc].credits -= 1;
            }
            if flit.tail {
                self.slab.out_vcs[base + o * vcs + out_vc].owner = NO_PACKET;
                self.slab.active_mask[id] &= !(1 << in_flat);
                let ivc = &mut self.slab.inputs[base + in_flat];
                ivc.release();
                // the next packet's head may already be queued behind
                // the departed tail
                if !ivc.is_empty() {
                    self.slab.wants_mask[id] |= 1 << in_flat;
                }
            }
            self.slab.pipeline[id].sa_grants += 1;
            granted += 1;
            let in_pp = self.slab.pp(id, in_port);
            self.slab.sa_in_ptr[in_pp] = if in_vc + 1 == vcs { 0 } else { (in_vc + 1) as u32 };
            let out_pp = self.slab.pp(id, o);
            self.slab.sa_rr[out_pp] = if in_port + 1 == ports { 0 } else { (in_port + 1) as u32 };
            wins.push(SaWin {
                out_port: o as u8,
                out_vc: out_vc as u8,
                in_port: in_port as u8,
                in_vc: in_vc as u8,
                flit,
            });
        }
        // every nomination either won an output grant or collided with
        // one that did
        self.slab.pipeline[id].sa_conflicts += nominated - granted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyKind;
    use crate::flit::{Packet, PacketId, PacketSlab};
    use crate::routing::{RouteState, VcBook};
    use crate::topology::port_plus;

    fn mk_packet(src: usize, dst: usize, size: u16, birth: u64) -> Packet {
        Packet { uid: 0, src, dst, size, class: 0, birth, inject: u64::MAX, payload: 0 }
    }

    struct Fixture {
        lut: RouteLut,
        book: VcBook,
        packets: PacketSlab,
    }

    impl Fixture {
        fn new() -> Self {
            let topo = TopologyKind::Mesh2D { k: 4 };
            let lut = RouteLut::new(topo);
            let book = VcBook::new(2, 1, RoutingKind::Dor, topo).unwrap();
            Self { lut, book, packets: PacketSlab::new() }
        }
    }

    /// Flit of `pkt` with the tail bit derived from the slab entry, as
    /// the network's injection path does.
    fn flit_of(packets: &PacketSlab, pkt: PacketId, seq: u16, vc: u8) -> Flit {
        let size = packets.get(pkt).size;
        Flit { pkt, seq, vc, tail: seq + 1 == size }
    }

    /// Build a context borrowing only `lut` and `book`, so
    /// `packets` stays independently borrowable.
    fn ctx_of<'a>(lut: &'a RouteLut, book: &'a VcBook, arb: Arbitration) -> RouterCtx<'a> {
        RouterCtx { routing: RoutingKind::Dor, lut, book, arb, survivors: None }
    }

    #[test]
    fn single_flit_traverses_va_and_sa() {
        let mut fx = Fixture::new();
        // router 0, packet heading to node 3 (straight +x)
        let pid = fx.packets.insert(mk_packet(0, 3, 1, 0), RouteState::direct());
        let mut slab = RouterSlab::new(1, 5, 2, 4);
        let mut r = slab.router_mut(0);
        r.deposit(0, flit_of(&fx.packets, pid, 0, 0)).unwrap();

        let ctx = ctx_of(&fx.lut, &fx.book, Arbitration::RoundRobin);
        r.vc_allocate(&ctx, &mut fx.packets).unwrap();
        let ivc = r.input(0, 0);
        assert_eq!(ivc.state, VcState::Active);
        assert_eq!(ivc.out_port as usize, port_plus(0));

        let mut wins = Vec::new();
        r.switch_allocate(&ctx, &fx.packets, &mut wins).unwrap();
        assert_eq!(wins.len(), 1);
        let w = wins[0];
        assert_eq!(w.out_port as usize, port_plus(0));
        assert!(w.flit.tail);
        // tail departure releases everything
        assert_eq!(r.input(0, 0).state, VcState::Idle);
        assert!(r.out_vc(port_plus(0), w.out_vc as usize).is_free());
        // one credit consumed downstream
        assert_eq!(r.out_vc(port_plus(0), w.out_vc as usize).credits, 3);
    }

    #[test]
    fn ejection_at_destination() {
        let mut fx = Fixture::new();
        let pid = fx.packets.insert(mk_packet(3, 0, 1, 0), RouteState::direct());
        let mut slab = RouterSlab::new(1, 5, 2, 4);
        let mut r = slab.router_mut(0);
        r.deposit(port_plus(0), flit_of(&fx.packets, pid, 0, 0)).unwrap();
        let ctx = ctx_of(&fx.lut, &fx.book, Arbitration::RoundRobin);
        r.vc_allocate(&ctx, &mut fx.packets).unwrap();
        assert_eq!(r.input(port_plus(0), 0).out_port as usize, LOCAL_PORT);
        let mut wins = Vec::new();
        r.switch_allocate(&ctx, &fx.packets, &mut wins).unwrap();
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].out_port as usize, LOCAL_PORT);
    }

    #[test]
    fn no_credit_blocks_switch() {
        let mut fx = Fixture::new();
        let pid = fx.packets.insert(mk_packet(0, 3, 1, 0), RouteState::direct());
        let mut slab = RouterSlab::new(1, 5, 2, 1);
        let mut r = slab.router_mut(0);
        r.deposit(0, flit_of(&fx.packets, pid, 0, 0)).unwrap();
        let ctx = ctx_of(&fx.lut, &fx.book, Arbitration::RoundRobin);
        r.vc_allocate(&ctx, &mut fx.packets).unwrap();
        // exhaust the credit of the allocated output VC
        let op = r.input(0, 0).out_port as usize;
        let ov = r.input(0, 0).out_vc as usize;
        r.out_vc_mut(op, ov).credits = 0;
        let mut wins = Vec::new();
        r.switch_allocate(&ctx, &fx.packets, &mut wins).unwrap();
        assert!(wins.is_empty(), "no credit, no traversal");
        // credit returns, traversal proceeds
        r.credit(op, ov).unwrap();
        r.switch_allocate(&ctx, &fx.packets, &mut wins).unwrap();
        assert_eq!(wins.len(), 1);
    }

    #[test]
    fn output_port_grants_one_per_cycle() {
        let mut fx = Fixture::new();
        // two packets from different input ports both heading +x
        let a = fx.packets.insert(mk_packet(0, 3, 1, 0), RouteState::direct());
        let b = fx.packets.insert(mk_packet(0, 3, 1, 1), RouteState::direct());
        let mut slab = RouterSlab::new(1, 5, 2, 4);
        let mut r = slab.router_mut(0);
        r.deposit(0, flit_of(&fx.packets, a, 0, 0)).unwrap();
        r.deposit(port_plus(1), flit_of(&fx.packets, b, 0, 0)).unwrap();
        let ctx = ctx_of(&fx.lut, &fx.book, Arbitration::RoundRobin);
        r.vc_allocate(&ctx, &mut fx.packets).unwrap();
        // both got different output VCs of the same port (2 VCs available)
        let mut wins = Vec::new();
        r.switch_allocate(&ctx, &fx.packets, &mut wins).unwrap();
        assert_eq!(wins.len(), 1, "one grant per output port per cycle");
        r.switch_allocate(&ctx, &fx.packets, &mut wins).unwrap();
        assert_eq!(wins.len(), 2, "second flit follows next cycle");
    }

    #[test]
    fn wormhole_blocks_second_packet_on_same_vc() {
        let mut fx = Fixture::new();
        // a 2-flit packet holds its output VC until the tail departs
        let a = fx.packets.insert(mk_packet(0, 3, 2, 0), RouteState::direct());
        let b = fx.packets.insert(mk_packet(0, 3, 1, 1), RouteState::direct());
        let mut slab = RouterSlab::new(1, 5, 2, 4);
        let mut r = slab.router_mut(0);
        r.deposit(0, flit_of(&fx.packets, a, 0, 0)).unwrap();
        r.deposit(0, flit_of(&fx.packets, b, 0, 1)).unwrap();
        let ctx = ctx_of(&fx.lut, &fx.book, Arbitration::RoundRobin);
        r.vc_allocate(&ctx, &mut fx.packets).unwrap();
        // both allocate (2 output VCs exist); they share the output port
        let mut owners: Vec<_> = (0..r.vcs()).map(|v| r.out_vc(port_plus(0), v).owner).collect();
        owners.sort_unstable();
        assert_eq!(owners, vec![a.min(b), a.max(b)]);
        // deposit a's body flit; drain everything
        r.deposit(0, flit_of(&fx.packets, a, 1, 0)).unwrap();
        let mut wins = Vec::new();
        for _ in 0..4 {
            r.switch_allocate(&ctx, &fx.packets, &mut wins).unwrap();
        }
        assert_eq!(wins.len(), 3);
        assert!((0..r.vcs()).all(|v| r.out_vc(port_plus(0), v).is_free()));
    }

    #[test]
    fn age_based_va_prefers_oldest() {
        let mut fx = Fixture::new();
        // both want the only VC (mask 0b11 but we fill vc 1 with an owner)
        let young = fx.packets.insert(mk_packet(0, 3, 1, 100), RouteState::direct());
        let old = fx.packets.insert(mk_packet(0, 3, 1, 5), RouteState::direct());
        let mut slab = RouterSlab::new(1, 5, 2, 4);
        let mut r = slab.router_mut(0);
        // leave just one free output VC on port +x
        r.out_vc_mut(port_plus(0), 1).owner = 999;
        r.deposit(0, flit_of(&fx.packets, young, 0, 0)).unwrap();
        r.deposit(port_plus(1), flit_of(&fx.packets, old, 0, 0)).unwrap();
        let ctx = ctx_of(&fx.lut, &fx.book, Arbitration::AgeBased);
        r.vc_allocate(&ctx, &mut fx.packets).unwrap();
        assert_eq!(r.out_vc(port_plus(0), 0).owner, old, "oldest packet wins VA");
        assert_eq!(r.input(0, 0).state, VcState::Idle, "young packet must retry");
    }

    #[test]
    fn slab_views_address_distinct_routers() {
        let mut fx = Fixture::new();
        let pid = fx.packets.insert(mk_packet(0, 3, 1, 0), RouteState::direct());
        let mut slab = RouterSlab::new(3, 5, 2, 4);
        slab.router_mut(1).deposit(0, flit_of(&fx.packets, pid, 0, 0)).unwrap();
        assert!(slab.is_idle(0) && !slab.is_idle(1) && slab.is_idle(2));
        assert_eq!(slab.occupancies(), &[0, 1, 0]);
        assert_eq!(slab.router(1).buffered_flits(), 1);
        assert_eq!(slab.router(0).buffered_flits(), 0);
        // output credits are per router: spending one leaves neighbors alone
        slab.router_mut(2).out_vc_mut(port_plus(0), 0).credits = 1;
        assert_eq!(slab.router(0).out_vc(port_plus(0), 0).credits, 4);
        assert_eq!(slab.router(1).out_vc(port_plus(0), 0).credits, 4);
    }
}
