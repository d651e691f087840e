//! Packets, flits, and the packet slab.
//!
//! A [`Packet`] is the unit of the workload (one request or reply); it is
//! broken into [`Flit`]s, the unit of flow control. Flits carry only an
//! index into the [`PacketSlab`], a sequence number, the target VC and a
//! tail bit — 8 bytes — so the per-cycle data stays one word wide. The
//! slab itself is split by temperature: what VC allocation reads and
//! writes at every hop (destination, class, routing state) sits in a
//! dense array of 24-byte [`RouteRec`]s, the rest of the [`Packet`]
//! (identity and timestamps, read at injection and delivery) beside it.

use crate::routing::RouteState;

/// Simulation time in cycles.
pub type Cycle = u64;

/// Index into the packet slab (dense, reused).
pub type PacketId = u32;

/// Sentinel for "no packet".
pub const NO_PACKET: PacketId = u32::MAX;

/// Message class, used to partition virtual channels so request/reply
/// protocols cannot deadlock. Class 0 = requests, class 1 = replies in
/// the closed-loop models; open-loop traffic uses a single class 0.
pub type MsgClass = u8;

/// One flow-control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Slab index of the owning packet.
    pub pkt: PacketId,
    /// Position within the packet (0 = head).
    pub seq: u16,
    /// The VC this flit targets at the *downstream* buffer it is moving
    /// toward; rewritten at each switch allocation.
    pub vc: u8,
    /// True when this is the packet's last flit. Carried in the flit so
    /// the switch-allocation and ejection paths decide tail handling
    /// without a random packet-slab lookup per flit-hop (the slab stays
    /// cold on the flit fast path).
    pub tail: bool,
}

/// A packet in flight (or queued at a source).
///
/// Deliberately *not* `Copy` and with a counting [`Clone`]: the engine
/// must never duplicate packet state on its per-cycle path (flits carry
/// only the slab id). Debug builds count every clone so a regression
/// test can pin the hot path at zero (see [`packet_clones`]).
#[derive(Debug)]
pub struct Packet {
    /// Globally unique sequence number (never reused, unlike the slab id).
    pub uid: u64,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Length in flits (>= 1).
    pub size: u16,
    /// Message class for VC partitioning.
    pub class: MsgClass,
    /// Cycle the packet was created (entered the source queue).
    pub birth: Cycle,
    /// Cycle the head flit entered the network (left the source queue);
    /// `u64::MAX` until injection.
    pub inject: Cycle,
    /// Opaque workload tag (e.g. request id for reply matching).
    pub payload: u64,
}

impl Packet {
    /// True once the head flit has entered the network.
    #[inline]
    pub fn injected(&self) -> bool {
        self.inject != u64::MAX
    }
}

#[cfg(debug_assertions)]
thread_local! {
    static PACKET_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of [`Packet::clone`] calls made on this thread so far.
///
/// Debug builds only. The engine's per-cycle path must not clone packet
/// state; tests snapshot this counter around a run and assert the delta
/// is zero, turning an accidental `clone()` into a test failure instead
/// of a silent slowdown. Thread-local so concurrently running tests (or
/// parallel experiment grids) do not observe each other.
#[cfg(debug_assertions)]
pub fn packet_clones() -> u64 {
    PACKET_CLONES.with(|c| c.get())
}

impl Clone for Packet {
    fn clone(&self) -> Self {
        #[cfg(debug_assertions)]
        PACKET_CLONES.with(|c| c.set(c.get() + 1));
        Self {
            uid: self.uid,
            src: self.src,
            dst: self.dst,
            size: self.size,
            class: self.class,
            birth: self.birth,
            inject: self.inject,
            payload: self.payload,
        }
    }
}

/// Information handed to [`crate::network::NodeBehavior::deliver`] when a
/// packet fully arrives. Plain-old-data and `Copy`: behaviors retain it
/// by value without heap traffic.
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    /// Globally unique packet sequence number.
    pub uid: u64,
    /// Source node.
    pub src: usize,
    /// Destination node (the node receiving the delivery callback).
    pub dst: usize,
    /// Length in flits.
    pub size: u16,
    /// Message class.
    pub class: MsgClass,
    /// Creation cycle (source-queue entry).
    pub birth: Cycle,
    /// Network-entry cycle of the head flit.
    pub inject: Cycle,
    /// Opaque workload tag.
    pub payload: u64,
}

/// Request to create a packet, returned by
/// [`crate::network::NodeBehavior::pull`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSpec {
    /// Destination node.
    pub dst: usize,
    /// Length in flits (>= 1).
    pub size: u16,
    /// Message class.
    pub class: MsgClass,
    /// Opaque workload tag echoed back at delivery.
    pub payload: u64,
}

/// What VC allocation needs of a packet at every hop, packed so the
/// allocator's random slab access touches 24 bytes instead of a whole
/// [`Packet`].
#[derive(Debug, Clone, Copy)]
pub struct RouteRec {
    /// Destination node.
    pub dst: u32,
    /// Message class.
    pub class: MsgClass,
    /// Routing state (phase, intermediate, dateline bit), advanced at
    /// every granted hop.
    pub route: RouteState,
}

/// Dense slab of live packets with index reuse.
#[derive(Debug, Default)]
pub struct PacketSlab {
    slots: Vec<Option<Packet>>,
    /// Routing records, parallel to `slots` (stale where the slot is
    /// free).
    routes: Vec<RouteRec>,
    free: Vec<PacketId>,
    next_uid: u64,
    live: usize,
}

impl PacketSlab {
    /// Empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a packet with its initial routing state, assigning its
    /// `uid`; returns the slab id.
    pub fn insert(&mut self, mut pkt: Packet, route: RouteState) -> PacketId {
        pkt.uid = self.next_uid;
        self.next_uid += 1;
        self.live += 1;
        let rec = RouteRec { dst: pkt.dst as u32, class: pkt.class, route };
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none());
                self.slots[id as usize] = Some(pkt);
                self.routes[id as usize] = rec;
                id
            }
            None => {
                self.slots.push(Some(pkt));
                self.routes.push(rec);
                (self.slots.len() - 1) as PacketId
            }
        }
    }

    /// Routing record of a live packet.
    #[inline]
    pub fn route(&self, id: PacketId) -> &RouteRec {
        debug_assert!(self.slots[id as usize].is_some(), "dangling packet id");
        &self.routes[id as usize]
    }

    /// Mutable routing record of a live packet.
    #[inline]
    pub fn route_mut(&mut self, id: PacketId) -> &mut RouteRec {
        debug_assert!(self.slots[id as usize].is_some(), "dangling packet id");
        &mut self.routes[id as usize]
    }

    /// Borrow a live packet.
    ///
    /// # Panics
    /// If `id` is not live (indicates a flit outliving its packet — a bug).
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        self.slots[id as usize].as_ref().expect("dangling packet id")
    }

    /// Mutably borrow a live packet.
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        self.slots[id as usize].as_mut().expect("dangling packet id")
    }

    /// Remove and return a packet, freeing its slot.
    pub fn remove(&mut self, id: PacketId) -> Packet {
        let pkt = self.slots[id as usize].take().expect("double free of packet id");
        self.free.push(id);
        self.live -= 1;
        pkt
    }

    /// Number of live packets.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total uids ever assigned (== packets ever created).
    pub fn total_created(&self) -> u64 {
        self.next_uid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(src: usize, dst: usize) -> Packet {
        Packet { uid: 0, src, dst, size: 1, class: 0, birth: 0, inject: u64::MAX, payload: 0 }
    }

    fn insert(slab: &mut PacketSlab, pkt: Packet) -> PacketId {
        slab.insert(pkt, RouteState::direct())
    }

    #[test]
    fn insert_get_remove() {
        let mut slab = PacketSlab::new();
        let a = insert(&mut slab, mk(0, 1));
        let b = insert(&mut slab, mk(2, 3));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.get(a).dst, 1);
        assert_eq!(slab.get(b).src, 2);
        let pa = slab.remove(a);
        assert_eq!(pa.dst, 1);
        assert_eq!(slab.live(), 1);
    }

    #[test]
    fn ids_are_reused_but_uids_are_not() {
        let mut slab = PacketSlab::new();
        let a = insert(&mut slab, mk(0, 1));
        let uid_a = slab.get(a).uid;
        slab.remove(a);
        let b = insert(&mut slab, mk(4, 5));
        assert_eq!(a, b, "slot should be reused");
        assert_ne!(uid_a, slab.get(b).uid, "uid must be fresh");
        assert_eq!(slab.total_created(), 2);
    }

    #[test]
    #[should_panic]
    fn get_after_remove_panics() {
        let mut slab = PacketSlab::new();
        let a = insert(&mut slab, mk(0, 1));
        slab.remove(a);
        slab.get(a);
    }

    #[test]
    #[should_panic]
    fn double_remove_panics() {
        let mut slab = PacketSlab::new();
        let a = insert(&mut slab, mk(0, 1));
        slab.remove(a);
        slab.remove(a);
    }

    #[test]
    fn injected_flag() {
        let mut p = mk(0, 1);
        assert!(!p.injected());
        p.inject = 10;
        assert!(p.injected());
    }

    #[test]
    fn hot_records_are_small() {
        assert!(std::mem::size_of::<Flit>() <= 8);
        assert!(std::mem::size_of::<RouteRec>() <= 24);
    }

    #[test]
    fn route_record_follows_the_slot() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(mk(0, 7), RouteState::via(3));
        assert_eq!((slab.route(a).dst, slab.route(a).route.intermediate), (7, 3));
        slab.route_mut(a).route.phase = 1;
        assert_eq!(slab.route(a).route.phase, 1);
        slab.remove(a);
        let b = insert(&mut slab, mk(1, 2));
        assert_eq!(a, b);
        assert_eq!((slab.route(b).dst, slab.route(b).route.phase), (2, 1));
        assert_eq!(slab.route(b).route.intermediate, usize::MAX, "record rewritten on reuse");
    }
}
