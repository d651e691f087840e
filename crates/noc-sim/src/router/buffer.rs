//! Per-VC input buffers and output-side VC state.
//!
//! Flit storage itself lives in one flat network-wide ring store owned
//! by the [`RouterSlab`](super::RouterSlab) (`n * ports * vcs * vc_buf`
//! slots, contiguous), so an `InputVc` is pure metadata: ring
//! head/length plus allocation state. This keeps all per-router buffer
//! state in a handful of cache lines instead of one small heap
//! allocation per VC, which is what the allocator scans touch every
//! cycle.

use crate::flit::{PacketId, NO_PACKET};

/// State of an input virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet allocated; a head flit at the front triggers VC
    /// allocation.
    Idle,
    /// Output port/VC allocated; flits stream through switch allocation.
    Active,
}

/// One input VC: ring-buffer cursor into the router's flit store plus
/// allocation state. 12 bytes, no heap.
#[derive(Debug)]
pub struct InputVc {
    /// Ring index of the front flit within this VC's `vc_buf` slots.
    pub head: u8,
    /// Number of buffered flits (bounded by `vc_buf` via credits).
    pub len: u8,
    /// Allocation state.
    pub state: VcState,
    /// Allocated output port (valid when `Active`).
    pub out_port: u8,
    /// Allocated output VC (valid when `Active`).
    pub out_vc: u8,
    /// Packet currently occupying this VC (valid when `Active`).
    pub pkt: PacketId,
}

impl InputVc {
    /// Fresh idle VC.
    pub fn new() -> Self {
        Self { head: 0, len: 0, state: VcState::Idle, out_port: 0, out_vc: 0, pkt: NO_PACKET }
    }

    /// Buffered flit count.
    #[inline]
    pub fn qlen(&self) -> usize {
        self.len as usize
    }

    /// True when no flit is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the VC is idle with a flit waiting for allocation.
    /// Wormhole ordering guarantees the front of an idle, non-empty VC
    /// is a packet head (asserted at deposit and by the sanitizer's
    /// framing check), so no flit inspection is needed here.
    #[inline]
    pub fn wants_allocation(&self) -> bool {
        self.state == VcState::Idle && self.len > 0
    }

    /// Release the VC after the tail flit departs.
    #[inline]
    pub fn release(&mut self) {
        self.state = VcState::Idle;
        self.pkt = NO_PACKET;
    }
}

impl Default for InputVc {
    fn default() -> Self {
        Self::new()
    }
}

/// Output-side state of one VC: wormhole ownership plus the credit count
/// for the downstream buffer.
#[derive(Debug, Clone, Copy)]
pub struct OutputVc {
    /// Packet currently owning this output VC (tail not yet passed).
    pub owner: PacketId,
    /// Downstream buffer slots available.
    pub credits: u32,
}

impl OutputVc {
    /// Fresh, unowned, fully credited VC.
    pub fn new(credits: u32) -> Self {
        Self { owner: NO_PACKET, credits }
    }

    /// True when no packet owns the VC.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.owner == NO_PACKET
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wants_allocation_only_when_idle_nonempty() {
        let mut vc = InputVc::new();
        assert!(!vc.wants_allocation(), "empty VC");
        vc.len = 1;
        assert!(vc.wants_allocation());
        vc.state = VcState::Active;
        assert!(!vc.wants_allocation(), "active VC");
    }

    #[test]
    fn release_resets() {
        let mut vc = InputVc::new();
        vc.state = VcState::Active;
        vc.pkt = 7;
        vc.release();
        assert_eq!(vc.state, VcState::Idle);
        assert_eq!(vc.pkt, NO_PACKET);
    }
}
