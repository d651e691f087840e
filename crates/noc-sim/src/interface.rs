//! Network interface (NI): per-node source queues, injection VC
//! selection state, and ejection reassembly.
//!
//! Each message class gets its own source queue and injection stream so
//! that a blocked request class can never head-of-line-block the reply
//! class — the standard requirement for request/reply protocol deadlock
//! freedom at the injection point.
//!
//! Injection credits have no queue of their own: the router phase of
//! cycle `t` runs after the injection phase of `t`, so a credit the
//! router adds to `inj_credits` at `t` is first read at `t + 1` — the
//! one-cycle return delay is the phase order itself.

use std::collections::VecDeque;

use crate::flit::{Cycle, Flit, PacketId};

/// A packet currently being streamed flit-by-flit into the router.
#[derive(Debug, Clone, Copy)]
pub struct InjStream {
    /// The packet being injected.
    pub pkt: PacketId,
    /// Injection VC in use.
    pub vc: u8,
    /// Next flit sequence number to emit.
    pub next_seq: u16,
}

/// Per-node network interface state.
#[derive(Debug)]
pub struct Ni {
    /// Unbounded source queue per message class.
    pub class_q: Vec<VecDeque<PacketId>>,
    /// In-progress injection stream per class.
    pub stream: Vec<Option<InjStream>>,
    /// Injection VC occupancy: true while a packet is mid-stream on it.
    pub inj_busy: Vec<bool>,
    /// Credits toward the router's port-0 input buffers, per VC.
    pub inj_credits: Vec<u32>,
    /// Flits that have been ejected and are propagating to the node.
    pub eject_q: VecDeque<(Cycle, Flit)>,
    /// Self-addressed packets bypassing the network: `(ready, pkt)`.
    pub local_q: VecDeque<(Cycle, PacketId)>,
    /// Rotating class pointer for injection fairness.
    pub class_rr: usize,
    /// Rotating VC pointer for injection VC selection.
    pub vc_rr: usize,
}

impl Ni {
    /// New NI for a router with `vcs` injection VCs of depth `vc_buf`,
    /// serving `classes` message classes.
    pub fn new(classes: usize, vcs: usize, vc_buf: usize) -> Self {
        Self {
            class_q: (0..classes).map(|_| VecDeque::new()).collect(),
            stream: vec![None; classes],
            inj_busy: vec![false; vcs],
            inj_credits: vec![vc_buf as u32; vcs],
            eject_q: VecDeque::new(),
            local_q: VecDeque::new(),
            class_rr: 0,
            vc_rr: 0,
        }
    }

    /// Pick a free injection VC within `mask` (not busy, has credit),
    /// rotating for fairness.
    pub fn pick_inj_vc(&mut self, mask: u64) -> Option<u8> {
        let n = self.inj_busy.len();
        for i in 0..n {
            let v = (self.vc_rr + i) % n;
            if mask & (1 << v) != 0 && !self.inj_busy[v] && self.inj_credits[v] > 0 {
                self.vc_rr = (v + 1) % n;
                return Some(v as u8);
            }
        }
        None
    }

    /// Packets waiting in source queues (not yet fully injected).
    pub fn queued_packets(&self) -> usize {
        self.class_q.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_inj_vc_respects_mask_busy_credits() {
        let mut ni = Ni::new(1, 4, 2);
        assert_eq!(ni.pick_inj_vc(0b0100), Some(2));
        ni.inj_busy[2] = true;
        assert_eq!(ni.pick_inj_vc(0b0100), None);
        ni.inj_credits[1] = 0;
        assert_eq!(ni.pick_inj_vc(0b0010), None);
        assert_eq!(ni.pick_inj_vc(0b1011), Some(3));
    }

    #[test]
    fn pick_inj_vc_rotates() {
        let mut ni = Ni::new(1, 2, 4);
        assert_eq!(ni.pick_inj_vc(0b11), Some(0));
        assert_eq!(ni.pick_inj_vc(0b11), Some(1));
        assert_eq!(ni.pick_inj_vc(0b11), Some(0));
    }

    #[test]
    fn queued_packets_sums_classes() {
        let mut ni = Ni::new(2, 2, 4);
        ni.class_q[0].push_back(1);
        ni.class_q[1].push_back(2);
        ni.class_q[1].push_back(3);
        assert_eq!(ni.queued_packets(), 3);
    }
}
