//! Inter-router links and the timing wheel their traffic waits on.
//!
//! A [`Link`] is pure bookkeeping: where the channel leads, its delay,
//! and two counters. The flits and credits *in flight* on all links live
//! in one network-wide [`Wheel`], bucketed by the cycle they arrive, so
//! a cycle's arrivals are two contiguous slices instead of a queue per
//! link.

use crate::flit::{Cycle, Flit};

/// One directed link from a router output port to a neighbor input port.
#[derive(Debug)]
pub struct Link {
    /// Destination router.
    pub dst_router: usize,
    /// Destination input port.
    pub dst_port: usize,
    /// Propagation delay in cycles.
    pub delay: u32,
    /// Flits currently on the wire (pushed, not yet arrived). Under
    /// link-level retry this is the retry buffer's fill level.
    pub in_flight: u32,
    /// Flits carried over the whole run (utilization statistics).
    pub flits_carried: u64,
}

impl Link {
    /// New idle link.
    pub fn new(dst_router: usize, dst_port: usize, delay: u32) -> Self {
        Self { dst_router, dst_port, delay, in_flight: 0, flits_carried: 0 }
    }
}

/// A flit on the wire of link `link`, bound for `(dst_router, dst_port)`.
#[derive(Debug, Clone, Copy)]
pub struct FlitEvent {
    /// Index of the carrying link (`router * (ports-1) + (port-1)`).
    pub link: u32,
    /// Router the flit arrives at.
    pub dst_router: u32,
    /// Input port it arrives on.
    pub dst_port: u8,
    /// The flit (`vc` names the downstream input VC).
    pub flit: Flit,
    /// Arrival cycle, carried only so the sanitizer can check filing.
    #[cfg(feature = "sanitize")]
    pub ready: Cycle,
}

/// A credit travelling back to output `(src_router, src_port)`, i.e. up
/// link `src_router * (ports-1) + (src_port-1)`.
#[derive(Debug, Clone, Copy)]
pub struct CreditEvent {
    /// Router whose output VC regains the credit.
    pub src_router: u32,
    /// Its output port.
    pub src_port: u8,
    /// The output VC.
    pub vc: u8,
    /// Arrival cycle, carried only so the sanitizer can check filing.
    #[cfg(feature = "sanitize")]
    pub ready: Cycle,
}

/// Timing wheel over every in-flight flit and credit of the network.
///
/// Slot `c & (W-1)` holds the events arriving at cycle `c`, for the
/// `W-1` cycles after the last drained one — the *horizon*. `W` is a
/// power of two covering the nominal flight time (`router_delay` + link
/// delay) but never more than [`Wheel::MAX_SLOTS`], so memory does not
/// grow with `router_delay`; an event due beyond the horizon (a huge
/// `router_delay`, or a link-level replay) waits in an overflow list
/// kept in push order and is filed once the horizon reaches it.
///
/// Per link, ready times are pushed in non-decreasing order (each cycle
/// pushes `now + const`; link-level retry clamps a flit behind its
/// replaying predecessor), so appending to slots and filing overflow in
/// push order keeps every link FIFO. Order *across* links is free: each
/// link feeds its own input port and credits its own output port.
#[derive(Debug)]
pub struct Wheel {
    mask: u64,
    /// Every slot for cycles `<= drained` is empty.
    drained: Cycle,
    flits: Lane<FlitEvent>,
    credits: Lane<CreditEvent>,
}

/// One kind of event on the wheel: its slots and its overflow list.
#[derive(Debug)]
struct Lane<E> {
    slots: Vec<Vec<E>>,
    late: Vec<(Cycle, E)>,
}

impl<E: Copy> Lane<E> {
    fn new(slots: usize) -> Self {
        Self { slots: vec![Vec::new(); slots], late: Vec::new() }
    }

    #[inline]
    fn slot_mut(&mut self, c: Cycle) -> &mut Vec<E> {
        let i = c as usize & (self.slots.len() - 1);
        &mut self.slots[i]
    }

    /// File `ev` under `ready`, or park it while that is past `horizon`.
    #[inline]
    fn file(&mut self, ready: Cycle, ev: E, horizon: Cycle) {
        if ready <= horizon {
            self.slot_mut(ready).push(ev);
        } else {
            self.late.push((ready, ev));
        }
    }

    /// Move the overflow events `horizon` has reached into their slots
    /// (in push order, hence stably per link); those already due by
    /// `t` are returned instead, the rest keep waiting.
    fn refile(&mut self, t: Cycle, horizon: Cycle) -> Vec<E> {
        let mut due = Vec::new();
        let mask = self.slots.len() - 1;
        let slots = &mut self.slots;
        self.late.retain(|&(ready, ev)| {
            if ready <= t {
                due.push(ev);
            } else if ready <= horizon {
                slots[ready as usize & mask].push(ev);
            }
            ready > horizon
        });
        due
    }

    /// Events as `(slot cycle, event)` for the slots of `cycles` in
    /// order, then the overflow list (`None`) in push order — which is
    /// arrival order within any one link.
    #[cfg(feature = "sanitize")]
    fn iter(
        &self,
        cycles: std::ops::RangeInclusive<Cycle>,
    ) -> impl Iterator<Item = (Option<Cycle>, &E)> {
        let mask = self.slots.len() - 1;
        cycles
            .flat_map(move |c| self.slots[c as usize & mask].iter().map(move |e| (Some(c), e)))
            .chain(self.late.iter().map(|(_, e)| (None, e)))
    }
}

impl Wheel {
    /// Upper bound on the slot count, whatever the router delay.
    pub const MAX_SLOTS: u64 = 64;

    /// Wheel whose horizon covers events up to `span` cycles ahead when
    /// that fits in [`Wheel::MAX_SLOTS`] slots.
    pub fn new(span: u64) -> Self {
        let slots = (span + 2).next_power_of_two().min(Self::MAX_SLOTS) as usize;
        Self {
            mask: slots as u64 - 1,
            drained: 0,
            flits: Lane::new(slots),
            credits: Lane::new(slots),
        }
    }

    /// Last cycle whose arrivals have been handed out.
    #[inline]
    pub fn drained(&self) -> Cycle {
        self.drained
    }

    /// Last cycle an event can be filed under right now.
    #[inline]
    pub fn horizon(&self) -> Cycle {
        self.drained + self.mask
    }

    /// Schedule a flit arrival. A `ready` that is not in the future is
    /// filed under the next cycle, the first one that can still see it.
    #[inline]
    pub fn push_flit(&mut self, ready: Cycle, link: u32, dst: (u32, u8), flit: Flit) {
        let ready = ready.max(self.drained + 1);
        let ev = FlitEvent {
            link,
            dst_router: dst.0,
            dst_port: dst.1,
            flit,
            #[cfg(feature = "sanitize")]
            ready,
        };
        self.flits.file(ready, ev, self.drained + self.mask);
    }

    /// Schedule a credit arrival (same filing rule as flits).
    #[inline]
    pub fn push_credit(&mut self, ready: Cycle, src_router: u32, src_port: u8, vc: u8) {
        let ready = ready.max(self.drained + 1);
        let ev = CreditEvent {
            src_router,
            src_port,
            vc,
            #[cfg(feature = "sanitize")]
            ready,
        };
        self.credits.file(ready, ev, self.drained + self.mask);
    }

    /// Cycles whose slots [`Wheel::slot_mut`] must hand out to bring the
    /// wheel up to `t`: every undrained one through `t`, so a
    /// fast-forward jump still absorbs what it skipped over (slots
    /// further out than the horizon cannot hold anything yet).
    #[inline]
    pub fn due(&self, t: Cycle) -> std::ops::RangeInclusive<Cycle> {
        self.drained + 1..=t.min(self.horizon())
    }

    /// The credit and flit slots of cycle `c`, for the caller to drain.
    #[inline]
    pub fn slot_mut(&mut self, c: Cycle) -> (&mut Vec<CreditEvent>, &mut Vec<FlitEvent>) {
        (self.credits.slot_mut(c), self.flits.slot_mut(c))
    }

    /// Declare every slot through `t` drained and move the horizon up:
    /// overflow events now inside it are filed, those a jump already
    /// passed are returned for immediate delivery.
    pub fn advance(&mut self, t: Cycle) -> (Vec<CreditEvent>, Vec<FlitEvent>) {
        debug_assert!(t >= self.drained);
        self.drained = t;
        let horizon = self.horizon();
        (self.credits.refile(t, horizon), self.flits.refile(t, horizon))
    }

    /// Arrival cycle of the earliest in-flight flit, if any — the
    /// quiescent-cycle fast-forward's next link event. Credits are
    /// deliberately not reported: with every router idle and nothing
    /// queued to inject, a late credit absorption is observationally
    /// identical to an on-time one.
    pub fn next_flit_ready(&self) -> Option<Cycle> {
        (self.drained + 1..=self.horizon())
            .find(|&c| !self.flits.slots[(c & self.mask) as usize].is_empty())
            .or_else(|| self.flits.late.iter().map(|&(ready, _)| ready).min())
    }

    /// Events waiting `(in slots, in the overflow lists)`.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> (usize, usize) {
        (
            self.flits.slots.iter().map(Vec::len).sum::<usize>()
                + self.credits.slots.iter().map(Vec::len).sum::<usize>(),
            self.flits.late.len() + self.credits.late.len(),
        )
    }

    /// Every in-flight flit as `(slot cycle, event)`: all slots in
    /// cycle order — starting with the current cycle's, which must be
    /// empty — then the overflow list (`None`; the event carries its
    /// ready time). For the sanitizer's independent recounts.
    #[cfg(feature = "sanitize")]
    pub fn iter_flits(&self) -> impl Iterator<Item = (Option<Cycle>, &FlitEvent)> {
        self.flits.iter(self.drained..=self.horizon())
    }

    /// Every in-flight credit, ordered like [`Wheel::iter_flits`].
    #[cfg(feature = "sanitize")]
    pub fn iter_credits(&self) -> impl Iterator<Item = (Option<Cycle>, &CreditEvent)> {
        self.credits.iter(self.drained..=self.horizon())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(seq: u16) -> Flit {
        Flit { pkt: 0, seq, vc: 0, tail: false }
    }

    /// Drain the wheel up to `t` the way the engine does; returns the
    /// flit sequence numbers and credit VCs handed out, in order.
    fn drain(w: &mut Wheel, t: Cycle) -> (Vec<u16>, Vec<u8>) {
        let (mut flits, mut credits) = (Vec::new(), Vec::new());
        for c in w.due(t) {
            let (cs, fs) = w.slot_mut(c);
            credits.extend(cs.drain(..).map(|e| e.vc));
            flits.extend(fs.drain(..).map(|e| e.flit.seq));
        }
        let (cs, fs) = w.advance(t);
        credits.extend(cs.iter().map(|e| e.vc));
        flits.extend(fs.iter().map(|e| e.flit.seq));
        (flits, credits)
    }

    #[test]
    fn events_arrive_at_their_cycle_in_push_order() {
        let mut w = Wheel::new(2);
        w.push_flit(2, 0, (1, 2), flit(0));
        w.push_flit(3, 0, (1, 2), flit(1));
        w.push_flit(3, 7, (4, 1), flit(2));
        w.push_credit(3, 0, 1, 5);
        assert_eq!(w.next_flit_ready(), Some(2));
        assert_eq!(drain(&mut w, 1), (vec![], vec![]));
        assert_eq!(drain(&mut w, 2), (vec![0], vec![]));
        assert_eq!(w.next_flit_ready(), Some(3));
        assert_eq!(drain(&mut w, 3), (vec![1, 2], vec![5]));
        assert_eq!(w.next_flit_ready(), None);
    }

    #[test]
    fn a_jump_drains_every_skipped_slot() {
        let mut w = Wheel::new(6);
        w.push_credit(2, 0, 1, 0);
        w.push_credit(4, 0, 1, 1);
        w.push_flit(5, 0, (1, 1), flit(9));
        // jump far past the horizon: everything filed is handed out once
        assert_eq!(drain(&mut w, 1_000), (vec![9], vec![0, 1]));
        assert_eq!(drain(&mut w, 1_001), (vec![], vec![]));
        assert_eq!(w.drained(), 1_001);
    }

    #[test]
    fn slot_count_is_bounded_whatever_the_span() {
        assert_eq!(Wheel::new(2).flits.slots.len(), 4);
        assert_eq!(Wheel::new(43).flits.slots.len(), 64);
        assert_eq!(Wheel::new(u32::MAX as u64 + 3).flits.slots.len() as u64, Wheel::MAX_SLOTS);
    }

    #[test]
    fn late_events_wait_in_overflow_and_stay_fifo_per_link() {
        let mut w = Wheel::new(2); // 4 slots: horizon is 3 cycles
        w.push_flit(300, 0, (1, 1), flit(0)); // replayed: far beyond the horizon
        w.push_flit(300, 0, (1, 1), flit(1)); // clamped behind it
        assert_eq!(w.next_flit_ready(), Some(300));
        for t in 1..=296 {
            assert_eq!(drain(&mut w, t), (vec![], vec![]), "cycle {t}");
        }
        assert_eq!(w.flits.late.len(), 2);
        assert_eq!(drain(&mut w, 297), (vec![], vec![]));
        assert!(w.flits.late.is_empty(), "filed once the horizon reaches 300");
        // a later flit of the same link now lands directly in the slot, behind them
        w.push_flit(300, 0, (1, 1), flit(2));
        assert_eq!(drain(&mut w, 299), (vec![], vec![]));
        assert_eq!(drain(&mut w, 300), (vec![0, 1, 2], vec![]));
    }

    #[test]
    fn a_jump_onto_an_overflow_event_delivers_it() {
        let mut w = Wheel::new(2);
        w.push_credit(2, 3, 1, 7);
        w.push_flit(10_000, 0, (1, 1), flit(4));
        assert_eq!(w.next_flit_ready(), Some(10_000));
        assert_eq!(drain(&mut w, 10_000), (vec![4], vec![7]));
        assert_eq!(w.next_flit_ready(), None);
    }

    #[test]
    fn a_push_that_is_already_due_lands_on_the_next_cycle() {
        let mut w = Wheel::new(2);
        drain(&mut w, 5);
        w.push_credit(5, 0, 1, 3); // zero-delay credit pushed during cycle 5
        w.push_flit(2, 0, (1, 1), flit(8));
        assert_eq!(drain(&mut w, 6), (vec![8], vec![3]));
    }
}
