//! Runtime invariant sanitizer (the `sanitize` cargo feature).
//!
//! After every cycle, [`super::Network::try_step`] calls into this
//! module to re-derive the engine's global conservation laws from
//! scratch and compare them against the counters the engine maintains
//! incrementally:
//!
//! - **Flit conservation** — every injected flit is either buffered in
//!   a router, in flight on a link, queued for ejection, or already
//!   ejected; nothing is duplicated or dropped. In-flight flits are
//!   recounted from the timing wheel's slots and overflow list, and
//!   each link's in-flight counter must agree with that recount.
//! - **Credit conservation** — for every (channel, VC): credits held
//!   upstream + credits in flight + flits in flight + flits buffered
//!   downstream always equals the configured buffer depth. A node's
//!   injection channel has nothing in flight (the router hands the
//!   credit straight back), so its law is held + buffered == depth.
//! - **Wormhole framing** — within every buffer and link, flits of a
//!   packet appear as consecutive sequence numbers, a new packet starts
//!   only after the previous packet's tail, and an un-allocated VC
//!   always has a head flit at its front.
//! - **Wheel filing** — every in-flight event sits in the slot of its
//!   own arrival cycle, no slot at or before the current cycle holds
//!   anything, the overflow list holds only events beyond the horizon
//!   (none within it is left behind after arrivals), and per link the
//!   arrival order is non-decreasing in time.
//! - **Allocation consistency** — an active input VC and the output VC
//!   it claimed agree on the owning packet, and no output VC is
//!   claimed by two inputs.
//! - **Fault consistency** (only with a fault plan installed) — every
//!   effective dead-channel bit re-derives from its cause ledger
//!   (direct failure OR a dead endpoint router), the cached dead-set
//!   population counts match the bit vectors, and the survivor table
//!   is present exactly while some fault is active.
//! - **Progress watchdog** — if no flit moves for a configurable
//!   number of cycles while packets are live, the sanitizer fails the
//!   step with a pretty-printed wait-for chain (the deadlock cycle,
//!   when one exists) plus a full buffer snapshot.
//!
//! The checks cost roughly O(total buffered state) per cycle, so the
//! feature is off by default and meant for verification runs.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::error::SimError;
use crate::flit::{Cycle, Flit};
use crate::router::VcState;
use crate::topology::LOCAL_PORT;

use super::Network;

/// Counters proving the sanitizer actually ran (tests assert on them).
#[derive(Debug, Clone, Default)]
pub struct SanitizeStats {
    /// Cycles on which the full check suite executed.
    pub cycles_checked: u64,
    /// Flit-conservation evaluations (one per checked cycle).
    pub conservation_checks: u64,
    /// Per-(channel, VC) credit-conservation evaluations.
    pub credit_checks: u64,
    /// Per-queue wormhole framing evaluations.
    pub framing_checks: u64,
    /// Current cycles since the watchdog last saw a flit move.
    pub idle_cycles: u64,
}

/// Watchdog default: cycles without flit movement before declaring the
/// network stuck.
pub const DEFAULT_WATCHDOG: u64 = 1_000;

#[derive(Debug)]
pub(super) struct Sanitizer {
    stats: SanitizeStats,
    watchdog: u64,
    /// Progress signature: (flits injected, flits ejected, packets
    /// delivered, switch grants, flits dropped by faults).
    last_sig: (u64, u64, u64, u64, u64),
    last_progress: Cycle,
}

impl Sanitizer {
    pub(super) fn new() -> Self {
        Self {
            stats: SanitizeStats::default(),
            watchdog: DEFAULT_WATCHDOG,
            last_sig: (0, 0, 0, 0, 0),
            last_progress: 0,
        }
    }
}

impl Network {
    fn link_idx(&self, router: usize, port: usize) -> usize {
        debug_assert!(port >= 1);
        router * self.eng.ports1 + (port - 1)
    }

    /// Sanitizer counters (how many checks have run so far).
    pub fn sanitize_stats(&self) -> &SanitizeStats {
        &self.san.stats
    }

    /// Set the watchdog threshold: cycles without any flit movement
    /// (while packets are live) before [`SimError::Stuck`] is raised.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.san.watchdog = cycles.max(1);
    }

    /// Run the full invariant suite; called at the end of every
    /// [`Network::try_step`] when the `sanitize` feature is on.
    pub(super) fn sanitize_check(&mut self) -> Result<(), SimError> {
        let t = self.cycle;
        self.check_flit_conservation(t)?;
        self.check_credit_conservation(t)?;
        self.check_framing(t)?;
        self.check_wheel(t)?;
        self.check_allocation_consistency(t)?;
        self.sanitize_fault_consistency(t)?;
        self.check_watchdog(t)?;
        self.san.stats.cycles_checked += 1;
        Ok(())
    }

    /// Injected flits = ejected + buffered + in flight + awaiting
    /// ejection.
    fn check_flit_conservation(&mut self, t: Cycle) -> Result<(), SimError> {
        let buffered: u64 = (0..self.eng.routers.len())
            .map(|r| self.eng.routers.router(r).buffered_flits() as u64)
            .sum();
        // in-flight flits, recounted per link from the wheel itself
        let mut on_link = vec![0u32; self.eng.links.len()];
        for (_, ev) in self.eng.wheel.iter_flits() {
            on_link[ev.link as usize] += 1;
        }
        let in_flight: u64 = on_link.iter().map(|&c| c as u64).sum();
        for (li, (&counted, link)) in on_link.iter().zip(&self.eng.links).enumerate() {
            let held = link.as_ref().map_or(0, |l| l.in_flight);
            if counted != held {
                return Err(SimError::Invariant {
                    cycle: t,
                    check: "flit conservation",
                    detail: format!(
                        "link {li}: in-flight counter says {held}, the wheel holds {counted}"
                    ),
                });
            }
        }
        let ejecting: u64 = self.eng.nis.iter().map(|ni| ni.eject_q.len() as u64).sum();
        let accounted = self.eng.stats.flits_ejected
            + buffered
            + in_flight
            + ejecting
            + self.eng.stats.flits_dropped;
        self.san.stats.conservation_checks += 1;
        if accounted != self.eng.stats.flits_injected {
            return Err(SimError::Invariant {
                cycle: t,
                check: "flit conservation",
                detail: format!(
                    "{} flits injected but {accounted} accounted for \
                     ({} ejected + {buffered} buffered + {in_flight} on links + \
                     {ejecting} awaiting ejection + {} dropped by faults)",
                    self.eng.stats.flits_injected,
                    self.eng.stats.flits_ejected,
                    self.eng.stats.flits_dropped
                ),
            });
        }
        Ok(())
    }

    /// Per (channel, VC): upstream credits + in-flight credits +
    /// in-flight flits + downstream occupancy == buffer depth; on a
    /// node's injection channel, held + buffered == buffer depth.
    fn check_credit_conservation(&mut self, t: Cycle) -> Result<(), SimError> {
        let vc_buf = self.cfg.vc_buf as u64;
        let vcs = self.cfg.vcs;
        let ports = self.cfg.topology.num_ports();
        // one pass over the wheel: (credits, flits) in flight per (link, VC)
        let mut flying = vec![(0u64, 0u64); self.eng.links.len() * vcs];
        for (_, ev) in self.eng.wheel.iter_credits() {
            let li = self.link_idx(ev.src_router as usize, ev.src_port as usize);
            flying[li * vcs + ev.vc as usize].0 += 1;
        }
        for (_, ev) in self.eng.wheel.iter_flits() {
            flying[ev.link as usize * vcs + ev.flit.vc as usize].1 += 1;
        }
        for r in 0..self.eng.routers.len() {
            for p in 1..ports {
                let li = self.link_idx(r, p);
                let Some(link) = self.eng.links[li].as_ref() else { continue };
                let (dr, dp) = (link.dst_router, link.dst_port);
                for v in 0..vcs {
                    let held = self.eng.routers.router(r).out_vc(p, v).credits as u64;
                    let (credits_in_flight, flits_in_flight) = flying[li * vcs + v];
                    let downstream = self.eng.routers.router(dr).q_len(dp, v) as u64;
                    let total = held + credits_in_flight + flits_in_flight + downstream;
                    self.san.stats.credit_checks += 1;
                    if total != vc_buf {
                        return Err(SimError::Invariant {
                            cycle: t,
                            check: "credit conservation",
                            detail: format!(
                                "channel router {r} out[{p}][{v}] -> router {dr} \
                                 in[{dp}][{v}]: {held} held + {credits_in_flight} \
                                 credits in flight + {flits_in_flight} flits in \
                                 flight + {downstream} buffered = {total}, \
                                 expected {vc_buf}"
                            ),
                        });
                    }
                }
            }
            // injection channel: NI -> router local input port
            for v in 0..vcs {
                let ni = &self.eng.nis[r];
                let held = ni.inj_credits[v] as u64;
                let buffered = self.eng.routers.router(r).q_len(LOCAL_PORT, v) as u64;
                let total = held + buffered;
                self.san.stats.credit_checks += 1;
                if total != vc_buf {
                    return Err(SimError::Invariant {
                        cycle: t,
                        check: "credit conservation",
                        detail: format!(
                            "injection channel node {r} VC {v}: {held} held + \
                             {buffered} buffered = {total}, expected {vc_buf}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Wormhole framing inside every queue: consecutive sequence
    /// numbers within a packet, packet changes only across a tail, and
    /// un-allocated VCs start with a head flit.
    fn check_framing(&mut self, t: Cycle) -> Result<(), SimError> {
        // router input buffers
        for ri in 0..self.eng.routers.len() {
            let r = self.eng.routers.router(ri);
            for p in 0..r.ports() {
                for v in 0..r.vcs() {
                    let ivc = r.input(p, v);
                    self.san.stats.framing_checks += 1;
                    let where_ = || format!("router {ri} in[{p}][{v}]");
                    self.check_queue_framing(t, r.q_iter(p, v), &where_())?;
                    if ivc.state != VcState::Active {
                        if let Some(front) = r.q_front(p, v) {
                            if front.seq != 0 {
                                return Err(SimError::Invariant {
                                    cycle: t,
                                    check: "VC framing",
                                    detail: format!(
                                        "{}: un-allocated VC fronts a body flit \
                                         (pkt {} seq {})",
                                        where_(),
                                        front.pkt,
                                        front.seq
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        // links and ejection queues carry interleaved VCs: check per VC.
        // One pass over the wheel sorts its flits into (link, VC) lanes,
        // each in arrival order.
        let vcs = self.cfg.vcs;
        let mut lanes: Vec<Vec<&Flit>> = vec![Vec::new(); self.eng.links.len() * vcs];
        for (_, ev) in self.eng.wheel.iter_flits() {
            lanes[ev.link as usize * vcs + ev.flit.vc as usize].push(&ev.flit);
        }
        for (lane, flits) in lanes.iter().enumerate() {
            if self.eng.links[lane / vcs].is_some() {
                self.san.stats.framing_checks += 1;
            }
            if !flits.is_empty() {
                let where_ = format!("link {} VC {}", lane / vcs, lane % vcs);
                self.check_queue_framing(t, flits.iter().copied(), &where_)?;
            }
        }
        for (n, ni) in self.eng.nis.iter().enumerate() {
            for v in 0..vcs {
                self.san.stats.framing_checks += 1;
                let flits = ni.eject_q.iter().map(|(_, f)| f).filter(|f| f.vc as usize == v);
                self.check_queue_framing(t, flits, &format!("node {n} eject VC {v}"))?;
            }
        }
        Ok(())
    }

    /// Wheel filing: slot events sit under their own arrival cycle, in
    /// the future and inside the horizon; overflow events lie beyond
    /// it; per link, arrival order never goes back in time.
    fn check_wheel(&mut self, t: Cycle) -> Result<(), SimError> {
        let wheel = &self.eng.wheel;
        let (now, horizon) = (wheel.drained(), wheel.horizon());
        let mut last = vec![(0, 0); self.eng.links.len()]; // (credit, flit) ready per link
        let credits = wheel.iter_credits().map(|(slot, ev)| {
            let li = self.link_idx(ev.src_router as usize, ev.src_port as usize);
            (slot, ev.ready, li, false)
        });
        let flits = wheel.iter_flits().map(|(slot, ev)| (slot, ev.ready, ev.link as usize, true));
        for (slot, ready, li, is_flit) in credits.chain(flits) {
            let what = if is_flit { "flit" } else { "credit" };
            let filed_ok = match slot {
                Some(c) => c == ready && c > now,
                None => ready > horizon,
            };
            let prev = if is_flit { &mut last[li].1 } else { &mut last[li].0 };
            if !filed_ok || ready < *prev {
                return Err(SimError::Invariant {
                    cycle: t,
                    check: "wheel filing",
                    detail: format!(
                        "{what} of link {li} due at {ready} is filed under {slot:?} after one \
                         due at {prev} (now {now}, horizon {horizon}; None = overflow)"
                    ),
                });
            }
            *prev = ready;
        }
        Ok(())
    }

    /// Shared framing walk over one flit sequence.
    fn check_queue_framing<'a>(
        &self,
        t: Cycle,
        flits: impl Iterator<Item = &'a Flit>,
        where_: &str,
    ) -> Result<(), SimError> {
        let mut prev: Option<&Flit> = None;
        for f in flits {
            if let Some(p) = prev {
                let ok = if f.pkt == p.pkt {
                    f.seq == p.seq + 1
                } else {
                    // packet switch: previous must be a tail, next a head
                    let prev_size = self.eng.packets.get(p.pkt).size;
                    p.seq as usize == prev_size as usize - 1 && f.seq == 0
                };
                if !ok {
                    return Err(SimError::Invariant {
                        cycle: t,
                        check: "VC framing",
                        detail: format!(
                            "{where_}: pkt {} seq {} followed by pkt {} seq {}",
                            p.pkt, p.seq, f.pkt, f.seq
                        ),
                    });
                }
            }
            prev = Some(f);
        }
        Ok(())
    }

    /// Active input VCs and the output VCs they claimed must agree on
    /// the owning packet, one input per output VC.
    fn check_allocation_consistency(&mut self, t: Cycle) -> Result<(), SimError> {
        for ri in 0..self.eng.routers.len() {
            let r = self.eng.routers.router(ri);
            let mut claimed: HashSet<(usize, usize)> = HashSet::new();
            for p in 0..r.ports() {
                for v in 0..r.vcs() {
                    let ivc = r.input(p, v);
                    if ivc.state != VcState::Active {
                        continue;
                    }
                    let (op, ov) = (ivc.out_port as usize, ivc.out_vc as usize);
                    let owner = r.out_vc(op, ov).owner;
                    if owner != ivc.pkt {
                        return Err(SimError::Invariant {
                            cycle: t,
                            check: "allocation consistency",
                            detail: format!(
                                "router {ri}: in[{p}][{v}] streams pkt {} through \
                                 out[{op}][{ov}] owned by pkt {owner}",
                                ivc.pkt
                            ),
                        });
                    }
                    if !claimed.insert((op, ov)) {
                        return Err(SimError::Invariant {
                            cycle: t,
                            check: "allocation consistency",
                            detail: format!(
                                "router {ri}: out[{op}][{ov}] claimed by two input VCs"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Raise [`SimError::Stuck`] when nothing has moved for the
    /// watchdog threshold while packets are live.
    fn check_watchdog(&mut self, t: Cycle) -> Result<(), SimError> {
        let pipe = self.pipeline_stats();
        let sig = (
            self.eng.stats.flits_injected,
            self.eng.stats.flits_ejected,
            self.eng.stats.packets_delivered,
            pipe.sa_grants,
            self.eng.stats.flits_dropped,
        );
        if sig != self.san.last_sig || self.eng.packets.live() == 0 {
            self.san.last_sig = sig;
            self.san.last_progress = t;
            self.san.stats.idle_cycles = 0;
            return Ok(());
        }
        let idle = t.saturating_sub(self.san.last_progress);
        self.san.stats.idle_cycles = idle;
        if idle < self.san.watchdog {
            return Ok(());
        }
        let mut detail = self.wait_for_chain();
        detail.push_str("--- buffer snapshot ---\n");
        detail.push_str(&self.debug_state());
        Err(SimError::Stuck { cycle: t, idle_cycles: idle, detail })
    }

    /// Walk the wait-for graph from each blocked input VC until a
    /// channel repeats (a deadlock cycle) or the chain leaves the
    /// allocated state; pretty-print the longest finding.
    fn wait_for_chain(&self) -> String {
        let mut best = String::new();
        let mut best_is_cycle = false;
        for start_r in 0..self.eng.routers.len() {
            for p in 0..self.eng.routers.ports() {
                for v in 0..self.eng.routers.vcs() {
                    let ivc = self.eng.routers.router(start_r).input(p, v);
                    if ivc.state != VcState::Active || ivc.is_empty() {
                        continue;
                    }
                    let (text, is_cycle) = self.walk_chain(start_r, p, v);
                    if is_cycle {
                        return format!("--- wait-for cycle ---\n{text}");
                    }
                    if !best_is_cycle && text.len() > best.len() {
                        best = text;
                        best_is_cycle = is_cycle;
                    }
                }
            }
        }
        if best.is_empty() {
            "--- no allocated VC is waiting (stalled before VC allocation) ---\n".to_string()
        } else {
            format!("--- longest wait-for chain (no cycle found) ---\n{best}")
        }
    }

    /// Follow allocated output VCs downstream from one input VC.
    fn walk_chain(&self, mut r: usize, mut p: usize, mut v: usize) -> (String, bool) {
        let mut out = String::new();
        let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
        loop {
            if !seen.insert((r, p, v)) {
                let _ = writeln!(out, "  router {r} in[{p}][{v}]  <- cycle closes here");
                return (out, true);
            }
            let ivc = self.eng.routers.router(r).input(p, v);
            if ivc.state != VcState::Active {
                let _ = writeln!(
                    out,
                    "  router {r} in[{p}][{v}]: waiting for VC allocation \
                     (qlen {})",
                    ivc.qlen()
                );
                return (out, false);
            }
            let (op, ov) = (ivc.out_port as usize, ivc.out_vc as usize);
            let credits = self.eng.routers.router(r).out_vc(op, ov).credits;
            let _ = writeln!(
                out,
                "  router {r} in[{p}][{v}] (pkt {}, qlen {}) -> out[{op}][{ov}] \
                 (credits {credits})",
                ivc.pkt,
                ivc.qlen()
            );
            if op == LOCAL_PORT {
                let _ = writeln!(out, "  ejecting at router {r} (not blocked by fabric)");
                return (out, false);
            }
            let Some((dr, dp)) = self.cfg.topology.neighbor(r, op) else {
                return (out, false);
            };
            (r, p, v) = (dr, dp, ov);
        }
    }
}
