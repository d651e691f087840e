//! Deterministic fault injection, online repair, and recovery.
//!
//! A [`FaultPlan`] describes everything that goes wrong during a run:
//! timed link/router failures *and repairs*, a transient per-traversal
//! corruption probability — plus two selectable recovery modes: an
//! end-to-end [`RetxPolicy`] under which source NIs retransmit
//! undelivered packets, and a hop-level [`LinkRetryPolicy`] under which
//! CRC-detected corruption is replayed from a per-link retry buffer
//! instead of being dropped. Install the plan with
//! [`Network::set_fault_plan`] (or the validating
//! [`Network::try_set_fault_plan`]) before stepping; a network without
//! a plan behaves exactly as before (the fault hooks are a single
//! `Option` check per cycle).
//!
//! # Fault semantics
//!
//! Failures are **packet-granular and fail-stop at channel entry**: the
//! drop decision is made once, when a packet's *head* flit is switched
//! onto a link. A dead (or corrupting) channel swallows the whole
//! packet at that same link — the head and every later flit of the
//! packet that arrives there — while packets whose head already crossed
//! before the failure drain normally. This keeps every engine
//! invariant intact under the `sanitize` feature:
//!
//! - **Wormhole framing** is preserved everywhere: a packet is only
//!   ever truncated at the single channel that swallows it, so every
//!   upstream buffer and link still sees head..tail in order.
//! - **Credit conservation** is exact: the credit consumed by switch
//!   allocation for a swallowed flit is refunded in the same cycle, so
//!   a dead channel never leaks (and never wedges) downstream buffer
//!   slots.
//! - **Flit conservation** gains one term: swallowed flits are counted
//!   in [`super::NetStats::flits_dropped`].
//!
//! A **router failure** kills every incident link (both directions) and
//! the node's NI: queued source packets are discarded, no new packets
//! are pulled, and packets that still reach the dead NI's ejection port
//! are lost. Flits already buffered inside the dead router keep
//! switching mechanically and drain into the dead links.
//!
//! # Epochs and repair
//!
//! Topology state changes in **epochs**: each cycle whose due events
//! net-change the surviving graph closes one epoch
//! ([`FaultStats::epochs`] counts them) and triggers one in-place
//! [`SurvivorTable::rebuild`] at the boundary. Direct link failures
//! ([`FaultEvent::LinkFail`]) are tracked separately from the
//! *effective* dead set, so a channel stays dead while either its own
//! failure is unrepaired or either endpoint router is down, and
//! [`FaultEvent::LinkRepair`] / [`FaultEvent::RouterRepair`] restore
//! exactly the channels whose every cause has cleared. When an epoch
//! leaves the topology fully healed the survivor table is dropped
//! entirely — routing re-converges online to the configured algorithm.
//! A packet mid-swallow keeps draining into the channel that took its
//! head even if that channel is repaired mid-packet (the pinning in
//! `dooming` is by link, not by link state), so wormhole framing holds
//! across repair boundaries.
//!
//! # Rerouting
//!
//! While any fault is active the engine maintains a [`SurvivorTable`]:
//! per-destination shortest-path next hops (breadth-first search over
//! the surviving directed graph, deterministic port-order tie-breaks).
//! While the table is installed, VC allocation routes by it instead of
//! the configured routing function; destinations that are unreachable
//! in the surviving topology fall back to the original routing, which
//! guarantees the packet is swallowed by a dead channel on the way (any
//! original path to an unreachable destination crosses the cut). The
//! BFS table does not preserve the configured algorithm's turn/dateline
//! deadlock-freedom argument — degraded-mode runs should be bounded by
//! a cycle budget (see `noc-exp`'s divergence watchdog) or checked with
//! `noc-verify`'s fault-connectivity lint.
//!
//! # Recovery: end-to-end vs link-level
//!
//! With a [`RetxPolicy`], every non-self packet pull opens a *transfer*
//! keyed by the uid of its first attempt. Delivery of any attempt
//! completes the transfer (later duplicates are suppressed before the
//! behavior/digest see them); an undelivered transfer is retransmitted
//! after a timeout with capped exponential backoff, and abandoned once
//! its destination is unreachable or `max_attempts` is exhausted —
//! except that while the plan still holds unapplied events, abandonment
//! for unreachability is *deferred*: a repair may yet restore the path,
//! so the transfer is re-armed one base timeout out instead.
//!
//! With a [`LinkRetryPolicy`], corruption detected at a link's receiver
//! (the CRC model) is not an end-to-end loss: the sender holds every
//! in-flight flit in a retry buffer and replays on nack, each round
//! costing [`LinkRetryPolicy::replay_rtt`] cycles, bounded by
//! [`LinkRetryPolicy::max_replays`] rounds before the hop gives up and
//! the packet is dropped (recoverable end-to-end if both modes are on).
//! Replay delay is modeled by pushing the flit's link-exit time out and
//! clamping every later flit on that channel behind it (the link is
//! FIFO, exactly like a replaying wire). Dead channels are not
//! retryable — only corruption is.
//!
//! Everything is bookkept per `(config, seed, plan)` — replays are
//! bit-identical, including the delivery digest.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::config::TopologyKind;
use crate::error::{ConfigError, SimError};
use crate::flit::{Cycle, PacketId, PacketSpec};
use crate::rng::SimRng;
use crate::router::SaWin;
use crate::routing::PortSet;

use super::{Engine, Network};

/// One timed fault or repair, applied at the start of its cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The directed channel leaving `router` through `port` fails:
    /// packets whose head enters it from this cycle on are lost.
    LinkFail {
        /// Cycle the failure takes effect.
        cycle: Cycle,
        /// Router the channel leaves.
        router: usize,
        /// Output port (>= 1) of the channel.
        port: usize,
    },
    /// Fail-stop router failure: every incident channel dies and the
    /// node's NI stops producing and consuming packets.
    RouterFail {
        /// Cycle the failure takes effect.
        cycle: Cycle,
        /// The failing router.
        router: usize,
    },
    /// The directed channel leaving `router` through `port` comes back
    /// up. The channel only carries traffic again once every cause of
    /// death has cleared (its own failure *and* both endpoint routers).
    LinkRepair {
        /// Cycle the repair takes effect.
        cycle: Cycle,
        /// Router the channel leaves.
        router: usize,
        /// Output port (>= 1) of the channel.
        port: usize,
    },
    /// The router comes back up: its NI resumes producing and consuming
    /// packets, and incident channels revive unless independently
    /// failed (or their far endpoint is still down).
    RouterRepair {
        /// Cycle the repair takes effect.
        cycle: Cycle,
        /// The recovering router.
        router: usize,
    },
}

impl FaultEvent {
    /// Cycle the event takes effect.
    pub fn cycle(&self) -> Cycle {
        match *self {
            FaultEvent::LinkFail { cycle, .. }
            | FaultEvent::RouterFail { cycle, .. }
            | FaultEvent::LinkRepair { cycle, .. }
            | FaultEvent::RouterRepair { cycle, .. } => cycle,
        }
    }

    /// True for repair events (the "comes back up" half of a timeline).
    pub fn is_repair(&self) -> bool {
        matches!(self, FaultEvent::LinkRepair { .. } | FaultEvent::RouterRepair { .. })
    }
}

/// End-to-end retransmission policy applied by source NIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetxPolicy {
    /// Base per-transfer timeout in cycles (attempt 1).
    pub timeout: u64,
    /// Upper bound on the exponentially backed-off timeout.
    pub backoff_cap: u64,
    /// Give up after this many injection attempts (0 = never).
    pub max_attempts: u32,
}

impl Default for RetxPolicy {
    fn default() -> Self {
        Self { timeout: 512, backoff_cap: 8_192, max_attempts: 16 }
    }
}

impl RetxPolicy {
    /// Deadline delta for the attempt that was just sent:
    /// `timeout * 2^(attempt-1)`, capped at `backoff_cap`. Shift-safe
    /// for any `attempt` (large attempt counts saturate at the cap
    /// instead of overflowing the shift).
    pub fn timeout_for(&self, attempt: u32) -> u64 {
        let cap = self.backoff_cap.max(self.timeout);
        let shift = attempt.saturating_sub(1);
        match 1u64.checked_shl(shift) {
            Some(f) => self.timeout.saturating_mul(f).min(cap),
            None => cap,
        }
    }
}

/// Hop-level recovery: replay CRC-corrupted traversals from a per-link
/// retry buffer instead of dropping the packet end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRetryPolicy {
    /// Cycles one nack + replay round adds to the traversal (the link's
    /// ack/nack round-trip).
    pub replay_rtt: u64,
    /// Replay rounds before the hop gives up and drops the packet
    /// (recoverable end-to-end when a [`RetxPolicy`] is also set).
    pub max_replays: u32,
    /// Retry-buffer depth in flits: while a channel already holds this
    /// many un-acked flits, each further push stalls one extra
    /// `replay_rtt` (modeled ack/nack credit backpressure). `0`
    /// disables the depth bound (occupancy is still tracked).
    pub buf_depth: u32,
}

impl Default for LinkRetryPolicy {
    fn default() -> Self {
        Self { replay_rtt: 6, max_replays: 4, buf_depth: 16 }
    }
}

/// A complete fault scenario for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Timed faults and repairs; applied in cycle order.
    pub events: Vec<FaultEvent>,
    /// Per head-flit link-traversal probability of transient corruption
    /// (the packet is dropped and, under retransmission, resent —
    /// unless [`FaultPlan::link_retry`] recovers the traversal first).
    pub corrupt_rate: f64,
    /// Seed of the dedicated corruption RNG. Kept separate from the
    /// simulation RNG so enabling faults never perturbs the traffic
    /// stream itself.
    pub corrupt_seed: u64,
    /// End-to-end retransmission policy; `None` means lost packets stay
    /// lost (delivered fraction then measures raw damage).
    pub retx: Option<RetxPolicy>,
    /// Link-level retry policy; `None` means corruption drops the
    /// packet at the channel (the pre-repair behavior). Selectable
    /// independently of `retx` so hop-level and end-to-end recovery
    /// can be A/B'd on the same schedule.
    pub link_retry: Option<LinkRetryPolicy>,
}

impl FaultPlan {
    /// Check every probability and policy parameter, so a malformed
    /// plan fails loudly at install time instead of silently skewing a
    /// run.
    ///
    /// # Errors
    /// [`ConfigError::Parameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.corrupt_rate.is_finite() || !(0.0..=1.0).contains(&self.corrupt_rate) {
            return Err(ConfigError::Parameter {
                name: "corrupt_rate",
                why: format!("probability must be in [0, 1], got {}", self.corrupt_rate),
            });
        }
        if let Some(rx) = self.retx {
            if rx.timeout == 0 {
                return Err(ConfigError::Parameter {
                    name: "retx.timeout",
                    why: "base timeout must be at least 1 cycle".into(),
                });
            }
        }
        if let Some(lr) = self.link_retry {
            if lr.replay_rtt == 0 {
                return Err(ConfigError::Parameter {
                    name: "link_retry.replay_rtt",
                    why: "replay round-trip must be at least 1 cycle".into(),
                });
            }
            if lr.max_replays == 0 {
                return Err(ConfigError::Parameter {
                    name: "link_retry.max_replays",
                    why: "at least one replay round is required (use link_retry: None \
                          to disable hop-level recovery)"
                        .into(),
                });
            }
        }
        Ok(())
    }
}

/// Check that every event names a router of `topo` and, for link
/// events, an output port in `1..num_ports`.
///
/// # Errors
/// [`ConfigError::Parameter`] named `events`, for the first event out
/// of range.
pub fn validate_events(events: &[FaultEvent], topo: TopologyKind) -> Result<(), ConfigError> {
    let n = topo.num_nodes();
    let ports = topo.num_ports();
    for ev in events {
        let (router, port) = match *ev {
            FaultEvent::LinkFail { router, port, .. }
            | FaultEvent::LinkRepair { router, port, .. } => (router, Some(port)),
            FaultEvent::RouterFail { router, .. } | FaultEvent::RouterRepair { router, .. } => {
                (router, None)
            }
        };
        if router >= n {
            return Err(ConfigError::Parameter {
                name: "events",
                why: format!("{ev:?} names router {router}, topology has {n}"),
            });
        }
        if let Some(port) = port {
            if !(1..ports).contains(&port) {
                return Err(ConfigError::Parameter {
                    name: "events",
                    why: format!("{ev:?} names port {port}, valid ports are 1..{ports}"),
                });
            }
        }
    }
    Ok(())
}

/// Degradation counters maintained while a fault plan is installed.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Transfers opened (non-self packet pulls at live NIs).
    pub transfers_started: u64,
    /// Transfers that completed (first delivery of any attempt).
    pub transfers_delivered: u64,
    /// Transfers given up on (destination unreachable or attempts
    /// exhausted, or the source NI died with the packet still queued).
    pub transfers_abandoned: u64,
    /// Packets re-enqueued by the retransmission protocol.
    pub retransmissions: u64,
    /// Deliveries suppressed because the transfer had already
    /// completed via an earlier attempt.
    pub duplicate_deliveries: u64,
    /// Whole packets swallowed by dead or corrupting channels, lost at
    /// a dead NI, or discarded from a dead NI's source queue.
    pub packets_dropped: u64,
    /// Directed channels killed by `LinkFail` events.
    pub links_failed: u64,
    /// Routers killed by `RouterFail` events.
    pub routers_failed: u64,
    /// Directed channels whose `LinkFail` was cleared by `LinkRepair`.
    pub links_repaired: u64,
    /// Routers revived by `RouterRepair`.
    pub routers_repaired: u64,
    /// Topology epochs: event batches that net-changed the surviving
    /// graph, each closing with one survivor-table rebuild.
    pub epochs: u64,
    /// Link-level replay rounds performed (nack + resend).
    pub link_replays: u64,
    /// Packets dropped at a hop after exhausting its replay budget.
    pub replay_drops: u64,
    /// Peak per-link retry-buffer occupancy (un-acked flits in flight),
    /// tracked only while a [`LinkRetryPolicy`] is installed.
    pub replay_buf_peak: u64,
    /// Pushes stalled one replay round-trip by a full retry buffer.
    pub replay_buf_stalls: u64,
}

/// Per-destination next hops over the surviving topology.
///
/// Built by reverse breadth-first search from every live destination
/// over the live directed graph; `ports(cur, dst)` lists every output
/// port of `cur` that starts a shortest surviving path (ascending port
/// order, so tie-breaks are deterministic). Empty means `dst` is
/// unreachable from `cur` (or `cur == dst`).
#[derive(Debug)]
pub struct SurvivorTable {
    n: usize,
    table: Vec<PortSet>,
    /// Reverse-adjacency scratch, reused across epoch rebuilds.
    rev: Vec<Vec<u32>>,
    /// BFS distance scratch, reused across epoch rebuilds.
    dist: Vec<u32>,
    /// BFS queue scratch, reused across epoch rebuilds.
    queue: VecDeque<usize>,
}

impl SurvivorTable {
    /// Build the table for the given dead-channel / dead-router sets.
    /// `dead_link` is indexed like the engine's link array
    /// (`router * (ports-1) + (port-1)`).
    pub fn build(topo: TopologyKind, dead_link: &[bool], dead_router: &[bool]) -> Self {
        let n = topo.num_nodes();
        let mut t = Self {
            n,
            table: vec![PortSet::new(); n * n],
            rev: vec![Vec::new(); n],
            dist: vec![u32::MAX; n],
            queue: VecDeque::new(),
        };
        t.rebuild(topo, dead_link, dead_router);
        t
    }

    /// Recompute the table in place for new dead sets, reusing every
    /// allocation (table, adjacency, BFS scratch) — the per-epoch
    /// incremental rebuild, so a flapping timeline costs no steady
    /// allocator traffic after its first epoch.
    pub fn rebuild(&mut self, topo: TopologyKind, dead_link: &[bool], dead_router: &[bool]) {
        let n = self.n;
        debug_assert_eq!(n, topo.num_nodes(), "survivor table bound to one topology");
        let ports = topo.num_ports();
        self.table.iter_mut().for_each(|s| *s = PortSet::new());
        // reverse adjacency among survivors: rev[u] lists the live
        // channels (v --p--> u)
        self.rev.iter_mut().for_each(Vec::clear);
        for v in 0..n {
            if dead_router[v] {
                continue;
            }
            for p in 1..ports {
                if let Some((u, _)) = topo.neighbor(v, p) {
                    if !dead_link[v * (ports - 1) + (p - 1)] && !dead_router[u] {
                        self.rev[u].push(v as u32);
                    }
                }
            }
        }
        for dst in 0..n {
            if dead_router[dst] {
                continue;
            }
            self.dist.fill(u32::MAX);
            self.dist[dst] = 0;
            self.queue.clear();
            self.queue.push_back(dst);
            while let Some(u) = self.queue.pop_front() {
                for &v in &self.rev[u] {
                    let v = v as usize;
                    if self.dist[v] == u32::MAX {
                        self.dist[v] = self.dist[u] + 1;
                        self.queue.push_back(v);
                    }
                }
            }
            for cur in 0..n {
                if cur == dst || dead_router[cur] || self.dist[cur] == u32::MAX {
                    continue;
                }
                let mut set = PortSet::new();
                for p in 1..ports {
                    if let Some((w, _)) = topo.neighbor(cur, p) {
                        if !dead_link[cur * (ports - 1) + (p - 1)]
                            && !dead_router[w]
                            && self.dist[w] != u32::MAX
                            && self.dist[w] + 1 == self.dist[cur]
                        {
                            set.push(p);
                        }
                    }
                }
                self.table[cur * n + dst] = set;
            }
        }
    }

    /// Shortest-surviving-path output ports of `cur` toward `dst`.
    pub fn ports(&self, cur: usize, dst: usize) -> PortSet {
        self.table[cur * self.n + dst]
    }

    /// True when a surviving path `cur -> dst` exists (trivially true
    /// for `cur == dst`).
    pub fn reachable(&self, cur: usize, dst: usize) -> bool {
        cur == dst || !self.table[cur * self.n + dst].is_empty()
    }
}

/// One open transfer in the retransmission ledger.
#[derive(Debug, Clone, Copy)]
struct PendingTx {
    node: usize,
    spec: PacketSpec,
    xfer: u64,
    deadline: Cycle,
    attempt: u32,
    done: bool,
}

/// Mutable fault-injection runtime owned by the network.
#[derive(Debug)]
pub(super) struct FaultState {
    plan: FaultPlan,
    /// Next unapplied index into `plan.events`.
    next_event: usize,
    /// *Effectively* dead directed channels (directly failed, or either
    /// endpoint router down), indexed like `Network::links`.
    pub(super) dead_link: Vec<bool>,
    /// Directly failed channels (`LinkFail` not yet repaired) — the
    /// cause ledger behind `dead_link`, so router repairs only revive
    /// channels with no independent failure of their own.
    pub(super) link_failed: Vec<bool>,
    /// Dead routers/NIs.
    pub(super) dead_router: Vec<bool>,
    /// Population counts of `dead_link` / `dead_router`, so an epoch
    /// that fully heals the topology can drop the survivor table in
    /// O(1) instead of rescanning.
    pub(super) dead_links_count: usize,
    pub(super) dead_routers_count: usize,
    /// Per-link earliest admissible push time under link-level retry:
    /// replays delay the wire, and the FIFO link must keep later flits
    /// behind them. Empty unless `plan.link_retry` is set.
    link_lag: Vec<Cycle>,
    /// Dedicated corruption RNG (never shared with the traffic RNG).
    rng: SimRng,
    /// Packets being swallowed: id -> the one link that eats them.
    dooming: HashMap<PacketId, u32>,
    /// Live fault-tracked packets -> transfer id (uid of attempt 1).
    xfer_of: HashMap<PacketId, u64>,
    /// Resolved transfer ids (delivered or abandoned); late or
    /// duplicate arrivals of resolved transfers are suppressed so
    /// `transfers_delivered + transfers_abandoned` partitions
    /// retransmission-tracked transfers exactly.
    resolved: HashSet<u64>,
    /// Retransmission ledger, in registration order.
    pending: Vec<PendingTx>,
    /// Open-transfer index: xfer id -> `pending` slot.
    pending_idx: HashMap<u64, u32>,
    /// Ledger entries not yet done.
    pending_open: usize,
    /// Earliest deadline of any open ledger entry (scan gate; may be
    /// stale-early, never stale-late).
    next_deadline: Cycle,
    pub(super) stats: FaultStats,
}

impl FaultState {
    /// Judge this switch-allocation winner at its channel entry.
    ///
    /// Returns `Ok(None)` when the flit is swallowed by a fault — all
    /// drop bookkeeping (including the credit refund that keeps credit
    /// conservation exact) has been done and the flit must NOT be
    /// pushed onto the link. Returns `Ok(Some(ready))` when the flit
    /// forwards; `ready` is the link-exit cycle, which under link-level
    /// retry may include replay delay and the FIFO lag of earlier
    /// replays on the same channel. `li` is the channel router `r` is
    /// switching `w` onto and `base` the cycle the flit leaves the
    /// router; for a nonexistent channel the verdict is `Forward` at
    /// the nominal time and the caller raises its usual dead-port
    /// error.
    pub(super) fn on_link_entry(
        &mut self,
        eng: &mut Engine,
        r: usize,
        li: usize,
        base: Cycle,
        w: &SaWin,
    ) -> Result<Option<Cycle>, SimError> {
        let pid = w.flit.pkt;
        // replay rounds bought by link-level retry for this head flit
        let mut replay_rounds = 0u32;
        let doomed = match self.dooming.get(&pid) {
            // a packet is only truncated at the single channel that
            // took its head; elsewhere its flits forward normally
            Some(&at) => at as usize == li,
            None if w.flit.seq != 0 => false,
            None if self.dead_link[li] => true, // dead wire: nothing to replay from
            None => {
                if self.plan.corrupt_rate > 0.0 && self.rng.chance(self.plan.corrupt_rate) {
                    match self.plan.link_retry {
                        // no hop-level recovery: corruption is a loss
                        None => true,
                        // CRC caught it at the receiver: bounded replay
                        // from the sender's retry buffer, each round an
                        // independent corruption draw
                        Some(lr) => {
                            let mut recovered = false;
                            while replay_rounds < lr.max_replays {
                                replay_rounds += 1;
                                if !self.rng.chance(self.plan.corrupt_rate) {
                                    recovered = true;
                                    break;
                                }
                            }
                            self.stats.link_replays += replay_rounds as u64;
                            if !recovered {
                                self.stats.replay_drops += 1;
                            }
                            !recovered
                        }
                    }
                } else {
                    false
                }
            }
        };
        if !doomed {
            let Some(link) = eng.links[li].as_ref() else { return Ok(Some(base)) };
            let in_flight = link.in_flight;
            let mut ready = base + link.delay as Cycle;
            if let Some(lr) = self.plan.link_retry {
                // the sender retains every in-flight flit until acked;
                // occupancy is the retry-buffer fill level
                let occupancy = in_flight as u64 + 1;
                self.stats.replay_buf_peak = self.stats.replay_buf_peak.max(occupancy);
                if lr.buf_depth > 0 && in_flight >= lr.buf_depth {
                    self.stats.replay_buf_stalls += 1;
                    ready += lr.replay_rtt;
                }
                ready += replay_rounds as u64 * lr.replay_rtt;
                // the wire is FIFO: stay behind any replaying
                // predecessor, and hold successors behind us
                let lag = &mut self.link_lag[li];
                ready = ready.max(*lag);
                *lag = ready;
            }
            return Ok(Some(ready));
        }
        if w.flit.seq == 0 {
            self.stats.packets_dropped += 1;
            if !w.flit.tail {
                self.dooming.insert(pid, li as u32);
            }
        }
        if w.flit.tail {
            // tail is last in flit order: the whole packet is accounted
            self.dooming.remove(&pid);
            self.xfer_of.remove(&pid);
            eng.packets.remove(pid);
        }
        eng.stats.flits_dropped += 1;
        // refund the output-VC credit switch allocation just consumed
        eng.routers.router_mut(r).credit(w.out_port as usize, w.out_vc as usize)?;
        Ok(None)
    }

    /// Close the ledger entry of `xfer`, if one is open.
    fn close_pending(&mut self, xfer: u64) -> bool {
        if let Some(i) = self.pending_idx.remove(&xfer) {
            let p = &mut self.pending[i as usize];
            if !p.done {
                p.done = true;
                self.pending_open -= 1;
                return true;
            }
        }
        false
    }

    /// Drop closed entries once they dominate the ledger, so timeout
    /// scans stay proportional to *open* transfers.
    fn compact_pending(&mut self) {
        if self.pending.len() < 64 || self.pending_open * 2 >= self.pending.len() {
            return;
        }
        self.pending.retain(|p| !p.done);
        self.pending_idx.clear();
        for (i, p) in self.pending.iter().enumerate() {
            self.pending_idx.insert(p.xfer, i as u32);
        }
    }
}

impl Network {
    /// Install a fault plan. Must be called before the first step of
    /// the run; events are applied at the start of their cycle.
    ///
    /// # Panics
    /// If the network has already stepped, an event names a router or
    /// port outside the topology, or the plan fails
    /// [`FaultPlan::validate`]. Use [`Network::try_set_fault_plan`] to
    /// observe plan problems as typed errors instead.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = self.try_set_fault_plan(plan) {
            panic!("invalid fault plan: {e}");
        }
    }

    /// Validating twin of [`Network::set_fault_plan`]: probability and
    /// policy parameters plus event ranges are checked up front.
    ///
    /// # Errors
    /// [`ConfigError::Parameter`] naming the offending plan field.
    ///
    /// # Panics
    /// If the network has already stepped (a usage error, not a plan
    /// problem).
    pub fn try_set_fault_plan(&mut self, mut plan: FaultPlan) -> Result<(), ConfigError> {
        assert_eq!(self.cycle, 0, "install the fault plan before stepping");
        plan.validate()?;
        validate_events(&plan.events, self.cfg.topology)?;
        let n = self.num_nodes();
        plan.events.sort_by_cached_key(FaultEvent::cycle); // stable: ties keep plan order
        let rng = SimRng::new(plan.corrupt_seed);
        let link_lag =
            if plan.link_retry.is_some() { vec![0; self.eng.links.len()] } else { Vec::new() };
        self.fault = Some(Box::new(FaultState {
            plan,
            next_event: 0,
            dead_link: vec![false; self.eng.links.len()],
            link_failed: vec![false; self.eng.links.len()],
            dead_router: vec![false; n],
            dead_links_count: 0,
            dead_routers_count: 0,
            link_lag,
            rng,
            dooming: HashMap::new(),
            xfer_of: HashMap::new(),
            resolved: HashSet::new(),
            pending: Vec::new(),
            pending_idx: HashMap::new(),
            pending_open: 0,
            next_deadline: Cycle::MAX,
            stats: FaultStats::default(),
        }));
        Ok(())
    }

    /// Degradation counters, when a fault plan is installed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(|f| &f.stats)
    }

    /// True when no transfer is awaiting delivery or retransmission.
    /// `is_idle() && fault_settled()` means the run has fully resolved:
    /// every transfer was delivered or abandoned.
    pub fn fault_settled(&self) -> bool {
        self.fault.as_ref().is_none_or(|f| f.pending_open == 0)
    }

    /// The rerouting table, present once a permanent fault has fired.
    pub fn survivor_table(&self) -> Option<&SurvivorTable> {
        self.survivors.as_deref()
    }

    /// Per-cycle fault work, run before anything else in the cycle:
    /// apply due fault/repair events, then time out / retransmit /
    /// abandon open transfers.
    pub(super) fn fault_pre_step(&mut self, t: Cycle) {
        self.fault_apply_events(t);
        self.fault_retx_scan(t);
    }

    /// Earliest future cycle at which the fault layer itself must act:
    /// the next unapplied event or the next retransmission deadline.
    /// `None` when the installed plan is fully exhausted and settled —
    /// the quiescent-cycle fast-forward may then skip freely.
    pub(super) fn fault_next_wake(&self) -> Option<Cycle> {
        let f = self.fault.as_ref()?;
        let mut next = f.plan.events.get(f.next_event).map(FaultEvent::cycle);
        if f.pending_open > 0 {
            let d = f.next_deadline;
            next = Some(next.map_or(d, |n| n.min(d)));
        }
        next
    }

    /// Apply every event due by `t`. A batch that net-changes the
    /// surviving graph closes one epoch: the survivor table is rebuilt
    /// in place at the boundary (or dropped entirely when the epoch
    /// heals the last fault, handing routing back to the configured
    /// algorithm).
    fn fault_apply_events(&mut self, t: Cycle) {
        let mut changed = false;
        loop {
            let ev = {
                let f = self.fault.as_ref().expect("fault state present");
                match f.plan.events.get(f.next_event) {
                    Some(&ev) if ev.cycle() <= t => ev,
                    _ => break,
                }
            };
            self.fault.as_mut().expect("fault state present").next_event += 1;
            match ev {
                FaultEvent::LinkFail { router, port, .. } => {
                    let li = self.link_idx(router, port);
                    if self.eng.links[li].is_some() {
                        let f = self.fault.as_mut().expect("fault state present");
                        if !f.link_failed[li] {
                            f.link_failed[li] = true;
                            f.stats.links_failed += 1;
                        }
                        changed |= self.fault_recompute_link(li);
                    }
                }
                FaultEvent::LinkRepair { router, port, .. } => {
                    let li = self.link_idx(router, port);
                    if self.eng.links[li].is_some() {
                        let f = self.fault.as_mut().expect("fault state present");
                        if f.link_failed[li] {
                            f.link_failed[li] = false;
                            f.stats.links_repaired += 1;
                        }
                        changed |= self.fault_recompute_link(li);
                    }
                }
                FaultEvent::RouterFail { router, .. } => {
                    changed |= self.fault_kill_router(router);
                }
                FaultEvent::RouterRepair { router, .. } => {
                    changed |= self.fault_repair_router(router);
                }
            }
        }
        if changed {
            let f = self.fault.as_mut().expect("fault state present");
            f.stats.epochs += 1;
            if f.dead_links_count == 0 && f.dead_routers_count == 0 {
                // fully healed: back to the configured routing function
                self.survivors = None;
            } else if let Some(s) = self.survivors.as_deref_mut() {
                s.rebuild(self.cfg.topology, &f.dead_link, &f.dead_router);
            } else {
                self.survivors = Some(Box::new(SurvivorTable::build(
                    self.cfg.topology,
                    &f.dead_link,
                    &f.dead_router,
                )));
            }
        }
    }

    /// Re-derive channel `li`'s effective liveness from its cause
    /// ledger (own failure, endpoint routers); true when it flipped.
    fn fault_recompute_link(&mut self, li: usize) -> bool {
        let Some(link) = self.eng.links[li].as_ref() else { return false };
        let src = li / self.eng.ports1;
        let dst = link.dst_router;
        let f = self.fault.as_mut().expect("fault state present");
        let dead = f.link_failed[li] || f.dead_router[src] || f.dead_router[dst];
        if f.dead_link[li] == dead {
            return false;
        }
        f.dead_link[li] = dead;
        if dead {
            f.dead_links_count += 1;
        } else {
            f.dead_links_count -= 1;
        }
        true
    }

    /// Fail-stop `router`: kill incident channels and its NI, discard
    /// its queued source packets.
    fn fault_kill_router(&mut self, router: usize) -> bool {
        {
            let f = self.fault.as_mut().expect("fault state present");
            if f.dead_router[router] {
                return false;
            }
            f.dead_router[router] = true;
            f.dead_routers_count += 1;
            f.stats.routers_failed += 1;
        }
        let ports = self.cfg.topology.num_ports();
        for p in 1..ports {
            let li = self.link_idx(router, p);
            self.fault_recompute_link(li);
            if let Some(ui) = self.eng.up_link(li) {
                self.fault_recompute_link(ui);
            }
        }
        // will this router come back? if so, its open transfers stay
        // open for the retransmission protocol to recover after repair
        let revives = {
            let f = self.fault.as_ref().expect("fault state present");
            f.plan.events[f.next_event..]
                .iter()
                .any(|ev| matches!(*ev, FaultEvent::RouterRepair { router: r, .. } if r == router))
        };
        // discard packets still queued at the dead NI (none of their
        // flits exist yet, so flit conservation is untouched); their
        // transfers are abandoned immediately unless a repair of this
        // router is still scheduled — then somebody IS left to
        // retransmit them, and the ledger keeps them open
        for c in 0..self.cfg.classes {
            while let Some(pid) = self.eng.nis[router].class_q[c].pop_front() {
                self.eng.packets.remove(pid);
                let f = self.fault.as_mut().expect("fault state present");
                f.stats.packets_dropped += 1;
                if let Some(x) = f.xfer_of.remove(&pid) {
                    if !revives && f.close_pending(x) {
                        f.stats.transfers_abandoned += 1;
                        f.resolved.insert(x);
                    }
                }
            }
        }
        true
    }

    /// Revive `router`: its NI resumes pulling and accepting packets,
    /// and incident channels with no independent failure come back.
    fn fault_repair_router(&mut self, router: usize) -> bool {
        {
            let f = self.fault.as_mut().expect("fault state present");
            if !f.dead_router[router] {
                return false;
            }
            f.dead_router[router] = false;
            f.dead_routers_count -= 1;
            f.stats.routers_repaired += 1;
        }
        let ports = self.cfg.topology.num_ports();
        for p in 1..ports {
            let li = self.link_idx(router, p);
            self.fault_recompute_link(li);
            if let Some(ui) = self.eng.up_link(li) {
                self.fault_recompute_link(ui);
            }
        }
        true
    }

    /// Scan the retransmission ledger for due deadlines.
    fn fault_retx_scan(&mut self, t: Cycle) {
        let Some(policy) = self.fault.as_ref().and_then(|f| f.plan.retx) else { return };
        {
            let f = self.fault.as_mut().expect("fault state present");
            if f.pending_open == 0 || t < f.next_deadline {
                return;
            }
            f.compact_pending();
        }
        let len = self.fault.as_ref().expect("fault state present").pending.len();
        let mut next_deadline = Cycle::MAX;
        for idx in 0..len {
            let (node, spec, xfer, attempt) = {
                let f = self.fault.as_ref().expect("fault state present");
                let p = &f.pending[idx];
                if p.done {
                    continue;
                }
                if p.deadline > t {
                    next_deadline = next_deadline.min(p.deadline);
                    continue;
                }
                (p.node, p.spec, p.xfer, p.attempt)
            };
            let unreachable =
                {
                    let f = self.fault.as_ref().expect("fault state present");
                    f.dead_router[node] || f.dead_router[spec.dst]
                } || self.survivors.as_ref().is_some_and(|s| !s.reachable(node, spec.dst));
            if unreachable {
                // while the plan still holds unapplied events, a repair
                // may restore the path: defer instead of abandoning
                // (deferral is not an attempt, so the budget is kept)
                let more_events = {
                    let f = self.fault.as_ref().expect("fault state present");
                    f.next_event < f.plan.events.len()
                };
                let f = self.fault.as_mut().expect("fault state present");
                if more_events {
                    let p = &mut f.pending[idx];
                    p.deadline = t + policy.timeout;
                    next_deadline = next_deadline.min(p.deadline);
                } else if f.close_pending(xfer) {
                    f.stats.transfers_abandoned += 1;
                    f.resolved.insert(xfer);
                }
                continue;
            }
            if policy.max_attempts > 0 && attempt >= policy.max_attempts {
                let f = self.fault.as_mut().expect("fault state present");
                if f.close_pending(xfer) {
                    f.stats.transfers_abandoned += 1;
                    f.resolved.insert(xfer);
                }
                continue;
            }
            // retransmit: a fresh packet carrying the same spec
            let pid = self.enqueue_packet(node, spec, t);
            let f = self.fault.as_mut().expect("fault state present");
            f.xfer_of.insert(pid, xfer);
            f.stats.retransmissions += 1;
            let p = &mut f.pending[idx];
            p.attempt += 1;
            p.deadline = t + policy.timeout_for(p.attempt);
            next_deadline = next_deadline.min(p.deadline);
        }
        self.fault.as_mut().expect("fault state present").next_deadline = next_deadline;
    }

    /// True when `node`'s NI is dead (no pulls, deliveries lost).
    pub(super) fn fault_node_dead(&self, node: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.dead_router[node])
    }

    /// True while at least one NI is dead.
    pub(super) fn fault_any_node_dead(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.dead_routers_count > 0)
    }

    /// Open a transfer for a freshly pulled non-self packet.
    pub(super) fn fault_register(
        &mut self,
        node: usize,
        pid: PacketId,
        spec: PacketSpec,
        t: Cycle,
    ) {
        let uid = self.eng.packets.get(pid).uid;
        let f = self.fault.as_mut().expect("fault state present");
        f.stats.transfers_started += 1;
        f.xfer_of.insert(pid, uid);
        if let Some(policy) = f.plan.retx {
            let deadline = t + policy.timeout;
            f.pending_idx.insert(uid, f.pending.len() as u32);
            f.pending.push(PendingTx { node, spec, xfer: uid, deadline, attempt: 1, done: false });
            f.pending_open += 1;
            f.next_deadline = f.next_deadline.min(deadline);
        }
    }

    /// Fault bookkeeping for a tail flit reaching NI `node`. Returns
    /// true when the delivery should proceed (not a duplicate, not a
    /// dead NI); with no fault plan installed this is always true.
    pub(super) fn fault_on_tail(&mut self, node: usize, pid: PacketId) -> bool {
        let Some(f) = self.fault.as_mut() else { return true };
        let xfer = f.xfer_of.remove(&pid);
        if f.dead_router[node] {
            f.stats.packets_dropped += 1;
            return false;
        }
        if let Some(x) = xfer {
            if !f.resolved.insert(x) {
                f.stats.duplicate_deliveries += 1;
                return false;
            }
            f.stats.transfers_delivered += 1;
            f.close_pending(x);
        }
        true
    }

    /// Fault-layer consistency laws, re-derived from scratch for the
    /// runtime sanitizer: every effective dead-channel bit must equal
    /// its cause ledger (own failure OR either endpoint router down),
    /// and the cached population counts must match the bit vectors.
    #[cfg(feature = "sanitize")]
    pub(super) fn sanitize_fault_consistency(&self, t: Cycle) -> Result<(), SimError> {
        let Some(f) = self.fault.as_ref() else { return Ok(()) };
        let ports1 = self.cfg.topology.num_ports() - 1;
        let mut dead_links = 0usize;
        for (li, link) in self.eng.links.iter().enumerate() {
            let Some(link) = link.as_ref() else {
                if f.dead_link[li] || f.link_failed[li] {
                    return Err(SimError::Invariant {
                        cycle: t,
                        check: "fault consistency",
                        detail: format!("nonexistent channel {li} is marked failed or dead"),
                    });
                }
                continue;
            };
            let src = li / ports1;
            let expect = f.link_failed[li] || f.dead_router[src] || f.dead_router[link.dst_router];
            if f.dead_link[li] != expect {
                return Err(SimError::Invariant {
                    cycle: t,
                    check: "fault consistency",
                    detail: format!(
                        "channel {li} (router {src} -> {}): effective dead={} but cause \
                         ledger says {} (failed={}, src dead={}, dst dead={})",
                        link.dst_router,
                        f.dead_link[li],
                        expect,
                        f.link_failed[li],
                        f.dead_router[src],
                        f.dead_router[link.dst_router],
                    ),
                });
            }
            dead_links += f.dead_link[li] as usize;
        }
        let dead_routers = f.dead_router.iter().filter(|&&d| d).count();
        if dead_links != f.dead_links_count || dead_routers != f.dead_routers_count {
            return Err(SimError::Invariant {
                cycle: t,
                check: "fault consistency",
                detail: format!(
                    "population counts drifted: {dead_links} dead channels (cached {}), \
                     {dead_routers} dead routers (cached {})",
                    f.dead_links_count, f.dead_routers_count
                ),
            });
        }
        if (f.dead_links_count > 0 || f.dead_routers_count > 0) != self.survivors.is_some() {
            return Err(SimError::Invariant {
                cycle: t,
                check: "fault consistency",
                detail: format!(
                    "survivor table presence ({}) disagrees with dead sets ({} links, \
                     {} routers)",
                    self.survivors.is_some(),
                    f.dead_links_count,
                    f.dead_routers_count
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetConfig, TopologyKind};

    #[test]
    fn timeout_for_is_shift_safe_for_huge_attempt_counts() {
        let p = RetxPolicy { timeout: 100, backoff_cap: 10_000, max_attempts: 200 };
        assert_eq!(p.timeout_for(1), 100);
        assert_eq!(p.timeout_for(2), 200);
        assert_eq!(p.timeout_for(8), 10_000, "capped");
        // attempts past 64 used to overflow the shift; now they saturate
        assert_eq!(p.timeout_for(65), 10_000);
        assert_eq!(p.timeout_for(u32::MAX), 10_000);
        // a cap below the base timeout never shrinks attempt 1
        let q = RetxPolicy { timeout: 500, backoff_cap: 10, max_attempts: 0 };
        assert_eq!(q.timeout_for(1), 500);
        assert_eq!(q.timeout_for(90), 500);
    }

    #[test]
    fn plan_validation_rejects_bad_probabilities_and_policies() {
        let ok = FaultPlan { corrupt_rate: 0.5, ..FaultPlan::default() };
        assert!(ok.validate().is_ok());
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let p = FaultPlan { corrupt_rate: bad, ..FaultPlan::default() };
            assert!(p.validate().is_err(), "corrupt_rate {bad} must be rejected");
        }
        let p = FaultPlan {
            retx: Some(RetxPolicy { timeout: 0, ..RetxPolicy::default() }),
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPlan {
            link_retry: Some(LinkRetryPolicy { replay_rtt: 0, ..LinkRetryPolicy::default() }),
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPlan {
            link_retry: Some(LinkRetryPolicy { max_replays: 0, ..LinkRetryPolicy::default() }),
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn try_set_fault_plan_surfaces_range_errors_as_config_errors() {
        let mut net =
            Network::new(NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }))
                .unwrap();
        let err = net
            .try_set_fault_plan(FaultPlan {
                events: vec![FaultEvent::LinkRepair { cycle: 0, router: 99, port: 1 }],
                ..FaultPlan::default()
            })
            .unwrap_err();
        assert!(matches!(err, ConfigError::Parameter { name: "events", .. }), "{err}");
        let err = net
            .try_set_fault_plan(FaultPlan { corrupt_rate: 2.0, ..FaultPlan::default() })
            .unwrap_err();
        assert!(matches!(err, ConfigError::Parameter { name: "corrupt_rate", .. }), "{err}");
    }

    #[test]
    fn repair_events_restore_the_surviving_graph_and_count_epochs() {
        let mut net =
            Network::new(NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }))
                .unwrap();
        net.set_fault_plan(FaultPlan {
            events: vec![
                FaultEvent::LinkFail { cycle: 5, router: 5, port: 1 },
                FaultEvent::RouterFail { cycle: 10, router: 10 },
                FaultEvent::RouterRepair { cycle: 20, router: 10 },
                FaultEvent::LinkRepair { cycle: 30, router: 5, port: 1 },
            ],
            ..FaultPlan::default()
        });
        struct Idle;
        impl crate::network::NodeBehavior for Idle {
            fn pull(&mut self, _: usize, _: Cycle) -> Option<PacketSpec> {
                None
            }
            fn deliver(&mut self, _: usize, _: &crate::flit::Delivered, _: Cycle) {}
            fn quiescent(&self) -> bool {
                true
            }
        }
        let mut b = Idle;
        net.run(6, &mut b);
        assert!(net.survivor_table().is_some(), "one dead link installs the table");
        let s = net.fault_stats().unwrap();
        assert_eq!((s.links_failed, s.epochs), (1, 1));
        net.run(10, &mut b);
        let s = net.fault_stats().unwrap();
        assert_eq!((s.routers_failed, s.epochs), (1, 2));
        net.run(10, &mut b);
        let s = net.fault_stats().unwrap();
        assert_eq!((s.routers_repaired, s.epochs), (1, 3));
        assert!(net.survivor_table().is_some(), "link 5:1 is still down");
        net.run(10, &mut b);
        let s = net.fault_stats().unwrap();
        assert_eq!((s.links_repaired, s.epochs), (1, 4));
        assert!(net.survivor_table().is_none(), "fully healed: configured routing resumes");
    }
}
