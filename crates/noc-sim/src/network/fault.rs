//! Deterministic fault injection, online repair, and recovery.
//!
//! A [`FaultPlan`] describes everything that goes wrong during a run:
//! timed link/router failures *and repairs*, a transient per-traversal
//! corruption probability — plus two selectable recovery modes: an
//! end-to-end [`RetxPolicy`] under which source NIs retransmit
//! undelivered packets, and a hop-level [`LinkRetryPolicy`] under which
//! CRC-detected corruption is replayed from a per-link retry buffer
//! instead of being dropped. Install the plan with
//! [`Network::set_fault_plan`], which refuses a malformed plan with a
//! typed error, before stepping; a network without a plan behaves
//! exactly as before (the fault hooks are a single `Option` check per
//! cycle).
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
//! [`SurvivorTable::rebuild`] at the boundary. A [`FaultLedger`] tracks
//! the causes (direct [`FaultEvent::LinkFail`]s, dead routers)
//! separately from the *effective* dead set, so a channel stays dead
//! while either its own failure is unrepaired or either endpoint router
//! is down, and [`FaultEvent::LinkRepair`] /
//! [`FaultEvent::RouterRepair`] restore exactly the channels whose
//! every cause has cleared. When an epoch leaves the topology fully
//! healed the survivor table is dropped entirely — routing re-converges
//! online to the configured algorithm. A packet mid-swallow keeps
//! draining into the channel that took its head even if that channel is
//! repaired mid-packet (the pinning in `dooming` is by link, not by
//! link state), so wormhole framing holds across repair boundaries.
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

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The fault state of one topology: which causes are set, and which
/// directed channels they kill.
///
/// One rule defines it: a channel is dead while its own
/// [`FaultEvent::LinkFail`] is unrepaired or either endpoint router is
/// down. The engine applies its plan's events here as they fall due,
/// `noc-verify`'s connectivity lint applies a whole timeline to reach
/// its end state, and both build their [`SurvivorTable`] from the
/// result. Channels are indexed like the engine's link array
/// (`router * (ports-1) + (port-1)`).
#[derive(Debug, Clone)]
pub struct FaultLedger {
    topo: TopologyKind,
    /// Channels whose own `LinkFail` is unrepaired (a cause).
    link_failed: Vec<bool>,
    /// Routers that are down, NI included (a cause).
    dead_router: Vec<bool>,
    /// Effectively dead channels (the effect).
    dead_link: Vec<bool>,
    /// Population counts of `dead_link` / `dead_router`, so "fully
    /// healed" is an O(1) question.
    dead_links: usize,
    dead_routers: usize,
}

/// What one [`FaultLedger::apply`] changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Applied {
    /// The event flipped its own cause: it failed a live link or
    /// router, or repaired a failed one.
    pub cause_flipped: bool,
    /// The surviving graph changed: any router flip, or a link event
    /// that flipped its channel's effective state.
    pub graph_changed: bool,
}

impl FaultLedger {
    /// `topo` with no cause set and nothing dead.
    pub fn new(topo: TopologyKind) -> Self {
        let n = topo.num_nodes();
        let channels = n * (topo.num_ports() - 1);
        Self {
            topo,
            link_failed: vec![false; channels],
            dead_router: vec![false; n],
            dead_link: vec![false; channels],
            dead_links: 0,
            dead_routers: 0,
        }
    }

    /// Apply one event. An event on a port with no link behind it
    /// changes nothing.
    ///
    /// # Panics
    /// On an event outside the topology, which [`validate_events`]
    /// refuses.
    pub fn apply(&mut self, ev: &FaultEvent) -> Applied {
        match *ev {
            FaultEvent::LinkFail { router, port, .. } => self.set_link(router, port, true),
            FaultEvent::LinkRepair { router, port, .. } => self.set_link(router, port, false),
            FaultEvent::RouterFail { router, .. } => self.set_router(router, true),
            FaultEvent::RouterRepair { router, .. } => self.set_router(router, false),
        }
    }

    fn set_link(&mut self, router: usize, port: usize, failed: bool) -> Applied {
        let Some((dst, _)) = self.topo.neighbor(router, port) else {
            return Applied::default();
        };
        let li = self.channel(router, port);
        let cause_flipped = self.link_failed[li] != failed;
        self.link_failed[li] = failed;
        Applied { cause_flipped, graph_changed: self.recompute(li, router, dst) }
    }

    fn set_router(&mut self, router: usize, down: bool) -> Applied {
        if self.dead_router[router] == down {
            return Applied::default();
        }
        self.dead_router[router] = down;
        if down {
            self.dead_routers += 1;
        } else {
            self.dead_routers -= 1;
        }
        // every incident channel, both directions (links are symmetric)
        for p in 1..self.topo.num_ports() {
            if let Some((v, vp)) = self.topo.neighbor(router, p) {
                self.recompute(self.channel(router, p), router, v);
                self.recompute(self.channel(v, vp), v, router);
            }
        }
        Applied { cause_flipped: true, graph_changed: true }
    }

    /// Re-derive channel `li` (`src -> dst`) from its causes; true when
    /// its effective state flipped.
    fn recompute(&mut self, li: usize, src: usize, dst: usize) -> bool {
        let dead = self.link_failed[li] || self.dead_router[src] || self.dead_router[dst];
        if self.dead_link[li] == dead {
            return false;
        }
        self.dead_link[li] = dead;
        if dead {
            self.dead_links += 1;
        } else {
            self.dead_links -= 1;
        }
        true
    }

    fn channel(&self, router: usize, port: usize) -> usize {
        router * (self.topo.num_ports() - 1) + (port - 1)
    }

    /// True when channel `li` is effectively dead.
    pub fn link_dead(&self, li: usize) -> bool {
        self.dead_link[li]
    }

    /// True when `router` (and its NI) is down.
    pub fn router_dead(&self, router: usize) -> bool {
        self.dead_router[router]
    }

    /// Effectively dead channels.
    pub fn dead_links(&self) -> usize {
        self.dead_links
    }

    /// Routers that are down.
    pub fn dead_routers(&self) -> usize {
        self.dead_routers
    }

    /// True when nothing is dead: the full topology survives.
    pub fn is_healed(&self) -> bool {
        self.dead_links == 0 && self.dead_routers == 0
    }
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
    /// Build the table over the channels `ledger` leaves alive.
    pub fn build(ledger: &FaultLedger) -> Self {
        let n = ledger.topo.num_nodes();
        let mut t = Self {
            n,
            table: vec![PortSet::new(); n * n],
            rev: vec![Vec::new(); n],
            dist: vec![u32::MAX; n],
            queue: VecDeque::new(),
        };
        t.rebuild(ledger);
        t
    }

    /// Recompute the table in place for `ledger`'s current state,
    /// reusing every allocation (table, adjacency, BFS scratch) — the
    /// per-epoch incremental rebuild, so a flapping timeline costs no
    /// steady allocator traffic after its first epoch. A dead router's
    /// channels are all dead, so it is neither reached nor routed from.
    pub fn rebuild(&mut self, ledger: &FaultLedger) {
        let n = self.n;
        let topo = ledger.topo;
        debug_assert_eq!(n, topo.num_nodes(), "survivor table bound to one topology");
        let ports = topo.num_ports();
        self.table.iter_mut().for_each(|s| *s = PortSet::new());
        // reverse adjacency among survivors: rev[u] lists the live
        // channels (v --p--> u)
        self.rev.iter_mut().for_each(Vec::clear);
        for v in 0..n {
            for p in 1..ports {
                if let Some((u, _)) = topo.neighbor(v, p) {
                    if !ledger.dead_link[ledger.channel(v, p)] {
                        self.rev[u].push(v as u32);
                    }
                }
            }
        }
        for dst in 0..n {
            if ledger.dead_router[dst] {
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
                if cur == dst || self.dist[cur] == u32::MAX {
                    continue;
                }
                let mut set = PortSet::new();
                for p in 1..ports {
                    if let Some((w, _)) = topo.neighbor(cur, p) {
                        if !ledger.dead_link[ledger.channel(cur, p)]
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
    deadline: Cycle,
    attempt: u32,
}

/// Mutable fault-injection runtime owned by the network.
#[derive(Debug)]
pub(super) struct FaultState {
    plan: FaultPlan,
    /// Next unapplied index into `plan.events`.
    next_event: usize,
    /// Which links and routers are down, and which channels that kills.
    ledger: FaultLedger,
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
    /// Open transfers by id. Uids are handed out in increasing order
    /// and a transfer is registered right after its first attempt's
    /// uid, so key order is registration order.
    pending: BTreeMap<u64, PendingTx>,
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
            None if self.ledger.link_dead(li) => true, // dead wire: nothing to replay from
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

    /// Count transfer `xfer`, just closed undelivered, as abandoned.
    fn abandon(&mut self, xfer: u64) {
        self.stats.transfers_abandoned += 1;
        self.resolved.insert(xfer);
    }
}

impl Network {
    /// Install a fault plan. Must be called before the first step of
    /// the run; events are applied at the start of their cycle.
    ///
    /// # Errors
    /// [`ConfigError::Parameter`] naming the offending plan field: a
    /// probability or policy parameter [`FaultPlan::validate`] refuses,
    /// or an event naming a router or port outside the topology
    /// ([`validate_events`]).
    ///
    /// # Panics
    /// If the network has already stepped (a usage error, not a plan
    /// problem).
    pub fn set_fault_plan(&mut self, mut plan: FaultPlan) -> Result<(), ConfigError> {
        assert_eq!(self.cycle, 0, "install the fault plan before stepping");
        plan.validate()?;
        validate_events(&plan.events, self.cfg.topology)?;
        plan.events.sort_by_cached_key(FaultEvent::cycle); // stable: ties keep plan order
        let rng = SimRng::new(plan.corrupt_seed);
        let link_lag =
            if plan.link_retry.is_some() { vec![0; self.eng.links.len()] } else { Vec::new() };
        self.fault = Some(Box::new(FaultState {
            plan,
            next_event: 0,
            ledger: FaultLedger::new(self.cfg.topology),
            link_lag,
            rng,
            dooming: HashMap::new(),
            xfer_of: HashMap::new(),
            resolved: HashSet::new(),
            pending: BTreeMap::new(),
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
        self.fault.as_ref().is_none_or(|f| f.pending.is_empty())
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
        if !f.pending.is_empty() {
            let d = f.next_deadline;
            next = Some(next.map_or(d, |n| n.min(d)));
        }
        next
    }

    /// Apply every event due by `t` to the ledger. A batch that
    /// net-changes the surviving graph closes one epoch: the survivor
    /// table is rebuilt in place at the boundary (or dropped entirely
    /// when the epoch heals the last fault, handing routing back to the
    /// configured algorithm).
    fn fault_apply_events(&mut self, t: Cycle) {
        let mut changed = false;
        loop {
            let f = self.fault.as_mut().expect("fault state present");
            let ev = match f.plan.events.get(f.next_event) {
                Some(&ev) if ev.cycle() <= t => ev,
                _ => break,
            };
            f.next_event += 1;
            let applied = f.ledger.apply(&ev);
            changed |= applied.graph_changed;
            if !applied.cause_flipped {
                continue;
            }
            let counter = match ev {
                FaultEvent::LinkFail { .. } => &mut f.stats.links_failed,
                FaultEvent::LinkRepair { .. } => &mut f.stats.links_repaired,
                FaultEvent::RouterFail { .. } => &mut f.stats.routers_failed,
                FaultEvent::RouterRepair { .. } => &mut f.stats.routers_repaired,
            };
            *counter += 1;
            if let FaultEvent::RouterFail { router, .. } = ev {
                self.fault_kill_router(router);
            }
        }
        if changed {
            let f = self.fault.as_mut().expect("fault state present");
            f.stats.epochs += 1;
            if f.ledger.is_healed() {
                // fully healed: back to the configured routing function
                self.survivors = None;
            } else if let Some(s) = self.survivors.as_deref_mut() {
                s.rebuild(&f.ledger);
            } else {
                self.survivors = Some(Box::new(SurvivorTable::build(&f.ledger)));
            }
        }
    }

    /// The engine's half of a router failure: discard the packets still
    /// queued at its now-dead NI.
    fn fault_kill_router(&mut self, router: usize) {
        // will this router come back? if so, its open transfers stay
        // open for the retransmission protocol to recover after repair
        let revives = {
            let f = self.fault.as_ref().expect("fault state present");
            f.plan.events[f.next_event..]
                .iter()
                .any(|ev| matches!(*ev, FaultEvent::RouterRepair { router: r, .. } if r == router))
        };
        // none of their flits exist yet, so flit conservation is
        // untouched; their transfers are abandoned immediately unless a
        // repair of this router is still scheduled — then somebody IS
        // left to retransmit them, and the ledger keeps them open
        for c in 0..self.cfg.classes {
            while let Some(pid) = self.eng.nis[router].class_q[c].pop_front() {
                self.eng.packets.remove(pid);
                let f = self.fault.as_mut().expect("fault state present");
                f.stats.packets_dropped += 1;
                if let Some(x) = f.xfer_of.remove(&pid) {
                    if !revives && f.pending.remove(&x).is_some() {
                        f.abandon(x);
                    }
                }
            }
        }
    }

    /// Scan the retransmission ledger for due deadlines, in
    /// registration order.
    fn fault_retx_scan(&mut self, t: Cycle) {
        let Some(f) = self.fault.as_mut() else { return };
        let Some(policy) = f.plan.retx else { return };
        if f.pending.is_empty() || t < f.next_deadline {
            return;
        }
        // while the plan still holds unapplied events, a repair may
        // restore a path: defer instead of abandoning
        let more_events = f.next_event < f.plan.events.len();
        let mut pending = std::mem::take(&mut f.pending);
        let mut next_deadline = Cycle::MAX;
        pending.retain(|&xfer, p| {
            if p.deadline > t {
                next_deadline = next_deadline.min(p.deadline);
                return true;
            }
            let unreachable = self.fault_node_dead(p.node)
                || self.fault_node_dead(p.spec.dst)
                || self.survivors.as_ref().is_some_and(|s| !s.reachable(p.node, p.spec.dst));
            let exhausted = policy.max_attempts > 0 && p.attempt >= policy.max_attempts;
            if unreachable && more_events {
                // deferral is not an attempt, so the budget is kept
                p.deadline = t + policy.timeout;
            } else if unreachable || exhausted {
                self.fault.as_mut().expect("fault state present").abandon(xfer);
                return false;
            } else {
                // retransmit: a fresh packet carrying the same spec
                let pid = self.enqueue_packet(p.node, p.spec, t);
                let f = self.fault.as_mut().expect("fault state present");
                f.xfer_of.insert(pid, xfer);
                f.stats.retransmissions += 1;
                p.attempt += 1;
                p.deadline = t + policy.timeout_for(p.attempt);
            }
            next_deadline = next_deadline.min(p.deadline);
            true
        });
        let f = self.fault.as_mut().expect("fault state present");
        f.pending = pending;
        f.next_deadline = next_deadline;
    }

    /// True when `node`'s NI is dead (no pulls, deliveries lost).
    pub(super) fn fault_node_dead(&self, node: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.ledger.router_dead(node))
    }

    /// True while at least one NI is dead.
    pub(super) fn fault_any_node_dead(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.ledger.dead_routers() > 0)
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
            f.pending.insert(uid, PendingTx { node, spec, deadline, attempt: 1 });
            f.next_deadline = f.next_deadline.min(deadline);
        }
    }

    /// Fault bookkeeping for a tail flit reaching NI `node`. Returns
    /// true when the delivery should proceed (not a duplicate, not a
    /// dead NI); with no fault plan installed this is always true.
    pub(super) fn fault_on_tail(&mut self, node: usize, pid: PacketId) -> bool {
        let Some(f) = self.fault.as_mut() else { return true };
        let xfer = f.xfer_of.remove(&pid);
        if f.ledger.router_dead(node) {
            f.stats.packets_dropped += 1;
            return false;
        }
        if let Some(x) = xfer {
            if !f.resolved.insert(x) {
                f.stats.duplicate_deliveries += 1;
                return false;
            }
            f.stats.transfers_delivered += 1;
            f.pending.remove(&x);
        }
        true
    }

    /// Fault-layer consistency laws, re-derived from scratch for the
    /// runtime sanitizer: every effective dead-channel bit of the
    /// ledger must equal its causes (own failure OR either endpoint
    /// router down) over the engine's own link array, and the cached
    /// population counts must match the bit vectors.
    #[cfg(feature = "sanitize")]
    pub(super) fn sanitize_fault_consistency(&self, t: Cycle) -> Result<(), SimError> {
        let Some(f) = self.fault.as_ref() else { return Ok(()) };
        let l = &f.ledger;
        let ports1 = self.cfg.topology.num_ports() - 1;
        let mut dead_links = 0usize;
        for (li, link) in self.eng.links.iter().enumerate() {
            let Some(link) = link.as_ref() else {
                if l.dead_link[li] || l.link_failed[li] {
                    return Err(SimError::Invariant {
                        cycle: t,
                        check: "fault consistency",
                        detail: format!("nonexistent channel {li} is marked failed or dead"),
                    });
                }
                continue;
            };
            let src = li / ports1;
            let expect = l.link_failed[li] || l.dead_router[src] || l.dead_router[link.dst_router];
            if l.dead_link[li] != expect {
                return Err(SimError::Invariant {
                    cycle: t,
                    check: "fault consistency",
                    detail: format!(
                        "channel {li} (router {src} -> {}): effective dead={} but cause \
                         ledger says {} (failed={}, src dead={}, dst dead={})",
                        link.dst_router,
                        l.dead_link[li],
                        expect,
                        l.link_failed[li],
                        l.dead_router[src],
                        l.dead_router[link.dst_router],
                    ),
                });
            }
            dead_links += l.dead_link[li] as usize;
        }
        let dead_routers = l.dead_router.iter().filter(|&&d| d).count();
        if dead_links != l.dead_links || dead_routers != l.dead_routers {
            return Err(SimError::Invariant {
                cycle: t,
                check: "fault consistency",
                detail: format!(
                    "population counts drifted: {dead_links} dead channels (cached {}), \
                     {dead_routers} dead routers (cached {})",
                    l.dead_links, l.dead_routers
                ),
            });
        }
        if l.is_healed() == self.survivors.is_some() {
            return Err(SimError::Invariant {
                cycle: t,
                check: "fault consistency",
                detail: format!(
                    "survivor table presence ({}) disagrees with dead sets ({} links, \
                     {} routers)",
                    self.survivors.is_some(),
                    l.dead_links,
                    l.dead_routers
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
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The ledger is its own definition: after every `apply` over a
        /// random fail/repair sequence (links, routers, and ports with
        /// no link behind them), each channel's effective bit and both
        /// counts equal a from-scratch derivation from the causes, and
        /// `graph_changed` holds exactly when the effective graph or
        /// the live-router set differs from before.
        #[test]
        fn ledger_matches_a_from_scratch_derivation_after_every_event(
            kind in 0usize..4,
            ops in prop::collection::vec((0u8..4, 0usize..1 << 16, 0usize..1 << 16), 1..80),
        ) {
            let topo = [
                TopologyKind::Mesh2D { k: 4 },
                TopologyKind::FoldedTorus2D { k: 4 },
                TopologyKind::Torus2D { k: 3 },
                TopologyKind::Ring { n: 8 },
            ][kind];
            let (n, ports) = (topo.num_nodes(), topo.num_ports());
            // the causes, kept naively: a link's own failure only
            // exists where a link does
            let mut failed = vec![false; n * ports];
            let mut down = vec![false; n];
            let effect = |failed: &[bool], down: &[bool]| -> Vec<bool> {
                (0..n * (ports - 1))
                    .map(|li| {
                        let (r, p) = (li / (ports - 1), li % (ports - 1) + 1);
                        topo.neighbor(r, p)
                            .is_some_and(|(v, _)| failed[r * ports + p] || down[r] || down[v])
                    })
                    .collect()
            };
            let mut ledger = FaultLedger::new(topo);
            let mut before = effect(&failed, &down);
            for (op, r, p) in ops {
                let (router, port) = (r % n, 1 + p % (ports - 1));
                let was_down = down.clone();
                let (ev, cause_flipped) = match op {
                    0 | 1 => {
                        let fail = op == 0;
                        let exists = topo.neighbor(router, port).is_some();
                        let flipped = exists && failed[router * ports + port] != fail;
                        failed[router * ports + port] = exists && fail;
                        let ev = if fail {
                            FaultEvent::LinkFail { cycle: 0, router, port }
                        } else {
                            FaultEvent::LinkRepair { cycle: 0, router, port }
                        };
                        (ev, flipped)
                    }
                    _ => {
                        let fail = op == 2;
                        let flipped = down[router] != fail;
                        down[router] = fail;
                        let ev = if fail {
                            FaultEvent::RouterFail { cycle: 0, router }
                        } else {
                            FaultEvent::RouterRepair { cycle: 0, router }
                        };
                        (ev, flipped)
                    }
                };
                let applied = ledger.apply(&ev);
                let after = effect(&failed, &down);
                for (li, &dead) in after.iter().enumerate() {
                    prop_assert_eq!(ledger.link_dead(li), dead, "channel {} after {:?}", li, ev);
                }
                for (r, &d) in down.iter().enumerate() {
                    prop_assert_eq!(ledger.router_dead(r), d);
                }
                prop_assert_eq!(ledger.dead_links(), after.iter().filter(|&&d| d).count());
                prop_assert_eq!(ledger.dead_routers(), down.iter().filter(|&&d| d).count());
                prop_assert_eq!(applied.cause_flipped, cause_flipped, "{:?}", ev);
                let changed = after != before || down != was_down;
                prop_assert_eq!(applied.graph_changed, changed, "{:?}", ev);
                before = after;
            }
        }
    }

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
    fn set_fault_plan_surfaces_range_errors_as_config_errors() {
        let mut net =
            Network::new(NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }))
                .unwrap();
        let err = net
            .set_fault_plan(FaultPlan {
                events: vec![FaultEvent::LinkRepair { cycle: 0, router: 99, port: 1 }],
                ..FaultPlan::default()
            })
            .unwrap_err();
        assert!(matches!(err, ConfigError::Parameter { name: "events", .. }), "{err}");
        let err = net
            .set_fault_plan(FaultPlan { corrupt_rate: 2.0, ..FaultPlan::default() })
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
        })
        .unwrap();
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
