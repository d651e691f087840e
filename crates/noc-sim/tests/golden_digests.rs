//! Simulator behaviour pinned across commits.
//!
//! `hotpath_identity` compares [`Network::try_step`] with
//! `Network::try_step_reference` inside one tree, and both sweeps share
//! the link-arrival and per-router code, so a change made to both is
//! invisible to it. This file pins literal results instead: each row of
//! [`rows`] is a `(config, seed, cycles)` scenario and [`GOLDEN`] holds
//! what it produced when the table was last blessed — the delivery
//! digest (a cycle-exact FNV-1a fingerprint of every delivery), the
//! final cycle, the delivered-packet count and the four pipeline
//! counters that fingerprint arbitration (`sa_grants`, `va_blocked`,
//! `sa_credit_starved`, `sa_conflicts`). The rows cross topology ×
//! routing × arbitration × packet size × message classes ×
//! `router_delay` × fault mode × metrics, and are driven three ways:
//! [`Drive::Run`] (`Network::run`), [`Drive::Drain`] (stepped until the
//! network settles, so the quiescent-cycle fast-forward is active) and
//! [`Drive::Reference`] (the full-scan reference sweep).
//!
//! An engine change that is meant to be behaviour-preserving must leave
//! this file untouched. A change that is *meant* to alter simulated
//! behaviour regenerates the table with
//!
//! ```text
//! NOC_SIM_BLESS_GOLDEN=1 cargo test -p noc-sim --test golden_digests
//! ```
//!
//! which rewrites the block between the `BEGIN GOLDEN` / `END GOLDEN`
//! markers in place, and says why in CHANGES.md.

use noc_sim::config::{Arbitration, NetConfig, RoutingKind, TopologyKind};
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::fault::{FaultEvent, FaultPlan, FaultStats, LinkRetryPolicy, RetxPolicy};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;

/// Packet-size mix of a scenario.
#[derive(Debug, Clone, Copy)]
enum Size {
    Fixed(u16),
    /// Single-flit or five-flit packets, evenly mixed.
    Bimodal,
}

/// Fault layer configuration of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    None,
    /// A link and a router fail for good; lost packets stay lost.
    Permanent,
    /// The same failures are repaired later; transient corruption and
    /// end-to-end retransmission on top.
    Intermittent,
    /// Corruption recovered by link-level retry whose replay round trip
    /// (300 cycles) puts replayed flits far beyond any near-future
    /// event horizon, with a bounded retry buffer (`buf_depth` 2) and
    /// end-to-end retransmission behind it.
    LinkRetryLong,
    /// Link-level retry with a short round trip and no retransmission.
    LinkRetryShort,
}

/// How a scenario advances the network.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `Network::run(cycles)`.
    Run,
    /// `try_step` until idle, settled and quiescent (fast-forward on).
    Drain,
    /// `try_step_reference` for exactly `cycles` steps.
    Reference,
}

#[derive(Debug, Clone, Copy)]
struct Row {
    name: &'static str,
    topo: TopologyKind,
    routing: RoutingKind,
    arb: Arbitration,
    vcs: usize,
    vc_buf: usize,
    size: Size,
    classes: usize,
    router_delay: u32,
    faults: Faults,
    metrics: bool,
    drive: Drive,
    seed: u64,
    /// Offered load in flits/cycle/node while the source is on.
    load: f64,
    /// Simulated cycles (`Run`, `Reference`); the source stops at 60 %.
    cycles: u64,
}

/// What a row produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    digest: u64,
    cycle: Cycle,
    delivered: u64,
    sa_grants: u64,
    va_blocked: u64,
    sa_credit_starved: u64,
    sa_conflicts: u64,
}

const MESH4: TopologyKind = TopologyKind::Mesh2D { k: 4 };
const MESH8: TopologyKind = TopologyKind::Mesh2D { k: 8 };
const TORUS4: TopologyKind = TopologyKind::Torus2D { k: 4 };
const FOLDED4: TopologyKind = TopologyKind::FoldedTorus2D { k: 4 };
const RING8: TopologyKind = TopologyKind::Ring { n: 8 };

fn rows() -> Vec<Row> {
    use Arbitration::{AgeBased as AGE, RoundRobin as RR};
    use Drive::{Drain, Reference, Run};
    use Faults as F;
    use RoutingKind::{Dor, MinAdaptive as Ma, Romm, Valiant as Val};
    use Size::{Bimodal, Fixed};
    let base = Row {
        name: "",
        topo: MESH4,
        routing: Dor,
        arb: RR,
        vcs: 4,
        vc_buf: 4,
        size: Fixed(1),
        classes: 1,
        router_delay: 1,
        faults: F::None,
        metrics: false,
        drive: Run,
        seed: 1,
        load: 0.20,
        cycles: 500,
    };
    #[rustfmt::skip]
    let rows = vec![
        // fault-free: topology x routing x arbitration x size x classes x t_r
        Row { name: "mesh4-dor-rr-s1", ..base },
        Row { name: "mesh4-dor-age-s4-drain", arb: AGE, size: Fixed(4), drive: Drain, seed: 2, ..base },
        Row { name: "mesh4-val-rr-bi-c2-tr4-ref", routing: Val, size: Bimodal, classes: 2, router_delay: 4, drive: Reference, seed: 3, ..base },
        Row { name: "mesh4-romm-age-s1-metrics", routing: Romm, arb: AGE, metrics: true, seed: 4, ..base },
        Row { name: "mesh4-ma-rr-s4-c2-drain", routing: Ma, vcs: 6, size: Fixed(4), classes: 2, drive: Drain, seed: 5, ..base },
        Row { name: "torus4-dor-rr-s1-tr4", topo: TORUS4, router_delay: 4, seed: 6, ..base },
        Row { name: "torus4-val-age-s4-drain", topo: TORUS4, routing: Val, arb: AGE, size: Fixed(4), drive: Drain, seed: 7, ..base },
        Row { name: "torus4-romm-rr-bi-c2-metrics", topo: TORUS4, routing: Romm, vcs: 8, size: Bimodal, classes: 2, metrics: true, seed: 8, ..base },
        Row { name: "torus4-ma-age-s1-tr40-drain", topo: TORUS4, routing: Ma, arb: AGE, router_delay: 40, drive: Drain, seed: 9, ..base },
        Row { name: "folded4-dor-rr-s4-c2", topo: FOLDED4, size: Fixed(4), classes: 2, seed: 10, ..base },
        Row { name: "folded4-val-rr-s1-tr4-ref", topo: FOLDED4, routing: Val, router_delay: 4, drive: Reference, seed: 11, ..base },
        Row { name: "folded4-romm-age-bi-drain", topo: FOLDED4, routing: Romm, arb: AGE, size: Bimodal, drive: Drain, seed: 12, ..base },
        Row { name: "folded4-ma-rr-s4-metrics", topo: FOLDED4, routing: Ma, size: Fixed(4), metrics: true, seed: 13, ..base },
        Row { name: "ring8-dor-age-s1-c2-drain", topo: RING8, arb: AGE, classes: 2, drive: Drain, seed: 14, ..base },
        Row { name: "ring8-val-rr-s4-tr40", topo: RING8, routing: Val, size: Fixed(4), router_delay: 40, seed: 15, cycles: 900, ..base },
        Row { name: "ring8-romm-rr-s1", topo: RING8, routing: Romm, seed: 16, ..base },
        Row { name: "ring8-ma-age-bi-tr4-ref", topo: RING8, routing: Ma, arb: AGE, size: Bimodal, router_delay: 4, drive: Reference, seed: 17, ..base },
        // contention: saturated 8x8 meshes and single-slot buffers
        Row { name: "mesh8-dor-rr-s1-hot", topo: MESH8, vcs: 2, load: 0.45, seed: 18, cycles: 400, ..base },
        Row { name: "mesh8-ma-rr-s4-q2-hot", topo: MESH8, routing: Ma, vc_buf: 2, size: Fixed(4), load: 0.40, seed: 19, cycles: 400, ..base },
        Row { name: "mesh4-dor-rr-s4-q1", vcs: 2, vc_buf: 1, size: Fixed(4), load: 0.30, seed: 20, ..base },
        Row { name: "torus4-dor-age-c2-tr40-metrics", topo: TORUS4, arb: AGE, classes: 2, router_delay: 40, metrics: true, seed: 21, cycles: 900, ..base },
        // permanent link + router failure
        Row { name: "mesh4-dor-rr-s4-perm-drain", size: Fixed(4), faults: F::Permanent, drive: Drain, seed: 22, ..base },
        Row { name: "torus4-ma-age-bi-perm-metrics", topo: TORUS4, routing: Ma, arb: AGE, size: Bimodal, faults: F::Permanent, metrics: true, seed: 23, ..base },
        Row { name: "mesh4-val-rr-s1-c2-perm-ref", routing: Val, classes: 2, faults: F::Permanent, drive: Reference, seed: 24, ..base },
        // fail, repair, corrupt, retransmit end to end
        Row { name: "mesh4-dor-rr-s4-interm-drain", size: Fixed(4), faults: F::Intermittent, drive: Drain, seed: 25, ..base },
        Row { name: "torus4-romm-age-s1-interm", topo: TORUS4, routing: Romm, arb: AGE, faults: F::Intermittent, seed: 26, ..base },
        Row { name: "folded4-ma-rr-bi-interm-metrics-drain", topo: FOLDED4, routing: Ma, size: Bimodal, faults: F::Intermittent, metrics: true, drive: Drain, seed: 27, ..base },
        Row { name: "mesh4-dor-rr-s1-tr40-interm-drain", router_delay: 40, faults: F::Intermittent, drive: Drain, seed: 28, ..base },
        // link-level retry
        Row { name: "mesh4-dor-rr-s4-retrylong-drain", size: Fixed(4), faults: F::LinkRetryLong, drive: Drain, seed: 29, ..base },
        Row { name: "torus4-val-age-s4-retrylong", topo: TORUS4, routing: Val, arb: AGE, size: Fixed(4), faults: F::LinkRetryLong, seed: 30, cycles: 1_500, ..base },
        Row { name: "ring8-dor-rr-bi-tr4-retrylong-ref", topo: RING8, size: Bimodal, router_delay: 4, faults: F::LinkRetryLong, drive: Reference, seed: 31, cycles: 1_500, ..base },
        Row { name: "mesh4-ma-rr-s1-retryshort-drain", routing: Ma, faults: F::LinkRetryShort, drive: Drain, seed: 32, ..base },
    ];
    rows
}

// BEGIN GOLDEN
#[rustfmt::skip]
const GOLDEN: &[(&str, Golden)] = &[
    ("mesh4-dor-rr-s1", Golden { digest: 0xc405ee038bfff73c, cycle: 500, delivered: 967, sa_grants: 3348, va_blocked: 0, sa_credit_starved: 0, sa_conflicts: 150 }),
    ("mesh4-dor-age-s4-drain", Golden { digest: 0xe2e90334038bddc4, cycle: 313, delivered: 235, sa_grants: 3064, va_blocked: 0, sa_credit_starved: 0, sa_conflicts: 159 }),
    ("mesh4-val-rr-bi-c2-tr4-ref", Golden { digest: 0x74acff8161dbe3c4, cycle: 500, delivered: 336, sa_grants: 5624, va_blocked: 738, sa_credit_starved: 559, sa_conflicts: 644 }),
    ("mesh4-romm-age-s1-metrics", Golden { digest: 0x8128dcda08d15bb8, cycle: 500, delivered: 917, sa_grants: 3118, va_blocked: 0, sa_credit_starved: 0, sa_conflicts: 162 }),
    ("mesh4-ma-rr-s4-c2-drain", Golden { digest: 0x14ac4b9789faba47, cycle: 317, delivered: 244, sa_grants: 3420, va_blocked: 0, sa_credit_starved: 0, sa_conflicts: 221 }),
    ("torus4-dor-rr-s1-tr4", Golden { digest: 0x9c8b3b0aba1cc0c1, cycle: 500, delivered: 952, sa_grants: 2822, va_blocked: 2, sa_credit_starved: 0, sa_conflicts: 121 }),
    ("torus4-val-age-s4-drain", Golden { digest: 0x84e90c765ddb1191, cycle: 325, delivered: 239, sa_grants: 4452, va_blocked: 136, sa_credit_starved: 3, sa_conflicts: 280 }),
    ("torus4-romm-rr-bi-c2-metrics", Golden { digest: 0x3143fa3f66f8b06f, cycle: 500, delivered: 338, sa_grants: 3036, va_blocked: 32, sa_credit_starved: 0, sa_conflicts: 226 }),
    ("torus4-ma-age-s1-tr40-drain", Golden { digest: 0x8e2fbb9aad431cc8, cycle: 498, delivered: 1003, sa_grants: 2983, va_blocked: 29, sa_credit_starved: 0, sa_conflicts: 124 }),
    ("folded4-dor-rr-s4-c2", Golden { digest: 0x2a134339a21b12b4, cycle: 500, delivered: 244, sa_grants: 2852, va_blocked: 62, sa_credit_starved: 7, sa_conflicts: 220 }),
    ("folded4-val-rr-s1-tr4-ref", Golden { digest: 0x06be38875bb534f5, cycle: 500, delivered: 983, sa_grants: 4593, va_blocked: 185, sa_credit_starved: 0, sa_conflicts: 233 }),
    ("folded4-romm-age-bi-drain", Golden { digest: 0xaa0e767cee425e0a, cycle: 315, delivered: 309, sa_grants: 2815, va_blocked: 111, sa_credit_starved: 253, sa_conflicts: 174 }),
    ("folded4-ma-rr-s4-metrics", Golden { digest: 0x3440dd8b9077379f, cycle: 500, delivered: 241, sa_grants: 2712, va_blocked: 0, sa_credit_starved: 0, sa_conflicts: 196 }),
    ("ring8-dor-age-s1-c2-drain", Golden { digest: 0x9d69bcd760f0ae86, cycle: 310, delivered: 458, sa_grants: 1266, va_blocked: 14, sa_credit_starved: 0, sa_conflicts: 48 }),
    ("ring8-val-rr-s4-tr40", Golden { digest: 0xf12e974f4f5b8251, cycle: 900, delivered: 105, sa_grants: 1528, va_blocked: 12060, sa_credit_starved: 258, sa_conflicts: 22 }),
    ("ring8-romm-rr-s1", Golden { digest: 0x7c1971c91d63055d, cycle: 500, delivered: 493, sa_grants: 1429, va_blocked: 28, sa_credit_starved: 0, sa_conflicts: 67 }),
    ("ring8-ma-age-bi-tr4-ref", Golden { digest: 0x00f1689ddb77c390, cycle: 500, delivered: 169, sa_grants: 1609, va_blocked: 0, sa_credit_starved: 162, sa_conflicts: 134 }),
    ("mesh8-dor-rr-s1-hot", Golden { digest: 0xc712d62a1f8ce36d, cycle: 400, delivered: 6947, sa_grants: 43508, va_blocked: 20981, sa_credit_starved: 0, sa_conflicts: 5280 }),
    ("mesh8-ma-rr-s4-q2-hot", Golden { digest: 0xa9e344c96b1b5197, cycle: 400, delivered: 1537, sa_grants: 38032, va_blocked: 8748, sa_credit_starved: 20766, sa_conflicts: 7146 }),
    ("mesh4-dor-rr-s4-q1", Golden { digest: 0x2a31fc5b3e2b7eb6, cycle: 500, delivered: 371, sa_grants: 4968, va_blocked: 643, sa_credit_starved: 2913, sa_conflicts: 76 }),
    ("torus4-dor-age-c2-tr40-metrics", Golden { digest: 0x19bc3853cf176b4b, cycle: 900, delivered: 1741, sa_grants: 5137, va_blocked: 15007, sa_credit_starved: 0, sa_conflicts: 181 }),
    ("mesh4-dor-rr-s4-perm-drain", Golden { digest: 0xe7de63b6590c54bc, cycle: 313, delivered: 231, sa_grants: 3336, va_blocked: 58, sa_credit_starved: 17, sa_conflicts: 395 }),
    ("torus4-ma-age-bi-perm-metrics", Golden { digest: 0xfde966f950b74d79, cycle: 500, delivered: 292, sa_grants: 2706, va_blocked: 0, sa_credit_starved: 36, sa_conflicts: 156 }),
    ("mesh4-val-rr-s1-c2-perm-ref", Golden { digest: 0x7f6845b55c63f0ae, cycle: 500, delivered: 819, sa_grants: 3251, va_blocked: 59, sa_credit_starved: 0, sa_conflicts: 133 }),
    ("mesh4-dor-rr-s4-interm-drain", Golden { digest: 0xe8e0fc94c3fe8fb0, cycle: 345, delivered: 239, sa_grants: 3420, va_blocked: 2, sa_credit_starved: 3, sa_conflicts: 375 }),
    ("torus4-romm-age-s1-interm", Golden { digest: 0x41264c31742fa337, cycle: 500, delivered: 928, sa_grants: 2804, va_blocked: 37, sa_credit_starved: 0, sa_conflicts: 112 }),
    ("folded4-ma-rr-bi-interm-metrics-drain", Golden { digest: 0x7b47a36f2864b1f0, cycle: 357, delivered: 329, sa_grants: 2709, va_blocked: 0, sa_credit_starved: 128, sa_conflicts: 174 }),
    ("mesh4-dor-rr-s1-tr40-interm-drain", Golden { digest: 0xbc6b7324b69b290f, cycle: 837, delivered: 1014, sa_grants: 7127, va_blocked: 18567, sa_credit_starved: 0, sa_conflicts: 327 }),
    ("mesh4-dor-rr-s4-retrylong-drain", Golden { digest: 0x95a7e311cdae59c9, cycle: 5811, delivered: 208, sa_grants: 6472, va_blocked: 127943, sa_credit_starved: 13446, sa_conflicts: 129 }),
    ("torus4-val-age-s4-retrylong", Golden { digest: 0xd7ed61c6be684e78, cycle: 1500, delivered: 160, sa_grants: 2900, va_blocked: 65419, sa_credit_starved: 2, sa_conflicts: 68 }),
    ("ring8-dor-rr-bi-tr4-retrylong-ref", Golden { digest: 0x6ed511187badd6c0, cycle: 1500, delivered: 86, sa_grants: 571, va_blocked: 12646, sa_credit_starved: 16786, sa_conflicts: 9 }),
    ("mesh4-ma-rr-s1-retryshort-drain", Golden { digest: 0xb111dd22ef887caa, cycle: 313, delivered: 1019, sa_grants: 3509, va_blocked: 0, sa_credit_starved: 0, sa_conflicts: 140 }),
];
// END GOLDEN

fn plan_for(row: &Row) -> Option<FaultPlan> {
    let retx = Some(RetxPolicy { timeout: 96, backoff_cap: 384, max_attempts: 4 });
    let fail = [
        FaultEvent::LinkFail { cycle: 40, router: 5, port: 1 },
        FaultEvent::RouterFail { cycle: 90, router: 2 },
    ];
    let repair = [
        FaultEvent::RouterRepair { cycle: 160, router: 2 },
        FaultEvent::LinkRepair { cycle: 200, router: 5, port: 1 },
    ];
    let corrupt_seed = row.seed ^ 0xfa11;
    match row.faults {
        Faults::None => None,
        Faults::Permanent => Some(FaultPlan {
            events: fail.to_vec(),
            corrupt_rate: 0.0,
            corrupt_seed,
            retx: None,
            link_retry: None,
        }),
        Faults::Intermittent => Some(FaultPlan {
            events: fail.iter().chain(&repair).copied().collect(),
            corrupt_rate: 0.01,
            corrupt_seed,
            retx,
            link_retry: None,
        }),
        Faults::LinkRetryLong => Some(FaultPlan {
            events: Vec::new(),
            corrupt_rate: 0.04,
            corrupt_seed,
            retx,
            link_retry: Some(LinkRetryPolicy { replay_rtt: 300, max_replays: 2, buf_depth: 2 }),
        }),
        Faults::LinkRetryShort => Some(FaultPlan {
            events: Vec::new(),
            corrupt_rate: 0.05,
            corrupt_seed,
            retx: None,
            link_retry: Some(LinkRetryPolicy { replay_rtt: 3, max_replays: 3, buf_depth: 4 }),
        }),
    }
}

/// Bernoulli uniform-random source that stops at `cutoff`,
/// deterministic in its seed.
struct Source {
    rng: SimRng,
    p: f64,
    size: Size,
    classes: usize,
    nodes: usize,
    cutoff: Cycle,
    done: bool,
    polled: Vec<Cycle>,
}

impl NodeBehavior for Source {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        if cycle >= self.cutoff {
            self.done = true;
            return None;
        }
        if self.polled[node] == cycle {
            return None;
        }
        self.polled[node] = cycle;
        if !self.rng.chance(self.p) {
            return None;
        }
        let dst = self.rng.below(self.nodes);
        let size = match self.size {
            Size::Fixed(s) => s,
            Size::Bimodal => 1 + 4 * self.rng.below(2) as u16,
        };
        let class = self.rng.below(self.classes) as u8;
        Some(PacketSpec { dst, size, class, payload: node as u64 })
    }

    fn deliver(&mut self, _node: usize, _d: &Delivered, _cycle: Cycle) {}

    fn quiescent(&self) -> bool {
        self.done
    }
}

/// Run one row; returns its pinned observables plus the step count and
/// the fault counters (not pinned, used to check the rows' coverage).
fn simulate(row: &Row) -> (Golden, u64, Option<FaultStats>) {
    let mut cfg = NetConfig::baseline()
        .with_topology(row.topo)
        .with_routing(row.routing)
        .with_arbitration(row.arb)
        .with_vcs(row.vcs)
        .with_vc_buf(row.vc_buf)
        .with_classes(row.classes)
        .with_router_delay(row.router_delay)
        .with_seed(row.seed);
    if row.metrics {
        cfg = cfg.with_metrics(64);
    }
    let mut net = Network::new(cfg).unwrap_or_else(|e| panic!("{}: {e}", row.name));
    if let Some(plan) = plan_for(row) {
        net.set_fault_plan(plan).unwrap();
    }
    let nodes = net.num_nodes();
    let mean_size = match row.size {
        Size::Fixed(s) => s as f64,
        Size::Bimodal => 3.0,
    };
    let mut src = Source {
        rng: SimRng::new(row.seed ^ 0x5eed),
        p: row.load / mean_size,
        size: row.size,
        classes: row.classes,
        nodes,
        cutoff: row.cycles * 6 / 10,
        done: false,
        polled: vec![Cycle::MAX; nodes],
    };
    let mut steps = row.cycles;
    match row.drive {
        Drive::Run => net.run(row.cycles, &mut src),
        Drive::Drain => {
            steps = 0;
            while !(net.is_idle() && net.fault_settled() && src.quiescent()) {
                net.try_step(&mut src).unwrap_or_else(|e| panic!("{}: {e}", row.name));
                steps += 1;
                assert!(steps < 200_000 && net.cycle() < 200_000, "{} never settled", row.name);
            }
        }
        Drive::Reference => {
            for _ in 0..row.cycles {
                net.try_step_reference(&mut src).unwrap_or_else(|e| panic!("{}: {e}", row.name));
            }
        }
    }
    let pipe = net.pipeline_stats();
    let stats = net.stats();
    let golden = Golden {
        digest: stats.delivery_digest,
        cycle: net.cycle(),
        delivered: stats.packets_delivered,
        sa_grants: pipe.sa_grants,
        va_blocked: pipe.va_blocked,
        sa_credit_starved: pipe.sa_credit_starved,
        sa_conflicts: pipe.sa_conflicts,
    };
    (golden, steps, net.fault_stats().cloned())
}

/// Rewrite the `GOLDEN` table of this file from `got`.
fn bless(got: &[(&str, Golden)]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_digests.rs");
    let text = std::fs::read_to_string(path).expect("read this test's source");
    let (begin, end) = (concat!("// BEGIN", " GOLDEN\n"), concat!("// END", " GOLDEN\n"));
    let head = text.find(begin).expect("BEGIN marker") + begin.len();
    let tail = text.find(end).expect("END marker");
    let mut table = String::from("#[rustfmt::skip]\nconst GOLDEN: &[(&str, Golden)] = &[\n");
    for (name, g) in got {
        table.push_str(&format!(
            "    ({name:?}, Golden {{ digest: {:#018x}, cycle: {}, delivered: {}, sa_grants: {}, \
             va_blocked: {}, sa_credit_starved: {}, sa_conflicts: {} }}),\n",
            g.digest,
            g.cycle,
            g.delivered,
            g.sa_grants,
            g.va_blocked,
            g.sa_credit_starved,
            g.sa_conflicts
        ));
    }
    table.push_str("];\n");
    std::fs::write(path, format!("{}{table}{}", &text[..head], &text[tail..]))
        .expect("rewrite this test's source");
}

#[test]
fn simulated_behaviour_matches_the_pinned_table() {
    let rows = rows();
    let got: Vec<(&str, Golden)> = rows.iter().map(|r| (r.name, simulate(r).0)).collect();
    if std::env::var_os("NOC_SIM_BLESS_GOLDEN").is_some() {
        bless(&got);
        return;
    }
    assert_eq!(GOLDEN.len(), rows.len(), "one pinned entry per row (bless after adding a row)");
    let mut wrong = Vec::new();
    for ((name, got), (pinned_name, pinned)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, pinned_name, "row order differs from the pinned table");
        if got != pinned {
            wrong.push(format!("{name}:\n   pinned {pinned:?}\n   got    {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "simulated behaviour moved:\n{}", wrong.join("\n"));
}

/// The table is only worth its rows if they exercise what they name:
/// contention rows block, starve and collide; link-level retry replays
/// past any near-future horizon and fills its buffer; faults drop
/// packets and retransmission recovers them; drained rows fast-forward.
#[test]
fn rows_exercise_the_mechanisms_they_name() {
    let run = |name: &str| simulate(rows().iter().find(|r| r.name == name).expect("row exists"));
    let (hot, ..) = run("mesh8-ma-rr-s4-q2-hot");
    assert!(hot.va_blocked > 0 && hot.sa_credit_starved > 0 && hot.sa_conflicts > 0, "{hot:?}");

    let (g, steps, f) = run("mesh4-dor-rr-s4-retrylong-drain");
    let f = f.expect("fault plan installed");
    assert!(f.link_replays > 0 && f.replay_buf_stalls > 0, "{f:?}");
    assert!(steps < g.cycle, "a drained run fast-forwards: {steps} steps, {} cycles", g.cycle);

    let (_, _, f) = run("mesh4-dor-rr-s4-interm-drain");
    let f = f.expect("fault plan installed");
    assert!(f.packets_dropped > 0 && f.retransmissions > 0 && f.epochs >= 3, "{f:?}");

    let (g, steps, _) = run("torus4-ma-age-s1-tr40-drain");
    assert!(steps < g.cycle, "t_r = 40 leaves dead time to skip: {steps} steps, {}", g.cycle);
}
