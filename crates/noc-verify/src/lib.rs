//! Static deadlock and configuration analysis for the `noc-sim` core.
//!
//! [`verify`] takes a [`NetConfig`] and, without running a single
//! simulated cycle, either *certifies* it deadlock-free, *refutes*
//! deadlock freedom with a concrete channel-dependency cycle, or
//! reports that the (conservative) analysis cannot decide:
//!
//! 1. It enumerates every route the configured routing function can
//!    produce — per `(source, destination)` pair, and per intermediate
//!    node for the two-phase algorithms — threading the exact per-packet
//!    VC-selection state (routing phase, dateline flag) through the
//!    `candidates`/`advance` pair the simulator's routers call on the
//!    same [`RoutingKind`](noc_sim::config::RoutingKind), over the same
//!    `RouteLut` geometry.
//! 2. Each consecutive pair of hops contributes dependency edges
//!    between the (link, VC) channels the packet may occupy, forming
//!    the channel dependency graph of Dally & Towles. For minimal
//!    adaptive routing the graph built is Duato's *extended* escape
//!    dependency graph instead (escape-to-escape waits, including those
//!    bridged by adaptive detours).
//! 3. Tarjan's SCC algorithm decides acyclicity. Acyclic means every
//!    packet can always make progress: [`Verdict::Certified`]. A cycle
//!    in the exact graph is returned as a [`CycleWitness`] naming the
//!    channels in circular-wait order: [`Verdict::Refuted`]. A cycle in
//!    the over-approximated adaptive graph yields [`Verdict::Unknown`].
//!
//! The VC masks are the simulator's own: [`VcBook::relaxed`] builds the
//! partition even below the block minima `VcBook::new` enforces, which
//! is how a one-VC torus gets a cycle witness instead of a refusal.
//! Alongside the verdict, [`verify`] runs static configuration lints:
//! the simulator's validation, each partition deficiency, degenerate
//! routing/topology pairings, and buffer depth against the credit
//! round-trip. A topology `TopologyKind::validate` refuses, or a VC
//! count with no partition at all, is answered `Unknown` with an error
//! finding before anything is built.
//!
//! The route enumerator that powers all of this is a public API:
//! [`routes::enumerate_routes`] reports every route to a statically
//! dispatched [`routes::RouteVisitor`] — an exact weighted route link by
//! link for deterministic/oblivious routing (a visitor that needs the
//! per-hop routing state advances it itself), expected-flow hops for
//! adaptive routing — so other static passes (channel-load analysis in
//! `noc-analytic`, future ones) consume the verifier's own walks instead
//! of re-deriving them.
//!
//! ```
//! use noc_sim::config::NetConfig;
//!
//! let report = noc_verify::verify(&NetConfig::baseline());
//! assert!(report.is_certified());
//! println!("{report}");
//! ```

#![warn(missing_docs)]

mod cdg;
mod checks;
pub mod fault;
mod report;
pub mod routes;

pub use cdg::Cdg;
pub use fault::{check_fault_connectivity, FaultReport, FaultVerdict, PartitionWitness};
pub use report::{CdgStats, ChannelRef, CycleWitness, Finding, Severity, Verdict, VerifyReport};

use noc_sim::config::NetConfig;
use noc_sim::routing::VcBook;

/// Analyze `cfg` and return the full verification report.
pub fn verify(cfg: &NetConfig) -> VerifyReport {
    let routing = cfg.routing;
    let desc = |topo: &str| {
        format!(
            "{} on {topo}, {} VC(s) x {}-flit buffers, {} class(es)",
            routing.name(),
            cfg.vcs,
            cfg.vc_buf,
            cfg.classes
        )
    };
    if let Err(e) = cfg.topology.validate() {
        let desc = desc(&format!("{:?}", cfg.topology));
        let message = format!("rejected by the simulator: {e}");
        return unanalyzable(desc, format!("unanalyzable topology: {e}"), "config", message);
    }
    let topo = cfg.topology;
    let config_desc = desc(&topo.name());

    let (book, deficiencies) = match VcBook::relaxed(cfg.vcs, cfg.classes, routing, topo) {
        Ok(relaxed) => relaxed,
        Err(e) => {
            let why = format!("unanalyzable VC partition: {e}");
            return unanalyzable(config_desc, why, "vc-partition", e.to_string());
        }
    };

    let findings = checks::static_checks(cfg, &deficiencies);
    let build = routes::build_cdg(cfg, &book);
    let stats = CdgStats {
        channels: build.cdg.num_channels(),
        edges: build.cdg.num_edges(),
        routes: build.routes,
    };

    let verdict = match build.cdg.find_cycle() {
        Some(cycle) if build.exact => {
            let channels = cycle
                .iter()
                .map(|&id| {
                    let (router, port, vc) = routes::decode_channel(topo, id, book.vcs());
                    let dst_router =
                        topo.neighbor(router, port).expect("witness channels lie on live links").0;
                    ChannelRef { router, port, dst_router, vc }
                })
                .collect();
            Verdict::Refuted(CycleWitness { channels })
        }
        Some(cycle) => Verdict::Unknown(format!(
            "{}-channel cycle in the extended escape dependency graph; the adaptive \
             analysis over-approximates waiting, so this is not a proof of deadlock",
            cycle.len()
        )),
        None if findings.iter().any(|f| f.severity == Severity::Error) => Verdict::Unknown(
            "dependency graph is acyclic, but the configuration itself is invalid".into(),
        ),
        None => Verdict::Certified,
    };

    VerifyReport { config_desc, verdict, findings, stats }
}

/// The report for a configuration no analysis can start on: an
/// `Unknown` verdict and one error finding.
fn unanalyzable(
    config_desc: String,
    why: String,
    check: &'static str,
    message: String,
) -> VerifyReport {
    let findings = vec![Finding { severity: Severity::Error, check, message }];
    VerifyReport {
        config_desc,
        verdict: Verdict::Unknown(why),
        findings,
        stats: CdgStats::default(),
    }
}
