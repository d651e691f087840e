//! Static configuration checks, independent of the dependency-graph
//! analysis: the simulator's own validation, VC partition deficiencies,
//! routing/topology compatibility, and buffer sizing against the credit
//! round-trip.

use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_sim::error::ConfigError;

use crate::report::{Finding, Severity};

/// Run every static check and collect findings; `deficiencies` are the
/// block minima the relaxed VC partition violates.
pub fn static_checks(cfg: &NetConfig, deficiencies: &[ConfigError]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // The simulator's own validation is the ground truth for whether
    // the config can run at all.
    if let Err(e) = cfg.validate() {
        findings.push(Finding {
            severity: Severity::Error,
            check: "config",
            message: format!("rejected by the simulator: {e}"),
        });
    }
    // Class disjointness and an injectable VC per class hold by
    // construction of the partition; what can be missing is a minimum.
    for e in deficiencies {
        findings.push(Finding {
            severity: Severity::Warning,
            check: "vc-partition",
            message: e.to_string(),
        });
    }

    topology_checks(cfg, &mut findings);
    buffer_checks(cfg, &mut findings);
    findings
}

/// Routing/topology pairings that are legal but degenerate.
fn topology_checks(cfg: &NetConfig, findings: &mut Vec<Finding>) {
    if cfg.routing == RoutingKind::MinAdaptive && cfg.topology.dims() == 1 {
        findings.push(Finding {
            severity: Severity::Info,
            check: "routing-topology",
            message: "minimal adaptive routing on a 1-D topology degenerates to DOR \
                      (a single minimal port per hop)"
                .into(),
        });
    }
    if matches!(cfg.topology, TopologyKind::Ring { n } if n <= 2) {
        findings.push(Finding {
            severity: Severity::Info,
            check: "routing-topology",
            message: "ring with <= 2 nodes has no wraparound distinct from direct links".into(),
        });
    }
    if cfg.routing == RoutingKind::Valiant && !cfg.topology.has_wrap() {
        findings.push(Finding {
            severity: Severity::Info,
            check: "routing-topology",
            message: "Valiant on a mesh doubles average hop count without the load-balance \
                      benefit wraparound symmetry provides"
                .into(),
        });
    }
}

/// Full per-VC throughput needs the buffer to cover the credit
/// round-trip: forward flit traversal (router pipeline + link) plus the
/// credit's return trip (one cycle of credit generation + link).
fn buffer_checks(cfg: &NetConfig, findings: &mut Vec<Finding>) {
    let link_delay = cfg.topology.link_delay();
    let rtt = cfg.router_delay as usize + 2 * link_delay as usize + 1;
    if cfg.vc_buf < rtt {
        findings.push(Finding {
            severity: Severity::Warning,
            check: "buffer-credit-rtt",
            message: format!(
                "vc_buf = {} is below the worst-case credit round-trip of {rtt} cycles \
                 (router {} + 2 x link {} + 1); a single VC cannot sustain full link \
                 throughput",
                cfg.vc_buf, cfg.router_delay, link_delay
            ),
        });
    }
}
