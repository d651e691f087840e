//! Static connectivity analysis of faulted topologies.
//!
//! Given a network configuration and a list of fault-and-repair events
//! (the same [`FaultEvent`]s a simulation would replay),
//! [`check_fault_connectivity`] decides — without simulating — whether
//! every live node can still reach every other live node over the
//! surviving directed channel graph *at the end of the timeline*:
//! events are applied in cycle order, so a repair un-kills what an
//! earlier fault killed. The lint owns no fault rule of its own: it
//! applies the events to the simulator's [`FaultLedger`] (a router
//! failure kills all its incident channels in both directions, a link
//! failure kills one directed channel) and reads reachability from the
//! simulator's [`SurvivorTable`] built over that end state.
//! `noc-fault`'s `lint_agreement` tests check its verdicts against a
//! `Network` that ran the same plan: a `Certified` fault set must
//! simulate to a 100% delivered fraction under retransmission, and a
//! `Refuted` one must abandon exactly the cut-off pairs.

use std::fmt;

use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::error::ConfigError;
use noc_sim::network::fault::{validate_events, FaultEvent, FaultLedger, SurvivorTable};

/// A concrete unreachable pair proving the surviving topology is
/// partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWitness {
    /// A live node that cannot reach `dst`.
    pub src: usize,
    /// The live node `src` cannot reach.
    pub dst: usize,
    /// Live nodes `src` *can* still reach (including itself).
    pub reachable: usize,
    /// Live nodes `src` cannot reach.
    pub cut_off: usize,
}

/// The connectivity verdict for a faulted topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Every ordered pair of live nodes is still connected by a
    /// directed path of surviving channels.
    Certified {
        /// Routers still alive after the fault set.
        live_routers: usize,
    },
    /// The surviving topology is partitioned; traffic between the
    /// witness pair cannot be delivered by *any* routing function.
    Refuted {
        /// A concrete unreachable pair.
        witness: PartitionWitness,
    },
}

/// Result of [`check_fault_connectivity`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// One-line description of the analyzed scenario.
    pub scenario: String,
    /// The verdict.
    pub verdict: FaultVerdict,
    /// Directed channels killed by the fault set (including those
    /// implied by router failures).
    pub channels_failed: usize,
}

impl FaultReport {
    /// True when the surviving topology is fully connected.
    pub fn is_certified(&self) -> bool {
        matches!(self.verdict, FaultVerdict::Certified { .. })
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fault connectivity: {}", self.scenario)?;
        writeln!(f, "  channels failed: {}", self.channels_failed)?;
        match &self.verdict {
            FaultVerdict::Certified { live_routers } => {
                write!(f, "  CERTIFIED: all {live_routers} live routers mutually reachable")
            }
            FaultVerdict::Refuted { witness } => write!(
                f,
                "  REFUTED: node {} cannot reach node {} ({} reachable, {} cut off)",
                witness.src, witness.dst, witness.reachable, witness.cut_off
            ),
        }
    }
}

/// Decide whether the topology of `cfg` survives `events`: certify
/// all-pairs connectivity of live nodes over surviving directed
/// channels, or refute it with a [`PartitionWitness`].
///
/// Events are applied in cycle order (ties broken by list position,
/// matching the simulator's stable event sort), so the analysis sees
/// the *net end state* of a fault-and-repair timeline: a link or
/// router failed and later repaired does not count against
/// connectivity, and `channels_failed` counts only channels still dead
/// at the end.
///
/// # Errors
/// The [`ConfigError`] the simulator gives for the same input: an
/// unbuildable topology, or an event naming a router or port outside
/// it (the text of `Network::set_fault_plan`).
pub fn check_fault_connectivity(
    cfg: &NetConfig,
    events: &[FaultEvent],
) -> Result<FaultReport, ConfigError> {
    cfg.topology.validate()?;
    let topo = cfg.topology;
    validate_events(events, topo)?;
    let mut order = events.to_vec();
    order.sort_by_key(FaultEvent::cycle); // stable, as the simulator's sort
    let mut ledger = FaultLedger::new(topo);
    for ev in &order {
        ledger.apply(ev);
    }
    let n = topo.num_nodes();
    let channels_failed = ledger.dead_links();
    let live: Vec<usize> = (0..n).filter(|&r| !ledger.router_dead(r)).collect();
    let scenario = format!(
        "{} with {} fault event(s), {}/{} routers live",
        topo.name(),
        events.len(),
        live.len(),
        n
    );

    let survivors = SurvivorTable::build(&ledger);
    for &src in &live {
        let mut cut = live.iter().filter(|&&d| !survivors.reachable(src, d));
        if let Some(&dst) = cut.next() {
            let cut_off = 1 + cut.count();
            let witness = PartitionWitness { src, dst, reachable: live.len() - cut_off, cut_off };
            return Ok(FaultReport {
                scenario,
                verdict: FaultVerdict::Refuted { witness },
                channels_failed,
            });
        }
    }

    Ok(FaultReport {
        scenario,
        verdict: FaultVerdict::Certified { live_routers: live.len() },
        channels_failed,
    })
}

/// Every directed fault event (both link directions) isolating `node`
/// on `topo` — a convenient way to construct a guaranteed-partitioned
/// scenario in tests.
pub fn isolate_node_events(topo: TopologyKind, node: usize, cycle: u64) -> Vec<FaultEvent> {
    let mut events = Vec::new();
    for p in 1..topo.num_ports() {
        if let Some((v, vp)) = topo.neighbor(node, p) {
            events.push(FaultEvent::LinkFail { cycle, router: node, port: p });
            events.push(FaultEvent::LinkFail { cycle, router: v, port: vp });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    fn mesh4() -> NetConfig {
        NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 })
    }

    #[test]
    fn healthy_topology_is_certified() {
        let r = check_fault_connectivity(&mesh4(), &[]).unwrap();
        assert_eq!(r.verdict, FaultVerdict::Certified { live_routers: 16 });
        assert_eq!(r.channels_failed, 0);
    }

    #[test]
    fn one_mesh_link_pair_is_survivable() {
        // failing one bidirectional link of a mesh leaves it connected
        let cfg = mesh4();
        let topo = cfg.topology;
        let (v, vp) = topo.neighbor(5, 1).unwrap();
        let events = [
            FaultEvent::LinkFail { cycle: 0, router: 5, port: 1 },
            FaultEvent::LinkFail { cycle: 0, router: v, port: vp },
        ];
        let r = check_fault_connectivity(&cfg, &events).unwrap();
        assert!(r.is_certified(), "{r}");
        assert_eq!(r.channels_failed, 2);
    }

    #[test]
    fn isolated_corner_is_refuted_with_witness() {
        let cfg = mesh4();
        let topo = cfg.topology;
        let events = isolate_node_events(topo, 0, 0);
        let r = check_fault_connectivity(&cfg, &events).unwrap();
        let FaultVerdict::Refuted { witness } = &r.verdict else {
            panic!("expected refutation, got {r}");
        };
        // node 0 is alive but alone on its side of the cut
        assert!(witness.src == 0 || witness.dst == 0);
        assert_eq!(witness.reachable + witness.cut_off, 16);
        assert!(witness.reachable == 1 || witness.cut_off == 1);
    }

    #[test]
    fn repaired_timeline_certifies_as_healthy() {
        // isolate a corner, then repair everything: the end state is
        // the intact mesh, so the verdict must be Certified with no
        // failed channels left
        let cfg = mesh4();
        let topo = cfg.topology;
        let mut events = isolate_node_events(topo, 0, 10);
        let repairs: Vec<FaultEvent> = events
            .iter()
            .map(|e| match *e {
                FaultEvent::LinkFail { router, port, .. } => {
                    FaultEvent::LinkRepair { cycle: 50, router, port }
                }
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        events.extend(repairs);
        events.push(FaultEvent::RouterFail { cycle: 20, router: 9 });
        events.push(FaultEvent::RouterRepair { cycle: 60, router: 9 });
        let r = check_fault_connectivity(&cfg, &events).unwrap();
        assert_eq!(r.verdict, FaultVerdict::Certified { live_routers: 16 });
        assert_eq!(r.channels_failed, 0);
    }

    #[test]
    fn partial_repair_leaves_the_net_end_state() {
        // fail two links of node 0's corner, repair only one: the end
        // state has one dead bidirectional link and stays connected
        let cfg = mesh4();
        let topo = cfg.topology;
        let mut events = isolate_node_events(topo, 0, 10); // 2 links, 4 events
        assert_eq!(events.len(), 4);
        let FaultEvent::LinkFail { router, port, .. } = events[0] else { panic!() };
        let (v, vp) = topo.neighbor(router, port).unwrap();
        events.push(FaultEvent::LinkRepair { cycle: 50, router, port });
        events.push(FaultEvent::LinkRepair { cycle: 50, router: v, port: vp });
        let r = check_fault_connectivity(&cfg, &events).unwrap();
        assert!(r.is_certified(), "{r}");
        assert_eq!(r.channels_failed, 2, "one bidirectional link still down");
    }

    #[test]
    fn dead_router_removes_itself_from_the_pair_set() {
        // a failed router partitions nothing: the remaining 15 mesh
        // nodes stay mutually connected and the dead one is exempt
        let events = [FaultEvent::RouterFail { cycle: 0, router: 5 }];
        let r = check_fault_connectivity(&mesh4(), &events).unwrap();
        assert_eq!(r.verdict, FaultVerdict::Certified { live_routers: 15 });
        assert!(r.channels_failed >= 8, "both directions of all incident links: {r}");
    }

    #[test]
    fn out_of_range_events_are_refused_as_the_simulator_refuses_them() {
        for ev in [
            FaultEvent::RouterFail { cycle: 0, router: 99 },
            FaultEvent::LinkFail { cycle: 0, router: 15, port: 9 },
            FaultEvent::LinkFail { cycle: 0, router: 0, port: 9 },
        ] {
            let err = check_fault_connectivity(&mesh4(), &[ev]).unwrap_err();
            assert!(matches!(err, ConfigError::Parameter { name: "events", .. }), "{err}");
            let mut net = noc_sim::Network::new(mesh4()).unwrap();
            let plan =
                noc_sim::network::fault::FaultPlan { events: vec![ev], ..Default::default() };
            assert_eq!(net.set_fault_plan(plan), Err(err), "same text as the simulator");
        }
        let unbuildable = NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 1 });
        assert!(check_fault_connectivity(&unbuildable, &[]).is_err());
    }
}
