//! The static fault-connectivity lint and the dynamic simulation must
//! agree: a Certified fault set delivers everything under
//! retransmission, and a Refuted (partitioned) one abandons exactly the
//! traffic crossing the cut — while still settling cleanly.

use noc_fault::{run_faulted, FaultConfig, FlapConfig};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::network::fault::{FaultEvent, FaultPlan, RetxPolicy};
use noc_sim::{Cycle, Delivered, Network, NodeBehavior, PacketSpec};
use noc_verify::{check_fault_connectivity, fault::isolate_node_events, FaultVerdict};

fn base() -> OpenLoopConfig {
    OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        ..OpenLoopConfig::default()
    }
    .quick()
    .with_load(0.1)
}

#[test]
fn certified_fault_set_simulates_to_full_delivery() {
    let base = base();
    let topo = base.net.topology;
    // scan seeds for a certified 3-link scenario (most are; take the
    // first so the test does not depend on any one seed's luck)
    let plan = (0..64)
        .map(|seed| {
            FaultConfig { seed, link_failures: 3, fail_at: base.warmup, ..FaultConfig::default() }
                .plan(topo)
        })
        .find(|p| check_fault_connectivity(&base.net, &p.events).unwrap().is_certified())
        .expect("some 3-link scenario on a 4x4 mesh must be survivable");

    let p = run_faulted(&base, FaultPlan { retx: Some(RetxPolicy::default()), ..plan }, 100_000)
        .expect("valid plan")
        .expect("certified scenario must settle");
    assert!(
        p.delivered().is_complete(),
        "lint certified the survivors but simulation delivered only {}",
        p.delivered()
    );
    assert_eq!(p.stats.transfers_abandoned, 0);
}

#[test]
fn refuted_fault_set_simulates_to_partial_delivery() {
    let base = base();
    // isolate node 0: the lint must refute connectivity...
    let events = isolate_node_events(base.net.topology, 0, base.warmup);
    let report = check_fault_connectivity(&base.net, &events).unwrap();
    let FaultVerdict::Refuted { witness } = &report.verdict else {
        panic!("isolating a node must refute connectivity: {report}");
    };
    assert!(witness.reachable == 1 || witness.cut_off == 1);

    // ...and the simulation must abandon exactly the cross-cut traffic
    // yet still settle (abandonment, not a hang)
    let plan = FaultPlan { events, retx: Some(RetxPolicy::default()), ..FaultPlan::default() };
    let p = run_faulted(&base, plan, 200_000)
        .expect("valid plan")
        .expect("partitioned scenario must still settle");
    let (delivered, abandoned) = (p.delivered(), p.stats.transfers_abandoned);
    assert!(!delivered.is_complete(), "traffic across the cut cannot be delivered");
    assert!(abandoned > 0, "cross-cut transfers must be abandoned, not lost track of");
    assert_eq!(
        delivered.num + abandoned,
        delivered.den,
        "every transfer must resolve to delivered or abandoned"
    );
    // uniform traffic from 15 live nodes mostly stays on the big side:
    // the delivered fraction should remain high
    assert!(delivered.fraction() > 0.5, "degradation should be graceful: {delivered}");
}

/// No traffic: a run only applies the plan's events.
struct Idle;

impl NodeBehavior for Idle {
    fn pull(&mut self, _: usize, _: Cycle) -> Option<PacketSpec> {
        None
    }
    fn deliver(&mut self, _: usize, _: &Delivered, _: Cycle) {}
    fn quiescent(&self) -> bool {
        true
    }
}

/// Step an idle network through `events`. After each cycle that applies
/// some, the engine's survivor table (`None` once healed) must agree with
/// the lint run on the events applied so far, on every live pair.
/// Returns the lint's verdicts (true = certified).
fn engine_and_lint_agree(net_cfg: &NetConfig, events: &[FaultEvent]) -> Vec<bool> {
    let mut net = Network::new(net_cfg.clone()).unwrap();
    net.set_fault_plan(FaultPlan { events: events.to_vec(), ..FaultPlan::default() }).unwrap();
    let mut cycles: Vec<Cycle> = events.iter().map(FaultEvent::cycle).collect();
    cycles.sort_unstable();
    cycles.dedup();
    let (mut now, mut verdicts) = (0, Vec::new());
    for c in cycles {
        net.run(c + 1 - now, &mut Idle);
        now = c + 1;
        let applied: Vec<FaultEvent> = events.iter().copied().filter(|e| e.cycle() <= c).collect();
        let report = check_fault_connectivity(net_cfg, &applied).unwrap();
        // the plan generators never repair a router
        let dead = |r| {
            applied
                .iter()
                .any(|e| matches!(*e, FaultEvent::RouterFail { router, .. } if router == r))
        };
        let live: Vec<usize> = (0..net_cfg.topology.num_nodes()).filter(|&r| !dead(r)).collect();
        let table = net.survivor_table();
        let reach = |a, b| table.is_none_or(|t| t.reachable(a, b));
        let connected = live.iter().all(|&a| live.iter().all(|&b| reach(a, b)));
        assert_eq!(connected, report.is_certified(), "cycle {c}: {report}");
        match report.verdict {
            FaultVerdict::Certified { live_routers } => assert_eq!(live_routers, live.len()),
            FaultVerdict::Refuted { witness } => assert!(!reach(witness.src, witness.dst)),
        }
        verdicts.push(connected);
    }
    verdicts
}

/// The lint applies events to the engine's own `FaultLedger` and reads
/// the engine's own `SurvivorTable`; this checks its verdicts against a
/// `Network` stepped through the same plan, whose event ordering, epoch
/// bookkeeping and table lifetime the lint does not share, over
/// permanent plans (1-6 links, 0-1 routers, 8 seeds) and one
/// intermittent timeline checked at every cycle it changes, on a mesh
/// and a torus.
#[test]
fn lint_end_state_matches_the_engine_survivor_table() {
    let mut verdicts = Vec::new();
    for topology in [TopologyKind::Mesh2D { k: 4 }, TopologyKind::Torus2D { k: 4 }] {
        let net_cfg = NetConfig::baseline().with_topology(topology);
        for seed in 0..8 {
            for link_failures in 1..=6 {
                for router_failures in 0..=1 {
                    let cfg = FaultConfig {
                        seed,
                        link_failures,
                        router_failures,
                        fail_at: 10,
                        ..FaultConfig::default()
                    };
                    let plan = cfg.plan(topology);
                    verdicts.extend(engine_and_lint_agree(&net_cfg, &plan.events));
                }
            }
        }
        let flap = FlapConfig {
            seed: 7,
            links: 12,
            mtbf: 60,
            mttr: 40,
            start: 10,
            horizon: 600,
            ..FlapConfig::default()
        };
        let plan = flap.plan(topology).unwrap();
        assert!(plan.events.iter().any(FaultEvent::is_repair), "the timeline must repair");
        verdicts.extend(engine_and_lint_agree(&net_cfg, &plan.events));
    }
    let certified = verdicts.iter().filter(|&&c| c).count();
    assert!(0 < certified && certified < verdicts.len(), "both verdicts exercised: {verdicts:?}");
}
