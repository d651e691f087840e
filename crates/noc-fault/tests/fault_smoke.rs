//! CI fault smoke tests: a small mesh with failed links must degrade
//! gracefully — every transfer delivered via retransmission, exact
//! ledger accounting, and (under `--features sanitize`) all simulator
//! conservation invariants intact while links are dead. The
//! intermittent scenario additionally rides through a fault-and-repair
//! timeline and must reach full delivery once the final repair epoch
//! has healed the fabric.

use noc_exp::PointOutcome;
use noc_fault::{fault_sweep, link_availability, run_faulted, FaultConfig, ResilienceConfig};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::network::fault::{FaultPlan, RetxPolicy};

fn base() -> OpenLoopConfig {
    OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        ..OpenLoopConfig::default()
    }
    .quick()
    .with_load(0.15)
}

#[test]
fn fault_smoke_two_dead_links_full_delivery() {
    let base = base();
    // two permanent link failures force rerouting; the transient
    // corruption rate guarantees some packets are actually swallowed so
    // full delivery exercises the retransmission path, not just rerouting
    let fault_cfg = FaultConfig {
        seed: 2026,
        link_failures: 2,
        fail_at: base.warmup,
        corrupt_rate: 2e-3,
        ..FaultConfig::default()
    };
    let plan = fault_cfg.plan(base.net.topology);

    // the scenario must be survivable before we demand full delivery
    let lint = noc_verify::check_fault_connectivity(&base.net, &plan.events).unwrap();
    assert!(lint.is_certified(), "{lint}");

    let retx = Some(RetxPolicy::default());
    let p = run_faulted(&base, FaultPlan { retx, ..plan }, 100_000)
        .expect("valid plan")
        .expect("smoke scenario must settle");
    let s = &p.stats;
    assert!(
        p.delivered().is_complete(),
        "delivered {} with {} abandoned, {} dropped",
        p.delivered(),
        s.transfers_abandoned,
        s.packets_dropped
    );
    assert_eq!(s.transfers_abandoned, 0);
    assert!(s.packets_dropped > 0, "the corruption rate must actually swallow packets");
    assert!(s.retransmissions > 0, "recovering dropped packets requires retransmission");
}

/// The robustness acceptance scenario: links flap up and down through
/// the measurement window (every outage repaired before it ends), and
/// with end-to-end retransmission armed — alone or combined with
/// link-level retry — the run must settle with *every* transfer
/// delivered after the final repair epoch. Runs under
/// `--features sanitize` in CI, so the per-cycle conservation laws and
/// the fault-consistency law watch the whole timeline.
#[test]
fn fault_smoke_intermittent_full_delivery_after_final_repair() {
    let base = base();
    let combined = ResilienceConfig::new(base.clone(), vec![(500, 80)]);
    let e2e = ResilienceConfig { link_retry: None, ..combined.clone() };
    for (mode, cfg) in [("e2e", e2e), ("combined", combined)] {
        let plans = cfg.plans().expect("valid sweep config");
        let out = fault_sweep(&cfg.base, &plans, 100_000).expect("valid sweep config");
        let PointOutcome::Ok(p) = &out[0] else {
            panic!("intermittent smoke point must settle ({mode}): {out:?}")
        };
        let s = &p.stats;
        let availability = link_availability(&plans[0].events, base.net.topology, cfg.flap.horizon);
        assert!(availability < 1.0, "the timeline must actually flap ({mode})");
        assert!(s.epochs >= 2, "outage + repair must each close an epoch ({mode})");
        assert!(
            p.delivered().is_complete(),
            "{mode}: delivered {} with {} abandoned after the final repair epoch",
            p.delivered(),
            s.transfers_abandoned
        );
        assert_eq!(
            s.transfers_abandoned, 0,
            "{mode}: nothing may be abandoned once the fabric heals"
        );
        if cfg.link_retry.is_some() {
            assert!(
                s.link_replays > 0,
                "combined recovery must exercise the link-level replay path"
            );
        }
    }
}

#[test]
fn fault_smoke_replays_bit_identically() {
    let base = base();
    let fault_cfg = FaultConfig {
        seed: 99,
        link_failures: 3,
        fail_at: base.warmup / 2,
        ..FaultConfig::default()
    };
    let plan = FaultPlan { retx: Some(RetxPolicy::default()), ..fault_cfg.plan(base.net.topology) };
    let run = || {
        run_faulted(&base, plan.clone(), 100_000)
            .expect("valid plan")
            .expect("scenario must settle")
    };
    assert_eq!(run(), run(), "same plan, same traffic, different outcome");
}
