//! Property tests for fault-scenario replay and crash-proof grids:
//! permanent fault plans, intermittent fault-and-repair timelines, and
//! full resilience measurements must all be bit-identical functions of
//! their seeds, independent of run count or worker thread count.

use noc_exp::{run_grid_robust, PointOutcome};
use noc_fault::{
    fault_sweep, last_repair_cycle, DegradationConfig, FaultConfig, FlapConfig, ResilienceConfig,
};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::FaultEvent;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Same (seed, topology, request) -> bit-identical fault plan,
    /// for any seed, any failure counts (including oversized), and
    /// every supported topology family.
    #[test]
    fn fault_plan_replays_bit_identically(
        seed in 0u64..u64::MAX,
        links in 0usize..64,
        routers in 0usize..32,
        fail_at in 0u64..10_000,
        kind in prop_oneof![
            Just(TopologyKind::Mesh2D { k: 4 }),
            Just(TopologyKind::Torus2D { k: 4 }),
            Just(TopologyKind::FoldedTorus2D { k: 3 }),
            Just(TopologyKind::Ring { n: 9 }),
        ],
    ) {
        let cfg = FaultConfig { seed, link_failures: links, router_failures: routers, fail_at, corrupt_rate: 1e-4 };
        let a = cfg.plan(kind);
        let b = cfg.plan(kind);
        prop_assert_eq!(&a, &b);
        // every event fires at the configured cycle, and link failures
        // never exceed twice the request (both directions per link)
        prop_assert!(a.events.iter().all(|e| e.cycle() == fail_at));
        let link_events = a.events.iter()
            .filter(|e| matches!(e, noc_sim::FaultEvent::LinkFail { .. }))
            .count();
        prop_assert!(link_events <= 2 * links);
        prop_assert_eq!(link_events % 2, 0);
    }

    /// Same (seed, topology, flap parameters) -> bit-identical
    /// intermittent timeline, and every generated timeline is
    /// well-formed: sorted by cycle, confined to `(start, horizon)`,
    /// alternating fail/repair per directed channel, fully healed at
    /// the end.
    #[test]
    fn intermittent_timeline_replays_bit_identically(
        seed in 0u64..u64::MAX,
        links in 0usize..8,
        mtbf in 1u64..3_000,
        mttr in 1u64..500,
        kind in prop_oneof![
            Just(TopologyKind::Mesh2D { k: 4 }),
            Just(TopologyKind::Torus2D { k: 4 }),
            Just(TopologyKind::Ring { n: 9 }),
        ],
    ) {
        let cfg = FlapConfig { seed, links, mtbf, mttr, start: 64, horizon: 16_384, corrupt_rate: 1e-4 };
        let a = cfg.plan(kind).unwrap();
        let b = cfg.plan(kind).unwrap();
        prop_assert_eq!(&a, &b);

        let cycles: Vec<u64> = a.events.iter().map(FaultEvent::cycle).collect();
        prop_assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(cycles.iter().all(|&c| c > cfg.start && c < cfg.horizon));
        let mut down = std::collections::HashMap::new();
        for e in &a.events {
            match *e {
                FaultEvent::LinkFail { router, port, .. } => {
                    prop_assert!(!down.insert((router, port), true).unwrap_or(false));
                }
                FaultEvent::LinkRepair { router, port, .. } => {
                    prop_assert_eq!(down.insert((router, port), false), Some(true));
                }
                ref other => prop_assert!(false, "unexpected event {:?}", other),
            }
        }
        prop_assert!(down.values().all(|&d| !d), "timeline must end healed");
        prop_assert!(last_repair_cycle(&a.events).is_none() == a.events.is_empty());
    }

    /// A grid with one panicking point reports `Panicked` for exactly
    /// that point and clean results for every other — and the parallel
    /// engine agrees with a serial evaluation of the same closure.
    #[test]
    fn panicking_point_never_poisons_the_grid(
        n in 2usize..24,
        bad_seed in 0u64..1000,
    ) {
        let points: Vec<u64> = (0..n as u64).collect();
        let bad = bad_seed % n as u64;
        let eval = |_i: usize, &p: &u64| {
            if p == bad {
                panic!("injected failure at point {p}");
            }
            Ok(p * p)
        };
        let par = run_grid_robust(&points, eval);
        let ser: Vec<PointOutcome<u64>> = points
            .iter()
            .map(|&p| {
                if p == bad {
                    PointOutcome::Panicked { message: format!("injected failure at point {p}") }
                } else {
                    PointOutcome::Ok(p * p)
                }
            })
            .collect();
        prop_assert_eq!(par, ser);
    }
}

proptest! {
    // full simulations per case: keep the case budget small
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A full resilience measurement — flap timeline, recovery
    /// machinery, settling — is a bit-identical function of its seeds:
    /// re-running the sweep reproduces every point exactly.
    #[test]
    fn resilience_points_replay_bit_identically(
        seed in 0u64..10_000,
        mtbf in 200u64..1_500,
        mttr in 20u64..200,
        (e2e, link) in (prop::bool::ANY, prop::bool::ANY),
    ) {
        let base = OpenLoopConfig {
            net: NetConfig::baseline()
                .with_topology(TopologyKind::Mesh2D { k: 4 })
                .with_seed(seed),
            ..OpenLoopConfig::default()
        }
        .quick()
        .with_load(0.08);
        let mut cfg = ResilienceConfig::new(base, vec![(mtbf, mttr), (2 * mtbf, mttr)]);
        cfg.retx = cfg.retx.filter(|_| e2e);
        cfg.link_retry = cfg.link_retry.filter(|_| link);
        let run = || fault_sweep(&cfg.base, &cfg.plans()?, 60_000);
        prop_assert_eq!(run(), run(), "replay diverged for e2e {} link {}", e2e, link);
    }
}

/// Both fault sweeps are bit-identical at every worker count: width 1
/// (`NOC_THREADS=1`, the serial reference) against a real pool of 4.
/// The only test in this binary that sets `NOC_THREADS`.
#[test]
fn fault_sweeps_are_bit_identical_at_every_width() {
    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        ..OpenLoopConfig::default()
    }
    .quick()
    .with_load(0.1);
    let degradation = DegradationConfig::new(base.clone(), 3).plans().unwrap();
    let resilience = ResilienceConfig::new(base.clone(), vec![(300, 40), (600, 80), (1200, 160)])
        .plans()
        .unwrap();
    let at_width = |width: &str| {
        std::env::set_var("NOC_THREADS", width);
        (
            format!("{:?}", fault_sweep(&base, &degradation, 60_000)),
            format!("{:?}", fault_sweep(&base, &resilience, 60_000)),
        )
    };
    let (ser_deg, ser_res) = at_width("1");
    let (par_deg, par_res) = at_width("4");
    std::env::remove_var("NOC_THREADS");
    assert_eq!(par_deg, ser_deg, "parallel degradation sweep diverged from width 1");
    assert_eq!(par_res, ser_res, "parallel resilience sweep diverged from width 1");
}
