//! Property tests for the CDG analyzer over random topology x routing
//! x VC-count configurations.

use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use proptest::prelude::*;

fn topo_strategy() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        (3usize..=5).prop_map(|k| TopologyKind::Mesh2D { k }),
        (3usize..=5).prop_map(|k| TopologyKind::Torus2D { k }),
        (3usize..=5).prop_map(|k| TopologyKind::FoldedTorus2D { k }),
        (4usize..=10).prop_map(|n| TopologyKind::Ring { n }),
    ]
}

fn routing_strategy() -> impl Strategy<Value = RoutingKind> {
    prop_oneof![
        Just(RoutingKind::Dor),
        Just(RoutingKind::Valiant),
        Just(RoutingKind::Romm),
        Just(RoutingKind::MinAdaptive),
    ]
}

/// Smallest per-(class, phase) block the strict partition accepts.
fn min_block(routing: RoutingKind, wrap: bool) -> usize {
    match routing {
        RoutingKind::MinAdaptive => {
            if wrap {
                3
            } else {
                2
            }
        }
        _ => {
            if wrap {
                2
            } else {
                1
            }
        }
    }
}

fn wraps(topo: TopologyKind) -> bool {
    !matches!(topo, TopologyKind::Mesh2D { .. })
}

fn phases(routing: RoutingKind) -> usize {
    match routing {
        RoutingKind::Valiant | RoutingKind::Romm => 2,
        _ => 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// DOR on a mesh is the textbook deadlock-free configuration: it
    /// must certify for every mesh size, VC count, and class count.
    #[test]
    fn dor_on_mesh_always_certifies(
        k in 3usize..=6,
        block in 1usize..=3,
        classes in 1usize..=2,
        vc_buf in 2usize..=8,
    ) {
        let cfg = NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k })
            .with_routing(RoutingKind::Dor)
            .with_vcs(classes * block)
            .with_classes(classes)
            .with_vc_buf(vc_buf);
        let report = noc_verify::verify(&cfg);
        prop_assert!(report.is_certified(), "{}", report);
    }

    /// Any non-adaptive routing on a wrap topology with a single VC per
    /// block has no dateline VC, so the analyzer must refute it with a
    /// closed-chain witness — provided the radix is at least 4. (On a
    /// radix-3 ring every minimal route moves at most one hop per
    /// dimension, so no dependency chain can circle the ring and the
    /// single-VC graph is genuinely acyclic; the analyzer certifies it.)
    #[test]
    fn single_vc_block_on_wrap_topology_refutes_with_closed_witness(
        topo in prop_oneof![
            (4usize..=5).prop_map(|k| TopologyKind::Torus2D { k }),
            (4usize..=10).prop_map(|n| TopologyKind::Ring { n }),
        ],
        routing in prop_oneof![
            Just(RoutingKind::Dor),
            Just(RoutingKind::Valiant),
            Just(RoutingKind::Romm),
        ],
        classes in 1usize..=2,
    ) {
        let vcs = classes * phases(routing); // block of exactly 1
        let cfg = NetConfig::baseline()
            .with_topology(topo)
            .with_routing(routing)
            .with_vcs(vcs)
            .with_classes(classes);
        let report = noc_verify::verify(&cfg);
        let noc_verify::Verdict::Refuted(witness) = &report.verdict else {
            return Err(TestCaseError::fail(format!("expected refutation: {report}")));
        };
        let n = witness.channels.len();
        prop_assert!(n >= 2, "wraparound cycles span at least two channels");
        for (i, ch) in witness.channels.iter().enumerate() {
            prop_assert_eq!(ch.dst_router, witness.channels[(i + 1) % n].router);
        }
    }

    /// Configurations the strict partition accepts always analyze
    /// without degradation warnings, and the verdict is deterministic.
    #[test]
    fn valid_configs_analyze_deterministically(
        topo in topo_strategy(),
        routing in routing_strategy(),
        extra in 0usize..=1,
        classes in 1usize..=2,
    ) {
        let block = min_block(routing, wraps(topo)) + extra;
        let cfg = NetConfig::baseline()
            .with_topology(topo)
            .with_routing(routing)
            .with_vcs(classes * phases(routing) * block)
            .with_classes(classes);
        let a = noc_verify::verify(&cfg);
        let b = noc_verify::verify(&cfg);
        prop_assert_eq!(a.one_line(), b.one_line());
        prop_assert_eq!(&a.verdict, &b.verdict);
        prop_assert!(
            !a.findings.iter().any(|f| f.check == "vc-partition"
                && f.severity >= noc_verify::Severity::Warning),
            "valid partitions must not degrade: {}", a
        );
        // A valid non-adaptive configuration with dateline VCs is
        // always certified; adaptive on wrap topologies may be Unknown
        // (conservative), but never Refuted.
        match routing {
            RoutingKind::MinAdaptive => {
                prop_assert!(!matches!(a.verdict, noc_verify::Verdict::Refuted(_)),
                    "conservative analysis cannot refute: {}", a);
            }
            _ => prop_assert!(a.is_certified(), "{}", a),
        }
    }

    /// The analyzer agrees with the simulator's own validation: it
    /// marks an error finding iff `NetConfig::validate` rejects. That
    /// includes topologies too small or too large to build and VC counts
    /// past the 64-bit mask, which must come back promptly, refused.
    #[test]
    fn error_findings_match_simulator_validation(
        topo in prop_oneof![
            topo_strategy(),
            Just(TopologyKind::Mesh2D { k: 1 }),
            Just(TopologyKind::Mesh2D { k: 3000 }),
            Just(TopologyKind::Ring { n: 5000 }),
        ],
        routing in routing_strategy(),
        vcs in prop_oneof![1usize..=6, Just(65usize), Just(128usize)],
        classes in 1usize..=2,
    ) {
        let cfg = NetConfig::baseline()
            .with_topology(topo)
            .with_routing(routing)
            .with_vcs(vcs)
            .with_classes(classes);
        let report = noc_verify::verify(&cfg);
        let rejected = cfg.validate().is_err();
        let has_error = report.count_at_least(noc_verify::Severity::Error) > 0;
        prop_assert_eq!(rejected, has_error, "validate disagreement: {}", report);
        if rejected {
            prop_assert!(!report.is_certified(),
                "invalid configs must never be certified: {}", report);
        }
    }
}
