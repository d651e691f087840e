//! Certification and refutation tests pinning the analyzer's verdicts
//! on the configurations the theory decides unambiguously.

use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_sim::routing::VcBook;
use noc_verify::{Severity, Verdict, VerifyReport};

fn cfg(topo: TopologyKind, routing: RoutingKind, vcs: usize) -> NetConfig {
    NetConfig::baseline().with_topology(topo).with_routing(routing).with_vcs(vcs)
}

#[test]
fn dor_on_mesh_is_certified() {
    let report = noc_verify::verify(&NetConfig::baseline());
    assert!(report.is_certified(), "baseline DOR/8x8-mesh must certify: {report}");
    assert!(report.stats.edges > 0, "analysis must actually have enumerated dependencies");
    assert_eq!(report.count_at_least(Severity::Error), 0);
}

#[test]
fn dor_on_torus_with_dateline_vcs_is_certified() {
    let report = noc_verify::verify(&cfg(TopologyKind::Torus2D { k: 4 }, RoutingKind::Dor, 2));
    assert!(report.is_certified(), "{report}");
}

#[test]
fn valiant_on_torus_with_two_vcs_per_block_is_certified() {
    // Two phases x one class x 2 VCs per block = 4 VCs total; each
    // phase block has a dateline pair.
    let report = noc_verify::verify(&cfg(TopologyKind::Torus2D { k: 4 }, RoutingKind::Valiant, 4));
    assert!(report.is_certified(), "{report}");
}

#[test]
fn romm_on_mesh_is_certified() {
    let report = noc_verify::verify(&cfg(TopologyKind::Mesh2D { k: 4 }, RoutingKind::Romm, 2));
    assert!(report.is_certified(), "{report}");
}

#[test]
fn min_adaptive_on_mesh_is_certified() {
    // Block of 2: one escape VC + one adaptive VC.
    let report =
        noc_verify::verify(&cfg(TopologyKind::Mesh2D { k: 4 }, RoutingKind::MinAdaptive, 2));
    assert!(report.is_certified(), "{report}");
}

#[test]
fn one_vc_torus_dor_is_refuted_with_closed_cycle_witness() {
    let report = noc_verify::verify(&cfg(TopologyKind::Torus2D { k: 4 }, RoutingKind::Dor, 1));
    let Verdict::Refuted(witness) = &report.verdict else {
        panic!("1-VC torus DOR must be refuted, got: {report}");
    };
    assert!(!witness.channels.is_empty(), "witness must name concrete channels");
    // The witness must be a closed chain: each channel's downstream
    // router is where the next channel starts, wrapping around.
    let n = witness.channels.len();
    for (i, ch) in witness.channels.iter().enumerate() {
        let next = &witness.channels[(i + 1) % n];
        assert_eq!(
            ch.dst_router,
            next.router,
            "witness hop {i} must feed hop {}: {witness}",
            (i + 1) % n
        );
        assert_eq!(ch.vc, 0, "only VC 0 exists in this configuration");
    }
    // The same configuration is also rejected by the simulator itself.
    assert!(report.findings.iter().any(|f| f.severity == Severity::Error && f.check == "config"));
}

#[test]
fn one_vc_radix3_torus_is_acyclic_but_still_not_certified() {
    // On a radix-3 torus every minimal route moves at most one hop per
    // dimension, so single-VC dependency chains can never circle a
    // ring: the CDG is genuinely acyclic. The simulator still rejects
    // the config (no dateline VC), so the verdict stays Unknown rather
    // than Certified.
    let report = noc_verify::verify(&cfg(TopologyKind::Torus2D { k: 3 }, RoutingKind::Dor, 1));
    assert!(
        matches!(report.verdict, Verdict::Unknown(_)),
        "acyclic CDG + invalid config must be Unknown: {report}"
    );
}

#[test]
fn one_vc_ring_dor_is_refuted() {
    let report = noc_verify::verify(&cfg(TopologyKind::Ring { n: 6 }, RoutingKind::Dor, 1));
    assert!(matches!(report.verdict, Verdict::Refuted(_)), "{report}");
}

#[test]
fn min_adaptive_on_torus_is_not_certified_by_the_conservative_analysis() {
    // The escape network's dateline bit resets whenever the packet
    // changes dimension, so a packet that crossed a dateline, detoured
    // adaptively in another dimension, and re-entered the first one
    // rides a low escape VC beyond the dateline. The extended escape
    // dependency graph therefore contains a cycle and the conservative
    // analysis refuses to certify (it does not claim deadlock either).
    let report =
        noc_verify::verify(&cfg(TopologyKind::Torus2D { k: 4 }, RoutingKind::MinAdaptive, 3));
    assert!(
        matches!(report.verdict, Verdict::Unknown(_)),
        "expected conservative Unknown, got: {report}"
    );
}

#[test]
fn folded_torus_matches_plain_torus_verdicts() {
    let plain = noc_verify::verify(&cfg(TopologyKind::Torus2D { k: 4 }, RoutingKind::Dor, 2));
    let folded =
        noc_verify::verify(&cfg(TopologyKind::FoldedTorus2D { k: 4 }, RoutingKind::Dor, 2));
    assert!(plain.is_certified() && folded.is_certified());
    // Folded links are slower, so the credit round-trip warning fires
    // earlier there.
    assert_eq!(plain.stats.edges, folded.stats.edges, "same dependency structure");
}

/// The partition's two constructors agree: `new` is `relaxed` plus "the
/// first deficiency is the error", and every book `relaxed` builds, even
/// below the block minima, gives each class a disjoint, injectable VC
/// set. That is why the analyzer has no class-disjointness lint.
#[test]
fn vcbook_new_is_relaxed_with_its_first_deficiency_as_the_error() {
    let topos = [
        TopologyKind::Mesh2D { k: 4 },
        TopologyKind::Torus2D { k: 4 },
        TopologyKind::Ring { n: 8 },
    ];
    let routings =
        [RoutingKind::Dor, RoutingKind::Valiant, RoutingKind::Romm, RoutingKind::MinAdaptive];
    let (mut deficient, mut refused) = (0, 0);
    for topo in topos {
        for routing_kind in routings {
            for classes in 1..=2usize {
                let blocks = classes * routing_kind.num_phases();
                let even = (1..=4).map(|block| blocks * block);
                for vcs in even.flat_map(|vcs| [vcs, vcs + 1]).chain([0, 65]) {
                    let at = format!("{topo:?} {routing_kind:?} vcs={vcs} classes={classes}");
                    let strict = VcBook::new(vcs, classes, routing_kind, topo);
                    let (book, deficiencies) =
                        match VcBook::relaxed(vcs, classes, routing_kind, topo) {
                            Ok(relaxed) => relaxed,
                            Err(e) => {
                                assert_eq!(strict.unwrap_err(), e, "{at}");
                                refused += 1;
                                continue;
                            }
                        };
                    match deficiencies.first() {
                        None => assert!(strict.is_ok(), "{at}"),
                        Some(first) => {
                            assert_eq!(&strict.unwrap_err(), first, "{at}");
                            deficient += 1;
                        }
                    }
                    let mut union = 0u64;
                    for class in 0..classes {
                        let mask = book.class_mask(class);
                        assert_eq!(union & mask, 0, "{at}: class {class} overlaps a lower class");
                        assert_ne!(book.injection(class), 0, "{at}: class {class} cannot inject");
                        assert_eq!(book.injection(class) & !mask, 0, "{at}: injects outside class");
                        union |= mask;
                    }
                }
            }
        }
    }
    assert!(deficient > 0 && refused > 0, "the grid reaches both failure kinds");
}

#[test]
fn shallow_buffers_trigger_rtt_warning() {
    // Folded torus doubles link delays: RTT = 1 + 2*2 + 1 = 6 > 4.
    let report = noc_verify::verify(
        &cfg(TopologyKind::FoldedTorus2D { k: 4 }, RoutingKind::Dor, 2).with_vc_buf(4),
    );
    assert!(
        report.findings.iter().any(|f| f.check == "buffer-credit-rtt"),
        "shallow buffers on slow links must warn: {report}"
    );
    // Deep buffers silence it.
    let deep = noc_verify::verify(
        &cfg(TopologyKind::FoldedTorus2D { k: 4 }, RoutingKind::Dor, 2).with_vc_buf(8),
    );
    assert!(deep.findings.iter().all(|f| f.check != "buffer-credit-rtt"));
}

#[test]
fn report_one_line_is_stable_and_informative() {
    let report: VerifyReport = noc_verify::verify(&NetConfig::baseline());
    let line = report.one_line();
    assert!(line.starts_with("noc-verify: DOR on"), "got: {line}");
    assert!(line.contains("deadlock-free"), "got: {line}");
    assert_eq!(line, noc_verify::verify(&NetConfig::baseline()).one_line(), "deterministic");
}
