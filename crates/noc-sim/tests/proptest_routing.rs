//! Property tests on topologies, routing algorithms, and the VC
//! partition — the deadlock-freedom preconditions.

use proptest::prelude::*;

use noc_sim::config::RoutingKind::{Dor, MinAdaptive, Romm, Valiant};
use noc_sim::config::TopologyKind;
use noc_sim::rng::SimRng;
use noc_sim::routing::{crosses_dateline, RouteLut, RouteState, VcBook};
use noc_sim::topology::{port_minus, port_plus};
use noc_sim::trace_route;

/// The four variants: k in 2..=7, ring n in 2..=16.
fn topo_strategy() -> impl Strategy<Value = TopologyKind> {
    (0usize..4, 2usize..=7, 2usize..=16).prop_map(|(kind, k, n)| match kind {
        0 => TopologyKind::Mesh2D { k },
        1 => TopologyKind::Torus2D { k },
        2 => TopologyKind::FoldedTorus2D { k },
        _ => TopologyKind::Ring { n },
    })
}

/// Walk a minimal-adaptive route taking candidate `step % len` at each
/// hop, as an adversarial allocator might.
fn adversarial_ma_walk(topo: TopologyKind, src: usize, dst: usize, seed: u64) -> Vec<usize> {
    let lut = RouteLut::new(topo);
    let mut state = MinAdaptive.init(topo, &lut, src, dst, &mut SimRng::new(seed));
    let mut cur = src;
    let mut path = vec![cur];
    for step in 0..4 * topo.num_nodes() {
        let cands = MinAdaptive.candidates(&lut, cur, dst, &state);
        if cands.is_empty() {
            break;
        }
        let port = cands.get(step % cands.len());
        state = MinAdaptive.advance(&lut, cur, port, &state);
        cur = topo.neighbor(cur, port).expect("candidate port connected").0;
        path.push(cur);
    }
    path
}

/// A traced path runs from `src` to `dst` over links of `topo`.
fn assert_is_walk(topo: TopologyKind, path: &[usize], src: usize, dst: usize) {
    assert_eq!(path.first(), Some(&src), "{}: path starts at {src}", topo.name());
    assert_eq!(path.last(), Some(&dst), "{}: path ends at {dst}", topo.name());
    for hop in path.windows(2) {
        let linked = (1..topo.num_ports())
            .any(|port| topo.neighbor(hop[0], port).map(|l| l.0) == Some(hop[1]));
        assert!(linked, "{}: {} -> {} is not a link", topo.name(), hop[0], hop[1]);
    }
}

/// Independent geometric oracle for the one routing geometry the engine,
/// the verifier and the analytic model all read: derives the productive
/// ports from `TopologyKind::{coords_of, neighbor, min_hops}` alone and
/// checks [`RouteLut`] against it for every node pair, then the dateline
/// table against the free function it is filled from.
fn assert_lut_matches_geometry(topo: TopologyKind) {
    let lut = RouteLut::new(topo);
    for cur in 0..topo.num_nodes() {
        for target in 0..topo.num_nodes() {
            let (cc, ct) = (topo.coords_of(cur), topo.coords_of(target));
            let closer = |port| {
                topo.neighbor(cur, port).is_some_and(|(next, _)| {
                    topo.min_hops(next, target) + 1 == topo.min_hops(cur, target)
                })
            };
            // one port per unresolved dimension, in dimension order; `+`
            // when both directions are minimal (the wrap tie)
            let expect: Vec<usize> = (0..topo.dims())
                .filter(|&d| cc[d] != ct[d])
                .map(|d| {
                    let (plus, minus) = (port_plus(d), port_minus(d));
                    assert!(
                        closer(plus) || closer(minus),
                        "{}: no way closer in dim {d}",
                        topo.name()
                    );
                    if closer(plus) {
                        plus
                    } else {
                        minus
                    }
                })
                .collect();
            let got: Vec<usize> = lut.minimal_ports(cur, target).iter().collect();
            assert_eq!(got, expect, "{}: minimal_ports({cur}, {target})", topo.name());
            assert_eq!(lut.dor_port(cur, target), expect.first().copied());
            assert_eq!(lut.dor_port(cur, target).is_none(), cur == target);
        }
        for port in 0..topo.num_ports() {
            assert_eq!(
                lut.crosses_dateline(cur, port),
                crosses_dateline(topo, cur, port),
                "{}: dateline({cur}, {port})",
                topo.name()
            );
        }
    }
}

#[test]
fn lut_matches_geometry_on_every_cube_kind() {
    for k in 2..=7 {
        for topo in [
            TopologyKind::Mesh2D { k },
            TopologyKind::Torus2D { k },
            TopologyKind::FoldedTorus2D { k },
        ] {
            assert_lut_matches_geometry(topo);
        }
    }
    for n in 2..=16 {
        assert_lut_matches_geometry(TopologyKind::Ring { n });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn lut_matches_geometry_on_random_cubes(topo in topo_strategy()) {
        assert_lut_matches_geometry(topo);
    }

    #[test]
    fn dor_is_minimal_everywhere(topo in topo_strategy(), seed in 0u64..100) {
        let n = topo.num_nodes();
        let mut rng = SimRng::new(seed);
        let src = rng.below(n);
        let dst = rng.below(n);
        let path = trace_route(topo, Dor, src, dst, seed);
        assert_is_walk(topo, &path, src, dst);
        prop_assert_eq!(path.len() - 1, topo.min_hops(src, dst));
    }

    #[test]
    fn two_phase_routes_terminate_and_visit_mid(
        topo in topo_strategy(),
        seed in 0u64..100,
    ) {
        let n = topo.num_nodes();
        let mut rng = SimRng::new(seed ^ 1);
        let src = rng.below(n);
        let dst = rng.below(n);
        let lut = RouteLut::new(topo);
        for algo in [Valiant, Romm] {
            // trace_route seeds the intermediate's draw the same way
            let state = algo.init(topo, &lut, src, dst, &mut SimRng::new(seed));
            let path = trace_route(topo, algo, src, dst, seed);
            assert_is_walk(topo, &path, src, dst);
            if state.intermediate != usize::MAX {
                prop_assert!(path.contains(&state.intermediate),
                    "{} must pass its intermediate", algo.name());
            }
        }
    }

    #[test]
    fn adaptive_any_choice_stays_minimal(
        topo in topo_strategy(),
        seed in 0u64..100,
    ) {
        let n = topo.num_nodes();
        let mut rng = SimRng::new(seed ^ 2);
        let src = rng.below(n);
        let dst = rng.below(n);
        // even when an adversary picks among candidates, MA stays minimal
        let path = adversarial_ma_walk(topo, src, dst, seed);
        prop_assert_eq!(*path.last().unwrap(), dst);
        prop_assert_eq!(path.len() - 1, topo.min_hops(src, dst));
    }

    #[test]
    fn minimal_ports_all_reduce_distance(topo in topo_strategy(), seed in 0u64..200) {
        let n = topo.num_nodes();
        let mut rng = SimRng::new(seed ^ 3);
        let src = rng.below(n);
        let dst = rng.below(n);
        prop_assume!(src != dst);
        let lut = RouteLut::new(topo);
        let ports = lut.minimal_ports(src, dst);
        prop_assert!(!ports.is_empty());
        let d0 = topo.min_hops(src, dst);
        for p in ports.iter() {
            let next = topo.neighbor(src, p).expect("connected").0;
            prop_assert_eq!(topo.min_hops(next, dst), d0 - 1);
        }
        // the DOR port is always the first candidate
        prop_assert_eq!(ports.get(0), lut.dor_port(src, dst).unwrap());
    }

    #[test]
    fn links_reciprocal_on_random_cubes(topo in topo_strategy()) {
        for node in 0..topo.num_nodes() {
            for port in 1..topo.num_ports() {
                if let Some((m, q)) = topo.neighbor(node, port) {
                    prop_assert_eq!(topo.neighbor(m, q), Some((node, port)));
                }
            }
        }
    }

    #[test]
    fn vcbook_masks_are_disjoint_by_class(
        topo in topo_strategy(),
        vcs_per_block in 1usize..4,
        classes in 1usize..3,
    ) {
        // choose a VC count the partition accepts for DOR
        let need = if topo.has_wrap() { 2 } else { 1 };
        let block = vcs_per_block.max(need);
        let vcs = classes * block;
        let book = match VcBook::new(vcs, classes, Dor, topo) {
            Ok(b) => b,
            Err(_) => return Ok(()), // undersized combos are rejected, fine
        };
        let mut union = 0u64;
        for c in 0..classes {
            let m = book.class_mask(c);
            prop_assert!(m != 0);
            prop_assert_eq!(union & m, 0, "class masks must be disjoint");
            union |= m;
            // allowed masks stay within the class mask
            for dateline in [false, true] {
                let a = book.allowed(c, 0, dateline, false);
                prop_assert!(a != 0);
                prop_assert_eq!(a & !m, 0);
            }
            prop_assert_eq!(book.injection(c) & !m, 0);
        }
        // the union covers exactly vcs bits
        prop_assert_eq!(union.count_ones() as usize, vcs);
    }

    #[test]
    fn dateline_masks_disjoint_on_wrapped_topologies(
        k in 3usize..7,
        classes in 1usize..3,
    ) {
        let topo = TopologyKind::Torus2D { k };
        let vcs = classes * 2;
        let book = VcBook::new(vcs, classes, Dor, topo).unwrap();
        for c in 0..classes {
            let lo = book.allowed(c, 0, false, false);
            let hi = book.allowed(c, 0, true, false);
            prop_assert!(lo != 0 && hi != 0);
            prop_assert_eq!(lo & hi, 0, "dateline halves must not overlap");
        }
    }

    #[test]
    fn route_state_effective_target_flips_exactly_at_mid(
        mid in 0usize..16,
        dst in 0usize..16,
        cur in 0usize..16,
    ) {
        let s = RouteState::via(mid);
        let t = s.effective_target(cur, dst);
        if cur == mid {
            prop_assert_eq!(t, dst);
        } else {
            prop_assert_eq!(t, mid);
        }
    }
}
