//! The analytic model and the deadlock verdict pinned across commits.
//!
//! `AnalyticModel::of` and `noc_verify::verify` both consume one route
//! enumeration (`noc_verify::routes::enumerate_routes`); every float
//! addition into a channel load happens in the order the enumerator
//! visits hops, so a change to how routes are walked that is meant to
//! be behaviour-preserving must leave every bit here unchanged. The
//! tables hold literal results from when they were blessed:
//!
//! * [`MODEL`] — per `(topology, routing, pattern)` row, the `to_bits()`
//!   of `effective_saturation`, `ideal_saturation`, `zero_load_latency`,
//!   `loads.avg_hops()`, `latency_at` at 25 / 50 / 90 % of the effective
//!   saturation, and an FNV-1a over every loaded channel's
//!   `(node, port, load.to_bits())`.
//! * [`VERIFY`] — per `(topology, routing, vcs)` row, the route count,
//!   the CDG's channel and edge counts, and the verdict: `0` for
//!   certified, else an FNV-1a over the cycle witness (refuted) or the
//!   reason text (unknown). Each routing runs at the smallest VC count
//!   its partition needs and at one VC per phase, which starves the
//!   dateline on the wrapped topologies.
//!
//! On a mismatch the test prints the whole table as it now computes,
//! in the literal form below. Re-bless only for a change that is meant
//! to alter the model or the CDG, and say why in CHANGES.md.

use noc_analytic::AnalyticModel;
use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
use noc_traffic::{PatternKind, SizeKind};
use noc_verify::Verdict;

const TOPOLOGIES: [(&str, TopologyKind); 4] = [
    ("mesh8", TopologyKind::Mesh2D { k: 8 }),
    ("torus8", TopologyKind::Torus2D { k: 8 }),
    ("ftorus4", TopologyKind::FoldedTorus2D { k: 4 }),
    ("ring16", TopologyKind::Ring { n: 16 }),
];

const ROUTINGS: [(&str, RoutingKind); 4] = [
    ("dor", RoutingKind::Dor),
    ("val", RoutingKind::Valiant),
    ("romm", RoutingKind::Romm),
    ("ma", RoutingKind::MinAdaptive),
];

/// The patterns a topology is modelled under. Transpose needs a
/// `k x k` node grid, so the ring runs the two random patterns only.
fn patterns(topo: TopologyKind) -> Vec<(&'static str, PatternKind)> {
    let mut p = vec![
        ("uniform", PatternKind::Uniform),
        ("hotspot:5:0.25", PatternKind::Hotspot { node: 5, frac: 0.25 }),
    ];
    if !matches!(topo, TopologyKind::Ring { .. }) {
        p.push(("transpose", PatternKind::Transpose));
    }
    p
}

/// The smallest VC count `NetConfig::validate` accepts: one block per
/// routing phase, two VCs per block on a wrapped topology (dateline),
/// one more for adaptive routing's escape VC.
fn valid_vcs(topo: TopologyKind, routing: RoutingKind) -> usize {
    let wrap = !matches!(topo, TopologyKind::Mesh2D { .. });
    let block = match routing {
        RoutingKind::MinAdaptive => 2 + usize::from(wrap),
        _ => 1 + usize::from(wrap),
    };
    phases(routing) * block
}

fn phases(routing: RoutingKind) -> usize {
    if matches!(routing, RoutingKind::Valiant | RoutingKind::Romm) {
        2
    } else {
        1
    }
}

fn fnv1a(hash: u64, value: u64) -> u64 {
    value.to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn model_row(net: &NetConfig, pattern: PatternKind) -> [u64; 8] {
    let m = AnalyticModel::of(net, pattern, SizeKind::Fixed(1)).expect("valid config");
    let lat = |f: f64| m.latency_at(f * m.effective_saturation).map_or(u64::MAX, f64::to_bits);
    let channels = m.loads.channels().iter().fold(FNV_BASIS, |h, c| {
        fnv1a(fnv1a(fnv1a(h, c.node as u64), c.port as u64), c.load.to_bits())
    });
    [
        m.effective_saturation.to_bits(),
        m.ideal_saturation.to_bits(),
        m.zero_load_latency.to_bits(),
        m.loads.avg_hops().to_bits(),
        lat(0.25),
        lat(0.5),
        lat(0.9),
        channels,
    ]
}

/// `(routes, cdg channels, cdg edges, verdict fingerprint)`.
type VerifyRow = (u64, usize, usize, u64);

fn verify_row(net: &NetConfig) -> VerifyRow {
    let r = noc_verify::verify(net);
    let verdict = match &r.verdict {
        Verdict::Certified => 0,
        Verdict::Refuted(w) => w.channels.iter().fold(FNV_BASIS, |h, c| {
            [c.router, c.port, c.dst_router, c.vc].iter().fold(h, |h, &v| fnv1a(h, v as u64))
        }),
        Verdict::Unknown(why) => why.bytes().fold(FNV_BASIS, |h, b| fnv1a(h, u64::from(b))),
    };
    (r.stats.routes, r.stats.channels, r.stats.edges, verdict)
}

/// Compare computed rows against a literal table; on any difference,
/// print the computed table in literal form (`lit` renders one value)
/// and fail.
fn check<T: PartialEq>(
    table: &str,
    got: &[(String, T)],
    want: &[(&str, T)],
    lit: fn(&T) -> String,
) {
    let same = got.len() == want.len()
        && got.iter().zip(want).all(|((gn, gv), (wn, wv))| gn == wn && gv == wv);
    if !same {
        for (name, v) in got {
            println!("    (\"{name}\", {}),", lit(v));
        }
        let first = got.iter().zip(want).find(|((gn, gv), (wn, wv))| gn != wn || gv != wv);
        if let Some(((gn, gv), (wn, wv))) = first {
            println!("first difference: {wn} {} -> {gn} {}", lit(wv), lit(gv));
        }
        panic!("{table} differs from its blessed values (computed table printed above)");
    }
}

#[test]
fn analytic_model_is_pinned_across_commits() {
    let mut got = Vec::new();
    for (tname, topo) in TOPOLOGIES {
        for (rname, routing) in ROUTINGS {
            let net = NetConfig::baseline()
                .with_topology(topo)
                .with_routing(routing)
                .with_vcs(valid_vcs(topo, routing));
            for (pname, pattern) in patterns(topo) {
                got.push((format!("{tname}/{rname}/{pname}"), model_row(&net, pattern)));
            }
        }
    }
    check("MODEL", &got, MODEL, |v| {
        let cols: Vec<String> = v.iter().map(|x| format!("0x{x:016x}")).collect();
        format!("[{}]", cols.join(", "))
    });
}

#[test]
fn deadlock_verdicts_are_pinned_across_commits() {
    let mut got = Vec::new();
    for (tname, topo) in TOPOLOGIES {
        for (rname, routing) in ROUTINGS {
            let mut vcs = vec![phases(routing), valid_vcs(topo, routing)];
            vcs.dedup();
            for vcs in vcs {
                let net =
                    NetConfig::baseline().with_topology(topo).with_routing(routing).with_vcs(vcs);
                got.push((format!("{tname}/{rname}/vcs{vcs}"), verify_row(&net)));
            }
        }
    }
    check("VERIFY", &got, VERIFY, |(routes, channels, edges, verdict)| {
        format!("({routes}, {channels}, {edges}, 0x{verdict:016x})")
    });
}

// [eff_sat, ideal_sat, zero_load, avg_hops, lat@0.25, lat@0.5, lat@0.9, channel fnv]
#[rustfmt::skip]
const MODEL: &[(&str, [u64; 8])] = &[
    ("mesh8/dor/uniform", [0x3fd8e28f5c28f5d6, 0x3fdf800000000018, 0x402755555555517a, 0x401555555555517a, 0x4028b7427b9452b3, 0x402b316bef97ce79, 0x4037408505acb7da, 0x776aa6ad02c821f5]),
    ("mesh8/dor/hotspot:5:0.25", [0x3fab9403b9403b89, 0x3faf07c1f07c1efb, 0x4027d75d75d759fa, 0x4015d75d75d759fa, 0x402831dab16406ee, 0x4028bab36fc3de81, 0x402bff5a02422fbd, 0x21e6886a31869496]),
    ("mesh8/dor/transpose", [0x3fc2492492492492, 0x3fc2492492492492, 0x4027000000000000, 0x4015000000000000, 0x4027e84142fb9086, 0x402955cda2ab9f16, 0x4030905f0e633724, 0x2e73c317eb237fad]),
    ("mesh8/val/uniform", [0x3fc947ae147ae545, 0x3fd0000000000286, 0x4035fffffffedf43, 0x4024fffffffedf43, 0x40375c6571a4e44f, 0x4039cca63fd851e6, 0x40466782f195753a, 0x17eebbbe63e54771]),
    ("mesh8/val/hotspot:5:0.25", [0x3faa6a3ec7083669, 0x3faf07c1f07c1efb, 0x40363efbefc3330e, 0x40253efbefc3330e, 0x4036a43b37c8db96, 0x40372de2ee9d047e, 0x4039acd846338f4a, 0x5cf6d614bb6e1838]),
    ("mesh8/val/transpose", [0x3fcaf72015d867c4, 0x3fd1111111111111, 0x4033600000000000, 0x4022600000000000, 0x40347a6098825667, 0x403660039570a99b, 0x40415b17489ab264, 0x0ea4b734a6fc3eb5]),
    ("mesh8/romm/uniform", [0x3fd59d2c690f6cd2, 0x3fdb5c045e1a01a5, 0x4027555555554abc, 0x4015555555554abc, 0x40288778000f7cd0, 0x402a88499e3d82f9, 0x40333a64db1e1ae9, 0x8d07123f51adfe09]),
    ("mesh8/romm/hotspot:5:0.25", [0x3faeb851eb851eab, 0x3faf07c1f07c1efb, 0x4027d75d75d750c9, 0x4015d75d75d750c9, 0x4028261d9106c54b, 0x4028926151aedb60, 0x402a72ff2fc0ba26, 0xc19a6a387c868804]),
    ("mesh8/romm/transpose", [0x3fce10719538a29a, 0x3fd3072ab92d9109, 0x4026ffffffffff18, 0x4014ffffffffff18, 0x4027ffb12d077f69, 0x4029a40c10f55005, 0x4031bddc76dd4977, 0xea91db6e4b63ff99]),
    ("mesh8/ma/uniform", [0x3fd3bd834c27ed7c, 0x3fd8fcda0c25944e, 0x4027555555555936, 0x4015555555555936, 0x40287385c66c24f6, 0x402a4ae4d94d3f6f, 0x4032760a101a620f, 0xd4041d857b1b2042]),
    ("mesh8/ma/hotspot:5:0.25", [0x3faeb851eb851eab, 0x3faf07c1f07c1efb, 0x4027d75d75d75bfe, 0x4015d75d75d75bfe, 0x40281fbf26332f63, 0x40287b42548867ff, 0x402974207c98639c, 0x7ac11a46350b7f85]),
    ("mesh8/ma/transpose", [0x3fd165a1165a1166, 0x3fd6058160581606, 0x4027000000000000, 0x4015000000000000, 0x4027f8c75fd78b94, 0x40298266eea1d65f, 0x4030bd7f04e36a45, 0xd61fdc6ced05348d]),
    ("torus8/dor/uniform", [0x3fdbb851eb851eca, 0x3fe9333333333342, 0x402241041041017a, 0x401041041041017a, 0x40235e9366b3e625, 0x4025725bb804a246, 0x40357330f046aa0e, 0x857f9dcc94f3a4a5]),
    ("torus8/dor/hotspot:5:0.25", [0x3faeb851eb851eab, 0x3faf07c1f07c1efb, 0x4022410410410181, 0x4010410410410181, 0x40227a21f1a73914, 0x4022c99c72924350, 0x40244080965db570, 0x453ca0d837ef8982]),
    ("torus8/dor/transpose", [0x3fc199999999999a, 0x3fd0000000000000, 0x4022000000000000, 0x4010000000000000, 0x4022db0db0db0db1, 0x40244e04e04e04e0, 0x402f142780076450, 0x9d5debb984eab745]),
    ("torus8/val/uniform", [0x3fcc28f5c28f5f0b, 0x3fd9999999999c38, 0x4030ffffffff2f43, 0x401ffffffffe5e86, 0x403219191918484e, 0x403424924923c163, 0x4044a1642c85275e, 0x72f871750cd90025]),
    ("torus8/val/hotspot:5:0.25", [0x3fabfa10c62383d2, 0x3faf07c1f07c1efb, 0x4030ffffffff55a5, 0x401ffffffffeab4a, 0x40314538c0c81871, 0x40319db1689c16d1, 0x4032eddb395717d9, 0x339580fe3cf8107f]),
    ("torus8/val/transpose", [0x3fce098ead65b7a4, 0x3fdb4e81b4e81b4f, 0x402e000000000000, 0x401c000000000000, 0x402fc7e683078a5f, 0x40317b0a8ddd2c9c, 0x403eecd6f011348a, 0x7dee78c1ecf5902d]),
    ("torus8/romm/uniform", [0x3fdbb851eb851ec2, 0x3fe933333333333b, 0x4022410410411249, 0x4010410410411249, 0x40235e9366b3f6f3, 0x4025725bb804b312, 0x40357330f046b21d, 0x68c52f81fd4758e4]),
    ("torus8/romm/hotspot:5:0.25", [0x3faeb851eb851eab, 0x3faf07c1f07c1efb, 0x40224104104102d1, 0x40104104104102d1, 0x40226fab20268fe9, 0x4022a955da919aed, 0x402342497aa2f96e, 0x877f1786eed7a295]),
    ("torus8/romm/transpose", [0x3fcd501f44659e49, 0x3fdaa5ede1168fe4, 0x4021ffffffffffd2, 0x400fffffffffffa3, 0x4022ce334a72d53a, 0x40242939864f9126, 0x402d5563bf9afcc6, 0xe4a496fd6ae350df]),
    ("torus8/ma/uniform", [0x3fdbb851eb851eb4, 0x3fe933333333332f, 0x40224104104108cc, 0x40104104104108cc, 0x40235e9366b3ed75, 0x4025725bb804a996, 0x40357330f046ad6a, 0x7d7fbbbde89b7fcf]),
    ("torus8/ma/hotspot:5:0.25", [0x3faeb851eb851eab, 0x3faf07c1f07c1efb, 0x4022410410410d13, 0x4010410410410d13, 0x40226cf882706f52, 0x4022a0cecac65885, 0x4023116c9a544f5b, 0xf5f2b3d176e16a3c]),
    ("torus8/ma/transpose", [0x3fd6872b020c49bb, 0x3fe47ae147ae147b, 0x4022000000000000, 0x4010000000000000, 0x402300a36b380857, 0x4024c317a9f317ac, 0x403105dcbb556b78, 0x2f990142d06fcf45]),
    ("ftorus4/dor/uniform", [0x3fe6000000000001, 0x3ff0000000000001, 0x401d99999999999c, 0x4001111111111113, 0x401ec37dac37dac6, 0x402081b4e81b4e83, 0x402d6db6db6db6de, 0xda369235afc54565]),
    ("ftorus4/dor/hotspot:5:0.25", [0x3fcb13b13b13b13d, 0x3fcc71c71c71c71e, 0x401d9999999999b9, 0x4001111111111126, 0x401dffbfb6139104, 0x401e91c59e29b4ce, 0x4020fa2e320d1a54, 0xf8d9b4baa0b48cbe]),
    ("ftorus4/dor/transpose", [0x3fd199999999999a, 0x3fe0000000000000, 0x401c000000000000, 0x4000000000000000, 0x401cf3cf3cf3cf3d, 0x401eaaaaaaaaaaab, 0x4027d1745d1745d1, 0xa514f9df6a79e575]),
    ("ftorus4/val/uniform", [0x3fd777777777778a, 0x3fe5555555555565, 0x402a0000000009e1, 0x4010000000000696, 0x402b1745d17466f8, 0x402d333333333d12, 0x403ab6db6db6e05e, 0x9353992c086576a5]),
    ("ftorus4/val/hotspot:5:0.25", [0x3fc60eb47850359a, 0x3fcc71c71c71c71e, 0x4029fffffffff832, 0x400ffffffffff598, 0x402a7b49f48f348c, 0x402b274ded64af3b, 0x402e17a932263b52, 0x0f990c7fdc1a9fb2]),
    ("ftorus4/val/transpose", [0x3fdad1ad1ad1ad1b, 0x3fe8618618618618, 0x4024000000000000, 0x4008000000000000, 0x4024b5b619e0cec6, 0x4025fe8bfdef8a3a, 0x403105b7566bcdc1, 0x7e6501f7f0745cb5]),
    ("ftorus4/romm/uniform", [0x3fe5fffffffffffe, 0x3ff0000000000001, 0x401d999999999a25, 0x400111111111116e, 0x401ec37dac37db4f, 0x402081b4e81b4ec8, 0x402d6db6db6db712, 0x706367efba6e59fe]),
    ("ftorus4/romm/hotspot:5:0.25", [0x3fcc28f5c28f5c2a, 0x3fcc71c71c71c71e, 0x401d999999999953, 0x40011111111110e2, 0x401dfba4996d281a, 0x401e7f6fa7bdf8ba, 0x402023f299ca13ca, 0xe022d443586149ac]),
    ("ftorus4/romm/transpose", [0x3fdaf6321c52ca9e, 0x3fe882b931057261, 0x401bfffffffffff6, 0x3ffffffffffffff2, 0x401cdc241f6eacc4, 0x401e5c97cb565372, 0x40258588b0d956c4, 0x3547c0f3bcfe0419]),
    ("ftorus4/ma/uniform", [0x3fe5fffffffffffe, 0x3ff0000000000001, 0x401d9999999999be, 0x4001111111111129, 0x401ec37dac37dae8, 0x402081b4e81b4e94, 0x402d6db6db6db6e4, 0x67e672b4f085023a]),
    ("ftorus4/ma/hotspot:5:0.25", [0x3fcc28f5c28f5c2a, 0x3fcc71c71c71c71e, 0x401d999999999950, 0x40011111111110e0, 0x401df97d8490df09, 0x401e7757d12bcd4a, 0x401fdca197c65d10, 0xb8ea363ab939902f]),
    ("ftorus4/ma/transpose", [0x3fe7777777777778, 0x3ff0000000000000, 0x401c000000000000, 0x4000000000000000, 0x401d333333333333, 0x401f800000000000, 0x402c3ffffffffffe, 0x9d7c5518a734b29d]),
    ("ring16/dor/uniform", [0x3fcd555555555553, 0x3fdaaaaaaaaaaaa8, 0x4023111111111169, 0x4011111111111169, 0x40245136bb2513c4, 0x4026a7904a7904ff, 0x403682d82d82d856, 0x26d268a9107ec545]),
    ("ring16/dor/hotspot:5:0.25", [0x3fc286bca1af2870, 0x3fcc71c71c71c71e, 0x40231111111110bd, 0x40111111111110bd, 0x4023dcee26c1932f, 0x40251b8caf59a526, 0x402b6ca5cbf39602, 0x1f4e4cde4368eea5]),
    ("ring16/val/uniform", [0x3fbf49f49f49f421, 0x3fcc71c71c71c6a9, 0x4030fffffffffb4b, 0x401ffffffffff696, 0x40322c234f72bd86, 0x40345d1745d16fba, 0x4044aaaaaaaaa88c, 0xf6e8f637991e0fa5]),
    ("ring16/val/hotspot:5:0.25", [0x3fb81a4b3acbc780, 0x3fc5e95ba9d086d1, 0x4030fffffffff928, 0x401ffffffffff250, 0x4031dfa5b99d9ead, 0x403348bfe4f405a4, 0x403a83d43e747128, 0xa2126b79d6f39652]),
    ("ring16/romm/uniform", [0x3fcd555555555558, 0x3fdaaaaaaaaaaaac, 0x402311111111120b, 0x401111111111120b, 0x40245136bb251464, 0x4026a7904a79059d, 0x403682d82d82d876, 0x5080ec091a8190da]),
    ("ring16/romm/hotspot:5:0.25", [0x3fc286bca1af2870, 0x3fcc71c71c71c71e, 0x402311111111118a, 0x401111111111118a, 0x4023dcee26c193fc, 0x40251b8caf59a5f3, 0x402b6ca5cbf396cd, 0x1edf5171889d5e37]),
    ("ring16/ma/uniform", [0x3fcd555555555553, 0x3fdaaaaaaaaaaaa8, 0x4023111111111169, 0x4011111111111169, 0x40245136bb2513c4, 0x4026a7904a7904ff, 0x403682d82d82d856, 0x26d268a9107ec545]),
    ("ring16/ma/hotspot:5:0.25", [0x3fc286bca1af2870, 0x3fcc71c71c71c71e, 0x40231111111110bd, 0x40111111111110bd, 0x4023dcee26c1932f, 0x40251b8caf59a526, 0x402b6ca5cbf39602, 0x1f4e4cde4368eea5]),
];

#[rustfmt::skip]
const VERIFY: &[(&str, VerifyRow)] = &[
    ("mesh8/dor/vcs1", (4032, 224, 388, 0x0000000000000000)),
    ("mesh8/val/vcs2", (258048, 448, 1584, 0x0000000000000000)),
    ("mesh8/romm/vcs2", (53760, 448, 1360, 0x0000000000000000)),
    ("mesh8/ma/vcs1", (4032, 224, 3808, 0x93492daaf82e8a8e)),
    ("mesh8/ma/vcs2", (4032, 224, 6160, 0x0000000000000000)),
    ("torus8/dor/vcs1", (4032, 256, 512, 0x2a252c7ae1903925)),
    ("torus8/dor/vcs2", (4032, 336, 640, 0x0000000000000000)),
    ("torus8/val/vcs2", (258048, 512, 2048, 0x85ae61ac8b6ea025)),
    ("torus8/val/vcs4", (258048, 672, 2624, 0x0000000000000000)),
    ("torus8/romm/vcs2", (36800, 512, 1792, 0xe670c39fb36b9825)),
    ("torus8/romm/vcs4", (36800, 672, 2256, 0x0000000000000000)),
    ("torus8/ma/vcs1", (4032, 256, 3776, 0x9dca75ad873d8b03)),
    ("torus8/ma/vcs3", (4032, 336, 7428, 0x6f816642e676643c)),
    ("ftorus4/dor/vcs1", (240, 64, 96, 0x72ae0f634ddd9425)),
    ("ftorus4/dor/vcs2", (240, 72, 104, 0x0000000000000000)),
    ("ftorus4/val/vcs2", (3840, 128, 448, 0xf9be38dac957a425)),
    ("ftorus4/val/vcs4", (3840, 144, 496, 0x0000000000000000)),
    ("ftorus4/romm/vcs2", (1008, 128, 352, 0xd70585fb8dc9b425)),
    ("ftorus4/romm/vcs4", (1008, 144, 384, 0x0000000000000000)),
    ("ftorus4/ma/vcs1", (240, 64, 176, 0x56b6c3774baab30f)),
    ("ftorus4/ma/vcs3", (240, 72, 240, 0x6f816642e676643c)),
    ("ring16/dor/vcs1", (240, 32, 32, 0x8f07b63d47612d25)),
    ("ring16/dor/vcs2", (240, 45, 43, 0x0000000000000000)),
    ("ring16/val/vcs2", (3840, 64, 128, 0xb12c58c5c6a8b725)),
    ("ring16/val/vcs4", (3840, 90, 176, 0x0000000000000000)),
    ("ring16/romm/vcs2", (1264, 64, 96, 0xd83c27e728edf325)),
    ("ring16/romm/vcs4", (1264, 90, 129, 0x0000000000000000)),
    ("ring16/ma/vcs1", (240, 32, 208, 0x6f816642e676643c)),
    ("ring16/ma/vcs3", (240, 45, 244, 0x0000000000000000)),
];
