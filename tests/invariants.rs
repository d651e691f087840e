//! Property-based invariants over the whole stack (proptest): packet
//! conservation, deterministic replay, latency lower bounds, and batch
//! accounting, across randomized configurations; every closed-loop
//! runner refusing or finishing hostile configs; one traffic-pattern
//! validity rule, checked against the generator and every runner; and
//! one topology rule, checked against every library entry point.

use proptest::prelude::*;

use cmp_sim::CmpConfig;
use noc_analytic::{AnalyticModel, TrafficMatrix};
use noc_closedloop::{BarrierConfig, BatchConfig, KernelModel, ReplyModel};
use noc_openloop::{OpenLoopConfig, MAX_WINDOW_CYCLES};
use noc_sim::config::{Arbitration, NetConfig, RoutingKind, TopologyKind};
use noc_sim::error::ConfigError;
use noc_sim::flit::{Cycle, Delivered, PacketSpec};
use noc_sim::network::{Network, NodeBehavior};
use noc_sim::rng::SimRng;
use noc_traffic::{PatternKind, SizeKind};
use noc_workloads::ClockFreq;

/// A scripted behavior for conservation tests.
struct Script {
    sends: Vec<(u64, usize, usize, u16)>,
    delivered: Vec<(u64, u64)>, // (uid, latency)
    min_hops_violations: usize,
    net_info: Vec<(usize, usize)>, // (src, dst) by uid order (unused growth ok)
}

impl NodeBehavior for Script {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        let idx = self.sends.iter().position(|&(c, s, ..)| s == node && c <= cycle)?;
        let (_, src, dst, size) = self.sends.remove(idx);
        self.net_info.push((src, dst));
        Some(PacketSpec { dst, size, class: 0, payload: 0 })
    }

    fn deliver(&mut self, _node: usize, d: &Delivered, cycle: Cycle) {
        self.delivered.push((d.uid, cycle - d.birth));
    }

    fn quiescent(&self) -> bool {
        self.sends.is_empty()
    }
}

fn topo_strategy() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Mesh2D { k: 4 }),
        Just(TopologyKind::Torus2D { k: 4 }),
        Just(TopologyKind::Ring { n: 8 }),
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every injected packet is delivered exactly once, on any topology,
    /// routing, buffering, and arbitration the config system accepts.
    #[test]
    fn packets_are_conserved(
        topo in topo_strategy(),
        routing in routing_strategy(),
        vc_buf in 1usize..6,
        tr in 1u32..5,
        arb in prop_oneof![Just(Arbitration::RoundRobin), Just(Arbitration::AgeBased)],
        seed in 0u64..1000,
        n_packets in 1usize..120,
    ) {
        let cfg = NetConfig::baseline()
            .with_topology(topo)
            .with_routing(routing)
            .with_vcs(4)
            .with_vc_buf(vc_buf)
            .with_router_delay(tr)
            .with_arbitration(arb)
            .with_seed(seed);
        prop_assume!(cfg.validate().is_ok());
        let nodes = topo.num_nodes();
        let mut rng = noc_sim::rng::SimRng::new(seed ^ 0xfeed);
        let sends: Vec<(u64, usize, usize, u16)> = (0..n_packets)
            .map(|i| ((i % 17) as u64, rng.below(nodes), rng.below(nodes), 1 + rng.below(4) as u16))
            .collect();
        let mut net = Network::new(cfg).unwrap();
        let mut b = Script { sends, delivered: Vec::new(), min_hops_violations: 0, net_info: Vec::new() };
        prop_assert!(net.drain(&mut b, 500_000), "network failed to drain");
        prop_assert_eq!(b.delivered.len(), n_packets);
        // no duplicate deliveries
        let mut uids: Vec<u64> = b.delivered.iter().map(|&(u, _)| u).collect();
        uids.sort_unstable();
        uids.dedup();
        prop_assert_eq!(uids.len(), n_packets);
        let _ = b.min_hops_violations;
    }

    /// Latency never beats the analytic zero-load lower bound:
    /// `H_min * (t_r + t_link) + t_r` for the head plus serialization.
    #[test]
    fn latency_respects_physics(
        seed in 0u64..500,
        tr in 1u32..5,
        n_packets in 1usize..40,
    ) {
        let topo = TopologyKind::Mesh2D { k: 4 };
        let cfg = NetConfig::baseline().with_topology(topo).with_router_delay(tr).with_seed(seed);
        let nodes = 16;
        let mut rng = noc_sim::rng::SimRng::new(seed);
        let sends: Vec<(u64, usize, usize, u16)> = (0..n_packets)
            .map(|i| (i as u64, rng.below(nodes), rng.below(nodes), 1u16))
            .collect();
        // remember pairs to check bounds by uid (uids assigned in pull order)
        let pairs: Vec<(usize, usize)> = Vec::new();
        let mut net = Network::new(cfg).unwrap();
        let mut b = Script { sends, delivered: Vec::new(), min_hops_violations: 0, net_info: pairs };
        prop_assert!(net.drain(&mut b, 200_000));
        // uid order == pull order == net_info order
        for &(uid, latency) in &b.delivered {
            let (src, dst) = b.net_info[uid as usize];
            if src == dst {
                // local delivery bypasses the fabric at exactly tr + 1
                prop_assert_eq!(latency, tr as u64 + 1);
            } else {
                let h = topo.min_hops(src, dst) as u64;
                let bound = h * (tr as u64 + 1) + tr as u64;
                prop_assert!(latency >= bound,
                    "latency {} beats physics bound {} for {}->{}", latency, bound, src, dst);
            }
        }
    }

    /// Identical (config, seed) pairs replay cycle-exactly, for any
    /// routing algorithm.
    #[test]
    fn deterministic_replay(
        routing in routing_strategy(),
        seed in 0u64..200,
    ) {
        let run = || {
            let cfg = NetConfig::baseline()
                .with_topology(TopologyKind::Mesh2D { k: 4 })
                .with_routing(routing)
                .with_vcs(4)
                .with_seed(seed);
            let mut rng = noc_sim::rng::SimRng::new(seed);
            let sends: Vec<(u64, usize, usize, u16)> =
                (0..60).map(|i| (i as u64 % 11, rng.below(16), rng.below(16), 1u16)).collect();
            let mut net = Network::new(cfg).unwrap();
            let mut b = Script { sends, delivered: Vec::new(), min_hops_violations: 0, net_info: Vec::new() };
            net.drain(&mut b, 200_000);
            let mut log = b.delivered;
            log.sort_unstable();
            log
        };
        prop_assert_eq!(run(), run());
    }

    /// Batch accounting: exactly `N x b` operations complete; runtime
    /// bounds follow from injection bandwidth and round-trip latency.
    #[test]
    fn batch_accounting_holds(
        m in 1usize..16,
        b in 20u64..200,
        seed in 0u64..100,
    ) {
        let cfg = BatchConfig {
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
            pattern: PatternKind::Uniform,
            batch: b,
            max_outstanding: m,
            ..BatchConfig::default()
        };
        let r = noc_closedloop::run_batch(&cfg).unwrap();
        prop_assert!(r.drained);
        prop_assert_eq!(r.completed, 16 * b);
        // each node injects b requests at <= 1 flit/cycle
        prop_assert!(r.runtime >= b, "runtime {} below injection bound {b}", r.runtime);
        // and per-node runtimes are within the global runtime
        prop_assert!(r.per_node_runtime.iter().all(|&t| t <= r.runtime));
        // throughput identity: theta = 2b/T
        let theta = 2.0 * b as f64 / r.runtime as f64;
        prop_assert!((r.throughput - theta).abs() < 1e-9);
    }
}

/// Field values drawn for one closed-loop case: each field from its
/// valid set, or one time in [`Draws::ODDS`] from its hostile set, in
/// which case the field's name is noted.
struct Draws {
    raw: std::vec::IntoIter<u64>,
    hostile: Vec<&'static str>,
}

impl Draws {
    const ODDS: u64 = 12;

    fn pick<T: Copy>(&mut self, name: &'static str, valid: &[T], hostile: &[T]) -> T {
        let d = self.raw.next().expect("one draw per field");
        let i = (d / Self::ODDS) as usize;
        if d.is_multiple_of(Self::ODDS) && !hostile.is_empty() {
            self.hostile.push(name);
            return hostile[i % hostile.len()];
        }
        valid[i % valid.len()]
    }
}

/// The field a refusal names: a `Parameter`'s name, or `vcs` for a VC
/// partition the network cannot carry.
fn refused_field(e: &ConfigError) -> &'static str {
    match e {
        ConfigError::Parameter { name, .. } => name,
        ConfigError::VcPartition { .. } | ConfigError::VcBlockTooSmall { .. } => "vcs",
    }
}

/// One runner's answer under `catch_unwind`: it must not panic, and it
/// either finishes within its cycle cap or names a hostile field.
fn refuse_or_finish<R>(
    runner: &str,
    hostile: &[&str],
    answer: std::thread::Result<Result<R, ConfigError>>,
    finished: impl Fn(&R) -> bool,
) -> Result<(), TestCaseError> {
    match answer {
        Err(_) => Err(TestCaseError::fail(format!("{runner} panicked; hostile {hostile:?}"))),
        Ok(Ok(r)) if finished(&r) => Ok(()),
        Ok(Ok(_)) => {
            Err(TestCaseError::fail(format!("{runner} did not finish; hostile {hostile:?}")))
        }
        Ok(Err(e)) if hostile.contains(&refused_field(&e)) => Ok(()),
        Ok(Err(e)) => Err(TestCaseError::fail(format!("{runner}: {e}; hostile {hostile:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every closed-loop runner, on a config whose fields are drawn from
    /// small valid sets plus hostile values, either finishes within its
    /// 200 000-cycle cap or refuses with a typed error naming one of the
    /// hostile fields drawn. None panics, and none spins to its cap.
    #[test]
    fn closed_loop_runners_refuse_or_finish(
        raw in prop::collection::vec(0u64..1 << 32, 18..19),
        seed in 0u64..1000,
    ) {
        use std::panic::catch_unwind;

        let mut d = Draws { raw: raw.into_iter(), hostile: Vec::new() };
        let topologies =
            [TopologyKind::Mesh2D { k: 4 }, TopologyKind::Ring { n: 8 }, TopologyKind::Torus2D { k: 4 }];
        let topology = d.pick("topology", &topologies, &[]);
        let vcs = d.pick("vcs", &[4, 8], &[1, 0]);
        let net = NetConfig::baseline().with_topology(topology).with_vcs(vcs).with_seed(seed);
        let patterns = [PatternKind::Uniform, PatternKind::BitComplement, PatternKind::Transpose];
        let pattern = d.pick("pattern", &patterns, &[]);
        if matches!((pattern, topology), (PatternKind::Transpose, TopologyKind::Ring { .. })) {
            d.hostile.push("pattern");
        }
        let nan = f64::NAN;
        let cfg = BatchConfig {
            net: net.clone(),
            pattern,
            batch: d.pick("batch", &[1, 5, 20], &[0]),
            max_outstanding: d.pick("max_outstanding", &[1, 4, 16], &[0]),
            request_size: d.pick("request_size", &[1, 2], &[0]),
            reply_size: d.pick("reply_size", &[1, 4], &[0]),
            nar: d.pick("nar", &[1.0, 0.5, 0.1], &[0.0, -1.0, nan, f64::INFINITY, 1.5]),
            reply_model: {
                let fixed = ReplyModel::Fixed { latency: 20 };
                let memory = |mem_frac| ReplyModel::Probabilistic { l2_latency: 20, mem_latency: 300, mem_frac };
                let valid = [ReplyModel::Immediate, fixed, memory(0.1)];
                d.pick("mem_frac", &valid, &[memory(nan), memory(1.5)])
            },
            kernel: Some(KernelModel {
                static_frac: d.pick("static_frac", &[0.0, 0.5], &[-2.0, nan]),
                timer_rate: d.pick("timer_rate", &[0.0, 0.01], &[nan, -1.0]),
                timer_packets: d.pick("timer_packets", &[0, 2], &[u64::MAX]),
            }),
            max_cycles: 200_000,
        };
        let h = d.hostile.clone();
        let batch = catch_unwind(|| noc_closedloop::run_batch(&cfg));
        let batch_runtime = batch.as_ref().ok().and_then(|r| r.as_ref().ok()).map(|r| r.runtime);
        refuse_or_finish("run_batch", &h, batch, |r| r.drained)?;
        let recorded = catch_unwind(|| noc_trace::record_batch(&cfg));
        // a recorded run is the same run: the same runtime as `run_batch`
        refuse_or_finish("record_batch", &h, recorded, |r| Some(r.1) == batch_runtime)?;
        let replicates = catch_unwind(|| noc_closedloop::run_batch_seeds(&cfg, 2));
        refuse_or_finish("run_batch_seeds", &h, replicates, |rs| rs.iter().all(|r| r.drained))?;
        let barrier = BarrierConfig {
            net: net.clone(),
            pattern,
            batch: cfg.batch,
            max_cycles: 200_000,
            ..BarrierConfig::default()
        };
        let barrier = catch_unwind(|| noc_closedloop::run_barrier(&barrier));
        refuse_or_finish("run_barrier", &h, barrier, |r| r.drained)?;

        // the CMP draws its own fields on the Table II mesh
        d.hostile.retain(|&f| f == "vcs");
        let profiles = noc_workloads::all_benchmarks();
        let clocks = [ClockFreq::GHz3, ClockFreq::MHz75];
        let os_model = d.pick("os_model", &[true, false], &[]);
        let cmp = CmpConfig {
            net: CmpConfig::table2(profiles[0]).net.with_vcs(vcs).with_seed(seed),
            profile: profiles[seed as usize % profiles.len()],
            user_instructions: 2_000,
            clock: clocks[seed as usize % 2],
            os_model,
            timer_scale: d.pick("timer_scale", &[0.05], &[0.0, nan, -1.0]),
            store_frac: d.pick("store_frac", &[0.3, 0.0], &[nan, 1.5, -0.5]),
            req_flits: d.pick("req_flits", &[1], &[0]),
            reply_flits: d.pick("reply_flits", &[5, 1], &[0]),
            ack_flits: d.pick("ack_flits", &[1], &[0]),
            max_cycles: 200_000,
            ..CmpConfig::table2(profiles[0])
        };
        if !os_model {
            d.hostile.retain(|&f| f != "timer_scale"); // no timer fires without the OS
        }
        let cmp = catch_unwind(|| cmp_sim::run_cmp(&cmp));
        refuse_or_finish("run_cmp", &d.hostile, cmp, |r| r.drained)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every fault entry point — `Network::set_fault_plan`,
    /// `run_faulted`, `fault_sweep`, and `fault_sweep` over the plans of
    /// `DegradationConfig` and `ResilienceConfig` — and the unfaulted
    /// `measure`, on a plan drawn from small valid sets plus hostile
    /// values (probabilities outside [0, 1], zero timeouts and replay
    /// budgets, events naming a router or port outside the topology, a
    /// warmup no run can finish) either answers `Ok`, with no `Panicked`
    /// sweep point, or refuses with a typed error naming one of the
    /// hostile fields drawn. On the plan's events alone the fault lint
    /// refuses exactly as the simulator does.
    #[test]
    fn fault_runners_refuse_or_finish(
        raw in prop::collection::vec(0u64..1 << 32, 19..20),
        seed in 0u64..1000,
    ) {
        use noc_exp::PointOutcome;
        use noc_fault::{fault_sweep, DegradationConfig, ResilienceConfig};
        use noc_sim::network::fault::{FaultEvent, FaultPlan, LinkRetryPolicy, RetxPolicy};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut d = Draws { raw: raw.into_iter(), hostile: Vec::new() };
        let topologies = [
            TopologyKind::Mesh2D { k: 4 },
            TopologyKind::Torus2D { k: 4 },
            TopologyKind::Ring { n: 8 },
        ];
        let topology = d.pick("topology", &topologies, &[]);
        let (n, ports) = (topology.num_nodes(), topology.num_ports());
        let corrupt_rate = d.pick("corrupt_rate", &[0.0, 1e-3, 1.0], &[f64::NAN, -0.5, 2.0]);
        let timeout = d.pick("retx.timeout", &[64], &[0]);
        let retx = RetxPolicy { timeout, ..RetxPolicy::default() };
        let link_retry = LinkRetryPolicy {
            replay_rtt: d.pick("link_retry.replay_rtt", &[3], &[0]),
            max_replays: d.pick("link_retry.max_replays", &[3], &[0]),
            ..LinkRetryPolicy::default()
        };
        // none, end-to-end, link-level, both
        let recovery = [
            (None, None),
            (Some(retx), None),
            (None, Some(link_retry)),
            (Some(retx), Some(link_retry)),
        ];
        let (armed_retx, armed_link_retry) = d.pick("recovery", &recovery, &[]);
        let routers: Vec<usize> = (0..n).collect();
        let link_ports: Vec<usize> = (1..ports).collect();
        let mut events = Vec::new();
        for cycle in [100, 200, 300, 400] {
            let kind = d.pick("kind", &[0, 1, 2, 3], &[]);
            let router = d.pick("events", &routers, &[n, n + 7, usize::MAX]);
            events.push(match kind {
                0 | 1 => {
                    let port = d.pick("events", &link_ports, &[0, ports, 99]);
                    if kind == 0 {
                        FaultEvent::LinkFail { cycle, router, port }
                    } else {
                        FaultEvent::LinkRepair { cycle, router, port }
                    }
                }
                2 => FaultEvent::RouterFail { cycle, router },
                _ => FaultEvent::RouterRepair { cycle, router },
            });
        }
        // past the window ceiling the unbudgeted runners would step
        // ~2^64 cycles: they must refuse before the first
        let warmup = d.pick("warmup", &[200], &[MAX_WINDOW_CYCLES + 1, u64::MAX - 10]);
        let h = d.hostile.clone();
        let plan = FaultPlan {
            events: events.clone(),
            corrupt_rate,
            corrupt_seed: seed,
            retx: armed_retx,
            link_retry: armed_link_retry,
        };
        let net = NetConfig::baseline().with_topology(topology).with_seed(seed);
        let windows = OpenLoopConfig { warmup, measure: 600, ..OpenLoopConfig::default() };
        let base = OpenLoopConfig { net: net.clone(), ..windows }.with_load(0.1);
        let settle_max = 4_000;

        let mut fresh = Network::new(net.clone()).unwrap();
        let installed = catch_unwind(AssertUnwindSafe(|| fresh.set_fault_plan(plan.clone())));
        refuse_or_finish("set_fault_plan", &h, installed, |_| true)?;
        let measured = catch_unwind(|| noc_openloop::measure(&base));
        refuse_or_finish("measure", &h, measured, |_| true)?;
        // a point that does not settle in time is an answer, not a failure
        let faulted = catch_unwind(|| noc_fault::run_faulted(&base, plan.clone(), settle_max));
        refuse_or_finish("run_faulted", &h, faulted, |_| true)?;
        fn no_panics<R>(points: &[PointOutcome<R>]) -> bool {
            !points.iter().any(|p| matches!(p, PointOutcome::Panicked { .. }))
        }
        let swept = catch_unwind(|| fault_sweep(&base, std::slice::from_ref(&plan), settle_max));
        refuse_or_finish("fault_sweep", &h, swept, |p| no_panics(p))?;
        let degradation = DegradationConfig {
            corrupt_rate,
            retx: armed_retx,
            ..DegradationConfig::new(base.clone(), 1)
        };
        let swept = catch_unwind(|| {
            degradation.plans().and_then(|plans| fault_sweep(&base, &plans, settle_max))
        });
        refuse_or_finish("degradation fault_sweep", &h, swept, |p| no_panics(p))?;
        let mut resilience = ResilienceConfig {
            retx: armed_retx,
            link_retry: armed_link_retry,
            ..ResilienceConfig::new(base.clone(), vec![(400, 60)])
        };
        resilience.flap.corrupt_rate = corrupt_rate;
        let swept = catch_unwind(|| {
            resilience.plans().and_then(|plans| fault_sweep(&base, &plans, settle_max))
        });
        refuse_or_finish("resilience fault_sweep", &h, swept, |p| no_panics(p))?;

        // the lint refuses the plan's events exactly as the simulator does
        let lint = noc_verify::check_fault_connectivity(&net, &events).map(drop);
        let events_only = FaultPlan { events, ..FaultPlan::default() };
        prop_assert_eq!(lint, Network::new(net).unwrap().set_fault_plan(events_only));
    }
}

/// Every pattern on square and ring topologies, power-of-two and not:
/// each pair `validate` accepts draws in-range destinations (a bijection
/// for the permutations) with an exact matrix whose rows sum to 1, and
/// each pair it refuses, `measure`, the analytic model, the batch model
/// (run and recorded) and the barrier model refuse with the identical
/// `pattern` error.
#[test]
fn one_pattern_rule_matches_the_generator_and_every_runner() {
    let topologies = [
        TopologyKind::Mesh2D { k: 4 },
        TopologyKind::Mesh2D { k: 3 },
        TopologyKind::Torus2D { k: 4 },
        TopologyKind::FoldedTorus2D { k: 4 },
        TopologyKind::Ring { n: 16 },
        TopologyKind::Ring { n: 12 },
    ];
    let hotspot = |node, frac| PatternKind::Hotspot { node, frac };
    let patterns = [
        PatternKind::Uniform,
        PatternKind::Transpose,
        PatternKind::BitComplement,
        PatternKind::BitReversal,
        PatternKind::Shuffle,
        PatternKind::Tornado,
        PatternKind::Neighbor,
        hotspot(5, 0.25),
        hotspot(9999, 0.5),
        hotspot(5, f64::NAN),
        hotspot(5, 1.5),
    ];
    let mut accepted = 0;
    let mut rng = SimRng::new(7);
    for topo in topologies {
        // 4 VCs: the batch model's two classes validate on every topology
        let net = NetConfig::baseline().with_topology(topo).with_vcs(4);
        let (nodes, k) = (topo.num_nodes(), topo.radix(0));
        for pattern in patterns {
            let err = match pattern.validate(&topo) {
                Ok(()) => {
                    accepted += 1;
                    let dest = pattern.build(nodes, k);
                    let mut hit = vec![false; nodes];
                    for src in 0..nodes {
                        for _ in 0..8 {
                            let d = dest.dest(src, &mut rng);
                            assert!(d < nodes, "{pattern} on {topo:?}: {src} -> {d}");
                            hit[d] = true;
                        }
                    }
                    if pattern.is_permutation() {
                        assert!(hit.iter().all(|&h| h), "{pattern} on {topo:?} is no bijection");
                    }
                    let m = TrafficMatrix::new(pattern, nodes, k);
                    for src in 0..nodes {
                        let sum: f64 = (0..nodes).map(|d| m.prob(src, d)).sum();
                        assert!((sum - 1.0).abs() < 1e-12, "{pattern} on {topo:?}: row {src}");
                    }
                    continue;
                }
                Err(e) => e,
            };
            assert!(matches!(err, ConfigError::Parameter { name: "pattern", .. }), "{err}");
            let open = OpenLoopConfig { net: net.clone(), pattern, ..OpenLoopConfig::default() };
            assert_eq!(noc_openloop::measure(&open).unwrap_err(), err);
            assert_eq!(AnalyticModel::of(&net, pattern, SizeKind::Fixed(1)).unwrap_err(), err);
            let batch =
                BatchConfig { net: net.clone(), pattern, batch: 10, ..BatchConfig::default() };
            assert_eq!(noc_closedloop::run_batch(&batch).unwrap_err(), err);
            assert_eq!(noc_trace::record_batch(&batch).unwrap_err(), err);
            let barrier =
                BarrierConfig { net: net.clone(), pattern, batch: 10, ..BarrierConfig::default() };
            assert_eq!(noc_closedloop::run_barrier(&barrier).unwrap_err(), err);
        }
    }
    // uniform and the in-range hotspot everywhere, the coordinate
    // patterns on the four square grids, the bit patterns on the four
    // power-of-two node counts
    assert_eq!(accepted, 6 + 6 + 3 * 4 + 3 * 4);
}

/// Every library entry point refuses a topology `TopologyKind::validate`
/// refuses with that identical error, and never panics: the simulator,
/// the open-loop and analytic paths, every closed-loop runner, both
/// fault-plan builders, the fault sweep and the fault lint. `verify`
/// answers `Unknown` with one `config` error finding instead. This runs
/// with overflow checks on, so geometry computed before validation
/// (`k * k` at `usize::MAX`) would panic.
#[test]
fn hostile_topologies_are_refused_before_any_geometry() {
    use noc_verify::{Severity, Verdict};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    /// One entry point, called with the hostile config bound below.
    type Entry<'a> = (&'static str, &'a dyn Fn() -> Result<(), ConfigError>);

    let hostile = [
        TopologyKind::Mesh2D { k: 0 },
        TopologyKind::Mesh2D { k: 1 },
        TopologyKind::Mesh2D { k: 65 },
        TopologyKind::Mesh2D { k: usize::MAX },
        TopologyKind::Torus2D { k: 1 },
        TopologyKind::FoldedTorus2D { k: 0 },
        TopologyKind::Ring { n: 0 },
        TopologyKind::Ring { n: 1 },
        TopologyKind::Ring { n: 5000 },
        TopologyKind::Ring { n: usize::MAX },
    ];
    let profile = noc_workloads::all_benchmarks()[0];
    for topo in hostile {
        let want = topo.validate().unwrap_err();
        assert!(matches!(want, ConfigError::Parameter { name: "topology", .. }), "{want}");
        let net = NetConfig::baseline().with_topology(topo).with_vcs(4);
        let open = OpenLoopConfig { net: net.clone(), ..OpenLoopConfig::default() };
        let batch = BatchConfig { net: net.clone(), ..BatchConfig::default() };
        let barrier = BarrierConfig { net: net.clone(), ..BarrierConfig::default() };
        let cmp = CmpConfig { net: net.clone(), ..CmpConfig::table2(profile) };
        let degradation = noc_fault::DegradationConfig::new(open.clone(), 2);
        let resilience = noc_fault::ResilienceConfig::new(open.clone(), vec![(400, 60)]);
        let entries: [Entry; 13] = [
            ("Network::new", &|| Network::new(net.clone()).map(drop)),
            ("measure", &|| noc_openloop::measure(&open).map(drop)),
            ("measure_budgeted", &|| noc_openloop::measure_budgeted(&open, 1 << 20).map(drop)),
            ("AnalyticModel::of", &|| {
                AnalyticModel::of(&net, PatternKind::Uniform, SizeKind::Fixed(1)).map(drop)
            }),
            ("zero_load_latency_bound", &|| noc_openloop::zero_load_latency_bound(&net).map(drop)),
            ("run_batch", &|| noc_closedloop::run_batch(&batch).map(drop)),
            ("record_batch", &|| noc_trace::record_batch(&batch).map(drop)),
            ("run_barrier", &|| noc_closedloop::run_barrier(&barrier).map(drop)),
            ("run_cmp", &|| cmp_sim::run_cmp(&cmp).map(drop)),
            ("DegradationConfig::plans", &|| degradation.plans().map(drop)),
            ("ResilienceConfig::plans", &|| resilience.plans().map(drop)),
            ("fault_sweep", &|| {
                let plan = noc_sim::network::fault::FaultPlan::default();
                noc_fault::fault_sweep(&open, &[plan], 1).map(drop)
            }),
            ("check_fault_connectivity", &|| {
                noc_verify::check_fault_connectivity(&net, &[]).map(drop)
            }),
        ];
        for (entry, call) in entries {
            let got = catch_unwind(AssertUnwindSafe(call))
                .unwrap_or_else(|_| panic!("{entry} panicked on {topo:?}"));
            assert_eq!(got, Err(want.clone()), "{entry} on {topo:?}");
        }
        let report = catch_unwind(|| noc_verify::verify(&net))
            .unwrap_or_else(|_| panic!("verify panicked on {topo:?}"));
        assert!(matches!(report.verdict, Verdict::Unknown(_)), "{topo:?}: {report}");
        let [finding] = &report.findings[..] else { panic!("{topo:?}: {report}") };
        assert_eq!((finding.severity, finding.check), (Severity::Error, "config"), "{topo:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `AnalyticModel::of` and `noc_verify::verify` on the four small
    /// topologies with every other field drawn from a wide range, hostile
    /// values included: the model answers `Ok` exactly when the network,
    /// the pattern and the size rules all pass, and otherwise the first
    /// of those rules' errors, in that order; the verifier always
    /// answers a report. Neither panics.
    #[test]
    fn the_model_and_the_verifier_answer_any_config(
        topology in prop_oneof![
            Just(TopologyKind::Mesh2D { k: 4 }),
            Just(TopologyKind::Torus2D { k: 4 }),
            Just(TopologyKind::FoldedTorus2D { k: 4 }),
            Just(TopologyKind::Ring { n: 8 }),
        ],
        routing in routing_strategy(),
        arbitration in prop_oneof![Just(Arbitration::RoundRobin), Just(Arbitration::AgeBased)],
        vcs in 0usize..=70,
        classes in 0usize..=4,
        vc_buf in 0usize..=300,
        router_delay in 0u32..=8,
        pattern in prop_oneof![
            Just(PatternKind::Uniform),
            Just(PatternKind::Transpose),
            Just(PatternKind::BitComplement),
            (0usize..40).prop_map(|node| PatternKind::Hotspot { node, frac: 0.25 }),
            Just(PatternKind::Hotspot { node: 5, frac: f64::NAN }),
        ],
        size in prop_oneof![
            Just(SizeKind::Fixed(1)),
            Just(SizeKind::Fixed(4)),
            Just(SizeKind::Bimodal { short: 1, long: 8, p_long: 0.5 }),
            Just(SizeKind::Fixed(0)),
            Just(SizeKind::Bimodal { short: 1, long: 8, p_long: 2.0 }),
            Just(SizeKind::Bimodal { short: 1, long: 8, p_long: f64::NAN }),
        ],
    ) {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let net = NetConfig {
            topology,
            routing,
            vcs,
            vc_buf,
            router_delay,
            arbitration,
            classes,
            ..NetConfig::baseline()
        };
        let case = format!("{net:?} {pattern:?} {size:?}");
        let model = catch_unwind(AssertUnwindSafe(|| AnalyticModel::of(&net, pattern, size)))
            .map_err(|_| TestCaseError::fail(format!("AnalyticModel::of panicked on {case}")))?;
        let rules = net.validate().and(pattern.validate(&topology)).and(size.validate());
        prop_assert_eq!(model.map(drop), rules, "{}", case);
        let report = catch_unwind(AssertUnwindSafe(|| noc_verify::verify(&net).to_string()));
        prop_assert!(report.is_ok(), "verify panicked on {}", case);
    }
}
