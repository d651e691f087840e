//! Golden wire bytes for every schema this crate emits.
//!
//! Each case pins the literal text one value serializes to, so "the
//! bytes did not change" is a fact that holds across commits rather
//! than an in-tree round trip: a refactor of the emitters or parsers
//! must leave this file untouched and still pass it. Lines are also fed
//! back through the parsers, which pins that files and WAL records
//! written by an earlier revision still read as the same values.

use noc_eval::figures::{metrics_to_json, parse_metrics_json};
use noc_eval::serve::{
    parse_request, parse_response, HealthSnapshot, PointRequest, ServeOutcome, ServeRequest,
    ServeResponse, ServeResult, SweepRequest,
};
use noc_sim::config::{Arbitration, NetConfig, RoutingKind, TopologyKind};
use noc_sim::{ChannelMetrics, MetricsSnapshot, RouterMetrics};
use noc_stats::{OnlineStats, TimeSeries};
use noc_traffic::PatternKind;

/// Quotes, a backslash, a solidus, every short escape, control bytes
/// that only have a `\u` form, a two-byte and a four-byte code point.
const NASTY: &str = "q\"b\\s/n\nr\rt\tb\u{8}f\u{c}c\u{1}é😀";

fn point() -> PointRequest {
    PointRequest {
        batch: NASTY.into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(42),
        pattern: PatternKind::Uniform,
        packet_size: 1,
        load: 0.2,
        warmup: 1_000,
        measure: 3_000,
        drain_max: 20_000,
        budget: Some(200_000),
        allow_degraded: true,
        analytic_admission: false,
    }
}

fn sweep() -> SweepRequest {
    SweepRequest {
        batch: "sw".into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Torus2D { k: 8 }).with_seed(99),
        patterns: vec![PatternKind::Uniform, PatternKind::Hotspot { node: 5, frac: 0.25 }],
        loads: vec![0.05, 0.1, 1e-7],
        seeds: 2,
        packet_size: 4,
        warmup: 500,
        measure: 1_000,
        drain_max: 10_000,
        budget: Some(100_000),
        allow_degraded: true,
        analytic_admission: true,
        max_attempts: Some(2),
        deadline_ms: Some(1_500),
    }
}

/// `value` emits exactly `want`, and `want` parses back to a request
/// that emits the same bytes again.
fn pin_request(value: &ServeRequest, want: &str) {
    assert_eq!(value.to_json(), want);
    let back = parse_request(want).unwrap_or_else(|e| panic!("{want}: {e}"));
    assert_eq!(back.to_json(), want, "parse then emit is the identity");
}

#[test]
fn request_lines_are_pinned() {
    pin_request(
        &ServeRequest::Point(Box::new(point())),
        r#"{"schema": "noc-eval/serve/v1", "req": "point", "batch": "q\"b\\s/n\nr\rt\tb\u0008f\u000cc\u0001é😀", "topology": "mesh4", "routing": "dor", "arb": "rr", "vcs": 2, "vc_buf": 4, "router_delay": 1, "pattern": "uniform", "packet_size": 1, "load": 0.2, "warmup": 1000, "measure": 3000, "drain_max": 20000, "seed": 42, "budget": 200000, "allow_degraded": true, "analytic_admission": false}"#,
    );
    let mut p = point();
    p.batch = "b".into();
    p.net = NetConfig {
        topology: TopologyKind::FoldedTorus2D { k: 4 },
        routing: RoutingKind::MinAdaptive,
        arbitration: Arbitration::AgeBased,
        vcs: 4,
        vc_buf: 16,
        router_delay: 8,
        seed: u64::MAX,
        ..NetConfig::baseline()
    };
    p.pattern = PatternKind::Hotspot { node: 5, frac: 0.25 };
    p.load = 5e-324;
    p.budget = None;
    p.allow_degraded = false;
    p.analytic_admission = true;
    pin_request(
        &ServeRequest::Point(Box::new(p)),
        r#"{"schema": "noc-eval/serve/v1", "req": "point", "batch": "b", "topology": "ftorus4", "routing": "ma", "arb": "age", "vcs": 4, "vc_buf": 16, "router_delay": 8, "pattern": "hotspot:5:0.25", "packet_size": 1, "load": 5e-324, "warmup": 1000, "measure": 3000, "drain_max": 20000, "seed": 18446744073709551615, "allow_degraded": false, "analytic_admission": true}"#,
    );
    pin_request(
        &ServeRequest::Sweep(Box::new(sweep())),
        r#"{"schema": "noc-eval/serve/v1", "req": "sweep", "batch": "sw", "topology": "torus8", "routing": "dor", "arb": "rr", "vcs": 2, "vc_buf": 4, "router_delay": 1, "patterns": ["uniform", "hotspot:5:0.25"], "loads": [0.05, 0.1, 1e-7], "seeds": 2, "packet_size": 4, "warmup": 500, "measure": 1000, "drain_max": 10000, "seed": 99, "budget": 100000, "allow_degraded": true, "analytic_admission": true, "max_attempts": 2, "deadline_ms": 1500}"#,
    );
    let mut s = sweep();
    s.net.topology = TopologyKind::Ring { n: 64 };
    s.net.routing = RoutingKind::Valiant;
    s.patterns = vec![PatternKind::BitComplement];
    s.loads = vec![0.3];
    s.budget = None;
    s.allow_degraded = false;
    s.analytic_admission = false;
    s.max_attempts = None;
    s.deadline_ms = None;
    pin_request(
        &ServeRequest::Sweep(Box::new(s)),
        r#"{"schema": "noc-eval/serve/v1", "req": "sweep", "batch": "sw", "topology": "ring64", "routing": "val", "arb": "rr", "vcs": 2, "vc_buf": 4, "router_delay": 1, "patterns": ["bitcomp"], "loads": [0.3], "seeds": 2, "packet_size": 4, "warmup": 500, "measure": 1000, "drain_max": 10000, "seed": 99, "allow_degraded": false, "analytic_admission": false}"#,
    );
    pin_request(
        &ServeRequest::Run {
            batch: "b\"1".into(),
            max_attempts: Some(u32::MAX),
            deadline_ms: Some(u64::MAX),
        },
        r#"{"schema": "noc-eval/serve/v1", "req": "run", "batch": "b\"1", "max_attempts": 4294967295, "deadline_ms": 18446744073709551615}"#,
    );
    pin_request(
        &ServeRequest::Run { batch: "b1".into(), max_attempts: None, deadline_ms: None },
        r#"{"schema": "noc-eval/serve/v1", "req": "run", "batch": "b1"}"#,
    );
    pin_request(
        &ServeRequest::Cancel { batch: "b1".into() },
        r#"{"schema": "noc-eval/serve/v1", "req": "cancel", "batch": "b1"}"#,
    );
    pin_request(&ServeRequest::Health, r#"{"schema": "noc-eval/serve/v1", "req": "health"}"#);
    pin_request(&ServeRequest::Shutdown, r#"{"schema": "noc-eval/serve/v1", "req": "shutdown"}"#);
}

/// `value` emits exactly `want`, and `want` parses back to `value`.
fn pin_response(value: &ServeResponse, want: &str) {
    assert_eq!(value.to_json(), want);
    let back = parse_response(want).unwrap_or_else(|e| panic!("{want}: {e}"));
    assert_eq!(&back, value, "{want}");
}

/// A result line around `outcome`: the canonical fragment is embedded
/// verbatim, and on its own (the WAL payload) it parses back to the
/// same outcome and the same bytes.
fn pin_result(outcome: ServeOutcome, canonical: &str) {
    assert_eq!(outcome.canonical(), canonical);
    let back = ServeOutcome::parse(canonical).unwrap_or_else(|e| panic!("{canonical}: {e}"));
    assert_eq!(back.canonical(), canonical, "a WAL record replays to the bytes it was written as");
    let result = ServeResult {
        batch: "b1".into(),
        point: u64::MAX,
        key: "00000000000000ff:0000000000000001".into(),
        cached: false,
        attempts: 2,
        outcome,
    };
    let want = format!(
        "{{\"schema\": \"noc-eval/serve/v1\", \"resp\": \"result\", \"batch\": \"b1\", \
         \"point\": 18446744073709551615, \"key\": \"00000000000000ff:0000000000000001\", \
         \"cached\": false, \"attempts\": 2, {canonical}}}"
    );
    // compare bit patterns through the canonical bytes: -0.0 == 0.0
    // under PartialEq, the emitted text tells them apart
    assert_eq!(result.to_json(), want);
    let ServeResponse::Result(back) = parse_response(&want).unwrap() else {
        panic!("expected a result for {want}")
    };
    assert_eq!(back.to_json(), want);
}

#[test]
fn result_lines_are_pinned_for_every_outcome() {
    pin_result(
        ServeOutcome::Ok {
            avg_latency: 5e-324, // the smallest subnormal
            throughput: -0.0,
            stable: true,
            measured: u64::MAX,
            cycles: 9_007_199_254_740_993, // 2^53 + 1
        },
        r#""outcome": "ok", "avg_latency": 5e-324, "throughput": -0.0, "stable": true, "measured": 18446744073709551615, "cycles": 9007199254740993"#,
    );
    pin_result(
        ServeOutcome::Ok {
            avg_latency: 17.208333333333332,
            throughput: 0.1 + 0.2,
            stable: false,
            measured: 15_990,
            cycles: 1_287,
        },
        r#""outcome": "ok", "avg_latency": 17.208333333333332, "throughput": 0.30000000000000004, "stable": false, "measured": 15990, "cycles": 1287"#,
    );
    pin_result(
        ServeOutcome::Degraded {
            predicted_latency: None,
            predicted_saturation: 0.3125,
            stable: false,
        },
        r#""outcome": "degraded", "degraded": true, "predicted_latency": null, "predicted_saturation": 0.3125, "stable": false"#,
    );
    pin_result(
        ServeOutcome::Degraded {
            predicted_latency: Some(1.7976931348623157e308),
            predicted_saturation: 1e-6,
            stable: true,
        },
        r#""outcome": "degraded", "degraded": true, "predicted_latency": 1.7976931348623157e308, "predicted_saturation": 1e-6, "stable": true"#,
    );
    pin_result(
        ServeOutcome::Timeout { budget: u64::MAX, wall: true },
        r#""outcome": "timeout", "budget": 18446744073709551615, "wall": true"#,
    );
    pin_result(
        ServeOutcome::Shed { reason: NASTY.into() },
        r#""outcome": "shed", "reason": "q\"b\\s/n\nr\rt\tb\u0008f\u000cc\u0001é😀""#,
    );
    pin_result(
        ServeOutcome::Panicked { message: "index out of bounds: \u{0}\u{1f}".into() },
        r#""outcome": "panicked", "message": "index out of bounds: \u0000\u001f""#,
    );
    pin_result(
        ServeOutcome::Invalid { reason: "vc_buf: must be >= 1 flit".into() },
        r#""outcome": "invalid", "reason": "vc_buf: must be >= 1 flit""#,
    );
}

fn health() -> HealthSnapshot {
    HealthSnapshot {
        queue_depth: 3,
        queue_capacity: 256,
        workers: 4,
        completed: u64::MAX,
        cache_hits: 20,
        shed: 2,
        degraded: 1,
        retries: 5,
        timeouts: 1,
        panics: 1,
        wal_records: 99,
        clients: 3,
        busy: 1,
        draining: true,
    }
}

#[test]
fn control_responses_are_pinned() {
    pin_response(
        &ServeResponse::BatchDone { batch: "b\"1".into(), points: 8, ok: 6 },
        r#"{"schema": "noc-eval/serve/v1", "resp": "batch-done", "batch": "b\"1", "points": 8, "ok": 6}"#,
    );
    pin_response(
        &ServeResponse::SweepDone {
            batch: "sw".into(),
            expanded: 12,
            ok: 8,
            degraded: 2,
            shed: 1,
            invalid: 1,
            timeout: 0,
        },
        r#"{"schema": "noc-eval/serve/v1", "resp": "sweep-done", "batch": "sw", "expanded": 12, "ok": 8, "degraded": 2, "shed": 1, "invalid": 1, "timeout": 0}"#,
    );
    pin_response(
        &ServeResponse::Cancelled { batch: "b1".into(), dropped: 5 },
        r#"{"schema": "noc-eval/serve/v1", "resp": "cancelled", "batch": "b1", "dropped": 5}"#,
    );
    pin_response(
        &ServeResponse::Busy { active: 8, max: 8 },
        r#"{"schema": "noc-eval/serve/v1", "resp": "busy", "active": 8, "max": 8}"#,
    );
    pin_response(
        &ServeResponse::Health(health()),
        r#"{"schema": "noc-eval/serve/v1", "resp": "health", "queue_depth": 3, "queue_capacity": 256, "workers": 4, "completed": 18446744073709551615, "cache_hits": 20, "shed": 2, "degraded": 1, "retries": 5, "timeouts": 1, "panics": 1, "wal_records": 99, "clients": 3, "busy": 1, "draining": true}"#,
    );
    pin_response(
        &ServeResponse::Status(HealthSnapshot { draining: false, ..health() }),
        r#"{"schema": "noc-eval/serve/v1", "resp": "status", "queue_depth": 3, "queue_capacity": 256, "workers": 4, "completed": 18446744073709551615, "cache_hits": 20, "shed": 2, "degraded": 1, "retries": 5, "timeouts": 1, "panics": 1, "wal_records": 99, "clients": 3, "busy": 1, "draining": false}"#,
    );
    pin_response(
        &ServeResponse::Error { reason: NASTY.into() },
        r#"{"schema": "noc-eval/serve/v1", "resp": "error", "reason": "q\"b\\s/n\nr\rt\tb\u0008f\u000cc\u0001é😀"}"#,
    );
    // a status line journaled before `clients`/`busy` existed still reads
    let old = r#"{"schema": "noc-eval/serve/v1", "resp": "status", "queue_depth": 0, "queue_capacity": 4, "workers": 1, "completed": 2, "cache_hits": 0, "shed": 0, "degraded": 0, "retries": 0, "timeouts": 0, "panics": 0, "wal_records": 2, "draining": true}"#;
    let ServeResponse::Status(h) = parse_response(old).unwrap() else { panic!("status") };
    assert_eq!((h.clients, h.busy, h.completed, h.draining), (0, 0, 2, true));
}

fn series(bin: u64, weights: &[(u64, f64)]) -> TimeSeries {
    let mut s = TimeSeries::new(bin);
    for &(cycle, w) in weights {
        s.push(cycle, w);
    }
    s
}

fn occupancy(samples: &[f64]) -> OnlineStats {
    let mut o = OnlineStats::new();
    for &x in samples {
        o.push(x);
    }
    o
}

#[test]
fn metrics_document_is_pinned() {
    let snap = MetricsSnapshot {
        bin_width: 4,
        cycles: 8,
        channels: vec![
            ChannelMetrics {
                src: 0,
                port: 1,
                dst: 1,
                total: 5,
                flits: series(4, &[(0, 1.0), (1, 1.0), (5, 3.0)]),
            },
            ChannelMetrics { src: 1, port: 2, dst: 0, total: 0, flits: TimeSeries::new(4) },
        ],
        routers: vec![
            RouterMetrics {
                id: 0,
                occupancy: occupancy(&[0.0, 1.0, 2.0]),
                credit_stalls: 7,
                sa_conflicts: 2,
                va_blocked: 1,
            },
            RouterMetrics {
                id: 1,
                occupancy: OnlineStats::new(),
                credit_stalls: 0,
                sa_conflicts: 0,
                va_blocked: 0,
            },
        ],
        occupancy: TimeSeries::new(4),
        injected: TimeSeries::new(4),
        credit_stalls: TimeSeries::new(4),
        sa_conflicts: TimeSeries::new(4),
        flits_injected: 6,
        link_flits: 5,
    };
    let want = r#"{
  "schema": "noc-eval/metrics/v1",
  "bin_width": 4,
  "cycles": 8,
  "flits_injected": 6,
  "link_flits": 5,
  "channels": [
    {"src": 0, "port": 1, "dst": 1, "total": 5, "peak_rate": 0.7500, "peak_at": 4, "rates": [0.5000, 0.7500]},
    {"src": 1, "port": 2, "dst": 0, "total": 0, "peak_rate": 0.0000, "peak_at": 0, "rates": []}
  ],
  "routers": [
    {"id": 0, "mean_occupancy": 1.0000, "max_occupancy": 2.0, "credit_stalls": 7, "sa_conflicts": 2, "va_blocked": 1},
    {"id": 1, "mean_occupancy": 0.0000, "max_occupancy": 0.0, "credit_stalls": 0, "sa_conflicts": 0, "va_blocked": 0}
  ]
}
"#;
    assert_eq!(metrics_to_json(&snap), want);
    let parsed = parse_metrics_json(want).unwrap();
    assert_eq!(
        (parsed.bin_width, parsed.cycles, parsed.flits_injected, parsed.link_flits),
        (4, 8, 6, 5)
    );
    assert_eq!(parsed.channels, vec![(0, 1, 1, 5), (1, 2, 0, 0)]);
}

/// The result-cache / WAL key of a point: every journal and cache file
/// is indexed by these bytes, so a descriptor edit that changes them
/// orphans every record written before it. Pinned for a mesh, torus
/// and ring point, `budget` set and unset, a hotspot pattern and the
/// smallest subnormal load.
#[test]
fn point_keys_are_pinned() {
    let mesh = point();
    let mut torus = point();
    torus.net = NetConfig::baseline().with_topology(TopologyKind::Torus2D { k: 8 }).with_seed(7);
    torus.pattern = PatternKind::Hotspot { node: 5, frac: 0.25 };
    torus.packet_size = 4;
    torus.budget = None;
    let mut ring = point();
    ring.net = NetConfig {
        topology: TopologyKind::Ring { n: 16 },
        routing: RoutingKind::Valiant,
        arbitration: Arbitration::AgeBased,
        seed: u64::MAX,
        ..NetConfig::baseline()
    };
    ring.pattern = PatternKind::BitComplement;
    ring.load = 5e-324;
    ring.budget = Some(0);
    let points = [mesh, torus, ring];
    let keys: Vec<String> = points.iter().map(PointRequest::key).collect();
    assert_eq!(
        keys,
        [
            "8953fc1cb31ab408:000000000000002a",
            "bf3ecf607e44ad3e:0000000000000007",
            "fc3a0d341bf689b3:ffffffffffffffff",
        ]
    );
    for (p, key) in points.iter().zip(&keys) {
        assert_eq!(&p.key_from(&p.digest_prefix()), key);
    }
}
