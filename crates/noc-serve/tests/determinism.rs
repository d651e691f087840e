//! Property tests for the robustness layer's determinism contract:
//! a point whose first attempt panics is retried by the service to the
//! bits of a clean first-try run (same seed), and typed shed/timeout/panic
//! outcomes survive the serve/v1 schema's parser verbatim; and no text
//! a client can send costs the service more than one typed response.

use noc_eval::serve::{
    parse_request, parse_response, PointRequest, ServeOutcome, ServeRequest, ServeResponse,
    ServeResult,
};
use noc_openloop::measure;
use noc_serve::{ServeConfig, Service};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_traffic::PatternKind;
use proptest::prelude::*;

fn point(seed: u64, load: f64) -> PointRequest {
    PointRequest {
        batch: "prop".into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
        pattern: PatternKind::Uniform,
        packet_size: 1,
        load,
        warmup: 200,
        measure: 400,
        drain_max: 4_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// A point whose first attempt panics and is retried produces the
    /// exact bits a clean first-try run produces: retrying reruns the
    /// same `(config, seed)` and the simulator is a pure function of it.
    #[test]
    fn panicked_then_retried_point_is_bit_identical_to_clean_run(
        seed in 0u64..u64::MAX,
        centiload in 2u32..25,
    ) {
        let p = point(seed, centiload as f64 / 100.0);
        let clean = measure(&p.open_loop()).unwrap();
        let svc = Service::new(ServeConfig { workers: 1, chaos: 1, ..ServeConfig::default() })
            .unwrap();
        let mut out = Vec::new();
        let run = ServeRequest::Run { batch: "prop".into(), max_attempts: None, deadline_ms: None };
        for req in [ServeRequest::Point(Box::new(p)), run] {
            svc.handle_line(&req.to_json(), &mut out).unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        let Ok(ServeResponse::Result(r)) = parse_response(text.lines().next().unwrap()) else {
            return Err(TestCaseError::fail(format!("expected a result first: {text}")));
        };
        prop_assert_eq!(r.attempts, 2);
        let ServeOutcome::Ok { avg_latency, throughput, stable, measured, cycles } = r.outcome
        else {
            return Err(TestCaseError::fail(format!("expected ok, got {:?}", r.outcome)));
        };
        prop_assert_eq!(avg_latency.to_bits(), clean.avg_latency.to_bits());
        prop_assert_eq!(throughput.to_bits(), clean.throughput.to_bits());
        prop_assert_eq!(stable, clean.stable);
        prop_assert_eq!(measured, clean.measured_packets);
        prop_assert_eq!(cycles, clean.cycles);
    }
}

/// Build a string that exercises the full escape set from raw bytes.
fn nasty_string(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Shed/timeout/panic outcomes round-trip through the serve/v1
    /// tolerant parser for arbitrary reason strings (quotes, newlines,
    /// control bytes, non-ASCII) and full-range budgets.
    #[test]
    fn shed_and_timeout_outcomes_round_trip_through_the_parser(
        raw in prop::collection::vec(0u8..=255u8, 0..48),
        budget in 0u64..u64::MAX,
        wall in prop::bool::ANY,
        point in 0u64..u64::MAX,
        pick in 0u32..3,
    ) {
        let text = nasty_string(&raw);
        let outcome = match pick {
            0 => ServeOutcome::Shed { reason: text },
            1 => ServeOutcome::Timeout { budget, wall },
            _ => ServeOutcome::Panicked { message: text },
        };
        let result = ServeResult {
            batch: "prop".into(),
            point,
            key: format!("{budget:016x}:{point:016x}"),
            cached: false,
            attempts: 1,
            outcome: outcome.clone(),
        };
        let line = result.to_json();
        let parsed = parse_response(&line);
        prop_assert!(parsed.is_ok(), "line failed to parse: {:?} -> {:?}", line, parsed);
        let ServeResponse::Result(back) = parsed.unwrap() else {
            return Err(TestCaseError::fail("expected a result response"));
        };
        prop_assert_eq!(&back, &result, "typed round trip");
        // the canonical fragment regenerates byte-for-byte, which is
        // what makes WAL replay bit-identical
        prop_assert_eq!(back.outcome.canonical(), outcome.canonical());
    }

    /// Hostile input: arbitrary text, and a valid request with one byte
    /// flipped, inserted or deleted, never panics the service and is
    /// answered with exactly one response line that `parse_response`
    /// accepts (nothing at all for a blank line). A line that is not a
    /// valid point, sweep or run request leaves nothing behind: no
    /// cached result and no queued point.
    #[test]
    fn any_line_gets_exactly_one_typed_response(
        raw in prop::collection::vec(0u8..=255u8, 0..64),
        at in 0usize..1000,
        how in 0u32..4,
    ) {
        let cancel = ServeRequest::Cancel { batch: "b\"\\1".into() }.to_json().into_bytes();
        let health = ServeRequest::Health.to_json().into_bytes();
        let mut bytes = if at % 2 == 0 { cancel } else { health };
        let (at, byte) = (at % bytes.len(), raw.first().copied().unwrap_or(b'"'));
        match how {
            0 => bytes = raw.clone(),
            1 => bytes[at] = byte,
            2 => bytes.insert(at, byte),
            _ => drop(bytes.remove(at)),
        }
        let line = nasty_string(&bytes);
        let svc = Service::new(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let retained = |svc: &Service| (svc.cached_results(), svc.snapshot().queue_depth);
        let before = retained(&svc);
        let mut out = Vec::new();
        prop_assert!(svc.handle_line(&line, &mut out).unwrap(), "only `shutdown` ends the loop");
        let text = String::from_utf8(out).unwrap();
        let want = if line.trim().is_empty() { 0 } else { 1 };
        prop_assert_eq!(text.lines().count(), want, "{:?} -> {:?}", line, text);
        for resp in text.lines() {
            prop_assert!(parse_response(resp).is_ok(), "{:?} -> {:?}", line, resp);
        }
        let work = matches!(
            parse_request(&line),
            Ok(ServeRequest::Point(_) | ServeRequest::Sweep(_) | ServeRequest::Run { .. })
        );
        if !work {
            prop_assert_eq!(retained(&svc), before, "{:?} left state behind", line);
        }
    }
}
