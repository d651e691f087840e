//! Property tests for the two serving contracts PR 10 adds: a `sweep`
//! request is byte-identical to submitting its expansion point by
//! point, and analytic admission control is a pure accelerator — it
//! never alters an answer that comes back non-degraded.

use noc_eval::serve::{
    parse_response, PointRequest, ServeOutcome, ServeRequest, ServeResponse, SweepRequest,
};
use noc_serve::{ServeConfig, Service};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_traffic::PatternKind;
use proptest::prelude::*;

fn quick_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        // small enough that a saturated point diverges fast, large
        // enough that a stable point finishes: keeps cases quick and
        // every outcome deterministic (hence comparable bit-for-bit)
        default_budget: 400_000,
        ..ServeConfig::default()
    }
}

/// Drive one service with request lines; return the raw response text.
fn drive(svc: &Service, reqs: &[ServeRequest]) -> String {
    let mut buf = Vec::new();
    for r in reqs {
        svc.handle_line(&r.to_json(), &mut buf).unwrap();
    }
    String::from_utf8(buf).unwrap()
}

fn sweep(base_seed: u64, patterns: Vec<PatternKind>, loads: Vec<f64>, seeds: u64) -> SweepRequest {
    SweepRequest {
        batch: "sw".into(),
        net: NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k: 4 })
            .with_seed(base_seed),
        patterns,
        loads,
        seeds,
        packet_size: 1,
        warmup: 200,
        measure: 400,
        drain_max: 4_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: false,
        max_attempts: None,
        deadline_ms: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// One `sweep` line produces byte-for-byte the stream that
    /// submitting `expand()`'s points individually produces — same
    /// result lines, same `batch-done` — plus exactly one trailing
    /// `sweep-done` summary whose tallies match.
    #[test]
    fn sweep_request_is_byte_identical_to_point_by_point_submission(
        base_seed in 0u64..u64::MAX,
        pattern_pick in 0usize..3,
        n_loads in 1usize..3,
        seeds in 1u64..3,
    ) {
        let patterns = match pattern_pick {
            0 => vec![PatternKind::Uniform],
            1 => vec![PatternKind::Transpose],
            _ => vec![PatternKind::Uniform, PatternKind::Transpose],
        };
        let loads: Vec<f64> = (0..n_loads).map(|i| 0.06 + 0.03 * i as f64).collect();
        let sw = sweep(base_seed, patterns, loads, seeds);

        // reference: client-side expansion, one point line each
        let reference = Service::new(quick_cfg()).unwrap();
        let mut reqs: Vec<ServeRequest> =
            sw.expand().into_iter().map(|p| ServeRequest::Point(Box::new(p))).collect();
        let n_points = reqs.len() as u64;
        reqs.push(ServeRequest::Run {
            batch: sw.batch.clone(),
            max_attempts: None,
            deadline_ms: None,
        });
        let ref_text = drive(&reference, &reqs);

        // one sweep line against a fresh service
        let swept = Service::new(quick_cfg()).unwrap();
        let sweep_text = drive(&swept, &[ServeRequest::Sweep(Box::new(sw))]);

        let mut sweep_lines: Vec<&str> = sweep_text.lines().collect();
        let summary = sweep_lines.pop().expect("sweep emits at least the summary");
        prop_assert_eq!(
            sweep_lines.join("\n"),
            ref_text.lines().collect::<Vec<_>>().join("\n"),
            "sweep stream must be byte-identical to point-by-point submission"
        );
        let ServeResponse::SweepDone { expanded, ok, degraded, shed, invalid, timeout, .. } =
            parse_response(summary).expect(summary)
        else {
            return Err(TestCaseError::fail(format!("expected sweep-done, got {summary}")));
        };
        prop_assert_eq!(expanded, n_points);
        prop_assert_eq!(ok + degraded + shed + invalid + timeout, n_points);
    }
}

fn point(seed: u64, load: f64, analytic_admission: bool) -> PointRequest {
    PointRequest {
        batch: "adm".into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
        pattern: PatternKind::Uniform,
        packet_size: 1,
        load,
        warmup: 200,
        measure: 400,
        drain_max: 4_000,
        budget: None,
        allow_degraded: false,
        analytic_admission,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The pure-accelerator guarantee: turning `analytic_admission`
    /// on may convert answers *into* degraded predictions, but any
    /// answer that comes back non-degraded is bit-identical to the
    /// flag-off run. (Points stay under queue capacity, so the prune
    /// is the only admission difference in play.)
    #[test]
    fn analytic_admission_never_alters_a_non_degraded_answer(
        seed in 0u64..u64::MAX,
        // loads straddle saturation so some cases actually prune
        centiloads in prop::collection::vec(2u32..80, 1..4),
    ) {
        let pts: Vec<(u64, f64)> = centiloads
            .iter()
            .enumerate()
            .map(|(i, c)| (seed.wrapping_add(i as u64), *c as f64 / 100.0))
            .collect();
        let run =
            ServeRequest::Run { batch: "adm".into(), max_attempts: None, deadline_ms: None };

        let script = |admission: bool| -> Vec<ServeRequest> {
            pts.iter()
                .map(|&(s, l)| ServeRequest::Point(Box::new(point(s, l, admission))))
                .chain([run.clone()])
                .collect()
        };
        let collect = |text: &str| -> Vec<(String, ServeOutcome)> {
            text.lines()
                .filter_map(|l| match parse_response(l).expect(l) {
                    ServeResponse::Result(r) => Some((r.key, r.outcome)),
                    _ => None,
                })
                .collect()
        };

        // pruned points answer at admission time, before `run`, so the
        // two streams order results differently: compare by key
        let off = collect(&drive(&Service::new(quick_cfg()).unwrap(), &script(false)));
        let on = collect(&drive(&Service::new(quick_cfg()).unwrap(), &script(true)));
        prop_assert_eq!(off.len(), on.len());
        let off_by_key: std::collections::HashMap<&str, &ServeOutcome> =
            off.iter().map(|(k, o)| (k.as_str(), o)).collect();

        for (key, out_on) in &on {
            let out_off = off_by_key
                .get(key.as_str())
                .ok_or_else(|| TestCaseError::fail(format!("key {key} only in the flag-on run")))?;
            if matches!(out_on, ServeOutcome::Degraded { .. }) {
                continue; // the accelerator is allowed to degrade...
            }
            prop_assert_eq!(
                out_on.canonical(),
                out_off.canonical(),
                "...but never to alter a non-degraded answer (key {})",
                key
            );
        }
        // sanity: the flag-off run never degrades under-capacity points
        prop_assert!(off.iter().all(|(_, o)| !matches!(o, ServeOutcome::Degraded { .. })));
    }
}
