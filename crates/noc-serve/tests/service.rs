//! In-process tests of the full request path: admission, backpressure,
//! degraded answers, deadlines, retry, WAL kill-resume, cancellation,
//! graceful drain, and the evaluation pool's ordering and lifetime.

use noc_eval::serve::{
    parse_response, PointRequest, ServeOutcome, ServeRequest, ServeResponse, ServeResult,
    SweepRequest,
};
use noc_openloop::measure_budgeted;
use noc_serve::{ServeConfig, Service};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_traffic::PatternKind;

fn point(batch: &str, seed: u64, load: f64) -> PointRequest {
    PointRequest {
        batch: batch.into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
        pattern: PatternKind::Uniform,
        packet_size: 1,
        load,
        warmup: 200,
        measure: 500,
        drain_max: 5_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: false,
    }
}

fn quick_cfg() -> ServeConfig {
    ServeConfig { workers: 2, default_budget: 1_000_000, ..ServeConfig::default() }
}

/// Feed request lines, returning parsed responses and whether the
/// service is still accepting input.
fn drive(svc: &mut Service, reqs: &[ServeRequest]) -> (Vec<ServeResponse>, bool) {
    let mut buf = Vec::new();
    let mut alive = true;
    for r in reqs {
        alive = svc.handle_line(&r.to_json(), &mut buf).unwrap();
    }
    let text = String::from_utf8(buf).unwrap();
    (text.lines().map(|l| parse_response(l).expect(l)).collect(), alive)
}

fn results(resps: &[ServeResponse]) -> Vec<ServeResult> {
    resps
        .iter()
        .filter_map(|r| match r {
            ServeResponse::Result(r) => Some(r.clone()),
            _ => None,
        })
        .collect()
}

fn run_req(batch: &str) -> ServeRequest {
    ServeRequest::Run { batch: batch.into(), max_attempts: None, deadline_ms: None }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("noc_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn batch_runs_in_submission_order_and_reports_done() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let reqs: Vec<ServeRequest> = (0..3)
        .map(|i| ServeRequest::Point(Box::new(point("b1", i, 0.1))))
        .chain([run_req("b1")])
        .collect();
    let (resps, alive) = drive(&mut svc, &reqs);
    assert!(alive);
    let rs = results(&resps);
    assert_eq!(rs.len(), 3);
    for (i, r) in rs.iter().enumerate() {
        assert_eq!(r.point, i as u64, "results arrive in submission order");
        assert!(!r.cached);
        assert_eq!(r.attempts, 1);
        let ServeOutcome::Ok { stable, .. } = r.outcome else {
            panic!("expected ok at low load, got {:?}", r.outcome)
        };
        assert!(stable);
    }
    assert!(matches!(resps.last(), Some(ServeResponse::BatchDone { points: 3, ok: 3, .. })));
    let h = svc.snapshot();
    assert_eq!(h.completed, 3);
    assert_eq!(h.queue_depth, 0);
    assert!(h.workers >= 1);
}

#[test]
fn identical_resubmission_is_answered_from_cache_bit_identically() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let pts: Vec<_> = (0..2).map(|i| point("b1", 10 + i, 0.15)).collect();
    let mut reqs: Vec<ServeRequest> =
        pts.iter().map(|p| ServeRequest::Point(Box::new(p.clone()))).collect();
    reqs.push(run_req("b1"));
    let (first, _) = drive(&mut svc, &reqs);
    // same points again, different batch label: digest ignores the batch
    let mut reqs2: Vec<ServeRequest> = pts
        .iter()
        .map(|p| {
            let mut q = p.clone();
            q.batch = "b2".into();
            ServeRequest::Point(Box::new(q))
        })
        .collect();
    reqs2.push(run_req("b2"));
    let (second, _) = drive(&mut svc, &reqs2);
    let (a, b) = (results(&first), results(&second));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert!(!x.cached && y.cached);
        assert_eq!(y.attempts, 0, "cached answers cost no evaluation");
        assert_eq!(
            x.outcome.canonical(),
            y.outcome.canonical(),
            "cached replay must be byte-identical"
        );
    }
    assert_eq!(svc.snapshot().cache_hits, 2);
}

#[test]
fn wal_resume_after_kill_is_complete_and_bit_identical() {
    let wal = tmp("resume.wal");
    let pts: Vec<_> = (0..4).map(|i| point("b1", 100 + i, 0.1 + 0.02 * i as f64)).collect();
    let submit_all = |pts: &[PointRequest]| -> Vec<ServeRequest> {
        pts.iter()
            .map(|p| ServeRequest::Point(Box::new(p.clone())))
            .chain([run_req("b1")])
            .collect()
    };

    // uninterrupted reference run (no WAL at all)
    let mut reference = Service::new(quick_cfg()).unwrap();
    let (ref_resps, _) = drive(&mut reference, &submit_all(&pts));

    // "first life": only the first two points complete before the kill
    {
        let mut svc = Service::new(ServeConfig { wal: Some(wal.clone()), ..quick_cfg() }).unwrap();
        let partial: Vec<ServeRequest> = pts[..2]
            .iter()
            .map(|p| ServeRequest::Point(Box::new(p.clone())))
            .chain([run_req("b1")])
            .collect();
        drive(&mut svc, &partial);
        // SIGKILL: the Service is dropped with no commit/shutdown
    }

    // "second life": same WAL, full script resubmitted
    let mut svc = Service::new(ServeConfig { wal: Some(wal.clone()), ..quick_cfg() }).unwrap();
    assert_eq!(svc.cached_results(), 2, "the WAL replays the finished points");
    let (resps, _) = drive(&mut svc, &submit_all(&pts));

    let (reference, resumed) = (results(&ref_resps), results(&resps));
    assert_eq!(resumed.len(), reference.len(), "final results are complete");
    for (r, u) in resumed.iter().zip(&reference) {
        assert_eq!(r.point, u.point);
        assert_eq!(r.key, u.key);
        assert_eq!(
            r.outcome.canonical(),
            u.outcome.canonical(),
            "resumed point {} must be bit-identical to the uninterrupted run",
            r.point
        );
    }
    assert!(resumed[0].cached && resumed[1].cached);
    assert!(!resumed[2].cached && !resumed[3].cached);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn torn_wal_tail_is_tolerated_on_restart() {
    let wal = tmp("torn.wal");
    {
        let mut svc = Service::new(ServeConfig { wal: Some(wal.clone()), ..quick_cfg() }).unwrap();
        drive(&mut svc, &[ServeRequest::Point(Box::new(point("b1", 7, 0.1))), run_req("b1")]);
    }
    // simulate a kill mid-append: partial record, no newline
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(b"0123456789abcdef:00000000000000ff\t\"outcome\": \"ok\", \"avg").unwrap();
    }
    let svc = Service::new(ServeConfig { wal: Some(wal.clone()), ..quick_cfg() }).unwrap();
    assert_eq!(svc.cached_results(), 1, "intact records survive a torn tail");
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn full_queue_sheds_or_degrades_with_typed_outcomes() {
    let cfg = ServeConfig { queue_capacity: 2, ..quick_cfg() };
    let mut svc = Service::new(cfg).unwrap();
    let mut degraded_pt = point("b1", 3, 0.1);
    degraded_pt.allow_degraded = true;
    let (resps, _) = drive(
        &mut svc,
        &[
            ServeRequest::Point(Box::new(point("b1", 1, 0.1))),
            ServeRequest::Point(Box::new(point("b1", 2, 0.1))),
            // queue now full: one hard rejection, one degraded answer
            ServeRequest::Point(Box::new(point("b1", 3, 0.1))),
            ServeRequest::Point(Box::new(degraded_pt)),
        ],
    );
    let rs = results(&resps);
    assert_eq!(rs.len(), 2, "accepted points answer later, at run");
    let ServeOutcome::Shed { reason } = &rs[0].outcome else {
        panic!("expected shed, got {:?}", rs[0].outcome)
    };
    assert!(reason.contains("queue full"), "{reason}");
    let ServeOutcome::Degraded { predicted_saturation, stable, .. } = &rs[1].outcome else {
        panic!("expected degraded, got {:?}", rs[1].outcome)
    };
    assert!(*predicted_saturation > 0.0);
    assert!(*stable, "0.1 on a 4x4 mesh sits below predicted saturation");
    assert!(rs[1].to_json().contains("\"degraded\": true"));
    let h = svc.snapshot();
    assert_eq!((h.shed, h.degraded, h.queue_depth), (1, 1, 2));
    // the queued points still run normally afterwards
    let (resps, _) = drive(&mut svc, &[run_req("b1")]);
    assert!(matches!(resps.last(), Some(ServeResponse::BatchDone { points: 2, ok: 2, .. })));
}

#[test]
fn expired_wall_deadline_yields_typed_timeouts_not_cached() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let p = point("b1", 5, 0.1);
    let (resps, _) = drive(
        &mut svc,
        &[
            ServeRequest::Point(Box::new(p.clone())),
            ServeRequest::Run { batch: "b1".into(), max_attempts: None, deadline_ms: Some(0) },
        ],
    );
    let rs = results(&resps);
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].outcome, ServeOutcome::Timeout { budget: 0, wall: true });
    assert_eq!(svc.snapshot().timeouts, 1);
    // wall timeouts are transient: the same point evaluates cleanly next time
    let (resps, _) = drive(&mut svc, &[ServeRequest::Point(Box::new(p)), run_req("b1")]);
    let rs = results(&resps);
    assert!(!rs[0].cached);
    assert!(matches!(rs[0].outcome, ServeOutcome::Ok { .. }));
}

#[test]
fn cycle_budget_timeout_is_deterministic_and_cached() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let mut p = point("b1", 6, 0.1);
    p.budget = Some(100); // cannot even fit warmup+measure
    let (resps, _) = drive(&mut svc, &[ServeRequest::Point(Box::new(p.clone())), run_req("b1")]);
    let rs = results(&resps);
    assert_eq!(rs[0].outcome, ServeOutcome::Timeout { budget: 100, wall: false });
    assert_eq!(rs[0].attempts, 1, "a budget timeout is a fact about the point: never re-run");
    assert_eq!(svc.snapshot().retries, 0);
    // deterministic timeouts are facts about the config: cached
    let (resps, _) = drive(&mut svc, &[ServeRequest::Point(Box::new(p)), run_req("b1")]);
    let rs = results(&resps);
    assert!(rs[0].cached);
    assert_eq!(rs[0].outcome, ServeOutcome::Timeout { budget: 100, wall: false });
}

#[test]
fn a_point_cannot_buy_more_than_the_operators_budget() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let mut greedy = point("b1", 6, 0.1);
    greedy.warmup = u64::MAX;
    greedy.measure = 2;
    greedy.budget = Some(u64::MAX);
    let reqs = [
        ServeRequest::Point(Box::new(greedy)),
        ServeRequest::Point(Box::new(point("b1", 7, 0.1))),
        run_req("b1"),
    ];
    let (resps, alive) = drive(&mut svc, &reqs);
    assert!(alive);
    let rs = results(&resps);
    // answered before its first step, with the effective (operator's)
    // budget; the worker is free for the normal point behind it
    assert_eq!(rs[0].outcome, ServeOutcome::Timeout { budget: 1_000_000, wall: false });
    assert!(matches!(rs[1].outcome, ServeOutcome::Ok { .. }), "{:?}", rs[1].outcome);
}

/// The field a refusal names: the backticked parameter of a config
/// error, the quoted key of a parse error, else the whole message.
fn field(reason: &str) -> &str {
    let named = |prefix, close| reason.strip_prefix(prefix)?.split(close).next();
    named("invalid parameter `", '`').or_else(|| named("\"", '"')).unwrap_or(reason)
}

#[test]
fn invalid_configs_are_rejected_at_admission() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let with = |seed: u64, load: f64, edit: &dyn Fn(&mut PointRequest)| {
        let mut p = point("b1", seed, load);
        edit(&mut p);
        p
    };
    // (point, the field its refusal names; `None` for the valid control)
    let cases = [
        (with(1, 0.1, &|p| p.net.vc_buf = 0), Some("vc_buf")),
        (with(2, 0.1, &|p| p.budget = Some(0)), Some("cycle_budget")),
        (with(3, 2.0, &|_| {}), Some("load")),
        // an empty window used to be simulated and answered `throughput: NaN`
        (with(4, 0.1, &|p| p.measure = 0), Some("measure")),
        (with(5, 0.1, &|p| p.packet_size = 0), Some("packet_size")),
        // used to be admitted and simulated as 65535-flit packets
        (with(6, 0.1, &|p| p.packet_size = 70_000), Some("packet_size")),
        (with(7, -0.1, &|_| {}), Some("load")),
        // not a JSON number: refused by the parser, still naming `load`
        (with(8, f64::NAN, &|_| {}), Some("load")),
        (with(9, 0.1, &|p| p.net.topology = TopologyKind::Mesh2D { k: 1 }), Some("topology")),
        (with(10, 0.1, &|p| p.net.vcs = 65), Some("vcs")),
        // a coordinate pattern on a ring used to index past the traffic
        // matrix; the other three used to simulate other traffic
        (with(12, 0.1, &|p| ring16_transpose(p, false)), Some("pattern")),
        (
            with(13, 0.1, &|p| p.pattern = PatternKind::Hotspot { node: 9999, frac: 0.5 }),
            Some("pattern"),
        ),
        (
            with(14, 0.1, &|p| p.pattern = PatternKind::Hotspot { node: 5, frac: f64::NAN }),
            Some("pattern"),
        ),
        (
            with(15, 0.1, &|p| {
                p.net.topology = TopologyKind::Mesh2D { k: 3 };
                p.pattern = PatternKind::BitComplement;
            }),
            Some("pattern"),
        ),
        (with(11, 0.1, &|_| {}), None),
    ];
    let budget_cap = quick_cfg().default_budget;
    for (p, want) in cases {
        let (resps, _) =
            drive(&mut svc, &[ServeRequest::Point(Box::new(p.clone())), run_req("b1")]);
        let refusal = match &resps[0] {
            ServeResponse::Error { reason } => Some(reason.clone()),
            ServeResponse::Result(r) => match &r.outcome {
                ServeOutcome::Invalid { reason } => Some(reason.clone()),
                ServeOutcome::Ok { .. } => None,
                o => panic!("unexpected outcome {o:?}"),
            },
            other => panic!("unexpected response {other:?}"),
        };
        // admission and evaluation apply one rule set: the service refuses
        // exactly what the evaluator refuses, naming the same field
        let budget = p.budget.unwrap_or(u64::MAX).min(budget_cap);
        match (refusal, measure_budgeted(&p.open_loop(), budget)) {
            (Some(reason), Err(e)) => {
                assert_eq!(Some(field(&reason)), want, "{reason}");
                assert_eq!(field(&e.to_string()), field(&reason), "{e} vs {reason}");
            }
            (None, Ok(Ok(_))) => assert_eq!(want, None),
            (r, e) => panic!("admission {r:?} disagrees with evaluation {e:?}"),
        }
        let done = if want.is_some() { 0 } else { 1 };
        assert!(
            matches!(resps.last(), Some(ServeResponse::BatchDone { points, .. }) if *points == done)
        );
    }
}

/// Transpose on a 16-node ring: a 1D topology, where the pattern's
/// `k x k` layout does not exist.
fn ring16_transpose(p: &mut PointRequest, admission: bool) {
    p.net.topology = TopologyKind::Ring { n: 16 };
    p.pattern = PatternKind::Transpose;
    p.analytic_admission = admission;
}

#[test]
fn unbuildable_points_are_invalid_at_admission_and_the_service_keeps_serving() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let huge = |k: usize, admission: bool| {
        let mut p = point("big", 1, 0.1);
        p.net.topology = TopologyKind::Mesh2D { k };
        p.analytic_admission = admission;
        ServeRequest::Point(Box::new(p))
    };
    let ring = |admission: bool| {
        let mut p = point("big", 1, 0.1);
        ring16_transpose(&mut p, admission);
        ServeRequest::Point(Box::new(p))
    };
    // mesh70000 used to panic the model's n x n matrix (admission) or
    // abort the process allocating 588 GB in `Network::new` (run); the
    // radix whose square wraps `usize` slipped past an unchecked product;
    // ring16 + transpose indexed past the model's 256-entry matrix
    // (admission, which ended the stdio process) or panicked every
    // attempt (run)
    let (resps, alive) = drive(
        &mut svc,
        &[
            huge(70_000, true),
            huge(70_000, false),
            huge(1 << (usize::BITS / 2), false),
            ring(true),
            ring(false),
            run_req("big"),
        ],
    );
    assert!(alive);
    let rs = results(&resps);
    let fields = ["topology", "topology", "topology", "pattern", "pattern"];
    assert_eq!(rs.len(), fields.len());
    for (r, field) in rs.iter().zip(fields) {
        let ServeOutcome::Invalid { reason } = &r.outcome else {
            panic!("expected invalid, got {:?}", r.outcome)
        };
        assert_eq!(self::field(reason), field, "{reason}");
    }
    assert!(matches!(resps.last(), Some(ServeResponse::BatchDone { points: 0, .. })));
    let (resps, alive) =
        drive(&mut svc, &[ServeRequest::Point(Box::new(point("b", 1, 0.1))), run_req("b")]);
    assert!(alive);
    assert!(matches!(resps.last(), Some(ServeResponse::BatchDone { points: 1, ok: 1, .. })));
}

#[test]
fn cancel_drops_only_the_named_batch() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let (resps, _) = drive(
        &mut svc,
        &[
            ServeRequest::Point(Box::new(point("doomed", 1, 0.1))),
            ServeRequest::Point(Box::new(point("kept", 2, 0.1))),
            ServeRequest::Point(Box::new(point("doomed", 3, 0.1))),
            ServeRequest::Cancel { batch: "doomed".into() },
            run_req("kept"),
        ],
    );
    assert!(resps.iter().any(|r| matches!(r, ServeResponse::Cancelled { dropped: 2, .. })));
    assert!(matches!(resps.last(), Some(ServeResponse::BatchDone { points: 1, ok: 1, .. })));
    assert_eq!(svc.snapshot().queue_depth, 0);
}

#[test]
fn chaos_panics_are_retried_and_results_match_a_clean_run() {
    let pts: Vec<_> = (0..2).map(|i| point("b1", 50 + i, 0.12)).collect();
    let script: Vec<ServeRequest> = pts
        .iter()
        .map(|p| ServeRequest::Point(Box::new(p.clone())))
        .chain([run_req("b1")])
        .collect();
    let mut clean = Service::new(quick_cfg()).unwrap();
    let (clean_resps, _) = drive(&mut clean, &script);
    let mut chaotic = Service::new(ServeConfig { chaos: 2, ..quick_cfg() }).unwrap();
    let (chaos_resps, _) = drive(&mut chaotic, &script);
    let (a, b) = (results(&clean_resps), results(&chaos_resps));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.outcome.canonical(),
            y.outcome.canonical(),
            "a retried point must be bit-identical to a clean first-try run"
        );
    }
    let h = chaotic.snapshot();
    assert_eq!(h.retries, 2, "both injected faults cost exactly one retry each");
    assert_eq!(h.panics, 0, "no point exhausted its attempts");
    assert!(b.iter().map(|r| r.attempts).sum::<u32>() > a.iter().map(|r| r.attempts).sum::<u32>());
}

#[test]
fn panics_past_the_attempt_cap_answer_panicked_and_are_not_cached() {
    let mut svc = Service::new(ServeConfig { chaos: 2, ..quick_cfg() }).unwrap();
    let p = point("b1", 60, 0.1);
    let (resps, _) = drive(
        &mut svc,
        &[
            ServeRequest::Point(Box::new(p.clone())),
            ServeRequest::Run { batch: "b1".into(), max_attempts: Some(2), deadline_ms: None },
        ],
    );
    let rs = results(&resps);
    assert_eq!(rs.len(), 1);
    let ServeOutcome::Panicked { message } = &rs[0].outcome else {
        panic!("expected panicked, got {:?}", rs[0].outcome)
    };
    assert!(message.contains("chaos: injected evaluation fault"), "{message}");
    assert_eq!(rs[0].attempts, 2);
    let h = svc.snapshot();
    assert_eq!((h.panics, h.retries), (1, 1));
    assert_eq!(svc.cached_results(), 0, "a panic is transient, not a fact about the point");
    // the chaos budget is spent: the same point now evaluates cleanly
    let (resps, _) = drive(&mut svc, &[ServeRequest::Point(Box::new(p)), run_req("b1")]);
    let rs = results(&resps);
    assert!(!rs[0].cached);
    assert!(matches!(rs[0].outcome, ServeOutcome::Ok { .. }), "{:?}", rs[0].outcome);
}

#[test]
fn shutdown_drains_queued_points_then_sheds_new_ones() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let (resps, alive) = drive(
        &mut svc,
        &[
            ServeRequest::Point(Box::new(point("b1", 1, 0.1))),
            ServeRequest::Point(Box::new(point("b2", 2, 0.1))),
            ServeRequest::Shutdown,
        ],
    );
    assert!(!alive, "shutdown ends the session");
    let rs = results(&resps);
    assert_eq!(rs.len(), 2, "queued points drain before exit");
    assert!(rs.iter().all(|r| matches!(r.outcome, ServeOutcome::Ok { .. })));
    let Some(ServeResponse::Status(h)) = resps.last() else {
        panic!("final record must be a status, got {:?}", resps.last())
    };
    assert!(h.draining);
    assert_eq!(h.queue_depth, 0);
    // stragglers after the drain get a typed shed, never silence
    let (resps, _) = drive(&mut svc, &[ServeRequest::Point(Box::new(point("b3", 9, 0.1)))]);
    let rs = results(&resps);
    let ServeOutcome::Shed { reason } = &rs[0].outcome else {
        panic!("expected shed, got {:?}", rs[0].outcome)
    };
    assert!(reason.contains("draining"), "{reason}");
}

#[test]
fn malformed_lines_get_typed_error_responses() {
    let svc = Service::new(quick_cfg()).unwrap();
    let mut buf = Vec::new();
    assert!(svc.handle_line("not json at all", &mut buf).unwrap());
    assert!(svc
        .handle_line("{\"schema\": \"noc-eval/serve/v1\", \"req\": \"warp\"}", &mut buf)
        .unwrap());
    assert!(svc.handle_line("", &mut buf).unwrap(), "blank lines are ignored");
    // values the old scanners wrapped, truncated or half-read: each is
    // now refused by name
    let good = ServeRequest::Point(Box::new(point("b", 1, 0.1))).to_json();
    let run = ServeRequest::Run { batch: "b".into(), max_attempts: Some(1), deadline_ms: None };
    let hostile = [
        (good.replace("\"router_delay\": 1", "\"router_delay\": 4294967297"), "router_delay"),
        (good.replace("\"vcs\": 2", "\"vcs\": 3.7"), "vcs"),
        (good.replace("\"seed\": 1", "\"seed\": 1, \"seed\": 2"), "seed"),
        (
            run.to_json().replace("\"max_attempts\": 1", "\"max_attempts\": 4294967296"),
            "max_attempts",
        ),
    ];
    for (line, _) in &hostile {
        assert_ne!(line, &good, "the probe must differ from the valid line");
        assert!(svc.handle_line(line, &mut buf).unwrap());
    }
    let text = String::from_utf8(buf).unwrap();
    let reasons: Vec<String> = text
        .lines()
        .map(|l| match parse_response(l).unwrap() {
            ServeResponse::Error { reason } => reason,
            other => panic!("expected a typed error, got {other:?}"),
        })
        .collect();
    assert_eq!(reasons.len(), 2 + hostile.len(), "one error per bad line");
    for ((_, field), reason) in hostile.iter().zip(&reasons[2..]) {
        assert!(reason.contains(&format!("\"{field}\"")), "{field}: {reason}");
    }
    assert_eq!(svc.snapshot().queue_depth, 0, "none of them was admitted");
    // and the service keeps serving
    let mut svc = svc;
    let (resps, alive) =
        drive(&mut svc, &[ServeRequest::Point(Box::new(point("b", 1, 0.1))), run_req("b")]);
    assert!(alive);
    assert!(matches!(resps.last(), Some(ServeResponse::BatchDone { points: 1, ok: 1, .. })));
}

#[test]
fn an_oversized_sweep_gets_a_typed_error_and_the_service_keeps_serving() {
    let mut svc = Service::new(quick_cfg()).unwrap();
    let sweep = |seeds: u64| {
        ServeRequest::Sweep(Box::new(SweepRequest {
            batch: "big".into(),
            net: point("big", 1, 0.1).net,
            patterns: vec![PatternKind::Uniform],
            loads: vec![0.1],
            seeds,
            packet_size: 1,
            warmup: 200,
            measure: 500,
            drain_max: 5_000,
            budget: None,
            allow_degraded: false,
            analytic_admission: false,
            max_attempts: None,
            deadline_ms: None,
        }))
    };
    // the roadmap's crasher: the expansion would overflow `with_capacity`
    let (resps, alive) = drive(&mut svc, &[sweep(4_000_000_000_000_000_000), sweep(2)]);
    assert!(alive);
    let ServeResponse::Error { reason } = &resps[0] else {
        panic!("expected a typed error, got {:?}", resps[0])
    };
    assert!(reason.contains("expands to more than"), "{reason}");
    assert_eq!(results(&resps).len(), 2, "the next sweep is answered normally");
    assert!(matches!(resps.last(), Some(ServeResponse::SweepDone { expanded: 2, ok: 2, .. })));
    assert_eq!(svc.snapshot().queue_depth, 0, "nothing of the rejected sweep was queued");
}

/// Collects a response stream, and at every flushed line for a freshly
/// evaluated point checks that the point's WAL record is already on
/// disk.
struct JournaledFirst {
    bytes: Vec<u8>,
    wal: std::path::PathBuf,
}

impl std::io::Write for JournaledFirst {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let text = std::str::from_utf8(&self.bytes).unwrap();
        let line = text.trim_end().rsplit('\n').next().unwrap();
        if let Ok(ServeResponse::Result(r)) = parse_response(line) {
            if !r.cached {
                let journal = std::fs::read_to_string(&self.wal).unwrap();
                assert!(
                    journal.contains(&format!("{}\t", r.key)),
                    "point {} was emitted before its WAL record",
                    r.point
                );
            }
        }
        Ok(())
    }
}

#[test]
fn slow_first_point_ahead_of_cache_hits_streams_identically_at_any_worker_count() {
    // near saturation with a long window: many times the work of the rest
    let slow = PointRequest { measure: 20_000, ..point("b", 900, 0.4) };
    let fast: Vec<_> = (0..4).map(|i| point("b", 901 + i, 0.1)).collect();
    let late = point("b", 990, 0.12);
    let streams: Vec<Vec<u8>> = [1, 2, 4]
        .into_iter()
        .map(|workers| {
            let wal = tmp(&format!("reorder{workers}.wal"));
            let mut svc =
                Service::new(ServeConfig { workers, wal: Some(wal.clone()), ..quick_cfg() })
                    .unwrap();
            assert_eq!(svc.workers(), workers);
            // answer the fast points once, so the batch under test finds
            // them in the cache
            let warm: Vec<ServeRequest> = fast
                .iter()
                .map(|p| {
                    ServeRequest::Point(Box::new(PointRequest {
                        batch: "warm".into(),
                        ..p.clone()
                    }))
                })
                .chain([run_req("warm")])
                .collect();
            drive(&mut svc, &warm);
            let mut out = JournaledFirst { bytes: Vec::new(), wal: wal.clone() };
            for p in [&slow].into_iter().chain(&fast).chain([&late]) {
                svc.handle_line(&ServeRequest::Point(Box::new(p.clone())).to_json(), &mut out)
                    .unwrap();
            }
            svc.handle_line(&run_req("b").to_json(), &mut out).unwrap();
            let _ = std::fs::remove_file(&wal);
            out.bytes
        })
        .collect();
    let text = String::from_utf8(streams[0].clone()).unwrap();
    let rs = results(&text.lines().map(|l| parse_response(l).expect(l)).collect::<Vec<_>>());
    let seqs: Vec<u64> = rs.iter().map(|r| r.point).collect();
    assert_eq!(seqs, [0, 1, 2, 3, 4, 5], "results leave in submission order");
    let cached: Vec<bool> = rs.iter().map(|r| r.cached).collect();
    assert_eq!(cached, [false, true, true, true, true, false]);
    assert!(text.lines().last().unwrap().contains("batch-done"));
    assert_eq!(streams[0], streams[1], "1 worker vs 2");
    assert_eq!(streams[0], streams[2], "1 worker vs 4");
}

/// A stream whose reader is gone.
struct HungUp;

impl std::io::Write for HungUp {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::BrokenPipe.into())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn dropping_a_service_with_jobs_still_queued_joins_cleanly() {
    for round in 0..50u64 {
        let svc = Service::new(ServeConfig { workers: 1, ..quick_cfg() }).unwrap();
        if round % 2 == 0 {
            // the first result line fails to send while the one worker
            // still has three of the batch's jobs queued behind it
            for i in 0..4 {
                let p = point("b", 2_000 + 4 * round + i, 0.1);
                svc.handle_line(&ServeRequest::Point(Box::new(p)).to_json(), &mut HungUp).unwrap();
            }
            let err = svc.handle_line(&run_req("b").to_json(), &mut HungUp).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        }
        // the drop joins the pool: returning at all is the assertion
        drop(svc);
    }
}
