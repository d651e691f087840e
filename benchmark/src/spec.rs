//! The benchmark's contract: workload names, metric names, units and
//! bounds — the one table `BENCHMARK.json` is generated from
//! (`noc-benchmark spec`) and every emitted result is checked against.

use crate::json::Json;

/// How long one run measures; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 8;

/// Workload name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("sim-loaded", "16x16 and 32x32 mesh at ~81% of saturation, 1 thread: allocation-bound engine (ns per flit-hop); generation is <5% of the window"),
    ("sim-sparse", "32x32 mesh and torus at load 0.001, 1 thread: per-cycle fixed cost and traffic generation dominate, flit work is negligible"),
    ("grid-closedloop", "60-point batch/enhanced/cmp-sim grid on 2 workers via run_grid_with: the paper's closed-loop pull/deliver path, Network::new per point, grid dispatch and tail"),
    ("serve-fleet", "real noc-serve binary over its Unix socket, 1 closed-loop client, distinct 8-point sweeps: parse, admission, queue, chunked evaluation, WAL fsync, emit; then SIGTERM and WAL resume"),
    ("serve-cached", "same binary, 2 closed-loop clients replaying already-answered sweeps: no simulation, pure schema/lock/socket cost of the request path"),
    ("serve-admission", "same replay with analytic_admission on and two past-saturation rungs answered degraded: isolates AnalyticModel::of on the admission path"),
];

/// One end-to-end metric: name, unit, better direction, bound.
///
/// The bounds are the widest the contract allows. They are sized from
/// the 2-core shared host this was written on, not from what the code
/// deserves: between ten-run sessions of the same commit the medians of
/// rate and latency moved by up to 19 %, and the interquartile spread
/// within a session reached 15 % (README, "How steady it is"). A bound
/// tighter than the host is a coin toss.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p25_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// One per-layer metric: name, unit, better direction. A workload
/// reports 0 for a layer that is not on its path. Unit `count` is kept
/// for counts over a workload's fixed part, which repeat exactly from
/// run to run; tallies that grow with the run's length are `events`.
pub const PER_LAYER: [(&str, &str, &str); 84] = [
    // the traced run's own rate (for trace_overhead_frac) and latency
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.op_p50_ms", "ms", "lower"),
    ("trace.op_p90_ms", "ms", "lower"),
    ("trace.spans", "events", "lower"),
    // noc-sim: host time (all measured rounds), then counts over the fixed part
    ("noc-sim.new_us", "us", "lower"),
    ("noc-sim.run_s", "s", "lower"),
    ("noc-sim.self_s", "s", "lower"),
    ("noc-sim.self_share", "%", "lower"),
    ("noc-sim.drain_s", "s", "lower"),
    ("noc-sim.ns_per_flit_hop", "ns", "lower"),
    ("noc-sim.ns_per_router_cycle", "ns", "lower"),
    ("noc-sim.cycles", "count", "lower"),
    ("noc-sim.steps", "count", "lower"),
    ("noc-sim.flit_hops", "count", "lower"),
    ("noc-sim.flits_injected", "count", "higher"),
    ("noc-sim.packets_delivered", "count", "higher"),
    ("noc-sim.va_grants", "count", "higher"),
    ("noc-sim.va_blocked", "count", "lower"),
    ("noc-sim.sa_conflicts", "count", "lower"),
    ("noc-sim.sa_credit_starved", "count", "lower"),
    ("noc-sim.va_grant_ratio", "ratio", "higher"),
    ("noc-sim.sa_grant_ratio", "ratio", "higher"),
    ("noc-sim.mesh16.ns_per_flit_hop", "ns", "lower"),
    ("noc-sim.mesh16.cycles_per_s", "1/s", "higher"),
    ("noc-sim.mesh16.avg_latency_cycles", "cycles", "lower"),
    ("noc-sim.mesh32.ns_per_flit_hop", "ns", "lower"),
    ("noc-sim.mesh32.cycles_per_s", "1/s", "higher"),
    ("noc-sim.mesh32.avg_latency_cycles", "cycles", "lower"),
    ("noc-sim.torus32.ns_per_flit_hop", "ns", "lower"),
    ("noc-sim.torus32.cycles_per_s", "1/s", "higher"),
    ("noc-sim.torus32.avg_latency_cycles", "cycles", "lower"),
    // noc-openloop / noc-traffic
    ("noc-openloop.behavior_new_us", "us", "lower"),
    ("noc-openloop.generate_s", "s", "lower"),
    ("noc-openloop.generate_share", "%", "lower"),
    ("noc-openloop.generate_calls", "count", "lower"),
    ("noc-openloop.deliver_s", "s", "lower"),
    ("noc-openloop.deliver_calls", "count", "lower"),
    ("noc-openloop.packets_generated", "count", "higher"),
    ("noc-traffic.fire_ns", "ns", "lower"),
    ("noc-traffic.dest_ns", "ns", "lower"),
    // noc-closedloop / cmp-sim
    ("noc-closedloop.points", "count", "higher"),
    ("noc-closedloop.point_p50_ms", "ms", "lower"),
    ("noc-closedloop.behavior_s", "s", "lower"),
    ("noc-closedloop.sim_cycles", "count", "lower"),
    ("noc-closedloop.cycles_per_s", "1/s", "higher"),
    ("cmp-sim.points", "count", "higher"),
    ("cmp-sim.point_p50_ms", "ms", "lower"),
    ("cmp-sim.sim_cycles", "count", "lower"),
    ("cmp-sim.cycles_per_s", "1/s", "higher"),
    ("cmp-sim.instructions", "count", "higher"),
    // noc-exp: grid engine, then the WAL
    ("noc-exp.points", "count", "higher"),
    ("noc-exp.busy_s", "s", "lower"),
    ("noc-exp.idle_frac", "ratio", "lower"),
    ("noc-exp.tail_s", "s", "lower"),
    ("noc-exp.point_max_ms", "ms", "lower"),
    ("noc-exp.wal_append_us", "us", "lower"),
    ("noc-exp.wal_commit_us", "us", "lower"),
    ("noc-exp.wal_replay_ms", "ms", "lower"),
    ("noc-exp.wal_bytes_per_record", "B", "lower"),
    // noc-analytic: host cost, then error against noc-sim (simulated)
    ("noc-analytic.model_of_us.mesh8", "us", "lower"),
    ("noc-analytic.model_of_us.mesh16", "us", "lower"),
    ("noc-analytic.latency_at_ns", "ns", "lower"),
    ("noc-analytic.zero_load_rel_err", "ratio", "lower"),
    ("noc-analytic.latency_rel_err", "ratio", "lower"),
    // noc-eval serve schema
    ("noc-eval.parse_request_us", "us", "lower"),
    ("noc-eval.expand_us", "us", "lower"),
    ("noc-eval.key_us", "us", "lower"),
    ("noc-eval.emit_result_us", "us", "lower"),
    ("noc-eval.outcome_canonical_us", "us", "lower"),
    ("noc-eval.outcome_parse_us", "us", "lower"),
    // noc-serve: in-process Service, then the binary
    ("noc-serve.sweep_cold_ms", "ms", "lower"),
    ("noc-serve.sweep_cached_us", "us", "lower"),
    ("noc-serve.sweep_admission_us", "us", "lower"),
    ("noc-serve.cached_self_us", "us", "lower"),
    ("noc-serve.worker_util", "ratio", "higher"),
    ("noc-serve.service_new_ms", "ms", "lower"),
    ("noc-serve.wire_overhead_us", "us", "lower"),
    ("noc-serve.resume_ready_ms", "ms", "lower"),
    ("noc-serve.completed", "events", "higher"),
    ("noc-serve.cache_hits", "events", "higher"),
    ("noc-serve.degraded", "events", "lower"),
    ("noc-serve.wal_records", "events", "lower"),
    ("noc-serve.binary_sweep_p50_us", "us", "lower"),
    ("noc-serve.binary_sweep_p90_us", "us", "lower"),
];

/// Unit of a named metric of the given run kind, if the name exists.
pub fn unit_of(name: &str, traced: bool) -> Option<&'static str> {
    if traced {
        PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1)
    } else {
        END_TO_END.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Metric names a run of the given kind must print, in table order.
pub fn names(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}

/// The text of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
                 \"bound\": {bound:?}}}"
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Check one printed result line against a parsed `BENCHMARK.json`:
/// exactly the four contract keys, and under `metrics` every metric the
/// file names for this run kind — with its unit — and no other.
pub fn validate_result(result: &Json, spec: &Json, traced: bool) -> Result<(), String> {
    let keys: Vec<&str> =
        result.as_obj().ok_or("result is not an object")?.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("result is not marked correct".into());
    }
    let attempted = result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
    if attempted < 1.0 || attempted.fract() != 0.0 {
        return Err(format!("attempted = {attempted}"));
    }
    if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
        return Err("failed operations reported".into());
    }
    let section = if traced { "per_layer" } else { "end_to_end" };
    let wanted = spec.get(section).and_then(Json::as_arr).ok_or("spec section missing")?;
    let got = result.get("metrics").and_then(Json::as_obj).ok_or("metrics is not an object")?;
    for m in wanted {
        let name = m.get("name").and_then(Json::as_str).ok_or("spec metric without a name")?;
        let unit = m.get("unit").and_then(Json::as_str).ok_or("spec metric without a unit")?;
        let entry = result.get("metrics").and_then(|g| g.get(name));
        let entry = entry.ok_or_else(|| format!("metric {name} is missing"))?;
        if entry.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("metric {name} does not carry unit {unit}"));
        }
        let value = entry.get("value").and_then(Json::as_f64);
        match value {
            Some(v) if v.is_finite() && (traced || v > 0.0) => {}
            _ => return Err(format!("metric {name} has value {value:?}")),
        }
    }
    match got
        .iter()
        .find(|(k, _)| !wanted.iter().any(|m| m.get("name").and_then(Json::as_str) == Some(k)))
    {
        Some((k, _)) => Err(format!("metric {k} is not named in {section}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `noc-benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn generated_spec_meets_the_format_limits() {
        let spec = Json::parse(&benchmark_json()).unwrap();
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for m in spec.get(section).and_then(Json::as_arr).unwrap() {
                let name = m.get("name").and_then(Json::as_str).unwrap();
                assert!(ok_name(name), "{name}");
                assert!(seen.insert(name.to_string()), "{name} is used twice");
                if section == "workloads" {
                    let why = m.get("why").and_then(Json::as_str).unwrap();
                    assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is too long");
                } else {
                    assert!(ok_unit(m.get("unit").and_then(Json::as_str).unwrap()), "{name}");
                    let better = m.get("better").and_then(Json::as_str).unwrap();
                    assert!(better == "lower" || better == "higher");
                }
            }
        }
        let e2e = spec.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert!(e2e.iter().all(|m| m.get("bound").and_then(Json::as_f64).unwrap() <= 0.25));
        assert!(e2e.iter().any(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")));
        assert!(PER_LAYER.len() <= 128 && benchmark_json().len() < 64 * 1024);
        let secs = spec.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs));
    }

    #[test]
    fn validate_result_names_what_is_wrong() {
        let spec = Json::parse(&benchmark_json()).unwrap();
        let line = |metrics: &str| {
            Json::parse(&format!(
                "{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{metrics}}}}}"
            ))
            .unwrap()
        };
        let all: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}", m.0, m.1))
            .collect();
        assert_eq!(validate_result(&line(&all.join(", ")), &spec, false), Ok(()));
        let missing = validate_result(&line(&all[1..].join(", ")), &spec, false).unwrap_err();
        assert!(missing.contains("ops_per_s is missing"), "{missing}");
        let extra = format!("{}, \"bogus\": {{\"value\": 1, \"unit\": \"s\"}}", all.join(", "));
        let err = validate_result(&line(&extra), &spec, false).unwrap_err();
        assert!(err.contains("bogus is not named"), "{err}");
        let wrong_unit = all.join(", ").replace("\"unit\": \"ms\"", "\"unit\": \"us\"");
        let err = validate_result(&line(&wrong_unit), &spec, false).unwrap_err();
        assert!(err.contains("does not carry unit ms"), "{err}");
        let zero = all.join(", ").replacen("1.5", "0", 1);
        assert!(validate_result(&line(&zero), &spec, false).is_err(), "end-to-end zero");
    }
}
