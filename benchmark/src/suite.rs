//! `check` and `repeat`: the whole suite, one child process per run
//! (so every run has its own peak RSS and cannot disturb the next).

use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::report::BenchError;
use crate::spec;
use crate::stats::{median, relative_spread};

/// One finished child run.
struct Ran {
    /// The result line, parsed.
    result: Json,
    /// The informational line before it, parsed (its `info` member).
    info: Json,
}

impl Ran {
    fn value(&self, metric: &str) -> f64 {
        let m = self.result.get("metrics").and_then(|m| m.get(metric));
        m.and_then(|m| m.get("value")).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn digest(&self) -> &str {
        self.info.get("result_digest").and_then(Json::as_str).unwrap_or("")
    }
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Ran, BenchError> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        Json::parse(line.unwrap_or("")).map_err(|e| {
            BenchError::Protocol(format!(
                "{workload} (trace {}) exited with {} and printed no result ({e}): {}",
                traced as u8,
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        })
    };
    let result = parse(lines.next())?;
    let info = parse(lines.next())?.get("info").cloned().unwrap_or(Json::Null);
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    Ok(Ran { result, info })
}

/// The smoke: every workload's correctness checks at a fraction of the
/// scale, both run kinds, each printed line validated against the
/// `BENCHMARK.json` in the working directory.
pub fn check() -> Result<bool, BenchError> {
    let clock = Instant::now();
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
        BenchError::Usage(format!("BENCHMARK.json (run from the repository root): {e}"))
    })?;
    let spec_json = Json::parse(&text).map_err(BenchError::Usage)?;
    let mut ok = true;
    let mut complain = |why: String| {
        eprintln!("check: {why}");
        ok = false;
    };
    if text != spec::benchmark_json() {
        complain("BENCHMARK.json is not what `noc-benchmark spec` prints".into());
    }
    let named: Vec<&str> = spec_json
        .get("workloads")
        .and_then(Json::as_arr)
        .map(|w| w.iter().filter_map(|w| w.get("name").and_then(Json::as_str)).collect())
        .unwrap_or_default();
    if named != spec::WORKLOADS.map(|w| w.0) {
        complain(format!("BENCHMARK.json names workloads {named:?}"));
    }
    for workload in named {
        let untraced = run_child(workload, 1, 0.4, false, true)?;
        let traced = run_child(workload, 1, 0.4, true, true)?;
        for (ran, is_traced) in [(&untraced, false), (&traced, true)] {
            if let Err(why) = spec::validate_result(&ran.result, &spec_json, is_traced) {
                complain(format!("{workload} (trace {}): {why}", is_traced as u8));
            }
        }
        if untraced.digest().is_empty() || untraced.digest() != traced.digest() {
            complain(format!(
                "{workload}: result_digest {:?} untraced, {:?} traced",
                untraced.digest(),
                traced.digest()
            ));
        }
        eprintln!("check: {workload} done at {:.1} s", clock.elapsed().as_secs_f64());
    }
    println!(
        "check: {} in {:.1} s",
        if ok { "ok" } else { "FAILED" },
        clock.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn object(members: Vec<(String, String)>) -> String {
    let rows: Vec<String> = members.into_iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", rows.join(", "))
}

/// One seed's two runs of one workload.
struct Pair {
    seed: u64,
    untraced: Ran,
    traced: Ran,
}

impl Pair {
    /// Traced wall over untraced wall, minus one.
    fn trace_overhead_frac(&self) -> f64 {
        self.untraced.value("ops_per_s") / self.traced.value("trace.ops_per_s") - 1.0
    }

    fn json(&self) -> String {
        let section = |ran: &Ran, traced: bool| {
            object(
                spec::names(traced)
                    .iter()
                    .map(|n| (n.to_string(), format!("{:?}", ran.value(n))))
                    .collect(),
            )
        };
        object(vec![
            ("result_digest".into(), format!("\"{}\"", self.untraced.digest())),
            ("trace_overhead_frac".into(), format!("{:?}", self.trace_overhead_frac())),
            ("end_to_end".into(), section(&self.untraced, false)),
            ("per_layer".into(), section(&self.traced, true)),
        ])
    }
}

/// What must hold whatever the host does: every run correct, the traced
/// digest equal to the untraced one, and — between sets of one seed —
/// equal digests and equal `count` metrics. Says what does not.
fn consistent(workload: &str, pairs: &[Pair], one_seed: bool) -> bool {
    let mut ok = true;
    let mut complain = |why: String| {
        eprintln!("repeat: {workload}: {why}");
        ok = false;
    };
    for (set, p) in pairs.iter().enumerate() {
        for ran in [&p.untraced, &p.traced] {
            if ran.result.get("correct").and_then(Json::as_bool) != Some(true) {
                complain(format!("set {set}: incorrect run"));
            }
        }
        if p.untraced.digest() != p.traced.digest() {
            complain(format!("set {set}: traced digest differs from untraced"));
        }
    }
    if one_seed {
        if pairs.iter().any(|p| p.untraced.digest() != pairs[0].untraced.digest()) {
            complain("result_digest differs between sets".into());
        }
        for (name, _, _) in spec::PER_LAYER.iter().filter(|m| m.1 == "count") {
            let values: Vec<f64> = pairs.iter().map(|p| p.traced.value(name)).collect();
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                complain(format!("count {name} differs between sets: {values:?}"));
            }
        }
    }
    ok
}

/// Each end-to-end metric's median and run-to-run spread against its
/// bound, as a JSON object; false on a breach. As in the benchmark's
/// acceptance procedure, `setup_s` is held to its bound between
/// sessions' medians only, not within a session: its spread is printed
/// but never a breach.
fn spreads(workload: &str, pairs: &[Pair]) -> (String, bool) {
    let mut ok = true;
    let rows = spec::END_TO_END
        .iter()
        .map(|(name, _, _, bound)| {
            let values: Vec<f64> = pairs.iter().map(|p| p.untraced.value(name)).collect();
            let spread = relative_spread(&values);
            if spread > *bound && *name != "setup_s" {
                eprintln!(
                    "repeat: {workload}: {name} spread {spread:.4} exceeds its bound {bound}"
                );
                ok = false;
            }
            let row = format!(
                "{{\"median\": {:?}, \"spread\": {spread:?}, \"bound\": {bound:?}}}",
                median(&values)
            );
            (name.to_string(), row)
        })
        .collect();
    (object(rows), ok)
}

/// Run every workload `sets` times over (a set is every workload once,
/// untraced then traced), print one JSON document with every number and
/// each end-to-end metric's run-to-run spread against its bound; fail on
/// a breach or an inconsistency (see [`consistent`]).
pub fn repeat(sets: usize, seed: u64, vary_seed: bool, seconds: f64) -> Result<bool, BenchError> {
    let mut pairs: Vec<Vec<Pair>> = spec::WORKLOADS.iter().map(|_| Vec::new()).collect();
    for set in 0..sets {
        let seed = if vary_seed { seed + set as u64 } else { seed };
        for ((workload, _), pairs) in spec::WORKLOADS.iter().zip(&mut pairs) {
            let untraced = run_child(workload, seed, seconds, false, false)?;
            let traced = run_child(workload, seed, seconds, true, false)?;
            let pair = Pair { seed, untraced, traced };
            eprintln!(
                "repeat: set {set} seed {seed} {workload}: {:.4} ops/s, trace_overhead_frac {:.4}",
                pair.untraced.value("ops_per_s"),
                pair.trace_overhead_frac()
            );
            pairs.push(pair);
        }
    }
    let mut ok = true;
    let mut spread_rows = Vec::new();
    for ((workload, _), pairs) in spec::WORKLOADS.iter().zip(&pairs) {
        let (row, within) = spreads(workload, pairs);
        ok &= within & consistent(workload, pairs, !vary_seed);
        spread_rows.push((workload.to_string(), row));
    }
    let sets_json: Vec<String> = (0..sets)
        .map(|set| {
            let rows = spec::WORKLOADS.iter().zip(&pairs);
            let rows = rows.map(|((workload, _), pairs)| (workload.to_string(), pairs[set].json()));
            format!(
                "    {{\"seed\": {}, \"workloads\": {}}}",
                pairs[0][set].seed,
                object(rows.collect())
            )
        })
        .collect();
    println!(
        "{{\n  \"schema\": \"noc-benchmark/repeat/v1\",\n  \"run_seconds\": {seconds:?},\n  \
         \"available_parallelism\": {},\n  \"ok\": {ok},\n  \"sets\": [\n{}\n  ],\n  \
         \"spread\": {}\n}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sets_json.join(",\n"),
        object(spread_rows)
    );
    Ok(ok)
}
