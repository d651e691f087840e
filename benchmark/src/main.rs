//! `noc-benchmark` — the repo benchmark (see `README.md`).
//!
//! ```text
//! noc-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! noc-benchmark check
//! noc-benchmark repeat [--sets N] [--seed N] [--vary-seed] [--seconds S]
//! noc-benchmark spec
//! ```
//!
//! `run` executes one workload in this process and prints, last, the
//! result line `BENCHMARK.json` describes. Run it from the repository
//! root (`benchmark/run.sh` does): traces and the serve workloads'
//! scratch files go under `benchmark/out/`.

mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod suite;
mod timed;
mod trace;
mod workloads;

use std::path::PathBuf;

use report::{BenchError, Report};
use trace::Tracer;

/// Where everything the benchmark writes goes (relative to the
/// repository root, which is the working directory).
pub const OUT_DIR: &str = "benchmark/out";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn usage(why: &str) -> BenchError {
    BenchError::Usage(format!(
        "{why}\nusage: noc-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
         \u{20}      noc-benchmark check | spec | repeat [--sets N] [--seed N] [--vary-seed] [--seconds S]\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.0).join(", ")
    ))
}

/// `--flag value` pairs and bare `--flag`s after the subcommand.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, BenchError> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| usage(&format!("{name} cannot take {raw:?}"))),
    }
}

fn run_args(args: &[String]) -> Result<RunArgs, BenchError> {
    let workload = flag(args, "--workload").ok_or_else(|| usage("--workload is required"))?;
    let seconds: f64 = parse_flag(args, "--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(usage("--seconds must be in (0, 60]"));
    }
    Ok(RunArgs {
        workload: workload.to_string(),
        seed: parse_flag(args, "--seed", 1)?,
        seconds,
        traced: parse_flag::<u8>(args, "--trace", 0)? != 0,
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

fn run_workload(a: &RunArgs, tracer: Option<&mut Tracer>) -> Result<Report, BenchError> {
    use workloads::{grid, serve, sim};
    match a.workload.as_str() {
        "sim-loaded" => sim::run(&sim::spec(true, a.smoke), a.seed, a.seconds, tracer),
        "sim-sparse" => sim::run(&sim::spec(false, a.smoke), a.seed, a.seconds, tracer),
        "grid-closedloop" => grid::run(&grid::spec(a.smoke), a.seed, a.seconds, tracer),
        "serve-fleet" => serve::run(serve::Phase::Cold, a.smoke, a.seed, a.seconds, tracer),
        "serve-cached" => serve::run(serve::Phase::Cached, a.smoke, a.seed, a.seconds, tracer),
        "serve-admission" => {
            serve::run(serve::Phase::Admission, a.smoke, a.seed, a.seconds, tracer)
        }
        other => Err(usage(&format!("unknown workload {other:?}"))),
    }
}

fn run(args: &[String]) -> Result<bool, BenchError> {
    let a = run_args(args)?;
    let mut tracer = a.traced.then(Tracer::default);
    let mut report = run_workload(&a, tracer.as_mut())?;
    if let Some(t) = &tracer {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", a.workload));
        t.write_json(&path, &a.workload, a.seed)?;
    }
    report.print(&a.workload, a.seed, a.traced);
    Ok(report.correct())
}

fn repeat(args: &[String]) -> Result<bool, BenchError> {
    suite::repeat(
        parse_flag(args, "--sets", 2)?,
        parse_flag(args, "--seed", 1)?,
        args.iter().any(|a| a == "--vary-seed"),
        parse_flag(args, "--seconds", spec::RUN_SECONDS as f64)?,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(rest),
        Some("check") => suite::check(),
        Some("repeat") => repeat(rest),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => Err(usage("expected a subcommand")),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("noc-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
