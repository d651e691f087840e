//! # noc-bench — benchmark harness
//!
//! One binary per paper table/figure (`fig01`..`fig22`, `table1`..
//! `table4`), an umbrella `repro` binary that regenerates everything,
//! and criterion performance benches (`sim_speed`, `ablations`).
//!
//! Every binary accepts an effort argument: `quick` (seconds, CI-sized)
//! or `paper` (the default; the full reproduction scale).

use noc_eval::Effort;

/// Parse the effort from `argv[1]`, defaulting to `paper`.
pub fn effort_from_args() -> Effort {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "paper".to_string());
    Effort::parse(&arg).unwrap_or_else(|| {
        eprintln!("unknown effort `{arg}`, expected quick|paper; using paper");
        Effort::paper()
    })
}

/// Thread-scaling report (`BENCH_scalability.json`, schema
/// `noc-eval/scalability/v1`) as the `scalability` bin measures it.
#[derive(Debug, Clone)]
pub struct ScalabilityReport {
    /// Grid points timed at every thread count.
    pub points: usize,
    /// Hardware threads the host reported.
    pub host_parallelism: usize,
    /// Whether every thread count reproduced the serial results.
    pub identical_results: bool,
    /// `(threads, wall seconds, speedup vs serial)` in run order.
    pub entries: Vec<(usize, f64, f64)>,
}

impl ScalabilityReport {
    /// Serialize to the `BENCH_scalability.json` schema.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"noc-eval/scalability/v1\",\n");
        out.push_str(&format!(
            "  \"points\": {},\n  \"host_parallelism\": {},\n  \"identical_results\": {},\n  \"entries\": [\n",
            self.points, self.host_parallelism, self.identical_results
        ));
        for (i, (t, wall, speedup)) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"threads\": {t}, \"wall_s\": {wall:.4}, \"speedup_vs_serial\": {speedup:.3}}}{}\n",
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}
