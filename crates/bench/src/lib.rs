//! # noc-bench — benchmark harness
//!
//! One binary per paper table/figure (`fig01`..`fig22`, `table1`..
//! `table4`), an umbrella `repro` binary that regenerates everything,
//! and criterion performance benches (`sim_speed`, `ablations`).
//!
//! Every binary accepts an effort argument: `quick` (seconds, CI-sized)
//! or `paper` (the default; the full reproduction scale).

use noc_eval::json::{rows, Obj};
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
        let entries = self.entries.iter().map(|&(threads, wall, speedup)| {
            Obj::new().val("threads", threads).fixed("wall_s", wall, 4).fixed(
                "speedup_vs_serial",
                speedup,
                3,
            )
        });
        Obj::document("noc-eval/scalability/v1")
            .val("points", self.points)
            .val("host_parallelism", self.host_parallelism)
            .val("identical_results", self.identical_results)
            .val("entries", rows(2, entries))
            .finish()
    }
}
