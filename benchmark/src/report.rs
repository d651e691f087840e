//! What one run reports, and the two lines it prints.

use std::fmt;
use std::path::PathBuf;

use crate::spec;
use crate::stats::{percentile, sorted, supported_tail, Digest};

/// Why a run could not produce a report at all (as opposed to a report
/// with failed operations): always a typed error, never a hang.
#[derive(Debug)]
pub enum BenchError {
    /// The `noc-serve` binary under test is not where it should be.
    BinaryMissing(PathBuf),
    /// The server did not bind its socket in time.
    SocketTimeout {
        socket: PathBuf,
        waited_ms: u64,
    },
    /// The server exited when it should have been serving, or did not
    /// exit 0 on `SIGTERM`.
    ServerExit(String),
    /// A response stream ended or broke mid-request.
    Protocol(String),
    Io(std::io::Error),
    Usage(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::BinaryMissing(p) => write!(
                f,
                "{} not found; build it first (cargo build --release --offline -p noc-serve, \
                 or use benchmark/run.sh)",
                p.display()
            ),
            BenchError::SocketTimeout { socket, waited_ms } => {
                write!(f, "noc-serve did not bind {} within {waited_ms} ms", socket.display())
            }
            BenchError::ServerExit(why) => write!(f, "noc-serve: {why}"),
            BenchError::Protocol(why) => write!(f, "protocol: {why}"),
            BenchError::Io(e) => write!(f, "io: {e}"),
            BenchError::Usage(why) => write!(f, "{why}"),
        }
    }
}

impl From<noc_sim::ConfigError> for BenchError {
    /// The benchmark only builds configurations it pinned itself, so a
    /// rejected one is a mistake in the workload definition.
    fn from(e: noc_sim::ConfigError) -> Self {
        BenchError::Usage(format!("workload definition rejected: {e}"))
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (rounds, points, or result lines).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub failures: Vec<String>,
    /// Measured metrics by name; units come from [`spec`].
    pub metrics: Vec<(String, f64)>,
    /// Informational values printed beside the metrics.
    pub info: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Record `ops` failed operations (at least one) and why.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops.max(1);
        self.failures.push(why.into());
    }

    /// Fail unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, why());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn digest(&mut self, d: Digest) {
        self.info.push(("result_digest", format!("{:016x}", d.0)));
    }

    /// The rate and latency every workload shares. End-to-end, and
    /// bounded: `ops_per_s` (the sum of its lanes'
    /// [`crate::stats::steady_rate`]) and the nearest-rank
    /// **lower-quartile** operation latency — on this shared host the
    /// statistics that follow the code rather than the neighbours
    /// (README, "How steady it is"). The median and the p90 are always
    /// stated, with the sample count and the highest percentile that
    /// count supports, but not bounded: on the informational line, and
    /// as `trace.*` metrics of the traced run (whose rate gives the
    /// trace's overhead).
    pub fn rate_and_latency(&mut self, ops_per_s: f64, latencies_ms: Vec<f64>, traced: bool) {
        let lat = sorted(latencies_ms);
        let (p50, p90) = (percentile(&lat, 50.0), percentile(&lat, 90.0));
        if traced {
            self.metric("trace.ops_per_s", ops_per_s);
            self.metric("trace.op_p50_ms", p50);
            self.metric("trace.op_p90_ms", p90);
        } else {
            self.metric("ops_per_s", ops_per_s);
            self.metric("op_p25_ms", percentile(&lat, 25.0));
        }
        self.info.push(("op_p50_ms", format!("{p50:.6}")));
        self.info.push(("op_p90_ms", format!("{p90:.6}")));
        self.info.push(("latency_samples", lat.len().to_string()));
        let tail = supported_tail(lat.len()).map_or("none".into(), |p| format!("p{p}"));
        self.info.push(("highest_supported_percentile", tail));
    }

    /// Print the informational line, then — last — the result line.
    /// Every metric the contract names for this run kind is printed; a
    /// per-layer metric this workload did not measure reads 0 (the
    /// layer is not on its path), an end-to-end one is a failure.
    pub fn print(&mut self, workload: &str, seed: u64, traced: bool) {
        let mut rows = Vec::new();
        for name in spec::names(traced) {
            let measured = self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
            let value = match measured {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.fail(1, format!("metric {name} is {v}"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.fail(1, format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            let unit = spec::unit_of(name, traced).expect("name comes from the table");
            rows.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        if let Some((stray, _)) =
            self.metrics.iter().find(|(n, _)| spec::unit_of(n, traced).is_none())
        {
            let stray = stray.clone();
            self.fail(1, format!("metric {stray} is not named in BENCHMARK.json"));
        }
        for why in &self.failures {
            eprintln!("noc-benchmark: {workload}: FAILED: {why}");
        }
        let info: Vec<String> =
            self.info.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
        println!(
            "{{\"info\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": {traced}, {}}}}}",
            info.join(", ")
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            rows.join(", ")
        );
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, BenchError> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError::Protocol(format!("no VmHWM in /proc/{pid}/status")))
}
