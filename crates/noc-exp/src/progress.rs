//! Grid progress telemetry: per-point completion events with elapsed
//! time, completion rate, and an ETA, emitted to stderr while a sweep
//! runs.
//!
//! Long paper-scale grids previously ran silent for minutes; the only
//! sign of life was the journal file growing. [`Progress`] gives the
//! robust grid runner a heartbeat without touching results:
//! it only *counts* completions, so enabling or disabling it cannot
//! change what a sweep computes.
//!
//! Emission policy: `NOC_PROGRESS=1` forces lines on, `NOC_PROGRESS=0`
//! forces them off, and with the variable unset lines appear only when
//! stderr is a terminal — so CI logs and test harnesses stay clean by
//! default while an interactive run gets feedback. Lines are throttled
//! to one every few hundred milliseconds (plus a final one at 100%) so
//! a grid of ten thousand cheap points cannot flood the console.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum gap between two emitted progress lines.
const THROTTLE: Duration = Duration::from_millis(250);

/// Decide whether to emit given the `NOC_PROGRESS` value (if any) and
/// whether stderr is a terminal. Split out from the environment for
/// testability: `"0"`/`"false"`/`"off"` disable, any other non-empty
/// value enables, unset falls back to the terminal check.
pub(crate) fn emission_policy(var: Option<&str>, stderr_is_terminal: bool) -> bool {
    match var.map(str::trim) {
        Some("0") | Some("false") | Some("off") => false,
        Some("") | None => stderr_is_terminal,
        Some(_) => true,
    }
}

/// Render one progress line; pure so the format is testable.
pub(crate) fn status_line(label: &str, done: usize, total: usize, elapsed: Duration) -> String {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
    let pct = if total > 0 { 100.0 * done as f64 / total as f64 } else { 100.0 };
    let eta = if rate > 0.0 && done < total {
        format!("{:.0}s", (total - done) as f64 / rate)
    } else {
        "--".to_string()
    };
    format!(
        "{label}: {done}/{total} points ({pct:.0}%) | {rate:.1} pts/s | elapsed {secs:.1}s | eta {eta}"
    )
}

/// Render the end-of-grid throughput summary; pure for testability.
pub(crate) fn summary_line(label: &str, total: usize, elapsed: Duration) -> String {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 { total as f64 / secs } else { 0.0 };
    format!("{label}: {total} points in {secs:.1}s ({rate:.1} pts/s)")
}

/// A thread-safe grid progress meter.
///
/// Workers call [`Progress::point_done`] as each point completes (from
/// any thread); the meter throttles and prints to stderr when emission
/// is enabled. Call [`Progress::finish`] once at the end for the
/// throughput summary; it also *returns* the summary line so callers
/// (bench binaries, reports) can log it elsewhere.
pub struct Progress {
    label: String,
    total: usize,
    done: AtomicUsize,
    started: Instant,
    emit: bool,
    last_emit: Mutex<Instant>,
}

impl Progress {
    /// A meter with explicit emission control (no environment access).
    pub fn new(label: &str, total: usize, emit: bool) -> Self {
        let now = Instant::now();
        Self {
            label: label.to_string(),
            total,
            done: AtomicUsize::new(0),
            started: now,
            emit,
            // backdate so the very first completion may emit immediately
            last_emit: Mutex::new(now.checked_sub(THROTTLE).unwrap_or(now)),
        }
    }

    /// A meter whose emission follows `NOC_PROGRESS` / the terminal
    /// check described at the module level.
    pub fn from_env(label: &str, total: usize) -> Self {
        let var = std::env::var("NOC_PROGRESS").ok();
        let emit = emission_policy(var.as_deref(), std::io::stderr().is_terminal());
        Self::new(label, total, emit)
    }

    /// Record one completed point; possibly emit a throttled line.
    pub fn point_done(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.emit {
            return;
        }
        let now = Instant::now();
        let mut last = self.last_emit.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if done < self.total && now.duration_since(*last) < THROTTLE {
            return;
        }
        *last = now;
        drop(last);
        eprintln!("{}", status_line(&self.label, done, self.total, self.started.elapsed()));
    }

    /// Points completed so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Emit (when enabled) and return the throughput summary line.
    pub fn finish(&self) -> String {
        let line = summary_line(&self.label, self.completed(), self.started.elapsed());
        if self.emit {
            eprintln!("{line}");
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_policy_honors_override_then_terminal() {
        assert!(!emission_policy(Some("0"), true));
        assert!(!emission_policy(Some("false"), true));
        assert!(!emission_policy(Some("off"), true));
        assert!(emission_policy(Some("1"), false));
        assert!(emission_policy(Some("yes"), false));
        assert!(emission_policy(None, true));
        assert!(!emission_policy(None, false));
        assert!(emission_policy(Some(""), true), "empty value falls back to the terminal check");
    }

    #[test]
    fn status_line_reports_rate_and_eta() {
        let line = status_line("sweep", 25, 100, Duration::from_secs(5));
        assert_eq!(line, "sweep: 25/100 points (25%) | 5.0 pts/s | elapsed 5.0s | eta 15s");
        let done = status_line("sweep", 100, 100, Duration::from_secs(10));
        assert!(done.contains("100/100"));
        assert!(done.contains("eta --"), "{done}");
        let zero = status_line("s", 0, 0, Duration::ZERO);
        assert!(zero.contains("(100%)"), "empty grid is trivially complete: {zero}");
    }

    #[test]
    fn summary_line_reports_throughput() {
        let line = summary_line("grid", 40, Duration::from_secs(8));
        assert_eq!(line, "grid: 40 points in 8.0s (5.0 pts/s)");
    }

    #[test]
    fn meter_counts_from_many_threads_without_emitting() {
        let p = Progress::new("t", 64, false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..16 {
                        p.point_done();
                    }
                });
            }
        });
        assert_eq!(p.completed(), 64);
        assert!(p.finish().contains("64 points"));
    }
}
