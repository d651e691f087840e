//! # noc-serve — the crash-tolerant long-running evaluation service
//!
//! The rest of the workspace runs fire-and-forget batch binaries; this
//! crate turns the evaluator into a *persistent process* that accepts
//! batched experiment requests over the `noc-eval/serve/v1` line
//! protocol (stdin/stdout, or an optional Unix socket) and hardens
//! every stage of the request path:
//!
//! 1. **Admission + backpressure** — a bounded queue; when it is full a
//!    point is either rejected with a typed `Shed` reason or, if the
//!    client opted in, answered from the `noc-analytic` predictor with
//!    a `degraded: true` tag. Overload becomes data, never a hang.
//! 2. **Deadlines + cancellation** — every point runs under the cycle
//!    budget watchdog ([`noc_openloop::measure_budgeted`]) and an
//!    optional batch wall-clock deadline; exhaustion yields a typed
//!    `Timeout`. Queued batches can be cancelled wholesale.
//! 3. **Panics retried, nothing else** — a panicked evaluation is
//!    re-run immediately, up to `max_attempts` in all. A point is a
//!    pure function of `(config, seed)`, so the retry answers the bits
//!    a clean first try would, and a cycle-budget `Timeout` (a fact
//!    about the point) is answered after one attempt, never re-run.
//! 4. **Durable write-ahead journal** — every evaluated outcome is
//!    appended to a [`noc_exp::Wal`] before it is reported; a killed
//!    service replays the WAL on restart and answers finished points
//!    from cache, bit-identical to the uninterrupted run.
//! 5. **Graceful shutdown + health** — `SIGTERM`/`shutdown` drains
//!    queued points, flushes the WAL, and emits a final `status`
//!    record; `health` reports queue depth, worker count, and the
//!    shed/retry/timeout counters.
//!
//! The schema types live in [`noc_eval::serve`]; this crate is the
//! engine behind them plus the `noc-serve` binary.

#![warn(missing_docs)]

pub mod lines;
mod pool;
mod service;
pub mod socket;

use std::path::PathBuf;

use noc_sim::error::ConfigError;

pub use service::Service;

/// Service-level configuration (queue, workers, attempts, WAL, chaos).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue capacity in points; beyond it, points are shed
    /// or answered degraded. Must be >= 1.
    pub queue_capacity: usize,
    /// Simulator worker threads in the service's one evaluation pool —
    /// a process-wide bound, however many clients submit work; `0`
    /// means auto ([`noc_exp::threads`]).
    pub workers: usize,
    /// Evaluation attempts per point, first try included: a panicked
    /// attempt is re-run at once until this many have run. A budget
    /// timeout or a config error costs one. A `run`'s own
    /// `max_attempts` overrides it. Must be >= 1.
    pub max_attempts: u32,
    /// Cycle budget for points that do not carry their own, and the
    /// ceiling on the ones that do (a client can lower its budget, not
    /// raise it past the operator's). Must be >= 1 (the watchdog cannot
    /// run on a zero budget).
    pub default_budget: u64,
    /// Write-ahead journal path; `None` disables durability (answers
    /// are still cached in memory for the process lifetime).
    pub wal: Option<PathBuf>,
    /// Fault-injection knob for the smoke harness: the first `chaos`
    /// evaluation attempts (process-wide) panic before touching the
    /// simulator, exercising the retry path end-to-end. `0` in
    /// production.
    pub chaos: u64,
    /// Socket-mode connection bound: at most this many clients are
    /// served concurrently; further connections get a typed `busy`
    /// response and are closed. Must be >= 1. Ignored in stdio mode.
    pub max_clients: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            workers: 0,
            max_attempts: 3,
            default_budget: 50_000_000,
            wal: None,
            chaos: 0,
            max_clients: 8,
        }
    }
}

impl ServeConfig {
    /// Validate the configuration: zero capacities and budgets are
    /// rejected up front with the same [`ConfigError`] vocabulary as
    /// the simulator's own knobs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queue_capacity == 0 {
            return Err(ConfigError::Parameter {
                name: "queue_capacity",
                why: "admission queue must hold at least one point".into(),
            });
        }
        if self.max_clients == 0 {
            return Err(ConfigError::Parameter {
                name: "max_clients",
                why: "socket mode must admit at least one client".into(),
            });
        }
        if self.default_budget == 0 {
            return Err(ConfigError::Parameter {
                name: "default_budget",
                why: "cycle budget must be >= 1; a zero budget can never complete a warmup".into(),
            });
        }
        if self.max_attempts == 0 {
            return Err(ConfigError::Parameter {
                name: "max_attempts",
                why: "at least one evaluation attempt is required".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_knobs_are_rejected() {
        let c = ServeConfig { queue_capacity: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { max_clients: 0, ..ServeConfig::default() };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("max_clients"), "{err}");
        let c = ServeConfig { default_budget: 0, ..ServeConfig::default() };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("default_budget"), "{err}");
        let c = ServeConfig { max_attempts: 0, ..ServeConfig::default() };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("max_attempts"), "{err}");
    }
}
