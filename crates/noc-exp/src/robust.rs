//! Crash-proof grid evaluation: panic isolation and divergence budgets.
//!
//! [`crate::run_grid`] propagates a panic — correct for verified
//! production sweeps, fatal for exploratory ones where one degenerate
//! configuration (a deadlocking fault scenario, a diverging search)
//! should not poison the other 99 points. [`run_grid_robust`] wraps
//! every point in [`std::panic::catch_unwind`] and reports a typed
//! [`PointOutcome`] per point instead; the evaluation closure can also
//! *cooperatively* give up by returning [`Diverged`] when a cycle
//! budget runs out (the engine cannot preempt a stuck simulation from
//! outside — budget checks belong in the point's own stepping loop).
//!
//! Durable, resumable evaluation is `noc-serve`'s job (one [`crate::Wal`]
//! keyed by configuration digest and seed), not the grid's.
//!
//! Panics escaping a worker still print the default panic-hook message
//! to stderr before being caught; that noise is deliberate (silencing
//! it would require swapping the process-global hook, which races with
//! concurrent tests).

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::run_grid;

/// Cooperative divergence marker: the point's evaluation loop exhausted
/// its cycle budget without converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diverged {
    /// The budget (in whatever unit the evaluator counts — typically
    /// simulated cycles) that was exhausted.
    pub budget: u64,
}

/// The result of one robustly-evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<R> {
    /// The point evaluated normally.
    Ok(R),
    /// The point's evaluation panicked; the sweep continued without it.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The point gave up after exhausting its cycle budget.
    Diverged {
        /// The exhausted budget.
        budget: u64,
    },
}

impl<R> PointOutcome<R> {
    /// The successful result, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// True for [`PointOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, PointOutcome::Ok(_))
    }
}

impl<R, E> PointOutcome<Result<R, E>> {
    /// Lift an evaluator's own refusal out of the outcome: `Ok(Err(e))`
    /// becomes `Err(e)`, and every other outcome is kept.
    pub fn transpose(self) -> Result<PointOutcome<R>, E> {
        match self {
            PointOutcome::Ok(r) => r.map(PointOutcome::Ok),
            PointOutcome::Panicked { message } => Ok(PointOutcome::Panicked { message }),
            PointOutcome::Diverged { budget } => Ok(PointOutcome::Diverged { budget }),
        }
    }
}

/// Render a caught panic payload (usually a `&str` or `String`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Evaluate every grid point like [`run_grid`], but isolate failures:
/// a panicking point yields [`PointOutcome::Panicked`], a point whose
/// evaluator returns `Err(Diverged)` yields [`PointOutcome::Diverged`],
/// and every other point completes normally. Results are in point
/// order and parallel evaluation is bit-identical to serial, exactly
/// as for [`run_grid`].
pub fn run_grid_robust<T, R, F>(points: &[T], eval: F) -> Vec<PointOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, Diverged> + Sync,
{
    let progress = crate::Progress::from_env("grid", points.len());
    let out = run_grid(points, |i, p| {
        let outcome = match catch_unwind(AssertUnwindSafe(|| eval(i, p))) {
            Ok(Ok(r)) => PointOutcome::Ok(r),
            Ok(Err(d)) => PointOutcome::Diverged { budget: d.budget },
            Err(payload) => PointOutcome::Panicked { message: panic_message(payload.as_ref()) },
        };
        progress.point_done();
        outcome
    });
    progress.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_with_failures(i: usize, &p: &u64) -> Result<u64, Diverged> {
        if i == 3 {
            panic!("deliberate failure at point 3");
        }
        if i == 5 {
            return Err(Diverged { budget: 1_000 });
        }
        Ok(p * 10)
    }

    #[test]
    fn robust_isolates_panics_and_divergence() {
        let points: Vec<u64> = (0..8).collect();
        let out = run_grid_robust(&points, eval_with_failures);
        assert_eq!(out.len(), 8);
        for (i, o) in out.iter().enumerate() {
            match i {
                3 => assert_eq!(
                    o,
                    &PointOutcome::Panicked { message: "deliberate failure at point 3".into() }
                ),
                5 => assert_eq!(o, &PointOutcome::Diverged { budget: 1_000 }),
                _ => assert_eq!(o, &PointOutcome::Ok(i as u64 * 10)),
            }
        }
    }
}
