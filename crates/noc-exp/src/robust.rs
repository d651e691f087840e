//! Crash-proof grid evaluation: panic isolation, divergence budgets,
//! and a resumable on-disk journal.
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
//! [`run_grid_journal`] adds a resumable journal: every finished point
//! is appended to a [`Wal`] keyed by its grid index, and a rerun
//! against the same file replays recorded outcomes instead of
//! re-evaluating them. Durability (single-write appends, batched
//! fsync, torn-tail truncation) is the WAL's.
//!
//! Panics escaping a worker still print the default panic-hook message
//! to stderr before being caught; that noise is deliberate (silencing
//! it would require swapping the process-global hook, which races with
//! concurrent tests).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;

use crate::{run_grid, Wal};

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

    /// The successful result by reference, if any.
    pub fn as_ok(&self) -> Option<&R> {
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

/// Run one point's evaluation, turning a panic or a cooperative
/// give-up into its [`PointOutcome`].
fn isolate<R>(eval: impl FnOnce() -> Result<R, Diverged>) -> PointOutcome<R> {
    match catch_unwind(AssertUnwindSafe(eval)) {
        Ok(Ok(r)) => PointOutcome::Ok(r),
        Ok(Err(d)) => PointOutcome::Diverged { budget: d.budget },
        Err(payload) => PointOutcome::Panicked { message: panic_message(payload.as_ref()) },
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
        let outcome = isolate(|| eval(i, p));
        progress.point_done();
        outcome
    });
    progress.finish();
    out
}

/// Serializer for journaled point results: one line of text per result.
///
/// Implementations must round-trip (`decode(encode(r)) == Some(r)`) and
/// should return `None` from `decode` on schema mismatch — the point is
/// then re-evaluated instead of resuming with garbage.
pub trait PointCodec<R> {
    /// Encode a result as text (the journal escapes newlines and tabs,
    /// not the codec).
    fn encode(&self, r: &R) -> String;
    /// Decode a payload; `None` re-runs the point.
    fn decode(&self, s: &str) -> Option<R>;
}

/// Decode one journal record — key `index`, payload `kind<TAB>body` —
/// into `(index, outcome)`; `None` skips it.
fn parse_record<R, C: PointCodec<R>>(
    key: &str,
    payload: &str,
    codec: &C,
) -> Option<(usize, PointOutcome<R>)> {
    let (kind, body) = payload.split_once('\t')?;
    let outcome = match kind {
        "ok" => PointOutcome::Ok(codec.decode(body)?),
        "panicked" => PointOutcome::Panicked { message: body.to_string() },
        "diverged" => PointOutcome::Diverged { budget: body.parse().ok()? },
        _ => return None,
    };
    Some((key.parse().ok()?, outcome))
}

/// Render one outcome as a journal payload.
fn render_payload<R, C: PointCodec<R>>(outcome: &PointOutcome<R>, codec: &C) -> String {
    match outcome {
        PointOutcome::Ok(r) => format!("ok\t{}", codec.encode(r)),
        PointOutcome::Panicked { message } => format!("panicked\t{message}"),
        PointOutcome::Diverged { budget } => format!("diverged\t{budget}"),
    }
}

/// [`run_grid_robust`] with a resumable journal at `path`.
///
/// Outcomes already recorded in the journal (of **any** kind — a
/// recorded panic is not retried; delete the journal to retry) are
/// replayed without re-evaluation; the rest run through the robust
/// grid, and each is appended to the journal — a [`Wal`] keyed by point
/// index — as soon as it completes, with the WAL's batched `fsync` and
/// a final [`Wal::commit`], so even a machine crash loses at most one
/// batch of finished points.
///
/// A **torn final record** (the signature of a process killed
/// mid-append) is truncated away when the journal is opened and its
/// point re-runs. Complete records that do not decode (unknown schema,
/// bit rot, an index beyond this grid) are skipped and their points
/// re-run; where an index was recorded twice, the last record wins.
///
/// # Errors
/// Only on journal I/O failure (open/append/sync); evaluation failures
/// are values, per [`run_grid_robust`].
pub fn run_grid_journal<T, R, F, C>(
    points: &[T],
    path: &Path,
    codec: &C,
    eval: F,
) -> std::io::Result<Vec<PointOutcome<R>>>
where
    T: Sync,
    R: Send,
    C: PointCodec<R> + Sync,
    F: Fn(usize, &T) -> Result<R, Diverged> + Sync,
{
    let (wal, replay) = Wal::open(path)?;
    let recorded: HashMap<usize, PointOutcome<R>> = replay
        .records
        .iter()
        .filter_map(|(key, payload)| parse_record(key, payload, codec))
        .filter(|&(i, _)| i < points.len())
        .collect();
    let recorded = Mutex::new(recorded);
    let progress = crate::Progress::from_env("journal grid", points.len());
    let outcomes = run_grid(points, |i, p| {
        let prior = recorded.lock().unwrap_or_else(std::sync::PoisonError::into_inner).remove(&i);
        let outcome = match prior {
            Some(prior) => prior,
            None => {
                let outcome = isolate(|| eval(i, p));
                wal.append(&i.to_string(), &render_payload(&outcome, codec))?;
                outcome
            }
        };
        progress.point_done();
        Ok(outcome)
    });
    progress.finish();
    // final batch boundary: everything acknowledged is on disk
    wal.commit()?;
    outcomes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct U64Codec;
    impl PointCodec<u64> for U64Codec {
        fn encode(&self, r: &u64) -> String {
            r.to_string()
        }
        fn decode(&self, s: &str) -> Option<u64> {
            s.parse().ok()
        }
    }

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

    #[test]
    fn journal_resumes_without_reevaluating() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.journal");
        let _ = std::fs::remove_file(&path);

        let points: Vec<u64> = (0..8).collect();
        let first = run_grid_journal(&points, &path, &U64Codec, eval_with_failures).unwrap();
        assert_eq!(first.iter().filter(|o| o.is_ok()).count(), 6);

        // second run must replay every outcome from the journal
        let evals = AtomicUsize::new(0);
        let second = run_grid_journal(&points, &path, &U64Codec, |i, p| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval_with_failures(i, p)
        })
        .unwrap();
        assert_eq!(evals.load(Ordering::Relaxed), 0, "all points must come from the journal");
        assert_eq!(first, second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_tolerates_a_torn_final_record() {
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        // two complete records, then a record torn mid-payload by a
        // simulated SIGKILL: no trailing newline
        std::fs::write(&path, "0\tok\t100\n1\tok\t200\n2\tok\t3").unwrap();
        let points: Vec<u64> = (0..3).collect();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evals = AtomicUsize::new(0);
        let out = run_grid_journal(&points, &path, &U64Codec, |_, &p| {
            evals.fetch_add(1, Ordering::Relaxed);
            Ok(p * 10 + 7)
        })
        .unwrap();
        assert_eq!(out[0], PointOutcome::Ok(100), "complete records replay");
        assert_eq!(out[1], PointOutcome::Ok(200));
        assert_eq!(out[2], PointOutcome::Ok(27), "the torn point re-runs");
        assert_eq!(evals.load(Ordering::Relaxed), 1, "only the torn point is re-evaluated");
        // the re-run's record was appended on its own line: a fresh
        // resume replays all three without evaluating anything
        let evals2 = AtomicUsize::new(0);
        let again = run_grid_journal(&points, &path, &U64Codec, |_, &p| {
            evals2.fetch_add(1, Ordering::Relaxed);
            Ok(p)
        })
        .unwrap();
        assert_eq!(evals2.load(Ordering::Relaxed), 0, "the torn bytes were truncated away");
        assert_eq!(again, out);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_appended_after_a_torn_tail_is_not_glued_onto_it() {
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("glued.journal");
        // 20 points; records for all but 3 and 15, then a record torn
        // after its first byte. Appending point 3's record onto that
        // "1" would spell a second, wrong record for point 13.
        let mut journal: String = (0..20)
            .filter(|i| ![3, 15].contains(i))
            .map(|i| format!("{i}\tok\t{}\n", i * 10))
            .collect();
        journal.push('1');
        std::fs::write(&path, journal).unwrap();
        let points: Vec<u64> = (0..20).collect();
        let expect: Vec<_> = points.iter().map(|p| PointOutcome::Ok(p * 10)).collect();
        for resume in 0..3 {
            let out = run_grid_journal(&points, &path, &U64Codec, |_, &p| Ok(p * 10)).unwrap();
            assert_eq!(out[13], PointOutcome::Ok(130), "resume {resume}");
            assert_eq!(out, expect, "resume {resume}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_skips_corrupt_lines_and_reruns_them() {
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.journal");
        // a valid record for point 1, a garbage index, a line missing
        // its payload field, and a record as the pre-WAL journal wrote
        // it (raw tab after the kind, payload escaped once)
        let old = "2\tpanicked\tline one\\nline\\ttwo\n";
        std::fs::write(&path, format!("1\tok\t999\nzz\tok\t5\n3\tok\n{old}")).unwrap();
        let points: Vec<u64> = (0..4).collect();
        let out = run_grid_journal(&points, &path, &U64Codec, |_, &p| Ok(p + 1)).unwrap();
        assert_eq!(out[1], PointOutcome::Ok(999), "valid record replays");
        assert_eq!(out[2], PointOutcome::Panicked { message: "line one\nline\ttwo".into() });
        assert_eq!(out[0], PointOutcome::Ok(1), "unrecorded point evaluates");
        assert_eq!(out[3], PointOutcome::Ok(4), "corrupt record re-runs its point");
        let _ = std::fs::remove_file(&path);
    }
}
