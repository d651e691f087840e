//! # noc-exp — the experiment engine
//!
//! Independent simulation points (sweep loads, batch replicates, figure
//! grids) are embarrassingly parallel: each builds its own `Network`,
//! draws from its own RNG, and shares nothing. This crate fans such
//! points out across OS threads while keeping results **bit-identical
//! to serial execution**:
//!
//! * [`run_grid`] evaluates `f(i, &points[i])` for every point on a
//!   work-stealing pool and returns results in point order — the
//!   schedule affects only *when* a point runs, never its inputs, so
//!   parallel output equals serial output exactly.
//! * [`derive_seed`] derives a per-point RNG seed from `(base seed,
//!   point index)` with a SplitMix64 mix. Experiment drivers seed point
//!   `i` with `derive_seed(base, i)` in both their serial and parallel
//!   paths, which (a) decorrelates points that previously shared one
//!   seed and (b) makes determinism independent of evaluation order.
//! * [`run_grid_longest_first`] is the same grid for points whose cost
//!   a caller can bound up front: with two or more workers, points
//!   start in [`longest_first`] order, so a sweep's most expensive point
//!   starts first instead of last. Only start order changes, so results
//!   are unchanged.
//! * [`run_grid_pruned`] adds a cheap serial pre-pass (e.g. the
//!   `noc-analytic` model) that can answer points outright; only the
//!   remaining points are simulated, each under its original index so
//!   evaluated results stay bit-identical to the unpruned grid.
//!
//! The build environment has no registry access, so instead of rayon
//! this is a ~100-line scoped-thread pool. The thread count honors
//! `NOC_THREADS`, then the machine's available parallelism;
//! `NOC_THREADS=1` forces the exact serial code path (useful for timing
//! and for bisecting any suspected parallelism bug).

#![warn(missing_docs)]

pub mod progress;
pub mod robust;
pub mod wal;

pub use progress::Progress;
pub use robust::{run_grid_robust, Diverged, PointOutcome};
pub use wal::{Wal, WalReplay};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One warning per process about a malformed `NOC_THREADS`, so a typo
/// cannot silently change the parallelism *and* cannot spam stderr once
/// per grid either.
static THREADS_WARNED: std::sync::Once = std::sync::Once::new();

/// Number of worker threads the engine will use.
///
/// Resolution order: `NOC_THREADS`, available hardware parallelism, 1.
/// A value that is not a positive integer falls through to the
/// hardware count — with a one-line stderr warning naming the bad
/// value, so a typo like `NOC_THREADS=fuor` does not silently run at a
/// different width.
pub fn threads() -> usize {
    if let Ok(s) = std::env::var("NOC_THREADS") {
        match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => THREADS_WARNED.call_once(|| {
                eprintln!(
                    "noc-exp: ignoring NOC_THREADS={s:?} (not a positive integer); \
                     using the available hardware parallelism"
                );
            }),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Derive the RNG seed of grid point `index` from `base`.
///
/// SplitMix64 finalizer over `base + (index+1) * golden-gamma`: cheap,
/// stateless, and well-mixed, so adjacent indices produce uncorrelated
/// streams and `derive_seed(base, 0) != base` (point 0 is *not* the
/// legacy shared-seed stream). Every experiment driver — serial or
/// parallel — must use this same derivation for results to agree.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Evaluate `eval(i, &points[i])` for every grid point, in parallel,
/// returning results in point order.
///
/// Workers pull the next unclaimed index from a shared atomic counter
/// (work stealing at point granularity), so an expensive point never
/// serializes the cheap ones behind it. With one worker (or one point)
/// no threads are spawned and the loop runs inline.
///
/// # Panics
/// Propagates a panic from `eval` (the scope unwinds once every other
/// in-flight point finishes).
pub fn run_grid<T, R, F>(points: &[T], eval: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_grid_with(points, threads(), eval)
}

/// [`run_grid`] with an explicit worker count instead of the
/// [`threads`] environment resolution — the building block for callers
/// that manage their own pool width (the evaluation service's
/// `--workers`). `workers` is clamped to at least 1;
/// results are bit-identical to serial execution for any width, exactly
/// as for [`run_grid`]. Workers start points in index order.
pub fn run_grid_with<T, R, F>(points: &[T], workers: usize, eval: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    dispatch(points, workers, None, eval)
}

/// [`run_grid_with`], but with two or more workers the points *start*
/// in [`longest_first`] order of `cost(&points[i])`, so the most
/// expensive point is not the one left running alone at the end.
/// Results are still returned in point order and are bit-identical to
/// [`run_grid_with`]'s; one worker runs inline in index order, where
/// order cannot change the total time.
pub fn run_grid_longest_first<T, R, C, F>(points: &[T], workers: usize, cost: C, eval: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    C: Fn(&T) -> u64,
    F: Fn(usize, &T) -> R + Sync,
{
    dispatch(points, workers, Some(&cost), eval)
}

/// The order in which to start jobs of the given costs: indices by
/// descending cost, equal costs in index order. Starting the longest
/// job first is the classic LPT rule: with `w` workers the makespan is
/// at most `(4/3 - 1/(3w))` times the optimum, whereas index order can
/// leave the costliest job to start last.
pub fn longest_first(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    // a stable sort: ties keep index order
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    order
}

/// The grid's one worker loop: workers claim the `k`-th point to start
/// from a shared atomic counter (work stealing at point granularity,
/// so an expensive point never serializes the cheap ones behind it),
/// where the `k`-th point is `k` itself, or `longest_first`'s `k`-th
/// index when a `cost` is given. With one worker (or one point) no
/// threads are spawned and the loop runs inline, in index order.
fn dispatch<T, R, F>(
    points: &[T],
    workers: usize,
    cost: Option<&dyn Fn(&T) -> u64>,
    eval: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = points.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return points.iter().enumerate().map(|(i, p)| eval(i, p)).collect();
    }
    let order = cost.map(|c| longest_first(&points.iter().map(c).collect::<Vec<_>>()));
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let i = order.as_ref().map_or(k, |o| o[k]);
                    local.push((i, eval(i, &points[i])));
                }
                // merge under the lock only after all work is done, so
                // workers never contend mid-computation
                done.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend(local);
            });
        }
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in done.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every grid index evaluated exactly once")).collect()
}

/// Result of [`run_grid_pruned`]: every point's result plus which
/// points were answered by the (cheap) prune pass instead of being
/// evaluated.
#[derive(Debug, Clone)]
pub struct PrunedGrid<R> {
    /// One result per input point, in point order. Pruned points carry
    /// the prune closure's answer; the rest carry `eval`'s.
    pub results: Vec<R>,
    /// `skipped[i]` is true iff point `i` was answered by the prune
    /// pass (i.e. `eval` never ran for it).
    pub skipped: Vec<bool>,
}

impl<R> PrunedGrid<R> {
    /// Number of points answered without evaluation.
    pub fn skipped_count(&self) -> usize {
        self.skipped.iter().filter(|&&s| s).count()
    }

    /// Number of points that were actually evaluated.
    pub fn evaluated_count(&self) -> usize {
        self.skipped.len() - self.skipped_count()
    }

    /// One-line `"simulated X of Y points (Z skipped)"` summary.
    pub fn summary(&self) -> String {
        format!(
            "simulated {} of {} points ({} skipped by the analytic model)",
            self.evaluated_count(),
            self.skipped.len(),
            self.skipped_count()
        )
    }
}

/// [`run_grid`] with a cheap pre-pass that can answer points without
/// evaluating them.
///
/// `prune(i, &points[i])` runs serially first (it is expected to cost
/// microseconds — e.g. an analytic model); every `Some(result)` answers
/// that point outright. Only the `None` points are then evaluated via
/// [`run_grid_longest_first`] by `cost` at the [`threads`] width, **with
/// their original point indices**, so an evaluated point's result is
/// bit-identical to what the unpruned grid would have produced for it
/// (seed derivation keys on the index, not on the schedule).
pub fn run_grid_pruned<T, R, P, C, F>(points: &[T], prune: P, cost: C, eval: F) -> PrunedGrid<R>
where
    T: Sync,
    R: Send,
    P: Fn(usize, &T) -> Option<R>,
    C: Fn(&T) -> u64,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = points.iter().map(|_| None).collect();
    let mut skipped = vec![false; points.len()];
    let mut to_eval: Vec<usize> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        match prune(i, p) {
            Some(r) => {
                slots[i] = Some(r);
                skipped[i] = true;
            }
            None => to_eval.push(i),
        }
    }
    let evaluated = run_grid_longest_first(
        &to_eval,
        threads(),
        |&i| cost(&points[i]),
        |_, &i| eval(i, &points[i]),
    );
    for (&i, r) in to_eval.iter().zip(evaluated) {
        slots[i] = Some(r);
    }
    PrunedGrid {
        results: slots.into_iter().map(|r| r.expect("every point answered")).collect(),
        skipped,
    }
}

/// Run two independent closures concurrently and return both results.
///
/// The heterogeneous companion to [`run_grid`] — e.g. an open-loop
/// measurement and a closed-loop batch run of the same configuration.
/// With a single thread available, `a` then `b` run inline.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("join arm panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_serial_map_in_order() {
        let points: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = points.iter().map(|&p| p * p + 1).collect();
        let parallel = run_grid(&points, |_, &p| p * p + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn grid_passes_the_point_index() {
        let points = vec!["a", "b", "c"];
        let out = run_grid(&points, |i, &p| format!("{i}{p}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn grid_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_grid(&empty, |_, &x| x).is_empty());
        assert_eq!(run_grid(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 64, "seed collisions");
        assert_ne!(derive_seed(42, 0), 42, "point 0 must not reuse the base seed");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0), "base seed must matter");
    }

    #[test]
    fn pruned_grid_matches_unpruned_on_evaluated_points() {
        let points: Vec<u64> = (0..50).collect();
        let full = run_grid(&points, |i, &p| (i as u64) * 1000 + p);
        // prune every even point with a sentinel answer
        let pruned = run_grid_pruned(
            &points,
            |_, &p| (p % 2 == 0).then_some(u64::MAX - p),
            |&p| p,
            |i, &p| (i as u64) * 1000 + p,
        );
        assert_eq!(pruned.skipped_count(), 25);
        assert_eq!(pruned.evaluated_count(), 25);
        for (i, &p) in points.iter().enumerate() {
            if pruned.skipped[i] {
                assert_eq!(pruned.results[i], u64::MAX - p);
            } else {
                // evaluated with the original index => bit-identical
                assert_eq!(pruned.results[i], full[i]);
            }
        }
        assert!(pruned.summary().contains("25 of 50"));
    }

    #[test]
    fn pruned_grid_handles_all_and_none_skipped() {
        let points: Vec<u32> = (0..9).collect();
        let all = run_grid_pruned(&points, |_, &p| Some(p), |_| 0, |_, &p| p + 100);
        assert_eq!(all.skipped_count(), 9);
        assert_eq!(all.results, points);
        let none = run_grid_pruned(&points, |_, _| None::<u32>, |&p| p.into(), |_, &p| p + 100);
        assert_eq!(none.skipped_count(), 0);
        assert!(none.results.iter().zip(&points).all(|(&r, &p)| r == p + 100));
    }

    #[test]
    fn run_grid_with_matches_serial_at_any_width() {
        let points: Vec<u64> = (0..41).collect();
        let serial: Vec<u64> = points.iter().map(|&p| p * 7 + 3).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            assert_eq!(run_grid_with(&points, workers, |_, &p| p * 7 + 3), serial);
        }
    }

    #[test]
    fn longest_first_is_descending_and_stable_on_ties() {
        assert_eq!(longest_first(&[3, 9, 1, 9, 3, 0]), vec![1, 3, 0, 4, 2, 5]);
        assert_eq!(longest_first(&[5; 4]), vec![0, 1, 2, 3], "all ties keep index order");
        assert_eq!(longest_first(&[1, 2, 3]), vec![2, 1, 0]);
        assert!(longest_first(&[]).is_empty());
    }

    /// `eval` that notes the position at which point `i` started, and
    /// returns only once `workers - 1` later points have started too (or
    /// every point has), so no worker can run ahead while another holds
    /// a claimed point it has not started: start positions then follow
    /// the claim order up to the workers' race for the shared counter.
    fn start_positions(
        n: usize,
        workers: usize,
        grid: impl FnOnce(&(dyn Fn(usize, &u64) -> u64 + Sync)) -> Vec<u64>,
    ) -> Vec<usize> {
        use std::sync::Condvar;
        let started = (Mutex::new(0usize), Condvar::new());
        let at = Mutex::new(vec![usize::MAX; n]);
        let eval = |i: usize, &p: &u64| {
            let (count, moved) = &started;
            let mut c = count.lock().unwrap();
            at.lock().unwrap()[i] = *c;
            let release = (*c + workers).min(n);
            *c += 1;
            moved.notify_all();
            while *c < release {
                c = moved.wait(c).unwrap();
            }
            p * 2
        };
        let out = grid(&eval);
        assert_eq!(out, (0..n as u64).map(|p| p * 2).collect::<Vec<_>>(), "point order");
        at.into_inner().unwrap()
    }

    #[test]
    fn two_or_more_workers_start_points_longest_first() {
        let points: Vec<u64> = (0..24).collect();
        // cheap first, as a load sweep is: the order is the reverse
        let cost = |&p: &u64| p / 3;
        let order = longest_first(&points.iter().map(cost).collect::<Vec<_>>());
        assert_eq!(order[..4], [21, 22, 23, 18]);
        for workers in [2, 3] {
            let at = start_positions(points.len(), workers, |eval| {
                run_grid_longest_first(&points, workers, cost, eval)
            });
            for (place, &i) in order.iter().enumerate() {
                assert!(
                    at[i].abs_diff(place) < workers,
                    "{workers} workers: point {i} started at {}, its place is {place}",
                    at[i]
                );
            }
        }
    }

    #[test]
    fn one_worker_and_run_grid_with_start_points_in_index_order() {
        let points: Vec<u64> = (0..10).collect();
        let at = start_positions(points.len(), 1, |eval| {
            run_grid_longest_first(&points, 1, |&p| p, eval)
        });
        assert_eq!(at, (0..10).collect::<Vec<_>>());
        let at = start_positions(points.len(), 2, |eval| run_grid_with(&points, 2, eval));
        assert!(at.iter().enumerate().all(|(i, &k)| k.abs_diff(i) < 2), "{at:?}");
    }

    #[test]
    fn threads_honors_noc_threads_and_falls_back_when_malformed() {
        // the grid tests running beside this one resolve their width
        // through threads() too; results are identical at any width
        let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        std::env::set_var("NOC_THREADS", "3");
        assert_eq!(threads(), 3);
        std::env::set_var("NOC_THREADS", "three");
        assert_eq!(threads(), hardware, "malformed value must fall back to the hardware count");
        std::env::set_var("NOC_THREADS", "0");
        assert_eq!(threads(), hardware, "zero is not a valid worker count");
        std::env::remove_var("NOC_THREADS");
        assert_eq!(threads(), hardware);
    }

    #[test]
    fn join_returns_both_arms() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn many_points_under_contention_still_complete() {
        // more points than any plausible worker count; values depend on
        // the index so a mis-slotted result would be caught
        let points: Vec<usize> = (0..1000).collect();
        let out = run_grid(&points, |i, &p| {
            assert_eq!(i, p);
            i * 3
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }
}
