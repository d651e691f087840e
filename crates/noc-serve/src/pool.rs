//! The service's one evaluation pool: a fixed set of long-lived worker
//! threads fed by a single FIFO job channel.
//!
//! This is the only place in the crate that spawns evaluation threads,
//! so the pool's size is a process-wide bound on concurrent simulations
//! no matter how many connections submit work. Jobs run in submission
//! order across all submitters: a batch submitted while another is in
//! flight queues behind it rather than adding threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use noc_exp::robust::panic_message;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads (see module docs). Dropping it
/// closes the channel, lets the workers finish what is already queued,
/// and joins them.
pub(crate) struct Pool {
    /// `Some` until drop; taking it is what closes the channel.
    jobs: Option<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn exactly `workers` threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let (jobs, feed) = channel::<Job>();
        let feed = Arc::new(Mutex::new(feed));
        let threads = (0..workers.max(1))
            .map(|i| {
                let feed = Arc::clone(&feed);
                std::thread::Builder::new()
                    .name(format!("noc-serve-worker-{i}"))
                    .spawn(move || work(&feed))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Self { jobs: Some(jobs), threads }
    }

    /// Queue `job` behind everything already submitted.
    pub(crate) fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let jobs = self.jobs.as_ref().expect("the job channel is open until drop");
        // the workers hold the receiver until the channel closes, and it
        // closes only in drop, so the send cannot fail
        jobs.send(Box::new(job)).expect("pool workers outlive the pool handle");
    }
}

/// One worker's loop: take the next job, run it, repeat until the
/// channel closes. A job that unwinds is contained here — the worker
/// must survive it, or the pool would shrink for the life of the
/// server.
fn work(feed: &Mutex<Receiver<Job>>) {
    loop {
        // the guard is dropped before the job runs: holding it only
        // while waiting lets the other workers queue up behind it
        let next = feed.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = next else { return };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            eprintln!("noc-serve: pool job unwound: {}", panic_message(payload.as_ref()));
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.jobs = None;
        for t in self.threads.drain(..) {
            // a worker cannot have panicked (jobs are contained above),
            // and drop must not panic either way
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Three threads submit at once; the first `workers` jobs meet at a
    /// barrier (so the bound is reached, not just respected), and no
    /// job ever observes more than `workers` running.
    #[test]
    fn concurrently_running_jobs_never_exceed_the_worker_count() {
        const WORKERS: usize = 2;
        const PER_SUBMITTER: usize = 40;
        let pool = Pool::new(WORKERS);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let ticket = Arc::new(AtomicUsize::new(0));
        let meet = Arc::new(Barrier::new(WORKERS));
        let (done, finished) = channel::<()>();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let (pool, done) = (&pool, done.clone());
                let (running, peak, ticket, meet) = (&running, &peak, &ticket, &meet);
                s.spawn(move || {
                    for _ in 0..PER_SUBMITTER {
                        let (running, peak) = (Arc::clone(running), Arc::clone(peak));
                        let (ticket, meet) = (Arc::clone(ticket), Arc::clone(meet));
                        let done = done.clone();
                        pool.submit(move || {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            if ticket.fetch_add(1, Ordering::SeqCst) < WORKERS {
                                meet.wait();
                            }
                            std::thread::yield_now();
                            running.fetch_sub(1, Ordering::SeqCst);
                            done.send(()).unwrap();
                        });
                    }
                });
            }
        });
        drop(done);
        assert_eq!(finished.iter().count(), 3 * PER_SUBMITTER, "every job ran exactly once");
        assert_eq!(peak.load(Ordering::SeqCst), WORKERS);
    }

    #[test]
    fn a_job_that_unwinds_does_not_cost_the_pool_a_worker() {
        let pool = Pool::new(1);
        let (done, finished) = channel::<u32>();
        pool.submit(|| panic!("job fault"));
        pool.submit(move || done.send(7).unwrap());
        assert_eq!(finished.recv().unwrap(), 7, "the only worker survived the panic");
    }

    /// Dropping the pool with jobs still queued runs them out and joins
    /// every worker: nothing the jobs captured is left alive.
    #[test]
    fn drop_with_jobs_queued_joins_every_worker() {
        for _ in 0..50 {
            let held = Arc::new(());
            let ran = Arc::new(AtomicUsize::new(0));
            let pool = Pool::new(2);
            for _ in 0..8 {
                let (held, ran) = (Arc::clone(&held), Arc::clone(&ran));
                pool.submit(move || {
                    let _held = held;
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            drop(pool);
            assert_eq!(ran.load(Ordering::SeqCst), 8);
            assert_eq!(Arc::strong_count(&held), 1, "no worker outlived the pool");
        }
    }
}
