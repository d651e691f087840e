//! The request engine: admission → deadline → retry → WAL → drain.
//!
//! A [`Service`] owns the admission queue, the result cache, the WAL,
//! and the robustness counters — all behind interior synchronization,
//! so one service instance is shared by every connection thread in
//! socket mode ([`crate::socket`]) exactly as it is by the single
//! stdin loop. [`Service::handle_line`] consumes one
//! `noc-eval/serve/v1` request line and writes response lines.
//!
//! **The response writer.** Both transports hand the service a
//! `BufWriter` over their stream. Every response is appended to it as
//! one whole line (`json + '\n'`, a single `write_all`) and the stream
//! is flushed per *burst*, in one helper called from two kinds of
//! place: immediately before a batch waits on the pool for a result
//! that is not there yet, and when the request line has been fully
//! handled. A fully cached sweep is therefore one `write(2)`; a cold
//! batch still streams point by point, because everything already in
//! order has left before the server blocks on a worker. Whatever
//! reaches the stream — a flush, or the buffer spilling on a response
//! larger than itself — is a run of whole lines, so a client (or the
//! smoke harness's mid-run `SIGKILL`) always observes a whole-line
//! prefix of the response stream.
//!
//! **Rendered answers.** An outcome is rendered to its canonical
//! fragment exactly once, where it is produced: in `eval_point` (the
//! same string the WAL journals), in admission's immediate answers
//! (invalid, shed, degraded), and at WAL replay, which parses each
//! journaled fragment and re-renders it, so a journal from an older
//! writer still answers in canonical bytes. The result cache holds
//! rendered bytes, not outcomes: each entry is the tail of the key's
//! cached result line (`"key": …, "cached": true, "attempts": 0,
//! <fragment>`, see [`result_tail`]) plus the outcome's kind for the
//! tally, built before the state lock is taken. A hit is one lookup,
//! one `Arc` clone and [`result_line`]`(batch, point, tail)`: the same
//! renderer [`noc_eval::serve::ServeResult::to_json`] goes through, so
//! the splice and the struct path cannot drift.
//!
//! **What a sweep's points share is computed once per pattern.** A
//! sweep's points differ only in load and seed within one pattern, so
//! admission keeps a per-pattern memo ([`PatternMemo`]) of the shape
//! verdict (the wire `packet_size` rule, then
//! [`noc_openloop::OpenLoopConfig::validate_shape`]), the cache key's
//! hashed prefix ([`PointRequest::digest_prefix`]) and the analytic
//! model. Each point then checks only its load and window and hashes
//! only its own key fields. A bare `point` line passes a fresh memo.
//!
//! **Concurrency model.** The queue, per-batch sequence counters,
//! result cache, and draining flag live under one mutex that is held
//! only for queue surgery and cache lookups/inserts — never across an
//! evaluation or a write to a client, and never while a point's cache
//! key is formatted and hashed or an answer rendered: the key is
//! computed once, at admission, before the lock is taken, and rides in
//! the queue entry to every later use. Every simulation in the process
//! runs on the service's one [`Pool`] of `workers` long-lived threads,
//! so `workers` bounds concurrent evaluations however many connections
//! submit batches. A `run` answers its cache hits on the calling thread
//! with no thread hop, submits the rest to the pool (with two or more
//! workers, the costliest first: see `Service::start_order`), and emits
//! results through a per-batch reorder buffer: a line goes out as soon
//! as every lower sequence number has gone out, so the bytes stay in
//! submission order while streaming point by point. The WAL serializes internally
//! ([`noc_exp::Wal`] appends are single `write(2)` calls on an
//! `O_APPEND` descriptor); counters are atomics. Two clients racing the
//! same `(config digest, seed)` key may both evaluate it, but the
//! simulator is a pure function of the key, so both compute — and both
//! journal — the *same bytes*; the cache insert and WAL "last record
//! wins" replay are idempotent. That is the whole correctness argument,
//! and `tests/concurrent.rs` checks it against a serial reference. The
//! same argument covers the result cache's bound ([`CACHE_CAP`]): an
//! evicted key simply re-simulates to the bytes it had before.
//!
//! Each evaluated outcome is appended to the WAL *before* its result
//! line is rendered into the writer — so before any flush can carry it
//! — and any answer a client has seen is durable (modulo the
//! batched-fsync window, which only a machine crash can lose — a killed
//! process loses nothing).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use noc_analytic::{AnalyticModel, Confidence};
use noc_eval::json::WHITESPACE;
use noc_eval::serve::{
    parse_request, result_line, result_tail, DigestPrefix, HealthSnapshot, PointRequest,
    ServeOutcome, ServeRequest, ServeResponse, SweepRequest,
};
use noc_exp::robust::panic_message;
use noc_exp::{longest_first, threads, Wal};
use noc_openloop::measure_budgeted;
use noc_sim::error::ConfigError;

use crate::pool::Pool;
use crate::ServeConfig;

/// WAL key prefix for service metadata records (drain status
/// snapshots); replay skips these instead of parsing them as outcomes.
const META_KEY_PREFIX: char = '@';

/// WAL key for the status record a socket-mode final drain journals.
const STATUS_KEY: &str = "@status";

/// Results the in-memory cache holds before the oldest-inserted one is
/// evicted (each a ~200-byte rendered tail plus its key: under 100 MB
/// at the bound). The WAL stays the durable index; an evicted key
/// re-simulates to the same bytes.
const CACHE_CAP: usize = 1 << 18;

#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    cache_hits: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    clients: AtomicU64,
    busy: AtomicU64,
}

/// Only outcomes that are pure functions of `(config, seed)` enter the
/// cache and the WAL: a fully simulated answer and a cycle-budget
/// timeout. Transient failures (panics, wall-clock deadline misses)
/// and admission verdicts are re-derived on the next request instead
/// of being replayed as if they were facts about the point.
fn cacheable(outcome: &ServeOutcome) -> bool {
    matches!(outcome, ServeOutcome::Ok { .. } | ServeOutcome::Timeout { wall: false, .. })
}

/// Per-`run` evaluation context, shared by every job of the batch: the
/// effective attempt cap, the wall-clock deadline (absolute, and the
/// raw millisecond value for reporting), and whether the submitter has
/// stopped listening.
struct BatchCtx {
    max_attempts: u32,
    deadline: Option<Instant>,
    deadline_ms: Option<u64>,
    /// Set when the batch's stream failed mid-emit (the client hung
    /// up): jobs still queued skip their evaluation instead of holding
    /// the pool for a reader that is gone.
    abandoned: AtomicBool,
}

/// Outcome-kind counts for one batch or sweep (what `sweep-done`
/// summarizes).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    points: u64,
    ok: u64,
    degraded: u64,
    shed: u64,
    invalid: u64,
    timeout: u64,
}

impl Tally {
    /// Count one answer by its outcome's [`ServeOutcome::kind`].
    fn count(&mut self, kind: &str) {
        self.points += 1;
        match kind {
            "ok" => self.ok += 1,
            "degraded" => self.degraded += 1,
            "shed" => self.shed += 1,
            "invalid" => self.invalid += 1,
            "timeout" => self.timeout += 1,
            _ => {}
        }
    }

    fn merge(&mut self, other: Tally) {
        self.points += other.points;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.invalid += other.invalid;
        self.timeout += other.timeout;
    }
}

/// One rendered answer: a result line after its `point` member (see
/// [`result_tail`]) and its outcome's [`ServeOutcome::kind`] for the
/// tally. What a cache entry holds and a batch slot carries.
struct Answer {
    tail: Box<str>,
    kind: &'static str,
}

/// An outcome rendered once, where it is produced: its canonical
/// fragment (what the WAL journals) and its kind.
struct Rendered {
    fragment: String,
    kind: &'static str,
}

impl Rendered {
    /// The one place this module renders an outcome (CI greps for a
    /// second).
    fn of(outcome: &ServeOutcome) -> Self {
        Self { fragment: outcome.canonical(), kind: outcome.kind() }
    }

    /// The answer as the result line for `key` carries it.
    fn answer(&self, key: &str, cached: bool, attempts: u32) -> Arc<Answer> {
        let tail = result_tail(key, cached, attempts, &self.fragment).into_boxed_str();
        Arc::new(Answer { tail, kind: self.kind })
    }
}

/// The result cache: at most `cap` rendered answers, oldest-inserted
/// evicted first. Re-inserting a present key keeps its age (the bytes
/// are the same by the purity argument in the module docs).
struct ResultCache {
    map: HashMap<String, Arc<Answer>>,
    order: VecDeque<String>,
    cap: usize,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        Self { map: HashMap::new(), order: VecDeque::new(), cap }
    }

    fn insert(&mut self, key: String, answer: Arc<Answer>) {
        if let Some(present) = self.map.get_mut(&key) {
            *present = answer;
            return;
        }
        self.order.push_back(key.clone());
        self.map.insert(key, answer);
        if self.order.len() > self.cap {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
    }
}

/// One admitted point: its sequence number within its batch label and
/// its cache key, computed once at admission (off the state lock).
struct Queued {
    seq: u64,
    point: PointRequest,
    key: String,
}

/// The mutable service state one mutex guards (see module docs).
struct ServeState {
    queue: VecDeque<Queued>,
    next_seq: HashMap<String, u64>,
    cache: ResultCache,
    draining: bool,
}

/// Everything the connection threads and the pool workers share.
struct Shared {
    cfg: ServeConfig,
    state: Mutex<ServeState>,
    wal: Option<Wal>,
    counters: Counters,
    chaos_left: AtomicU64,
}

/// What every point of one sweep pattern shares, each part computed at
/// most once, on first use: the points have the same network (seed
/// aside), pattern, packet size, windows and budget, and differ in load
/// and seed. A bare `point` line passes a fresh memo.
#[derive(Default)]
struct PatternMemo {
    /// [`shape_verdict`].
    shape: Option<Result<(), ConfigError>>,
    /// [`PointRequest::digest_prefix`].
    digest: Option<DigestPrefix>,
    /// The analytic model an admission decision consults: inner `None`
    /// is "the model does not cover this config".
    model: Option<Option<AnalyticModel>>,
}

impl PatternMemo {
    /// Admission-time validation, so an invalid point is a typed
    /// `Invalid` outcome before it can occupy queue space: the shared
    /// shape verdict, then the point's own load and window rule. The
    /// first error is the one the evaluator's unsplit
    /// [`noc_openloop::OpenLoopConfig::validate_budgeted`] (behind the
    /// wire's `packet_size` rule) would give.
    fn validate(&mut self, p: &PointRequest) -> Result<(), ConfigError> {
        self.shape.get_or_insert_with(|| shape_verdict(p)).clone()?;
        p.open_loop().validate_load()
    }

    /// `p`'s cache key: [`PointRequest::key`]'s bytes, hashing only the
    /// point's own fields past the shared prefix.
    fn key(&mut self, p: &PointRequest) -> String {
        p.key_from(self.digest.get_or_insert_with(|| p.digest_prefix()))
    }

    /// The analytic model for `p`'s group, built on first use; `None`
    /// when the model does not cover it.
    fn model(&mut self, p: &PointRequest) -> Option<&AnalyticModel> {
        self.model
            .get_or_insert_with(|| AnalyticModel::of(&p.net, p.pattern, p.open_loop().size).ok())
            .as_ref()
    }
}

/// The long-running evaluation service (see module docs).
pub struct Service {
    shared: Arc<Shared>,
    pool: Pool,
    workers: usize,
}

impl Service {
    /// Build a service: validate the config, start the `workers`
    /// evaluation threads (joined when the service is dropped), and —
    /// when a WAL path is configured — replay every durable record into
    /// the result cache so finished points survive a kill.
    pub fn new(cfg: ServeConfig) -> io::Result<Self> {
        Self::with_cache_cap(cfg, CACHE_CAP)
    }

    fn with_cache_cap(cfg: ServeConfig, cache_cap: usize) -> io::Result<Self> {
        cfg.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let workers = if cfg.workers == 0 { threads() } else { cfg.workers };
        let mut cache = ResultCache::new(cache_cap);
        let wal = match &cfg.wal {
            Some(path) => {
                let (wal, replay) = Wal::open(path)?;
                if replay.torn_tail {
                    eprintln!("noc-serve: WAL ended in a torn record (truncated; point re-runs)");
                }
                if replay.corrupt > 0 {
                    eprintln!("noc-serve: skipped {} corrupt WAL line(s)", replay.corrupt);
                }
                for (key, frag) in replay.records {
                    if key.starts_with(META_KEY_PREFIX) {
                        // service metadata (drain status records), not
                        // a point outcome
                        continue;
                    }
                    // re-rendered, not spliced: a journal from an older
                    // writer still answers in canonical bytes
                    match ServeOutcome::parse(&frag) {
                        Ok(o) => {
                            let answer = Rendered::of(&o).answer(&key, true, 0);
                            cache.insert(key, answer);
                        }
                        Err(e) => eprintln!("noc-serve: unreadable WAL record for {key}: {e}"),
                    }
                }
                Some(wal)
            }
            None => None,
        };
        let chaos_left = AtomicU64::new(cfg.chaos);
        let shared = Shared {
            state: Mutex::new(ServeState {
                queue: VecDeque::new(),
                next_seq: HashMap::new(),
                cache,
                draining: false,
            }),
            wal,
            counters: Counters::default(),
            chaos_left,
            cfg,
        };
        Ok(Self { shared: Arc::new(shared), pool: Pool::new(workers), workers })
    }

    /// Worker threads in the evaluation pool: the process-wide bound on
    /// concurrent simulations.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Client-connection bound for socket mode (`--max-clients`).
    pub fn max_clients(&self) -> usize {
        self.shared.cfg.max_clients
    }

    /// Results currently answerable from cache (WAL replay + this
    /// process's evaluations).
    pub fn cached_results(&self) -> usize {
        self.shared.st().cache.map.len()
    }

    /// A connection was accepted; returns the new live-client count.
    pub fn client_connected(&self) -> u64 {
        self.shared.counters.clients.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// A connection closed.
    pub fn client_disconnected(&self) {
        self.shared.counters.clients.fetch_sub(1, Ordering::SeqCst);
    }

    /// Turn away a connection past the `--max-clients` bound: count
    /// it, and answer the one typed `busy` response it is owed.
    pub fn reject_client(&self, out: &mut dyn Write) -> io::Result<()> {
        self.shared.counters.busy.fetch_add(1, Ordering::SeqCst);
        let active = self.shared.counters.clients.load(Ordering::SeqCst);
        self.emit(out, &ServeResponse::Busy { active, max: self.max_clients() as u64 })?;
        flush_burst(out)
    }

    /// Handle one request line, writing responses to `out`: whole
    /// lines, flushed per burst — before any wait on the evaluation
    /// pool, and once when the line is done (see the module docs; hand
    /// over a `BufWriter` to get one `write(2)` per burst). Returns
    /// `false` when the line was a `shutdown` request and the service
    /// has finished draining.
    pub fn handle_line(&self, line: &str, out: &mut dyn Write) -> io::Result<bool> {
        self.handle_line_noting(line, out).map(|(alive, _)| alive)
    }

    /// Answer a line the transport refused to hand over (over-long, not
    /// UTF-8) with the one typed `error` response it is owed.
    pub fn refuse_line(&self, reason: String, out: &mut dyn Write) -> io::Result<()> {
        self.emit(out, &ServeResponse::Error { reason })?;
        flush_burst(out)
    }

    /// [`Service::handle_line`], also reporting the batch a `point` or
    /// `sweep` line admitted work into — what a socket connection
    /// remembers so a TERM drain can flush its own batches — without
    /// the caller parsing the line a second time.
    pub(crate) fn handle_line_noting(
        &self,
        line: &str,
        out: &mut dyn Write,
    ) -> io::Result<(bool, Option<String>)> {
        let handled = self.dispatch(line, out)?;
        flush_burst(out)?;
        Ok(handled)
    }

    /// Parse one request line and act on it; responses are left in
    /// `out` for the caller's end-of-line flush.
    fn dispatch(&self, line: &str, out: &mut dyn Write) -> io::Result<(bool, Option<String>)> {
        // JSON's own whitespace only; any other is the parser's to refuse
        let line = line.trim_matches(WHITESPACE);
        if line.is_empty() {
            return Ok((true, None));
        }
        let mut touched = None;
        match parse_request(line) {
            Err(reason) => self.emit(out, &ServeResponse::Error { reason })?,
            Ok(ServeRequest::Point(p)) => {
                touched = Some(p.batch.clone());
                self.admit(*p, &mut PatternMemo::default(), out)?;
            }
            Ok(ServeRequest::Sweep(sw)) => {
                touched = Some(sw.batch.clone());
                self.run_sweep(&sw, out)?;
            }
            Ok(ServeRequest::Run { batch, max_attempts, deadline_ms }) => {
                self.run_batch(&batch, max_attempts, deadline_ms, out)?;
            }
            Ok(ServeRequest::Cancel { batch }) => {
                let dropped = {
                    let mut st = self.shared.st();
                    let before = st.queue.len();
                    st.queue.retain(|q| q.point.batch != batch);
                    (before - st.queue.len()) as u64
                };
                self.emit(out, &ServeResponse::Cancelled { batch, dropped })?;
            }
            Ok(ServeRequest::Health) => self.emit(out, &ServeResponse::Health(self.snapshot()))?,
            Ok(ServeRequest::Shutdown) => {
                self.shutdown(out)?;
                return Ok((false, None));
            }
        }
        Ok((true, touched))
    }

    /// Admission control: typed rejection for invalid configs, the
    /// analytic admission prune (opt-in), load shedding (or the degraded
    /// analytic answer) when the queue is full, shedding while draining
    /// — and silence (until `run`) when the point is accepted. `memo`
    /// carries what the points of one sweep pattern share. Returns the
    /// kind of the outcome answered immediately, `None` if queued.
    fn admit(
        &self,
        p: PointRequest,
        memo: &mut PatternMemo,
        out: &mut dyn Write,
    ) -> io::Result<Option<&'static str>> {
        let sh = &self.shared;
        // everything derivable from the point alone — its cache key
        // included — happens before the lock; only queue surgery holds it
        let verdict = match memo.validate(&p) {
            Err(e) => Some(ServeOutcome::Invalid { reason: e.to_string() }),
            Ok(()) => admission_prune(&p, memo),
        };
        let key = memo.key(&p);
        // under the lock: the sequence number, and either the answer or
        // — queue full — the depth the overflow answer reports; the
        // degraded model that answer may need is built after it drops
        let (seq, answer) = {
            let mut st = sh.st();
            let seq = {
                let c = st.next_seq.entry(p.batch.clone()).or_insert(0);
                let seq = *c;
                *c += 1;
                seq
            };
            let answer = if st.draining {
                Ok(ServeOutcome::Shed {
                    reason: "service is draining; resubmit to the next instance".into(),
                })
            } else if let Some(v) = verdict {
                Ok(v)
            } else if st.queue.len() >= sh.cfg.queue_capacity {
                Err(st.queue.len())
            } else {
                st.queue.push_back(Queued { seq, point: p, key });
                return Ok(None);
            };
            (seq, answer)
        };
        let outcome = answer.unwrap_or_else(|queued| self.overflow_answer(&p, queued, memo));
        match &outcome {
            ServeOutcome::Shed { .. } => {
                sh.counters.shed.fetch_add(1, Ordering::Relaxed);
            }
            ServeOutcome::Degraded { .. } => {
                sh.counters.degraded.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let answer = Rendered::of(&outcome).answer(&key, false, 0);
        sh.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.emit_result(out, &p.batch, seq, &answer.tail)?;
        Ok(Some(answer.kind))
    }

    /// The queue-full answer, built off the state lock: a degraded
    /// analytic prediction (through the sweep pattern's `memo`) when the
    /// client opted in and the model covers the config, else a typed
    /// shed with the capacity in the reason.
    fn overflow_answer(
        &self,
        p: &PointRequest,
        queued: usize,
        memo: &mut PatternMemo,
    ) -> ServeOutcome {
        let capacity = self.shared.cfg.queue_capacity;
        if p.allow_degraded {
            if let Some(o) = degraded_answer(p, memo) {
                return o;
            }
            return ServeOutcome::Shed {
                reason: format!(
                    "queue full (capacity {capacity}) and no analytic fallback for this configuration"
                ),
            };
        }
        ServeOutcome::Shed { reason: format!("queue full ({queued} queued, capacity {capacity})") }
    }

    /// Expand a sweep spec server-side: admit every expanded point (in
    /// grid order, through the byte-identical admission path a `point`
    /// line takes), run the batch, and emit the `sweep-done` summary
    /// after the `batch-done` marker.
    fn run_sweep(&self, sw: &SweepRequest, out: &mut dyn Write) -> io::Result<()> {
        if let Err(reason) = sw.validate_spec() {
            return self.emit(out, &ServeResponse::Error { reason: format!("sweep: {reason}") });
        }
        let mut tally = Tally::default();
        // patterns are the outermost axis, and within one pattern the
        // points differ only in load and seed: one memo serves each
        // pattern's run of points
        let per_pattern = (sw.expanded_len() / sw.patterns.len() as u64) as usize;
        let mut points = sw.points();
        for _ in &sw.patterns {
            let mut memo = PatternMemo::default();
            for p in points.by_ref().take(per_pattern) {
                if let Some(kind) = self.admit(p, &mut memo, out)? {
                    tally.count(kind);
                }
            }
        }
        tally.merge(self.run_batch(&sw.batch, sw.max_attempts, sw.deadline_ms, out)?);
        self.emit(
            out,
            &ServeResponse::SweepDone {
                batch: sw.batch.clone(),
                expanded: sw.expanded_len(),
                ok: tally.ok,
                degraded: tally.degraded,
                shed: tally.shed,
                invalid: tally.invalid,
                timeout: tally.timeout,
            },
        )
    }

    /// Evaluate every queued point of `batch` and emit results in
    /// submission order, then a `batch-done` marker. Cache hits are
    /// answered here, on the calling thread, from their rendered tails;
    /// the rest go to the pool, in [`Self::start_order`], and come back
    /// through the reorder buffer in [`Self::emit_in_order`]. The state lock is held only to
    /// extract the batch and look its keys up, never across evaluation
    /// or client IO.
    fn run_batch(
        &self,
        batch: &str,
        max_attempts: Option<u32>,
        deadline_ms: Option<u64>,
        out: &mut dyn Write,
    ) -> io::Result<Tally> {
        let sh = &self.shared;
        let items: Vec<(Queued, Option<Arc<Answer>>)> = {
            let mut st = sh.st();
            let queue = std::mem::take(&mut st.queue);
            // the usual case is one batch in flight per queue: nothing of
            // another batch to put back
            let mine = if queue.iter().all(|q| q.point.batch == batch) {
                queue
            } else {
                let (mine, rest): (VecDeque<_>, VecDeque<_>) =
                    queue.into_iter().partition(|q| q.point.batch == batch);
                st.queue = rest;
                mine
            };
            mine.into_iter()
                .map(|q| {
                    let cached = st.cache.map.get(&q.key).cloned();
                    (q, cached)
                })
                .collect()
        };

        let ctx = Arc::new(BatchCtx {
            max_attempts: max_attempts.unwrap_or(sh.cfg.max_attempts).max(1),
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            deadline_ms,
            abandoned: AtomicBool::new(false),
        });

        let mut slots = Vec::with_capacity(items.len());
        let mut jobs = Vec::new();
        for (slot, (Queued { seq, point, key }, cached)) in items.into_iter().enumerate() {
            if cached.is_some() {
                sh.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                jobs.push((slot, point, key));
            }
            slots.push((seq, cached));
        }
        let order = self.start_order(&jobs);
        let mut jobs: Vec<_> = jobs.into_iter().map(Some).collect();
        let (reply, arrivals) = mpsc::channel::<(usize, Arc<Answer>)>();
        for j in order {
            let (slot, p, key) = jobs[j].take().expect("the start order is a permutation");
            let (sh, ctx, reply) = (Arc::clone(sh), Arc::clone(&ctx), reply.clone());
            self.pool.submit(move || {
                if !ctx.abandoned.load(Ordering::SeqCst) {
                    // the receiver is gone only if the batch was
                    // abandoned after this check: nothing to tell
                    let _ = reply.send((slot, sh.eval_job(&p, key, &ctx)));
                }
            });
        }
        drop(reply);
        let tally = self.emit_in_order(batch, slots, &arrivals, out).inspect_err(|_| {
            ctx.abandoned.store(true, Ordering::SeqCst);
        })?;

        if let Some(w) = &sh.wal {
            w.commit()?;
        }
        self.emit(
            out,
            &ServeResponse::BatchDone {
                batch: batch.to_string(),
                points: tally.points,
                ok: tally.ok,
            },
        )?;
        Ok(tally)
    }

    /// The order in which `run_batch` submits a batch's uncached points
    /// (indices into `jobs`). With two or more workers the points with
    /// the largest [`noc_openloop::OpenLoopConfig::work`] go first, so a
    /// sweep's costliest rung is not the one left running alone at the
    /// end; results still leave in slot order. With one worker order
    /// cannot change the batch's total time, and submission order
    /// streams the results best, so it stays.
    fn start_order(&self, jobs: &[(usize, PointRequest, String)]) -> Vec<usize> {
        if self.workers < 2 {
            return (0..jobs.len()).collect();
        }
        longest_first(&jobs.iter().map(|(_, p, _)| p.open_loop().work()).collect::<Vec<_>>())
    }

    /// The per-batch reorder buffer: `slots[i]` is point `i`'s sequence
    /// number and its answer once known (cache hits start filled), and a
    /// result line goes out as soon as every lower slot has gone out —
    /// so a slow first point holds back the bytes behind it, never the
    /// workers. The stream is flushed each time the next slot is still
    /// empty, before the wait.
    fn emit_in_order(
        &self,
        batch: &str,
        mut slots: Vec<(u64, Option<Arc<Answer>>)>,
        arrivals: &mpsc::Receiver<(usize, Arc<Answer>)>,
        out: &mut dyn Write,
    ) -> io::Result<Tally> {
        let mut tally = Tally::default();
        let mut next = 0;
        while next < slots.len() {
            let (seq, answer) = &mut slots[next];
            let Some(a) = answer.take() else {
                // about to wait on a worker: what is already in order
                // leaves now, so a cold batch streams point by point
                flush_burst(out)?;
                // every job sends exactly one result (`eval_job` turns
                // even an unwind into one), so the channel closing early
                // would be a pool bug; fail the batch, not the server
                let (slot, a) = arrivals
                    .recv()
                    .map_err(|_| io::Error::other("evaluation pool dropped a queued point"))?;
                slots[slot].1 = Some(a);
                continue;
            };
            tally.count(a.kind);
            self.shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            self.emit_result(out, batch, *seq, &a.tail)?;
            next += 1;
        }
        Ok(tally)
    }

    /// Graceful drain: evaluate everything still queued (every batch,
    /// admission order), flush the WAL, and emit the final `status`
    /// record. New points arriving after this are shed.
    pub fn shutdown(&self, out: &mut dyn Write) -> io::Result<()> {
        self.drain(None, out)
    }

    /// Drain: set the draining flag, evaluate queued points — every
    /// batch in admission order when `batches` is `None`, else exactly
    /// the named batches (a socket connection drains its own batches
    /// to its own stream on `SIGTERM`) — then emit a `status` record.
    /// Concurrent drains are safe: the queue mutex hands each batch to
    /// exactly one drainer.
    pub fn drain(&self, batches: Option<&[String]>, out: &mut dyn Write) -> io::Result<()> {
        self.shared.st().draining = true;
        match batches {
            Some(bs) => {
                for b in bs {
                    self.run_batch(b, None, None, out)?;
                }
            }
            None => loop {
                let Some(batch) = self.shared.st().queue.front().map(|q| q.point.batch.clone())
                else {
                    break;
                };
                self.run_batch(&batch, None, None, out)?;
            },
        }
        if let Some(w) = &self.shared.wal {
            w.commit()?;
        }
        self.emit(out, &ServeResponse::Status(self.snapshot()))?;
        flush_burst(out)
    }

    /// The socket listener's final drain, after the last connection is
    /// gone: evaluate orphaned points (clients that disconnected with
    /// work queued), emit the status record to `out` (stderr in the
    /// binary — an operator must see what the drain completed, so it
    /// never goes to a sink), and journal a copy of the status into
    /// the WAL when one is configured.
    pub fn drain_to_operator(&self, out: &mut dyn Write) -> io::Result<()> {
        self.drain(None, out)?;
        if let Some(w) = &self.shared.wal {
            w.append(STATUS_KEY, &ServeResponse::Status(self.snapshot()).to_json())?;
            w.commit()?;
        }
        Ok(())
    }

    /// Current queue/worker/counter snapshot (the `health` answer).
    pub fn snapshot(&self) -> HealthSnapshot {
        let sh = &self.shared;
        let (queue_depth, draining) = {
            let st = sh.st();
            (st.queue.len() as u64, st.draining)
        };
        let c = &sh.counters;
        HealthSnapshot {
            queue_depth,
            queue_capacity: sh.cfg.queue_capacity as u64,
            workers: self.workers as u64,
            completed: c.completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            wal_records: sh.wal.as_ref().map(|w| w.records()).unwrap_or(0),
            clients: c.clients.load(Ordering::SeqCst),
            busy: c.busy.load(Ordering::SeqCst),
            draining,
        }
    }

    /// Append one response to the connection writer as a whole line, in
    /// one write. Never flushes: see [`flush_burst`].
    fn emit(&self, out: &mut dyn Write, resp: &ServeResponse) -> io::Result<()> {
        write_line(out, resp.to_json())
    }

    /// [`Self::emit`] for a result line: point `point` of `batch`, with a
    /// rendered answer's `tail`.
    fn emit_result(
        &self,
        out: &mut dyn Write,
        batch: &str,
        point: u64,
        tail: &str,
    ) -> io::Result<()> {
        write_line(out, result_line(batch, point, tail))
    }
}

/// `line` and its newline, in one write.
fn write_line(out: &mut dyn Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// The one place a client stream is flushed (CI greps for a second).
/// Called before a batch waits on the evaluation pool and when a
/// request line is done, so every burst is a run of whole lines.
fn flush_burst(stream: &mut dyn Write) -> io::Result<()> {
    stream.flush()
}

impl Shared {
    /// Lock the mutable state, tolerating poison: the guarded sections
    /// never unwind mid-invariant (evaluation panics are caught by the
    /// attempt loop in `eval_point`, outside this lock).
    fn st(&self) -> MutexGuard<'_, ServeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One pool job: evaluate a point, and turn a panic that escapes
    /// the attempt loop (nothing in `eval_point` should raise one) into
    /// the same typed `Panicked` answer an exhausted loop gives, so
    /// the submitter always hears back.
    fn eval_job(&self, p: &PointRequest, key: String, ctx: &BatchCtx) -> Arc<Answer> {
        catch_unwind(AssertUnwindSafe(|| self.eval_point(p, &key, ctx))).unwrap_or_else(|payload| {
            self.counters.panics.fetch_add(1, Ordering::Relaxed);
            let outcome = ServeOutcome::Panicked { message: panic_message(payload.as_ref()) };
            Rendered::of(&outcome).answer(&key, false, 1)
        })
    }

    /// Evaluate one uncached point on a pool worker: every failure mode
    /// funnels into a typed outcome, rendered once; a cacheable one is
    /// journaled, then cached, before its answer is handed back to be
    /// emitted.
    ///
    /// The one attempt loop: check the batch deadline, then run the
    /// chaos hook and the simulation under one `catch_unwind`. Only a
    /// panic is retried, at once, up to the batch's `max_attempts`; a
    /// budget timeout or a config error is a fact about `(config,
    /// seed)` and would come back the same, so it costs one attempt.
    fn eval_point(&self, p: &PointRequest, key: &str, ctx: &BatchCtx) -> Arc<Answer> {
        // the operator's `--budget` bounds what any client may ask for
        let budget = p.budget.unwrap_or(u64::MAX).min(self.cfg.default_budget);
        let cfg = p.open_loop();
        let mut attempts = 0;
        let outcome = loop {
            if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                break ServeOutcome::Timeout { budget: ctx.deadline_ms.unwrap_or(0), wall: true };
            }
            attempts += 1;
            let run = catch_unwind(AssertUnwindSafe(|| {
                self.maybe_chaos_panic(key);
                measure_budgeted(&cfg, budget)
            }));
            match run {
                Ok(Ok(Ok(r))) => {
                    break ServeOutcome::Ok {
                        avg_latency: r.avg_latency,
                        throughput: r.throughput,
                        stable: r.stable,
                        measured: r.measured_packets,
                        cycles: r.cycles,
                    }
                }
                Ok(Ok(Err(d))) => {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    break ServeOutcome::Timeout { budget: d.budget, wall: false };
                }
                Ok(Err(e)) => break ServeOutcome::Invalid { reason: e.to_string() },
                Err(payload) if attempts >= ctx.max_attempts => {
                    self.counters.panics.fetch_add(1, Ordering::Relaxed);
                    break ServeOutcome::Panicked { message: panic_message(payload.as_ref()) };
                }
                Err(_) => {}
            }
        };
        if attempts > 1 {
            self.counters.retries.fetch_add((attempts - 1) as u64, Ordering::Relaxed);
        }
        let rendered = Rendered::of(&outcome);
        if cacheable(&outcome) {
            if let Some(w) = &self.wal {
                // durable before reported; an append failure degrades
                // durability, not availability
                if let Err(e) = w.append(key, &rendered.fragment) {
                    eprintln!("noc-serve: WAL append failed for {key}: {e}");
                }
            }
            let cached = rendered.answer(key, true, 0);
            self.st().cache.insert(key.to_string(), cached);
        }
        rendered.answer(key, false, attempts)
    }

    /// Chaos injection: panic on the first `cfg.chaos` evaluation
    /// attempts process-wide (the smoke harness's way of proving the
    /// retry path against the real binary).
    fn maybe_chaos_panic(&self, key: &str) {
        let fired = self
            .chaos_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        if fired {
            panic!("chaos: injected evaluation fault for {key}");
        }
    }
}

/// Analytic admission control: when the point opted in and the model
/// (at usable confidence) puts the requested load at or past effective
/// saturation, answer the closed-form prediction now instead of
/// spending a cycle budget discovering divergence. The model depends on
/// the network (not its seed), the pattern and the packet size — never
/// on the load — so a sweep builds it once per pattern through `memo`;
/// a bare `point` line passes a fresh memo and builds its own.
///
/// Pure-accelerator guarantee: interception depends only on the point
/// itself (never on queue state), and a point *not* intercepted takes
/// the identical path it would have taken with the flag off — so
/// enabling the flag can only turn answers into `degraded` ones, never
/// alter a non-degraded answer (property-tested in
/// `tests/sweep_equiv.rs`). Mirroring `noc_analytic::sweep_pruned`,
/// [`Confidence::Low`] disables the prune entirely.
fn admission_prune(p: &PointRequest, memo: &mut PatternMemo) -> Option<ServeOutcome> {
    if !p.analytic_admission {
        return None;
    }
    let m = memo.model(p)?;
    if matches!(m.confidence, Confidence::Low) || p.load < m.effective_saturation {
        return None;
    }
    Some(ServeOutcome::Degraded {
        predicted_latency: m.latency_at(p.load),
        predicted_saturation: m.effective_saturation,
        stable: false,
    })
}

/// The degradation ladder's last rung before shedding: a static
/// analytic prediction, tagged `degraded` on the wire.
fn degraded_answer(p: &PointRequest, memo: &mut PatternMemo) -> Option<ServeOutcome> {
    let m = memo.model(p)?;
    Some(ServeOutcome::Degraded {
        predicted_latency: m.latency_at(p.load),
        predicted_saturation: m.effective_saturation,
        stable: p.load < m.effective_saturation,
    })
}

/// The admission rules every point of one sweep pattern shares, in
/// order: the one wire-only rule (the wire's `u64` packet size must fit
/// the engine's `u16`), then the evaluator's own shape rules under the
/// point's budget.
fn shape_verdict(p: &PointRequest) -> Result<(), ConfigError> {
    if p.packet_size > u16::MAX as u64 {
        let why = format!("{} flits is more than the engine's {}", p.packet_size, u16::MAX);
        return Err(ConfigError::Parameter { name: "packet_size", why });
    }
    p.open_loop().validate_shape(p.budget.unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_eval::serve::parse_response;
    use noc_sim::config::{NetConfig, TopologyKind};
    use noc_traffic::PatternKind;

    fn point(seed: u64) -> PointRequest {
        PointRequest {
            batch: "b".into(),
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
            pattern: PatternKind::Uniform,
            packet_size: 1,
            load: 0.1,
            warmup: 100,
            measure: 300,
            drain_max: 5_000,
            budget: None,
            allow_degraded: false,
            analytic_admission: false,
        }
    }

    /// Submit and run `seeds` as one batch; `(key, cached, canonical
    /// outcome)` per result line, in order.
    fn run(svc: &Service, seeds: &[u64]) -> Vec<(String, bool, String)> {
        let mut buf = Vec::new();
        for &s in seeds {
            svc.handle_line(&ServeRequest::Point(Box::new(point(s))).to_json(), &mut buf).unwrap();
        }
        let run = ServeRequest::Run { batch: "b".into(), max_attempts: None, deadline_ms: None };
        svc.handle_line(&run.to_json(), &mut buf).unwrap();
        String::from_utf8(buf)
            .unwrap()
            .lines()
            .filter_map(|l| match parse_response(l).expect(l) {
                ServeResponse::Result(r) => Some((r.key, r.cached, r.outcome.canonical())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_or_more_workers_start_the_costliest_point_first_and_one_keeps_slot_order() {
        // a sweep rung by rung, cheapest first, with one longer window
        let jobs: Vec<_> = [0.05, 0.3, 0.1, 0.3, 0.2]
            .into_iter()
            .enumerate()
            .map(|(slot, load)| {
                let p =
                    PointRequest { load, measure: if slot == 2 { 900 } else { 300 }, ..point(1) };
                (slot, p, String::new())
            })
            .collect();
        let at = |workers| {
            Service::new(ServeConfig { workers, ..ServeConfig::default() })
                .unwrap()
                .start_order(&jobs)
        };
        assert_eq!(at(1), [0, 1, 2, 3, 4], "one worker: slot order");
        // equal costs (slots 1 and 3) keep slot order
        assert_eq!(at(2), [2, 1, 3, 4, 0]);
        assert_eq!(at(3), at(2));
    }

    #[test]
    fn an_evicted_key_re_simulates_to_the_same_bytes() {
        let wal = std::env::temp_dir().join(format!("noc_serve_evict_{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal);
        // one worker, so insertion order is submission order
        let cfg = ServeConfig { workers: 1, wal: Some(wal.clone()), ..ServeConfig::default() };
        let svc = Service::with_cache_cap(cfg.clone(), 2).unwrap();
        let first = run(&svc, &[1, 2, 3]);
        assert!(first.iter().all(|(_, cached, _)| !cached));
        assert_eq!(svc.cached_results(), 2, "the third insert evicted the oldest");
        // seed 3 is still resident; seed 1 was evicted and runs again
        let again = run(&svc, &[3, 1]);
        assert_eq!(again[0], (first[2].0.clone(), true, first[2].2.clone()));
        assert_eq!(again[1], (first[0].0.clone(), false, first[0].2.clone()));
        assert_eq!(svc.cached_results(), 2);
        drop(svc);
        // the journal now holds seed 1 twice; replay is last-record-wins
        // under the same bound, and answers the same bytes
        let resumed = Service::with_cache_cap(cfg, 2).unwrap();
        assert_eq!(resumed.cached_results(), 2);
        assert_eq!(run(&resumed, &[1]), vec![(first[0].0.clone(), true, first[0].2.clone())]);
        let _ = std::fs::remove_file(&wal);
    }

    /// Admission validation as one call, before the per-pattern split:
    /// the wire's packet-size rule, then the evaluator's unsplit entry.
    fn validate_point(p: &PointRequest) -> Result<(), ConfigError> {
        if p.packet_size > u16::MAX as u64 {
            return shape_verdict(p);
        }
        p.open_loop().validate_budgeted(p.budget.unwrap_or(u64::MAX))
    }

    /// Pick from `items` by an index strategy.
    fn one_of<T: Clone + 'static>(items: &'static [T]) -> impl Strategy<Value = T> {
        (0..items.len()).prop_map(move |i| items[i].clone())
    }

    const TOPOLOGIES: &[TopologyKind] = &[
        TopologyKind::Mesh2D { k: 4 },
        TopologyKind::Mesh2D { k: 3 },
        TopologyKind::Mesh2D { k: 1 },
        TopologyKind::Mesh2D { k: 3000 },
        TopologyKind::Torus2D { k: 4 },
        TopologyKind::FoldedTorus2D { k: 4 },
        TopologyKind::Ring { n: 16 },
        TopologyKind::Ring { n: 1 },
    ];
    const ROUTINGS: &[RoutingKind] =
        &[RoutingKind::Dor, RoutingKind::Valiant, RoutingKind::Romm, RoutingKind::MinAdaptive];
    const PATTERNS: &[PatternKind] = &[
        PatternKind::Uniform,
        PatternKind::Transpose,
        PatternKind::BitComplement,
        PatternKind::Tornado,
        PatternKind::Hotspot { node: 5, frac: 0.25 },
        PatternKind::Hotspot { node: 9_999, frac: 0.5 },
        PatternKind::Hotspot { node: 5, frac: f64::NAN },
    ];
    const LOADS: &[f64] = &[-0.1, 0.0, 5e-324, 0.2, 1.0, 1.5, f64::NAN, f64::INFINITY];

    use noc_sim::config::RoutingKind;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        /// The memoized shape verdict, filled by one point of a sweep
        /// pattern, then each point's own load and window rule, returns
        /// exactly what validating each point whole returns; and the
        /// memoized key is the reference key.
        #[test]
        fn the_memoized_verdict_and_key_are_the_reference(
            net in (one_of(TOPOLOGIES), one_of(ROUTINGS), 0usize..6, 0usize..3, 0u32..3),
            shape in (one_of(PATTERNS), one_of(&[0u64, 1, 4, 65_535, 65_536, u64::MAX])),
            budget in one_of(&[None, Some(0), Some(1), Some(u64::MAX)]),
            a in (one_of(LOADS), one_of(&[0u64, 1, 400]), 0u64..u64::MAX),
            b in (one_of(LOADS), one_of(&[0u64, 1, 400]), 0u64..u64::MAX),
        ) {
            let (topology, routing, vcs, vc_buf, router_delay) = net;
            let at = |(load, measure, seed): (f64, u64, u64)| PointRequest {
                net: NetConfig { topology, routing, vcs, vc_buf, router_delay, seed, ..NetConfig::baseline() },
                pattern: shape.0,
                packet_size: shape.1,
                load,
                measure,
                budget,
                ..point(0)
            };
            let mut memo = PatternMemo::default();
            for p in [at(a), at(b)] {
                prop_assert_eq!(memo.validate(&p), validate_point(&p), "{}", p.to_json());
                prop_assert_eq!(memo.key(&p), p.key());
            }
        }
    }
}
