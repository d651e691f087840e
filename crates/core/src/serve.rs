//! The `noc-eval/serve/v1` line protocol: schema types for the
//! long-running evaluation service (`noc-serve`), emitted and parsed
//! through the shared codec in [`crate::json`].
//!
//! One JSON object per line in both directions. Requests carry a
//! `"req"` discriminator (`point`, `sweep`, `run`, `cancel`, `health`,
//! `shutdown`); responses carry `"resp"` (`result`, `batch-done`,
//! `sweep-done`, `cancelled`, `busy`, `health`, `status`, `error`).
//! Every line also carries the [`SERVE_SCHEMA`] tag so foreign streams
//! are rejected up front.
//!
//! A `sweep` request is a *server-side grid expansion*: one line
//! carrying a pattern list, a load ladder, and a replicate count that
//! the service expands into points with the standard
//! [`noc_exp::derive_seed`] discipline ([`SweepRequest::expand`]). The
//! expansion is defined here, next to the schema, so clients, the
//! service, and the property tests all share the one implementation —
//! which is what makes "sweep responses are byte-identical to
//! submitting the points individually" a checkable contract rather
//! than a convention.
//!
//! Two properties the service's crash-tolerance contract leans on:
//!
//! * **Canonical outcome fragments.** [`ServeOutcome::canonical`] is
//!   the exact byte sequence embedded in result lines *and* stored in
//!   the service WAL, so a replayed (cached) answer is bit-identical
//!   to the originally computed one. Floats are emitted with Rust's
//!   shortest round-trip formatting (`{:?}`), which parses back to the
//!   same bits.
//! * **One reader, typed failures.** Every line is tokenised once by
//!   [`crate::json::Record`]; string fields (shed reasons, panic
//!   messages) may contain quotes, backslashes, and control characters;
//!   unknown fields are ignored. Anything malformed — and any integer
//!   that does not fit the field it is read into, any duplicated key,
//!   any value of the wrong type — is a typed `Err(String)` naming the
//!   field: never a panic, never a silent wrap or drop.

use noc_openloop::OpenLoopConfig;
use noc_sim::config::{Arbitration, NetConfig, RoutingKind, TopologyKind};
use noc_traffic::{PatternKind, SizeKind};

use crate::json::{Obj, Record};

/// Schema tag carried by every `noc-eval/serve/v1` line.
pub const SERVE_SCHEMA: &str = "noc-eval/serve/v1";

/// The members every line starts with: the schema tag and the `req` or
/// `resp` discriminator.
fn line_head(role: &str, kind: &str) -> Obj {
    Obj::new().str("schema", SERVE_SCHEMA).str(role, kind)
}

/// Decode a wire name under `key` with `parse`.
fn named<T>(rec: &Record<'_>, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
    let name: String = rec.req(key)?;
    parse(&name).ok_or_else(|| format!("unknown {key} {name:?}"))
}

/// The network members `point` and `sweep` lines share.
fn net_members(o: Obj, net: &NetConfig) -> Obj {
    o.str("topology", &topology_name(net.topology))
        .str("routing", routing_name(net.routing))
        .str("arb", arb_name(net.arbitration))
        .val("vcs", net.vcs)
        .val("vc_buf", net.vc_buf)
        .val("router_delay", net.router_delay)
}

/// Inverse of [`net_members`] plus the `seed` member: the narrow
/// fields are range-checked, not cast.
fn parse_net(rec: &Record<'_>) -> Result<NetConfig, String> {
    Ok(NetConfig {
        topology: named(rec, "topology", parse_topology)?,
        routing: named(rec, "routing", parse_routing)?,
        arbitration: named(rec, "arb", parse_arb)?,
        vcs: rec.req("vcs")?,
        vc_buf: rec.req("vc_buf")?,
        router_delay: rec.req("router_delay")?,
        seed: rec.req("seed")?,
        ..NetConfig::baseline()
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Config naming: compact wire names shared with the bench drivers
// ---------------------------------------------------------------------------

/// Wire name of a topology (`mesh8`, `torus8`, `ftorus4`, `ring64`).
pub fn topology_name(t: TopologyKind) -> String {
    match t {
        TopologyKind::Mesh2D { k } => format!("mesh{k}"),
        TopologyKind::Torus2D { k } => format!("torus{k}"),
        TopologyKind::FoldedTorus2D { k } => format!("ftorus{k}"),
        TopologyKind::Ring { n } => format!("ring{n}"),
    }
}

/// Inverse of [`topology_name`].
pub fn parse_topology(s: &str) -> Option<TopologyKind> {
    let take = |prefix: &str| -> Option<usize> { s.strip_prefix(prefix)?.parse().ok() };
    if let Some(k) = take("mesh") {
        return Some(TopologyKind::Mesh2D { k });
    }
    if let Some(k) = take("ftorus") {
        return Some(TopologyKind::FoldedTorus2D { k });
    }
    if let Some(k) = take("torus") {
        return Some(TopologyKind::Torus2D { k });
    }
    take("ring").map(|n| TopologyKind::Ring { n })
}

/// Wire name of a routing algorithm (`dor`, `val`, `romm`, `ma`).
pub fn routing_name(r: RoutingKind) -> &'static str {
    match r {
        RoutingKind::Dor => "dor",
        RoutingKind::Valiant => "val",
        RoutingKind::Romm => "romm",
        RoutingKind::MinAdaptive => "ma",
    }
}

/// Inverse of [`routing_name`].
pub fn parse_routing(s: &str) -> Option<RoutingKind> {
    match s {
        "dor" => Some(RoutingKind::Dor),
        "val" => Some(RoutingKind::Valiant),
        "romm" => Some(RoutingKind::Romm),
        "ma" => Some(RoutingKind::MinAdaptive),
        _ => None,
    }
}

/// Wire name of an arbitration policy (`rr`, `age`).
pub fn arb_name(a: Arbitration) -> &'static str {
    match a {
        Arbitration::RoundRobin => "rr",
        Arbitration::AgeBased => "age",
    }
}

/// Inverse of [`arb_name`].
pub fn parse_arb(s: &str) -> Option<Arbitration> {
    match s {
        "rr" => Some(Arbitration::RoundRobin),
        "age" => Some(Arbitration::AgeBased),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One experiment point submitted to the service.
#[derive(Debug, Clone)]
pub struct PointRequest {
    /// Batch this point belongs to (results and cancellation are
    /// batch-scoped).
    pub batch: String,
    /// Network configuration (the seed lives here: a `(config digest,
    /// seed)` pair fully determines the answer).
    pub net: NetConfig,
    /// Spatial traffic pattern.
    pub pattern: PatternKind,
    /// Fixed packet size in flits.
    pub packet_size: u64,
    /// Offered load in flits/cycle/node.
    pub load: f64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement window in cycles.
    pub measure: u64,
    /// Maximum drain cycles.
    pub drain_max: u64,
    /// Per-point cycle budget for the divergence watchdog; `None`
    /// inherits the service default.
    pub budget: Option<u64>,
    /// Permit an analytic-model answer (tagged `degraded`) when the
    /// simulator pool is saturated, instead of a `Shed` rejection.
    pub allow_degraded: bool,
    /// Opt into analytic admission control: when the static model
    /// (with usable confidence) predicts the requested load sits at or
    /// past saturation, the service answers `degraded: true`
    /// immediately — even with queue room — instead of burning a full
    /// cycle budget discovering divergence. A pure accelerator: points
    /// *not* intercepted evaluate exactly as if the flag were off.
    /// Like the batch label, this is admission policy, not physics, so
    /// it does not enter [`PointRequest::digest`].
    pub analytic_admission: bool,
}

impl PointRequest {
    /// The open-loop configuration this point evaluates. A packet size
    /// past the engine's `u16` becomes 0 flits, which
    /// [`OpenLoopConfig::validate`] refuses, never a clamped size.
    pub fn open_loop(&self) -> OpenLoopConfig {
        OpenLoopConfig {
            net: self.net.clone(),
            pattern: self.pattern,
            size: SizeKind::Fixed(u16::try_from(self.packet_size).unwrap_or(0)),
            load: self.load,
            warmup: self.warmup,
            measure: self.measure,
            drain_max: self.drain_max,
            percentiles: false,
        }
    }

    /// FNV-1a digest over every field that determines the answer
    /// *except* the seed and the batch label — so the result cache key
    /// [`PointRequest::key`] is `(config digest, seed)` and repeated
    /// queries deduplicate across batches.
    pub fn digest(&self) -> u64 {
        let desc = format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            topology_name(self.net.topology),
            routing_name(self.net.routing),
            arb_name(self.net.arbitration),
            self.net.vcs,
            self.net.vc_buf,
            self.net.router_delay,
            self.pattern,
            self.packet_size,
            self.load.to_bits(),
            self.warmup,
            self.measure,
            self.drain_max,
            self.budget.map(|b| b as i128).unwrap_or(-1),
        );
        fnv1a(desc.as_bytes())
    }

    /// Result-cache / WAL key: `"{config digest:016x}:{seed:016x}"`.
    pub fn key(&self) -> String {
        format!("{:016x}:{:016x}", self.digest(), self.net.seed)
    }

    /// Emit the request as one `noc-eval/serve/v1` line.
    pub fn to_json(&self) -> String {
        net_members(line_head("req", "point").str("batch", &self.batch), &self.net)
            .str("pattern", &self.pattern.to_string())
            .val("packet_size", self.packet_size)
            .f64("load", self.load)
            .val("warmup", self.warmup)
            .val("measure", self.measure)
            .val("drain_max", self.drain_max)
            .val("seed", self.net.seed)
            .opt("budget", self.budget)
            .val("allow_degraded", self.allow_degraded)
            .val("analytic_admission", self.analytic_admission)
            .object()
    }

    fn from_record(rec: &Record<'_>) -> Result<Self, String> {
        Ok(Self {
            batch: rec.req("batch")?,
            net: parse_net(rec)?,
            pattern: named(rec, "pattern", PatternKind::parse)?,
            packet_size: rec.req("packet_size")?,
            load: rec.req("load")?,
            warmup: rec.req("warmup")?,
            measure: rec.req("measure")?,
            drain_max: rec.req("drain_max")?,
            budget: rec.opt("budget")?,
            allow_degraded: rec.opt("allow_degraded")?.unwrap_or(false),
            analytic_admission: rec.opt("analytic_admission")?.unwrap_or(false),
        })
    }
}

// ---------------------------------------------------------------------------
// Server-side sweep expansion
// ---------------------------------------------------------------------------

/// A grid spec the service expands into points server-side: one line
/// instead of `patterns x loads x seeds` point lines.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Batch every expanded point lands in.
    pub batch: String,
    /// Network configuration shared by every point. `net.seed` is the
    /// *base* seed: point `i` of the expansion runs with
    /// `derive_seed(net.seed, i)`, never the base itself — the same
    /// discipline as every grid sweep in the workspace.
    pub net: NetConfig,
    /// Spatial traffic patterns (outermost grid axis).
    pub patterns: Vec<PatternKind>,
    /// Offered-load ladder (middle axis), flits/cycle/node.
    pub loads: Vec<f64>,
    /// Seed replicates per `(pattern, load)` cell (innermost axis).
    pub seeds: u64,
    /// Fixed packet size in flits.
    pub packet_size: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement window in cycles.
    pub measure: u64,
    /// Maximum drain cycles.
    pub drain_max: u64,
    /// Per-point cycle budget; `None` inherits the service default.
    pub budget: Option<u64>,
    /// Per-point `allow_degraded` flag (see [`PointRequest`]).
    pub allow_degraded: bool,
    /// Per-point analytic admission control (see [`PointRequest`]).
    pub analytic_admission: bool,
    /// Retry-cap override for the expanded batch (as on a `run`).
    pub max_attempts: Option<u32>,
    /// Wall-clock deadline for the expanded batch, in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Most points one `sweep` line may expand to. A spec past it — or one
/// whose `patterns x loads x seeds` product overflows — is rejected
/// with a typed `error` line before anything is allocated; a larger
/// campaign is several sweeps (the admission queue is far smaller than
/// this anyway, so the excess would only be shed).
pub const MAX_SWEEP_POINTS: u64 = 1 << 16;

/// Longest request line either transport reads; a longer one (or one
/// that is not UTF-8) is answered with a typed `error` and dropped
/// unread. 4 MiB admits every legal line: the largest is a sweep whose
/// [`MAX_SWEEP_POINTS`] points are all patterns, at up to 56 bytes each
/// (`"hotspot:<20-digit node>:<23-char fraction>", `) 3.5 MiB, which
/// leaves 512 KiB for the other fields.
pub const MAX_LINE_BYTES: usize = 1 << 22;

impl SweepRequest {
    /// Points the sweep expands to (`patterns x loads x seeds`),
    /// saturating at `u64::MAX`.
    pub fn expanded_len(&self) -> u64 {
        (self.patterns.len() as u64)
            .saturating_mul(self.loads.len() as u64)
            .saturating_mul(self.seeds)
    }

    /// Reject grids that cannot expand: empty axes, non-finite or
    /// negative loads, zero replicates, more than
    /// [`MAX_SWEEP_POINTS`] points.
    pub fn validate_spec(&self) -> Result<(), String> {
        if self.patterns.is_empty() {
            return Err("sweep needs at least one pattern".into());
        }
        if self.loads.is_empty() {
            return Err("sweep needs at least one load".into());
        }
        if let Some(l) = self.loads.iter().find(|l| !l.is_finite() || **l < 0.0) {
            return Err(format!("sweep load {l} is not a finite non-negative number"));
        }
        if self.seeds == 0 {
            return Err("sweep needs at least one seed replicate".into());
        }
        if self.expanded_len() > MAX_SWEEP_POINTS {
            return Err(format!(
                "sweep expands to more than {MAX_SWEEP_POINTS} points ({} patterns x {} loads x {} seeds)",
                self.patterns.len(),
                self.loads.len(),
                self.seeds
            ));
        }
        Ok(())
    }

    /// Expand the grid into point requests, pattern-major then load
    /// then replicate, point `i` seeded `derive_seed(net.seed, i)`.
    /// This is the *one* definition of the expansion: the service, the
    /// smoke harness, and the byte-identity property tests all call it,
    /// so a client submitting these exact points individually gets
    /// bit-identical response lines.
    pub fn expand(&self) -> Vec<PointRequest> {
        // a hint only: an unvalidated spec must not size the allocation
        let mut points = Vec::with_capacity(self.expanded_len().min(MAX_SWEEP_POINTS) as usize);
        points.extend(self.points());
        points
    }

    /// [`SweepRequest::expand`], one point at a time: the service
    /// admits each point as it is produced, so a maximal sweep never
    /// holds [`MAX_SWEEP_POINTS`] cloned configurations at once.
    pub fn points(&self) -> impl Iterator<Item = PointRequest> + '_ {
        let cells = self.patterns.iter().flat_map(move |&pattern| {
            self.loads.iter().flat_map(move |&load| (0..self.seeds).map(move |_| (pattern, load)))
        });
        (0u64..).zip(cells).map(move |(i, (pattern, load))| {
            let mut net = self.net.clone();
            net.seed = noc_exp::derive_seed(self.net.seed, i);
            PointRequest {
                batch: self.batch.clone(),
                net,
                pattern,
                packet_size: self.packet_size,
                load,
                warmup: self.warmup,
                measure: self.measure,
                drain_max: self.drain_max,
                budget: self.budget,
                allow_degraded: self.allow_degraded,
                analytic_admission: self.analytic_admission,
            }
        })
    }

    /// Emit the request as one `noc-eval/serve/v1` line.
    pub fn to_json(&self) -> String {
        let patterns = self.patterns.iter().map(|p| format!("\"{p}\""));
        net_members(line_head("req", "sweep").str("batch", &self.batch), &self.net)
            .arr("patterns", patterns)
            .arr("loads", self.loads.iter().map(|l| format!("{l:?}")))
            .val("seeds", self.seeds)
            .val("packet_size", self.packet_size)
            .val("warmup", self.warmup)
            .val("measure", self.measure)
            .val("drain_max", self.drain_max)
            .val("seed", self.net.seed)
            .opt("budget", self.budget)
            .val("allow_degraded", self.allow_degraded)
            .val("analytic_admission", self.analytic_admission)
            .opt("max_attempts", self.max_attempts)
            .opt("deadline_ms", self.deadline_ms)
            .object()
    }

    fn from_record(rec: &Record<'_>) -> Result<Self, String> {
        let names: Vec<String> = rec.req("patterns")?;
        let patterns = names
            .iter()
            .map(|p| PatternKind::parse(p).ok_or_else(|| format!("unknown pattern {p:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            batch: rec.req("batch")?,
            net: parse_net(rec)?,
            patterns,
            loads: rec.req("loads")?,
            seeds: rec.req("seeds")?,
            packet_size: rec.req("packet_size")?,
            warmup: rec.req("warmup")?,
            measure: rec.req("measure")?,
            drain_max: rec.req("drain_max")?,
            budget: rec.opt("budget")?,
            allow_degraded: rec.opt("allow_degraded")?.unwrap_or(false),
            analytic_admission: rec.opt("analytic_admission")?.unwrap_or(false),
            max_attempts: rec.opt("max_attempts")?,
            deadline_ms: rec.opt("deadline_ms")?,
        })
    }
}

/// A parsed `noc-eval/serve/v1` request line.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Enqueue one experiment point into its batch.
    Point(Box<PointRequest>),
    /// Expand a grid spec server-side, evaluate it, and stream the
    /// per-point results plus a `sweep-done` summary.
    Sweep(Box<SweepRequest>),
    /// Evaluate every queued point of a batch and emit results.
    Run {
        /// Batch to run.
        batch: String,
        /// Override the service's retry cap for this batch.
        max_attempts: Option<u32>,
        /// Wall-clock deadline for the whole batch, in milliseconds;
        /// points not started in time report `Timeout` with
        /// `wall: true`.
        deadline_ms: Option<u64>,
    },
    /// Drop every queued (not yet run) point of a batch.
    Cancel {
        /// Batch to cancel.
        batch: String,
    },
    /// Report queue depth, worker liveness, and robustness counters.
    Health,
    /// Drain, flush the WAL, emit a final status record, and exit.
    Shutdown,
}

impl ServeRequest {
    /// Emit the request as one `noc-eval/serve/v1` line.
    pub fn to_json(&self) -> String {
        match self {
            ServeRequest::Point(p) => p.to_json(),
            ServeRequest::Sweep(s) => s.to_json(),
            ServeRequest::Run { batch, max_attempts, deadline_ms } => line_head("req", "run")
                .str("batch", batch)
                .opt("max_attempts", *max_attempts)
                .opt("deadline_ms", *deadline_ms)
                .object(),
            ServeRequest::Cancel { batch } => {
                line_head("req", "cancel").str("batch", batch).object()
            }
            ServeRequest::Health => line_head("req", "health").object(),
            ServeRequest::Shutdown => line_head("req", "shutdown").object(),
        }
    }
}

/// Parse one request line, tokenising it once. Unknown fields are
/// ignored; a malformed line, a duplicated key, or a field of the wrong
/// type or range returns a typed error naming it (which the service
/// answers with an `error` response), never a panic.
pub fn parse_request(line: &str) -> Result<ServeRequest, String> {
    let rec = Record::parse(line)?;
    rec.expect_schema(SERVE_SCHEMA)?;
    let kind: String = rec.req("req")?;
    Ok(match kind.as_str() {
        "point" => ServeRequest::Point(Box::new(PointRequest::from_record(&rec)?)),
        "sweep" => ServeRequest::Sweep(Box::new(SweepRequest::from_record(&rec)?)),
        "run" => ServeRequest::Run {
            batch: rec.req("batch")?,
            max_attempts: rec.opt("max_attempts")?,
            deadline_ms: rec.opt("deadline_ms")?,
        },
        "cancel" => ServeRequest::Cancel { batch: rec.req("batch")? },
        "health" => ServeRequest::Health,
        "shutdown" => ServeRequest::Shutdown,
        other => return Err(format!("unknown request kind {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Outcomes and responses
// ---------------------------------------------------------------------------

/// The typed outcome of one point: the degradation ladder's rungs.
/// Every admitted point gets exactly one of these — overload and
/// divergence become data, never hangs or silent drops.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// Fully simulated result.
    Ok {
        /// Average marked-packet latency (cycles).
        avg_latency: f64,
        /// Accepted throughput (flits/cycle/node).
        throughput: f64,
        /// Below saturation (drained, throughput tracks offered).
        stable: bool,
        /// Marked packets measured.
        measured: u64,
        /// Total simulated cycles.
        cycles: u64,
    },
    /// Analytic-model answer served because the simulator pool was
    /// saturated; always tagged `"degraded": true` on the wire.
    Degraded {
        /// Model-predicted latency at the requested load; `None` when
        /// the load sits past the model's saturation asymptote.
        predicted_latency: Option<f64>,
        /// Model-predicted saturation throughput.
        predicted_saturation: f64,
        /// Whether the requested load is below predicted saturation.
        stable: bool,
    },
    /// The watchdog fired: cycle budget exceeded (`wall: false`) or the
    /// batch wall-clock deadline passed before the point ran
    /// (`wall: true`).
    Timeout {
        /// The budget that was exceeded (cycles, or the deadline in
        /// milliseconds when `wall`).
        budget: u64,
        /// True for a wall-clock deadline, false for a cycle budget.
        wall: bool,
    },
    /// Load shedding: the point was rejected at admission with a
    /// reason, and was never evaluated.
    Shed {
        /// Why the point was rejected (queue full, draining, ...).
        reason: String,
    },
    /// Evaluation panicked on every permitted attempt.
    Panicked {
        /// The final attempt's panic payload.
        message: String,
    },
    /// The request itself was rejected by config validation.
    Invalid {
        /// The validation error.
        reason: String,
    },
}

impl ServeOutcome {
    /// Short discriminator (`ok`, `degraded`, `timeout`, `shed`,
    /// `panicked`, `invalid`).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeOutcome::Ok { .. } => "ok",
            ServeOutcome::Degraded { .. } => "degraded",
            ServeOutcome::Timeout { .. } => "timeout",
            ServeOutcome::Shed { .. } => "shed",
            ServeOutcome::Panicked { .. } => "panicked",
            ServeOutcome::Invalid { .. } => "invalid",
        }
    }

    /// The canonical JSON fragment (no surrounding braces). This exact
    /// byte sequence is embedded in result lines and stored in the
    /// service WAL, so cached replays are bit-identical to the original
    /// computation. Floats use shortest round-trip formatting.
    pub fn canonical(&self) -> String {
        self.members(Obj::new()).fragment()
    }

    fn members(&self, o: Obj) -> Obj {
        let o = o.str("outcome", self.kind());
        match self {
            ServeOutcome::Ok { avg_latency, throughput, stable, measured, cycles } => o
                .f64("avg_latency", *avg_latency)
                .f64("throughput", *throughput)
                .val("stable", stable)
                .val("measured", measured)
                .val("cycles", cycles),
            ServeOutcome::Degraded { predicted_latency, predicted_saturation, stable } => {
                let latency = predicted_latency.map_or("null".into(), |l| format!("{l:?}"));
                o.val("degraded", true)
                    .val("predicted_latency", latency)
                    .f64("predicted_saturation", *predicted_saturation)
                    .val("stable", stable)
            }
            ServeOutcome::Timeout { budget, wall } => o.val("budget", budget).val("wall", wall),
            ServeOutcome::Shed { reason } | ServeOutcome::Invalid { reason } => {
                o.str("reason", reason)
            }
            ServeOutcome::Panicked { message } => o.str("message", message),
        }
    }

    /// Parse an outcome from a line (or bare canonical fragment).
    pub fn parse(line: &str) -> Result<Self, String> {
        Self::from_record(&Record::parse(line)?)
    }

    fn from_record(rec: &Record<'_>) -> Result<Self, String> {
        let kind: String = rec.req("outcome")?;
        Ok(match kind.as_str() {
            "ok" => ServeOutcome::Ok {
                avg_latency: rec.req("avg_latency")?,
                throughput: rec.req("throughput")?,
                stable: rec.req("stable")?,
                measured: rec.req("measured")?,
                cycles: rec.req("cycles")?,
            },
            "degraded" => ServeOutcome::Degraded {
                predicted_latency: rec.opt("predicted_latency")?,
                predicted_saturation: rec.req("predicted_saturation")?,
                stable: rec.req("stable")?,
            },
            "timeout" => {
                ServeOutcome::Timeout { budget: rec.req("budget")?, wall: rec.req("wall")? }
            }
            "shed" => ServeOutcome::Shed { reason: rec.req("reason")? },
            "panicked" => ServeOutcome::Panicked { message: rec.req("message")? },
            "invalid" => ServeOutcome::Invalid { reason: rec.req("reason")? },
            other => return Err(format!("unknown outcome kind {other:?}")),
        })
    }
}

/// One point's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Batch the point belonged to.
    pub batch: String,
    /// Point sequence number within the batch (submission order).
    pub point: u64,
    /// Result-cache key (`digest:seed`); empty for outcomes that never
    /// reached evaluation (shed, invalid).
    pub key: String,
    /// True when the answer was replayed from the cache/WAL rather than
    /// recomputed. Volatile: excluded from bit-identity comparisons.
    pub cached: bool,
    /// Evaluation attempts consumed (0 for cached/shed answers).
    /// Volatile under chaos injection: excluded from bit-identity
    /// comparisons.
    pub attempts: u32,
    /// The typed outcome.
    pub outcome: ServeOutcome,
}

impl ServeResult {
    /// Emit the result as one `noc-eval/serve/v1` line; the outcome
    /// portion is [`ServeOutcome::canonical`], byte-for-byte.
    pub fn to_json(&self) -> String {
        let head = line_head("resp", "result")
            .str("batch", &self.batch)
            .val("point", self.point)
            .str("key", &self.key)
            .val("cached", self.cached)
            .val("attempts", self.attempts);
        self.outcome.members(head).object()
    }

    fn from_record(rec: &Record<'_>) -> Result<Self, String> {
        Ok(Self {
            batch: rec.req("batch")?,
            point: rec.req("point")?,
            key: rec.req("key")?,
            cached: rec.req("cached")?,
            attempts: rec.req("attempts")?,
            outcome: ServeOutcome::from_record(rec)?,
        })
    }
}

/// Queue, worker, and robustness counters reported by `health` and by
/// the final `status` record on shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Points currently queued (admitted, not yet evaluated).
    pub queue_depth: u64,
    /// Admission queue capacity.
    pub queue_capacity: u64,
    /// Simulator worker count.
    pub workers: u64,
    /// Points answered over the service lifetime (all outcome kinds).
    pub completed: u64,
    /// Answers replayed from the result cache / WAL.
    pub cache_hits: u64,
    /// Points rejected at admission.
    pub shed: u64,
    /// Points answered by the analytic model.
    pub degraded: u64,
    /// Extra evaluation attempts consumed by retries.
    pub retries: u64,
    /// Watchdog/deadline timeouts.
    pub timeouts: u64,
    /// Points whose every attempt panicked.
    pub panics: u64,
    /// Records in the WAL (replayed + appended).
    pub wal_records: u64,
    /// Live client connections (socket mode; 0 on stdio).
    pub clients: u64,
    /// Connections turned away with a typed `busy` because
    /// `--max-clients` were already connected.
    pub busy: u64,
    /// True once shutdown has begun (new points are shed).
    pub draining: bool,
}

impl HealthSnapshot {
    fn emit(&self, resp: &str) -> String {
        line_head("resp", resp)
            .val("queue_depth", self.queue_depth)
            .val("queue_capacity", self.queue_capacity)
            .val("workers", self.workers)
            .val("completed", self.completed)
            .val("cache_hits", self.cache_hits)
            .val("shed", self.shed)
            .val("degraded", self.degraded)
            .val("retries", self.retries)
            .val("timeouts", self.timeouts)
            .val("panics", self.panics)
            .val("wal_records", self.wal_records)
            .val("clients", self.clients)
            .val("busy", self.busy)
            .val("draining", self.draining)
            .object()
    }

    fn from_record(rec: &Record<'_>) -> Result<Self, String> {
        Ok(Self {
            queue_depth: rec.req("queue_depth")?,
            queue_capacity: rec.req("queue_capacity")?,
            workers: rec.req("workers")?,
            completed: rec.req("completed")?,
            cache_hits: rec.req("cache_hits")?,
            shed: rec.req("shed")?,
            degraded: rec.req("degraded")?,
            retries: rec.req("retries")?,
            timeouts: rec.req("timeouts")?,
            panics: rec.req("panics")?,
            wal_records: rec.req("wal_records")?,
            // absent on pre-sweep snapshots: default 0 keeps old
            // status lines (e.g. a WAL-journaled drain record from a
            // previous binary) readable
            clients: rec.opt("clients")?.unwrap_or(0),
            busy: rec.opt("busy")?.unwrap_or(0),
            draining: rec.req("draining")?,
        })
    }
}

/// A parsed `noc-eval/serve/v1` response line.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// One point's answer.
    Result(ServeResult),
    /// A `run` request finished; every point answered.
    BatchDone {
        /// The batch.
        batch: String,
        /// Results emitted for it.
        points: u64,
        /// How many of them were fully simulated `Ok` outcomes.
        ok: u64,
    },
    /// A `sweep` request finished: every expanded point was answered
    /// (result lines and a `batch-done` precede this record) and this
    /// summarizes the outcome mix.
    SweepDone {
        /// The batch the sweep expanded into.
        batch: String,
        /// Points the grid spec expanded to.
        expanded: u64,
        /// Fully simulated `ok` outcomes.
        ok: u64,
        /// Analytic `degraded` answers (overload or admission pruning).
        degraded: u64,
        /// Typed `shed` rejections.
        shed: u64,
        /// Typed `invalid` rejections.
        invalid: u64,
        /// Cycle-budget or wall-clock `timeout` outcomes.
        timeout: u64,
    },
    /// A `cancel` request finished.
    Cancelled {
        /// The batch.
        batch: String,
        /// Queued points dropped.
        dropped: u64,
    },
    /// The connection was turned away at accept: `--max-clients`
    /// connections were already live. Emitted once, then the socket is
    /// closed; the client should back off and reconnect.
    Busy {
        /// Connections live when this one was rejected.
        active: u64,
        /// The service's `--max-clients` bound.
        max: u64,
    },
    /// Answer to a `health` request.
    Health(HealthSnapshot),
    /// The final record a draining service emits before exiting.
    Status(HealthSnapshot),
    /// A malformed or unserviceable request line.
    Error {
        /// What was wrong with it.
        reason: String,
    },
}

impl ServeResponse {
    /// Emit the response as one `noc-eval/serve/v1` line.
    pub fn to_json(&self) -> String {
        match self {
            ServeResponse::Result(r) => r.to_json(),
            ServeResponse::BatchDone { batch, points, ok } => line_head("resp", "batch-done")
                .str("batch", batch)
                .val("points", points)
                .val("ok", ok)
                .object(),
            ServeResponse::SweepDone { batch, expanded, ok, degraded, shed, invalid, timeout } => {
                line_head("resp", "sweep-done")
                    .str("batch", batch)
                    .val("expanded", expanded)
                    .val("ok", ok)
                    .val("degraded", degraded)
                    .val("shed", shed)
                    .val("invalid", invalid)
                    .val("timeout", timeout)
                    .object()
            }
            ServeResponse::Cancelled { batch, dropped } => {
                line_head("resp", "cancelled").str("batch", batch).val("dropped", dropped).object()
            }
            ServeResponse::Busy { active, max } => {
                line_head("resp", "busy").val("active", active).val("max", max).object()
            }
            ServeResponse::Health(h) => h.emit("health"),
            ServeResponse::Status(h) => h.emit("status"),
            ServeResponse::Error { reason } => {
                line_head("resp", "error").str("reason", reason).object()
            }
        }
    }
}

/// Parse one response line (same contract as [`parse_request`]).
pub fn parse_response(line: &str) -> Result<ServeResponse, String> {
    let rec = Record::parse(line)?;
    rec.expect_schema(SERVE_SCHEMA)?;
    let kind: String = rec.req("resp")?;
    Ok(match kind.as_str() {
        "result" => ServeResponse::Result(ServeResult::from_record(&rec)?),
        "batch-done" => ServeResponse::BatchDone {
            batch: rec.req("batch")?,
            points: rec.req("points")?,
            ok: rec.req("ok")?,
        },
        "sweep-done" => ServeResponse::SweepDone {
            batch: rec.req("batch")?,
            expanded: rec.req("expanded")?,
            ok: rec.req("ok")?,
            degraded: rec.req("degraded")?,
            shed: rec.req("shed")?,
            invalid: rec.req("invalid")?,
            timeout: rec.req("timeout")?,
        },
        "cancelled" => {
            ServeResponse::Cancelled { batch: rec.req("batch")?, dropped: rec.req("dropped")? }
        }
        "busy" => ServeResponse::Busy { active: rec.req("active")?, max: rec.req("max")? },
        "health" => ServeResponse::Health(HealthSnapshot::from_record(&rec)?),
        "status" => ServeResponse::Status(HealthSnapshot::from_record(&rec)?),
        "error" => ServeResponse::Error { reason: rec.opt("reason")?.unwrap_or_default() },
        other => return Err(format!("unknown response kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(seed: u64, load: f64) -> PointRequest {
        PointRequest {
            batch: "b1".into(),
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
            pattern: PatternKind::Uniform,
            packet_size: 1,
            load,
            warmup: 1_000,
            measure: 3_000,
            drain_max: 20_000,
            budget: Some(200_000),
            allow_degraded: true,
            analytic_admission: false,
        }
    }

    #[test]
    fn point_request_round_trips() {
        let p = point(42, 0.2);
        let line = p.to_json();
        let ServeRequest::Point(q) = parse_request(&line).unwrap() else {
            panic!("expected a point request")
        };
        assert_eq!(q.net.topology, p.net.topology);
        assert_eq!(q.net.routing, p.net.routing);
        assert_eq!(q.net.seed, 42);
        assert_eq!(q.pattern, p.pattern);
        assert_eq!(q.load.to_bits(), p.load.to_bits());
        assert_eq!(q.budget, Some(200_000));
        assert!(q.allow_degraded);
        assert_eq!(q.key(), p.key());
    }

    #[test]
    fn hotspot_pattern_and_all_topologies_round_trip() {
        let mut p = point(7, 0.15);
        p.pattern = PatternKind::Hotspot { node: 5, frac: 0.25 };
        p.budget = None;
        for topo in [
            TopologyKind::Mesh2D { k: 8 },
            TopologyKind::Torus2D { k: 8 },
            TopologyKind::FoldedTorus2D { k: 4 },
            TopologyKind::Ring { n: 64 },
        ] {
            p.net.topology = topo;
            let ServeRequest::Point(q) = parse_request(&p.to_json()).unwrap() else {
                panic!("point")
            };
            assert_eq!(q.net.topology, topo);
            assert_eq!(q.pattern, p.pattern);
            assert_eq!(q.budget, None);
        }
    }

    #[test]
    fn digest_isolates_the_seed_and_sees_everything_else() {
        let a = point(1, 0.2);
        let b = point(2, 0.2);
        assert_eq!(a.digest(), b.digest(), "seed must not enter the config digest");
        assert_ne!(a.key(), b.key(), "but it does enter the cache key");
        assert_ne!(a.digest(), point(1, 0.25).digest());
        let mut c = a.clone();
        c.budget = None;
        assert_ne!(a.digest(), c.digest(), "the watchdog budget shapes the answer");
        let mut d = a.clone();
        d.batch = "other".into();
        assert_eq!(a.digest(), d.digest(), "batch label must not enter the digest");
        let mut e = a.clone();
        e.analytic_admission = true;
        assert_eq!(a.digest(), e.digest(), "admission policy must not enter the digest");
    }

    fn sweep() -> SweepRequest {
        SweepRequest {
            batch: "sw".into(),
            net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(99),
            patterns: vec![PatternKind::Uniform, PatternKind::Transpose],
            loads: vec![0.05, 0.1, 0.15],
            seeds: 2,
            packet_size: 1,
            warmup: 500,
            measure: 1_000,
            drain_max: 10_000,
            budget: Some(100_000),
            allow_degraded: true,
            analytic_admission: true,
            max_attempts: Some(2),
            deadline_ms: None,
        }
    }

    #[test]
    fn sweep_request_round_trips() {
        let sw = sweep();
        let ServeRequest::Sweep(back) = parse_request(&sw.to_json()).unwrap() else {
            panic!("expected a sweep request")
        };
        assert_eq!(back.batch, sw.batch);
        assert_eq!(back.net.topology, sw.net.topology);
        assert_eq!(back.net.seed, 99);
        assert_eq!(back.patterns, sw.patterns);
        assert_eq!(
            back.loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            sw.loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "load ladder survives bit-exactly"
        );
        assert_eq!(back.seeds, 2);
        assert_eq!(back.budget, Some(100_000));
        assert!(back.allow_degraded && back.analytic_admission);
        assert_eq!(back.max_attempts, Some(2));
        assert_eq!(back.deadline_ms, None);
    }

    #[test]
    fn sweep_expansion_follows_the_derive_seed_discipline() {
        let sw = sweep();
        let pts = sw.expand();
        assert_eq!(pts.len() as u64, sw.expanded_len());
        assert_eq!(pts.len(), 2 * 3 * 2, "patterns x loads x seeds");
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.net.seed, noc_exp::derive_seed(99, i as u64));
            assert_eq!(p.batch, "sw");
            let (pi, li) = (i / 6, (i / 2) % 3);
            assert_eq!(p.pattern, sw.patterns[pi], "pattern-major order");
            assert_eq!(p.load.to_bits(), sw.loads[li].to_bits());
        }
        // a parsed copy of the wire line expands to the identical grid
        let ServeRequest::Sweep(back) = parse_request(&sw.to_json()).unwrap() else {
            panic!("sweep")
        };
        let again = back.expand();
        for (a, b) in pts.iter().zip(&again) {
            assert_eq!(a.key(), b.key(), "client- and server-side expansions agree");
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn lazy_points_are_the_expansion() {
        let sw = sweep();
        let lines = |pts: Vec<PointRequest>| pts.iter().map(|p| p.to_json()).collect::<Vec<_>>();
        let eager = lines(sw.expand());
        assert_eq!(eager.len(), 12, "multi-pattern, multi-seed");
        // the request line carries every field of a point
        assert_eq!(eager, lines(sw.points().collect()));
    }

    #[test]
    fn sweep_spec_validation_rejects_degenerate_grids() {
        assert!(sweep().validate_spec().is_ok());
        let mut s = sweep();
        s.patterns.clear();
        assert!(s.validate_spec().is_err());
        let mut s = sweep();
        s.loads = vec![f64::NAN];
        assert!(s.validate_spec().is_err());
        let mut s = sweep();
        s.loads = vec![-0.1];
        assert!(s.validate_spec().is_err());
        let mut s = sweep();
        s.seeds = 0;
        assert!(s.validate_spec().is_err());
        // the largest grid that fits, one past it, and a product that
        // overflows u64
        let cells = (sweep().patterns.len() * sweep().loads.len()) as u64;
        let mut s = sweep();
        s.seeds = MAX_SWEEP_POINTS / cells;
        assert!(s.validate_spec().is_ok());
        s.seeds += 1;
        assert!(s.validate_spec().unwrap_err().contains("expands to more than"));
        s.seeds = u64::MAX;
        assert!(s.validate_spec().is_err());
    }

    #[test]
    fn sweep_done_and_busy_round_trip() {
        let done = ServeResponse::SweepDone {
            batch: "sw\"x".into(),
            expanded: 12,
            ok: 8,
            degraded: 2,
            shed: 1,
            invalid: 1,
            timeout: 0,
        };
        assert_eq!(parse_response(&done.to_json()).unwrap(), done);
        let busy = ServeResponse::Busy { active: 4, max: 4 };
        assert_eq!(parse_response(&busy.to_json()).unwrap(), busy);
    }

    #[test]
    fn control_requests_round_trip() {
        for (req, want) in [
            (
                ServeRequest::Run {
                    batch: "b\"x".into(),
                    max_attempts: Some(5),
                    deadline_ms: None,
                },
                "run",
            ),
            (ServeRequest::Cancel { batch: "b1".into() }, "cancel"),
            (ServeRequest::Health, "health"),
            (ServeRequest::Shutdown, "shutdown"),
        ] {
            let line = req.to_json();
            let parsed = parse_request(&line).unwrap();
            match (&parsed, want) {
                (ServeRequest::Run { batch, max_attempts, deadline_ms }, "run") => {
                    assert_eq!(batch, "b\"x");
                    assert_eq!(*max_attempts, Some(5));
                    assert_eq!(*deadline_ms, None);
                }
                (ServeRequest::Cancel { batch }, "cancel") => assert_eq!(batch, "b1"),
                (ServeRequest::Health, "health") | (ServeRequest::Shutdown, "shutdown") => {}
                _ => panic!("wrong parse for {line}"),
            }
        }
    }

    #[test]
    fn outcomes_round_trip_with_nasty_strings() {
        let outcomes = [
            ServeOutcome::Ok {
                avg_latency: 12.345678901234567,
                throughput: 1e-6,
                stable: true,
                measured: u64::MAX,
                cycles: 9_007_199_254_740_993, // 2^53 + 1: f64 would corrupt it
            },
            ServeOutcome::Degraded {
                predicted_latency: None,
                predicted_saturation: 0.3125,
                stable: false,
            },
            ServeOutcome::Timeout { budget: 100_000, wall: true },
            ServeOutcome::Shed { reason: "queue \"full\"\n\tcapacity=2\\node".into() },
            ServeOutcome::Panicked { message: "index out of bounds: \u{1}\u{7f}".into() },
            ServeOutcome::Invalid { reason: "vc_buf: must be >= 1 flit".into() },
        ];
        for o in outcomes {
            let r = ServeResult {
                batch: "b1".into(),
                point: 3,
                key: "00ff:0001".into(),
                cached: false,
                attempts: 2,
                outcome: o.clone(),
            };
            let line = r.to_json();
            let ServeResponse::Result(back) = parse_response(&line).unwrap() else {
                panic!("expected result for {line}")
            };
            assert_eq!(back, r, "round trip failed for {line}");
            assert!(line.contains(&o.canonical()), "canonical fragment embedded verbatim");
        }
    }

    #[test]
    fn ok_outcome_round_trip_is_bit_exact() {
        let o = ServeOutcome::Ok {
            avg_latency: std::f64::consts::PI,
            throughput: 0.1 + 0.2, // 0.30000000000000004
            stable: true,
            measured: 123,
            cycles: 456,
        };
        let back = ServeOutcome::parse(&o.canonical()).unwrap();
        let (
            ServeOutcome::Ok { avg_latency: a, throughput: t, .. },
            ServeOutcome::Ok { avg_latency: pa, throughput: pt, .. },
        ) = (&o, &back)
        else {
            panic!()
        };
        assert_eq!(a.to_bits(), pa.to_bits());
        assert_eq!(t.to_bits(), pt.to_bits());
        // replaying the canonical fragment regenerates the same bytes
        assert_eq!(o.canonical(), back.canonical());
    }

    #[test]
    fn health_and_status_round_trip() {
        let h = HealthSnapshot {
            queue_depth: 3,
            queue_capacity: 256,
            workers: 4,
            completed: 100,
            cache_hits: 20,
            shed: 2,
            degraded: 1,
            retries: 5,
            timeouts: 1,
            panics: 1,
            wal_records: 99,
            clients: 3,
            busy: 1,
            draining: true,
        };
        let ServeResponse::Health(back) =
            parse_response(&ServeResponse::Health(h.clone()).to_json()).unwrap()
        else {
            panic!("health")
        };
        assert_eq!(back, h);
        let ServeResponse::Status(back) =
            parse_response(&ServeResponse::Status(h.clone()).to_json()).unwrap()
        else {
            panic!("status")
        };
        assert_eq!(back, h);
    }

    #[test]
    fn foreign_or_malformed_lines_degrade_to_typed_errors() {
        assert!(parse_request("{}").is_err());
        assert!(parse_request("{\"schema\": \"noc-eval/metrics/v1\"}").is_err());
        assert!(parse_request(&format!("{{\"schema\": \"{SERVE_SCHEMA}\"}}")).is_err());
        assert!(parse_request(&format!(
            "{{\"schema\": \"{SERVE_SCHEMA}\", \"req\": \"point\", \"batch\": \"b\"}}"
        ))
        .is_err());
        assert!(parse_response(&format!(
            "{{\"schema\": \"{SERVE_SCHEMA}\", \"resp\": \"result\", \"batch\": \"b\", \
             \"point\": 0, \"key\": \"k\", \"cached\": false, \"attempts\": 1, \
             \"outcome\": \"ok\", \"avg_latency\": oops}}"
        ))
        .is_err());
        // truncated string literal (torn line): error, not a hang/panic
        assert!(parse_request(&format!(
            "{{\"schema\": \"{SERVE_SCHEMA}\", \"req\": \"cancel\", \"batch\": \"tor"
        ))
        .is_err());
    }

    /// A valid point line with `"key": old` replaced by `"key": new`.
    fn doctored(key: &str, old: &str, new: &str) -> String {
        let (from, to) = (format!("\"{key}\": {old}"), format!("\"{key}\": {new}"));
        let line = point(7, 0.1).to_json();
        assert!(line.contains(&from), "{line} lacks {from}");
        line.replace(&from, &to)
    }

    #[test]
    fn narrowed_and_mistyped_fields_are_typed_errors_naming_the_field() {
        for (key, old, new, why) in [
            ("router_delay", "1", "4294967297", "out of range for u32"), // used to wrap to 1
            ("vcs", "2", "3.7", "expected an unsigned integer"),         // used to truncate to 3
            ("vcs", "2", "-2", "expected an unsigned integer"),
            ("vc_buf", "4", "18446744073709551616", "out of range"),
            ("seed", "7", "\"7\"", "expected an unsigned integer"), // used to read as "missing"
            ("load", "0.1", "true", "expected a finite number"),
            ("load", "0.1", "1e999", "expected a finite number"),
            ("allow_degraded", "true", "1", "expected true or false"),
            ("budget", "200000", "[1]", "expected an unsigned integer"),
        ] {
            let err = parse_request(&doctored(key, old, new)).unwrap_err();
            assert!(err.contains(&format!("\"{key}\"")) && err.contains(why), "{key}: {err}");
        }
        // a duplicated key used to keep the first value silently
        let twice = point(7, 0.1).to_json().replace("\"seed\": 7", "\"seed\": 7, \"seed\": 8");
        let err = parse_request(&twice).unwrap_err();
        assert!(err.contains("duplicate key \"seed\""), "{err}");
        // 2^32 used to become Some(0); u32::MAX itself still fits
        let run = |attempts: &str| {
            let line =
                ServeRequest::Run { batch: "b".into(), max_attempts: Some(1), deadline_ms: None };
            parse_request(&line.to_json().replace("\"max_attempts\": 1", attempts))
        };
        let err = run("\"max_attempts\": 4294967296").unwrap_err();
        assert!(err.contains("\"max_attempts\"") && err.contains("out of range"), "{err}");
        assert!(matches!(
            run("\"max_attempts\": 4294967295"),
            Ok(ServeRequest::Run { max_attempts: Some(u32::MAX), .. })
        ));
        // `attempts` on a result line narrows the same way
        let result = ServeResult {
            batch: "b".into(),
            point: 0,
            key: "k".into(),
            cached: false,
            attempts: 1,
            outcome: ServeOutcome::Timeout { budget: 1, wall: false },
        };
        let line = result.to_json().replace("\"attempts\": 1", "\"attempts\": 4294967296");
        assert!(parse_response(&line).unwrap_err().contains("\"attempts\""));
        // an exponent is a number, but not an integer
        let sweep = sweep().to_json().replace("\"seeds\": 2", "\"seeds\": 4e18");
        assert!(parse_request(&sweep).unwrap_err().contains("\"seeds\""));
    }

    #[test]
    fn open_loop_config_matches_the_request() {
        let p = point(9, 0.3);
        let cfg = p.open_loop();
        assert_eq!(cfg.net.seed, 9);
        assert_eq!(cfg.load, 0.3);
        assert_eq!(cfg.warmup, 1_000);
        assert_eq!(cfg.measure, 3_000);
        assert_eq!(cfg.drain_max, 20_000);
        assert!(!cfg.percentiles);
    }
}
