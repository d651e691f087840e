//! # noc-eval — the on-chip network evaluation framework
//!
//! The paper's primary contribution, as a library: a methodology for
//! evaluating on-chip networks that is fast like synthetic network-only
//! simulation but correlates with full execution-driven simulation.
//!
//! * [`correlate`] — the correlation pipelines: batch model vs open-loop
//!   (Figs 5 & 8) and batch model vs execution-driven (Figs 15, 19, 22),
//!   reported as Pearson coefficients over normalized runtimes.
//! * [`bridge`] — builds batch-model configurations from benchmark
//!   profiles: the enhanced injection (NAR), reply (memory latency), and
//!   kernel (timer/syscall) extensions, per benchmark, per clock.
//! * [`figures`] — one entry point per paper figure/table; each returns
//!   typed data and renders a text report, so the bench binaries and the
//!   integration tests share the exact same experiment code.
//! * [`report`] — text tables and CSV output.
//! * [`effort`] — scaling knobs: `quick` for tests, `paper` for the full
//!   reproduction.
//! * [`analytic`] — cross-validation of `noc-analytic`'s static
//!   predictions against the simulator, plus predicted-vs-measured
//!   overlays and static channel-load heatmaps.
//! * [`serve`] — the `noc-eval/serve/v1` line protocol spoken by the
//!   long-running evaluation service (`noc-serve`): typed requests and
//!   the outcome ladder.
//! * [`json`] — the one codec every schema above is written and read
//!   through.

#![warn(missing_docs)]

pub mod analytic;
pub mod bridge;
pub mod correlate;
pub mod effort;
pub mod figures;
pub mod json;
pub mod plot;
pub mod report;
pub mod serve;

pub use analytic::{
    analytic_overlay, analytic_study, default_cases, load_heatmap, AnalyticPoint, AnalyticStudy,
};
pub use bridge::{batch_for_profile, BatchExtension};
pub use correlate::{correlate_open_batch, CmpBatchOutcome, OpenBatchOutcome};
pub use effort::Effort;
pub use serve::{
    parse_request, parse_response, HealthSnapshot, PointRequest, ServeOutcome, ServeRequest,
    ServeResponse, ServeResult, SERVE_SCHEMA,
};
