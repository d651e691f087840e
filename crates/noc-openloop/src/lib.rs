//! # noc-openloop — open-loop NoC measurement
//!
//! Classic Dally–Towles open-loop methodology: traffic parameters
//! (spatial pattern, temporal process, packet size) are independent of
//! network state; an infinite source queue decouples generation from
//! injection. A run has three phases:
//!
//! 1. **warmup** — the network reaches steady state;
//! 2. **measurement** — packets *generated* in this window are marked and
//!    their latency (generation to tail delivery, including source-queue
//!    time) is recorded;
//! 3. **drain** — injection continues but no new packets are marked; the
//!    run ends when every marked packet has been delivered (or a cycle
//!    cap is hit, which flags the load as saturated/unstable).
//!
//! [`OpenLoopConfig`] owns what an open-loop point is: its rules
//! ([`OpenLoopConfig::validate`]), its source
//! ([`OpenLoopConfig::source`]) and its per-index seed in a grid
//! ([`OpenLoopConfig::point`]); every other crate that runs a point
//! goes through those three. Parallel schedulers start the costliest
//! points first by its work bound ([`OpenLoopConfig::work`]). [`measure`] produces one point of the
//! latency–load curve (Fig 1); [`sweep`] produces the whole curve
//! (Figs 3, 6a, 9); and [`saturation_throughput`] bisects for the
//! saturation point.

#![warn(missing_docs)]

mod behavior;
mod measure;
mod sweep;

pub use behavior::OpenLoopBehavior;
pub use measure::{
    measure, measure_budgeted, zero_load_latency_bound, OpenLoopConfig, OpenLoopResult,
    MAX_WINDOW_CYCLES,
};
pub use sweep::{saturation_throughput, sweep, validate_latency_cap, SweepPoint};
