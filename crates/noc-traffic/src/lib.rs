//! # noc-traffic — synthetic traffic for NoC evaluation
//!
//! Spatial [`pattern`]s (uniform random, transpose, bit complement, bit
//! reversal, shuffle, tornado, neighbor, hotspot), temporal
//! [`process`]es (Bernoulli, bursty on/off), and [`size`] distributions
//! (fixed, bimodal) — the synthetic workload vocabulary of Table I.
//! [`PatternKind`] and [`SizeKind`] each define their axis once: how to
//! sample it, and which configurations it is defined on (their
//! `validate`, which every runner calls before sampling).

#![warn(missing_docs)]

pub mod pattern;
pub mod process;
pub mod size;

pub use pattern::{PatternKind, TrafficPattern};
pub use process::{Bernoulli, InjectionProcess, OnOff};
pub use size::{SizeDist, SizeKind};
