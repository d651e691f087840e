//! The benchmark's workloads (see `README.md` for why each exists).

pub mod grid;
pub mod serve;
pub mod sim;
