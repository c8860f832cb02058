//! End-to-end and per-layer benchmark of the MTS reproduction.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! how to run it.

pub mod cells;
pub mod run;
pub mod trace;
pub mod workloads;
