//! The repository's end-to-end benchmark: drives `Pipeline::align_observed`,
//! `serve::Server`, the `kernel::compute_tile*` ladder and `sra::LineStore`
//! through their public entry points only, checks every output, and
//! measures the per-layer ledger from the benchmark's own code.
//!
//! The binary (`src/main.rs`) owns the workloads and the output contract;
//! the modules here are the pieces its self-tests cover.

pub mod gate;
pub mod ledger;
pub mod loadgen;
pub mod replay;
pub mod stats;
pub mod store;
pub mod workloads;
