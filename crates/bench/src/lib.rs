//! Experiment harness: one module per experiment of `DESIGN.md` (E1–E12).
//!
//! Each module exposes `table() -> Table`; the `harness` binary
//! runs them all and prints the rows that `EXPERIMENTS.md` records.
//! Parameters are chosen so the full run finishes in minutes on a laptop;
//! each module's doc comment states the paper anchor and the expected
//! shape.

pub mod bulk_workloads;
pub mod check_workloads;
pub mod experiments;
pub mod incr_workloads;
pub mod microbench;
pub mod report;
pub mod rewrite_workloads;
pub mod serve_workloads;
pub mod table;

pub use table::Table;
