//! The per-experiment modules (see `DESIGN.md` §4 for the index).

pub mod e01_td_grid;
pub mod e02_td_support;
pub mod e03_marked_process;
pub mod e04_sticky_nonlocal;
pub mod e05_tc_bdlocal;
pub mod e06_ex41;
pub mod e07_linear_local;
pub mod e08_fusfes;
pub mod e09_tdk;
pub mod e10_termination;
pub mod e11_chase_engine;
pub mod e12_rewrite_equiv;
pub mod e13_normalization;
pub mod e14_exercises;

use crate::Table;
use qr_exec::Executor;

/// A table-producing experiment entry point. Experiments take the
/// harness-built [`Executor`] so an explicit `--threads N` reaches every
/// parallel stage without mutating process environment.
pub type ExperimentFn = fn(&Executor) -> Table;

/// The experiments, as `(id, constructor)` pairs so callers can stream
/// results as they are produced.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("e01", e01_td_grid::table),
        ("e02", e02_td_support::table),
        ("e03", e03_marked_process::table),
        ("e04", e04_sticky_nonlocal::table),
        ("e05", e05_tc_bdlocal::table),
        ("e06", e06_ex41::table),
        ("e07", e07_linear_local::table),
        ("e08", e08_fusfes::table),
        ("e09", e09_tdk::table),
        ("e10", e10_termination::table),
        ("e11", e11_chase_engine::table),
        ("e12", e12_rewrite_equiv::table),
        ("e13", e13_normalization::table),
        ("e14", e14_exercises::table),
    ]
}
