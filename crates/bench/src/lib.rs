//! # dirtree-bench — the experiment front end and criterion benchmarks
//!
//! One binary, `dirtree-bench <experiment|all|list>` (`main.rs`), runs
//! every table, figure and ablation of the paper (see DESIGN.md §5 for
//! the index). This library holds the whole experiment layer:
//!
//! - [`sweep`] — configuration enumeration ([`sweep::SweepSpec`]) and the
//!   JSON-lines [`sweep::RunRecord`] each simulation produces
//! - [`runner`] — the parallel, deterministic executor
//! - [`figures`] — record-based figure grids (normalized execution time)
//! - [`experiments`] — every table/figure/ablation as a function
//!   returning its report text, named by [`experiments::REGISTRY`]
//! - [`miss_cost`] — controlled-sharing-degree marginal measurements
//! - [`cli`] — the experiment name and the shared
//!   `--jobs/--filter/--full` flags

pub mod cli;
pub mod experiments;
pub mod figures;
pub mod miss_cost;
pub mod runner;
pub mod sweep;
