//! # dirtree-bench — the experiment front end
//!
//! One binary, `dirtree-bench <experiment|all|list>` (`main.rs`), runs
//! every table, figure and ablation of the paper (see DESIGN.md §5 for
//! the index). This library holds the whole experiment layer, and it is
//! the only harness that draws the Figures 8–11 grids; how fast the
//! simulator runs is measured by `benchmark/`, not here:
//!
//! - [`sweep`] — configuration enumeration ([`sweep::SweepSpec`]) and the
//!   JSON-lines [`sweep::RunRecord`] each simulation produces
//! - [`runner`] — the parallel, deterministic executor, which simulates
//!   each distinct config once
//! - [`figures`] — record-based figure grids (normalized execution time)
//!   and their CSV companions under `<out_dir>/figures/`
//! - [`experiments`] — every table/figure/ablation as a function
//!   returning its report text, named by [`experiments::REGISTRY`]
//! - [`miss_cost`] — controlled-sharing-degree marginal measurements
//! - [`cli`] — the experiment name and the shared
//!   `--jobs/--trace/--filter/--out-dir` flags

pub mod cli;
pub mod experiments;
pub mod figures;
pub mod miss_cost;
pub mod runner;
pub mod sweep;
