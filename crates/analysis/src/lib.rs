//! # dirtree-analysis — analytic models of the paper's tables
//!
//! The closed-form and symbolic side of the reproduction, kept apart from
//! the simulator that measures the same quantities (`dirtree-bench` runs
//! the figures and checks these models against the machine):
//!
//! * [`formulas`] — Table 1 message-count models and the §2 directory
//!   memory-requirement formulas;
//! * [`tree_capacity`] — the Table 3 recurrences and the Table 4
//!   insertion replay for Dir<sub>i</sub>Tree₂ forests;
//! * [`tables`] — aligned ASCII table rendering for the experiment reports.

pub mod formulas;
pub mod tables;
pub mod tree_capacity;
