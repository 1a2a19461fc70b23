#![warn(missing_docs)]
//! Experiment harness: reproduces every table and figure of the Ignite
//! paper's evaluation.
//!
//! Each experiment in [`figures`] maps to one paper table/figure (see
//! DESIGN.md §3 for the full index) and produces a [`figure::Figure`]: a
//! set of labelled series over the benchmark suite plus a rendered text
//! table. The `figures` binary drives them:
//!
//! ```text
//! cargo run --release -p ignite-harness --bin figures -- all
//! cargo run --release -p ignite-harness --bin figures -- fig8 fig9a --scale 0.25
//! ```
//!
//! # Example
//!
//! ```
//! use ignite_harness::Harness;
//!
//! let harness = Harness::for_tests();
//! let fig = ignite_harness::figures::fig2::run(&harness);
//! assert_eq!(fig.id, "fig2");
//! assert!(!fig.render().is_empty());
//! ```

pub mod cli;
pub mod figure;
pub mod figures;
pub mod report;
pub mod runner;

pub use figure::{Figure, Series};
pub use runner::Harness;
