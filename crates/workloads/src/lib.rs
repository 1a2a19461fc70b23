#![warn(missing_docs)]
//! Synthetic serverless workload generation for the Ignite simulator.
//!
//! The paper evaluates 20 vSwarm serverless functions (Table 1) running under
//! gem5 full-system simulation. That software stack is not reproducible here,
//! so this crate synthesizes *function images* — control-flow graphs laid out
//! in a virtual address space — whose front-end-relevant characteristics are
//! calibrated to the paper's measurements (Fig. 2):
//!
//! * instruction working sets of 240–620 KiB per invocation,
//! * branch (BTB) working sets of 5.4 K–14 K taken branches,
//! * language-runtime flavours: Python (interpreter dispatch, indirect
//!   branches), NodeJS (branch-dense JIT code), Go (AOT code, longer basic
//!   blocks).
//!
//! A [`trace::TraceWalker`] performs a deterministic seeded walk of the CFG,
//! producing the dynamic basic-block stream the simulation engine consumes.
//! Per-invocation seeds differ, so consecutive invocations share most — but
//! not all — of their control flow, mirroring the high commonality the paper
//! measures across invocations (§6.2).
//!
//! # Example
//!
//! ```
//! use ignite_workloads::suite::Suite;
//! use ignite_workloads::trace::TraceWalker;
//!
//! let suite = Suite::paper_suite_scaled(0.02); // 2% scale for quick runs
//! let function = &suite.functions()[0];
//! let mut instrs = 0u64;
//! for block in TraceWalker::new(&function.image, 0, 5_000) {
//!     instrs += u64::from(block.instrs);
//! }
//! assert!(instrs >= 5_000);
//! ```

pub mod arrival;
pub mod cfg;
pub mod gen;
pub mod suite;
pub mod trace;

pub use arrival::{Arrival, ArrivalConfig, ArrivalSource, PoissonZipfSource, Trace, TraceSource};
pub use cfg::{BasicBlock, CodeImage, Terminator};
pub use suite::{check_scale, FunctionProfile, Language, ScaleError, Suite, SuiteFunction};
pub use trace::{BlockExec, ExecutedBranch, TraceWalker, WalkTables};
