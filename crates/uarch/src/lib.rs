#![warn(missing_docs)]
//! Microarchitectural substrate for the Ignite front-end simulator.
//!
//! This crate provides the building blocks that the Ignite paper's evaluation
//! platform (gem5 configured as an Intel Ice Lake-like core) offers, rebuilt
//! from scratch in safe Rust:
//!
//! * [`addr`] — virtual addresses, cache lines, pages, regions.
//! * [`cache`] — generic set-associative caches with LRU replacement and
//!   per-line prefetch/restore/touch bookkeeping.
//! * [`hierarchy`] — the L1-I → L2 → LLC → DRAM instruction path with
//!   in-flight miss tracking and memory-traffic accounting.
//! * [`tlb`] — an instruction TLB with page-walk latency.
//! * [`btb`] — a set-associative branch target buffer with insertion
//!   observation (the hook Ignite's recorder uses).
//! * [`bimodal`] / [`tage`] / [`cbp`] — the conditional branch predictor:
//!   a 2-bit bimodal base plus a TAGE component, composed as an
//!   L-TAGE-style predictor.
//! * [`config`] — the simulated processor parameters (paper Table 2).
//!
//! # Example
//!
//! ```
//! use ignite_uarch::addr::Addr;
//! use ignite_uarch::btb::{Btb, BtbEntry, BranchKind};
//! use ignite_uarch::config::UarchConfig;
//!
//! let cfg = UarchConfig::ice_lake_like();
//! let mut btb = Btb::new(&cfg.btb);
//! btb.insert(BtbEntry::new(Addr::new(0x1000), Addr::new(0x2000), BranchKind::Call), false);
//! assert!(btb.lookup(Addr::new(0x1000)).is_some());
//! ```

pub mod addr;
pub mod bimodal;
pub mod btb;
pub mod cache;
pub mod cbp;
pub mod config;
pub mod fxmap;
pub mod hierarchy;
pub mod ittage;
pub mod loop_pred;
pub mod ras;
pub mod rng;
pub mod stats;
pub mod tage;
pub mod tlb;

pub use addr::Addr;
pub use btb::BranchKind;
pub use config::UarchConfig;

/// Simulation time in core clock cycles.
pub type Cycle = u64;
