#![warn(missing_docs)]
//! Production-shaped traffic for the Ignite cluster simulator.
//!
//! The stationary Poisson/Zipf process in `ignite-workloads` is a fine
//! smoke-test workload, but every policy the cluster ships — schedulers,
//! keep-alive, store eviction, chaos recovery — only differentiates under
//! the skewed, bursty, time-varying invocation patterns production traces
//! exhibit. This crate supplies those workloads as streaming
//! [`ArrivalSource`](ignite_workloads::ArrivalSource)s:
//!
//! * [`azure`] — an importer for Azure-Functions-style trace CSVs
//!   (per-function per-minute invocation counts plus duration/memory
//!   percentiles), with line-numbered typed errors and a deterministic
//!   mapping from trace functions onto the generated suite by duration
//!   percentile → code-image size class.
//! * [`synth`] — bursty synthetic traffic: an MMPP (Markov-modulated
//!   Poisson process) source, by Lewis–Shedler thinning on forked
//!   [`SplitMix64`](ignite_uarch::rng::SplitMix64) streams.
//! * [`spec`] — the `--traffic` CLI spec language (`azure:PATH`,
//!   `mmpp:mults=1/6,dwells=300000/60000`).
//! * [`fingerprint`] — a versioned workload fingerprint (arrival count,
//!   rate, burstiness CV², skew estimate, top-K shares) embedded in
//!   cluster reports so experiments are self-describing and `scope diff`
//!   can refuse cross-workload comparisons.
//!
//! Everything is deterministic: the same spec, seed, and input bytes
//! produce bit-identical arrival streams across processes and runs.

pub mod azure;
pub mod fingerprint;
pub mod spec;
pub mod synth;

pub use azure::{AzureParseError, AzureSource, AzureTrace};
pub use fingerprint::{FingerprintAccum, WorkloadFingerprint, WORKLOAD_SCHEMA};
pub use spec::{SpecError, TrafficSpec};
pub use synth::MmppSource;
