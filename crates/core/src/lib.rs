#![warn(missing_docs)]
//! Ignite: comprehensive front-end microarchitectural state restoration.
//!
//! This crate is the paper's primary contribution (Schall, Sandberg, Grot,
//! *Warming Up a Cold Front-End with Ignite*, MICRO'23): a record-and-replay
//! mechanism that captures a serverless function's control-flow working set
//! as delta-compressed in-memory metadata and, on the function's next
//! (lukewarm) invocation, restores
//!
//! * the instruction working set into the **L2**,
//! * the branch working set into the **BTB**, and
//! * taken-branch direction hints into the **bimodal predictor**,
//!
//! from a single unified stream. The key insight: the BTB working set — the
//! set of taken branches — is a compact, non-redundant representation of the
//! program's control-flow graph, and the mere existence of a BTB entry for a
//! conditional branch implies the branch was taken, which seeds the bimodal
//! predictor (§4).
//!
//! Modules: [`codec`] (metadata format), [`record`], [`replay`], [`os`]
//! (per-container regions and control registers). [`Ignite`] ties them into
//! the per-invocation lifecycle the simulation engine drives.
//!
//! # Example
//!
//! ```
//! use ignite_core::{Ignite, IgniteConfig};
//! use ignite_uarch::addr::Addr;
//! use ignite_uarch::btb::{BranchKind, Btb, BtbEntry};
//! use ignite_uarch::cbp::Cbp;
//! use ignite_uarch::config::UarchConfig;
//! use ignite_uarch::hierarchy::Hierarchy;
//! use ignite_uarch::tlb::Itlb;
//!
//! let cfg = UarchConfig::tiny_for_tests();
//! let (mut btb, mut cbp) = (Btb::new(&cfg.btb), Cbp::new(&cfg.cbp));
//! let (mut h, mut tlb) = (Hierarchy::new(&cfg.hierarchy), Itlb::new(&cfg.itlb));
//! let mut ignite = Ignite::new(IgniteConfig::default());
//!
//! // Invocation 1: the BTB allocation is recorded.
//! ignite.begin_invocation(7);
//! btb.insert(BtbEntry::new(Addr::new(0x100), Addr::new(0x200), BranchKind::Call), false);
//! ignite.observe_btb_insertions(&mut btb);
//! ignite.end_invocation(7);
//!
//! // Lukewarm flush...
//! btb.flush();
//!
//! // Invocation 2: replay restores the BTB before the branch executes.
//! ignite.begin_invocation(7);
//! ignite.step(0, &mut btb, &mut cbp, &mut tlb, &mut h);
//! assert!(btb.probe(Addr::new(0x100)).is_some());
//! ```

pub mod codec;
pub mod fault;
pub mod os;
pub mod record;
pub mod replay;
pub mod store;

use std::collections::VecDeque;

use ignite_uarch::addr::Addr;
use ignite_uarch::btb::Btb;
use ignite_uarch::cbp::Cbp;
use ignite_uarch::hierarchy::Hierarchy;
use ignite_uarch::tlb::Itlb;
use ignite_uarch::Cycle;

pub use codec::{CodecConfig, CodecError};
pub use fault::FaultPlan;
pub use replay::{ReplayConfig, ReplayStats, ReplayStep};
pub use store::{MetadataStore, StoreConfig, StoreStats};

use record::Recorder;
use replay::Replayer;

/// Top-level Ignite configuration (§5.3 defaults). Metadata is encoded
/// with [`CodecConfig::default`]'s delta widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IgniteConfig {
    /// Per-container metadata region size (record budget); paper: 120 KiB.
    pub metadata_budget_bytes: usize,
    /// Replay throttling, restoration policy and safety checks.
    pub replay: ReplayConfig,
    /// Fault injection applied to stored regions between invocations
    /// (inert by default; used by the robustness experiments).
    pub faults: FaultPlan,
}

impl Default for IgniteConfig {
    fn default() -> Self {
        IgniteConfig {
            metadata_budget_bytes: 120 * 1024,
            replay: ReplayConfig::default(),
            faults: FaultPlan::none(),
        }
    }
}

/// Per-invocation summary returned by [`Ignite::end_invocation`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IgniteInvocationStats {
    /// BTB allocations recorded.
    pub entries_recorded: u64,
    /// Record metadata bytes streamed to memory.
    pub record_bytes: u64,
    /// Replay statistics.
    pub replay: ReplayStats,
    /// Replay records that existed but were not consumed before the
    /// invocation ended.
    pub replay_unfinished: u64,
}

/// The Ignite mechanism: record + replay engines and the OS interface.
#[derive(Debug, Clone)]
pub struct Ignite {
    cfg: IgniteConfig,
    os: os::IgniteOs,
    recorder: Option<Recorder>,
    replayer: Option<Replayer>,
    active: Option<u64>,
    /// Degradation events observed outside the replayer proper (unreadable
    /// regions, stale restorations noticed at commit); folded into the
    /// replay stats at `end_invocation`.
    fault_stats: ReplayStats,
    /// Working memory kept from one invocation to the next, so that a
    /// warmed instance allocates only the regions it hands back: the
    /// merge's buffers, whose decode buffer each replay session borrows
    /// and whose encoder buffer each recording borrows.
    scratch: os::MergeScratch,
    /// The replay session's line queue, kept likewise.
    lines: VecDeque<Addr>,
}

impl Ignite {
    /// Creates an Ignite instance with no recorded metadata.
    pub fn new(cfg: IgniteConfig) -> Self {
        let mut os = os::IgniteOs::new(cfg.metadata_budget_bytes);
        os.set_faults(cfg.faults);
        Ignite {
            cfg,
            os,
            recorder: None,
            replayer: None,
            active: None,
            fault_stats: ReplayStats::default(),
            scratch: os::MergeScratch::default(),
            lines: VecDeque::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IgniteConfig {
        &self.cfg
    }

    /// The OS interface (control registers, stored regions).
    pub fn os_mut(&mut self) -> &mut os::IgniteOs {
        &mut self.os
    }

    /// The OS interface, immutably.
    pub fn os(&self) -> &os::IgniteOs {
        &self.os
    }

    /// Arms record/replay for an invocation of `container` (§4.3: the OS
    /// sets the control bits as the function is scheduled).
    pub fn begin_invocation(&mut self, container: u64) {
        let plan = self.os.function_started(container);
        let (cfg, scratch, lines) = (&self.cfg, &mut self.scratch, &mut self.lines);
        self.recorder = plan.record.then(|| {
            let bits = std::mem::take(&mut scratch.bits);
            Recorder::with_buffer(CodecConfig::default(), cfg.metadata_budget_bytes, bits)
        });
        self.replayer = plan.replay_metadata.as_deref().map(|md| {
            let entries = std::mem::take(&mut scratch.entries);
            Replayer::with_buffers(md, cfg.replay, entries, std::mem::take(lines))
        });
        self.fault_stats = ReplayStats::default();
        if let Some((_, claimed)) = plan.replay_error {
            // The region existed but was destroyed before it could be read;
            // account its records as dropped so degradation is observable.
            self.fault_stats.decode_errors += 1;
            self.fault_stats.entries_dropped += claimed as u64;
        }
        self.active = Some(container);
    }

    /// Installs a metadata region owned by an external store (see
    /// [`store::MetadataStore`]) so the next [`Ignite::begin_invocation`]
    /// of `container` replays it. Convenience forwarding to
    /// [`os::IgniteOs::install`].
    pub fn install_metadata(&mut self, container: u64, md: codec::Metadata) {
        self.os.install(container, md);
    }

    /// Takes the (double-buffer merged) region back out after
    /// [`Ignite::end_invocation`]. Convenience forwarding to
    /// [`os::IgniteOs::take`].
    pub fn take_metadata(&mut self, container: u64) -> Option<codec::Metadata> {
        self.os.take(container)
    }

    /// Notes that a restored BTB entry resteered at commit (its recorded
    /// target was stale). Called by the simulation engine.
    pub fn note_stale_restored(&mut self) {
        self.fault_stats.stale_restored += 1;
    }

    /// Whether replay still has records to restore.
    pub fn replay_pending(&self) -> bool {
        self.replayer.as_ref().is_some_and(|r| !r.is_done())
    }

    /// Total records in the armed replay stream (0 without a replayer).
    /// Observability accessor: lets the engine label replay-begin events.
    pub fn replay_total_entries(&self) -> u64 {
        self.replayer.as_ref().map_or(0, |r| r.total_entries() as u64)
    }

    /// Records the armed replayer has restored so far (0 without one).
    pub fn replay_restored(&self) -> u64 {
        self.replayer.as_ref().map_or(0, |r| r.stats().entries_restored)
    }

    /// Whether a recorder is armed for the current invocation.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Runs one cycle of the replay engine.
    pub fn step(
        &mut self,
        now: Cycle,
        btb: &mut Btb,
        cbp: &mut Cbp,
        itlb: &mut Itlb,
        hierarchy: &mut Hierarchy,
    ) -> ReplayStep {
        match &mut self.replayer {
            Some(r) if !r.is_done() => r.step(now, btb, cbp, itlb, hierarchy),
            _ => ReplayStep::default(),
        }
    }

    /// Drains the BTB's insertion log into the recorder (call every cycle,
    /// or at least once per committed block).
    #[inline]
    pub fn observe_btb_insertions(&mut self, btb: &mut Btb) {
        let events = btb.drain_insertions();
        if let Some(rec) = &mut self.recorder {
            for entry in events {
                rec.observe(&entry);
            }
        }
    }

    /// Record metadata bytes streamed so far this invocation.
    pub fn record_bytes(&self) -> u64 {
        self.recorder.as_ref().map_or(0, Recorder::streamed_bytes)
    }

    /// Finishes the invocation: persists the recording and reports stats.
    ///
    /// When replay was active (double-buffered operation, §4.3), the new
    /// recording holds only the branches replay did not cover — it is
    /// *merged* into the retained region. Record-only invocations replace
    /// the region with the complete fresh trace.
    pub fn end_invocation(&mut self, container: u64) -> IgniteInvocationStats {
        debug_assert_eq!(self.active, Some(container), "mismatched begin/end");
        let mut stats = IgniteInvocationStats::default();
        let replayer = self.replayer.take();
        let replayed = replayer.is_some();
        if let Some(replayer) = replayer {
            stats.replay = *replayer.stats();
            // Unfinished = still pending at the cursor. Deriving it from
            // `total - restored` would re-count watchdog-abandoned records,
            // which are already in `entries_dropped`.
            stats.replay_unfinished = replayer.pending_entries() as u64;
            (self.scratch.entries, self.lines) = replayer.into_buffers();
        }
        stats.replay.merge(&std::mem::take(&mut self.fault_stats));
        if let Some(recorder) = self.recorder.take() {
            stats.entries_recorded = recorder.entries() as u64;
            stats.record_bytes = recorder.streamed_bytes();
            let (recorded, bits) = recorder.finish_reusing();
            self.scratch.bits = bits;
            if replayed {
                let codec = CodecConfig::default();
                self.os.function_finished_merge(container, recorded, codec, &mut self.scratch);
            } else {
                self.os.function_finished(container, Some(recorded));
            }
        }
        self.active = None;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_uarch::addr::Addr;
    use ignite_uarch::btb::{BranchKind, BtbEntry};
    use ignite_uarch::config::UarchConfig;

    struct Machine {
        btb: Btb,
        cbp: Cbp,
        itlb: Itlb,
        hierarchy: Hierarchy,
    }

    fn machine() -> Machine {
        let cfg = UarchConfig::tiny_for_tests();
        Machine {
            btb: Btb::new(&cfg.btb),
            cbp: Cbp::new(&cfg.cbp),
            itlb: Itlb::new(&cfg.itlb),
            hierarchy: Hierarchy::new(&cfg.hierarchy),
        }
    }

    fn entry(i: u64) -> BtbEntry {
        BtbEntry::new(
            Addr::new(0x1000 + i * 32),
            Addr::new(0x1000 + i * 32 + 8),
            BranchKind::Conditional,
        )
    }

    #[test]
    fn full_record_flush_replay_cycle() {
        let mut m = machine();
        let mut ignite = Ignite::new(IgniteConfig::default());

        ignite.begin_invocation(1);
        for i in 0..20 {
            m.btb.insert(entry(i), false);
        }
        ignite.observe_btb_insertions(&mut m.btb);
        let s1 = ignite.end_invocation(1);
        assert_eq!(s1.entries_recorded, 20);
        assert!(s1.record_bytes > 0);

        // Lukewarm flush.
        m.btb.flush();

        ignite.begin_invocation(1);
        assert!(ignite.replay_pending());
        let mut now = 0;
        while ignite.replay_pending() {
            ignite.step(now, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
            now += 1;
        }
        for i in 0..20 {
            assert!(m.btb.probe(entry(i).branch_pc).is_some(), "entry {i} restored");
        }
        let s2 = ignite.end_invocation(1);
        assert_eq!(s2.replay.entries_restored, 20);
        assert_eq!(s2.replay_unfinished, 0);
    }

    #[test]
    fn first_invocation_has_no_replay() {
        let mut ignite = Ignite::new(IgniteConfig::default());
        ignite.begin_invocation(9);
        assert!(!ignite.replay_pending());
    }

    #[test]
    fn replay_insertions_are_not_rerecorded() {
        let mut m = machine();
        let mut ignite = Ignite::new(IgniteConfig::default());
        ignite.begin_invocation(1);
        m.btb.insert(entry(0), false);
        ignite.observe_btb_insertions(&mut m.btb);
        ignite.end_invocation(1);
        m.btb.flush();

        // Second invocation: replay restores entry 0; no new demand inserts.
        ignite.begin_invocation(1);
        while ignite.replay_pending() {
            ignite.step(0, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
        }
        ignite.observe_btb_insertions(&mut m.btb);
        let s = ignite.end_invocation(1);
        assert_eq!(s.entries_recorded, 0, "restored entries must not be re-recorded");
    }

    #[test]
    fn unfinished_replay_counted() {
        let mut m = machine();
        let mut ignite = Ignite::new(IgniteConfig::default());
        ignite.begin_invocation(1);
        for i in 0..50 {
            m.btb.insert(entry(i), false);
        }
        ignite.observe_btb_insertions(&mut m.btb);
        ignite.end_invocation(1);
        m.btb.flush();

        ignite.begin_invocation(1);
        ignite.step(0, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy); // one step only
        let s = ignite.end_invocation(1);
        assert!(s.replay_unfinished > 0);
    }

    #[test]
    fn watchdog_abandoned_entries_not_double_counted() {
        // Regression: `replay_unfinished` was computed as
        // `total_entries - entries_restored`, which re-counted the records
        // a watchdog abandon had already booked in `entries_dropped` —
        // the aggregate report charged each abandoned invocation twice.
        let mut m = machine();
        let cfg = IgniteConfig {
            replay: ReplayConfig {
                throttle_threshold: 0,
                watchdog_stall_steps: 8,
                ..ReplayConfig::default()
            },
            ..IgniteConfig::default()
        };
        let mut ignite = Ignite::new(cfg);
        ignite.begin_invocation(1);
        for i in 0..50 {
            m.btb.insert(entry(i), false);
        }
        ignite.observe_btb_insertions(&mut m.btb);
        ignite.end_invocation(1);
        m.btb.flush();

        // Nothing consumes the restored entries, so replay throttles
        // forever and the watchdog abandons it.
        ignite.begin_invocation(1);
        let mut now = 0;
        while ignite.replay_pending() && now < 1_000 {
            ignite.step(now, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
            now += 1;
        }
        let s = ignite.end_invocation(1);
        assert_eq!(s.replay.watchdog_abandons, 1, "watchdog must have fired");
        assert!(s.replay.entries_dropped > 0);
        assert_eq!(
            s.replay_unfinished, 0,
            "watchdog-dropped records must not also count as unfinished"
        );
        assert_eq!(s.replay.entries_restored + s.replay.entries_dropped, 50);
    }

    #[test]
    fn metadata_scales_with_containers_not_chip() {
        // Thousands of containers store metadata in (modelled) DRAM; the
        // mechanism has no per-container on-chip state.
        let mut m = machine();
        let mut ignite = Ignite::new(IgniteConfig::default());
        for c in 0..1000u64 {
            ignite.begin_invocation(c);
            m.btb.insert(entry(c % 8), false);
            ignite.observe_btb_insertions(&mut m.btb);
            ignite.end_invocation(c);
            m.btb.flush();
        }
        assert_eq!(ignite.os().containers(), 1000);
    }
}
