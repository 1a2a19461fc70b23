//! Ignite replay logic (§4.2).
//!
//! Replay streams the recorded metadata sequentially and, per record:
//!
//! 1. expands the deltas to full addresses;
//! 2. inserts a BTB entry (marked *restored*);
//! 3. for conditional branches, initializes the bimodal entry (weakly taken
//!    by default — the policy §6.4 validates);
//! 4. translates the branch PC through the ITLB (warming it);
//! 5. prefetches the instruction block(s) into the L2 — chaining from the
//!    previous record's target through this record's branch PC, which
//!    reconstructs the instruction working set (§4 "it is trivial to
//!    reconstruct the working set of instruction cache blocks").
//!
//! Replay is throttled whenever the number of restored-but-unaccessed BTB
//! entries exceeds a threshold (1 K, §5.3), extending the BTB's effective
//! reach for functions whose branch working set exceeds its capacity.

use std::collections::VecDeque;

use ignite_uarch::addr::{lines_spanned, Addr};
use ignite_uarch::bimodal::{BimInitPolicy, Counter};
use ignite_uarch::btb::{Btb, BtbEntry};
use ignite_uarch::cache::FillKind;
use ignite_uarch::cbp::Cbp;
use ignite_uarch::hierarchy::Hierarchy;
use ignite_uarch::tlb::Itlb;
use ignite_uarch::Cycle;

use crate::codec::Metadata;

/// Replay pacing and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Records restored per cycle.
    pub entries_per_cycle: u32,
    /// Pause replay while more than this many restored BTB entries are
    /// still untouched (§5.3: 1 K).
    pub throttle_threshold: u64,
    /// Bimodal initialization policy for restored conditionals.
    pub bim_policy: BimInitPolicy,
    /// Longest chained code run prefetched per record, in bytes (guards
    /// against metadata corruption producing runaway prefetch).
    pub max_chain_bytes: u64,
    /// Whether to issue L2 instruction prefetches (disabled in the
    /// BTB/BIM-only ablations).
    pub prefetch_instructions: bool,
    /// Verify the region checksum before trusting it; a failing region is
    /// dropped wholesale (counted in [`ReplayStats::decode_errors`]).
    pub validate_metadata: bool,
    /// Watchdog: abandon replay after this many consecutive cycles with no
    /// restoration or prefetch progress (generalizes the §5.3 throttle — a
    /// replay that can never catch fetch up must not stall the invocation
    /// forever). `0` disables the watchdog.
    pub watchdog_stall_steps: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            entries_per_cycle: 2,
            throttle_threshold: 1_000,
            bim_policy: BimInitPolicy::WeaklyTaken,
            max_chain_bytes: 4_096,
            prefetch_instructions: true,
            validate_metadata: true,
            watchdog_stall_steps: 20_000,
        }
    }
}

/// Traffic and progress from one replay step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStep {
    /// Metadata bytes streamed from memory.
    pub metadata_bytes: u64,
    /// Instruction bytes pulled from DRAM into the L2.
    pub instruction_bytes: u64,
    /// Records restored this step.
    pub entries_restored: u64,
    /// Whether the step was throttled.
    pub throttled: bool,
}

/// Cumulative replay statistics for one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records restored into the BTB.
    pub entries_restored: u64,
    /// Conditional records whose BIM entry was initialized.
    pub bim_initialized: u64,
    /// L2 prefetches issued.
    pub l2_prefetches: u64,
    /// ITLB translations warmed.
    pub itlb_warmed: u64,
    /// Metadata bytes streamed from memory.
    pub metadata_bytes: u64,
    /// Cycles on which replay was throttled.
    pub throttled_steps: u64,
    /// Corruption events encountered while reading metadata (a failed
    /// checksum, an unreadable region, or a mid-stream decode error each
    /// count once).
    pub decode_errors: u64,
    /// Records that were recorded but never restored because corruption or
    /// the watchdog dropped them.
    pub entries_dropped: u64,
    /// Restored BTB entries whose target turned out to be wrong at commit
    /// (stale metadata corrected by the normal resteer path).
    pub stale_restored: u64,
    /// Times the watchdog abandoned a stalled replay.
    pub watchdog_abandons: u64,
}

impl ReplayStats {
    /// Accumulates `other` into `self`, field by field, saturating.
    pub fn merge(&mut self, other: &ReplayStats) {
        self.entries_restored = self.entries_restored.saturating_add(other.entries_restored);
        self.bim_initialized = self.bim_initialized.saturating_add(other.bim_initialized);
        self.l2_prefetches = self.l2_prefetches.saturating_add(other.l2_prefetches);
        self.itlb_warmed = self.itlb_warmed.saturating_add(other.itlb_warmed);
        self.metadata_bytes = self.metadata_bytes.saturating_add(other.metadata_bytes);
        self.throttled_steps = self.throttled_steps.saturating_add(other.throttled_steps);
        self.decode_errors = self.decode_errors.saturating_add(other.decode_errors);
        self.entries_dropped = self.entries_dropped.saturating_add(other.entries_dropped);
        self.stale_restored = self.stale_restored.saturating_add(other.stale_restored);
        self.watchdog_abandons = self.watchdog_abandons.saturating_add(other.watchdog_abandons);
    }
}

/// A replay session for one invocation.
///
/// # Example
///
/// ```
/// use ignite_core::codec::{CodecConfig, Encoder};
/// use ignite_core::replay::{Replayer, ReplayConfig};
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::btb::{BranchKind, Btb, BtbEntry};
/// use ignite_uarch::cbp::Cbp;
/// use ignite_uarch::config::UarchConfig;
/// use ignite_uarch::hierarchy::Hierarchy;
/// use ignite_uarch::tlb::Itlb;
///
/// let cfg = UarchConfig::tiny_for_tests();
/// let (mut btb, mut cbp) = (Btb::new(&cfg.btb), Cbp::new(&cfg.cbp));
/// let (mut h, mut tlb) = (Hierarchy::new(&cfg.hierarchy), Itlb::new(&cfg.itlb));
///
/// let mut enc = Encoder::new(CodecConfig::default());
/// enc.push(&BtbEntry::new(Addr::new(0x100), Addr::new(0x200), BranchKind::Call));
/// let metadata = enc.finish();
///
/// let mut replay = Replayer::new(&metadata, ReplayConfig::default());
/// while !replay.is_done() {
///     replay.step(0, &mut btb, &mut cbp, &mut tlb, &mut h);
/// }
/// assert!(btb.probe(Addr::new(0x100)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Replayer {
    cfg: ReplayConfig,
    entries: Vec<BtbEntry>,
    cursor: usize,
    /// Previous record's target — the start of the code run ending at the
    /// current record's branch PC.
    prev_target: Option<Addr>,
    /// Lines awaiting an L2 prefetch slot (BTB/BIM restoration runs at the
    /// replay rate; instruction streaming is DRAM-bandwidth limited).
    pending_lines: VecDeque<Addr>,
    /// Metadata bytes per record (amortized), for streaming accounting.
    bytes_per_entry: f64,
    /// Consecutive steps with neither restoration nor prefetch progress.
    stall_steps: u64,
    stats: ReplayStats,
}

impl Replayer {
    /// Creates a replay session over recorded metadata.
    ///
    /// The region is read defensively: if checksum validation is enabled
    /// and fails, every record is dropped; otherwise records are decoded
    /// until the first corruption and the remainder of the region is
    /// dropped. Either way the session itself always constructs — corrupted
    /// metadata degrades to fewer restorations, never to a panic.
    pub fn new(metadata: &Metadata, cfg: ReplayConfig) -> Self {
        Replayer::with_buffers(metadata, cfg, Vec::new(), VecDeque::new())
    }

    /// Like [`Replayer::new`], decoding into `entries` and queueing lines
    /// into `lines`, both cleared first: pass back the buffers an earlier
    /// session's [`Replayer::into_buffers`] returned, and a session
    /// allocates nothing once they have grown to the largest region
    /// replayed. The session is the same whatever the buffers held.
    pub fn with_buffers(
        metadata: &Metadata,
        cfg: ReplayConfig,
        mut entries: Vec<BtbEntry>,
        mut lines: VecDeque<Addr>,
    ) -> Self {
        entries.clear();
        lines.clear();
        let mut stats = ReplayStats::default();
        let claimed = metadata.entries();
        let validation = if cfg.validate_metadata { metadata.validate() } else { Ok(()) };
        match validation {
            Err(_) => {
                stats.decode_errors = 1;
                stats.entries_dropped = claimed as u64;
            }
            Ok(()) => {
                // `claimed` is at most what the payload can hold:
                // `Metadata::from_bytes` refuses an implausible count.
                entries.reserve(claimed);
                for record in metadata.decode_checked() {
                    match record {
                        Ok(e) => entries.push(e),
                        Err(_) => {
                            stats.decode_errors = 1;
                            stats.entries_dropped = claimed.saturating_sub(entries.len()) as u64;
                            break;
                        }
                    }
                }
            }
        }
        let bytes_per_entry = if entries.is_empty() {
            0.0
        } else {
            metadata.byte_len() as f64 / entries.len() as f64
        };
        Replayer {
            cfg,
            entries,
            cursor: 0,
            prev_target: None,
            pending_lines: lines,
            bytes_per_entry,
            stall_steps: 0,
            stats,
        }
    }

    /// Ends the session and hands back its decode buffer and line queue
    /// for the next one ([`Replayer::with_buffers`]).
    pub fn into_buffers(self) -> (Vec<BtbEntry>, VecDeque<Addr>) {
        (self.entries, self.pending_lines)
    }

    /// Whether every record has been replayed and every queued instruction
    /// prefetch issued.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.entries.len() && self.pending_lines.is_empty()
    }

    /// Total records in the stream.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Records neither restored nor dropped yet: still pending when the
    /// invocation ends, these are the genuinely *unfinished* entries.
    /// Watchdog-abandoned records advance the cursor and count as
    /// dropped, so pending and dropped never overlap.
    pub fn pending_entries(&self) -> usize {
        self.entries.len() - self.cursor
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ReplayStats {
        &self.stats
    }

    /// Runs one cycle of replay.
    pub fn step(
        &mut self,
        now: Cycle,
        btb: &mut Btb,
        cbp: &mut Cbp,
        itlb: &mut Itlb,
        hierarchy: &mut Hierarchy,
    ) -> ReplayStep {
        let mut out = ReplayStep::default();
        if self.is_done() {
            return out;
        }
        let step_result = self.step_inner(now, btb, cbp, itlb, hierarchy, &mut out);
        // Watchdog (generalized §5.3 throttle): if replay makes no progress
        // for long enough — permanently throttled, or starved of prefetch
        // slots — abandon it rather than stall the invocation. The dropped
        // records degrade to ordinary demand misses.
        if step_result {
            self.stall_steps = 0;
        } else {
            self.stall_steps += 1;
            if self.cfg.watchdog_stall_steps > 0
                && self.stall_steps >= self.cfg.watchdog_stall_steps
            {
                let dropped = (self.entries.len().saturating_sub(self.cursor)) as u64;
                self.stats.entries_dropped += dropped;
                self.stats.watchdog_abandons += 1;
                self.cursor = self.entries.len();
                self.pending_lines.clear();
            }
        }
        out
    }

    /// The pre-watchdog body of [`Replayer::step`]; returns whether any
    /// progress was made this cycle.
    fn step_inner(
        &mut self,
        now: Cycle,
        btb: &mut Btb,
        cbp: &mut Cbp,
        itlb: &mut Itlb,
        hierarchy: &mut Hierarchy,
        out: &mut ReplayStep,
    ) -> bool {
        let mut progress = false;
        // Drain queued instruction prefetches first, as DRAM bandwidth
        // (modelled by the L2 prefetch MSHRs) allows.
        while let Some(&line) = self.pending_lines.front() {
            if hierarchy.probe_l2(line) {
                self.pending_lines.pop_front();
                progress = true;
                continue;
            }
            if hierarchy.l2_prefetch_capacity(now) == 0 {
                break;
            }
            self.pending_lines.pop_front();
            progress = true;
            if let Some(r) = hierarchy.prefetch_l2(line, now, FillKind::Restore) {
                out.instruction_bytes += r.bytes_from_memory;
                self.stats.l2_prefetches += 1;
            }
        }
        // Throttle: too many restored entries not yet consumed (§4.2).
        if btb.restored_untouched() > self.cfg.throttle_threshold {
            self.stats.throttled_steps += 1;
            out.throttled = true;
            return progress;
        }
        for _ in 0..self.cfg.entries_per_cycle {
            let Some(&entry) = self.entries.get(self.cursor) else {
                break;
            };
            self.cursor += 1;
            // 1-2. Restore the BTB entry.
            btb.insert(entry, true);
            self.stats.entries_restored += 1;
            out.entries_restored += 1;
            // 3. Initialize the BIM for conditionals.
            if entry.kind.is_conditional() {
                match self.cfg.bim_policy {
                    BimInitPolicy::None => {}
                    BimInitPolicy::WeaklyTaken => {
                        cbp.ignite_initialize(entry.branch_pc, Counter::WeakTaken);
                        self.stats.bim_initialized += 1;
                    }
                    BimInitPolicy::WeaklyNotTaken => {
                        cbp.ignite_initialize(entry.branch_pc, Counter::WeakNotTaken);
                        self.stats.bim_initialized += 1;
                    }
                }
            }
            // 4. Translate (warms the ITLB).
            if !itlb.probe(entry.branch_pc) {
                itlb.warm(entry.branch_pc);
                self.stats.itlb_warmed += 1;
            }
            // 5. Queue the code run ending at this branch for L2 prefetch.
            if self.cfg.prefetch_instructions {
                let run_start = match self.prev_target {
                    Some(t)
                        if t <= entry.branch_pc
                            && t.delta_to(entry.branch_pc) as u64 <= self.cfg.max_chain_bytes =>
                    {
                        t
                    }
                    _ => entry.branch_pc,
                };
                let run_bytes = run_start.delta_to(entry.branch_pc).unsigned_abs() + 4;
                for line in lines_spanned(run_start, run_bytes) {
                    if !hierarchy.probe_l2(line) {
                        self.pending_lines.push_back(line);
                    }
                }
            }
            self.prev_target = Some(entry.target);
            let md = self.bytes_per_entry.ceil() as u64;
            out.metadata_bytes += md;
            self.stats.metadata_bytes += md;
            progress = true;
        }
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecConfig, Encoder};
    use ignite_uarch::btb::BranchKind;
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

    fn metadata(entries: &[BtbEntry]) -> Metadata {
        let mut enc = Encoder::new(CodecConfig::default());
        for e in entries {
            enc.push(e);
        }
        enc.finish()
    }

    fn run_to_completion(replay: &mut Replayer, m: &mut Machine) {
        let mut now = 0;
        while !replay.is_done() {
            replay.step(now, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
            now += 1;
        }
    }

    #[test]
    fn restores_btb_bim_itlb_and_l2() {
        let mut m = machine();
        let entries = [
            BtbEntry::new(Addr::new(0x1020), Addr::new(0x1100), BranchKind::Conditional),
            BtbEntry::new(Addr::new(0x1140), Addr::new(0x2000), BranchKind::Call),
        ];
        let md = metadata(&entries);
        let mut replay = Replayer::new(&md, ReplayConfig::default());
        run_to_completion(&mut replay, &mut m);

        // BTB restored.
        assert!(m.btb.probe(Addr::new(0x1020)).is_some());
        assert!(m.btb.probe(Addr::new(0x1140)).is_some());
        // BIM weakly taken for the conditional.
        assert!(m.cbp.bimodal().predict(Addr::new(0x1020)));
        // ITLB warmed.
        assert!(m.itlb.probe(Addr::new(0x1020)));
        // Code blocks in the L2: the run [0x1100, 0x1140] was chained.
        assert!(m.hierarchy.probe_l2(Addr::new(0x1020)));
        assert!(m.hierarchy.probe_l2(Addr::new(0x1100)));
        assert_eq!(replay.stats().entries_restored, 2);
        assert_eq!(replay.stats().bim_initialized, 1);
    }

    #[test]
    fn pacing_limits_entries_per_cycle() {
        let mut m = machine();
        let entries: Vec<_> = (0..10u64)
            .map(|i| {
                BtbEntry::new(
                    Addr::new(0x1000 + i * 32),
                    Addr::new(0x1000 + i * 32 + 8),
                    BranchKind::Conditional,
                )
            })
            .collect();
        let md = metadata(&entries);
        let mut replay = Replayer::new(&md, ReplayConfig::default());
        let step = replay.step(0, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
        assert_eq!(step.entries_restored, 2);
        assert!(!replay.is_done());
    }

    #[test]
    fn throttles_when_restored_entries_pile_up() {
        let mut m = machine();
        let entries: Vec<_> = (0..100u64)
            .map(|i| {
                BtbEntry::new(
                    Addr::new(0x1000 + i * 32),
                    Addr::new(0x1000 + i * 32 + 8),
                    BranchKind::Conditional,
                )
            })
            .collect();
        let md = metadata(&entries);
        let cfg = ReplayConfig { throttle_threshold: 10, ..ReplayConfig::default() };
        let mut replay = Replayer::new(&md, cfg);
        let mut throttled = false;
        for now in 0..50 {
            let s = replay.step(now, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
            if s.throttled {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "replay must throttle at the threshold");
        assert!(replay.stats().entries_restored <= 12);

        // Touching restored entries un-throttles replay.
        for i in 0..6u64 {
            m.btb.lookup(Addr::new(0x1000 + i * 32));
        }
        let s = replay.step(100, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
        assert!(!s.throttled);
        assert!(s.entries_restored > 0);
    }

    #[test]
    fn bim_policy_none_leaves_bim_cold() {
        let mut m = machine();
        let entries =
            [BtbEntry::new(Addr::new(0x1020), Addr::new(0x1100), BranchKind::Conditional)];
        let md = metadata(&entries);
        let cfg = ReplayConfig { bim_policy: BimInitPolicy::None, ..ReplayConfig::default() };
        let mut replay = Replayer::new(&md, cfg);
        run_to_completion(&mut replay, &mut m);
        assert_eq!(replay.stats().bim_initialized, 0);
        assert!(!m.cbp.bimodal().predict(Addr::new(0x1020)), "default counter untouched");
    }

    #[test]
    fn instruction_prefetch_can_be_disabled() {
        let mut m = machine();
        let entries =
            [BtbEntry::new(Addr::new(0x1020), Addr::new(0x1100), BranchKind::Conditional)];
        let md = metadata(&entries);
        let cfg = ReplayConfig { prefetch_instructions: false, ..ReplayConfig::default() };
        let mut replay = Replayer::new(&md, cfg);
        run_to_completion(&mut replay, &mut m);
        assert!(!m.hierarchy.probe_l2(Addr::new(0x1020)));
        assert!(m.btb.probe(Addr::new(0x1020)).is_some());
    }

    #[test]
    fn metadata_traffic_matches_stream_size() {
        let mut m = machine();
        let entries: Vec<_> = (0..50u64)
            .map(|i| {
                BtbEntry::new(
                    Addr::new(0x1000 + i * 32),
                    Addr::new(0x1000 + i * 32 + 8),
                    BranchKind::Conditional,
                )
            })
            .collect();
        let md = metadata(&entries);
        let mut replay = Replayer::new(&md, ReplayConfig::default());
        run_to_completion(&mut replay, &mut m);
        let streamed = replay.stats().metadata_bytes;
        let actual = md.byte_len() as u64;
        assert!(
            streamed >= actual && streamed <= actual + 50,
            "streamed {streamed} vs stored {actual}"
        );
    }

    #[test]
    fn empty_metadata_completes_immediately() {
        let md = metadata(&[]);
        let replay = Replayer::new(&md, ReplayConfig::default());
        assert!(replay.is_done());
    }

    #[test]
    fn corrupt_region_dropped_wholesale_by_validation() {
        let entries: Vec<_> = (0..30u64)
            .map(|i| {
                BtbEntry::new(
                    Addr::new(0x1000 + i * 32),
                    Addr::new(0x1000 + i * 32 + 8),
                    BranchKind::Conditional,
                )
            })
            .collect();
        let md = metadata(&entries);
        let mut image = md.to_bytes();
        let last = image.len() - 1;
        image[last] ^= 0x10; // flip a payload bit
        let corrupt = Metadata::from_bytes(&image).expect("structurally intact");
        let replay = Replayer::new(&corrupt, ReplayConfig::default());
        assert!(replay.is_done(), "invalid region must be dropped wholesale");
        assert_eq!(replay.stats().decode_errors, 1);
        assert_eq!(replay.stats().entries_dropped, 30);
    }

    #[test]
    fn without_validation_decode_stops_at_first_error() {
        let entries: Vec<_> = (0..30u64)
            .map(|i| {
                BtbEntry::new(
                    Addr::new(0x1000 + i * 32),
                    Addr::new(0x1000 + i * 32 + 8),
                    BranchKind::Conditional,
                )
            })
            .collect();
        let md = metadata(&entries);
        let mut image = md.to_bytes();
        let cut = image.len() - 8;
        image.truncate(cut);
        // Patch the payload length so the header stays structurally valid:
        // this models a partial write that the checksum would catch.
        let payload = (cut - 20) as u32;
        image[16..20].copy_from_slice(&payload.to_le_bytes());
        let corrupt = Metadata::from_bytes(&image).expect("structurally intact");
        let cfg = ReplayConfig { validate_metadata: false, ..ReplayConfig::default() };
        let replay = Replayer::new(&corrupt, cfg);
        let kept = replay.total_entries();
        assert!(kept < 30, "truncated stream must lose records");
        assert_eq!(replay.stats().decode_errors, 1);
        assert_eq!(replay.stats().entries_dropped, 30 - kept as u64);
    }

    #[test]
    fn watchdog_abandons_permanently_throttled_replay() {
        let mut m = machine();
        let entries: Vec<_> = (0..40u64)
            .map(|i| {
                BtbEntry::new(
                    Addr::new(0x1000 + i * 32),
                    Addr::new(0x1000 + i * 32 + 8),
                    BranchKind::Conditional,
                )
            })
            .collect();
        let md = metadata(&entries);
        let cfg = ReplayConfig {
            throttle_threshold: 0,
            watchdog_stall_steps: 8,
            prefetch_instructions: false,
            ..ReplayConfig::default()
        };
        let mut replay = Replayer::new(&md, cfg);
        // Nothing ever consumes the restored entries, so after the first
        // productive step replay is throttled forever — the watchdog must
        // terminate it within a bounded number of cycles.
        for now in 0..100 {
            replay.step(now, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
            if replay.is_done() {
                break;
            }
        }
        assert!(replay.is_done(), "watchdog must end a stalled replay");
        assert_eq!(replay.stats().watchdog_abandons, 1);
        assert!(replay.stats().entries_dropped > 0);
        assert!(replay.stats().entries_restored < 40);
    }

    /// A session built on an earlier session's buffers restores exactly
    /// what a fresh session does: the same BTB, CBP and ITLB effects,
    /// statistics and pending records, part-way through and at the end.
    /// The earlier sessions are a longer one, stopped with records and
    /// lines still queued, and one that hit a decode error mid-stream.
    #[test]
    fn reused_buffers_restore_exactly_what_fresh_ones_do() {
        let region = |n: u64, base: u64| {
            let kinds = [BranchKind::Conditional, BranchKind::Call, BranchKind::Unconditional];
            let entries: Vec<_> = (0..n)
                .map(|i| {
                    let pc = Addr::new(base + i * 200);
                    BtbEntry::new(pc, pc + 40, kinds[i as usize % 3])
                })
                .collect();
            metadata(&entries)
        };
        let (long, short) = (region(120, 0x10_000), region(30, 0x80_000));
        let mut broken = long.to_bytes();
        let cut = broken.len() - 8;
        broken.truncate(cut);
        broken[16..20].copy_from_slice(&((cut - 20) as u32).to_le_bytes());
        let broken = Metadata::from_bytes(&broken).expect("structurally intact");

        // What a session leaves behind after 10 steps and at its end.
        let effects = |mut replay: Replayer| {
            let mut m = machine();
            let mut seen = Vec::new();
            for now in 0..200 {
                if now == 10 || replay.is_done() {
                    seen.push((
                        format!("{:?} {:?} {:?}", m.btb, m.cbp, m.itlb),
                        *replay.stats(),
                        replay.pending_entries(),
                    ));
                }
                if replay.is_done() {
                    break;
                }
                replay.step(now, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
            }
            seen
        };
        let cfg = ReplayConfig::default();
        let fresh = effects(Replayer::new(&short, cfg));

        let mut m = machine();
        let mut longer = Replayer::new(&long, cfg);
        for now in 0..5 {
            longer.step(now, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
        }
        assert!(longer.pending_entries() > 30, "the longer session stops early");
        let (entries, lines) = longer.into_buffers();
        assert!(!lines.is_empty(), "the longer session leaves lines queued");
        let reused = Replayer::with_buffers(&short, cfg, entries, lines);
        assert_eq!(effects(reused), fresh, "after a longer session");

        let unchecked = ReplayConfig { validate_metadata: false, ..cfg };
        let failed = Replayer::new(&broken, unchecked);
        assert_eq!(failed.stats().decode_errors, 1, "the session hits a decode error");
        assert!(failed.total_entries() > 30, "and decodes more records than the next region");
        let (entries, lines) = failed.into_buffers();
        let reused = Replayer::with_buffers(&short, cfg, entries, lines);
        assert_eq!(effects(reused), fresh, "after a session that hit a decode error");
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = ReplayStats { entries_restored: 1, decode_errors: 2, ..Default::default() };
        let b = ReplayStats { entries_restored: 3, stale_restored: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.entries_restored, 4);
        assert_eq!(a.decode_errors, 2);
        assert_eq!(a.stale_restored, 4);
    }
}
