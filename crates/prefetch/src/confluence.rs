//! Confluence: unified temporal-streaming instruction and BTB prefetching
//! (Kaynak et al., MICRO'15).
//!
//! Confluence records the temporal sequence of L1-I block addresses in a
//! history buffer (32 K entries, §5.3) and maintains an index (8 K entries)
//! from miss-triggering blocks to positions in that history. On an L1-I miss
//! whose block is indexed, it replays the recorded stream: prefetching
//! subsequent blocks into the L1-I and predecoding them to fill the BTB.
//! Metadata look-ups cost 50 cycles (modelling LLC-resident virtualized
//! metadata). Front-end resteers abandon the active stream, forcing a
//! re-index — the behaviour that makes Confluence sensitive to a cold BPU
//! (§6.5).

use std::collections::HashMap;

use ignite_uarch::addr::Addr;
use ignite_uarch::btb::Btb;
use ignite_uarch::cache::FillKind;
use ignite_uarch::hierarchy::Hierarchy;
use ignite_uarch::Cycle;

use crate::branch_index::BranchIndex;

/// Index capacity, miss triggers to history positions (§5.3: 8 K).
pub const INDEX_ENTRIES: usize = 8 * 1024;
/// History buffer capacity in block addresses (§5.3: 32 K).
pub const HISTORY_ENTRIES: usize = 32 * 1024;
/// Metadata lookup latency in cycles (§5.3: 50).
pub const LOOKUP_LATENCY: Cycle = 50;
/// Maximum blocks streamed per trigger.
pub const STREAM_WINDOW: usize = 24;
/// Blocks issued per cycle while streaming.
pub const STREAM_RATE: usize = 2;

#[derive(Debug, Clone)]
struct Stream {
    /// Next history position to issue.
    pos: usize,
    /// Blocks remaining in the window.
    remaining: usize,
    /// Earliest cycle issuing may begin (lookup latency).
    start_at: Cycle,
}

/// Traffic from one streaming step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfluenceStep {
    /// Instruction bytes pulled from DRAM.
    pub memory_bytes: u64,
    /// Lines prefetched into the L1-I.
    pub lines_issued: u64,
    /// Branches predecoded into the BTB.
    pub branches_filled: u64,
}

/// The Confluence temporal-streaming prefetcher.
///
/// State persists across invocations (its metadata lives off the critical
/// flush path, like Ignite's), so the lukewarm protocol does *not* clear it.
///
/// # Example
///
/// ```
/// use ignite_prefetch::confluence::Confluence;
/// use ignite_uarch::addr::Addr;
///
/// let mut c = Confluence::default();
/// c.observe_access(Addr::new(0x1000), true);
/// c.observe_access(Addr::new(0x2000), false);
/// assert_eq!(c.history_len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Confluence {
    history: Vec<u64>,
    index: HashMap<u64, usize>,
    stream: Option<Stream>,
    last_recorded: Option<u64>,
    streams_started: u64,
    streams_killed: u64,
}

impl Confluence {
    /// Recorded history length (blocks).
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Streams started so far.
    pub fn streams_started(&self) -> u64 {
        self.streams_started
    }

    /// Streams abandoned by resteers.
    pub fn streams_killed(&self) -> u64 {
        self.streams_killed
    }

    /// The first cycle on which the active stream may issue (its metadata
    /// lookup has completed), or `None` when no stream is active. Before
    /// it, and whenever this is `None`, [`Confluence::step`] is a no-op.
    pub fn stream_start(&self) -> Option<Cycle> {
        self.stream.as_ref().map(|s| s.start_at)
    }

    /// Record-side hook: observe a committed L1-I access; `was_miss` marks
    /// the block as a potential stream trigger.
    pub fn observe_access(&mut self, addr: Addr, was_miss: bool) {
        let line = addr.line_number();
        // Consecutive-duplicate suppression keeps the history compact.
        if self.last_recorded != Some(line) {
            if self.history.len() >= HISTORY_ENTRIES {
                // Wrap: drop the oldest half. Every indexed position has
                // shifted, so the index starts over.
                self.history.drain(..self.history.len() - HISTORY_ENTRIES / 2);
                self.index.clear();
            }
            self.history.push(line);
            self.last_recorded = Some(line);
        }
        if was_miss && self.index.len() < INDEX_ENTRIES {
            self.index.entry(line).or_insert(self.history.len().saturating_sub(1));
        }
    }

    /// Replay-side hook: an L1-I demand miss may trigger a stream.
    pub fn on_miss(&mut self, addr: Addr, now: Cycle) {
        if self.stream.is_some() {
            return;
        }
        if let Some(&pos) = self.index.get(&addr.line_number()) {
            self.stream = Some(Stream {
                pos: pos + 1,
                remaining: STREAM_WINDOW,
                start_at: now + LOOKUP_LATENCY,
            });
            self.streams_started += 1;
        }
    }

    /// A front-end resteer abandons the active stream (it would now be
    /// following stale control flow).
    pub fn on_resteer(&mut self) {
        if self.stream.take().is_some() {
            self.streams_killed += 1;
        }
    }

    /// Issues up to [`STREAM_RATE`] block prefetches from the active stream,
    /// predecoding their branches into the BTB.
    pub fn step(
        &mut self,
        now: Cycle,
        hierarchy: &mut Hierarchy,
        branch_index: &BranchIndex,
        btb: &mut Btb,
    ) -> ConfluenceStep {
        let mut out = ConfluenceStep::default();
        let Some(stream) = &mut self.stream else {
            return out;
        };
        if now < stream.start_at {
            return out;
        }
        for _ in 0..STREAM_RATE {
            if stream.remaining == 0 || stream.pos >= self.history.len() {
                self.stream = None;
                return out;
            }
            let line = Addr::new(self.history[stream.pos] * ignite_uarch::addr::LINE_BYTES);
            stream.pos += 1;
            stream.remaining -= 1;
            if let Some(r) = hierarchy.prefetch_l1i(line, now, FillKind::Prefetch) {
                out.memory_bytes += r.bytes_from_memory;
                out.lines_issued += 1;
            }
            for b in branch_index.branches_in_line(line) {
                if let Some(entry) = b.to_btb_entry() {
                    btb.insert(entry, false);
                    out.branches_filled += 1;
                }
            }
        }
        out
    }

    /// Clears streaming state but keeps metadata (between invocations).
    pub fn end_invocation(&mut self) {
        self.stream = None;
        self.last_recorded = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_index::PredecodedBranch;
    use ignite_uarch::btb::{BranchKind, BtbConfig};
    use ignite_uarch::config::UarchConfig;

    fn setup() -> (Hierarchy, Btb, BranchIndex) {
        let cfg = UarchConfig::ice_lake_like();
        let index = BranchIndex::from_branches([PredecodedBranch {
            pc: Addr::new(0x2010),
            kind: BranchKind::Unconditional,
            static_target: Some(Addr::new(0x5000)),
        }]);
        (Hierarchy::new(&cfg.hierarchy), Btb::new(&BtbConfig { entries: 256, ways: 4 }), index)
    }

    #[test]
    fn history_dedups_consecutive_blocks() {
        let mut c = Confluence::default();
        c.observe_access(Addr::new(0x1000), false);
        c.observe_access(Addr::new(0x1020), false); // same line
        c.observe_access(Addr::new(0x1040), false);
        assert_eq!(c.history_len(), 2);
    }

    #[test]
    fn miss_trigger_starts_stream_after_lookup_latency() {
        let (mut h, mut btb, bidx) = setup();
        let mut c = Confluence::default();
        // Record a stream: miss at 0x1000, then blocks 0x2000, 0x3000.
        c.observe_access(Addr::new(0x1000), true);
        c.observe_access(Addr::new(0x2000), false);
        c.observe_access(Addr::new(0x3000), false);
        c.end_invocation();

        c.on_miss(Addr::new(0x1000), 100);
        assert_eq!(c.stream_start(), Some(100 + LOOKUP_LATENCY));
        // Before the lookup completes nothing is issued.
        let early = c.step(100 + LOOKUP_LATENCY - 1, &mut h, &bidx, &mut btb);
        assert_eq!(early.lines_issued, 0);
        // After: the recorded successors are prefetched.
        let later = c.step(100 + LOOKUP_LATENCY, &mut h, &bidx, &mut btb);
        assert!(later.lines_issued > 0);
        assert!(h.probe_l1i(Addr::new(0x2000)));
    }

    #[test]
    fn streamed_blocks_fill_btb() {
        let (mut h, mut btb, bidx) = setup();
        let mut c = Confluence::default();
        c.observe_access(Addr::new(0x1000), true);
        c.observe_access(Addr::new(0x2000), false);
        c.on_miss(Addr::new(0x1000), 0);
        c.step(LOOKUP_LATENCY, &mut h, &bidx, &mut btb);
        assert!(btb.probe(Addr::new(0x2010)).is_some(), "branch in streamed block predecoded");
    }

    #[test]
    fn resteer_kills_stream() {
        let (mut h, mut btb, bidx) = setup();
        let mut c = Confluence::default();
        c.observe_access(Addr::new(0x1000), true);
        c.observe_access(Addr::new(0x2000), false);
        c.on_miss(Addr::new(0x1000), 0);
        assert!(c.stream_start().is_some());
        c.on_resteer();
        assert!(c.stream_start().is_none());
        assert_eq!(c.streams_killed(), 1);
        let out = c.step(100, &mut h, &bidx, &mut btb);
        assert_eq!(out.lines_issued, 0);
    }

    #[test]
    fn unindexed_miss_does_not_stream() {
        let mut c = Confluence::default();
        c.on_miss(Addr::new(0x7777_0000), 0);
        assert!(c.stream_start().is_none());
    }

    #[test]
    fn stream_window_bounds_issue() {
        let (mut h, mut btb, bidx) = setup();
        let mut c = Confluence::default();
        c.observe_access(Addr::new(0x1000), true);
        for i in 1..=STREAM_WINDOW as u64 + 10 {
            c.observe_access(Addr::new(0x1000 + i * 0x1000), false);
        }
        c.on_miss(Addr::new(0x1000), 0);
        // Steps 1,000 cycles apart: every fill lands before the next
        // issue, so no prefetch is refused for want of an MSHR.
        let mut issued = 0;
        for step in 0..2 * STREAM_WINDOW as u64 {
            issued += c.step(LOOKUP_LATENCY + step * 1_000, &mut h, &bidx, &mut btb).lines_issued;
        }
        assert_eq!(issued, STREAM_WINDOW as u64, "the window caps the stream");
        assert!(c.stream_start().is_none(), "the stream ends at its window");
    }

    #[test]
    fn metadata_survives_end_invocation() {
        let mut c = Confluence::default();
        c.observe_access(Addr::new(0x1000), true);
        c.observe_access(Addr::new(0x2000), false);
        c.end_invocation();
        assert_eq!(c.history_len(), 2);
        c.on_miss(Addr::new(0x1000), 0);
        assert!(c.stream_start().is_some(), "index persists across invocations");
    }
}
