//! Boomerang: FDP with BTB prefilling (Kumar et al., HPCA'17).
//!
//! When the decoupled front-end discovers that an upcoming fetch region's
//! terminating branch is missing from the BTB, Boomerang fetches the cache
//! block containing the branch, predecodes it (6-cycle latency, §5.3) and
//! inserts the discovered branches into the BTB through a 16-entry prefetch
//! buffer. The engine decides whether the fill completed in time for the
//! transition to be predicted.

use std::collections::VecDeque;

use ignite_uarch::addr::Addr;
use ignite_uarch::btb::Btb;
use ignite_uarch::cache::FillKind;
use ignite_uarch::hierarchy::Hierarchy;
use ignite_uarch::Cycle;

use crate::branch_index::BranchIndex;

/// Predecode pipeline latency in cycles (§5.3).
pub const PREDECODE_LATENCY: Cycle = 6;
/// BTB prefetch buffer capacity (§5.3).
pub const BUFFER_ENTRIES: usize = 16;

/// Outcome of a BTB fill request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Cycle at which the BTB entries become usable.
    pub ready_at: Cycle,
    /// Bytes pulled from DRAM by the block fetch.
    pub memory_bytes: u64,
    /// Number of branches predecoded into the BTB.
    pub branches_filled: usize,
}

/// The Boomerang BTB prefiller.
///
/// # Example
///
/// ```
/// use ignite_prefetch::boomerang::Boomerang;
/// use ignite_prefetch::branch_index::{BranchIndex, PredecodedBranch};
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::btb::{BranchKind, Btb, BtbConfig};
/// use ignite_uarch::config::UarchConfig;
/// use ignite_uarch::hierarchy::Hierarchy;
///
/// let cfg = UarchConfig::tiny_for_tests();
/// let mut h = Hierarchy::new(&cfg.hierarchy);
/// let mut btb = Btb::new(&cfg.btb);
/// let index = BranchIndex::from_branches([PredecodedBranch {
///     pc: Addr::new(0x1010),
///     kind: BranchKind::Unconditional,
///     static_target: Some(Addr::new(0x2000)),
/// }]);
/// let mut boomerang = Boomerang::default();
/// let outcome = boomerang.request_fill(Addr::new(0x1010), 0, &mut h, &index, &mut btb);
/// assert!(outcome.is_some());
/// assert!(btb.probe(Addr::new(0x1010)).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Boomerang {
    /// Completion cycles of in-flight fills (models buffer occupancy).
    pending: VecDeque<Cycle>,
    fills: u64,
    dropped: u64,
}

impl Boomerang {
    /// Completed BTB fill requests.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Requests dropped because the prefetch buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn expire(&mut self, now: Cycle) {
        while self.pending.front().is_some_and(|&r| r <= now) {
            self.pending.pop_front();
        }
    }

    /// Requests a BTB fill for the branch expected at `pc`.
    ///
    /// Fetches the containing line toward the L1-I, predecodes every branch
    /// in it, and inserts those with static targets into the BTB. Returns
    /// `None` if the 16-entry buffer is full (request dropped, as in
    /// hardware) or if predecode finds no fillable branch in the line.
    pub fn request_fill(
        &mut self,
        pc: Addr,
        now: Cycle,
        hierarchy: &mut Hierarchy,
        index: &BranchIndex,
        btb: &mut Btb,
    ) -> Option<FillOutcome> {
        self.expire(now);
        if self.pending.len() >= BUFFER_ENTRIES {
            self.dropped += 1;
            return None;
        }
        // Fetch the block holding the branch (it is usually already being
        // prefetched by FDP; the hierarchy dedups in-flight requests).
        let (line_ready, memory_bytes) = match hierarchy.prefetch_l1i(pc, now, FillKind::Prefetch) {
            Some(r) => (r.ready_at, r.bytes_from_memory),
            // Already resident or in flight: predecode can start now.
            None => (now, 0),
        };
        let ready_at = line_ready + PREDECODE_LATENCY;
        let mut branches_filled = 0;
        for b in index.branches_in_line(pc) {
            if let Some(entry) = b.to_btb_entry() {
                btb.insert(entry, false);
                branches_filled += 1;
            }
        }
        if branches_filled == 0 {
            return None;
        }
        self.pending.push_back(ready_at);
        self.fills += 1;
        Some(FillOutcome { ready_at, memory_bytes, branches_filled })
    }

    /// Clears in-flight state and statistics (between invocations).
    pub fn reset(&mut self) {
        self.pending.clear();
        self.fills = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_index::PredecodedBranch;
    use ignite_uarch::btb::BranchKind;
    use ignite_uarch::config::UarchConfig;

    fn setup() -> (Hierarchy, Btb, BranchIndex) {
        let cfg = UarchConfig::tiny_for_tests();
        let index = BranchIndex::from_branches([
            PredecodedBranch {
                pc: Addr::new(0x1008),
                kind: BranchKind::Conditional,
                static_target: Some(Addr::new(0x1100)),
            },
            PredecodedBranch {
                pc: Addr::new(0x1030),
                kind: BranchKind::Indirect,
                static_target: None,
            },
        ]);
        (Hierarchy::new(&cfg.hierarchy), Btb::new(&cfg.btb), index)
    }

    #[test]
    fn fill_inserts_static_branches_only() {
        let (mut h, mut btb, index) = setup();
        let mut b = Boomerang::default();
        let outcome = b.request_fill(Addr::new(0x1008), 0, &mut h, &index, &mut btb).unwrap();
        assert_eq!(outcome.branches_filled, 1, "indirect branch cannot be prefilled");
        assert!(btb.probe(Addr::new(0x1008)).is_some());
        assert!(btb.probe(Addr::new(0x1030)).is_none());
    }

    #[test]
    fn fill_latency_includes_predecode() {
        let (mut h, mut btb, index) = setup();
        let mut b = Boomerang::default();
        let outcome = b.request_fill(Addr::new(0x1008), 0, &mut h, &index, &mut btb).unwrap();
        // Cold line: memory latency + predecode.
        assert!(outcome.ready_at >= h.config().memory_latency + PREDECODE_LATENCY);
        assert_eq!(outcome.memory_bytes, 64);
    }

    #[test]
    fn resident_line_fills_quickly() {
        let (mut h, mut btb, index) = setup();
        let done = h.fetch(Addr::new(0x1008), 0).ready_at;
        let mut b = Boomerang::default();
        let outcome = b.request_fill(Addr::new(0x1008), done, &mut h, &index, &mut btb).unwrap();
        assert_eq!(outcome.ready_at, done + PREDECODE_LATENCY);
        assert_eq!(outcome.memory_bytes, 0);
    }

    #[test]
    fn buffer_capacity_drops_requests() {
        let (mut h, mut btb, _) = setup();
        // An index with a branch in every line so fills always succeed.
        let branches: Vec<_> = (0..40u64)
            .map(|i| PredecodedBranch {
                pc: Addr::new(0x4000 + i * 64),
                kind: BranchKind::Unconditional,
                static_target: Some(Addr::new(0x9000)),
            })
            .collect();
        let index = BranchIndex::from_branches(branches);
        let mut b = Boomerang::default();
        // No fill issued at cycle 0 completes at cycle 0, so the buffer
        // holds the first 16 requests and drops the other 24.
        let filled = (0..40u64)
            .filter(|i| {
                let pc = Addr::new(0x4000 + i * 64);
                b.request_fill(pc, 0, &mut h, &index, &mut btb).is_some()
            })
            .count();
        assert_eq!(filled, BUFFER_ENTRIES);
        assert_eq!(b.dropped(), 40 - BUFFER_ENTRIES as u64);
        // After time passes, capacity frees up.
        assert!(b.request_fill(Addr::new(0x4000), 1_000_000, &mut h, &index, &mut btb).is_some());
    }

    #[test]
    fn line_without_branches_returns_none() {
        let (mut h, mut btb, index) = setup();
        let mut b = Boomerang::default();
        assert!(b.request_fill(Addr::new(0x9000), 0, &mut h, &index, &mut btb).is_none());
    }

    #[test]
    fn reset_clears_state() {
        let (mut h, mut btb, index) = setup();
        let mut b = Boomerang::default();
        b.request_fill(Addr::new(0x1008), 0, &mut h, &index, &mut btb);
        b.reset();
        assert_eq!(b.fills(), 0);
    }
}
