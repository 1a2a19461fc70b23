//! Jukebox: record-and-replay region prefetching for serverless
//! (Schall et al., ISCA'22).
//!
//! Jukebox records the *off-chip* instruction misses of an invocation at
//! 1 KiB-region granularity, de-duplicated through a 16-entry circular
//! recent-region buffer (CRRB), and stores the region list as in-memory
//! metadata (16 KiB per direction, §5.3). On re-invocation it bulk-prefetches
//! the recorded regions into the **L2** at a paced rate.

use std::collections::HashMap;
use std::collections::VecDeque;

use ignite_uarch::addr::{Addr, LINE_BYTES};
use ignite_uarch::cache::FillKind;
use ignite_uarch::hierarchy::{Hierarchy, Level};
use ignite_uarch::Cycle;

/// Region granularity in bytes (§5.3: 1 KiB).
pub const REGION_BYTES: u64 = 1024;
/// Circular recent-region buffer entries (record-side dedup).
pub const CRRB_ENTRIES: usize = 16;
/// Metadata budget per direction in bytes (§5.3: 16 KiB).
pub const METADATA_BYTES: u64 = 16 * 1024;
/// Bytes per metadata entry (a compressed region pointer).
pub const ENTRY_BYTES: u64 = 4;
/// Cache lines prefetched per cycle during replay.
pub const REPLAY_LINES_PER_CYCLE: u64 = 2;

/// Cache lines per region.
const REGION_LINES: u64 = REGION_BYTES / LINE_BYTES;
/// Metadata bytes streamed per replayed line: its share of a region
/// entry, rounded up.
const LINE_METADATA_BYTES: u64 = ENTRY_BYTES.div_ceil(REGION_LINES);

/// Traffic generated by one replay step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JukeboxStep {
    /// Instruction bytes pulled from DRAM into the L2.
    pub instruction_bytes: u64,
    /// Replay metadata bytes streamed from memory this step.
    pub metadata_bytes: u64,
}

/// The Jukebox prefetcher.
///
/// One instance serves many function containers: metadata is keyed by a
/// container id, mirroring the per-container in-memory metadata regions the
/// OS manages.
///
/// # Example
///
/// ```
/// use ignite_prefetch::jukebox::Jukebox;
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::config::UarchConfig;
/// use ignite_uarch::hierarchy::Hierarchy;
///
/// let mut h = Hierarchy::new(&UarchConfig::ice_lake_like().hierarchy);
/// let mut jb = Jukebox::default();
///
/// // First invocation: record an off-chip miss.
/// jb.begin_invocation(7);
/// jb.observe_fill(Addr::new(0x4000), ignite_uarch::hierarchy::Level::Memory);
/// jb.end_invocation(7);
///
/// // Second invocation: replay prefetches the region into the L2.
/// jb.begin_invocation(7);
/// while jb.step(0, &mut h).instruction_bytes > 0 {}
/// assert!(h.probe_l2(Addr::new(0x4000)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Jukebox {
    /// Recorded region lists per container (the in-memory metadata).
    metadata: HashMap<u64, Vec<u64>>,
    /// Record-side state for the active invocation.
    crrb: VecDeque<u64>,
    recording: Vec<u64>,
    record_bytes: u64,
    /// Line addresses replay has still to prefetch, oldest first.
    replay: VecDeque<Addr>,
    active: Option<u64>,
}

impl Jukebox {
    /// Record metadata bytes written so far in the active invocation.
    pub fn record_bytes(&self) -> u64 {
        self.record_bytes
    }

    /// Whether replay still has work queued.
    pub fn replay_pending(&self) -> bool {
        !self.replay.is_empty()
    }

    /// Starts an invocation of `container`: arms recording and, if metadata
    /// from a previous invocation exists, queues its replay.
    pub fn begin_invocation(&mut self, container: u64) {
        self.active = Some(container);
        self.crrb.clear();
        self.recording.clear();
        self.record_bytes = 0;
        self.replay.clear();
        if let Some(regions) = self.metadata.get(&container) {
            for &region in regions {
                let base = Addr::new(region * REGION_BYTES);
                for i in 0..REGION_LINES {
                    self.replay.push_back(base + i * LINE_BYTES);
                }
            }
        }
    }

    /// Record-side hook: observe an instruction fill and record its region
    /// if it came from off-chip and is not CRRB-recent.
    pub fn observe_fill(&mut self, addr: Addr, served_by: Level) {
        if self.active.is_none() || served_by != Level::Memory {
            return;
        }
        let region = addr.as_u64() / REGION_BYTES;
        if self.crrb.contains(&region) {
            return;
        }
        if self.crrb.len() >= CRRB_ENTRIES {
            self.crrb.pop_front();
        }
        self.crrb.push_back(region);
        // Metadata budget: stop recording when full (paper: 16 KiB).
        if self.record_bytes + ENTRY_BYTES <= METADATA_BYTES && !self.recording.contains(&region) {
            self.recording.push(region);
            self.record_bytes += ENTRY_BYTES;
        }
    }

    /// Replay-side hook: issue up to [`REPLAY_LINES_PER_CYCLE`] line prefetches
    /// into the L2, respecting L2 MSHR backpressure (bulk prefetch cannot
    /// outrun DRAM bandwidth).
    pub fn step(&mut self, now: Cycle, hierarchy: &mut Hierarchy) -> JukeboxStep {
        let mut out = JukeboxStep::default();
        for _ in 0..REPLAY_LINES_PER_CYCLE {
            let Some(&line) = self.replay.front() else {
                break;
            };
            if !hierarchy.probe_l2(line) && hierarchy.l2_prefetch_capacity(now) == 0 {
                break; // retry next cycle
            }
            self.replay.pop_front();
            if let Some(r) = hierarchy.prefetch_l2(line, now, FillKind::Prefetch) {
                out.instruction_bytes += r.bytes_from_memory;
            }
            out.metadata_bytes += LINE_METADATA_BYTES;
        }
        out
    }

    /// Ends the invocation, persisting the recorded metadata for the next
    /// invocation of the same container.
    ///
    /// When replay was active this invocation, most instruction fetches hit
    /// the (replayed) L2, so the fresh recording holds only the regions
    /// replay did not cover. Those are *merged* into the retained list —
    /// replacing it would starve the next invocation (the double-buffering
    /// subtlety of §4.3, which applies to Jukebox exactly as to Ignite).
    pub fn end_invocation(&mut self, container: u64) {
        if self.active != Some(container) {
            return;
        }
        self.active = None;
        // The recording and the replay queue are kept for the next
        // invocation; the stored list is an exactly sized copy.
        let fresh = &self.recording;
        let replay_was_active = self.metadata.get(&container).is_some_and(|m| !m.is_empty());
        if !replay_was_active {
            self.metadata.insert(container, fresh.clone());
            return;
        }
        let budget_entries = (METADATA_BYTES / ENTRY_BYTES) as usize;
        let old = self.metadata.entry(container).or_default();
        for &region in fresh {
            if old.len() >= budget_entries {
                break;
            }
            if !old.contains(&region) {
                old.push(region);
            }
        }
    }

    /// Recorded regions for a container (inspection).
    pub fn recorded_regions(&self, container: u64) -> usize {
        self.metadata.get(&container).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_uarch::config::UarchConfig;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&UarchConfig::ice_lake_like().hierarchy)
    }

    fn jukebox() -> Jukebox {
        Jukebox::default()
    }

    #[test]
    fn records_only_offchip_misses() {
        let mut jb = jukebox();
        jb.begin_invocation(1);
        jb.observe_fill(Addr::new(0x1000), Level::Memory);
        jb.observe_fill(Addr::new(0x9000), Level::L2);
        jb.end_invocation(1);
        assert_eq!(jb.recorded_regions(1), 1);
    }

    #[test]
    fn crrb_dedups_within_region() {
        let mut jb = jukebox();
        jb.begin_invocation(1);
        jb.observe_fill(Addr::new(0x1000), Level::Memory);
        jb.observe_fill(Addr::new(0x1040), Level::Memory);
        jb.observe_fill(Addr::new(0x1080), Level::Memory);
        jb.end_invocation(1);
        assert_eq!(jb.recorded_regions(1), 1, "same 1 KiB region records once");
    }

    #[test]
    fn replay_prefetches_whole_region_into_l2() {
        let mut h = hierarchy();
        let mut jb = jukebox();
        jb.begin_invocation(5);
        jb.observe_fill(Addr::new(0x4000), Level::Memory);
        jb.end_invocation(5);
        jb.begin_invocation(5);
        let mut cycle = 0;
        while jb.replay_pending() {
            jb.step(cycle, &mut h);
            cycle += 1;
        }
        // Every line of the 1 KiB region is L2-resident.
        for i in 0..REGION_LINES {
            assert!(h.probe_l2(Addr::new(0x4000 + i * 64)), "line {i} missing");
        }
    }

    #[test]
    fn replay_rate_is_paced() {
        let mut h = hierarchy();
        let mut jb = jukebox();
        jb.begin_invocation(5);
        jb.observe_fill(Addr::new(0x4000), Level::Memory);
        jb.end_invocation(5);
        jb.begin_invocation(5);
        let step = jb.step(0, &mut h);
        assert_eq!(step.instruction_bytes, REPLAY_LINES_PER_CYCLE * LINE_BYTES);
        assert!(jb.replay_pending());
    }

    #[test]
    fn metadata_budget_caps_recording() {
        let budget = METADATA_BYTES / ENTRY_BYTES;
        let mut jb = jukebox();
        jb.begin_invocation(1);
        for i in 0..budget + 10 {
            // Distinct regions, far apart so the CRRB never dedups them.
            jb.observe_fill(Addr::new(i * 0x10_000), Level::Memory);
        }
        jb.end_invocation(1);
        assert_eq!(jb.recorded_regions(1) as u64, budget, "the budget caps the entries");
        assert_eq!(jb.record_bytes(), METADATA_BYTES);
    }

    #[test]
    fn containers_are_isolated() {
        let mut jb = jukebox();
        jb.begin_invocation(1);
        jb.observe_fill(Addr::new(0x1000), Level::Memory);
        jb.end_invocation(1);
        jb.begin_invocation(2);
        jb.end_invocation(2);
        assert_eq!(jb.recorded_regions(1), 1);
        assert_eq!(jb.recorded_regions(2), 0);
    }

    #[test]
    fn rerecording_merges_with_retained_metadata() {
        let mut jb = jukebox();
        jb.begin_invocation(1);
        jb.observe_fill(Addr::new(0x1000), Level::Memory);
        jb.observe_fill(Addr::new(0x20_000), Level::Memory);
        jb.end_invocation(1);
        assert_eq!(jb.recorded_regions(1), 2);
        // A replayed invocation records only uncovered regions; they merge
        // into the retained list rather than replacing it (double
        // buffering must not starve the next invocation).
        jb.begin_invocation(1);
        jb.observe_fill(Addr::new(0x30_000), Level::Memory);
        jb.end_invocation(1);
        assert_eq!(jb.recorded_regions(1), 3);
        // Duplicates do not grow the list.
        jb.begin_invocation(1);
        jb.observe_fill(Addr::new(0x1000), Level::Memory);
        jb.end_invocation(1);
        assert_eq!(jb.recorded_regions(1), 3);
    }

    #[test]
    fn metadata_traffic_accounted() {
        let mut h = hierarchy();
        let mut jb = jukebox();
        jb.begin_invocation(5);
        jb.observe_fill(Addr::new(0x4000), Level::Memory);
        jb.end_invocation(5);
        jb.begin_invocation(5);
        let mut md = 0;
        let mut cycle = 0;
        while jb.replay_pending() {
            md += jb.step(cycle, &mut h).metadata_bytes;
            cycle += 1;
        }
        assert!(md >= 4, "at least one entry's worth of metadata streamed");
    }
}
