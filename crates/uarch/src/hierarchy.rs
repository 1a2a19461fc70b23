//! The instruction-side memory hierarchy: L1-I → L2 → LLC → DRAM.
//!
//! Latencies and geometries default to the paper's Table 2. State changes
//! (fills) happen eagerly; timing is conveyed through the `ready_at` cycle of
//! each [`AccessResult`], with an in-flight table merging concurrent requests
//! to the same line (MSHR semantics). Prefetches are bounded by the MSHR
//! count; demand fetches always proceed.

use crate::addr::Addr;
use crate::cache::{CacheGeometry, FillKind, SetAssocCache};
use crate::fxmap::FxHashMap;
use crate::Cycle;

/// Which level of the hierarchy served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// First-level instruction cache.
    L1I,
    /// Private unified second-level cache.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Off-chip DRAM.
    Memory,
}

/// Latency and MSHR parameters of the instruction path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1-I geometry.
    pub l1i: CacheGeometry,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// LLC geometry.
    pub llc: CacheGeometry,
    /// L1-I hit latency in cycles (1, standing in for the µop cache; §5.3).
    pub l1i_latency: Cycle,
    /// L2 hit latency in cycles.
    pub l2_latency: Cycle,
    /// LLC hit latency in cycles.
    pub llc_latency: Cycle,
    /// DRAM access latency in cycles.
    pub memory_latency: Cycle,
    /// Maximum outstanding prefetch fills (L1-I MSHRs).
    pub l1i_mshrs: usize,
    /// Maximum outstanding L2 prefetch fills.
    pub l2_mshrs: usize,
}

/// Outcome of a fetch or prefetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the requested line is usable.
    pub ready_at: Cycle,
    /// Deepest level that had to be consulted.
    pub served_by: Level,
    /// Bytes transferred from DRAM for this request (0 unless `served_by`
    /// is [`Level::Memory`] and this request initiated the fill).
    pub bytes_from_memory: u64,
    /// For demand fetches: the access hit a line a prefetcher installed,
    /// and this was the line's first use (tagged next-line trigger).
    pub hit_prefetched: bool,
}

/// In-flight fill table (MSHR model): line number → completion cycle.
///
/// Sized by the MSHR count plus merged demand fills within one memory
/// latency window — a few dozen entries at most — so a flat vector with
/// linear scans beats a hash map. Expiry is O(1) in the common case: a
/// cached minimum completion cycle skips the sweep entirely until some
/// entry is actually due.
///
/// Expiry points match the old per-access `HashMap::retain` exactly, so
/// membership, lookups and live counts are bit-identical to the previous
/// representation.
#[derive(Debug, Clone, Default)]
struct InflightTable {
    entries: Vec<(u64, Cycle)>,
    /// Minimum completion cycle across `entries`; `Cycle::MAX` when empty.
    min_ready: Cycle,
}

impl InflightTable {
    fn new() -> Self {
        InflightTable { entries: Vec::new(), min_ready: Cycle::MAX }
    }

    /// Drops every entry whose fill has completed by `now`.
    #[inline]
    fn expire(&mut self, now: Cycle) {
        if self.min_ready > now {
            return;
        }
        self.entries.retain(|&(_, ready)| ready > now);
        self.min_ready = self.entries.iter().map(|&(_, ready)| ready).min().unwrap_or(Cycle::MAX);
    }

    #[inline]
    fn get(&self, line: u64) -> Option<Cycle> {
        self.entries.iter().find(|&&(l, _)| l == line).map(|&(_, ready)| ready)
    }

    #[inline]
    fn contains(&self, line: u64) -> bool {
        self.entries.iter().any(|&(l, _)| l == line)
    }

    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Inserts or overwrites the entry for `line`.
    fn insert(&mut self, line: u64, ready: Cycle) {
        match self.entries.iter_mut().find(|(l, _)| *l == line) {
            Some(entry) => entry.1 = ready,
            None => self.entries.push((line, ready)),
        }
        self.min_ready = self.min_ready.min(ready);
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.min_ready = Cycle::MAX;
    }
}

/// The simulated instruction-fetch hierarchy.
///
/// # Example
///
/// ```
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::config::UarchConfig;
/// use ignite_uarch::hierarchy::{Hierarchy, Level};
///
/// let mut h = Hierarchy::new(&UarchConfig::ice_lake_like().hierarchy);
/// let first = h.fetch(Addr::new(0x4000), 0);
/// assert_eq!(first.served_by, Level::Memory);
/// let second = h.fetch(Addr::new(0x4000), first.ready_at);
/// assert_eq!(second.served_by, Level::L1I);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1i: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
    /// Fills in flight toward the L1-I.
    inflight_l1i: InflightTable,
    /// Fills in flight toward the L2.
    inflight_l2: InflightTable,
    /// Lines filled from DRAM this measurement window → whether a demand
    /// fetch has touched them since (Fig. 10 useful/useless attribution).
    mem_fills: FxHashMap<u64, bool>,
    total_memory_read_bytes: u64,
    dropped_prefetches: u64,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: &HierarchyConfig) -> Self {
        Hierarchy {
            cfg: *cfg,
            l1i: SetAssocCache::new(cfg.l1i),
            l2: SetAssocCache::new(cfg.l2),
            llc: SetAssocCache::new(cfg.llc),
            inflight_l1i: InflightTable::new(),
            inflight_l2: InflightTable::new(),
            mem_fills: FxHashMap::default(),
            total_memory_read_bytes: 0,
            dropped_prefetches: 0,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &SetAssocCache {
        &self.l1i
    }

    /// The L2 cache.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// The last-level cache.
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// Total bytes read from DRAM on the instruction path.
    pub fn memory_read_bytes(&self) -> u64 {
        self.total_memory_read_bytes
    }

    /// Bytes of DRAM-filled lines that no demand fetch has touched since the
    /// last [`Hierarchy::reset_stats`] — wrong-path and overpredicted
    /// prefetch traffic (Fig. 10 "useless instructions").
    pub fn untouched_fill_bytes(&self) -> u64 {
        self.mem_fills.values().filter(|&&touched| !touched).count() as u64
            * crate::addr::LINE_BYTES
    }

    /// Prefetches dropped because all MSHRs were busy.
    pub fn dropped_prefetches(&self) -> u64 {
        self.dropped_prefetches
    }

    fn expire_inflight(&mut self, now: Cycle) {
        self.inflight_l1i.expire(now);
        self.inflight_l2.expire(now);
    }

    /// Looks up the levels below L1-I, filling on the way, and returns
    /// (additional latency, serving level, bytes from memory).
    fn access_below_l1i(&mut self, line: Addr, now: Cycle, kind: FillKind) -> (Cycle, Level, u64) {
        if self.l2.lookup(line) {
            // The line may still be in flight toward the L2 (prefetch fills
            // update state eagerly); wait out the remaining fill latency.
            let extra = self
                .inflight_l2
                .get(line.line_number())
                .map_or(0, |ready| ready.saturating_sub(now));
            (self.cfg.l2_latency + extra, Level::L2, 0)
        } else if self.llc.lookup(line) {
            self.l2.fill(line, kind);
            (self.cfg.llc_latency, Level::Llc, 0)
        } else {
            self.llc.fill(line, kind);
            self.l2.fill(line, kind);
            self.total_memory_read_bytes += crate::addr::LINE_BYTES;
            self.mem_fills.entry(line.line_number()).or_insert(false);
            (self.cfg.memory_latency, Level::Memory, crate::addr::LINE_BYTES)
        }
    }

    /// Demand instruction fetch of the line containing `addr`.
    ///
    /// Always proceeds; merges with an in-flight fill of the same line if one
    /// exists.
    pub fn fetch(&mut self, addr: Addr, now: Cycle) -> AccessResult {
        self.expire_inflight(now);
        let line = addr.line();
        // The map stays empty until a line comes from DRAM in this window,
        // which warm code may never do: skip hashing the line until then.
        if !self.mem_fills.is_empty() {
            if let Some(touched) = self.mem_fills.get_mut(&line.line_number()) {
                *touched = true;
            }
        }
        if let Some(hit) = self.l1i.lookup_hit(line) {
            // A resident line may still be in flight (fills update cache
            // state eagerly); the fetch must wait for the fill to land.
            let fill_done = self.inflight_l1i.get(line.line_number()).unwrap_or(now);
            return AccessResult {
                ready_at: fill_done.max(now) + self.cfg.l1i_latency,
                served_by: Level::L1I,
                bytes_from_memory: 0,
                hit_prefetched: hit.was_prefetched,
            };
        }
        let (extra, served_by, bytes) = self.access_below_l1i(line, now, FillKind::Demand);
        let ready = now + extra;
        self.l1i.fill(line, FillKind::Demand);
        self.inflight_l1i.insert(line.line_number(), ready);
        AccessResult {
            ready_at: ready + self.cfg.l1i_latency,
            served_by,
            bytes_from_memory: bytes,
            hit_prefetched: false,
        }
    }

    /// Prefetches the line containing `addr` into the L1-I.
    ///
    /// Returns `None` if the line is already resident or in flight, or if all
    /// L1-I MSHRs are busy (the prefetch is dropped, as in hardware).
    pub fn prefetch_l1i(&mut self, addr: Addr, now: Cycle, kind: FillKind) -> Option<AccessResult> {
        self.expire_inflight(now);
        let line = addr.line();
        if self.l1i.probe(line) || self.inflight_l1i.contains(line.line_number()) {
            return None;
        }
        if self.inflight_l1i.len() >= self.cfg.l1i_mshrs {
            self.dropped_prefetches += 1;
            return None;
        }
        let (extra, served_by, bytes) = self.access_below_l1i(line, now, kind);
        let ready = now + extra;
        self.l1i.fill(line, kind);
        self.inflight_l1i.insert(line.line_number(), ready);
        Some(AccessResult {
            ready_at: ready,
            served_by,
            bytes_from_memory: bytes,
            hit_prefetched: false,
        })
    }

    /// Prefetches the line containing `addr` into the L2 (Jukebox / Ignite
    /// replay target).
    ///
    /// Returns `None` if the line is already L2-resident or in flight, or if
    /// all L2 MSHRs are busy.
    pub fn prefetch_l2(&mut self, addr: Addr, now: Cycle, kind: FillKind) -> Option<AccessResult> {
        self.expire_inflight(now);
        let line = addr.line();
        if self.l2.probe(line) || self.inflight_l2.contains(line.line_number()) {
            return None;
        }
        if self.inflight_l2.len() >= self.cfg.l2_mshrs {
            self.dropped_prefetches += 1;
            return None;
        }
        let (lat, served_by, bytes) = if self.llc.lookup(line) {
            (self.cfg.llc_latency, Level::Llc, 0)
        } else {
            self.llc.fill(line, kind);
            self.total_memory_read_bytes += crate::addr::LINE_BYTES;
            self.mem_fills.entry(line.line_number()).or_insert(false);
            (self.cfg.memory_latency, Level::Memory, crate::addr::LINE_BYTES)
        };
        self.l2.fill(line, kind);
        let ready = now + lat;
        self.inflight_l2.insert(line.line_number(), ready);
        Some(AccessResult {
            ready_at: ready,
            served_by,
            bytes_from_memory: bytes,
            hit_prefetched: false,
        })
    }

    /// Free L2 prefetch MSHR slots at `now` (replay engines use this as
    /// memory-bandwidth backpressure: bulk restoration cannot outrun DRAM).
    pub fn l2_prefetch_capacity(&mut self, now: Cycle) -> usize {
        self.expire_inflight(now);
        self.cfg.l2_mshrs.saturating_sub(self.inflight_l2.len())
    }

    /// Whether the line containing `addr` is L1-I resident (no side effects).
    pub fn probe_l1i(&self, addr: Addr) -> bool {
        self.l1i.probe(addr.line())
    }

    /// Whether the line containing `addr` is L2 resident (no side effects).
    pub fn probe_l2(&self, addr: Addr) -> bool {
        self.l2.probe(addr.line())
    }

    /// Flushes every level (the lukewarm interleaving protocol, §5.3).
    pub fn flush_all(&mut self) {
        self.inflight_l1i.clear();
        self.inflight_l2.clear();
        self.l1i.invalidate_all();
        self.l2.invalidate_all();
        self.llc.invalidate_all();
    }

    /// Returns the hierarchy to its [`Hierarchy::new`] state without
    /// reallocating the caches.
    pub fn reset(&mut self) {
        self.flush_all();
        self.reset_stats();
    }

    /// Resets statistics at all levels (start of a measured invocation).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.mem_fills.clear();
        self.total_memory_read_bytes = 0;
        self.dropped_prefetches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UarchConfig;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&UarchConfig::ice_lake_like().hierarchy)
    }

    #[test]
    fn cold_fetch_goes_to_memory() {
        let mut h = hierarchy();
        let r = h.fetch(Addr::new(0x1000), 0);
        assert_eq!(r.served_by, Level::Memory);
        assert_eq!(r.bytes_from_memory, 64);
        assert!(r.ready_at >= h.config().memory_latency);
    }

    #[test]
    fn second_fetch_hits_l1i() {
        let mut h = hierarchy();
        let first = h.fetch(Addr::new(0x1000), 0);
        let r = h.fetch(Addr::new(0x1000), first.ready_at);
        assert_eq!(r.served_by, Level::L1I);
        assert_eq!(r.ready_at, first.ready_at + h.config().l1i_latency);
    }

    #[test]
    fn l2_resident_line_served_by_l2() {
        let mut h = hierarchy();
        h.prefetch_l2(Addr::new(0x2000), 0, FillKind::Prefetch);
        let r = h.fetch(Addr::new(0x2000), 1000);
        assert_eq!(r.served_by, Level::L2);
        assert_eq!(r.bytes_from_memory, 0);
    }

    #[test]
    fn inflight_merge_carries_no_extra_traffic() {
        let mut h = hierarchy();
        let a = h.fetch(Addr::new(0x3000), 0);
        // Same line, before the fill completes: merged — no new memory
        // traffic, and readiness waits for the original fill.
        let b = h.fetch(Addr::new(0x3010), 1);
        assert_eq!(a.bytes_from_memory, 64);
        assert_eq!(b.bytes_from_memory, 0);
        assert!(b.ready_at >= a.ready_at, "merged fetch cannot complete before the fill");
        assert_eq!(h.memory_read_bytes(), 64);
    }

    #[test]
    fn prefetched_line_not_ready_until_fill_lands() {
        let mut h = hierarchy();
        let p = h.prefetch_l1i(Addr::new(0x6000), 0, FillKind::Prefetch).expect("issued");
        let f = h.fetch(Addr::new(0x6000), 5);
        assert!(f.ready_at >= p.ready_at, "demand fetch waits for in-flight prefetch");
        // Long after the fill: single-cycle hit.
        let f2 = h.fetch(Addr::new(0x6000), p.ready_at + 10);
        assert_eq!(f2.ready_at, p.ready_at + 10 + h.config().l1i_latency);
    }

    #[test]
    fn prefetch_l1i_dedupes_resident_lines() {
        let mut h = hierarchy();
        let done = h.fetch(Addr::new(0x1000), 0).ready_at;
        assert!(h.prefetch_l1i(Addr::new(0x1000), done, FillKind::Prefetch).is_none());
    }

    #[test]
    fn prefetch_mshr_limit_drops() {
        let mut h = hierarchy();
        let mshrs = h.config().l1i_mshrs;
        for i in 0..mshrs {
            let a = Addr::new(0x10_000 + (i as u64) * 64);
            assert!(h.prefetch_l1i(a, 0, FillKind::Prefetch).is_some());
        }
        let overflow = Addr::new(0x90_000);
        assert!(h.prefetch_l1i(overflow, 0, FillKind::Prefetch).is_none());
        assert_eq!(h.dropped_prefetches(), 1);
        // After the fills complete, prefetching works again.
        assert!(h.prefetch_l1i(overflow, 100_000, FillKind::Prefetch).is_some());
    }

    #[test]
    fn prefetch_l2_from_memory_counts_traffic() {
        let mut h = hierarchy();
        let r = h.prefetch_l2(Addr::new(0x5000), 0, FillKind::Restore).expect("issued");
        assert_eq!(r.served_by, Level::Memory);
        assert_eq!(h.memory_read_bytes(), 64);
        // Already resident: dropped.
        assert!(h.prefetch_l2(Addr::new(0x5000), 100_000, FillKind::Restore).is_none());
    }

    #[test]
    fn flush_empties_all_levels() {
        let mut h = hierarchy();
        h.fetch(Addr::new(0x1000), 0);
        assert!(h.l1i().occupancy() > 0);
        assert!(h.l2().occupancy() > 0);
        assert!(h.llc().occupancy() > 0);
        h.flush_all();
        assert_eq!(h.l1i().occupancy() + h.l2().occupancy() + h.llc().occupancy(), 0);
        let r = h.fetch(Addr::new(0x1000), 10_000);
        assert_eq!(r.served_by, Level::Memory);
    }

    #[test]
    fn llc_hit_after_l1_l2_flush_path() {
        let mut h = hierarchy();
        h.fetch(Addr::new(0x1000), 0);
        // Invalidate only upper levels by constructing a fresh path: simulate
        // via a new fetch after manual L1/L2 flush.
        // (The public API flushes all levels; probe the LLC fill instead.)
        assert!(h.llc().probe(Addr::new(0x1000)));
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut h = hierarchy();
        h.fetch(Addr::new(0x1000), 0);
        h.reset_stats();
        assert_eq!(h.l1i().stats().demand.lookups, 0);
        assert_eq!(h.memory_read_bytes(), 0);
    }
}
