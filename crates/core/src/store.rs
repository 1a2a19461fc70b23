//! A bounded, node-wide Ignite metadata store.
//!
//! The paper sizes one metadata region per container (120 KiB, §5.3) and
//! notes that regions live in ordinary DRAM managed by the OS. On a real
//! worker serving thousands of containers the *aggregate* footprint is what
//! matters: the host caps how much DRAM it donates to Ignite and evicts
//! regions of functions that have gone quiet. [`MetadataStore`] models that
//! cap — a capacity in bytes, evicting the least recently used region that
//! keep-alive has not pinned — and accounts every byte moved in or out so
//! the cluster simulator can charge record/replay DRAM bandwidth and report
//! hit rates and footprint.
//!
//! All bookkeeping uses `BTreeMap` (deterministic iteration order): victim
//! selection must be bit-reproducible across processes.

use std::collections::BTreeMap;

use crate::codec::Metadata;

/// Store sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Total bytes the store may hold (0 disables storage entirely).
    pub capacity_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        // Room for a few dozen reduced-scale regions: bounded, but not
        // starved, matching the paper's "tens of KiB per function" regime.
        StoreConfig { capacity_bytes: 256 * 1024 }
    }
}

/// Lifetime counters (all monotonically increasing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Fetches that found a region.
    pub hits: u64,
    /// Fetches that found nothing (cold or evicted).
    pub misses: u64,
    /// Regions written (fresh recordings and double-buffer merges).
    pub insertions: u64,
    /// Regions evicted to make room.
    pub evictions: u64,
    /// Regions rejected outright (larger than the whole store).
    pub rejected: u64,
    /// Bytes streamed out of the store on fetch (replay-side DRAM reads).
    pub bytes_read: u64,
    /// Bytes streamed into the store on insert (record-side DRAM writes).
    pub bytes_written: u64,
    /// Bytes discarded by eviction.
    pub bytes_evicted: u64,
}

impl StoreStats {
    /// Fraction of fetches that hit, 0.0 when nothing was fetched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    md: Metadata,
    last_used: u64,
}

/// What one [`MetadataStore::insert`] did, for observability: the
/// cluster layer turns evictions/rejections into timeline events
/// without this crate depending on the sink machinery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Regions evicted to make room, as `(container, bytes)` in
    /// eviction order. Empty in the common case (no allocation).
    pub evicted: Vec<(u64, usize)>,
    /// The region was larger than the whole store and was dropped.
    pub rejected: bool,
}

/// The bounded store: container id → region, with capacity enforcement.
#[derive(Debug, Clone)]
pub struct MetadataStore {
    cfg: StoreConfig,
    entries: BTreeMap<u64, Entry>,
    /// Logical clock advanced on every fetch/insert (recency order).
    clock: u64,
    total_bytes: usize,
    peak_bytes: usize,
    stats: StoreStats,
}

impl MetadataStore {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        MetadataStore {
            cfg,
            entries: BTreeMap::new(),
            clock: 0,
            total_bytes: 0,
            peak_bytes: 0,
            stats: StoreStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Bytes currently resident.
    pub fn footprint_bytes(&self) -> usize {
        self.total_bytes
    }

    /// High-water mark of [`MetadataStore::footprint_bytes`].
    pub fn peak_footprint_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of resident regions.
    pub fn regions(&self) -> usize {
        self.entries.len()
    }

    /// Whether `container` is resident — without counting a hit or a
    /// miss, and without touching recency. The cluster scheduler's
    /// affinity probe uses this so that *routing* decisions never
    /// perturb the store's observable statistics.
    pub fn contains(&self, container: u64) -> bool {
        self.entries.contains_key(&container)
    }

    /// Fetches `container`'s region for replay, counting a hit or miss and
    /// charging the read bandwidth.
    pub fn fetch(&mut self, container: u64) -> Option<&Metadata> {
        self.clock += 1;
        match self.entries.get_mut(&container) {
            Some(e) => {
                e.last_used = self.clock;
                self.stats.hits += 1;
                self.stats.bytes_read += e.md.byte_len() as u64;
                Some(&e.md)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Drops `container`'s region outright (detected corruption or loss:
    /// a region known bad must not be served again). Returns the freed
    /// byte count. Deliberately does not touch [`StoreStats`] — the
    /// caller accounts the drop under its own failure taxonomy, and the
    /// store's hit/eviction counters keep their chaos-free meaning.
    pub fn remove(&mut self, container: u64) -> Option<usize> {
        let e = self.entries.remove(&container)?;
        let len = e.md.byte_len();
        self.total_bytes -= len;
        Some(len)
    }

    /// Inserts (or replaces) `container`'s region, evicting the least
    /// recently used regions until it fits. A region larger than the whole
    /// store is rejected — evicting everything for an entry that cannot
    /// help anyone else would be strictly worse than dropping it.
    pub fn insert(&mut self, container: u64, md: Metadata) -> InsertOutcome {
        self.insert_protected(container, md, &|_| false)
    }

    /// [`MetadataStore::insert`] with keep-alive protection: containers
    /// for which `keep` holds are passed over during victim selection
    /// and evicted only if nothing unprotected remains, so capacity is
    /// always honored. With a `keep` that never holds this is the plain
    /// insert, branch for branch.
    pub fn insert_protected(
        &mut self,
        container: u64,
        md: Metadata,
        keep: &dyn Fn(u64) -> bool,
    ) -> InsertOutcome {
        let mut outcome = InsertOutcome::default();
        if md.is_empty() {
            return outcome;
        }
        let len = md.byte_len();
        // Reject before touching resident state: an oversized replacement
        // must not tear down the region it failed to replace (and must
        // not disturb the footprint accounting while doing so).
        if len > self.cfg.capacity_bytes {
            self.stats.rejected += 1;
            outcome.rejected = true;
            return outcome;
        }
        if let Some(old) = self.entries.remove(&container) {
            self.total_bytes -= old.md.byte_len();
        }
        while self.total_bytes + len > self.cfg.capacity_bytes {
            let victim = self.pick_victim(keep).expect("non-empty store while over capacity");
            let e = self.entries.remove(&victim).expect("victim resident");
            self.total_bytes -= e.md.byte_len();
            self.stats.evictions += 1;
            self.stats.bytes_evicted += e.md.byte_len() as u64;
            outcome.evicted.push((victim, e.md.byte_len()));
        }
        self.clock += 1;
        self.stats.insertions += 1;
        self.stats.bytes_written += len as u64;
        self.total_bytes += len;
        // Peak is sampled *after* the insert lands so overwrite-with-larger
        // is captured at its true high-water mark.
        self.peak_bytes = self.peak_bytes.max(self.total_bytes);
        self.entries.insert(container, Entry { md, last_used: self.clock });
        outcome
    }

    /// The container to evict next: the least recently used unkept
    /// region, falling back to the least recently used one when
    /// keep-alive has pinned everything resident. Every fetch and insert
    /// stamps a fresh clock tick, so no two regions tie on recency.
    fn pick_victim(&self, keep: &dyn Fn(u64) -> bool) -> Option<u64> {
        let lru = |allowed: &dyn Fn(u64) -> bool| {
            let it = self.entries.iter().filter(|(c, _)| allowed(**c));
            it.min_by_key(|(_, e)| e.last_used).map(|(c, _)| *c)
        };
        lru(&|c| !keep(c)).or_else(|| lru(&|_| true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecConfig, Encoder};
    use ignite_uarch::addr::Addr;
    use ignite_uarch::btb::{BranchKind, BtbEntry};

    /// A region of roughly `entries` records (size grows with `entries`).
    fn region(entries: u64) -> Metadata {
        let mut enc = Encoder::new(CodecConfig::default());
        for i in 0..entries {
            enc.push(&BtbEntry::new(
                Addr::new(0x1000 + i * 64),
                Addr::new(0x1000 + i * 64 + 16),
                BranchKind::Conditional,
            ));
        }
        enc.finish()
    }

    fn store(capacity: usize) -> MetadataStore {
        MetadataStore::new(StoreConfig { capacity_bytes: capacity })
    }

    #[test]
    fn fetch_miss_then_hit() {
        let mut s = store(4096);
        assert!(s.fetch(1).is_none());
        s.insert(1, region(10));
        assert!(s.fetch(1).is_some());
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
        assert!(s.stats().bytes_read > 0);
        assert!((s.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let one = region(10).byte_len();
        let mut s = store(one * 3 + 2);
        for c in 0..3 {
            s.insert(c, region(10));
        }
        s.fetch(0); // 1 is now LRU
        s.insert(3, region(10));
        assert!(s.fetch(1).is_none(), "LRU region evicted");
        assert!(s.fetch(0).is_some());
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn oversized_region_rejected_without_eviction() {
        let mut s = store(region(10).byte_len());
        s.insert(0, region(10));
        s.insert(1, region(500));
        assert_eq!(s.stats().rejected, 1);
        assert!(s.fetch(0).is_some(), "resident regions survive a rejected insert");
    }

    #[test]
    fn footprint_tracks_bytes() {
        let mut s = store(1 << 20);
        s.insert(0, region(10));
        let after_one = s.footprint_bytes();
        s.insert(1, region(20));
        assert!(s.footprint_bytes() > after_one);
        assert_eq!(s.peak_footprint_bytes(), s.footprint_bytes());
        s.insert(0, region(2)); // replacement shrinks the footprint
        assert!(s.footprint_bytes() < s.peak_footprint_bytes());
        assert_eq!(s.regions(), 2);
    }

    #[test]
    fn oversized_replacement_preserves_resident_region() {
        // Regression: `insert` used to remove the resident entry (and
        // debit its bytes) before the oversized-rejection check, so a
        // too-big replacement silently destroyed the region it failed
        // to replace.
        let mut s = store(region(10).byte_len());
        s.insert(0, region(10));
        let footprint = s.footprint_bytes();
        let outcome = s.insert(0, region(500));
        assert!(outcome.rejected);
        assert_eq!(s.stats().rejected, 1);
        assert!(s.fetch(0).is_some(), "resident region must survive a rejected replacement");
        assert_eq!(s.footprint_bytes(), footprint, "rejected insert must not move accounting");
        assert_eq!(s.regions(), 1);
    }

    #[test]
    fn overwrite_grow_samples_peak_after_insert() {
        let mut s = store(1 << 20);
        s.insert(0, region(10));
        s.insert(1, region(10));
        let before = s.footprint_bytes();
        s.insert(0, region(40)); // overwrite with a larger blob
        let after = s.footprint_bytes();
        assert!(after > before);
        assert_eq!(
            s.peak_footprint_bytes(),
            after,
            "peak must include the grown replacement, not the pre-insert footprint"
        );
    }

    #[test]
    fn overwrite_shrink_keeps_prior_peak() {
        let mut s = store(1 << 20);
        s.insert(0, region(40));
        s.insert(1, region(10));
        let high_water = s.footprint_bytes();
        s.insert(0, region(2)); // overwrite with a smaller blob
        assert!(s.footprint_bytes() < high_water);
        assert_eq!(s.peak_footprint_bytes(), high_water, "peak is a high-water mark");
    }

    #[test]
    fn evict_then_reinsert_keeps_peak_monotone() {
        let one = region(10).byte_len();
        let mut s = store(one * 2 + 2);
        s.insert(0, region(10));
        s.insert(1, region(10));
        let full = s.footprint_bytes();
        let outcome = s.insert(2, region(10)); // evicts 0
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(outcome.evicted[0].0, 0);
        let peak_after_evict = s.peak_footprint_bytes();
        s.insert(0, region(10)); // evicts again; footprint never exceeded `full`
        assert!(s.peak_footprint_bytes() >= s.footprint_bytes());
        assert_eq!(s.peak_footprint_bytes(), peak_after_evict);
        assert_eq!(s.peak_footprint_bytes(), full.max(s.footprint_bytes()));
    }

    #[test]
    fn contains_probe_is_invisible_to_stats_and_recency() {
        let one = region(10).byte_len();
        let mut s = store(one * 2 + 2);
        s.insert(0, region(10));
        s.insert(1, region(10));
        assert!(s.contains(0) && s.contains(1) && !s.contains(2));
        assert_eq!(s.stats().hits + s.stats().misses, 0, "probing must not count");
        // Probing 0 did not refresh it: it is still the LRU victim.
        s.insert(2, region(10));
        assert!(!s.contains(0), "probe must not touch recency");
    }

    #[test]
    fn insert_protected_skips_kept_regions_until_forced() {
        let one = region(10).byte_len();
        let mut s = store(one * 2 + 2);
        s.insert(0, region(10));
        s.insert(1, region(10));
        // 0 is the LRU victim, but keep-alive protects it: 1 goes instead.
        let out = s.insert_protected(2, region(10), &|c| c == 0);
        assert_eq!(out.evicted, vec![(1, one)]);
        assert!(s.contains(0));
        // Everything resident protected: capacity still wins (last resort,
        // LRU order among the kept).
        let out = s.insert_protected(3, region(10), &|_| true);
        assert_eq!(out.evicted.len(), 1);
        assert!(s.footprint_bytes() <= s.config().capacity_bytes);
    }

    #[test]
    fn insert_protected_with_never_keep_is_plain_insert() {
        let one = region(10).byte_len();
        let mut a = store(one * 2 + 2);
        let mut b = store(one * 2 + 2);
        for c in 0..5u64 {
            let oa = a.insert(c, region(10));
            let ob = b.insert_protected(c, region(10), &|_| false);
            assert_eq!(oa, ob);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.footprint_bytes(), b.footprint_bytes());
    }

    mod adversarial {
        //! Property tests over adversarial fetch/insert/remove
        //! interleavings (the chaos layer removes regions out from under
        //! the simulator, so `remove` composes with everything). A
        //! reference model keeps the resident regions in recency order and
        //! picks each insert's victims itself: the least recently used
        //! region the insert's keep set spares, else the least recently
        //! used one. Every insert draws its own keep set, standing in for
        //! the keep-alive pins of the moment.

        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Fetch(u64),
            /// Insert a region of `n` entries for `c`, keeping the
            /// containers whose bits are set in the mask.
            Insert(u64, u64, u8),
            Remove(u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..6).prop_map(Op::Fetch),
                ((0u64..6), (1u64..40), any::<u8>()).prop_map(|(c, n, k)| Op::Insert(c, n, k)),
                (0u64..6).prop_map(Op::Remove),
            ]
        }

        fn check(ops: Vec<Op>) {
            let capacity = region(12).byte_len() * 3;
            let mut s = store(capacity);
            // (container, byte_len), least recently used first.
            let mut model: Vec<(u64, usize)> = Vec::new();
            let position = |model: &[(u64, usize)], c: u64| model.iter().position(|&(k, _)| k == c);
            for op in ops {
                match op {
                    Op::Fetch(c) => {
                        let got = s.fetch(c).map(Metadata::byte_len);
                        let want = position(&model, c).map(|i| model.remove(i));
                        assert_eq!(got, want.map(|(_, len)| len), "fetch {c}");
                        model.extend(want);
                    }
                    Op::Remove(c) => {
                        let want = position(&model, c).map(|i| model.remove(i).1);
                        assert_eq!(s.remove(c), want, "remove {c}");
                    }
                    Op::Insert(c, n, mask) => {
                        let keep = |k: u64| mask & (1 << k) != 0;
                        let md = region(n);
                        let len = md.byte_len();
                        let out = s.insert_protected(c, md, &keep);
                        if len > capacity {
                            assert!(out.rejected && out.evicted.is_empty(), "{out:?}");
                            continue;
                        }
                        assert!(!out.rejected, "fitting region rejected");
                        if let Some(i) = position(&model, c) {
                            model.remove(i);
                        }
                        let mut victims = Vec::new();
                        while model.iter().map(|&(_, l)| l).sum::<usize>() + len > capacity {
                            let i = model.iter().position(|&(k, _)| !keep(k)).unwrap_or(0);
                            victims.push(model.remove(i));
                        }
                        assert_eq!(
                            out.evicted, victims,
                            "victims of inserting {c} (keep {mask:#b})"
                        );
                        model.push((c, len));
                    }
                }
                assert!(
                    s.footprint_bytes() <= capacity,
                    "footprint {} over capacity {capacity}",
                    s.footprint_bytes()
                );
                let expected: usize = model.iter().map(|&(_, len)| len).sum();
                assert_eq!(s.footprint_bytes(), expected, "footprint drifted from the model");
                assert_eq!(s.regions(), model.len(), "region count drifted from the model");
                assert!(s.peak_footprint_bytes() >= s.footprint_bytes());
            }
        }

        proptest! {
            #[test]
            fn lru_accounting_survives_interleavings(
                ops in proptest::collection::vec(op(), 1..80),
            ) {
                check(ops);
            }
        }
    }
}
