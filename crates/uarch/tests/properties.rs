//! Property-based tests for the microarchitectural substrate.

use proptest::prelude::*;

use ignite_uarch::addr::{lines_spanned, Addr, LINE_BYTES, VA_MASK};
use ignite_uarch::bimodal::{Bimodal, BimodalConfig, Counter};
use ignite_uarch::btb::{BranchKind, Btb, BtbConfig, BtbEntry};
use ignite_uarch::cache::{CacheGeometry, FillKind, SetAssocCache};
use ignite_uarch::cbp::Cbp;
use ignite_uarch::config::UarchConfig;
use ignite_uarch::hierarchy::{Hierarchy, Level};
use ignite_uarch::tlb::{Itlb, TlbConfig};

proptest! {
    // ---- addresses ----

    #[test]
    fn addr_masks_to_va_space(raw in any::<u64>()) {
        prop_assert!(Addr::new(raw).as_u64() <= VA_MASK);
    }

    #[test]
    fn addr_delta_roundtrips(a in 0u64..(1 << 47), b in 0u64..(1 << 47)) {
        let (a, b) = (Addr::new(a), Addr::new(b));
        prop_assert_eq!(a.offset(a.delta_to(b)), b);
    }

    #[test]
    fn line_alignment_invariants(raw in any::<u64>()) {
        let a = Addr::new(raw);
        prop_assert_eq!(a.line().as_u64() % LINE_BYTES, 0);
        prop_assert!(a.line() <= a);
        prop_assert!(a.as_u64() - a.line().as_u64() < LINE_BYTES);
    }

    #[test]
    fn lines_spanned_covers_range(start in 0u64..(1 << 30), bytes in 1u64..4096) {
        let lines: Vec<Addr> = lines_spanned(Addr::new(start), bytes).collect();
        // First line contains the start, last line contains the final byte.
        prop_assert_eq!(lines.first().copied(), Some(Addr::new(start).line()));
        prop_assert_eq!(
            lines.last().copied(),
            Some(Addr::new(start + bytes - 1).line())
        );
        // Consecutive and non-overlapping.
        for pair in lines.windows(2) {
            prop_assert_eq!(pair[0].next_line(), pair[1]);
        }
    }

    // ---- caches ----

    #[test]
    fn cache_lookup_after_fill_always_hits(addrs in prop::collection::vec(0u64..(1 << 22), 1..200)) {
        let mut cache = SetAssocCache::new(CacheGeometry {
            size_bytes: 4 * 1024,
            ways: 4,
            line_bytes: 64,
        });
        for &raw in &addrs {
            let a = Addr::new(raw);
            cache.fill(a, FillKind::Demand);
            // A line just filled must be resident (fills never self-evict).
            prop_assert!(cache.lookup(a), "lost line just filled: {a}");
        }
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(addrs in prop::collection::vec(0u64..(1 << 24), 1..300)) {
        let geometry = CacheGeometry { size_bytes: 2 * 1024, ways: 2, line_bytes: 64 };
        let mut cache = SetAssocCache::new(geometry);
        for &raw in &addrs {
            cache.fill(Addr::new(raw), FillKind::Prefetch);
            prop_assert!(cache.occupancy() <= geometry.lines());
        }
    }

    #[test]
    fn cache_stats_balance(ops in prop::collection::vec((0u64..(1 << 16), any::<bool>()), 1..300)) {
        let mut cache = SetAssocCache::new(CacheGeometry {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        });
        for &(raw, fill) in &ops {
            let a = Addr::new(raw);
            if fill {
                cache.fill(a, FillKind::Demand);
            } else {
                cache.lookup(a);
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.demand.hits + s.demand.misses, s.demand.lookups);
    }

    // ---- hierarchy ----

    #[test]
    fn hierarchy_ready_times_never_precede_request(
        addrs in prop::collection::vec(0u64..(1 << 20), 1..100)
    ) {
        let mut h = Hierarchy::new(&UarchConfig::tiny_for_tests().hierarchy);
        let mut now = 0;
        for &raw in &addrs {
            let r = h.fetch(Addr::new(raw), now);
            prop_assert!(r.ready_at > now, "zero-latency fetch");
            now = r.ready_at;
        }
    }

    #[test]
    fn hierarchy_second_fetch_is_faster(raw in 0u64..(1 << 20)) {
        let mut h = Hierarchy::new(&UarchConfig::tiny_for_tests().hierarchy);
        let a = Addr::new(raw);
        let first = h.fetch(a, 0);
        let second = h.fetch(a, first.ready_at);
        prop_assert_eq!(second.served_by, Level::L1I);
        prop_assert!(second.ready_at - first.ready_at <= first.ready_at);
    }

    #[test]
    fn memory_traffic_is_line_granular(addrs in prop::collection::vec(0u64..(1 << 22), 1..100)) {
        let mut h = Hierarchy::new(&UarchConfig::tiny_for_tests().hierarchy);
        for &raw in &addrs {
            h.fetch(Addr::new(raw), 0);
        }
        prop_assert_eq!(h.memory_read_bytes() % LINE_BYTES, 0);
        prop_assert!(h.untouched_fill_bytes() <= h.memory_read_bytes());
    }

    // ---- BTB ----

    #[test]
    fn btb_lookup_after_insert_hits(pcs in prop::collection::vec(0u64..(1 << 16), 1..100)) {
        let mut btb = Btb::new(&BtbConfig { entries: 256, ways: 4 });
        for &raw in &pcs {
            let pc = Addr::new(raw);
            btb.insert(BtbEntry::new(pc, pc + 16, BranchKind::Conditional), false);
            prop_assert!(btb.lookup(pc).is_some());
        }
    }

    #[test]
    fn btb_occupancy_bounded(pcs in prop::collection::vec(0u64..(1 << 20), 1..400)) {
        let mut btb = Btb::new(&BtbConfig { entries: 64, ways: 4 });
        for &raw in &pcs {
            let pc = Addr::new(raw);
            btb.insert(BtbEntry::new(pc, pc + 16, BranchKind::Call), false);
        }
        prop_assert!(btb.occupancy() <= 64);
    }

    #[test]
    fn btb_restored_counter_never_negative_or_leaking(
        ops in prop::collection::vec((0u64..256, 0u8..3), 1..300)
    ) {
        let mut btb = Btb::new(&BtbConfig { entries: 32, ways: 2 });
        for &(raw, op) in &ops {
            let pc = Addr::new(raw << 2);
            match op {
                0 => {
                    btb.insert(BtbEntry::new(pc, pc + 8, BranchKind::Conditional), true);
                }
                1 => {
                    btb.insert(BtbEntry::new(pc, pc + 8, BranchKind::Conditional), false);
                }
                _ => {
                    btb.lookup(pc);
                }
            }
            // The untouched-restored counter can never exceed the number of
            // valid entries.
            prop_assert!(btb.restored_untouched() <= btb.occupancy() as u64);
        }
        btb.flush();
        prop_assert_eq!(btb.restored_untouched(), 0);
    }

    #[test]
    fn cache_unused_restored_counter_matches_a_shadow_model(
        ops in prop::collection::vec((0u64..24 * 64, 0u8..10), 1..400)
    ) {
        // 2 sets x 2 ways: 24 distinct lines keep every set evicting.
        let mut cache =
            SetAssocCache::new(CacheGeometry { size_bytes: 256, ways: 2, line_bytes: 64 });
        // Lines a restore fill installed that no demand access has used yet.
        let mut shadow = std::collections::BTreeSet::new();
        for &(raw, op) in &ops {
            let addr = Addr::new(raw);
            let line = addr.line().as_u64();
            let resident = cache.probe(addr);
            match op {
                0..=6 => {
                    let kind = match op {
                        0 | 1 => FillKind::Demand,
                        2 | 3 => FillKind::Prefetch,
                        _ => FillKind::Restore,
                    };
                    if let Some(evicted) = cache.fill(addr, kind) {
                        shadow.remove(&evicted.addr.as_u64());
                    }
                    // Refilling a resident line changes only what a demand
                    // fill marks: the line counts as used.
                    if resident && kind == FillKind::Demand {
                        shadow.remove(&line);
                    } else if !resident && kind == FillKind::Restore {
                        shadow.insert(line);
                    }
                }
                7 | 8 => {
                    if cache.lookup(addr) {
                        shadow.remove(&line);
                    }
                }
                _ => {
                    let report = cache.invalidate_all();
                    prop_assert_eq!(report.unused_restored, shadow.len() as u64);
                    shadow.clear();
                }
            }
            prop_assert_eq!(cache.unused_restored_resident(), shadow.len() as u64);
        }
    }

    // ---- bimodal ----

    #[test]
    fn bimodal_counter_transitions_are_saturating(v in 0u8..4, outcomes in prop::collection::vec(any::<bool>(), 0..64)) {
        let mut c = Counter::from_value(v);
        for &taken in &outcomes {
            c = c.update(taken);
            prop_assert!(c.value() <= 3);
        }
    }

    #[test]
    fn bimodal_converges_to_constant_direction(pc in 0u64..(1 << 20), dir in any::<bool>()) {
        let mut bim = Bimodal::new(&BimodalConfig { size_bytes: 512 });
        let a = Addr::new(pc);
        for _ in 0..4 {
            bim.update(a, dir);
        }
        prop_assert_eq!(bim.predict(a), dir);
    }

    // ---- CBP ----

    #[test]
    fn cbp_initial_plus_subsequent_equals_total(
        branches in prop::collection::vec((0u64..64, any::<bool>()), 1..200)
    ) {
        let mut cbp = Cbp::new(&UarchConfig::tiny_for_tests().cbp);
        cbp.begin_invocation();
        for &(raw, taken) in &branches {
            let pc = Addr::new(0x1000 + raw * 4);
            let p = cbp.predict(pc);
            cbp.resolve(pc, taken, Addr::new(0x9000), &p);
        }
        let s = cbp.stats();
        prop_assert_eq!(
            s.initial_mispredictions + s.subsequent_mispredictions,
            s.mispredictions
        );
        prop_assert!(s.mispredictions <= s.predictions);
    }

    // ---- ITLB ----

    #[test]
    fn itlb_same_page_never_walks_twice_in_a_row(addr in 0u64..(1 << 30)) {
        let mut tlb = Itlb::new(&TlbConfig { entries: 16, ways: 4, walk_latency: 50 });
        let a = Addr::new(addr);
        tlb.translate(a);
        prop_assert_eq!(tlb.translate(a), 0);
    }
}
