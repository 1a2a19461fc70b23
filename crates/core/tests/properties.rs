//! Property-based tests for Ignite's metadata codec and record/replay.
//!
//! The codec is the heart of the contribution: any encode/decode mismatch
//! silently corrupts restored front-end state, so the roundtrip property is
//! tested over arbitrary branch streams and delta-width configurations.

use std::collections::HashMap;

use proptest::prelude::*;

use ignite_core::codec::{CodecConfig, Encoder, Metadata};
use ignite_core::os::{IgniteOs, MergeScratch};
use ignite_core::record::Recorder;
use ignite_core::replay::{ReplayConfig, Replayer};
use ignite_core::{Ignite, IgniteConfig};
use ignite_uarch::addr::Addr;
use ignite_uarch::btb::{BranchKind, Btb, BtbEntry};
use ignite_uarch::cbp::Cbp;
use ignite_uarch::config::UarchConfig;
use ignite_uarch::hierarchy::Hierarchy;
use ignite_uarch::tlb::Itlb;

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::Conditional),
        Just(BranchKind::Unconditional),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::Indirect),
    ]
}

/// Arbitrary entries, from tightly clustered (delta-friendly) to scattered
/// across the full 48-bit space (forcing full-format fallbacks).
fn arb_entries() -> impl Strategy<Value = Vec<BtbEntry>> {
    prop::collection::vec(
        (0u64..(1 << 47), 0u64..(1 << 47), arb_kind())
            .prop_map(|(pc, t, k)| BtbEntry::new(Addr::new(pc), Addr::new(t), k)),
        0..64,
    )
}

/// Entries shaped like a real control-flow chain: each branch sits shortly
/// after the previous branch's target (the structure Ignite's recorder
/// sees, and what the delta format is designed around).
fn arb_chain() -> impl Strategy<Value = Vec<BtbEntry>> {
    (0u64..(1 << 40), prop::collection::vec((1u64..64, 4u64..2048, arb_kind()), 1..128)).prop_map(
        |(base, steps)| {
            let mut cursor = base;
            steps
                .into_iter()
                .map(|(gap, span, kind)| {
                    let pc = cursor.wrapping_add(gap) & ((1 << 47) - 1);
                    let target = pc.wrapping_add(span) & ((1 << 47) - 1);
                    cursor = target;
                    BtbEntry::new(Addr::new(pc), Addr::new(target), kind)
                })
                .collect()
        },
    )
}

fn arb_widths() -> impl Strategy<Value = CodecConfig> {
    (4u32..32, 4u32..32).prop_map(|(s, t)| CodecConfig { src_delta_bits: s, tgt_delta_bits: t })
}

/// Records whose branch PCs come from a pool of 24, so PCs repeat within
/// a stream and across two streams.
fn arb_pooled_stream() -> impl Strategy<Value = Vec<BtbEntry>> {
    prop::collection::vec((0u64..24, 0u64..4096, arb_kind()), 0..48).prop_map(|records| {
        records
            .into_iter()
            .map(|(pc, target, kind)| {
                BtbEntry::new(
                    Addr::new(0x40_0000 + pc * 52),
                    Addr::new(0x40_0000 + target * 4),
                    kind,
                )
            })
            .collect()
    })
}

fn encode(cfg: CodecConfig, entries: &[BtbEntry]) -> Metadata {
    let mut enc = Encoder::new(cfg);
    for e in entries {
        enc.push(e);
    }
    enc.finish()
}

/// The double-buffer merge as it was first written, with fresh buffers
/// and a map of whole records, kept as the reference for
/// [`IgniteOs::function_finished_merge`]: each branch PC at its first
/// position with its latest record, re-encoded until the region budget
/// is crossed.
fn reference_merge(
    old: &Metadata,
    recorded: &Metadata,
    codec: CodecConfig,
    region_bytes: usize,
) -> Metadata {
    let entries: Vec<BtbEntry> = old.decode().chain(recorded.decode()).collect();
    let mut latest: HashMap<u64, BtbEntry> =
        entries.iter().map(|e| (e.branch_pc.as_u64(), *e)).collect();
    let mut enc = Encoder::new(codec);
    for e in &entries {
        let Some(entry) = latest.remove(&e.branch_pc.as_u64()) else { continue };
        enc.push(&entry);
        if enc.byte_len() > region_bytes {
            break;
        }
    }
    enc.finish()
}

proptest! {
    #[test]
    fn codec_roundtrip_arbitrary_entries(entries in arb_entries(), cfg in arb_widths()) {
        let mut enc = Encoder::new(cfg);
        for e in &entries {
            enc.push(e);
        }
        let md = enc.finish();
        let decoded: Vec<BtbEntry> = md.decode().collect();
        prop_assert_eq!(decoded, entries);
    }

    #[test]
    fn codec_roundtrip_chains(entries in arb_chain(), cfg in arb_widths()) {
        let mut enc = Encoder::new(cfg);
        for e in &entries {
            enc.push(e);
        }
        let md = enc.finish();
        let decoded: Vec<BtbEntry> = md.decode().collect();
        prop_assert_eq!(decoded, entries);
    }

    #[test]
    fn compressed_size_never_exceeds_full_format(entries in arb_chain()) {
        let cfg = CodecConfig::default();
        let mut enc = Encoder::new(cfg);
        for e in &entries {
            enc.push(e);
        }
        let bits = enc.byte_len() * 8;
        let full_bits = entries.len() * cfg.full_bits() as usize;
        prop_assert!(bits <= full_bits + 8, "{bits} bits vs full {full_bits}");
    }

    #[test]
    fn chains_compress_well(entries in arb_chain()) {
        prop_assume!(entries.len() >= 16);
        let mut enc = Encoder::new(CodecConfig::default());
        for e in &entries {
            enc.push(e);
        }
        let bits_per_entry = enc.byte_len() * 8 / entries.len();
        // Local chains should compress far below the 100-bit full format.
        prop_assert!(bits_per_entry < 64, "{bits_per_entry} bits/entry");
    }

    #[test]
    fn recorder_budget_is_respected(entries in arb_chain(), budget in 8usize..512) {
        let mut rec = Recorder::new(CodecConfig::default(), budget);
        for e in &entries {
            rec.observe(e);
        }
        // The budget may be exceeded by at most one record (the one that
        // crossed the boundary).
        let md = rec.finish();
        prop_assert!(md.byte_len() <= budget + 13, "{} vs budget {budget}", md.byte_len());
    }

    #[test]
    fn replay_restores_exactly_the_recorded_branches(entries in arb_chain()) {
        // Deduplicate by PC the way a BTB would (later records update).
        let cfg = UarchConfig::ice_lake_like();
        let mut enc = Encoder::new(CodecConfig::default());
        for e in &entries {
            enc.push(e);
        }
        let md = enc.finish();
        let mut btb = Btb::new(&cfg.btb);
        let mut cbp = Cbp::new(&cfg.cbp);
        let mut itlb = Itlb::new(&cfg.itlb);
        let mut h = Hierarchy::new(&cfg.hierarchy);
        let mut replay = Replayer::new(&md, ReplayConfig {
            throttle_threshold: u64::MAX, // no throttling for this property
            ..ReplayConfig::default()
        });
        let mut now = 0;
        while !replay.is_done() {
            replay.step(now, &mut btb, &mut cbp, &mut itlb, &mut h);
            now += 1;
        }
        for e in &entries {
            let restored = btb.probe(e.branch_pc);
            prop_assert!(restored.is_some(), "missing {:?}", e.branch_pc);
        }
    }

    #[test]
    fn full_ignite_cycle_preserves_unique_pcs(entries in arb_chain()) {
        let cfg = UarchConfig::ice_lake_like();
        let mut btb = Btb::new(&cfg.btb);
        let mut cbp = Cbp::new(&cfg.cbp);
        let mut itlb = Itlb::new(&cfg.itlb);
        let mut h = Hierarchy::new(&cfg.hierarchy);
        let mut ignite = Ignite::new(IgniteConfig::default());

        ignite.begin_invocation(1);
        for e in &entries {
            btb.insert(*e, false);
        }
        ignite.observe_btb_insertions(&mut btb);
        let s = ignite.end_invocation(1);
        let unique: std::collections::HashSet<_> =
            entries.iter().map(|e| e.branch_pc).collect();
        // One record per *allocation*: duplicates update in place.
        prop_assert_eq!(s.entries_recorded as usize, unique.len());

        btb.flush();
        ignite.begin_invocation(1);
        let mut now = 0;
        while ignite.replay_pending() {
            ignite.step(now, &mut btb, &mut cbp, &mut itlb, &mut h);
            now += 1;
            // Consume restored entries so throttling cannot stall forever.
            for e in &entries {
                btb.lookup(e.branch_pc);
            }
        }
        for pc in &unique {
            prop_assert!(btb.probe(*pc).is_some());
        }
    }

    /// The fallible decoder agrees with the infallible one on every
    /// well-formed stream: `decode_checked(encode(x)) == x`, with no error
    /// in any position.
    /// One `MergeScratch` serving a sequence of merges (random old and
    /// new streams with repeated PCs, budgets that often truncate)
    /// leaves each merged region byte-identical to the reference merge.
    #[test]
    fn merges_in_a_reused_scratch_match_the_reference(
        merges in prop::collection::vec(
            (arb_pooled_stream(), arb_pooled_stream(), 4usize..256),
            1..6,
        ),
        cfg in arb_widths(),
    ) {
        let mut scratch = MergeScratch::default();
        for (old, recorded, region_bytes) in merges {
            let (old, recorded) = (encode(cfg, &old), encode(cfg, &recorded));
            let expected = if recorded.is_empty() {
                Some(old.clone())
            } else if old.is_empty() {
                Some(recorded.clone())
            } else {
                Some(reference_merge(&old, &recorded, cfg, region_bytes))
            }
            .filter(|md| !md.is_empty());
            let mut os = IgniteOs::new(region_bytes);
            os.install(1, old);
            os.function_finished_merge(1, recorded, cfg, &mut scratch);
            prop_assert_eq!(
                os.metadata(1).map(Metadata::to_bytes),
                expected.as_ref().map(Metadata::to_bytes)
            );
        }
    }

    #[test]
    fn decode_checked_roundtrip_arbitrary_entries(
        entries in arb_entries(),
        cfg in arb_widths(),
    ) {
        let mut enc = Encoder::new(cfg);
        for e in &entries {
            enc.push(e);
        }
        let md = enc.finish();
        let decoded: Result<Vec<BtbEntry>, _> = md.decode_checked().collect();
        match decoded {
            Ok(decoded) => prop_assert_eq!(decoded, entries),
            Err(e) => prop_assert!(false, "well-formed stream failed to decode: {e}"),
        }
    }

    /// Same roundtrip property over recorder-shaped chains, where the
    /// delta fast path (rather than the full-format fallback) dominates.
    #[test]
    fn decode_checked_roundtrip_chains(entries in arb_chain(), cfg in arb_widths()) {
        let mut enc = Encoder::new(cfg);
        for e in &entries {
            enc.push(e);
        }
        let md = enc.finish();
        let decoded: Result<Vec<BtbEntry>, _> = md.decode_checked().collect();
        match decoded {
            Ok(decoded) => prop_assert_eq!(decoded, entries),
            Err(e) => prop_assert!(false, "well-formed stream failed to decode: {e}"),
        }
    }

    /// Every mutated image either round-trips to exactly the original
    /// entries (possible: an even number of flips on the same bit is a
    /// no-op) or yields a typed `CodecError` somewhere in the pipeline
    /// (structural parse, checksum validation, or mid-stream decode) —
    /// never a panic, never silently different entries.
    #[test]
    fn mutated_image_roundtrips_or_yields_codec_error(
        entries in arb_chain(),
        flips in prop::collection::vec((any::<usize>(), 0u32..8), 1..16),
    ) {
        let mut enc = Encoder::new(CodecConfig::default());
        for e in &entries {
            enc.push(e);
        }
        let mut bytes = enc.finish().to_bytes();
        for (pos, bit) in flips {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        // Err at any stage is the detected-corruption arm; full success
        // must mean the mutation was a no-op and the stream round-trips.
        if let Ok(md) = Metadata::from_bytes(&bytes) {
            if md.validate().is_ok() {
                let decoded: Result<Vec<BtbEntry>, _> = md.decode_checked().collect();
                if let Ok(decoded) = decoded {
                    prop_assert_eq!(
                        decoded,
                        entries,
                        "undetected corruption changed the decoded entries"
                    );
                }
            }
        }
    }

    /// Hardened decode, property 1: completely arbitrary byte soup never
    /// panics, and whatever parses never yields more entries than its
    /// header claims. Half the cases are stamped with a plausible header
    /// (magic, version, default widths) so the fuzz reaches the payload
    /// decoder rather than dying at the magic check.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        mut bytes in prop::collection::vec(any::<u8>(), 0..512),
        stamp_header in any::<bool>(),
    ) {
        if stamp_header && bytes.len() >= 8 {
            bytes[..4].copy_from_slice(b"IGNT");
            bytes[4] = 1; // version
            bytes[5] = 9; // src_delta_bits
            bytes[6] = 21; // tgt_delta_bits
        }
        if let Ok(md) = Metadata::from_bytes(&bytes) {
            let claimed = md.entries();
            prop_assert!(md.decode().count() <= claimed);
            let _ = md.validate();
            let mut yielded = 0usize;
            for r in md.decode_checked() {
                match r {
                    Ok(_) => yielded += 1,
                    Err(_) => break,
                }
            }
            prop_assert!(yielded <= claimed);
        }
    }

    /// Hardened decode, property 2: a valid image with a handful of bits
    /// flipped either fails structural parsing, fails validation, or
    /// decodes to at most the claimed entry count — never a panic, never
    /// invented entries.
    #[test]
    fn mutated_image_never_yields_excess_entries(
        entries in arb_chain(),
        flips in prop::collection::vec((any::<usize>(), 0u32..8), 1..16),
    ) {
        let mut enc = Encoder::new(CodecConfig::default());
        for e in &entries {
            enc.push(e);
        }
        let mut bytes = enc.finish().to_bytes();
        for (pos, bit) in flips {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        if let Ok(md) = Metadata::from_bytes(&bytes) {
            let claimed = md.entries();
            prop_assert!(md.decode().count() <= claimed);
            let _ = md.validate();
        }
    }
}
