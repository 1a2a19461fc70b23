//! Property-based tests for workload generation and tracing.

use proptest::prelude::*;

use ignite_uarch::addr::Addr;
use ignite_uarch::btb::BranchKind;
use ignite_workloads::arrival::{ArrivalConfig, Trace, TraceParseError};
use ignite_workloads::gen::{generate, GenParams};
use ignite_workloads::trace::{TraceWalker, WalkTables};

fn arb_params() -> impl Strategy<Value = GenParams> {
    (
        64u32..2000,  // target_branches
        8u64..48,     // avg block bytes (via code size)
        0.0f64..0.08, // indirect fraction
        0.0f64..0.15, // call fraction
        0.4f64..0.75, // cond fraction
        0.0f64..0.4,  // backward fraction
        0.3f64..0.95, // high bias fraction
        8u32..96,     // blocks per function
        0.0f64..0.8,  // dead code fraction
        any::<u64>(), // seed
    )
        .prop_map(|(branches, avg_bytes, ind, call, cond, back, hb, bpf, dead, seed)| {
            GenParams {
                name: format!("prop-{seed}"),
                seed,
                base: Addr::new(0x0040_0000),
                target_code_bytes: u64::from(branches) * avg_bytes,
                target_branches: branches,
                indirect_fraction: ind,
                call_fraction: call,
                cond_fraction: cond,
                backward_fraction: back,
                high_bias_fraction: hb,
                blocks_per_function: bpf,
                dead_code_fraction: dead,
            }
        })
}

/// Arrival configs whose expected count (rate × horizon / 1e6) is at
/// least ~100, so statistical assertions have headroom.
fn arb_arrivals() -> impl Strategy<Value = ArrivalConfig> {
    (any::<u64>(), 1usize..32, 60.0f64..160.0, 0.0f64..2.0, 1_800_000u64..3_500_000).prop_map(
        |(seed, functions, rate_per_mcycle, zipf_s, horizon_cycles)| ArrivalConfig {
            seed,
            functions,
            rate_per_mcycle,
            zipf_s,
            horizon_cycles,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The generator must produce a valid image for any parameter point —
    /// `generate` panics internally if `CodeImage::new` rejects it.
    #[test]
    fn generator_always_produces_valid_images(p in arb_params()) {
        let img = generate(&p);
        prop_assert!(img.static_branches() > 0);
        prop_assert!(img.functions().iter().any(|f| f.live));
    }

    /// Trace continuity: each block begins where the previous block's
    /// branch said control goes. This is the core walker invariant the
    /// whole simulation relies on.
    #[test]
    fn traces_are_continuous(p in arb_params(), invocation in 0u64..8) {
        let img = generate(&p);
        let blocks: Vec<_> = TraceWalker::new(&img, invocation, 5_000).collect();
        for pair in blocks.windows(2) {
            prop_assert_eq!(pair[1].start, pair[0].next_pc());
        }
    }

    /// The walker never emits blocks from dead functions.
    #[test]
    fn dead_code_never_executes(p in arb_params(), invocation in 0u64..4) {
        let img = generate(&p);
        let dead_ranges: Vec<_> = img
            .functions()
            .iter()
            .filter(|f| !f.live)
            .map(|f| {
                let first = img.block(f.first_block).start;
                let last = img.block(f.first_block + f.block_count - 1);
                (first, last.fallthrough())
            })
            .collect();
        for b in TraceWalker::new(&img, invocation, 3_000) {
            for &(lo, hi) in &dead_ranges {
                prop_assert!(
                    b.start < lo || b.start >= hi,
                    "executed dead block at {}",
                    b.start
                );
            }
        }
    }

    /// Returns match their calls (call-stack integrity).
    #[test]
    fn call_stack_integrity(p in arb_params(), invocation in 0u64..4) {
        let img = generate(&p);
        let blocks: Vec<_> = TraceWalker::new(&img, invocation, 5_000).collect();
        let mut stack: Vec<Addr> = Vec::new();
        for pair in blocks.windows(2) {
            let b = &pair[0];
            match b.branch.kind {
                BranchKind::Call if pair[1].start == b.branch.target => {
                    stack.push(b.fallthrough());
                }
                BranchKind::Return => {
                    if let Some(expect) = stack.pop() {
                        prop_assert_eq!(b.branch.target, expect);
                    }
                }
                _ => {}
            }
        }
    }

    /// The dynamic budget is respected within one block's worth of slack.
    #[test]
    fn budget_respected(p in arb_params(), budget in 100u64..20_000) {
        let img = generate(&p);
        let mut walker = TraceWalker::new(&img, 0, budget);
        let mut last_block_instrs = 0;
        for b in walker.by_ref() {
            last_block_instrs = u64::from(b.instrs);
        }
        let emitted = walker.instructions();
        prop_assert!(emitted >= budget.min(1));
        prop_assert!(emitted < budget + last_block_instrs.max(1) + 64);
    }

    /// Same invocation index ⇒ identical trace; the walk is a pure
    /// function of (image, invocation, budget).
    #[test]
    fn walker_is_pure(p in arb_params(), invocation in 0u64..16) {
        let img = generate(&p);
        let a: Vec<_> = TraceWalker::new(&img, invocation, 2_000).collect();
        let b: Vec<_> = TraceWalker::new(&img, invocation, 2_000).collect();
        prop_assert_eq!(a, b);
    }

    /// A walk in lent tables yields exactly what a walk in fresh ones
    /// does, whatever walks the tables served before. One `WalkTables`
    /// serves every image largest first, so each later walk runs in
    /// tables grown for a bigger image, and then a random sequence of
    /// images, invocations, budgets and noise levels.
    #[test]
    fn reused_walk_tables_match_fresh_walks(
        params in prop::collection::vec(arb_params(), 2..4),
        walks in prop::collection::vec((0usize..4, 0u64..16, 0.0f64..0.3, 200u64..4_000), 1..6),
    ) {
        let mut images: Vec<_> = params.iter().map(generate).collect();
        images.sort_by_key(|img| std::cmp::Reverse(img.blocks().len()));
        prop_assume!(images[0].blocks().len() > images[images.len() - 1].blocks().len());
        let largest_first = (0..images.len()).map(|i| (i, i as u64, 0.03, 3_000));
        let random = walks.iter().map(|&(i, inv, noise, budget)| (i % images.len(), inv, noise, budget));
        let mut tables = WalkTables::default();
        for (i, invocation, noise, budget) in largest_first.chain(random) {
            let image = &images[i];
            let fresh: Vec<_> = TraceWalker::with_noise(image, invocation, budget, noise).collect();
            let mut walker = TraceWalker::with_tables(image, invocation, budget, noise, tables);
            let reused: Vec<_> = walker.by_ref().collect();
            tables = walker.into_tables();
            prop_assert_eq!(reused, fresh, "image {}, invocation {}", i, invocation);
        }
    }

    /// Arrival generation is a pure function of the config: same seed ⇒
    /// bit-identical trace, different seeds ⇒ different traces (for any
    /// non-degenerate rate).
    #[test]
    fn arrivals_are_seed_deterministic(cfg in arb_arrivals(), other_seed in any::<u64>()) {
        let a = Trace::from_source(&mut cfg.source());
        let b = Trace::from_source(&mut cfg.source());
        prop_assert_eq!(&a.arrivals, &b.arrivals);
        if other_seed != cfg.seed {
            let c = Trace::from_source(&mut ArrivalConfig { seed: other_seed, ..cfg }.source());
            prop_assert_ne!(&a.arrivals, &c.arrivals);
        }
    }

    /// Arrivals are well-formed: nondecreasing cycles within the horizon,
    /// function ids within range, and per-function counts summing to the
    /// trace length.
    #[test]
    fn arrivals_are_well_formed(cfg in arb_arrivals()) {
        let trace = Trace::from_source(&mut cfg.source());
        for pair in trace.arrivals.windows(2) {
            prop_assert!(pair[0].cycle <= pair[1].cycle, "arrival order");
        }
        for a in &trace.arrivals {
            prop_assert!(a.cycle <= cfg.horizon_cycles);
            prop_assert!((a.function as usize) < cfg.functions);
        }
        let counts = trace.counts();
        prop_assert_eq!(counts.len(), cfg.functions);
        prop_assert_eq!(counts.iter().sum::<u64>(), trace.arrivals.len() as u64);
    }

    /// The empirical arrival rate tracks the configured Poisson rate.
    /// The expected count is ≥100 for every point in the strategy, so a
    /// ±45% band is many standard deviations wide — failures mean a
    /// broken generator, not bad luck.
    #[test]
    fn arrival_rate_is_honored(cfg in arb_arrivals()) {
        let trace = Trace::from_source(&mut cfg.source());
        let expected = cfg.rate_per_mcycle * cfg.horizon_cycles as f64 / 1e6;
        let got = trace.arrivals.len() as f64;
        prop_assert!(
            got > expected * 0.55 && got < expected * 1.45,
            "expected ~{expected} arrivals, generated {got}"
        );
    }

    /// The trace text format round-trips exactly for any generated trace.
    #[test]
    fn trace_text_round_trips(cfg in arb_arrivals()) {
        let trace = Trace::from_source(&mut cfg.source());
        let parsed = Trace::parse(&trace.to_text());
        prop_assert!(parsed.is_ok(), "emitted trace must parse: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.functions, trace.functions);
        prop_assert_eq!(parsed.arrivals, trace.arrivals);
    }

    /// CRLF corruption of any valid trace is rejected with a typed error
    /// naming the first converted line — never silently accepted.
    #[test]
    fn crlf_corruption_is_rejected(cfg in arb_arrivals(), corrupt_all in any::<bool>()) {
        let trace = Trace::from_source(&mut cfg.source());
        let text = trace.to_text();
        let corrupted = if corrupt_all {
            // The whole file converted (e.g. a checkout with autocrlf).
            text.replace('\n', "\r\n")
        } else {
            // Only the final line ending converted (e.g. an append from a
            // CRLF editor).
            let mut t = text.trim_end_matches('\n').to_string();
            t.push_str("\r\n");
            t
        };
        match Trace::parse(&corrupted) {
            Err(TraceParseError::CrlfLineEnding { line }) => {
                let expect = if corrupt_all { 1 } else { 1 + trace.arrivals.len() };
                prop_assert_eq!(line, expect, "error must name the first CRLF line");
            }
            other => prop_assert!(false, "CRLF trace must be rejected, got {:?}", other),
        }
    }

    /// Trailing-whitespace corruption of a data line is likewise typed
    /// and line-numbered.
    #[test]
    fn trailing_whitespace_is_rejected(cfg in arb_arrivals()) {
        let trace = Trace::from_source(&mut cfg.source());
        prop_assume!(!trace.arrivals.is_empty());
        let mut lines: Vec<String> = trace.to_text().lines().map(String::from).collect();
        let victim = 1 + (cfg.seed as usize % trace.arrivals.len());
        lines[victim].push(' ');
        let corrupted = lines.join("\n") + "\n";
        match Trace::parse(&corrupted) {
            Err(TraceParseError::StrayWhitespace { line }) => {
                prop_assert_eq!(line, victim + 1);
            }
            other => prop_assert!(false, "stray whitespace must be rejected, got {:?}", other),
        }
    }

    /// Cross-invocation commonality: executed-block overlap stays high for
    /// all generated workloads (the property Ignite depends on). The budget
    /// scales with the image so both walks complete full passes — with a
    /// too-small budget, overlap measures where the walk frontier stopped
    /// rather than which blocks the function executes.
    #[test]
    fn invocations_share_most_blocks(p in arb_params()) {
        let img = generate(&p);
        let budget = u64::from(p.target_branches) * 5 * 4;
        let collect = |inv| -> std::collections::HashSet<Addr> {
            TraceWalker::new(&img, inv, budget).map(|b| b.start).collect()
        };
        let a = collect(0);
        let b = collect(1);
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        prop_assert!(inter / union > 0.6, "overlap {}", inter / union);
    }
}
