//! Golden end-to-end fingerprints: the bit-exactness gate for perf work.
//!
//! Simulation results must be a pure function of (workload, config,
//! options) — never of wall-clock speed, thread count, or data-structure
//! layout. This test regenerates a fingerprint (cycles, instructions,
//! topdown splits, MPKIs, replay fault counters per function×config at
//! `RunOptions::quick()` scale) and byte-compares it against the
//! committed snapshot `tests/golden/results.json`.
//!
//! Any hot-path optimization (flattened cache scans, batched decoding,
//! allocation elimination, ...) must reproduce this file *bit-exactly*;
//! a diff here means simulation semantics changed, not just speed.
//!
//! To update the snapshot after an intentional semantic change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test golden_results
//! ```
//!
//! Floats are serialized with Rust's shortest round-trip formatting, so
//! equal text means equal bits.

use std::fmt::Write as _;
use std::path::PathBuf;

use ignite_engine::config::FrontEndConfig;
use ignite_engine::metrics::InvocationResult;
use ignite_engine::protocol::RunOptions;
use ignite_harness::Harness;

/// Fraction of paper scale the fingerprints run at (small enough for CI,
/// large enough that every mechanism — recording, replay, throttling —
/// engages on each suite function).
const GOLDEN_SCALE: f64 = 0.02;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/results.json")
}

fn configs() -> Vec<FrontEndConfig> {
    vec![
        FrontEndConfig::nl(),
        FrontEndConfig::jukebox(),
        FrontEndConfig::boomerang(),
        FrontEndConfig::boomerang_jukebox(),
        FrontEndConfig::ignite(),
        FrontEndConfig::ignite_tage(),
        FrontEndConfig::ideal(),
        // Confluence is the only paced mechanism whose work starts after
        // a delay (its metadata lookup latency), so these rows pin when
        // the engine steps the paced mechanisms, not just whether.
        FrontEndConfig::confluence(),
        FrontEndConfig::confluence_ignite(),
        FrontEndConfig::ignite_boomerang(),
    ]
}

/// Shortest round-trip float formatting: equal strings iff equal bits
/// (all values here are finite).
fn num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric in fingerprint");
    format!("{x}")
}

fn push_row(out: &mut String, abbr: &str, config: &str, r: &InvocationResult, last: bool) {
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"function\": \"{abbr}\",");
    let _ = writeln!(out, "      \"config\": \"{config}\",");
    let _ = writeln!(out, "      \"cycles\": {},", r.cycles);
    let _ = writeln!(out, "      \"instructions\": {},", r.instructions);
    let _ = writeln!(out, "      \"topdown\": {{");
    let _ = writeln!(out, "        \"retiring\": {},", num(r.topdown.retiring));
    let _ = writeln!(out, "        \"fetch_bound\": {},", num(r.topdown.fetch_bound));
    let _ = writeln!(out, "        \"bad_speculation\": {},", num(r.topdown.bad_speculation));
    let _ = writeln!(out, "        \"backend_bound\": {}", num(r.topdown.backend_bound));
    let _ = writeln!(out, "      }},");
    let _ = writeln!(out, "      \"l1i_mpki\": {},", num(r.l1i_mpki()));
    let _ = writeln!(out, "      \"btb_mpki\": {},", num(r.btb_mpki()));
    let _ = writeln!(out, "      \"cbp_mpki\": {},", num(r.cbp_mpki()));
    let _ = writeln!(out, "      \"replay\": {{");
    let _ = writeln!(out, "        \"entries_restored\": {},", r.replay.entries_restored);
    let _ = writeln!(out, "        \"l2_prefetches\": {},", r.replay.l2_prefetches);
    let _ = writeln!(out, "        \"metadata_bytes\": {},", r.replay.metadata_bytes);
    let _ = writeln!(out, "        \"throttled_steps\": {},", r.replay.throttled_steps);
    let _ = writeln!(out, "        \"decode_errors\": {},", r.replay.decode_errors);
    let _ = writeln!(out, "        \"entries_dropped\": {},", r.replay.entries_dropped);
    let _ = writeln!(out, "        \"stale_restored\": {},", r.replay.stale_restored);
    let _ = writeln!(out, "        \"watchdog_abandons\": {}", r.replay.watchdog_abandons);
    let _ = writeln!(out, "      }}");
    out.push_str(if last { "    }\n" } else { "    },\n" });
}

/// Regenerates the full fingerprint document.
fn fingerprint() -> String {
    let harness = Harness::new(GOLDEN_SCALE, RunOptions::quick());
    let configs = configs();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ignite-golden-v1\",\n");
    let _ = writeln!(out, "  \"scale\": {},", num(GOLDEN_SCALE));
    out.push_str("  \"opts\": \"quick\",\n");
    out.push_str("  \"results\": [\n");
    for (ci, config) in configs.iter().enumerate() {
        let results = harness.run_config(config);
        assert_eq!(results.len(), harness.abbrs().len());
        for (fi, (abbr, r)) in harness.abbrs().iter().zip(&results).enumerate() {
            let last = ci + 1 == configs.len() && fi + 1 == results.len();
            push_row(&mut out, abbr, &config.name, r, last);
        }
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn golden_fingerprints_match() {
    let current = fingerprint();
    let path = golden_path();
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             IGNITE_BLESS=1 cargo test -p ignite-harness --test golden_results",
            path.display()
        )
    });
    if committed != current {
        // Find the first differing line for a readable failure.
        for (i, (a, b)) in committed.lines().zip(current.lines()).enumerate() {
            if a != b {
                panic!(
                    "golden fingerprint mismatch at line {}:\n  committed: {a}\n  \
                     regenerated: {b}\nSimulation semantics changed. If intentional, re-bless \
                     with IGNITE_BLESS=1 cargo test -p ignite-harness --test golden_results",
                    i + 1
                );
            }
        }
        panic!(
            "golden fingerprint length mismatch ({} vs {} bytes); re-bless if intentional",
            committed.len(),
            current.len()
        );
    }
}
