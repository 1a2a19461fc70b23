//! End-to-end fault-injection robustness (ISSUE 1 acceptance criteria).
//!
//! Corrupted replay metadata must degrade Ignite gracefully: no panics at
//! any fault rate, structural corruption falls back to the record-only
//! (FDP) floor rather than catastrophically below the NL baseline, and the
//! degradation counters are observable in `InvocationResult`.

use ignite_core::FaultPlan;
use ignite_engine::config::FrontEndConfig;
use ignite_harness::Harness;

const RATES: [f64; 5] = [0.0, 0.001, 0.01, 0.1, 1.0];

fn harness() -> Harness {
    let mut h = Harness::for_tests();
    h.set_threads(2);
    h
}

fn mean_speedup(h: &Harness, fe: &FrontEndConfig) -> f64 {
    h.speedups(&h.run_config(&FrontEndConfig::nl()), &h.run_config(fe)).mean
}

#[test]
fn no_panic_at_any_bit_flip_rate() {
    let h = harness();
    for rate in RATES {
        let fe = FrontEndConfig::ignite()
            .with_faults(&format!("flip {rate}"), FaultPlan::bit_flips(rate, 7));
        // run_config panics on any per-function failure, so simply
        // completing proves the whole suite survived this rate.
        let results = h.run_config(&fe);
        assert!(results.iter().all(|r| r.instructions > 0), "rate {rate}");
    }
}

#[test]
fn no_panic_at_any_stale_rate() {
    let h = harness();
    for rate in RATES {
        let fe = FrontEndConfig::ignite()
            .with_faults(&format!("stale {rate}"), FaultPlan::stale(rate, 7));
        let results = h.run_config(&fe);
        assert!(results.iter().all(|r| r.instructions > 0), "rate {rate}");
    }
}

#[test]
fn fully_corrupted_metadata_lands_at_the_record_only_floor() {
    let h = harness();
    // Rate-1.0 bit flips complement every stored byte: no region ever
    // survives validation, so replay contributes nothing and Ignite must
    // behave like its record-only host (FDP) — which is at or above NL.
    let corrupted = FrontEndConfig::ignite().with_faults("flip 1.0", FaultPlan::bit_flips(1.0, 99));
    let s_corrupted = mean_speedup(&h, &corrupted);
    let s_fdp = mean_speedup(&h, &FrontEndConfig::fdp());
    assert!(
        s_corrupted >= 0.98,
        "fully corrupted Ignite fell below the NL baseline: {s_corrupted:.3}"
    );
    assert!(
        (s_corrupted - s_fdp).abs() <= 0.02 * s_fdp,
        "fully corrupted Ignite ({s_corrupted:.3}) should match the FDP floor ({s_fdp:.3})"
    );
}

#[test]
fn degradation_counters_are_observable_end_to_end() {
    let h = harness();
    let corrupted = FrontEndConfig::ignite().with_faults("flip 1.0", FaultPlan::bit_flips(1.0, 3));
    let results = h.run_config(&corrupted);
    let errors: u64 = results.iter().map(|r| r.replay.decode_errors).sum();
    let dropped: u64 = results.iter().map(|r| r.replay.entries_dropped).sum();
    assert!(errors > 0, "corruption must surface as decode_errors");
    assert!(dropped > 0, "corruption must surface as entries_dropped");

    let stale = FrontEndConfig::ignite().with_faults("stale 1.0", FaultPlan::stale(1.0, 3));
    let results = h.run_config(&stale);
    let stale_restored: u64 = results.iter().map(|r| r.replay.stale_restored).sum();
    assert!(stale_restored > 0, "stale restores must surface as stale_restored");

    // Clean runs keep the counters at zero.
    let clean = h.run_config(&FrontEndConfig::ignite());
    assert!(clean.iter().all(|r| r.replay.decode_errors == 0));
    assert!(clean.iter().all(|r| r.replay.entries_dropped == 0));
}

#[test]
fn panic_isolation_returns_partial_results() {
    let mut h = harness();
    h.inject_panic_at(Some(5));
    let results = h.run_config_checked(&FrontEndConfig::nl());
    let failed: Vec<usize> =
        results.iter().enumerate().filter_map(|(i, r)| r.is_err().then_some(i)).collect();
    assert_eq!(failed, vec![5], "exactly the injected function fails");
    assert!(
        results.iter().filter(|r| r.is_ok()).count() == results.len() - 1,
        "all other functions still produce results"
    );
    let failure = results[5].as_ref().unwrap_err();
    assert_eq!(failure.abbr, h.abbrs()[5]);
}
