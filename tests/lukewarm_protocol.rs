//! The lukewarm interleaving protocol (§5.3): flushing microarchitectural
//! state between invocations and selectively preserving structures.

use ignite_engine::config::{FrontEndConfig, StatePolicy};
use ignite_engine::machine::{Machine, PreparedFunction};
use ignite_engine::protocol::{run_function, RunOptions};
use ignite_engine::sim::{run_invocation, run_invocation_ctx, InvocationCtx};
use ignite_uarch::UarchConfig;
use ignite_workloads::gen::{generate, GenParams};

fn function() -> PreparedFunction {
    let mut p = GenParams::example("lukewarm");
    p.target_branches = 1_000;
    p.target_code_bytes = 40 * 1024;
    PreparedFunction::from_image(generate(&p), 0, 50_000)
}

fn run_policy(policy: StatePolicy) -> ignite_engine::InvocationResult {
    let fe = FrontEndConfig::nl().with_policy("(policy)", policy);
    run_function(&UarchConfig::ice_lake_like(), &fe, &function(), RunOptions::quick())
}

#[test]
fn lukewarm_degrades_performance_substantially() {
    let luke = run_policy(StatePolicy::lukewarm());
    let warm = run_policy(StatePolicy::back_to_back());
    assert!(
        luke.cpi() > warm.cpi() * 1.4,
        "lukewarm CPI {} vs back-to-back {}",
        luke.cpi(),
        warm.cpi()
    );
}

#[test]
fn front_end_dominates_the_degradation() {
    let luke = run_policy(StatePolicy::lukewarm());
    let warm = run_policy(StatePolicy::back_to_back());
    let degradation = luke.topdown.total() - warm.topdown.total();
    let front_end = luke.topdown.front_end() - warm.topdown.front_end();
    assert!(
        front_end / degradation > 0.5,
        "front-end share of degradation = {}",
        front_end / degradation
    );
}

#[test]
fn warm_btb_only_affects_btb_misses() {
    let luke = run_policy(StatePolicy::lukewarm());
    let warm_btb = run_policy(StatePolicy::lukewarm_warm_btb());
    assert!(warm_btb.btb_misses < luke.btb_misses / 2, "BTB misses drop");
    // The caches are still cold, so L1-I misses stay in the same range.
    let ratio = warm_btb.l1i_misses as f64 / luke.l1i_misses as f64;
    assert!(ratio > 0.5, "L1-I misses should not collapse: ratio {ratio}");
}

#[test]
fn bim_randomization_causes_initial_mispredictions() {
    // Compare with the BTB warm in both cases so the conditional branches
    // are identified (an unidentified branch is never predicted, so the
    // plain lukewarm run under-counts CBP statistics by construction).
    let random_bim = run_policy(StatePolicy::lukewarm_warm_btb());
    let warm_bpu = run_policy(StatePolicy::lukewarm_warm_bpu());
    assert!(
        random_bim.initial_mispredictions > warm_bpu.initial_mispredictions * 2,
        "randomized BIM mispredicts first executions: {} vs {}",
        random_bim.initial_mispredictions,
        warm_bpu.initial_mispredictions
    );
}

#[test]
fn flush_is_complete() {
    // After a lukewarm flush, the next invocation's first fetches all go
    // off-chip (no residual cache state).
    let uarch = UarchConfig::ice_lake_like();
    let f = function();
    let mut m = Machine::new(&uarch, &FrontEndConfig::nl());
    run_invocation(&mut m, &f, 0);
    m.between_invocations();
    assert_eq!(m.hierarchy.l1i().occupancy(), 0);
    assert_eq!(m.hierarchy.l2().occupancy(), 0);
    assert_eq!(m.hierarchy.llc().occupancy(), 0);
    assert_eq!(m.btb.occupancy(), 0);
    assert!(m.cbp.tage().occupancy() < 1e-9);
}

#[test]
fn data_stall_model_responds_to_the_data_cold_fraction() {
    // Two fresh machines run the same invocation; only the share of the
    // data working set that starts cold differs.
    let uarch = UarchConfig::ice_lake_like();
    let f = function();
    let backend_bound = |data_cold_fraction| {
        let mut m = Machine::new(&uarch, &FrontEndConfig::nl());
        let ctx = InvocationCtx { data_cold_fraction, ..InvocationCtx::default() };
        run_invocation_ctx(&mut m, &f, 0, ctx).topdown.backend_bound
    };
    let (cold, warm) = (backend_bound(1.0), backend_bound(0.0));
    assert!(
        cold > warm * 1.5,
        "cold data misses must show up as backend-bound cycles: {cold} vs {warm}"
    );
}
