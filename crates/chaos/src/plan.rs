//! The failure schedule ([`ChaosPlan`]) and recovery policy
//! ([`RetryPolicy`]) configuration types, plus the `k=v` spec parsers
//! behind `cluster --chaos SPEC --retry SPEC`.
//!
//! Both types are pure data with integer fields only (rates in
//! parts-per-million, factors in milli-x), so plans hash, compare, and
//! serialize exactly — the same reproducibility discipline as
//! `ignite_core::fault::FaultPlan`, which [`ChaosPlan`] embeds for
//! store-corruption draws.

use ignite_core::fault::PPM_SCALE;
use ignite_core::FaultPlan;
use ignite_uarch::rng::SplitMix64;

use crate::state::{hash_draw, LABEL_JITTER};

/// Label for deriving the embedded [`FaultPlan`] seed from the chaos
/// seed (see [`ChaosPlan::seeded`]).
const LABEL_STORE_FAULT: u64 = 6 << 32;

/// A deterministic cluster-level failure schedule.
///
/// All fields are mean rates or durations; the realized schedule is
/// drawn from `seed` alone (see [`crate::ChaosState`]). A zero MTBF or
/// zero rate disables that failure class. The inert plan
/// ([`ChaosPlan::none`]) injects nothing, but still routes the
/// simulator through the chaos-aware bookkeeping — useful for testing
/// that the accounting itself is neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChaosPlan {
    /// Root seed for every chaos stream. Independent of the arrival
    /// seed by construction: no draw mixes both.
    pub seed: u64,
    /// Mean cycles between core crashes (per core; 0 = never).
    pub crash_mtbf_cycles: u64,
    /// Cycles a crashed core stays down before restarting.
    pub crash_repair_cycles: u64,
    /// Mean cycles between straggle windows (per core; 0 = never).
    pub straggle_mtbf_cycles: u64,
    /// Length of each straggle window.
    pub straggle_duration_cycles: u64,
    /// Cycle-cost multiplier while straggling, in milli-x
    /// (2000 = work takes 2x the cycles). Clamped to >= 1000.
    pub straggle_factor_milli: u32,
    /// Mean cycles between store-unavailability windows (node-wide;
    /// 0 = never).
    pub store_unavail_mtbf_cycles: u64,
    /// Length of each store-unavailability window.
    pub store_unavail_duration_cycles: u64,
    /// Metadata corruption applied to store fetches (bit flips, losses
    /// — the PR 1 fault model, re-aimed at the node store).
    pub store_fault: FaultPlan,
    /// Probability (ppm) that a dispatch attempt is dropped before
    /// reaching a core.
    pub dispatch_drop_ppm: u32,
}

impl ChaosPlan {
    /// The inert plan: chaos machinery on, zero failures injected.
    pub const fn none() -> Self {
        ChaosPlan {
            seed: 0,
            crash_mtbf_cycles: 0,
            crash_repair_cycles: 0,
            straggle_mtbf_cycles: 0,
            straggle_duration_cycles: 0,
            straggle_factor_milli: 1000,
            store_unavail_mtbf_cycles: 0,
            store_unavail_duration_cycles: 0,
            store_fault: FaultPlan::none(),
            dispatch_drop_ppm: 0,
        }
    }

    /// The `--chaos default` preset: every failure class active at
    /// rates that exercise all recovery paths within a sub-second
    /// simulated horizon without collapsing throughput.
    pub const fn default_preset() -> Self {
        ChaosPlan {
            seed: 0,
            crash_mtbf_cycles: 400_000,
            crash_repair_cycles: 60_000,
            straggle_mtbf_cycles: 300_000,
            straggle_duration_cycles: 50_000,
            straggle_factor_milli: 2_000,
            store_unavail_mtbf_cycles: 200_000,
            store_unavail_duration_cycles: 30_000,
            store_fault: FaultPlan { seed: 0, bit_flip_ppm: 200, stale_ppm: 0, loss_ppm: 20_000 },
            dispatch_drop_ppm: 20_000,
        }
    }

    /// Sets the chaos seed and derives the embedded store-fault seed
    /// from it, so one `--chaos-seed` value pins the whole schedule.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.store_fault.seed = SplitMix64::new(seed ^ LABEL_STORE_FAULT).next_u64();
        self
    }

    /// Whether any failure class can actually fire.
    pub fn is_active(&self) -> bool {
        self.crash_mtbf_cycles > 0
            || self.straggle_mtbf_cycles > 0
            || self.store_unavail_mtbf_cycles > 0
            || self.store_fault.is_active()
            || self.dispatch_drop_ppm > 0
    }
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::none()
    }
}

/// Recovery policy: deadlines, bounded retry with exponential backoff
/// + deterministic jitter, and circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Maximum dispatch attempts per invocation (>= 1; 1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub backoff_base_cycles: u64,
    /// Backoff growth per failed attempt, milli-x (2000 = doubling).
    pub backoff_mult_milli: u32,
    /// Backoff ceiling (pre-jitter).
    pub backoff_max_cycles: u64,
    /// Jitter span as a ppm fraction of the backoff: the realized
    /// backoff is `b + uniform[0, b * jitter_ppm / 1e6]`, drawn by
    /// pure hash of `(chaos seed, invocation, attempt)`.
    pub jitter_ppm: u32,
    /// End-to-end deadline per invocation, measured from arrival
    /// (0 = no deadline). An invocation that cannot be re-dispatched
    /// before its deadline is dropped with reason `deadline`.
    pub deadline_cycles: u64,
    /// Consecutive replay-metadata faults that open a function's
    /// circuit breaker (0 = breaker disabled).
    pub breaker_threshold: u32,
    /// Cycles an open breaker waits before letting one probe through.
    pub breaker_cooldown_cycles: u64,
}

impl Default for RetryPolicy {
    /// The `--retry default` preset: three attempts, 10k-cycle base
    /// backoff doubling to a 1M ceiling with 25% jitter, no deadline,
    /// breaker at five consecutive faults with a 500k cooldown.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_cycles: 10_000,
            backoff_mult_milli: 2_000,
            backoff_max_cycles: 1_000_000,
            jitter_ppm: 250_000,
            deadline_cycles: 0,
            breaker_threshold: 5,
            breaker_cooldown_cycles: 500_000,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff after failed attempt `attempt`
    /// (1-based) of `invocation`: exponential growth capped at
    /// [`backoff_max_cycles`](RetryPolicy::backoff_max_cycles), plus
    /// hash-derived jitter keyed on `(chaos_seed, invocation,
    /// attempt)` so retry timing is independent of global draw order.
    /// Always >= 1 cycle; saturates at `u64::MAX` instead of overflowing.
    pub fn backoff_for(&self, chaos_seed: u64, invocation: u64, attempt: u32) -> u64 {
        let cap = u128::from(self.backoff_max_cycles.max(1));
        let mut b = u128::from(self.backoff_base_cycles.max(1));
        for _ in 1..attempt {
            b = (b * u128::from(self.backoff_mult_milli)) / 1000;
            if b >= cap {
                b = cap;
                break;
            }
        }
        let mut backoff = b.min(cap) as u64;
        if self.jitter_ppm > 0 {
            let span = ((u128::from(backoff) * u128::from(self.jitter_ppm)) / u128::from(PPM_SCALE))
                as u64;
            if span > 0 {
                let draw = hash_draw(chaos_seed, LABEL_JITTER, invocation, u64::from(attempt));
                let jitter = ((u128::from(draw) * (u128::from(span) + 1)) >> 64) as u64;
                backoff = backoff.saturating_add(jitter);
            }
        }
        backoff.max(1)
    }
}

/// Splits a `k=v,k=v` spec into pairs, rejecting malformed entries.
fn kv_pairs(spec: &str) -> Result<Vec<(&str, &str)>, String> {
    spec.split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            part.split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("malformed spec entry '{part}' (expected key=value)"))
        })
        .collect()
}

fn parse_u64(key: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|e| format!("invalid value for '{key}': '{v}' ({e})"))
}

fn parse_u32(key: &str, v: &str) -> Result<u32, String> {
    v.parse().map_err(|e| format!("invalid value for '{key}': '{v}' ({e})"))
}

/// Parses a factor like `2.0` (x) into milli-x (2000).
fn parse_factor_milli(key: &str, v: &str) -> Result<u32, String> {
    let f: f64 = v.parse().map_err(|e| format!("invalid value for '{key}': '{v}' ({e})"))?;
    if !f.is_finite() || !(1.0..=1_000.0).contains(&f) {
        return Err(format!("'{key}' must be a finite factor in [1, 1000], got {v}"));
    }
    Ok((f * 1000.0).round() as u32)
}

/// Parses a `--chaos` spec: `default`, `none`, or a `k=v` list over
/// `crash-mtbf`, `crash-repair`, `straggle-mtbf`, `straggle-dur`,
/// `straggle-factor` (x), `store-mtbf`, `store-dur`, `corrupt-ppm`,
/// `loss-ppm`, `drop-ppm`. Unlisted keys keep [`ChaosPlan::none`]
/// values, so `--chaos crash-mtbf=50000,crash-repair=5000` is a
/// crash-only plan. The returned plan is unseeded — callers apply
/// [`ChaosPlan::seeded`] with the independent `--chaos-seed`.
pub fn parse_chaos_spec(spec: &str) -> Result<ChaosPlan, String> {
    match spec.trim() {
        "default" => return Ok(ChaosPlan::default_preset()),
        "none" => return Ok(ChaosPlan::none()),
        _ => {}
    }
    let mut plan = ChaosPlan::none();
    for (key, v) in kv_pairs(spec)? {
        match key {
            "crash-mtbf" => plan.crash_mtbf_cycles = parse_u64(key, v)?,
            "crash-repair" => plan.crash_repair_cycles = parse_u64(key, v)?,
            "straggle-mtbf" => plan.straggle_mtbf_cycles = parse_u64(key, v)?,
            "straggle-dur" => plan.straggle_duration_cycles = parse_u64(key, v)?,
            "straggle-factor" => plan.straggle_factor_milli = parse_factor_milli(key, v)?,
            "store-mtbf" => plan.store_unavail_mtbf_cycles = parse_u64(key, v)?,
            "store-dur" => plan.store_unavail_duration_cycles = parse_u64(key, v)?,
            "corrupt-ppm" => plan.store_fault.bit_flip_ppm = parse_u32(key, v)?,
            "loss-ppm" => plan.store_fault.loss_ppm = parse_u32(key, v)?,
            "drop-ppm" => plan.dispatch_drop_ppm = parse_u32(key, v)?,
            other => {
                return Err(format!(
                    "unknown chaos key '{other}' (known: crash-mtbf, crash-repair, \
                     straggle-mtbf, straggle-dur, straggle-factor, store-mtbf, store-dur, \
                     corrupt-ppm, loss-ppm, drop-ppm)"
                ))
            }
        }
    }
    if plan.crash_mtbf_cycles > 0 && plan.crash_repair_cycles == 0 {
        return Err("crash-mtbf requires a nonzero crash-repair".to_string());
    }
    if plan.straggle_mtbf_cycles > 0 && plan.straggle_duration_cycles == 0 {
        return Err("straggle-mtbf requires a nonzero straggle-dur".to_string());
    }
    if plan.store_unavail_mtbf_cycles > 0 && plan.store_unavail_duration_cycles == 0 {
        return Err("store-mtbf requires a nonzero store-dur".to_string());
    }
    Ok(plan)
}

/// Parses a `--retry` spec: `default` or a `k=v` list over `attempts`,
/// `base`, `mult` (x, e.g. `2.0`), `max`, `jitter-ppm`, `deadline`,
/// `breaker-threshold`, `breaker-cooldown`. Unlisted keys keep the
/// [`RetryPolicy::default`] values.
pub fn parse_retry_spec(spec: &str) -> Result<RetryPolicy, String> {
    let mut policy = RetryPolicy::default();
    if spec.trim() == "default" {
        return Ok(policy);
    }
    for (key, v) in kv_pairs(spec)? {
        match key {
            "attempts" => policy.max_attempts = parse_u32(key, v)?,
            "base" => policy.backoff_base_cycles = parse_u64(key, v)?,
            "mult" => policy.backoff_mult_milli = parse_factor_milli(key, v)?,
            "max" => policy.backoff_max_cycles = parse_u64(key, v)?,
            "jitter-ppm" => policy.jitter_ppm = parse_u32(key, v)?,
            "deadline" => policy.deadline_cycles = parse_u64(key, v)?,
            "breaker-threshold" => policy.breaker_threshold = parse_u32(key, v)?,
            "breaker-cooldown" => policy.breaker_cooldown_cycles = parse_u64(key, v)?,
            other => {
                return Err(format!(
                    "unknown retry key '{other}' (known: attempts, base, mult, max, \
                     jitter-ppm, deadline, breaker-threshold, breaker-cooldown)"
                ))
            }
        }
    }
    if policy.max_attempts == 0 {
        return Err("retry attempts must be >= 1".to_string());
    }
    if policy.jitter_ppm > PPM_SCALE {
        return Err(format!("jitter-ppm must be <= {PPM_SCALE}"));
    }
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inactive_and_default() {
        assert!(!ChaosPlan::none().is_active());
        assert_eq!(ChaosPlan::default(), ChaosPlan::none());
        assert!(ChaosPlan::default_preset().is_active());
    }

    #[test]
    fn seeding_pins_both_seeds() {
        let a = ChaosPlan::default_preset().seeded(7);
        let b = ChaosPlan::default_preset().seeded(7);
        let c = ChaosPlan::default_preset().seeded(8);
        assert_eq!(a, b);
        assert_ne!(a.store_fault.seed, c.store_fault.seed);
        assert_ne!(a.store_fault.seed, 7, "fault seed must be derived, not aliased");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy { jitter_ppm: 0, ..RetryPolicy::default() };
        assert_eq!(p.backoff_for(0, 1, 1), 10_000);
        assert_eq!(p.backoff_for(0, 1, 2), 20_000);
        assert_eq!(p.backoff_for(0, 1, 3), 40_000);
        assert_eq!(p.backoff_for(0, 1, 20), 1_000_000, "hits the cap");
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        let base = RetryPolicy { jitter_ppm: 0, ..p }.backoff_for(5, 9, 2);
        let a = p.backoff_for(5, 9, 2);
        assert_eq!(a, p.backoff_for(5, 9, 2), "same key, same jitter");
        assert!(a >= base && a <= base + base / 4 + 1, "jitter within 25%: {base} -> {a}");
        assert_ne!(p.backoff_for(5, 9, 2), p.backoff_for(5, 10, 2), "keyed per invocation");
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            backoff_base_cycles: u64::MAX,
            backoff_max_cycles: u64::MAX,
            jitter_ppm: PPM_SCALE,
            ..RetryPolicy::default()
        };
        for attempt in 1..4 {
            assert_eq!(p.backoff_for(1, 2, attempt), u64::MAX);
        }
    }

    #[test]
    fn chaos_spec_round_trip_and_presets() {
        assert_eq!(parse_chaos_spec("default").unwrap(), ChaosPlan::default_preset());
        assert_eq!(parse_chaos_spec("none").unwrap(), ChaosPlan::none());
        let plan = parse_chaos_spec("crash-mtbf=50000,crash-repair=5000,drop-ppm=100").unwrap();
        assert_eq!(plan.crash_mtbf_cycles, 50_000);
        assert_eq!(plan.crash_repair_cycles, 5_000);
        assert_eq!(plan.dispatch_drop_ppm, 100);
        assert_eq!(plan.store_unavail_mtbf_cycles, 0);
        let f = parse_chaos_spec("straggle-mtbf=1000,straggle-dur=10,straggle-factor=1.5").unwrap();
        assert_eq!(f.straggle_factor_milli, 1_500);
    }

    #[test]
    fn chaos_spec_rejects_malformed_input() {
        assert!(parse_chaos_spec("bogus-key=1").is_err());
        assert!(parse_chaos_spec("crash-mtbf").is_err());
        assert!(parse_chaos_spec("crash-mtbf=abc").is_err());
        assert!(parse_chaos_spec("crash-mtbf=100").is_err(), "repair required");
        assert!(parse_chaos_spec("straggle-factor=0.5,straggle-mtbf=1,straggle-dur=1").is_err());
    }

    #[test]
    fn retry_spec_round_trip_and_errors() {
        assert_eq!(parse_retry_spec("default").unwrap(), RetryPolicy::default());
        let p = parse_retry_spec("attempts=5,base=100,mult=3.0,deadline=90000").unwrap();
        assert_eq!(p.max_attempts, 5);
        assert_eq!(p.backoff_base_cycles, 100);
        assert_eq!(p.backoff_mult_milli, 3_000);
        assert_eq!(p.deadline_cycles, 90_000);
        assert!(parse_retry_spec("attempts=0").is_err());
        assert!(parse_retry_spec("nope=1").is_err());
        assert!(parse_retry_spec("jitter-ppm=2000000").is_err());
    }
}
