//! Deterministic failure-window streams and order-independent draws.
//!
//! Two kinds of randomness, chosen for different determinism needs:
//!
//! * **Window streams** — renewal processes (exponential gaps between
//!   fixed-length windows) materialized lazily but *in generation
//!   order*: querying time `t` generates every window up to the first
//!   one starting after `t` and caches it, so the schedule is a pure
//!   function of the seed no matter which times are probed first, or
//!   how often. A stream can forget the windows that ended by a floor
//!   its later queries never go below, so a streaming run holds only
//!   the windows still ahead of its clock.
//! * **Pure-hash draws** ([`hash_draw`], [`hash_chance_ppm`]) — for
//!   per-invocation decisions (dispatch drops, backoff jitter) that
//!   must not depend on *how many* other draws happened before them.
//!   Each draw is a stateless function of `(seed, label, invocation,
//!   attempt)`, which is what makes the arrival-seed / chaos-seed
//!   independence guarantee strong rather than incidental.

use ignite_core::fault::PPM_SCALE;
use ignite_uarch::rng::SplitMix64;

use crate::plan::ChaosPlan;

/// Golden-ratio multiplier shared with [`SplitMix64::fork`].
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Second mixing constant (from `ignite_core::fault`'s per-invocation
/// stream derivation).
const MIX_A: u64 = 0xD1B5_4A32_D192_ED03;
/// Third mixing constant (MurmurHash3 finalizer family).
const MIX_B: u64 = 0xA076_1D64_78BD_642F;

/// Stateless 64-bit draw: a pure function of `(seed, label, a, b)`.
///
/// Used for decisions that must be independent of draw order — e.g.
/// the jitter for `(invocation, attempt)` is the same whether or not
/// any other invocation retried first.
#[inline]
pub fn hash_draw(seed: u64, label: u64, a: u64, b: u64) -> u64 {
    SplitMix64::new(
        seed ^ label.wrapping_mul(GOLDEN) ^ a.wrapping_mul(MIX_A) ^ b.wrapping_mul(MIX_B),
    )
    .next_u64()
}

/// Stateless Bernoulli trial with probability `ppm` parts-per-million.
///
/// `ppm == 0` never fires; `ppm >=` [`PPM_SCALE`] always fires.
#[inline]
pub fn hash_chance_ppm(seed: u64, label: u64, a: u64, b: u64, ppm: u32) -> bool {
    if ppm == 0 {
        return false;
    }
    let draw = ((u128::from(hash_draw(seed, label, a, b)) * u128::from(PPM_SCALE)) >> 64) as u32;
    draw < ppm
}

/// Draws an exponential inter-window gap with the given mean, floored
/// at one cycle (the same `-mean * ln(1-u)` shape as the Poisson
/// arrival process and `ignite_core::fault`'s geometric bit-gap).
fn exp_gap(rng: &mut SplitMix64, mean_cycles: u64) -> u64 {
    let u = rng.next_f64(); // [0, 1), so 1-u is in (0, 1].
    let gap = -(mean_cycles as f64) * (1.0 - u).ln();
    if !gap.is_finite() || gap >= u64::MAX as f64 {
        return u64::MAX / 4;
    }
    (gap as u64).max(1)
}

/// A lazily generated stream of non-overlapping half-open failure
/// windows `[start, end)` with exponential gaps and fixed duration.
///
/// Generation is strictly sequential and cached, so the realized
/// schedule is a pure function of `(seed, mtbf, duration)` — query
/// order, repetition, and non-monotonic probes cannot change it. Every
/// query must be at or after the floor of the last
/// [`WindowStream::forget_ended`].
#[derive(Debug, Clone)]
pub struct WindowStream {
    rng: SplitMix64,
    mtbf_cycles: u64,
    duration_cycles: u64,
    /// Sorted by start (and so by end): starts strictly increase until
    /// they saturate at `u64::MAX`.
    windows: Vec<(u64, u64)>,
    /// The cycle of the last `forget_ended`, checked in debug builds.
    floor: u64,
}

impl WindowStream {
    /// Creates a stream. `mtbf_cycles == 0` disables it (no windows
    /// ever fire); `duration_cycles` is floored at one cycle.
    pub fn new(rng: SplitMix64, mtbf_cycles: u64, duration_cycles: u64) -> Self {
        WindowStream {
            rng,
            mtbf_cycles,
            duration_cycles: duration_cycles.max(1),
            windows: Vec::new(),
            floor: 0,
        }
    }

    /// Whether this stream can ever produce a window.
    pub fn enabled(&self) -> bool {
        self.mtbf_cycles > 0
    }

    /// Generates windows until one starts strictly after `t` (so every
    /// window with `start <= t` is materialized).
    fn ensure_to(&mut self, t: u64) {
        if self.mtbf_cycles == 0 {
            return;
        }
        while self.windows.last().is_none_or(|&(start, _)| start <= t) {
            let last_end = self.windows.last().map_or(0, |&(_, end)| end);
            let gap = exp_gap(&mut self.rng, self.mtbf_cycles);
            let start = last_end.saturating_add(gap);
            let end = start.saturating_add(self.duration_cycles);
            self.windows.push((start, end));
            if start == u64::MAX {
                break; // saturated: nothing later can be represented.
            }
        }
    }

    /// The window containing `t`, if any.
    pub fn window_at(&mut self, t: u64) -> Option<(u64, u64)> {
        if self.mtbf_cycles == 0 {
            return None;
        }
        debug_assert!(t >= self.floor, "query at {t} below the floor {}", self.floor);
        self.ensure_to(t);
        // Last window with start <= t (windows are sorted, disjoint).
        let idx = self.windows.partition_point(|&(start, _)| start <= t);
        let (start, end) = *self.windows.get(idx.checked_sub(1)?)?;
        (t >= start && t < end).then_some((start, end))
    }

    /// Whether `t` falls inside a window.
    pub fn contains(&mut self, t: u64) -> bool {
        self.window_at(t).is_some()
    }

    /// The first window start in the inclusive range `[lo, hi]`, if
    /// any. Returns `None` for an empty range (`lo > hi`).
    pub fn first_start_in(&mut self, lo: u64, hi: u64) -> Option<u64> {
        if self.mtbf_cycles == 0 || lo > hi {
            return None;
        }
        debug_assert!(lo >= self.floor, "query at {lo} below the floor {}", self.floor);
        self.ensure_to(hi);
        let idx = self.windows.partition_point(|&(start, _)| start < lo);
        self.windows.get(idx).map(|&(start, _)| start).filter(|&start| start <= hi)
    }

    /// Forgets every window that ends at or before `t`, except the
    /// newest, from which the stream extends. No such window contains a
    /// time after `t` or starts after it, so every query at or after `t`
    /// answers as it would have; a query below `t` must not follow.
    pub fn forget_ended(&mut self, t: u64) {
        debug_assert!(t >= self.floor, "floor moved back from {} to {t}", self.floor);
        self.floor = t;
        let ended = self.windows.partition_point(|&(_, end)| end <= t);
        self.windows.drain(..ended.min(self.windows.len().saturating_sub(1)));
    }
}

/// The materialized chaos schedule for one cluster run: per-core crash
/// and straggle streams plus one store-unavailability stream per node
/// (each node is its own failure domain), all forked from the plan's
/// single chaos seed.
#[derive(Debug, Clone)]
pub struct ChaosState {
    plan: ChaosPlan,
    crash: Vec<WindowStream>,
    straggle: Vec<WindowStream>,
    store: Vec<WindowStream>,
}

/// Sub-stream labels. Fixed constants so adding a stream kind never
/// reshuffles existing schedules.
const LABEL_CRASH: u64 = 1 << 32;
const LABEL_STRAGGLE: u64 = 2 << 32;
const LABEL_STORE: u64 = 3 << 32;
/// Pure-hash draw labels (see [`hash_draw`]).
pub(crate) const LABEL_DROP: u64 = 4 << 32;
pub(crate) const LABEL_JITTER: u64 = 5 << 32;

impl ChaosState {
    /// Builds the streams for an N-node cluster: crash and straggle
    /// streams for every core (global core index `node *
    /// cores_per_node + local`), and one store-unavailability stream
    /// per node.
    ///
    /// Streams are forked in a fixed order (all crash streams, then
    /// all straggle streams, then the per-node store streams), so a
    /// plan replays identically for a given shape. Node 0's store
    /// stream label is `LABEL_STORE | 0 == LABEL_STORE` and the root
    /// generator reaches the store fork in the same state for
    /// `(1, c)` as the single-node constructor that preceded it did for
    /// `c` cores — which is what keeps 1-node chaos runs byte-identical
    /// to the committed goldens.
    pub fn for_cluster(plan: ChaosPlan, nodes: usize, cores_per_node: usize) -> Self {
        let total = nodes * cores_per_node;
        let mut root = SplitMix64::new(plan.seed);
        let crash = (0..total)
            .map(|i| {
                WindowStream::new(
                    root.fork(LABEL_CRASH | i as u64),
                    plan.crash_mtbf_cycles,
                    plan.crash_repair_cycles,
                )
            })
            .collect();
        let straggle = (0..total)
            .map(|i| {
                WindowStream::new(
                    root.fork(LABEL_STRAGGLE | i as u64),
                    plan.straggle_mtbf_cycles,
                    plan.straggle_duration_cycles,
                )
            })
            .collect();
        let store = (0..nodes)
            .map(|n| {
                WindowStream::new(
                    root.fork(LABEL_STORE | n as u64),
                    plan.store_unavail_mtbf_cycles,
                    plan.store_unavail_duration_cycles,
                )
            })
            .collect();
        ChaosState { plan, crash, straggle, store }
    }

    /// The plan this state was built from.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Whether `core` is inside a crash window at time `t` (down: it
    /// can neither hold nor accept work).
    pub fn core_down(&mut self, core: usize, t: u64) -> bool {
        self.crash[core].contains(t)
    }

    /// If `core` is down at `t`, the cycle at which it restarts.
    pub fn core_restart_after(&mut self, core: usize, t: u64) -> Option<u64> {
        self.crash[core].window_at(t).map(|(_, end)| end)
    }

    /// The first crash striking `core` in the inclusive cycle range
    /// `[lo, hi]` — used to test whether an in-flight attempt whose
    /// completion is scheduled at `hi` survives.
    pub fn crash_in(&mut self, core: usize, lo: u64, hi: u64) -> Option<u64> {
        self.crash[core].first_start_in(lo, hi)
    }

    /// The cycle-rate degradation factor (milli-x, 1000 = full speed)
    /// for work dispatched on `core` at time `t`.
    pub fn straggle_factor_milli(&mut self, core: usize, t: u64) -> u32 {
        if self.straggle[core].contains(t) {
            self.plan.straggle_factor_milli.max(1000)
        } else {
            1000
        }
    }

    /// Whether `node`'s metadata store is unreachable at `t`.
    pub fn store_unavailable_on(&mut self, node: usize, t: u64) -> bool {
        self.store[node].contains(t)
    }

    /// The earliest restart among the cores in a global-core range
    /// (one node's) that are down at `now` — the extra DES event source
    /// that wakes the scheduler when queued work is waiting only on
    /// repairs.
    pub fn earliest_restart_among(
        &mut self,
        cores: std::ops::Range<usize>,
        now: u64,
    ) -> Option<u64> {
        cores.filter_map(|core| self.core_restart_after(core, now)).min()
    }

    /// Forgets, in every stream, each window that ends at or before `t`
    /// ([`WindowStream::forget_ended`]); every later query must be at or
    /// after `t`.
    pub fn forget_ended(&mut self, t: u64) {
        let streams = self.crash.iter_mut().chain(&mut self.straggle).chain(&mut self.store);
        streams.for_each(|s| s.forget_ended(t));
    }

    /// Whether dispatch attempt `attempt` of `invocation` is dropped
    /// before reaching a core (a pure-hash draw: independent of
    /// dispatch order and of every other stream).
    pub fn dispatch_dropped(&self, invocation: u64, attempt: u32) -> bool {
        hash_chance_ppm(
            self.plan.seed,
            LABEL_DROP,
            invocation,
            u64::from(attempt),
            self.plan.dispatch_drop_ppm,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, mtbf: u64, dur: u64) -> WindowStream {
        WindowStream::new(SplitMix64::new(seed), mtbf, dur)
    }

    #[test]
    fn disabled_stream_never_fires() {
        let mut s = stream(1, 0, 100);
        assert!(!s.enabled());
        assert!(!s.contains(0));
        assert!(s.first_start_in(0, u64::MAX - 1).is_none());
    }

    #[test]
    fn windows_are_sorted_and_disjoint() {
        let mut s = stream(7, 1_000, 300);
        s.ensure_to(1_000_000);
        assert!(s.windows.len() > 100, "mtbf 1k over 1M cycles should fire often");
        for pair in s.windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "windows overlap: {pair:?}");
        }
        for &(start, end) in &s.windows {
            assert_eq!(end - start, 300);
        }
    }

    #[test]
    fn query_order_does_not_change_the_schedule() {
        let mut fwd = stream(42, 5_000, 500);
        let mut probes: Vec<u64> = (0..200).map(|i| i * 997).collect();
        let forward: Vec<bool> = probes.iter().map(|&t| fwd.contains(t)).collect();
        let mut rev = stream(42, 5_000, 500);
        probes.reverse();
        let mut backward: Vec<bool> = probes.iter().map(|&t| rev.contains(t)).collect();
        backward.reverse();
        assert_eq!(forward, backward, "non-monotonic queries must not perturb windows");
        assert_eq!(fwd.windows, rev.windows);
    }

    #[test]
    fn window_at_matches_contains() {
        let mut s = stream(9, 2_000, 250);
        for t in (0..100_000).step_by(97) {
            let w = s.window_at(t);
            if let Some((start, end)) = w {
                assert!(t >= start && t < end);
            }
            assert_eq!(w.is_some(), s.contains(t));
        }
    }

    #[test]
    fn first_start_in_finds_exact_boundaries() {
        let mut s = stream(3, 1_500, 100);
        s.ensure_to(50_000);
        let (start, _) = s.windows[2];
        assert_eq!(s.first_start_in(start, start), Some(start));
        assert_eq!(s.first_start_in(start + 1, start + 1), None);
        assert!(s.first_start_in(10, 5).is_none(), "empty range");
    }

    /// A cycle at or after `from`: the start (`kind` 0) or the end (1)
    /// of the first window of `s` that has not ended by `from`, or
    /// `from + offset`.
    fn edge(s: &mut WindowStream, from: u64, kind: u8, offset: u64) -> u64 {
        s.ensure_to(from);
        let ahead = s.windows.iter().find(|&&(_, end)| end > from);
        let (start, end) = *ahead.expect("a window starts after `from`");
        match kind {
            0 => start.max(from),
            1 => end,
            _ => from + offset,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Under floors that rise to random cycles and to window edges, a
        /// stream that forgets what ended by each floor answers queries
        /// at or after it, at random cycles and at window edges, exactly
        /// as a stream that forgets nothing and as a linear scan of that
        /// stream's windows.
        #[test]
        fn a_forgetful_stream_answers_as_the_whole_stream_and_a_linear_scan(
            seed in proptest::prelude::any::<u64>(),
            mtbf in 1u64..4_000,
            duration in 1u64..2_000,
            steps in proptest::collection::vec((0u8..3, 0u64..5_000, 0u8..3, 0u64..5_000, 0u64..5_000), 1..48),
        ) {
            let (mut forgetful, mut whole) = (stream(seed, mtbf, duration), stream(seed, mtbf, duration));
            let mut floor = 0;
            for (rise_to, rise, query_at, offset, span) in steps {
                floor = edge(&mut whole, floor, rise_to, rise);
                forgetful.forget_ended(floor);
                let lo = edge(&mut whole, floor, query_at, offset);
                let hi = lo + span;
                whole.ensure_to(hi);
                let at = whole.windows.iter().copied().find(|&(s, e)| s <= lo && lo < e);
                let first = whole.windows.iter().map(|w| w.0).find(|&s| s >= lo && s <= hi);
                proptest::prop_assert_eq!(forgetful.window_at(lo), at, "at {}", lo);
                proptest::prop_assert_eq!(whole.window_at(lo), at, "at {}", lo);
                proptest::prop_assert_eq!(forgetful.first_start_in(lo, hi), first, "in {}..={}", lo, hi);
                proptest::prop_assert_eq!(whole.first_start_in(lo, hi), first, "in {}..={}", lo, hi);
            }
        }
    }

    /// A stream queried and forgotten along a rising clock holds at most
    /// two windows, the one holding the clock and the next, however many
    /// it has passed through.
    #[test]
    fn a_forgetful_stream_holds_a_constant_number_of_windows() {
        let (mut forgetful, mut whole) = (stream(5, 1_000, 100), stream(5, 1_000, 100));
        let mut t = 0;
        while whole.windows.len() < 100_000 {
            t += 500;
            assert_eq!(forgetful.contains(t), whole.contains(t), "at {t}");
            forgetful.forget_ended(t);
            assert!(forgetful.windows.len() <= 2, "{} windows at {t}", forgetful.windows.len());
        }
    }

    #[test]
    fn hash_draw_is_pure_and_label_separated() {
        assert_eq!(hash_draw(1, 2, 3, 4), hash_draw(1, 2, 3, 4));
        assert_ne!(hash_draw(1, 2, 3, 4), hash_draw(1, 2, 3, 5));
        assert_ne!(hash_draw(1, LABEL_DROP, 3, 4), hash_draw(1, LABEL_JITTER, 3, 4));
        assert_ne!(hash_draw(1, 2, 3, 4), hash_draw(2, 2, 3, 4));
    }

    #[test]
    fn hash_chance_respects_extremes_and_rate() {
        assert!(!hash_chance_ppm(5, 1, 0, 0, 0));
        assert!(hash_chance_ppm(5, 1, 0, 0, PPM_SCALE));
        let hits = (0..100_000u64).filter(|&i| hash_chance_ppm(11, 1, i, 0, 100_000)).count();
        // 10% +- generous slack.
        assert!((8_000..12_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn chaos_state_streams_are_independent_per_core() {
        let plan = ChaosPlan { seed: 77, ..ChaosPlan::default_preset() };
        let mut st = ChaosState::for_cluster(plan, 1, 2);
        st.crash[0].ensure_to(10_000_000);
        st.crash[1].ensure_to(10_000_000);
        assert_ne!(st.crash[0].windows, st.crash[1].windows);
    }

    #[test]
    fn cluster_store_streams_are_independent_per_node() {
        let plan = ChaosPlan {
            seed: 21,
            store_unavail_mtbf_cycles: 10_000,
            store_unavail_duration_cycles: 2_000,
            ..ChaosPlan::none()
        };
        let mut st = ChaosState::for_cluster(plan, 3, 2);
        for node in 0..3 {
            st.store[node].ensure_to(10_000_000);
        }
        assert_ne!(st.store[0].windows, st.store[1].windows);
        assert_ne!(st.store[1].windows, st.store[2].windows);
    }

    #[test]
    fn earliest_restart_is_min_over_down_cores() {
        let plan = ChaosPlan {
            seed: 13,
            crash_mtbf_cycles: 500,
            crash_repair_cycles: 2_000,
            ..ChaosPlan::none()
        };
        let mut st = ChaosState::for_cluster(plan, 1, 4);
        // Find a time at which at least one core is down.
        let t = (0..1_000_000)
            .find(|&t| (0..4).any(|c| st.core_down(c, t)))
            .expect("some core goes down");
        let earliest = st.earliest_restart_among(0..4, t).expect("a core is down");
        for c in 0..4 {
            if let Some(r) = st.core_restart_after(c, t) {
                assert!(earliest <= r);
                assert!(r > t);
            }
        }
    }
}
