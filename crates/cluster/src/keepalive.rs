//! Keep-alive policies: how long a node keeps a function's Ignite
//! region pinned in its metadata store after an invocation completes.
//!
//! A keep-alive window trades store capacity (pinned regions cannot be
//! evicted while their window is open) for replay hits on the next
//! invocation. The policies mirror the serverless keep-alive lineage:
//! [`KeepAliveKind::None`] (evict on capacity pressure, the legacy
//! behaviour), [`KeepAliveKind::Fixed`] (one window for every function),
//! and [`KeepAliveKind::Hybrid`] — the hybrid-histogram policy of
//! "How Low Can You Go?" (Tan et al.): each function folds its observed
//! idle gaps into a [`QuantileSketch`], the workspace's one percentile
//! definition, and pins for the smallest power of two above their 99th
//! percentile, falling back to a default window until it has seen
//! enough gaps to trust the estimate.
//!
//! Accounting follows the dslab-faas cost model: every cycle a window
//! holds a region that no invocation touches is a **wasted keep-alive
//! cycle**, charged per node and per function, so a policy sweep can
//! put hit-rate gains and pinning waste on the same axis.
//!
//! With [`KeepAliveKind::None`] every method is a no-op and the store
//! sees the exact eviction stream it saw before this module existed —
//! that is the byte-identity contract with the committed goldens.

use std::collections::BTreeMap;

use ignite_obs::QuantileSketch;

use crate::sim::ConfigError;

/// Idle gaps a function needs on record before their percentile
/// overrides the default window.
pub const HYBRID_MIN_OBSERVATIONS: u64 = 4;

/// Lower bound on any hybrid-derived window, in cycles. The window is
/// the smallest power of two above the p99 idle gap, so it is always a
/// power of two.
pub const HYBRID_MIN_WINDOW: u64 = 1 << 10;
/// Upper bound on any hybrid-derived window, in cycles.
pub const HYBRID_MAX_WINDOW: u64 = 1 << 22;

/// Which keep-alive policy governs post-completion pinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepAliveKind {
    /// No pinning: regions live and die by store eviction alone. The
    /// default, and byte-identical to the pre-multinode simulator.
    None,
    /// Pin every function's region for the same window after each
    /// completion.
    Fixed {
        /// Window length in cycles (`fixed:CYCLES`).
        window_cycles: u64,
    },
    /// Hybrid-histogram: per-function idle-gap sketches pick the
    /// window (the power of two above the p99 gap); the default window
    /// covers the cold-start period before a function has enough
    /// history.
    Hybrid {
        /// Window used until a function has four idle gaps on record
        /// (`hybrid:CYCLES`; bare `hybrid` = 50000).
        default_window_cycles: u64,
    },
}

impl KeepAliveKind {
    /// Stable spec string, as written into reports (inverse of
    /// [`KeepAliveKind::parse`]).
    pub fn spec(&self) -> String {
        match self {
            KeepAliveKind::None => "none".to_string(),
            KeepAliveKind::Fixed { window_cycles } => format!("fixed:{window_cycles}"),
            KeepAliveKind::Hybrid { default_window_cycles } => {
                format!("hybrid:{default_window_cycles}")
            }
        }
    }

    /// Parses a keep-alive spec: `none`, `fixed:CYCLES`, `hybrid`, or
    /// `hybrid:CYCLES`. Typos come back as a typed
    /// [`ConfigError::UnknownKeepAlive`], never a panic.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let unknown = || ConfigError::UnknownKeepAlive { spec: spec.to_string() };
        match spec {
            "none" => Ok(KeepAliveKind::None),
            "hybrid" => Ok(KeepAliveKind::Hybrid { default_window_cycles: 50_000 }),
            _ => {
                if let Some(w) = spec.strip_prefix("fixed:") {
                    return match w.parse::<u64>() {
                        Ok(0) => Err(ConfigError::ZeroKeepAliveWindow),
                        Ok(window_cycles) => Ok(KeepAliveKind::Fixed { window_cycles }),
                        Err(_) => Err(unknown()),
                    };
                }
                if let Some(w) = spec.strip_prefix("hybrid:") {
                    return match w.parse::<u64>() {
                        Ok(0) => Err(ConfigError::ZeroKeepAliveWindow),
                        Ok(default_window_cycles) => {
                            Ok(KeepAliveKind::Hybrid { default_window_cycles })
                        }
                        Err(_) => Err(unknown()),
                    };
                }
                Err(unknown())
            }
        }
    }
}

/// The hybrid window for a function's idle gaps: the smallest power of
/// two above their p99, within [`HYBRID_MIN_WINDOW`, `HYBRID_MAX_WINDOW`];
/// `None` with fewer than [`HYBRID_MIN_OBSERVATIONS`] gaps. Every bucket
/// of the sketch lies inside one power-of-two octave, so this is the top
/// of the octave that holds the exact nearest-rank p99 gap.
fn hybrid_window(gaps: &QuantileSketch) -> Option<u64> {
    if gaps.count() < HYBRID_MIN_OBSERVATIONS {
        return None;
    }
    let p99 = gaps.quantile(99).min(HYBRID_MAX_WINDOW);
    Some((p99 + 1).next_power_of_two().clamp(HYBRID_MIN_WINDOW, HYBRID_MAX_WINDOW))
}

/// One open keep-alive episode: the region has been pinned on a node
/// since `since` and stays pinned until `until` (or the next fetch,
/// whichever comes first).
#[derive(Debug, Clone, Copy)]
struct Slot {
    function: usize,
    since: u64,
    until: u64,
}

/// Keep-alive runtime: open episodes, per-function idle-gap sketches, and
/// the wasted-cycle ledgers. One instance serves the whole cluster;
/// episodes are keyed by `(node, container)` so nodes never share a
/// window.
#[derive(Debug, Clone)]
pub struct KeepAliveRt {
    kind: KeepAliveKind,
    gaps: BTreeMap<usize, QuantileSketch>,
    slots: BTreeMap<(usize, u64), Slot>,
    wasted_node: Vec<u64>,
    wasted_fn: Vec<u64>,
}

impl KeepAliveRt {
    /// Builds the runtime for `nodes` nodes and `functions` functions.
    pub fn new(kind: KeepAliveKind, nodes: usize, functions: usize) -> Self {
        KeepAliveRt {
            kind,
            gaps: BTreeMap::new(),
            slots: BTreeMap::new(),
            wasted_node: vec![0; nodes],
            wasted_fn: vec![0; functions],
        }
    }

    /// Whether any pinning can happen at all.
    pub fn enabled(&self) -> bool {
        self.kind != KeepAliveKind::None
    }

    /// The window the policy would grant `function` right now.
    fn window_for(&self, function: usize) -> Option<u64> {
        match self.kind {
            KeepAliveKind::None => None,
            KeepAliveKind::Fixed { window_cycles } => Some(window_cycles),
            KeepAliveKind::Hybrid { default_window_cycles } => Some(
                self.gaps.get(&function).and_then(hybrid_window).unwrap_or(default_window_cycles),
            ),
        }
    }

    /// Closes an episode at `end`, charging its unused span as waste.
    fn close(&mut self, node: usize, slot: Slot, end: u64) {
        let idle = end.min(slot.until).saturating_sub(slot.since);
        self.wasted_node[node] += idle;
        self.wasted_fn[slot.function] += idle;
    }

    /// An invocation of `function` completed on `node` at `completion`:
    /// open (or refresh) the pin on its region. `override_window` is the
    /// policy-controller seam: `Some(w)` pins for exactly `w` cycles
    /// regardless of what this policy would grant; `None` is the plain
    /// policy window. Under [`KeepAliveKind::None`] the override is
    /// ignored (there is no pinning machinery to retune).
    pub fn on_complete_with(
        &mut self,
        node: usize,
        function: usize,
        container: u64,
        completion: u64,
        override_window: Option<u64>,
    ) {
        if !self.enabled() {
            return;
        }
        let window = match override_window {
            Some(w) => w,
            None => match self.window_for(function) {
                Some(w) => w,
                None => return,
            },
        };
        let slot = Slot { function, since: completion, until: completion.saturating_add(window) };
        if let Some(prev) = self.slots.insert((node, container), slot) {
            // A previous episode was never consumed by a fetch (e.g. the
            // next invocation bypassed the store); its span was waste.
            self.close(node, prev, completion);
        }
    }

    /// `node` is about to fetch `container` at `t` (hit or miss): the
    /// open episode, if any, ends here — its span up to `t` was useful,
    /// anything the window still promised past `t` costs nothing. The
    /// observed idle gap feeds the hybrid policy's sketch.
    pub fn on_fetch(&mut self, node: usize, container: u64, t: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(slot) = self.slots.remove(&(node, container)) {
            if matches!(self.kind, KeepAliveKind::Hybrid { .. }) {
                self.gaps.entry(slot.function).or_default().observe(t.saturating_sub(slot.since));
            }
            if t < slot.until {
                // Reused inside the window: nothing wasted.
            } else {
                self.close(node, slot, t);
            }
        }
    }

    /// Whether `container` is pinned on `node` at time `t` (eviction
    /// protection; the store may still drop it if *everything* resident
    /// is pinned and capacity demands a victim).
    pub fn is_protected(&self, node: usize, container: u64, t: u64) -> bool {
        self.slots.get(&(node, container)).is_some_and(|s| t < s.until)
    }

    /// End of run: every still-open episode wasted its span up to the
    /// makespan (or its window end, whichever came first).
    pub fn finish(&mut self, makespan: u64) {
        let open: Vec<((usize, u64), Slot)> = self.slots.iter().map(|(&k, &v)| (k, v)).collect();
        self.slots.clear();
        for ((node, _), slot) in open {
            self.close(node, slot, makespan);
        }
    }

    /// Wasted keep-alive cycles charged to `node`.
    pub fn wasted_on_node(&self, node: usize) -> u64 {
        self.wasted_node[node]
    }

    /// Wasted keep-alive cycles charged to `function`.
    pub fn wasted_for_function(&self, function: usize) -> u64 {
        self.wasted_fn.get(function).copied().unwrap_or(0)
    }

    /// Total wasted keep-alive cycles across the cluster.
    pub fn wasted_total(&self) -> u64 {
        self.wasted_node.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip() {
        for kind in [
            KeepAliveKind::None,
            KeepAliveKind::Fixed { window_cycles: 1 },
            KeepAliveKind::Fixed { window_cycles: 200_000 },
            KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
        ] {
            assert_eq!(KeepAliveKind::parse(&kind.spec()), Ok(kind));
        }
        assert_eq!(
            KeepAliveKind::parse("hybrid"),
            Ok(KeepAliveKind::Hybrid { default_window_cycles: 50_000 })
        );
        for bad in ["", "off", "fixed", "fixed:0", "fixed:x", "hybrid:0", "hybird"] {
            assert!(KeepAliveKind::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn none_is_inert() {
        let mut rt = KeepAliveRt::new(KeepAliveKind::None, 2, 3);
        assert!(!rt.enabled());
        rt.on_complete_with(0, 1, 10, 1_000, None);
        assert!(!rt.is_protected(0, 10, 1_001));
        rt.on_fetch(0, 10, 2_000);
        rt.finish(100_000);
        assert_eq!(rt.wasted_total(), 0);
    }

    #[test]
    fn fixed_window_protects_then_expires() {
        let mut rt = KeepAliveRt::new(KeepAliveKind::Fixed { window_cycles: 100 }, 1, 1);
        rt.on_complete_with(0, 0, 7, 1_000, None);
        assert!(rt.is_protected(0, 7, 1_050));
        assert!(!rt.is_protected(0, 7, 1_100), "window end is exclusive");
        // The pin is per-node: node-local state never leaks.
        let mut rt2 = KeepAliveRt::new(KeepAliveKind::Fixed { window_cycles: 100 }, 2, 1);
        rt2.on_complete_with(0, 0, 7, 1_000, None);
        assert!(!rt2.is_protected(1, 7, 1_050));
    }

    #[test]
    fn wasted_cycles_follow_the_dslab_accounting() {
        let mut rt = KeepAliveRt::new(KeepAliveKind::Fixed { window_cycles: 100 }, 1, 2);
        // Reused inside the window: nothing wasted.
        rt.on_complete_with(0, 0, 7, 1_000, None);
        rt.on_fetch(0, 7, 1_040);
        assert_eq!(rt.wasted_total(), 0);
        // Reused after expiry: the whole window was held for nothing.
        rt.on_complete_with(0, 0, 7, 2_000, None);
        rt.on_fetch(0, 7, 5_000);
        assert_eq!(rt.wasted_total(), 100);
        // Never reused: charged up to the makespan, capped at the window.
        rt.on_complete_with(0, 1, 9, 6_000, None);
        rt.finish(6_030);
        assert_eq!(rt.wasted_total(), 130);
        assert_eq!(rt.wasted_for_function(1), 30);
        assert_eq!(rt.wasted_on_node(0), 130);
    }

    #[test]
    fn hybrid_histogram_tracks_the_idle_gap_percentile() {
        let mut rt = KeepAliveRt::new(KeepAliveKind::Hybrid { default_window_cycles: 77 }, 1, 1);
        // Too little history: default window.
        assert_eq!(rt.window_for(0), Some(77));
        let mut t = 0u64;
        for _ in 0..8 {
            rt.on_complete_with(0, 0, 5, t, None);
            t += 3_000; // gap of 3000 cycles, bucket [2048, 4096)
            rt.on_fetch(0, 5, t);
            t += 10;
        }
        // p99 of a point mass at 3000 is its bucket's upper bound, 4096.
        assert_eq!(rt.window_for(0), Some(4_096));
        // Tiny gaps clamp up to the minimum window.
        let mut small = KeepAliveRt::new(KeepAliveKind::Hybrid { default_window_cycles: 77 }, 1, 1);
        for i in 0..8u64 {
            small.on_complete_with(0, 0, 5, i * 100, None);
            small.on_fetch(0, 5, i * 100 + 2);
        }
        assert_eq!(small.window_for(0), Some(HYBRID_MIN_WINDOW));
    }

    /// Audit pin: the hybrid window clamp is exact at both power-of-two
    /// boundaries. A gap in the octave just below the floor rounds up to
    /// exactly `HYBRID_MIN_WINDOW` (no off-by-one shift past it), a gap
    /// whose octave top IS the floor passes through unclamped, and gaps
    /// at or beyond the ceiling octave — including `u64::MAX` in the top
    /// octave — pin to `HYBRID_MAX_WINDOW`.
    #[test]
    fn hybrid_window_clamps_exactly_at_the_power_of_two_boundaries() {
        let fill = |gap: u64| {
            let mut gaps = QuantileSketch::new();
            for _ in 0..HYBRID_MIN_OBSERVATIONS {
                gaps.observe(gap);
            }
            hybrid_window(&gaps).expect("enough observations")
        };
        // Octave [2^9, 2^10) rounds up to 2^10 == the floor: clamp is a
        // no-op, not a push to the next octave.
        assert_eq!(fill((1 << 10) - 1), HYBRID_MIN_WINDOW);
        // Octave [2^10, 2^11) rounds up to 2^11, already above the floor.
        assert_eq!(fill(1 << 10), 1 << 11);
        // Octave [2^21, 2^22) rounds up to exactly the ceiling.
        assert_eq!(fill((1 << 22) - 1), HYBRID_MAX_WINDOW);
        // Octave [2^22, 2^23) rounds up past the ceiling and clamps back.
        assert_eq!(fill(1 << 22), HYBRID_MAX_WINDOW);
        // The top octave, up to u64::MAX, clamps too.
        assert_eq!(fill(u64::MAX), HYBRID_MAX_WINDOW);
    }

    /// The log2 idle-gap histogram the hybrid policy kept before it read
    /// the workspace's quantile sketch, kept here as the reference the
    /// sketch-derived window must equal.
    struct IdleHist {
        counts: [u64; 64],
        total: u64,
    }

    impl IdleHist {
        fn record(&mut self, gap: u64) {
            // Bucket i covers [2^i, 2^(i+1)): floor(log2) of the gap.
            self.counts[63 - gap.max(1).leading_zeros() as usize] += 1;
            self.total += 1;
        }

        /// p99 of the recorded gaps, rounded up to its bucket's upper
        /// bound and clamped to the hybrid window range.
        fn p99_window(&self) -> Option<u64> {
            if self.total < HYBRID_MIN_OBSERVATIONS {
                return None;
            }
            let rank = (self.total * 99).div_ceil(100).max(1);
            let mut seen = 0;
            for (bucket, &n) in self.counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    let upper = if bucket >= 63 { u64::MAX } else { 1u64 << (bucket + 1) };
                    return Some(upper.clamp(HYBRID_MIN_WINDOW, HYBRID_MAX_WINDOW));
                }
            }
            None
        }
    }

    /// One idle gap of a mixed stream: zero, an exact power of two, one
    /// off a power of two, near `u64::MAX`, or of any magnitude.
    fn gap((kind, shift, bits): (u8, u32, u64)) -> u64 {
        match kind {
            0 => 0,
            1 => 1 << shift,
            2 => (1u64 << shift).wrapping_sub(1).max(1),
            3 => u64::MAX - (bits >> 56),
            _ => bits >> shift,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// On every prefix of a gap stream, the window read from the
        /// sketch equals the reference histogram's.
        #[test]
        fn the_sketch_window_equals_the_log2_histogram_window(
            stream in proptest::collection::vec((0u8..5, 0u32..64, proptest::prelude::any::<u64>()), 0..160),
        ) {
            let (mut sketch, mut hist) = (QuantileSketch::new(), IdleHist { counts: [0; 64], total: 0 });
            for g in stream.into_iter().map(gap) {
                sketch.observe(g);
                hist.record(g);
                proptest::prop_assert_eq!(hybrid_window(&sketch), hist.p99_window(), "after {}", g);
            }
        }
    }

    #[test]
    fn override_window_supersedes_the_policy_window() {
        let mut rt = KeepAliveRt::new(KeepAliveKind::Fixed { window_cycles: 100 }, 1, 1);
        rt.on_complete_with(0, 0, 7, 1_000, Some(10));
        assert!(rt.is_protected(0, 7, 1_009));
        assert!(!rt.is_protected(0, 7, 1_010), "overridden window, not the fixed 100");
        // None falls back to the policy window.
        rt.on_fetch(0, 7, 1_020);
        rt.on_complete_with(0, 0, 7, 2_000, None);
        assert!(rt.is_protected(0, 7, 2_099));
        // Under KeepAliveKind::None the override is ignored entirely.
        let mut off = KeepAliveRt::new(KeepAliveKind::None, 1, 1);
        off.on_complete_with(0, 0, 7, 1_000, Some(1_000_000));
        assert!(!off.is_protected(0, 7, 1_001));
    }

    #[test]
    fn refreshing_an_unconsumed_slot_charges_the_old_episode() {
        let mut rt = KeepAliveRt::new(KeepAliveKind::Fixed { window_cycles: 100 }, 1, 1);
        rt.on_complete_with(0, 0, 7, 1_000, None);
        // A second completion without an intervening fetch (store was
        // bypassed): the first window ran 50 useful-less cycles.
        rt.on_complete_with(0, 0, 7, 1_050, None);
        assert_eq!(rt.wasted_total(), 50);
        assert!(rt.is_protected(0, 7, 1_149));
    }
}
