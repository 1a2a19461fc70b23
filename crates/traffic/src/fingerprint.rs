//! Workload fingerprints: a compact, versioned statistical summary of the
//! arrival stream a simulation actually consumed.
//!
//! The fingerprint rides inside the cluster report (`"workload"` section,
//! schema [`WORKLOAD_SCHEMA`]) so an experiment is self-describing — the
//! report says not just which policies ran but what traffic shape they
//! ran under — and so `scope diff` can refuse to compare reports produced
//! by different workloads. The accumulator is strictly online: O(1) per
//! arrival plus one counter per function, matching the streaming
//! simulator's O(1) arrival-state budget.

use ignite_workloads::Arrival;

/// Schema tag for the fingerprint section in cluster reports.
pub const WORKLOAD_SCHEMA: &str = "ignite-workload-v1";

/// Summary statistics of one consumed arrival stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadFingerprint {
    /// Total arrivals consumed.
    pub arrivals: u64,
    /// Number of distinct function indices the source could emit.
    pub functions: usize,
    /// Cycle of the last arrival (0 when the stream was empty).
    pub horizon_cycles: u64,
    /// Mean arrival rate over the observed horizon, per million cycles.
    pub rate_per_mcycle: f64,
    /// Squared coefficient of variation of inter-arrival gaps. 1.0 for a
    /// Poisson process; >1 means burstier, <1 more regular.
    pub interarrival_cv2: f64,
    /// Least-squares Zipf exponent estimate over the observed
    /// per-function popularity ranking (0 when fewer than two functions
    /// were invoked).
    pub zipf_s_hat: f64,
    /// Share of arrivals going to the single most popular function.
    pub top1_share: f64,
    /// Share of arrivals going to the five most popular functions.
    pub top5_share: f64,
}

/// Online accumulator producing a [`WorkloadFingerprint`].
#[derive(Debug, Clone)]
pub struct FingerprintAccum {
    counts: Vec<u64>,
    arrivals: u64,
    last_cycle: u64,
    prev_cycle: Option<u64>,
    gap_sum: f64,
    gap_sumsq: f64,
}

impl FingerprintAccum {
    /// An empty accumulator over `functions` distinct indices.
    pub fn new(functions: usize) -> Self {
        FingerprintAccum {
            counts: vec![0; functions],
            arrivals: 0,
            last_cycle: 0,
            prev_cycle: None,
            gap_sum: 0.0,
            gap_sumsq: 0.0,
        }
    }

    /// Folds one arrival in. Arrivals must be observed in stream order.
    ///
    /// # Panics
    ///
    /// Panics if the arrival's function index is out of range.
    pub fn observe(&mut self, arrival: Arrival) {
        let f = arrival.function as usize;
        assert!(f < self.counts.len(), "function {f} out of range {}", self.counts.len());
        self.counts[f] += 1;
        self.arrivals += 1;
        if let Some(prev) = self.prev_cycle {
            let gap = arrival.cycle.saturating_sub(prev) as f64;
            self.gap_sum += gap;
            self.gap_sumsq += gap * gap;
        }
        self.prev_cycle = Some(arrival.cycle);
        self.last_cycle = arrival.cycle;
    }

    /// Per-function arrival counts observed so far (indexed by function).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The fingerprint of everything observed so far.
    pub fn finish(&self) -> WorkloadFingerprint {
        let gaps = self.arrivals.saturating_sub(1) as f64;
        let (interarrival_cv2, rate_per_mcycle) = if gaps >= 1.0 && self.gap_sum > 0.0 {
            let mean = self.gap_sum / gaps;
            // Population variance, clamped: float cancellation can leave
            // a tiny negative residue for near-constant gaps.
            let var = (self.gap_sumsq / gaps - mean * mean).max(0.0);
            (var / (mean * mean), 1.0e6 / mean)
        } else {
            (0.0, 0.0)
        };

        let mut sorted: Vec<u64> = self.counts.iter().copied().filter(|&c| c > 0).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total = self.arrivals as f64;
        let share = |k: usize| -> f64 {
            if self.arrivals == 0 {
                0.0
            } else {
                sorted.iter().take(k).sum::<u64>() as f64 / total
            }
        };

        WorkloadFingerprint {
            arrivals: self.arrivals,
            functions: self.counts.len(),
            horizon_cycles: self.last_cycle,
            rate_per_mcycle,
            interarrival_cv2,
            zipf_s_hat: zipf_fit(&sorted),
            top1_share: share(1),
            top5_share: share(5),
        }
    }
}

/// Least-squares fit of `ln(count) = a - s·ln(rank)` over the non-zero
/// popularity ranking (rank 1 = most popular); returns the exponent `s`,
/// or 0 for fewer than two ranks. A flat (all-equal) distribution fits
/// s = 0; the default Zipf(s=1) workload fits close to 1.
fn zipf_fit(sorted_desc: &[u64]) -> f64 {
    if sorted_desc.len() < 2 {
        return 0.0;
    }
    let n = sorted_desc.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for (i, &c) in sorted_desc.iter().enumerate() {
        let x = ((i + 1) as f64).ln();
        let y = (c as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    if denom <= 0.0 {
        return 0.0;
    }
    -((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_workloads::{ArrivalConfig, Trace};

    fn fingerprint_of(cfg: &ArrivalConfig) -> WorkloadFingerprint {
        let trace = Trace::from_source(&mut cfg.source());
        let mut accum = FingerprintAccum::new(trace.functions);
        for &a in &trace.arrivals {
            accum.observe(a);
        }
        accum.finish()
    }

    #[test]
    fn empty_stream_fingerprint_is_zeroed() {
        let fp = FingerprintAccum::new(8).finish();
        assert_eq!(fp.arrivals, 0);
        assert_eq!(fp.functions, 8);
        assert_eq!(fp.horizon_cycles, 0);
        assert_eq!(fp.rate_per_mcycle, 0.0);
        assert_eq!(fp.interarrival_cv2, 0.0);
        assert_eq!(fp.zipf_s_hat, 0.0);
        assert_eq!(fp.top1_share, 0.0);
        assert_eq!(fp.top5_share, 0.0);
    }

    /// Audit pin: with fewer than two arrivals there are no gaps, so
    /// the CV² branch must stay on its guarded zero path — no NaN from
    /// a 0/0 mean and no division by a zero gap count.
    #[test]
    fn single_arrival_yields_finite_zero_cv2_and_rate() {
        let mut accum = FingerprintAccum::new(4);
        accum.observe(Arrival { cycle: 123, function: 2 });
        let fp = accum.finish();
        assert_eq!(fp.arrivals, 1);
        assert_eq!(fp.interarrival_cv2, 0.0);
        assert_eq!(fp.rate_per_mcycle, 0.0);
        assert!(fp.interarrival_cv2.is_finite() && fp.rate_per_mcycle.is_finite());
        // Two simultaneous arrivals make one zero-width gap: gap_sum is
        // 0, so the same guard must hold the zero path.
        accum.observe(Arrival { cycle: 123, function: 2 });
        let fp = accum.finish();
        assert_eq!(fp.interarrival_cv2, 0.0);
        assert_eq!(fp.rate_per_mcycle, 0.0);
    }

    /// Audit pin: a stream that only ever invokes one function gives
    /// the least-squares Zipf fit a single rank — the `len() < 2` guard
    /// must return 0 rather than divide by a zero ln-rank variance.
    #[test]
    fn single_distinct_function_fits_zipf_zero() {
        let mut accum = FingerprintAccum::new(8);
        for i in 0..50u64 {
            accum.observe(Arrival { cycle: i * 1_000, function: 3 });
        }
        let fp = accum.finish();
        assert_eq!(fp.zipf_s_hat, 0.0);
        assert!(fp.zipf_s_hat.is_finite());
        assert_eq!(fp.top1_share, 1.0);
    }

    #[test]
    fn poisson_stream_has_cv2_near_one_and_matching_rate() {
        let cfg = ArrivalConfig {
            rate_per_mcycle: 80.0,
            horizon_cycles: 40_000_000,
            ..ArrivalConfig::default()
        };
        let fp = fingerprint_of(&cfg);
        assert!(fp.arrivals > 2_000, "arrivals {}", fp.arrivals);
        assert!((fp.interarrival_cv2 - 1.0).abs() < 0.15, "cv2 {}", fp.interarrival_cv2);
        assert!((fp.rate_per_mcycle - 80.0).abs() < 8.0, "rate {}", fp.rate_per_mcycle);
    }

    #[test]
    fn zipf_fit_recovers_exponent_roughly() {
        let skewed = fingerprint_of(&ArrivalConfig {
            zipf_s: 1.5,
            rate_per_mcycle: 100.0,
            horizon_cycles: 40_000_000,
            ..ArrivalConfig::default()
        });
        let flat = fingerprint_of(&ArrivalConfig {
            zipf_s: 0.0,
            rate_per_mcycle: 100.0,
            horizon_cycles: 40_000_000,
            ..ArrivalConfig::default()
        });
        assert!(skewed.zipf_s_hat > 1.0, "skewed fit {}", skewed.zipf_s_hat);
        assert!(flat.zipf_s_hat < 0.3, "flat fit {}", flat.zipf_s_hat);
        assert!(skewed.top1_share > flat.top1_share);
    }

    #[test]
    fn shares_are_ordered_and_bounded() {
        let fp = fingerprint_of(&ArrivalConfig::default());
        assert!(fp.top1_share > 0.0 && fp.top1_share <= fp.top5_share);
        assert!(fp.top5_share <= 1.0);
    }
}
