//! The synthetic arrival process: a Markov-modulated Poisson process
//! (MMPP), realized by Lewis–Shedler thinning.
//!
//! The rate is `λ(t) = base_rate · m(t)`, where `m(t)` is the rate
//! multiplier of the chain's state at `t`. A homogeneous Poisson
//! candidate stream runs at the envelope rate `base_rate · max(m)`, and
//! each candidate at time `t` is accepted with probability
//! `m(t) / max(m)`. States dwell for exponential times and advance
//! cyclically, so the chain is reproducible from the seed alone.
//!
//! Determinism: candidate times, acceptance draws, and function draws
//! all come from one forked stream (label `"TRAF"`), the chain's dwell
//! draws from another (label `"MMPP"`), so the arrival stream is a pure
//! function of (seed, spec, horizon).

use ignite_uarch::rng::SplitMix64;
use ignite_workloads::arrival::pick_function;
use ignite_workloads::{Arrival, ArrivalConfig, ArrivalSource};

/// Fork label for the candidate/acceptance/function draw stream.
const TRAFFIC_STREAM: u64 = 0x54_52_41_46; // "TRAF"
/// Fork label for the MMPP state-dwell stream.
const MMPP_STREAM: u64 = 0x4D_4D_50_50; // "MMPP"

/// Exponential draw with the given mean; `next_f64` is in `[0, 1)` so
/// the log argument stays in `(0, 1]`.
fn exponential(rng: &mut SplitMix64, mean: f64) -> f64 {
    -mean * (1.0 - rng.next_f64()).ln()
}

/// A Markov-modulated Poisson [`ArrivalSource`]: state `i` multiplies
/// the base rate by `mults[i]` and dwells for an exponential time with
/// mean `dwells[i]` cycles; states advance cyclically (`i → i+1 mod K`)
/// from state 0. Each accepted arrival draws its function from the Zipf
/// table. O(1) state regardless of stream length.
#[derive(Debug, Clone)]
pub struct MmppSource {
    functions: usize,
    cumulative: Vec<f64>,
    envelope_gap: f64,
    max_mult: f64,
    horizon: f64,
    mults: Vec<f64>,
    dwells: Vec<f64>,
    state: usize,
    next_transition: f64,
    /// The `"TRAF"` stream: candidate gaps, acceptance and function draws.
    rng: SplitMix64,
    /// The `"MMPP"` stream: dwell draws.
    chain_rng: SplitMix64,
    t: f64,
    done: bool,
}

impl MmppSource {
    /// Builds the source: base rate, Zipf skew, horizon, and seed come
    /// from `cfg`; the chain's per-state multipliers and mean dwell
    /// cycles from `mults` and `dwells`.
    ///
    /// # Panics
    ///
    /// Panics if the lists are empty or differ in length, on a negative
    /// or non-finite multiplier, a non-positive or non-finite dwell, if
    /// every multiplier is zero, on a non-positive or non-finite base
    /// rate, or on the [`ArrivalConfig::zipf_cumulative`] conditions.
    pub fn new(cfg: &ArrivalConfig, mults: Vec<f64>, dwells: Vec<f64>) -> Self {
        assert!(!mults.is_empty(), "MMPP needs at least one state");
        assert_eq!(mults.len(), dwells.len(), "MMPP mults/dwells length mismatch");
        assert!(mults.iter().all(|m| m.is_finite() && *m >= 0.0), "bad MMPP mults {mults:?}");
        assert!(dwells.iter().all(|d| d.is_finite() && *d > 0.0), "bad MMPP dwells {dwells:?}");
        let max_mult = Self::peak_multiplier(&mults);
        assert!(max_mult > 0.0, "MMPP needs a state with positive rate");
        let rate = cfg.rate_per_mcycle;
        assert!(rate > 0.0 && rate.is_finite(), "bad rate {rate}");
        let mut chain_rng = SplitMix64::new(cfg.seed).fork(MMPP_STREAM);
        let next_transition = exponential(&mut chain_rng, dwells[0]);
        MmppSource {
            functions: cfg.functions,
            cumulative: cfg.zipf_cumulative(),
            envelope_gap: 1.0e6 / (rate * max_mult),
            max_mult,
            horizon: cfg.horizon_cycles as f64,
            mults,
            dwells,
            state: 0,
            next_transition,
            rng: SplitMix64::new(cfg.seed).fork(TRAFFIC_STREAM),
            chain_rng,
            t: 0.0,
            done: false,
        }
    }

    /// The largest of `mults`: the factor the thinning envelope
    /// multiplies the base rate by.
    pub fn peak_multiplier(mults: &[f64]) -> f64 {
        mults.iter().copied().fold(0.0, f64::max)
    }
}

impl ArrivalSource for MmppSource {
    fn functions(&self) -> usize {
        self.functions
    }

    /// Per candidate: the gap at the envelope rate, then the acceptance
    /// draw, then the dwell draws of every transition the candidate time
    /// crosses, then, for an accepted candidate only, the function draw.
    fn next_arrival(&mut self) -> Option<Arrival> {
        while !self.done {
            self.t += exponential(&mut self.rng, self.envelope_gap);
            if self.t >= self.horizon {
                self.done = true;
                break;
            }
            let accept = self.rng.next_f64();
            while self.t >= self.next_transition {
                self.state = (self.state + 1) % self.mults.len();
                self.next_transition += exponential(&mut self.chain_rng, self.dwells[self.state]);
            }
            // Thin: accept the candidate with probability m(t)/max(m).
            if accept * self.max_mult < self.mults[self.state] {
                let v = self.rng.next_f64();
                let function = pick_function(&self.cumulative, v);
                return Some(Arrival { cycle: self.t as u64, function });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_workloads::Trace;

    fn base_cfg() -> ArrivalConfig {
        ArrivalConfig {
            rate_per_mcycle: 50.0,
            horizon_cycles: 8_000_000,
            ..ArrivalConfig::default()
        }
    }

    fn default_mmpp(cfg: &ArrivalConfig) -> Vec<Arrival> {
        let mut source = MmppSource::new(cfg, vec![1.0, 6.0], vec![300_000.0, 60_000.0]);
        Trace::from_source(&mut source).arrivals
    }

    /// Absolute anchor for the MMPP stream, beside the Poisson one
    /// (`ignite_workloads::arrival`'s `default_trace_prefix_is_pinned`):
    /// the arrival count and first 16 `(cycle, function)` pairs of
    /// `mmpp:mults=1/6,dwells=300000/60000` over the default arrival
    /// configuration, recorded from the generic thinning source this one
    /// replaced (`cluster --emit-trace` at seeds 42 and 7919).
    #[test]
    fn mmpp_prefix_is_pinned() {
        type Pin = (u64, usize, [u64; 16], [u32; 16]);
        let pins: [Pin; 2] = [
            (
                42,
                389,
                [
                    1641, 50917, 66079, 66509, 73092, 75210, 99057, 125733, 130332, 144121, 148100,
                    172791, 207730, 208027, 210666, 271168,
                ],
                [0, 4, 0, 1, 6, 1, 2, 2, 7, 16, 1, 17, 0, 2, 1, 0],
            ),
            (
                7919,
                472,
                [
                    4399, 16579, 41489, 62098, 71723, 75284, 75816, 78067, 78071, 81494, 96967,
                    106802, 109532, 114111, 115588, 115603,
                ],
                [0, 2, 0, 0, 5, 8, 0, 2, 10, 4, 1, 1, 3, 7, 0, 1],
            ),
        ];
        for (seed, count, cycles, functions) in pins {
            let arrivals = default_mmpp(&ArrivalConfig { seed, ..ArrivalConfig::default() });
            assert_eq!(arrivals.len(), count, "seed {seed}");
            let head: Vec<(u64, u32)> = arrivals.iter().map(|a| (a.cycle, a.function)).collect();
            let pinned: Vec<(u64, u32)> = cycles.into_iter().zip(functions).collect();
            assert_eq!(head[..16], pinned, "seed {seed}");
        }
    }

    #[test]
    fn mmpp_same_seed_identical_stream() {
        let cfg = base_cfg();
        assert_eq!(default_mmpp(&cfg), default_mmpp(&cfg));
    }

    #[test]
    fn mmpp_different_seed_differs() {
        let a = default_mmpp(&base_cfg());
        let b = default_mmpp(&ArrivalConfig { seed: 43, ..base_cfg() });
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_ordered_and_in_range() {
        let cfg = base_cfg();
        let arrivals = default_mmpp(&cfg);
        assert!(!arrivals.is_empty());
        for pair in arrivals.windows(2) {
            assert!(pair[0].cycle <= pair[1].cycle);
        }
        assert!(arrivals.iter().all(|a| (a.function as usize) < cfg.functions));
        assert!(arrivals.iter().all(|a| a.cycle < cfg.horizon_cycles));
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // A 2-state chain alternating 1x/6x must raise the inter-arrival
        // CV² well above the Poisson value of 1.
        let cfg = ArrivalConfig { horizon_cycles: 60_000_000, ..base_cfg() };
        let arrivals = default_mmpp(&cfg);
        let gaps: Vec<f64> =
            arrivals.windows(2).map(|p| (p[1].cycle - p[0].cycle) as f64).collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
        let cv2 = var / (mean * mean);
        assert!(cv2 > 1.3, "cv2 {cv2} not bursty");
    }

    #[test]
    #[should_panic(expected = "MMPP mults/dwells length mismatch")]
    fn mmpp_rejects_length_mismatch() {
        MmppSource::new(&base_cfg(), vec![1.0, 2.0], vec![100.0]);
    }
}
