//! Per-invocation and aggregated measurement results.

use ignite_core::ReplayStats;
use ignite_uarch::stats::mpki;

use crate::topdown::TopDown;

/// Memory-bandwidth breakdown (paper Fig. 10 categories).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Instruction bytes from DRAM that served (or will serve) the
    /// committed path.
    pub useful_instruction_bytes: u64,
    /// Instruction bytes from DRAM fetched on the wrong path.
    pub useless_instruction_bytes: u64,
    /// Record metadata streamed to memory (Ignite + Jukebox).
    pub record_metadata_bytes: u64,
    /// Replay metadata streamed from memory (Ignite + Jukebox).
    pub replay_metadata_bytes: u64,
}

impl Traffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.useful_instruction_bytes
            + self.useless_instruction_bytes
            + self.record_metadata_bytes
            + self.replay_metadata_bytes
    }

    /// Merges another breakdown.
    pub fn merge(&mut self, other: &Traffic) {
        self.useful_instruction_bytes += other.useful_instruction_bytes;
        self.useless_instruction_bytes += other.useless_instruction_bytes;
        self.record_metadata_bytes += other.record_metadata_bytes;
        self.replay_metadata_bytes += other.replay_metadata_bytes;
    }
}

/// Ignite restore accuracy, one structure's worth (paper Fig. 9c rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreAccuracy {
    /// Misses covered by restoration (restored state that was used).
    pub covered: u64,
    /// Misses that still occurred.
    pub uncovered: u64,
    /// Restored state that was never used (or actively harmful).
    pub overpredicted: u64,
}

impl RestoreAccuracy {
    /// Merges counts.
    pub fn merge(&mut self, other: &RestoreAccuracy) {
        self.covered += other.covered;
        self.uncovered += other.uncovered;
        self.overpredicted += other.overpredicted;
    }
}

/// Everything measured over one (or several averaged) invocation(s).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvocationResult {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Top-Down cycle breakdown.
    pub topdown: TopDown,
    /// L1-I demand misses.
    pub l1i_misses: u64,
    /// BTB misses on taken branches plus stale-target resteers.
    pub btb_misses: u64,
    /// Conditional branch mispredictions.
    pub cbp_mispredictions: u64,
    /// Mispredictions on a branch's first execution this invocation.
    pub initial_mispredictions: u64,
    /// Mispredictions on later executions.
    pub subsequent_mispredictions: u64,
    /// Conditional branches executed.
    pub conditional_branches: u64,
    /// Front-end resteers (pipeline flushes).
    pub resteers: u64,
    /// Integer cycles the fetch stage stalled on the L1-I/ITLB — the
    /// exact provenance of the (fractional) FetchBound Top-Down bucket.
    /// `fetch_stall_cycles + resteer_penalty_cycles + execution` tiles
    /// `cycles` exactly, which the scope attribution invariant relies
    /// on.
    pub fetch_stall_cycles: u64,
    /// Integer cycles paid as resteer penalties (the BadSpeculation
    /// bucket's exact provenance).
    pub resteer_penalty_cycles: u64,
    /// ITLB page walks.
    pub itlb_walks: u64,
    /// Memory traffic breakdown.
    pub traffic: Traffic,
    /// Ignite restore accuracy for the L2 instruction prefetches.
    pub accuracy_l2: RestoreAccuracy,
    /// Ignite restore accuracy for the BTB.
    pub accuracy_btb: RestoreAccuracy,
    /// Ignite restore accuracy for the CBP (BIM initialization).
    pub accuracy_cbp: RestoreAccuracy,
    /// Ignite replay statistics, including the degradation counters
    /// (`decode_errors`, `entries_dropped`, `stale_restored`,
    /// `watchdog_abandons`) — zero when Ignite is not configured.
    pub replay: ReplayStats,
    /// Replay records that existed but were not consumed before the
    /// invocation ended (throttling or a short invocation cut replay off).
    pub replay_unfinished: u64,
}

impl InvocationResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// L1-I misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        mpki(self.l1i_misses, self.instructions)
    }

    /// BTB misses per kilo-instruction.
    pub fn btb_mpki(&self) -> f64 {
        mpki(self.btb_misses, self.instructions)
    }

    /// Conditional mispredictions per kilo-instruction.
    pub fn cbp_mpki(&self) -> f64 {
        mpki(self.cbp_mispredictions, self.instructions)
    }

    /// Initial mispredictions per kilo-instruction (Figs. 6, 9b).
    pub fn initial_mpki(&self) -> f64 {
        mpki(self.initial_mispredictions, self.instructions)
    }

    /// Subsequent mispredictions per kilo-instruction.
    pub fn subsequent_mpki(&self) -> f64 {
        mpki(self.subsequent_mispredictions, self.instructions)
    }

    /// Integer front-end penalty cycles: fetch stalls plus resteer
    /// penalties. Always `<= cycles`; the remainder is steady-state
    /// retire/back-end execution.
    pub fn front_end_stall_cycles(&self) -> u64 {
        self.fetch_stall_cycles + self.resteer_penalty_cycles
    }

    /// Sums another result into this one (for averaging across
    /// invocations).
    pub fn merge(&mut self, other: &InvocationResult) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.topdown.merge(&other.topdown);
        self.l1i_misses += other.l1i_misses;
        self.btb_misses += other.btb_misses;
        self.cbp_mispredictions += other.cbp_mispredictions;
        self.initial_mispredictions += other.initial_mispredictions;
        self.subsequent_mispredictions += other.subsequent_mispredictions;
        self.conditional_branches += other.conditional_branches;
        self.resteers += other.resteers;
        self.itlb_walks += other.itlb_walks;
        self.fetch_stall_cycles += other.fetch_stall_cycles;
        self.resteer_penalty_cycles += other.resteer_penalty_cycles;
        self.traffic.merge(&other.traffic);
        self.accuracy_l2.merge(&other.accuracy_l2);
        self.accuracy_btb.merge(&other.accuracy_btb);
        self.accuracy_cbp.merge(&other.accuracy_cbp);
        self.replay.merge(&other.replay);
        self.replay_unfinished += other.replay_unfinished;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvocationResult {
        InvocationResult {
            instructions: 10_000,
            cycles: 20_000,
            l1i_misses: 370,
            btb_misses: 130,
            cbp_mispredictions: 210,
            ..InvocationResult::default()
        }
    }

    #[test]
    fn derived_rates() {
        let r = sample();
        assert!((r.cpi() - 2.0).abs() < 1e-12);
        assert!((r.l1i_mpki() - 37.0).abs() < 1e-12);
        assert!((r.btb_mpki() - 13.0).abs() < 1e-12);
        assert!((r.cbp_mpki() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn zero_instructions_safe() {
        let r = InvocationResult::default();
        assert_eq!(r.cpi(), 0.0);
        assert_eq!(r.l1i_mpki(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.instructions, 20_000);
        assert_eq!(a.l1i_misses, 740);
        // Rates are invariant under merging identical results.
        assert!((a.l1i_mpki() - 37.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_total() {
        let t = Traffic {
            useful_instruction_bytes: 100,
            useless_instruction_bytes: 50,
            record_metadata_bytes: 10,
            replay_metadata_bytes: 20,
        };
        assert_eq!(t.total(), 180);
    }
}
