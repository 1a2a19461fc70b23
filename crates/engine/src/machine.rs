//! The simulated machine: microarchitectural structures plus the selected
//! prefetching/restoration mechanisms.

use std::collections::VecDeque;

use ignite_core::Ignite;
use ignite_prefetch::boomerang::Boomerang;
use ignite_prefetch::branch_index::{BranchIndex, PredecodedBranch};
use ignite_prefetch::confluence::Confluence;
use ignite_prefetch::jukebox::Jukebox;
use ignite_prefetch::next_line::NextLine;
use ignite_uarch::btb::Btb;
use ignite_uarch::cbp::Cbp;
use ignite_uarch::hierarchy::Hierarchy;
use ignite_uarch::ras::Ras;
use ignite_uarch::rng::SplitMix64;
use ignite_uarch::tlb::Itlb;
use ignite_uarch::{Cycle, UarchConfig};
use ignite_workloads::cfg::{CodeImage, Terminator};
use ignite_workloads::suite::SuiteFunction;
use ignite_workloads::trace::WalkTables;

use crate::config::FrontEndConfig;
use crate::sim::Pending;

/// A workload bound to the simulator: the code image plus the predecode
/// oracle built from it.
#[derive(Debug, Clone)]
pub struct PreparedFunction {
    /// The synthetic code image.
    pub image: CodeImage,
    /// Line-granular predecode index (Boomerang/Confluence BTB fill).
    pub branch_index: BranchIndex,
    /// Container id (keys per-container metadata).
    pub container: u64,
    /// Dynamic instructions per invocation.
    pub invocation_instrs: u64,
    /// Data working set for the back-end stall model, in cache lines.
    pub data_ws_lines: u64,
    /// Per-branch-site divergence probability between invocations
    /// (see [`ignite_workloads::trace::DEFAULT_NOISE`]).
    pub noise: f64,
}

impl PreparedFunction {
    /// Prepares a suite function for simulation.
    pub fn from_suite(f: &SuiteFunction, container: u64) -> Self {
        PreparedFunction {
            branch_index: build_branch_index(&f.image),
            image: f.image.clone(),
            container,
            invocation_instrs: f.profile.invocation_instrs,
            data_ws_lines: f.profile.data_ws_lines,
            noise: ignite_workloads::trace::DEFAULT_NOISE,
        }
    }

    /// Prepares an arbitrary image (custom workloads).
    pub fn from_image(image: CodeImage, container: u64, invocation_instrs: u64) -> Self {
        PreparedFunction {
            branch_index: build_branch_index(&image),
            image,
            container,
            invocation_instrs,
            data_ws_lines: 1024,
            noise: ignite_workloads::trace::DEFAULT_NOISE,
        }
    }
}

/// Builds the predecode oracle for an image: every static branch, with the
/// statically-knowable target (direct branches and calls only).
pub fn build_branch_index(image: &CodeImage) -> BranchIndex {
    let branches = image.blocks().iter().map(|b| {
        let static_target = match &b.term {
            Terminator::Cond { target, .. } | Terminator::Jump { target } => {
                Some(image.block(*target).start)
            }
            Terminator::Call { callee } => {
                let entry = image.functions()[*callee as usize].first_block;
                Some(image.block(entry).start)
            }
            Terminator::Ret | Terminator::Indirect { .. } => None,
        };
        PredecodedBranch { pc: b.branch_pc(), kind: b.term.branch_kind(), static_target }
    });
    BranchIndex::from_branches(branches)
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Hardware parameters (paper Table 2).
    pub uarch: UarchConfig,
    /// Selected front-end configuration.
    pub fe: FrontEndConfig,
    /// Instruction memory hierarchy.
    pub hierarchy: Hierarchy,
    /// Instruction TLB.
    pub itlb: Itlb,
    /// Branch target buffer.
    pub btb: Btb,
    /// Conditional branch predictor (bimodal + TAGE).
    pub cbp: Cbp,
    /// Return address stack.
    pub ras: Ras,
    /// Always-on next-line prefetcher (§5.3).
    pub nl: NextLine,
    /// Boomerang BTB prefiller, if selected.
    pub boomerang: Option<Boomerang>,
    /// Jukebox record/replay, if selected.
    pub jukebox: Option<Jukebox>,
    /// Confluence temporal streaming, if selected.
    pub confluence: Option<Confluence>,
    /// Ignite record/replay restoration, if selected.
    pub ignite: Option<Ignite>,
    /// Global clock (persists across invocations).
    pub now: Cycle,
    flush_rng: SplitMix64,
    /// The trace walker's tables, lent to each invocation's walk.
    pub(crate) walk_tables: WalkTables,
    /// The lookahead (FTQ) buffer, lent to each invocation; empty
    /// between invocations.
    pub(crate) ftq: VecDeque<Pending>,
}

/// Degree of the always-on next-line prefetcher.
const NL_DEGREE: usize = 2;
/// Seed of the lukewarm protocol's BIM randomization.
const FLUSH_SEED: u64 = 0xF1A5_60D5;

impl Machine {
    /// Builds a cold machine for a front-end configuration.
    pub fn new(uarch: &UarchConfig, fe: &FrontEndConfig) -> Self {
        Machine {
            uarch: *uarch,
            fe: fe.clone(),
            hierarchy: Hierarchy::new(&uarch.hierarchy),
            itlb: Itlb::new(&uarch.itlb),
            btb: Btb::new(&uarch.btb),
            cbp: Cbp::new(&uarch.cbp),
            ras: Ras::new(&uarch.ras),
            nl: NextLine::new(NL_DEGREE),
            boomerang: fe.select.boomerang.then(Boomerang::default),
            jukebox: fe.select.jukebox.then(Jukebox::default),
            confluence: fe.select.confluence.then(Confluence::default),
            ignite: fe.select.ignite.map(Ignite::new),
            now: 0,
            flush_rng: SplitMix64::new(FLUSH_SEED),
            walk_tables: WalkTables::default(),
            ftq: VecDeque::new(),
        }
    }

    /// Returns the machine to exactly its [`Machine::new`] state for the
    /// same configuration — a core restarting cold after a crash —
    /// without reallocating the large tables: the caches forget their
    /// lines by generation, and the BTB and predictors are rewritten in
    /// place. The small parts are rebuilt, which also drops every
    /// mechanism's per-container metadata. The per-invocation buffers are
    /// kept: a walk clears its tables before reading them, and the FTQ
    /// is empty between invocations.
    pub fn reset(&mut self) {
        self.hierarchy.reset();
        self.itlb.reset();
        self.btb.reset();
        self.cbp.reset();
        self.ras = Ras::new(&self.uarch.ras);
        self.nl = NextLine::new(NL_DEGREE);
        self.boomerang = self.fe.select.boomerang.then(Boomerang::default);
        self.jukebox = self.fe.select.jukebox.then(Jukebox::default);
        self.confluence = self.fe.select.confluence.then(Confluence::default);
        self.ignite = self.fe.select.ignite.map(Ignite::new);
        self.now = 0;
        self.flush_rng = SplitMix64::new(FLUSH_SEED);
    }

    /// Applies the configured cross-invocation state policy: the lukewarm
    /// protocol flushes caches, ITLB, BTB and TAGE and overwrites the
    /// bimodal tables with random state (§5.3); warm-state studies preserve
    /// selected structures.
    pub fn between_invocations(&mut self) {
        let p = self.fe.policy;
        if !p.warm_caches {
            self.hierarchy.flush_all();
            self.itlb.flush();
        }
        if !p.warm_btb {
            self.btb.flush();
        }
        // The RAS is architectural per-context state; a context switch
        // always empties it (it refills within a few calls).
        self.ras.flush();
        if !p.warm_tage {
            self.cbp.flush_tagged();
        }
        if !p.warm_bim {
            self.cbp.bimodal_mut().randomize(&mut self.flush_rng);
        }
        if let Some(b) = &mut self.boomerang {
            b.reset();
        }
        // Confluence keeps its metadata; only stream state resets.
        if let Some(c) = &mut self.confluence {
            c.end_invocation();
        }
    }

    /// Prepares the machine for an invocation of a *different* context on
    /// the same core, without flushing any microarchitectural state.
    ///
    /// This is the cluster scheduler's dispatch path: caches, BTB and
    /// predictors keep whatever the previous invocations left behind, so
    /// lukewarmness emerges from interleaving rather than from a scripted
    /// flush. Only architectural per-context state changes hands — the RAS
    /// empties (it refills within a few calls), and per-invocation stream
    /// state in Boomerang/Confluence resets exactly as
    /// [`Machine::between_invocations`] does.
    pub fn context_switch(&mut self) {
        self.ras.flush();
        if let Some(b) = &mut self.boomerang {
            b.reset();
        }
        if let Some(c) = &mut self.confluence {
            c.end_invocation();
        }
    }

    /// Resets all measurement statistics (start of a measured invocation).
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.btb.reset_stats();
        self.cbp.reset_stats();
        self.itlb.reset_stats();
        self.nl.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::InvocationResult;
    use crate::sim::{run_invocation_obs, InvocationCtx};
    use ignite_obs::{Event, TraceBuffer, Track};
    use ignite_uarch::addr::Addr;
    use ignite_workloads::gen::{generate, GenParams};
    use ignite_workloads::suite::Suite;

    #[test]
    fn prepared_function_indexes_every_block() {
        let suite = Suite::paper_suite_scaled(0.02);
        let f = PreparedFunction::from_suite(&suite.functions()[0], 0);
        assert_eq!(f.branch_index.len(), f.image.static_branches());
    }

    #[test]
    fn branch_index_targets_match_cfg() {
        let suite = Suite::paper_suite_scaled(0.02);
        let f = PreparedFunction::from_suite(&suite.functions()[0], 0);
        for block in f.image.blocks() {
            let b = f.branch_index.branch_at(block.branch_pc()).expect("indexed");
            match &block.term {
                Terminator::Ret | Terminator::Indirect { .. } => {
                    assert!(b.static_target.is_none());
                }
                _ => assert!(b.static_target.is_some()),
            }
        }
    }

    #[test]
    fn machine_constructs_selected_mechanisms() {
        let uarch = UarchConfig::tiny_for_tests();
        let m = Machine::new(&uarch, &FrontEndConfig::boomerang_jukebox());
        assert!(m.boomerang.is_some());
        assert!(m.jukebox.is_some());
        assert!(m.confluence.is_none());
        assert!(m.ignite.is_none());
    }

    #[test]
    fn lukewarm_flush_clears_structures() {
        let uarch = UarchConfig::tiny_for_tests();
        let mut m = Machine::new(&uarch, &FrontEndConfig::nl());
        m.hierarchy.fetch(Addr::new(0x1000), 0);
        m.btb.insert(
            ignite_uarch::btb::BtbEntry::new(
                Addr::new(0x10),
                Addr::new(0x20),
                ignite_uarch::btb::BranchKind::Call,
            ),
            false,
        );
        m.between_invocations();
        assert!(!m.hierarchy.probe_l1i(Addr::new(0x1000)));
        assert!(m.btb.probe(Addr::new(0x10)).is_none());
    }

    #[test]
    fn back_to_back_policy_preserves_state() {
        let uarch = UarchConfig::tiny_for_tests();
        let fe =
            FrontEndConfig::nl().with_policy("warm", crate::config::StatePolicy::back_to_back());
        let mut m = Machine::new(&uarch, &fe);
        m.hierarchy.fetch(Addr::new(0x1000), 0);
        m.between_invocations();
        assert!(m.hierarchy.probe_l1i(Addr::new(0x1000)));
    }

    /// Runs `invocations` invocations, alternating the lukewarm flush and
    /// a context switch between them, and returns every result and every
    /// event they emit.
    fn drive(
        m: &mut Machine,
        f: &PreparedFunction,
        invocations: u64,
    ) -> (Vec<InvocationResult>, Vec<Event>) {
        let mut sink = TraceBuffer::new(1 << 20);
        let results = (0..invocations)
            .map(|i| {
                if i % 2 == 1 {
                    m.between_invocations();
                } else if i > 0 {
                    m.context_switch();
                }
                let ctx = InvocationCtx::default();
                run_invocation_obs(m, f, i, ctx, &mut sink, Track::Core(0), 0)
            })
            .collect();
        assert_eq!(sink.dropped(), 0, "trace buffer overflowed");
        (results, sink.iter().copied().collect())
    }

    /// A reset machine behaves exactly like a fresh one: same results and
    /// same event stream, for each of the ten front-ends
    /// `tests/golden_results.rs` pins.
    #[test]
    fn reset_machine_matches_a_fresh_machine() {
        let mut p = GenParams::example("reset-test");
        p.target_branches = 300;
        p.target_code_bytes = 12 * 1024;
        let f = PreparedFunction::from_image(generate(&p), 3, 8_000);
        let uarch = UarchConfig::tiny_for_tests();
        for fe in [
            FrontEndConfig::nl(),
            FrontEndConfig::jukebox(),
            FrontEndConfig::boomerang(),
            FrontEndConfig::boomerang_jukebox(),
            FrontEndConfig::ignite(),
            FrontEndConfig::ignite_tage(),
            FrontEndConfig::ideal(),
            FrontEndConfig::confluence(),
            FrontEndConfig::confluence_ignite(),
            FrontEndConfig::ignite_boomerang(),
        ] {
            let mut used = Machine::new(&uarch, &fe);
            drive(&mut used, &f, 3);
            used.reset();
            let mut fresh = Machine::new(&uarch, &fe);
            assert!(
                drive(&mut used, &f, 4) == drive(&mut fresh, &f, 4),
                "{}: a reset machine diverged from a fresh one",
                fe.name
            );
        }
    }

    #[test]
    fn bim_randomization_is_deterministic_per_machine() {
        let uarch = UarchConfig::tiny_for_tests();
        let mut a = Machine::new(&uarch, &FrontEndConfig::nl());
        let mut b = Machine::new(&uarch, &FrontEndConfig::nl());
        a.between_invocations();
        b.between_invocations();
        // Same flush RNG seed => same randomized BIM state.
        for i in 0..64u64 {
            let pc = Addr::new(0x100 + i * 4);
            assert_eq!(a.cbp.bimodal().predict(pc), b.cbp.bimodal().predict(pc));
        }
    }
}
