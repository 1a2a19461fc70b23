//! Dynamic tracing: a deterministic seeded walk of a [`CodeImage`].
//!
//! One [`TraceWalker`] models one *invocation* of the serverless function:
//! it enters the image's functions in a fixed, image-derived root order
//! (modelling the runtime's request-handling phases) and walks the CFG,
//! resolving conditional biases and indirect fans with an invocation-seeded
//! RNG. Two invocations of the same image therefore execute highly — but
//! not perfectly — similar control flow, which is the property Ignite's
//! record/replay exploits (§6.2 "high commonality").

use std::collections::HashSet;

use ignite_uarch::addr::{Addr, LINE_BYTES};
use ignite_uarch::btb::BranchKind;
use ignite_uarch::rng::SplitMix64;

use crate::cfg::{CodeImage, Terminator};

/// Maximum modelled call depth; deeper calls are treated as immediately
/// returning (documented walker simplification).
const MAX_CALL_DEPTH: usize = 128;

/// The branch executed at the end of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutedBranch {
    /// Address of the branch instruction.
    pub pc: Addr,
    /// Branch classification.
    pub kind: BranchKind,
    /// Whether the branch was taken on this execution.
    pub taken: bool,
    /// The architectural target: where the branch goes *when taken* (for
    /// returns, the dynamic return address).
    pub target: Addr,
}

/// One dynamic basic-block execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockExec {
    /// Address of the first instruction.
    pub start: Addr,
    /// Code bytes fetched for the block.
    pub bytes: u32,
    /// Instructions executed.
    pub instrs: u32,
    /// The terminating branch.
    pub branch: ExecutedBranch,
}

impl BlockExec {
    /// Address of the first byte after the block.
    pub fn fallthrough(&self) -> Addr {
        self.start + u64::from(self.bytes)
    }

    /// The address control flow actually continued at.
    pub fn next_pc(&self) -> Addr {
        if self.branch.taken {
            self.branch.target
        } else {
            self.fallthrough()
        }
    }
}

/// Memoized structural behaviour of one conditional branch site.
///
/// Every variant is a pure function of `(image_seed, block)`, so it is
/// derived once per walk and replayed from the memo instead of reseeding
/// an RNG per execution.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// Loop back-edge trip pattern (period 4 or 8, guaranteed exit bit).
    Loop { bits: u8, period: u8 },
    /// Direction fixed for the whole invocation.
    Fixed { taken: bool },
    /// 8-bit periodic direction pattern.
    Periodic { bits: u8 },
    /// Direction fixed per (branch, caller) pair; resolved at execution
    /// time from the call stack and a seed re-derived from the block.
    Context,
}

/// Per-block memo: the invocation-fixed deviation bit plus the site's
/// behaviour. 12 bytes, and so is `Option<BlockMemo>`: the memo table
/// holds one per block of the image.
#[derive(Debug, Clone, Copy)]
enum BlockMemo {
    /// A conditional branch and its direction pattern.
    Cond { deviates: bool, pattern: Pattern },
    /// An indirect dispatch: the target index for each phase of its
    /// period of two executions (equal for a monomorphic site).
    Indirect { deviates: bool, idx: [u32; 2] },
}

// The memo table's per-block cost, as documented on `BlockMemo`.
const _: () = assert!(std::mem::size_of::<Option<BlockMemo>>() == 12);

/// A walk's working memory: the call stack, the root order, and one
/// execution count and one memo entry per block of the image.
///
/// [`TraceWalker::new`] and [`TraceWalker::with_noise`] build fresh tables
/// for each walk. A caller that walks many invocations (the simulation
/// engine keeps one per machine) lends the same tables to each walk with
/// [`TraceWalker::with_tables`] and takes them back with
/// [`TraceWalker::into_tables`], so once they have grown to the largest
/// image walked a walk allocates nothing. Each walk clears them first;
/// they never shrink.
#[derive(Debug, Clone, Default)]
pub struct WalkTables {
    /// Return-to block indices (global).
    stack: Vec<u32>,
    /// Function visit order; stable across invocations of the same image.
    roots: Vec<u32>,
    /// Per-block dynamic execution counters (pattern phase).
    exec_counts: Vec<u32>,
    /// Lazily classified per-block behaviour (conditional and indirect
    /// sites only).
    memo: Vec<Option<BlockMemo>>,
}

/// Iterator over the dynamic basic blocks of one invocation.
///
/// # Example
///
/// ```
/// use ignite_workloads::gen::{generate, GenParams};
/// use ignite_workloads::trace::TraceWalker;
///
/// let image = generate(&GenParams::example("doc"));
/// let blocks: Vec<_> = TraceWalker::new(&image, 0, 1_000).collect();
/// let instrs: u64 = blocks.iter().map(|b| u64::from(b.instrs)).sum();
/// assert!(instrs >= 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct TraceWalker<'a> {
    image: &'a CodeImage,
    image_seed: u64,
    invocation_seed: u64,
    /// Probability that a branch *site* deviates from its structural
    /// behaviour for the whole invocation (cross-invocation divergence).
    noise: f64,
    budget_instrs: u64,
    emitted_instrs: u64,
    current: Option<u32>,
    root_pos: usize,
    tables: WalkTables,
    truncated_calls: u64,
}

/// Default per-branch-site deviation probability between invocations.
///
/// Small, matching the high cross-invocation commonality the paper measures
/// (§6.2: ~1-4% of restored state is unused). A deviating site behaves
/// differently for the *whole* invocation — the way a request that takes a
/// different path exercises different branches — rather than flipping
/// randomly per execution.
pub const DEFAULT_NOISE: f64 = 0.03;

impl<'a> TraceWalker<'a> {
    /// Creates a walker for invocation number `invocation` with the given
    /// dynamic instruction budget and the default divergence
    /// ([`DEFAULT_NOISE`]).
    ///
    /// Branch outcomes follow short per-branch *patterns* derived from the
    /// image structure — the way real branches repeat their behaviour across
    /// loop iterations and invocations — perturbed per invocation with a
    /// small noise probability. Two invocations therefore share most, but
    /// not all, of their control flow, and history predictors (TAGE) can
    /// learn the patterns.
    pub fn new(image: &'a CodeImage, invocation: u64, budget_instrs: u64) -> Self {
        TraceWalker::with_noise(image, invocation, budget_instrs, DEFAULT_NOISE)
    }

    /// Creates a walker with an explicit divergence probability.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is outside `[0, 1]`.
    pub fn with_noise(
        image: &'a CodeImage,
        invocation: u64,
        budget_instrs: u64,
        noise: f64,
    ) -> Self {
        TraceWalker::with_tables(image, invocation, budget_instrs, noise, WalkTables::default())
    }

    /// Like [`TraceWalker::with_noise`], walking in `tables` (cleared
    /// first) instead of fresh ones; [`TraceWalker::into_tables`] hands
    /// them back. The walk is the same whatever the tables held before.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is outside `[0, 1]`.
    pub fn with_tables(
        image: &'a CodeImage,
        invocation: u64,
        budget_instrs: u64,
        noise: f64,
        mut tables: WalkTables,
    ) -> Self {
        assert!((0.0..=1.0).contains(&noise), "noise must be a probability");
        // Image-stable root order: a seeded shuffle of all functions with
        // the entry function first.
        let image_seed = image.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        // The call stack needs no clearing here: the first block of every
        // walk is a root, whose entry clears it.
        let WalkTables { roots, exec_counts, memo, .. } = &mut tables;
        let mut order_rng = SplitMix64::new(image_seed);
        roots.clear();
        roots.extend(image.live_functions());
        for i in (1..roots.len()).rev() {
            let j = order_rng.next_below(i as u64 + 1) as usize;
            roots.swap(i, j);
        }
        if let Some(pos) = roots.iter().position(|&f| f == image.entry_function()) {
            roots.swap(0, pos);
        }
        let block_count = image.blocks().len();
        exec_counts.clear();
        exec_counts.resize(block_count, 0);
        memo.clear();
        memo.resize(block_count, None);
        TraceWalker {
            image,
            image_seed,
            invocation_seed: image_seed
                ^ invocation.wrapping_add(1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            noise,
            budget_instrs,
            emitted_instrs: 0,
            current: None,
            root_pos: 0,
            tables,
            truncated_calls: 0,
        }
    }

    /// Ends the walk and hands back its tables for the next one.
    pub fn into_tables(self) -> WalkTables {
        self.tables
    }

    /// Whether this branch site deviates from its structural behaviour for
    /// the whole invocation.
    fn deviates(&self, block: u32) -> bool {
        let mut r = SplitMix64::new(
            self.invocation_seed ^ u64::from(block).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        r.next_f64() < self.noise
    }

    /// Advances and returns this block's execution count (pattern phase).
    fn bump_count(&mut self, block: u32) -> u32 {
        let c = &mut self.tables.exec_counts[block as usize];
        let k = *c;
        *c = c.wrapping_add(1);
        k
    }

    /// The seed of conditional `block`'s structure (its pattern class and
    /// bits, and a context pattern's per-caller directions).
    fn cond_seed(&self, block: u32) -> u64 {
        self.image_seed ^ (u64::from(block)).wrapping_mul(0xA076_1D64_78BD_642F)
    }

    /// Classifies conditional `block` into its per-invocation pattern: a
    /// deterministic per-branch pattern of period 1–8 whose taken-rate
    /// approximates `bias`. Identical across invocations. Loop back-edges
    /// (`is_loop`) always carry at least one not-taken bit so loops
    /// terminate. Derived once per block; [`TraceWalker::pattern_taken`]
    /// replays it per execution.
    fn classify_cond(&self, block: u32, bias: f64, is_loop: bool) -> Pattern {
        let mut struct_rng = SplitMix64::new(self.cond_seed(block));
        // Most branches are fixed-direction within an invocation (what a
        // warm bimodal captures); the rest follow short patterns whose bits
        // also depend on the *call context*, which only a history-based
        // predictor (TAGE) can separate. Loops get longer periods so they
        // carry stable trip counts.
        let roll = struct_rng.next_u64() % 100;
        if is_loop {
            // Loops: a fixed trip-count pattern of period 4 or 8 with a
            // guaranteed exit. TAGE can learn trip counts from its own
            // taken-bits accumulating in the history.
            let period: u8 = if roll < 50 { 4 } else { 8 };
            let mut bits: u8 = 0;
            for j in 0..period {
                if struct_rng.chance(bias) {
                    bits |= 1 << j;
                }
            }
            if bits == ((1u16 << period) - 1) as u8 {
                bits &= !(1 << (period - 1));
            }
            return Pattern::Loop { bits, period };
        }
        if roll < 60 {
            // Fixed direction: one draw at `bias`, stable across executions
            // and invocations. A warm bimodal captures these perfectly.
            return Pattern::Fixed { taken: struct_rng.chance(bias) };
        }
        if roll < 85 {
            // Periodic: an 8-bit pattern with each bit drawn at `bias`.
            // Low-bias branches take their alternate path on a stable
            // subset of executions (slow paths that recur), which is what
            // populates the taken working set without per-execution
            // randomness.
            let mut bits: u8 = 0;
            for j in 0..8 {
                if struct_rng.chance(bias) {
                    bits |= 1 << j;
                }
            }
            return Pattern::Periodic { bits };
        }
        // Context-sensitive: direction fixed per (branch, caller) pair —
        // separable by a path-history predictor (TAGE) but aliased in the
        // bimodal, which sees only the majority direction.
        Pattern::Context
    }

    /// The structural outcome of conditional `block`'s pattern at
    /// execution `k`.
    fn pattern_taken(&self, block: u32, pattern: Pattern, k: u32, bias: f64) -> bool {
        match pattern {
            Pattern::Loop { bits, period } => (bits >> (k % u32::from(period))) & 1 == 1,
            Pattern::Fixed { taken } => taken,
            Pattern::Periodic { bits } => (bits >> (k % 8)) & 1 == 1,
            Pattern::Context => {
                let context = u64::from(self.tables.stack.last().copied().unwrap_or(0));
                let mut ctx_rng = SplitMix64::new(
                    self.cond_seed(block) ^ context.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                ctx_rng.chance(bias)
            }
        }
    }

    /// Classifies indirect `block`: a skewed, patterned index into the
    /// target list for each phase of the (1- or 2-execution) period, the
    /// two equal for a period of 1.
    fn classify_indirect(&self, block: u32, fan: usize) -> [u32; 2] {
        let seed = self.image_seed ^ (u64::from(block)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut pat_rng = SplitMix64::new(seed);
        // Most dispatch sites are effectively monomorphic (one hot target);
        // a minority alternate between two targets. The phase-1 index
        // continues the phase-0 RNG stream, as the unmemoized walk did.
        let alternates = !pat_rng.chance(0.85);
        let mut draw = || {
            let mut i = 0u32;
            while (i as usize) + 1 < fan && pat_rng.chance(0.15) {
                i += 1;
            }
            i
        };
        let first = draw();
        [first, if alternates { draw() } else { first }]
    }

    /// The memoized deviation bit and pattern of conditional `block`,
    /// classifying on first execution.
    fn cond_memo(&mut self, block: u32, bias: f64, is_loop: bool) -> (bool, Pattern) {
        match self.tables.memo[block as usize] {
            Some(BlockMemo::Cond { deviates, pattern }) => (deviates, pattern),
            Some(BlockMemo::Indirect { .. }) => {
                unreachable!("conditional block with indirect memo")
            }
            None => {
                let deviates = self.deviates(block);
                let pattern = self.classify_cond(block, bias, is_loop);
                self.tables.memo[block as usize] = Some(BlockMemo::Cond { deviates, pattern });
                (deviates, pattern)
            }
        }
    }

    /// The memoized deviation bit and phase indices of indirect `block`,
    /// classifying on first execution.
    fn indirect_memo(&mut self, block: u32, fan: usize) -> (bool, [u32; 2]) {
        match self.tables.memo[block as usize] {
            Some(BlockMemo::Indirect { deviates, idx }) => (deviates, idx),
            Some(BlockMemo::Cond { .. }) => unreachable!("indirect block with conditional memo"),
            None => {
                let deviates = self.deviates(block);
                let idx = self.classify_indirect(block, fan);
                self.tables.memo[block as usize] = Some(BlockMemo::Indirect { deviates, idx });
                (deviates, idx)
            }
        }
    }

    /// Instructions emitted so far.
    pub fn instructions(&self) -> u64 {
        self.emitted_instrs
    }

    /// Calls skipped because the modelled call depth was exceeded.
    pub fn truncated_calls(&self) -> u64 {
        self.truncated_calls
    }

    fn next_root(&mut self) -> u32 {
        let roots = &self.tables.roots;
        let f = roots[self.root_pos % roots.len()];
        self.root_pos += 1;
        self.image.functions()[f as usize].first_block
    }
}

impl Iterator for TraceWalker<'_> {
    type Item = BlockExec;

    fn next(&mut self) -> Option<BlockExec> {
        if self.emitted_instrs >= self.budget_instrs {
            return None;
        }
        let bi = match self.current {
            Some(b) => b,
            None => {
                self.tables.stack.clear();
                self.next_root()
            }
        };
        let block = self.image.block(bi);
        let pc = block.branch_pc();
        let (branch, next) = match &block.term {
            Terminator::Cond { target, bias } => {
                let target_addr = self.image.block(*target).start;
                let k = self.bump_count(bi);
                let is_loop = *target <= bi;
                let (deviates, pattern) = self.cond_memo(bi, *bias, is_loop);
                let mut taken = self.pattern_taken(bi, pattern, k, *bias);
                // Deviation flips forward branches only: flipping a loop
                // back-edge could turn it into an infinite loop. Deviating
                // loops shift their phase instead (a different trip count).
                if deviates {
                    if is_loop {
                        taken = self.pattern_taken(bi, pattern, k + 1, *bias);
                    } else {
                        taken = !taken;
                    }
                }
                let next = if taken { *target } else { bi + 1 };
                (
                    ExecutedBranch {
                        pc,
                        kind: BranchKind::Conditional,
                        taken,
                        target: target_addr,
                    },
                    Some(next),
                )
            }
            Terminator::Jump { target } => (
                ExecutedBranch {
                    pc,
                    kind: BranchKind::Unconditional,
                    taken: true,
                    target: self.image.block(*target).start,
                },
                Some(*target),
            ),
            Terminator::Call { callee } => {
                let entry = self.image.functions()[*callee as usize].first_block;
                let entry_addr = self.image.block(entry).start;
                if self.tables.stack.len() < MAX_CALL_DEPTH {
                    self.tables.stack.push(bi + 1);
                    (
                        ExecutedBranch {
                            pc,
                            kind: BranchKind::Call,
                            taken: true,
                            target: entry_addr,
                        },
                        Some(entry),
                    )
                } else {
                    // Depth cap: model the call as immediately returning.
                    self.truncated_calls += 1;
                    (
                        ExecutedBranch {
                            pc,
                            kind: BranchKind::Call,
                            taken: true,
                            target: entry_addr,
                        },
                        Some(bi + 1),
                    )
                }
            }
            Terminator::Ret => match self.tables.stack.pop() {
                Some(ret_to) => (
                    ExecutedBranch {
                        pc,
                        kind: BranchKind::Return,
                        taken: true,
                        target: self.image.block(ret_to).start,
                    },
                    Some(ret_to),
                ),
                None => {
                    // Root function finished: "return" into the runtime,
                    // which dispatches the next phase.
                    let next = self.next_root();
                    (
                        ExecutedBranch {
                            pc,
                            kind: BranchKind::Return,
                            taken: true,
                            target: self.image.block(next).start,
                        },
                        Some(next),
                    )
                }
            },
            Terminator::Indirect { targets } => {
                let k = self.bump_count(bi);
                let (deviates, idx) = self.indirect_memo(bi, targets.len());
                let mut idx = idx[(k % 2) as usize] as usize;
                if deviates {
                    // A deviating dispatch site favours a different target
                    // this invocation.
                    idx = (idx + 1) % targets.len();
                }
                let pick = targets[idx];
                (
                    ExecutedBranch {
                        pc,
                        kind: BranchKind::Indirect,
                        taken: true,
                        target: self.image.block(pick).start,
                    },
                    Some(pick),
                )
            }
        };
        self.current = next;
        self.emitted_instrs += u64::from(block.instrs);
        Some(BlockExec { start: block.start, bytes: block.bytes, instrs: block.instrs, branch })
    }
}

/// Front-end working set of one invocation (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSet {
    /// Distinct instruction bytes touched, at cache-block granularity.
    pub instruction_bytes: u64,
    /// Distinct taken branches (BTB working set).
    pub btb_entries: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
}

/// Measures the instruction and branch working set of one invocation.
///
/// Mirrors the paper's §2.3 methodology: record instruction-cache accesses at
/// block granularity and BTB allocations (taken branches only), de-duplicated.
pub fn measure_working_set(image: &CodeImage, invocation: u64, budget_instrs: u64) -> WorkingSet {
    let mut lines: HashSet<u64> = HashSet::new();
    let mut branches: HashSet<u64> = HashSet::new();
    let mut instructions = 0u64;
    for block in TraceWalker::new(image, invocation, budget_instrs) {
        instructions += u64::from(block.instrs);
        let mut line = block.start.line_number();
        let last = (block.start + u64::from(block.bytes.saturating_sub(1))).line_number();
        while line <= last {
            lines.insert(line);
            line += 1;
        }
        if block.branch.taken {
            branches.insert(block.branch.pc.as_u64());
        }
    }
    WorkingSet {
        instruction_bytes: lines.len() as u64 * LINE_BYTES,
        btb_entries: branches.len() as u64,
        instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};

    fn small_image() -> CodeImage {
        let mut p = GenParams::example("walker-test");
        p.target_branches = 400;
        p.target_code_bytes = 16 * 1024;
        generate(&p)
    }

    #[test]
    fn walker_is_deterministic_per_invocation() {
        let img = small_image();
        let a: Vec<_> = TraceWalker::new(&img, 3, 5_000).collect();
        let b: Vec<_> = TraceWalker::new(&img, 3, 5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn invocations_differ_but_share_most_control_flow() {
        let img = small_image();
        let a: Vec<_> = TraceWalker::new(&img, 0, 20_000).collect();
        let b: Vec<_> = TraceWalker::new(&img, 1, 20_000).collect();
        assert_ne!(a, b, "different invocations must diverge somewhere");
        // Commonality: the sets of executed block start addresses overlap
        // strongly (the paper measures ~96%+ metadata usefulness).
        let sa: HashSet<_> = a.iter().map(|x| x.start).collect();
        let sb: HashSet<_> = b.iter().map(|x| x.start).collect();
        let inter = sa.intersection(&sb).count() as f64;
        let union = sa.union(&sb).count() as f64;
        assert!(inter / union > 0.80, "block overlap {}", inter / union);
    }

    #[test]
    fn control_flow_is_consistent() {
        // Each block must begin where the previous block said control goes.
        let img = small_image();
        let blocks: Vec<_> = TraceWalker::new(&img, 7, 10_000).collect();
        for pair in blocks.windows(2) {
            assert_eq!(pair[1].start, pair[0].next_pc(), "discontinuous trace");
        }
    }

    #[test]
    fn budget_respected() {
        let img = small_image();
        let mut w = TraceWalker::new(&img, 0, 1_000);
        while w.next().is_some() {}
        let n = w.instructions();
        assert!((1_000..1_100).contains(&n), "emitted {n}");
    }

    #[test]
    fn returns_follow_calls() {
        let img = small_image();
        let blocks: Vec<_> = TraceWalker::new(&img, 0, 30_000).collect();
        let mut stack: Vec<Addr> = Vec::new();
        for pair in blocks.windows(2) {
            let b = &pair[0];
            match b.branch.kind {
                BranchKind::Call if pair[1].start == b.branch.target => {
                    stack.push(b.fallthrough());
                }
                BranchKind::Return => {
                    if let Some(expect) = stack.pop() {
                        assert_eq!(b.branch.target, expect, "return to wrong address");
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn working_set_instruction_bytes_reasonable() {
        let mut p = GenParams::example("ws");
        p.target_branches = 2_000;
        p.target_code_bytes = 80 * 1024;
        let img = generate(&p);
        // Budget large enough to touch most of the code.
        let ws = measure_working_set(&img, 0, 400_000);
        let code = img.live_code_bytes();
        assert!(
            ws.instruction_bytes as f64 > 0.6 * code as f64,
            "ws {} vs live code {code}",
            ws.instruction_bytes
        );
        let live_blocks: u32 =
            img.functions().iter().filter(|f| f.live).map(|f| f.block_count).sum();
        assert!(ws.btb_entries as f64 > 0.35 * f64::from(live_blocks));
    }

    #[test]
    fn root_order_is_invocation_invariant() {
        let img = small_image();
        let a = TraceWalker::new(&img, 0, 10).tables.roots.clone();
        let b = TraceWalker::new(&img, 42, 10).tables.roots.clone();
        assert_eq!(a, b, "root order must not depend on the invocation");
    }

    #[test]
    fn conditional_bias_respected_in_aggregate() {
        // Many conditionals with bias 0.8: individual branches follow
        // quantized patterns, but the aggregate taken-rate tracks the bias.
        use crate::cfg::{BasicBlock, CodeImage, Function, Terminator};
        let n = 64u32;
        let mut blocks = Vec::new();
        for i in 0..n {
            blocks.push(BasicBlock {
                start: Addr::new(0x1000 + u64::from(i) * 16),
                bytes: 16,
                instrs: 4,
                term: Terminator::Cond { target: i + 1, bias: 0.8 },
            });
        }
        blocks.push(BasicBlock {
            start: Addr::new(0x1000 + u64::from(n) * 16),
            bytes: 16,
            instrs: 4,
            term: Terminator::Ret,
        });
        let img = CodeImage::new(
            "bias",
            blocks,
            vec![Function { first_block: 0, block_count: n + 1, live: true }],
            0,
        )
        .unwrap();
        let blocks: Vec<_> = TraceWalker::new(&img, 0, 100_000).collect();
        let conds: Vec<_> =
            blocks.iter().filter(|b| b.branch.kind == BranchKind::Conditional).collect();
        assert!(conds.len() > 1000);
        let taken = conds.iter().filter(|b| b.branch.taken).count() as f64;
        let frac = taken / conds.len() as f64;
        assert!((0.62..0.95).contains(&frac), "empirical bias {frac}");
    }

    #[test]
    fn patterns_are_invocation_stable() {
        // With zero noise, two invocations produce identical traces.
        let img = small_image();
        let a: Vec<_> = TraceWalker::with_noise(&img, 0, 10_000, 0.0).collect();
        let b: Vec<_> = TraceWalker::with_noise(&img, 99, 10_000, 0.0).collect();
        assert_eq!(a, b, "noise-free walks must be invocation-invariant");
    }

    #[test]
    fn loops_always_terminate() {
        // A single always-taken-bias back-edge must still exit via the
        // forced not-taken pattern bit.
        use crate::cfg::{BasicBlock, CodeImage, Function, Terminator};
        let blocks = vec![
            BasicBlock {
                start: Addr::new(0x1000),
                bytes: 16,
                instrs: 4,
                term: Terminator::Cond { target: 0, bias: 1.0 },
            },
            BasicBlock { start: Addr::new(0x1010), bytes: 16, instrs: 4, term: Terminator::Ret },
        ];
        let img = CodeImage::new(
            "loop",
            blocks,
            vec![Function { first_block: 0, block_count: 2, live: true }],
            0,
        )
        .unwrap();
        let trace: Vec<_> = TraceWalker::with_noise(&img, 0, 1_000, 0.0).collect();
        assert!(
            trace.iter().any(|b| b.branch.kind == BranchKind::Return),
            "the loop must exit and reach the return"
        );
    }
}
