//! The cycle-approximate decoupled front-end simulation loop.
//!
//! One call to [`run_invocation`] models one serverless function invocation
//! over its dynamic basic-block trace. The model follows the structure of a
//! decoupled front-end:
//!
//! * The BPU (BTB + CBP + ideal RAS) is consulted once per block, at the
//!   time the block's successor would enter the FTQ (run-ahead when the
//!   recent transitions predicted correctly, demand-time right after a
//!   resteer). The FTQ extends by up to `bpu_blocks_per_cycle` blocks per
//!   elapsed cycle, up to the FTQ capacity, and *stalls* at the first
//!   transition the BPU cannot predict — at which point the real front-end
//!   would run down the wrong path, modelled as a burst of wrong-path line
//!   prefetches.
//! * FDP (if enabled) prefetches the lines of every block entering the FTQ;
//!   the hierarchy's in-flight tracking credits partial latency overlap.
//! * At commit, predictors train, taken branches missing from the BTB are
//!   inserted (the event Ignite records), and mispredicted transitions pay
//!   a resteer penalty classified as bad speculation.
//! * The back-end is abstract: retire-width throughput plus a cold/warm
//!   data-stall model (DESIGN.md §5).

use ignite_obs::{Event, EventKind, EventSink, NullSink, Phase, Track};
use ignite_uarch::addr::{lines_spanned, LINE_BYTES};
use ignite_uarch::btb::{BranchKind, BtbEntry};
use ignite_uarch::cache::FillKind;
use ignite_uarch::cbp::CbpPrediction;
use ignite_uarch::hierarchy::Level;
use ignite_uarch::Cycle;
use ignite_workloads::trace::{BlockExec, TraceWalker};

use crate::machine::{Machine, PreparedFunction};
use crate::metrics::{InvocationResult, RestoreAccuracy};
use crate::topdown::Category;

/// How the BPU's prediction of a block's transition resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Predicted next fetch address matches the actual path.
    Correct,
    /// A taken branch was not identified (BTB miss) — front-end resteer.
    BtbMissTaken,
    /// Conditional direction mispredicted.
    CbpWrongDirection,
    /// Stale BTB target (indirect branch changed target).
    WrongTarget,
}

#[derive(Debug, Clone, Copy)]
struct Eval {
    outcome: Outcome,
    cbp_pred: Option<CbpPrediction>,
    btb_hit: bool,
}

/// One block of the lookahead buffer, with the BPU's evaluation of its
/// transition once made.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    block: BlockExec,
    eval: Option<Eval>,
}

/// Externally supplied per-invocation context.
///
/// The default protocol ([`run_invocation`]) derives everything from the
/// machine's [`StatePolicy`](crate::config::StatePolicy); schedulers that
/// own cross-invocation state (the cluster simulator) use
/// [`run_invocation_ctx`] to feed in what the policy cannot know — how cold
/// this invocation's *data* working set is after other functions ran on the
/// same core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationCtx {
    /// Fraction of the data working set that must be re-fetched cold
    /// (0.0 = back-to-back warm, 1.0 = fully evicted). Clamped to [0, 1].
    pub data_cold_fraction: f64,
    /// Run with Ignite detached for this invocation only: no record, no
    /// replay, no metadata traffic — the machine behaves as if Ignite
    /// were not configured, then gets it back untouched. Used by the
    /// chaos layer's circuit breaker to quarantine a function whose
    /// replay metadata faults repeatedly (degraded cold execution).
    pub bypass_ignite: bool,
}

impl Default for InvocationCtx {
    fn default() -> Self {
        InvocationCtx { data_cold_fraction: 1.0, bypass_ignite: false }
    }
}

/// Runs one invocation and returns its measurements.
///
/// `invocation` seeds the trace walker; consecutive invocations of the same
/// function share most control flow (the commonality Ignite exploits).
pub fn run_invocation(m: &mut Machine, f: &PreparedFunction, invocation: u64) -> InvocationResult {
    let data_cold_fraction = if m.fe.policy.warm_data { 0.0 } else { 1.0 };
    run_invocation_ctx(m, f, invocation, InvocationCtx { data_cold_fraction, bypass_ignite: false })
}

/// Like [`run_invocation`], with caller-owned warm/cold context.
///
/// Front-end state (caches, BTB, predictors) is *not* touched here: it is
/// whatever the machine accumulated, so a scheduler interleaving many
/// functions on one core gets emergent lukewarmness for free. Only the
/// abstract back-end data-stall model needs the explicit cold fraction.
pub fn run_invocation_ctx(
    m: &mut Machine,
    f: &PreparedFunction,
    invocation: u64,
    ctx: InvocationCtx,
) -> InvocationResult {
    run_invocation_obs(m, f, invocation, ctx, &mut NullSink, Track::Core(0), 0)
}

/// Like [`run_invocation_ctx`], emitting observability events into `sink`.
///
/// Events carry timestamps in the *caller's* clock: `ts_offset` is added
/// to every machine-local cycle stamp (the cluster passes
/// `dispatch_time - machine.now`, aligning per-core machine clocks to the
/// cluster clock). With [`NullSink`] every emission site is guarded by an
/// inlined constant `false` and compiles out — [`run_invocation_ctx`] is
/// exactly this function monomorphized that way, so results are
/// bit-identical whether or not observability is wired up.
pub fn run_invocation_obs<S: EventSink>(
    m: &mut Machine,
    f: &PreparedFunction,
    invocation: u64,
    ctx: InvocationCtx,
    sink: &mut S,
    track: Track,
    ts_offset: u64,
) -> InvocationResult {
    // Circuit-breaker quarantine: detach Ignite for the whole invocation
    // and re-attach it on every return path. Its internal state is
    // untouched — the invocation simply never happened from Ignite's
    // point of view.
    let stashed_ignite = if ctx.bypass_ignite { m.ignite.take() } else { None };
    let mut res = InvocationResult::default();
    let start_cycle = m.now;
    let ideal = m.fe.select.ideal;
    let fdp = m.fe.select.fdp && !ideal;
    let base_cpi = (1.0 / m.uarch.backend.retire_width as f64).max(m.uarch.backend.ilp_cpi);
    let ftq_cap = m.uarch.frontend.ftq_entries;
    let bpu_rate = m.uarch.frontend.bpu_blocks_per_cycle as f64;

    m.reset_stats();
    m.cbp.begin_invocation();
    if let Some(jb) = &mut m.jukebox {
        jb.begin_invocation(f.container);
    }
    if let Some(ig) = &mut m.ignite {
        ig.begin_invocation(f.container);
    }

    // Whether a live replay session's drain event is still owed; always
    // false on the NullSink path, so the per-mech-step check below folds
    // away with the rest of the instrumentation.
    let mut replay_live = false;
    if sink.enabled() {
        if let Some(ig) = &m.ignite {
            if ig.is_recording() {
                sink.record(Event {
                    ts: ts_offset + m.now,
                    dur: 0,
                    track,
                    kind: EventKind::RecordBegin { container: f.container },
                });
            }
            if ig.replay_pending() {
                replay_live = true;
                sink.record(Event {
                    ts: ts_offset + m.now,
                    dur: 0,
                    track,
                    kind: EventKind::ReplayBegin {
                        container: f.container,
                        entries: ig.replay_total_entries(),
                    },
                });
            }
        }
    }

    // The walker's tables and the lookahead buffer are the machine's,
    // lent to this invocation and handed back at its end, so a warmed
    // machine allocates neither.
    let tables = std::mem::take(&mut m.walk_tables);
    let mut walker =
        TraceWalker::with_tables(&f.image, invocation, f.invocation_instrs, f.noise, tables);
    // The lookahead never holds more than `ftq_cap + 2` blocks.
    let mut buf = std::mem::take(&mut m.ftq);
    buf.reserve(ftq_cap + 2);
    let mut walker_done = false;
    // Number of leading `buf` entries considered "in the FTQ" (their lines
    // prefetched); the first is the block being fetched.
    let mut ftq_len: usize = 1;
    // The FTQ extension hit an unpredictable transition and is stalled
    // until that block commits and the pipeline resteers.
    let mut blocked = false;
    let mut bpu_budget: f64 = 2.0;
    // Fractional-cycle accumulator: `m.now` is integral.
    let mut cycle_carry: f64 = 0.0;
    // Cycles below this one have been offered to the paced mechanisms.
    let mut mech_clock = m.now;
    // Cold-data pool for the back-end stall model.
    let mut data_pool: f64 = f.data_ws_lines as f64 * ctx.data_cold_fraction.clamp(0.0, 1.0);

    loop {
        // Keep the lookahead buffer stocked.
        while !walker_done && buf.len() < ftq_cap + 2 {
            match walker.next() {
                Some(b) => buf.push_back(Pending { block: b, eval: None }),
                None => walker_done = true,
            }
        }
        if buf.is_empty() {
            break;
        }

        // Paced mechanisms (Ignite replay, Jukebox replay, Confluence
        // streams) catch up to the global clock, stepping only the cycles
        // on which one of them has work: on every other cycle each `step`
        // is a no-op.
        while let Some(cycle) = next_mechanism_cycle(m, mech_clock).filter(|&c| c <= m.now) {
            step_mechanisms(m, f, cycle, &mut res);
            if replay_live {
                if let Some(ig) = &m.ignite {
                    if !ig.replay_pending() {
                        replay_live = false;
                        sink.record(Event {
                            ts: ts_offset + cycle,
                            dur: 0,
                            track,
                            kind: EventKind::ReplayEnd {
                                container: f.container,
                                restored: ig.replay_restored(),
                            },
                        });
                    }
                }
            }
            mech_clock = cycle + 1;
        }
        mech_clock = m.now + 1;

        // Demand-time evaluation when the FTQ holds only this block (right
        // after a resteer or at invocation start). The evaluation is read
        // in place: it carries a whole prediction record.
        let head = &mut buf[0];
        let block = head.block;
        let eval = &*head.eval.get_or_insert_with(|| evaluate(m, f, &block, 0));
        let block_start_cycle = m.now;

        // ---- Fetch ----
        if !ideal {
            let mut t = m.now;
            let mut stall: Cycle = 0;
            let tlb_extra = m.itlb.translate(block.start);
            stall += tlb_extra;
            t += tlb_extra;
            for line in lines_spanned(block.start, u64::from(block.bytes)) {
                let r = m.hierarchy.fetch(line, t);
                let l1i_lat = m.uarch.hierarchy.l1i_latency;
                // A fetch that has to wait out an in-flight fill is a miss
                // (an MSHR hit): the prefetch was not timely.
                let effective_miss = r.served_by != Level::L1I || r.ready_at > t + l1i_lat;
                if effective_miss {
                    res.l1i_misses += 1;
                    if let Some(c) = &mut m.confluence {
                        c.on_miss(line, t);
                    }
                    if matches!(r.served_by, Level::Llc | Level::Memory) {
                        res.accuracy_l2.uncovered += 1;
                    }
                }
                if effective_miss || r.hit_prefetched {
                    m.nl.trigger_observed(line, t, &mut m.hierarchy, |pf_line, pf| {
                        if let Some(jb) = &mut m.jukebox {
                            jb.observe_fill(pf_line, pf.served_by);
                        }
                    });
                }
                if let Some(jb) = &mut m.jukebox {
                    jb.observe_fill(line, r.served_by);
                }
                if let Some(c) = &mut m.confluence {
                    c.observe_access(line, r.served_by != Level::L1I);
                }
                if r.ready_at > t + l1i_lat {
                    stall += r.ready_at - (t + l1i_lat);
                }
                t = t.max(r.ready_at);
            }
            m.now += stall;
            res.fetch_stall_cycles += stall;
            res.topdown.add(Category::FetchBound, stall as f64);
        }

        // ---- Commit ----
        res.instructions += u64::from(block.instrs);
        let br = block.branch;
        if br.kind == BranchKind::Conditional {
            res.conditional_branches += 1;
            match &eval.cbp_pred {
                Some(pred) => m.cbp.resolve(br.pc, br.taken, br.target, pred),
                None => m.cbp.resolve_uncounted(br.pc, br.taken, br.target),
            }
        } else if br.taken {
            m.cbp.note_taken_branch(br.pc, br.target);
        }
        // BTB allocation on taken commit (the event Ignite records), and
        // target update on stale indirect targets.
        if !ideal && br.taken && (!eval.btb_hit || eval.outcome == Outcome::WrongTarget) {
            m.btb.insert(BtbEntry::new(br.pc, br.target, br.kind), false);
        }
        if let Some(ig) = &mut m.ignite {
            ig.observe_btb_insertions(&mut m.btb);
        }

        // Resteer handling.
        let outcome = eval.outcome;
        buf.pop_front();
        match outcome {
            Outcome::Correct => {}
            outcome => {
                let penalty = match (outcome, br.kind) {
                    // Direct jumps/calls discovered at decode resteer early.
                    (Outcome::BtbMissTaken, BranchKind::Unconditional | BranchKind::Call) => {
                        m.uarch.frontend.decode_resteer_penalty
                    }
                    _ => m.uarch.frontend.exec_resteer_penalty,
                };
                if matches!(outcome, Outcome::BtbMissTaken | Outcome::WrongTarget) {
                    res.btb_misses += 1;
                }
                res.resteers += 1;
                m.now += penalty;
                res.resteer_penalty_cycles += penalty;
                res.topdown.add(Category::BadSpeculation, penalty as f64);
                if let Some(c) = &mut m.confluence {
                    c.on_resteer();
                }
                blocked = false;
                // The FTQ (and everything younger) is squashed; prediction
                // restarts at the correct target.
                ftq_len = 1;
            }
        }

        // ---- Retire + back-end ----
        let mut block_cycles = f64::from(block.instrs) * base_cpi;
        res.topdown.add(Category::Retiring, block_cycles);
        let loads = f64::from(block.instrs) * m.uarch.backend.load_fraction;
        let cold = (loads * m.uarch.backend.cold_touch_rate).min(data_pool);
        data_pool -= cold;
        let data_stall = cold * m.uarch.backend.cold_miss_penalty as f64
            + (loads - cold)
                * m.uarch.backend.warm_miss_rate
                * m.uarch.backend.data_miss_penalty as f64;
        res.topdown.add(Category::BackendBound, data_stall);
        block_cycles += data_stall;
        cycle_carry += block_cycles;
        // The carry is never negative, so truncating is flooring (without
        // a libm call on baseline x86-64).
        debug_assert!(cycle_carry >= 0.0, "negative cycle carry {cycle_carry}");
        let whole = cycle_carry as Cycle;
        m.now += whole;
        cycle_carry -= whole as f64;

        // ---- FTQ maintenance ----
        if ftq_len > 1 {
            ftq_len -= 1;
        }
        if fdp {
            let elapsed = (m.now - block_start_cycle).max(1);
            bpu_budget = (bpu_budget + elapsed as f64 * bpu_rate).min(ftq_cap as f64 * 2.0);
            while bpu_budget >= 1.0 && ftq_len < ftq_cap && !blocked && ftq_len < buf.len() {
                bpu_budget -= 1.0;
                // Evaluate the transition out of the newest FTQ block.
                let newest = &mut buf[ftq_len - 1];
                let eval =
                    newest.eval.get_or_insert_with(|| evaluate(m, f, &newest.block, ftq_len - 1));
                if eval.outcome == Outcome::Correct {
                    // The successor enters the FTQ: FDP prefetches it.
                    let nb = buf[ftq_len].block;
                    for line in lines_spanned(nb.start, u64::from(nb.bytes)) {
                        m.hierarchy.prefetch_l1i(line, m.now, FillKind::Prefetch);
                    }
                    ftq_len += 1;
                } else {
                    blocked = true;
                }
            }
        }
    }

    // ---- Wrap up ----
    m.walk_tables = walker.into_tables();
    m.ftq = buf;
    res.traffic.useless_instruction_bytes = m.hierarchy.untouched_fill_bytes();
    res.cycles = m.now - start_cycle;
    let cbp = m.cbp.stats();
    res.cbp_mispredictions = cbp.mispredictions;
    res.initial_mispredictions = cbp.initial_mispredictions;
    res.subsequent_mispredictions = cbp.subsequent_mispredictions;
    res.itlb_walks = m.itlb.walks();

    // Ignite restore accuracy (Fig. 9c).
    let btb_stats = *m.btb.stats();
    res.accuracy_btb = RestoreAccuracy {
        covered: btb_stats.restored_used,
        uncovered: res.btb_misses,
        overpredicted: btb_stats.restored_evicted_untouched + m.btb.restored_untouched(),
    };
    res.accuracy_cbp = RestoreAccuracy {
        covered: cbp.ignite_covered_initials,
        uncovered: res.cbp_mispredictions.saturating_sub(cbp.ignite_induced_mispredictions),
        overpredicted: cbp.ignite_induced_mispredictions,
    };
    let l2_stats = *m.hierarchy.l2().stats();
    let l2_over = l2_stats.unused_restore_evictions + m.hierarchy.l2().unused_restored_resident();

    if let Some(jb) = &mut m.jukebox {
        res.traffic.record_metadata_bytes += jb.record_bytes();
        jb.end_invocation(f.container);
    }
    if let Some(ig) = &mut m.ignite {
        let was_recording = ig.is_recording();
        let stats = ig.end_invocation(f.container);
        res.traffic.record_metadata_bytes += stats.record_bytes;
        res.replay = stats.replay;
        res.replay_unfinished = stats.replay_unfinished;
        res.accuracy_l2 = RestoreAccuracy {
            covered: stats.replay.l2_prefetches.saturating_sub(l2_over),
            uncovered: res.accuracy_l2.uncovered,
            overpredicted: l2_over,
        };
        if sink.enabled() {
            let end = ts_offset + m.now;
            if replay_live {
                // The invocation ended before replay drained; close the
                // session with what it managed to restore.
                sink.record(Event {
                    ts: end,
                    dur: 0,
                    track,
                    kind: EventKind::ReplayEnd {
                        container: f.container,
                        restored: stats.replay.entries_restored,
                    },
                });
            }
            if was_recording {
                sink.record(Event {
                    ts: end,
                    dur: 0,
                    track,
                    kind: EventKind::RecordEnd {
                        container: f.container,
                        entries: stats.entries_recorded,
                        bytes: stats.record_bytes,
                    },
                });
            }
            let d = &stats.replay;
            if d.decode_errors + d.entries_dropped + d.watchdog_abandons + d.stale_restored > 0 {
                sink.record(Event {
                    ts: end,
                    dur: 0,
                    track,
                    kind: EventKind::ReplayDegraded {
                        decode_errors: d.decode_errors,
                        entries_dropped: d.entries_dropped,
                        watchdog_abandons: d.watchdog_abandons,
                    },
                });
            }
        }
    }

    // Fig. 10 partition: everything from DRAM on the instruction path that
    // we did not attribute to the wrong path counts as useful.
    let total_mem = m.hierarchy.memory_read_bytes();
    res.traffic.useful_instruction_bytes =
        total_mem.saturating_sub(res.traffic.useless_instruction_bytes);

    // Top-Down attribution as spans tiling the invocation window: the
    // categories are aggregates, not a schedule, so the tiling is a
    // visual proportion (clamped to the window) rather than a timeline
    // of when each stall happened.
    if sink.enabled() {
        let end = ts_offset + m.now;
        let mut t = ts_offset + start_cycle;
        for (category, phase) in [
            (Category::Retiring, Phase::Retiring),
            (Category::FetchBound, Phase::FetchBound),
            (Category::BadSpeculation, Phase::BadSpeculation),
            (Category::BackendBound, Phase::BackendBound),
        ] {
            let cycles = res.topdown.get(category).round() as u64;
            let dur = cycles.min(end.saturating_sub(t));
            if dur > 0 {
                sink.record(Event {
                    ts: t,
                    dur,
                    track,
                    kind: EventKind::TopDown { phase, cycles },
                });
                t += dur;
            }
        }
    }

    if let Some(ig) = stashed_ignite {
        m.ignite = Some(ig);
    }
    res
}

/// The first cycle at or after `from` on which a paced mechanism's `step`
/// can do work, or `None` while all of them are idle: Ignite and Jukebox
/// replay drained and no Confluence stream armed. Only the engine's own
/// hooks (`begin_invocation`, Confluence's `on_miss`) hand an idle
/// mechanism new work, and never for a cycle already offered.
fn next_mechanism_cycle(m: &Machine, from: Cycle) -> Option<Cycle> {
    let replaying = m.jukebox.as_ref().is_some_and(|jb| jb.replay_pending())
        || m.ignite.as_ref().is_some_and(|ig| ig.replay_pending());
    if replaying {
        return Some(from);
    }
    m.confluence.as_ref().and_then(|c| c.stream_start()).map(|at| at.max(from))
}

/// Steps the paced background mechanisms for one cycle.
fn step_mechanisms(m: &mut Machine, f: &PreparedFunction, now: Cycle, res: &mut InvocationResult) {
    if let Some(jb) = &mut m.jukebox {
        let s = jb.step(now, &mut m.hierarchy);
        res.traffic.replay_metadata_bytes += s.metadata_bytes;
    }
    if let Some(ig) = &mut m.ignite {
        let s = ig.step(now, &mut m.btb, &mut m.cbp, &mut m.itlb, &mut m.hierarchy);
        res.traffic.replay_metadata_bytes += s.metadata_bytes;
    }
    if let Some(c) = &mut m.confluence {
        c.step(now, &mut m.hierarchy, &f.branch_index, &mut m.btb);
    }
}

/// Consults the BPU for a block's terminating branch, exactly as the
/// front-end would when the block's successor is considered for the FTQ.
///
/// `lookahead` is the block's distance (in blocks) from the fetch point —
/// 0 means demand-time (no run-ahead slack for Boomerang fills).
fn evaluate(m: &mut Machine, f: &PreparedFunction, block: &BlockExec, lookahead: usize) -> Eval {
    let br = block.branch;
    let ideal = m.fe.select.ideal;
    let actual_next = block.next_pc();

    let btb_entry = if ideal {
        // Perfect BTB: every branch identified with its current target.
        Some(BtbEntry::new(br.pc, br.target, br.kind))
    } else {
        let hit = m.btb.lookup_traced(br.pc);
        // A replayed entry whose recorded target no longer matches the
        // branch is stale metadata: it flows through prediction and is
        // corrected by the ordinary resteer path below, but Ignite counts
        // it so degradation experiments can observe staleness end-to-end.
        if let Some((entry, true)) = hit {
            if br.taken && entry.target != br.target {
                if let Some(ig) = &mut m.ignite {
                    ig.note_stale_restored();
                }
            }
        }
        hit.map(|(entry, _)| entry)
    };

    let mut btb_hit = btb_entry.is_some();
    let mut identified = btb_entry;

    // Boomerang: a BTB miss discovered while running ahead can be resolved
    // by fetching and predecoding the branch's cache block, if the fill
    // completes before the fetch stream reaches this block.
    if identified.is_none() && lookahead > 0 {
        if let Some(boomerang) = &mut m.boomerang {
            // Blocks take ~5 cycles each to drain at typical CPI, giving
            // the fill that much slack per block of run-ahead.
            let needed_at = m.now + lookahead as Cycle * 5;
            let fill =
                boomerang.request_fill(br.pc, m.now, &mut m.hierarchy, &f.branch_index, &mut m.btb);
            match fill {
                Some(outcome) if outcome.ready_at <= needed_at => {
                    identified = m.btb.probe(br.pc);
                    btb_hit = identified.is_some();
                }
                _ if br.kind == BranchKind::Return => {
                    // Predecode identifies returns even without a static
                    // target; the RAS then supplies the target. Model the
                    // identification with the same line-fetch+predecode
                    // latency.
                    if let Some(r) = m.hierarchy.prefetch_l1i(br.pc, m.now, FillKind::Prefetch) {
                        if r.ready_at + 6 <= needed_at {
                            identified = Some(BtbEntry::new(br.pc, br.target, BranchKind::Return));
                        }
                    } else {
                        identified = Some(BtbEntry::new(br.pc, br.target, BranchKind::Return));
                    }
                }
                _ => {}
            }
        }
    } else if identified.is_none() && m.boomerang.is_some() {
        // Demand-time discovery: too late to help this transition, but the
        // fill still lands in the BTB for future executions.
        if let Some(boomerang) = &mut m.boomerang {
            boomerang.request_fill(br.pc, m.now, &mut m.hierarchy, &f.branch_index, &mut m.btb);
        }
    }

    // Maintain the RAS in prediction order: calls push their return
    // address; identified returns consume the top.
    if br.kind == BranchKind::Call {
        m.ras.push(block.fallthrough());
    }
    let (outcome, cbp_pred) = match identified {
        Some(entry) => match br.kind {
            BranchKind::Conditional => {
                let pred = m.cbp.predict(br.pc);
                let predicted_next = if pred.taken { entry.target } else { block.fallthrough() };
                let outcome = if predicted_next == actual_next {
                    Outcome::Correct
                } else {
                    Outcome::CbpWrongDirection
                };
                (outcome, Some(pred))
            }
            BranchKind::Return => {
                // The BTB identifies the return; the RAS supplies the
                // target (an ideal front-end always predicts correctly).
                if ideal {
                    (Outcome::Correct, None)
                } else {
                    match m.ras.pop() {
                        Some(t) if t == actual_next => (Outcome::Correct, None),
                        _ => (Outcome::WrongTarget, None),
                    }
                }
            }
            // The BTB supplies the target: the last one seen for an
            // indirect branch.
            BranchKind::Indirect | BranchKind::Unconditional | BranchKind::Call => {
                if entry.target == actual_next {
                    (Outcome::Correct, None)
                } else {
                    (Outcome::WrongTarget, None)
                }
            }
        },
        None => {
            // Unidentified branch: the front-end continues sequentially.
            // An unidentified return also consumes its RAS entry once it
            // resolves, keeping the stack aligned with the call stream.
            if br.kind == BranchKind::Return {
                m.ras.pop();
            }
            if br.taken {
                (Outcome::BtbMissTaken, None)
            } else {
                (Outcome::Correct, None)
            }
        }
    };

    // Wrong-path fetch modelling: the front-end keeps fetching down the
    // wrong path until the branch resolves.
    if outcome != Outcome::Correct && !ideal {
        let wrong_start = match outcome {
            Outcome::BtbMissTaken => block.fallthrough(),
            Outcome::CbpWrongDirection => {
                if br.taken {
                    block.fallthrough() // predicted not-taken: fetches fall-through
                } else {
                    br.target // predicted taken: fetches the target path
                }
            }
            Outcome::WrongTarget => identified.map_or(block.fallthrough(), |e| e.target),
            Outcome::Correct => unreachable!(),
        };
        // A decoupled front-end (FDP) runs ahead down the wrong path at the
        // prefetcher's pace, fetching considerably more than a plain
        // fetch engine does within the resteer window (§6.3: Boomerang more
        // than doubles useless fetches over NL).
        let runahead: u64 = if m.fe.select.fdp { 2 } else { 1 };
        let lines = (runahead
            * m.uarch.frontend.exec_resteer_penalty
            * m.uarch.frontend.fetch_bytes_per_cycle
            / LINE_BYTES)
            .max(1);
        for i in 0..lines {
            let line = wrong_start + i * LINE_BYTES;
            m.hierarchy.prefetch_l1i(line, m.now, FillKind::Prefetch);
        }
    }

    Eval { outcome, cbp_pred, btb_hit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FrontEndConfig, StatePolicy};
    use ignite_uarch::UarchConfig;
    use ignite_workloads::gen::{generate, GenParams};

    fn small_function() -> PreparedFunction {
        let mut p = GenParams::example("sim-test");
        p.target_branches = 600;
        p.target_code_bytes = 24 * 1024;
        PreparedFunction::from_image(generate(&p), 0, 30_000)
    }

    fn run(fe: FrontEndConfig) -> (InvocationResult, InvocationResult) {
        let uarch = UarchConfig::ice_lake_like();
        let f = small_function();
        let mut m = Machine::new(&uarch, &fe);
        let first = run_invocation(&mut m, &f, 0);
        m.between_invocations();
        let second = run_invocation(&mut m, &f, 1);
        (first, second)
    }

    #[test]
    fn executes_all_instructions() {
        let (first, _) = run(FrontEndConfig::nl());
        assert!(first.instructions >= 30_000);
        assert!(first.cycles > 0);
    }

    #[test]
    fn topdown_accounts_all_cycles() {
        let (first, _) = run(FrontEndConfig::nl());
        let total = first.topdown.total();
        let cycles = first.cycles as f64;
        assert!((total - cycles).abs() / cycles < 0.02, "topdown {total} vs cycles {cycles}");
    }

    #[test]
    fn integer_stall_counters_tile_the_cycle_count() {
        use crate::topdown::Category;
        for fe in [FrontEndConfig::nl(), FrontEndConfig::fdp(), FrontEndConfig::ignite()] {
            let (first, second) = run(fe);
            for r in [&first, &second] {
                // The integer counters are the exact provenance of the
                // (integral-valued) FetchBound / BadSpeculation buckets…
                assert_eq!(r.topdown.get(Category::FetchBound), r.fetch_stall_cycles as f64);
                assert_eq!(
                    r.topdown.get(Category::BadSpeculation),
                    r.resteer_penalty_cycles as f64
                );
                // …and together they never exceed the invocation's total
                // cycles: the residual is steady-state execution.
                assert!(r.front_end_stall_cycles() <= r.cycles);
            }
            assert!(first.fetch_stall_cycles > 0, "cold invocations stall on fetch");
        }
    }

    #[test]
    fn lukewarm_is_slower_than_warm() {
        let uarch = UarchConfig::ice_lake_like();
        let f = small_function();
        // Lukewarm.
        let mut m = Machine::new(&uarch, &FrontEndConfig::nl());
        run_invocation(&mut m, &f, 0);
        m.between_invocations();
        let luke = run_invocation(&mut m, &f, 1);
        // Back-to-back.
        let warm_fe = FrontEndConfig::nl().with_policy("warm", StatePolicy::back_to_back());
        let mut m = Machine::new(&uarch, &warm_fe);
        run_invocation(&mut m, &f, 0);
        m.between_invocations();
        let warm = run_invocation(&mut m, &f, 1);
        assert!(
            luke.cpi() > warm.cpi() * 1.3,
            "lukewarm CPI {} must clearly exceed warm CPI {}",
            luke.cpi(),
            warm.cpi()
        );
    }

    #[test]
    fn fdp_outperforms_nl_on_lukewarm() {
        let (_, nl) = run(FrontEndConfig::nl());
        let (_, fdp) = run(FrontEndConfig::fdp());
        assert!(fdp.cycles < nl.cycles, "FDP {} cycles vs NL {} cycles", fdp.cycles, nl.cycles);
    }

    #[test]
    fn ideal_front_end_is_fastest() {
        let (_, ideal) = run(FrontEndConfig::ideal());
        let (_, nl) = run(FrontEndConfig::nl());
        assert!(ideal.cycles < nl.cycles);
        assert_eq!(ideal.l1i_misses, 0);
        assert_eq!(ideal.btb_misses, 0);
    }

    #[test]
    fn ignite_reduces_btb_misses_on_second_invocation() {
        let (first, second) = run(FrontEndConfig::ignite());
        assert!(
            second.btb_misses * 3 < first.btb_misses,
            "restored BTB: {} misses vs cold {}",
            second.btb_misses,
            first.btb_misses
        );
    }

    #[test]
    fn ignite_beats_boomerang_jukebox() {
        let (_, ignite) = run(FrontEndConfig::ignite());
        let (_, bjb) = run(FrontEndConfig::boomerang_jukebox());
        assert!(
            ignite.cycles < bjb.cycles,
            "Ignite {} vs Boomerang+JB {}",
            ignite.cycles,
            bjb.cycles
        );
    }

    #[test]
    fn warm_btb_reduces_resteers() {
        let (_, luke) = run(FrontEndConfig::boomerang_jukebox());
        let (_, warm_btb) = run(FrontEndConfig::boomerang_jukebox()
            .with_policy("+ warm BTB", StatePolicy::lukewarm_warm_btb()));
        assert!(warm_btb.btb_misses < luke.btb_misses / 2);
    }

    #[test]
    fn traffic_totals_are_consistent() {
        let (_, r) = run(FrontEndConfig::ignite());
        assert!(r.traffic.useful_instruction_bytes > 0);
        assert!(r.traffic.record_metadata_bytes > 0, "record runs every invocation");
        assert!(r.traffic.replay_metadata_bytes > 0, "replay ran on the second invocation");
    }

    #[test]
    fn ignite_on_boomerang_also_works() {
        // §5.3: Ignite "could equally be used with Boomerang".
        let (_, nl) = run(FrontEndConfig::nl());
        let (_, boomerang) = run(FrontEndConfig::boomerang());
        let (_, combo) = run(FrontEndConfig::ignite_boomerang());
        assert!(combo.cycles < boomerang.cycles, "Ignite helps Boomerang too");
        assert!(combo.cycles < nl.cycles);
        assert!(combo.btb_misses < boomerang.btb_misses);
    }

    #[test]
    fn returns_are_predicted_through_the_ras() {
        // With a restored BTB (returns identified) the RAS supplies return
        // targets; most returns must not resteer.
        let uarch = UarchConfig::ice_lake_like();
        let f = small_function();
        let mut m = Machine::new(&uarch, &FrontEndConfig::ignite());
        run_invocation(&mut m, &f, 0);
        m.between_invocations();
        run_invocation(&mut m, &f, 1);
        assert!(m.ras.pushes() > 100, "calls push the RAS");
        // Underflows only at root transitions (returns into the runtime).
        assert!(
            m.ras.underflows() < m.ras.pops() / 4,
            "underflows {} of {} pops",
            m.ras.underflows(),
            m.ras.pops()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (a1, a2) = run(FrontEndConfig::boomerang_jukebox());
        let (b1, b2) = run(FrontEndConfig::boomerang_jukebox());
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }
}
