//! Property-based tests for the microarchitectural substrate.

use proptest::prelude::*;
use proptest::TestCaseError;

use ignite_uarch::addr::{lines_spanned, Addr, LINE_BYTES, VA_BITS, VA_MASK};
use ignite_uarch::bimodal::{Bimodal, BimodalConfig, Counter};
use ignite_uarch::btb::{BranchKind, Btb, BtbConfig, BtbEntry, BtbStats};
use ignite_uarch::cache::{CacheGeometry, CacheStats, Evicted, FillKind, HitInfo, SetAssocCache};
use ignite_uarch::cbp::{Cbp, CbpPrediction, CbpStats};
use ignite_uarch::config::UarchConfig;
use ignite_uarch::hierarchy::{Hierarchy, Level};
use ignite_uarch::rng::SplitMix64;
use ignite_uarch::tage::{Tage, TageConfig, TagePrediction};
use ignite_uarch::tlb::{Itlb, TlbConfig};

/// One call on a [`SetAssocCache`].
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup(Addr),
    LookupHit(Addr),
    Probe(Addr),
    Fill(Addr, FillKind),
    InvalidateAll,
}

/// A line of the reference cache.
#[derive(Debug, Clone, Copy)]
struct ModelLine {
    line: u64,
    prefetched: bool,
    restored: bool,
    touched: bool,
}

/// A naive reference cache: one `Vec` per set, kept as an explicit LRU
/// list (most recently used first), with every counter recomputed from
/// the lines or counted per call.
struct ModelCache {
    line_bytes: u64,
    ways: usize,
    sets: Vec<Vec<ModelLine>>,
    stats: CacheStats,
}

impl ModelCache {
    fn new(geometry: CacheGeometry) -> Self {
        ModelCache {
            line_bytes: geometry.line_bytes,
            ways: geometry.ways,
            sets: vec![Vec::new(); geometry.sets()],
            stats: CacheStats::default(),
        }
    }

    /// The set holding `addr`'s line and the line's position in it.
    fn find(&mut self, addr: Addr) -> (u64, &mut Vec<ModelLine>, Option<usize>) {
        let line = addr.as_u64() / self.line_bytes;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line % n) as usize];
        let pos = set.iter().position(|l| l.line == line);
        (line, set, pos)
    }

    fn lookup_hit(&mut self, addr: Addr) -> Option<HitInfo> {
        let (_, set, pos) = self.find(addr);
        let hit = pos.map(|i| {
            let mut l = set.remove(i);
            let was_prefetched = l.prefetched;
            l.prefetched = false;
            l.touched = true;
            set.insert(0, l);
            HitInfo { was_prefetched }
        });
        self.stats.demand.record(hit.is_some());
        if hit.is_some_and(|h| h.was_prefetched) {
            self.stats.prefetch_hits += 1;
        }
        hit
    }

    fn probe(&mut self, addr: Addr) -> bool {
        self.find(addr).2.is_some()
    }

    fn fill(&mut self, addr: Addr, kind: FillKind) -> Option<Evicted> {
        match kind {
            FillKind::Demand => self.stats.demand_fills += 1,
            FillKind::Prefetch | FillKind::Restore => self.stats.prefetch_fills += 1,
        }
        let (ways, line_bytes) = (self.ways, self.line_bytes);
        let (line, set, pos) = self.find(addr);
        if let Some(i) = pos {
            let mut l = set.remove(i);
            if kind == FillKind::Demand {
                l.prefetched = false;
                l.touched = true;
            }
            set.insert(0, l);
            return None;
        }
        let victim = (set.len() == ways).then(|| set.pop().expect("a full set has a last line"));
        set.insert(
            0,
            ModelLine {
                line,
                prefetched: kind != FillKind::Demand,
                restored: kind == FillKind::Restore,
                touched: kind == FillKind::Demand,
            },
        );
        let evicted = victim.map(|v| Evicted {
            addr: Addr::new(v.line * line_bytes),
            was_unused_prefetch: (v.prefetched || v.restored) && !v.touched,
            was_restored: v.restored,
        });
        if let Some(e) = evicted {
            self.stats.evictions += 1;
            if e.was_unused_prefetch {
                self.stats.unused_prefetch_evictions += 1;
                if e.was_restored {
                    self.stats.unused_restore_evictions += 1;
                }
            }
        }
        evicted
    }

    fn invalidate_all(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }

    fn lines(&self) -> impl Iterator<Item = &ModelLine> {
        self.sets.iter().flatten()
    }
}

/// Drives a [`SetAssocCache`] and the reference model through `ops`,
/// failing on the first return value, statistic, unused-restored count
/// or occupancy that differs.
fn check_against_model(geometry: CacheGeometry, ops: &[CacheOp]) -> Result<(), TestCaseError> {
    let mut cache = SetAssocCache::new(geometry);
    let mut model = ModelCache::new(geometry);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            CacheOp::Lookup(a) => {
                prop_assert_eq!(cache.lookup(a), model.lookup_hit(a).is_some(), "step {}", step)
            }
            CacheOp::LookupHit(a) => {
                prop_assert_eq!(cache.lookup_hit(a), model.lookup_hit(a), "step {}", step)
            }
            CacheOp::Probe(a) => prop_assert_eq!(cache.probe(a), model.probe(a), "step {}", step),
            CacheOp::Fill(a, kind) => {
                prop_assert_eq!(cache.fill(a, kind), model.fill(a, kind), "step {}", step)
            }
            CacheOp::InvalidateAll => {
                cache.invalidate_all();
                model.invalidate_all();
            }
        }
        prop_assert_eq!(cache.stats(), &model.stats, "step {} {:?}", step, op);
        let unused_restored = model.lines().filter(|l| l.restored && !l.touched).count() as u64;
        prop_assert_eq!(cache.unused_restored_resident(), unused_restored, "step {}", step);
        prop_assert_eq!(cache.occupancy(), model.lines().count(), "step {}", step);
    }
    Ok(())
}

/// Decodes one drawn `(address index, op code)` pair; one code in 32
/// flushes.
fn cache_op(addr: Addr, code: u8) -> CacheOp {
    match code {
        0..=4 => CacheOp::Lookup(addr),
        5..=9 => CacheOp::LookupHit(addr),
        10..=13 => CacheOp::Probe(addr),
        14..=19 => CacheOp::Fill(addr, FillKind::Demand),
        20..=24 => CacheOp::Fill(addr, FillKind::Prefetch),
        25..=30 => CacheOp::Fill(addr, FillKind::Restore),
        _ => CacheOp::InvalidateAll,
    }
}

/// An address anywhere in the 48-bit VA whose line maps to set
/// `set % sets` (at most three distinct sets, so lines collide and
/// evict), with tag and offset drawn from `raw`.
fn colliding_addr(raw: u64, set: u64, sets: u64, line_bytes: u64) -> Addr {
    addr_in_set(raw, set % sets.min(3), sets, line_bytes)
}

/// An address anywhere in the 48-bit VA whose line maps to set `set`
/// of `sets`, with tag and offset drawn from `raw`.
fn addr_in_set(raw: u64, set: u64, sets: u64, line_bytes: u64) -> Addr {
    let lines = (1u64 << VA_BITS) / line_bytes;
    let tag = (raw >> 16) % (lines / sets);
    Addr::new((tag * sets + set) * line_bytes + raw % line_bytes)
}

/// An address for a pool code: codes 0–2 collide in the first three
/// sets ([`colliding_addr`]), 3 maps to the last set and 4 to the middle
/// one, so the cache's filled prefix grows past sets that hold lines.
fn pool_addr(raw: u64, code: u64, sets: u64, line_bytes: u64) -> Addr {
    match code {
        3 => addr_in_set(raw, sets - 1, sets, line_bytes),
        4 => addr_in_set(raw, sets / 2, sets, line_bytes),
        _ => colliding_addr(raw, code, sets, line_bytes),
    }
}

/// One call on a [`Btb`].
#[derive(Debug, Clone, Copy)]
enum BtbOp {
    LookupTraced(Addr),
    Probe(Addr),
    Insert(BtbEntry, bool),
    Flush,
    DrainInsertions,
    Reset,
}

/// A way of the reference BTB.
#[derive(Debug, Clone, Copy)]
struct ModelWay {
    entry: BtbEntry,
    restored: bool,
    touched: bool,
}

/// A naive reference BTB: one `Vec` per set, kept as an explicit LRU
/// list (most recently used first), with per-way restored and touched
/// flags and every counter recomputed from the ways or counted per call.
struct ModelBtb {
    ways: usize,
    sets: Vec<Vec<ModelWay>>,
    log: Vec<BtbEntry>,
    stats: BtbStats,
}

impl ModelBtb {
    fn new(cfg: &BtbConfig) -> Self {
        ModelBtb {
            ways: cfg.ways,
            sets: vec![Vec::new(); cfg.entries / cfg.ways],
            log: Vec::new(),
            stats: BtbStats::default(),
        }
    }

    /// The BTB's set hash: the PC without its alignment bits, with two
    /// higher slices folded in.
    fn set_index(pc: Addr, sets: usize) -> usize {
        let v = pc.as_u64() >> 2;
        ((v ^ v >> 11 ^ v >> 23) % sets as u64) as usize
    }

    /// The set holding `pc` and the way holding it, if any.
    fn find(&mut self, pc: Addr) -> (&mut Vec<ModelWay>, Option<usize>) {
        let index = Self::set_index(pc, self.sets.len());
        let set = &mut self.sets[index];
        let pos = set.iter().position(|w| w.entry.branch_pc == pc);
        (set, pos)
    }

    fn lookup_traced(&mut self, pc: Addr) -> Option<(BtbEntry, bool)> {
        let (set, pos) = self.find(pc);
        let hit = pos.map(|i| {
            let mut w = set.remove(i);
            let was_restored = w.restored;
            w.restored = false;
            w.touched = true;
            set.insert(0, w);
            (w.entry, was_restored)
        });
        if hit.is_some_and(|(_, was_restored)| was_restored) {
            self.stats.restored_used += 1;
        }
        self.stats.demand.record(hit.is_some());
        hit
    }

    fn probe(&mut self, pc: Addr) -> Option<BtbEntry> {
        let (set, pos) = self.find(pc);
        pos.map(|i| set[i].entry)
    }

    fn insert(&mut self, entry: BtbEntry, from_replay: bool) -> Option<BtbEntry> {
        let ways = self.ways;
        let (set, pos) = self.find(entry.branch_pc);
        if let Some(i) = pos {
            let mut w = set.remove(i);
            w.entry = entry;
            set.insert(0, w);
            return None;
        }
        let victim = (set.len() == ways).then(|| set.pop().expect("a full set has a last way"));
        set.insert(0, ModelWay { entry, restored: from_replay, touched: false });
        if from_replay {
            self.stats.replay_insertions += 1;
        } else {
            self.stats.insertions += 1;
            self.log.push(entry);
        }
        if let Some(v) = victim {
            self.stats.evictions += 1;
            if v.restored && !v.touched {
                self.stats.restored_evicted_untouched += 1;
            }
        }
        victim.map(|v| v.entry)
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.log.clear();
    }

    fn ways(&self) -> impl Iterator<Item = &ModelWay> {
        self.sets.iter().flatten()
    }
}

/// A BTB's entries in a canonical order, for multiset comparison.
fn sorted_entries(entries: impl Iterator<Item = BtbEntry>) -> Vec<(Addr, Addr, u8)> {
    let mut v: Vec<_> = entries.map(|e| (e.branch_pc, e.target, e.kind.code())).collect();
    v.sort_unstable();
    v
}

/// Drives a [`Btb`] and the reference model through `ops`, failing on the
/// first return value, statistic, restored-untouched count, occupancy or
/// entry multiset that differs.
fn check_btb_against_model(cfg: BtbConfig, ops: &[BtbOp]) -> Result<(), TestCaseError> {
    let mut btb = Btb::new(&cfg);
    let mut model = ModelBtb::new(&cfg);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            BtbOp::LookupTraced(pc) => {
                prop_assert_eq!(btb.lookup_traced(pc), model.lookup_traced(pc), "step {}", step)
            }
            BtbOp::Probe(pc) => prop_assert_eq!(btb.probe(pc), model.probe(pc), "step {}", step),
            BtbOp::Insert(entry, from_replay) => prop_assert_eq!(
                btb.insert(entry, from_replay),
                model.insert(entry, from_replay),
                "step {}",
                step
            ),
            BtbOp::Flush => {
                btb.flush();
                model.flush();
            }
            BtbOp::DrainInsertions => {
                let drained: Vec<BtbEntry> = btb.drain_insertions().collect();
                prop_assert_eq!(drained, std::mem::take(&mut model.log), "step {}", step);
            }
            BtbOp::Reset => {
                btb.reset();
                model.flush();
                model.stats = BtbStats::default();
            }
        }
        prop_assert_eq!(btb.stats(), &model.stats, "step {} {:?}", step, op);
        let untouched = model.ways().filter(|w| w.restored && !w.touched).count() as u64;
        prop_assert_eq!(btb.restored_untouched(), untouched, "step {}", step);
        prop_assert_eq!(btb.occupancy(), model.ways().count(), "step {}", step);
        prop_assert_eq!(
            sorted_entries(btb.iter()),
            sorted_entries(model.ways().map(|w| w.entry)),
            "step {}",
            step
        );
    }
    Ok(())
}

/// `n` branch PCs anywhere in the 48-bit VA that hash into the first
/// three sets (or fewer, if there are fewer), so branches collide and
/// evict.
fn colliding_pcs(seed: u64, sets: usize, n: usize) -> Vec<Addr> {
    let mut rng = SplitMix64::new(seed);
    let mut pcs = Vec::with_capacity(n);
    while pcs.len() < n {
        let pc = Addr::new(rng.next_u64());
        if ModelBtb::set_index(pc, sets) < 3 {
            pcs.push(pc);
        }
    }
    pcs
}

/// Decodes one drawn `(pc, target, op code)` triple; one code in 32
/// flushes and one resets.
fn btb_op(pc: Addr, target: u64, code: u8) -> BtbOp {
    let entry = BtbEntry::new(pc, Addr::new(target), BranchKind::ALL[target as usize % 5]);
    match code {
        0..=9 => BtbOp::LookupTraced(pc),
        10..=13 => BtbOp::Probe(pc),
        14..=20 => BtbOp::Insert(entry, false),
        21..=27 => BtbOp::Insert(entry, true),
        28..=29 => BtbOp::DrainInsertions,
        30 => BtbOp::Flush,
        _ => BtbOp::Reset,
    }
}

/// One call on a [`Cbp`].
#[derive(Debug, Clone, Copy)]
enum CbpOp {
    /// Predicts a branch and queues the prediction, as the FTQ does.
    Predict(Addr),
    /// Resolves the oldest queued prediction.
    Resolve(bool),
    ResolveUncounted(Addr, bool),
    IgniteInitialize(Addr, Counter),
    BeginInvocation,
}

/// The CBP's first-execution and Ignite bookkeeping as two sets, with
/// every [`CbpStats`] counter derived from them and each prediction.
#[derive(Default)]
struct CbpShadow {
    seen: std::collections::HashSet<u64>,
    ignite_initialized: std::collections::HashSet<u64>,
    stats: CbpStats,
}

impl CbpShadow {
    fn resolve(&mut self, pc: Addr, taken: bool, pred: &CbpPrediction) {
        let s = &mut self.stats;
        s.predictions += 1;
        s.tage_provided += u64::from(pred.from_tage);
        let first = self.seen.insert(pc.as_u64());
        let ignite = self.ignite_initialized.remove(&pc.as_u64());
        if pred.taken != taken {
            s.mispredictions += 1;
            if pred.from_tage {
                s.tage_mispredictions += 1;
            } else {
                s.bim_mispredictions += 1;
            }
            if first {
                s.initial_mispredictions += 1;
                s.ignite_induced_mispredictions += u64::from(ignite && !pred.from_tage);
            } else {
                s.subsequent_mispredictions += 1;
            }
        } else if first && ignite && !pred.from_tage {
            s.ignite_covered_initials += 1;
        }
    }
}

/// One call on a [`Tage`].
#[derive(Debug, Clone, Copy)]
enum TageOp {
    /// Predicts a branch and queues the prediction, as the CBP does.
    Predict(Addr),
    /// Trains with the oldest queued prediction, or with a fresh one for
    /// the given branch when none is queued.
    Update {
        pc: Addr,
        taken: bool,
        mispredicted: bool,
        alt_pred: bool,
    },
    PushHistory(Addr, Addr),
    Flush,
    Reset,
}

/// The seed [`Tage`] gives its allocation RNG when built or reset.
const TAGE_RNG_SEED: u64 = 0x7A6E_5EED;

/// An entry of the shadow TAGE, with an explicit valid flag.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowEntry {
    valid: bool,
    tag: u16,
    ctr: i8,
    useful: u8,
}

/// The shadow's prediction: the fields of a [`TagePrediction`], by the
/// same names in the same order, so the two `Debug` texts agree when
/// every field does (the real fields are private).
#[derive(Debug, Clone, Copy)]
struct ShadowPrediction {
    indices: [u16; Tage::MAX_TABLES],
    tags: [u16; Tage::MAX_TABLES],
    provider: Option<u8>,
    provider_pred: bool,
    alt: Option<bool>,
    weak_provider: bool,
}

/// A naive TAGE: one `Vec` per table, an explicit valid flag per entry,
/// and each folded history recomputed from the pushed bits after every
/// push. Counts the usefulness decays and failed allocations it sees.
struct TageShadow {
    cfg: TageConfig,
    tables: Vec<Vec<ShadowEntry>>,
    /// Pushed history bits, newest first, as many as the longest window.
    history: std::collections::VecDeque<u64>,
    /// Per table: the folded index history and the two folded tag
    /// histories.
    folds: Vec<[u64; 3]>,
    updates: u64,
    rng: SplitMix64,
    allocations: u64,
    decays: u64,
    failed_allocations: u64,
}

impl TageShadow {
    fn new(cfg: &TageConfig) -> Self {
        let mut shadow = TageShadow {
            cfg: *cfg,
            tables: Vec::new(),
            history: Default::default(),
            folds: Vec::new(),
            updates: 0,
            rng: SplitMix64::new(TAGE_RNG_SEED),
            allocations: 0,
            decays: 0,
            failed_allocations: 0,
        };
        shadow.flush();
        shadow
    }

    /// Folds the newest `len` history bits into `width` bits from scratch:
    /// bit `i` (0 = newest) lands at `i % width`. A register is never
    /// narrower than one bit.
    fn fold(&self, len: u32, width: u32) -> u64 {
        let width = width.max(1) as usize;
        let bits = self.history.iter().take(len as usize).enumerate();
        bits.fold(0, |acc, (i, &h)| acc ^ h << (i % width))
    }

    fn refold(&mut self) {
        let index_bits = self.cfg.entries_per_table.trailing_zeros();
        let widths = [index_bits, self.cfg.tag_bits, self.cfg.tag_bits - 1];
        self.folds = (0..self.cfg.tables)
            .map(|t| widths.map(|w| self.fold(self.cfg.history_length(t), w)))
            .collect();
    }

    fn predict(&self, pc: Addr) -> ShadowPrediction {
        let pcv = pc.as_u64();
        let index_bits = u64::from(self.cfg.entries_per_table.trailing_zeros());
        let mut p = ShadowPrediction {
            indices: [0; Tage::MAX_TABLES],
            tags: [0; Tage::MAX_TABLES],
            provider: None,
            provider_pred: false,
            alt: None,
            weak_provider: false,
        };
        for (t, [index, tag0, tag1]) in self.folds.iter().copied().enumerate() {
            let h = pcv ^ pcv >> (index_bits + t as u64 + 1) ^ index;
            p.indices[t] = (h % self.cfg.entries_per_table as u64) as u16;
            p.tags[t] = ((pcv ^ (tag0 ^ tag1 << 1)) % (1 << self.cfg.tag_bits)) as u16;
        }
        for t in (0..self.cfg.tables).rev() {
            let e = self.tables[t][usize::from(p.indices[t])];
            if !e.valid || e.tag != p.tags[t] {
                continue;
            }
            if p.provider.is_some() {
                p.alt = Some(e.ctr >= 0);
                break;
            }
            p.provider = Some(t as u8);
            p.provider_pred = e.ctr >= 0;
            p.weak_provider = e.useful == 0 && (e.ctr == 0 || e.ctr == -1);
        }
        p
    }

    fn update(&mut self, taken: bool, p: &ShadowPrediction, mispredicted: bool, alt_pred: bool) {
        self.updates += 1;
        if self.cfg.u_reset_period > 0 && self.updates.is_multiple_of(self.cfg.u_reset_period) {
            self.decays += 1;
            for e in self.tables.iter_mut().flatten() {
                e.useful /= 2;
            }
        }
        if let Some(t) = p.provider {
            let e = &mut self.tables[usize::from(t)][usize::from(p.indices[usize::from(t)])];
            e.ctr = if taken { (e.ctr + 1).min(3) } else { (e.ctr - 1).max(-4) };
            if p.provider_pred != alt_pred {
                e.useful = if p.provider_pred == taken {
                    (e.useful + 1).min(3)
                } else {
                    e.useful.saturating_sub(1)
                };
            }
        }
        let start = p.provider.map_or(0, |t| usize::from(t) + 1);
        if !mispredicted || start >= self.cfg.tables {
            return;
        }
        let mut first = start;
        if first + 1 < self.cfg.tables && self.rng.chance(0.5) {
            first += 1;
        }
        let free = (first..self.cfg.tables)
            .find(|&t| self.tables[t][usize::from(p.indices[t])].useful == 0);
        if let Some(t) = free {
            let ctr = if taken { 0 } else { -1 };
            self.tables[t][usize::from(p.indices[t])] =
                ShadowEntry { valid: true, tag: p.tags[t], ctr, useful: 0 };
            self.allocations += 1;
        } else {
            self.failed_allocations += 1;
            for t in start..self.cfg.tables {
                let e = &mut self.tables[t][usize::from(p.indices[t])];
                e.useful = e.useful.saturating_sub(1);
            }
        }
    }

    fn push_history(&mut self, pc: Addr, target: Addr) {
        self.history.push_front((pc.as_u64() >> 2 ^ target.as_u64() >> 3) & 1);
        self.history.truncate(self.cfg.max_history as usize);
        self.refold();
    }

    fn flush(&mut self) {
        let table = vec![ShadowEntry::default(); self.cfg.entries_per_table];
        self.tables = vec![table; self.cfg.tables];
        self.history.clear();
        self.refold();
        self.updates = 0;
    }

    fn reset(&mut self) {
        self.flush();
        self.rng = SplitMix64::new(TAGE_RNG_SEED);
        self.allocations = 0;
    }

    fn occupancy(&self) -> f64 {
        let valid = self.tables.iter().flatten().filter(|e| e.valid).count();
        valid as f64 / (self.cfg.tables * self.cfg.entries_per_table) as f64
    }
}

/// Drives a [`Tage`] and the shadow through `ops`, failing on the first
/// prediction, allocation count or occupancy that differs. Returns the
/// shadow, for its coverage counters.
fn check_tage_against_shadow(
    cfg: &TageConfig,
    ops: &[TageOp],
) -> Result<TageShadow, TestCaseError> {
    let mut tage = Tage::new(cfg);
    let mut shadow = TageShadow::new(cfg);
    let mut queued: std::collections::VecDeque<(TagePrediction, ShadowPrediction)> =
        std::collections::VecDeque::new();
    let predict = |tage: &Tage, shadow: &TageShadow, pc: Addr, step: usize| {
        let (real, naive) = (tage.predict(pc), shadow.predict(pc));
        prop_assert_eq!(
            real.direction(),
            naive.provider.map(|_| naive.provider_pred),
            "step {}",
            step
        );
        prop_assert_eq!(real.alt_direction(), naive.alt, "step {}", step);
        prop_assert_eq!(real.weak_provider(), naive.weak_provider, "step {}", step);
        let naive_text = format!("{naive:?}").replacen("ShadowPrediction", "TagePrediction", 1);
        prop_assert_eq!(format!("{real:?}"), naive_text, "step {}", step);
        Ok((real, naive))
    };
    for (step, &op) in ops.iter().enumerate() {
        match op {
            TageOp::Predict(pc) => queued.push_back(predict(&tage, &shadow, pc, step)?),
            TageOp::Update { pc, taken, mispredicted, alt_pred } => {
                let (real, naive) = match queued.pop_front() {
                    Some(pair) => pair,
                    None => predict(&tage, &shadow, pc, step)?,
                };
                tage.update(pc, taken, &real, mispredicted, alt_pred);
                shadow.update(taken, &naive, mispredicted, alt_pred);
            }
            TageOp::PushHistory(pc, target) => {
                tage.push_history(pc, target);
                shadow.push_history(pc, target);
            }
            TageOp::Flush => {
                tage.flush();
                shadow.flush();
            }
            TageOp::Reset => {
                tage.reset();
                shadow.reset();
            }
        }
        prop_assert_eq!(tage.allocations(), shadow.allocations, "step {} {:?}", step, op);
        prop_assert_eq!(tage.occupancy(), shadow.occupancy(), "step {} {:?}", step, op);
    }
    Ok(shadow)
}

/// Decodes one drawn `(pc, target, flags, op code)` quadruple; one code
/// in 64 flushes and one resets.
fn tage_op(pc: Addr, target: Addr, flags: u8, code: u8) -> TageOp {
    let flag = |bit: u8| flags & bit != 0;
    match code {
        0..=19 => TageOp::Predict(pc),
        20..=41 => TageOp::Update { pc, taken: flag(1), mispredicted: flag(2), alt_pred: flag(4) },
        42..=61 => TageOp::PushHistory(pc, target),
        62 => TageOp::Flush,
        _ => TageOp::Reset,
    }
}

proptest! {
    // ---- addresses ----

    #[test]
    fn addr_masks_to_va_space(raw in any::<u64>()) {
        prop_assert!(Addr::new(raw).as_u64() <= VA_MASK);
    }

    #[test]
    fn addr_delta_roundtrips(a in 0u64..(1 << 47), b in 0u64..(1 << 47)) {
        let (a, b) = (Addr::new(a), Addr::new(b));
        prop_assert_eq!(a.offset(a.delta_to(b)), b);
    }

    #[test]
    fn line_alignment_invariants(raw in any::<u64>()) {
        let a = Addr::new(raw);
        prop_assert_eq!(a.line().as_u64() % LINE_BYTES, 0);
        prop_assert!(a.line() <= a);
        prop_assert!(a.as_u64() - a.line().as_u64() < LINE_BYTES);
    }

    #[test]
    fn lines_spanned_covers_range(start in 0u64..(1 << 30), bytes in 1u64..4096) {
        let lines: Vec<Addr> = lines_spanned(Addr::new(start), bytes).collect();
        // First line contains the start, last line contains the final byte.
        prop_assert_eq!(lines.first().copied(), Some(Addr::new(start).line()));
        prop_assert_eq!(
            lines.last().copied(),
            Some(Addr::new(start + bytes - 1).line())
        );
        // Consecutive and non-overlapping.
        for pair in lines.windows(2) {
            prop_assert_eq!(pair[0].next_line(), pair[1]);
        }
    }

    // ---- caches ----

    #[test]
    fn cache_lookup_after_fill_always_hits(addrs in prop::collection::vec(0u64..(1 << 22), 1..200)) {
        let mut cache = SetAssocCache::new(CacheGeometry {
            size_bytes: 4 * 1024,
            ways: 4,
            line_bytes: 64,
        });
        for &raw in &addrs {
            let a = Addr::new(raw);
            cache.fill(a, FillKind::Demand);
            // A line just filled must be resident (fills never self-evict).
            prop_assert!(cache.lookup(a), "lost line just filled: {a}");
        }
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(addrs in prop::collection::vec(0u64..(1 << 24), 1..300)) {
        let geometry = CacheGeometry { size_bytes: 2 * 1024, ways: 2, line_bytes: 64 };
        let mut cache = SetAssocCache::new(geometry);
        for &raw in &addrs {
            cache.fill(Addr::new(raw), FillKind::Prefetch);
            prop_assert!(cache.occupancy() <= geometry.lines());
        }
    }

    #[test]
    fn cache_stats_balance(ops in prop::collection::vec((0u64..(1 << 16), any::<bool>()), 1..300)) {
        let mut cache = SetAssocCache::new(CacheGeometry {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        });
        for &(raw, fill) in &ops {
            let a = Addr::new(raw);
            if fill {
                cache.fill(a, FillKind::Demand);
            } else {
                cache.lookup(a);
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.demand.hits + s.demand.misses, s.demand.lookups);
    }

    // ---- hierarchy ----

    #[test]
    fn hierarchy_ready_times_never_precede_request(
        addrs in prop::collection::vec(0u64..(1 << 20), 1..100)
    ) {
        let mut h = Hierarchy::new(&UarchConfig::tiny_for_tests().hierarchy);
        let mut now = 0;
        for &raw in &addrs {
            let r = h.fetch(Addr::new(raw), now);
            prop_assert!(r.ready_at > now, "zero-latency fetch");
            now = r.ready_at;
        }
    }

    #[test]
    fn hierarchy_second_fetch_is_faster(raw in 0u64..(1 << 20)) {
        let mut h = Hierarchy::new(&UarchConfig::tiny_for_tests().hierarchy);
        let a = Addr::new(raw);
        let first = h.fetch(a, 0);
        let second = h.fetch(a, first.ready_at);
        prop_assert_eq!(second.served_by, Level::L1I);
        prop_assert!(second.ready_at - first.ready_at <= first.ready_at);
    }

    #[test]
    fn memory_traffic_is_line_granular(addrs in prop::collection::vec(0u64..(1 << 22), 1..100)) {
        let mut h = Hierarchy::new(&UarchConfig::tiny_for_tests().hierarchy);
        for &raw in &addrs {
            h.fetch(Addr::new(raw), 0);
        }
        prop_assert_eq!(h.memory_read_bytes() % LINE_BYTES, 0);
        prop_assert!(h.untouched_fill_bytes() <= h.memory_read_bytes());
    }

    // ---- BTB ----

    #[test]
    fn btb_lookup_after_insert_hits(pcs in prop::collection::vec(0u64..(1 << 16), 1..100)) {
        let mut btb = Btb::new(&BtbConfig { entries: 256, ways: 4 });
        for &raw in &pcs {
            let pc = Addr::new(raw);
            btb.insert(BtbEntry::new(pc, pc + 16, BranchKind::Conditional), false);
            prop_assert!(btb.lookup(pc).is_some());
        }
    }

    #[test]
    fn btb_occupancy_bounded(pcs in prop::collection::vec(0u64..(1 << 20), 1..400)) {
        let mut btb = Btb::new(&BtbConfig { entries: 64, ways: 4 });
        for &raw in &pcs {
            let pc = Addr::new(raw);
            btb.insert(BtbEntry::new(pc, pc + 16, BranchKind::Call), false);
        }
        prop_assert!(btb.occupancy() <= 64);
    }

    #[test]
    fn btb_restored_counter_never_negative_or_leaking(
        ops in prop::collection::vec((0u64..256, 0u8..3), 1..300)
    ) {
        let mut btb = Btb::new(&BtbConfig { entries: 32, ways: 2 });
        for &(raw, op) in &ops {
            let pc = Addr::new(raw << 2);
            match op {
                0 => {
                    btb.insert(BtbEntry::new(pc, pc + 8, BranchKind::Conditional), true);
                }
                1 => {
                    btb.insert(BtbEntry::new(pc, pc + 8, BranchKind::Conditional), false);
                }
                _ => {
                    btb.lookup(pc);
                }
            }
            // The untouched-restored counter can never exceed the number of
            // valid entries.
            prop_assert!(btb.restored_untouched() <= btb.occupancy() as u64);
        }
        btb.flush();
        prop_assert_eq!(btb.restored_untouched(), 0);
    }

    #[test]
    fn cache_unused_restored_counter_matches_a_shadow_model(
        ops in prop::collection::vec((0u64..24 * 64, 0u8..10), 1..400)
    ) {
        // 2 sets x 2 ways: 24 distinct lines keep every set evicting.
        let mut cache =
            SetAssocCache::new(CacheGeometry { size_bytes: 256, ways: 2, line_bytes: 64 });
        // Lines a restore fill installed that no demand access has used yet.
        let mut shadow = std::collections::BTreeSet::new();
        for &(raw, op) in &ops {
            let addr = Addr::new(raw);
            let line = addr.line().as_u64();
            let resident = cache.probe(addr);
            match op {
                0..=6 => {
                    let kind = match op {
                        0 | 1 => FillKind::Demand,
                        2 | 3 => FillKind::Prefetch,
                        _ => FillKind::Restore,
                    };
                    if let Some(evicted) = cache.fill(addr, kind) {
                        shadow.remove(&evicted.addr.as_u64());
                    }
                    // Refilling a resident line changes only what a demand
                    // fill marks: the line counts as used.
                    if resident && kind == FillKind::Demand {
                        shadow.remove(&line);
                    } else if !resident && kind == FillKind::Restore {
                        shadow.insert(line);
                    }
                }
                7 | 8 => {
                    if cache.lookup(addr) {
                        shadow.remove(&line);
                    }
                }
                _ => {
                    cache.invalidate_all();
                    shadow.clear();
                    prop_assert_eq!(cache.occupancy(), 0);
                }
            }
            prop_assert_eq!(cache.unused_restored_resident(), shadow.len() as u64);
        }
    }

    #[test]
    fn cache_matches_the_reference_model(
        ways in 1usize..21,
        sets in 1u64..40,
        line_shift in prop_oneof![Just(0u32), Just(6u32), Just(12u32)],
        pool in prop::collection::vec((any::<u64>(), 0u64..5), 1..48),
        high_first in any::<bool>(),
        ops in prop::collection::vec((0usize..48, 0u8..32), 1..400)
    ) {
        let line_bytes = 1u64 << line_shift;
        let geometry =
            CacheGeometry { size_bytes: sets * ways as u64 * line_bytes, ways, line_bytes };
        let pool: Vec<Addr> =
            pool.iter().map(|&(raw, code)| pool_addr(raw, code, sets, line_bytes)).collect();
        // Half the cases start by filling the pool from its highest set
        // down, so the first fill grows the prefix furthest.
        let mut first: Vec<Addr> = if high_first { pool.clone() } else { Vec::new() };
        first.sort_by_key(|a| std::cmp::Reverse(a.as_u64() / line_bytes % sets));
        let ops: Vec<CacheOp> = first
            .into_iter()
            .map(|a| CacheOp::Fill(a, FillKind::Demand))
            .chain(ops.iter().map(|&(i, code)| cache_op(pool[i % pool.len()], code)))
            .collect();
        check_against_model(geometry, &ops)?;
    }

    #[test]
    fn btb_matches_the_reference_model(
        ways in 1usize..9,
        sets in prop_oneof![Just(1usize), Just(2usize), Just(4usize), Just(64usize), 1usize..40],
        seed in any::<u64>(),
        ops in prop::collection::vec((0usize..48, any::<u64>(), 0u8..32), 1..400)
    ) {
        let cfg = BtbConfig { entries: sets * ways, ways };
        let pool = colliding_pcs(seed, sets, 48);
        let ops: Vec<BtbOp> =
            ops.iter().map(|&(i, target, code)| btb_op(pool[i], target, code)).collect();
        check_btb_against_model(cfg, &ops)?;
    }

    // ---- bimodal ----

    #[test]
    fn bimodal_counter_transitions_are_saturating(v in 0u8..4, outcomes in prop::collection::vec(any::<bool>(), 0..64)) {
        let mut c = Counter::from_value(v);
        for &taken in &outcomes {
            c = c.update(taken);
            prop_assert!(c.value() <= 3);
        }
    }

    #[test]
    fn bimodal_converges_to_constant_direction(pc in 0u64..(1 << 20), dir in any::<bool>()) {
        let mut bim = Bimodal::new(&BimodalConfig { size_bytes: 512 });
        let a = Addr::new(pc);
        for _ in 0..4 {
            bim.update(a, dir);
        }
        prop_assert_eq!(bim.predict(a), dir);
    }

    // ---- CBP ----

    #[test]
    fn cbp_initial_plus_subsequent_equals_total(
        branches in prop::collection::vec((0u64..64, any::<bool>()), 1..200)
    ) {
        let mut cbp = Cbp::new(&UarchConfig::tiny_for_tests().cbp);
        cbp.begin_invocation();
        for &(raw, taken) in &branches {
            let pc = Addr::new(0x1000 + raw * 4);
            let p = cbp.predict(pc);
            cbp.resolve(pc, taken, Addr::new(0x9000), &p);
        }
        let s = cbp.stats();
        prop_assert_eq!(
            s.initial_mispredictions + s.subsequent_mispredictions,
            s.mispredictions
        );
        prop_assert!(s.mispredictions <= s.predictions);
    }

    #[test]
    fn cbp_flags_match_two_shadow_sets(
        loop_predictor in any::<bool>(),
        pool in prop::collection::vec(any::<u64>(), 1..24),
        ops in prop::collection::vec((0usize..24, 0u8..4, 0u8..16), 1..400)
    ) {
        let mut cfg = UarchConfig::tiny_for_tests().cbp;
        cfg.loop_predictor =
            loop_predictor.then(ignite_uarch::loop_pred::LoopPredictorConfig::default);
        let mut cbp = Cbp::new(&cfg);
        let mut shadow = CbpShadow::default();
        let mut queued: std::collections::VecDeque<(Addr, CbpPrediction)> =
            std::collections::VecDeque::new();
        for (step, &(i, v, code)) in ops.iter().enumerate() {
            let pc = Addr::new(pool[i % pool.len()]);
            let taken = v & 1 == 1;
            let op = match code {
                0..=5 => CbpOp::Predict(pc),
                6..=10 => CbpOp::Resolve(taken),
                11..=12 => CbpOp::ResolveUncounted(pc, taken),
                13..=14 => CbpOp::IgniteInitialize(pc, Counter::from_value(v)),
                _ => CbpOp::BeginInvocation,
            };
            match op {
                CbpOp::Predict(pc) => queued.push_back((pc, cbp.predict(pc))),
                CbpOp::Resolve(taken) => {
                    if let Some((pc, pred)) = queued.pop_front() {
                        cbp.resolve(pc, taken, pc + 64, &pred);
                        shadow.resolve(pc, taken, &pred);
                    }
                }
                CbpOp::ResolveUncounted(pc, taken) => {
                    cbp.resolve_uncounted(pc, taken, pc + 64);
                    shadow.seen.insert(pc.as_u64());
                    shadow.ignite_initialized.remove(&pc.as_u64());
                }
                CbpOp::IgniteInitialize(pc, counter) => {
                    cbp.ignite_initialize(pc, counter);
                    shadow.ignite_initialized.insert(pc.as_u64());
                }
                CbpOp::BeginInvocation => {
                    cbp.begin_invocation();
                    shadow.seen.clear();
                    shadow.ignite_initialized.clear();
                }
            }
            prop_assert_eq!(cbp.stats(), &shadow.stats, "step {} {:?}", step, op);
            prop_assert_eq!(cbp.distinct_branches_seen(), shadow.seen.len(), "step {}", step);
        }
    }

    // ---- TAGE ----

    #[test]
    fn tage_matches_a_nested_table_shadow(
        tables in 1usize..9,
        index_bits in 0u32..7,
        tag_bits in 1u32..16,
        min_history in 1u32..9,
        extra_history in 0u32..60,
        u_reset_period in prop_oneof![Just(0u64), 1u64..64, Just(1u64 << 18)],
        pool in prop::collection::vec(any::<u64>(), 1..16),
        ops in prop::collection::vec((0usize..16, 0usize..16, any::<u8>(), 0u8..64), 1..800)
    ) {
        let cfg = TageConfig {
            tables,
            entries_per_table: 1 << index_bits,
            tag_bits,
            min_history,
            max_history: min_history + extra_history,
            u_reset_period,
        };
        let at = |i: usize| Addr::new(pool[i % pool.len()]);
        let ops: Vec<TageOp> =
            ops.iter().map(|&(i, j, flags, code)| tage_op(at(i), at(j), flags, code)).collect();
        check_tage_against_shadow(&cfg, &ops)?;
    }

    // ---- ITLB ----

    #[test]
    fn itlb_same_page_never_walks_twice_in_a_row(addr in 0u64..(1 << 30)) {
        let mut tlb = Itlb::new(&TlbConfig { entries: 16, ways: 4, walk_latency: 50 });
        let a = Addr::new(addr);
        tlb.translate(a);
        prop_assert_eq!(tlb.translate(a), 0);
    }
}

/// More flushes than the generation counter holds. The first generation
/// fills every way; later ones make at most one call each, so the lines
/// of the first generation stay in ways that no later fill reaches, and
/// only the wrap sweep keeps them from coming back when the generation
/// counter returns to its first value.
#[test]
fn cache_matches_the_reference_model_across_generation_wraps() {
    let geometry = CacheGeometry { size_bytes: 3 * 4 * 64, ways: 4, line_bytes: 64 };
    let mut rng = SplitMix64::new(0x6E4);
    let pool: Vec<Addr> =
        (0..16).map(|_| colliding_addr(rng.next_u64(), rng.next_u64(), 3, 64)).collect();
    let mut ops: Vec<CacheOp> = pool.iter().map(|&a| CacheOp::Fill(a, FillKind::Restore)).collect();
    for _ in 0..2 * SetAssocCache::GENERATIONS + 5 {
        ops.push(CacheOp::InvalidateAll);
        let addr = pool[rng.next_below(pool.len() as u64) as usize];
        ops.push(cache_op(addr, rng.next_below(31) as u8));
    }
    if let Err(e) = check_against_model(geometry, &ops) {
        panic!("{e}");
    }
}

/// More flushes than the BTB's generation counter holds, built like the
/// cache's wrap case: the first generation fills every way with replayed
/// entries, and each later generation makes at most one call, so only
/// the wrap sweep keeps the first generation's entries from coming back.
#[test]
fn btb_matches_the_reference_model_across_generation_wraps() {
    let cfg = BtbConfig { entries: 3 * 4, ways: 4 };
    let mut rng = SplitMix64::new(0xB7B);
    let pool = colliding_pcs(rng.next_u64(), 3, 16);
    let mut ops: Vec<BtbOp> = pool
        .iter()
        .map(|&pc| BtbOp::Insert(BtbEntry::new(pc, pc, BranchKind::Call), true))
        .collect();
    for _ in 0..2 * Btb::GENERATIONS + 5 {
        ops.push(BtbOp::Flush);
        let pc = pool[rng.next_below(pool.len() as u64) as usize];
        ops.push(btb_op(pc, rng.next_u64(), rng.next_below(30) as u8));
    }
    if let Err(e) = check_btb_against_model(cfg, &ops) {
        panic!("{e}");
    }
}

/// Long runs of the TAGE shadow check: the Table 2 geometry, and a small
/// one over enough updates to cross its usefulness-decay period several
/// times and to find every candidate entry useful. Each branch has a
/// fixed direction and the alternate always disagrees with it, so a
/// correct provider gains usefulness on every update.
#[test]
fn tage_matches_a_nested_table_shadow_on_long_runs() {
    let table2 = UarchConfig::ice_lake_like().cbp.tage;
    let small = TageConfig {
        tables: 4,
        entries_per_table: 16,
        tag_bits: 9,
        min_history: 2,
        max_history: 24,
        u_reset_period: 500,
    };
    for (cfg, len) in [(table2, 1_000), (small, 20_000)] {
        let mut rng = SplitMix64::new(0x7A6E);
        let pool: Vec<Addr> = (0..24).map(|_| Addr::new(rng.next_u64())).collect();
        // No flush or reset, so the update count reaches the period.
        let mut ops = Vec::new();
        for _ in 0..len {
            let [pc, target] = [(); 2].map(|_| pool[rng.next_below(24) as usize]);
            if rng.chance(0.5) {
                let taken = pc.as_u64() & 1 == 1;
                let mispredicted = rng.chance(0.5);
                ops.push(TageOp::Predict(pc));
                ops.push(TageOp::Update { pc, taken, mispredicted, alt_pred: !taken });
            } else {
                ops.push(TageOp::PushHistory(pc, target));
            }
        }
        let shadow = check_tage_against_shadow(&cfg, &ops).unwrap_or_else(|e| panic!("{e}"));
        if cfg == small {
            assert!(shadow.decays >= 2, "only {} usefulness decays", shadow.decays);
            assert!(shadow.failed_allocations > 0, "no allocation failed");
        }
    }
}
