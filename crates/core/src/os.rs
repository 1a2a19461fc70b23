//! Operating-system interface (§4.3).
//!
//! The OS allocates a contiguous metadata region per function container and
//! programs Ignite's record/replay engines through base/size/control
//! registers. This module models that interface: per-container metadata
//! storage, record/replay enable bits, and optional double-buffering
//! (record and replay simultaneously, letting the metadata track behaviour
//! that evolves between invocations).

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ignite_uarch::btb::BtbEntry;
use ignite_uarch::fxmap::FxHashMap;

use crate::codec::{CodecConfig, CodecError, Encoder, Metadata};
use crate::fault::FaultPlan;

/// Control-register state for one Ignite engine pair (record + replay have
/// independent register sets; §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlRegisters {
    /// Recording enabled.
    pub record: bool,
    /// Replay enabled.
    pub replay: bool,
}

impl Default for ControlRegisters {
    fn default() -> Self {
        // Double-buffered always-on operation is the paper's worst-case
        // bandwidth configuration (§6.3) and keeps metadata fresh.
        ControlRegisters { record: true, replay: true }
    }
}

/// What the OS arms when a function is scheduled onto a core.
#[derive(Debug, Clone)]
pub struct InvocationPlan<'a> {
    /// Metadata from the previous invocation, to be replayed (absent on the
    /// container's first invocation or when replay is disabled): the
    /// stored region itself, borrowed, or the copy an active fault plan
    /// corrupted.
    pub replay_metadata: Option<Cow<'a, Metadata>>,
    /// Whether recording should run during this invocation.
    pub record: bool,
    /// Set when a stored region existed but injected faults destroyed its
    /// structure before it could be read: the error, and how many records
    /// the region held before corruption.
    pub replay_error: Option<(CodecError, usize)>,
}

/// The working memory of [`IgniteOs::function_finished_merge`], kept by
/// its caller from one merge to the next. [`crate::Ignite`] also lends
/// the decode buffer to each replay session and the encoder buffer to
/// each recording, which have ended by the time the merge runs. Every
/// user clears what it borrows first, and nothing shrinks.
#[derive(Debug, Clone, Default)]
pub struct MergeScratch {
    /// Decoded records: the old region's, then the recording's.
    pub(crate) entries: Vec<BtbEntry>,
    /// Each branch PC's slot: its first position in `entries` once
    /// de-duplicated.
    slots: FxHashMap<u64, usize>,
    /// The encoder's buffer.
    pub(crate) bits: Vec<u8>,
}

/// The modelled host OS managing Ignite metadata regions.
///
/// # Example
///
/// ```
/// use ignite_core::os::IgniteOs;
///
/// let mut os = IgniteOs::new(120 * 1024);
/// let plan = os.function_started(7);
/// assert!(plan.replay_metadata.is_none(), "first invocation has nothing to replay");
/// assert!(plan.record);
/// ```
#[derive(Debug, Clone)]
pub struct IgniteOs {
    regions: HashMap<u64, Metadata>,
    control: ControlRegisters,
    region_bytes: usize,
    faults: FaultPlan,
    /// Completed read-backs per container, indexing fault streams so each
    /// invocation draws independent (but reproducible) faults.
    read_counts: HashMap<u64, u64>,
}

impl IgniteOs {
    /// Creates an OS managing metadata regions of `region_bytes` each
    /// (paper: 120 KiB).
    pub fn new(region_bytes: usize) -> Self {
        IgniteOs {
            regions: HashMap::new(),
            control: ControlRegisters::default(),
            region_bytes,
            faults: FaultPlan::none(),
            read_counts: HashMap::new(),
        }
    }

    /// Installs a fault plan applied to every region read-back.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The active fault plan.
    pub fn faults(&self) -> FaultPlan {
        self.faults
    }

    /// Metadata region size (the record budget).
    pub fn region_bytes(&self) -> usize {
        self.region_bytes
    }

    /// Control registers.
    pub fn control(&self) -> ControlRegisters {
        self.control
    }

    /// Sets the control registers (e.g. replay-only, record-only).
    pub fn set_control(&mut self, control: ControlRegisters) {
        self.control = control;
    }

    /// Called when the scheduler places `container` on a core: returns the
    /// invocation plan per the control registers (§4.3), applying the fault
    /// plan (if any) to the stored region as it is read back.
    pub fn function_started(&mut self, container: u64) -> InvocationPlan<'_> {
        let mut plan = InvocationPlan {
            replay_metadata: None,
            record: self.control.record,
            replay_error: None,
        };
        if !self.control.replay {
            return plan;
        }
        let Some(stored) = self.regions.get(&container) else {
            return plan;
        };
        if !self.faults.is_active() {
            plan.replay_metadata = Some(Cow::Borrowed(stored));
            return plan;
        }
        let invocation = {
            let c = self.read_counts.entry(container).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        match self.faults.apply(stored, container, invocation) {
            Ok(md) => plan.replay_metadata = md.map(Cow::Owned),
            Err(e) => plan.replay_error = Some((e, stored.entries())),
        }
        plan
    }

    /// Called when the invocation finishes with freshly recorded metadata:
    /// the region is swapped in for the next invocation (double buffering).
    pub fn function_finished(&mut self, container: u64, recorded: Option<Metadata>) {
        if let Some(md) = recorded {
            if !md.is_empty() {
                self.regions.insert(container, md);
            }
        }
    }

    /// Like [`IgniteOs::function_finished`], but *merges* the new recording
    /// into the retained region instead of replacing it.
    ///
    /// Used for double-buffered operation (§4.3): when replay was active,
    /// restored branches never re-allocate in the BTB, so the new recording
    /// holds only the branches that *diverged* this invocation. Appending
    /// them keeps the established working set while reacting to behaviour
    /// changes. The merged region is re-encoded and truncated at the region
    /// budget. The merge works in `scratch`, which it clears first; kept
    /// from one merge to the next, it makes a merge allocate only the
    /// merged region.
    pub fn function_finished_merge(
        &mut self,
        container: u64,
        recorded: Metadata,
        codec: CodecConfig,
        scratch: &mut MergeScratch,
    ) {
        if recorded.is_empty() {
            return;
        }
        let merged = match self.regions.get(&container) {
            None => recorded,
            Some(old) => {
                // De-duplicate by branch PC (newest record wins) so repeated
                // divergence does not grow the region without bound, then
                // re-encode in the original reuse order: each PC at its
                // first position, with its latest record. The records are
                // compacted in place: `slots` maps a PC to its first
                // position among the `unique` records kept so far.
                let MergeScratch { entries, slots, bits } = scratch;
                entries.clear();
                entries.extend(old.decode());
                entries.extend(recorded.decode());
                slots.clear();
                let mut unique = 0;
                for i in 0..entries.len() {
                    let e = entries[i];
                    match slots.entry(e.branch_pc.as_u64()) {
                        Entry::Occupied(slot) => entries[*slot.get()] = e,
                        Entry::Vacant(slot) => {
                            slot.insert(unique);
                            entries[unique] = e;
                            unique += 1;
                        }
                    }
                }
                let mut enc = Encoder::with_buffer(codec, std::mem::take(bits));
                for e in &entries[..unique] {
                    enc.push(e);
                    if enc.byte_len() > self.region_bytes {
                        break;
                    }
                }
                let (merged, buffer) = enc.finish_reusing();
                *bits = buffer;
                merged
            }
        };
        self.regions.insert(container, merged);
    }

    /// Installs an externally stored metadata region for `container`,
    /// replacing whatever this OS held. Cluster-level metadata stores own
    /// regions across invocations and hand them to a per-core OS instance
    /// just before dispatch; empty regions are ignored.
    pub fn install(&mut self, container: u64, md: Metadata) {
        if !md.is_empty() {
            self.regions.insert(container, md);
        }
    }

    /// Removes and returns the stored region for `container` (the inverse
    /// of [`IgniteOs::install`]: the caller takes ownership back after the
    /// invocation finished and the region was double-buffer merged).
    pub fn take(&mut self, container: u64) -> Option<Metadata> {
        self.regions.remove(&container)
    }

    /// Number of containers with stored metadata.
    pub fn containers(&self) -> usize {
        self.regions.len()
    }

    /// Stored metadata size for a container, in bytes.
    pub fn metadata_bytes(&self, container: u64) -> Option<usize> {
        self.regions.get(&container).map(Metadata::byte_len)
    }

    /// The stored metadata region for a container, if any — the read path
    /// experiments use to inspect what recording produced.
    pub fn metadata(&self, container: u64) -> Option<&Metadata> {
        self.regions.get(&container)
    }

    /// Frees a container's metadata region (function instance shut down).
    pub fn release(&mut self, container: u64) {
        self.regions.remove(&container);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecConfig, Encoder};
    use ignite_uarch::addr::Addr;
    use ignite_uarch::btb::{BranchKind, BtbEntry};

    fn sample_metadata() -> Metadata {
        let mut enc = Encoder::new(CodecConfig::default());
        enc.push(&BtbEntry::new(Addr::new(0x100), Addr::new(0x200), BranchKind::Call));
        enc.finish()
    }

    #[test]
    fn record_replay_cycle() {
        let mut os = IgniteOs::new(120 * 1024);
        let plan = os.function_started(1);
        assert!(plan.replay_metadata.is_none());
        os.function_finished(1, Some(sample_metadata()));
        let plan = os.function_started(1);
        assert_eq!(plan.replay_metadata.unwrap().entries(), 1);
    }

    #[test]
    fn replay_disable_bit() {
        let mut os = IgniteOs::new(120 * 1024);
        os.function_finished(1, Some(sample_metadata()));
        os.set_control(ControlRegisters { record: true, replay: false });
        let plan = os.function_started(1);
        assert!(plan.replay_metadata.is_none());
        assert!(plan.record);
    }

    #[test]
    fn record_disable_bit() {
        let mut os = IgniteOs::new(120 * 1024);
        os.set_control(ControlRegisters { record: false, replay: true });
        assert!(!os.function_started(1).record);
    }

    #[test]
    fn containers_are_independent() {
        let mut os = IgniteOs::new(120 * 1024);
        os.function_finished(1, Some(sample_metadata()));
        assert!(os.function_started(2).replay_metadata.is_none());
        assert_eq!(os.containers(), 1);
    }

    #[test]
    fn empty_metadata_not_stored() {
        let mut os = IgniteOs::new(120 * 1024);
        os.function_finished(1, Some(Encoder::new(CodecConfig::default()).finish()));
        assert_eq!(os.containers(), 0);
    }

    #[test]
    fn release_frees_region() {
        let mut os = IgniteOs::new(120 * 1024);
        os.function_finished(1, Some(sample_metadata()));
        assert!(os.metadata_bytes(1).is_some());
        os.release(1);
        assert!(os.metadata_bytes(1).is_none());
    }

    #[test]
    fn metadata_accessor_exposes_stored_region() {
        let mut os = IgniteOs::new(120 * 1024);
        assert!(os.metadata(1).is_none());
        os.function_finished(1, Some(sample_metadata()));
        assert_eq!(os.metadata(1).unwrap().entries(), 1);
    }

    #[test]
    fn certain_loss_faults_suppress_replay_metadata() {
        let mut os = IgniteOs::new(120 * 1024);
        os.set_faults(FaultPlan { loss_ppm: crate::fault::PPM_SCALE, ..FaultPlan::none() });
        os.function_finished(1, Some(sample_metadata()));
        let plan = os.function_started(1);
        assert!(plan.replay_metadata.is_none());
        assert!(plan.replay_error.is_none(), "loss is silent, not an error");
        // The stored region itself is untouched.
        assert_eq!(os.metadata(1).unwrap().entries(), 1);
    }

    #[test]
    fn structural_corruption_reports_replay_error() {
        let mut os = IgniteOs::new(120 * 1024);
        os.set_faults(FaultPlan { bit_flip_ppm: crate::fault::PPM_SCALE, ..FaultPlan::none() });
        os.function_finished(1, Some(sample_metadata()));
        let plan = os.function_started(1);
        assert!(plan.replay_metadata.is_none());
        let (_, entries) = plan.replay_error.expect("total corruption must surface");
        assert_eq!(entries, 1);
    }
}
