//! Ignite record logic (§4.1).
//!
//! The recorder monitors BTB *allocation* events (taken branches committed
//! while absent from the BTB) and appends each to the metadata stream, up to
//! a per-container metadata budget. Because the front-end starts each
//! lukewarm invocation with a cold BTB, the resulting trace lists unique
//! branches in first-execution order — the order the next invocation is
//! expected to need them.

use ignite_uarch::btb::BtbEntry;

use crate::codec::{CodecConfig, Encoder, Metadata};

/// A recording session for one invocation of one container.
///
/// # Example
///
/// ```
/// use ignite_core::codec::CodecConfig;
/// use ignite_core::record::Recorder;
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::btb::{BranchKind, BtbEntry};
///
/// let mut rec = Recorder::new(CodecConfig::default(), 1024);
/// rec.observe(&BtbEntry::new(Addr::new(0x100), Addr::new(0x200), BranchKind::Call));
/// let md = rec.finish();
/// assert_eq!(md.entries(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    encoder: Encoder,
    budget_bytes: usize,
    /// Bytes streamed to memory so far (for bandwidth accounting, the
    /// metadata is written through to DRAM as it is produced).
    streamed_bytes: u64,
    dropped: u64,
    stopped: bool,
}

impl Recorder {
    /// Creates a recorder with the given metadata budget (paper: 120 KiB).
    pub fn new(codec: CodecConfig, budget_bytes: usize) -> Self {
        Recorder::with_buffer(codec, budget_bytes, Vec::new())
    }

    /// Like [`Recorder::new`], encoding into `buffer` (see
    /// [`Encoder::with_buffer`]); [`Recorder::finish_reusing`] hands it
    /// back.
    pub fn with_buffer(codec: CodecConfig, budget_bytes: usize, buffer: Vec<u8>) -> Self {
        Recorder {
            encoder: Encoder::with_buffer(codec, buffer),
            budget_bytes,
            streamed_bytes: 0,
            dropped: 0,
            stopped: false,
        }
    }

    /// Observes one BTB allocation.
    ///
    /// Events beyond the metadata budget are dropped (the paper sizes the
    /// budget so this does not happen for its workloads).
    pub fn observe(&mut self, entry: &BtbEntry) {
        if self.stopped {
            self.dropped += 1;
            return;
        }
        let before = self.encoder.byte_len();
        self.encoder.push(entry);
        if self.encoder.byte_len() > self.budget_bytes {
            // The entry that crossed the budget is kept (hardware would stop
            // at a region boundary); further entries are dropped.
            self.stopped = true;
        }
        self.streamed_bytes += (self.encoder.byte_len() - before) as u64;
    }

    /// Entries recorded.
    pub fn entries(&self) -> usize {
        self.encoder.entries()
    }

    /// Entries dropped after the budget filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Metadata bytes streamed to memory so far.
    pub fn streamed_bytes(&self) -> u64 {
        self.streamed_bytes
    }

    /// Whether the budget has been reached.
    pub fn is_full(&self) -> bool {
        self.stopped
    }

    /// Finalizes the recording into metadata for the OS to store.
    pub fn finish(self) -> Metadata {
        self.encoder.finish()
    }

    /// Like [`Recorder::finish`], with metadata of exactly its encoded
    /// size, handing the encoder's buffer back for the next recording.
    pub fn finish_reusing(self) -> (Metadata, Vec<u8>) {
        self.encoder.finish_reusing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_uarch::addr::Addr;
    use ignite_uarch::btb::BranchKind;

    fn entry(i: u64) -> BtbEntry {
        BtbEntry::new(
            Addr::new(0x1000 + i * 32),
            Addr::new(0x1000 + i * 32 + 16),
            BranchKind::Conditional,
        )
    }

    #[test]
    fn records_in_order() {
        let mut r = Recorder::new(CodecConfig::default(), 1 << 20);
        for i in 0..10 {
            r.observe(&entry(i));
        }
        let md = r.finish();
        let decoded: Vec<_> = md.decode().collect();
        assert_eq!(decoded.len(), 10);
        assert_eq!(decoded[3], entry(3));
    }

    #[test]
    fn budget_stops_recording() {
        let mut r = Recorder::new(CodecConfig::default(), 16);
        for i in 0..100 {
            r.observe(&entry(i));
        }
        assert!(r.is_full());
        assert!(r.dropped() > 0);
        let recorded = r.entries();
        assert!(recorded < 100);
        assert!(recorded >= 2, "budget admits a few compressed entries");
    }

    #[test]
    fn streamed_bytes_grow_monotonically() {
        let mut r = Recorder::new(CodecConfig::default(), 1 << 20);
        let mut last = 0;
        for i in 0..20 {
            r.observe(&entry(i));
            assert!(r.streamed_bytes() >= last);
            last = r.streamed_bytes();
        }
        assert!(last > 0);
    }

    #[test]
    fn empty_recorder_finishes_empty() {
        let md = Recorder::new(CodecConfig::default(), 1024).finish();
        assert!(md.is_empty());
    }
}
