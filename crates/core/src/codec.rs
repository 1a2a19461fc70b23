//! Ignite metadata codec: delta-compressed control-flow records (§4.1).
//!
//! Each record corresponds to one BTB insertion and holds a branch PC, a
//! branch type, and a target. Two deltas compress the two addresses:
//!
//! * the *source delta* — from the previous record's target to this branch's
//!   PC (branches sit close to the start of the block the previous branch
//!   jumped to);
//! * the *target delta* — from this branch's PC to its target (most branches
//!   are local).
//!
//! When a delta exceeds its fixed width, the record falls back to full
//! 48-bit addresses; a single format bit distinguishes the two layouts
//! (paper Fig. 7b).
//!
//! The paper's two mentions of the delta widths disagree (§4.1 footnote:
//! 7-bit branch-PC / 21-bit target; §5.3: 21-bit branch-PC / 7-bit target).
//! Both are constructible here; the default (9-bit source, 21-bit target) is
//! the empirical compression optimum for this repository's workloads — see
//! the `codec_widths` ablation bench.

use std::fmt;

use ignite_uarch::addr::{Addr, VA_BITS};
use ignite_uarch::btb::{BranchKind, BtbEntry};

/// Number of bits used to encode the branch kind.
const KIND_BITS: u32 = 3;

/// Magic bytes opening a serialized metadata region.
const MAGIC: [u8; 4] = *b"IGNT";
/// Serialization format version.
const VERSION: u8 = 1;
/// Serialized header size in bytes (magic, version, widths, reserved,
/// entry count, checksum, payload length).
const HEADER_LEN: usize = 20;

/// Why a metadata region could not be decoded.
///
/// The replay engine treats every variant the same way — drop the remainder
/// of the region and fall back to demand misses — but the distinction is
/// kept for diagnostics and fault-injection experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecError {
    /// The serialized image is too short, or its magic, version, delta
    /// widths, or payload length are structurally invalid.
    BadHeader,
    /// The stored checksum does not match the payload contents.
    ChecksumMismatch {
        /// Checksum carried in the header.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// The header claims more records than the payload could possibly hold.
    ImplausibleEntryCount {
        /// Entry count carried in the header.
        claimed: u64,
        /// Upper bound given the payload size and record widths.
        max: u64,
    },
    /// The bit stream ended in the middle of a record.
    Truncated {
        /// Index of the record that could not be completed.
        entry: usize,
    },
    /// A record carries an undefined branch-kind code.
    BadKind {
        /// Index of the offending record.
        entry: usize,
        /// The undefined kind code.
        code: u8,
    },
    /// A delta-compressed record appeared with no previous target to
    /// expand its source delta against.
    BrokenChain {
        /// Index of the offending record.
        entry: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "structurally invalid metadata header"),
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "metadata checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            CodecError::ImplausibleEntryCount { claimed, max } => {
                write!(f, "header claims {claimed} records but payload holds at most {max}")
            }
            CodecError::Truncated { entry } => {
                write!(f, "metadata stream truncated inside record {entry}")
            }
            CodecError::BadKind { entry, code } => {
                write!(f, "record {entry} carries undefined branch-kind code {code}")
            }
            CodecError::BrokenChain { entry } => {
                write!(f, "compressed record {entry} has no previous target to delta from")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a over the payload plus the header fields that govern decoding, so
/// corruption of either is caught by [`Metadata::validate`].
fn checksum(payload: &[u8], entries: u32, src_bits: u32, tgt_bits: u32) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut eat = |b: u8| {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    };
    for &b in payload {
        eat(b);
    }
    for b in entries.to_le_bytes() {
        eat(b);
    }
    eat(src_bits as u8);
    eat(tgt_bits as u8);
    h
}

/// Delta widths for the compressed record format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecConfig {
    /// Signed bits for the previous-target → branch-PC delta.
    pub src_delta_bits: u32,
    /// Signed bits for the branch-PC → target delta.
    pub tgt_delta_bits: u32,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig { src_delta_bits: 9, tgt_delta_bits: 21 }
    }
}

impl CodecConfig {
    /// Bits per compressed record (format + kind + deltas).
    pub const fn compressed_bits(&self) -> u32 {
        1 + KIND_BITS + self.src_delta_bits + self.tgt_delta_bits
    }

    /// Bits per full-address record.
    pub const fn full_bits(&self) -> u32 {
        1 + KIND_BITS + 2 * VA_BITS
    }
}

#[inline]
fn fits_signed(value: i64, bits: u32) -> bool {
    if bits == 0 || bits >= 64 {
        return bits != 0;
    }
    let lo = -(1i64 << (bits - 1));
    let hi = (1i64 << (bits - 1)) - 1;
    (lo..=hi).contains(&value)
}

/// LSB-first bit writer.
#[derive(Debug, Clone, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    fn write(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        if bits == 0 {
            return;
        }
        let value = if bits == 64 { value } else { value & ((1u64 << bits) - 1) };
        // Batched: position the value at the current bit offset (a u128
        // holds 64 payload bits plus 7 bits of shift) and OR it in a byte
        // at a time, instead of one bit per iteration.
        let mut chunk = u128::from(value) << (self.bit_len % 8);
        let mut byte_idx = self.bit_len / 8;
        self.bit_len += bits as usize;
        self.bytes.resize(self.bit_len.div_ceil(8), 0);
        while chunk != 0 {
            self.bytes[byte_idx] |= chunk as u8;
            chunk >>= 8;
            byte_idx += 1;
        }
    }

    fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

/// LSB-first bit reader.
#[derive(Debug, Clone)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn read(&mut self, bits: u32) -> Option<u64> {
        debug_assert!(bits <= 64);
        if self.pos + bits as usize > self.bytes.len() * 8 {
            return None;
        }
        if bits == 0 {
            return Some(0);
        }
        // Batched: gather the (at most 9) spanned bytes into a u128 and
        // shift the field out in one go, instead of one bit per iteration.
        let first = self.pos / 8;
        let last = (self.pos + bits as usize).div_ceil(8);
        let mut acc = 0u128;
        for (i, &b) in self.bytes[first..last].iter().enumerate() {
            acc |= u128::from(b) << (8 * i);
        }
        let v = (acc >> (self.pos % 8)) as u64;
        self.pos += bits as usize;
        Some(if bits == 64 { v } else { v & ((1u64 << bits) - 1) })
    }

    fn read_signed(&mut self, bits: u32) -> Option<i64> {
        let raw = self.read(bits)?;
        // Sign-extend.
        let shift = 64 - bits;
        Some(((raw << shift) as i64) >> shift)
    }
}

/// Encoded metadata for one function container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    bytes: Vec<u8>,
    entries: usize,
    cfg_src_bits: u32,
    cfg_tgt_bits: u32,
    /// Checksum claimed for the payload. Equals the recomputed checksum for
    /// metadata built by [`Encoder::finish`]; may disagree for metadata
    /// parsed from a (possibly corrupted) serialized image — that is what
    /// [`Metadata::validate`] detects.
    checksum: u32,
}

impl Metadata {
    /// Encoded size in bytes (what is streamed to/from memory).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Number of records.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The delta widths this metadata was encoded with.
    pub fn codec_config(&self) -> CodecConfig {
        CodecConfig { src_delta_bits: self.cfg_src_bits, tgt_delta_bits: self.cfg_tgt_bits }
    }

    /// Serializes to the in-memory region image the OS stores: a fixed
    /// header (magic, version, delta widths, entry count, checksum, payload
    /// length) followed by the bit-packed payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.bytes.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.cfg_src_bits as u8);
        out.push(self.cfg_tgt_bits as u8);
        out.push(0); // reserved
        out.extend_from_slice(&(self.entries as u32).to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&(self.bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.bytes);
        out
    }

    /// Parses a serialized region image, performing the structural checks
    /// that do not require walking the payload (magic, version, widths,
    /// length, entry-count plausibility). Checksum verification is separate
    /// — see [`Metadata::validate`] — because replay may be configured to
    /// skip it.
    pub fn from_bytes(bytes: &[u8]) -> Result<Metadata, CodecError> {
        if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC || bytes[4] != VERSION {
            return Err(CodecError::BadHeader);
        }
        let src_bits = u32::from(bytes[5]);
        let tgt_bits = u32::from(bytes[6]);
        if !(1..=VA_BITS).contains(&src_bits) || !(1..=VA_BITS).contains(&tgt_bits) {
            return Err(CodecError::BadHeader);
        }
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let entries = word(8) as usize;
        let stored_checksum = word(12);
        let payload_len = word(16) as usize;
        if bytes.len() - HEADER_LEN != payload_len {
            return Err(CodecError::BadHeader);
        }
        let cfg = CodecConfig { src_delta_bits: src_bits, tgt_delta_bits: tgt_bits };
        let min_record_bits = cfg.compressed_bits().min(cfg.full_bits()) as u64;
        let max = payload_len as u64 * 8 / min_record_bits;
        if entries as u64 > max {
            return Err(CodecError::ImplausibleEntryCount { claimed: entries as u64, max });
        }
        Ok(Metadata {
            bytes: bytes[HEADER_LEN..].to_vec(),
            entries,
            cfg_src_bits: src_bits,
            cfg_tgt_bits: tgt_bits,
            checksum: stored_checksum,
        })
    }

    /// Verifies the payload against the claimed checksum.
    ///
    /// This is the cheap first line of defence replay runs before trusting
    /// a region: bit flips and truncation anywhere in the payload (or in
    /// the decode-governing header fields) surface here, before any record
    /// is expanded.
    pub fn validate(&self) -> Result<(), CodecError> {
        let computed =
            checksum(&self.bytes, self.entries as u32, self.cfg_src_bits, self.cfg_tgt_bits);
        if computed != self.checksum {
            return Err(CodecError::ChecksumMismatch { stored: self.checksum, computed });
        }
        Ok(())
    }

    /// Decodes all records.
    ///
    /// Mirrors the replay engine's sequential read of the stream. On
    /// corruption the iterator simply ends early; use
    /// [`Metadata::decode_checked`] to observe *why*.
    pub fn decode(&self) -> Decoder<'_> {
        Decoder(self.decode_checked())
    }

    /// Decodes records fallibly: yields `Ok` entries until the first
    /// corruption, then yields that error once and fuses.
    ///
    /// A corrupt stream can never produce more than [`Metadata::entries`]
    /// items, and never invents records past the first undecodable one —
    /// delta expansion means everything downstream of a bad record is
    /// untrustworthy.
    pub fn decode_checked(&self) -> CheckedDecoder<'_> {
        CheckedDecoder {
            reader: BitReader::new(&self.bytes),
            index: 0,
            remaining: self.entries,
            last_target: None,
            src_bits: self.cfg_src_bits,
            tgt_bits: self.cfg_tgt_bits,
            failed: false,
        }
    }
}

/// Streaming encoder for Ignite records.
///
/// # Example
///
/// ```
/// use ignite_core::codec::{CodecConfig, Encoder};
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::btb::{BranchKind, BtbEntry};
///
/// let mut enc = Encoder::new(CodecConfig::default());
/// let entry = BtbEntry::new(Addr::new(0x1000), Addr::new(0x10c0), BranchKind::Call);
/// enc.push(&entry);
/// let metadata = enc.finish();
/// let decoded: Vec<_> = metadata.decode().collect();
/// assert_eq!(decoded, vec![entry]);
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    cfg: CodecConfig,
    writer: BitWriter,
    last_target: Option<Addr>,
    entries: usize,
    full: usize,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new(cfg: CodecConfig) -> Self {
        Encoder::with_buffer(cfg, Vec::new())
    }

    /// Creates an empty encoder writing into `buffer`, whose contents are
    /// discarded and whose capacity is kept: pass back the buffer
    /// [`Encoder::finish_reusing`] returned, and encoding allocates
    /// nothing once it has grown to the largest region encoded.
    pub fn with_buffer(cfg: CodecConfig, mut buffer: Vec<u8>) -> Self {
        buffer.clear();
        Encoder {
            cfg,
            writer: BitWriter { bytes: buffer, bit_len: 0 },
            last_target: None,
            entries: 0,
            full: 0,
        }
    }

    /// Appends one BTB-insertion record.
    pub fn push(&mut self, entry: &BtbEntry) {
        let compressible = match self.last_target {
            Some(last) => {
                let src = last.delta_to(entry.branch_pc);
                let tgt = entry.branch_pc.delta_to(entry.target);
                fits_signed(src, self.cfg.src_delta_bits)
                    && fits_signed(tgt, self.cfg.tgt_delta_bits)
            }
            None => false,
        };
        if compressible {
            let last = self.last_target.expect("checked above");
            self.writer.write(1, 1);
            self.writer.write(u64::from(entry.kind.code()), KIND_BITS);
            let src = last.delta_to(entry.branch_pc);
            let tgt = entry.branch_pc.delta_to(entry.target);
            self.writer.write(src as u64, self.cfg.src_delta_bits);
            self.writer.write(tgt as u64, self.cfg.tgt_delta_bits);
        } else {
            self.writer.write(0, 1);
            self.writer.write(u64::from(entry.kind.code()), KIND_BITS);
            self.writer.write(entry.branch_pc.as_u64(), VA_BITS);
            self.writer.write(entry.target.as_u64(), VA_BITS);
            self.full += 1;
        }
        self.last_target = Some(entry.target);
        self.entries += 1;
    }

    /// Current encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.writer.byte_len()
    }

    /// Records encoded so far.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Records that fell back to full addresses.
    pub fn full_entries(&self) -> usize {
        self.full
    }

    /// Finalizes into immutable metadata.
    pub fn finish(mut self) -> Metadata {
        let bytes = std::mem::take(&mut self.writer.bytes);
        self.seal(bytes)
    }

    /// Finalizes into metadata that holds exactly its encoded bytes, and
    /// hands the buffer back for the next encoder
    /// ([`Encoder::with_buffer`]).
    pub fn finish_reusing(self) -> (Metadata, Vec<u8>) {
        let metadata = self.seal(self.writer.bytes.to_vec());
        (metadata, self.writer.bytes)
    }

    /// Wraps `bytes`, this encoder's payload, into checksummed metadata.
    fn seal(&self, bytes: Vec<u8>) -> Metadata {
        Metadata {
            checksum: checksum(
                &bytes,
                self.entries as u32,
                self.cfg.src_delta_bits,
                self.cfg.tgt_delta_bits,
            ),
            bytes,
            entries: self.entries,
            cfg_src_bits: self.cfg.src_delta_bits,
            cfg_tgt_bits: self.cfg.tgt_delta_bits,
        }
    }
}

/// Fallible iterator over decoded records (see
/// [`Metadata::decode_checked`]).
#[derive(Debug, Clone)]
pub struct CheckedDecoder<'a> {
    reader: BitReader<'a>,
    index: usize,
    remaining: usize,
    last_target: Option<Addr>,
    src_bits: u32,
    tgt_bits: u32,
    failed: bool,
}

impl CheckedDecoder<'_> {
    fn fail(&mut self, err: CodecError) -> Option<Result<BtbEntry, CodecError>> {
        self.failed = true;
        Some(Err(err))
    }
}

impl Iterator for CheckedDecoder<'_> {
    type Item = Result<BtbEntry, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        let Some(format) = self.reader.read(1) else {
            return self.fail(CodecError::Truncated { entry: self.index });
        };
        let Some(code) = self.reader.read(KIND_BITS) else {
            return self.fail(CodecError::Truncated { entry: self.index });
        };
        let Some(kind) = BranchKind::from_code(code as u8) else {
            return self.fail(CodecError::BadKind { entry: self.index, code: code as u8 });
        };
        let entry = if format == 1 {
            let (Some(src), Some(tgt)) =
                (self.reader.read_signed(self.src_bits), self.reader.read_signed(self.tgt_bits))
            else {
                return self.fail(CodecError::Truncated { entry: self.index });
            };
            let Some(last) = self.last_target else {
                return self.fail(CodecError::BrokenChain { entry: self.index });
            };
            let pc = last.offset(src);
            BtbEntry::new(pc, pc.offset(tgt), kind)
        } else {
            let (Some(pc), Some(target)) = (self.reader.read(VA_BITS), self.reader.read(VA_BITS))
            else {
                return self.fail(CodecError::Truncated { entry: self.index });
            };
            BtbEntry::new(Addr::new(pc), Addr::new(target), kind)
        };
        self.last_target = Some(entry.target);
        self.remaining -= 1;
        self.index += 1;
        Some(Ok(entry))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            (0, Some(0))
        } else {
            // An extra slot for the terminal error; `remaining` itself is an
            // upper bound on yielded entries.
            (0, Some(self.remaining + 1))
        }
    }
}

impl std::iter::FusedIterator for CheckedDecoder<'_> {}

/// Iterator over decoded records, stopping silently at the first
/// corruption.
#[derive(Debug, Clone)]
pub struct Decoder<'a>(CheckedDecoder<'a>);

impl Iterator for Decoder<'_> {
    type Item = BtbEntry;

    fn next(&mut self) -> Option<BtbEntry> {
        self.0.next()?.ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Exact for well-formed metadata (the common case); corruption only
        // ever shortens the stream.
        (self.0.remaining, Some(self.0.remaining))
    }
}

impl ExactSizeIterator for Decoder<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pc: u64, target: u64, kind: BranchKind) -> BtbEntry {
        BtbEntry::new(Addr::new(pc), Addr::new(target), kind)
    }

    fn roundtrip(cfg: CodecConfig, entries: &[BtbEntry]) -> Metadata {
        let mut enc = Encoder::new(cfg);
        for e in entries {
            enc.push(e);
        }
        let md = enc.finish();
        let decoded: Vec<_> = md.decode().collect();
        assert_eq!(decoded, entries, "roundtrip mismatch");
        md
    }

    #[test]
    fn single_entry_roundtrip() {
        roundtrip(CodecConfig::default(), &[entry(0x1000, 0x1100, BranchKind::Conditional)]);
    }

    #[test]
    fn chain_roundtrip_all_kinds() {
        let entries = vec![
            entry(0x1000, 0x1040, BranchKind::Conditional),
            entry(0x1050, 0x1200, BranchKind::Unconditional),
            entry(0x1210, 0x8000, BranchKind::Call),
            entry(0x8040, 0x1220, BranchKind::Return),
            entry(0x1230, 0x1400, BranchKind::Indirect),
        ];
        roundtrip(CodecConfig::default(), &entries);
    }

    #[test]
    fn local_chain_compresses() {
        // A chain of nearby branches: after the first (full) record, all
        // should use the compressed format.
        let entries: Vec<_> = (0..50u64)
            .map(|i| entry(0x1000 + i * 32, 0x1000 + i * 32 + 16, BranchKind::Conditional))
            .collect();
        let mut enc = Encoder::new(CodecConfig::default());
        for e in &entries {
            enc.push(e);
        }
        assert_eq!(enc.full_entries(), 1);
        assert_eq!(enc.entries() - enc.full_entries(), 49, "compressed records");
        let bits_per_entry = enc.byte_len() * 8 / entries.len();
        assert!(bits_per_entry < 40, "{bits_per_entry} bits/entry");
        let md = enc.finish();
        let decoded: Vec<_> = md.decode().collect();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn far_jump_falls_back_to_full() {
        let entries = vec![
            entry(0x1000, 0x1040, BranchKind::Conditional),
            // Target 100 MiB away: exceeds any delta width.
            entry(0x1050, 0x640_0000, BranchKind::Call),
        ];
        let mut enc = Encoder::new(CodecConfig::default());
        for e in &entries {
            enc.push(e);
        }
        assert_eq!(enc.full_entries(), 2);
        let md = enc.finish();
        assert_eq!(md.decode().collect::<Vec<_>>(), entries);
    }

    #[test]
    fn negative_deltas_roundtrip() {
        // Backward branch: target below PC; next branch PC below previous
        // target.
        let entries = vec![
            entry(0x2000, 0x2100, BranchKind::Conditional),
            entry(0x20f0, 0x2080, BranchKind::Conditional), // src -16, tgt -112
        ];
        roundtrip(CodecConfig::default(), &entries);
    }

    #[test]
    fn paper_width_variants_roundtrip() {
        let entries: Vec<_> = (0..20u64)
            .map(|i| entry(0x1000 + i * 24, 0x1000 + i * 24 + 60, BranchKind::Conditional))
            .collect();
        // §4.1 variant: 7-bit source, 21-bit target.
        roundtrip(CodecConfig { src_delta_bits: 7, tgt_delta_bits: 21 }, &entries);
        // §5.3 variant: 21-bit source, 7-bit target.
        roundtrip(CodecConfig { src_delta_bits: 21, tgt_delta_bits: 7 }, &entries);
    }

    #[test]
    fn compressed_record_size_matches_config() {
        let cfg = CodecConfig::default();
        assert_eq!(cfg.compressed_bits(), 1 + 3 + 9 + 21);
        assert_eq!(cfg.full_bits(), 1 + 3 + 96);
    }

    #[test]
    fn a_reused_buffer_encodes_what_a_fresh_one_does() {
        let cfg = CodecConfig::default();
        let long: Vec<_> = (0..40u64)
            .map(|i| entry(0x1000 + i * 48, 0x9000 + i * 4096, BranchKind::Call))
            .collect();
        let short = [entry(0x2000, 0x2040, BranchKind::Conditional)];
        let mut enc = Encoder::new(cfg);
        long.iter().for_each(|e| enc.push(e));
        let (first, buffer) = enc.finish_reusing();
        assert_eq!(first, roundtrip(cfg, &long), "reusing changes no byte");
        assert_eq!(first.bytes.capacity(), first.bytes.len(), "the region is exactly sized");
        let mut enc = Encoder::with_buffer(cfg, buffer);
        short.iter().for_each(|e| enc.push(e));
        let (second, _) = enc.finish_reusing();
        assert_eq!(second, roundtrip(cfg, &short), "a reused buffer keeps no old byte");
    }

    #[test]
    fn empty_metadata() {
        let md = Encoder::new(CodecConfig::default()).finish();
        assert!(md.is_empty());
        assert_eq!(md.decode().count(), 0);
    }

    #[test]
    fn decoder_len_matches_entries() {
        let md = roundtrip(
            CodecConfig::default(),
            &[
                entry(0x1000, 0x1040, BranchKind::Conditional),
                entry(0x1050, 0x1080, BranchKind::Conditional),
            ],
        );
        assert_eq!(md.decode().len(), 2);
    }

    #[test]
    fn truncated_bytes_yield_none() {
        let mut enc = Encoder::new(CodecConfig::default());
        enc.push(&entry(0x1000, 0x1040, BranchKind::Conditional));
        enc.push(&entry(0x1050, 0x1080, BranchKind::Conditional));
        let mut md = enc.finish();
        md.bytes.truncate(md.bytes.len() - 1);
        let decoded: Vec<_> = md.decode().collect();
        assert!(decoded.len() < 2, "truncated stream must not invent records");
    }

    #[test]
    fn fits_signed_boundaries() {
        assert!(fits_signed(63, 7));
        assert!(!fits_signed(64, 7));
        assert!(fits_signed(-64, 7));
        assert!(!fits_signed(-65, 7));
    }

    #[test]
    fn fig7b_example_deltas() {
        // The paper's Fig. 7b: branch at 0x100F with target 0x10CF gives a
        // branch-PC delta of 0x0F (from previous target 0x1000) and a
        // target delta of 0xC0.
        let prev = entry(0x0800, 0x1000, BranchKind::Call);
        let this = entry(0x100F, 0x10CF, BranchKind::Conditional);
        assert_eq!(Addr::new(0x1000).delta_to(this.branch_pc), 0x0F);
        assert_eq!(this.branch_pc.delta_to(this.target), 0xC0);
        roundtrip(CodecConfig::default(), &[prev, this]);
    }
}
