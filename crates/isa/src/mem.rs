//! Sparse physical memory, the platform address map, and MMIO definitions.
//!
//! The map mirrors a typical RISC-V SoC: DRAM at `0x8000_0000`, an MMIO
//! device block below it. The MMIO devices substitute for the paper's
//! host-target interface (HTIF): per-hart exit registers, a console, and
//! region-of-interest (ROI) markers used by every benchmark harness.
//!
//! [`SparseMem`] holds 4 KiB frames in a map keyed by frame number (hashed
//! with [`FrameHasher`]). Every access looks its frame up once and copies
//! bytes out of or into the frame's slice; only an access that crosses a
//! frame boundary splits, once per frame. Its contract is byte for byte the
//! one a memory of single-byte cells would have:
//!
//! * unwritten memory reads as zero;
//! * a read never allocates a frame;
//! * a write allocates exactly the frames its bytes land in.
//!
//! So [`SparseMem::resident_pages`] and the snapshot encoding depend only on
//! which bytes were ever written, never on the access widths used.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Base of cacheable DRAM.
pub const DRAM_BASE: u64 = 0x8000_0000;

/// Base of the MMIO device block (non-cacheable).
pub const MMIO_BASE: u64 = 0x1000_0000;
/// One-past-the-end of the MMIO block.
pub const MMIO_END: u64 = 0x1001_0000;

/// Per-hart exit registers: a store of `code` to `MMIO_EXIT + 8*hart` halts
/// that hart with exit code `code`.
pub const MMIO_EXIT: u64 = MMIO_BASE;
/// Console: a byte stored here is appended to the console log.
pub const MMIO_PUTCHAR: u64 = MMIO_BASE + 0x100;
/// ROI marker: store 1 at region-of-interest begin, 0 at end.
pub const MMIO_ROI: u64 = MMIO_BASE + 0x200;

/// Whether `pa` lies in the MMIO block.
#[must_use]
pub fn is_mmio(pa: u64) -> bool {
    (MMIO_BASE..MMIO_END).contains(&pa)
}

const PAGE_BYTES: usize = 4096;

/// A multiplicative (Fibonacci) hasher for maps keyed by `u64` frame, page
/// or line numbers: one 64 × 64 → 128-bit multiply by the golden-ratio
/// constant per word instead of SipHash's rounds. Not DoS-resistant, which
/// simulated addresses do not need.
///
/// The two halves of the product are folded together so the low bits
/// `HashMap` picks buckets with depend on every key bit: page- and
/// line-aligned addresses, whose low key bits are all zero, still spread.
/// Use it as `BuildHasherDefault<FrameHasher>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameHasher(u64);

impl Hasher for FrameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Byte-addressable sparse physical memory (allocates 4 KiB frames on first
/// write; unwritten memory reads as zero). See the module docs for the
/// contract.
#[derive(Default, Clone)]
pub struct SparseMem {
    pages: HashMap<u64, Box<[u8; PAGE_BYTES]>, BuildHasherDefault<FrameHasher>>,
}

impl cmd_core::snap::Snap for SparseMem {
    /// Pages are written in sorted frame order so repeated saves of the
    /// same memory are byte-identical (the backing `HashMap` iterates in
    /// arbitrary order).
    fn save(&self, w: &mut cmd_core::snap::SnapWriter) {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        w.len_prefix(keys.len());
        for k in keys {
            w.u64(k);
            w.bytes(&self.pages[&k][..]);
        }
    }

    /// Refuses frame numbers that do not strictly increase: `save` writes
    /// them sorted, so a repeat or a swap means the bytes were damaged.
    fn load(r: &mut cmd_core::snap::SnapReader<'_>) -> Result<Self, cmd_core::snap::SnapError> {
        let n = r.len_prefix()?;
        let mut pages = HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default());
        let mut prev = None;
        for _ in 0..n {
            let k = r.u64()?;
            if prev.is_some_and(|p| k <= p) {
                return Err(cmd_core::snap::SnapError::Corrupt(
                    "memory frame numbers not strictly increasing".into(),
                ));
            }
            prev = Some(k);
            let mut page = Box::new([0u8; PAGE_BYTES]);
            page.copy_from_slice(r.bytes(PAGE_BYTES)?);
            pages.insert(k, page);
        }
        Ok(SparseMem { pages })
    }
}

impl std::fmt::Debug for SparseMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMem")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

/// Splits `pa` into (frame number, offset in the frame).
fn split(pa: u64) -> (u64, usize) {
    (pa / PAGE_BYTES as u64, (pa % PAGE_BYTES as u64) as usize)
}

impl SparseMem {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (touched) 4 KiB frames.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Frame number `frame`, allocated (zeroed) on first write.
    fn frame_mut(&mut self, frame: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .entry(frame)
            .or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Fills `out` from memory at `pa`, one frame lookup per frame spanned.
    fn read_into(&self, mut pa: u64, mut out: &mut [u8]) {
        while !out.is_empty() {
            let (frame, off) = split(pa);
            let len = out.len().min(PAGE_BYTES - off);
            let (head, rest) = out.split_at_mut(len);
            match self.pages.get(&frame) {
                Some(p) => head.copy_from_slice(&p[off..off + len]),
                None => head.fill(0),
            }
            pa += len as u64;
            out = rest;
        }
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, pa: u64) -> u8 {
        let (frame, off) = split(pa);
        self.pages.get(&frame).map_or(0, |p| p[off])
    }

    /// Reads `n <= 8` bytes little-endian (may cross a page boundary).
    #[must_use]
    pub fn read_le(&self, pa: u64, n: u64) -> u64 {
        debug_assert!(n <= 8);
        let (frame, off) = split(pa);
        if off + 8 <= PAGE_BYTES {
            // Common case: a fixed 8-byte load from one frame, masked.
            let Some(p) = self.pages.get(&frame) else {
                return 0;
            };
            let mut word = [0u8; 8];
            word.copy_from_slice(&p[off..off + 8]);
            let v = u64::from_le_bytes(word);
            return if n >= 8 { v } else { v & ((1 << (8 * n)) - 1) };
        }
        let mut word = [0u8; 8];
        self.read_into(pa, &mut word[..n as usize]);
        u64::from_le_bytes(word)
    }

    /// Writes the low `n <= 8` bytes of `v` little-endian.
    pub fn write_le(&mut self, pa: u64, n: u64, v: u64) {
        debug_assert!(n <= 8);
        self.write_bytes(pa, &v.to_le_bytes()[..n as usize]);
    }

    /// Reads an aligned 64-bit word (PTE reads, cache refills).
    #[must_use]
    pub fn read_u64(&self, pa: u64) -> u64 {
        self.read_le(pa, 8)
    }

    /// Writes an aligned 64-bit word.
    pub fn write_u64(&mut self, pa: u64, v: u64) {
        self.write_le(pa, 8, v);
    }

    /// Copies a byte slice into memory at `pa`, one frame lookup per frame
    /// spanned.
    pub fn write_bytes(&mut self, mut pa: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let (frame, off) = split(pa);
            let len = bytes.len().min(PAGE_BYTES - off);
            let (head, rest) = bytes.split_at(len);
            self.frame_mut(frame)[off..off + len].copy_from_slice(head);
            pa += len as u64;
            bytes = rest;
        }
    }

    /// Reads an entire aligned 64-byte cache line.
    #[must_use]
    pub fn read_line(&self, pa: u64) -> [u8; 64] {
        debug_assert_eq!(pa % 64, 0, "line reads must be aligned");
        let mut line = [0u8; 64];
        self.read_into(pa, &mut line);
        line
    }

    /// Writes an entire aligned 64-byte cache line.
    pub fn write_line(&mut self, pa: u64, line: &[u8; 64]) {
        debug_assert_eq!(pa % 64, 0, "line writes must be aligned");
        self.write_bytes(pa, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmd_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

    #[test]
    fn zero_before_write() {
        let m = SparseMem::new();
        assert_eq!(m.read_u64(DRAM_BASE), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut m = SparseMem::new();
        m.write_le(DRAM_BASE, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(DRAM_BASE), 0x88);
        assert_eq!(m.read_le(DRAM_BASE, 4), 0x5566_7788);
        assert_eq!(m.read_le(DRAM_BASE + 4, 4), 0x1122_3344);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMem::new();
        let pa = DRAM_BASE + 4096 - 4;
        m.write_le(pa, 8, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_le(pa, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = SparseMem::new();
        let mut line = [0u8; 64];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        m.write_line(DRAM_BASE + 64, &line);
        assert_eq!(m.read_line(DRAM_BASE + 64), line);
    }

    #[test]
    fn mmio_range_check() {
        assert!(is_mmio(MMIO_EXIT));
        assert!(is_mmio(MMIO_PUTCHAR));
        assert!(!is_mmio(DRAM_BASE));
        assert!(!is_mmio(MMIO_END));
    }

    /// `Hasher::write` takes any byte string without panicking, and keys
    /// that differ only above the bucket bits still spread.
    #[test]
    fn frame_hasher_is_total() {
        let hash = |bytes: &[u8]| {
            let mut h = FrameHasher::default();
            h.write(bytes);
            h.finish()
        };
        let bytes: Vec<u8> = (1..=20).collect();
        let hashes: std::collections::HashSet<u64> = (0..=20).map(|n| hash(&bytes[..n])).collect();
        assert_eq!(hashes.len(), 21, "every prefix hashes differently");
        let mut low = std::collections::HashSet::new();
        for page in 0..64u64 {
            let mut h = FrameHasher::default();
            h.write_u64(DRAM_BASE + (page << 12));
            low.insert(h.finish() & 63);
        }
        assert!(low.len() > 32, "page-aligned keys collapse: {}", low.len());
    }

    /// A three-frame image whose frame records are at byte offsets
    /// `8 + i * (8 + 4096)`.
    fn three_frame_image() -> (Vec<u8>, usize) {
        let mut m = SparseMem::new();
        for f in 0..3 {
            m.write_u64(DRAM_BASE + f * 4096, f + 1);
        }
        let mut w = SnapWriter::new();
        m.save(&mut w);
        (w.into_bytes(), 8 + PAGE_BYTES)
    }

    fn load(bytes: &[u8]) -> Result<SparseMem, SnapError> {
        SparseMem::load(&mut SnapReader::new(bytes))
    }

    #[test]
    fn load_refuses_swapped_frames() {
        let (mut bytes, rec) = three_frame_image();
        assert_eq!(
            load(&bytes).expect("a saved image loads").resident_pages(),
            3
        );
        let (first, second) = bytes[8..8 + 2 * rec].split_at_mut(rec);
        first.swap_with_slice(second);
        assert!(matches!(load(&bytes), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn load_refuses_a_duplicated_frame() {
        let (bytes, rec) = three_frame_image();
        let mut dup = bytes[..8 + rec].to_vec();
        dup.extend_from_slice(&bytes[8..]);
        dup[..8].copy_from_slice(&4u64.to_le_bytes());
        assert!(matches!(load(&dup), Err(SnapError::Corrupt(_))));
    }
}
