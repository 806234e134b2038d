//! Local Memory Bus (LMB) model.
//!
//! On MicroBlaze, instructions and data live in on-chip block RAM reached
//! through two LMB interface controllers (one instruction-side, one
//! data-side). When controllers and processor run at the same frequency —
//! the configuration the paper's cycle-accurate simulator requires — every
//! access completes with a fixed latency of one clock cycle (§III-A).
//!
//! MB32 is big-endian, like MicroBlaze.

use softsim_isa::Image;
use std::fmt;
use std::ops::Range;

/// Fixed LMB access latency in clock cycles (the paper's configuration).
pub const LMB_LATENCY: u32 = 1;

/// A memory-access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address beyond the configured memory size.
    OutOfRange {
        /// The faulting byte address.
        addr: u32,
        /// The memory size in bytes.
        size: u32,
    },
    /// Half/word access not aligned to its width.
    Misaligned {
        /// The faulting byte address.
        addr: u32,
        /// The required alignment in bytes.
        align: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, size } => {
                write!(f, "address {addr:#010x} outside local memory of {size} bytes")
            }
            MemError::Misaligned { addr, align } => {
                write!(f, "address {addr:#010x} not aligned to {align} bytes")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The chunks in which one local-memory image differs from a base
/// image of the same size (see [`LmbMemory::diff`]). Lets a checkpoint
/// store only the memory a run has written since the base checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemPatch {
    /// `(byte offset, contents)` of every differing chunk, ascending.
    chunks: Vec<(u32, Box<[u8]>)>,
}

impl MemPatch {
    /// Chunk width in bytes (the last chunk of a memory may be shorter).
    pub const CHUNK: usize = 256;

    /// Memory bytes the patch carries.
    pub fn len_bytes(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.len()).sum()
    }
}

/// Block-RAM local memory behind the two LMB controllers.
#[derive(Debug, Clone)]
pub struct LmbMemory {
    bytes: Vec<u8>,
}

impl LmbMemory {
    /// Creates a zeroed memory of `size` bytes (rounded up to a word).
    pub fn new(size: u32) -> LmbMemory {
        LmbMemory { bytes: vec![0; size.next_multiple_of(4) as usize] }
    }

    /// Creates a memory sized `size` bytes and loads a program image at its
    /// base address.
    ///
    /// # Panics
    /// Panics if the image does not fit.
    pub fn with_image(size: u32, image: &Image) -> LmbMemory {
        let mut mem = LmbMemory::new(size);
        let base = image.base();
        assert!(
            (base + image.len_bytes()) as usize <= mem.bytes.len(),
            "image of {} bytes at base {:#x} exceeds memory of {} bytes",
            image.len_bytes(),
            base,
            mem.bytes.len()
        );
        mem.bytes[base as usize..(base + image.len_bytes()) as usize]
            .copy_from_slice(image.bytes());
        mem
    }

    /// Memory size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    fn check(&self, addr: u32, width: u32) -> Result<usize, MemError> {
        if !addr.is_multiple_of(width) {
            return Err(MemError::Misaligned { addr, align: width });
        }
        let end = addr as u64 + width as u64;
        if end > self.bytes.len() as u64 {
            return Err(MemError::OutOfRange { addr, size: self.size() });
        }
        Ok(addr as usize)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes[i])
    }

    /// Reads a big-endian half word (2-aligned).
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        let i = self.check(addr, 2)?;
        Ok(u16::from_be_bytes([self.bytes[i], self.bytes[i + 1]]))
    }

    /// Reads a big-endian word (4-aligned).
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        Ok(u32::from_be_bytes([
            self.bytes[i],
            self.bytes[i + 1],
            self.bytes[i + 2],
            self.bytes[i + 3],
        ]))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.bytes[i] = value;
        Ok(())
    }

    /// Writes a big-endian half word (2-aligned).
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        let i = self.check(addr, 2)?;
        self.bytes[i..i + 2].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Writes a big-endian word (4-aligned).
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Raw view of memory, for inspection in tests and tools.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The patch that turns `base` into this memory's contents.
    ///
    /// # Panics
    /// Panics if `base` is not exactly this memory's size.
    pub fn diff(&self, base: &[u8]) -> MemPatch {
        assert_eq!(base.len(), self.bytes.len(), "snapshot/memory size mismatch");
        let chunks = self
            .bytes
            .chunks(MemPatch::CHUNK)
            .zip(base.chunks(MemPatch::CHUNK))
            .enumerate()
            .filter(|(_, (now, then))| now != then)
            .map(|(i, (now, _))| ((i * MemPatch::CHUNK) as u32, Box::from(now)))
            .collect();
        MemPatch { chunks }
    }

    /// True when [`LmbMemory::load_patched`] of `base` and `patch` would
    /// leave the bytes in `range` (clamped to the memory) exactly as
    /// they are now. False on a size mismatch, which the load rejects.
    pub fn load_keeps(&self, base: &[u8], patch: &MemPatch, range: Range<usize>) -> bool {
        if base.len() != self.bytes.len() {
            return false;
        }
        let end = range.end.min(self.bytes.len());
        // `at` walks `range`: bytes before the next patch chunk come from
        // `base`, bytes inside a chunk from the chunk.
        let mut at = range.start.min(end);
        let same = |from: &[u8], lo: usize, hi: usize| from == &self.bytes[lo..hi];
        for (offset, chunk) in &patch.chunks {
            let (lo, hi) = (*offset as usize, *offset as usize + chunk.len());
            if hi <= at {
                continue;
            }
            if lo >= end {
                break;
            }
            let lo = lo.max(at);
            let hi = hi.min(end);
            if !same(&base[at..lo], at, lo) {
                return false;
            }
            let skip = lo - *offset as usize;
            if !same(&chunk[skip..skip + (hi - lo)], lo, hi) {
                return false;
            }
            at = hi;
        }
        same(&base[at..end], at, end)
    }

    /// Replaces the entire contents from a snapshot image `base`
    /// overlaid by `patch` (a [`LmbMemory::diff`] against that same
    /// base; pass an empty patch to restore `base` as it is).
    ///
    /// # Panics
    /// Panics if `base` is not exactly this memory's size — restoring a
    /// snapshot into a differently-sized memory is a caller bug.
    pub fn load_patched(&mut self, base: &[u8], patch: &MemPatch) {
        assert_eq!(base.len(), self.bytes.len(), "snapshot/memory size mismatch");
        self.bytes.copy_from_slice(base);
        for (offset, chunk) in &patch.chunks {
            let at = *offset as usize;
            self.bytes[at..at + chunk.len()].copy_from_slice(chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_isa::asm::assemble;

    #[test]
    fn patch_round_trips_against_its_base() {
        let base = LmbMemory::new(1000);
        let mut m = base.clone();
        m.write_u32(4, 0xDEAD_BEEF).unwrap();
        m.write_u8(999, 7).unwrap();
        let patch = m.diff(base.bytes());
        // One full chunk at the start, the short tail chunk at the end.
        assert_eq!(patch.len_bytes(), MemPatch::CHUNK + 1000 % MemPatch::CHUNK);
        let mut restored = LmbMemory::new(1000);
        restored.write_u32(500, 1).unwrap();
        restored.load_patched(base.bytes(), &patch);
        assert_eq!(restored.bytes(), m.bytes());
        assert_eq!(m.diff(m.bytes()), MemPatch::default());
    }

    #[test]
    fn load_keeps_compares_the_restored_range() {
        let base = LmbMemory::new(1000);
        let mut m = base.clone();
        m.write_u32(300, 0xDEAD_BEEF).unwrap();
        m.write_u8(999, 7).unwrap();
        let patch = m.diff(base.bytes());
        // The patched memory against itself: every range is kept.
        for range in [0..1000, 296..308, 300..301, 990..2000, 5..5] {
            assert!(m.load_keeps(base.bytes(), &patch, range.clone()), "{range:?}");
        }
        // The base memory: only ranges clear of both writes are kept.
        assert!(base.load_keeps(base.bytes(), &patch, 0..300));
        assert!(base.load_keeps(base.bytes(), &patch, 304..999));
        assert!(!base.load_keeps(base.bytes(), &patch, 0..301));
        assert!(!base.load_keeps(base.bytes(), &patch, 303..304));
        assert!(!base.load_keeps(base.bytes(), &patch, 998..1000));
        // Without the patch the base is restored: the writes are lost.
        assert!(!m.load_keeps(base.bytes(), &MemPatch::default(), 300..304));
        assert!(m.load_keeps(base.bytes(), &MemPatch::default(), 304..999));
        assert!(!m.load_keeps(&[0; 4], &MemPatch::default(), 0..0), "size mismatch");
    }

    #[test]
    fn big_endian_like_microblaze() {
        let mut m = LmbMemory::new(16);
        m.write_u32(0, 0xAABBCCDD).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 0xAA);
        assert_eq!(m.read_u8(3).unwrap(), 0xDD);
        assert_eq!(m.read_u16(2).unwrap(), 0xCCDD);
    }

    #[test]
    fn alignment_enforced() {
        let m = LmbMemory::new(16);
        assert_eq!(m.read_u32(2), Err(MemError::Misaligned { addr: 2, align: 4 }));
        assert_eq!(m.read_u16(1), Err(MemError::Misaligned { addr: 1, align: 2 }));
        assert!(m.read_u8(3).is_ok());
    }

    #[test]
    fn bounds_enforced() {
        let mut m = LmbMemory::new(8);
        assert!(matches!(m.read_u32(8), Err(MemError::OutOfRange { .. })));
        assert!(matches!(m.write_u8(100, 0), Err(MemError::OutOfRange { .. })));
        assert!(m.write_u32(4, 1).is_ok());
    }

    #[test]
    fn loads_image_at_base() {
        let img = assemble(".org 0x10\n.word 0x12345678\n").unwrap();
        let m = LmbMemory::with_image(64, &img);
        assert_eq!(m.read_u32(0x10).unwrap(), 0x12345678);
        assert_eq!(m.read_u32(0).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds memory")]
    fn oversized_image_panics() {
        let img = assemble(".space 128\n.word 1\n").unwrap();
        let _ = LmbMemory::with_image(64, &img);
    }
}
