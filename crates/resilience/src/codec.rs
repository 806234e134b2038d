//! The byte-level encodings the persisted and hashed formats share.
//!
//! `SSCK` checkpoints ([`crate::snapshot`]), `SSJL` journals
//! ([`crate::durable`]) and the plan hash are all little-endian
//! streams: fixed-width integers, `bool`s and `Option` tags as one byte,
//! strings and byte runs prefixed with a `u32` length. This module owns
//! those writers, the one bounded [`Reader`], the statistics codecs
//! both formats embed, the magic/version and trailing-bytes checks, and
//! the two digests ([`crc32`] and [`fnv1a64`]). A field added to
//! [`CpuStats`] or [`HwStats`] is therefore added once, and both formats
//! move together.

use softsim_cosim::HwStats;
use softsim_iss::CpuStats;

/// Why a read failed, before the format names it: each format converts
/// this into its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CodecError {
    /// The bytes ended before the value did.
    Truncated,
    /// The stream does not start with the format's magic.
    BadMagic,
    /// The stream carries a version other than the format's.
    Version(u32),
    /// A field held a value no encoder writes.
    Corrupt(&'static str),
}

/// Upper bound on a decoded string (guards against corrupt length
/// fields; the longest string any encoder writes is a panic message).
const MAX_STR: usize = 4096;

// ---------------------------------------------------------------- writers

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_opt_u16(out: &mut Vec<u8>, v: Option<u16>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

pub(crate) fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u32(out, x);
        }
    }
}

// ----------------------------------------------------------------- reader

/// Bounded little-endian reader: every read past the end is
/// [`CodecError::Truncated`], never a panic.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool out of range")),
        }
    }

    pub(crate) fn opt_u16(&mut self) -> Result<Option<u16>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.array().map(u16::from_le_bytes)?)),
            _ => Err(CodecError::Corrupt("option tag out of range")),
        }
    }

    pub(crate) fn opt_u32(&mut self) -> Result<Option<u32>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(CodecError::Corrupt("option tag out of range")),
        }
    }

    pub(crate) fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_STR {
            return Err(CodecError::Corrupt("string length out of range"));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt("string not UTF-8"))
    }

    /// The no-trailing-bytes check: `Corrupt(what)` unless every byte
    /// was read.
    pub(crate) fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::Corrupt(what))
        }
    }
}

/// The head of every format: `magic`, then `version` as a `u32`.
/// Rejection order: too short for the magic, wrong magic, too short for
/// the version, wrong version — so random bytes learn the most specific
/// reason first.
pub(crate) fn check_head(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<(), CodecError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != magic {
        return Err(CodecError::BadMagic);
    }
    match r.u32()? {
        v if v == version => Ok(()),
        v => Err(CodecError::Version(v)),
    }
}

// ------------------------------------------------------- statistics codecs

pub(crate) fn put_cpu_stats(out: &mut Vec<u8>, s: &CpuStats) {
    for v in [
        s.cycles,
        s.instructions,
        s.fsl_read_stalls,
        s.fsl_write_stalls,
        s.fsl_words_sent,
        s.fsl_words_received,
        s.fsl_nonblocking_misses,
        s.fsl_control_mismatches,
        s.taken_branches,
        s.mem_reads,
        s.mem_writes,
        s.multiplies,
    ] {
        put_u64(out, v);
    }
}

pub(crate) fn get_cpu_stats(r: &mut Reader) -> Result<CpuStats, CodecError> {
    Ok(CpuStats {
        cycles: r.u64()?,
        instructions: r.u64()?,
        fsl_read_stalls: r.u64()?,
        fsl_write_stalls: r.u64()?,
        fsl_words_sent: r.u64()?,
        fsl_words_received: r.u64()?,
        fsl_nonblocking_misses: r.u64()?,
        fsl_control_mismatches: r.u64()?,
        taken_branches: r.u64()?,
        mem_reads: r.u64()?,
        mem_writes: r.u64()?,
        multiplies: r.u64()?,
    })
}

pub(crate) fn put_hw_stats(out: &mut Vec<u8>, s: &HwStats) {
    put_u64(out, s.words_to_hw);
    put_u64(out, s.words_from_hw);
    put_u64(out, s.output_overflows);
    put_u64(out, s.max_to_hw_occupancy as u64);
    put_u64(out, s.max_from_hw_occupancy as u64);
}

pub(crate) fn get_hw_stats(r: &mut Reader) -> Result<HwStats, CodecError> {
    Ok(HwStats {
        words_to_hw: r.u64()?,
        words_from_hw: r.u64()?,
        output_overflows: r.u64()?,
        max_to_hw_occupancy: r.u64()? as usize,
        max_from_hw_occupancy: r.u64()? as usize,
    })
}

// ---------------------------------------------------------------- digests

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) over
/// `bytes`. Public because corruption tests and external checkpoint
/// tooling need to recompute the trailer after editing a payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        // Slicing-by-8: fold the register into the first four bytes,
        // then look all eight up at once, each in the table that shifts
        // it through the zeros that follow it in the chunk.
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let t = &CRC32_TABLES;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// [`crc32`]'s tables. Entry `i` of table 0 is the CRC register after
/// shifting the byte value `i` through eight bitwise steps; entry `i` of
/// table `k` is that register shifted on through `k` more zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Appends the [`crc32`] of everything in `out` so far: the trailer that
/// seals a checkpoint or a journal header.
pub(crate) fn seal(out: &mut Vec<u8>) {
    let crc = crc32(out);
    put_u32(out, crc);
}

/// Whether `bytes` ends in the [`crc32`] of everything before its last
/// four bytes. Callers check that there are four.
pub(crate) fn sealed(bytes: &[u8]) -> bool {
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    crc32(body).to_le_bytes() == trailer
}

/// FNV-1a 64-bit digest: the campaign plan hash and the service's job
/// content hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_testkit::Rng;

    /// The bit-at-a-time form the table is derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_table_matches_the_bitwise_form() {
        let mut rng = Rng::new(0x5EED_C4C3);
        for _ in 0..200 {
            let len = rng.range_usize(0, 2048);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "len {len}");
        }
        // Every split between eight-byte chunks and the byte-wise tail,
        // at every alignment of the start.
        let bytes: Vec<u8> = (0..40).map(|_| rng.next_u32() as u8).collect();
        for start in 0..8 {
            for len in 0..=16 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn fnv1a64_known_answer() {
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
    }
}
