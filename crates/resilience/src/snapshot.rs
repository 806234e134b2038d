//! Checkpoint serialization.
//!
//! [`CoSimState`] is a plain in-memory value; this module gives it a
//! stable byte encoding so checkpoints can be stored, hashed, or diffed
//! between runs. The format is deliberately simple: a 4-byte magic
//! (`SSCK`), a `u32` version, then every field little-endian in
//! declaration order, and finally a [`crc32`] over everything that
//! precedes it. `Option`s are a tag byte followed by the value;
//! variable-length sequences are length-prefixed with a `u32`.
//!
//! The CRC trailer is what makes a rollback supervisor trustworthy: a
//! checkpoint that was itself corrupted (on disk, in transit, or by the
//! very fault campaign it is meant to recover from) is rejected with
//! [`SnapshotError::ChecksumMismatch`] instead of being silently
//! restored into a diverged system.

use softsim_blocks::GraphState;
use softsim_bus::{FslBankState, FslFifoState, FslStats, FslWord};
use softsim_cosim::CoSimState;
use softsim_iss::{CpuSnapshot, CpuStats, PipeSnapshot};

/// Magic bytes at the head of every checkpoint ("SoftSim ChecKpoint").
pub const MAGIC: [u8; 4] = *b"SSCK";
/// Current checkpoint format version. Version 2 added the CRC-32
/// trailer, FSL ECC state and counters, and per-node span framing for
/// graph block state.
pub const VERSION: u32 = 2;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) over
/// `bytes`. Public because corruption tests and external checkpoint
/// tooling need to recompute the trailer after editing a payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// [`crc32`]'s byte-at-a-time table: entry `i` is the CRC register
/// after shifting the byte value `i` through eight bitwise steps.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Why a checkpoint byte stream could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream ended before the structure was complete.
    Truncated,
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream uses a format version this build does not understand.
    VersionUnsupported(u32),
    /// The CRC-32 trailer does not match the payload — the checkpoint
    /// bytes were corrupted after serialization.
    ChecksumMismatch,
    /// A field held a value that cannot occur in a real snapshot.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "checkpoint truncated"),
            SnapshotError::BadMagic => write!(f, "not a softsim checkpoint (bad magic)"),
            SnapshotError::VersionUnsupported(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            SnapshotError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (payload corrupted)")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializes a co-simulation checkpoint to bytes.
pub fn to_bytes(state: &CoSimState) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096 + state.cpu.mem.len());
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    put_cpu(&mut out, &state.cpu);
    put_bank(&mut out, &state.fsl);
    put_u32(&mut out, state.peripherals.len() as u32);
    for g in &state.peripherals {
        put_graph(&mut out, g);
    }
    put_u64(&mut out, state.hw_stats.words_to_hw);
    put_u64(&mut out, state.hw_stats.words_from_hw);
    put_u64(&mut out, state.hw_stats.output_overflows);
    put_u64(&mut out, state.hw_stats.max_to_hw_occupancy as u64);
    put_u64(&mut out, state.hw_stats.max_from_hw_occupancy as u64);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decodes a checkpoint produced by [`to_bytes`]. Rejection order:
/// magic before version before checksum before structure, so a caller
/// handed random bytes learns the most specific reason first.
pub fn from_bytes(bytes: &[u8]) -> Result<CoSimState, SnapshotError> {
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(SnapshotError::VersionUnsupported(version));
    }
    if bytes.len() < 12 {
        return Err(SnapshotError::Truncated);
    }
    let body_end = bytes.len() - 4;
    let stored = u32::from_le_bytes([
        bytes[body_end],
        bytes[body_end + 1],
        bytes[body_end + 2],
        bytes[body_end + 3],
    ]);
    if crc32(&bytes[..body_end]) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader { bytes: &bytes[..body_end], pos: 8 };
    let cpu = get_cpu(&mut r)?;
    let fsl = get_bank(&mut r)?;
    let n = r.u32()? as usize;
    let mut peripherals = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        peripherals.push(get_graph(&mut r)?);
    }
    let hw_stats = softsim_cosim::HwStats {
        words_to_hw: r.u64()?,
        words_from_hw: r.u64()?,
        output_overflows: r.u64()?,
        max_to_hw_occupancy: r.u64()? as usize,
        max_from_hw_occupancy: r.u64()? as usize,
    };
    if r.pos != r.bytes.len() {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    Ok(CoSimState { cpu, fsl, peripherals, hw_stats })
}

// ---------------------------------------------------------------- writers

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_opt_u16(out: &mut Vec<u8>, v: Option<u16>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u32(out, x);
        }
    }
}

fn put_cpu(out: &mut Vec<u8>, s: &CpuSnapshot) {
    for r in s.regs {
        put_u32(out, r);
    }
    put_u32(out, s.pc);
    put_bool(out, s.carry);
    put_opt_u16(out, s.imm_latch);
    put_opt_u32(out, s.delay_target);
    put_bool(out, s.in_delay_slot);
    put_opt_u32(out, s.redirect);
    put_u32(out, s.mem.len() as u32);
    out.extend_from_slice(&s.mem);
    put_u32(out, s.extra_cycles);
    match s.pipe {
        PipeSnapshot::Ready => out.push(0),
        PipeSnapshot::Busy { remaining, pc, word } => {
            out.push(1);
            put_u32(out, remaining);
            put_u32(out, pc);
            put_u32(out, word);
        }
        PipeSnapshot::FslStall { pc, word } => {
            out.push(2);
            put_u32(out, pc);
            put_u32(out, word);
        }
    }
    put_bool(out, s.halted);
    put_stats(out, &s.stats);
    put_opt_u32(out, s.bp_skip);
}

fn put_stats(out: &mut Vec<u8>, s: &CpuStats) {
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

fn put_fifo(out: &mut Vec<u8>, s: &FslFifoState) {
    put_u32(out, s.words.len() as u32);
    for w in &s.words {
        put_u32(out, w.data);
        put_bool(out, w.control);
    }
    put_bool(out, s.ecc);
    put_u32(out, s.check.len() as u32);
    out.extend_from_slice(&s.check);
    put_u64(out, s.stats.pushes);
    put_u64(out, s.stats.pops);
    put_u64(out, s.stats.full_rejections);
    put_u64(out, s.stats.empty_rejections);
    put_u64(out, s.stats.ecc_corrected);
    put_u64(out, s.stats.ecc_uncorrectable);
    put_u64(out, s.stats.max_occupancy as u64);
    put_bool(out, s.stuck_full);
    put_bool(out, s.stuck_empty);
}

fn put_bank(out: &mut Vec<u8>, s: &FslBankState) {
    put_u32(out, s.to_hw.len() as u32);
    for f in &s.to_hw {
        put_fifo(out, f);
    }
    put_u32(out, s.from_hw.len() as u32);
    for f in &s.from_hw {
        put_fifo(out, f);
    }
}

fn put_graph(out: &mut Vec<u8>, g: &GraphState) {
    put_u64(out, g.cycle);
    put_u32(out, g.values.len() as u32);
    for v in &g.values {
        put_u64(out, *v);
    }
    put_u32(out, g.block_words.len() as u32);
    for v in &g.block_words {
        put_u64(out, *v);
    }
    put_u32(out, g.spans.len() as u32);
    for s in &g.spans {
        put_u32(out, *s);
    }
}

// ---------------------------------------------------------------- readers

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool out of range")),
        }
    }

    fn opt_u16(&mut self) -> Result<Option<u16>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u16()?)),
            _ => Err(SnapshotError::Corrupt("option tag out of range")),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(SnapshotError::Corrupt("option tag out of range")),
        }
    }
}

fn get_cpu(r: &mut Reader) -> Result<CpuSnapshot, SnapshotError> {
    let mut regs = [0u32; 32];
    for reg in &mut regs {
        *reg = r.u32()?;
    }
    let pc = r.u32()?;
    let carry = r.bool()?;
    let imm_latch = r.opt_u16()?;
    let delay_target = r.opt_u32()?;
    let in_delay_slot = r.bool()?;
    let redirect = r.opt_u32()?;
    let mem_len = r.u32()? as usize;
    let mem = r.take(mem_len)?.to_vec();
    let extra_cycles = r.u32()?;
    let pipe = match r.u8()? {
        0 => PipeSnapshot::Ready,
        1 => PipeSnapshot::Busy { remaining: r.u32()?, pc: r.u32()?, word: r.u32()? },
        2 => PipeSnapshot::FslStall { pc: r.u32()?, word: r.u32()? },
        _ => return Err(SnapshotError::Corrupt("pipeline tag out of range")),
    };
    let halted = r.bool()?;
    let stats = get_stats(r)?;
    let bp_skip = r.opt_u32()?;
    Ok(CpuSnapshot {
        regs,
        pc,
        carry,
        imm_latch,
        delay_target,
        in_delay_slot,
        redirect,
        mem,
        extra_cycles,
        pipe,
        halted,
        stats,
        bp_skip,
    })
}

fn get_stats(r: &mut Reader) -> Result<CpuStats, SnapshotError> {
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

fn get_fifo(r: &mut Reader) -> Result<FslFifoState, SnapshotError> {
    let n = r.u32()? as usize;
    let mut words = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        words.push(FslWord { data: r.u32()?, control: r.bool()? });
    }
    let ecc = r.bool()?;
    let check_len = r.u32()? as usize;
    let check = r.take(check_len)?.to_vec();
    if check.len() != if ecc { words.len() } else { 0 } {
        return Err(SnapshotError::Corrupt("ECC check-byte framing"));
    }
    let stats = FslStats {
        pushes: r.u64()?,
        pops: r.u64()?,
        full_rejections: r.u64()?,
        empty_rejections: r.u64()?,
        ecc_corrected: r.u64()?,
        ecc_uncorrectable: r.u64()?,
        max_occupancy: r.u64()? as usize,
    };
    let stuck_full = r.bool()?;
    let stuck_empty = r.bool()?;
    Ok(FslFifoState { words, ecc, check, stats, stuck_full, stuck_empty })
}

fn get_bank(r: &mut Reader) -> Result<FslBankState, SnapshotError> {
    let n = r.u32()? as usize;
    let mut to_hw = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        to_hw.push(get_fifo(r)?);
    }
    let n = r.u32()? as usize;
    let mut from_hw = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        from_hw.push(get_fifo(r)?);
    }
    Ok(FslBankState { to_hw, from_hw })
}

fn get_graph(r: &mut Reader) -> Result<GraphState, SnapshotError> {
    let cycle = r.u64()?;
    let n = r.u32()? as usize;
    let mut values = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        values.push(r.u64()?);
    }
    let n = r.u32()? as usize;
    let mut block_words = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        block_words.push(r.u64()?);
    }
    let n = r.u32()? as usize;
    let mut spans = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        spans.push(r.u32()?);
    }
    if spans.iter().map(|&s| s as u64).sum::<u64>() != block_words.len() as u64 {
        return Err(SnapshotError::Corrupt("graph span framing"));
    }
    Ok(GraphState { cycle, values, block_words, spans })
}

#[cfg(test)]
mod tests {
    use super::crc32;
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
    }
}
