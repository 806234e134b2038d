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

pub use crate::codec::crc32;
use crate::codec::{
    check_head, get_cpu_stats, get_hw_stats, put_bool, put_cpu_stats, put_hw_stats, put_opt_u16,
    put_opt_u32, put_u32, put_u64, seal, sealed, CodecError, Reader,
};
use softsim_blocks::GraphState;
use softsim_bus::{FslBankState, FslFifoState, FslStats, FslWord};
use softsim_cosim::CoSimState;
use softsim_iss::{CpuSnapshot, PipeSnapshot};

/// Magic bytes at the head of every checkpoint ("SoftSim ChecKpoint").
pub const MAGIC: [u8; 4] = *b"SSCK";
/// Current checkpoint format version. Version 2 added the CRC-32
/// trailer, FSL ECC state and counters, and per-node span framing for
/// graph block state.
pub const VERSION: u32 = 2;

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

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        match e {
            CodecError::Truncated => SnapshotError::Truncated,
            CodecError::BadMagic => SnapshotError::BadMagic,
            CodecError::Version(v) => SnapshotError::VersionUnsupported(v),
            CodecError::Corrupt(what) => SnapshotError::Corrupt(what),
        }
    }
}

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
    put_hw_stats(&mut out, &state.hw_stats);
    seal(&mut out);
    out
}

/// Decodes a checkpoint produced by [`to_bytes`]. Rejection order:
/// magic before version before checksum before structure, so a caller
/// handed random bytes learns the most specific reason first.
pub fn from_bytes(bytes: &[u8]) -> Result<CoSimState, SnapshotError> {
    check_head(bytes, MAGIC, VERSION)?;
    if bytes.len() < 12 {
        return Err(SnapshotError::Truncated);
    }
    if !sealed(bytes) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader::new(&bytes[8..bytes.len() - 4]);
    let cpu = get_cpu(&mut r)?;
    let fsl = get_bank(&mut r)?;
    let n = r.u32()? as usize;
    let mut peripherals = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        peripherals.push(get_graph(&mut r)?);
    }
    let hw_stats = get_hw_stats(&mut r)?;
    r.finish("trailing bytes")?;
    Ok(CoSimState { cpu, fsl, peripherals, hw_stats })
}

// ---------------------------------------------------------------- writers

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
    put_cpu_stats(out, &s.stats);
    put_opt_u32(out, s.bp_skip);
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
    let stats = get_cpu_stats(r)?;
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
