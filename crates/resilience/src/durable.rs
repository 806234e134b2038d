//! Durable (crash-resumable) campaign execution.
//!
//! A long fault campaign that dies at trial 9,999 of 10,000 should not
//! restart from zero. This module writes one CRC32-framed record per
//! completed trial to an append-only *journal* as the campaign runs, so
//! an interrupted run can be resumed: already-journaled trials are
//! loaded instead of re-executed, the torn or corrupt tail (a record
//! the crash cut mid-write) is discarded and re-run, and the merged
//! report is **byte-identical** to an uninterrupted run — at any worker
//! count, because trials are independent and merge in plan order.
//!
//! ## Journal format (`SSJL`)
//!
//! ```text
//! header   "SSJL" | version u32 | kind u8 | plan_hash u64 | trials u32 | crc32(header)
//! record   len u32 | payload | crc32(payload)      (repeated, append-only)
//! payload  trial_index u32 | encoded trial
//! ```
//!
//! Everything is little-endian, mirroring the `SSCK` checkpoint format
//! ([`crate::snapshot`]). `kind` is 0 for fault campaigns
//! ([`crate::campaign`]) and 1 for recovery campaigns
//! ([`crate::recover`]). `plan_hash` is an FNV-1a digest of the
//! campaign's deterministic inputs — configuration knobs, the full
//! injection plan, and the golden reference — so a journal can never be
//! resumed against a different workload: the mismatch is a typed
//! [`JournalError::PlanMismatch`], not a silently wrong report.
//!
//! Records are keyed by `(plan_hash, trial_index)`: the hash lives once
//! in the header, the index prefixes every payload. Workers append in
//! completion order (which depends on scheduling), but resume rebuilds
//! by index, so journal record order never affects the report. A
//! duplicate index (possible when a crash lands between the append and
//! the bookkeeping of a retried run) resolves last-wins; trials are
//! deterministic, so duplicates are byte-identical anyway.
//!
//! Reading a journal never panics: any torn, truncated, bit-flipped or
//! arbitrary byte sequence yields either a typed [`JournalError`] (for
//! header-level damage) or a shorter valid prefix (for record-level
//! damage — scanning stops at the first bad frame, the damaged tail is
//! dropped, and the trials it covered simply re-run on resume).
//!
//! ## Write-side degradation
//!
//! Appends can fail too (disk full, flush error, a short write). A
//! failed append must not kill a campaign that is otherwise healthy,
//! and must not leave a corrupt frame for the next resume to trip on.
//! So the append path *degrades*: on the first failed append the file
//! is truncated back to the last good frame, journaling stops, the
//! campaign finishes in memory, and [`crate::run`] reports a
//! [`DurabilityStatus`] with `durable = false` and a warning naming the
//! failure. [`AppendFaultPlan`] injects exactly these failures in tests
//! (the same philosophy as [`FaultKind::HarnessPanic`] for trial
//! isolation: the degradation path stays provable end to end).

use crate::campaign::{CampaignConfig, CampaignReport, Outcome, Trial};
use crate::driver::{run, Exec, JournalSpec, Sims, TrialKind};
use crate::inject::{FaultKind, Injection};
use crate::recover::{RecoveryOutcome, RecoveryTrial};
use crate::snapshot::crc32;
use softsim_bus::MemError;
use softsim_cosim::{CoSim, CoSimStop, DeadlockCause, HwStats};
use softsim_isa::DecodeError;
use softsim_iss::{CpuStats, Fault, FslBlock};
use softsim_metrics::telemetry::{SpanKind, SpanRecord, Telemetry};
use softsim_trace::{DetectorKind, FifoDir};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Magic bytes at the head of every journal ("SoftSim Journal").
pub const MAGIC: [u8; 4] = *b"SSJL";
/// Current journal format version.
pub const VERSION: u32 = 1;

/// Header `kind` byte of a fault-campaign journal.
pub(crate) const KIND_CAMPAIGN: u8 = 0;
/// Header `kind` byte of a recovery-campaign journal.
pub(crate) const KIND_RECOVERY: u8 = 1;

/// Fixed header size: magic + version + kind + plan hash + trial count
/// + CRC trailer.
const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 4 + 4;

/// Upper bound on one record's payload length. Real trial records are a
/// few hundred bytes; anything bigger is a corrupt length field, and
/// bounding it keeps a damaged journal from asking for gigabytes.
const MAX_RECORD: usize = 1 << 24;

/// Upper bound on a decoded panic-message string (matches nothing the
/// harness itself produces; guards against corrupt length fields).
const MAX_PANIC_MSG: usize = 4096;

/// Upper bound on the header's trial count. The resume scan allocates
/// one slot per planned trial before decoding any record, so a corrupt
/// count must fail typed instead of attempting a huge allocation.
const MAX_TRIALS: usize = 1 << 22;

/// Environment variable read by journaled runs: when set to `N`,
/// the process exits with status 3 immediately after the `N`-th record
/// append of this run. A crash-test hook for interrupt-and-resume
/// testing (CI kills a campaign "partway" deterministically with it) —
/// never set it in a process whose other work you care about.
pub const ABORT_ENV: &str = "SOFTSIM_ABORT_AFTER_TRIALS";

/// An environment variable held a value that cannot be used: not a
/// positive integer. Returned instead of silently falling back to the
/// default, so a typo'd `SOFTSIM_ABORT_AFTER_TRIALS=banana` (or `=0`)
/// fails loudly rather than quietly changing what a CI kill test means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvConfigError {
    /// The variable that was set.
    pub var: &'static str,
    /// The rejected value.
    pub value: String,
}

impl std::fmt::Display for EnvConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected a positive integer (unset the variable for the default)",
            self.var, self.value
        )
    }
}

impl std::error::Error for EnvConfigError {}

/// Strictly parses [`ABORT_ENV`]: unset → `None`, a positive integer →
/// `Some(n)`, anything else (including `0`) → a typed
/// [`EnvConfigError`]. A journaled run calls this when it opens its
/// journal, so an invalid value surfaces as [`JournalError::Config`]
/// before any trial runs; CLIs should call it eagerly for a clearer
/// message.
pub fn abort_after_trials_from_env() -> Result<Option<u64>, EnvConfigError> {
    match std::env::var(ABORT_ENV) {
        Err(_) => Ok(None),
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(EnvConfigError { var: ABORT_ENV, value: v }),
        },
    }
}

/// Which failure an injected journal-append fault simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendFault {
    /// The frame is cut mid-write (half its bytes reach the file before
    /// the error) — the torn-tail case a power loss produces.
    ShortWrite,
    /// The write fails outright with a storage-full error; nothing of
    /// the frame reaches the file.
    DiskFull,
    /// The frame is written but the flush fails, so its durability
    /// cannot be trusted.
    FlushError,
}

impl std::fmt::Display for AppendFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AppendFault::ShortWrite => "short write",
            AppendFault::DiskFull => "disk full",
            AppendFault::FlushError => "flush error",
        })
    }
}

/// Injectable I/O fault for the journal append path: the append after
/// `after_appends` successful ones fails as `kind`. Tests use this to
/// prove a failed append degrades the run to non-durable (see the
/// module docs) instead of panicking or corrupting the journal tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendFaultPlan {
    /// The failure to simulate.
    pub kind: AppendFault,
    /// How many appends succeed before the fault fires.
    pub after_appends: u32,
}

/// How durable a run actually was, reported by [`crate::run`]. The
/// campaign report itself is byte-identical either way — only the
/// journal's fate differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// `true` when every completed trial reached the journal; `false`
    /// when the run kept no journal, or an append failed and journaling
    /// stopped.
    pub durable: bool,
    /// Records appended by this run (not counting resumed ones).
    pub appended: u32,
    /// Human-readable description of the append failure, when degraded.
    pub warning: Option<String>,
}

/// Why a journal could not be opened, read, or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An underlying file operation failed.
    Io(std::io::ErrorKind),
    /// The journal ended before the fixed header was complete.
    Truncated,
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The journal uses a format version this build does not understand.
    VersionUnsupported(u32),
    /// The header CRC-32 trailer does not match — the header bytes were
    /// corrupted after they were written.
    ChecksumMismatch,
    /// The journal records a different campaign kind (fault vs
    /// recovery) than the caller expected.
    KindMismatch {
        /// Kind byte the caller expected.
        expected: u8,
        /// Kind byte found in the header.
        found: u8,
    },
    /// The journal was written for a different plan / configuration /
    /// golden reference than the one being resumed.
    PlanMismatch {
        /// Plan hash of the campaign being resumed.
        expected: u64,
        /// Plan hash recorded in the journal header.
        found: u64,
    },
    /// The journal's header declares a different trial count than the
    /// plan being resumed (possible only on a hash collision; checked
    /// anyway).
    TrialCountMismatch {
        /// Trial count of the campaign being resumed.
        expected: u32,
        /// Trial count recorded in the journal header.
        found: u32,
    },
    /// A field held a value that cannot occur in a real journal.
    Corrupt(&'static str),
    /// An environment knob journaled runs read was set to an
    /// unusable value (see [`abort_after_trials_from_env`]).
    Config(EnvConfigError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(kind) => write!(f, "journal I/O error: {kind}"),
            JournalError::Truncated => write!(f, "journal truncated before the header ended"),
            JournalError::BadMagic => write!(f, "not a softsim trial journal (bad magic)"),
            JournalError::VersionUnsupported(v) => {
                write!(f, "unsupported journal version {v}")
            }
            JournalError::ChecksumMismatch => {
                write!(f, "journal header checksum mismatch (header corrupted)")
            }
            JournalError::KindMismatch { expected, found } => write!(
                f,
                "journal records a {} campaign, expected {}",
                kind_label(*found),
                kind_label(*expected)
            ),
            JournalError::PlanMismatch { expected, found } => write!(
                f,
                "journal plan hash {found:#018x} does not match this campaign ({expected:#018x})"
            ),
            JournalError::TrialCountMismatch { expected, found } => {
                write!(f, "journal declares {found} trials, this campaign has {expected}")
            }
            JournalError::Corrupt(what) => write!(f, "corrupt journal: {what}"),
            JournalError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e.kind())
    }
}

impl From<EnvConfigError> for JournalError {
    fn from(e: EnvConfigError) -> JournalError {
        JournalError::Config(e)
    }
}

fn kind_label(kind: u8) -> &'static str {
    match kind {
        KIND_CAMPAIGN => "fault",
        KIND_RECOVERY => "recovery",
        _ => "unknown",
    }
}

/// What a journal scan recovered: the completed trials by plan index,
/// plus accounting of how much of the file was trustworthy.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan<T> {
    /// Plan hash recorded in the journal header.
    pub plan_hash: u64,
    /// Trial count the journal's campaign was planned with.
    pub trials: usize,
    /// One slot per planned trial; `Some` where a valid record was
    /// found. Resume re-runs exactly the `None` slots.
    pub completed: Vec<Option<T>>,
    /// Valid records read (duplicates counted each time they appear).
    pub records: usize,
    /// Length of the valid journal prefix — header plus every
    /// well-framed record. Resume truncates the file to this length
    /// before appending.
    pub good_bytes: u64,
    /// Bytes after the valid prefix that were dropped (a torn final
    /// write, or corruption); the trials they covered re-run.
    pub torn_bytes: u64,
}

impl<T> JournalScan<T> {
    /// Planned trials with a valid journal record.
    pub fn done(&self) -> usize {
        self.completed.iter().filter(|t| t.is_some()).count()
    }

    /// Planned trials still to run.
    pub fn pending(&self) -> usize {
        self.trials - self.done()
    }
}

// ------------------------------------------------------------ byte helpers

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

/// Bounded little-endian reader over one record payload.
pub(crate) struct Rd<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let end = self.pos.checked_add(n).ok_or(JournalError::Corrupt("record truncated"))?;
        if end > self.bytes.len() {
            return Err(JournalError::Corrupt("record truncated"));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn bool(&mut self) -> Result<bool, JournalError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(JournalError::Corrupt("bool out of range")),
        }
    }

    fn str(&mut self) -> Result<String, JournalError> {
        let n = self.u32()? as usize;
        if n > MAX_PANIC_MSG {
            return Err(JournalError::Corrupt("string length out of range"));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| JournalError::Corrupt("string not UTF-8"))
    }
}

// ------------------------------------------------------------ trial codecs

fn put_dir(out: &mut Vec<u8>, dir: FifoDir) {
    put_u8(
        out,
        match dir {
            FifoDir::ToHw => 0,
            FifoDir::FromHw => 1,
        },
    );
}

fn get_dir(r: &mut Rd) -> Result<FifoDir, JournalError> {
    match r.u8()? {
        0 => Ok(FifoDir::ToHw),
        1 => Ok(FifoDir::FromHw),
        _ => Err(JournalError::Corrupt("FIFO direction out of range")),
    }
}

fn put_injection(out: &mut Vec<u8>, inj: &Injection) {
    put_u64(out, inj.cycle);
    match inj.kind {
        FaultKind::RegBitFlip { reg, bit } => {
            put_u8(out, 0);
            put_u8(out, reg);
            put_u8(out, bit);
        }
        FaultKind::MemBitFlip { addr, bit } => {
            put_u8(out, 1);
            put_u32(out, addr);
            put_u8(out, bit);
        }
        FaultKind::FifoBitFlip { dir, channel, index, bit } => {
            put_u8(out, 2);
            put_dir(out, dir);
            put_u8(out, channel);
            put_u8(out, index);
            put_u8(out, bit);
        }
        FaultKind::FifoDrop { dir, channel } => {
            put_u8(out, 3);
            put_dir(out, dir);
            put_u8(out, channel);
        }
        FaultKind::FifoDuplicate { dir, channel } => {
            put_u8(out, 4);
            put_dir(out, dir);
            put_u8(out, channel);
        }
        FaultKind::StuckFull { channel } => {
            put_u8(out, 5);
            put_u8(out, channel);
        }
        FaultKind::StuckEmpty { channel } => {
            put_u8(out, 6);
            put_u8(out, channel);
        }
        FaultKind::BlockStateFlip { peripheral, word, bit } => {
            put_u8(out, 7);
            put_u8(out, peripheral);
            put_u32(out, word);
            put_u8(out, bit);
        }
        FaultKind::HarnessPanic => put_u8(out, 8),
    }
}

fn get_injection(r: &mut Rd) -> Result<Injection, JournalError> {
    let cycle = r.u64()?;
    let kind = match r.u8()? {
        0 => FaultKind::RegBitFlip { reg: r.u8()?, bit: r.u8()? },
        1 => FaultKind::MemBitFlip { addr: r.u32()?, bit: r.u8()? },
        2 => FaultKind::FifoBitFlip {
            dir: get_dir(r)?,
            channel: r.u8()?,
            index: r.u8()?,
            bit: r.u8()?,
        },
        3 => FaultKind::FifoDrop { dir: get_dir(r)?, channel: r.u8()? },
        4 => FaultKind::FifoDuplicate { dir: get_dir(r)?, channel: r.u8()? },
        5 => FaultKind::StuckFull { channel: r.u8()? },
        6 => FaultKind::StuckEmpty { channel: r.u8()? },
        7 => FaultKind::BlockStateFlip { peripheral: r.u8()?, word: r.u32()?, bit: r.u8()? },
        8 => FaultKind::HarnessPanic,
        _ => return Err(JournalError::Corrupt("fault kind out of range")),
    };
    Ok(Injection { cycle, kind })
}

fn put_block(out: &mut Vec<u8>, b: &FslBlock) {
    put_u8(out, b.channel);
    put_dir(out, b.dir);
    put_u32(out, b.pc);
}

fn get_block(r: &mut Rd) -> Result<FslBlock, JournalError> {
    Ok(FslBlock { channel: r.u8()?, dir: get_dir(r)?, pc: r.u32()? })
}

fn put_fault(out: &mut Vec<u8>, fault: &Fault) {
    match fault {
        Fault::Decode { pc, err } => {
            put_u8(out, 0);
            put_u32(out, *pc);
            match err {
                DecodeError::UnknownOpcode { opcode, word } => {
                    put_u8(out, 0);
                    put_u8(out, *opcode);
                    put_u32(out, *word);
                }
                DecodeError::BadMinor { opcode, word } => {
                    put_u8(out, 1);
                    put_u8(out, *opcode);
                    put_u32(out, *word);
                }
            }
        }
        Fault::Memory { pc, err } => {
            put_u8(out, 1);
            put_u32(out, *pc);
            match err {
                MemError::OutOfRange { addr, size } => {
                    put_u8(out, 0);
                    put_u32(out, *addr);
                    put_u32(out, *size);
                }
                MemError::Misaligned { addr, align } => {
                    put_u8(out, 1);
                    put_u32(out, *addr);
                    put_u32(out, *align);
                }
            }
        }
        Fault::IllegalDelaySlot { pc } => {
            put_u8(out, 2);
            put_u32(out, *pc);
        }
        Fault::DisabledInstruction { pc, unit } => {
            put_u8(out, 3);
            put_u32(out, *pc);
            put_str(out, unit);
        }
    }
}

fn get_fault(r: &mut Rd) -> Result<Fault, JournalError> {
    match r.u8()? {
        0 => {
            let pc = r.u32()?;
            let err = match r.u8()? {
                0 => DecodeError::UnknownOpcode { opcode: r.u8()?, word: r.u32()? },
                1 => DecodeError::BadMinor { opcode: r.u8()?, word: r.u32()? },
                _ => return Err(JournalError::Corrupt("decode error tag out of range")),
            };
            Ok(Fault::Decode { pc, err })
        }
        1 => {
            let pc = r.u32()?;
            let err = match r.u8()? {
                0 => MemError::OutOfRange { addr: r.u32()?, size: r.u32()? },
                1 => MemError::Misaligned { addr: r.u32()?, align: r.u32()? },
                _ => return Err(JournalError::Corrupt("memory error tag out of range")),
            };
            Ok(Fault::Memory { pc, err })
        }
        2 => Ok(Fault::IllegalDelaySlot { pc: r.u32()? }),
        3 => {
            let pc = r.u32()?;
            // Decode back to the `&'static str` the ISS uses; a string
            // it never produces means the record is damaged.
            let unit = match r.str()?.as_str() {
                "multiplier" => "multiplier",
                "divider" => "divider",
                "barrel shifter" => "barrel shifter",
                _ => return Err(JournalError::Corrupt("unknown disabled unit")),
            };
            Ok(Fault::DisabledInstruction { pc, unit })
        }
        _ => Err(JournalError::Corrupt("fault tag out of range")),
    }
}

fn put_stop(out: &mut Vec<u8>, stop: &CoSimStop) {
    match stop {
        CoSimStop::Halted => put_u8(out, 0),
        CoSimStop::CycleLimit { blocked } => {
            put_u8(out, 1);
            match blocked {
                None => put_u8(out, 0),
                Some(b) => {
                    put_u8(out, 1);
                    put_block(out, b);
                }
            }
        }
        CoSimStop::Deadlock { cycle, cause } => {
            put_u8(out, 2);
            put_u64(out, *cycle);
            match cause {
                DeadlockCause::FslDeadlock { block } => {
                    put_u8(out, 0);
                    put_block(out, block);
                }
                DeadlockCause::Livelock => put_u8(out, 1),
            }
        }
        CoSimStop::Fault(fault) => {
            put_u8(out, 3);
            put_fault(out, fault);
        }
    }
}

fn get_stop(r: &mut Rd) -> Result<CoSimStop, JournalError> {
    match r.u8()? {
        0 => Ok(CoSimStop::Halted),
        1 => {
            let blocked = match r.u8()? {
                0 => None,
                1 => Some(get_block(r)?),
                _ => return Err(JournalError::Corrupt("option tag out of range")),
            };
            Ok(CoSimStop::CycleLimit { blocked })
        }
        2 => {
            let cycle = r.u64()?;
            let cause = match r.u8()? {
                0 => DeadlockCause::FslDeadlock { block: get_block(r)? },
                1 => DeadlockCause::Livelock,
                _ => return Err(JournalError::Corrupt("deadlock cause out of range")),
            };
            Ok(CoSimStop::Deadlock { cycle, cause })
        }
        3 => Ok(CoSimStop::Fault(get_fault(r)?)),
        _ => Err(JournalError::Corrupt("stop tag out of range")),
    }
}

fn put_cpu_stats(out: &mut Vec<u8>, s: &CpuStats) {
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

fn get_cpu_stats(r: &mut Rd) -> Result<CpuStats, JournalError> {
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

fn put_hw_stats(out: &mut Vec<u8>, s: &HwStats) {
    put_u64(out, s.words_to_hw);
    put_u64(out, s.words_from_hw);
    put_u64(out, s.output_overflows);
    put_u64(out, s.max_to_hw_occupancy as u64);
    put_u64(out, s.max_from_hw_occupancy as u64);
}

fn get_hw_stats(r: &mut Rd) -> Result<HwStats, JournalError> {
    Ok(HwStats {
        words_to_hw: r.u64()?,
        words_from_hw: r.u64()?,
        output_overflows: r.u64()?,
        max_to_hw_occupancy: r.u64()? as usize,
        max_from_hw_occupancy: r.u64()? as usize,
    })
}

fn put_outcome(out: &mut Vec<u8>, outcome: &Outcome) {
    match outcome {
        Outcome::Masked => put_u8(out, 0),
        Outcome::Sdc => put_u8(out, 1),
        Outcome::Deadlock => put_u8(out, 2),
        Outcome::Fault => put_u8(out, 3),
        Outcome::Budget => put_u8(out, 4),
        Outcome::HarnessError { panic_msg } => {
            put_u8(out, 5);
            put_str(out, panic_msg);
        }
    }
}

fn get_outcome(r: &mut Rd) -> Result<Outcome, JournalError> {
    Ok(match r.u8()? {
        0 => Outcome::Masked,
        1 => Outcome::Sdc,
        2 => Outcome::Deadlock,
        3 => Outcome::Fault,
        4 => Outcome::Budget,
        5 => Outcome::HarnessError { panic_msg: r.str()? },
        _ => return Err(JournalError::Corrupt("outcome tag out of range")),
    })
}

pub(crate) fn put_trial(out: &mut Vec<u8>, t: &Trial) {
    put_injection(out, &t.injection);
    put_bool(out, t.applied);
    put_stop(out, &t.stop);
    put_outcome(out, &t.outcome);
    put_u32(out, t.retries);
    put_cpu_stats(out, &t.cpu_stats);
    put_hw_stats(out, &t.hw_stats);
}

pub(crate) fn get_trial(r: &mut Rd) -> Result<Trial, JournalError> {
    Ok(Trial {
        injection: get_injection(r)?,
        applied: r.bool()?,
        stop: get_stop(r)?,
        outcome: get_outcome(r)?,
        retries: r.u32()?,
        cpu_stats: get_cpu_stats(r)?,
        hw_stats: get_hw_stats(r)?,
    })
}

fn put_recovery_outcome(out: &mut Vec<u8>, outcome: &RecoveryOutcome) {
    match outcome {
        RecoveryOutcome::Clean => put_u8(out, 0),
        RecoveryOutcome::Recovered { detection_latency, recovery_cycles, retries } => {
            put_u8(out, 1);
            put_u64(out, *detection_latency);
            put_u64(out, *recovery_cycles);
            put_u32(out, *retries);
        }
        RecoveryOutcome::Unrecoverable => put_u8(out, 2),
        RecoveryOutcome::HarnessError { panic_msg } => {
            put_u8(out, 3);
            put_str(out, panic_msg);
        }
    }
}

fn get_recovery_outcome(r: &mut Rd) -> Result<RecoveryOutcome, JournalError> {
    Ok(match r.u8()? {
        0 => RecoveryOutcome::Clean,
        1 => RecoveryOutcome::Recovered {
            detection_latency: r.u64()?,
            recovery_cycles: r.u64()?,
            retries: r.u32()?,
        },
        2 => RecoveryOutcome::Unrecoverable,
        3 => RecoveryOutcome::HarnessError { panic_msg: r.str()? },
        _ => return Err(JournalError::Corrupt("recovery outcome tag out of range")),
    })
}

fn put_detector(out: &mut Vec<u8>, d: Option<DetectorKind>) {
    match d {
        None => put_u8(out, 0),
        Some(k) => put_u8(
            out,
            match k {
                DetectorKind::Watchdog => 1,
                DetectorKind::Ecc => 2,
                DetectorKind::Tmr => 3,
                DetectorKind::Signature => 4,
                DetectorKind::Observable => 5,
                DetectorKind::Fault => 6,
            },
        ),
    }
}

fn get_detector(r: &mut Rd) -> Result<Option<DetectorKind>, JournalError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(DetectorKind::Watchdog),
        2 => Some(DetectorKind::Ecc),
        3 => Some(DetectorKind::Tmr),
        4 => Some(DetectorKind::Signature),
        5 => Some(DetectorKind::Observable),
        6 => Some(DetectorKind::Fault),
        _ => return Err(JournalError::Corrupt("detector tag out of range")),
    })
}

pub(crate) fn put_recovery_trial(out: &mut Vec<u8>, t: &RecoveryTrial) {
    put_injection(out, &t.injection);
    put_bool(out, t.applied);
    put_recovery_outcome(out, &t.outcome);
    put_stop(out, &t.stop);
    put_detector(out, t.detector);
    put_u64(out, t.work_cycles);
}

pub(crate) fn get_recovery_trial(r: &mut Rd) -> Result<RecoveryTrial, JournalError> {
    Ok(RecoveryTrial {
        injection: get_injection(r)?,
        applied: r.bool()?,
        outcome: get_recovery_outcome(r)?,
        stop: get_stop(r)?,
        detector: get_detector(r)?,
        work_cycles: r.u64()?,
    })
}

// ------------------------------------------------------------- plan hashes

/// FNV-1a 64-bit digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hash of a campaign's deterministic identity: the kind's
/// classification-relevant configuration (written by `config`), the full
/// plan, and the golden reference. Machine-local tuning (wall-clock
/// budgets) is left out by the kinds — it is not part of what the
/// campaign computes.
pub(crate) fn plan_hash(
    plan: &[Injection],
    golden_cycles: u64,
    golden_observed: &[u32],
    config: impl FnOnce(&mut Vec<u8>),
) -> u64 {
    let mut buf = Vec::with_capacity(64 + plan.len() * 16 + golden_observed.len() * 4);
    config(&mut buf);
    put_u32(&mut buf, plan.len() as u32);
    for inj in plan {
        put_injection(&mut buf, inj);
    }
    put_u64(&mut buf, golden_cycles);
    put_u32(&mut buf, golden_observed.len() as u32);
    for &w in golden_observed {
        put_u32(&mut buf, w);
    }
    fnv1a64(&buf)
}

/// Decodes one whole record body with `get`; bytes left over mean the
/// record is damaged.
pub(crate) fn decode_all<T>(
    bytes: &[u8],
    get: fn(&mut Rd) -> Result<T, JournalError>,
) -> Result<T, JournalError> {
    let mut r = Rd { bytes, pos: 0 };
    let value = get(&mut r)?;
    if r.pos != bytes.len() {
        return Err(JournalError::Corrupt("trailing bytes in record"));
    }
    Ok(value)
}

// --------------------------------------------------------- header and scan

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    kind: u8,
    plan_hash: u64,
    trials: u32,
}

impl Header {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u8(&mut out, self.kind);
        put_u64(&mut out, self.plan_hash);
        put_u32(&mut out, self.trials);
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }
}

/// Validates the header and walks the record frames of `bytes`.
/// Header-level damage is a typed error; record-level damage ends the
/// scan at the last good frame (the tail is reported, not an error).
fn scan_bytes<T: Clone>(
    bytes: &[u8],
    expected_kind: u8,
    decode: fn(&[u8]) -> Result<T, JournalError>,
) -> Result<JournalScan<T>, JournalError> {
    // Every read below follows the length check that keeps it in bounds.
    let le32 =
        |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    if bytes.len() < 4 {
        return Err(JournalError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    if bytes.len() < 8 {
        return Err(JournalError::Truncated);
    }
    if le32(4) != VERSION {
        return Err(JournalError::VersionUnsupported(le32(4)));
    }
    if bytes.len() < HEADER_LEN {
        return Err(JournalError::Truncated);
    }
    if crc32(&bytes[..HEADER_LEN - 4]) != le32(HEADER_LEN - 4) {
        return Err(JournalError::ChecksumMismatch);
    }
    let kind = bytes[8];
    if kind != expected_kind {
        return Err(JournalError::KindMismatch { expected: expected_kind, found: kind });
    }
    let plan_hash = u64::from(le32(9)) | u64::from(le32(13)) << 32;
    let trials = le32(17) as usize;
    // The slot table is allocated from the header before any record is
    // decoded, so clamp hostile counts (a CRC-colliding corruption)
    // rather than attempting a multi-gigabyte allocation.
    if trials > MAX_TRIALS {
        return Err(JournalError::Corrupt("implausible trial count"));
    }

    let mut completed: Vec<Option<T>> = vec![None; trials];
    let mut records = 0usize;
    let mut pos = HEADER_LEN;
    while let Some(rest) = bytes.len().checked_sub(pos) {
        if rest < 4 {
            break;
        }
        let len = le32(pos) as usize;
        // A payload is at least the 4-byte trial index.
        if !(4..=MAX_RECORD).contains(&len) || rest < 4 + len + 4 {
            break;
        }
        let payload = &bytes[pos + 4..pos + 4 + len];
        let crc_at = pos + 4 + len;
        if crc32(payload) != le32(crc_at) {
            break;
        }
        let index = le32(pos + 4);
        let Ok(trial) = decode(&payload[4..]) else { break };
        if index as usize >= trials {
            break;
        }
        // Duplicate indices resolve last-wins; trials are deterministic
        // so duplicates are byte-identical anyway.
        completed[index as usize] = Some(trial);
        records += 1;
        pos = crc_at + 4;
    }
    Ok(JournalScan {
        plan_hash,
        trials,
        completed,
        records,
        good_bytes: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

/// Reads the journal of a `K` campaign (`CampaignConfig` or
/// `RecoveryPolicy`): which trials completed, under what plan hash, and
/// how much of the file survived. Pure inspection — the file is not
/// modified (resume truncates; this does not).
pub fn resume_from_journal<K: TrialKind>(
    path: &Path,
) -> Result<JournalScan<K::Trial>, JournalError> {
    let bytes = std::fs::read(path)?;
    scan_bytes(&bytes, K::JOURNAL_KIND, K::decode)
}

// ---------------------------------------------------------------- appends

/// A run's open journal: the framed append side plus the [`ABORT_ENV`]
/// crash-test hook. Shared by every worker of the run.
pub(crate) struct Journal {
    appender: Mutex<Appender>,
    /// Exit the process with status 3 once this many appends of this run
    /// succeeded ([`ABORT_ENV`]).
    abort_after: Option<u64>,
}

impl Journal {
    /// Opens the journal for a run: on resume, scan + validate + truncate
    /// the torn tail and return the already-completed slots; otherwise
    /// (or when the file is missing/empty) start fresh with a new header.
    pub(crate) fn open<T: Clone>(
        spec: JournalSpec<'_>,
        kind: u8,
        plan_hash: u64,
        trials: usize,
        decode: fn(&[u8]) -> Result<T, JournalError>,
    ) -> Result<(Journal, Vec<Option<T>>), JournalError> {
        let header = Header { kind, plan_hash, trials: trials as u32 };
        let resumed = if spec.resume { resume_file(spec.path, &header, decode)? } else { None };
        let (file, slots, good_bytes) = match resumed {
            Some(resumed) => resumed,
            None => {
                let mut file = File::create(spec.path)?;
                file.write_all(&header.encode())?;
                file.flush()?;
                (file, vec![None; trials], HEADER_LEN as u64)
            }
        };
        let journal = Journal {
            appender: Mutex::new(Appender::new(file, good_bytes, spec.fault)),
            abort_after: abort_after_trials_from_env()?,
        };
        Ok((journal, slots))
    }

    /// Appends trial `index`, whose record body `encode` writes,
    /// recording a journal-append span when `telemetry` is on.
    pub(crate) fn append(
        &self,
        index: u32,
        encode: impl FnOnce(&mut Vec<u8>),
        worker: u32,
        telemetry: Option<&Telemetry>,
    ) {
        let mut payload = Vec::with_capacity(256);
        put_u32(&mut payload, index);
        encode(&mut payload);
        let start = telemetry.map(|_| Instant::now());
        let mut appender = lock(&self.appender);
        let appended = appender.append(&payload);
        if appended && self.abort_after.is_some_and(|n| u64::from(appender.appended) >= n) {
            // Simulates a hard kill mid-campaign; the journal holds
            // everything appended so far.
            std::process::exit(3);
        }
        drop(appender);
        if let Some((t, start)) = telemetry.zip(start) {
            let mut rec = SpanRecord::new(SpanKind::JournalAppend, worker, start.elapsed());
            rec.journal_bytes = if appended { 8 + payload.len() as u64 } else { 0 };
            t.record(rec);
        }
    }

    /// Whether every append so far reached the file.
    pub(crate) fn status(&self) -> DurabilityStatus {
        lock(&self.appender).status()
    }
}

/// An open journal file, its completed slots, and its valid length.
type Opened<T> = (File, Vec<Option<T>>, u64);

/// Scans a journal to resume: validates it against `header` and cuts
/// the torn tail. `None` when there is nothing to resume (no file, or a
/// crash before the header was written).
fn resume_file<T: Clone>(
    path: &Path,
    header: &Header,
    decode: fn(&[u8]) -> Result<T, JournalError>,
) -> Result<Option<Opened<T>>, JournalError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) if bytes.is_empty() => return Ok(None),
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let scan = scan_bytes(&bytes, header.kind, decode)?;
    if scan.plan_hash != header.plan_hash {
        return Err(JournalError::PlanMismatch {
            expected: header.plan_hash,
            found: scan.plan_hash,
        });
    }
    if scan.trials != header.trials as usize {
        return Err(JournalError::TrialCountMismatch {
            expected: header.trials,
            found: scan.trials as u32,
        });
    }
    let mut file = OpenOptions::new().write(true).open(path)?;
    file.set_len(scan.good_bytes)?;
    file.seek(SeekFrom::End(0))?;
    Ok(Some((file, scan.completed, scan.good_bytes)))
}

/// The journal's write side: frames appends, tracks the last good byte
/// offset, optionally injects an [`AppendFaultPlan`], and degrades on
/// the first failure — truncating the file back to the last good frame
/// so nothing torn is left behind, then dropping every later append.
struct Appender {
    file: File,
    good_bytes: u64,
    appended: u32,
    fault: Option<AppendFaultPlan>,
    degraded: Option<String>,
}

impl Appender {
    fn new(file: File, good_bytes: u64, fault: Option<AppendFaultPlan>) -> Appender {
        Appender { file, good_bytes, appended: 0, fault, degraded: None }
    }

    /// One framed append (`len | payload | crc`, then flush, so a crash
    /// can tear at most the final frame). Returns `false` once the
    /// appender has degraded; the campaign carries on in memory.
    fn append(&mut self, payload: &[u8]) -> bool {
        if self.degraded.is_some() {
            return false;
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(payload);
        put_u32(&mut frame, crc32(payload));
        let injected = self.fault.filter(|f| self.appended == f.after_appends).map(|f| f.kind);
        match self.write_frame(&frame, injected) {
            Ok(()) => {
                self.appended += 1;
                self.good_bytes += frame.len() as u64;
                true
            }
            Err(e) => {
                // Degrade, not die: drop any partial frame so the
                // journal ends on the last good record, then stop
                // journaling for the rest of the run.
                let _ = self.file.set_len(self.good_bytes);
                let _ = self.file.seek(SeekFrom::End(0));
                self.degraded = Some(format!(
                    "journal append {} failed ({e}); continuing non-durable from record {}",
                    self.appended, self.appended,
                ));
                false
            }
        }
    }

    fn write_frame(&mut self, frame: &[u8], injected: Option<AppendFault>) -> std::io::Result<()> {
        match injected {
            Some(AppendFault::ShortWrite) => {
                // Half the frame reaches the disk before the failure —
                // exactly the torn tail a power loss leaves.
                self.file.write_all(&frame[..frame.len() / 2])?;
                self.file.flush()?;
                Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "injected short write"))
            }
            Some(AppendFault::DiskFull) => {
                Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "injected disk full"))
            }
            Some(AppendFault::FlushError) => {
                self.file.write_all(frame)?;
                Err(std::io::Error::other("injected flush error"))
            }
            None => {
                self.file.write_all(frame)?;
                self.file.flush()
            }
        }
    }

    fn status(&self) -> DurabilityStatus {
        DurabilityStatus {
            durable: self.degraded.is_none(),
            appended: self.appended,
            warning: self.degraded.clone(),
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------- runner

/// [`crate::run_campaign`] with a durable journal, on one worker:
/// [`crate::run`] with [`Sims::Build`] and a [`JournalSpec`] without an
/// injected fault. A degraded (non-durable) run's warning goes to
/// stderr; the report is byte-identical either way, and to the plain
/// runner's.
pub fn run_campaign_durable(
    make_sim: impl Fn() -> CoSim + Sync,
    plan: &[Injection],
    observe: impl Fn(&CoSim) -> Vec<u32> + Sync,
    config: CampaignConfig,
    journal: &Path,
    resume: bool,
) -> Result<CampaignReport, JournalError> {
    let journal = JournalSpec { path: journal, resume, fault: None };
    let exec = Exec { journal: Some(journal), ..Exec::default() };
    let (report, status) = run(Sims::Build(&make_sim), plan, &observe, &config, exec)?;
    if let Some(w) = &status.warning {
        eprintln!("warning: {w}");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Kind;

    /// One test owns every `ABORT_ENV` mutation (parallel tests in this
    /// binary never set it), covering unset, valid, zero, and garbage.
    #[test]
    fn abort_env_parsing_is_strict() {
        std::env::remove_var(ABORT_ENV);
        assert_eq!(abort_after_trials_from_env(), Ok(None));
        std::env::set_var(ABORT_ENV, " 37 ");
        assert_eq!(abort_after_trials_from_env(), Ok(Some(37)));
        for bad in ["0", "banana", "-3", "3.5", ""] {
            std::env::set_var(ABORT_ENV, bad);
            let err = abort_after_trials_from_env().expect_err(bad);
            assert_eq!(err.var, ABORT_ENV);
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains(ABORT_ENV) && msg.contains("positive integer"), "{msg}");
            assert!(JournalError::from(err).to_string().contains("invalid configuration"));
        }
        std::env::remove_var(ABORT_ENV);
    }

    fn sample_trials() -> Vec<Trial> {
        vec![
            Trial {
                injection: Injection {
                    cycle: 123,
                    kind: FaultKind::RegBitFlip { reg: 7, bit: 31 },
                },
                applied: true,
                stop: CoSimStop::Halted,
                outcome: Outcome::Masked,
                retries: 0,
                cpu_stats: CpuStats { cycles: 999, instructions: 500, ..Default::default() },
                hw_stats: HwStats { words_to_hw: 3, max_to_hw_occupancy: 9, ..Default::default() },
            },
            Trial {
                injection: Injection { cycle: 5, kind: FaultKind::StuckEmpty { channel: 2 } },
                applied: true,
                stop: CoSimStop::Deadlock {
                    cycle: 777,
                    cause: DeadlockCause::FslDeadlock {
                        block: FslBlock { channel: 2, dir: FifoDir::FromHw, pc: 0x40 },
                    },
                },
                outcome: Outcome::Deadlock,
                retries: 1,
                cpu_stats: CpuStats::default(),
                hw_stats: HwStats::default(),
            },
            Trial {
                injection: Injection { cycle: 9, kind: FaultKind::HarnessPanic },
                applied: false,
                stop: CoSimStop::CycleLimit { blocked: None },
                outcome: Outcome::HarnessError { panic_msg: "boom".into() },
                retries: 1,
                cpu_stats: CpuStats::default(),
                hw_stats: HwStats::default(),
            },
            Trial {
                injection: Injection {
                    cycle: 50,
                    kind: FaultKind::MemBitFlip { addr: 0x100, bit: 3 },
                },
                applied: true,
                stop: CoSimStop::Fault(Fault::Memory {
                    pc: 0x44,
                    err: MemError::OutOfRange { addr: 0xFFFF_0000, size: 65536 },
                }),
                outcome: Outcome::Fault,
                retries: 0,
                cpu_stats: CpuStats::default(),
                hw_stats: HwStats::default(),
            },
        ]
    }

    #[test]
    fn trial_codec_roundtrips() {
        for trial in sample_trials() {
            let mut buf = Vec::new();
            put_trial(&mut buf, &trial);
            let mut r = Rd { bytes: &buf, pos: 0 };
            let back = get_trial(&mut r).expect("roundtrip decodes");
            assert_eq!(r.pos, buf.len(), "decode consumes every byte");
            assert_eq!(back, trial);
        }
    }

    #[test]
    fn recovery_trial_codec_roundtrips() {
        let trial = RecoveryTrial {
            injection: Injection {
                cycle: 42,
                kind: FaultKind::FifoBitFlip { dir: FifoDir::ToHw, channel: 1, index: 0, bit: 32 },
            },
            applied: true,
            outcome: RecoveryOutcome::Recovered {
                detection_latency: 100,
                recovery_cycles: 2048,
                retries: 2,
            },
            stop: CoSimStop::Halted,
            detector: Some(DetectorKind::Signature),
            work_cycles: 10_000,
        };
        let mut buf = Vec::new();
        put_recovery_trial(&mut buf, &trial);
        let mut r = Rd { bytes: &buf, pos: 0 };
        let back = get_recovery_trial(&mut r).expect("roundtrip decodes");
        assert_eq!(r.pos, buf.len());
        assert_eq!(back, trial);
    }

    #[test]
    fn scan_recovers_valid_prefix_and_drops_torn_tail() {
        let header = Header { kind: KIND_CAMPAIGN, plan_hash: 0xDEAD_BEEF, trials: 4 };
        let mut bytes = header.encode();
        let trials = sample_trials();
        for (i, t) in trials.iter().enumerate() {
            let mut payload = Vec::new();
            put_u32(&mut payload, i as u32);
            put_trial(&mut payload, t);
            put_u32(&mut bytes, payload.len() as u32);
            bytes.extend_from_slice(&payload);
            put_u32(&mut bytes, crc32(&payload));
        }
        let full_len = bytes.len();
        // Tear the final record mid-frame.
        bytes.truncate(full_len - 5);
        let scan =
            scan_bytes(&bytes, KIND_CAMPAIGN, CampaignConfig::decode).expect("header intact");
        assert_eq!(scan.plan_hash, 0xDEAD_BEEF);
        assert_eq!(scan.done(), 3);
        assert_eq!(scan.pending(), 1);
        assert!(scan.completed[3].is_none(), "torn record re-runs");
        assert_eq!(scan.torn_bytes, bytes.len() as u64 - scan.good_bytes);
        assert_eq!(scan.completed[0].as_ref(), Some(&trials[0]));
    }

    #[test]
    fn scan_rejects_header_damage_with_typed_errors() {
        let header = Header { kind: KIND_CAMPAIGN, plan_hash: 1, trials: 2 };
        let good = header.encode();

        assert_eq!(
            scan_bytes(&good[..3], KIND_CAMPAIGN, CampaignConfig::decode),
            Err(JournalError::Truncated)
        );
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            scan_bytes(&bad, KIND_CAMPAIGN, CampaignConfig::decode),
            Err(JournalError::BadMagic)
        );
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(
            scan_bytes(&bad, KIND_CAMPAIGN, CampaignConfig::decode),
            Err(JournalError::VersionUnsupported(99))
        );
        let mut bad = good.clone();
        bad[10] ^= 0x01; // plan hash byte: header CRC no longer matches
        assert_eq!(
            scan_bytes(&bad, KIND_CAMPAIGN, CampaignConfig::decode),
            Err(JournalError::ChecksumMismatch)
        );
        assert_eq!(
            scan_bytes(&good, KIND_RECOVERY, CampaignConfig::decode),
            Err(JournalError::KindMismatch { expected: KIND_RECOVERY, found: KIND_CAMPAIGN })
        );
    }

    #[test]
    fn scan_stops_at_bit_flipped_record() {
        let header = Header { kind: KIND_CAMPAIGN, plan_hash: 7, trials: 4 };
        let mut bytes = header.encode();
        let trials = sample_trials();
        let mut record_starts = Vec::new();
        for (i, t) in trials.iter().enumerate() {
            record_starts.push(bytes.len());
            let mut payload = Vec::new();
            put_u32(&mut payload, i as u32);
            put_trial(&mut payload, t);
            put_u32(&mut bytes, payload.len() as u32);
            bytes.extend_from_slice(&payload);
            put_u32(&mut bytes, crc32(&payload));
        }
        // Flip a bit inside record 1's payload: records 0 stays, 1..
        // are dropped (append-only means nothing after a bad frame can
        // be trusted to be framed correctly).
        bytes[record_starts[1] + 6] ^= 0x10;
        let scan =
            scan_bytes(&bytes, KIND_CAMPAIGN, CampaignConfig::decode).expect("header intact");
        assert_eq!(scan.done(), 1);
        assert_eq!(scan.good_bytes, record_starts[1] as u64);
        assert_eq!(scan.completed[0].as_ref(), Some(&trials[0]));
    }
}
