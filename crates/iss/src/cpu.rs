//! The cycle-accurate MB32 processor model.
//!
//! This is the "cycle-accurate instruction simulator" component of the
//! paper's environment (Fig. 2): it simulates software execution on the
//! soft processor with per-cycle resolution so it can be composed, clock by
//! clock, with the hardware-peripheral simulation and the FSL bus models.
//!
//! # Timing model
//!
//! MicroBlaze's three-stage pipeline retires most instructions in one
//! cycle. The model charges, per instruction:
//!
//! * 1 cycle for ALU/logic/shift/`imm` instructions;
//! * 3 cycles for `mul`/`muli` (the paper calls this out explicitly);
//! * 2 cycles for loads/stores (LMB with its fixed one-cycle wait state);
//! * 1 cycle for a not-taken branch; a taken branch pays a 2-cycle
//!   pipeline flush, reduced to 1 cycle by a delay slot;
//! * 2 cycles for a completing FSL `get`/`put`, plus one stall cycle per
//!   clock the blocking variant waits on the `full`/`exists` flags.
//!
//! Architectural effects are applied on the first cycle of an instruction;
//! the instruction then occupies the pipeline for the remaining cycles.
//!
//! Delay-slot bookkeeping is only engaged when a delayed branch is
//! *taken*; a not-taken delayed branch simply falls through (the programs
//! this simulator runs never place control flow in a delay slot, which the
//! model rejects as a fault exactly when it would matter).

use crate::exec::Op;
use crate::fault::Fault;
use crate::stats::CpuStats;
use softsim_bus::{FslBank, LmbMemory, MemPatch};
use softsim_isa::{decode, encode, CpuConfig, Image, Inst, Reg};
use softsim_trace::{FifoDir, InstClass, SharedSink, StallCause, TraceEvent};
use std::collections::HashSet;

/// Default local-memory size (64 KiB, a typical MicroBlaze LMB setup).
pub const DEFAULT_MEM_BYTES: u32 = 64 * 1024;

/// Base address of the On-chip Peripheral Bus window: loads and stores
/// at or above this address are routed to the attached [`softsim_bus::OpbBus`].
pub const OPB_BASE: u32 = 0x8000_0000;

/// What happened during one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The processor is mid-instruction (multi-cycle op or FSL stall).
    Busy,
    /// An instruction retired this cycle.
    Retired {
        /// Address of the retired instruction.
        pc: u32,
        /// The retired instruction.
        inst: Inst,
    },
    /// The processor is halted (`halt` retired earlier, or a fault).
    Halted,
    /// Execution reached a breakpoint; the instruction at `pc` has not
    /// executed yet and will execute on the next `tick`.
    Breakpoint {
        /// The breakpoint address.
        pc: u32,
    },
    /// A simulation fault; the processor halts.
    Fault(Fault),
}

impl Event {
    /// True when this event means the processor has stopped executing —
    /// either it was already halted, or the instruction retiring this
    /// cycle is `halt`. The single halt predicate shared by
    /// [`Cpu::run`] and the co-simulator's run loop, so both stop on
    /// the same cycle.
    pub fn is_halt(&self) -> bool {
        matches!(self, Event::Halted | Event::Retired { inst: Inst::Halt, .. })
    }
}

/// Coarse classification of an instruction for profiling.
pub fn classify(inst: &Inst) -> InstClass {
    match inst {
        Inst::Add { .. }
        | Inst::AddI { .. }
        | Inst::Rsub { .. }
        | Inst::RsubI { .. }
        | Inst::Cmp { .. }
        | Inst::Sext { .. } => InstClass::Alu,
        Inst::Mul { .. } | Inst::MulI { .. } => InstClass::Mul,
        Inst::Div { .. } => InstClass::Div,
        Inst::Shift { .. } | Inst::Barrel { .. } | Inst::BarrelI { .. } => InstClass::Shift,
        Inst::Logic { .. } | Inst::LogicI { .. } => InstClass::Logic,
        Inst::Load { .. } | Inst::LoadI { .. } => InstClass::Load,
        Inst::Store { .. } | Inst::StoreI { .. } => InstClass::Store,
        Inst::Br { .. }
        | Inst::BrI { .. }
        | Inst::Bcc { .. }
        | Inst::BccI { .. }
        | Inst::Rtsd { .. } => InstClass::Branch,
        Inst::Imm { .. } => InstClass::Imm,
        Inst::Get { .. } => InstClass::FslGet,
        Inst::Put { .. } => InstClass::FslPut,
        Inst::Halt => InstClass::Halt,
    }
}

/// Why a multi-cycle [`Cpu::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `halt`.
    Halted,
    /// The cycle budget was exhausted.
    CycleLimit,
    /// A breakpoint was hit.
    Breakpoint(u32),
    /// A fault occurred.
    Fault(Fault),
}

/// Where the processor is blocked on a Fast Simplex Link: the channel,
/// the direction (read or write side) and the PC of the blocking
/// instruction. Surfaced by [`Cpu::fsl_block`] so cycle-budget expiry
/// and deadlock reports can say *what* the CPU was waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FslBlock {
    /// FSL channel number (0–7).
    pub channel: u8,
    /// `FromHw` for a blocked `get`, `ToHw` for a blocked `put`.
    pub dir: FifoDir,
    /// Address of the blocking instruction.
    pub pc: u32,
}

impl std::fmt::Display for FslBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.dir {
            FifoDir::FromHw => {
                write!(f, "blocking get on FSL channel {} at pc {:#010x}", self.channel, self.pc)
            }
            FifoDir::ToHw => {
                write!(f, "blocking put on FSL channel {} at pc {:#010x}", self.channel, self.pc)
            }
        }
    }
}

/// Error returned by [`Cpu::fast_forward_stall`] when the pipeline is
/// not blocked on an FSL transfer — the precondition the jump's cycle
/// accounting depends on. The call is a no-op in that case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotFslStalled;

impl std::fmt::Display for NotFslStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fast_forward_stall requires an FSL-stalled pipeline")
    }
}

impl std::error::Error for NotFslStalled {}

/// Micro-architectural state of the in-flight instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Pipe {
    /// Ready to fetch a new instruction on the next cycle.
    Ready,
    /// Instruction already executed; occupies the pipeline `remaining`
    /// more cycles before retiring.
    Busy { remaining: u32, pc: u32, inst: Inst },
    /// Blocked on a blocking FSL transfer; retried every cycle.
    FslStall { pc: u32, inst: Inst },
}

/// The in-flight instruction's attribution so far: what [`Cpu::in_flight`]
/// reports for runs stopped between retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Address of the in-flight instruction.
    pub pc: u32,
    /// Coarse classification.
    pub class: softsim_trace::InstClass,
    /// Cycles charged to it so far (issue + stalls + pipeline occupancy).
    pub cycles: u32,
    /// FSL read-stall cycles charged so far.
    pub read_stalls: u32,
    /// FSL write-stall cycles charged so far.
    pub write_stalls: u32,
}

/// Serializable pipeline occupancy inside a [`CpuSnapshot`]. In-flight
/// instructions are stored re-encoded as raw words so the snapshot is
/// plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeSnapshot {
    /// Ready to fetch.
    Ready,
    /// An executed instruction occupying the pipeline.
    Busy {
        /// Cycles left before retiring.
        remaining: u32,
        /// Address of the in-flight instruction.
        pc: u32,
        /// The instruction, re-encoded.
        word: u32,
    },
    /// Blocked on a blocking FSL transfer.
    FslStall {
        /// Address of the blocked instruction.
        pc: u32,
        /// The instruction, re-encoded.
        word: u32,
    },
}

/// A complete processor snapshot (see [`Cpu::save_state`]): everything
/// the simulation needs to resume deterministically, excluding debugger
/// and tracing attachments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSnapshot {
    /// General-purpose registers.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// MSR carry flag.
    pub carry: bool,
    /// Latched `imm` prefix.
    pub imm_latch: Option<u16>,
    /// Pending delayed-branch target.
    pub delay_target: Option<u32>,
    /// True while a delay slot executes.
    pub in_delay_slot: bool,
    /// Pending non-delayed taken-branch target.
    pub redirect: Option<u32>,
    /// Full local-memory image.
    pub mem: Vec<u8>,
    /// Extra bus-latency cycles charged to the in-flight instruction.
    pub extra_cycles: u32,
    /// Pipeline occupancy.
    pub pipe: PipeSnapshot,
    /// Halt flag.
    pub halted: bool,
    /// Accumulated statistics.
    pub stats: CpuStats,
    /// Breakpoint address being resumed from.
    pub bp_skip: Option<u32>,
}

/// The MB32 processor.
pub struct Cpu {
    pub(crate) regs: [u32; 32],
    pub(crate) pc: u32,
    pub(crate) carry: bool,
    /// Upper half latched by an `imm` prefix for the next instruction.
    pub(crate) imm_latch: Option<u16>,
    /// Branch target awaiting the end of a delay slot.
    pub(crate) delay_target: Option<u32>,
    /// True while the delay-slot instruction of a taken branch executes.
    pub(crate) in_delay_slot: bool,
    /// Taken-branch target for branches without a delay slot.
    pub(crate) redirect: Option<u32>,
    pub(crate) mem: LmbMemory,
    /// Optional On-chip Peripheral Bus with memory-mapped peripherals
    /// (addresses at/above [`OPB_BASE`] route here).
    pub(crate) opb: Option<softsim_bus::OpbBus>,
    /// Extra bus-latency cycles charged to the current instruction.
    pub(crate) extra_cycles: u32,
    /// Optional-unit configuration.
    pub(crate) config: CpuConfig,
    pub(crate) pipe: Pipe,
    pub(crate) halted: bool,
    pub(crate) stats: CpuStats,
    pub(crate) breakpoints: HashSet<u32>,
    /// Breakpoint address being resumed from (suppresses re-reporting).
    pub(crate) bp_skip: Option<u32>,
    /// Cycle-domain observability sink (None on the untraced fast path).
    pub(crate) sink: Option<SharedSink>,
    /// Issue cycle of the in-flight instruction (trace bookkeeping).
    pub(crate) inst_start: u64,
    /// FSL read-stall cycles charged to the in-flight instruction.
    pub(crate) inst_read_stalls: u32,
    /// FSL write-stall cycles charged to the in-flight instruction.
    pub(crate) inst_write_stalls: u32,
    /// Basic-block translation cache (see [`crate::translate`]).
    pub(crate) translator: crate::translate::Translator,
}

impl Cpu {
    /// Creates a processor with an explicit configuration.
    pub fn with_config(image: &Image, config: CpuConfig) -> Cpu {
        let mut cpu = Cpu::new(image, config.mem_bytes);
        cpu.config = config;
        cpu
    }

    /// The processor's optional-unit configuration.
    pub fn config(&self) -> CpuConfig {
        self.config
    }

    /// Creates a processor with `mem_bytes` of local memory and loads the
    /// program image.
    pub fn new(image: &Image, mem_bytes: u32) -> Cpu {
        Cpu {
            regs: [0; 32],
            pc: image.entry(),
            carry: false,
            imm_latch: None,
            delay_target: None,
            in_delay_slot: false,
            redirect: None,
            mem: LmbMemory::with_image(mem_bytes, image),
            opb: None,
            extra_cycles: 0,
            config: CpuConfig { mem_bytes, ..CpuConfig::default() },
            pipe: Pipe::Ready,
            halted: false,
            stats: CpuStats::default(),
            breakpoints: HashSet::new(),
            bp_skip: None,
            sink: None,
            inst_start: 0,
            inst_read_stalls: 0,
            inst_write_stalls: 0,
            translator: crate::translate::Translator::new(
                image.base()..image.base() + image.len_bytes(),
            ),
        }
    }

    /// Creates a processor with the default 64 KiB local memory.
    pub fn with_default_memory(image: &Image) -> Cpu {
        Cpu::new(image, DEFAULT_MEM_BYTES)
    }

    /// Reads a register (r0 always reads zero).
    pub fn reg(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to r0 are discarded). Architectural
    /// writebacks are reported to an attached trace sink as
    /// [`TraceEvent::RegWrite`], stamped with the current cycle — the
    /// divergence localizer keys on these to find the first corrupted
    /// writeback after a fault.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
            if self.sink.is_some() {
                self.emit(TraceEvent::RegWrite {
                    cycle: self.stats.cycles.saturating_sub(1),
                    reg: r.index() as u8,
                    value,
                });
            }
        }
    }

    /// The program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (used by the debugger interface).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// The MSR carry flag.
    pub fn carry(&self) -> bool {
        self.carry
    }

    /// True once the processor has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Local memory, for inspection.
    pub fn mem(&self) -> &LmbMemory {
        &self.mem
    }

    /// Mutable local memory (debugger writes). Flushes the translation
    /// cache: out-of-band writes may overwrite cached instructions.
    pub fn mem_mut(&mut self) -> &mut LmbMemory {
        self.translator.flush();
        &mut self.mem
    }

    /// Attaches an On-chip Peripheral Bus. Loads/stores at or above
    /// [`OPB_BASE`] become OPB transfers, paying the bus latency on top
    /// of the instruction's base cost; attached peripherals are ticked
    /// once per clock cycle.
    pub fn attach_opb(&mut self, bus: softsim_bus::OpbBus) {
        self.opb = Some(bus);
    }

    /// The attached OPB, if any.
    pub fn opb(&self) -> Option<&softsim_bus::OpbBus> {
        self.opb.as_ref()
    }

    /// Adds a breakpoint at an instruction address.
    pub fn add_breakpoint(&mut self, addr: u32) {
        self.breakpoints.insert(addr);
    }

    /// Removes a breakpoint; returns whether it existed.
    pub fn remove_breakpoint(&mut self, addr: u32) -> bool {
        self.breakpoints.remove(&addr)
    }

    /// Attaches a cycle-domain trace sink: retires (with per-instruction
    /// stall attribution) and FSL stall intervals are emitted as
    /// [`TraceEvent`]s. With no sink attached the hot path pays only a
    /// well-predicted `Option` branch — the overhead guard in
    /// `crates/bench` holds it to within 2%.
    pub fn attach_trace(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// Detaches the trace sink, restoring the untraced fast path (and
    /// the fast-forward eligibility that a sink suppresses).
    pub fn detach_trace(&mut self) {
        self.sink = None;
    }

    #[inline]
    fn emit(&self, e: TraceEvent) {
        if let Some(s) = &self.sink {
            s.borrow_mut().event(&e);
        }
    }

    /// Reports a completed LMB/OPB data transfer to the trace sink,
    /// stamped with the issue cycle of the memory instruction.
    pub(crate) fn emit_bus_transfer(
        &self,
        bus: softsim_trace::BusKind,
        write: bool,
        addr: u32,
        wait: u32,
    ) {
        self.emit(TraceEvent::BusTransfer {
            cycle: self.stats.cycles.saturating_sub(1),
            bus,
            write,
            addr,
            wait,
        });
    }

    /// The instruction currently occupying the pipeline, with the cycles
    /// and stalls it has accumulated so far, or `None` at an instruction
    /// boundary.
    ///
    /// Profilers attribute cycles from [`TraceEvent::Retire`] records; an
    /// instruction cut off by a cycle limit never retires, so this hook
    /// lets per-PC attribution reconcile *exactly* against
    /// [`CpuStats::cycles`] even for runs stopped mid-instruction.
    pub fn in_flight(&self) -> Option<InFlight> {
        match &self.pipe {
            Pipe::Ready => None,
            Pipe::Busy { pc, inst, .. } | Pipe::FslStall { pc, inst } => Some(InFlight {
                pc: *pc,
                class: classify(inst),
                cycles: self.inst_cycles(),
                read_stalls: self.inst_read_stalls,
                write_stalls: self.inst_write_stalls,
            }),
        }
    }

    /// Cycles charged to the in-flight instruction so far, saturating at
    /// `u32::MAX`. The subtraction is checked: `inst_start` is reset by
    /// `load_state` to the snapshot cycle, so a stale wrap can never
    /// produce an underflow panic, and a >4G-cycle stall (possible via
    /// fast-forwarded FSL stalls) clamps instead of truncating.
    fn inst_cycles(&self) -> u32 {
        u32::try_from(self.stats.cycles.saturating_sub(self.inst_start)).unwrap_or(u32::MAX)
    }

    /// When the processor is stalled on a blocking FSL transfer, the
    /// channel, direction and PC it is blocked on; `None` otherwise.
    pub fn fsl_block(&self) -> Option<FslBlock> {
        match &self.pipe {
            Pipe::FslStall { pc, inst } => match inst {
                Inst::Get { chan, .. } => {
                    Some(FslBlock { channel: chan.index() as u8, dir: FifoDir::FromHw, pc: *pc })
                }
                Inst::Put { chan, .. } => {
                    Some(FslBlock { channel: chan.index() as u8, dir: FifoDir::ToHw, pc: *pc })
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Advances a processor that is blocked on an FSL transfer by `n`
    /// cycles in one jump, charging exactly what `n` failing retries of
    /// [`Cpu::tick`] would: the cycle counter, the blocked direction's
    /// stall counter and the per-instruction stall attribution (which
    /// saturates — it only feeds the retire trace record, and the
    /// fast-forward path runs untraced). The pipeline stays in the
    /// stall state; the caller guarantees the blocking FIFO condition
    /// cannot clear during the jump.
    ///
    /// # Errors
    /// Returns [`NotFslStalled`] — touching no counters — when the
    /// pipeline is not in an FSL stall: silently accepting such a call
    /// would corrupt the cycle/stall accounting in release builds.
    pub fn fast_forward_stall(&mut self, n: u64) -> Result<(), NotFslStalled> {
        let Pipe::FslStall { inst, .. } = &self.pipe else {
            return Err(NotFslStalled);
        };
        self.stats.cycles += n;
        let clamped = u32::try_from(n).unwrap_or(u32::MAX);
        match inst {
            Inst::Get { .. } => {
                self.stats.fsl_read_stalls += n;
                self.inst_read_stalls = self.inst_read_stalls.saturating_add(clamped);
            }
            _ => {
                self.stats.fsl_write_stalls += n;
                self.inst_write_stalls = self.inst_write_stalls.saturating_add(clamped);
            }
        }
        Ok(())
    }

    /// Captures the processor's complete architectural and
    /// micro-architectural state (registers, PC, flags, prefix/branch
    /// latches, local memory, pipeline occupancy, halt flag and
    /// statistics). Breakpoints and trace attachments are debugger/
    /// observer state and are *not* captured; the in-flight instruction
    /// is stored re-encoded so the snapshot is plain data.
    ///
    /// # Panics
    /// Panics if an OPB bus is attached — memory-mapped peripherals hold
    /// arbitrary device state outside the snapshot domain.
    pub fn save_state(&self) -> CpuSnapshot {
        self.snapshot(self.mem.bytes().to_vec())
    }

    /// [`Cpu::save_state`] with local memory stored as the patch that
    /// turns `base` (another snapshot's `mem`) into it: the returned
    /// snapshot's `mem` is empty, so capturing copies only the chunks
    /// the run has changed. Restore with [`Cpu::load_state_patched`].
    ///
    /// # Panics
    /// As [`Cpu::save_state`], and on a memory-size mismatch.
    pub fn save_state_delta(&self, base: &[u8]) -> (CpuSnapshot, MemPatch) {
        (self.snapshot(Vec::new()), self.mem.diff(base))
    }

    /// A snapshot of everything but local memory, carrying `mem`.
    fn snapshot(&self, mem: Vec<u8>) -> CpuSnapshot {
        assert!(self.opb.is_none(), "Cpu::save_state does not cover attached OPB peripherals");
        let pipe = match &self.pipe {
            Pipe::Ready => PipeSnapshot::Ready,
            Pipe::Busy { remaining, pc, inst } => {
                PipeSnapshot::Busy { remaining: *remaining, pc: *pc, word: encode(inst) }
            }
            Pipe::FslStall { pc, inst } => PipeSnapshot::FslStall { pc: *pc, word: encode(inst) },
        };
        CpuSnapshot {
            regs: self.regs,
            pc: self.pc,
            carry: self.carry,
            imm_latch: self.imm_latch,
            delay_target: self.delay_target,
            in_delay_slot: self.in_delay_slot,
            redirect: self.redirect,
            mem,
            extra_cycles: self.extra_cycles,
            pipe,
            halted: self.halted,
            stats: self.stats,
            bp_skip: self.bp_skip,
        }
    }

    /// Restores a snapshot taken by [`Cpu::save_state`] on a processor
    /// with the same memory size. Breakpoints and trace attachments keep
    /// their current values.
    ///
    /// # Panics
    /// Panics on a memory-size mismatch or a corrupted in-flight
    /// instruction word.
    pub fn load_state(&mut self, s: &CpuSnapshot) {
        self.load_state_patched(s, &s.mem, &MemPatch::default());
    }

    /// Restores a snapshot whose local memory is `base` overlaid by
    /// `patch` — the pair [`Cpu::save_state_delta`] takes apart (`s.mem`
    /// is ignored). [`Cpu::load_state`] is this with `s.mem` and no
    /// patch.
    ///
    /// # Panics
    /// As [`Cpu::load_state`].
    pub fn load_state_patched(&mut self, s: &CpuSnapshot, base: &[u8], patch: &MemPatch) {
        let decode_pipe = |word: u32| {
            decode(word).unwrap_or_else(|e| panic!("snapshot pipeline word undecodable: {e}"))
        };
        self.pipe = match s.pipe {
            PipeSnapshot::Ready => Pipe::Ready,
            PipeSnapshot::Busy { remaining, pc, word } => {
                Pipe::Busy { remaining, pc, inst: decode_pipe(word) }
            }
            PipeSnapshot::FslStall { pc, word } => Pipe::FslStall { pc, inst: decode_pipe(word) },
        };
        self.regs = s.regs;
        self.pc = s.pc;
        self.carry = s.carry;
        self.imm_latch = s.imm_latch;
        self.delay_target = s.delay_target;
        self.in_delay_slot = s.in_delay_slot;
        self.redirect = s.redirect;
        // Cached blocks stay valid exactly when the bytes they were
        // decoded from come back unchanged; checked before the load
        // overwrites them.
        let keep_cache = self.mem.load_keeps(base, patch, self.translator.code_range());
        self.mem.load_patched(base, patch);
        self.extra_cycles = s.extra_cycles;
        self.halted = s.halted;
        self.stats = s.stats;
        self.bp_skip = s.bp_skip;
        // Per-instruction trace bookkeeping restarts cleanly: attribution
        // within the in-flight instruction is observer state.
        self.inst_start = s.stats.cycles;
        self.inst_read_stalls = 0;
        self.inst_write_stalls = 0;
        // The snapshot changed cached code: every cached block may now
        // describe stale instructions.
        if !keep_cache {
            self.translator.flush();
        }
    }

    /// Advances the processor by exactly one clock cycle.
    ///
    /// `fsl` carries the Fast Simplex Link channels shared with the
    /// hardware side of the co-simulation. The cycle is counted even when
    /// the processor only stalls.
    pub fn tick(&mut self, fsl: &mut FslBank) -> Event {
        if self.halted {
            return Event::Halted;
        }
        let pc = self.pc;
        if matches!(self.pipe, Pipe::Ready)
            && self.breakpoints.contains(&pc)
            && self.bp_skip != Some(pc)
            && !self.in_delay_slot
        {
            // Report without consuming a cycle (nor ticking the OPB's
            // peripherals); the next tick at this PC proceeds past the
            // breakpoint.
            self.bp_skip = Some(pc);
            return Event::Breakpoint { pc };
        }
        if let Some(opb) = &mut self.opb {
            opb.tick();
        }
        // Stamp the cycle domain into the FSL trace state so FIFO events
        // emitted this cycle (by us or by the hardware side) carry it.
        fsl.set_trace_cycle(self.stats.cycles);
        match std::mem::replace(&mut self.pipe, Pipe::Ready) {
            Pipe::Busy { remaining, pc, inst } => {
                self.stats.cycles += 1;
                if remaining > 1 {
                    self.pipe = Pipe::Busy { remaining: remaining - 1, pc, inst };
                    Event::Busy
                } else {
                    self.retire(pc, inst)
                }
            }
            Pipe::FslStall { pc, inst } => {
                self.stats.cycles += 1;
                match self.exec_fsl(&inst, fsl) {
                    Ok(()) => {
                        if self.sink.is_some() {
                            let (cause, stalled) = match inst {
                                Inst::Get { .. } => (StallCause::FslRead, self.inst_read_stalls),
                                _ => (StallCause::FslWrite, self.inst_write_stalls),
                            };
                            self.emit(TraceEvent::StallEnd {
                                cycle: self.stats.cycles - 1,
                                pc,
                                cause,
                                cycles: stalled as u64,
                            });
                        }
                        // One more cycle of pipeline occupancy after the
                        // transfer completes (total base cost of 2 cycles).
                        self.pipe = Pipe::Busy { remaining: 1, pc, inst };
                        Event::Busy
                    }
                    Err(()) => {
                        match inst {
                            Inst::Get { .. } => {
                                self.stats.fsl_read_stalls += 1;
                                self.inst_read_stalls += 1;
                            }
                            _ => {
                                self.stats.fsl_write_stalls += 1;
                                self.inst_write_stalls += 1;
                            }
                        }
                        self.pipe = Pipe::FslStall { pc, inst };
                        Event::Busy
                    }
                }
            }
            Pipe::Ready => self.issue(fsl),
        }
    }

    /// Fetches, decodes and begins the instruction at the current PC.
    fn issue(&mut self, fsl: &mut FslBank) -> Event {
        let pc = self.pc;
        self.bp_skip = None;
        self.inst_start = self.stats.cycles;
        self.inst_read_stalls = 0;
        self.inst_write_stalls = 0;
        self.stats.cycles += 1;
        let word = match self.mem.read_u32(pc) {
            Ok(w) => w,
            Err(err) => return self.fault(Fault::Memory { pc, err }),
        };
        let inst = match decode(word) {
            Ok(i) => i,
            Err(err) => return self.fault(Fault::Decode { pc, err }),
        };
        if self.in_delay_slot && (inst.is_branch() || inst.is_imm_prefix() || inst == Inst::Halt) {
            return self.fault(Fault::IllegalDelaySlot { pc });
        }
        // Resolve, consuming the `imm` prefix (it applies exactly to this
        // instruction); execute architecturally now; occupy the pipeline
        // for the rest.
        let op = Op::resolve(&inst, pc, self.imm_latch.take(), &self.config);
        self.extra_cycles = 0;
        let cycles = match self.exec_op(pc, &op, fsl) {
            Ok(ExecOutcome::Normal) => inst.base_cycles() + self.extra_cycles,
            Ok(ExecOutcome::Taken) => {
                self.stats.taken_branches += 1;
                inst.base_cycles() + inst.taken_penalty()
            }
            Ok(ExecOutcome::FslBlocked) => {
                let cause = match inst {
                    Inst::Get { .. } => {
                        self.stats.fsl_read_stalls += 1;
                        self.inst_read_stalls += 1;
                        StallCause::FslRead
                    }
                    _ => {
                        self.stats.fsl_write_stalls += 1;
                        self.inst_write_stalls += 1;
                        StallCause::FslWrite
                    }
                };
                if self.sink.is_some() {
                    self.emit(TraceEvent::StallBegin { cycle: self.inst_start, pc, cause });
                }
                self.pipe = Pipe::FslStall { pc, inst };
                return Event::Busy;
            }
            Err(f) => return self.fault(f),
        };
        if cycles > 1 {
            self.pipe = Pipe::Busy { remaining: cycles - 1, pc, inst };
            Event::Busy
        } else {
            self.retire(pc, inst)
        }
    }

    /// Completes an instruction: emits its `Retire` event and determines
    /// the next PC (fall-through, redirect, or delay-slot sequencing).
    fn retire(&mut self, pc: u32, inst: Inst) -> Event {
        self.stats.instructions += 1;
        if self.sink.is_some() {
            self.emit(TraceEvent::Retire {
                cycle: self.inst_start,
                pc,
                word: softsim_isa::encode(&inst),
                class: classify(&inst),
                cycles: self.inst_cycles(),
                read_stalls: self.inst_read_stalls,
                write_stalls: self.inst_write_stalls,
            });
        }
        if self.in_delay_slot {
            // This was the delay-slot instruction: the branch completes.
            self.in_delay_slot = false;
            self.pc = self.delay_target.take().expect("delay slot without target");
        } else if self.delay_target.is_some() && inst.has_delay_slot() {
            // Taken delayed branch: fall into the delay slot first.
            self.in_delay_slot = true;
            self.pc = pc.wrapping_add(4);
        } else if let Some(target) = self.redirect.take() {
            self.pc = target;
        } else {
            self.pc = pc.wrapping_add(4);
        }
        if inst == Inst::Halt {
            self.halted = true;
        }
        Event::Retired { pc, inst }
    }

    fn fault(&mut self, fault: Fault) -> Event {
        self.halted = true;
        Event::Fault(fault)
    }

    /// Runs until halt, fault, breakpoint or `max_cycles` further cycles.
    ///
    /// With translation enabled (see [`Cpu::set_translation`]) hot
    /// straight-line stretches execute through the basic-block cache;
    /// every boundary, stall and observability condition falls back to
    /// the single-step interpreter, so the stop reason, statistics and
    /// architectural state are bit-identical either way.
    pub fn run(&mut self, fsl: &mut FslBank, max_cycles: u64) -> StopReason {
        let limit = self.stats.cycles + max_cycles;
        while self.stats.cycles < limit {
            if self.translator.enabled {
                // Nothing else uses the FSL bank, so a transfer needs no sync.
                match self.run_translated_block(fsl, limit - self.stats.cycles, &mut |_, _| {}) {
                    crate::translate::TranslatedRun::Ran { .. } => {
                        if self.halted {
                            return StopReason::Halted;
                        }
                        continue;
                    }
                    crate::translate::TranslatedRun::Faulted { fault, .. } => {
                        return StopReason::Fault(fault);
                    }
                    crate::translate::TranslatedRun::NotRun => {}
                }
            }
            match self.tick(fsl) {
                e if e.is_halt() => return StopReason::Halted,
                Event::Fault(f) => return StopReason::Fault(f),
                Event::Breakpoint { pc } => return StopReason::Breakpoint(pc),
                _ => {}
            }
        }
        StopReason::CycleLimit
    }
}

/// Result of architecturally executing an instruction.
pub(crate) enum ExecOutcome {
    /// Straight-line instruction.
    Normal,
    /// A branch that was taken (pays the flush penalty).
    Taken,
    /// A blocking FSL access that could not complete this cycle.
    FslBlocked,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &format_args!("{:#010x}", self.pc))
            .field("halted", &self.halted)
            .field("cycles", &self.stats.cycles)
            .field("instructions", &self.stats.instructions)
            .field("opb", &self.opb.is_some())
            .finish_non_exhaustive()
    }
}
