//! Architectural execution semantics for MB32 instructions.
//!
//! An instruction executes in two stages. [`Op::resolve`] reads a
//! decoded [`Inst`] once: it keeps the register indices, extends the
//! immediate (folding in a preceding `imm` prefix), computes the target
//! of a PC-relative immediate branch and decides the optional-unit gate.
//! `Cpu::exec_op` then applies the op's architectural effect. The
//! interpreter resolves each instruction right after decoding it; a
//! translated block resolves its instructions once, when it is
//! translated. Both run the same executor, so the ISA has one copy of
//! its semantics. Cycle accounting lives in `cpu.rs` and `translate.rs`;
//! this module is purely about *what* each instruction does, mirroring
//! the MicroBlaze reference semantics for the implemented subset.

use crate::cpu::{Cpu, ExecOutcome};
use crate::fault::Fault;
use softsim_bus::{FslBank, FslWord};
use softsim_isa::{ArithFlags, BarrelOp, Cond, CpuConfig, Inst, LogicOp, MemSize, Reg, ShiftOp};
use softsim_trace::BusKind;

/// An optional processor unit (MicroBlaze configurations without the
/// unit have no such instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    Multiplier,
    Divider,
    BarrelShifter,
}

impl Unit {
    /// The unit's name, as [`Fault::DisabledInstruction`] reports it.
    fn name(self) -> &'static str {
        match self {
            Unit::Multiplier => "multiplier",
            Unit::Divider => "divider",
            Unit::BarrelShifter => "barrel shifter",
        }
    }
}

/// A resolved instruction: what [`Inst`] says, with every operand that
/// does not depend on run-time state computed. Variants and fields
/// mirror [`Inst`]'s; every `imm` is already extended to 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `add` family.
    Add { rd: Reg, ra: Reg, rb: Reg, flags: ArithFlags },
    /// `addi` family.
    AddI { rd: Reg, ra: Reg, imm: u32, flags: ArithFlags },
    /// `rsub` family.
    Rsub { rd: Reg, ra: Reg, rb: Reg, flags: ArithFlags },
    /// `rsubi` family.
    RsubI { rd: Reg, ra: Reg, imm: u32, flags: ArithFlags },
    /// `cmp`/`cmpu`.
    Cmp { rd: Reg, ra: Reg, rb: Reg, unsigned: bool },
    /// `mul`.
    Mul { rd: Reg, ra: Reg, rb: Reg },
    /// `muli`.
    MulI { rd: Reg, ra: Reg, imm: u32 },
    /// `idiv`/`idivu`.
    Div { rd: Reg, ra: Reg, rb: Reg, unsigned: bool },
    /// `or`/`and`/`xor`/`andn`.
    Logic { op: LogicOp, rd: Reg, ra: Reg, rb: Reg },
    /// The immediate logic forms.
    LogicI { op: LogicOp, rd: Reg, ra: Reg, imm: u32 },
    /// `sra`/`src`/`srl`.
    Shift { op: ShiftOp, rd: Reg, ra: Reg },
    /// `sext8`/`sext16`.
    Sext { rd: Reg, ra: Reg, half: bool },
    /// Barrel shift by a register.
    Barrel { op: BarrelOp, rd: Reg, ra: Reg, rb: Reg },
    /// Barrel shift by a constant, already masked to five bits.
    BarrelI { op: BarrelOp, rd: Reg, ra: Reg, amount: u32 },
    /// Load from `ra + rb`.
    Load { size: MemSize, rd: Reg, ra: Reg, rb: Reg },
    /// Load from `ra + imm`.
    LoadI { size: MemSize, rd: Reg, ra: Reg, imm: u32 },
    /// Store `rd` to `ra + rb`.
    Store { size: MemSize, rd: Reg, ra: Reg, rb: Reg },
    /// Store `rd` to `ra + imm`.
    StoreI { size: MemSize, rd: Reg, ra: Reg, imm: u32 },
    /// Unconditional branch to a register target.
    Br { rb: Reg, link: Option<Reg>, absolute: bool, delay: bool },
    /// Unconditional immediate branch, its target computed.
    Jump { target: u32, link: Option<Reg>, delay: bool },
    /// Conditional branch to `pc + rb`.
    Bcc { cond: Cond, ra: Reg, rb: Reg, delay: bool },
    /// Conditional immediate branch, its target computed.
    BccI { cond: Cond, ra: Reg, target: u32, delay: bool },
    /// `rtsd`.
    Rtsd { ra: Reg, imm: u32 },
    /// The `imm` prefix.
    Imm { imm: u16 },
    /// A `get`/`put`, executed by `Cpu::exec_fsl`.
    Fsl(Inst),
    /// `halt`.
    Halt,
    /// An instruction whose optional unit this configuration omits: it
    /// faults.
    Disabled { unit: Unit },
}

impl Op {
    /// Resolves `inst`, fetched from `pc`, for a processor configured as
    /// `config`. `latch` is the upper half an `imm` prefix latched for
    /// this instruction.
    pub(crate) fn resolve(inst: &Inst, pc: u32, latch: Option<u16>, config: &CpuConfig) -> Op {
        let ext = |imm: i16| match latch {
            Some(hi) => ((hi as u32) << 16) | (imm as u16 as u32),
            None => imm as i32 as u32,
        };
        match *inst {
            Inst::Mul { .. } | Inst::MulI { .. } if !config.multiplier => {
                Op::Disabled { unit: Unit::Multiplier }
            }
            Inst::Div { .. } if !config.divider => Op::Disabled { unit: Unit::Divider },
            Inst::Barrel { .. } | Inst::BarrelI { .. } if !config.barrel_shifter => {
                Op::Disabled { unit: Unit::BarrelShifter }
            }
            Inst::Add { rd, ra, rb, flags } => Op::Add { rd, ra, rb, flags },
            Inst::AddI { rd, ra, imm, flags } => Op::AddI { rd, ra, imm: ext(imm), flags },
            Inst::Rsub { rd, ra, rb, flags } => Op::Rsub { rd, ra, rb, flags },
            Inst::RsubI { rd, ra, imm, flags } => Op::RsubI { rd, ra, imm: ext(imm), flags },
            Inst::Cmp { rd, ra, rb, unsigned } => Op::Cmp { rd, ra, rb, unsigned },
            Inst::Mul { rd, ra, rb } => Op::Mul { rd, ra, rb },
            Inst::MulI { rd, ra, imm } => Op::MulI { rd, ra, imm: ext(imm) },
            Inst::Div { rd, ra, rb, unsigned } => Op::Div { rd, ra, rb, unsigned },
            Inst::Logic { op, rd, ra, rb } => Op::Logic { op, rd, ra, rb },
            Inst::LogicI { op, rd, ra, imm } => Op::LogicI { op, rd, ra, imm: ext(imm) },
            Inst::Shift { op, rd, ra } => Op::Shift { op, rd, ra },
            Inst::Sext { rd, ra, half } => Op::Sext { rd, ra, half },
            Inst::Barrel { op, rd, ra, rb } => Op::Barrel { op, rd, ra, rb },
            Inst::BarrelI { op, rd, ra, amount } => {
                Op::BarrelI { op, rd, ra, amount: amount as u32 & 0x1F }
            }
            Inst::Load { size, rd, ra, rb } => Op::Load { size, rd, ra, rb },
            Inst::LoadI { size, rd, ra, imm } => Op::LoadI { size, rd, ra, imm: ext(imm) },
            Inst::Store { size, rd, ra, rb } => Op::Store { size, rd, ra, rb },
            Inst::StoreI { size, rd, ra, imm } => Op::StoreI { size, rd, ra, imm: ext(imm) },
            Inst::Br { rb, link, absolute, delay } => Op::Br { rb, link, absolute, delay },
            Inst::BrI { imm, link, absolute, delay } => {
                let off = ext(imm);
                let target = if absolute { off } else { pc.wrapping_add(off) };
                Op::Jump { target, link, delay }
            }
            Inst::Bcc { cond, ra, rb, delay } => Op::Bcc { cond, ra, rb, delay },
            Inst::BccI { cond, ra, imm, delay } => {
                Op::BccI { cond, ra, target: pc.wrapping_add(ext(imm)), delay }
            }
            Inst::Rtsd { ra, imm } => Op::Rtsd { ra, imm: ext(imm) },
            Inst::Imm { imm } => Op::Imm { imm },
            Inst::Get { .. } | Inst::Put { .. } => Op::Fsl(*inst),
            Inst::Halt => Op::Halt,
        }
    }
}

impl Cpu {
    /// Adds with carry handling shared by the `add` family.
    fn add_with_flags(&mut self, rd: Reg, a: u32, b: u32, flags: ArithFlags) {
        let cin = if flags.carry_in { self.carry as u64 } else { 0 };
        let wide = a as u64 + b as u64 + cin;
        if !flags.keep {
            self.carry = wide > u32::MAX as u64;
        }
        self.set_reg(rd, wide as u32);
    }

    /// MicroBlaze reverse subtract: rd = b + !a + 1 (or + carry).
    fn rsub_with_flags(&mut self, rd: Reg, a: u32, b: u32, flags: ArithFlags) {
        let cin = if flags.carry_in { self.carry as u64 } else { 1 };
        let wide = b as u64 + (!a) as u64 + cin;
        if !flags.keep {
            self.carry = wide > u32::MAX as u64;
        }
        self.set_reg(rd, wide as u32);
    }

    /// Executes one resolved instruction fetched from `pc`. Returns how
    /// control flow proceeds. Inlined into both of its callers, the
    /// interpreter's issue and the block loop.
    #[inline(always)]
    pub(crate) fn exec_op(
        &mut self,
        pc: u32,
        op: &Op,
        fsl: &mut FslBank,
    ) -> Result<ExecOutcome, Fault> {
        match *op {
            Op::Add { rd, ra, rb, flags } => {
                self.add_with_flags(rd, self.reg(ra), self.reg(rb), flags);
            }
            Op::AddI { rd, ra, imm, flags } => self.add_with_flags(rd, self.reg(ra), imm, flags),
            Op::Rsub { rd, ra, rb, flags } => {
                self.rsub_with_flags(rd, self.reg(ra), self.reg(rb), flags);
            }
            Op::RsubI { rd, ra, imm, flags } => self.rsub_with_flags(rd, self.reg(ra), imm, flags),
            Op::Cmp { rd, ra, rb, unsigned } => {
                let (a, b) = (self.reg(ra), self.reg(rb));
                let diff = b.wrapping_sub(a);
                let a_gt_b = if unsigned { a > b } else { (a as i32) > (b as i32) };
                self.set_reg(rd, (diff & 0x7FFF_FFFF) | ((a_gt_b as u32) << 31));
            }
            Op::Mul { rd, ra, rb } => {
                self.stats.multiplies += 1;
                self.set_reg(rd, self.reg(ra).wrapping_mul(self.reg(rb)));
            }
            Op::MulI { rd, ra, imm } => {
                self.stats.multiplies += 1;
                self.set_reg(rd, self.reg(ra).wrapping_mul(imm));
            }
            // MicroBlaze reverse divide: rd = rb / ra; division by zero
            // yields zero (the DZO case), INT_MIN / -1 wraps.
            Op::Div { rd, ra, rb, unsigned } => {
                let (den, num) = (self.reg(ra), self.reg(rb));
                let q = if den == 0 {
                    0
                } else if unsigned {
                    num / den
                } else {
                    (num as i32).wrapping_div(den as i32) as u32
                };
                self.set_reg(rd, q);
            }
            Op::Logic { op, rd, ra, rb } => self.set_reg(rd, logic(op, self.reg(ra), self.reg(rb))),
            Op::LogicI { op, rd, ra, imm } => self.set_reg(rd, logic(op, self.reg(ra), imm)),
            Op::Shift { op, rd, ra } => {
                let a = self.reg(ra);
                let carry_out = a & 1 != 0;
                let out = match op {
                    ShiftOp::Sra => ((a as i32) >> 1) as u32,
                    ShiftOp::Src => (a >> 1) | ((self.carry as u32) << 31),
                    ShiftOp::Srl => a >> 1,
                };
                self.carry = carry_out;
                self.set_reg(rd, out);
            }
            Op::Sext { rd, ra, half } => {
                let a = self.reg(ra);
                let out =
                    if half { a as u16 as i16 as i32 as u32 } else { a as u8 as i8 as i32 as u32 };
                self.set_reg(rd, out);
            }
            Op::Barrel { op, rd, ra, rb } => {
                self.set_reg(rd, barrel(op, self.reg(ra), self.reg(rb) & 0x1F));
            }
            Op::BarrelI { op, rd, ra, amount } => {
                self.set_reg(rd, barrel(op, self.reg(ra), amount))
            }
            Op::Load { size, rd, ra, rb } => {
                let v = self.load(pc, size, self.reg(ra).wrapping_add(self.reg(rb)))?;
                self.set_reg(rd, v);
            }
            Op::LoadI { size, rd, ra, imm } => {
                let v = self.load(pc, size, self.reg(ra).wrapping_add(imm))?;
                self.set_reg(rd, v);
            }
            Op::Store { size, rd, ra, rb } => {
                self.store(pc, size, self.reg(ra).wrapping_add(self.reg(rb)), self.reg(rd))?;
            }
            Op::StoreI { size, rd, ra, imm } => {
                self.store(pc, size, self.reg(ra).wrapping_add(imm), self.reg(rd))?;
            }
            Op::Br { rb, link, absolute, delay } => {
                let target = if absolute { self.reg(rb) } else { pc.wrapping_add(self.reg(rb)) };
                return Ok(self.take_branch(pc, target, link, delay));
            }
            Op::Jump { target, link, delay } => {
                return Ok(self.take_branch(pc, target, link, delay))
            }
            Op::Bcc { cond, ra, rb, delay } => {
                if cond.holds(self.reg(ra)) {
                    let target = pc.wrapping_add(self.reg(rb));
                    return Ok(self.take_branch(pc, target, None, delay));
                }
            }
            Op::BccI { cond, ra, target, delay } => {
                if cond.holds(self.reg(ra)) {
                    return Ok(self.take_branch(pc, target, None, delay));
                }
            }
            Op::Rtsd { ra, imm } => {
                let target = self.reg(ra).wrapping_add(imm);
                return Ok(self.take_branch(pc, target, None, true));
            }
            Op::Imm { imm } => self.imm_latch = Some(imm),
            Op::Fsl(inst) => {
                return Ok(match self.exec_fsl(&inst, fsl) {
                    Ok(()) => ExecOutcome::Normal,
                    Err(()) => ExecOutcome::FslBlocked,
                });
            }
            Op::Halt => {}
            Op::Disabled { unit } => {
                return Err(Fault::DisabledInstruction { pc, unit: unit.name() });
            }
        }
        Ok(ExecOutcome::Normal)
    }

    fn take_branch(&mut self, pc: u32, target: u32, link: Option<Reg>, delay: bool) -> ExecOutcome {
        if let Some(rd) = link {
            // MicroBlaze stores the address of the branch itself; returns
            // use `rtsd rd, 8` to skip the branch and its delay slot.
            self.set_reg(rd, pc);
        }
        if delay {
            self.delay_target = Some(target);
        } else {
            self.redirect = Some(target);
        }
        ExecOutcome::Taken
    }

    fn load(&mut self, pc: u32, size: MemSize, ea: u32) -> Result<u32, Fault> {
        self.stats.mem_reads += 1;
        if ea >= crate::cpu::OPB_BASE {
            return self.opb_load(pc, size, ea);
        }
        let r = match size {
            MemSize::Byte => self.mem.read_u8(ea).map(u32::from),
            MemSize::Half => self.mem.read_u16(ea).map(u32::from),
            MemSize::Word => self.mem.read_u32(ea),
        };
        if r.is_ok() {
            self.emit_bus_transfer(BusKind::Lmb, false, ea, 0);
        }
        r.map_err(|err| Fault::Memory { pc, err })
    }

    fn store(&mut self, pc: u32, size: MemSize, ea: u32, value: u32) -> Result<(), Fault> {
        self.stats.mem_writes += 1;
        if ea >= crate::cpu::OPB_BASE {
            return self.opb_store(pc, size, ea, value);
        }
        let r = match size {
            MemSize::Byte => self.mem.write_u8(ea, value as u8),
            MemSize::Half => self.mem.write_u16(ea, value as u16),
            MemSize::Word => self.mem.write_u32(ea, value),
        };
        if r.is_ok() {
            self.emit_bus_transfer(BusKind::Lmb, true, ea, 0);
            // Self-modifying code: drop any translated block covering the
            // stored-to range so the next dispatch re-decodes it.
            self.translator.note_store(ea);
        }
        r.map_err(|err| Fault::Memory { pc, err })
    }

    /// OPB word read: routed over the peripheral bus, paying its transfer
    /// latency on top of the load's base cycles.
    fn opb_load(&mut self, pc: u32, size: MemSize, ea: u32) -> Result<u32, Fault> {
        let fault = |err| Fault::Memory { pc, err };
        if size != MemSize::Word {
            return Err(fault(softsim_bus::MemError::Misaligned { addr: ea, align: 4 }));
        }
        let bus = self
            .opb
            .as_mut()
            .ok_or(fault(softsim_bus::MemError::OutOfRange { addr: ea, size: 0 }))?;
        match bus.read(ea) {
            Ok((v, cycles)) => {
                self.extra_cycles += cycles;
                self.emit_bus_transfer(BusKind::Opb, false, ea, cycles);
                Ok(v)
            }
            Err(_) => Err(fault(softsim_bus::MemError::OutOfRange { addr: ea, size: 0 })),
        }
    }

    /// OPB word write.
    fn opb_store(&mut self, pc: u32, size: MemSize, ea: u32, value: u32) -> Result<(), Fault> {
        let fault = |err| Fault::Memory { pc, err };
        if size != MemSize::Word {
            return Err(fault(softsim_bus::MemError::Misaligned { addr: ea, align: 4 }));
        }
        let bus = self
            .opb
            .as_mut()
            .ok_or(fault(softsim_bus::MemError::OutOfRange { addr: ea, size: 0 }))?;
        match bus.write(ea, value) {
            Ok(cycles) => {
                self.extra_cycles += cycles;
                self.emit_bus_transfer(BusKind::Opb, true, ea, cycles);
                Ok(())
            }
            Err(_) => Err(fault(softsim_bus::MemError::OutOfRange { addr: ea, size: 0 })),
        }
    }

    /// Whether [`Cpu::exec_fsl`] would complete `inst` on `fsl` now:
    /// always for a non-blocking variant, and for a blocking one when
    /// the flag it waits on lets it (`exists` for a `get`, not `full`
    /// for a `put`, the very flags `try_pop`/`try_push` test, stuck
    /// faults included). Reads the flags only, so it changes nothing.
    pub(crate) fn fsl_ready(inst: &Inst, fsl: &FslBank) -> bool {
        match *inst {
            Inst::Get { chan, mode, .. } => {
                mode.non_blocking || fsl.from_hw_ref(chan.index()).exists()
            }
            Inst::Put { chan, mode, .. } => {
                mode.non_blocking || !fsl.to_hw_ref(chan.index()).full()
            }
            _ => unreachable!("fsl_ready called on non-FSL instruction"),
        }
    }

    /// Attempts the FSL transfer of a `get`/`put` instruction.
    ///
    /// * Blocking variants return `Err(())` when the channel is not ready,
    ///   which stalls the processor — exactly the paper's §III-B semantics
    ///   ("Blocking read or write will stall the MicroBlaze processor until
    ///   the read or write can occur").
    /// * Non-blocking variants always complete; the MSR carry flag records
    ///   failure (1) or success (0), matching `microblaze_nbread_datafsl`.
    pub(crate) fn exec_fsl(&mut self, inst: &Inst, fsl: &mut FslBank) -> Result<(), ()> {
        match *inst {
            Inst::Get { rd, chan, mode } => match fsl.from_hw(chan.index()).try_pop() {
                Some(word) => {
                    if word.control != mode.control {
                        self.stats.fsl_control_mismatches += 1;
                    }
                    self.set_reg(rd, word.data);
                    self.stats.fsl_words_received += 1;
                    if mode.non_blocking {
                        self.carry = false;
                    }
                    Ok(())
                }
                None if mode.non_blocking => {
                    self.carry = true;
                    self.stats.fsl_nonblocking_misses += 1;
                    Ok(())
                }
                None => Err(()),
            },
            Inst::Put { ra, chan, mode } => {
                let word = FslWord { data: self.reg(ra), control: mode.control };
                if fsl.to_hw(chan.index()).try_push(word) {
                    self.stats.fsl_words_sent += 1;
                    if mode.non_blocking {
                        self.carry = false;
                    }
                    Ok(())
                } else if mode.non_blocking {
                    self.carry = true;
                    self.stats.fsl_nonblocking_misses += 1;
                    Ok(())
                } else {
                    Err(())
                }
            }
            _ => unreachable!("exec_fsl called on non-FSL instruction"),
        }
    }
}

fn logic(op: LogicOp, a: u32, b: u32) -> u32 {
    match op {
        LogicOp::Or => a | b,
        LogicOp::And => a & b,
        LogicOp::Xor => a ^ b,
        LogicOp::Andn => a & !b,
    }
}

fn barrel(op: BarrelOp, a: u32, amount: u32) -> u32 {
    match op {
        BarrelOp::Bsll => a.wrapping_shl(amount),
        BarrelOp::Bsrl => a.wrapping_shr(amount),
        BarrelOp::Bsra => ((a as i32).wrapping_shr(amount)) as u32,
    }
}
