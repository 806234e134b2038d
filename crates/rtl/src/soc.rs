//! The full-SoC RTL model: MB32 processor + LMB memory + FSL channels.
//!
//! This is the design a user of the paper's baseline flow would simulate
//! in ModelSim after EDK/System Generator generate the low-level
//! implementation. The processor is modeled at behavioral-VHDL
//! granularity: one clocked master process holds the architectural state
//! machine (exactly the cycle semantics of the high-level simulator —
//! validated by trace-equivalence tests), while the datapath it exercises
//! (decoder, ALU, LMB controllers, register file, FSL FIFO stages) exists
//! as separate event-driven processes whose signals toggle every cycle.
//! The per-cycle event and delta-cycle churn of all these processes is
//! precisely why low-level simulation is slow — the effect Table I and
//! Table II of the paper quantify.
//!
//! # Clocking discipline
//!
//! * Processor-domain processes run on **rising** clock edges.
//! * FSL interface stages (the boundary between the processor's FIFOs and
//!   a customized peripheral) run on **falling** edges, so within one
//!   clock period: CPU put → (falling) peripheral sees word → peripheral
//!   combinational logic settles → (next rising) pipeline registers
//!   latch. This reproduces the same-cycle FIFO visibility of the
//!   high-level co-simulation engine, making cycle counts identical.

use crate::comp::{clock, Clock};
use crate::kernel::{Kernel, Primitives, SignalId};
use softsim_isa::{
    decode, ArithFlags, BarrelOp, CpuConfig, Image, Inst, LogicOp, MemSize, Reg, ShiftOp,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A word in flight on an FSL: data plus the control bit.
pub type FslItem = (u32, bool);

/// Shared FSL FIFO contents (accessed by the CPU master process on rising
/// edges and the peripheral interface stages on falling edges).
pub type SharedFsl = Rc<RefCell<VecDeque<FslItem>>>;

/// Default FSL depth, matching the high-level bus model.
pub const FSL_DEPTH: usize = 16;

/// Why an RTL run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlStop {
    /// The software executed `halt`.
    Halted,
    /// The cycle budget was exhausted.
    CycleLimit,
    /// The processor model faulted (message mirrors the ISS fault).
    Fault(String),
}

/// HW-side view of a processor → peripheral FSL channel.
#[derive(Debug, Clone, Copy)]
pub struct FslHwIn {
    /// Word popped this cycle (valid when `valid` is high).
    pub data: SignalId,
    /// Control bit of the popped word.
    pub ctrl: SignalId,
    /// High for one cycle per delivered word.
    pub valid: SignalId,
    /// Drive low to defer consumption (initialized high).
    pub ready: SignalId,
}

/// HW-side view of a peripheral → processor FSL channel: the peripheral
/// drives these; the interface stage pushes on each falling edge where
/// `valid` is high.
#[derive(Debug, Clone, Copy)]
pub struct FslHwOut {
    /// Result word.
    pub data: SignalId,
    /// Control bit.
    pub ctrl: SignalId,
    /// Strobe.
    pub valid: SignalId,
}

/// Micro-architectural pipeline state (mirrors the ISS exactly).
enum Pipe {
    Ready,
    Busy { remaining: u32, inst: Inst },
    FslStall { inst: Inst },
}

/// Architectural state of the RTL processor model.
struct Arch {
    config: CpuConfig,
    regs: [u32; 32],
    pc: u32,
    carry: bool,
    imm_latch: Option<u16>,
    delay_target: Option<u32>,
    in_delay_slot: bool,
    redirect: Option<u32>,
    mem: Vec<u8>,
    pipe: Pipe,
    halted: bool,
    fault: Option<String>,
    cycles: u64,
    instructions: u64,
    trace: Vec<(u32, u32)>,
    tracing: bool,
}

impl Arch {
    fn reg(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    fn read_mem(&self, addr: u32, size: MemSize) -> Result<u32, String> {
        let w = size.bytes();
        if !addr.is_multiple_of(w) {
            return Err(format!("misaligned access at {addr:#010x}"));
        }
        if (addr + w) as usize > self.mem.len() {
            return Err(format!("out-of-range access at {addr:#010x}"));
        }
        let i = addr as usize;
        Ok(match size {
            MemSize::Byte => self.mem[i] as u32,
            MemSize::Half => u16::from_be_bytes([self.mem[i], self.mem[i + 1]]) as u32,
            MemSize::Word => {
                u32::from_be_bytes([self.mem[i], self.mem[i + 1], self.mem[i + 2], self.mem[i + 3]])
            }
        })
    }

    fn write_mem(&mut self, addr: u32, size: MemSize, v: u32) -> Result<(), String> {
        let w = size.bytes();
        if !addr.is_multiple_of(w) {
            return Err(format!("misaligned access at {addr:#010x}"));
        }
        if (addr + w) as usize > self.mem.len() {
            return Err(format!("out-of-range access at {addr:#010x}"));
        }
        let i = addr as usize;
        match size {
            MemSize::Byte => self.mem[i] = v as u8,
            MemSize::Half => self.mem[i..i + 2].copy_from_slice(&(v as u16).to_be_bytes()),
            MemSize::Word => self.mem[i..i + 4].copy_from_slice(&v.to_be_bytes()),
        }
        Ok(())
    }
}

/// Observation signals the master process drives so the datapath
/// processes (decoder, ALU, LMB, register file) see real traffic.
struct DatapathSigs {
    pc: SignalId,
    ir: SignalId,
    alu_a: SignalId,
    alu_b: SignalId,
    alu_op: SignalId,
    mem_addr: SignalId,
    mem_wdata: SignalId,
    mem_we: SignalId,
    rd_addr: SignalId,
    rd_data: SignalId,
    rd_we: SignalId,
    carry: SignalId,
    halted: SignalId,
}

/// The elaborated SoC: kernel, clock, processor and FSL state.
pub struct SocRtl {
    /// The discrete-event kernel holding the whole design.
    pub kernel: Kernel,
    /// The 50 MHz system clock.
    pub clock: Clock,
    arch: Rc<RefCell<Arch>>,
    to_hw: Vec<SharedFsl>,
    from_hw: Vec<SharedFsl>,
    halted_sig: SignalId,
}

/// MB32 base-core primitive counts — datasheet-equivalent constants used
/// to derive Table I's "actual" resource column; optional units add on
/// top. Chosen to elaborate to roughly the MicroBlaze v4 footprint on
/// Virtex-II Pro with the era-default options (barrel + multiplier).
const CPU_BASE_PRIMITIVES: Primitives =
    Primitives { ff_bits: 650, lut_bits: 760, mult18s: 0, brams: 0 };
/// The optional barrel shifter (five mux levels across 32 bits).
const BARREL_PRIMITIVES: Primitives =
    Primitives { ff_bits: 10, lut_bits: 160, mult18s: 0, brams: 0 };
/// The optional multiplier (three embedded MULT18X18s plus glue).
const MULT_PRIMITIVES: Primitives = Primitives { ff_bits: 20, lut_bits: 130, mult18s: 3, brams: 0 };
/// The optional serial divider (32-cycle iterative unit).
const DIV_PRIMITIVES: Primitives = Primitives { ff_bits: 110, lut_bits: 240, mult18s: 0, brams: 0 };
/// One LMB interface controller.
const LMB_PRIMITIVES: Primitives = Primitives { ff_bits: 8, lut_bits: 20, mult18s: 0, brams: 0 };

impl SocRtl {
    /// Elaborates the SoC with the default processor configuration.
    pub fn new(image: &Image) -> SocRtl {
        SocRtl::with_config(image, CpuConfig::default())
    }

    /// Elaborates the SoC: processor (with its optional units), LMB
    /// memory, and the 2×8 FSL channels.
    pub fn with_config(image: &Image, config: CpuConfig) -> SocRtl {
        let mut kernel = Kernel::new();
        let clk = clock(&mut kernel, 20); // 50 MHz
        let mem_bytes = config.mem_bytes.max(image.base() + image.len_bytes());
        let mut mem = vec![0u8; mem_bytes as usize];
        let base = image.base() as usize;
        mem[base..base + image.len_bytes() as usize].copy_from_slice(image.bytes());

        kernel.add_primitives(CPU_BASE_PRIMITIVES);
        if config.barrel_shifter {
            kernel.add_primitives(BARREL_PRIMITIVES);
        }
        if config.multiplier {
            kernel.add_primitives(MULT_PRIMITIVES);
        }
        if config.divider {
            kernel.add_primitives(DIV_PRIMITIVES);
        }
        kernel.add_primitives(LMB_PRIMITIVES); // instruction-side controller
        kernel.add_primitives(LMB_PRIMITIVES); // data-side controller
                                               // Program storage BRAMs.
        kernel.add_primitives(Primitives { brams: image.bram_count(), ..Default::default() });

        let arch = Rc::new(RefCell::new(Arch {
            config,
            regs: [0; 32],
            pc: image.entry(),
            carry: false,
            imm_latch: None,
            delay_target: None,
            in_delay_slot: false,
            redirect: None,
            mem,
            pipe: Pipe::Ready,
            halted: false,
            fault: None,
            cycles: 0,
            instructions: 0,
            trace: Vec::new(),
            tracing: false,
        }));

        let to_hw: Vec<SharedFsl> =
            (0..8).map(|_| Rc::new(RefCell::new(VecDeque::new()))).collect();
        let from_hw: Vec<SharedFsl> =
            (0..8).map(|_| Rc::new(RefCell::new(VecDeque::new()))).collect();

        let sigs = DatapathSigs {
            pc: kernel.signal("cpu_pc", 32),
            ir: kernel.signal("cpu_ir", 32),
            alu_a: kernel.signal("cpu_alu_a", 32),
            alu_b: kernel.signal("cpu_alu_b", 32),
            alu_op: kernel.signal("cpu_alu_op", 4),
            mem_addr: kernel.signal("cpu_mem_addr", 32),
            mem_wdata: kernel.signal("cpu_mem_wdata", 32),
            mem_we: kernel.signal("cpu_mem_we", 1),
            rd_addr: kernel.signal("cpu_rd_addr", 5),
            rd_data: kernel.signal("cpu_rd_data", 32),
            rd_we: kernel.signal("cpu_rd_we", 1),
            carry: kernel.signal("cpu_carry", 1),
            halted: kernel.signal("cpu_halted", 1),
        };
        let halted_sig = sigs.halted;

        // --- Datapath processes (event-driven traffic mirrors hardware).
        let imem_word = kernel.signal("lmb_imem_word", 32);
        {
            let arch = Rc::clone(&arch);
            let pc = sigs.pc;
            kernel.process(&[pc], move |ctx| {
                let a = ctx.get(pc) as usize;
                let arch = arch.borrow();
                let w = if a + 4 <= arch.mem.len() {
                    u32::from_be_bytes([
                        arch.mem[a],
                        arch.mem[a + 1],
                        arch.mem[a + 2],
                        arch.mem[a + 3],
                    ])
                } else {
                    0
                };
                ctx.set(imem_word, w as u64);
            });
        }
        let decode_fields = kernel.signal("dec_fields", 32);
        {
            let ir = sigs.ir;
            kernel.process(&[ir], move |ctx| {
                let w = ctx.get(ir) as u32;
                // opcode | rd | ra | rb packed — pure observation traffic.
                let packed = (w >> 26)
                    | ((w >> 21) & 0x1F) << 6
                    | ((w >> 16) & 0x1F) << 11
                    | ((w >> 11) & 0x1F) << 16;
                ctx.set(decode_fields, packed as u64);
            });
        }
        let alu_y = kernel.signal("alu_y", 32);
        {
            let (a, b, op) = (sigs.alu_a, sigs.alu_b, sigs.alu_op);
            kernel.process(&[a, b, op], move |ctx| {
                let av = ctx.get(a) as u32;
                let bv = ctx.get(b) as u32;
                let y = match ctx.get(op) {
                    0 => av.wrapping_add(bv),
                    1 => bv.wrapping_sub(av),
                    2 => av & bv,
                    3 => av | bv,
                    4 => av ^ bv,
                    5 => av.wrapping_mul(bv),
                    6 => av >> (bv & 31),
                    7 => ((av as i32) >> (bv & 31)) as u32,
                    _ => av.wrapping_shl(bv & 31),
                };
                ctx.set(alu_y, y as u64);
            });
        }
        let mem_rdata = kernel.signal("lmb_dmem_rdata", 32);
        {
            let arch = Rc::clone(&arch);
            let (addr, we) = (sigs.mem_addr, sigs.mem_we);
            kernel.process(&[addr, we], move |ctx| {
                let a = (ctx.get(addr) as usize) & !3;
                let arch = arch.borrow();
                let w = if a + 4 <= arch.mem.len() {
                    u32::from_be_bytes([
                        arch.mem[a],
                        arch.mem[a + 1],
                        arch.mem[a + 2],
                        arch.mem[a + 3],
                    ])
                } else {
                    0
                };
                ctx.set(mem_rdata, w as u64);
            });
        }
        {
            // Register-file write port: shadows architectural writes.
            let (we, ad, dv) = (sigs.rd_we, sigs.rd_addr, sigs.rd_data);
            let clk = clk.clk;
            let mut shadow = [0u32; 32];
            kernel.process(&[clk], move |ctx| {
                if ctx.rising(clk) && ctx.get(we) != 0 {
                    shadow[(ctx.get(ad) & 31) as usize] = ctx.get(dv) as u32;
                }
            });
        }

        // --- The master process: the processor's cycle-exact state
        // machine, driving the observation signals above.
        {
            let arch = Rc::clone(&arch);
            let to_hw = to_hw.clone();
            let from_hw = from_hw.clone();
            let clk_sig = clk.clk;
            kernel.process(&[clk_sig], move |ctx| {
                if !ctx.rising(clk_sig) {
                    return;
                }
                let mut a = arch.borrow_mut();
                if a.halted {
                    return;
                }
                a.cycles += 1;
                cpu_cycle(&mut a, &to_hw, &from_hw, ctx, &sigs, imem_word);
            });
        }

        SocRtl { kernel, clock: clk, arch, to_hw, from_hw, halted_sig }
    }

    /// Enables architectural tracing.
    pub fn enable_trace(&mut self) {
        self.arch.borrow_mut().tracing = true;
    }

    /// The collected `(pc, word)` retirement trace.
    pub fn trace(&self) -> Vec<(u32, u32)> {
        self.arch.borrow().trace.clone()
    }

    /// Creates the HW-side input stage for channel `ch` (falling edge):
    /// pops one word per cycle when available and `ready` is high.
    pub fn hw_in(&mut self, ch: usize) -> FslHwIn {
        let k = &mut self.kernel;
        let data = k.signal(format!("fsl{ch}_hw_data"), 32);
        let ctrl = k.signal(format!("fsl{ch}_hw_ctrl"), 1);
        let valid = k.signal(format!("fsl{ch}_hw_valid"), 1);
        let ready = k.signal_init(format!("fsl{ch}_hw_ready"), 1, 1);
        k.add_primitives(Primitives { ff_bits: 70, lut_bits: 40, ..Default::default() });
        let q = Rc::clone(&self.to_hw[ch]);
        let clk = self.clock.clk;
        k.process(&[clk], move |ctx| {
            if !ctx.falling(clk) {
                return;
            }
            if ctx.get(ready) != 0 {
                if let Some((d, c)) = q.borrow_mut().pop_front() {
                    ctx.set(data, d as u64);
                    ctx.set(ctrl, c as u64);
                    ctx.set(valid, 1);
                    return;
                }
            }
            ctx.set(valid, 0);
        });
        FslHwIn { data, ctrl, valid, ready }
    }

    /// Creates the HW-side output stage for channel `ch` (falling edge):
    /// pushes the peripheral's word whenever `valid` is high.
    pub fn hw_out(&mut self, ch: usize) -> FslHwOut {
        let k = &mut self.kernel;
        let data = k.signal(format!("fsl{ch}_hwo_data"), 32);
        let ctrl = k.signal(format!("fsl{ch}_hwo_ctrl"), 1);
        let valid = k.signal(format!("fsl{ch}_hwo_valid"), 1);
        k.add_primitives(Primitives { ff_bits: 70, lut_bits: 40, ..Default::default() });
        let q = Rc::clone(&self.from_hw[ch]);
        let clk = self.clock.clk;
        k.process(&[clk], move |ctx| {
            if !ctx.falling(clk) {
                return;
            }
            if ctx.get(valid) != 0 {
                let mut q = q.borrow_mut();
                if q.len() < FSL_DEPTH {
                    q.push_back((ctx.get(data) as u32, ctx.get(ctrl) != 0));
                }
            }
        });
        FslHwOut { data, ctrl, valid }
    }

    /// Runs until halt/fault or `max_cycles` clock cycles.
    pub fn run(&mut self, max_cycles: u64) -> RtlStop {
        let period = self.clock.period;
        // Run in slabs, checking the halted flag between them.
        let slab: u64 = 64;
        let mut elapsed = 0;
        while elapsed < max_cycles {
            let n = slab.min(max_cycles - elapsed);
            let target = self.kernel.now() + n * period;
            self.kernel.run_until(target);
            elapsed += n;
            let a = self.arch.borrow();
            if a.halted {
                return match &a.fault {
                    Some(f) => RtlStop::Fault(f.clone()),
                    None => RtlStop::Halted,
                };
            }
        }
        RtlStop::CycleLimit
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.arch.borrow().reg(r)
    }

    /// Reads a word of memory.
    pub fn mem_word(&self, addr: u32) -> u32 {
        self.arch.borrow().read_mem(addr, MemSize::Word).unwrap_or(0)
    }

    /// Clock cycles executed by the processor.
    pub fn cpu_cycles(&self) -> u64 {
        self.arch.borrow().cycles
    }

    /// Instructions retired.
    pub fn instructions(&self) -> u64 {
        self.arch.borrow().instructions
    }

    /// True once the processor halted (also visible on the `cpu_halted`
    /// signal).
    pub fn halted(&self) -> bool {
        self.arch.borrow().halted || self.kernel.peek(self.halted_sig) != 0
    }

    /// HW-side access to a processor→HW FIFO (testbench use).
    pub fn to_hw_fifo(&self, ch: usize) -> SharedFsl {
        Rc::clone(&self.to_hw[ch])
    }

    /// HW-side access to a HW→processor FIFO (testbench use).
    pub fn from_hw_fifo(&self, ch: usize) -> SharedFsl {
        Rc::clone(&self.from_hw[ch])
    }
}

/// One processor clock cycle — the exact ISS state machine, with
/// observation-signal side effects.
fn cpu_cycle(
    a: &mut Arch,
    to_hw: &[SharedFsl],
    from_hw: &[SharedFsl],
    ctx: &mut crate::kernel::ProcCtx,
    sigs: &DatapathSigs,
    _imem_word: SignalId,
) {
    match std::mem::replace(&mut a.pipe, Pipe::Ready) {
        Pipe::Busy { remaining, inst } => {
            if remaining > 1 {
                a.pipe = Pipe::Busy { remaining: remaining - 1, inst };
            } else {
                retire(a, &inst, ctx, sigs);
            }
        }
        Pipe::FslStall { inst } => {
            if exec_fsl(a, &inst, to_hw, from_hw) {
                a.pipe = Pipe::Busy { remaining: 1, inst };
            } else {
                a.pipe = Pipe::FslStall { inst };
            }
        }
        Pipe::Ready => {
            let pc = a.pc;
            ctx.set(sigs.pc, pc as u64);
            let word = match a.read_mem(pc, MemSize::Word) {
                Ok(w) => w,
                Err(e) => {
                    a.halted = true;
                    a.fault = Some(format!("fetch: {e}"));
                    ctx.set(sigs.halted, 1);
                    return;
                }
            };
            ctx.set(sigs.ir, word as u64);
            let inst = match decode(word) {
                Ok(i) => i,
                Err(e) => {
                    a.halted = true;
                    a.fault = Some(format!("decode at {pc:#010x}: {e}"));
                    ctx.set(sigs.halted, 1);
                    return;
                }
            };
            if a.in_delay_slot && (inst.is_branch() || inst.is_imm_prefix() || inst == Inst::Halt) {
                a.halted = true;
                a.fault = Some(format!("illegal delay slot at {pc:#010x}"));
                ctx.set(sigs.halted, 1);
                return;
            }
            let cycles = match execute(a, pc, &inst, to_hw, from_hw, ctx, sigs) {
                Ok(ExecResult::Normal) => inst.base_cycles(),
                Ok(ExecResult::Taken) => inst.base_cycles() + inst.taken_penalty(),
                Ok(ExecResult::Blocked) => {
                    a.pipe = Pipe::FslStall { inst };
                    return;
                }
                Err(e) => {
                    a.halted = true;
                    a.fault = Some(e);
                    ctx.set(sigs.halted, 1);
                    return;
                }
            };
            if cycles > 1 {
                a.pipe = Pipe::Busy { remaining: cycles - 1, inst };
            } else {
                retire(a, &inst, ctx, sigs);
            }
        }
    }
}

enum ExecResult {
    Normal,
    Taken,
    Blocked,
}

fn retire(a: &mut Arch, inst: &Inst, ctx: &mut crate::kernel::ProcCtx, sigs: &DatapathSigs) {
    a.instructions += 1;
    let pc = a.pc;
    if a.tracing {
        a.trace.push((pc, softsim_isa::encode(inst)));
    }
    if a.in_delay_slot {
        a.in_delay_slot = false;
        a.pc = a.delay_target.take().expect("delay slot without target");
    } else if a.delay_target.is_some() && inst.has_delay_slot() {
        a.in_delay_slot = true;
        a.pc = pc.wrapping_add(4);
    } else if let Some(t) = a.redirect.take() {
        a.pc = t;
    } else {
        a.pc = pc.wrapping_add(4);
    }
    ctx.set(sigs.carry, a.carry as u64);
    if *inst == Inst::Halt {
        a.halted = true;
        ctx.set(sigs.halted, 1);
    }
}

fn imm_ext(latch: Option<u16>, imm: i16) -> u32 {
    match latch {
        Some(hi) => ((hi as u32) << 16) | (imm as u16 as u32),
        None => imm as i32 as u32,
    }
}

/// Drives the ALU observation signals for an operation.
fn drive_alu(ctx: &mut crate::kernel::ProcCtx, sigs: &DatapathSigs, op: u64, x: u32, y: u32) {
    ctx.set(sigs.alu_a, x as u64);
    ctx.set(sigs.alu_b, y as u64);
    ctx.set(sigs.alu_op, op);
}

fn drive_wb(ctx: &mut crate::kernel::ProcCtx, sigs: &DatapathSigs, rd: Reg, v: u32) {
    ctx.set(sigs.rd_addr, rd.field() as u64);
    ctx.set(sigs.rd_data, v as u64);
    ctx.set(sigs.rd_we, (!rd.is_zero()) as u64);
}

fn add_flags(a: &mut Arch, rd: Reg, x: u32, y: u32, flags: ArithFlags) -> u32 {
    let cin = if flags.carry_in { a.carry as u64 } else { 0 };
    let wide = x as u64 + y as u64 + cin;
    if !flags.keep {
        a.carry = wide > u32::MAX as u64;
    }
    let v = wide as u32;
    a.set_reg(rd, v);
    v
}

fn rsub_flags(a: &mut Arch, rd: Reg, x: u32, y: u32, flags: ArithFlags) -> u32 {
    let cin = if flags.carry_in { a.carry as u64 } else { 1 };
    let wide = y as u64 + (!x) as u64 + cin;
    if !flags.keep {
        a.carry = wide > u32::MAX as u64;
    }
    let v = wide as u32;
    a.set_reg(rd, v);
    v
}

fn take_branch(a: &mut Arch, pc: u32, target: u32, link: Option<Reg>, delay: bool) -> ExecResult {
    if let Some(rd) = link {
        a.set_reg(rd, pc);
    }
    if delay {
        a.delay_target = Some(target);
    } else {
        a.redirect = Some(target);
    }
    ExecResult::Taken
}

fn execute(
    a: &mut Arch,
    pc: u32,
    inst: &Inst,
    to_hw: &[SharedFsl],
    from_hw: &[SharedFsl],
    ctx: &mut crate::kernel::ProcCtx,
    sigs: &DatapathSigs,
) -> Result<ExecResult, String> {
    let latch = a.imm_latch.take();
    match inst {
        Inst::Mul { .. } | Inst::MulI { .. } if !a.config.multiplier => {
            return Err(format!("disabled multiplier at {pc:#010x}"));
        }
        Inst::Div { .. } if !a.config.divider => {
            return Err(format!("disabled divider at {pc:#010x}"));
        }
        Inst::Barrel { .. } | Inst::BarrelI { .. } if !a.config.barrel_shifter => {
            return Err(format!("disabled barrel shifter at {pc:#010x}"));
        }
        _ => {}
    }
    match *inst {
        Inst::Add { rd, ra, rb, flags } => {
            let (x, y) = (a.reg(ra), a.reg(rb));
            drive_alu(ctx, sigs, 0, x, y);
            let v = add_flags(a, rd, x, y, flags);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::AddI { rd, ra, imm, flags } => {
            let (x, y) = (a.reg(ra), imm_ext(latch, imm));
            drive_alu(ctx, sigs, 0, x, y);
            let v = add_flags(a, rd, x, y, flags);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Rsub { rd, ra, rb, flags } => {
            let (x, y) = (a.reg(ra), a.reg(rb));
            drive_alu(ctx, sigs, 1, x, y);
            let v = rsub_flags(a, rd, x, y, flags);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::RsubI { rd, ra, imm, flags } => {
            let (x, y) = (a.reg(ra), imm_ext(latch, imm));
            drive_alu(ctx, sigs, 1, x, y);
            let v = rsub_flags(a, rd, x, y, flags);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Cmp { rd, ra, rb, unsigned } => {
            let (x, y) = (a.reg(ra), a.reg(rb));
            drive_alu(ctx, sigs, 1, x, y);
            let diff = y.wrapping_sub(x);
            let gt = if unsigned { x > y } else { (x as i32) > (y as i32) };
            let v = (diff & 0x7FFF_FFFF) | ((gt as u32) << 31);
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Mul { rd, ra, rb } => {
            let (x, y) = (a.reg(ra), a.reg(rb));
            drive_alu(ctx, sigs, 5, x, y);
            let v = x.wrapping_mul(y);
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::MulI { rd, ra, imm } => {
            let (x, y) = (a.reg(ra), imm_ext(latch, imm));
            drive_alu(ctx, sigs, 5, x, y);
            let v = x.wrapping_mul(y);
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Div { rd, ra, rb, unsigned } => {
            let (den, num) = (a.reg(ra), a.reg(rb));
            drive_alu(ctx, sigs, 9, num, den);
            let v = if den == 0 {
                0
            } else if unsigned {
                num / den
            } else {
                (num as i32).wrapping_div(den as i32) as u32
            };
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Logic { op, rd, ra, rb } => {
            let (x, y) = (a.reg(ra), a.reg(rb));
            let (code, v) = logic_op(op, x, y);
            drive_alu(ctx, sigs, code, x, y);
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::LogicI { op, rd, ra, imm } => {
            let (x, y) = (a.reg(ra), imm_ext(latch, imm));
            let (code, v) = logic_op(op, x, y);
            drive_alu(ctx, sigs, code, x, y);
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Shift { op, rd, ra } => {
            let x = a.reg(ra);
            let cout = x & 1 != 0;
            let v = match op {
                ShiftOp::Sra => ((x as i32) >> 1) as u32,
                ShiftOp::Src => (x >> 1) | ((a.carry as u32) << 31),
                ShiftOp::Srl => x >> 1,
            };
            drive_alu(ctx, sigs, 6, x, 1);
            a.carry = cout;
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Sext { rd, ra, half } => {
            let x = a.reg(ra);
            let v = if half { x as u16 as i16 as i32 as u32 } else { x as u8 as i8 as i32 as u32 };
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Barrel { op, rd, ra, rb } => {
            let (x, n) = (a.reg(ra), a.reg(rb) & 31);
            let (code, v) = barrel_op(op, x, n);
            drive_alu(ctx, sigs, code, x, n);
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::BarrelI { op, rd, ra, amount } => {
            let (x, n) = (a.reg(ra), amount as u32 & 31);
            let (code, v) = barrel_op(op, x, n);
            drive_alu(ctx, sigs, code, x, n);
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Load { size, rd, ra, rb } => {
            let ea = a.reg(ra).wrapping_add(a.reg(rb));
            ctx.set(sigs.mem_addr, ea as u64);
            ctx.set(sigs.mem_we, 0);
            let v = a.read_mem(ea, size)?;
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::LoadI { size, rd, ra, imm } => {
            let ea = a.reg(ra).wrapping_add(imm_ext(latch, imm));
            ctx.set(sigs.mem_addr, ea as u64);
            ctx.set(sigs.mem_we, 0);
            let v = a.read_mem(ea, size)?;
            a.set_reg(rd, v);
            drive_wb(ctx, sigs, rd, v);
        }
        Inst::Store { size, rd, ra, rb } => {
            let ea = a.reg(ra).wrapping_add(a.reg(rb));
            let v = a.reg(rd);
            ctx.set(sigs.mem_addr, ea as u64);
            ctx.set(sigs.mem_wdata, v as u64);
            ctx.set(sigs.mem_we, 1);
            a.write_mem(ea, size, v)?;
        }
        Inst::StoreI { size, rd, ra, imm } => {
            let ea = a.reg(ra).wrapping_add(imm_ext(latch, imm));
            let v = a.reg(rd);
            ctx.set(sigs.mem_addr, ea as u64);
            ctx.set(sigs.mem_wdata, v as u64);
            ctx.set(sigs.mem_we, 1);
            a.write_mem(ea, size, v)?;
        }
        Inst::Br { rb, link, absolute, delay } => {
            let t = if absolute { a.reg(rb) } else { pc.wrapping_add(a.reg(rb)) };
            return Ok(take_branch(a, pc, t, link, delay));
        }
        Inst::BrI { imm, link, absolute, delay } => {
            let off = imm_ext(latch, imm);
            let t = if absolute { off } else { pc.wrapping_add(off) };
            return Ok(take_branch(a, pc, t, link, delay));
        }
        Inst::Bcc { cond, ra, rb, delay } => {
            if cond.holds(a.reg(ra)) {
                let t = pc.wrapping_add(a.reg(rb));
                return Ok(take_branch(a, pc, t, None, delay));
            }
        }
        Inst::BccI { cond, ra, imm, delay } => {
            if cond.holds(a.reg(ra)) {
                let t = pc.wrapping_add(imm_ext(latch, imm));
                return Ok(take_branch(a, pc, t, None, delay));
            }
        }
        Inst::Rtsd { ra, imm } => {
            let t = a.reg(ra).wrapping_add(imm_ext(latch, imm));
            return Ok(take_branch(a, pc, t, None, true));
        }
        Inst::Imm { imm } => {
            a.imm_latch = Some(imm);
        }
        Inst::Get { .. } | Inst::Put { .. } => {
            return Ok(if exec_fsl(a, inst, to_hw, from_hw) {
                ExecResult::Normal
            } else {
                ExecResult::Blocked
            });
        }
        Inst::Halt => {}
    }
    Ok(ExecResult::Normal)
}

fn logic_op(op: LogicOp, x: u32, y: u32) -> (u64, u32) {
    match op {
        LogicOp::And => (2, x & y),
        LogicOp::Or => (3, x | y),
        LogicOp::Xor => (4, x ^ y),
        LogicOp::Andn => (2, x & !y),
    }
}

fn barrel_op(op: BarrelOp, x: u32, n: u32) -> (u64, u32) {
    match op {
        BarrelOp::Bsll => (8, x.wrapping_shl(n)),
        BarrelOp::Bsrl => (6, x.wrapping_shr(n)),
        BarrelOp::Bsra => (7, ((x as i32).wrapping_shr(n)) as u32),
    }
}

/// Returns true when the transfer completed.
fn exec_fsl(a: &mut Arch, inst: &Inst, to_hw: &[SharedFsl], from_hw: &[SharedFsl]) -> bool {
    match *inst {
        Inst::Get { rd, chan, mode } => {
            let popped = from_hw[chan.index()].borrow_mut().pop_front();
            match popped {
                Some((d, _c)) => {
                    a.set_reg(rd, d);
                    if mode.non_blocking {
                        a.carry = false;
                    }
                    true
                }
                None if mode.non_blocking => {
                    a.carry = true;
                    true
                }
                None => false,
            }
        }
        Inst::Put { ra, chan, mode } => {
            let mut q = to_hw[chan.index()].borrow_mut();
            if q.len() < FSL_DEPTH {
                q.push_back((a.reg(ra), mode.control));
                if mode.non_blocking {
                    a.carry = false;
                }
                true
            } else if mode.non_blocking {
                a.carry = true;
                true
            } else {
                false
            }
        }
        _ => unreachable!("exec_fsl on non-FSL instruction"),
    }
}
