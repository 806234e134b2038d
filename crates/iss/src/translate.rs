//! Translated basic-block execution — the ISS fast path.
//!
//! Following Schnerr et al.'s cycle-accurate binary translation, the
//! interpreter's per-cycle fetch/decode/dispatch loop is replaced, on
//! hot straight-line code, by a *basic-block cache*: the first time
//! execution reaches a PC, the instructions from that PC up to the next
//! control-flow or interaction boundary are decoded and resolved
//! **once** into ops (register indices, extended immediates, computed
//! branch targets, the optional-unit gate decided; see [`Op`]) and
//! stored with their cycle costs annotated at translation time.
//! Re-entering the block runs the ops back to back through the
//! interpreter's own executor — no refetch, no redecode, no per-cycle
//! pipeline state machine — and goes on into the blocks after it (see
//! *Chaining*), charging the cycles and instructions once, when the
//! dispatch exits: exactly what the interpreter would have charged
//! instruction by instruction.
//!
//! # Block boundaries
//!
//! A block extends from its entry PC to the first of:
//!
//! * a **branch** (`br`/`bcc`/`rtsd`) — included as the final step, so
//!   the taken/not-taken cycle split annotated at translation time is
//!   applied from the run-time [`ExecOutcome`];
//! * an **`imm` prefix that cannot fuse** (see below) — excluded: the
//!   prefix and the instruction that takes its latch run interpreted;
//! * **`halt`**, an undecodable word, or the end of the loaded program
//!   image — excluded (the interpreter raises the identical fault/halt,
//!   and code outside the image always runs interpreted);
//! * an instruction whose optional unit the configuration omits —
//!   included as the final step, an op that raises the interpreter's
//!   fault;
//! * [`MAX_BLOCK_LEN`] words (a translation-size bound that
//!   [`Translator::note_store`]'s lookback relies on).
//!
//! An `imm` prefix **fuses** with the instruction after it when that one
//! lies inside the image and is not an `imm`, `halt` or FSL instruction:
//! the prefix becomes a one-cycle step that changes nothing (`or r0, r0,
//! r0`), and the next step is resolved with the latched upper half
//! already folded in, as the interpreter resolves it. Nothing can end a
//! block between the two (the prefix can neither fault nor store, and a
//! pair that would straddle [`MAX_BLOCK_LEN`] starts the next block), so
//! the latch never outlives a dispatch.
//!
//! FSL instructions (`get`/`put`) stay inside blocks. Each one starts a
//! *segment*: the block's steps between two FSL steps run in a loop that
//! tests nothing per step, so a block without FSL steps pays nothing for
//! them.
//!
//! # Chaining
//!
//! A dispatch does not return at a block's end. It applies the final
//! step's PC sequencing as the interpreter's `retire` does, looks up the
//! block at the new PC (translating it on a miss), and runs it in the same
//! dispatch. The chain stops at:
//!
//! * a taken delayed branch — its delay slot runs interpreted;
//! * a PC that is unaligned or outside the image;
//! * an empty block (the PC sits on `halt`, an unfusable `imm`, an
//!   undecodable word);
//! * a block whose worst-case cycles do not fit what is left of the
//!   budget;
//! * a fault, a store into cached code, or a transfer that would stall —
//!   the exits of a single block.
//!
//! The dispatch charges its cycles, instructions and counters once, when
//! it exits, for every block it ran.
//!
//! # FSL transfers inside a block
//!
//! Before an FSL step the block calls its caller's `sync` callback with
//! the step's absolute issue cycle: whoever else reads or writes the FSL
//! bank (the co-simulator's peripherals) catches up to that cycle, as
//! the stepped loop would have it when the processor issues there. The
//! block then reads the flag the transfer waits on (`exists` for a
//! `get`, `full` for a `put`; [`Cpu::fsl_ready`]), which changes
//! nothing. A transfer that can complete, and every non-blocking
//! `nget`/`nput` (which always completes, missing or not), runs inside
//! the block at its two cycles. A blocking transfer that would stall
//! ends the block before itself, charging nothing for it (a failed try
//! would charge a rejection the interpreter charges again on its own
//! issue); when it is the block's first step, the dispatch is
//! [`TranslatedRun::NotRun`]. The interpreter then issues it and stalls
//! cycle by cycle, exactly as without translation.
//!
//! # Determinism boundary
//!
//! Dispatch refuses (falls back to the interpreter, bit-exactly) when
//! anything needs per-instruction or per-cycle visibility: an attached
//! trace sink or architectural trace, breakpoints, an OPB bus, a
//! pending `imm` latch or delay slot, a pipeline that is not at an
//! instruction boundary (an FSL stall included), or a first block whose
//! worst-case cycles exceed the remaining budget (the interpreter then
//! single-steps to the exact mid-instruction stop state). None of these
//! can change inside a dispatch, and a chained block leaves no latch or
//! slot pending, so every block of a chain starts where a dispatch could
//! have started. Between two FSL steps the processor touches no FSL
//! channel, so the rest of the system may replay those cycles after the
//! dispatch in any order that keeps each channel's own, across any
//! number of chained blocks; at an FSL step the `sync` callback gives
//! the rest of the system its turn. Stores into cached code invalidate
//! the covering blocks; a block checks for that after each of its stores
//! and ends the dispatch there, charging exactly the prefix that ran, so
//! self-modifying programs re-translate and stay bit-exact. A fault
//! mid-block charges the prefix and the faulting issue cycle, as the
//! interpreter does. A snapshot restore keeps every cached block when
//! the restored bytes of the cached code range equal the current ones,
//! and flushes the cache otherwise.

use crate::cpu::{Cpu, ExecOutcome, Pipe};
use crate::exec::Op;
use crate::fault::Fault;
use softsim_bus::FslBank;
use softsim_isa::{decode, Inst};
use std::ops::Range;
use std::rc::Rc;

/// Upper bound on instructions per translated block.
const MAX_BLOCK_LEN: usize = 64;

/// Counters describing the translation cache (observer state: never
/// part of snapshots, never affects architectural results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Basic blocks decoded into the cache (including empty ones that
    /// only record a boundary).
    pub blocks_translated: u64,
    /// Successful dispatches by the run loop, each running one block or
    /// a chain of them.
    pub block_dispatches: u64,
    /// Instructions executed through the translated path.
    pub translated_instructions: u64,
    /// Blocks dropped because a store hit their code range.
    pub invalidations: u64,
}

/// Outcome of one [`Cpu::run_translated_block`] dispatch attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslatedRun {
    /// Translation was ineligible here; nothing happened — the caller
    /// must fall back to [`Cpu::tick`].
    NotRun,
    /// A block, or a chain of them, executed (the last one perhaps only
    /// in part, when a store invalidated cached code or a transfer would
    /// stall); `cycles` were consumed and the pipeline is back at an
    /// instruction boundary.
    Ran {
        /// Cycles charged (identical to what the interpreter charges).
        cycles: u64,
    },
    /// An instruction in the dispatch faulted; the processor is halted,
    /// exactly as [`Cpu::tick`] would leave it.
    Faulted {
        /// Cycles charged up to and including the faulting issue cycle.
        cycles: u64,
        /// The fault, as the interpreter would report it.
        fault: Fault,
    },
}

/// One resolved instruction with its translation-time cycle costs.
#[derive(Debug, Clone)]
struct Step {
    op: Op,
    /// Cycles when the instruction completes normally (`base_cycles`;
    /// OPB latency cannot occur — dispatch requires no OPB bus).
    base: u16,
    /// Cycles when a branch is taken (`base_cycles + taken_penalty`).
    taken: u16,
}

// A step (a resolved op and its two cycle costs) fits in the 16 bytes a
// decoded instruction with its costs takes, so resolving grows no block.
const _: () = assert!(std::mem::size_of::<Step>() <= 16);

/// A translated basic block.
#[derive(Debug)]
struct Block {
    steps: Vec<Step>,
    /// Indices into `steps` of the FSL steps, ascending: each starts a
    /// segment (see the module docs).
    transfers: Vec<u8>,
    /// Code range covered, `[start, end)` in bytes.
    start: u32,
    end: u32,
    /// Sum of each step's worst-case cycles — dispatch only runs the
    /// block when this fits the remaining budget, so a translated run
    /// can never overshoot a cycle limit the interpreter would respect.
    worst_cycles: u64,
}

/// The per-CPU basic-block cache.
#[derive(Debug)]
pub(crate) struct Translator {
    pub(crate) enabled: bool,
    /// The loaded program's bytes, `[base, base + len)`. Only code in
    /// it is translated: a run that strays past it (a corrupted jump
    /// sliding through zeroed memory, which decodes as `add r0, r0, r0`
    /// to the end of memory) is interpreted, so code that runs once
    /// leaves no blocks, and the cache never outgrows the program.
    image: Range<u32>,
    /// Direct-mapped block cache indexed by word address (`pc >> 2`),
    /// grown up to the highest entry PC translated so far — a dispatch
    /// lookup is one bounds-checked index, no hashing.
    slots: Vec<Option<Rc<Block>>>,
    /// Number of `Some` slots (so flushing an already-empty cache stays
    /// free for the translation-off path).
    cached: usize,
    /// Bumped on every invalidation/flush; an executing block re-checks
    /// it after each of its stores, so a self-modifying store stops
    /// translated execution before any stale op is used.
    generation: u64,
    /// Conservative watermarks over every cached block's `[start, end)`
    /// — `note_store` rejects stores outside `[code_lo, code_hi)` with
    /// two compares, so data-section stores (the overwhelming majority)
    /// never touch the cache. Only grown on insert; reset on
    /// [`Translator::flush`].
    code_lo: u32,
    code_hi: u32,
    /// One bit per word of the image, set once a cached block covers
    /// that word. Programs keep data between their code (a spill frame
    /// after a loop), inside the watermarks; this turns each such store
    /// away with one bit test. Only set on insert (an evicted block's
    /// bits stay, which is conservative); cleared on
    /// [`Translator::flush`].
    code_words: Vec<u64>,
    stats: TranslationStats,
}

impl Translator {
    /// An empty cache, off, for a program loaded at `image`.
    pub(crate) fn new(image: Range<u32>) -> Translator {
        Translator {
            enabled: false,
            image,
            slots: Vec::new(),
            cached: 0,
            generation: 0,
            code_lo: u32::MAX,
            code_hi: 0,
            code_words: Vec::new(),
            stats: TranslationStats::default(),
        }
    }

    /// Drops every cached block (memory replaced wholesale: a snapshot
    /// restore that changes cached code, debugger writes). Clearing the
    /// slot vector (rather than refilling it) lets a later guest-memory
    /// size change re-size it.
    pub(crate) fn flush(&mut self) {
        if self.cached == 0 {
            return;
        }
        self.slots.clear();
        self.cached = 0;
        self.code_lo = u32::MAX;
        self.code_hi = 0;
        self.code_words.clear();
        self.generation += 1;
    }

    /// Index of the bit of [`Translator::code_words`] for the byte at
    /// `addr` (inside the image): one bit per four bytes from the
    /// image's start.
    fn word_bit(&self, addr: u32) -> usize {
        ((addr - self.image.start) >> 2) as usize
    }

    /// Whether a cached block covers (or once covered) a byte of the
    /// four that share `addr`'s bit.
    fn is_code(&self, addr: u32) -> bool {
        if !self.image.contains(&addr) {
            return false;
        }
        let bit = self.word_bit(addr);
        self.code_words.get(bit / 64).is_some_and(|w| w & (1 << (bit % 64)) != 0)
    }

    /// The byte range `[code_lo, code_hi)` every cached block was
    /// decoded from (empty when no block covers code). A restore that
    /// leaves these bytes as they are leaves every cached block valid.
    pub(crate) fn code_range(&self) -> std::ops::Range<usize> {
        self.code_lo.min(self.code_hi) as usize..self.code_hi as usize
    }

    /// Whether a block may be entered at `pc`: inside the image, and
    /// word-aligned (the slot cache is direct-mapped by word index; an
    /// unaligned PC would alias the aligned word's slot).
    fn enterable(&self, pc: u32) -> bool {
        pc & 3 == 0 && self.image.contains(&pc)
    }

    /// The cached block entered at `pc`, if any.
    fn lookup(&self, pc: u32) -> Option<&Rc<Block>> {
        self.slots.get((pc >> 2) as usize).and_then(|s| s.as_ref())
    }

    /// Drops the block entered at `pc` from the cache.
    fn evict(&mut self, pc: u32) {
        if let Some(slot) = self.slots.get_mut((pc >> 2) as usize) {
            if slot.take().is_some() {
                self.cached -= 1;
                self.generation += 1;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Invalidates any cached block overlapping the 4 bytes at `addr`
    /// (the widest store), called on every successful LMB store. The
    /// watermark early-out keeps the cost of data-section stores — and
    /// of every store while translation is off — to two compares, and
    /// the code bitmap turns away the data stores between code.
    pub(crate) fn note_store(&mut self, addr: u32) {
        // Saturating: a store at the very top of the address space can
        // only be over-covered, which at worst invalidates one extra
        // block (conservative, still bit-exact).
        let last = addr.saturating_add(3);
        if last < self.code_lo || addr >= self.code_hi {
            return;
        }
        if !self.is_code(addr) && !self.is_code(last) {
            return;
        }
        // A block holds at most `MAX_BLOCK_LEN` words, so one that
        // overlaps the stored bytes is entered at most that many words
        // before them. Empty blocks cover no bytes.
        let first = (addr >> 2).saturating_sub(MAX_BLOCK_LEN as u32 - 1);
        for word in first..=(last >> 2) {
            let start = word << 2;
            let hit = self
                .lookup(start)
                .is_some_and(|b| !b.steps.is_empty() && last >= b.start && addr < b.end);
            if hit {
                self.evict(start);
            }
        }
    }
}

impl Cpu {
    /// Enables or disables translated basic-block execution (off on a
    /// bare [`Cpu`]; every co-simulator built by `softsim-cosim` turns
    /// it on, and there this flag is the one switch for all of the
    /// co-simulator's fast paths: translated blocks and its two jumps).
    /// Turning it off keeps the cache (blocks stay valid — every store
    /// still invalidates); turning it on costs nothing until
    /// [`Cpu::run`] dispatches a block.
    pub fn set_translation(&mut self, enabled: bool) {
        self.translator.enabled = enabled;
    }

    /// Whether translated execution is enabled.
    pub fn translation(&self) -> bool {
        self.translator.enabled
    }

    /// Translation-cache counters (observer state — excluded from
    /// snapshots, identical architectural results whatever they say).
    pub fn translation_stats(&self) -> TranslationStats {
        self.translator.stats
    }

    /// True when translated dispatch may run right now: enabled, the
    /// pipeline at an instruction boundary, and nothing attached or
    /// latched that needs per-instruction visibility.
    fn translation_eligible(&self) -> bool {
        self.translator.enabled
            && !self.halted
            && matches!(self.pipe, Pipe::Ready)
            && self.sink.is_none()
            && self.breakpoints.is_empty()
            && self.opb.is_none()
            && self.imm_latch.is_none()
            && !self.in_delay_slot
            && self.delay_target.is_none()
            && self.translator.enterable(self.pc)
    }

    /// Decodes the basic block starting at `pc` into the cache. Returns
    /// the cached block (possibly empty when `pc` sits directly on a
    /// boundary instruction — cached anyway so repeat dispatches don't
    /// re-decode).
    #[inline(never)]
    fn translate_block(&mut self, pc: u32) -> Rc<Block> {
        // Grow the direct-mapped slot table up to the highest entry PC
        // translated (inside the program, so inside guest memory);
        // `flush` drops it, so re-grow lazily here.
        let index = (pc >> 2) as usize;
        if index >= self.translator.slots.len() {
            self.translator.slots.resize(index + 1, None);
        }
        let mut steps = Vec::new();
        let mut transfers = Vec::new();
        let mut at = pc;
        let mut worst: u64 = 0;
        while steps.len() < MAX_BLOCK_LEN && self.translator.image.contains(&at) {
            let Ok(word) = self.mem.read_u32(at) else { break };
            let Ok(mut inst) = decode(word) else { break };
            // Blocks start with no `imm` latch; a fused pair folds its
            // prefix's latch into the next step.
            let mut latch = None;
            match inst {
                Inst::Halt => break,
                Inst::Imm { imm } => {
                    // A pair is never split, so no block exceeds
                    // `MAX_BLOCK_LEN` words (`note_store` relies on it).
                    let next = at.wrapping_add(4);
                    let Some(suffix) = self.fusable_suffix(next) else { break };
                    if steps.len() + 2 > MAX_BLOCK_LEN {
                        break;
                    }
                    let op = Op::resolve(&Inst::NOP, at, None, &self.config);
                    steps.push(Step { op, base: 1, taken: 1 });
                    worst += 1;
                    (at, inst, latch) = (next, suffix, Some(imm));
                }
                Inst::Get { .. } | Inst::Put { .. } => transfers.push(steps.len() as u8),
                _ => {}
            }
            let base = inst.base_cycles();
            let taken = base + inst.taken_penalty();
            worst += base.max(taken) as u64;
            let op = Op::resolve(&inst, at, latch, &self.config);
            steps.push(Step { op, base: base as u16, taken: taken as u16 });
            at = at.wrapping_add(4);
            // Nothing after a branch or a disabled-unit fault is reached.
            if inst.is_branch() || matches!(op, Op::Disabled { .. }) {
                break;
            }
        }
        let block = Rc::new(Block { steps, transfers, start: pc, end: at, worst_cycles: worst });
        self.translator.stats.blocks_translated += 1;
        // Empty blocks cover no code bytes, so they never widen the
        // store filters (and `end - 1` would wrap at pc 0).
        if !block.steps.is_empty() {
            let t = &mut self.translator;
            t.code_lo = t.code_lo.min(block.start);
            t.code_hi = t.code_hi.max(block.end);
            let (first, last) = (t.word_bit(block.start), t.word_bit(block.end - 1));
            if last / 64 >= t.code_words.len() {
                t.code_words.resize(last / 64 + 1, 0);
            }
            for bit in first..=last {
                t.code_words[bit / 64] |= 1 << (bit % 64);
            }
        }
        if let Some(slot) = self.translator.slots.get_mut((pc >> 2) as usize) {
            if slot.replace(block.clone()).is_none() {
                self.translator.cached += 1;
            }
        }
        block
    }

    /// The cached block entered at `pc`, translated now if there is none.
    /// A chaining dispatch asks this once per block it runs, so the hit
    /// path is inlined and translation, the rare miss, is not.
    #[inline(always)]
    fn block_at(&mut self, pc: u32) -> Rc<Block> {
        match self.translator.lookup(pc) {
            Some(b) => b.clone(),
            None => self.translate_block(pc),
        }
    }

    /// The instruction at `pc` when an `imm` prefix just before it fuses
    /// with it: inside the image, decodable, and not an `imm`, `halt` or
    /// FSL instruction (a blocking transfer may end its block before
    /// itself, which would split the pair).
    fn fusable_suffix(&self, pc: u32) -> Option<Inst> {
        if !self.translator.image.contains(&pc) {
            return None;
        }
        let inst = decode(self.mem.read_u32(pc).ok()?).ok()?;
        let unfusable =
            matches!(inst, Inst::Imm { .. } | Inst::Halt | Inst::Get { .. } | Inst::Put { .. });
        (!unfusable).then_some(inst)
    }

    /// Executes the translated block at the current PC, and the blocks
    /// it chains into (see the module docs), charging at most
    /// `max_cycles` cycles, or returns [`TranslatedRun::NotRun`] without
    /// touching any state when the fast path is ineligible here (the
    /// caller then falls back to [`Cpu::tick`], which produces
    /// bit-identical results).
    ///
    /// `sync(fsl, at)` runs before each FSL step, `at` being the step's
    /// absolute issue cycle: it must bring every other user of `fsl` up
    /// to, not including, cycle `at` (see the module docs). [`Cpu::run`],
    /// with nothing else on the bank, passes a callback that does
    /// nothing.
    ///
    /// The ops run through the interpreter's executor; the dispatch keeps
    /// its own cycle count and writes the cycle, instruction and
    /// translated-instruction counters once, when it exits. It leaves
    /// the per-instruction state (issue cycle, stall attribution, bus
    /// latency, breakpoint latch) as the last instruction that ran would.
    /// Only a block's final step can branch, so every earlier step just
    /// moves the PC on by one word.
    pub fn run_translated_block(
        &mut self,
        fsl: &mut FslBank,
        max_cycles: u64,
        sync: &mut dyn FnMut(&mut FslBank, u64),
    ) -> TranslatedRun {
        if !self.translation_eligible() {
            return TranslatedRun::NotRun;
        }
        let mut pc = self.pc;
        let mut block = self.block_at(pc);
        if block.steps.is_empty() || block.worst_cycles > max_cycles {
            return TranslatedRun::NotRun;
        }
        let generation = self.translator.generation;
        // Cycles charged so far, and the issue cycle of the last step
        // that ran, both relative to the dispatch's entry.
        let (mut cycles, mut issued) = (0u64, 0u64);
        let mut retired = 0u64;
        let mut fault = None;
        'run: loop {
            // The segment running now is `block.steps[from..to]`; `to`
            // is the next FSL step, or the block's end.
            let mut transfers = block.transfers.iter().map(|&i| usize::from(i));
            let mut from = 0;
            loop {
                let to = transfers.next().unwrap_or(block.steps.len());
                for step in &block.steps[from..to] {
                    issued = cycles;
                    match self.exec_op(pc, &step.op, fsl) {
                        Ok(ExecOutcome::Normal) => cycles += u64::from(step.base),
                        Ok(ExecOutcome::Taken) => {
                            self.stats.taken_branches += 1;
                            cycles += u64::from(step.taken);
                        }
                        // FSL steps start segments; they never run here.
                        Ok(ExecOutcome::FslBlocked) => unreachable!("FSL step inside a segment"),
                        Err(f) => {
                            // The issue cycle is charged, nothing retires.
                            cycles += 1;
                            fault = Some(f);
                            break 'run;
                        }
                    }
                    retired += 1;
                    pc = pc.wrapping_add(4);
                    // A store just invalidated cached code (possibly the
                    // rest of this very block, or the next one): stop
                    // before using any stale op.
                    if matches!(step.op, Op::Store { .. } | Op::StoreI { .. })
                        && self.translator.generation != generation
                    {
                        break 'run;
                    }
                }
                let Some(step) = block.steps.get(to) else { break };
                let Op::Fsl(inst) = step.op else {
                    unreachable!("a transfer index names an FSL step")
                };
                // The dispatch has not charged its cycles yet.
                sync(fsl, self.stats.cycles + cycles);
                if !Cpu::fsl_ready(&inst, fsl) {
                    if retired == 0 {
                        // The first step would stall: nothing ran.
                        return TranslatedRun::NotRun;
                    }
                    break 'run;
                }
                issued = cycles;
                let done = self.exec_fsl(&inst, fsl);
                debug_assert!(done.is_ok(), "a ready transfer completes");
                cycles += u64::from(step.base);
                retired += 1;
                pc = pc.wrapping_add(4);
                from = to + 1;
            }
            // The block ran to its end. `retire`'s PC sequencing for its
            // final step, the only one that can branch: a taken delayed
            // branch falls into its delay slot, which runs stepped; any
            // other taken branch redirects.
            if self.delay_target.is_some() {
                self.in_delay_slot = true;
                break;
            }
            if let Some(target) = self.redirect.take() {
                pc = target;
            }
            // Chain into the block at the new PC when the dispatch could
            // have started there and the block fits what is left.
            if !self.translator.enterable(pc) {
                break;
            }
            let next = self.block_at(pc);
            if next.steps.is_empty() || cycles + next.worst_cycles > max_cycles {
                break;
            }
            block = next;
        }
        self.translator.stats.block_dispatches += 1;
        let start = self.stats.cycles;
        self.stats.cycles = start + cycles;
        self.stats.instructions += retired;
        self.translator.stats.translated_instructions += retired;
        self.inst_start = start + issued;
        self.inst_read_stalls = 0;
        self.inst_write_stalls = 0;
        self.extra_cycles = 0;
        self.bp_skip = None;
        if let Some(fault) = fault {
            // The faulting instruction's PC; the processor halts.
            self.pc = pc;
            self.halted = true;
            return TranslatedRun::Faulted { cycles, fault };
        }
        self.pc = pc;
        TranslatedRun::Ran { cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_isa::asm::assemble;
    use softsim_isa::CpuConfig;

    fn cpu_with(src: &str, config: CpuConfig) -> (Cpu, FslBank) {
        let img = assemble(src).expect("assemble");
        (Cpu::with_config(&img, config), FslBank::default())
    }

    fn cpu(src: &str) -> (Cpu, FslBank) {
        cpu_with(src, CpuConfig::default())
    }

    /// The same program, interpreted vs translated, must agree on
    /// every architectural observable and every statistic.
    fn assert_equivalent(src: &str, budget: u64) {
        assert_equivalent_with(src, budget, CpuConfig::default());
    }

    /// What a translated run leaves to compare: its stop reason, its
    /// cache counters, and how many retired instructions ran interpreted.
    type Outcome = (crate::StopReason, TranslationStats, u64);

    /// [`assert_equivalent`] on a processor configured as `config`.
    /// Returns the translated side's [`Outcome`].
    fn assert_equivalent_with(src: &str, budget: u64, config: CpuConfig) -> Outcome {
        let (mut a, mut fa) = cpu_with(src, config);
        let (mut b, mut fb) = cpu_with(src, config);
        b.set_translation(true);
        let ra = a.run(&mut fa, budget);
        let rb = b.run(&mut fb, budget);
        assert_eq!(ra, rb, "stop reason diverged");
        assert_eq!(a.stats(), b.stats(), "stats diverged");
        assert_eq!(a.pc(), b.pc(), "pc diverged");
        assert_eq!(a.carry(), b.carry(), "carry diverged");
        for r in 0..32 {
            let r = softsim_isa::Reg::new(r);
            assert_eq!(a.reg(r), b.reg(r), "register {r:?} diverged");
        }
        assert_eq!(a.mem().bytes(), b.mem().bytes(), "memory diverged");
        // The per-instruction state a block leaves must be what the
        // last instruction it ran leaves in the interpreter.
        assert_eq!(a.in_flight(), b.in_flight(), "in-flight state diverged");
        assert_eq!(
            (a.inst_start, a.extra_cycles, a.bp_skip, a.halted, a.in_delay_slot, a.delay_target),
            (b.inst_start, b.extra_cycles, b.bp_skip, b.halted, b.in_delay_slot, b.delay_target),
            "per-instruction state diverged"
        );
        let stats = b.translation_stats();
        (rb, stats, b.stats().instructions - stats.translated_instructions)
    }

    /// What every block case starts from. Each `li` is an `imm` pair,
    /// fused into the block that runs on into the case, which starts at
    /// the carry line it puts first.
    const PROLOGUE: &str = "
            li    r3, 0x80000001
            li    r4, 0x7ffffff3
            li    r5, -5
            li    r6, data
            li    r7, 3
            li    r8, target
            li    r9, 12
            li    r12, 0xffffffff
            li    r13, 0x10000
        ";

    /// What follows every block case. A case whose last line is a
    /// branch to `pc + r9` lands on `target`, and a delayed branch's
    /// slot is the `addik r21` line.
    const EPILOGUE: &str = "
            addik r21, r0, 2
            halt
        target:
            addik r22, r0, 3
            halt
            .align 4
        data:
            .word 0x8899aabb, 0xccddeeff, 0
        ";

    /// Sets the carry (`add` writes its carry-out to r0's sum) or clears
    /// it, as the first step of the block.
    const CARRY: [&str; 2] = ["add r0, r12, r12", "add r0, r0, r0"];

    /// Runs `body` (one instruction per line) inside a block after
    /// [`PROLOGUE`] and `setup`, with the carry set and clear,
    /// interpreted against translated, to halt and under a sweep of
    /// cycle budgets that cut the run before, inside and after the
    /// block. Returns the [`Outcome`] of the carry-set run to halt.
    fn check_block(setup: &str, body: &str, config: CpuConfig) -> Outcome {
        let mut result = None;
        for carry in CARRY {
            let src = format!("{PROLOGUE}\n{setup}\n{carry}\naddik r20, r0, 1\n{body}\n{EPILOGUE}");
            for budget in (16..64).step_by(5) {
                assert_equivalent_with(&src, budget, config);
            }
            let got = assert_equivalent_with(&src, 10_000, config);
            result.get_or_insert(got);
        }
        result.expect("two carry states")
    }

    /// Every instruction a block can hold runs inside one, bit-exact with
    /// the interpreter: each `ArithFlags` combination, `r0` as the
    /// destination, each access width, and every branch form as the
    /// block's final step.
    #[test]
    fn every_resolved_op_matches_the_interpreter_inside_a_block() {
        let mut bodies: Vec<String> = Vec::new();
        for sfx in ["", "c", "k", "kc"] {
            bodies.push(format!("add{sfx} r10, r3, r4\nadd{sfx} r11, r12, r7"));
            bodies.push(format!("rsub{sfx} r10, r3, r4\nrsub{sfx} r11, r7, r5"));
            bodies.push(format!("addi{sfx} r10, r12, 7\naddi{sfx} r11, r3, -9"));
            bodies.push(format!("rsubi{sfx} r10, r4, 100\nrsubi{sfx} r11, r5, -3"));
            bodies.push(format!("add{sfx} r0, r12, r12\naddi{sfx} r0, r3, -1"));
        }
        for op in ["or", "and", "xor", "andn"] {
            bodies.push(format!("{op} r10, r3, r4\n{op}i r11, r5, 0x0f0f\n{op}i r0, r3, -1"));
        }
        for op in ["sra", "src", "srl"] {
            bodies.push(format!("{op} r10, r3\n{op} r11, r5\n{op} r0, r12"));
        }
        for op in ["bsll", "bsrl", "bsra"] {
            bodies.push(format!("{op} r10, r3, r7\n{op}i r11, r5, 31\n{op}i r0, r3, 4"));
        }
        bodies.extend(
            [
                "cmp r10, r3, r4\ncmpu r11, r3, r4\ncmp r13, r5, r5",
                "mul r10, r3, r5\nmuli r11, r4, -3\nmul r0, r3, r3",
                "idiv r10, r7, r5\nidivu r11, r7, r3\nidiv r13, r0, r4\nidiv r14, r12, r3",
                "sext8 r10, r3\nsext16 r11, r5\nsext8 r0, r4",
                "lbu r10, r6, r7\nlhu r11, r6, r0\nlw r13, r6, r0\nlw r0, r6, r0",
                "lbui r10, r6, 5\nlhui r11, r6, 6\nlwi r13, r6, 4",
                "sb r3, r6, r7\nsh r4, r6, r0\nsw r5, r6, r0\nlw r10, r6, r0",
                "sbi r5, r6, 9\nshi r3, r6, 10\nswi r4, r6, 8\nlwi r10, r6, 8",
                // Unconditional branches: relative, absolute, linking and
                // delayed, immediate and register forms.
                "bri target",
                "brid target",
                "brlid r15, target",
                "brai target",
                "braid target",
                "bralid r15, target",
                "br r9",
                "brd r9",
                "brld r15, r9",
                "bra r8",
                "brad r8",
                "brald r15, r8",
                "rtsd r8, 0",
                "rtsd r8, -4",
                // Conditional branches, taken and not taken.
                "beqi r0, target",
                "bnei r0, target",
                "blti r3, target",
                "bleid r4, target",
                "bgtid r4, target",
                "bgei r5, target",
                "beq r0, r9",
                "bned r3, r9",
                "blt r4, r9",
                "bled r5, r9",
                "bgt r3, r9",
                "bged r0, r9",
                // Transfers into empty FIFOs complete; nothing fills the
                // hardware-to-processor side, so each `nget` misses.
                "put r3, rfsl0\naddik r10, r0, 1\ncput r4, rfsl1\nput r5, rfsl0",
                "nput r3, rfsl2\nncput r4, rfsl2\nnget r10, rfsl3\naddc r11, r0, r0\nncget r0, rfsl3",
            ]
            .map(String::from),
        );
        for body in &bodies {
            let (stop, stats, _) = check_block("", body, CpuConfig::full());
            assert_eq!(stop, crate::StopReason::Halted, "{body}");
            // The carry line, `addik r20` and the whole body ran in blocks.
            let lines = body.lines().count() as u64;
            assert!(stats.translated_instructions >= 2 + lines, "{body}: {stats:?}");
        }
    }

    /// A fault in mid-block charges exactly the prefix that ran and the
    /// faulting issue cycle, and leaves the state the interpreter leaves.
    #[test]
    fn a_fault_in_mid_block_matches_the_interpreter() {
        let minimal = CpuConfig::minimal();
        let cases = [
            ("mul r10, r3, r5", minimal),
            ("muli r10, r3, 5", minimal),
            ("idiv r10, r7, r5", CpuConfig::default()),
            ("idivu r10, r7, r5", minimal),
            ("bsll r10, r3, r7", minimal),
            ("bsrai r10, r3, 4", minimal),
            // Past the end of local memory, misaligned, and on an OPB
            // address with no bus attached.
            ("lw r10, r13, r0", CpuConfig::default()),
            ("lhu r10, r6, r7", CpuConfig::default()),
            ("lwi r10, r13, 8", CpuConfig::default()),
            ("sw r3, r12, r0", CpuConfig::default()),
        ];
        for (inst, config) in cases {
            let body = format!("addik r10, r0, 1\n{inst}\naddik r11, r0, 1");
            let (stop, stats, _) = check_block("", &body, config);
            assert!(matches!(stop, crate::StopReason::Fault(_)), "{inst}: {stop:?}");
            assert!(stats.translated_instructions >= 3, "{inst}: {stats:?}");
        }
    }

    /// A store that overwrites the next instruction of its own block
    /// stops the block there: the patched instruction runs, not the
    /// stale op.
    #[test]
    fn a_store_into_the_rest_of_its_block_stops_it() {
        use softsim_isa::{encode, ArithFlags, Reg};
        let patch =
            encode(&Inst::AddI { rd: Reg::new(10), ra: Reg::R0, imm: 99, flags: ArithFlags::KEEP });
        let setup = format!("li r16, {patch:#010x}\nli r17, later");
        let body = "sw r16, r17, r0\nlater:\naddik r10, r0, 1\naddik r11, r10, 1";
        let (stop, stats, _) = check_block(&setup, body, CpuConfig::default());
        assert_eq!(stop, crate::StopReason::Halted);
        assert!(stats.invalidations > 0, "{stats:?}");
    }

    #[test]
    fn straight_line_block_is_bit_exact() {
        assert_equivalent(
            "
            addik r3, r0, 6
            muli  r3, r3, 7
            addik r4, r3, 100
            halt
            ",
            1_000,
        );
    }

    #[test]
    fn loops_and_branches_are_bit_exact() {
        assert_equivalent(
            "
                addik r3, r0, 0
                addik r4, r0, 25
            loop:
                addik r3, r3, 3
                addik r4, r4, -1
                bneid r4, loop
                addik r5, r5, 1
                halt
            ",
            10_000,
        );
    }

    #[test]
    fn translated_run_respects_cycle_budget_exactly() {
        let src = "
            loop:
                addik r3, r3, 1
                brid  loop
                addik r4, r4, 1
        ";
        for budget in 1..40 {
            assert_equivalent(src, budget);
        }
    }

    /// A non-delayed loop chains across its back branch: the run to halt
    /// is one dispatch, and a budget that cuts it anywhere stops it where
    /// the interpreter stops.
    #[test]
    fn a_non_delayed_loop_chains_under_every_budget() {
        let src = "
                addik r4, r0, 6
            loop:
                addik r3, r3, 1
                addik r4, r4, -1
                bnei  r4, loop
                addik r5, r0, 1
                halt
            ";
        for budget in 1..80 {
            assert_equivalent(src, budget);
        }
        let (stop, stats, interpreted) = assert_equivalent_with(src, 1_000, CpuConfig::default());
        assert_eq!(stop, crate::StopReason::Halted);
        assert_eq!((stats.block_dispatches, interpreted), (1, 1), "{stats:?}");
        // The entry block (worst case 6 cycles) fits a budget of 6, the
        // loop block after it (5 more) does not: the chain stops at the
        // loop's head.
        let (mut c, mut f) = cpu(src);
        c.set_translation(true);
        let run = c.run_translated_block(&mut f, 6, &mut |_, _| {});
        assert_eq!(run, TranslatedRun::Ran { cycles: 6 });
        assert_eq!((c.pc(), c.stats().instructions), (4, 4));
    }

    /// A taken delayed branch ends the chain before its slot, which runs
    /// interpreted; each pass of the loop is one dispatch.
    #[test]
    fn a_taken_delayed_branch_ends_the_chain() {
        let src = "
                addik r4, r0, 3
            loop:
                addik r4, r4, -1
                bneid r4, loop
                addik r3, r3, 1
                halt
            ";
        let (mut c, mut f) = cpu(src);
        c.set_translation(true);
        let (run, _) = dispatch(&mut c, &mut f);
        assert_eq!(run, TranslatedRun::Ran { cycles: 4 });
        assert_eq!((c.pc(), c.in_delay_slot, c.delay_target), (12, true, Some(4)));
        for budget in 1..40 {
            assert_equivalent(src, budget);
        }
        let (_, stats, interpreted) = assert_equivalent_with(src, 1_000, CpuConfig::default());
        // Two taken passes each leave a slot to the interpreter; the
        // last pass falls through into the slot's block and chains on.
        assert_eq!((stats.block_dispatches, interpreted), (3, 3), "{stats:?}");
    }

    /// A branch to an unaligned target, or to one outside the loaded
    /// image, ends the chain there; the interpreter takes it from there
    /// (a misaligned fetch faults, zeroed memory slides to its end). The
    /// word the unaligned target falls in starts a cached block, which
    /// must not run from the middle of its first word.
    #[test]
    fn a_branch_off_alignment_or_off_the_image_ends_the_chain() {
        for (target, pc) in [("target + 2", 22), ("0x8000", 0x8000)] {
            let src = format!(
                "   li    r8, {target}
                    bri   target
                back:
                    addik r5, r0, 1
                    bra   r8
                target:
                    addik r4, r4, 2
                    beqi  r5, back
                    halt
                "
            );
            let (mut c, mut f) = cpu(&src);
            c.set_translation(true);
            let (run, _) = dispatch(&mut c, &mut f);
            assert_eq!(run, TranslatedRun::Ran { cycles: 13 }, "{target}");
            assert_eq!(c.pc(), pc, "{target}");
            // The entry block, `target` and `back`; nothing off the image.
            assert_eq!(c.translation_stats().blocks_translated, 3, "{target}");
            for budget in [1, 5, 12, 13, 14, 40, 1_000_000] {
                assert_equivalent(&src, budget);
            }
        }
    }

    /// A store that patches the block its own chain goes on into stops
    /// the dispatch: the patched block is translated again before it
    /// runs.
    #[test]
    fn a_store_into_the_next_block_of_the_chain_stops_it() {
        use softsim_isa::{encode, ArithFlags, Reg};
        let patch =
            encode(&Inst::AddI { rd: Reg::new(10), ra: Reg::R0, imm: 99, flags: ArithFlags::KEEP });
        // The first pass caches `next`; the second patches it on its way
        // there.
        let src = format!(
            "   li    r16, {patch:#010x}
                li    r17, next
                addik r4, r0, 2
            loop:
                addik r4, r4, -1
                beqi  r4, store
                bri   next
            store:
                sw    r16, r17, r0
                bri   next
            next:
                addik r10, r0, 1
                bnei  r4, loop
                halt
            "
        );
        for budget in (1..60).chain([1_000]) {
            assert_equivalent(&src, budget);
        }
        let (mut c, mut f) = cpu(&src);
        c.set_translation(true);
        assert_eq!(c.run(&mut f, 1_000), crate::StopReason::Halted);
        assert_eq!(c.reg(Reg::new(10)), 99, "the patched instruction ran");
        let stats = c.translation_stats();
        assert_eq!((stats.invalidations, stats.block_dispatches), (1, 2), "{stats:?}");
    }

    /// An `imm` prefix fuses with the instruction after it: the pair runs
    /// inside the block, with the latched upper half, before an ALU op
    /// (one that reads the immediate, one that ignores it), a far load
    /// and store, and branches. Only `halt`, and the slot of a taken
    /// delayed branch, run interpreted.
    #[test]
    fn an_imm_pair_runs_inside_its_block() {
        let cases = [
            ("imm 0x1234\naddik r10, r3, 0x5678\nimm 0xffff\nori r11, r0, -1", 1),
            ("imm 0x8000\naddi r10, r12, 1\naddc r11, r0, r0", 1),
            ("imm 5\nadd r10, r3, r4\nimm 7\nbsrli r11, r3, 4", 1),
            // 0xfff8 is near the top of local memory; without the prefix
            // the offset sign-extends onto the OPB and faults.
            ("imm 0\nswi r3, r0, -8\nimm 0\nlwi r10, r0, -8", 1),
            ("imm 0\nbrai target", 1),
            ("imm 0\nbneid r3, target", 2),
        ];
        for (body, interpreted) in cases {
            let (stop, stats, ran) = check_block("", body, CpuConfig::full());
            assert_eq!(stop, crate::StopReason::Halted, "{body}");
            assert_eq!(ran, interpreted, "{body}: {stats:?}");
        }
    }

    /// An `imm` whose next instruction is `halt`, a transfer or another
    /// `imm` does not fuse: it ends its block, and the interpreter runs it
    /// and the instruction that takes its latch.
    #[test]
    fn an_imm_that_cannot_fuse_runs_interpreted() {
        let cases = [
            // The prefix and the `halt`.
            ("imm 0x1234\nhalt", 2),
            // The prefix, the transfer and the final `halt`.
            ("imm 0x1234\nput r3, rfsl0", 3),
            ("imm 0x1234\nnget r10, rfsl0", 3),
            // Both prefixes, the `addik` and the final `halt`.
            ("imm 1\nimm 2\naddik r10, r0, 3", 4),
        ];
        for (body, interpreted) in cases {
            let (stop, stats, ran) = check_block("", body, CpuConfig::full());
            assert_eq!(stop, crate::StopReason::Halted, "{body}");
            assert_eq!(ran, interpreted, "{body}: {stats:?}");
        }
    }

    /// An `imm` as the image's last word has no next instruction inside
    /// the image to fuse with: the block ends before it.
    #[test]
    fn an_imm_as_the_last_word_of_the_image_does_not_fuse() {
        let src = "addik r3, r0, 1\naddik r4, r0, 2\nimm 5";
        let (mut c, mut f) = cpu(src);
        c.set_translation(true);
        let (run, _) = dispatch(&mut c, &mut f);
        assert_eq!(run, TranslatedRun::Ran { cycles: 2 });
        assert_eq!(c.pc(), 8);
        for budget in [1, 2, 3, 4, 10, 1_000_000] {
            assert_equivalent(src, budget);
        }
    }

    /// A fused instruction whose unit the configuration omits faults
    /// inside the block at its own PC, after the prefix retired.
    #[test]
    fn a_fused_instruction_of_an_omitted_unit_faults_in_its_block() {
        let body = "addik r10, r0, 1\nimm 2\nmuli r10, r3, 5\naddik r11, r0, 1";
        let (stop, stats, interpreted) = check_block("", body, CpuConfig::minimal());
        assert!(
            matches!(stop, crate::StopReason::Fault(Fault::DisabledInstruction { .. })),
            "{stop:?}"
        );
        // The faulting `muli` retires nothing; everything before it ran
        // translated.
        assert_eq!(interpreted, 0, "{stats:?}");
    }

    /// A pair that would straddle [`MAX_BLOCK_LEN`] starts the next block
    /// instead: no block grows past the bound `note_store` relies on, and
    /// the pair still fuses.
    #[test]
    fn a_pair_at_the_block_length_bound_is_not_split() {
        for lead in MAX_BLOCK_LEN - 3..=MAX_BLOCK_LEN {
            let src = format!(
                "{}imm 0x1234\naddik r10, r0, 0x5678\naddik r11, r10, 1\nhalt",
                "addik r3, r3, 1\n".repeat(lead)
            );
            for budget in [1, 50, 62, 63, 64, 65, 66, 70] {
                assert_equivalent(&src, budget);
            }
            let (_, stats, interpreted) = assert_equivalent_with(&src, 1_000, CpuConfig::default());
            assert_eq!(interpreted, 1, "lead {lead}: {stats:?}");
            let (mut c, mut f) = cpu(&src);
            c.set_translation(true);
            c.run(&mut f, 1_000);
            let first = c.translator.lookup(0).expect("the entry block is cached");
            let fits = lead + 2 <= MAX_BLOCK_LEN;
            let want = if fits { lead + 3 } else { lead };
            assert_eq!(first.steps.len(), want.min(MAX_BLOCK_LEN), "lead {lead}");
            for block in c.translator.slots.iter().flatten() {
                assert!(block.end - block.start <= 4 * MAX_BLOCK_LEN as u32, "lead {lead}");
            }
        }
    }

    #[test]
    fn dispatch_declines_when_observability_attached() {
        use softsim_trace::{shared, Recorder, TraceEvent};
        let (mut c, mut f) = cpu("addik r3, r0, 1\n halt");
        c.set_translation(true);
        let recorder = std::rc::Rc::new(std::cell::RefCell::new(Recorder::new(64)));
        c.attach_trace(shared(recorder.clone()));
        assert_eq!(c.run_translated_block(&mut f, 1_000, &mut |_, _| {}), TranslatedRun::NotRun);
        assert_eq!(c.run(&mut f, 1_000), crate::StopReason::Halted);
        assert_eq!(c.translation_stats().block_dispatches, 0);
        let events = recorder.borrow().events();
        let retires = events.iter().filter(|e| matches!(e, TraceEvent::Retire { .. })).count();
        assert_eq!(retires, 2);
    }

    #[test]
    fn self_modifying_store_invalidates_and_stays_bit_exact() {
        use softsim_isa::{encode, ArithFlags, Reg};
        // The program overwrites `target` (inside the very block the
        // store executes from) with `addik r6, r0, 99`.
        let patch =
            encode(&Inst::AddI { rd: Reg::new(6), ra: Reg::R0, imm: 99, flags: ArithFlags::KEEP });
        let src = format!(
            "start:\n\
             \tli r3, {patch:#010x}\n\
             \tli r4, target\n\
             \tsw r3, r4, r0\n\
             \taddik r5, r0, 1\n\
             target:\n\
             \taddik r6, r0, 1\n\
             \thalt\n"
        );
        assert_equivalent(&src, 10_000);
        let (mut c, mut f) = cpu(&src);
        c.set_translation(true);
        assert_eq!(c.run(&mut f, 10_000), crate::StopReason::Halted);
        assert_eq!(c.reg(Reg::new(6)), 99, "patched instruction must execute");
        let stats = c.translation_stats();
        assert!(stats.block_dispatches > 0, "fast path never engaged: {stats:?}");
        assert!(stats.invalidations > 0, "store into cached code must invalidate: {stats:?}");
    }

    #[test]
    fn debugger_memory_write_flushes_cached_blocks() {
        use softsim_isa::{encode, ArithFlags, Reg};
        let src = "
            loop:
                addik r3, r3, 1
                brid  loop
                addik r4, r4, 1
        ";
        let img = assemble(src).expect("assemble");
        let patched = encode(&Inst::AddI {
            rd: Reg::new(3),
            ra: Reg::new(3),
            imm: 5,
            flags: ArithFlags::KEEP,
        });
        let run_with = |translation: bool| {
            let mut c = Cpu::with_default_memory(&img);
            c.set_translation(translation);
            let mut f = FslBank::default();
            assert_eq!(c.run(&mut f, 60), crate::StopReason::CycleLimit);
            // Debugger-style patch: the increment becomes 5.
            c.mem_mut().write_u32(0, patched).expect("patch in range");
            assert_eq!(c.run(&mut f, 60), crate::StopReason::CycleLimit);
            (c.reg(Reg::new(3)), c.reg(Reg::new(4)), c.pc(), c.stats(), c.translation_stats())
        };
        let interp = run_with(false);
        let xlated = run_with(true);
        assert_eq!(
            (interp.0, interp.1, interp.2, interp.3),
            (xlated.0, xlated.1, xlated.2, xlated.3)
        );
        assert!(xlated.4.block_dispatches > 0, "fast path never engaged: {:?}", xlated.4);
    }

    /// Everything a restore test compares: stats, PC, carry, registers
    /// and memory.
    fn observe(c: &Cpu) -> (crate::CpuStats, u32, bool, Vec<u32>, Vec<u8>) {
        let regs = (0..32).map(|r| c.reg(softsim_isa::Reg::new(r))).collect();
        (c.stats(), c.pc(), c.carry(), regs, c.mem().bytes().to_vec())
    }

    /// A loop that stores into its data words on every pass.
    const DATA_LOOP: &str = "
            addik r4, r0, 20
        loop:
            addik r3, r3, 7
            swi   r3, r0, data
            addik r4, r4, -1
            bneid r4, loop
            addik r5, r5, 1
            halt
        data:
            .word 0
        ";

    #[test]
    fn restore_with_unchanged_code_keeps_translated_blocks() {
        let (mut c, mut f) = cpu(DATA_LOOP);
        c.set_translation(true);
        let start = c.save_state();
        assert_eq!(c.run(&mut f, 10_000), crate::StopReason::Halted);
        let first = observe(&c);
        let translated = c.translation_stats().blocks_translated;
        assert!(translated > 0);
        // The snapshot's data word differs from memory now; its code
        // does not, so every cached block survives the restore.
        c.load_state(&start);
        assert_eq!(c.run(&mut f, 10_000), crate::StopReason::Halted);
        assert_eq!(observe(&c), first, "the re-run must repeat the first run");
        let stats = c.translation_stats();
        assert_eq!(stats.blocks_translated, translated, "re-run translated again: {stats:?}");
        assert!(stats.block_dispatches > 0);
    }

    /// One action of [`assert_steps_equivalent`]'s script.
    type Action<'a> = &'a dyn Fn(&mut Cpu, &mut FslBank);

    /// Runs `steps` on an interpreted and a translated processor of
    /// `src` side by side and asserts every observable agrees after
    /// each step.
    fn assert_steps_equivalent(src: &str, steps: &[Action<'_>]) {
        let (mut a, mut fa) = cpu(src);
        let (mut b, mut fb) = cpu(src);
        b.set_translation(true);
        for (i, step) in steps.iter().enumerate() {
            step(&mut a, &mut fa);
            step(&mut b, &mut fb);
            assert_eq!(observe(&a), observe(&b), "diverged after step {i}");
        }
        assert!(b.translation_stats().block_dispatches > 0, "fast path never engaged");
    }

    #[test]
    fn restore_with_changed_code_is_bit_exact() {
        use softsim_isa::{encode, ArithFlags, Reg};
        // The loop patches its own body on the fifth pass: the
        // increment becomes 99. Snapshots before and after the patch
        // differ in their code bytes, so each restore must drop the
        // blocks decoded from the other's code.
        let patch = encode(&Inst::AddI {
            rd: Reg::new(3),
            ra: Reg::new(3),
            imm: 99,
            flags: ArithFlags::KEEP,
        });
        let src = format!(
            "   addik r4, r0, 12
                li    r7, {patch:#010x}
                li    r8, body
            loop:
            body:
                addik r3, r3, 1
                xori  r6, r4, 7
                bneid r6, skip
                addik r9, r9, 1
                sw    r7, r8, r0
            skip:
                addik r4, r4, -1
                bneid r4, loop
                addik r5, r5, 1
                halt
            "
        );
        let cell: std::cell::RefCell<Vec<crate::CpuSnapshot>> = Default::default();
        let snaps = &cell;
        let save = |c: &mut Cpu, _: &mut FslBank| snaps.borrow_mut().push(c.save_state());
        let run = |budget: u64| {
            move |c: &mut Cpu, f: &mut FslBank| {
                c.run(f, budget);
            }
        };
        // Each side keeps its own snapshots: even indices interpreted,
        // odd translated (the steps run on both in turn).
        let restore = |k: usize| {
            move |c: &mut Cpu, _: &mut FslBank| {
                let i = 2 * k + usize::from(c.translation());
                let snap = snaps.borrow()[i].clone();
                c.load_state(&snap);
            }
        };
        let (early, late, to_end) = (run(30), run(150), run(10_000));
        let (back_to_0, back_to_1) = (restore(0), restore(1));
        assert_steps_equivalent(
            &src,
            &[&save, &early, &save, &late, &to_end, &back_to_0, &to_end, &back_to_1, &to_end],
        );
        assert_eq!(cell.borrow().len(), 4);
    }

    #[test]
    fn code_bit_flip_after_a_restore_is_bit_exact() {
        let snaps: std::cell::RefCell<Vec<crate::CpuSnapshot>> = Default::default();
        let save = |c: &mut Cpu, _: &mut FslBank| snaps.borrow_mut().push(c.save_state());
        let to_end = |c: &mut Cpu, f: &mut FslBank| {
            c.run(f, 10_000);
        };
        let restore = |c: &mut Cpu, _: &mut FslBank| {
            let snap = snaps.borrow()[usize::from(c.translation())].clone();
            c.load_state(&snap);
        };
        // What a `MemBitFlip` fault does: flip one bit of a code word
        // (the loop's `addik r3, r3, 7` becomes `addik r3, r3, 5`)
        // through the debugger's memory access.
        let flip = |c: &mut Cpu, _: &mut FslBank| {
            let word = c.mem().read_u32(4).unwrap();
            c.mem_mut().write_u32(4, word ^ 2).unwrap();
        };
        assert_steps_equivalent(DATA_LOOP, &[&save, &to_end, &restore, &flip, &to_end]);
    }

    /// A jump past the loaded program into zeroed memory slides through
    /// `add r0, r0, r0` words to the end of memory and faults there. The
    /// slide runs interpreted: bit-exact, and it leaves no blocks.
    #[test]
    fn code_outside_the_image_runs_interpreted() {
        let src = "
                addik r4, r0, 3
            loop:
                addik r4, r4, -1
                bneid r4, loop
                nop
                li    r3, 0x8000
                bra   r3
            ";
        assert_equivalent(src, 1_000_000);
        let (mut c, mut f) = cpu(src);
        c.set_translation(true);
        let stop = c.run(&mut f, 1_000_000);
        assert!(matches!(stop, crate::StopReason::Fault(_)), "{stop:?}");
        assert!(c.stats().instructions > 8_000, "the slide ran: {:?}", c.stats());
        let stats = c.translation_stats();
        assert!(stats.block_dispatches > 0, "{stats:?}");
        // The program has five blocks; the slide alone would add 128.
        assert!(stats.blocks_translated <= 5, "the slide was translated: {stats:?}");
    }

    #[test]
    fn translation_engages_on_eligible_runs() {
        let (mut c, mut f) = cpu("
                addik r4, r0, 10
            loop:
                addik r3, r3, 1
                bneid r4, loop
                addik r4, r4, -1
                halt
            ");
        c.set_translation(true);
        assert_eq!(c.run(&mut f, 100_000), crate::StopReason::Halted);
        let stats = c.translation_stats();
        assert!(stats.block_dispatches > 0, "fast path never engaged: {stats:?}");
        assert!(stats.translated_instructions > 0);
    }

    /// The program every transfer-sync test dispatches: one block of an
    /// `addik`, a blocking `put` and another `addik`.
    const MID_BLOCK_PUT: &str = "
            addik r3, r0, 5
            put   r3, rfsl0
            addik r4, r0, 1
            halt
        ";

    /// Dispatches the block at the current PC, recording every `sync`
    /// call's cycle.
    fn dispatch(c: &mut Cpu, f: &mut FslBank) -> (TranslatedRun, Vec<u64>) {
        let mut syncs = Vec::new();
        let run = c.run_translated_block(f, 1_000, &mut |_, at| syncs.push(at));
        (run, syncs)
    }

    /// With room in the FIFO, one dispatch runs across a mid-block
    /// `put`: `sync` runs once, at the `put`'s issue cycle, and the
    /// block's cycles include the two of the transfer.
    #[test]
    fn a_block_runs_through_a_transfer_that_completes() {
        let (mut c, mut f) = cpu(MID_BLOCK_PUT);
        c.set_translation(true);
        c.stats.cycles = 10;
        let (run, syncs) = dispatch(&mut c, &mut f);
        assert_eq!(run, TranslatedRun::Ran { cycles: 4 });
        assert_eq!(syncs, [11], "sync once, at the put's issue cycle");
        assert_eq!((c.pc(), c.stats().cycles, c.stats().instructions), (12, 14, 3));
        assert_eq!(c.stats().fsl_words_sent, 1);
        assert_eq!(f.to_hw_ref(0).len(), 1);
        let stats = c.translation_stats();
        assert_eq!((stats.block_dispatches, stats.translated_instructions), (1, 3));
        assert_equivalent(MID_BLOCK_PUT, 1_000);
    }

    /// With the FIFO full, the block ends before the `put` and charges
    /// nothing for it: no rejection, no stall; the interpreter issues it.
    #[test]
    fn a_block_ends_before_a_transfer_that_would_stall() {
        let (mut c, mut f) = cpu(MID_BLOCK_PUT);
        c.set_translation(true);
        while f.to_hw(0).try_push(softsim_bus::FslWord { data: 0, control: false }) {}
        let fifo = f.to_hw_ref(0).stats();
        let (run, syncs) = dispatch(&mut c, &mut f);
        assert_eq!(run, TranslatedRun::Ran { cycles: 1 });
        assert_eq!(syncs, [1]);
        assert_eq!((c.pc(), c.stats().cycles, c.stats().instructions), (4, 1, 1));
        assert_eq!(f.to_hw_ref(0).stats(), fifo, "no rejection charged");
        assert_eq!((c.stats().fsl_write_stalls, c.inst_write_stalls), (0, 0));
        assert_eq!(c.translation_stats().translated_instructions, 1);
    }

    /// A block whose first step is a blocking `get` from an empty FIFO
    /// does not run and changes no state; the interpreter then stalls on
    /// the `get` as it would without translation.
    #[test]
    fn a_block_entered_at_a_blocked_transfer_does_not_run() {
        let src = "get r3, rfsl0\naddik r4, r0, 1\nhalt";
        let (mut c, mut f) = cpu(src);
        c.set_translation(true);
        let (cpu_before, fsl_before) = (c.save_state(), f.save_state());
        let (run, syncs) = dispatch(&mut c, &mut f);
        assert_eq!(run, TranslatedRun::NotRun);
        assert_eq!(syncs, [0]);
        assert_eq!(c.save_state(), cpu_before);
        assert_eq!(f.save_state(), fsl_before);
        assert_eq!(c.translation_stats().block_dispatches, 0);
        for budget in [1, 5, 40] {
            assert_equivalent(src, budget);
        }
    }
}
