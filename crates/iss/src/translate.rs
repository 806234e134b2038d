//! Translated basic-block execution — the ISS fast path.
//!
//! Following Schnerr et al.'s cycle-accurate binary translation, the
//! interpreter's per-cycle fetch/decode/dispatch loop is replaced, on
//! hot straight-line code, by a *basic-block cache*: the first time
//! execution reaches a PC, the instructions from that PC up to the next
//! control-flow or interaction boundary are decoded **once** and stored
//! with their cycle costs annotated at translation time. Re-entering
//! the block then replays the pre-decoded instructions back to back —
//! no refetch, no redecode, no per-cycle pipeline state machine — while
//! charging exactly the cycles the interpreter would have.
//!
//! # Block boundaries
//!
//! A block extends from its entry PC to the first of:
//!
//! * a **branch** (`br`/`bcc`/`rtsd`) — included as the final step, so
//!   the taken/not-taken cycle split annotated at translation time is
//!   applied from the run-time [`ExecOutcome`];
//! * an **FSL instruction** (`get`/`put`) — excluded: blocking
//!   semantics need the per-cycle retry loop of [`Cpu::tick`];
//! * an **`imm` prefix** — excluded: the prefixed pair executes
//!   interpreted so the latch never spans a dispatch boundary;
//! * **`halt`**, an undecodable word, or the end of the loaded program
//!   image — excluded (the interpreter raises the identical fault/halt,
//!   and code outside the image always runs interpreted);
//! * [`MAX_BLOCK_LEN`] instructions (a translation-size bound).
//!
//! # Determinism boundary
//!
//! Dispatch refuses (falls back to the interpreter, bit-exactly) when
//! anything needs per-instruction or per-cycle visibility: an attached
//! trace sink or architectural trace, breakpoints, an OPB bus, a
//! pending `imm` latch or delay slot, a pipeline that is not at an
//! instruction boundary, or a block whose worst-case cycles exceed the
//! remaining budget (the interpreter then single-steps to the exact
//! mid-instruction stop state). Stores into cached code invalidate the
//! covering blocks and stop the current block at the next step, so
//! self-modifying programs re-translate and stay bit-exact. A snapshot
//! restore keeps every cached block when the restored bytes of the
//! cached code range equal the current ones, and flushes the cache
//! otherwise.

use crate::cpu::{Cpu, ExecOutcome, Pipe};
use crate::fault::Fault;
use softsim_bus::FslBank;
use softsim_isa::{decode, Inst};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

/// Upper bound on instructions per translated block.
const MAX_BLOCK_LEN: usize = 64;

/// Cached-code pages are `1 << PAGE_SHIFT` bytes: the invalidation
/// index maps a store's page to the blocks that overlap it.
const PAGE_SHIFT: u32 = 8;

/// Counters describing the translation cache (observer state: never
/// part of snapshots, never affects architectural results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Basic blocks decoded into the cache (including empty ones that
    /// only record a boundary).
    pub blocks_translated: u64,
    /// Successful block dispatches by the run loop.
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
    /// A block (or a prefix of one, when invalidated mid-flight)
    /// executed; `cycles` were consumed and the pipeline is back at an
    /// instruction boundary.
    Ran {
        /// Cycles charged (identical to what the interpreter charges).
        cycles: u64,
    },
    /// An instruction in the block faulted; the processor is halted,
    /// exactly as [`Cpu::tick`] would leave it.
    Faulted {
        /// Cycles charged up to and including the faulting issue cycle.
        cycles: u64,
        /// The fault, as the interpreter would report it.
        fault: Fault,
    },
}

/// One pre-decoded instruction with its translation-time cycle costs.
#[derive(Debug, Clone)]
struct Step {
    inst: Inst,
    /// Cycles when the instruction completes normally (`base_cycles`;
    /// OPB latency cannot occur — dispatch requires no OPB bus).
    base: u32,
    /// Cycles when a branch is taken (`base_cycles + taken_penalty`).
    taken: u32,
}

/// A translated basic block.
#[derive(Debug)]
struct Block {
    steps: Vec<Step>,
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
    /// Page index for store invalidation: page number → entry PCs of
    /// blocks overlapping that page (entries may go stale after an
    /// invalidation; lookups skip PCs no longer cached).
    by_page: HashMap<u32, Vec<u32>>,
    /// Bumped on every invalidation/flush; an executing block re-checks
    /// it each step so a self-modifying store stops translated
    /// execution before any stale decode is used.
    generation: u64,
    /// Conservative watermarks over every cached block's `[start, end)`
    /// — `note_store` rejects stores outside `[code_lo, code_hi)` with
    /// two compares, so data-section stores (the overwhelming majority)
    /// never touch the page index. Only grown on insert; reset on
    /// [`Translator::flush`].
    code_lo: u32,
    code_hi: u32,
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
            by_page: HashMap::new(),
            generation: 0,
            code_lo: u32::MAX,
            code_hi: 0,
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
        self.by_page.clear();
        self.code_lo = u32::MAX;
        self.code_hi = 0;
        self.generation += 1;
    }

    /// The byte range `[code_lo, code_hi)` every cached block was
    /// decoded from (empty when no block covers code). A restore that
    /// leaves these bytes as they are leaves every cached block valid.
    pub(crate) fn code_range(&self) -> std::ops::Range<usize> {
        self.code_lo.min(self.code_hi) as usize..self.code_hi as usize
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
    /// of every store while translation is off — to two compares.
    pub(crate) fn note_store(&mut self, addr: u32) {
        // Saturating: a store at the very top of the address space can
        // only be over-covered, which at worst invalidates one extra
        // block (conservative, still bit-exact).
        let last = addr.saturating_add(3);
        if last < self.code_lo || addr >= self.code_hi {
            return;
        }
        let (lo, hi) = (addr >> PAGE_SHIFT, last >> PAGE_SHIFT);
        let mut doomed: Vec<u32> = Vec::new();
        for page in lo..=hi {
            if let Some(bucket) = self.by_page.get(&page) {
                for &start in bucket {
                    if let Some(b) = self.lookup(start) {
                        if last >= b.start && addr < b.end {
                            doomed.push(start);
                        }
                    }
                }
            }
        }
        for start in doomed {
            self.evict(start);
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
            // The slot cache is direct-mapped by word index; an
            // unaligned PC would alias the aligned word's slot.
            && self.pc & 3 == 0
            && self.translator.image.contains(&self.pc)
    }

    /// Decodes the basic block starting at `pc` into the cache. Returns
    /// the cached block (possibly empty when `pc` sits directly on a
    /// boundary instruction — cached anyway so repeat dispatches don't
    /// re-decode).
    fn translate_block(&mut self, pc: u32) -> Rc<Block> {
        // Grow the direct-mapped slot table up to the highest entry PC
        // translated (inside the program, so inside guest memory);
        // `flush` drops it, so re-grow lazily here.
        let index = (pc >> 2) as usize;
        if index >= self.translator.slots.len() {
            self.translator.slots.resize(index + 1, None);
        }
        let mut steps = Vec::new();
        let mut at = pc;
        let mut worst: u64 = 0;
        while steps.len() < MAX_BLOCK_LEN && self.translator.image.contains(&at) {
            let Ok(word) = self.mem.read_u32(at) else { break };
            let Ok(inst) = decode(word) else { break };
            if matches!(inst, Inst::Get { .. } | Inst::Put { .. } | Inst::Imm { .. } | Inst::Halt) {
                break;
            }
            let base = inst.base_cycles();
            let taken = base + inst.taken_penalty();
            worst += base.max(taken) as u64;
            let is_branch = inst.is_branch();
            steps.push(Step { inst, base, taken });
            at = at.wrapping_add(4);
            if is_branch {
                break;
            }
        }
        let block = Rc::new(Block { steps, start: pc, end: at, worst_cycles: worst });
        self.translator.stats.blocks_translated += 1;
        // Empty blocks cover no code bytes, so they never join the page
        // index or widen the store-filter watermarks (and `end - 1`
        // would wrap at pc 0).
        if !block.steps.is_empty() {
            self.translator.code_lo = self.translator.code_lo.min(block.start);
            self.translator.code_hi = self.translator.code_hi.max(block.end);
            for page in (block.start >> PAGE_SHIFT)..=((block.end - 1) >> PAGE_SHIFT) {
                let bucket = self.translator.by_page.entry(page).or_default();
                if !bucket.contains(&pc) {
                    bucket.push(pc);
                }
            }
        }
        if let Some(slot) = self.translator.slots.get_mut((pc >> 2) as usize) {
            if slot.replace(block.clone()).is_none() {
                self.translator.cached += 1;
            }
        }
        block
    }

    /// Executes one translated basic block at the current PC, charging
    /// at most `max_cycles` cycles, or returns
    /// [`TranslatedRun::NotRun`] without touching any state when the
    /// fast path is ineligible here (the caller then falls back to
    /// [`Cpu::tick`], which produces bit-identical results).
    ///
    /// The bulk loop replays exactly what `issue` + `retire` do for
    /// each instruction — same statistics, same PC sequencing, same
    /// fault behavior — minus the per-cycle pipeline bookkeeping that
    /// is unobservable between instruction boundaries.
    pub fn run_translated_block(&mut self, fsl: &mut FslBank, max_cycles: u64) -> TranslatedRun {
        if !self.translation_eligible() {
            return TranslatedRun::NotRun;
        }
        let entry = self.pc;
        let block = match self.translator.lookup(entry) {
            Some(b) => b.clone(),
            None => self.translate_block(entry),
        };
        if block.steps.is_empty() || block.worst_cycles > max_cycles {
            return TranslatedRun::NotRun;
        }
        self.translator.stats.block_dispatches += 1;
        let generation = self.translator.generation;
        // `issue` clears the breakpoint-resume latch on every issued
        // instruction; breakpoints are empty here, but the latch itself
        // must end up in the same state.
        self.bp_skip = None;
        let mut executed: u64 = 0;
        let mut pc = entry;
        for step in &block.steps {
            // issue(): charge the issue cycle, reset the per-instruction
            // attribution, execute architecturally.
            self.inst_start = self.stats.cycles;
            self.inst_read_stalls = 0;
            self.inst_write_stalls = 0;
            self.stats.cycles += 1;
            executed += 1;
            self.extra_cycles = 0;
            let cycles = match self.execute(pc, &step.inst, fsl) {
                Ok(ExecOutcome::Normal) => step.base,
                Ok(ExecOutcome::Taken) => {
                    self.stats.taken_branches += 1;
                    step.taken
                }
                // FSL instructions terminate blocks before themselves.
                Ok(ExecOutcome::FslBlocked) => unreachable!("FSL instruction inside a block"),
                Err(fault) => {
                    // fault(): the issue cycle is charged, nothing
                    // retires, the processor halts.
                    self.halted = true;
                    return TranslatedRun::Faulted { cycles: executed, fault };
                }
            };
            // Pipeline occupancy for the remaining cycles, all at once.
            let occupancy = (cycles.max(1) - 1) as u64;
            self.stats.cycles += occupancy;
            executed += occupancy;
            // retire(): count it and sequence the PC. `in_delay_slot`
            // can only become true on the block's final step (a taken
            // delayed branch), so the first arm never fires in-block —
            // kept for exact structural parity with `retire`.
            self.stats.instructions += 1;
            self.translator.stats.translated_instructions += 1;
            if self.in_delay_slot {
                self.in_delay_slot = false;
                self.pc = self.delay_target.take().expect("delay slot without target");
            } else if self.delay_target.is_some() && step.inst.has_delay_slot() {
                self.in_delay_slot = true;
                self.pc = pc.wrapping_add(4);
            } else if let Some(target) = self.redirect.take() {
                self.pc = target;
            } else {
                self.pc = pc.wrapping_add(4);
            }
            pc = self.pc;
            // A store just invalidated cached code (possibly the rest of
            // this very block): stop before using any stale decode.
            if self.translator.generation != generation {
                break;
            }
        }
        TranslatedRun::Ran { cycles: executed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_isa::asm::assemble;

    fn cpu(src: &str) -> (Cpu, FslBank) {
        let img = assemble(src).expect("assemble");
        (Cpu::with_default_memory(&img), FslBank::default())
    }

    /// The same program, interpreted vs translated, must agree on
    /// every architectural observable and every statistic.
    fn assert_equivalent(src: &str, budget: u64) {
        let (mut a, mut fa) = cpu(src);
        let (mut b, mut fb) = cpu(src);
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

    #[test]
    fn fault_in_block_matches_interpreter() {
        // The load at +8 goes out of range mid-block.
        assert_equivalent(
            "
            addik r3, r0, 4096
            bslli r3, r3, 8
            lw    r4, r3, r3
            halt
            ",
            1_000,
        );
    }

    #[test]
    fn dispatch_declines_when_observability_attached() {
        use softsim_trace::{shared, Recorder, TraceEvent};
        let (mut c, mut f) = cpu("addik r3, r0, 1\n halt");
        c.set_translation(true);
        let recorder = std::rc::Rc::new(std::cell::RefCell::new(Recorder::new(64)));
        c.attach_trace(shared(recorder.clone()));
        assert_eq!(c.run_translated_block(&mut f, 1_000), TranslatedRun::NotRun);
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
}
