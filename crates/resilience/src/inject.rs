//! The deterministic fault injector.
//!
//! Faults model single-event upsets (SEUs) and protocol errors at the
//! abstraction level the co-simulator works at: architectural register
//! bits, local-memory words, words sitting in FSL FIFOs, and the FIFO
//! handshake itself (dropped/duplicated words, stuck `full`/`exists`
//! flags). Injection schedules are plain data — `(cycle, kind)` pairs —
//! so a campaign seeded from [`softsim_testkit::Rng`] replays exactly.

use softsim_cosim::CoSim;
use softsim_isa::Reg;
use softsim_testkit::Rng;
use softsim_trace::{FifoDir, InjectionSite, SharedSink, TraceEvent};

/// One fault to apply to the design under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of a general-purpose register. Targeting `r0` is
    /// vacuous by construction (it is hardwired to zero).
    RegBitFlip {
        /// Register number (0–31).
        reg: u8,
        /// Bit position (0–31).
        bit: u8,
    },
    /// Flip one bit of an aligned local-memory word.
    MemBitFlip {
        /// Word-aligned byte address.
        addr: u32,
        /// Bit position (0–31).
        bit: u8,
    },
    /// Flip one bit of a word currently buffered in an FSL FIFO.
    /// `bit == 32` flips the control flag instead of a data bit.
    FifoBitFlip {
        /// FIFO direction relative to the processor.
        dir: FifoDir,
        /// Channel number (0–7).
        channel: u8,
        /// Position in the FIFO (0 = head); vacuous past the occupancy.
        index: u8,
        /// Bit position (0–31 data, 32 control).
        bit: u8,
    },
    /// Silently drop the head word of an FSL FIFO (a lost transfer).
    FifoDrop {
        /// FIFO direction relative to the processor.
        dir: FifoDir,
        /// Channel number (0–7).
        channel: u8,
    },
    /// Duplicate the head word of an FSL FIFO (a replayed transfer).
    FifoDuplicate {
        /// FIFO direction relative to the processor.
        dir: FifoDir,
        /// Channel number (0–7).
        channel: u8,
    },
    /// Permanently stick the `full` flag of a processor → hardware
    /// channel: every subsequent blocking `put` stalls forever.
    StuckFull {
        /// Channel number (0–7).
        channel: u8,
    },
    /// Permanently stick the `exists` flag of a hardware → processor
    /// channel deasserted: every subsequent blocking `get` stalls
    /// forever.
    StuckEmpty {
        /// Channel number (0–7).
        channel: u8,
    },
    /// Flip one bit of a peripheral block's sequential state — an SEU in
    /// the configured hardware itself (a CORDIC pipeline register, a
    /// matmul accumulator), the fault class TMR hardening exists for.
    /// Vacuous when the design has no peripherals or no sequential state.
    BlockStateFlip {
        /// Peripheral index (wrapped modulo the attached count).
        peripheral: u8,
        /// Index into the graph's flat state words (wrapped modulo the
        /// word count).
        word: u32,
        /// Bit position (0–63, wrapped).
        bit: u8,
    },
    /// Deliberately panic the *harness* (not the simulated design) —
    /// the crash-test fault trial isolation is exercised against.
    /// [`Injector::apply`] panics with a fixed message; the campaign
    /// runners catch it and classify the trial
    /// [`crate::Outcome::HarnessError`] while sibling trials complete.
    /// Never emitted by the seeded plan generators.
    HarnessPanic,
}

impl FaultKind {
    /// The coarse trace-event site of this fault.
    pub fn site(&self) -> InjectionSite {
        match self {
            FaultKind::RegBitFlip { .. } => InjectionSite::Register,
            FaultKind::MemBitFlip { .. } => InjectionSite::Memory,
            FaultKind::FifoBitFlip { .. } => InjectionSite::FifoWord,
            FaultKind::FifoDrop { .. }
            | FaultKind::FifoDuplicate { .. }
            | FaultKind::StuckFull { .. }
            | FaultKind::StuckEmpty { .. } => InjectionSite::Protocol,
            FaultKind::BlockStateFlip { .. } => InjectionSite::Block,
            FaultKind::HarnessPanic => InjectionSite::Harness,
        }
    }

    /// Site-specific detail word carried in the trace event.
    fn detail(&self) -> u32 {
        match *self {
            FaultKind::RegBitFlip { reg, bit } => (reg as u32) << 8 | bit as u32,
            FaultKind::MemBitFlip { addr, .. } => addr,
            FaultKind::FifoBitFlip { channel, index, bit, .. } => {
                (channel as u32) << 16 | (index as u32) << 8 | bit as u32
            }
            FaultKind::FifoDrop { channel, .. }
            | FaultKind::FifoDuplicate { channel, .. }
            | FaultKind::StuckFull { channel }
            | FaultKind::StuckEmpty { channel } => channel as u32,
            FaultKind::BlockStateFlip { peripheral, word, bit } => {
                (peripheral as u32) << 24 | (word & 0xFFFF) << 8 | bit as u32
            }
            FaultKind::HarnessPanic => 0,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::RegBitFlip { reg, bit } => write!(f, "flip bit {bit} of r{reg}"),
            FaultKind::MemBitFlip { addr, bit } => {
                write!(f, "flip bit {bit} of memory word {addr:#010x}")
            }
            FaultKind::FifoBitFlip { dir, channel, index, bit } if bit >= 32 => {
                write!(f, "flip the control flag of word {index} in {} FSL {channel}", dir.label())
            }
            FaultKind::FifoBitFlip { dir, channel, index, bit } => {
                write!(f, "flip bit {bit} of word {index} in {} FSL {channel}", dir.label())
            }
            FaultKind::FifoDrop { dir, channel } => {
                write!(f, "drop the head word of {} FSL {channel}", dir.label())
            }
            FaultKind::FifoDuplicate { dir, channel } => {
                write!(f, "duplicate the head word of {} FSL {channel}", dir.label())
            }
            FaultKind::StuckFull { channel } => {
                write!(f, "stick the full flag of to_hw FSL {channel}")
            }
            FaultKind::StuckEmpty { channel } => {
                write!(f, "stick the exists flag of from_hw FSL {channel} low")
            }
            FaultKind::BlockStateFlip { peripheral, word, bit } => {
                write!(f, "flip bit {bit} of state word {word} in peripheral {peripheral}")
            }
            FaultKind::HarnessPanic => {
                write!(f, "panic the harness (deliberate crash-test fault)")
            }
        }
    }
}

/// A scheduled fault: apply `kind` once the simulation reaches `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Cycle at which to apply the fault.
    pub cycle: u64,
    /// The fault.
    pub kind: FaultKind,
}

impl std::fmt::Display for Injection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at cycle {}: {}", self.cycle, self.kind)
    }
}

/// Applies a schedule of [`Injection`]s to a running co-simulation.
///
/// Call [`Injector::poll`] after every [`CoSim::step`]; every injection
/// whose cycle has been reached is applied exactly once, in schedule
/// order. Each applied fault is emitted as a
/// [`TraceEvent::FaultInjected`] on the injector's own sink, so fault
/// campaigns can be correlated against the rest of the cycle-domain
/// trace.
#[derive(Clone, Default)]
pub struct Injector {
    plan: Vec<Injection>,
    next: usize,
    sink: Option<SharedSink>,
    applied: u64,
    vacuous: u64,
}

impl Injector {
    /// An injector for the given schedule (sorted by cycle internally;
    /// ties keep their relative order).
    pub fn new(mut plan: Vec<Injection>) -> Injector {
        plan.sort_by_key(|i| i.cycle);
        Injector { plan, next: 0, sink: None, applied: 0, vacuous: 0 }
    }

    /// Attaches a trace sink for [`TraceEvent::FaultInjected`] events.
    pub fn attach_trace(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// The remaining (not yet applied) schedule.
    pub fn pending(&self) -> &[Injection] {
        &self.plan[self.next.min(self.plan.len())..]
    }

    /// Faults that changed simulator state when applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Faults that hit nothing (empty FIFO slot, register `r0`,
    /// out-of-range address) and left the state unchanged.
    pub fn vacuous(&self) -> u64 {
        self.vacuous
    }

    /// True once every scheduled injection has been applied.
    pub fn done(&self) -> bool {
        self.next >= self.plan.len()
    }

    /// Cycle of the next not-yet-applied injection, if any. Stall
    /// fast-forwarding uses this as an activity horizon: a jump must
    /// never skip past a scheduled fault, so callers cap their run
    /// budget at this cycle before letting the engine coalesce stalls.
    pub fn next_cycle(&self) -> Option<u64> {
        self.plan.get(self.next).map(|i| i.cycle)
    }

    /// Applies every injection whose cycle the simulation has reached.
    pub fn poll(&mut self, sim: &mut CoSim) {
        let now = sim.cpu().stats().cycles;
        while let Some(inj) = self.plan.get(self.next).copied() {
            if inj.cycle > now {
                break;
            }
            self.next += 1;
            let changed = Injector::apply(sim, inj.kind);
            if changed {
                self.applied += 1;
            } else {
                self.vacuous += 1;
            }
            if let Some(sink) = &self.sink {
                sink.borrow_mut().event(&TraceEvent::FaultInjected {
                    cycle: now,
                    site: inj.kind.site(),
                    detail: inj.kind.detail(),
                });
            }
        }
    }

    /// Applies one fault immediately. Returns `true` when the simulator
    /// state actually changed; `false` for vacuous hits (flipping a bit
    /// of `r0`, corrupting an empty FIFO slot, addressing past memory).
    pub fn apply(sim: &mut CoSim, kind: FaultKind) -> bool {
        match kind {
            FaultKind::RegBitFlip { reg, bit } => {
                let r = Reg::new(reg % 32);
                if r.is_zero() {
                    return false;
                }
                let old = sim.cpu().reg(r);
                sim.cpu_mut().set_reg(r, old ^ (1 << (bit % 32)));
                true
            }
            FaultKind::MemBitFlip { addr, bit } => {
                let addr = addr & !3;
                let Ok(old) = sim.cpu().mem().read_u32(addr) else {
                    return false;
                };
                sim.cpu_mut()
                    .mem_mut()
                    .write_u32(addr, old ^ (1 << (bit % 32)))
                    .expect("readable word is writable");
                true
            }
            FaultKind::FifoBitFlip { dir, channel, index, bit } => {
                let fsl = sim.fsl_mut();
                let fifo = match dir {
                    FifoDir::ToHw => fsl.to_hw(channel as usize % 8),
                    FifoDir::FromHw => fsl.from_hw(channel as usize % 8),
                };
                match fifo.word_mut(index as usize) {
                    Some(w) if bit >= 32 => {
                        w.control = !w.control;
                        true
                    }
                    Some(w) => {
                        w.data ^= 1 << bit;
                        true
                    }
                    None => false,
                }
            }
            FaultKind::FifoDrop { dir, channel } => {
                let fsl = sim.fsl_mut();
                let fifo = match dir {
                    FifoDir::ToHw => fsl.to_hw(channel as usize % 8),
                    FifoDir::FromHw => fsl.from_hw(channel as usize % 8),
                };
                fifo.remove_word(0).is_some()
            }
            FaultKind::FifoDuplicate { dir, channel } => {
                let fsl = sim.fsl_mut();
                let fifo = match dir {
                    FifoDir::ToHw => fsl.to_hw(channel as usize % 8),
                    FifoDir::FromHw => fsl.from_hw(channel as usize % 8),
                };
                fifo.duplicate_head()
            }
            FaultKind::StuckFull { channel } => {
                sim.fsl_mut().to_hw(channel as usize % 8).set_stuck_full(true);
                true
            }
            FaultKind::StuckEmpty { channel } => {
                sim.fsl_mut().from_hw(channel as usize % 8).set_stuck_empty(true);
                true
            }
            FaultKind::BlockStateFlip { peripheral, word, bit } => {
                let peripherals = sim.peripherals_mut();
                if peripherals.is_empty() {
                    return false;
                }
                let g = peripherals[peripheral as usize % peripherals.len()].graph_mut();
                let mut st = g.save_state();
                if st.block_words.is_empty() {
                    return false;
                }
                let idx = word as usize % st.block_words.len();
                st.block_words[idx] ^= 1 << (bit % 64);
                g.load_state(&st);
                true
            }
            FaultKind::HarnessPanic => {
                panic!("deliberate harness panic (FaultKind::HarnessPanic)")
            }
        }
    }
}

/// Generates a deterministic random injection schedule: `n` faults with
/// cycles drawn uniformly from `[window.0, window.1)`, sites spread over
/// registers, the first `mem_bytes` of memory, and the given FSL
/// `channels`. Identical arguments always produce the identical plan —
/// the determinism the campaign runner and CI gate rely on.
///
/// # Panics
/// Panics if the window is empty or `channels` is empty.
pub fn random_plan(
    seed: u64,
    n: usize,
    window: (u64, u64),
    mem_bytes: u32,
    channels: &[u8],
) -> Vec<Injection> {
    assert!(window.1 > window.0, "empty injection window");
    assert!(!channels.is_empty(), "need at least one FSL channel");
    let mut rng = Rng::new(seed);
    let mut plan = Vec::with_capacity(n);
    for _ in 0..n {
        let cycle = window.0 + rng.below(window.1 - window.0);
        let channel = *rng.pick(channels);
        let dir = if rng.flip() { FifoDir::ToHw } else { FifoDir::FromHw };
        let kind = match rng.below(7) {
            0 => FaultKind::RegBitFlip {
                reg: rng.range_u32(1, 32) as u8,
                bit: rng.range_u32(0, 32) as u8,
            },
            1 => FaultKind::MemBitFlip {
                addr: (rng.below(mem_bytes as u64 / 4) as u32) * 4,
                bit: rng.range_u32(0, 32) as u8,
            },
            2 => FaultKind::FifoBitFlip {
                dir,
                channel,
                index: rng.range_u32(0, 4) as u8,
                bit: rng.range_u32(0, 33) as u8,
            },
            3 => FaultKind::FifoDrop { dir, channel },
            4 => FaultKind::FifoDuplicate { dir, channel },
            5 => FaultKind::StuckFull { channel },
            _ => FaultKind::StuckEmpty { channel },
        };
        plan.push(Injection { cycle, kind });
    }
    plan.sort_by_key(|i| i.cycle);
    plan
}

/// Like [`random_plan`], but the site mix also covers SEUs inside the
/// configured hardware ([`FaultKind::BlockStateFlip`]) — the fault class
/// the TMR-hardened variants are built against. A separate generator
/// rather than a new case in [`random_plan`] keeps every historical
/// seed's plan (and therefore every committed campaign report)
/// byte-identical.
///
/// # Panics
/// Panics if the window is empty or `channels` is empty.
pub fn random_plan_hardware(
    seed: u64,
    n: usize,
    window: (u64, u64),
    mem_bytes: u32,
    channels: &[u8],
) -> Vec<Injection> {
    assert!(window.1 > window.0, "empty injection window");
    assert!(!channels.is_empty(), "need at least one FSL channel");
    let mut rng = Rng::new(seed);
    let mut plan = Vec::with_capacity(n);
    for _ in 0..n {
        let cycle = window.0 + rng.below(window.1 - window.0);
        let channel = *rng.pick(channels);
        let dir = if rng.flip() { FifoDir::ToHw } else { FifoDir::FromHw };
        let kind = match rng.below(8) {
            0 => FaultKind::RegBitFlip {
                reg: rng.range_u32(1, 32) as u8,
                bit: rng.range_u32(0, 32) as u8,
            },
            1 => FaultKind::MemBitFlip {
                addr: (rng.below(mem_bytes as u64 / 4) as u32) * 4,
                bit: rng.range_u32(0, 32) as u8,
            },
            2 => FaultKind::FifoBitFlip {
                dir,
                channel,
                index: rng.range_u32(0, 4) as u8,
                bit: rng.range_u32(0, 33) as u8,
            },
            3 => FaultKind::FifoDrop { dir, channel },
            4 => FaultKind::FifoDuplicate { dir, channel },
            5 => FaultKind::StuckFull { channel },
            6 => FaultKind::StuckEmpty { channel },
            _ => FaultKind::BlockStateFlip {
                peripheral: 0,
                word: rng.below(256) as u32,
                bit: rng.range_u32(0, 32) as u8,
            },
        };
        plan.push(Injection { cycle, kind });
    }
    plan.sort_by_key(|i| i.cycle);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_apps::cordic::hardware::cordic_peripheral;
    use softsim_apps::cordic::reference::to_fix;
    use softsim_apps::cordic::software::{hw_program, CordicBatch};
    use softsim_bus::FslWord;
    use softsim_isa::asm::assemble;

    /// Every fault [`Injector::apply`] reports as vacuous on `sim`, whose
    /// channel 0 FIFOs are empty and whose to-hardware channel 1 is full.
    fn vacuous_faults(sim: &CoSim) -> Vec<FaultKind> {
        let mut faults = vec![
            FaultKind::RegBitFlip { reg: 0, bit: 7 },
            FaultKind::RegBitFlip { reg: 32, bit: 31 },
            FaultKind::MemBitFlip { addr: sim.cpu().mem().size(), bit: 0 },
            FaultKind::MemBitFlip { addr: u32::MAX, bit: 5 },
            FaultKind::FifoDuplicate { dir: FifoDir::ToHw, channel: 1 },
        ];
        for dir in [FifoDir::ToHw, FifoDir::FromHw] {
            faults.extend([
                FaultKind::FifoBitFlip { dir, channel: 0, index: 0, bit: 3 },
                FaultKind::FifoBitFlip { dir, channel: 0, index: 0, bit: 32 },
                FaultKind::FifoDrop { dir, channel: 0 },
                FaultKind::FifoDuplicate { dir, channel: 0 },
            ]);
        }
        // Past the occupancy of a non-empty FIFO.
        let depth = sim.fsl().to_hw_ref(1).depth() as u8;
        faults.push(FaultKind::FifoBitFlip {
            dir: FifoDir::ToHw,
            channel: 1,
            index: depth,
            bit: 0,
        });
        faults
    }

    /// Applies `fault`, which must be vacuous on `sim`, and checks that
    /// it changed neither the state nor the hardware counters.
    fn assert_vacuous(sim: &mut CoSim, fault: FaultKind, ecc: bool) {
        let (state, hw) = (sim.save_state(), sim.hw_stats());
        assert!(!Injector::apply(sim, fault), "{fault} applied (ecc {ecc})");
        assert_eq!(sim.save_state(), state, "{fault} changed the state (ecc {ecc})");
        assert_eq!(sim.hw_stats(), hw, "{fault} changed the hardware counters (ecc {ecc})");
    }

    /// A vacuous fault leaves the whole simulator state — processor,
    /// memory, FIFOs with their statistics and flags, peripheral graphs —
    /// and the hardware counters as they were. Trials whose fault did not
    /// apply are answered from the golden record on this contract.
    #[test]
    fn a_vacuous_fault_changes_nothing() {
        let batch = CordicBatch::new(&[(to_fix(1.5), to_fix(1.2)), (to_fix(2.0), to_fix(-1.0))]);
        let image = assemble(&hw_program(&batch, 8, 2)).unwrap();
        for ecc in [false, true] {
            let mut sim = CoSim::with_peripheral(&image, cordic_peripheral(2));
            sim.set_fsl_ecc(ecc);
            let ch1 = sim.fsl_mut().to_hw(1);
            while ch1.try_push(FslWord::data(0xA5)) {}
            for fault in vacuous_faults(&sim) {
                assert_vacuous(&mut sim, fault, ecc);
            }
            let mut software = CoSim::software_only(&image);
            software.set_fsl_ecc(ecc);
            let fault = FaultKind::BlockStateFlip { peripheral: 0, word: 3, bit: 1 };
            assert_vacuous(&mut software, fault, ecc);
        }
    }
}
