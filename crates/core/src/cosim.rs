//! The hardware/software co-simulation engine.
//!
//! [`CoSim`] is the Rust realization of the paper's contribution (Fig. 1 /
//! Fig. 2): it advances, in lock-step and one clock cycle at a time,
//!
//! 1. the **software execution platform** — the cycle-accurate MB32
//!    instruction-set simulator;
//! 2. the **communication interface** — the FSL FIFO models with their
//!    blocking/non-blocking semantics; and
//! 3. the **customized hardware peripherals** — the high-level
//!    arithmetic block graph.
//!
//! Because every component is cycle-accurate, the functional behavior per
//! simulated clock matches the low-level implementation (validated against
//! the event-driven RTL model in the integration tests), while the
//! simulation itself runs one to two orders of magnitude faster — the
//! paper's headline result.

use crate::binding::{FslFromHw, FslToHw, GatewayInputs};
use softsim_blocks::graph::{GraphState, OutputHandle};
use softsim_blocks::Graph;
use softsim_bus::{FslBank, FslBankState, FslWord, MemPatch};
use softsim_isa::{CpuConfig, Image};
use softsim_iss::{Cpu, CpuSnapshot, CpuStats, Event, Fault, FslBlock, TranslatedRun};
use softsim_trace::{FifoDir, SharedSink, TraceEvent};

/// The clock frequency of the paper's experiments (§IV): 50 MHz on the
/// ML300 Virtex-II Pro board.
pub const PAPER_CLOCK_HZ: f64 = 50e6;

/// Why a co-simulation run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoSimStop {
    /// The software executed `halt`.
    Halted,
    /// The cycle budget was exhausted. When the processor was blocked on
    /// a Fast Simplex Link at that moment, `blocked` says which channel
    /// and direction — the stall context the tracer already follows, now
    /// surfaced in the stop reason instead of being lost.
    CycleLimit {
        /// The FSL transfer the CPU was blocked on, if any.
        blocked: Option<FslBlock>,
    },
    /// The liveness watchdog fired: no forward progress for the
    /// configured number of cycles (see [`CoSim::set_watchdog`]).
    Deadlock {
        /// Cycle at which the watchdog gave up.
        cycle: u64,
        /// What the system was stuck on.
        cause: DeadlockCause,
    },
    /// The processor faulted.
    Fault(Fault),
    /// Execution reached a breakpoint: the instruction at `pc` has not
    /// executed, and neither the processor nor the hardware side spent
    /// a cycle on it. The next run executes it.
    Breakpoint {
        /// The breakpoint address.
        pc: u32,
    },
}

impl std::fmt::Display for CoSimStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoSimStop::Halted => write!(f, "halted"),
            CoSimStop::CycleLimit { blocked: None } => write!(f, "cycle budget exhausted"),
            CoSimStop::CycleLimit { blocked: Some(b) } => {
                write!(f, "cycle budget exhausted while stalled on a {b}")
            }
            CoSimStop::Deadlock { cycle, cause } => {
                write!(f, "deadlock detected at cycle {cycle}: {cause}")
            }
            CoSimStop::Fault(fault) => write!(f, "fault: {fault}"),
            CoSimStop::Breakpoint { pc } => write!(f, "breakpoint at {pc:#010x}"),
        }
    }
}

/// What the liveness watchdog found the system stuck on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockCause {
    /// The CPU is blocked on an FSL transfer and no peripheral made the
    /// flag change it is waiting for — the classic handshake deadlock
    /// the paper's co-simulation is meant to catch before synthesis.
    FslDeadlock {
        /// The blocking transfer.
        block: FslBlock,
    },
    /// Global livelock: the CPU keeps retiring nothing and no FIFO word
    /// moves anywhere in the system.
    Livelock,
}

impl std::fmt::Display for DeadlockCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeadlockCause::FslDeadlock { block } => {
                write!(f, "processor stuck on a {block} with no peripheral progress")
            }
            DeadlockCause::Livelock => {
                write!(f, "no instruction retired and no FIFO word moved")
            }
        }
    }
}

/// Counters describing the hardware side of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwStats {
    /// Words delivered from the CPU-side FIFOs into gateway inputs.
    pub words_to_hw: u64,
    /// Words pushed from gateway outputs into the CPU-side FIFOs.
    pub words_from_hw: u64,
    /// Result words dropped because the return FIFO was full — a design
    /// error the paper avoids by sizing data sets to FIFO capacity; tests
    /// assert this stays zero.
    pub output_overflows: u64,
    /// High-water occupancy across the processor → hardware FIFOs
    /// claimed by peripherals (how close the software side came to
    /// overrunning the FSL depth).
    pub max_to_hw_occupancy: usize,
    /// High-water occupancy across the hardware → processor FIFOs
    /// claimed by peripherals.
    pub max_from_hw_occupancy: usize,
}

/// Resolved processor → hardware wiring.
struct ResolvedIn {
    channel: usize,
    gateways: GatewayInputs,
}

/// Resolved hardware → processor wiring.
struct ResolvedOut {
    channel: usize,
    data: OutputHandle,
    valid: OutputHandle,
    control: Option<OutputHandle>,
}

/// A customized hardware peripheral attached over FSLs.
pub struct Peripheral {
    graph: Graph,
    inputs: Vec<ResolvedIn>,
    outputs: Vec<ResolvedOut>,
    /// Cumulative toggle count at the last published
    /// [`TraceEvent::BlockActivity`], for per-cycle deltas.
    last_toggles: u64,
}

impl Peripheral {
    /// Wraps a compiled block graph with its FSL wiring.
    ///
    /// # Panics
    /// Panics if a binding names a gateway the graph does not declare
    /// (checked eagerly so misconfigurations fail at attach time).
    pub fn new(graph: Graph, inputs: Vec<FslToHw>, outputs: Vec<FslFromHw>) -> Peripheral {
        let resolve_out = |name: &str| {
            graph.output_handle(name).unwrap_or_else(|_| panic!("missing gateway-out `{name}`"))
        };
        let inputs = inputs
            .iter()
            .map(|b| ResolvedIn {
                channel: b.channel,
                gateways: GatewayInputs::resolve(&graph, &b.data, &b.valid, b.control.as_deref())
                    .unwrap_or_else(|e| panic!("missing gateway-in: {e}")),
            })
            .collect();
        let outputs = outputs
            .iter()
            .map(|b| ResolvedOut {
                channel: b.channel,
                data: resolve_out(&b.data),
                valid: resolve_out(&b.valid),
                control: b.control.as_deref().map(resolve_out),
            })
            .collect();
        Peripheral { graph, inputs, outputs, last_toggles: 0 }
    }

    /// The underlying block graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the underlying block graph (e.g. to attach
    /// probes or enable switching-activity measurement).
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// The hardware-idle predicate: a clock cycle of this peripheral
    /// changes nothing but counters and probe samples, and so does every
    /// later one for as long as its processor → hardware FIFOs are left
    /// alone. It holds when the graph has no node marked, no gateway
    /// output is valid, every gateway input already holds the idle word
    /// (data, valid and control all zero) and no input FIFO has a word
    /// waiting. A stepped cycle then stores the idle word again (marking
    /// nothing), steps a sleeping graph, pushes nothing and charges one
    /// empty rejection per input — exactly what [`Peripheral::jump`]
    /// replays in bulk for a graph without probes (see
    /// [`Peripheral::can_jump`]). The debugger's stop on a frozen stall
    /// rests on this test alone.
    fn idle(&self, fsl: &FslBank) -> bool {
        let g = &self.graph;
        g.asleep()
            && self.outputs.iter().all(|b| g.output_fast(b.valid).is_zero())
            && self
                .inputs
                .iter()
                .all(|b| b.gateways.hold_idle(g) && !fsl.to_hw_ref(b.channel).exists())
    }

    /// An [`idle`](Peripheral::idle) peripheral with no scope probes,
    /// which record one sample per stepped cycle: both the stall jump
    /// and the jump after a translated block rest on this test.
    fn can_jump(&self, fsl: &FslBank) -> bool {
        !self.graph.has_probes() && self.idle(fsl)
    }

    /// Advances a [`can_jump`](Peripheral::can_jump) peripheral by `n`
    /// cycles in one jump, leaving exactly what `n` stepped cycles would:
    /// the graph's cycle and activity counts, one empty rejection per
    /// cycle on every (starved) input FIFO, and the to-hardware occupancy
    /// high-water mark of FIFOs that cannot change meanwhile.
    fn jump(&mut self, fsl: &mut FslBank, hw: &mut HwStats, n: u64) {
        for b in &self.inputs {
            let fifo = fsl.to_hw(b.channel);
            hw.max_to_hw_occupancy = hw.max_to_hw_occupancy.max(fifo.len());
            fifo.add_empty_rejections(n);
        }
        self.graph.fast_forward(n);
    }

    /// Advances this peripheral — gateways, block graph, return FIFOs —
    /// by one clock cycle, `cycle` being the clock it models and `pid`
    /// its attachment index. Inlined into both per-cycle loops that call
    /// it: as an outlined call the stepped path ran about a fifth slower.
    #[inline(always)]
    fn tick(
        &mut self,
        pid: usize,
        fsl: &mut FslBank,
        hw: &mut HwStats,
        sink: &Option<SharedSink>,
        cycle: u64,
    ) {
        // Feed gateway inputs from the processor-side FIFOs: each input
        // takes a word whenever one is waiting.
        for b in &self.inputs {
            let fifo = fsl.to_hw(b.channel);
            let occupancy = fifo.len();
            if occupancy > hw.max_to_hw_occupancy {
                hw.max_to_hw_occupancy = occupancy;
            }
            let (data, valid, ctrl) = match fifo.try_pop() {
                Some(w) => {
                    hw.words_to_hw += 1;
                    if let Some(sink) = sink {
                        sink.borrow_mut().event(&TraceEvent::GatewayWord {
                            cycle,
                            peripheral: pid as u8,
                            to_hw: true,
                            data: w.data,
                        });
                    }
                    (w.data, true, w.control)
                }
                None => (0, false, false),
            };
            b.gateways.store(&mut self.graph, data, valid, ctrl);
        }
        self.graph.step();
        // Publish switching activity while it is being measured — one
        // event per peripheral per cycle keeps the untraced and
        // unmeasured paths free of extra work.
        if let Some(sink) = sink {
            if self.graph.activity_enabled() {
                let total = self.graph.total_toggles();
                let toggles = (total - self.last_toggles) as u32;
                self.last_toggles = total;
                sink.borrow_mut().event(&TraceEvent::BlockActivity {
                    cycle,
                    peripheral: pid as u8,
                    firings: self.graph.len() as u32,
                    toggles,
                });
            }
        }
        // Drain gateway outputs into the return FIFOs.
        for b in &self.outputs {
            if self.graph.output_fast(b.valid).is_zero() {
                continue;
            }
            let data = self.graph.output_fast(b.data).to_bits() as u32;
            let control = match b.control {
                Some(c) => !self.graph.output_fast(c).is_zero(),
                None => false,
            };
            if fsl.from_hw(b.channel).try_push(FslWord { data, control }) {
                hw.words_from_hw += 1;
                if let Some(sink) = sink {
                    sink.borrow_mut().event(&TraceEvent::GatewayWord {
                        cycle,
                        peripheral: pid as u8,
                        to_hw: false,
                        data,
                    });
                }
            } else {
                hw.output_overflows += 1;
            }
            let occupancy = fsl.from_hw(b.channel).len();
            if occupancy > hw.max_from_hw_occupancy {
                hw.max_from_hw_occupancy = occupancy;
            }
        }
    }
}

/// Liveness bookkeeping: progress counters as of the last observed
/// cycle, and how long they have been frozen.
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    /// Cycles without progress before declaring deadlock.
    threshold: u64,
    last_instructions: u64,
    last_fsl_ops: u64,
    stalled_cycles: u64,
}

/// A complete co-simulator snapshot (see [`CoSim::save_state`]):
/// processor, FSL bank and every peripheral graph, plus the
/// hardware-side counters — everything needed to resume a run
/// deterministically on a co-simulator built the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSimState {
    /// The processor snapshot.
    pub cpu: CpuSnapshot,
    /// Every FSL channel's contents and statistics.
    pub fsl: FslBankState,
    /// One graph snapshot per attached peripheral, attachment order.
    pub peripherals: Vec<GraphState>,
    /// Hardware-side counters.
    pub hw_stats: HwStats,
}

/// A [`CoSimState`] stored as a delta against a base snapshot (see
/// [`CoSim::save_state_delta`]): every non-memory part in full, local
/// memory as the [`MemPatch`] of chunks that differ from the base's.
/// Many checkpoints of one run then share a single memory image.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDelta {
    /// The snapshot with an empty `cpu.mem`.
    state: CoSimState,
    /// The memory chunks that differ from the base snapshot's.
    mem: MemPatch,
}

impl StateDelta {
    /// Memory bytes stored beside the base snapshot's image.
    pub fn patch_bytes(&self) -> usize {
        self.mem.len_bytes()
    }
}

/// The co-simulator: one soft processor, its FSL channels, and an
/// optional customized hardware peripheral.
pub struct CoSim {
    cpu: Cpu,
    fsl: FslBank,
    peripherals: Vec<Peripheral>,
    hw_stats: HwStats,
    /// The sink attached by [`CoSim::attach_trace`], observing gateway
    /// word transfers (the CPU and FSL bank hold their own clones).
    sink: Option<SharedSink>,
    /// Liveness watchdog, when armed (see [`CoSim::set_watchdog`]).
    watchdog: Option<Watchdog>,
    /// Observer counter: successful fast-forward jumps taken by `run`.
    /// Harness telemetry only — not part of the architectural state, so
    /// `save_state`/`load_state` neither persist nor reset it.
    ff_engagements: u64,
    /// Observer counter: cycles covered by fast-forward jumps (same
    /// telemetry-only contract as `ff_engagements`).
    ff_skipped_cycles: u64,
}

impl CoSim {
    /// A co-simulator running `image` with no hardware peripheral
    /// ("pure software" configurations in the paper's figures).
    pub fn software_only(image: &Image) -> CoSim {
        CoSim::with_cpu(Cpu::with_default_memory(image))
    }

    /// The one constructor body: `cpu` with no peripheral, and the exact
    /// fast paths on (see [`CoSim::set_translation`]).
    fn with_cpu(mut cpu: Cpu) -> CoSim {
        cpu.set_translation(true);
        CoSim {
            cpu,
            fsl: FslBank::default(),
            peripherals: Vec::new(),
            hw_stats: HwStats::default(),
            sink: None,
            watchdog: None,
            ff_engagements: 0,
            ff_skipped_cycles: 0,
        }
    }

    /// A co-simulator with a customized hardware peripheral attached.
    pub fn with_peripheral(image: &Image, peripheral: Peripheral) -> CoSim {
        let mut sim = CoSim::software_only(image);
        sim.add_peripheral(peripheral);
        sim
    }

    /// A co-simulator with an explicit processor configuration (optional
    /// barrel shifter / multiplier / divider — the soft-processor
    /// configuration dimension of the design space).
    pub fn with_config(image: &Image, config: CpuConfig, peripheral: Option<Peripheral>) -> CoSim {
        let mut sim = CoSim::with_cpu(Cpu::with_config(image, config));
        if let Some(p) = peripheral {
            sim.add_peripheral(p);
        }
        sim
    }

    /// Attaches a further customized hardware peripheral. Each FSL
    /// channel may be claimed by at most one peripheral per direction.
    ///
    /// # Panics
    /// Panics on a channel conflict with an already-attached peripheral.
    pub fn add_peripheral(&mut self, peripheral: Peripheral) {
        for existing in &self.peripherals {
            for b in &peripheral.inputs {
                assert!(
                    existing.inputs.iter().all(|e| e.channel != b.channel),
                    "input FSL channel {} already claimed",
                    b.channel
                );
            }
            for b in &peripheral.outputs {
                assert!(
                    existing.outputs.iter().all(|e| e.channel != b.channel),
                    "output FSL channel {} already claimed",
                    b.channel
                );
            }
        }
        self.peripherals.push(peripheral);
    }

    /// Enables or disables the exact fast paths of [`CoSim::run`] (on
    /// from construction; turn them off only to get the stepped reference
    /// an equivalence check compares against). The one switch governs
    /// all three:
    ///
    /// - **Translated blocks**: straight-line guest code runs through the
    ///   ISS's block cache of resolved ops (see `softsim-iss`'s `translate`
    ///   module), and the hardware side replays the block's cycles — up
    ///   to each FSL transfer's issue cycle before the block makes it,
    ///   and the rest after the block. Bit-identical to stepping: between
    ///   two transfers the processor touches no FSL channel, and at a
    ///   transfer the hardware stands where the stepped loop has it.
    /// - **The idle jump in that replay**: each peripheral is stepped
    ///   only until it goes idle, and the rest of the replayed stretch is
    ///   one jump.
    /// - **The stall jump**: while the processor is blocked on an FSL
    ///   transfer that cannot complete and every peripheral is idle, the
    ///   stalled stretch is one jump of the cycle counters, replaying
    ///   the exact per-cycle side effects of stepping — CPU cycle and
    ///   stall counters, FIFO rejection statistics, per-graph cycle and
    ///   activity counts, and watchdog progress.
    ///
    /// Statistics, halt cycles and deadlock reports are bit-identical
    /// either way. All three silently disengage whenever the run could be
    /// observed at finer grain: with a trace sink attached, or an OPB
    /// bus (its timing is outside the idle contract).
    /// Breakpoints also keep blocks out, and probes on a peripheral graph
    /// (per-cycle samples) keep that peripheral out of both jumps. They
    /// respect `run`'s cycle budget: a block is dispatched only when its
    /// worst-case cycles fit the remaining budget, and a jump never
    /// passes it.
    pub fn set_translation(&mut self, enabled: bool) {
        self.cpu.set_translation(enabled);
    }

    /// Whether translated basic-block execution is enabled.
    pub fn translation(&self) -> bool {
        self.cpu.translation()
    }

    /// Observer counter: how many fast-forward jumps [`CoSim::run`] has
    /// taken since construction. Monotonic across `save_state` /
    /// `load_state` (it measures harness work, not architectural state).
    pub fn ff_engagements(&self) -> u64 {
        self.ff_engagements
    }

    /// Observer counter: how many cycles fast-forward jumps have covered
    /// since construction (same contract as [`CoSim::ff_engagements`]).
    pub fn ff_skipped_cycles(&self) -> u64 {
        self.ff_skipped_cycles
    }

    /// Enables or disables SEC-DED protection on every FSL channel in
    /// both directions (see `FslFifo::set_ecc` in `softsim-bus`). Words
    /// already in flight are re-/de-coded in place, so hardening can be
    /// toggled at a checkpoint boundary.
    pub fn set_fsl_ecc(&mut self, on: bool) {
        self.fsl.set_ecc_all(on);
    }

    /// Faults detected *by the hardware itself* so far: the sum of every
    /// peripheral block's self-check counter (TMR replica miscompares).
    /// Recovery supervisors poll this for deltas between checkpoints.
    pub fn detected_faults(&self) -> u64 {
        self.peripherals.iter().map(|p| p.graph.detected_faults()).sum()
    }

    /// Attaches an observability sink to the whole system: the processor
    /// (instruction retires and stall attribution), the FSL bank (FIFO
    /// push/pop/full/empty with occupancies) and the co-simulator itself
    /// (gateway word transfers). All events share the processor's cycle
    /// domain. The untraced path is unaffected — no sink, no events. A
    /// guest profile is a sink like any other (a `GuestProfile`); to
    /// observe with several sinks at once, attach a `Fanout` of them.
    pub fn attach_trace(&mut self, sink: SharedSink) {
        self.cpu.attach_trace(sink.clone());
        self.fsl.attach_trace(sink.clone());
        self.sink = Some(sink);
    }

    /// Detaches the observability sink from the processor, the FSL bank
    /// and the co-simulator, restoring the untraced fast path (and
    /// fast-forward eligibility). Supervisors that only trace the
    /// diagnosis replay of a failed segment use this to keep the
    /// healthy-path overhead at zero.
    pub fn detach_trace(&mut self) {
        self.cpu.detach_trace();
        self.fsl.detach_trace();
        self.sink = None;
    }

    /// The processor model.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the processor (for debugger-style interaction).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The FSL channels.
    pub fn fsl(&self) -> &FslBank {
        &self.fsl
    }

    /// Mutable access to the FSL channels — used by fault injectors to
    /// corrupt in-flight words or stick flags, and by tests that shape
    /// pathological FIFO configurations.
    pub fn fsl_mut(&mut self) -> &mut FslBank {
        &mut self.fsl
    }

    /// The attached customized hardware peripherals.
    pub fn peripherals(&self) -> &[Peripheral] {
        &self.peripherals
    }

    /// Mutable access to the attached peripherals (e.g. to enable
    /// switching-activity measurement on their graphs before a run).
    pub fn peripherals_mut(&mut self) -> &mut [Peripheral] {
        &mut self.peripherals
    }

    /// Hardware-side statistics.
    pub fn hw_stats(&self) -> HwStats {
        self.hw_stats
    }

    /// Software-side statistics.
    pub fn cpu_stats(&self) -> CpuStats {
        self.cpu.stats()
    }

    /// Simulated time so far, in microseconds at the modeled clock.
    pub fn time_us(&self) -> f64 {
        self.cpu.stats().time_us(PAPER_CLOCK_HZ)
    }

    /// Advances the whole system by one clock cycle. A breakpoint
    /// report consumes no cycle, so on [`Event::Breakpoint`] the hardware
    /// side does not tick either: the two clocks stay together.
    pub fn step(&mut self) -> Event {
        // The cycle about to execute — matches the stamp `Cpu::tick`
        // writes into the FSL trace state, so gateway events sort with
        // the FIFO and retire events of the same clock.
        let cycle = self.cpu.stats().cycles;
        let event = self.cpu.tick(&mut self.fsl);
        if !matches!(event, Event::Breakpoint { .. }) {
            self.tick_peripherals(cycle);
        }
        event
    }

    /// Advances the hardware side — gateways, peripheral graphs, return
    /// FIFOs — by one clock cycle, `cycle` being the clock it models.
    fn tick_peripherals(&mut self, cycle: u64) {
        let CoSim { peripherals, fsl, hw_stats, sink, .. } = self;
        for (pid, p) in peripherals.iter_mut().enumerate() {
            p.tick(pid, fsl, hw_stats, sink, cycle);
        }
    }

    /// Replays the hardware side's clocks `from..to`, which the
    /// processor ran alone inside a translated block: the cycles before
    /// one of its FSL transfers, or its tail after the last one. The
    /// processor touches no FSL channel in such a stretch, so stepping
    /// it first and the peripherals after is bit-identical to
    /// interleaving them; and because each peripheral owns its channels,
    /// the peripherals replay one after another. Each is stepped only
    /// until it [`can_jump`](Peripheral::can_jump): with its input FIFOs
    /// frozen for the rest of the stretch it stays idle, so the remaining
    /// cycles are one [`Peripheral::jump`]. Runs only untraced (the
    /// translated path requires it).
    fn replay_peripherals(
        peripherals: &mut [Peripheral],
        fsl: &mut FslBank,
        hw_stats: &mut HwStats,
        sink: &Option<SharedSink>,
        from: u64,
        to: u64,
    ) {
        for (pid, p) in peripherals.iter_mut().enumerate() {
            for cycle in from..to {
                if p.can_jump(fsl) {
                    p.jump(fsl, hw_stats, to - cycle);
                    break;
                }
                p.tick(pid, fsl, hw_stats, sink, cycle);
            }
        }
    }

    /// Arms the liveness watchdog: if `threshold` consecutive cycles
    /// pass in which no instruction retires *and* no FIFO word moves in
    /// either direction, [`CoSim::run`] stops with
    /// [`CoSimStop::Deadlock`] instead of silently burning the rest of
    /// its cycle budget. Pick a threshold larger than the longest
    /// FIFO-quiet stretch of the design (peripheral pipeline latency
    /// plus any batching the software does); a few thousand cycles is
    /// conservative for the workloads in this repository.
    ///
    /// # Panics
    /// Panics if `threshold == 0`.
    pub fn set_watchdog(&mut self, threshold: u64) {
        assert!(threshold > 0, "watchdog threshold must be positive");
        self.watchdog =
            Some(Watchdog { threshold, last_instructions: 0, last_fsl_ops: 0, stalled_cycles: 0 });
        self.reanchor_watchdog();
    }

    /// Re-anchors an armed watchdog's progress baseline to the current
    /// counters, with no stalled cycle counted.
    fn reanchor_watchdog(&mut self) {
        if let Some(wd) = &mut self.watchdog {
            wd.last_instructions = self.cpu.stats().instructions;
            wd.last_fsl_ops = self.fsl.total_ops();
            wd.stalled_cycles = 0;
        }
    }

    /// Disarms the liveness watchdog.
    pub fn clear_watchdog(&mut self) {
        self.watchdog = None;
    }

    /// One watchdog observation; called after each [`CoSim::step`] by
    /// [`CoSim::run`] and by the debugger's `step`. Returns the deadlock
    /// stop once the armed threshold is exceeded, `None` otherwise
    /// (including when no watchdog is armed).
    pub(crate) fn check_liveness(&mut self) -> Option<CoSimStop> {
        let wd = self.watchdog.as_mut()?;
        let instructions = self.cpu.stats().instructions;
        let fsl_ops = self.fsl.total_ops();
        if instructions != wd.last_instructions || fsl_ops != wd.last_fsl_ops {
            wd.last_instructions = instructions;
            wd.last_fsl_ops = fsl_ops;
            wd.stalled_cycles = 0;
            return None;
        }
        wd.stalled_cycles += 1;
        if wd.stalled_cycles < wd.threshold {
            return None;
        }
        Some(self.deadlock())
    }

    /// The watchdog's stop at the current cycle, naming what the system
    /// is stuck on.
    fn deadlock(&self) -> CoSimStop {
        let cause = match self.cpu.fsl_block() {
            Some(block) => DeadlockCause::FslDeadlock { block },
            None => DeadlockCause::Livelock,
        };
        CoSimStop::Deadlock { cycle: self.cpu.stats().cycles, cause }
    }

    /// Captures the whole system's simulation state: processor, FSL bank
    /// and every peripheral graph. Observers (trace sinks, probes,
    /// activity measurement) and the watchdog are not part of the
    /// snapshot; restoring never arms a watchdog that was not armed, and
    /// a watchdog armed on the restoring simulator stays armed (see
    /// [`CoSim::load_state`]).
    ///
    /// # Panics
    /// Panics if the processor has an OPB bus attached (see
    /// [`Cpu::save_state`]).
    pub fn save_state(&self) -> CoSimState {
        self.snapshot(self.cpu.save_state())
    }

    /// The whole-system snapshot around an already-captured processor
    /// snapshot.
    fn snapshot(&self, cpu: CpuSnapshot) -> CoSimState {
        CoSimState {
            cpu,
            fsl: self.fsl.save_state(),
            peripherals: self.peripherals.iter().map(|p| p.graph.save_state()).collect(),
            hw_stats: self.hw_stats,
        }
    }

    /// Restores a snapshot taken by [`CoSim::save_state`] on a
    /// co-simulator built from the same image and peripherals. An armed
    /// liveness watchdog stays armed: its threshold is kept and its
    /// progress baseline is re-anchored to the restored counters, so a
    /// checkpoint/restore cycle cannot silently disable deadlock
    /// detection. (Restoring previously disarmed the watchdog, which
    /// made every post-restore hang burn its full cycle budget.)
    ///
    /// # Panics
    /// Panics on a shape mismatch (different peripheral count or
    /// incompatible graph/memory layout).
    pub fn load_state(&mut self, state: &CoSimState) {
        self.restore(state, &state.cpu.mem, &MemPatch::default());
    }

    /// [`CoSim::save_state`] with local memory stored as a patch against
    /// `base`'s: only the memory chunks the run has changed since `base`
    /// are copied. Restore with [`CoSim::load_state_delta`] and the same
    /// `base`.
    ///
    /// # Panics
    /// As [`CoSim::save_state`], and on a memory-size mismatch.
    pub fn save_state_delta(&self, base: &CoSimState) -> StateDelta {
        let (cpu, mem) = self.cpu.save_state_delta(&base.cpu.mem);
        StateDelta { state: self.snapshot(cpu), mem }
    }

    /// Restores a [`StateDelta`] taken against `base`. Leaves exactly
    /// the state [`CoSim::load_state`] of the full snapshot would, and
    /// shares its contract (watchdog re-anchoring, shape checks).
    ///
    /// # Panics
    /// As [`CoSim::load_state`].
    pub fn load_state_delta(&mut self, base: &CoSimState, delta: &StateDelta) {
        self.restore(&delta.state, &base.cpu.mem, &delta.mem);
    }

    /// The one restore path: `state` with its local memory replaced by
    /// `mem` overlaid by `patch`.
    fn restore(&mut self, state: &CoSimState, mem: &[u8], patch: &MemPatch) {
        assert_eq!(
            state.peripherals.len(),
            self.peripherals.len(),
            "snapshot/peripheral count mismatch"
        );
        self.cpu.load_state_patched(&state.cpu, mem, patch);
        self.fsl.load_state(&state.fsl);
        for (p, s) in self.peripherals.iter_mut().zip(&state.peripherals) {
            p.graph.load_state(s);
            // Activity measurement is an observer, not design state; the
            // delta baseline just re-anchors so the next published
            // BlockActivity event doesn't span the restore.
            p.last_toggles = p.graph.total_toggles();
        }
        self.hw_stats = state.hw_stats;
        self.reanchor_watchdog();
    }

    /// The FSL transfer the processor is stuck on for good, if any: it
    /// is blocked on a FIFO flag that cannot change (`get` from a
    /// channel with no word to take, `put` into a full channel) and
    /// every peripheral is [`idle`](Peripheral::idle), so no later cycle
    /// changes anything but counters and probe samples. Conservative —
    /// any doubt answers `None`. The debugger's `step` stops on it
    /// instead of stepping forever, and the stall jump takes it when no
    /// peripheral has probes.
    pub(crate) fn frozen_stall(&self) -> Option<FslBlock> {
        let block = self.cpu.fsl_block()?;
        let ch = block.channel as usize;
        // The blocked transfer itself must be unable to complete: the
        // retry in `Cpu::tick` would otherwise make progress.
        let frozen = match block.dir {
            FifoDir::FromHw => !self.fsl.from_hw_ref(ch).exists(),
            FifoDir::ToHw => self.fsl.to_hw_ref(ch).full(),
        };
        (frozen && self.peripherals.iter().all(|p| p.idle(&self.fsl))).then_some(block)
    }

    /// Whether a liveness watchdog is armed (see [`CoSim::set_watchdog`]).
    pub(crate) fn watchdog_armed(&self) -> bool {
        self.watchdog.is_some()
    }

    /// Attempts one stall jump of at most `budget` cycles; called by
    /// [`CoSim::run`] only on its fast path (no trace sink, no OPB bus).
    ///
    /// Eligible only on a [`frozen_stall`](CoSim::frozen_stall) with no
    /// probed peripheral. Then a step changes nothing but counters, so
    /// `n` steps are replayed as bulk counter updates: CPU stall
    /// attribution, rejection statistics on the blocked FIFO, each
    /// peripheral's [`Peripheral::jump`], and watchdog progress. The jump
    /// is capped so an armed watchdog fires at exactly the cycle the
    /// stepped path would have fired at.
    fn try_fast_forward(&mut self, budget: u64) -> Option<u64> {
        let block = self.frozen_stall()?;
        if self.peripherals.iter().any(|p| p.graph.has_probes()) {
            return None;
        }
        let ch = block.channel as usize;
        let n = match &self.watchdog {
            Some(wd) => budget.min(wd.threshold - wd.stalled_cycles).max(1),
            None => budget,
        };
        self.cpu
            .fast_forward_stall(n)
            .expect("frozen_stall() above verified the pipeline is FSL-stalled");
        match block.dir {
            FifoDir::FromHw => self.fsl.from_hw(ch).add_empty_rejections(n),
            FifoDir::ToHw => self.fsl.to_hw(ch).add_full_rejections(n),
        }
        for p in &mut self.peripherals {
            p.jump(&mut self.fsl, &mut self.hw_stats, n);
        }
        if let Some(wd) = &mut self.watchdog {
            wd.stalled_cycles += n;
        }
        Some(n)
    }

    /// Runs until the software halts, faults, reaches a breakpoint,
    /// deadlocks (when a watchdog is armed) or `max_cycles` elapse. On
    /// cycle-budget expiry the stop reports the FSL transfer the
    /// processor was blocked on — but only when the final executed cycle
    /// actually stalled on that transfer (a zero-cycle run, or one whose
    /// last step completed the transfer, reports no blockage).
    ///
    /// `max_cycles` is the only run bound: neither a translated block
    /// nor a jump passes it. A caller that must stop at an absolute
    /// cycle (a checkpoint boundary, a pending fault injection) passes
    /// `max_cycles.min(target - now)`, and a run stopped there by its
    /// budget is bit-identical to a stepped one, jumps included.
    pub fn run(&mut self, max_cycles: u64) -> CoSimStop {
        // The fast paths run only with translation on and nothing
        // attached that needs per-cycle visibility; no step, block or
        // jump changes any of the three, so this holds for the whole run.
        let fast = self.cpu.translation() && self.sink.is_none() && self.cpu.opb().is_none();
        let mut executed: u64 = 0;
        while executed < max_cycles {
            if fast {
                // Translated-block fast path: run guest code through the
                // ISS block cache, one dispatch chaining block after block
                // across branches until a boundary needs this loop (a
                // taken delayed branch, `halt`, a transfer that would
                // stall, the cap). The hardware side replays the
                // dispatch's cycles, jumping each peripheral once it goes
                // idle (see `replay_peripherals`): up to each FSL
                // transfer's issue cycle when the dispatch reaches it, in
                // whichever block, so the transfer sees the FIFOs the
                // stepped loop would show it, and from the last such
                // cycle (`replayed`) to the dispatch's end afterwards. The
                // dispatch is capped below the watchdog's remaining
                // headroom so a deadlock the stepped path would detect
                // mid-dispatch keeps the fast path out entirely — and
                // since every block ends with a retired instruction,
                // re-anchoring the watchdog afterwards reproduces exactly
                // what per-cycle `check_liveness` calls would have left
                // behind.
                let mut cap = max_cycles - executed;
                if let Some(wd) = &self.watchdog {
                    cap = cap.min((wd.threshold - wd.stalled_cycles).saturating_sub(1));
                }
                let start_cycle = self.cpu.stats().cycles;
                let mut replayed = start_cycle;
                let CoSim { cpu, fsl, peripherals, hw_stats, sink, .. } = self;
                let run = cpu.run_translated_block(fsl, cap, &mut |fsl, at| {
                    Self::replay_peripherals(peripherals, fsl, hw_stats, sink, replayed, at);
                    replayed = at;
                });
                match run {
                    TranslatedRun::Ran { cycles } => {
                        // Software-only runs skip even the call.
                        if !peripherals.is_empty() {
                            let end = start_cycle + cycles;
                            Self::replay_peripherals(
                                peripherals,
                                fsl,
                                hw_stats,
                                sink,
                                replayed,
                                end,
                            );
                        }
                        executed += cycles;
                        self.reanchor_watchdog();
                        if self.cpu.halted() {
                            return CoSimStop::Halted;
                        }
                        continue;
                    }
                    TranslatedRun::Faulted { cycles, fault } => {
                        let end = start_cycle + cycles;
                        Self::replay_peripherals(peripherals, fsl, hw_stats, sink, replayed, end);
                        return CoSimStop::Fault(fault);
                    }
                    TranslatedRun::NotRun => {}
                }
                // The stall jump: `None` after one match on the pipeline
                // unless the processor is FSL-stalled.
                if let Some(n) = self.try_fast_forward(max_cycles - executed) {
                    executed += n;
                    self.ff_engagements += 1;
                    self.ff_skipped_cycles += n;
                    // The jump already advanced the watchdog's stall
                    // count; if it reached the threshold, report the
                    // deadlock at the post-jump cycle without a second
                    // `check_liveness` increment.
                    if self.watchdog.is_some_and(|wd| wd.stalled_cycles >= wd.threshold) {
                        return self.deadlock();
                    }
                    continue;
                }
            }
            match self.step() {
                e if e.is_halt() => return CoSimStop::Halted,
                Event::Fault(f) => return CoSimStop::Fault(f),
                Event::Breakpoint { pc } => return CoSimStop::Breakpoint { pc },
                _ => {}
            }
            executed += 1;
            if let Some(stop) = self.check_liveness() {
                return stop;
            }
        }
        CoSimStop::CycleLimit { blocked: if executed > 0 { self.cpu.fsl_block() } else { None } }
    }
}
