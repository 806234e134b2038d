//! The discrete-event simulation kernel.
//!
//! This is the heart of the "low-level behavioral simulation" baseline —
//! the role ModelSim plays in the paper's Table I/II comparisons. It
//! implements the classic HDL simulation cycle:
//!
//! * **signals** carry word values and generate *events* when they change;
//! * **processes** have sensitivity lists and run whenever a signal they
//!   watch has an event;
//! * assignments are **scheduled transactions**: zero-delay assignments
//!   land in the next *delta cycle* of the same simulation time, timed
//!   assignments in a future time slot;
//! * a time step completes when no more delta cycles are pending.
//!
//! The per-signal-event, per-delta-cycle cost structure is what makes
//! behavioral HDL simulation one to two orders of magnitude slower per
//! simulated clock than the arithmetic-level co-simulation — the effect
//! the paper measures.

use softsim_trace::{SharedSink, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;

/// Simulation time in nanoseconds.
pub type Time = u64;

/// Handle to a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(pub(crate) u32);

/// Handle to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(pub(crate) u32);

/// Aggregate kernel activity counters (the cost drivers of low-level
/// simulation; reported in the simulation-performance analyses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Signal transactions applied.
    pub transactions: u64,
    /// Signal events (transactions that changed a value).
    pub events: u64,
    /// Process invocations.
    pub process_runs: u64,
    /// Delta cycles executed.
    pub delta_cycles: u64,
    /// Distinct simulation time steps advanced.
    pub time_steps: u64,
}

/// Hardware primitives instantiated during elaboration, used to derive the
/// "actual" resource usage of Table I.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Primitives {
    /// Flip-flop bits.
    pub ff_bits: u64,
    /// LUT bits of combinational logic (adders, muxes, comparators).
    pub lut_bits: u64,
    /// Embedded 18×18 multipliers.
    pub mult18s: u32,
    /// Block RAMs.
    pub brams: u32,
}

impl Primitives {
    /// Maps primitive counts onto Virtex-II-Pro slices: two FFs and two
    /// 4-input LUTs per slice, FFs packing behind logic where possible.
    pub fn slices(&self) -> u32 {
        let ff_slices = self.ff_bits.div_ceil(2);
        let lut_slices = self.lut_bits.div_ceil(2);
        // FFs pack into the same slices as preceding logic; the larger of
        // the two populations dominates, plus a 10% unpacked remainder.
        let base = ff_slices.max(lut_slices);
        let minor = ff_slices.min(lut_slices);
        (base + minor / 10) as u32
    }
}

struct Sig {
    name: String,
    width: u8,
    value: u64,
    /// Value before the event in the current delta (for edge detection).
    prev: u64,
    /// Delta stamp of the last event.
    changed_at: u64,
}

struct Proc {
    body: Box<dyn FnMut(&mut ProcCtx)>,
}

#[derive(Clone, Copy)]
struct Txn {
    sig: SignalId,
    value: u64,
}

/// The context handed to a running process: read signals, detect edges,
/// and schedule assignments.
pub struct ProcCtx<'a> {
    signals: &'a [Sig],
    delta_stamp: u64,
    now: Time,
    pending_delta: Vec<Txn>,
    pending_timed: Vec<(Time, Txn)>,
}

impl ProcCtx<'_> {
    /// Current simulation time in nanoseconds.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Reads a signal's current value.
    pub fn get(&self, sig: SignalId) -> u64 {
        self.signals[sig.0 as usize].value
    }

    /// True when `sig` had an event in the delta that woke this process.
    pub fn event(&self, sig: SignalId) -> bool {
        self.signals[sig.0 as usize].changed_at == self.delta_stamp
    }

    /// True on a 0 → 1 transition of `sig` in this delta.
    pub fn rising(&self, sig: SignalId) -> bool {
        let s = &self.signals[sig.0 as usize];
        s.changed_at == self.delta_stamp && s.prev == 0 && s.value != 0
    }

    /// True on a 1 → 0 transition of `sig` in this delta.
    pub fn falling(&self, sig: SignalId) -> bool {
        let s = &self.signals[sig.0 as usize];
        s.changed_at == self.delta_stamp && s.prev != 0 && s.value == 0
    }

    /// Schedules a zero-delay assignment (lands in the next delta cycle).
    pub fn set(&mut self, sig: SignalId, value: u64) {
        self.pending_delta.push(Txn { sig, value });
    }

    /// Schedules an assignment `delay_ns` in the future.
    pub fn set_after(&mut self, sig: SignalId, value: u64, delay_ns: Time) {
        if delay_ns == 0 {
            self.set(sig, value);
        } else {
            self.pending_timed.push((self.now + delay_ns, Txn { sig, value }));
        }
    }
}

/// The discrete-event kernel.
pub struct Kernel {
    signals: Vec<Sig>,
    procs: Vec<Proc>,
    /// Per-signal list of processes sensitive to it.
    watchers: Vec<Vec<u32>>,
    now: Time,
    delta_stamp: u64,
    /// Future transactions by time.
    timed: BTreeMap<Time, Vec<Txn>>,
    /// Transactions for the next delta of the current time.
    next_delta: Vec<Txn>,
    stats: KernelStats,
    primitives: Primitives,
    /// VCD sink, if recording.
    vcd: Option<crate::vcd::VcdWriter>,
    /// Observability sink for per-time-step kernel statistics.
    sink: Option<SharedSink>,
    /// Stats snapshot at the last emitted [`TraceEvent::KernelStep`].
    emitted: KernelStats,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// An empty design at time zero.
    pub fn new() -> Kernel {
        Kernel {
            signals: Vec::new(),
            procs: Vec::new(),
            watchers: Vec::new(),
            now: 0,
            delta_stamp: 0,
            timed: BTreeMap::new(),
            next_delta: Vec::new(),
            stats: KernelStats::default(),
            primitives: Primitives::default(),
            vcd: None,
            sink: None,
            emitted: KernelStats::default(),
        }
    }

    /// Declares a signal of `width` bits (≤ 64), initialized to zero.
    pub fn signal(&mut self, name: impl Into<String>, width: u8) -> SignalId {
        assert!((1..=64).contains(&width), "signal width out of range");
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(Sig {
            name: name.into(),
            width,
            value: 0,
            prev: 0,
            changed_at: u64::MAX,
        });
        self.watchers.push(Vec::new());
        id
    }

    /// Declares a signal with a nonzero initial value.
    pub fn signal_init(&mut self, name: impl Into<String>, width: u8, init: u64) -> SignalId {
        let id = self.signal(name, width);
        self.signals[id.0 as usize].value = init & mask(width);
        id
    }

    /// Registers a process with its sensitivity list.
    pub fn process(
        &mut self,
        sensitivity: &[SignalId],
        body: impl FnMut(&mut ProcCtx) + 'static,
    ) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(Proc { body: Box::new(body) });
        for s in sensitivity {
            self.watchers[s.0 as usize].push(id.0);
        }
        id
    }

    /// Records elaborated hardware primitives (for "actual" resources).
    pub fn add_primitives(&mut self, p: Primitives) {
        self.primitives.ff_bits += p.ff_bits;
        self.primitives.lut_bits += p.lut_bits;
        self.primitives.mult18s += p.mult18s;
        self.primitives.brams += p.brams;
    }

    /// Elaborated primitive totals.
    pub fn primitives(&self) -> Primitives {
        self.primitives
    }

    /// Activity counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Reads a signal value directly (testbench access).
    pub fn peek(&self, sig: SignalId) -> u64 {
        self.signals[sig.0 as usize].value
    }

    /// Schedules an assignment from outside any process (testbench pokes).
    pub fn poke(&mut self, sig: SignalId, value: u64) {
        self.next_delta.push(Txn { sig, value });
    }

    /// Schedules a timed assignment from outside any process.
    pub fn poke_after(&mut self, sig: SignalId, value: u64, delay_ns: Time) {
        self.timed.entry(self.now + delay_ns).or_default().push(Txn { sig, value });
    }

    /// Attaches a VCD writer that records every signal event.
    pub fn record_vcd(&mut self, mut vcd: crate::vcd::VcdWriter) {
        for sig in &self.signals {
            vcd.declare(&sig.name, sig.width);
        }
        vcd.start();
        self.vcd = Some(vcd);
    }

    /// Takes the VCD writer back (e.g. to flush it).
    pub fn take_vcd(&mut self) -> Option<crate::vcd::VcdWriter> {
        self.vcd.take()
    }

    /// Attaches an observability sink: one [`TraceEvent::KernelStep`] is
    /// emitted per simulation time step, carrying the signal events,
    /// delta cycles and process invocations that step cost — the
    /// per-step price of event-driven simulation the paper's speedup
    /// analysis is about.
    pub fn attach_trace(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
        self.emitted = self.stats;
    }

    /// Emits the kernel activity accumulated since the last emission as
    /// one `KernelStep` stamped `time_ns` (skipped when idle).
    fn emit_step(&mut self, time_ns: Time) {
        let Some(sink) = &self.sink else { return };
        let events = self.stats.events - self.emitted.events;
        let delta_cycles = self.stats.delta_cycles - self.emitted.delta_cycles;
        let process_runs = self.stats.process_runs - self.emitted.process_runs;
        if events == 0 && delta_cycles == 0 && process_runs == 0 {
            return;
        }
        sink.borrow_mut().event(&TraceEvent::KernelStep {
            time_ns,
            events,
            delta_cycles,
            process_runs,
        });
        self.emitted = self.stats;
    }

    /// Runs until the event queue is exhausted or `until` is reached.
    /// Returns the time at which simulation stopped.
    pub fn run_until(&mut self, until: Time) -> Time {
        loop {
            // Drain delta cycles at the current time.
            let mut guard = 0u32;
            while !self.next_delta.is_empty() {
                self.one_delta();
                guard += 1;
                assert!(
                    guard < 10_000,
                    "combinational oscillation at t={} (10k delta cycles)",
                    self.now
                );
            }
            // Advance to the next timed transaction.
            match self.timed.keys().next().copied() {
                Some(t) if t <= until => {
                    if self.sink.is_some() {
                        self.emit_step(self.now);
                    }
                    self.now = t;
                    self.stats.time_steps += 1;
                    let txns = self.timed.remove(&t).expect("key exists");
                    self.next_delta.extend(txns);
                }
                _ => {
                    if self.sink.is_some() {
                        self.emit_step(self.now);
                    }
                    self.now =
                        self.now.max(until.min(self.timed.keys().next().copied().unwrap_or(until)));
                    return self.now;
                }
            }
        }
    }

    /// Executes one delta cycle: apply pending transactions, wake and run
    /// sensitive processes, collect their assignments.
    fn one_delta(&mut self) {
        self.delta_stamp += 1;
        self.stats.delta_cycles += 1;
        let txns = std::mem::take(&mut self.next_delta);
        let mut woken: Vec<u32> = Vec::new();
        for txn in txns {
            self.stats.transactions += 1;
            let s = &mut self.signals[txn.sig.0 as usize];
            let value = txn.value & mask(s.width);
            if value != s.value {
                s.prev = s.value;
                s.value = value;
                s.changed_at = self.delta_stamp;
                self.stats.events += 1;
                if let Some(vcd) = &mut self.vcd {
                    vcd.change(self.now, self.delta_stamp, txn.sig.0, value, s.width);
                }
                for &p in &self.watchers[txn.sig.0 as usize] {
                    if !woken.contains(&p) {
                        woken.push(p);
                    }
                }
            }
        }
        // Run woken processes, gathering their scheduled assignments.
        let mut ctx = ProcCtx {
            signals: &self.signals,
            delta_stamp: self.delta_stamp,
            now: self.now,
            pending_delta: Vec::new(),
            pending_timed: Vec::new(),
        };
        for p in woken {
            self.stats.process_runs += 1;
            // Split borrow: the process body may not touch the kernel,
            // only the context.
            let proc_entry = &mut self.procs[p as usize];
            (proc_entry.body)(&mut ctx);
        }
        self.next_delta.extend(ctx.pending_delta);
        for (t, txn) in ctx.pending_timed {
            self.timed.entry(t).or_default().push(txn);
        }
    }

    /// Number of signals (design-size reporting).
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("signals", &self.signals.len())
            .field("processes", &self.procs.len())
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish()
    }
}

#[inline]
fn mask(width: u8) -> u64 {
    u64::MAX >> (64 - width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_cycles_propagate_combinational_chains() {
        let mut k = Kernel::new();
        let a = k.signal("a", 8);
        let b = k.signal("b", 8);
        let c = k.signal("c", 8);
        // b = a + 1; c = b * 2 — two comb processes chained by deltas.
        k.process(&[a], move |ctx| {
            let v = ctx.get(a) + 1;
            ctx.set(b, v);
        });
        k.process(&[b], move |ctx| {
            let v = ctx.get(b) * 2;
            ctx.set(c, v);
        });
        k.poke(a, 5);
        k.run_until(10);
        assert_eq!(k.peek(b), 6);
        assert_eq!(k.peek(c), 12);
        assert!(k.stats().delta_cycles >= 3, "chain took several deltas");
    }

    #[test]
    fn clock_generator_toggles() {
        let mut k = Kernel::new();
        let clk = k.signal("clk", 1);
        // 20 ns period (50 MHz): toggle every 10 ns.
        k.process(&[clk], move |ctx| {
            let v = ctx.get(clk) ^ 1;
            ctx.set_after(clk, v, 10);
        });
        k.poke(clk, 1); // kick off
        k.run_until(100);
        // Edges at 0(poke),10,20,...,90 → value toggles; at t=100 pending.
        assert_eq!(k.now(), 100);
        let events = k.stats().events;
        assert!((9..=11).contains(&events), "~10 clock events, got {events}");
    }

    #[test]
    fn rising_edge_register() {
        let mut k = Kernel::new();
        let clk = k.signal("clk", 1);
        let d = k.signal("d", 16);
        let q = k.signal("q", 16);
        k.process(&[clk], move |ctx| {
            let v = ctx.get(clk) ^ 1;
            ctx.set_after(clk, v, 10);
        });
        k.process(&[clk], move |ctx| {
            if ctx.rising(clk) {
                let v = ctx.get(d);
                ctx.set(q, v);
            }
        });
        k.poke(clk, 1);
        k.poke(d, 42);
        k.run_until(5);
        // d changed but no rising edge since the poke... the initial poke
        // of clk to 1 is itself a rising edge, so q latched 0 or 42
        // depending on delta ordering; both pokes land in the same delta,
        // so the register sees d already at 42.
        assert_eq!(k.peek(q), 42);
        k.poke(d, 77);
        k.run_until(14);
        // Falling edge at t=10 must NOT latch.
        assert_eq!(k.peek(q), 42);
        k.run_until(25);
        // Rising edge at t=20 latches 77.
        assert_eq!(k.peek(q), 77);
    }

    #[test]
    fn no_event_no_process_run() {
        let mut k = Kernel::new();
        let a = k.signal("a", 8);
        let b = k.signal("b", 8);
        k.process(&[a], move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, v);
        });
        k.poke(a, 0); // same value: no event
        k.run_until(10);
        assert_eq!(k.stats().process_runs, 0);
        assert_eq!(k.stats().events, 0);
        assert_eq!(k.stats().transactions, 1);
    }

    #[test]
    #[should_panic(expected = "oscillation")]
    fn combinational_loop_detected() {
        let mut k = Kernel::new();
        let a = k.signal("a", 1);
        k.process(&[a], move |ctx| {
            let v = ctx.get(a) ^ 1;
            ctx.set(a, v);
        });
        k.poke(a, 1);
        k.run_until(1);
    }

    #[test]
    fn timed_assignments_order_by_time() {
        let mut k = Kernel::new();
        let s = k.signal("s", 8);
        k.poke_after(s, 3, 30);
        k.poke_after(s, 1, 10);
        k.poke_after(s, 2, 20);
        k.run_until(15);
        assert_eq!(k.peek(s), 1);
        k.run_until(25);
        assert_eq!(k.peek(s), 2);
        k.run_until(35);
        assert_eq!(k.peek(s), 3);
        assert_eq!(k.stats().time_steps, 3);
    }

    #[test]
    fn primitive_slice_mapping() {
        let p = Primitives { ff_bits: 64, lut_bits: 32, mult18s: 3, brams: 1 };
        // 32 FF slices dominate 16 LUT slices; minor/10 adds 1.
        assert_eq!(p.slices(), 33);
    }
}
