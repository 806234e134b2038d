//! Sequential blocks: delays, registers, counters, accumulators, FIFOs
//! and memories.

use super::{latch, shift};
use crate::block::{bool_of, Block, StateFrame};
use crate::fix::{Fix, FixFmt, Overflow, Rounding};
use crate::resource::Resources;
use std::collections::VecDeque;

/// A fixed delay line of `n ≥ 1` cycles.
#[derive(Debug, Clone)]
pub struct Delay {
    fmt: FixFmt,
    line: VecDeque<Fix>,
}

impl Delay {
    /// An `n`-cycle delay of `fmt`-formatted samples, initialized to zero.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(fmt: FixFmt, n: usize) -> Delay {
        assert!(n >= 1, "a delay must be at least one cycle");
        Delay { fmt, line: VecDeque::from(vec![Fix::zero(fmt); n]) }
    }
}

impl Block for Delay {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.fmt)
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = *self.line.front().expect("line is non-empty");
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        shift(&mut self.line, inputs[0].convert(self.fmt, Overflow::Wrap, Rounding::Truncate))
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        Resources::slices(Resources::ff_slices(self.fmt.word as u32) * self.line.len() as u32)
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.extend(self.line.iter().map(Fix::to_bits));
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        for v in &mut self.line {
            *v = Fix::from_bits(src.word(), self.fmt);
        }
    }
}

/// A register with clock-enable: input 0 = data, input 1 = enable bit.
#[derive(Debug, Clone)]
pub struct Register {
    fmt: FixFmt,
    state: Fix,
}

impl Register {
    /// A register initialized to `init`.
    pub fn new(init: Fix) -> Register {
        Register { fmt: init.fmt(), state: init }
    }

    /// A zero-initialized register of the given format.
    pub fn zeroed(fmt: FixFmt) -> Register {
        Register::new(Fix::zero(fmt))
    }
}

impl Block for Register {
    fn inputs(&self) -> usize {
        2
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.fmt)
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = self.state;
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        bool_of(&inputs[1])
            && latch(
                &mut self.state,
                inputs[0].convert(self.fmt, Overflow::Wrap, Rounding::Truncate),
            )
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        Resources::slices(Resources::ff_slices(self.fmt.word as u32))
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.state.to_bits());
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        self.state = Fix::from_bits(src.word(), self.fmt);
    }
}

/// A free-running modulo counter.
#[derive(Debug, Clone)]
pub struct Counter {
    fmt: FixFmt,
    modulo: u64,
    state: u64,
}

impl Counter {
    /// Counts 0, 1, ..., `modulo`−1, 0, ... in `fmt`.
    ///
    /// # Panics
    /// Panics if `modulo` is 0 or not representable in `fmt`.
    pub fn new(fmt: FixFmt, modulo: u64) -> Counter {
        assert!(modulo > 0, "counter modulo must be positive");
        assert!(fmt.contains_raw(modulo as i64 - 1), "modulo exceeds format");
        Counter { fmt, modulo, state: 0 }
    }
}

impl Block for Counter {
    fn inputs(&self) -> usize {
        0
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.fmt)
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = Fix::from_int(self.state as i64, self.fmt);
    }
    fn clock(&mut self, _inputs: &[Fix]) -> bool {
        self.state = (self.state + 1) % self.modulo;
        // A free-running counter only holds still at modulo 1.
        self.modulo != 1
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        Resources::slices(Resources::adder_slices(self.fmt.word as u32))
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.state);
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        self.state = src.word() % self.modulo;
    }
}

/// An accumulator: input 0 = addend, input 1 = enable, input 2 = reset.
#[derive(Debug, Clone)]
pub struct Accumulator {
    fmt: FixFmt,
    state: Fix,
}

impl Accumulator {
    /// A zero-initialized accumulator in `fmt`.
    pub fn new(fmt: FixFmt) -> Accumulator {
        Accumulator { fmt, state: Fix::zero(fmt) }
    }
}

impl Block for Accumulator {
    fn inputs(&self) -> usize {
        3
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.fmt)
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = self.state;
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let next = if bool_of(&inputs[2]) {
            Fix::zero(self.fmt)
        } else if bool_of(&inputs[1]) {
            self.state.add_full(&inputs[0]).convert(self.fmt, Overflow::Wrap, Rounding::Truncate)
        } else {
            return false;
        };
        latch(&mut self.state, next)
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        Resources::slices(Resources::adder_slices(self.fmt.word as u32))
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.state.to_bits());
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        self.state = Fix::from_bits(src.word(), self.fmt);
    }
}

/// A synchronous FIFO.
///
/// Inputs: 0 = data in, 1 = push, 2 = pop.
/// Outputs: 0 = head data, 1 = `exists` (not empty), 2 = `full`.
///
/// Matches the FSL macro's programmer-visible behavior; used inside
/// peripherals that buffer results before the output FSL.
#[derive(Debug, Clone)]
pub struct SyncFifo {
    fmt: FixFmt,
    /// Output formats: the head data, then the two flags.
    outs: [FixFmt; 3],
    depth: usize,
    queue: VecDeque<Fix>,
}

impl SyncFifo {
    /// A FIFO of `depth` entries.
    pub fn new(fmt: FixFmt, depth: usize) -> SyncFifo {
        assert!(depth >= 1);
        let outs = [fmt, FixFmt::BOOL, FixFmt::BOOL];
        SyncFifo { fmt, outs, depth, queue: VecDeque::with_capacity(depth) }
    }
}

impl Block for SyncFifo {
    fn inputs(&self) -> usize {
        3
    }
    fn outputs(&self) -> &[FixFmt] {
        &self.outs
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = self.queue.front().copied().unwrap_or(Fix::zero(self.fmt));
        outputs[1] = crate::block::bit(!self.queue.is_empty());
        outputs[2] = crate::block::bit(self.queue.len() >= self.depth);
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        // Pop before push so a simultaneous push+pop on a full FIFO works.
        let popped = bool_of(&inputs[2]) && self.queue.pop_front().is_some();
        let pushed = bool_of(&inputs[1]) && self.queue.len() < self.depth;
        if pushed {
            self.queue.push_back(inputs[0].convert(self.fmt, Overflow::Wrap, Rounding::Truncate));
        }
        popped || pushed
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        // Small FIFOs use SRL16 shift registers; deep/wide ones a BRAM.
        let bits = self.depth as u32 * self.fmt.word as u32;
        if bits <= 1024 {
            Resources::slices(bits.div_ceil(16) + 4)
        } else {
            Resources { slices: 8, brams: bits.div_ceil(18 * 1024), mult18s: 0 }
        }
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.queue.len() as u64);
        out.extend(self.queue.iter().map(Fix::to_bits));
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        // Clamp rather than assert: fault injection may flip the length
        // word of a snapshot frame, and that must read as corrupt data
        // the detectors catch, not a panic mid-trial.
        let len = (src.word() as usize).min(self.depth);
        self.queue.clear();
        for _ in 0..len {
            self.queue.push_back(Fix::from_bits(src.word(), self.fmt));
        }
    }
}

/// A single-port synchronous RAM.
///
/// Inputs: 0 = address, 1 = write data, 2 = write enable.
/// Output: 0 = data at the address presented on the *previous* cycle
/// (synchronous read, like a BRAM).
#[derive(Debug, Clone)]
pub struct SinglePortRam {
    fmt: FixFmt,
    data: Vec<Fix>,
    read_reg: Fix,
}

impl SinglePortRam {
    /// A RAM of `words` entries (at least one).
    pub fn new(fmt: FixFmt, words: usize) -> SinglePortRam {
        assert!(words >= 1, "a RAM must have at least one word");
        SinglePortRam { fmt, data: vec![Fix::zero(fmt); words], read_reg: Fix::zero(fmt) }
    }
}

impl Block for SinglePortRam {
    fn inputs(&self) -> usize {
        3
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.fmt)
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = self.read_reg;
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let addr = (inputs[0].raw().max(0) as usize) % self.data.len();
        let wrote = bool_of(&inputs[2])
            && latch(
                &mut self.data[addr],
                inputs[1].convert(self.fmt, Overflow::Wrap, Rounding::Truncate),
            );
        latch(&mut self.read_reg, self.data[addr]) || wrote
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        let bits = self.data.len() as u32 * self.fmt.word as u32;
        Resources { slices: 2, brams: bits.div_ceil(18 * 1024).max(1), mult18s: 0 }
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.extend(self.data.iter().map(Fix::to_bits));
        out.push(self.read_reg.to_bits());
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        for v in &mut self.data {
            *v = Fix::from_bits(src.word(), self.fmt);
        }
        self.read_reg = Fix::from_bits(src.word(), self.fmt);
    }
}

/// A combinational-read ROM addressed by input 0.
#[derive(Debug, Clone)]
pub struct Rom {
    fmt: FixFmt,
    data: Vec<Fix>,
}

impl Rom {
    /// A ROM with the given contents (must be non-empty, uniform format).
    pub fn new(data: Vec<Fix>) -> Rom {
        assert!(!data.is_empty(), "ROM must have contents");
        let fmt = data[0].fmt();
        assert!(data.iter().all(|v| v.fmt() == fmt), "ROM contents must share a format");
        Rom { fmt, data }
    }
}

impl Block for Rom {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.fmt)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        let addr = (inputs[0].raw().max(0) as usize) % self.data.len();
        outputs[0] = self.data[addr];
    }
    fn resources(&self) -> Resources {
        let bits = self.data.len() as u32 * self.fmt.word as u32;
        if bits <= 512 {
            Resources::slices(bits.div_ceil(32).max(1))
        } else {
            Resources { slices: 1, brams: bits.div_ceil(18 * 1024), mult18s: 0 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::bit;
    use crate::graph::Graph;
    use crate::library::arith::{AddSub, AddSubOp, Constant};

    const I16: FixFmt = FixFmt::INT16;

    #[test]
    fn delay_shifts_samples() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 3));
        g.wire(x, d, 0).unwrap();
        g.gateway_out("y", d, 0);
        g.compile().unwrap();
        let mut seen = Vec::new();
        for i in 1..=6 {
            g.set_input("x", Fix::from_int(i, I16)).unwrap();
            g.step();
            seen.push(g.output("y").unwrap().raw());
        }
        assert_eq!(seen, vec![0, 0, 0, 1, 2, 3]);
    }

    #[test]
    fn register_with_enable_holds() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let en = g.gateway_in("en", FixFmt::BOOL);
        let r = g.add("r", Register::zeroed(I16));
        g.wire(x, r, 0).unwrap();
        g.wire(en, r, 1).unwrap();
        g.gateway_out("q", r, 0);
        g.compile().unwrap();
        g.set_input("x", Fix::from_int(5, I16)).unwrap();
        g.set_input("en", bit(true)).unwrap();
        g.step();
        assert_eq!(g.output("q").unwrap().raw(), 0, "register output lags one cycle");
        g.set_input("x", Fix::from_int(9, I16)).unwrap();
        g.set_input("en", bit(false)).unwrap();
        g.step();
        assert_eq!(g.output("q").unwrap().raw(), 5, "disabled register holds");
        g.step();
        assert_eq!(g.output("q").unwrap().raw(), 5);
    }

    #[test]
    fn feedback_through_register_is_legal() {
        // Classic accumulator built from a register + adder feedback loop.
        let mut g = Graph::new();
        let one = g.add("one", Constant::int(1, I16));
        let add = g.add("add", AddSub::new(AddSubOp::Add, I16));
        let en = g.add("en", Constant::int(1, FixFmt::BOOL));
        let r = g.add("r", Register::zeroed(I16));
        g.connect(one, 0, add, 0).unwrap();
        g.connect(r, 0, add, 1).unwrap();
        g.connect(add, 0, r, 0).unwrap();
        g.connect(en, 0, r, 1).unwrap();
        g.gateway_out("q", r, 0);
        g.compile().unwrap();
        // Gateway outputs show each cycle's settled values: the register
        // presents its pre-clock state, so after n cycles it reads n−1.
        g.run(5);
        assert_eq!(g.output("q").unwrap().raw(), 4);
        g.step();
        assert_eq!(g.output("q").unwrap().raw(), 5);
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut g = Graph::new();
        let a = g.add("a", AddSub::new(AddSubOp::Add, I16));
        let b = g.add("b", AddSub::new(AddSubOp::Add, I16));
        let c = g.add("c", Constant::int(0, I16));
        g.connect(a, 0, b, 0).unwrap();
        g.connect(b, 0, a, 0).unwrap();
        g.connect(c, 0, a, 1).unwrap();
        g.connect(c, 0, b, 1).unwrap();
        let err = g.compile().unwrap_err();
        assert!(matches!(err, crate::graph::GraphError::CombinationalCycle { .. }));
    }

    #[test]
    fn counter_wraps_at_modulo() {
        let mut g = Graph::new();
        let c = g.add("c", Counter::new(FixFmt::unsigned(4, 0), 3));
        g.gateway_out("q", c, 0);
        g.compile().unwrap();
        let mut seen = Vec::new();
        for _ in 0..7 {
            g.step();
            seen.push(g.output("q").unwrap().raw());
        }
        // The output shows the state *during* each cycle (pre-increment).
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn accumulator_with_reset() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let en = g.gateway_in("en", FixFmt::BOOL);
        let rst = g.gateway_in("rst", FixFmt::BOOL);
        let a = g.add("acc", Accumulator::new(I16));
        g.wire(x, a, 0).unwrap();
        g.wire(en, a, 1).unwrap();
        g.wire(rst, a, 2).unwrap();
        g.gateway_out("q", a, 0);
        g.compile().unwrap();
        g.set_input("x", Fix::from_int(10, I16)).unwrap();
        g.set_input("en", bit(true)).unwrap();
        g.set_input("rst", bit(false)).unwrap();
        // State visible during cycle n is the sum of the first n−1 adds.
        g.run(3);
        assert_eq!(g.output("q").unwrap().raw(), 20);
        g.set_input("rst", bit(true)).unwrap();
        g.step();
        assert_eq!(g.output("q").unwrap().raw(), 30, "reset lands at the clock edge");
        g.step();
        assert_eq!(g.output("q").unwrap().raw(), 0);
    }

    #[test]
    fn fifo_flags_and_simultaneous_push_pop() {
        let mut fifo = SyncFifo::new(I16, 2);
        let z = Fix::zero(I16);
        let mut out = [z, z, z];
        fifo.eval(&[], &mut out);
        assert!(out[1].is_zero(), "empty: exists = 0");
        fifo.clock(&[Fix::from_int(1, I16), bit(true), bit(false)]);
        fifo.clock(&[Fix::from_int(2, I16), bit(true), bit(false)]);
        fifo.eval(&[], &mut out);
        assert!(!out[2].is_zero(), "full flag set");
        assert_eq!(out[0].raw(), 1);
        // Push while popping at full: succeeds.
        fifo.clock(&[Fix::from_int(3, I16), bit(true), bit(true)]);
        fifo.eval(&[], &mut out);
        assert_eq!(out[0].raw(), 2);
        assert!(!out[2].is_zero());
    }

    #[test]
    fn ram_synchronous_read_after_write() {
        let mut ram = SinglePortRam::new(I16, 16);
        let addr = |a: i64| Fix::from_int(a, FixFmt::unsigned(4, 0));
        ram.clock(&[addr(3), Fix::from_int(77, I16), bit(true)]);
        let mut out = [Fix::zero(I16)];
        ram.eval(&[], &mut out);
        assert_eq!(out[0].raw(), 77, "write-first read");
        ram.clock(&[addr(3), Fix::zero(I16), bit(false)]);
        ram.eval(&[], &mut out);
        assert_eq!(out[0].raw(), 77);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn a_ram_of_no_words_is_rejected() {
        SinglePortRam::new(I16, 0);
    }

    #[test]
    fn rom_lookup() {
        let rom = Rom::new((0..8).map(|i| Fix::from_int(i * i, I16)).collect());
        let mut out = [Fix::zero(I16)];
        rom.eval(&[Fix::from_int(5, FixFmt::unsigned(3, 0))], &mut out);
        assert_eq!(out[0].raw(), 25);
    }

    #[test]
    fn resource_estimates_scale() {
        assert!(Delay::new(I16, 4).resources().slices > Delay::new(I16, 1).resources().slices);
        assert_eq!(SinglePortRam::new(FixFmt::INT32, 512).resources().brams, 1);
        assert!(SyncFifo::new(FixFmt::INT32, 16).resources().slices < 40);
    }
}
