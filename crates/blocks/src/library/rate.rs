//! Rate-changing and miscellaneous blocks: up/down sampling, constant
//! multiplication, thresholding, dual-port RAM — the rest of the standard
//! System Generator blockset used by signal-processing designs.

use super::latch;
use crate::block::{bit, bool_of, Block, StateFrame};
use crate::fix::{Fix, FixFmt, Overflow, Rounding};
use crate::resource::Resources;

/// Keeps every `factor`-th sample, holding it between updates (System
/// Generator `Down Sample` in sample-and-hold mode).
#[derive(Debug, Clone)]
pub struct DownSample {
    fmt: FixFmt,
    /// Output formats: the held sample, then the strobe.
    outs: [FixFmt; 2],
    factor: u64,
    phase: u64,
    held: Fix,
}

impl DownSample {
    /// Keeps one sample out of every `factor ≥ 1`.
    pub fn new(fmt: FixFmt, factor: u64) -> DownSample {
        assert!(factor >= 1);
        DownSample { fmt, outs: [fmt, FixFmt::BOOL], factor, phase: 0, held: Fix::zero(fmt) }
    }
}

impl Block for DownSample {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        &self.outs
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = self.held;
        outputs[1] = bit(self.phase == 0);
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let latched = self.phase == 0
            && latch(
                &mut self.held,
                inputs[0].convert(self.fmt, Overflow::Wrap, Rounding::Truncate),
            );
        self.phase = (self.phase + 1) % self.factor;
        // The phase counter only holds still at factor 1.
        latched || self.factor != 1
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        Resources::slices(Resources::ff_slices(self.fmt.word as u32) + 2)
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.phase);
        out.push(self.held.to_bits());
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        self.phase = src.word() % self.factor;
        self.held = Fix::from_bits(src.word(), self.fmt);
    }
}

/// Repeats each input sample `factor` times and strobes the first copy
/// (System Generator `Up Sample` with hold).
#[derive(Debug, Clone)]
pub struct UpSample {
    fmt: FixFmt,
    /// Output formats: the sample, then the strobe.
    outs: [FixFmt; 2],
    factor: u64,
    phase: u64,
    held: Fix,
}

impl UpSample {
    /// Each input sample is presented for `factor ≥ 1` cycles.
    pub fn new(fmt: FixFmt, factor: u64) -> UpSample {
        assert!(factor >= 1);
        UpSample { fmt, outs: [fmt, FixFmt::BOOL], factor, phase: 0, held: Fix::zero(fmt) }
    }
}

impl Block for UpSample {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        &self.outs
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = self.held;
        outputs[1] = bit(self.phase == 1 % self.factor.max(1));
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let latched = self.phase == 0
            && latch(
                &mut self.held,
                inputs[0].convert(self.fmt, Overflow::Wrap, Rounding::Truncate),
            );
        self.phase = (self.phase + 1) % self.factor;
        // The phase counter only holds still at factor 1.
        latched || self.factor != 1
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        Resources::slices(Resources::ff_slices(self.fmt.word as u32) + 2)
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.phase);
        out.push(self.held.to_bits());
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        self.phase = src.word() % self.factor;
        self.held = Fix::from_bits(src.word(), self.fmt);
    }
}

/// Multiplication by a compile-time constant (System Generator `CMult`):
/// cheaper than a full multiplier — constants that are powers of two
/// reduce to wiring.
#[derive(Debug, Clone)]
pub struct CMult {
    constant: Fix,
    out: FixFmt,
}

impl CMult {
    /// Multiplies by `constant`, producing `out`-formatted results.
    pub fn new(constant: Fix, out: FixFmt) -> CMult {
        CMult { constant, out }
    }
}

impl Block for CMult {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = inputs[0].mul_full(&self.constant).convert(
            self.out,
            Overflow::Wrap,
            Rounding::Truncate,
        );
    }
    fn resources(&self) -> Resources {
        let raw = self.constant.raw().unsigned_abs();
        if raw.is_power_of_two() || raw == 0 {
            Resources::ZERO // wiring (a shift)
        } else {
            // Shift-add network: one adder per set bit beyond the first.
            let adders = (raw.count_ones() - 1).max(1);
            Resources::slices(adders * Resources::adder_slices(self.out.word as u32))
        }
    }
}

/// Sign detector (System Generator `Threshold`): outputs 1 for negative
/// inputs, 0 otherwise.
#[derive(Debug, Clone)]
pub struct Threshold;

impl Block for Threshold {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        &[FixFmt::BOOL]
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = bit(inputs[0].is_negative());
    }
}

/// A dual-port synchronous RAM: port A read/write, port B read-only.
///
/// Inputs: 0 = addr A, 1 = write data A, 2 = write enable A, 3 = addr B.
/// Outputs: 0 = data A (registered), 1 = data B (registered).
#[derive(Debug, Clone)]
pub struct DualPortRam {
    fmt: FixFmt,
    /// Output formats: both ports read `fmt`.
    outs: [FixFmt; 2],
    data: Vec<Fix>,
    reg_a: Fix,
    reg_b: Fix,
}

impl DualPortRam {
    /// A RAM of `words` entries (at least one).
    pub fn new(fmt: FixFmt, words: usize) -> DualPortRam {
        assert!(words >= 1, "a RAM must have at least one word");
        DualPortRam {
            fmt,
            outs: [fmt; 2],
            data: vec![Fix::zero(fmt); words],
            reg_a: Fix::zero(fmt),
            reg_b: Fix::zero(fmt),
        }
    }
}

impl Block for DualPortRam {
    fn inputs(&self) -> usize {
        4
    }
    fn outputs(&self) -> &[FixFmt] {
        &self.outs
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = self.reg_a;
        outputs[1] = self.reg_b;
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let n = self.data.len();
        let addr_a = (inputs[0].raw().max(0) as usize) % n;
        let addr_b = (inputs[3].raw().max(0) as usize) % n;
        let wrote = bool_of(&inputs[2])
            && latch(
                &mut self.data[addr_a],
                inputs[1].convert(self.fmt, Overflow::Wrap, Rounding::Truncate),
            );
        let read_a = latch(&mut self.reg_a, self.data[addr_a]);
        let read_b = latch(&mut self.reg_b, self.data[addr_b]);
        wrote || read_a || read_b
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        let bits = self.data.len() as u32 * self.fmt.word as u32;
        Resources { slices: 4, brams: bits.div_ceil(18 * 1024).max(1), mult18s: 0 }
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.extend(self.data.iter().map(Fix::to_bits));
        out.push(self.reg_a.to_bits());
        out.push(self.reg_b.to_bits());
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        for v in &mut self.data {
            *v = Fix::from_bits(src.word(), self.fmt);
        }
        self.reg_a = Fix::from_bits(src.word(), self.fmt);
        self.reg_b = Fix::from_bits(src.word(), self.fmt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    const I16: FixFmt = FixFmt::INT16;

    #[test]
    fn downsample_keeps_every_nth() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("ds", DownSample::new(I16, 3));
        g.wire(x, d, 0).unwrap();
        g.gateway_out("y", d, 0);
        g.compile().unwrap();
        let mut seen = Vec::new();
        for i in 1..=7 {
            g.set_input("x", Fix::from_int(i, I16)).unwrap();
            g.step();
            seen.push(g.value(d, 0).raw());
        }
        // Held values: sample 1 latched at end of cycle 1, 4 at cycle 4...
        assert_eq!(seen, vec![0, 1, 1, 1, 4, 4, 4]);
    }

    #[test]
    fn upsample_holds_each_sample() {
        let mut u = UpSample::new(I16, 2);
        let mut out = [Fix::zero(I16), Fix::zero(FixFmt::BOOL)];
        u.clock(&[Fix::from_int(9, I16)]);
        u.eval(&[], &mut out);
        assert_eq!(out[0].raw(), 9);
        u.clock(&[Fix::from_int(100, I16)]); // phase 1: ignored
        u.eval(&[], &mut out);
        assert_eq!(out[0].raw(), 9, "held through the up-sample period");
        u.clock(&[Fix::from_int(11, I16)]); // phase 0 again: latched
        u.eval(&[], &mut out);
        assert_eq!(out[0].raw(), 11);
    }

    #[test]
    fn cmult_multiplies_by_constant() {
        let c = CMult::new(Fix::from_int(-3, I16), FixFmt::INT32);
        let mut out = [Fix::zero(FixFmt::INT32)];
        c.eval(&[Fix::from_int(7, I16)], &mut out);
        assert_eq!(out[0].raw(), -21);
    }

    #[test]
    fn cmult_power_of_two_is_free() {
        let free = CMult::new(Fix::from_int(8, I16), I16);
        assert_eq!(free.resources(), Resources::ZERO);
        let costly = CMult::new(Fix::from_int(7, I16), I16);
        assert!(costly.resources().slices > 0);
    }

    #[test]
    fn threshold_is_cordic_direction_bit() {
        let t = Threshold;
        let mut out = [Fix::zero(FixFmt::BOOL)];
        t.eval(&[Fix::from_int(-1, I16)], &mut out);
        assert!(!out[0].is_zero());
        t.eval(&[Fix::from_int(0, I16)], &mut out);
        assert!(out[0].is_zero());
    }

    #[test]
    fn dual_port_ram_independent_reads() {
        let mut ram = DualPortRam::new(I16, 8);
        let addr = |a: i64| Fix::from_int(a, FixFmt::unsigned(3, 0));
        let on = crate::block::bit(true);
        let off = crate::block::bit(false);
        ram.clock(&[addr(2), Fix::from_int(42, I16), on, addr(2)]);
        let mut out = [Fix::zero(I16), Fix::zero(I16)];
        ram.eval(&[], &mut out);
        assert_eq!(out[0].raw(), 42, "port A write-first");
        assert_eq!(out[1].raw(), 42, "port B sees the new value");
        ram.clock(&[addr(5), Fix::zero(I16), off, addr(2)]);
        ram.eval(&[], &mut out);
        assert_eq!(out[0].raw(), 0);
        assert_eq!(out[1].raw(), 42);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn a_dual_port_ram_of_no_words_is_rejected() {
        DualPortRam::new(I16, 0);
    }
}
