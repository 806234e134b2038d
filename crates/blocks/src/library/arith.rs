//! Arithmetic blocks: constant, add/sub, multiplier, negate, absolute
//! value, shift and format conversion.

use super::shift;
use crate::block::{Block, StateFrame};
use crate::fix::{Fix, FixFmt, Overflow, Rounding};
use crate::resource::Resources;
use std::collections::VecDeque;

/// A constant source.
#[derive(Debug, Clone)]
pub struct Constant {
    value: Fix,
}

impl Constant {
    /// A constant with the given value.
    pub fn new(value: Fix) -> Constant {
        Constant { value }
    }

    /// An integer constant in the given format.
    pub fn int(v: i64, fmt: FixFmt) -> Constant {
        Constant { value: Fix::from_int(v, fmt) }
    }
}

impl Block for Constant {
    fn inputs(&self) -> usize {
        0
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(self.value.fmt_ref())
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = self.value;
    }
    // Constants are wiring/LUT-init only.
}

/// Add or subtract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddSubOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
}

/// A two-input adder/subtractor with an explicit output format.
#[derive(Debug, Clone)]
pub struct AddSub {
    op: AddSubOp,
    out: FixFmt,
    overflow: Overflow,
    rounding: Rounding,
}

impl AddSub {
    /// An adder/subtractor producing `out`-formatted results.
    pub fn new(op: AddSubOp, out: FixFmt) -> AddSub {
        AddSub { op, out, overflow: Overflow::Wrap, rounding: Rounding::Truncate }
    }

    /// Selects saturation instead of wrapping.
    pub fn saturating(mut self) -> AddSub {
        self.overflow = Overflow::Saturate;
        self
    }
}

impl Block for AddSub {
    fn inputs(&self) -> usize {
        2
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        let full = match self.op {
            AddSubOp::Add => inputs[0].add_full(&inputs[1]),
            AddSubOp::Sub => inputs[0].sub_full(&inputs[1]),
        };
        outputs[0] = full.convert(self.out, self.overflow, self.rounding);
    }
    fn resources(&self) -> Resources {
        let mut r = Resources::slices(Resources::adder_slices(self.out.word as u32));
        if self.overflow == Overflow::Saturate {
            // Saturation needs a comparator/mux tail.
            r.slices += (self.out.word as u32).div_ceil(4);
        }
        r
    }
}

/// A multiplier with configurable pipeline latency, mapped to embedded
/// 18×18 multipliers (as on Virtex-II Pro) or to slice logic.
#[derive(Debug, Clone)]
pub struct Mult {
    out: FixFmt,
    latency: usize,
    /// Pipeline of results in flight (front = oldest).
    pipe: VecDeque<Fix>,
    use_embedded: bool,
}

impl Mult {
    /// An embedded-multiplier-based multiplier with `latency` pipeline
    /// stages (0 = purely combinational).
    pub fn new(out: FixFmt, latency: usize) -> Mult {
        Mult {
            out,
            latency,
            pipe: VecDeque::from(vec![Fix::zero(out); latency]),
            use_embedded: true,
        }
    }

    /// Maps the multiplier to slice logic instead of MULT18X18 primitives
    /// (the trade-off the paper's §I discusses for Virtex-II multipliers).
    pub fn slice_based(mut self) -> Mult {
        self.use_embedded = false;
        self
    }

    fn compute(&self, inputs: &[Fix]) -> Fix {
        inputs[0].mul_full(&inputs[1]).convert(self.out, Overflow::Wrap, Rounding::Truncate)
    }
}

impl Block for Mult {
    fn inputs(&self) -> usize {
        2
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = if self.latency == 0 {
            self.compute(inputs)
        } else {
            *self.pipe.front().expect("pipeline holds `latency` entries")
        };
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        if self.latency == 0 {
            return false;
        }
        let v = self.compute(inputs);
        shift(&mut self.pipe, v)
    }
    fn is_combinational(&self) -> bool {
        self.latency == 0
    }
    fn resources(&self) -> Resources {
        // One MULT18X18 covers an 18×18 product; wider operands tile.
        let w = self.out.word as u32;
        if self.use_embedded {
            let tiles = w.div_ceil(18).pow(2).min(4);
            Resources { slices: 2 * self.latency as u32, brams: 0, mult18s: tiles }
        } else {
            // Slice-based array multiplier: roughly w²/4 LUT pairs.
            Resources::slices((w * w) / 4 + 2 * self.latency as u32)
        }
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.extend(self.pipe.iter().map(Fix::to_bits));
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        for v in &mut self.pipe {
            *v = Fix::from_bits(src.word(), self.out);
        }
    }
}

/// Arithmetic negation.
#[derive(Debug, Clone)]
pub struct Negate {
    out: FixFmt,
}

impl Negate {
    /// A negator producing `out`-formatted results.
    pub fn new(out: FixFmt) -> Negate {
        Negate { out }
    }
}

impl Block for Negate {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = inputs[0].neg().convert(self.out, Overflow::Wrap, Rounding::Truncate);
    }
    fn resources(&self) -> Resources {
        Resources::slices(Resources::adder_slices(self.out.word as u32))
    }
}

/// Absolute value.
#[derive(Debug, Clone)]
pub struct AbsVal {
    out: FixFmt,
}

impl AbsVal {
    /// An absolute-value block producing `out`-formatted results.
    pub fn new(out: FixFmt) -> AbsVal {
        AbsVal { out }
    }
}

impl Block for AbsVal {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = inputs[0].abs().convert(self.out, Overflow::Wrap, Rounding::Truncate);
    }
    fn resources(&self) -> Resources {
        Resources::slices(Resources::adder_slices(self.out.word as u32))
    }
}

/// Shift direction for [`Shift`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftDir {
    /// Shift the raw bits left (multiply by 2^n).
    Left,
    /// Shift the raw bits right (divide by 2^n; arithmetic for signed).
    Right,
}

/// A constant-amount shifter. In hardware a constant shift is free
/// (wiring); the block exists to model the CORDIC `>> i` datapaths.
#[derive(Debug, Clone)]
pub struct Shift {
    dir: ShiftDir,
    amount: u32,
    out: FixFmt,
}

impl Shift {
    /// A shifter by a constant `amount`, producing `out` format.
    pub fn new(dir: ShiftDir, amount: u32, out: FixFmt) -> Shift {
        Shift { dir, amount, out }
    }
}

impl Block for Shift {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        let n = match self.dir {
            ShiftDir::Left => self.amount as i32,
            ShiftDir::Right => -(self.amount as i32),
        };
        outputs[0] = inputs[0].convert(self.out, Overflow::Wrap, Rounding::Truncate).shift_raw(n);
    }
    // Constant shifts are wiring: zero resources.
}

/// Format conversion (System Generator `Convert`).
#[derive(Debug, Clone)]
pub struct Convert {
    out: FixFmt,
    overflow: Overflow,
    rounding: Rounding,
}

impl Convert {
    /// A converter into `out` with the given overflow/rounding behavior.
    pub fn new(out: FixFmt, overflow: Overflow, rounding: Rounding) -> Convert {
        Convert { out, overflow, rounding }
    }
}

impl Block for Convert {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = inputs[0].convert(self.out, self.overflow, self.rounding);
    }
    fn resources(&self) -> Resources {
        match (self.overflow, self.rounding) {
            (Overflow::Wrap, Rounding::Truncate) => Resources::ZERO, // wiring
            _ => Resources::slices((self.out.word as u32).div_ceil(4)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    const I16: FixFmt = FixFmt::INT16;

    #[test]
    fn addsub_adds_and_subtracts() {
        let mut g = Graph::new();
        let a = g.gateway_in("a", I16);
        let b = g.gateway_in("b", I16);
        let add = g.add("add", AddSub::new(AddSubOp::Add, I16));
        let sub = g.add("sub", AddSub::new(AddSubOp::Sub, I16));
        for (n, p) in [(add, 0), (sub, 0)] {
            g.connect(a, 0, n, p).unwrap();
        }
        for (n, p) in [(add, 1), (sub, 1)] {
            g.connect(b, 0, n, p).unwrap();
        }
        g.gateway_out("sum", add, 0);
        g.gateway_out("diff", sub, 0);
        g.compile().unwrap();
        g.set_input("a", Fix::from_int(100, I16)).unwrap();
        g.set_input("b", Fix::from_int(-30, I16)).unwrap();
        g.step();
        assert_eq!(g.output("sum").unwrap().raw(), 70);
        assert_eq!(g.output("diff").unwrap().raw(), 130);
    }

    #[test]
    fn addsub_wraps_like_hardware() {
        let fmt = FixFmt::signed(8, 0);
        let add = AddSub::new(AddSubOp::Add, fmt);
        let mut out = [Fix::zero(fmt)];
        add.eval(&[Fix::from_int(127, fmt), Fix::from_int(1, fmt)], &mut out);
        assert_eq!(out[0].raw(), -128);
        let sat = AddSub::new(AddSubOp::Add, fmt).saturating();
        sat.eval(&[Fix::from_int(127, fmt), Fix::from_int(1, fmt)], &mut out);
        assert_eq!(out[0].raw(), 127);
    }

    #[test]
    fn mult_latency_pipelines_results() {
        let mut g = Graph::new();
        let a = g.gateway_in("a", I16);
        let b = g.gateway_in("b", I16);
        let m = g.add("m", Mult::new(FixFmt::INT32, 2));
        g.connect(a, 0, m, 0).unwrap();
        g.connect(b, 0, m, 1).unwrap();
        g.gateway_out("p", m, 0);
        g.compile().unwrap();
        let pairs = [(3, 4), (5, 6), (7, 8)];
        let mut seen = Vec::new();
        for (x, y) in pairs {
            g.set_input("a", Fix::from_int(x, I16)).unwrap();
            g.set_input("b", Fix::from_int(y, I16)).unwrap();
            g.step();
            seen.push(g.output("p").unwrap().raw());
        }
        // Latency 2: first two outputs are the pipeline's initial zeros.
        assert_eq!(seen, vec![0, 0, 12]);
        g.set_input("a", Fix::zero(I16)).unwrap();
        g.set_input("b", Fix::zero(I16)).unwrap();
        g.step();
        assert_eq!(g.output("p").unwrap().raw(), 30);
        g.step();
        assert_eq!(g.output("p").unwrap().raw(), 56);
    }

    #[test]
    fn combinational_mult_has_no_delay() {
        let m = Mult::new(FixFmt::INT32, 0);
        let mut out = [Fix::zero(FixFmt::INT32)];
        m.eval(&[Fix::from_int(-9, I16), Fix::from_int(9, I16)], &mut out);
        assert_eq!(out[0].raw(), -81);
        assert!(m.is_combinational());
    }

    #[test]
    fn mult_resources_embedded_vs_slices() {
        let e = Mult::new(I16, 1).resources();
        assert_eq!(e.mult18s, 1);
        assert!(e.slices < 10);
        let s = Mult::new(I16, 1).slice_based().resources();
        assert_eq!(s.mult18s, 0);
        assert!(s.slices > 50, "slice-based 16-bit multiplier is big");
    }

    #[test]
    fn shift_models_cordic_datapath() {
        let sh = Shift::new(ShiftDir::Right, 3, I16);
        let mut out = [Fix::zero(I16)];
        sh.eval(&[Fix::from_int(-40, I16)], &mut out);
        assert_eq!(out[0].raw(), -5);
        let sh = Shift::new(ShiftDir::Left, 2, I16);
        sh.eval(&[Fix::from_int(7, I16)], &mut out);
        assert_eq!(out[0].raw(), 28);
    }

    #[test]
    fn convert_quantizes() {
        let c = Convert::new(FixFmt::signed(8, 0), Overflow::Saturate, Rounding::Nearest);
        let mut out = [Fix::zero(FixFmt::signed(8, 0))];
        c.eval(&[Fix::from_f64(130.7, FixFmt::signed(16, 4))], &mut out);
        assert_eq!(out[0].raw(), 127);
        c.eval(&[Fix::from_f64(3.5, FixFmt::signed(16, 4))], &mut out);
        assert_eq!(out[0].raw(), 4);
    }

    #[test]
    fn negate_abs() {
        let n = Negate::new(I16);
        let a = AbsVal::new(I16);
        let mut out = [Fix::zero(I16)];
        n.eval(&[Fix::from_int(5, I16)], &mut out);
        assert_eq!(out[0].raw(), -5);
        a.eval(&[Fix::from_int(-5, I16)], &mut out);
        assert_eq!(out[0].raw(), 5);
    }
}
