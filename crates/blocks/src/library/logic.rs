//! Control and bit-level blocks: mux, relational, logical, slice, concat.

use crate::block::{bit, Block};
use crate::fix::{Fix, FixFmt, Overflow, Rounding};
use crate::resource::Resources;

/// An n-way multiplexer: input 0 is the select, inputs 1..=n the data.
#[derive(Debug, Clone)]
pub struct Mux {
    ways: usize,
    out: FixFmt,
}

impl Mux {
    /// A mux with `ways` data inputs producing `out` format.
    ///
    /// # Panics
    /// Panics if `ways < 2`.
    pub fn new(ways: usize, out: FixFmt) -> Mux {
        assert!(ways >= 2, "a mux needs at least two ways");
        Mux { ways, out }
    }
}

impl Block for Mux {
    fn inputs(&self) -> usize {
        self.ways + 1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        let sel = (inputs[0].raw().max(0) as usize).min(self.ways - 1);
        outputs[0] = inputs[1 + sel].convert(self.out, Overflow::Wrap, Rounding::Truncate);
    }
    fn resources(&self) -> Resources {
        // A 2:1 mux bit fits one LUT; n-way muxes tree up.
        let luts = self.out.word as u32 * (self.ways as u32 - 1);
        Resources::slices(luts.div_ceil(2))
    }
}

/// Comparison operator for [`Relational`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
    /// `a < b`.
    Lt,
    /// `a <= b`.
    Le,
    /// `a > b`.
    Gt,
    /// `a >= b`.
    Ge,
}

/// A comparator producing a single bit.
#[derive(Debug, Clone)]
pub struct Relational {
    op: RelOp,
    width_hint: u8,
}

impl Relational {
    /// A comparator; `width_hint` sizes the resource estimate.
    pub fn new(op: RelOp, width_hint: u8) -> Relational {
        Relational { op, width_hint }
    }
}

impl Block for Relational {
    fn inputs(&self) -> usize {
        2
    }
    fn outputs(&self) -> &[FixFmt] {
        &[FixFmt::BOOL]
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        use std::cmp::Ordering::*;
        let ord = inputs[0].cmp_value(&inputs[1]);
        let v = match self.op {
            RelOp::Eq => ord == Equal,
            RelOp::Ne => ord != Equal,
            RelOp::Lt => ord == Less,
            RelOp::Le => ord != Greater,
            RelOp::Gt => ord == Greater,
            RelOp::Ge => ord != Less,
        };
        outputs[0] = bit(v);
    }
    fn resources(&self) -> Resources {
        Resources::slices((self.width_hint as u32).div_ceil(4))
    }
}

/// Bitwise operator for [`Logical`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalOp {
    /// Bitwise AND of all inputs.
    And,
    /// Bitwise OR of all inputs.
    Or,
    /// Bitwise XOR of all inputs.
    Xor,
    /// Bitwise NOT of the single input.
    Not,
}

/// A bitwise logic gate over equal-width words.
#[derive(Debug, Clone)]
pub struct Logical {
    op: LogicalOp,
    arity: usize,
    out: FixFmt,
}

impl Logical {
    /// A gate over `arity` inputs producing `out` format.
    pub fn new(op: LogicalOp, arity: usize, out: FixFmt) -> Logical {
        assert!(if op == LogicalOp::Not { arity == 1 } else { arity >= 2 });
        Logical { op, arity, out }
    }
}

impl Block for Logical {
    fn inputs(&self) -> usize {
        self.arity
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        let mask = u64::MAX >> (64 - self.out.word);
        let v = match self.op {
            LogicalOp::Not => !inputs[0].to_bits() & mask,
            op => {
                let mut acc = inputs[0].to_bits();
                for x in &inputs[1..] {
                    let b = x.to_bits();
                    acc = match op {
                        LogicalOp::And => acc & b,
                        LogicalOp::Or => acc | b,
                        LogicalOp::Xor => acc ^ b,
                        LogicalOp::Not => unreachable!(),
                    };
                }
                acc & mask
            }
        };
        outputs[0] = Fix::from_bits(v, self.out);
    }
    fn resources(&self) -> Resources {
        let luts = self.out.word as u32 * (self.arity as u32).saturating_sub(1).max(1);
        Resources::slices(luts.div_ceil(2))
    }
}

/// Extracts a contiguous bit field (System Generator `Slice`).
#[derive(Debug, Clone)]
pub struct Slice {
    /// Lowest extracted bit.
    low: u8,
    out: FixFmt,
}

impl Slice {
    /// Extracts `out.word` bits starting at bit `low` of the input.
    pub fn new(low: u8, out: FixFmt) -> Slice {
        Slice { low, out }
    }
}

impl Block for Slice {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = Fix::from_bits(inputs[0].to_bits() >> self.low, self.out);
    }
    // Slices are wiring.
}

/// Concatenates two words: input 0 becomes the high bits.
#[derive(Debug, Clone)]
pub struct Concat {
    low_width: u8,
    out: FixFmt,
}

impl Concat {
    /// Concatenates `hi` (input 0) over `low_width` bits of input 1.
    pub fn new(low_width: u8, out: FixFmt) -> Concat {
        Concat { low_width, out }
    }
}

impl Block for Concat {
    fn inputs(&self) -> usize {
        2
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.out)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        let v = (inputs[0].to_bits() << self.low_width) | inputs[1].to_bits();
        outputs[0] = Fix::from_bits(v, self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::bool_of;

    const I16: FixFmt = FixFmt::INT16;

    fn eval1(b: &dyn Block, inputs: &[Fix]) -> Fix {
        let mut out = [Fix::zero(b.outputs()[0])];
        b.eval(inputs, &mut out);
        out[0]
    }

    #[test]
    fn mux_selects() {
        let m = Mux::new(3, I16);
        let data = [
            Fix::from_int(1, FixFmt::unsigned(2, 0)),
            Fix::from_int(10, I16),
            Fix::from_int(20, I16),
            Fix::from_int(30, I16),
        ];
        assert_eq!(eval1(&m, &data).raw(), 20);
        let mut d2 = data;
        d2[0] = Fix::from_int(2, FixFmt::unsigned(2, 0));
        assert_eq!(eval1(&m, &d2).raw(), 30);
        // Out-of-range select clamps to the last way.
        d2[0] = Fix::from_int(3, FixFmt::unsigned(2, 0));
        assert_eq!(eval1(&m, &d2).raw(), 30);
    }

    #[test]
    fn relational_all_ops() {
        let a = Fix::from_int(-3, I16);
        let b = Fix::from_int(5, I16);
        let cases = [
            (RelOp::Eq, false),
            (RelOp::Ne, true),
            (RelOp::Lt, true),
            (RelOp::Le, true),
            (RelOp::Gt, false),
            (RelOp::Ge, false),
        ];
        for (op, expect) in cases {
            let r = Relational::new(op, 16);
            assert_eq!(!eval1(&r, &[a, b]).is_zero(), expect, "{op:?}");
        }
        let r = Relational::new(RelOp::Le, 16);
        assert!(!eval1(&r, &[b, b]).is_zero());
    }

    #[test]
    fn relational_detects_negative_y_for_cordic() {
        // The CORDIC direction bit d_i = (Y_i < 0).
        let r = Relational::new(RelOp::Lt, 16);
        let zero = Fix::zero(I16);
        assert!(!eval1(&r, &[Fix::from_int(-1, I16), zero]).is_zero());
        assert!(eval1(&r, &[Fix::from_int(1, I16), zero]).is_zero());
    }

    #[test]
    fn logical_gates() {
        let fmt = FixFmt::unsigned(8, 0);
        let a = Fix::from_bits(0b1100, fmt);
        let b = Fix::from_bits(0b1010, fmt);
        assert_eq!(eval1(&Logical::new(LogicalOp::And, 2, fmt), &[a, b]).to_bits(), 0b1000);
        assert_eq!(eval1(&Logical::new(LogicalOp::Or, 2, fmt), &[a, b]).to_bits(), 0b1110);
        assert_eq!(eval1(&Logical::new(LogicalOp::Xor, 2, fmt), &[a, b]).to_bits(), 0b0110);
        assert_eq!(eval1(&Logical::new(LogicalOp::Not, 1, fmt), &[a]).to_bits(), 0xF3);
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let fmt32 = FixFmt::unsigned(32, 0);
        let fmt16 = FixFmt::unsigned(16, 0);
        let x = Fix::from_bits(0xDEAD_BEEF, fmt32);
        let hi = eval1(&Slice::new(16, fmt16), &[x]);
        let lo = eval1(&Slice::new(0, fmt16), &[x]);
        assert_eq!(hi.to_bits(), 0xDEAD);
        assert_eq!(lo.to_bits(), 0xBEEF);
        let back = eval1(&Concat::new(16, fmt32), &[hi, lo]);
        assert_eq!(back.to_bits(), 0xDEAD_BEEF);
    }

    #[test]
    fn bool_helpers() {
        assert!(!bool_of(&Fix::zero(FixFmt::BOOL)));
        assert!(bool_of(&bit(true)));
    }
}
