//! Fixed-point arithmetic — the signal type of the block simulator.
//!
//! System Generator blocks compute on fixed-point values described by a
//! word length, a binary point and a signedness, with configurable
//! overflow (wrap / saturate) and quantization (truncate / round)
//! behavior. [`Fix`] reproduces that value model bit-accurately, which is
//! what makes the high-level simulation *arithmetically* faithful to the
//! low-level hardware ("only the arithmetic aspects of the low-level
//! implementations are captured by the simulation process").

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Overflow handling when a value is quantized into a narrower format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Overflow {
    /// Keep the low-order bits (two's-complement wrap), like hardware
    /// adders without saturation logic.
    #[default]
    Wrap,
    /// Clamp to the representable range.
    Saturate,
}

/// Quantization of bits below the output binary point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Drop the bits (round toward minus infinity), the hardware default.
    #[default]
    Truncate,
    /// Round to nearest, ties away from zero.
    Nearest,
}

/// A fixed-point number format: `word` total bits, `frac` bits to the
/// right of the binary point (may be negative or exceed `word`, as in
/// System Generator), signed or unsigned.
///
/// Equality and hashing go through one packed key (see `FixFmt::key`),
/// so comparing two formats is one integer compare.
#[derive(Debug, Clone, Copy)]
pub struct FixFmt {
    /// Total word length in bits (1..=63).
    pub word: u8,
    /// Position of the binary point (bits of fraction).
    pub frac: i8,
    /// Two's-complement signed vs unsigned.
    pub signed: bool,
}

impl FixFmt {
    /// A signed format with `word` bits and `frac` fractional bits.
    ///
    /// # Panics
    /// Panics unless `1 <= word <= 63`.
    pub const fn signed(word: u8, frac: i8) -> FixFmt {
        assert!(word >= 1 && word <= 63, "word length out of range");
        FixFmt { word, frac, signed: true }
    }

    /// An unsigned format with `word` bits and `frac` fractional bits.
    pub const fn unsigned(word: u8, frac: i8) -> FixFmt {
        assert!(word >= 1 && word <= 63, "word length out of range");
        FixFmt { word, frac, signed: false }
    }

    /// A single bit (boolean signal).
    pub const BOOL: FixFmt = FixFmt::unsigned(1, 0);

    /// Signed 16.0 — the integer data format of the paper's applications.
    pub const INT16: FixFmt = FixFmt::signed(16, 0);

    /// Signed 32.0 — the FSL word format.
    pub const INT32: FixFmt = FixFmt::signed(32, 0);

    /// Largest representable raw integer.
    pub const fn max_raw(&self) -> i64 {
        if self.signed {
            (1i64 << (self.word - 1)) - 1
        } else {
            // u64 arithmetic so word = 63 does not overflow.
            ((1u64 << self.word) - 1) as i64
        }
    }

    /// Smallest representable raw integer.
    pub const fn min_raw(&self) -> i64 {
        if self.signed {
            -(1i64 << (self.word - 1))
        } else {
            0
        }
    }

    /// Number of integer bits (word − frac).
    pub const fn int_bits(&self) -> i16 {
        self.word as i16 - self.frac as i16
    }

    /// True when `raw` is representable in this format.
    pub const fn contains_raw(&self, raw: i64) -> bool {
        raw >= self.min_raw() && raw <= self.max_raw()
    }

    /// The mask of the `word` low bits that hold a value's bits.
    pub(crate) const fn mask(&self) -> u64 {
        u64::MAX >> (64 - self.word)
    }

    /// The three fields packed into one word: equal formats, and only
    /// they, have equal keys.
    const fn key(&self) -> u32 {
        self.word as u32 | (self.frac as u8 as u32) << 8 | (self.signed as u32) << 16
    }
}

impl PartialEq for FixFmt {
    #[inline]
    fn eq(&self, other: &FixFmt) -> bool {
        self.key() == other.key()
    }
}

impl Eq for FixFmt {}

impl Hash for FixFmt {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl fmt::Display for FixFmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Fix{}_{}", if self.signed { "" } else { "U" }, self.word, self.frac)
    }
}

/// A fixed-point value: a raw two's-complement integer interpreted as
/// `raw · 2^-frac` in the given format. Two values are equal when their
/// raw integers and their formats are: a raw compare and a key compare.
#[derive(Debug, Clone, Copy)]
pub struct Fix {
    raw: i64,
    fmt: FixFmt,
}

impl PartialEq for Fix {
    #[inline]
    fn eq(&self, other: &Fix) -> bool {
        self.raw == other.raw && self.fmt == other.fmt
    }
}

impl Eq for Fix {}

impl Hash for Fix {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
        self.fmt.hash(state);
    }
}

impl Fix {
    /// Creates a value from a raw integer already in range.
    ///
    /// # Panics
    /// Panics if `raw` is not representable in `fmt`.
    pub fn from_raw(raw: i64, fmt: FixFmt) -> Fix {
        assert!(fmt.contains_raw(raw), "raw value {raw} not representable in {fmt}");
        Fix { raw, fmt }
    }

    /// Quantizes an arbitrarily wide raw value (at binary point `frac`)
    /// into `fmt` with the given overflow and rounding behavior.
    pub fn quantize(value: i128, frac: i8, fmt: FixFmt, ovf: Overflow, rnd: Rounding) -> Fix {
        // Align binary points.
        let shift = frac as i32 - fmt.frac as i32;
        let aligned: i128 = if shift > 0 {
            // Dropping `shift` low bits: apply rounding.
            let drop = shift as u32;
            match rnd {
                Rounding::Truncate => value >> drop,
                Rounding::Nearest => {
                    let half = 1i128 << (drop - 1);
                    if value >= 0 {
                        (value + half) >> drop
                    } else {
                        -((-value + half) >> drop)
                    }
                }
            }
        } else {
            value << ((-shift) as u32)
        };
        let (min, max) = (fmt.min_raw() as i128, fmt.max_raw() as i128);
        let raw = match ovf {
            Overflow::Saturate => aligned.clamp(min, max) as i64,
            Overflow::Wrap => {
                let mask = (1i128 << fmt.word) - 1;
                let low = aligned & mask;
                let v = if fmt.signed && (low >> (fmt.word - 1)) & 1 == 1 {
                    low - (1i128 << fmt.word)
                } else {
                    low
                };
                v as i64
            }
        };
        Fix { raw, fmt }
    }

    /// Zero in the given format.
    pub fn zero(fmt: FixFmt) -> Fix {
        Fix { raw: 0, fmt }
    }

    /// Creates an integer-format value (frac = 0) with wrap semantics.
    pub fn from_int(v: i64, fmt: FixFmt) -> Fix {
        Fix::quantize(v as i128, 0, fmt, Overflow::Wrap, Rounding::Truncate)
    }

    /// Quantizes a float into `fmt` (round-to-nearest, saturating).
    pub fn from_f64(v: f64, fmt: FixFmt) -> Fix {
        let scaled = v * (2f64).powi(fmt.frac as i32);
        let raw = scaled.round().clamp(fmt.min_raw() as f64, fmt.max_raw() as f64) as i64;
        Fix { raw, fmt }
    }

    /// The raw two's-complement integer.
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// The format.
    pub fn fmt(&self) -> FixFmt {
        self.fmt
    }

    /// Numeric value as a float.
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 * (2f64).powi(-(self.fmt.frac as i32))
    }

    /// The raw bits as an unsigned word (for bus transport).
    pub fn to_bits(&self) -> u64 {
        (self.raw as u64) & self.fmt.mask()
    }

    /// Reconstructs a value from bus bits.
    pub fn from_bits(bits: u64, fmt: FixFmt) -> Fix {
        let masked = bits & fmt.mask();
        let raw = if fmt.signed && (masked >> (fmt.word - 1)) & 1 == 1 {
            (masked as i64) - (1i64 << fmt.word)
        } else {
            masked as i64
        };
        Fix { raw, fmt }
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }

    /// True when the value is negative.
    pub fn is_negative(&self) -> bool {
        self.raw < 0
    }

    /// Converts into another format.
    pub fn convert(&self, fmt: FixFmt, ovf: Overflow, rnd: Rounding) -> Fix {
        Fix::quantize(self.raw as i128, self.fmt.frac, fmt, ovf, rnd)
    }

    /// Reinterprets the raw bits in a different format of the same width
    /// (System Generator `reinterpret` block).
    pub fn reinterpret(&self, fmt: FixFmt) -> Fix {
        assert_eq!(self.fmt.word, fmt.word, "reinterpret requires equal widths");
        Fix::from_bits(self.to_bits(), fmt)
    }

    /// Full-precision addition: the result format grows one integer bit and
    /// takes the finer binary point, so no precision is lost as long as the
    /// grown format fits the 63-bit word-length cap (results wider than
    /// that wrap; practical designs stay far below the cap).
    pub fn add_full(&self, other: &Fix) -> Fix {
        let (a, b, frac) = align(self, other);
        let sum = a + b;
        let fmt = grow_fmt(self.fmt, other.fmt, frac, 1);
        Fix::quantize(sum, frac, fmt, Overflow::Wrap, Rounding::Truncate)
    }

    /// Full-precision subtraction (always signed result).
    pub fn sub_full(&self, other: &Fix) -> Fix {
        let (a, b, frac) = align(self, other);
        let diff = a - b;
        let mut fmt = grow_fmt(self.fmt, other.fmt, frac, 1);
        fmt.signed = true;
        Fix::quantize(diff, frac, fmt, Overflow::Wrap, Rounding::Truncate)
    }

    /// Full-precision multiplication.
    pub fn mul_full(&self, other: &Fix) -> Fix {
        let prod = self.raw as i128 * other.raw as i128;
        let frac = self.fmt.frac as i16 + other.fmt.frac as i16;
        let word = (self.fmt.word as u16 + other.fmt.word as u16).min(63) as u8;
        let fmt = FixFmt {
            word,
            frac: frac.clamp(i8::MIN as i16, i8::MAX as i16) as i8,
            signed: self.fmt.signed || other.fmt.signed,
        };
        Fix::quantize(prod, fmt.frac, fmt, Overflow::Wrap, Rounding::Truncate)
    }

    /// Arithmetic negation into the same format (wraps on the most
    /// negative value, as hardware does).
    pub fn neg(&self) -> Fix {
        Fix::quantize(
            -(self.raw as i128),
            self.fmt.frac,
            self.fmt,
            Overflow::Wrap,
            Rounding::Truncate,
        )
    }

    /// Absolute value into the same format (wraps on the most negative).
    pub fn abs(&self) -> Fix {
        if self.raw < 0 {
            self.neg()
        } else {
            *self
        }
    }

    /// Shift of the raw value by `n` bits (positive = left), keeping the
    /// format: a hardware shifter.
    pub fn shift_raw(&self, n: i32) -> Fix {
        let v = if n >= 0 {
            (self.raw as i128) << n.min(63)
        } else {
            (self.raw as i128) >> (-n).min(63)
        };
        Fix::quantize(v, self.fmt.frac, self.fmt, Overflow::Wrap, Rounding::Truncate)
    }

    /// Numeric comparison across formats.
    pub fn cmp_value(&self, other: &Fix) -> Ordering {
        let (a, b, _) = align(self, other);
        a.cmp(&b)
    }
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.fmt)
    }
}

/// Aligns two values to a common binary point.
fn align(a: &Fix, b: &Fix) -> (i128, i128, i8) {
    let frac = a.fmt.frac.max(b.fmt.frac);
    let av = (a.raw as i128) << (frac - a.fmt.frac) as u32;
    let bv = (b.raw as i128) << (frac - b.fmt.frac) as u32;
    (av, bv, frac)
}

/// Result format for add/sub: enough bits for either operand plus `extra`
/// integer bits, at the aligned binary point. An unsigned operand feeding
/// a signed result needs one more integer bit for its magnitude.
fn grow_fmt(a: FixFmt, b: FixFmt, frac: i8, extra: i16) -> FixFmt {
    let signed = a.signed || b.signed;
    let eff = |f: FixFmt| f.int_bits() + (signed && !f.signed) as i16;
    let int_bits = eff(a).max(eff(b)) + extra;
    let word = (int_bits + frac as i16).clamp(1, 63) as u8;
    FixFmt { word, frac, signed }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q16_8: FixFmt = FixFmt::signed(16, 8);

    #[test]
    fn float_round_trip() {
        let x = Fix::from_f64(1.5, Q16_8);
        assert_eq!(x.raw(), 384);
        assert_eq!(x.to_f64(), 1.5);
        let y = Fix::from_f64(-0.25, Q16_8);
        assert_eq!(y.to_f64(), -0.25);
    }

    #[test]
    fn saturation_clamps() {
        let big = Fix::quantize(
            1_000_000,
            0,
            FixFmt::signed(8, 0),
            Overflow::Saturate,
            Rounding::Truncate,
        );
        assert_eq!(big.raw(), 127);
        let small = Fix::quantize(
            -1_000_000,
            0,
            FixFmt::signed(8, 0),
            Overflow::Saturate,
            Rounding::Truncate,
        );
        assert_eq!(small.raw(), -128);
        let u =
            Fix::quantize(-5, 0, FixFmt::unsigned(8, 0), Overflow::Saturate, Rounding::Truncate);
        assert_eq!(u.raw(), 0);
    }

    #[test]
    fn wrap_is_twos_complement() {
        let w = Fix::quantize(130, 0, FixFmt::signed(8, 0), Overflow::Wrap, Rounding::Truncate);
        assert_eq!(w.raw(), 130 - 256);
        let w = Fix::quantize(256, 0, FixFmt::unsigned(8, 0), Overflow::Wrap, Rounding::Truncate);
        assert_eq!(w.raw(), 0);
    }

    #[test]
    fn rounding_modes() {
        let fmt = FixFmt::signed(8, 0);
        let t = Fix::quantize(0b101, 1, fmt, Overflow::Wrap, Rounding::Truncate); // 2.5
        assert_eq!(t.raw(), 2);
        let n = Fix::quantize(0b101, 1, fmt, Overflow::Wrap, Rounding::Nearest);
        assert_eq!(n.raw(), 3, "2.5 rounds away from zero");
        let n = Fix::quantize(-0b101, 1, fmt, Overflow::Wrap, Rounding::Nearest);
        assert_eq!(n.raw(), -3);
        let t = Fix::quantize(-0b101, 1, fmt, Overflow::Wrap, Rounding::Truncate);
        assert_eq!(t.raw(), -3, "truncate is an arithmetic shift (toward -inf)");
    }

    #[test]
    fn add_full_loses_nothing() {
        let a = Fix::from_f64(1.25, FixFmt::signed(8, 4));
        let b = Fix::from_f64(2.0625, FixFmt::signed(16, 8));
        let s = a.add_full(&b);
        assert_eq!(s.to_f64(), 3.3125);
        assert!(s.fmt().frac == 8);
    }

    #[test]
    fn sub_full_signed_result() {
        let a = Fix::from_f64(1.0, FixFmt::unsigned(8, 0));
        let b = Fix::from_f64(3.0, FixFmt::unsigned(8, 0));
        let d = a.sub_full(&b);
        assert!(d.fmt().signed);
        assert_eq!(d.to_f64(), -2.0);
    }

    #[test]
    fn mul_full_exact() {
        let a = Fix::from_f64(1.5, FixFmt::signed(8, 4));
        let b = Fix::from_f64(-2.25, FixFmt::signed(8, 4));
        let p = a.mul_full(&b);
        assert_eq!(p.to_f64(), -3.375);
        assert_eq!(p.fmt().frac, 8);
        assert_eq!(p.fmt().word, 16);
    }

    #[test]
    fn bit_transport_round_trip() {
        let x = Fix::from_f64(-1.5, Q16_8);
        let bits = x.to_bits();
        assert_eq!(Fix::from_bits(bits, Q16_8), x);
        // 16-bit word embedded into a 32-bit bus word and back.
        let wide = bits as u32;
        assert_eq!(Fix::from_bits(wide as u64 & 0xFFFF, Q16_8), x);
    }

    #[test]
    fn reinterpret_preserves_bits() {
        let x = Fix::from_raw(0x55, FixFmt::unsigned(8, 0));
        let y = x.reinterpret(FixFmt::signed(8, 4));
        assert_eq!(y.raw(), 0x55);
        assert_eq!(y.to_f64(), 85.0 / 16.0);
    }

    #[test]
    fn shifts_match_hardware() {
        let x = Fix::from_int(-8, FixFmt::signed(16, 0));
        assert_eq!(x.shift_raw(-2).raw(), -2, "arithmetic right shift");
        assert_eq!(x.shift_raw(1).raw(), -16);
        let u = Fix::from_int(5, FixFmt::unsigned(8, 0));
        assert_eq!(u.shift_raw(-1).raw(), 2);
    }

    #[test]
    fn neg_and_abs_wrap_on_most_negative() {
        let m = Fix::from_raw(-128, FixFmt::signed(8, 0));
        assert_eq!(m.neg().raw(), -128, "two's-complement negate of MIN wraps");
        assert_eq!(m.abs().raw(), -128);
        let x = Fix::from_raw(-5, FixFmt::signed(8, 0));
        assert_eq!(x.abs().raw(), 5);
    }

    #[test]
    fn comparison_across_formats() {
        let a = Fix::from_f64(1.5, FixFmt::signed(8, 4));
        let b = Fix::from_f64(1.5, FixFmt::signed(16, 8));
        assert_eq!(a.cmp_value(&b), Ordering::Equal);
        let c = Fix::from_f64(-2.0, FixFmt::signed(8, 0));
        assert_eq!(c.cmp_value(&a), Ordering::Less);
    }

    /// Equality is the raw integer and every format field, through the
    /// packed key: a difference in any one field alone makes two values
    /// unequal, and equal values (and formats) hash equal.
    #[test]
    fn equality_sees_every_field_and_hash_agrees() {
        use std::collections::hash_map::DefaultHasher;
        fn hash<T: Hash>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        let base = Fix::from_raw(5, FixFmt::signed(16, 4));
        let others = [
            Fix::from_raw(5, FixFmt::signed(17, 4)),
            Fix::from_raw(5, FixFmt::signed(16, 5)),
            Fix::from_raw(5, FixFmt::signed(16, -4)),
            Fix::from_raw(5, FixFmt::unsigned(16, 4)),
            Fix::from_raw(6, FixFmt::signed(16, 4)),
        ];
        for other in others {
            assert_ne!(base, other, "{other:?}");
        }
        assert_ne!(FixFmt::signed(16, -1), FixFmt::signed(16, 1), "frac's sign counts");
        assert_ne!(FixFmt::signed(8, -1), FixFmt::signed(8, 127), "frac's bits count");
        let same = Fix::from_bits(base.to_bits(), FixFmt::signed(16, 4));
        assert_eq!(base, same);
        assert_eq!(hash(&base), hash(&same));
        assert_eq!(hash(&base.fmt()), hash(&FixFmt::signed(16, 4)));
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn from_raw_checks_range() {
        let _ = Fix::from_raw(128, FixFmt::signed(8, 0));
    }
}
