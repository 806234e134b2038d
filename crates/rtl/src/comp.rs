//! Word-level RTL component library.
//!
//! Behavioral-VHDL-granularity building blocks: every component is one or
//! more kernel processes communicating through signals, and registers its
//! hardware primitives for the elaboration-based "actual" resource counts
//! of Table I.

use crate::kernel::{Kernel, Primitives, SignalId, Time};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Two-phase clock signals: `clk` for the processor domain (rising edges)
/// and its inverse view for peripheral domains clocked mid-cycle.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// The clock signal.
    pub clk: SignalId,
    /// Clock period in nanoseconds.
    pub period: Time,
}

/// Instantiates a free-running clock generator of the given period.
pub fn clock(k: &mut Kernel, period: Time) -> Clock {
    assert!(period >= 2 && period.is_multiple_of(2), "period must be an even number of ns");
    let clk = k.signal("clk", 1);
    let half = period / 2;
    k.process(&[clk], move |ctx| {
        let v = ctx.get(clk) ^ 1;
        ctx.set_after(clk, v, half);
    });
    // Kick off the oscillation with the first rising edge at t = period.
    k.poke_after(clk, 1, period);
    Clock { clk, period }
}

fn sext(v: u64, width: u8) -> i64 {
    let shift = 64 - width as u32;
    ((v << shift) as i64) >> shift
}

/// A D register with optional clock-enable, width ≤ 64.
pub fn register(
    k: &mut Kernel,
    clk: SignalId,
    d: SignalId,
    q: SignalId,
    en: Option<SignalId>,
    width: u8,
) {
    k.add_primitives(Primitives { ff_bits: width as u64, ..Default::default() });
    k.process(&[clk], move |ctx| {
        if ctx.rising(clk) {
            let enabled = en.map(|e| ctx.get(e) != 0).unwrap_or(true);
            if enabled {
                let v = ctx.get(d);
                ctx.set(q, v);
            }
        }
    });
}

/// A combinational adder/subtractor: `y = a ± b` (two's complement,
/// wrapping at `width`). `sub` selects subtraction when high; pass `None`
/// for a fixed adder.
pub fn addsub(
    k: &mut Kernel,
    a: SignalId,
    b: SignalId,
    sub: Option<SignalId>,
    y: SignalId,
    width: u8,
) {
    k.add_primitives(Primitives { lut_bits: width as u64, ..Default::default() });
    let mut sens = vec![a, b];
    if let Some(s) = sub {
        sens.push(s);
    }
    k.process(&sens, move |ctx| {
        let av = ctx.get(a);
        let bv = ctx.get(b);
        let neg = sub.map(|s| ctx.get(s) != 0).unwrap_or(false);
        let r = if neg { av.wrapping_sub(bv) } else { av.wrapping_add(bv) };
        ctx.set(y, r);
    });
}

/// Sign bit extractor: `y = a[width-1]` — the CORDIC direction bit.
pub fn sign_bit(k: &mut Kernel, a: SignalId, y: SignalId, width: u8) {
    k.process(&[a], move |ctx| {
        let v = (ctx.get(a) >> (width - 1)) & 1;
        ctx.set(y, v);
    });
}

/// A constant arithmetic right shifter (wiring in hardware, a process in
/// behavioral simulation).
pub fn shift_right_arith(k: &mut Kernel, a: SignalId, y: SignalId, amount: u32, width: u8) {
    k.process(&[a], move |ctx| {
        let v = sext(ctx.get(a), width) >> amount;
        ctx.set(y, v as u64);
    });
}

/// A constant logical right shifter.
pub fn shift_right_logic(k: &mut Kernel, a: SignalId, y: SignalId, amount: u32) {
    k.process(&[a], move |ctx| {
        let v = ctx.get(a) >> amount;
        ctx.set(y, v);
    });
}

/// A pipelined multiplier mapped to embedded MULT18X18 primitives:
/// `y = a * b` (wrapping at `width`) with `latency ≥ 1` register stages.
#[allow(clippy::too_many_arguments)] // component port lists are what they are
pub fn multiplier(
    k: &mut Kernel,
    clk: SignalId,
    a: SignalId,
    b: SignalId,
    y: SignalId,
    width: u8,
    latency: usize,
) {
    assert!(latency >= 1, "RTL multiplier needs at least one register stage");
    let tiles = (width as u32).div_ceil(18).pow(2).min(4);
    k.add_primitives(Primitives {
        ff_bits: width as u64 * latency as u64,
        mult18s: tiles,
        ..Default::default()
    });
    let mut pipe: VecDeque<u64> = VecDeque::from(vec![0; latency]);
    k.process(&[clk], move |ctx| {
        if ctx.rising(clk) {
            let av = sext(ctx.get(a), width);
            let bv = sext(ctx.get(b), width);
            pipe.push_back(av.wrapping_mul(bv) as u64);
            let out = pipe.pop_front().expect("pipe non-empty");
            ctx.set(y, out);
        }
    });
}

/// Handle to a shared FIFO's state, used by testbenches to pre-load or
/// inspect contents.
pub type SharedFifo = Rc<RefCell<VecDeque<u64>>>;

/// Signals exposed by [`fifo`].
#[derive(Debug, Clone, Copy)]
pub struct FifoPorts {
    /// Write data.
    pub din: SignalId,
    /// Write strobe (sampled on the clock edge).
    pub push: SignalId,
    /// Read strobe (sampled on the clock edge).
    pub pop: SignalId,
    /// Head-of-queue data (valid when `exists`).
    pub dout: SignalId,
    /// Not-empty flag.
    pub exists: SignalId,
    /// Full flag.
    pub full: SignalId,
}

/// A synchronous FIFO clocked on the rising edge of `clk`; `edge_falling`
/// selects the falling edge instead (used to interleave processor and
/// peripheral domains within one clock period).
pub fn fifo(
    k: &mut Kernel,
    name: &str,
    clk: SignalId,
    width: u8,
    depth: usize,
    edge_falling: bool,
) -> (FifoPorts, SharedFifo) {
    let din = k.signal(format!("{name}_din"), width);
    let push = k.signal(format!("{name}_push"), 1);
    let pop = k.signal(format!("{name}_pop"), 1);
    let dout = k.signal(format!("{name}_dout"), width);
    let exists = k.signal(format!("{name}_exists"), 1);
    let full = k.signal(format!("{name}_full"), 1);
    k.add_primitives(Primitives {
        ff_bits: (width as u64) * (depth as u64).min(4) + 8,
        lut_bits: (width as u64 * depth as u64).div_ceil(16) + 8,
        ..Default::default()
    });
    let state: SharedFifo = Rc::new(RefCell::new(VecDeque::with_capacity(depth)));
    let q = Rc::clone(&state);
    let ports = FifoPorts { din, push, pop, dout, exists, full };
    k.process(&[clk], move |ctx| {
        let edge = if edge_falling { ctx.falling(clk) } else { ctx.rising(clk) };
        if !edge {
            return;
        }
        let mut q = q.borrow_mut();
        if ctx.get(pop) != 0 {
            q.pop_front();
        }
        if ctx.get(push) != 0 && q.len() < depth {
            q.push_back(ctx.get(din));
        }
        ctx.set(dout, q.front().copied().unwrap_or(0));
        ctx.set(exists, (!q.is_empty()) as u64);
        ctx.set(full, (q.len() >= depth) as u64);
    });
    (ports, state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Kernel, Clock) {
        let mut k = Kernel::new();
        let c = clock(&mut k, 20);
        (k, c)
    }

    /// Runs `n` clock cycles.
    fn cycles(k: &mut Kernel, c: Clock, n: u64) {
        let target = k.now() + n * c.period;
        k.run_until(target);
    }

    #[test]
    fn register_latches_on_rising_edge() {
        let (mut k, c) = setup();
        let d = k.signal("d", 16);
        let q = k.signal("q", 16);
        register(&mut k, c.clk, d, q, None, 16);
        k.poke(d, 0xBEEF);
        cycles(&mut k, c, 2);
        assert_eq!(k.peek(q), 0xBEEF);
        assert_eq!(k.primitives().ff_bits, 16);
    }

    #[test]
    fn register_enable_gates_updates() {
        let (mut k, c) = setup();
        let d = k.signal("d", 8);
        let q = k.signal("q", 8);
        let en = k.signal("en", 1);
        register(&mut k, c.clk, d, q, Some(en), 8);
        k.poke(d, 5);
        k.poke(en, 0);
        cycles(&mut k, c, 2);
        assert_eq!(k.peek(q), 0);
        k.poke(en, 1);
        cycles(&mut k, c, 2);
        assert_eq!(k.peek(q), 5);
    }

    #[test]
    fn addsub_add_and_sub() {
        let (mut k, _c) = setup();
        let a = k.signal("a", 16);
        let b = k.signal("b", 16);
        let s = k.signal("s", 1);
        let y = k.signal("y", 16);
        addsub(&mut k, a, b, Some(s), y, 16);
        k.poke(a, 100);
        k.poke(b, 30);
        k.run_until(1);
        assert_eq!(k.peek(y), 130);
        k.poke(s, 1);
        k.run_until(2);
        assert_eq!(k.peek(y), 70);
        // Wrapping subtraction stays in-width.
        k.poke(a, 0);
        k.run_until(3);
        assert_eq!(k.peek(y), 0xFFFF - 29);
    }

    #[test]
    fn shifters_are_arithmetic_and_logical() {
        let (mut k, _c) = setup();
        let a = k.signal("a", 16);
        let ya = k.signal("ya", 16);
        let yl = k.signal("yl", 16);
        shift_right_arith(&mut k, a, ya, 2, 16);
        shift_right_logic(&mut k, a, yl, 2);
        k.poke(a, 0xFFF0); // -16 in 16 bits
        k.run_until(1);
        assert_eq!(sext(k.peek(ya), 16), -4);
        assert_eq!(k.peek(yl), 0x3FFC);
    }

    #[test]
    fn sign_bit_detects_negative() {
        let (mut k, _c) = setup();
        let a = k.signal("a", 16);
        let y = k.signal("y", 1);
        sign_bit(&mut k, a, y, 16);
        k.poke(a, 0x8000);
        k.run_until(1);
        assert_eq!(k.peek(y), 1);
        k.poke(a, 0x7FFF);
        k.run_until(2);
        assert_eq!(k.peek(y), 0);
    }

    #[test]
    fn multiplier_latency_and_value() {
        let (mut k, c) = setup();
        let a = k.signal("a", 18);
        let b = k.signal("b", 18);
        let y = k.signal("y", 18);
        multiplier(&mut k, c.clk, a, b, y, 18, 1);
        k.poke(a, 7);
        k.poke(b, (-3i64 as u64) & 0x3FFFF);
        cycles(&mut k, c, 1);
        assert_eq!(k.peek(y), 0, "one stage of latency");
        cycles(&mut k, c, 1);
        assert_eq!(sext(k.peek(y), 18), -21);
        assert_eq!(k.primitives().mult18s, 1);
    }

    #[test]
    fn fifo_push_pop_flags() {
        let (mut k, c) = setup();
        let (p, state) = fifo(&mut k, "f", c.clk, 32, 2, false);
        k.poke(p.din, 11);
        k.poke(p.push, 1);
        cycles(&mut k, c, 1);
        assert_eq!(k.peek(p.exists), 1);
        assert_eq!(k.peek(p.dout), 11);
        k.poke(p.din, 22);
        cycles(&mut k, c, 1);
        assert_eq!(k.peek(p.full), 1);
        k.poke(p.push, 0);
        k.poke(p.pop, 1);
        cycles(&mut k, c, 1);
        assert_eq!(k.peek(p.dout), 22);
        assert_eq!(k.peek(p.full), 0);
        cycles(&mut k, c, 1);
        assert_eq!(k.peek(p.exists), 0);
        assert!(state.borrow().is_empty());
    }

    #[test]
    fn falling_edge_fifo_offsets_half_cycle() {
        let (mut k, c) = setup();
        let (p, state) = fifo(&mut k, "f", c.clk, 32, 4, true);
        state.borrow_mut().push_back(99);
        k.poke(p.pop, 1);
        // Falling edge occurs mid-cycle; after one full period the word
        // has been consumed.
        cycles(&mut k, c, 2);
        assert!(state.borrow().is_empty());
    }
}
