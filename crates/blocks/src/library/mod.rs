//! The standard block library — the analog of the System Generator
//! blockset the paper's designs are assembled from.

pub mod arith;
pub mod logic;
pub mod rate;
pub mod seq;
pub mod tmr;

pub use arith::{AbsVal, AddSub, AddSubOp, Constant, Convert, Mult, Negate, Shift, ShiftDir};
pub use logic::{Concat, Logical, LogicalOp, Mux, RelOp, Relational, Slice};
pub use rate::{CMult, DownSample, DualPortRam, Threshold, UpSample};
pub use seq::{Accumulator, Counter, Delay, Register, Rom, SinglePortRam, SyncFifo};
pub use tmr::Tmr;

use crate::fix::Fix;
use std::collections::VecDeque;

/// Stores `v` in a state register; true when that changed it (a
/// sequential block's [`crate::Block::clock`] report for one register).
fn latch(slot: &mut Fix, v: Fix) -> bool {
    let changed = *slot != v;
    *slot = v;
    changed
}

/// Shifts `v` into a delay line; true unless the line was already
/// saturated with `v`, which the shift leaves as it was.
fn shift(line: &mut VecDeque<Fix>, v: Fix) -> bool {
    let changed = line.iter().any(|s| *s != v);
    line.pop_front();
    line.push_back(v);
    changed
}
