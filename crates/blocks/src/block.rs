//! The block abstraction of the high-level hardware simulator.
//!
//! A [`Block`] is the analog of one System Generator block: a synchronous
//! component with fixed-point input and output ports. Simulation is
//! two-phase per clock cycle, exactly like a discrete fixed-step Simulink
//! model of synchronous hardware:
//!
//! 1. **evaluate** — combinational propagation in topological order;
//!    sequential blocks present their *current* state on their outputs,
//!    from their state alone;
//! 2. **clock** — every sequential block latches its next state from the
//!    input values that the evaluate phase settled, and reports whether
//!    that edge changed its state.
//!
//! A block states its port shape once: [`Block::inputs`] counts the
//! input ports, and [`Block::outputs`] gives each output port's format,
//! its length being the output count. Its sequential state travels as
//! raw words, written by [`Block::save_state`] and read back through a
//! [`StateFrame`], which yields zero words past its end.

use crate::fix::{Fix, FixFmt};
use crate::resource::Resources;

/// One synchronous hardware block.
pub trait Block {
    /// Number of input ports.
    fn inputs(&self) -> usize;

    /// The fixed-point format produced on each output port, in port
    /// order; its length is the number of output ports. Both are fixed
    /// for the block's life.
    fn outputs(&self) -> &[FixFmt];

    /// Evaluation: compute `outputs` from the block's current state and,
    /// for a combinational block, its `inputs`. Must be side-effect free
    /// with respect to sequential state.
    ///
    /// The outputs must be a function of the block's state and its input
    /// values only: the same state and the same input bits give the same
    /// output bits. Each output is written in its port's format from
    /// [`Block::outputs`]: the graph compares a combinational block's
    /// fresh outputs with the old ones by raw word (a debug build checks
    /// the format). A sequential block (see [`Block::is_combinational`])
    /// presents its state alone: the graph evaluates it with an empty
    /// `inputs` slice, so one that indexes its inputs panics on its first
    /// step, and only after its own clock edge reported a change (or a
    /// whole-design mark), taking its outputs as changed. The graph
    /// relies on this to skip a block whose inputs and state are
    /// unchanged since its last evaluation, and a sequential block whose
    /// state is (see [`crate::Graph::step`]); a block that read anything
    /// else — a clock, a counter of its own calls, shared mutable data —
    /// would go stale.
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]);

    /// Rising clock edge: latch next state from the settled `inputs`,
    /// and report whether the edge changed it.
    ///
    /// Returns `false` only when the edge left the block's state
    /// bit-identical, as [`Block::save_state`] would write it; `true` is
    /// always safe, so a block may answer it where an exact compare would
    /// cost more than the edge. The graph does not clock a block whose
    /// last edge answered `false` until one of its inputs changes: with
    /// the same state and inputs, its next edge would change nothing
    /// again. Combinational blocks keep the default no-op, which changes
    /// nothing.
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let _ = inputs;
        false
    }

    /// True when some output depends combinationally on some input.
    /// Registers/delays return `false`, which is what legalizes feedback
    /// loops through them. A block that returns `false` gets no inputs in
    /// [`Block::eval`]: its outputs are a function of its state alone.
    fn is_combinational(&self) -> bool {
        true
    }

    /// Estimated FPGA resources of the block's low-level implementation.
    fn resources(&self) -> Resources {
        Resources::ZERO
    }

    /// Appends the block's sequential state to `out` as raw `u64` words
    /// (fixed-point values via [`Fix::to_bits`], counters verbatim,
    /// variable-length containers preceded by their length). The default
    /// is a no-op, correct for combinational blocks; every sequential
    /// block must override it together with [`Block::load_state`] so
    /// graph checkpoints capture it.
    fn save_state(&self, out: &mut Vec<u64>) {
        let _ = out;
    }

    /// Restores the state written by [`Block::save_state`], reading the
    /// same number of words from the front of `src`.
    ///
    /// A frame reads zero words past its end, so a short or empty frame
    /// restores the missing words as zeros and never fails: a fault
    /// campaign may flip a length or counter word of a checkpoint, and
    /// that must read as corrupt data, not a panic. For the same reason a
    /// block clamps (or reduces modulo its legal range) every length or
    /// index word it reads, so a wild one cannot demand a huge container.
    fn load_state(&mut self, src: &mut StateFrame) {
        let _ = src;
    }

    /// Cumulative count of faults the block has *detected* in itself —
    /// nonzero only for self-checking blocks (a TMR voter counts replica
    /// miscompares here). Recovery supervisors poll the graph total for
    /// deltas.
    fn detected_faults(&self) -> u64 {
        0
    }
}

/// The state words of one block, read front to back by
/// [`Block::load_state`]: the words [`Block::save_state`] wrote, then
/// zero words past the end.
#[derive(Debug)]
pub struct StateFrame<'a> {
    words: std::slice::Iter<'a, u64>,
}

impl<'a> StateFrame<'a> {
    /// A frame over `words`.
    pub fn new(words: &'a [u64]) -> StateFrame<'a> {
        StateFrame { words: words.iter() }
    }

    /// The next word of the frame, or `0` past its end.
    pub fn word(&mut self) -> u64 {
        self.words.next().copied().unwrap_or(0)
    }
}

/// Interprets a signal as a boolean (nonzero = true).
pub fn bool_of(x: &Fix) -> bool {
    !x.is_zero()
}

/// A one-bit signal value.
pub fn bit(v: bool) -> Fix {
    Fix::from_bits(v as u64, FixFmt::BOOL)
}
