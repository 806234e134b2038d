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

use crate::fix::{Fix, FixFmt};
use crate::resource::Resources;

/// One synchronous hardware block.
pub trait Block {
    /// Short type name for diagnostics ("AddSub", "Delay", ...).
    fn kind(&self) -> &'static str;

    /// Number of input ports.
    fn inputs(&self) -> usize;

    /// Number of output ports.
    fn outputs(&self) -> usize;

    /// The fixed-point format produced on each output port.
    fn output_fmt(&self, port: usize) -> FixFmt;

    /// Evaluation: compute `outputs` from the block's current state and,
    /// for a combinational block, its `inputs`. Must be side-effect free
    /// with respect to sequential state.
    ///
    /// The outputs must be a function of the block's state and its input
    /// values only: the same state and the same input bits give the same
    /// output bits. Each output is written in its port's
    /// [`Block::output_fmt`]: the graph compares a combinational block's
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

    /// Restores the state written by [`Block::save_state`], consuming the
    /// same number of words from the front of `src`.
    ///
    /// # Panics
    /// Implementations panic (through [`state_word`]) if `src` runs dry.
    /// [`crate::Graph::load_state`] pads each node's frame with zero
    /// words, so a restore through the graph never does; a block driven
    /// by hand with a short frame is a caller bug.
    fn load_state(&mut self, src: &mut dyn Iterator<Item = u64>) {
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

/// Pulls one state word in a [`Block::load_state`] implementation,
/// panicking with the block kind on underflow.
pub fn state_word(kind: &str, src: &mut dyn Iterator<Item = u64>) -> u64 {
    src.next().unwrap_or_else(|| panic!("{kind}: snapshot underflow"))
}

/// Interprets a signal as a boolean (nonzero = true).
pub fn bool_of(x: &Fix) -> bool {
    !x.is_zero()
}

/// A one-bit signal value.
pub fn bit(v: bool) -> Fix {
    Fix::from_bits(v as u64, FixFmt::BOOL)
}
