//! The block graph and its cycle-accurate scheduler.
//!
//! A [`Graph`] is the analog of a System Generator design sheet: blocks
//! wired port-to-port, with `Gateway In` / `Gateway Out` markers forming
//! the boundary to the rest of the system (in the paper, the MicroBlaze
//! Simulink block drives these gateways from the FSL models).
//!
//! Scheduling is the standard synchronous-circuit two-phase step: a
//! topological pass settles all combinational logic, then every
//! sequential block latches. Feedback is legal exactly when it passes
//! through a sequential block, and a purely combinational cycle is
//! rejected at compile time.
//!
//! [`Graph::compile`] lowers the design into a flat execution plan (one
//! contiguous value array plus resolved source indices) so the per-cycle
//! cost is a linear scan — this is what makes the high-level simulation
//! an order of magnitude faster per cycle than event-driven RTL.
//!
//! # Evaluating only what can change
//!
//! Most cycles of a co-simulated peripheral change little or nothing: a
//! word moves through one or two blocks, or none arrives at all. A step
//! therefore evaluates and clocks only the nodes that can change, and a
//! design with nothing left to change costs a counter bump per step.
//! Each node carries three marks:
//!
//! * **eval** — the node's outputs may differ from the ones it holds: a
//!   source of a combinational node changed since it last evaluated, or
//!   the whole design was marked;
//! * **clock** — a source value changed since the node last clocked
//!   (sequential blocks only);
//! * **unsettled** — the node's last clock edge reported a change (see
//!   [`Block::clock`]).
//!
//! Marks are set as follows:
//!
//! * **Wake.** [`Graph::set_input_bits`], the one store path of a
//!   gateway ([`Graph::set_input_fast`] converts onto it), compares the
//!   new bits with the held word, and only when they differ stores them
//!   and marks that gateway. [`Graph::compile`] and [`Graph::load_state`]
//!   mark every node eval, and every sequential block clock as well.
//! * **Evaluate.** [`Graph::step`] walks the schedule and evaluates a
//!   node only if it has an eval mark or is unsettled. A combinational
//!   node's fresh raw output words are compared with the ones they
//!   overwrite, and only a change marks its consumers. A sequential block
//!   presents its state alone and is evaluated with no inputs, and only
//!   after a wake or its own clock edge that reported a change, so it
//!   marks its consumers with no compare. A consumer gets the mark
//!   a changed source sets: eval for a combinational block, which the
//!   schedule runs later in this step, and clock for a sequential block,
//!   which latches the new value in this step's clock phase.
//! * **Clock.** A sequential block is clocked only if it has a clock
//!   mark or is unsettled. It reads its sources as a borrowed slice of
//!   the value array when [`Graph::compile`] found them contiguous, and
//!   from a gathered copy otherwise. It stays unsettled exactly when its
//!   edge reported a change.
//! * **Skip.** With no node marked, `step` only advances the cycle
//!   counter, counts one toggle-free activity cycle and records every
//!   probe's (unchanged) value.
//!
//! Soundness: a combinational block's outputs are a function of its
//! state and input values, a sequential block's of its state alone, each
//! output stays in its port's format (so its raw word decides a change),
//! and a clock edge reports `false` only when it left the block's state
//! bit-identical (see [`Block`]). A combinational node that is skipped
//! reads input values bit-identical to those of its last evaluation —
//! any change since then would have marked it. A sequential node that is
//! skipped holds the state of its last evaluation: every clock edge
//! since then reported no change, or it would be unsettled. Either way it
//! would recompute the outputs it already holds. A sequential block that
//! is not clocked holds the state and inputs of a clock edge that changed
//! nothing, and the same state and inputs give the same edge, so its next
//! edge would change nothing again. Every skipped evaluation and clock
//! edge is therefore one a full step would have spent reproducing what
//! it already had. A mark with no change behind it (a sequential
//! evaluation that reproduced its outputs) costs work and no accuracy:
//! the evaluation or edge it buys is one a full step makes anyway.
//! Probes, activity and trace sinks observe exactly what full stepping
//! shows them.

use crate::block::Block;
use crate::fix::{Fix, FixFmt, Overflow, Rounding};
use crate::resource::Resources;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// Handle to a node in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

/// Resolved handle to a `Gateway In` (see [`Graph::input_handle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputHandle(usize);

/// Resolved handle to a `Gateway Out` (see [`Graph::output_handle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputHandle(usize);

/// Structural errors detected when compiling a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An input port has no driver.
    UnconnectedInput {
        /// The node with the open port.
        node: String,
        /// The open port index.
        port: usize,
    },
    /// A cycle exists through combinational blocks only.
    CombinationalCycle {
        /// Names of the nodes on the cycle.
        nodes: Vec<String>,
    },
    /// A port index out of range was used in `connect`.
    BadPort {
        /// Description of the offending connection.
        what: String,
    },
    /// Two drivers for one input port.
    DoubleDrive {
        /// The node with the conflicting port.
        node: String,
        /// The port index.
        port: usize,
    },
    /// A named gateway was not found.
    NoSuchGateway {
        /// The requested name.
        name: String,
    },
    /// Two `Gateway In`s, or two `Gateway Out`s, share a name.
    DuplicateGateway {
        /// The name declared twice.
        name: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnconnectedInput { node, port } => {
                write!(f, "input port {port} of `{node}` is not connected")
            }
            GraphError::CombinationalCycle { nodes } => {
                write!(f, "combinational cycle through: {}", nodes.join(" -> "))
            }
            GraphError::BadPort { what } => write!(f, "bad port: {what}"),
            GraphError::DoubleDrive { node, port } => {
                write!(f, "input port {port} of `{node}` has two drivers")
            }
            GraphError::NoSuchGateway { name } => write!(f, "no gateway named `{name}`"),
            GraphError::DuplicateGateway { name } => write!(f, "two gateways named `{name}`"),
        }
    }
}

impl std::error::Error for GraphError {}

enum Kind {
    Block(Box<dyn Block>),
    /// Gateway In: a value set from outside before each step, held as
    /// its bits in `fmt`.
    Input {
        fmt: FixFmt,
        bits: u64,
    },
}

struct Node {
    kind: Kind,
    name: String,
    /// Driver of each input port.
    sources: Vec<Option<(NodeId, usize)>>,
    /// Offset of this node's outputs in the flat value array.
    val_off: u32,
    /// Number of outputs.
    val_len: u32,
}

impl Node {
    fn outputs(&self) -> usize {
        self.val_len as usize
    }

    fn is_combinational(&self) -> bool {
        match &self.kind {
            Kind::Block(b) => b.is_combinational(),
            Kind::Input { .. } => false,
        }
    }
}

/// A complete snapshot of a compiled design's simulation state, as raw
/// `u64` words (see [`Graph::save_state`]). The shape is only meaningful
/// against the same compiled design; restoring into a different design
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphState {
    /// The design's cycle counter.
    pub cycle: u64,
    /// Every output-port value, flat, as [`Fix::to_bits`] words.
    pub values: Vec<u64>,
    /// Concatenated per-node state: gateway-input values and each
    /// block's [`Block::save_state`] stream, in node order.
    pub block_words: Vec<u64>,
    /// Words of `block_words` belonging to each node, node order. The
    /// explicit framing keeps one node's restore from desynchronizing
    /// every node after it when a fault campaign flips a length or
    /// counter word inside `block_words` (see [`Graph::load_state`]).
    pub spans: Vec<u32>,
}

/// A synchronous block design, stepped one clock cycle at a time.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// All output-port values, flat (indexed via `Node::val_off`).
    values: Vec<Fix>,
    /// Gateway-out registry: name → flat value index.
    outputs: BTreeMap<String, usize>,
    /// Gateway-in registry: name → node.
    inputs: BTreeMap<String, NodeId>,
    /// The first gateway name declared twice in one direction, which
    /// [`Graph::compile`] rejects.
    duplicate: Option<String>,
    /// Topological order of evaluation (all nodes).
    schedule: Vec<u32>,
    /// Sequential nodes to clock each cycle.
    seq_nodes: Vec<u32>,
    /// Resolved flat source indices, per node, contiguous.
    plan_src: Vec<u32>,
    /// Range of `plan_src` per node.
    plan_range: Vec<(u32, u32)>,
    /// Per node, the offset in `values` where its sources sit in port
    /// order when they are contiguous there, or [`GATHER`].
    plan_run: Vec<u32>,
    compiled: bool,
    cycle: u64,
    /// Scratch buffer reused each step to avoid per-cycle allocation.
    scratch: Vec<Fix>,
    /// Scope probes: (name, flat value index, recorded samples).
    probes: Vec<(String, usize, Vec<Fix>)>,
    /// Switching-activity measurement, when enabled.
    activity: Option<Activity>,
    /// Consumers of each node, CSR form: node `i` feeds
    /// `consumers[consumer_off[i]..consumer_off[i + 1]]`.
    consumer_off: Vec<u32>,
    consumers: Vec<u32>,
    /// Per-node [`EVAL`], [`CLOCK`] and [`UNSETTLED`] marks (see the
    /// module docs).
    marks: Vec<u8>,
    /// The mark a changed source sets on each node: eval for
    /// combinational blocks, clock for sequential ones.
    touch: Vec<u8>,
    /// Some node is marked, so the next step has work to do.
    awake: bool,
    /// Raw output words of the combinational node being evaluated, held
    /// for the change comparison.
    held: Vec<i64>,
}

/// Node mark: the node's outputs may differ from the ones it holds.
const EVAL: u8 = 1;
/// Node mark: a source value changed since the node last clocked.
const CLOCK: u8 = 2;
/// Node mark: the node's last clock edge reported a change.
const UNSETTLED: u8 = 4;

/// `plan_run` entry of a node whose sources are not contiguous in
/// `values`: they are gathered into a buffer.
const GATHER: u32 = u32::MAX;

/// The source values of a node, in port order: a borrowed run of
/// `values` when `run` is one, else gathered into `buf`.
#[inline]
fn sources<'a>(values: &'a [Fix], src: &[u32], run: u32, buf: &'a mut Vec<Fix>) -> &'a [Fix] {
    if run != GATHER {
        return &values[run as usize..run as usize + src.len()];
    }
    buf.clear();
    buf.extend(src.iter().map(|&i| values[i as usize]));
    buf
}

/// Registers a gateway name in `map`. A name already there keeps its
/// first gateway and is recorded in `duplicate` for
/// [`Graph::compile`] to reject.
fn register<V>(map: &mut BTreeMap<String, V>, duplicate: &mut Option<String>, name: String, v: V) {
    match map.entry(name) {
        Entry::Vacant(e) => {
            e.insert(v);
        }
        Entry::Occupied(e) => {
            duplicate.get_or_insert_with(|| e.key().clone());
        }
    }
}

/// Measured switching activity of a design (see
/// [`Graph::enable_activity`]): how many output-port values changed,
/// per node and in total, over the observed cycles. Drives the
/// activity factor of the domain-specific hardware energy model in
/// place of its default assumption.
#[derive(Debug, Default, Clone)]
struct Activity {
    /// Every port value as of the previous observed cycle.
    prev: Vec<Fix>,
    /// Value changes per node.
    node_toggles: Vec<u64>,
    /// Value changes across the whole design.
    toggles: u64,
    /// Observed cycles.
    cycles: u64,
}

impl Graph {
    /// An empty design.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Adds a block; returns its handle.
    pub fn add(&mut self, name: impl Into<String>, block: impl Block + 'static) -> NodeId {
        self.add_boxed(name.into(), Box::new(block))
    }

    /// Adds an already-boxed block.
    pub fn add_boxed(&mut self, name: String, block: Box<dyn Block>) -> NodeId {
        let id = NodeId(self.nodes.len());
        let (n_in, n_out) = (block.inputs(), block.outputs());
        let val_off = self.values.len() as u32;
        for p in 0..n_out {
            self.values.push(Fix::zero(block.output_fmt(p)));
        }
        self.nodes.push(Node {
            kind: Kind::Block(block),
            name,
            sources: vec![None; n_in],
            val_off,
            val_len: n_out as u32,
        });
        self.compiled = false;
        id
    }

    /// Adds a `Gateway In`: an externally driven input of the design.
    pub fn gateway_in(&mut self, name: impl Into<String>, fmt: FixFmt) -> NodeId {
        let name = name.into();
        let id = NodeId(self.nodes.len());
        let val_off = self.values.len() as u32;
        self.values.push(Fix::zero(fmt));
        self.nodes.push(Node {
            kind: Kind::Input { fmt, bits: 0 },
            name: name.clone(),
            sources: Vec::new(),
            val_off,
            val_len: 1,
        });
        register(&mut self.inputs, &mut self.duplicate, name, id);
        self.compiled = false;
        id
    }

    /// Declares a `Gateway Out`: names an existing port as a design output.
    ///
    /// # Panics
    /// Panics if the port does not exist.
    pub fn gateway_out(&mut self, name: impl Into<String>, from: NodeId, port: usize) {
        let node = &self.nodes[from.0];
        assert!(port < node.outputs(), "`{}` has no output {port}", node.name);
        let flat = node.val_off as usize + port;
        register(&mut self.outputs, &mut self.duplicate, name.into(), flat);
    }

    /// Connects output `from_port` of `from` to input `to_port` of `to`.
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: usize,
        to: NodeId,
        to_port: usize,
    ) -> Result<(), GraphError> {
        if from_port >= self.nodes[from.0].outputs() {
            return Err(GraphError::BadPort {
                what: format!("`{}` has no output {from_port}", self.nodes[from.0].name),
            });
        }
        let node = &mut self.nodes[to.0];
        let Some(slot) = node.sources.get_mut(to_port) else {
            return Err(GraphError::BadPort {
                what: format!("`{}` has no input {to_port}", node.name),
            });
        };
        if slot.is_some() {
            return Err(GraphError::DoubleDrive { node: node.name.clone(), port: to_port });
        }
        *slot = Some((from, from_port));
        self.compiled = false;
        Ok(())
    }

    /// Convenience: connect port 0 → port `to_port`.
    pub fn wire(&mut self, from: NodeId, to: NodeId, to_port: usize) -> Result<(), GraphError> {
        self.connect(from, 0, to, to_port)
    }

    /// Checks structure and lowers the design into the flat execution
    /// plan.
    pub fn compile(&mut self) -> Result<(), GraphError> {
        if let Some(name) = &self.duplicate {
            return Err(GraphError::DuplicateGateway { name: name.clone() });
        }
        // Every input port must be driven.
        for node in &self.nodes {
            for (port, src) in node.sources.iter().enumerate() {
                if src.is_none() {
                    return Err(GraphError::UnconnectedInput { node: node.name.clone(), port });
                }
            }
        }
        // Kahn topological sort where only edges into combinational nodes
        // constrain the order.
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.is_combinational() {
                continue;
            }
            for src in node.sources.iter().flatten() {
                out_edges[src.0 .0].push(i);
                indegree[i] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(i as u32);
            for &j in &out_edges[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        if order.len() != n {
            let cyclic =
                (0..n).filter(|&i| indegree[i] > 0).map(|i| self.nodes[i].name.clone()).collect();
            return Err(GraphError::CombinationalCycle { nodes: cyclic });
        }
        // Flatten the source plan.
        self.plan_src.clear();
        self.plan_range.clear();
        self.plan_run.clear();
        for node in &self.nodes {
            let start = self.plan_src.len() as u32;
            for src in node.sources.iter().flatten() {
                let flat = self.nodes[src.0 .0].val_off + src.1 as u32;
                self.plan_src.push(flat);
            }
            let flat = &self.plan_src[start as usize..];
            let run = match flat.first() {
                None => 0,
                Some(&first) if flat.windows(2).all(|w| w[1] == w[0] + 1) => first,
                Some(_) => GATHER,
            };
            self.plan_range.push((start, self.plan_src.len() as u32));
            self.plan_run.push(run);
        }
        // Consumer lists, one entry per (source node, consumer) pair.
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (j, node) in self.nodes.iter().enumerate() {
            for src in node.sources.iter().flatten() {
                let list = &mut consumers[src.0 .0];
                if list.last() != Some(&(j as u32)) {
                    list.push(j as u32);
                }
            }
        }
        self.consumer_off.clear();
        self.consumer_off.push(0);
        self.consumers.clear();
        for list in consumers {
            self.consumers.extend(list);
            self.consumer_off.push(self.consumers.len() as u32);
        }
        self.seq_nodes = (0..n as u32)
            .filter(|&i| {
                let node = &self.nodes[i as usize];
                matches!(node.kind, Kind::Block(_)) && !node.is_combinational()
            })
            .collect();
        self.touch = vec![EVAL; n];
        for &i in &self.seq_nodes {
            self.touch[i as usize] = CLOCK;
        }
        self.schedule = order;
        self.compiled = true;
        self.wake();
        Ok(())
    }

    /// Resolves a `Gateway In` name to a handle for per-cycle use in hot
    /// loops (the co-simulation engine resolves once at attach time).
    pub fn input_handle(&self, name: &str) -> Result<InputHandle, GraphError> {
        let id = *self
            .inputs
            .get(name)
            .ok_or_else(|| GraphError::NoSuchGateway { name: name.into() })?;
        Ok(InputHandle(id.0))
    }

    /// Resolves a `Gateway Out` name to a handle.
    pub fn output_handle(&self, name: &str) -> Result<OutputHandle, GraphError> {
        let flat = *self
            .outputs
            .get(name)
            .ok_or_else(|| GraphError::NoSuchGateway { name: name.into() })?;
        Ok(OutputHandle(flat))
    }

    /// Sets a `Gateway In` through a resolved handle from raw bits in
    /// the gateway's own format (see [`Fix::to_bits`]); bits above its
    /// word length are dropped. The one store path of a gateway: it
    /// compares one word and stores one word, and storing the bits the
    /// gateway already holds marks nothing.
    #[inline]
    pub fn set_input_bits(&mut self, handle: InputHandle, bits: u64) {
        let Kind::Input { fmt, bits: held } = &mut self.nodes[handle.0].kind else {
            unreachable!("gateway registry points at a block");
        };
        let bits = bits & fmt.mask();
        if bits != *held {
            *held = bits;
            // An uncompiled design is marked whole when it compiles.
            if self.compiled {
                self.marks[handle.0] |= EVAL;
                self.awake = true;
            }
        }
    }

    /// Sets a `Gateway In` through a resolved handle (no name lookup):
    /// the value is converted into the gateway's format (wrap, truncate)
    /// unless it is already in it, and stored by
    /// [`Graph::set_input_bits`].
    #[inline]
    pub fn set_input_fast(&mut self, handle: InputHandle, value: Fix) {
        let fmt = self.input_value(handle).fmt();
        let value = if value.fmt() == fmt {
            value
        } else {
            value.convert(fmt, Overflow::Wrap, Rounding::Truncate)
        };
        self.set_input_bits(handle, value.to_bits());
    }

    /// The value a `Gateway In` holds for the upcoming cycle, as last
    /// stored by [`Graph::set_input_bits`] (in the gateway's format).
    #[inline]
    pub fn input_value(&self, handle: InputHandle) -> Fix {
        let Kind::Input { fmt, bits } = &self.nodes[handle.0].kind else {
            unreachable!("gateway registry points at a block");
        };
        Fix::from_bits(*bits, *fmt)
    }

    /// True when the design is compiled and no node is marked: a step
    /// that stores no new gateway value evaluates and clocks nothing and
    /// changes no port value, and so does every step after it (see the
    /// module docs). One flag read; the precondition of
    /// [`Graph::fast_forward`].
    #[inline]
    pub fn asleep(&self) -> bool {
        self.compiled && !self.awake
    }

    /// Marks every node, so the next step evaluates and clocks the whole
    /// design.
    fn wake(&mut self) {
        self.marks.clear();
        self.marks.extend(self.touch.iter().map(|&t| t | EVAL));
        self.awake = true;
    }

    /// Reads a `Gateway Out` through a resolved handle (no name lookup).
    #[inline]
    pub fn output_fast(&self, handle: OutputHandle) -> Fix {
        self.values[handle.0]
    }

    /// Sets the value of a `Gateway In` for the upcoming cycle.
    pub fn set_input(&mut self, name: &str, value: Fix) -> Result<(), GraphError> {
        let handle = self.input_handle(name)?;
        self.set_input_fast(handle, value);
        Ok(())
    }

    /// Reads a `Gateway Out` value as settled by the last `step`.
    pub fn output(&self, name: &str) -> Result<Fix, GraphError> {
        Ok(self.output_fast(self.output_handle(name)?))
    }

    /// Reads any port's settled value (probing, for tests and tools).
    pub fn value(&self, node: NodeId, port: usize) -> Fix {
        self.values[self.nodes[node.0].val_off as usize + port]
    }

    /// Advances the design by one clock cycle, evaluating and clocking
    /// only the marked nodes; a design with no node marked only advances
    /// its counters and probes (see the module docs).
    ///
    /// # Panics
    /// Panics if the graph was modified since the last successful
    /// [`Graph::compile`].
    pub fn step(&mut self) {
        assert!(self.compiled, "Graph::compile must succeed before step");
        let awake = self.awake;
        if awake {
            self.eval_and_clock();
        }
        if let Some(act) = &mut self.activity {
            // A step with no node marked changes no value, so it toggles
            // nothing.
            if awake {
                for (i, node) in self.nodes.iter().enumerate() {
                    let off = node.val_off as usize;
                    for s in off..off + node.val_len as usize {
                        if self.values[s].to_bits() != act.prev[s].to_bits() {
                            act.node_toggles[i] += 1;
                            act.toggles += 1;
                        }
                        act.prev[s] = self.values[s];
                    }
                }
            }
            act.cycles += 1;
        }
        for (_, idx, samples) in &mut self.probes {
            samples.push(self.values[*idx]);
        }
        self.cycle += 1;
    }

    /// The two phases of a step over the marked nodes; leaves the marks
    /// the next step needs and clears `awake` when there are none.
    fn eval_and_clock(&mut self) {
        let Graph {
            nodes,
            values,
            schedule,
            seq_nodes,
            plan_src,
            plan_range,
            plan_run,
            scratch,
            consumer_off,
            consumers,
            marks,
            touch,
            held,
            ..
        } = self;
        // Phase 1: settle combinational logic in topological order.
        for &i in schedule.iter() {
            let i = i as usize;
            if marks[i] & (EVAL | UNSETTLED) == 0 {
                continue;
            }
            marks[i] &= !EVAL;
            let node = &nodes[i];
            let out = node.val_off as usize..(node.val_off + node.val_len) as usize;
            let changed = match &node.kind {
                Kind::Input { fmt, bits } => {
                    let value = Fix::from_bits(*bits, *fmt);
                    let changed = values[out.start].raw() != value.raw();
                    values[out.start] = value;
                    changed
                }
                // A sequential block presents its state alone, and is
                // evaluated only after a wake or its own clock edge that
                // reported a change: it marks its consumers without a
                // change test. A consumer marked for nothing costs one
                // evaluation that changes nothing, or one clock edge that
                // reports none.
                Kind::Block(b) if touch[i] == CLOCK => {
                    b.eval(&[], &mut values[out]);
                    true
                }
                Kind::Block(b) => {
                    let (s, e) = plan_range[i];
                    scratch.clear();
                    scratch.extend(
                        plan_src[s as usize..e as usize].iter().map(|&s| values[s as usize]),
                    );
                    let out = &mut values[out];
                    held.clear();
                    held.extend(out.iter().map(Fix::raw));
                    b.eval(scratch, out);
                    // Each port keeps its format, so raw words decide.
                    debug_assert!(
                        out.iter().enumerate().all(|(p, v)| v.fmt() == b.output_fmt(p)),
                        "`{}` wrote an output outside its port's format",
                        node.name
                    );
                    out.iter().zip(held.iter()).any(|(v, &h)| v.raw() != h)
                }
            };
            if changed {
                for &c in &consumers[consumer_off[i] as usize..consumer_off[i + 1] as usize] {
                    marks[c as usize] |= touch[c as usize];
                }
            }
        }
        // Phase 2: clock edge — every marked sequential block latches
        // from the settled values.
        for &i in seq_nodes.iter() {
            let i = i as usize;
            if marks[i] & (CLOCK | UNSETTLED) == 0 {
                continue;
            }
            let (s, e) = plan_range[i];
            let ins = sources(values, &plan_src[s as usize..e as usize], plan_run[i], scratch);
            if let Kind::Block(b) = &mut nodes[i].kind {
                marks[i] &= !(CLOCK | UNSETTLED);
                if b.clock(ins) {
                    marks[i] |= UNSETTLED;
                }
            }
        }
        self.awake = self.marks.iter().any(|&m| m != 0);
    }

    /// Runs `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advances the cycle counter by `n` cycles in one jump, exactly as
    /// if [`Graph::step`] had run `n` times on a design with no node
    /// marked: port values and block state are untouched and the
    /// activity measurement accrues `n` toggle-free cycles. The design
    /// must be [`Graph::asleep`] (a debug build checks), and the caller
    /// must keep the gateway inputs unchanged; scope probes must not be
    /// attached (they record one sample per stepped cycle — see
    /// [`Graph::has_probes`]).
    ///
    /// # Panics
    /// Panics if the graph is not compiled.
    pub fn fast_forward(&mut self, n: u64) {
        assert!(self.compiled, "Graph::compile must succeed before fast_forward");
        debug_assert!(self.asleep(), "fast_forward of an awake design would skip its edges");
        debug_assert!(self.probes.is_empty(), "fast_forward would skip probe samples");
        if let Some(act) = &mut self.activity {
            act.cycles += n;
        }
        self.cycle += n;
    }

    /// True when scope probes are attached. Probes record one sample
    /// per stepped cycle, so a probed design must not be fast-forwarded.
    pub fn has_probes(&self) -> bool {
        !self.probes.is_empty()
    }

    /// Total cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the design has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total faults detected by self-checking blocks in the design (TMR
    /// voter miscompares — see [`Block::detected_faults`]). Monotone;
    /// recovery supervisors poll it for deltas.
    pub fn detected_faults(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                Kind::Block(b) => b.detected_faults(),
                Kind::Input { .. } => 0,
            })
            .sum()
    }

    /// Total estimated resources of every block in the design.
    pub fn resources(&self) -> Resources {
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                Kind::Block(b) => b.resources(),
                Kind::Input { .. } => Resources::ZERO,
            })
            .sum()
    }

    /// Captures the design's complete simulation state: the cycle
    /// counter, every settled port value and the sequential state of
    /// every block (via [`Block::save_state`]). Probes and activity
    /// measurement are observers, not design state, and are excluded.
    pub fn save_state(&self) -> GraphState {
        let mut block_words = Vec::new();
        let mut spans = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let before = block_words.len();
            match &node.kind {
                Kind::Block(b) => b.save_state(&mut block_words),
                Kind::Input { bits, .. } => block_words.push(*bits),
            }
            spans.push((block_words.len() - before) as u32);
        }
        GraphState {
            cycle: self.cycle,
            values: self.values.iter().map(Fix::to_bits).collect(),
            block_words,
            spans,
        }
    }

    /// Restores a snapshot taken by [`Graph::save_state`] on a graph of
    /// the *same compiled design*.
    ///
    /// Each node restores only from its own recorded span. A block whose
    /// state words were perturbed (fault injection flips `block_words`
    /// bits directly) may consume fewer or more words than the span
    /// holds; the frame boundary still holds, so the damage cannot cascade
    /// into neighboring nodes — reads past the span yield zero words and
    /// leftover words are dropped, both modeling the fixed-size physical
    /// state the span frames.
    ///
    /// # Panics
    /// Panics if the snapshot's shape does not match this design (wrong
    /// value count, node count, or inconsistent span framing).
    pub fn load_state(&mut self, state: &GraphState) {
        assert_eq!(state.values.len(), self.values.len(), "snapshot/design value-count mismatch");
        assert_eq!(state.spans.len(), self.nodes.len(), "snapshot/design node-count mismatch");
        assert_eq!(
            state.spans.iter().map(|&n| n as usize).sum::<usize>(),
            state.block_words.len(),
            "snapshot span framing inconsistent"
        );
        self.cycle = state.cycle;
        self.wake();
        for (v, &bits) in self.values.iter_mut().zip(&state.values) {
            *v = Fix::from_bits(bits, v.fmt());
        }
        let mut off = 0usize;
        for (node, &span) in self.nodes.iter_mut().zip(&state.spans) {
            let words = &state.block_words[off..off + span as usize];
            off += span as usize;
            let mut src = words.iter().copied().chain(std::iter::repeat(0));
            match &mut node.kind {
                Kind::Block(b) => b.load_state(&mut src),
                Kind::Input { fmt, bits } => {
                    *bits = src.next().expect("snapshot underflow at gateway input") & fmt.mask();
                }
            }
        }
    }

    /// Starts measuring switching activity: from the next [`Graph::step`]
    /// on, every settled port value is compared against the previous
    /// cycle and changes are counted per node. The measured factor
    /// replaces the hardware energy model's default activity assumption.
    /// Calling again restarts the measurement.
    pub fn enable_activity(&mut self) {
        self.activity = Some(Activity {
            prev: self.values.clone(),
            node_toggles: vec![0; self.nodes.len()],
            toggles: 0,
            cycles: 0,
        });
    }

    /// The measured activity factor — the fraction of port values that
    /// toggled in an average observed cycle. `None` until
    /// [`Graph::enable_activity`] has been called and at least one cycle
    /// observed.
    pub fn activity_factor(&self) -> Option<f64> {
        let act = self.activity.as_ref()?;
        if act.cycles == 0 || self.values.is_empty() {
            return None;
        }
        Some(act.toggles as f64 / (self.values.len() as u64 * act.cycles) as f64)
    }

    /// True while switching activity is being measured.
    pub fn activity_enabled(&self) -> bool {
        self.activity.is_some()
    }

    /// Cumulative output-port toggles since [`Graph::enable_activity`];
    /// 0 when measurement is off. Samplers take deltas of this to get
    /// per-cycle switching activity.
    pub fn total_toggles(&self) -> u64 {
        self.activity.as_ref().map_or(0, |a| a.toggles)
    }

    /// Per-node toggle counts from the activity measurement, in node
    /// insertion order: `(name, toggles)`. Empty until enabled.
    pub fn node_activity(&self) -> Vec<(&str, u64)> {
        match &self.activity {
            Some(act) => self
                .nodes
                .iter()
                .zip(&act.node_toggles)
                .map(|(n, &t)| (n.name.as_str(), t))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Attaches a scope probe (the Simulink scope analog): the settled
    /// value of the port is recorded every cycle from now on.
    pub fn add_probe(&mut self, name: impl Into<String>, node: NodeId, port: usize) {
        let idx = self.nodes[node.0].val_off as usize + port;
        self.probes.push((name.into(), idx, Vec::new()));
    }

    /// Samples recorded by a named probe, one per simulated cycle.
    pub fn probe_samples(&self, name: &str) -> Option<&[Fix]> {
        self.probes.iter().find(|(n, _, _)| n == name).map(|(_, _, s)| s.as_slice())
    }

    /// Renders every probe's samples as CSV (`cycle,probe1,probe2,...`),
    /// for plotting with external tools.
    pub fn probes_to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("cycle");
        for (name, _, _) in &self.probes {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        let rows = self.probes.iter().map(|(_, _, s)| s.len()).max().unwrap_or(0);
        for row in 0..rows {
            let _ = write!(out, "{row}");
            for (_, _, samples) in &self.probes {
                match samples.get(row) {
                    Some(v) => {
                        let _ = write!(out, ",{}", v.to_f64());
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Names of all gateway outputs.
    pub fn output_names(&self) -> impl Iterator<Item = &str> {
        self.outputs.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{AddSub, AddSubOp, Constant, Delay, Mult};

    const I16: FixFmt = FixFmt::INT16;

    #[test]
    fn unconnected_input_rejected() {
        let mut g = Graph::new();
        let _ = g.add("add", AddSub::new(AddSubOp::Add, I16));
        let err = g.compile().unwrap_err();
        assert!(matches!(err, GraphError::UnconnectedInput { .. }));
    }

    #[test]
    fn double_drive_rejected() {
        let mut g = Graph::new();
        let c = g.add("c", Constant::int(1, I16));
        let d = g.add("d", Delay::new(I16, 1));
        g.wire(c, d, 0).unwrap();
        let err = g.wire(c, d, 0).unwrap_err();
        assert!(matches!(err, GraphError::DoubleDrive { .. }));
    }

    #[test]
    fn bad_ports_rejected() {
        let mut g = Graph::new();
        let c = g.add("c", Constant::int(1, I16));
        let d = g.add("d", Delay::new(I16, 1));
        assert!(matches!(g.connect(c, 5, d, 0), Err(GraphError::BadPort { .. })));
        assert!(matches!(g.connect(c, 0, d, 9), Err(GraphError::BadPort { .. })));
    }

    #[test]
    fn unknown_gateway_errors() {
        let g = Graph::new();
        assert!(matches!(g.output("nope"), Err(GraphError::NoSuchGateway { .. })));
        assert!(g.input_handle("nope").is_err());
    }

    #[test]
    fn probes_record_per_cycle_values() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 1));
        g.wire(x, d, 0).unwrap();
        g.add_probe("delayed", d, 0);
        g.compile().unwrap();
        for i in 1..=4 {
            g.set_input("x", Fix::from_int(i, I16)).unwrap();
            g.step();
        }
        let samples: Vec<i64> =
            g.probe_samples("delayed").unwrap().iter().map(|v| v.raw()).collect();
        assert_eq!(samples, vec![0, 1, 2, 3]);
        let csv = g.probes_to_csv();
        assert!(csv.starts_with("cycle,delayed\n"));
        assert!(csv.contains("3,3"));
        assert!(g.probe_samples("missing").is_none());
    }

    /// Round-trip: render the probes to CSV, parse the CSV back, and
    /// recover exactly the recorded samples — the contract external
    /// plotting tools rely on.
    #[test]
    fn probe_csv_round_trips() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d1 = g.add("d1", Delay::new(I16, 1));
        let d2 = g.add("d2", Delay::new(I16, 2));
        g.wire(x, d1, 0).unwrap();
        g.wire(x, d2, 0).unwrap();
        g.add_probe("one", d1, 0);
        g.add_probe("two", d2, 0);
        g.compile().unwrap();
        for i in 1..=6 {
            g.set_input("x", Fix::from_int(i * 7 - 20, I16)).unwrap();
            g.step();
        }
        let csv = g.probes_to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(header, ["cycle", "one", "two"]);
        let mut parsed: Vec<Vec<f64>> = Vec::new();
        for line in lines {
            parsed.push(line.split(',').map(|f| f.parse().unwrap()).collect());
        }
        assert_eq!(parsed.len(), 6, "one row per simulated cycle");
        for (name, col) in [("one", 1usize), ("two", 2)] {
            let samples = g.probe_samples(name).unwrap();
            for (row, s) in samples.iter().enumerate() {
                assert_eq!(parsed[row][0] as usize, row, "cycle column");
                assert_eq!(parsed[row][col], s.to_f64(), "{name} row {row}");
            }
        }
    }

    /// Switching-activity measurement: a design where exactly half the
    /// port values toggle every cycle measures an activity factor of
    /// one half, and a quiescent design measures zero.
    #[test]
    fn activity_factor_measures_toggle_rate() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 1));
        g.wire(x, d, 0).unwrap();
        g.gateway_out("y", d, 0);
        g.compile().unwrap();
        g.enable_activity();
        assert_eq!(g.activity_factor(), None, "no cycles observed yet");
        // Toggle the input each cycle: both ports (gateway and delay
        // output) change every cycle after the pipeline fills.
        for i in 0..100 {
            g.set_input("x", Fix::from_int(i % 2, I16)).unwrap();
            g.step();
        }
        let f = g.activity_factor().unwrap();
        assert!(f > 0.9, "everything toggles nearly every cycle: {f}");
        let toggles: u64 = g.node_activity().iter().map(|(_, t)| t).sum();
        assert!(toggles > 150, "per-node counts back the factor: {toggles}");

        // A quiescent run measures zero.
        g.enable_activity();
        g.set_input("x", Fix::from_int(0, I16)).unwrap();
        g.run(50);
        let f = g.activity_factor().unwrap();
        assert!(f < 0.05, "held-constant design barely toggles: {f}");
    }

    /// A delay line driven by a held-constant input falls asleep once
    /// the line is saturated, and a fast-forward jump is then
    /// indistinguishable from stepping (state, outputs, cycle count,
    /// activity).
    #[test]
    fn sleep_and_fast_forward_match_stepping() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 3));
        g.wire(x, d, 0).unwrap();
        g.gateway_out("y", d, 0);
        g.compile().unwrap();
        g.enable_activity();
        g.set_input("x", Fix::from_int(7, I16)).unwrap();
        g.step();
        assert!(!g.asleep(), "delay line still filling");
        g.run(3);
        assert!(g.asleep(), "saturated delay line is a fixed point");
        assert!(!g.has_probes());

        // Fast-forward 100 cycles, then verify a real step changes
        // nothing and the books match a stepped run.
        let before = g.save_state();
        g.fast_forward(100);
        assert_eq!(g.cycles(), 104);
        g.step();
        let after = g.save_state();
        assert_eq!(before.values, after.values, "quiescent values frozen");
        assert_eq!(before.block_words, after.block_words, "quiescent state frozen");
        assert_eq!(g.total_toggles(), {
            let mut h = Graph::new();
            let hx = h.gateway_in("x", I16);
            let hd = h.add("d", Delay::new(I16, 3));
            h.wire(hx, hd, 0).unwrap();
            h.gateway_out("y", hd, 0);
            h.compile().unwrap();
            h.enable_activity();
            h.set_input("x", Fix::from_int(7, I16)).unwrap();
            h.run(105);
            h.total_toggles()
        });

        // Changing the held input wakes the design.
        g.set_input("x", Fix::from_int(8, I16)).unwrap();
        assert!(!g.asleep(), "changed gateway input is visible");
    }

    /// `asleep` is "no node marked": false until the design settles,
    /// false again once a gateway stores a new value, and untouched by
    /// storing the value a gateway already holds, which `input_value`
    /// reads back.
    #[test]
    fn asleep_tracks_marks_and_input_value_reads_the_gateway() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 1));
        g.wire(x, d, 0).unwrap();
        g.gateway_out("y", d, 0);
        assert!(!g.asleep(), "an uncompiled design is never asleep");
        g.compile().unwrap();
        assert!(!g.asleep(), "compile marks every node");
        let hx = g.input_handle("x").unwrap();
        g.run(3);
        assert!(g.asleep());
        g.set_input_fast(hx, Fix::from_int(0, I16));
        assert!(g.asleep(), "storing the held value marks nothing");
        g.set_input_fast(hx, Fix::from_int(5, I16));
        assert!(!g.asleep());
        assert_eq!(g.input_value(hx).raw(), 5);
        g.run(3);
        assert!(g.asleep());
        assert_eq!(g.output("y").unwrap().raw(), 5);
    }

    /// A store in another format converts into the gateway's (wrap,
    /// truncate) as it always has; a store of the bits the gateway holds,
    /// in whatever format or with bits above its word, marks nothing.
    #[test]
    fn stores_convert_into_the_gateway_format_and_held_values_mark_nothing() {
        let mut g = Graph::new();
        let q = FixFmt::signed(16, 4);
        let x = g.gateway_in("x", q);
        let d = g.add("d", Delay::new(q, 1));
        g.wire(x, d, 0).unwrap();
        g.compile().unwrap();
        let hx = g.input_handle("x").unwrap();
        let cases = [
            (Fix::from_int(70_000, FixFmt::INT32), 5_888),
            (Fix::from_f64(1.75, FixFmt::signed(16, 8)), 28),
            (Fix::from_raw(-1, FixFmt::signed(16, 8)), -1),
            (Fix::from_raw(-3, FixFmt::signed(8, 5)), -2),
            (Fix::from_raw(3, FixFmt::unsigned(4, -2)), 192),
        ];
        for (value, raw) in cases {
            g.set_input_fast(hx, value);
            let held = g.input_value(hx);
            assert_eq!(held, value.convert(q, Overflow::Wrap, Rounding::Truncate), "{value:?}");
            assert_eq!((held.raw(), held.fmt()), (raw, q), "{value:?}");
            g.run(3);
            assert!(g.asleep());
            g.set_input_fast(hx, held);
            g.set_input_fast(hx, value);
            g.set_input_bits(hx, held.to_bits() | 0xFFFF_0000);
            assert!(g.asleep(), "storing the held value marks nothing: {value:?}");
        }
    }

    /// A pipelined multiplier is sequential: fed a held product, it
    /// reports no change once its pipeline is full of that product, and
    /// the design falls asleep.
    #[test]
    fn a_pipelined_mult_falls_asleep_on_a_held_input() {
        let latency = 2;
        let mut g = Graph::new();
        let a = g.gateway_in("a", I16);
        let b = g.gateway_in("b", I16);
        let m = g.add("m", Mult::new(I16, latency));
        g.wire(a, m, 0).unwrap();
        g.wire(b, m, 1).unwrap();
        g.gateway_out("p", m, 0);
        g.compile().unwrap();
        g.set_input("a", Fix::from_int(-3, I16)).unwrap();
        g.set_input("b", Fix::from_int(7, I16)).unwrap();
        for _ in 0..latency + 2 {
            g.step();
            if g.asleep() {
                break;
            }
        }
        assert!(g.asleep(), "still awake after {} steps", latency + 2);
        assert_eq!(g.output("p").unwrap().raw(), -21);
    }

    #[test]
    fn duplicate_gateway_in_rejected() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 1));
        g.wire(x, d, 0).unwrap();
        g.gateway_out("y", d, 0);
        let _ = g.gateway_in("x", I16);
        let err = g.compile().unwrap_err();
        assert_eq!(err, GraphError::DuplicateGateway { name: "x".into() });
        assert_eq!(err.to_string(), "two gateways named `x`");
    }

    #[test]
    fn duplicate_gateway_out_rejected() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 1));
        g.wire(x, d, 0).unwrap();
        g.gateway_out("y", d, 0);
        g.compile().unwrap();
        g.gateway_out("y", x, 0);
        assert_eq!(g.compile(), Err(GraphError::DuplicateGateway { name: "y".into() }));
        // An input and an output may share a name: they are looked up
        // apart.
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        g.gateway_out("x", x, 0);
        g.compile().unwrap();
    }

    #[test]
    fn probe_blocks_fast_forward_eligibility() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 1));
        g.wire(x, d, 0).unwrap();
        g.add_probe("p", d, 0);
        g.compile().unwrap();
        assert!(g.has_probes());
    }

    #[test]
    fn handles_match_named_access() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let d = g.add("d", Delay::new(I16, 1));
        g.wire(x, d, 0).unwrap();
        g.gateway_out("y", d, 0);
        g.compile().unwrap();
        let hx = g.input_handle("x").unwrap();
        let hy = g.output_handle("y").unwrap();
        g.set_input_fast(hx, Fix::from_int(5, I16));
        g.step();
        g.step();
        assert_eq!(g.output_fast(hy), g.output("y").unwrap());
        assert_eq!(g.output_fast(hy).raw(), 5);
    }
}
