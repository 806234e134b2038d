//! The customized hardware peripheral of §IV-A: a linear pipeline of P
//! fully-pipelined CORDIC processing elements, described at the block
//! level (the System Generator design of Fig. 4).
//!
//! # Port protocol (one input FSL, one output FSL)
//!
//! * A **control word** (`cput`) carries `C_0` for the upcoming pass;
//!   PE 0 latches it and the value propagates down the pipeline, halved
//!   at each PE, so PE *i* holds `C_0 · 2^-i` (Eq. 2 of the paper).
//! * **Data words** arrive in triples `XS, Y, Z` where `XS = X · C_0`
//!   (the software pre-shifts X by the pass's shift amount, so each PE
//!   only needs an add/sub pair and a one-bit shift — no multipliers,
//!   matching the 3/3 multiplier column of Table I).
//! * Results leave as pairs `Y, Z` (X never changes, so the processor
//!   keeps it locally).

use crate::cordic::reference;
use softsim_blocks::block::{bit, state_word, Block};
use softsim_blocks::library::Tmr;
use softsim_blocks::{Fix, FixFmt, Graph, Resources};
use softsim_cosim::{FslFromHw, FslToHw, Peripheral};
use std::collections::VecDeque;

const W32: FixFmt = FixFmt::INT32;

fn raw32(x: &Fix) -> i32 {
    x.to_bits() as u32 as i32
}

fn fix32(v: i32) -> Fix {
    Fix::from_bits(v as u32 as u64, W32)
}

/// Unpacks a word-triple stream from one FSL into `(XS, Y, Z)` tuples and
/// extracts control words (an MCode-style framing block).
#[derive(Debug, Clone, Default)]
pub struct Deserializer {
    phase: u8,
    xs: i32,
    y: i32,
    z: i32,
    tuple_valid: bool,
    c0: i32,
    c_load: bool,
}

impl Deserializer {
    /// A fresh deserializer.
    pub fn new() -> Deserializer {
        Deserializer::default()
    }
}

impl Block for Deserializer {
    fn kind(&self) -> &'static str {
        "CordicDeserializer"
    }
    fn inputs(&self) -> usize {
        3 // data, valid, ctrl
    }
    fn outputs(&self) -> usize {
        6 // xs, y, z, tuple_valid, c0, c_load
    }
    fn output_fmt(&self, port: usize) -> FixFmt {
        match port {
            0..=2 | 4 => W32,
            _ => FixFmt::BOOL,
        }
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = fix32(self.xs);
        outputs[1] = fix32(self.y);
        outputs[2] = fix32(self.z);
        outputs[3] = bit(self.tuple_valid);
        outputs[4] = fix32(self.c0);
        outputs[5] = bit(self.c_load);
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let data = raw32(&inputs[0]);
        let valid = !inputs[1].is_zero();
        let ctrl = !inputs[2].is_zero();
        let strobed = self.tuple_valid || self.c_load;
        self.tuple_valid = false;
        self.c_load = false;
        if !valid {
            // No word arriving: only the single-cycle strobes clear.
            return strobed;
        }
        if ctrl {
            self.c0 = data;
            self.c_load = true;
            return true;
        }
        match self.phase {
            0 => self.xs = data,
            1 => self.y = data,
            _ => {
                self.z = data;
                self.tuple_valid = true;
            }
        }
        self.phase = (self.phase + 1) % 3;
        true
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        // Three 32-bit holding registers, a phase counter and decode.
        Resources::slices(3 * 16 + 4)
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.phase as u64);
        out.push(self.xs as u32 as u64);
        out.push(self.y as u32 as u64);
        out.push(self.z as u32 as u64);
        out.push(self.tuple_valid as u64);
        out.push(self.c0 as u32 as u64);
        out.push(self.c_load as u64);
    }
    fn load_state(&mut self, src: &mut dyn Iterator<Item = u64>) {
        let mut w = || state_word("CordicDeserializer", src);
        self.phase = w() as u8;
        self.xs = w() as u32 as i32;
        self.y = w() as u32 as i32;
        self.z = w() as u32 as i32;
        self.tuple_valid = w() != 0;
        self.c0 = w() as u32 as i32;
        self.c_load = w() != 0;
    }
}

/// One CORDIC processing element (Eq. 2): a fully-pipelined stage with a
/// per-PE `C` register loaded through the control chain.
#[derive(Debug, Clone, Default)]
pub struct CordicPe {
    // Stage registers.
    xs: i32,
    y: i32,
    z: i32,
    tuple_valid: bool,
    // Control chain.
    c: i32,
    c_fwd: i32,
    c_load_fwd: bool,
}

impl CordicPe {
    /// A fresh PE with `C = 0` (loaded by the first control word).
    pub fn new() -> CordicPe {
        CordicPe::default()
    }
}

impl Block for CordicPe {
    fn kind(&self) -> &'static str {
        "CordicPe"
    }
    fn inputs(&self) -> usize {
        6 // xs, y, z, tuple_valid, c_in, c_load
    }
    fn outputs(&self) -> usize {
        6 // same shape, next stage
    }
    fn output_fmt(&self, port: usize) -> FixFmt {
        match port {
            0..=2 | 4 => W32,
            _ => FixFmt::BOOL,
        }
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = fix32(self.xs);
        outputs[1] = fix32(self.y);
        outputs[2] = fix32(self.z);
        outputs[3] = bit(self.tuple_valid);
        outputs[4] = fix32(self.c_fwd);
        outputs[5] = bit(self.c_load_fwd);
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let (xs, y, z) = (raw32(&inputs[0]), raw32(&inputs[1]), raw32(&inputs[2]));
        let tv = !inputs[3].is_zero();
        let c_in = raw32(&inputs[4]);
        let c_load = !inputs[5].is_zero();
        // With no tuple and no control word incoming and the forwarded
        // strobes already clear, the edge changes nothing.
        let changed = tv || c_load || self.tuple_valid || self.c_load_fwd;
        if c_load {
            // Latch my own copy and forward the halved value (Eq. 2).
            self.c = c_in;
            self.c_fwd = c_in >> 1;
        }
        self.c_load_fwd = c_load;
        self.tuple_valid = tv;
        if tv {
            let (nxs, ny, nz) = reference::iterate(xs, y, z, self.c);
            self.xs = nxs;
            self.y = ny;
            self.z = nz;
        }
        changed
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        // Two 32-bit add/sub datapaths (Y and Z), stage registers packing
        // behind them, the C register and the sign/select logic.
        Resources::slices(2 * Resources::adder_slices(32) + 4)
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.xs as u32 as u64);
        out.push(self.y as u32 as u64);
        out.push(self.z as u32 as u64);
        out.push(self.tuple_valid as u64);
        out.push(self.c as u32 as u64);
        out.push(self.c_fwd as u32 as u64);
        out.push(self.c_load_fwd as u64);
    }
    fn load_state(&mut self, src: &mut dyn Iterator<Item = u64>) {
        let mut w = || state_word("CordicPe", src);
        self.xs = w() as u32 as i32;
        self.y = w() as u32 as i32;
        self.z = w() as u32 as i32;
        self.tuple_valid = w() != 0;
        self.c = w() as u32 as i32;
        self.c_fwd = w() as u32 as i32;
        self.c_load_fwd = w() != 0;
    }
}

/// Packs `(Y, Z)` result pairs back onto one output FSL, one word per
/// cycle, with an internal buffer.
#[derive(Debug, Clone, Default)]
pub struct Serializer {
    queue: VecDeque<i32>,
    out_data: i32,
    out_valid: bool,
    /// High-water mark, to check the paper's "size each set of data so
    /// the output FIFOs do not overflow" rule.
    pub max_occupancy: usize,
}

impl Serializer {
    /// A fresh serializer.
    pub fn new() -> Serializer {
        Serializer::default()
    }
}

impl Block for Serializer {
    fn kind(&self) -> &'static str {
        "CordicSerializer"
    }
    fn inputs(&self) -> usize {
        3 // y, z, valid
    }
    fn outputs(&self) -> usize {
        2 // out_data, out_valid
    }
    fn output_fmt(&self, port: usize) -> FixFmt {
        if port == 0 {
            W32
        } else {
            FixFmt::BOOL
        }
    }
    fn eval(&self, _inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = fix32(self.out_data);
        outputs[1] = bit(self.out_valid);
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        // Nothing arriving, nothing buffered and nothing being presented:
        // the edge changes nothing.
        let changed = !inputs[2].is_zero() || !self.queue.is_empty() || self.out_valid;
        if !inputs[2].is_zero() {
            self.queue.push_back(raw32(&inputs[0]));
            self.queue.push_back(raw32(&inputs[1]));
            self.max_occupancy = self.max_occupancy.max(self.queue.len());
        }
        match self.queue.pop_front() {
            Some(w) => {
                self.out_data = w;
                self.out_valid = true;
            }
            None => {
                self.out_valid = false;
            }
        }
        changed
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        // SRL16-based buffering plus the output register and control.
        Resources::slices(2 * 16 + 6)
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.queue.len() as u64);
        out.extend(self.queue.iter().map(|&w| w as u32 as u64));
        out.push(self.out_data as u32 as u64);
        out.push(self.out_valid as u64);
        out.push(self.max_occupancy as u64);
    }
    fn load_state(&mut self, src: &mut dyn Iterator<Item = u64>) {
        let mut w = || state_word("CordicSerializer", src);
        // Clamp the self-describing length: the graph-level span framing
        // bounds the words available, but a fault-flipped length word
        // must not demand an absurd queue from the zero-padded tail.
        let len = (w() as usize).min(4096);
        self.queue.clear();
        for _ in 0..len {
            self.queue.push_back(w() as u32 as i32);
        }
        self.out_data = w() as u32 as i32;
        self.out_valid = w() != 0;
        self.max_occupancy = w() as usize;
    }
}

/// Builds the block-level CORDIC pipeline of `p ≥ 1` PEs with standard
/// FSL gateway names on channel 0.
pub fn cordic_graph(p: usize) -> Graph {
    assert!(p >= 1, "pipeline needs at least one PE");
    let mut g = Graph::new();
    let data = g.gateway_in("fsl0_data", W32);
    let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
    let ctrl = g.gateway_in("fsl0_ctrl", FixFmt::BOOL);
    let deser = g.add("deser", Deserializer::new());
    g.wire(data, deser, 0).unwrap();
    g.wire(valid, deser, 1).unwrap();
    g.wire(ctrl, deser, 2).unwrap();
    let mut prev = deser;
    for i in 0..p {
        let pe = g.add(format!("pe{i}"), CordicPe::new());
        for port in 0..6 {
            g.connect(prev, port, pe, port).unwrap();
        }
        prev = pe;
    }
    let ser = g.add("ser", Serializer::new());
    g.connect(prev, 1, ser, 0).unwrap(); // Y
    g.connect(prev, 2, ser, 1).unwrap(); // Z
    g.connect(prev, 3, ser, 2).unwrap(); // tuple_valid
    g.gateway_out("fsl0_out_data", ser, 0);
    g.gateway_out("fsl0_out_valid", ser, 1);
    g.compile().expect("cordic pipeline compiles");
    g
}

/// Wraps [`cordic_graph`] as an attachable peripheral.
pub fn cordic_peripheral(p: usize) -> Peripheral {
    Peripheral::new(cordic_graph(p), vec![FslToHw::standard(0)], vec![FslFromHw::standard(0)])
}

/// Builds the dual-output variant of the pipeline: Y results leave on
/// FSL 0 and Z results on FSL 1 *in the same cycle*, with no serializer —
/// the multiple "data output FSLs" of the paper's Fig. 4. Output FIFO
/// capacity doubles, so batches up to 16 samples fit.
pub fn cordic_graph_dual(p: usize) -> Graph {
    assert!(p >= 1, "pipeline needs at least one PE");
    let mut g = Graph::new();
    let data = g.gateway_in("fsl0_data", W32);
    let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
    let ctrl = g.gateway_in("fsl0_ctrl", FixFmt::BOOL);
    let deser = g.add("deser", Deserializer::new());
    g.wire(data, deser, 0).unwrap();
    g.wire(valid, deser, 1).unwrap();
    g.wire(ctrl, deser, 2).unwrap();
    let mut prev = deser;
    for i in 0..p {
        let pe = g.add(format!("pe{i}"), CordicPe::new());
        for port in 0..6 {
            g.connect(prev, port, pe, port).unwrap();
        }
        prev = pe;
    }
    // Direct wires: Y on channel 0, Z on channel 1, valid shared.
    g.gateway_out("fsl0_out_data", prev, 1);
    g.gateway_out("fsl0_out_valid", prev, 3);
    g.gateway_out("fsl1_out_data", prev, 2);
    g.gateway_out("fsl1_out_valid", prev, 3);
    g.compile().expect("dual cordic pipeline compiles");
    g
}

/// Wraps [`cordic_graph_dual`] as a peripheral on channels 0 and 1.
pub fn cordic_peripheral_dual(p: usize) -> Peripheral {
    Peripheral::new(
        cordic_graph_dual(p),
        vec![FslToHw::standard(0)],
        vec![FslFromHw::standard(0), FslFromHw::standard(1)],
    )
}

/// Resource estimate of the P-PE pipeline alone (for §III-C totals).
pub fn pipeline_resources(p: usize) -> Resources {
    cordic_graph(p).resources()
}

/// TMR-hardened variant of [`cordic_graph`]: every sequential block is
/// wrapped in a [`Tmr`] voter. Same gateway names and cycle behavior as
/// the unhardened pipeline (the voter is transparent while replicas
/// agree), ~3× the slice cost, and replica miscompares surface through
/// `Graph::detected_faults` for the recovery supervisor.
pub fn cordic_graph_tmr(p: usize) -> Graph {
    assert!(p >= 1, "pipeline needs at least one PE");
    let mut g = Graph::new();
    let data = g.gateway_in("fsl0_data", W32);
    let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
    let ctrl = g.gateway_in("fsl0_ctrl", FixFmt::BOOL);
    let deser = g.add("deser", Tmr::new(Deserializer::new()));
    g.wire(data, deser, 0).unwrap();
    g.wire(valid, deser, 1).unwrap();
    g.wire(ctrl, deser, 2).unwrap();
    let mut prev = deser;
    for i in 0..p {
        let pe = g.add(format!("pe{i}"), Tmr::new(CordicPe::new()));
        for port in 0..6 {
            g.connect(prev, port, pe, port).unwrap();
        }
        prev = pe;
    }
    let ser = g.add("ser", Tmr::new(Serializer::new()));
    g.connect(prev, 1, ser, 0).unwrap(); // Y
    g.connect(prev, 2, ser, 1).unwrap(); // Z
    g.connect(prev, 3, ser, 2).unwrap(); // tuple_valid
    g.gateway_out("fsl0_out_data", ser, 0);
    g.gateway_out("fsl0_out_valid", ser, 1);
    g.compile().expect("TMR cordic pipeline compiles");
    g
}

/// Wraps [`cordic_graph_tmr`] as an attachable peripheral.
pub fn cordic_peripheral_tmr(p: usize) -> Peripheral {
    Peripheral::new(cordic_graph_tmr(p), vec![FslToHw::standard(0)], vec![FslFromHw::standard(0)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_blocks::Fix;

    /// Drives the raw graph directly (no CPU) with one control word and
    /// one sample for a single pass through `p` PEs.
    fn one_pass(p: usize, a: i32, b: i32) -> (i32, i32) {
        let mut g = cordic_graph(p);
        let send = |g: &mut Graph, word: i32, ctrl: bool| {
            g.set_input("fsl0_data", fix32(word)).unwrap();
            g.set_input("fsl0_valid", bit(true)).unwrap();
            g.set_input("fsl0_ctrl", bit(ctrl)).unwrap();
            g.step();
        };
        send(&mut g, reference::ONE, true); // C0 = 1.0
        send(&mut g, a, false); // XS = X·C0 = a
        send(&mut g, b, false); // Y
        send(&mut g, 0, false); // Z
        g.set_input("fsl0_valid", Fix::zero(FixFmt::BOOL)).unwrap();
        let mut out = Vec::new();
        for _ in 0..(p + 20) {
            g.step();
            if !g.output("fsl0_out_valid").unwrap().is_zero() {
                out.push(raw32(&g.output("fsl0_out_data").unwrap()));
            }
            if out.len() == 2 {
                break;
            }
        }
        assert_eq!(out.len(), 2, "expected Y and Z back");
        (out[0], out[1])
    }

    #[test]
    fn single_pass_matches_reference() {
        for p in [1, 2, 4, 6, 8] {
            let a = reference::to_fix(1.5);
            let b = reference::to_fix(0.9);
            let (_y, z) = one_pass(p, a, b);
            // Reference: p iterations starting from C0 = 1.
            let expect = reference::divide_fix(a, b, p as u32);
            assert_eq!(z, expect, "P={p}");
        }
    }

    #[test]
    fn pipeline_is_fully_pipelined() {
        // Two samples back-to-back come out 3 cycles apart (the input
        // serialization interval), proving the PEs accept one tuple per
        // cycle.
        let mut g = cordic_graph(4);
        let send = |g: &mut Graph, word: i32, ctrl: bool| {
            g.set_input("fsl0_data", fix32(word)).unwrap();
            g.set_input("fsl0_valid", bit(true)).unwrap();
            g.set_input("fsl0_ctrl", bit(ctrl)).unwrap();
            g.step();
        };
        send(&mut g, reference::ONE, true);
        let a = reference::to_fix(1.0);
        for b in [reference::to_fix(0.5), reference::to_fix(0.25)] {
            send(&mut g, a, false);
            send(&mut g, b, false);
            send(&mut g, 0, false);
        }
        g.set_input("fsl0_valid", bit(false)).unwrap();
        let mut outs = Vec::new();
        for cycle in 0..40 {
            g.step();
            if !g.output("fsl0_out_valid").unwrap().is_zero() {
                outs.push((cycle, raw32(&g.output("fsl0_out_data").unwrap())));
            }
        }
        assert_eq!(outs.len(), 4, "two (Y, Z) pairs");
        // Y/Z of sample 0 in consecutive cycles, then sample 1's pair.
        assert_eq!(outs[1].0 - outs[0].0, 1);
        assert!(outs[2].0 - outs[1].0 <= 2, "second sample close behind");
    }

    #[test]
    fn multi_pass_reaches_full_precision() {
        // 24 iterations as 6 passes through a 4-PE pipeline: the host
        // re-sends data with XS pre-shifted and C0 halved P times.
        let p = 4;
        let iters = 24u32;
        let a = reference::to_fix(1.7);
        let b = reference::to_fix(1.1);
        let (mut y, mut z) = (b, 0i32);
        for pass in 0..(iters / p as u32) {
            let shift = pass * p as u32;
            let mut g = cordic_graph(p);
            let send = |g: &mut Graph, word: i32, ctrl: bool| {
                g.set_input("fsl0_data", fix32(word)).unwrap();
                g.set_input("fsl0_valid", bit(true)).unwrap();
                g.set_input("fsl0_ctrl", bit(ctrl)).unwrap();
                g.step();
            };
            send(&mut g, reference::ONE >> shift, true);
            send(&mut g, a >> shift, false);
            send(&mut g, y, false);
            send(&mut g, z, false);
            g.set_input("fsl0_valid", bit(false)).unwrap();
            let mut out = Vec::new();
            while out.len() < 2 {
                g.step();
                if !g.output("fsl0_out_valid").unwrap().is_zero() {
                    out.push(raw32(&g.output("fsl0_out_data").unwrap()));
                }
            }
            y = out[0];
            z = out[1];
        }
        let expect = reference::divide_fix(a, b, iters);
        assert_eq!(z, expect);
        let err = (reference::from_fix(z) - 1.1 / 1.7).abs();
        assert!(err <= reference::error_bound(iters));
    }

    #[test]
    fn resources_scale_linearly_with_p() {
        let r2 = pipeline_resources(2);
        let r4 = pipeline_resources(4);
        let r8 = pipeline_resources(8);
        let per_pe = (r4.slices - r2.slices) / 2;
        assert_eq!((r8.slices - r4.slices) / 4, per_pe, "constant per-PE cost");
        assert!((30..45).contains(&per_pe), "~36 slices per PE, got {per_pe}");
        assert_eq!(r8.mult18s, 0, "PEs use no multipliers (Table I)");
    }
}
