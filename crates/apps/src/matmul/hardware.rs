//! The block-matrix-multiplication peripheral of §IV-B (Fig. 6): an
//! `nb × nb` block-product unit with `nb` parallel multipliers and a
//! resident B block loaded through control words.
//!
//! # Port protocol (one input FSL, one output FSL)
//!
//! * `nb²` **control words** load the B block, row-major
//!   (`b(0,0), b(0,1), …`) — "the data elements of matrix blocks from
//!   matrix B are fed into the hardware peripheral as control words".
//! * `nb²` **data words** stream the A block column-major
//!   (`a(0,0), a(1,0), …`); each word fires `nb` multiply-accumulates in
//!   one cycle (one per result column).
//! * When the last A element arrives, the finished `nb²` block product is
//!   handed to an output buffer and streamed back row-major, one word per
//!   cycle, while the next A block may already stream in.

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

/// The block-product unit as a custom (MCode-style) block.
#[derive(Debug, Clone)]
pub struct MatmulUnit {
    nb: usize,
    /// Resident B block, row-major (loaded by control words).
    b: Vec<i32>,
    /// Write index for incoming control words.
    b_idx: usize,
    /// Accumulators, row-major.
    acc: Vec<i32>,
    /// Position of the next A element: k*nb + i (column-major count).
    a_idx: usize,
    /// Output buffer streaming one word per cycle.
    out: VecDeque<i32>,
    out_data: i32,
    out_valid: bool,
    /// High-water mark of the output buffer.
    pub max_occupancy: usize,
}

impl MatmulUnit {
    /// A unit for `nb × nb` blocks.
    pub fn new(nb: usize) -> MatmulUnit {
        assert!(nb >= 1);
        MatmulUnit {
            nb,
            b: vec![0; nb * nb],
            b_idx: 0,
            acc: vec![0; nb * nb],
            a_idx: 0,
            out: VecDeque::new(),
            out_data: 0,
            out_valid: false,
            max_occupancy: 0,
        }
    }
}

impl Block for MatmulUnit {
    fn kind(&self) -> &'static str {
        "MatmulUnit"
    }
    fn inputs(&self) -> usize {
        3 // data, valid, ctrl
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
        let nb = self.nb;
        let data = raw32(&inputs[0]);
        let valid = !inputs[1].is_zero();
        let ctrl = !inputs[2].is_zero();
        // Nothing arriving, nothing buffered and nothing being presented:
        // the edge changes nothing.
        let changed = valid || !self.out.is_empty() || self.out_valid;
        if valid {
            if ctrl {
                // Load B row-major; wrap so a new block overwrites.
                self.b[self.b_idx] = data;
                self.b_idx = (self.b_idx + 1) % (nb * nb);
                // A new B block restarts the A stream.
                self.a_idx = 0;
                for a in &mut self.acc {
                    *a = 0;
                }
            } else {
                // A element a(i, k) arrives column-major.
                let k = self.a_idx / nb;
                let i = self.a_idx % nb;
                for j in 0..nb {
                    // The nb parallel multiply-accumulates of Fig. 6.
                    self.acc[i * nb + j] =
                        self.acc[i * nb + j].wrapping_add(data.wrapping_mul(self.b[k * nb + j]));
                }
                self.a_idx += 1;
                if self.a_idx == nb * nb {
                    // Block complete: hand to the output buffer.
                    for &v in &self.acc {
                        self.out.push_back(v);
                    }
                    self.max_occupancy = self.max_occupancy.max(self.out.len());
                    for a in &mut self.acc {
                        *a = 0;
                    }
                    self.a_idx = 0;
                }
            }
        }
        match self.out.pop_front() {
            Some(w) => {
                self.out_data = w;
                self.out_valid = true;
            }
            None => self.out_valid = false,
        }
        changed
    }
    fn is_combinational(&self) -> bool {
        false
    }
    fn resources(&self) -> Resources {
        let nb = self.nb as u32;
        // nb parallel 18×18 multipliers (the 2 extra / 4 extra MULT18X18s
        // of Table I); per result element one accumulator adder with its
        // register packed behind it and one B register (~9 slices/element
        // at 32 bits), nb column-broadcast registers, plus the stream
        // control and output buffering.
        Resources { slices: nb * nb * 9 + nb * 10 + 63, brams: 0, mult18s: nb }
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.extend(self.b.iter().map(|&w| w as u32 as u64));
        out.push(self.b_idx as u64);
        out.extend(self.acc.iter().map(|&w| w as u32 as u64));
        out.push(self.a_idx as u64);
        out.push(self.out.len() as u64);
        out.extend(self.out.iter().map(|&w| w as u32 as u64));
        out.push(self.out_data as u32 as u64);
        out.push(self.out_valid as u64);
        out.push(self.max_occupancy as u64);
    }
    fn load_state(&mut self, src: &mut dyn Iterator<Item = u64>) {
        let nb = self.nb;
        let mut w = || state_word("MatmulUnit", src);
        for v in &mut self.b {
            *v = w() as u32 as i32;
        }
        // Clamp the self-describing indices and length: fault injection
        // may hand this block a bit-flipped frame, and a wild index must
        // corrupt data (detectably), not panic or exhaust memory.
        self.b_idx = w() as usize % (nb * nb);
        for v in &mut self.acc {
            *v = w() as u32 as i32;
        }
        self.a_idx = w() as usize % (nb * nb);
        let len = (w() as usize).min(4096);
        self.out.clear();
        for _ in 0..len {
            self.out.push_back(w() as u32 as i32);
        }
        self.out_data = w() as u32 as i32;
        self.out_valid = w() != 0;
        self.max_occupancy = w() as usize;
    }
}

/// Builds the block-level peripheral graph with standard FSL gateway
/// names on channel 0.
pub fn matmul_graph(nb: usize) -> Graph {
    matmul_graph_chan(nb, 0)
}

/// Builds the peripheral graph on an arbitrary FSL channel (several
/// peripherals can then share one processor).
pub fn matmul_graph_chan(nb: usize, ch: usize) -> Graph {
    let mut g = Graph::new();
    let data = g.gateway_in(format!("fsl{ch}_data"), W32);
    let valid = g.gateway_in(format!("fsl{ch}_valid"), FixFmt::BOOL);
    let ctrl = g.gateway_in(format!("fsl{ch}_ctrl"), FixFmt::BOOL);
    let unit = g.add(format!("matmul{nb}x{nb}"), MatmulUnit::new(nb));
    g.wire(data, unit, 0).unwrap();
    g.wire(valid, unit, 1).unwrap();
    g.wire(ctrl, unit, 2).unwrap();
    g.gateway_out(format!("fsl{ch}_out_data"), unit, 0);
    g.gateway_out(format!("fsl{ch}_out_valid"), unit, 1);
    g.compile().expect("matmul graph compiles");
    g
}

/// Wraps [`matmul_graph`] as an attachable peripheral.
pub fn matmul_peripheral(nb: usize) -> Peripheral {
    matmul_peripheral_chan(nb, 0)
}

/// Wraps [`matmul_graph_chan`] as a peripheral on channel `ch`.
pub fn matmul_peripheral_chan(nb: usize, ch: usize) -> Peripheral {
    Peripheral::new(
        matmul_graph_chan(nb, ch),
        vec![FslToHw::standard(ch)],
        vec![FslFromHw::standard(ch)],
    )
}

/// TMR-hardened [`matmul_graph_chan`]: the block-product unit runs as
/// three voted replicas. Gateway names and cycle behavior match the
/// unhardened graph; replica miscompares surface through
/// `Graph::detected_faults` for the recovery supervisor.
pub fn matmul_graph_tmr(nb: usize, ch: usize) -> Graph {
    let mut g = Graph::new();
    let data = g.gateway_in(format!("fsl{ch}_data"), W32);
    let valid = g.gateway_in(format!("fsl{ch}_valid"), FixFmt::BOOL);
    let ctrl = g.gateway_in(format!("fsl{ch}_ctrl"), FixFmt::BOOL);
    let unit = g.add(format!("matmul{nb}x{nb}"), Tmr::new(MatmulUnit::new(nb)));
    g.wire(data, unit, 0).unwrap();
    g.wire(valid, unit, 1).unwrap();
    g.wire(ctrl, unit, 2).unwrap();
    g.gateway_out(format!("fsl{ch}_out_data"), unit, 0);
    g.gateway_out(format!("fsl{ch}_out_valid"), unit, 1);
    g.compile().expect("TMR matmul graph compiles");
    g
}

/// Wraps [`matmul_graph_tmr`] as a peripheral on channel 0.
pub fn matmul_peripheral_tmr(nb: usize) -> Peripheral {
    Peripheral::new(
        matmul_graph_tmr(nb, 0),
        vec![FslToHw::standard(0)],
        vec![FslFromHw::standard(0)],
    )
}

/// Resource estimate of the block-product unit alone.
pub fn unit_resources(nb: usize) -> Resources {
    matmul_graph(nb).resources()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::reference;

    fn drive_block(nb: usize, b_rm: &[i32], a_cm: &[i32]) -> Vec<i32> {
        let mut g = matmul_graph(nb);
        let mut out = Vec::new();
        let send = |g: &mut Graph, word: i32, ctrl: bool, out: &mut Vec<i32>| {
            g.set_input("fsl0_data", fix32(word)).unwrap();
            g.set_input("fsl0_valid", bit(true)).unwrap();
            g.set_input("fsl0_ctrl", bit(ctrl)).unwrap();
            g.step();
            if !g.output("fsl0_out_valid").unwrap().is_zero() {
                out.push(raw32(&g.output("fsl0_out_data").unwrap()));
            }
        };
        for &bv in b_rm {
            send(&mut g, bv, true, &mut out);
        }
        for &av in a_cm {
            send(&mut g, av, false, &mut out);
        }
        g.set_input("fsl0_valid", bit(false)).unwrap();
        while out.len() < nb * nb {
            g.step();
            if !g.output("fsl0_out_valid").unwrap().is_zero() {
                out.push(raw32(&g.output("fsl0_out_data").unwrap()));
            }
        }
        out
    }

    #[test]
    fn unit_computes_2x2_block_product() {
        // A = [[1,2],[3,4]] (column-major [1,3,2,4]), B = [[5,6],[7,8]].
        let c = drive_block(2, &[5, 6, 7, 8], &[1, 3, 2, 4]);
        assert_eq!(c, vec![19, 22, 43, 50]);
    }

    #[test]
    fn unit_computes_4x4_against_reference() {
        let nb = 4;
        let a = reference::Matrix::test_pattern(nb, 7);
        let b = reference::Matrix::test_pattern(nb, 9);
        // Column-major A stream.
        let a_cm: Vec<i32> =
            (0..nb).flat_map(|k| (0..nb).map(move |i| (i, k))).map(|(i, k)| a.get(i, k)).collect();
        let c = drive_block(nb, &b.data, &a_cm);
        let expect = reference::multiply(&a, &b);
        assert_eq!(c, expect.data);
    }

    #[test]
    fn b_block_reused_across_a_blocks() {
        let nb = 2;
        let mut g = matmul_graph(nb);
        let mut out = Vec::new();
        let send = |g: &mut Graph, word: i32, ctrl: bool, out: &mut Vec<i32>| {
            g.set_input("fsl0_data", fix32(word)).unwrap();
            g.set_input("fsl0_valid", bit(true)).unwrap();
            g.set_input("fsl0_ctrl", bit(ctrl)).unwrap();
            g.step();
            if !g.output("fsl0_out_valid").unwrap().is_zero() {
                out.push(raw32(&g.output("fsl0_out_data").unwrap()));
            }
        };
        // Identity B.
        for bv in [1, 0, 0, 1] {
            send(&mut g, bv, true, &mut out);
        }
        // Two A blocks, back to back: product with identity = A itself.
        for av in [1, 3, 2, 4, 5, 7, 6, 8] {
            send(&mut g, av, false, &mut out);
        }
        g.set_input("fsl0_valid", bit(false)).unwrap();
        while out.len() < 8 {
            g.step();
            if !g.output("fsl0_out_valid").unwrap().is_zero() {
                out.push(raw32(&g.output("fsl0_out_data").unwrap()));
            }
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8], "row-major A blocks back");
    }

    #[test]
    fn multiplier_counts_match_table_one() {
        // Table I: 2×2 uses 5 total (3 CPU + 2), 4×4 uses 7 (3 CPU + 4).
        assert_eq!(unit_resources(2).mult18s, 2);
        assert_eq!(unit_resources(4).mult18s, 4);
    }

    #[test]
    fn unit_is_pipelined_across_blocks() {
        // While block 1's results stream out, block 2 streams in: driven
        // by `b_block_reused_across_a_blocks` sending 8 A words back to
        // back and receiving all 8 results.
        let r2 = unit_resources(2);
        let r4 = unit_resources(4);
        assert!(r4.slices > r2.slices);
    }
}
