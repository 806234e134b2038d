//! OPB attachment of customized hardware peripherals.
//!
//! The paper supports both dedicated Fast Simplex Links and the shared
//! IBM On-chip Peripheral Bus for processor ↔ peripheral communication
//! (§III-A). [`OpbBlockAdapter`] exposes the same block-graph peripheral
//! behind a memory-mapped register interface so the two attachments can
//! be compared on identical hardware — the FSL-vs-OPB ablation.
//!
//! # Register map (word offsets from the peripheral base)
//!
//! | offset | access | meaning |
//! |---|---|---|
//! | `0x0` | read | STATUS: bit 0 = result available, bit 1 = input full |
//! | `0x4` | read | RDATA: pops the next result word |
//! | `0x8` | write | WDATA: enqueues a data word |
//! | `0xC` | write | WCTRL: enqueues a control word |

use crate::binding::GatewayInputs;
use softsim_blocks::graph::OutputHandle;
use softsim_blocks::Graph;
use softsim_bus::OpbPeripheral;
use softsim_trace::{SharedSink, TraceEvent};
use std::collections::VecDeque;

/// STATUS register offset.
pub const REG_STATUS: u32 = 0x0;
/// RDATA register offset.
pub const REG_RDATA: u32 = 0x4;
/// WDATA register offset.
pub const REG_WDATA: u32 = 0x8;
/// WCTRL register offset.
pub const REG_WCTRL: u32 = 0xC;

/// Input-queue capacity of the adapter (same as an FSL FIFO).
pub const INPUT_DEPTH: usize = 16;

/// A block-graph peripheral behind an OPB register interface.
///
/// The wrapped graph uses the standard channel-0 gateway names
/// (`fsl0_data`/`fsl0_valid`/`fsl0_ctrl` in, `fsl0_out_data`/
/// `fsl0_out_valid` out) so the *same* peripheral can be attached either
/// way.
pub struct OpbBlockAdapter {
    graph: Graph,
    gateways: GatewayInputs,
    h_out_data: OutputHandle,
    h_out_valid: OutputHandle,
    /// Words awaiting delivery into the graph: `(data, control)`.
    input: VecDeque<(u32, bool)>,
    /// Result words awaiting an RDATA read.
    output: VecDeque<u32>,
    /// Bus clocks elapsed — the adapter's cycle domain (the OPB is
    /// clocked by the processor, so this tracks CPU cycles one-to-one).
    cycle: u64,
    /// Optional observability sink for word transfers across the bus.
    sink: Option<SharedSink>,
}

impl OpbBlockAdapter {
    /// Wraps a compiled graph with standard channel-0 gateways.
    ///
    /// # Panics
    /// Panics if the graph lacks the standard gateways.
    pub fn new(graph: Graph) -> OpbBlockAdapter {
        let control = graph.input_handle("fsl0_ctrl").is_ok().then_some("fsl0_ctrl");
        let gateways = GatewayInputs::resolve(&graph, "fsl0_data", "fsl0_valid", control)
            .expect("fsl0_data and fsl0_valid gateways");
        let h_out_data = graph.output_handle("fsl0_out_data").expect("fsl0_out_data gateway");
        let h_out_valid = graph.output_handle("fsl0_out_valid").expect("fsl0_out_valid gateway");
        OpbBlockAdapter {
            graph,
            gateways,
            h_out_data,
            h_out_valid,
            input: VecDeque::new(),
            output: VecDeque::new(),
            cycle: 0,
            sink: None,
        }
    }

    /// Attaches an observability sink. Word transfers across the bus are
    /// reported as [`TraceEvent::GatewayWord`] with `peripheral = 0xff`
    /// (distinguishing the OPB attachment from FSL-attached peripherals)
    /// and the adapter's own clock count as the cycle.
    pub fn attach_trace(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    #[inline]
    fn emit(&self, to_hw: bool, data: u32) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().event(&TraceEvent::GatewayWord {
                cycle: self.cycle,
                peripheral: 0xff,
                to_hw,
                data,
            });
        }
    }
}

impl OpbPeripheral for OpbBlockAdapter {
    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            REG_STATUS => {
                let exists = !self.output.is_empty() as u32;
                let full = (self.input.len() >= INPUT_DEPTH) as u32;
                exists | (full << 1)
            }
            REG_RDATA => self.output.pop_front().unwrap_or(0),
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        match offset {
            REG_WDATA if self.input.len() < INPUT_DEPTH => {
                self.input.push_back((value, false));
            }
            REG_WCTRL if self.input.len() < INPUT_DEPTH => {
                self.input.push_back((value, true));
            }
            _ => {}
        }
    }

    fn tick(&mut self) {
        // Deliver at most one word per clock into the graph, exactly as
        // the FSL gateway binding does.
        let (data, valid, ctrl) = match self.input.pop_front() {
            Some((d, c)) => (d, true, c),
            None => (0, false, false),
        };
        if valid {
            self.emit(true, data);
        }
        self.gateways.store(&mut self.graph, data, valid, ctrl);
        self.graph.step();
        if !self.graph.output_fast(self.h_out_valid).is_zero() {
            let out = self.graph.output_fast(self.h_out_data).to_bits() as u32;
            self.emit(false, out);
            self.output.push_back(out);
        }
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_blocks::library::{AddSub, AddSubOp, Constant, Delay, Register};
    use softsim_blocks::FixFmt;

    fn adder_graph() -> Graph {
        let mut g = Graph::new();
        let data = g.gateway_in("fsl0_data", FixFmt::INT32);
        let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
        let hundred = g.add("hundred", Constant::int(100, FixFmt::INT32));
        let add = g.add("add", AddSub::new(AddSubOp::Add, FixFmt::INT32));
        let rdata = g.add("rdata", Register::zeroed(FixFmt::INT32));
        let rvalid = g.add("rvalid", Delay::new(FixFmt::BOOL, 1));
        g.connect(data, 0, add, 0).unwrap();
        g.connect(hundred, 0, add, 1).unwrap();
        g.connect(add, 0, rdata, 0).unwrap();
        g.connect(valid, 0, rdata, 1).unwrap();
        g.connect(valid, 0, rvalid, 0).unwrap();
        g.gateway_out("fsl0_out_data", rdata, 0);
        g.gateway_out("fsl0_out_valid", rvalid, 0);
        g.compile().unwrap();
        g
    }

    #[test]
    fn adapter_round_trip() {
        let mut a = OpbBlockAdapter::new(adder_graph());
        assert_eq!(a.read(REG_STATUS), 0);
        a.write(REG_WDATA, 23);
        // Word flows through the graph over two ticks (latch + present).
        a.tick();
        a.tick();
        assert_eq!(a.read(REG_STATUS) & 1, 1);
        assert_eq!(a.read(REG_RDATA), 123);
        assert_eq!(a.read(REG_STATUS), 0);
    }

    #[test]
    fn status_full_bit() {
        let mut a = OpbBlockAdapter::new(adder_graph());
        for i in 0..INPUT_DEPTH as u32 {
            a.write(REG_WDATA, i);
        }
        assert_eq!(a.read(REG_STATUS) & 2, 2, "input queue full");
        a.tick();
        assert_eq!(a.read(REG_STATUS) & 2, 0, "one word consumed");
    }
}
