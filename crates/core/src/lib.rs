//! # softsim-cosim — MATLAB/Simulink-style HW/SW co-simulation engine
//!
//! The primary contribution of the reproduced paper: a **high-level
//! cycle-accurate hardware/software co-simulation environment** for FPGA
//! soft processors. It composes
//!
//! * the cycle-accurate MB32 instruction-set simulator (`softsim-iss`),
//! * arithmetic-level block models of customized hardware peripherals
//!   (`softsim-blocks`), and
//! * cycle-accurate FSL bus models (`softsim-bus`)
//!
//! into one lock-step simulation ([`CoSim`]), avoiding register-transfer /
//! gate-level simulation entirely while preserving per-cycle functional
//! behavior. Blocking FSL reads/writes stall the simulated processor; the
//! peripheral consumes and produces words through named gateway bindings
//! ([`FslToHw`] / [`FslFromHw`]), mirroring the paper's MicroBlaze
//! Simulink block.
//!
//! ```
//! use softsim_cosim::{CoSim, CoSimStop};
//! use softsim_isa::asm::assemble;
//!
//! let image = assemble("
//!     addik r3, r0, 21
//!     addk  r3, r3, r3
//!     halt
//! ").unwrap();
//! let mut sim = CoSim::software_only(&image);
//! assert_eq!(sim.run(1_000), CoSimStop::Halted);
//! assert_eq!(sim.cpu().reg(softsim_isa::Reg::new(3)), 42);
//! ```

#![warn(missing_docs)]

mod binding;
mod cosim;
pub mod debug;
pub mod opb;

pub use binding::{FslFromHw, FslToHw};
pub use cosim::{
    CoSim, CoSimState, CoSimStop, DeadlockCause, HwStats, Peripheral, StateDelta, PAPER_CLOCK_HZ,
};
pub use opb::OpbBlockAdapter;
/// Depth of every FSL FIFO of a [`CoSim`] as built.
pub use softsim_bus::DEFAULT_DEPTH as FSL_DEPTH;

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_blocks::library::{AddSub, AddSubOp, Constant, Delay, Register};
    use softsim_blocks::{Fix, FixFmt, Graph};
    use softsim_isa::asm::assemble;
    use softsim_isa::reg::r;

    /// A trivial peripheral: adds 100 to every word sent on FSL0 and
    /// returns it on FSL0, one cycle later.
    fn adder_peripheral() -> Peripheral {
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
        let mut g = g;
        g.compile().unwrap();
        Peripheral::new(
            g,
            vec![FslToHw::standard(0).without_control()],
            vec![FslFromHw::standard(0)],
        )
    }

    #[test]
    fn software_only_runs() {
        let image = assemble("addik r3, r0, 7\nmuli r3, r3, 6\nhalt\n").unwrap();
        let mut sim = CoSim::software_only(&image);
        assert_eq!(sim.run(100), CoSimStop::Halted);
        assert_eq!(sim.cpu().reg(r(3)), 42);
    }

    #[test]
    fn round_trip_through_hardware_adder() {
        let image = assemble(
            "addik r3, r0, 23\n\
             put r3, rfsl0\n\
             get r4, rfsl0\n\
             halt\n",
        )
        .unwrap();
        let mut sim = CoSim::with_peripheral(&image, adder_peripheral());
        assert_eq!(sim.run(1_000), CoSimStop::Halted);
        assert_eq!(sim.cpu().reg(r(4)), 123, "hardware added 100");
        let hw = sim.hw_stats();
        assert_eq!(hw.words_to_hw, 1);
        assert_eq!(hw.words_from_hw, 1);
        assert_eq!(hw.output_overflows, 0);
    }

    #[test]
    fn blocking_get_overlaps_with_hardware_latency() {
        // Send 4 words, then read 4 results; the CPU stalls on `get`
        // while the peripheral pipeline catches up.
        let image = assemble(
            "addik r3, r0, 0\n\
             addik r5, r0, 4\n\
             send: put r3, rfsl0\n\
             addik r3, r3, 1\n\
             addik r5, r5, -1\n\
             bnei r5, send\n\
             addik r5, r0, 4\n\
             addik r6, r0, 0\n\
             recv: get r4, rfsl0\n\
             addk r6, r6, r4\n\
             addik r5, r5, -1\n\
             bnei r5, recv\n\
             halt\n",
        )
        .unwrap();
        let mut sim = CoSim::with_peripheral(&image, adder_peripheral());
        assert_eq!(sim.run(10_000), CoSimStop::Halted);
        // Results: (0..4).map(|x| x + 100).sum() = 406.
        assert_eq!(sim.cpu().reg(r(6)), 406);
        assert_eq!(sim.hw_stats().words_from_hw, 4);
    }

    #[test]
    fn time_us_uses_paper_clock() {
        let image = assemble("halt\n").unwrap();
        let mut sim = CoSim::software_only(&image);
        sim.run(10);
        // halt takes 1 cycle at 50 MHz = 0.02 µs.
        assert!((sim.time_us() - 0.02).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "missing gateway-in")]
    fn misnamed_binding_panics_at_attach() {
        let mut g = Graph::new();
        let _ = g.gateway_in("wrong_name", FixFmt::INT32);
        g.compile().unwrap();
        let _ = Peripheral::new(g, vec![FslToHw::standard(0)], vec![]);
    }

    #[test]
    fn fix_bits_cross_bus_preserve_sign() {
        // A negative 32-bit word sent over the bus must come back negative.
        let x = Fix::from_int(-5, FixFmt::INT32);
        let bits = x.to_bits() as u32;
        let back = Fix::from_bits(bits as u64, FixFmt::INT32);
        assert_eq!(back.raw(), -5);
    }
}
