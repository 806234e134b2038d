//! # softsim-bus — cycle-accurate arithmetic-level bus models
//!
//! The communication-interface component of the paper's co-simulation
//! environment (Fig. 1): Fast Simplex Link FIFO channels ([`fsl`]), the
//! Local Memory Bus with its fixed one-cycle latency ([`lmb`]), and an
//! On-chip Peripheral Bus model ([`opb`]).
//!
//! These models capture only the arithmetic aspects of the protocols —
//! word values, control bits, `full`/`exists` flags, and per-transfer cycle
//! costs — exactly the abstraction level the paper argues is sufficient for
//! cycle-accurate co-simulation.

#![warn(missing_docs)]

pub mod fsl;
pub mod lmb;
pub mod opb;

pub use fsl::{
    ecc_decode, ecc_encode, EccVerdict, FslBank, FslBankState, FslFifo, FslFifoState, FslStats,
    FslWord, CHANNELS, DEFAULT_DEPTH,
};
pub use lmb::{LmbMemory, MemError, MemPatch, LMB_LATENCY};
pub use opb::{OpbBus, OpbFault, OpbPeripheral, RegisterFile, OPB_READ_LATENCY, OPB_WRITE_LATENCY};

#[cfg(test)]
mod randomized {
    use crate::fsl::{FslFifo, FslWord};
    use softsim_testkit::cases;

    /// The FIFO never exceeds its depth, never loses or reorders words,
    /// and its flags always reflect occupancy — under any interleaving
    /// of pushes and pops.
    #[test]
    fn fifo_invariants() {
        cases(200, |seed, rng| {
            let depth = rng.range_usize(1, 32);
            let mut fifo = FslFifo::new(depth);
            let mut model: std::collections::VecDeque<u32> = Default::default();
            for _ in 0..rng.range_usize(0, 200) {
                if rng.flip() {
                    let v = rng.next_u32();
                    let accepted = fifo.try_push(FslWord::data(v));
                    assert_eq!(accepted, model.len() < depth, "seed {seed}");
                    if accepted {
                        model.push_back(v);
                    }
                } else {
                    let got = fifo.try_pop().map(|w| w.data);
                    assert_eq!(got, model.pop_front(), "seed {seed}");
                }
                assert!(fifo.len() <= depth, "seed {seed}");
                assert_eq!(fifo.len(), model.len(), "seed {seed}");
                assert_eq!(fifo.exists(), !model.is_empty(), "seed {seed}");
                assert_eq!(fifo.full(), model.len() == depth, "seed {seed}");
                assert_eq!(fifo.peek().map(|w| w.data), model.front().copied(), "seed {seed}");
            }
        });
    }

    /// Byte-level writes and word-level reads agree on big-endian layout.
    #[test]
    fn lmb_endianness() {
        cases(100, |seed, rng| {
            let mut mem = crate::lmb::LmbMemory::new(64);
            let addr = rng.range_u32(0, 4) * 4;
            let value = rng.next_u32();
            mem.write_u32(addr, value).unwrap();
            for (i, expect) in value.to_be_bytes().iter().enumerate() {
                assert_eq!(mem.read_u8(addr + i as u32).unwrap(), *expect, "seed {seed}");
            }
            assert_eq!(mem.read_u16(addr).unwrap(), (value >> 16) as u16, "seed {seed}");
            assert_eq!(mem.read_u16(addr + 2).unwrap(), value as u16, "seed {seed}");
        });
    }
}
