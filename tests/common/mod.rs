//! Helpers shared by the integration tests (`mod common;`).

use softsim::isa::inst::{ArithFlags, BarrelOp, FslChan, FslMode, Inst, LogicOp, MemSize, ShiftOp};
use softsim::isa::{encode, Image, Reg};
use softsim_testkit::Rng;

/// Generates a random straight-line program (no branches, guaranteed to
/// halt) over the full ALU/memory/FSL-nonblocking instruction space.
pub fn random_program(rng: &mut Rng, len: usize) -> Image {
    let mut image = Image::new(0);
    let mut addr = 0u32;
    let mut emit = |image: &mut Image, inst: Inst| {
        image.write_u32(addr, encode(&inst));
        addr += 4;
    };
    // r1 = memory base for loads/stores (0x8000, well inside 64 KiB).
    emit(&mut image, Inst::Imm { imm: 0 });
    emit(
        &mut image,
        Inst::AddI { rd: Reg::new(1), ra: Reg::R0, imm: 0x7F00, flags: ArithFlags::KEEP },
    );
    let reg = |rng: &mut Rng| Reg::new(rng.range_u32(0, 32) as u8);
    // Avoid clobbering the base register r1.
    let dst = |rng: &mut Rng| loop {
        let r = rng.range_u32(0, 32) as u8;
        if r != 1 {
            break Reg::new(r);
        }
    };
    for _ in 0..len {
        let inst = match rng.range_u32(0, 15) {
            0 => Inst::Add {
                rd: dst(rng),
                ra: reg(rng),
                rb: reg(rng),
                flags: ArithFlags::from_bits(rng.range_u32(0, 4)),
            },
            1 => Inst::Rsub {
                rd: dst(rng),
                ra: reg(rng),
                rb: reg(rng),
                flags: ArithFlags::from_bits(rng.range_u32(0, 4)),
            },
            2 => Inst::AddI {
                rd: dst(rng),
                ra: reg(rng),
                imm: rng.next_u32() as i16,
                flags: ArithFlags::from_bits(rng.range_u32(0, 4)),
            },
            3 => Inst::Cmp { rd: dst(rng), ra: reg(rng), rb: reg(rng), unsigned: rng.flip() },
            4 => Inst::Mul { rd: dst(rng), ra: reg(rng), rb: reg(rng) },
            5 => Inst::Logic {
                op: *rng.pick(&[LogicOp::Or, LogicOp::And, LogicOp::Xor, LogicOp::Andn]),
                rd: dst(rng),
                ra: reg(rng),
                rb: reg(rng),
            },
            6 => Inst::Shift {
                op: *rng.pick(&[ShiftOp::Sra, ShiftOp::Src, ShiftOp::Srl]),
                rd: dst(rng),
                ra: reg(rng),
            },
            7 => Inst::BarrelI {
                op: *rng.pick(&[BarrelOp::Bsll, BarrelOp::Bsrl, BarrelOp::Bsra]),
                rd: dst(rng),
                ra: reg(rng),
                amount: rng.range_u32(0, 32) as u8,
            },
            8 => Inst::Sext { rd: dst(rng), ra: reg(rng), half: rng.flip() },
            9 => {
                let size = *rng.pick(&[MemSize::Byte, MemSize::Half, MemSize::Word]);
                let align = size.bytes() as i16;
                Inst::LoadI {
                    size,
                    rd: dst(rng),
                    ra: Reg::new(1),
                    imm: rng.range_i16(0, 0x40) * align,
                }
            }
            10 => {
                let size = *rng.pick(&[MemSize::Byte, MemSize::Half, MemSize::Word]);
                let align = size.bytes() as i16;
                Inst::StoreI {
                    size,
                    rd: reg(rng),
                    ra: Reg::new(1),
                    imm: rng.range_i16(0, 0x40) * align,
                }
            }
            11 => Inst::Imm { imm: rng.next_u32() as u16 },
            14 => Inst::Div { rd: dst(rng), ra: reg(rng), rb: reg(rng), unsigned: rng.flip() },
            12 => Inst::Get {
                rd: dst(rng),
                chan: FslChan::new(rng.range_u32(0, 8) as u8),
                mode: FslMode::NONBLOCKING_DATA,
            },
            _ => Inst::Put {
                ra: reg(rng),
                chan: FslChan::new(rng.range_u32(0, 8) as u8),
                mode: FslMode::NONBLOCKING_DATA,
            },
        };
        emit(&mut image, inst);
        // An imm prefix must be followed by an immediate-carrying
        // instruction; simplest: always follow it with an addi.
        if matches!(inst, Inst::Imm { .. }) {
            emit(
                &mut image,
                Inst::AddI {
                    rd: dst(rng),
                    ra: reg(rng),
                    imm: rng.next_u32() as i16,
                    flags: ArithFlags::KEEP,
                },
            );
        }
    }
    emit(&mut image, Inst::Halt);
    image
}
