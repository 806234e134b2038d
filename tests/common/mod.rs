//! Helpers shared by the integration tests (`mod common;`).

use softsim::isa::inst::{
    ArithFlags, BarrelOp, Cond, FslChan, FslMode, Inst, LogicOp, MemSize, ShiftOp,
};
use softsim::isa::{encode, Image, Reg};
use softsim_testkit::Rng;

/// Generates a random program that is guaranteed to halt: code over the
/// full ALU/memory/FSL-nonblocking instruction space with seeded forward
/// branches, unconditional and conditional, with and without a delay
/// slot. A delay slot never holds a branch or an `imm` prefix, and every
/// target is an instruction of the program (at most the final `halt`),
/// never the second word of an `imm` pair.
pub fn random_program(rng: &mut Rng, len: usize) -> Image {
    // One item per draw: an instruction, an `imm` pair, or a branch with
    // its delay slot. Branch offsets are patched once the layout is known.
    let mut items: Vec<Vec<Inst>> = Vec::with_capacity(len + 1);
    let mut branches: Vec<(usize, usize)> = Vec::new();
    for i in 0..len {
        if rng.below(8) == 0 {
            let delay = rng.flip();
            let mut item = vec![if rng.flip() {
                Inst::BrI { imm: 0, link: None, absolute: false, delay }
            } else {
                let cond = *rng.pick(&Cond::ALL);
                Inst::BccI { cond, ra: reg(rng), imm: 0, delay }
            }];
            if delay {
                item.push(loop {
                    match straight(rng) {
                        Inst::Imm { .. } => continue,
                        inst => break inst,
                    }
                });
            }
            branches.push((i, (i + 1 + rng.range_usize(0, 4)).min(len)));
            items.push(item);
            continue;
        }
        let inst = straight(rng);
        // An imm prefix must be followed by an immediate-carrying
        // instruction; simplest: always follow it with an addi.
        items.push(match inst {
            Inst::Imm { .. } => vec![
                inst,
                Inst::AddI {
                    rd: dst(rng),
                    ra: reg(rng),
                    imm: rng.next_u32() as i16,
                    flags: ArithFlags::KEEP,
                },
            ],
            _ => vec![inst],
        });
    }
    items.push(vec![Inst::Halt]);
    // r1 = memory base for loads/stores (0x8000, well inside 64 KiB).
    let prologue = [
        Inst::Imm { imm: 0 },
        Inst::AddI { rd: Reg::new(1), ra: Reg::R0, imm: 0x7F00, flags: ArithFlags::KEEP },
    ];
    let mut addr = vec![4 * prologue.len() as u32];
    for item in &items {
        addr.push(addr[addr.len() - 1] + 4 * item.len() as u32);
    }
    for (from, to) in branches {
        let offset = (addr[to] - addr[from]) as i16;
        match &mut items[from][0] {
            Inst::BrI { imm, .. } | Inst::BccI { imm, .. } => *imm = offset,
            _ => unreachable!("branch items start with a branch"),
        }
    }
    let mut image = Image::new(0);
    for (k, inst) in prologue.iter().chain(items.iter().flatten()).enumerate() {
        image.write_u32(4 * k as u32, encode(inst));
    }
    image
}

fn reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.range_u32(0, 32) as u8)
}

/// A destination register other than the base register r1.
fn dst(rng: &mut Rng) -> Reg {
    loop {
        let r = rng.range_u32(0, 32) as u8;
        if r != 1 {
            break Reg::new(r);
        }
    }
}

/// One non-branch instruction of [`random_program`].
fn straight(rng: &mut Rng) -> Inst {
    match rng.range_u32(0, 15) {
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
            Inst::LoadI { size, rd: dst(rng), ra: Reg::new(1), imm: rng.range_i16(0, 0x40) * align }
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
    }
}
