//! Driving the co-simulation through the `mb-gdb`-style debug protocol —
//! the control path of the paper's Fig. 2, where the MicroBlaze Simulink
//! block steers software execution through a bidirectional command pipe.
//! The session drives the whole co-simulation, so a program that talks to
//! a hardware peripheral over FSL runs to `halt` through `cont` too, and
//! a `step` into a transfer nothing can complete stops instead of
//! spinning forever.
//!
//! Run with: `cargo run --example debugger`

use softsim::apps::cordic::hardware::{cordic_peripheral, CordicPe, Deserializer, Serializer};
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{hw_program, CordicBatch};
use softsim::blocks::{FixFmt, Graph};
use softsim::cosim::debug::{Command, DebugSession, Reply};
use softsim::cosim::{CoSim, CoSimStop, FslFromHw, FslToHw, Peripheral};
use softsim::isa::asm::assemble;
use softsim::isa::disasm;
use softsim::trace::FifoDir;

fn main() {
    let image = assemble(
        "main:  addik r3, r0, 1     # fib(1)
                addik r4, r0, 1     # fib(2)
                addik r5, r0, 10    # count
        loop:   addk  r6, r3, r4
                addk  r3, r4, r0
                addk  r4, r6, r0
                addik r5, r5, -1
                bnei  r5, loop
                swi   r4, r0, 0x200
                halt
        ",
    )
    .unwrap();

    println!("disassembly (mb-objdump analog):\n{}", disasm::listing(&image));

    let mut sim = CoSim::software_only(&image);
    let mut dbg = DebugSession::new(&mut sim);

    // The textual protocol — exactly what would flow over the pipe.
    for line in [
        "break 0x0c", // the loop head
        "cont",       // run to the breakpoint
        "rr r3",
        "rr r4",
        "cont", // one more trip around the loop
        "rr r4",
        "delete 0x0c",
        "cont", // run to completion
        "rm 0x200",
        "stats",
    ] {
        let reply = dbg.handle_line(line);
        println!("> {line:<14} => {reply}");
    }

    let fib12 = sim.cpu().mem().read_u32(0x200).unwrap();
    println!("fib(12) computed on MB32: {fib12}");
    assert_eq!(fib12, 144);

    // The same protocol over a hardware co-simulation: CORDIC division
    // on a P = 4 pipeline, stopped at its first receive loop.
    let p = 4;
    let pairs: Vec<(i32, i32)> =
        [(1.0, 0.5), (1.5, 1.2)].iter().map(|&(a, b)| (to_fix(a), to_fix(b))).collect();
    let image = assemble(&hw_program(&CordicBatch::new(&pairs), 24, p)).unwrap();
    let recv = image.symbol("recv0").unwrap();
    let mut plain = CoSim::with_peripheral(&image, cordic_peripheral(p));
    assert_eq!(plain.run(u64::MAX / 2), CoSimStop::Halted);

    let mut sim = CoSim::with_peripheral(&image, cordic_peripheral(p));
    let mut dbg = DebugSession::new(&mut sim);
    println!("\nCORDIC P = {p} over FSL:");
    for line in [
        format!("break {recv:#x}"), // the first receive loop
        "cont".into(),
        "step".into(), // the blocking `get` waits on the hardware
        "rr r6".into(),
        format!("delete {recv:#x}"),
        "cont".into(),
        "stats".into(),
    ] {
        let reply = dbg.handle_line(&line);
        println!("> {line:<14} => {reply}");
    }
    assert_eq!(sim.cpu_stats(), plain.cpu_stats());
    assert_eq!(sim.hw_stats(), plain.hw_stats());
    println!("session and plain run agree: {} cycles", sim.cpu_stats().cycles);

    // A stuck session: the same driver with no peripheral attached. At
    // its receive loop the blocking `get` waits on a FIFO nothing will
    // ever fill, so `step` stops on the frozen stall and names the
    // transfer — the same stop `cont` reaches when its budget runs out.
    let mut sim = CoSim::software_only(&image);
    let mut dbg = DebugSession::new(&mut sim);
    println!("\nthe same driver, no peripheral attached:");
    for line in [format!("break {recv:#x}"), "cont".into(), format!("delete {recv:#x}")] {
        let reply = dbg.handle_line(&line);
        println!("> {line:<14} => {reply}");
    }
    let stuck = dbg.handle(Command::Step);
    let Reply::Stopped(stop @ CoSimStop::CycleLimit { blocked: Some(block) }) = &stuck else {
        panic!("a step into a frozen stall must stop blocked, got {stuck:?}");
    };
    println!("> {:<14} => {} ({stop})", "step", stuck.to_line());
    assert_eq!((block.pc, block.channel, block.dir), (recv, 0, FifoDir::FromHw));
    assert_eq!(dbg.handle(Command::Continue { max_cycles: 1_000 }), stuck);
    assert_eq!(dbg.handle(Command::ReadPc), Reply::Value(recv));

    // A probed peripheral does not keep `step` from that stop: a scope
    // probe records a sample every stepped cycle, which bars the stall
    // jump, but the design itself cannot change. Here the program waits
    // on channel 1, which the CORDIC pipeline never writes.
    let image = assemble("get r3, rfsl1\nhalt\n").unwrap();
    let mut sim = CoSim::with_peripheral(&image, probed_cordic());
    let mut dbg = DebugSession::new(&mut sim);
    println!("\na probed CORDIC pipeline, a `get` from the channel it never writes:");
    let stuck = dbg.handle(Command::Step);
    let Reply::Stopped(stop @ CoSimStop::CycleLimit { blocked: Some(block) }) = &stuck else {
        panic!("a step into a frozen stall must stop blocked, got {stuck:?}");
    };
    println!("> {:<14} => {} ({stop})", "step", stuck.to_line());
    assert_eq!((block.pc, block.channel, block.dir), (0, 1, FifoDir::FromHw));
    let samples = sim.peripherals()[0].graph().probe_samples("pe0_y").unwrap().len();
    println!("the probe holds one sample per cycle stepped: {samples}");
    assert_eq!(samples as u64, sim.cpu_stats().cycles);
}

/// A CORDIC pipeline (P = 2) with a scope probe on each PE's Y output.
fn probed_cordic() -> Peripheral {
    let mut g = Graph::new();
    let gateways =
        [("fsl0_data", FixFmt::INT32), ("fsl0_valid", FixFmt::BOOL), ("fsl0_ctrl", FixFmt::BOOL)];
    let deser = g.add("deser", Deserializer::new());
    for (port, (name, fmt)) in gateways.into_iter().enumerate() {
        let x = g.gateway_in(name, fmt);
        g.wire(x, deser, port).unwrap();
    }
    let mut prev = deser;
    for i in 0..2 {
        let pe = g.add(format!("pe{i}"), CordicPe::new());
        for port in 0..6 {
            g.connect(prev, port, pe, port).unwrap();
        }
        g.add_probe(format!("pe{i}_y"), pe, 1);
        prev = pe;
    }
    let ser = g.add("ser", Serializer::new());
    for (port, from) in [1, 2, 3].into_iter().enumerate() {
        g.connect(prev, from, ser, port).unwrap();
    }
    g.gateway_out("fsl0_out_data", ser, 0);
    g.gateway_out("fsl0_out_valid", ser, 1);
    g.compile().unwrap();
    Peripheral::new(g, vec![FslToHw::standard(0)], vec![FslFromHw::standard(0)])
}
