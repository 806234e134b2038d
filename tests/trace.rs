//! Integration tests for the observability layer: exact reconciliation
//! of the trace against the ISS's own counters, validity of the Chrome
//! trace-event export, the bounded recorder under load, and the unified
//! halt predicate across the ISS and the co-simulator.

use softsim::bus::{FslBank, FslWord};
use softsim::cosim::{CoSim, CoSimStop};
use softsim::isa::asm::assemble;
use softsim::iss::{Cpu, Event, StopReason};
use softsim::trace::{chrome, json, shared, GuestProfile, Recorder};
use std::cell::RefCell;
use std::rc::Rc;

/// A program whose FSL traffic genuinely stalls the processor in both
/// directions: 20 blocking puts against a 16-deep FIFO nobody drains
/// promptly, then a blocking get from a channel nobody has filled yet.
fn stall_program() -> String {
    let mut src = String::from("\taddik r3, r0, 7\n");
    for _ in 0..20 {
        src.push_str("\tput r3, rfsl0\n");
    }
    src.push_str("\tget r4, rfsl1\n\thalt\n");
    src
}

/// Drives [`stall_program`] by hand: the "hardware" side pops one word
/// every 16 cycles and delivers the awaited result word late, so the CPU
/// accumulates both write stalls (full FIFO) and read stalls (empty
/// FIFO). Returns the finished CPU and bank.
fn run_stalling(cpu: &mut Cpu, fsl: &mut FslBank) {
    let mut cycle = 0u64;
    loop {
        let ev = cpu.tick(fsl);
        if ev.is_halt() {
            break;
        }
        if let Event::Fault(f) = ev {
            panic!("unexpected fault: {f:?}");
        }
        cycle += 1;
        assert!(cycle < 10_000, "stall workload ran away");
        if cycle.is_multiple_of(16) {
            let _ = fsl.to_hw(0).try_pop();
        }
        if cycle == 400 {
            assert!(fsl.from_hw(1).try_push(FslWord { data: 99, control: false }));
        }
    }
}

#[test]
fn profile_reconciles_exactly_with_cpu_stats() {
    let img = assemble(&stall_program()).unwrap();
    let mut cpu = Cpu::with_default_memory(&img);
    let mut fsl = FslBank::default();
    let profile = Rc::new(RefCell::new(GuestProfile::new()));
    cpu.attach_trace(shared(profile.clone()));
    fsl.attach_trace(shared(profile.clone()));
    run_stalling(&mut cpu, &mut fsl);

    let stats = cpu.stats();
    let p = profile.borrow();
    let b = p.breakdown();
    // The workload must actually exercise both stall causes, or the
    // reconciliation below proves nothing.
    assert!(stats.fsl_write_stalls > 0, "workload produced no write stalls");
    assert!(stats.fsl_read_stalls > 0, "workload produced no read stalls");
    // Exact accounting: every simulated cycle is attributed to exactly
    // one bucket, and the buckets match the ISS's own counters.
    assert_eq!(b.total, stats.cycles, "trace total != ISS cycles");
    assert_eq!(b.fsl_read_stall, stats.fsl_read_stalls);
    assert_eq!(b.fsl_write_stall, stats.fsl_write_stalls);
    assert_eq!(b.compute + b.fsl_read_stall + b.fsl_write_stall, b.total);
    assert_eq!(p.total_retires(), stats.instructions);
    let mix_retires: u64 = p.mix().iter().map(|&(_, retires, _)| retires).sum();
    assert_eq!(mix_retires, stats.instructions, "class mix covers every retire");
}

/// Builds the CORDIC `P = 4` co-simulation with a recorder of the given
/// capacity attached, runs it to completion and returns the recorder.
fn record_cordic_p4(capacity: usize) -> Rc<RefCell<Recorder>> {
    use softsim::apps::cordic::hardware::cordic_peripheral;
    use softsim::apps::cordic::reference::to_fix;
    use softsim::apps::cordic::software::{hw_program, CordicBatch};
    let pairs: Vec<(i32, i32)> = [(1.0, 0.5), (1.5, 1.2), (2.0, -1.0), (1.25, 0.8)]
        .iter()
        .map(|&(a, b)| (to_fix(a), to_fix(b)))
        .collect();
    let batch = CordicBatch::new(&pairs);
    let img = assemble(&hw_program(&batch, 24, 4)).unwrap();
    let mut sim = CoSim::with_peripheral(&img, cordic_peripheral(4));
    let recorder = Rc::new(RefCell::new(Recorder::new(capacity)));
    sim.attach_trace(shared(recorder.clone()));
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    recorder
}

#[test]
fn chrome_export_of_cordic_run_is_valid_trace_event_json() {
    let recorder = record_cordic_p4(1 << 16);
    let events = recorder.borrow().events();
    assert_eq!(recorder.borrow().dropped(), 0, "capacity must hold the whole run");
    assert!(!events.is_empty());

    let text = chrome::to_json(&events);
    let doc = json::parse(&text).expect("export must be valid JSON");
    let trace_events =
        doc.get("traceEvents").and_then(|v| v.as_array()).expect("top-level traceEvents array");
    assert_eq!(trace_events.len(), events.len());

    let mut last_ts = f64::NEG_INFINITY;
    for e in trace_events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph field");
        assert!(matches!(ph, "X" | "B" | "E" | "C" | "i"), "unexpected phase {ph:?}");
        assert!(e.get("name").and_then(|v| v.as_str()).is_some(), "name field");
        assert!(e.get("pid").and_then(|v| v.as_f64()).is_some(), "pid field");
        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts field");
        assert!(ts >= last_ts, "timestamps must be non-decreasing");
        last_ts = ts;
        if ph == "X" {
            assert!(e.get("dur").and_then(|v| v.as_f64()).is_some(), "X needs dur");
        }
    }
}

#[test]
fn recorder_stays_bounded_under_load() {
    let recorder = record_cordic_p4(64);
    let r = recorder.borrow();
    assert_eq!(r.len(), 64, "ring must be full");
    assert!(r.dropped() > 0, "run must overflow a 64-event ring");
    assert_eq!(r.events().len(), 64);
}

#[test]
fn iss_and_cosim_agree_on_halt_cycle() {
    // Satellite regression: both run loops share one halt predicate, so
    // a bare ISS run and a software-only co-simulation of the same image
    // must stop at exactly the same cycle.
    let src = "\taddik r3, r0, 5\n\
               loop:\n\
               \taddik r3, r3, -1\n\
               \tbneid r3, loop\n\
               \tnop\n\
               \thalt\n";
    let img = assemble(src).unwrap();

    let mut cpu = Cpu::with_default_memory(&img);
    let mut fsl = FslBank::default();
    assert_eq!(cpu.run(&mut fsl, 1_000_000), StopReason::Halted);

    let mut sim = CoSim::software_only(&img);
    assert_eq!(sim.run(1_000_000), CoSimStop::Halted);

    assert_eq!(cpu.stats().cycles, sim.cpu_stats().cycles);
    assert_eq!(cpu.stats().instructions, sim.cpu_stats().instructions);
}
