//! Debugger interface — the `mb-gdb` analog.
//!
//! In the paper, the MicroBlaze Simulink block drives software execution
//! through `mb-gdb`, which runs "within a bidirectional software pipe" and
//! "accepts commands ... and interactively runs the software programs. It
//! also changes the status of the registers of the MicroBlaze processor
//! based on the results from the customized hardware designs" (§III-A).
//!
//! [`DebugSession`] reproduces that control interface: a command/reply
//! protocol over the co-simulation, with both a typed API
//! ([`Command`]/[`Reply`]) and a textual encoding ([`parse_command`],
//! [`Reply::to_line`]) mirroring the pipe. The session drives a whole
//! [`CoSim`], so the hardware peripherals tick with every processor
//! cycle it runs: an FSL program reaches `halt` through `cont` exactly
//! as through [`CoSim::run`].

use crate::cosim::{CoSim, CoSimStop};
use softsim_isa::{Inst, Reg};
use softsim_iss::{CpuStats, Event};

/// A debugger command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Read a general-purpose register.
    ReadReg(Reg),
    /// Write a general-purpose register (how the paper's Simulink block
    /// feeds hardware results back into the processor).
    WriteReg(Reg, u32),
    /// Read the program counter.
    ReadPc,
    /// Set the program counter.
    SetPc(u32),
    /// Read a word of local memory.
    ReadWord(u32),
    /// Write a word of local memory.
    WriteWord(u32, u32),
    /// Execute one instruction (however many cycles it takes, the
    /// hardware side ticking along).
    Step,
    /// Run until halt, fault, breakpoint, deadlock (with a watchdog
    /// armed) or the cycle budget expires.
    Continue {
        /// Maximum number of cycles to simulate.
        max_cycles: u64,
    },
    /// Set a breakpoint.
    Break(u32),
    /// Delete a breakpoint.
    Delete(u32),
    /// Read execution statistics.
    Stats,
}

/// A debugger reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A register or memory value.
    Value(u32),
    /// Execution stopped. A completed `step` reports
    /// [`CoSimStop::CycleLimit`].
    Stopped(CoSimStop),
    /// Statistics snapshot.
    Stats(CpuStats),
    /// Command acknowledged.
    Ok,
    /// Command failed.
    Error(String),
}

impl Reply {
    /// Serializes the reply as one line of the textual protocol.
    pub fn to_line(&self) -> String {
        match self {
            Reply::Value(v) => format!("value {v:#010x}"),
            Reply::Stopped(CoSimStop::Halted) => "stopped halted".into(),
            Reply::Stopped(CoSimStop::CycleLimit { .. }) => "stopped cycle-limit".into(),
            Reply::Stopped(CoSimStop::Breakpoint { pc }) => {
                format!("stopped breakpoint {pc:#010x}")
            }
            Reply::Stopped(CoSimStop::Fault(f)) => format!("stopped fault: {f}"),
            Reply::Stopped(stop @ CoSimStop::Deadlock { .. }) => format!("stopped {stop}"),
            Reply::Stats(s) => format!(
                "stats cycles={} instructions={} fsl-stalls={}",
                s.cycles,
                s.instructions,
                s.fsl_stalls()
            ),
            Reply::Ok => "ok".into(),
            Reply::Error(e) => format!("error {e}"),
        }
    }
}

/// Parses one line of the textual command protocol.
///
/// Grammar (whitespace-separated):
/// `rr REG` · `wr REG VALUE` · `rpc` · `wpc ADDR` · `rm ADDR` ·
/// `wm ADDR VALUE` · `step` · `cont CYCLES` · `break ADDR` ·
/// `delete ADDR` · `stats`
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut parts = line.split_whitespace();
    let head = parts.next().ok_or("empty command")?;
    let mut next_reg = || -> Result<Reg, String> {
        let tok = parts.next().ok_or("missing register")?;
        Reg::parse(tok).ok_or_else(|| format!("bad register `{tok}`"))
    };
    let cmd = match head {
        "rr" => Command::ReadReg(next_reg()?),
        "wr" => {
            let r = next_reg()?;
            Command::WriteReg(r, parse_u32(parts.next().ok_or("missing value")?)?)
        }
        "rpc" => Command::ReadPc,
        "wpc" => Command::SetPc(parse_u32(parts.next().ok_or("missing address")?)?),
        "rm" => Command::ReadWord(parse_u32(parts.next().ok_or("missing address")?)?),
        "wm" => {
            let a = parse_u32(parts.next().ok_or("missing address")?)?;
            Command::WriteWord(a, parse_u32(parts.next().ok_or("missing value")?)?)
        }
        "step" => Command::Step,
        "cont" => Command::Continue {
            max_cycles: parts
                .next()
                .map(|t| t.parse().map_err(|_| "bad cycle count".to_string()))
                .transpose()?
                .unwrap_or(u64::MAX / 2),
        },
        "break" => Command::Break(parse_u32(parts.next().ok_or("missing address")?)?),
        "delete" => Command::Delete(parse_u32(parts.next().ok_or("missing address")?)?),
        "stats" => Command::Stats,
        other => return Err(format!("unknown command `{other}`")),
    };
    if parts.next().is_some() {
        return Err("trailing operands".into());
    }
    Ok(cmd)
}

fn parse_u32(tok: &str) -> Result<u32, String> {
    let v = if let Some(hex) = tok.strip_prefix("0x") {
        u32::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    v.map_err(|_| format!("bad number `{tok}`"))
}

/// A debugging session over a co-simulation.
pub struct DebugSession<'a> {
    sim: &'a mut CoSim,
}

impl<'a> DebugSession<'a> {
    /// Attaches to a co-simulation. A watchdog armed on it (see
    /// [`CoSim::set_watchdog`]) stops a stuck `step` or `cont` with a
    /// deadlock reply; without one, a stuck `step` stops at once and a
    /// stuck `cont` at the end of its budget, both with a cycle-limit
    /// reply.
    pub fn new(sim: &'a mut CoSim) -> DebugSession<'a> {
        DebugSession { sim }
    }

    /// Executes one command.
    pub fn handle(&mut self, cmd: Command) -> Reply {
        let cpu = self.sim.cpu_mut();
        match cmd {
            Command::ReadReg(r) => Reply::Value(cpu.reg(r)),
            Command::WriteReg(r, v) => {
                cpu.set_reg(r, v);
                Reply::Ok
            }
            Command::ReadPc => Reply::Value(cpu.pc()),
            Command::SetPc(a) => {
                cpu.set_pc(a);
                Reply::Ok
            }
            Command::ReadWord(a) => match cpu.mem().read_u32(a) {
                Ok(v) => Reply::Value(v),
                Err(e) => Reply::Error(e.to_string()),
            },
            Command::WriteWord(a, v) => match cpu.mem_mut().write_u32(a, v) {
                Ok(()) => Reply::Ok,
                Err(e) => Reply::Error(e.to_string()),
            },
            Command::Step => Reply::Stopped(self.step()),
            Command::Continue { max_cycles } => Reply::Stopped(self.sim.run(max_cycles)),
            Command::Break(a) => {
                cpu.add_breakpoint(a);
                Reply::Ok
            }
            Command::Delete(a) => {
                if cpu.remove_breakpoint(a) {
                    Reply::Ok
                } else {
                    Reply::Error(format!("no breakpoint at {a:#010x}"))
                }
            }
            Command::Stats => Reply::Stats(self.sim.cpu_stats()),
        }
    }

    /// Executes a textual command line.
    pub fn handle_line(&mut self, line: &str) -> String {
        match parse_command(line) {
            Ok(cmd) => self.handle(cmd).to_line(),
            Err(e) => Reply::Error(e).to_line(),
        }
    }

    /// Steps the co-simulation until the next instruction retires (or
    /// execution stops). A blocking FSL transfer that nothing can ever
    /// complete stops it too: an armed watchdog reports the deadlock as
    /// it would for `cont`; without one, `step` answers the
    /// [`CoSimStop::CycleLimit`] naming the transfer that `cont` gives
    /// when its budget runs out.
    fn step(&mut self) -> CoSimStop {
        loop {
            match self.sim.step() {
                Event::Retired { inst: Inst::Halt, .. } | Event::Halted => {
                    return CoSimStop::Halted
                }
                Event::Retired { .. } => return CoSimStop::CycleLimit { blocked: None },
                Event::Breakpoint { pc } => return CoSimStop::Breakpoint { pc },
                Event::Fault(f) => return CoSimStop::Fault(f),
                Event::Busy => {}
            }
            if let Some(stop) = self.sim.check_liveness() {
                return stop;
            }
            if !self.sim.watchdog_armed() {
                if let Some(block) = self.sim.frozen_stall() {
                    return CoSimStop::CycleLimit { blocked: Some(block) };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_isa::asm::assemble;
    use softsim_isa::reg::r;
    use softsim_iss::FslBlock;
    use softsim_trace::FifoDir;

    fn session_program() -> softsim_isa::Image {
        assemble(
            "      addik r3, r0, 10\n\
             loop: addik r3, r3, -1\n\
                   bneid r3, loop\n\
                   nop\n\
                   halt\n",
        )
        .unwrap()
    }

    #[test]
    fn read_write_registers_and_memory() {
        let img = session_program();
        let mut sim = CoSim::software_only(&img);
        let mut dbg = DebugSession::new(&mut sim);
        assert_eq!(dbg.handle(Command::WriteReg(r(5), 99)), Reply::Ok);
        assert_eq!(dbg.handle(Command::ReadReg(r(5))), Reply::Value(99));
        assert_eq!(dbg.handle(Command::WriteWord(0x100, 0xABCD)), Reply::Ok);
        assert_eq!(dbg.handle(Command::ReadWord(0x100)), Reply::Value(0xABCD));
        assert!(matches!(dbg.handle(Command::ReadWord(3)), Reply::Error(_)));
    }

    #[test]
    fn step_and_continue() {
        let img = session_program();
        let mut sim = CoSim::software_only(&img);
        let mut dbg = DebugSession::new(&mut sim);
        dbg.handle(Command::Step);
        assert_eq!(dbg.handle(Command::ReadReg(r(3))), Reply::Value(10));
        let reply = dbg.handle(Command::Continue { max_cycles: 10_000 });
        assert_eq!(reply, Reply::Stopped(CoSimStop::Halted));
        assert_eq!(dbg.handle(Command::ReadReg(r(3))), Reply::Value(0));
    }

    #[test]
    fn breakpoints_stop_continue() {
        let img = session_program();
        let mut sim = CoSim::software_only(&img);
        let mut dbg = DebugSession::new(&mut sim);
        dbg.handle(Command::Break(4));
        let reply = dbg.handle(Command::Continue { max_cycles: 10_000 });
        assert_eq!(reply, Reply::Stopped(CoSimStop::Breakpoint { pc: 4 }));
        // Resuming proceeds past the breakpoint and hits it again on the
        // next loop iteration.
        let reply = dbg.handle(Command::Continue { max_cycles: 10_000 });
        assert_eq!(reply, Reply::Stopped(CoSimStop::Breakpoint { pc: 4 }));
        dbg.handle(Command::Delete(4));
        let reply = dbg.handle(Command::Continue { max_cycles: 10_000 });
        assert_eq!(reply, Reply::Stopped(CoSimStop::Halted));
    }

    #[test]
    fn textual_protocol_round_trip() {
        let img = session_program();
        let mut sim = CoSim::software_only(&img);
        let mut dbg = DebugSession::new(&mut sim);
        assert_eq!(dbg.handle_line("wr r4 0x2A"), "ok");
        assert_eq!(dbg.handle_line("rr r4"), "value 0x0000002a");
        assert_eq!(dbg.handle_line("rpc"), "value 0x00000000");
        assert_eq!(dbg.handle_line("cont"), "stopped halted");
        assert!(dbg.handle_line("stats").starts_with("stats cycles="));
        assert!(dbg.handle_line("bogus").starts_with("error"));
        assert!(dbg.handle_line("rr r99").starts_with("error"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_command("").is_err());
        assert!(parse_command("wr r1").is_err());
        assert!(parse_command("rm xyz").is_err());
        assert!(parse_command("step extra").is_err());
    }

    #[test]
    fn parse_errors_name_the_offending_token() {
        // Every malformed line maps to a distinct, precise diagnostic.
        assert_eq!(parse_command("   "), Err("empty command".into()));
        assert_eq!(parse_command("rr"), Err("missing register".into()));
        assert_eq!(parse_command("rr r42"), Err("bad register `r42`".into()));
        assert_eq!(parse_command("rr pc"), Err("bad register `pc`".into()));
        assert_eq!(parse_command("wr r1"), Err("missing value".into()));
        assert_eq!(parse_command("wr r1 0xZZ"), Err("bad number `0xZZ`".into()));
        assert_eq!(parse_command("wpc"), Err("missing address".into()));
        assert_eq!(parse_command("rm"), Err("missing address".into()));
        assert_eq!(parse_command("rm xyz"), Err("bad number `xyz`".into()));
        assert_eq!(parse_command("wm 0x10"), Err("missing value".into()));
        assert_eq!(parse_command("break"), Err("missing address".into()));
        assert_eq!(parse_command("delete"), Err("missing address".into()));
        assert_eq!(parse_command("cont fast"), Err("bad cycle count".into()));
        assert_eq!(parse_command("quit"), Err("unknown command `quit`".into()));
        assert_eq!(parse_command("stats now"), Err("trailing operands".into()));
        assert_eq!(parse_command("rpc 0"), Err("trailing operands".into()));
    }

    #[test]
    fn parse_accepts_hex_and_decimal_operands() {
        assert_eq!(parse_command("wm 0x40 255"), Ok(Command::WriteWord(0x40, 255)));
        assert_eq!(parse_command("cont 500"), Ok(Command::Continue { max_cycles: 500 }));
        // `cont` with no operand runs with an effectively unbounded budget.
        assert!(
            matches!(parse_command("cont"), Ok(Command::Continue { max_cycles }) if max_cycles > 1 << 60)
        );
    }

    #[test]
    fn commands_after_halt_still_answer() {
        let img = session_program();
        let mut sim = CoSim::software_only(&img);
        let mut dbg = DebugSession::new(&mut sim);
        assert_eq!(
            dbg.handle(Command::Continue { max_cycles: 10_000 }),
            Reply::Stopped(CoSimStop::Halted)
        );
        // The session stays usable after halt: state reads answer, and
        // further execution requests report halted instead of wedging.
        assert_eq!(dbg.handle(Command::ReadReg(r(3))), Reply::Value(0));
        assert!(matches!(dbg.handle(Command::ReadPc), Reply::Value(_)));
        assert_eq!(dbg.handle(Command::Step), Reply::Stopped(CoSimStop::Halted));
        assert_eq!(
            dbg.handle(Command::Continue { max_cycles: 100 }),
            Reply::Stopped(CoSimStop::Halted)
        );
        assert!(matches!(dbg.handle(Command::Stats), Reply::Stats(_)));
    }

    #[test]
    fn a_stuck_read_stops_with_a_deadlock_line() {
        // No peripheral ever answers the blocking `get`: the armed
        // watchdog ends `step` and `cont` instead of letting them spin
        // through their budgets.
        let img = assemble("get r3, rfsl0\nhalt\n").unwrap();
        for line in ["step", "cont"] {
            let mut sim = CoSim::software_only(&img);
            sim.set_watchdog(100);
            let mut dbg = DebugSession::new(&mut sim);
            assert_eq!(
                dbg.handle_line(line),
                "stopped deadlock detected at cycle 100: processor stuck on a blocking get \
                 on FSL channel 0 at pc 0x00000000 with no peripheral progress",
                "{line}"
            );
        }
    }

    #[test]
    fn a_stuck_read_without_a_watchdog_answers_step() {
        // Nothing can ever complete the blocking `get`: `step` stops on
        // the frozen stall with the reply `cont` gives at its budget.
        let img = assemble("get r3, rfsl0\nhalt\n").unwrap();
        let mut sim = CoSim::software_only(&img);
        let mut dbg = DebugSession::new(&mut sim);
        let blocked = Some(FslBlock { channel: 0, dir: FifoDir::FromHw, pc: 0 });
        let stuck = Reply::Stopped(CoSimStop::CycleLimit { blocked });
        assert_eq!(dbg.handle(Command::Step), stuck);
        assert_eq!(dbg.handle(Command::Step), stuck);
        assert_eq!(dbg.handle(Command::Continue { max_cycles: 1000 }), stuck);
        assert_eq!(dbg.handle_line("step"), "stopped cycle-limit");
        assert_eq!(dbg.handle(Command::ReadPc), Reply::Value(0));
    }

    #[test]
    fn breakpoint_add_remove_round_trips() {
        let img = session_program();
        let mut sim = CoSim::software_only(&img);
        let mut dbg = DebugSession::new(&mut sim);
        // Textual add/remove round-trip, including the failure path.
        assert_eq!(dbg.handle_line("break 0x4"), "ok");
        assert_eq!(dbg.handle_line("delete 0x4"), "ok");
        assert_eq!(dbg.handle_line("delete 0x4"), "error no breakpoint at 0x00000004");
        assert_eq!(dbg.handle_line("delete 0x80"), "error no breakpoint at 0x00000080");
        // Re-adding after removal works, and duplicates collapse.
        assert_eq!(dbg.handle_line("break 0x4"), "ok");
        assert_eq!(dbg.handle_line("break 0x4"), "ok");
        assert_eq!(dbg.handle_line("delete 0x4"), "ok");
        assert_eq!(dbg.handle_line("delete 0x4"), "error no breakpoint at 0x00000004");
        // With every breakpoint gone the program runs to completion.
        assert_eq!(dbg.handle_line("cont"), "stopped halted");
    }
}
