//! Guest-program profiling: exact per-PC and per-class cycle
//! attribution, the stall breakdown and FSL, gateway and bus traffic
//! totals, collected from the cycle-domain event stream.
//!
//! [`GuestProfile`] is the one collector that folds `Retire` events: it
//! keeps the per-address resolution the paper's partitioning question
//! needs ("which software regions should move into FPGA peripherals?")
//! and the per-class mix and cycle breakdown of its communication-
//! overhead analysis. Event counters (faults, detections, recoveries,
//! register writes, kernel activity) belong to `softsim-metrics`'
//! `MetricsCollector`. The analysis layers — basic-block discovery,
//! label rollup, flamegraph export, the partition advisor — live in
//! `softsim-profile`, which consumes this collector; this crate stays
//! dependency-free and knows nothing about images or ISAs.

use crate::event::{BusKind, InstClass, TraceEvent};
use crate::sink::TraceSink;
use std::collections::BTreeMap;

/// Exact cycle attribution for one guest PC.
///
/// Every cycle the processor spends on an instruction lands in exactly
/// one bucket: the issue (fetch/decode) cycle, FSL stall cycles, or
/// execute cycles. `fetch + execute + read/write stalls == cycles`, and
/// summing `cycles` over all PCs of a halted run reproduces the
/// processor's own cycle counter exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcAttribution {
    /// Times an instruction at this PC retired.
    pub retires: u64,
    /// Total cycles charged to this PC (issue + execute + stalls).
    pub cycles: u64,
    /// Cycles stalled on blocking FSL reads.
    pub read_stalls: u64,
    /// Cycles stalled on blocking FSL writes.
    pub write_stalls: u64,
}

impl PcAttribution {
    /// Issue (fetch/decode) cycles: exactly one per retire on the
    /// modeled single-issue pipeline.
    pub fn fetch(&self) -> u64 {
        self.retires
    }

    /// Execute cycles: total occupancy minus the issue cycle and FSL
    /// stalls (multi-cycle ALU/memory/branch-flush occupancy).
    pub fn execute(&self) -> u64 {
        self.cycles - self.read_stalls - self.write_stalls - self.retires
    }

    /// Merges another attribution record into this one.
    pub fn merge(&mut self, other: &PcAttribution) {
        self.retires += other.retires;
        self.cycles += other.cycles;
        self.read_stalls += other.read_stalls;
        self.write_stalls += other.write_stalls;
    }
}

/// Where a run's cycles went. `compute` is everything that is not an
/// FSL stall (memory cycles are a subset of compute, broken out
/// separately), so
/// `compute + fsl_read_stall + fsl_write_stall == total` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Total cycles attributed to the run's instructions.
    pub total: u64,
    /// Non-stall cycles.
    pub compute: u64,
    /// Cycles stalled on blocking FSL reads.
    pub fsl_read_stall: u64,
    /// Cycles stalled on blocking FSL writes.
    pub fsl_write_stall: u64,
    /// Cycles of retired load/store instructions (subset of `compute`).
    pub memory: u64,
}

/// Per-PC and per-class cycle attribution plus traffic totals,
/// collected live from the trace stream.
///
/// Every retire event carries its instruction's full cycle occupancy,
/// so for a run that executed to `halt` the profile's
/// [`total_cycles`](GuestProfile::total_cycles) equals the processor's
/// own cycle counter *exactly*. All internal maps are ordered, so
/// iteration — and everything derived from it — is deterministic
/// across runs.
#[derive(Debug, Clone, Default)]
pub struct GuestProfile {
    /// Per-PC attribution, keyed by instruction address.
    pcs: BTreeMap<u32, PcAttribution>,
    /// Retires per instruction class, indexed by [`InstClass::index`].
    /// Exact even when self-modifying code retires several classes at
    /// one PC.
    class_retires: [u64; InstClass::ALL.len()],
    /// Cycles per instruction class, indexed by [`InstClass::index`].
    class_cycles: [u64; InstClass::ALL.len()],
    total_cycles: u64,
    fifo_pushes: u64,
    fifo_pops: u64,
    fifo_full_rejections: u64,
    fifo_empty_rejections: u64,
    gateway_to_hw: u64,
    gateway_from_hw: u64,
    lmb_transfers: u64,
    opb_transfers: u64,
    opb_wait_cycles: u64,
}

impl GuestProfile {
    /// An empty collector.
    pub fn new() -> GuestProfile {
        GuestProfile::default()
    }

    /// Per-PC attribution in address order.
    pub fn pc_stats(&self) -> impl Iterator<Item = (u32, &PcAttribution)> {
        self.pcs.iter().map(|(pc, s)| (*pc, s))
    }

    /// Attribution for one PC, if any instruction there retired.
    pub fn pc_stat(&self, pc: u32) -> Option<&PcAttribution> {
        self.pcs.get(&pc)
    }

    /// Total cycles attributed across all PCs.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Words pushed into any FSL FIFO, in either direction.
    pub fn fsl_pushes(&self) -> u64 {
        self.fifo_pushes
    }

    /// Total instructions retired.
    pub fn total_retires(&self) -> u64 {
        self.class_retires.iter().sum()
    }

    /// The cycle breakdown. The stall totals are summed over the per-PC
    /// attribution, so an instruction folded in by
    /// [`add_in_flight`](GuestProfile::add_in_flight) counts too.
    pub fn breakdown(&self) -> CycleBreakdown {
        let (read, write) =
            self.pcs.values().fold((0, 0), |(r, w), s| (r + s.read_stalls, w + s.write_stalls));
        CycleBreakdown {
            total: self.total_cycles,
            compute: self.total_cycles - read - write,
            fsl_read_stall: read,
            fsl_write_stall: write,
            memory: self.class_cycles[InstClass::Load.index()]
                + self.class_cycles[InstClass::Store.index()],
        }
    }

    /// The instruction mix as `(class, retires, cycles)`, sorted by
    /// retire count, descending; classes that never retired are absent.
    pub fn mix(&self) -> Vec<(InstClass, u64, u64)> {
        let mut v: Vec<(InstClass, u64, u64)> = InstClass::ALL
            .iter()
            .map(|&c| (c, self.class_retires[c.index()], self.class_cycles[c.index()]))
            .filter(|&(_, retires, _)| retires > 0)
            .collect();
        v.sort_by_key(|&(c, retires, _)| (std::cmp::Reverse(retires), c.index()));
        v
    }

    /// The `n` hottest PCs by attributed cycles, descending (PC breaks
    /// ties so the order is deterministic).
    fn hot_pcs(&self, n: usize) -> Vec<(u32, PcAttribution)> {
        let mut v: Vec<(u32, PcAttribution)> = self.pcs.iter().map(|(&pc, &s)| (pc, s)).collect();
        v.sort_by_key(|&(pc, s)| (std::cmp::Reverse(s.cycles), pc));
        v.truncate(n);
        v
    }

    /// Renders the textual profile report: cycle breakdown, FSL, gateway
    /// and bus traffic, top-`top_n` instruction mix and hot-PC histogram.
    pub fn report(&self, top_n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let b = self.breakdown();
        let pct = |part: u64| {
            if b.total == 0 {
                0.0
            } else {
                100.0 * part as f64 / b.total as f64
            }
        };
        let _ = writeln!(
            out,
            "cycle breakdown ({} cycles, {} instructions)",
            b.total,
            self.total_retires()
        );
        let _ = writeln!(out, "  compute          {:>10}  {:5.1}%", b.compute, pct(b.compute));
        let _ = writeln!(out, "    of which mem   {:>10}  {:5.1}%", b.memory, pct(b.memory));
        let _ = writeln!(
            out,
            "  fsl read stall   {:>10}  {:5.1}%",
            b.fsl_read_stall,
            pct(b.fsl_read_stall)
        );
        let _ = writeln!(
            out,
            "  fsl write stall  {:>10}  {:5.1}%",
            b.fsl_write_stall,
            pct(b.fsl_write_stall)
        );
        if self.fifo_pushes + self.fifo_pops > 0 {
            let _ = writeln!(
                out,
                "fsl traffic: {} pushes, {} pops, {} full-rejects, {} empty-rejects",
                self.fifo_pushes,
                self.fifo_pops,
                self.fifo_full_rejections,
                self.fifo_empty_rejections
            );
        }
        if self.gateway_to_hw + self.gateway_from_hw > 0 {
            let _ = writeln!(
                out,
                "gateway words: {} to hw, {} from hw",
                self.gateway_to_hw, self.gateway_from_hw
            );
        }
        if self.opb_transfers + self.lmb_transfers > 0 {
            let _ = writeln!(
                out,
                "bus traffic: {} lmb transfers, {} opb transfers ({} wait cycles)",
                self.lmb_transfers, self.opb_transfers, self.opb_wait_cycles
            );
        }
        let _ = writeln!(out, "instruction mix (top {top_n}):");
        for (class, retires, cycles) in self.mix().into_iter().take(top_n) {
            let _ = writeln!(
                out,
                "  {:<9} {:>10} retired  {:>10} cycles  {:5.1}%",
                class.label(),
                retires,
                cycles,
                pct(cycles)
            );
        }
        let _ = writeln!(out, "hot PCs (top {top_n}):");
        for (pc, s) in self.hot_pcs(top_n) {
            let _ = writeln!(
                out,
                "  {:#010x} {:>10} cycles  {:>10} retires  {:5.1}%",
                pc,
                s.cycles,
                s.retires,
                pct(s.cycles)
            );
        }
        out
    }

    /// Folds the attribution of an instruction still in flight when the
    /// run stopped (the ISS exposes it as `Cpu::in_flight`), so totals
    /// reconcile exactly even for cycle-limited runs.
    pub fn add_in_flight(&mut self, pc: u32, cycles: u32, read_stalls: u32, write_stalls: u32) {
        let s = self.pcs.entry(pc).or_default();
        s.cycles += cycles as u64;
        s.read_stalls += read_stalls as u64;
        s.write_stalls += write_stalls as u64;
        self.total_cycles += cycles as u64;
    }
}

impl TraceSink for GuestProfile {
    fn event(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::Retire { pc, class, cycles, read_stalls, write_stalls, .. } => {
                let s = self.pcs.entry(pc).or_default();
                s.retires += 1;
                s.cycles += cycles as u64;
                s.read_stalls += read_stalls as u64;
                s.write_stalls += write_stalls as u64;
                self.class_retires[class.index()] += 1;
                self.class_cycles[class.index()] += cycles as u64;
                self.total_cycles += cycles as u64;
            }
            TraceEvent::FifoPush { .. } => self.fifo_pushes += 1,
            TraceEvent::FifoPop { .. } => self.fifo_pops += 1,
            TraceEvent::FifoFull { .. } => self.fifo_full_rejections += 1,
            TraceEvent::FifoEmpty { .. } => self.fifo_empty_rejections += 1,
            TraceEvent::GatewayWord { to_hw: true, .. } => self.gateway_to_hw += 1,
            TraceEvent::GatewayWord { to_hw: false, .. } => self.gateway_from_hw += 1,
            TraceEvent::BusTransfer { bus: BusKind::Lmb, .. } => self.lmb_transfers += 1,
            TraceEvent::BusTransfer { bus: BusKind::Opb, wait, .. } => {
                self.opb_transfers += 1;
                self.opb_wait_cycles += wait as u64;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retire(pc: u32, cycles: u32, read: u32, write: u32) -> TraceEvent {
        retire_as(pc, InstClass::Alu, cycles, read, write)
    }

    fn retire_as(pc: u32, class: InstClass, cycles: u32, read: u32, write: u32) -> TraceEvent {
        TraceEvent::Retire {
            cycle: 0,
            pc,
            word: 0,
            class,
            cycles,
            read_stalls: read,
            write_stalls: write,
        }
    }

    #[test]
    fn breakdown_reconciles_by_construction() {
        let mut g = GuestProfile::new();
        g.event(&retire_as(0x0, InstClass::Alu, 1, 0, 0));
        g.event(&retire_as(0x4, InstClass::FslGet, 7, 5, 0));
        g.event(&retire_as(0x8, InstClass::FslPut, 4, 0, 2));
        g.event(&retire_as(0xC, InstClass::Load, 2, 0, 0));
        let b = g.breakdown();
        assert_eq!(b.total, 14);
        assert_eq!(b.compute + b.fsl_read_stall + b.fsl_write_stall, b.total);
        assert_eq!(b.fsl_read_stall, 5);
        assert_eq!(b.fsl_write_stall, 2);
        assert_eq!(b.memory, 2);
    }

    #[test]
    fn class_mix_stays_exact_when_one_pc_retires_two_classes() {
        // Self-modifying code: the word at 0x8 is a multiply, then a store.
        let mut g = GuestProfile::new();
        g.event(&retire_as(0x8, InstClass::Mul, 3, 0, 0));
        g.event(&retire_as(0x8, InstClass::Store, 2, 0, 0));
        g.event(&retire_as(0x8, InstClass::Store, 2, 0, 0));
        assert_eq!(g.mix(), vec![(InstClass::Store, 2, 4), (InstClass::Mul, 1, 3)]);
        assert_eq!(g.total_retires(), 3);
        assert_eq!(g.breakdown().memory, 4);
    }

    #[test]
    fn hot_pcs_sorted_by_cycles() {
        let mut g = GuestProfile::new();
        g.event(&retire_as(0x10, InstClass::Alu, 1, 0, 0));
        g.event(&retire_as(0x20, InstClass::Mul, 3, 0, 0));
        g.event(&retire_as(0x20, InstClass::Mul, 3, 0, 0));
        let hot = g.hot_pcs(2);
        assert_eq!(hot[0].0, 0x20);
        assert_eq!(hot[0].1.cycles, 6);
        assert_eq!(hot[1].0, 0x10);
    }

    #[test]
    fn report_mentions_every_section() {
        let mut g = GuestProfile::new();
        g.event(&retire(0x0, 1, 0, 0));
        let r = g.report(5);
        assert!(r.contains("cycle breakdown"));
        assert!(r.contains("instruction mix"));
        assert!(r.contains("hot PCs"));
    }

    #[test]
    fn attribution_buckets_sum_to_cycles() {
        let mut g = GuestProfile::new();
        g.event(&retire(0x10, 7, 2, 1));
        g.event(&retire(0x10, 1, 0, 0));
        let s = *g.pc_stat(0x10).unwrap();
        assert_eq!(s.retires, 2);
        assert_eq!(s.cycles, 8);
        assert_eq!(s.fetch() + s.execute() + s.read_stalls + s.write_stalls, s.cycles);
        assert_eq!(g.total_cycles(), 8);
        assert_eq!(g.total_retires(), 2);
    }

    #[test]
    fn fsl_pushes_count_both_directions() {
        use crate::event::FifoDir;
        let mut g = GuestProfile::new();
        for (cycle, dir) in [(5, FifoDir::ToHw), (50, FifoDir::FromHw), (150, FifoDir::ToHw)] {
            g.event(&TraceEvent::FifoPush {
                cycle,
                dir,
                channel: 0,
                data: 0,
                control: false,
                occupancy: 1,
            });
        }
        assert_eq!(g.fsl_pushes(), 3);
        let r = g.report(5);
        assert!(r.contains("fsl traffic: 3 pushes, 0 pops"), "{r}");
    }

    #[test]
    fn in_flight_attribution_folds_in() {
        let mut g = GuestProfile::new();
        g.event(&retire(0x0, 3, 0, 0));
        g.add_in_flight(0x4, 9, 9, 0);
        assert_eq!(g.total_cycles(), 12);
        let s = g.pc_stat(0x4).unwrap();
        assert_eq!(s.retires, 0, "in-flight instruction has not retired");
        assert_eq!(s.cycles, 9);
        let b = g.breakdown();
        assert_eq!((b.total, b.fsl_read_stall, b.compute), (12, 9, 3));
        assert_eq!(g.total_retires(), 1);
    }
}
