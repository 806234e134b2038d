//! Triple modular redundancy: a voter wrapper over three replicas of an
//! inner block.
//!
//! The classic SEU-hardening trade: triplicate the logic, vote the
//! outputs bit-wise, and a single upset replica is outvoted while the
//! design keeps producing correct values. The voter also *detects* the
//! divergence (a replica miscompare each clocked cycle the replicas
//! disagree), which is what lets a recovery supervisor scrub the upset
//! by rolling back to a clean checkpoint instead of accumulating it.

use crate::block::{Block, StateFrame};
use crate::fix::{Fix, FixFmt};
use crate::resource::Resources;

/// Most output ports a wrapped block may have (keeps voting allocation
/// free on the per-cycle path).
const MAX_PORTS: usize = 16;

/// Three replicas of `B` behind a bit-wise majority voter.
#[derive(Clone)]
pub struct Tmr<B: Block + Clone> {
    replicas: [B; 3],
    /// Clocked cycles on which the replicas disagreed, cumulative.
    miscompares: u64,
}

impl<B: Block + Clone> Tmr<B> {
    /// Wraps `inner` in a voter over three replicas of it.
    ///
    /// # Panics
    /// Panics if `inner` has more than 16 output ports.
    pub fn new(inner: B) -> Tmr<B> {
        assert!(
            inner.outputs().len() <= MAX_PORTS,
            "TMR voter supports at most {MAX_PORTS} outputs"
        );
        Tmr { replicas: [inner.clone(), inner.clone(), inner], miscompares: 0 }
    }

    /// Cumulative count of clocked cycles with disagreeing replicas.
    pub fn miscompares(&self) -> u64 {
        self.miscompares
    }

    /// True when every replica currently evaluates to identical outputs
    /// under `inputs`.
    fn replicas_agree(&self, inputs: &[Fix]) -> bool {
        let n = self.replicas[0].outputs().len();
        let mut a = [Fix::zero(FixFmt::BOOL); MAX_PORTS];
        let mut b = [Fix::zero(FixFmt::BOOL); MAX_PORTS];
        self.replicas[0].eval(inputs, &mut a[..n]);
        for r in &self.replicas[1..] {
            r.eval(inputs, &mut b[..n]);
            if a[..n].iter().zip(&b[..n]).any(|(x, y)| x.to_bits() != y.to_bits()) {
                return false;
            }
        }
        true
    }
}

impl<B: Block + Clone> Block for Tmr<B> {
    fn inputs(&self) -> usize {
        self.replicas[0].inputs()
    }
    fn outputs(&self) -> &[FixFmt] {
        self.replicas[0].outputs()
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        let n = outputs.len();
        let mut bufs = [[Fix::zero(FixFmt::BOOL); MAX_PORTS]; 3];
        for (r, buf) in self.replicas.iter().zip(bufs.iter_mut()) {
            r.eval(inputs, &mut buf[..n]);
        }
        for (i, (out, &fmt)) in outputs.iter_mut().zip(self.outputs()).enumerate() {
            let (a, b, c) = (bufs[0][i].to_bits(), bufs[1][i].to_bits(), bufs[2][i].to_bits());
            *out = Fix::from_bits((a & b) | (a & c) | (b & c), fmt);
        }
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        // Every replica takes its edge, whatever the others report.
        let mut changed = false;
        for r in &mut self.replicas {
            changed |= r.clock(inputs);
        }
        // Miscompares count in the clock phase only: the graph skips
        // evaluations that would reproduce what it holds, so an
        // eval-side counter would depend on the schedule. The counter is
        // state, so a miscompare is a change, and a design keeps
        // stepping (and counting) for as long as its replicas disagree.
        if !self.replicas_agree(inputs) {
            self.miscompares += 1;
            changed = true;
        }
        changed
    }
    fn is_combinational(&self) -> bool {
        self.replicas[0].is_combinational()
    }
    fn resources(&self) -> Resources {
        // Three full replicas plus the voter: one 3-input majority LUT
        // and one miscompare-compare LUT per output bit, two LUTs per
        // slice → about one slice per voted output bit.
        let bits: u32 = self.outputs().iter().map(|fmt| fmt.word as u32).sum();
        self.replicas[0].resources() * 3 + Resources::slices(bits)
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.miscompares);
        for r in &self.replicas {
            r.save_state(out);
        }
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        self.miscompares = src.word();
        for r in &mut self.replicas {
            r.load_state(src);
        }
    }
    fn detected_faults(&self) -> u64 {
        self.miscompares
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::seq::Register;

    fn fix(v: i64) -> Fix {
        Fix::from_int(v, FixFmt::unsigned(16, 0))
    }

    #[test]
    fn voter_forwards_a_healthy_inner_block() {
        let mut t = Tmr::new(Register::zeroed(FixFmt::unsigned(16, 0)));
        let ins = [fix(42), Fix::from_int(1, FixFmt::BOOL)];
        t.clock(&ins);
        let mut out = [Fix::zero(FixFmt::BOOL); 1];
        t.eval(&ins, &mut out);
        assert_eq!(out[0].to_bits(), 42);
        assert_eq!(t.miscompares(), 0);
        assert_eq!(t.detected_faults(), 0);
    }

    #[test]
    fn single_replica_upset_is_outvoted_and_detected() {
        let mut t = Tmr::new(Register::zeroed(FixFmt::unsigned(16, 0)));
        let ins = [fix(0x55), Fix::from_int(1, FixFmt::BOOL)];
        t.clock(&ins);
        // Upset one replica's state through the snapshot words: frame is
        // [miscompares, r0, r1, r2] for a one-word Register.
        let mut words = Vec::new();
        t.save_state(&mut words);
        assert_eq!(words.len(), 4);
        words[2] ^= 1 << 3; // flip a bit of replica 1's state
        t.load_state(&mut StateFrame::new(&words));
        // The vote still produces the clean value...
        let hold = [fix(0x55), Fix::from_int(0, FixFmt::BOOL)];
        let mut out = [Fix::zero(FixFmt::BOOL); 1];
        t.eval(&hold, &mut out);
        assert_eq!(out[0].to_bits(), 0x55, "majority masks the upset replica");
        // ...and the divergence is counted on the next clock, not during
        // eval (which must stay side-effect free), and reported as a
        // change even though every replica held its value.
        assert_eq!(t.miscompares(), 0);
        assert!(t.clock(&hold), "a miscompare changes the counter");
        assert_eq!(t.miscompares(), 1);
    }

    #[test]
    fn agreeing_replicas_report_what_the_inner_block_reports() {
        let fmt = FixFmt::unsigned(16, 0);
        let mut t = Tmr::new(Register::zeroed(fmt));
        let mut inner = Register::zeroed(fmt);
        for (value, enable) in [(0, 1), (7, 0), (7, 1), (7, 1), (3, 0)] {
            let ins = [fix(value), Fix::from_int(enable, FixFmt::BOOL)];
            assert_eq!(t.clock(&ins), inner.clock(&ins), "value {value}, enable {enable}");
        }
        assert_eq!(t.miscompares(), 0);
    }

    #[test]
    fn resources_cost_three_replicas_plus_voter() {
        let inner = Register::zeroed(FixFmt::unsigned(16, 0));
        let r = Tmr::new(inner.clone()).resources();
        assert_eq!(r.slices, inner.resources().slices * 3 + 16);
    }
}
