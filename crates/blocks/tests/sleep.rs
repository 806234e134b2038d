//! Sleep-equivalence oracle for the graph's per-node marks.
//!
//! A graph that evaluates and clocks only the nodes whose inputs or
//! state changed must be indistinguishable, cycle by cycle, from the same
//! design stepped in full. The reference design here is kept awake by
//! restoring its own snapshot before every step (`load_state` marks every
//! node), so the oracle needs no switch in the graph itself. Every cycle
//! the two must agree on the saved state, the gateway outputs, the probe
//! samples, the activity counts and the detected faults. Whenever the
//! fast design is asleep, a full step of the reference's state must
//! change nothing but the cycle count.
//!
//! A sequential block presents its state alone, so a changed source only
//! gets it clocked, and it is evaluated again only after its own clock
//! edge reported a change. Two smaller tests pin that rule: a register
//! that reads its input in `eval` panics on its first step, and a
//! counting wrapper over the CORDIC pipeline checks when its sequential
//! blocks evaluate and that each edge reporting no change left the
//! block's state as it was.

use softsim_apps::cordic::hardware::{
    cordic_graph, cordic_graph_tmr, CordicPe, Deserializer, Serializer,
};
use softsim_apps::matmul::hardware::{matmul_graph, matmul_graph_tmr};
use softsim_blocks::block::{Block, StateFrame};
use softsim_blocks::library::{
    Accumulator, AddSub, AddSubOp, Constant, Counter, Delay, DownSample, DualPortRam, Mult, Mux,
    Register, RelOp, Relational, SyncFifo, Tmr, UpSample,
};
use softsim_blocks::{gen, Fix, FixFmt, Graph, GraphState, NodeId};
use softsim_testkit::{cases, Rng};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

const I16: FixFmt = FixFmt::INT16;
const BOOL: FixFmt = FixFmt::BOOL;

/// A combinational node that counts its evaluations: a step that skips
/// it leaves the count where it was. It passes its one input through, or
/// outputs a constant zero when it has none.
struct Spy {
    evals: Rc<Cell<u64>>,
    fmt: FixFmt,
    inputs: usize,
}

impl Block for Spy {
    fn inputs(&self) -> usize {
        self.inputs
    }
    fn outputs(&self) -> &[FixFmt] {
        std::slice::from_ref(&self.fmt)
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        self.evals.set(self.evals.get() + 1);
        outputs[0] = inputs.first().copied().unwrap_or(Fix::zero(self.fmt));
    }
}

/// Adds a source-free [`Spy`] to a design and recompiles it; returns its
/// counter. Nothing can change its inputs, so it is evaluated only when
/// the whole design is marked: after `compile` and `load_state`.
fn spy_on(g: &mut Graph) -> Rc<Cell<u64>> {
    let evals = Rc::new(Cell::new(0));
    g.add("spy", Spy { evals: evals.clone(), fmt: BOOL, inputs: 0 });
    g.compile().expect("a source-free node keeps the design legal");
    evals
}

/// Adds a pass-through [`Spy`] reading port 0 of `from`; returns the node
/// and its counter.
fn spy_after(g: &mut Graph, name: &str, from: NodeId) -> (NodeId, Rc<Cell<u64>>) {
    let evals = Rc::new(Cell::new(0));
    let n = g.add(name, Spy { evals: evals.clone(), fmt: I16, inputs: 1 });
    g.wire(from, n, 0).unwrap();
    (n, evals)
}

/// A random library design: gateways `x0`, `x1` (16-bit) and `en`, `clr`
/// (1-bit), structures from [`gen`], feedback through registers, gateway
/// outputs and probes. The same `rng` state builds the same design.
fn random_design(mut rng: Rng) -> (Graph, Vec<String>) {
    let mut g = Graph::new();
    let mut data: Vec<(NodeId, usize)> =
        vec![(g.gateway_in("x0", I16), 0), (g.gateway_in("x1", I16), 0)];
    let mut bits: Vec<(NodeId, usize)> =
        vec![(g.gateway_in("en", BOOL), 0), (g.gateway_in("clr", BOOL), 0)];
    // Feedback registers, wired at the end from anything in the design.
    let feedback: Vec<NodeId> = (0..rng.range_usize(1, 4))
        .map(|i| g.add(format!("fb{i}"), Register::zeroed(I16)))
        .collect();
    data.extend(feedback.iter().map(|&r| (r, 0)));
    for k in 0..rng.range_usize(3, 10) {
        let name = format!("n{k}");
        let d = |rng: &mut Rng, data: &[(NodeId, usize)]| *rng.pick(data);
        let b = |rng: &mut Rng, bits: &[(NodeId, usize)]| *rng.pick(bits);
        match rng.below(16) {
            0 => {
                let op = if rng.flip() { AddSubOp::Add } else { AddSubOp::Sub };
                let n = g.add(name, AddSub::new(op, I16));
                for port in 0..2 {
                    let (s, p) = d(&mut rng, &data);
                    g.connect(s, p, n, port).unwrap();
                }
                data.push((n, 0));
            }
            1 => {
                let n = g.add(name, Mult::new(I16, rng.range_usize(0, 2)));
                for port in 0..2 {
                    let (s, p) = d(&mut rng, &data);
                    g.connect(s, p, n, port).unwrap();
                }
                data.push((n, 0));
            }
            2 => {
                let n = g.add(name, Delay::new(I16, rng.range_usize(1, 4)));
                let (s, p) = d(&mut rng, &data);
                g.connect(s, p, n, 0).unwrap();
                data.push((n, 0));
            }
            3 => {
                let from = d(&mut rng, &data);
                let n = gen::delay_line(&mut g, &name, from, I16, rng.range_usize(1, 4)).unwrap();
                data.push((n, 0));
            }
            4 => {
                let leaves: Vec<_> =
                    (0..rng.range_usize(2, 5)).map(|_| d(&mut rng, &data)).collect();
                data.push(gen::adder_tree(&mut g, &name, &leaves, I16).unwrap());
            }
            5 => {
                let a = d(&mut rng, &data);
                let lanes: Vec<_> =
                    (0..rng.range_usize(1, 3)).map(|_| d(&mut rng, &data)).collect();
                let latency = rng.range_usize(0, 2);
                let mults = gen::mult_bank(&mut g, &name, a, &lanes, I16, latency).unwrap();
                data.extend(mults.into_iter().map(|m| (m, 0)));
            }
            6 => {
                let stages = gen::linear_pipeline(&mut g, &name, rng.range_usize(1, 4), |_| {
                    Delay::new(I16, 1)
                })
                .unwrap();
                let (s, p) = d(&mut rng, &data);
                g.connect(s, p, stages[0], 0).unwrap();
                data.push((*stages.last().unwrap(), 0));
            }
            7 => {
                let op = *rng.pick(&[RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Gt]);
                let n = g.add(name, Relational::new(op, 16));
                for port in 0..2 {
                    let (s, p) = d(&mut rng, &data);
                    g.connect(s, p, n, port).unwrap();
                }
                bits.push((n, 0));
            }
            8 => {
                let n = g.add(name, Accumulator::new(I16));
                let (s, p) = d(&mut rng, &data);
                g.connect(s, p, n, 0).unwrap();
                for port in 1..3 {
                    let (s, p) = b(&mut rng, &bits);
                    g.connect(s, p, n, port).unwrap();
                }
                data.push((n, 0));
            }
            9 => {
                let n = g.add(name, SyncFifo::new(I16, rng.range_usize(1, 4)));
                let (s, p) = d(&mut rng, &data);
                g.connect(s, p, n, 0).unwrap();
                for port in 1..3 {
                    let (s, p) = b(&mut rng, &bits);
                    g.connect(s, p, n, port).unwrap();
                }
                data.push((n, 0));
                bits.push((n, 1));
                bits.push((n, 2));
            }
            10 => {
                let n = g.add(name, Mux::new(2, I16));
                let (s, p) = b(&mut rng, &bits);
                g.connect(s, p, n, 0).unwrap();
                for port in 1..3 {
                    let (s, p) = d(&mut rng, &data);
                    g.connect(s, p, n, port).unwrap();
                }
                data.push((n, 0));
            }
            11 => {
                let n = g.add(name, Counter::new(I16, rng.range_u32(1, 4) as u64));
                data.push((n, 0));
            }
            12 => {
                let factor = rng.range_u32(1, 4) as u64;
                let n = if rng.flip() {
                    g.add(name, DownSample::new(I16, factor))
                } else {
                    g.add(name, UpSample::new(I16, factor))
                };
                let (s, p) = d(&mut rng, &data);
                g.connect(s, p, n, 0).unwrap();
                data.push((n, 0));
            }
            13 => {
                let n = g.add(name, Tmr::new(Register::zeroed(I16)));
                let (s, p) = d(&mut rng, &data);
                g.connect(s, p, n, 0).unwrap();
                let (s, p) = b(&mut rng, &bits);
                g.connect(s, p, n, 1).unwrap();
                data.push((n, 0));
            }
            14 => {
                let n = g.add(name, Constant::int(rng.range_i64(-3, 4), I16));
                data.push((n, 0));
            }
            _ => {
                let n = g.add(name, DualPortRam::new(I16, 4));
                for port in [0, 1, 3] {
                    let (s, p) = d(&mut rng, &data);
                    g.connect(s, p, n, port).unwrap();
                }
                let (s, p) = b(&mut rng, &bits);
                g.connect(s, p, n, 2).unwrap();
                data.push((n, 0));
                data.push((n, 1));
            }
        }
    }
    for &r in &feedback {
        let (s, p) = *rng.pick(&data);
        g.connect(s, p, r, 0).unwrap();
        let (s, p) = *rng.pick(&bits);
        g.connect(s, p, r, 1).unwrap();
    }
    for i in 0..rng.range_usize(1, 4) {
        let (s, p) = *rng.pick(&data);
        g.gateway_out(format!("y{i}"), s, p);
    }
    let mut probes = Vec::new();
    for i in 0..rng.range_usize(0, 3) {
        let (s, p) = *rng.pick(&data);
        probes.push(format!("p{i}"));
        g.add_probe(format!("p{i}"), s, p);
    }
    g.compile().expect("random design compiles: feedback passes through registers");
    (g, probes)
}

/// A design and its always-awake reference, built alike and stepped in
/// lockstep.
struct Twin {
    fast: Graph,
    reference: Graph,
    /// A third copy of the design, loaded with the reference's snapshot
    /// and stepped once whenever the fast design is asleep. Stepping the
    /// reference itself would add to its probe samples and activity
    /// counts.
    still: Graph,
    probes: Vec<String>,
    /// Evaluations the fast design performed (its source-free [`Spy`]
    /// count): one per step that follows a whole-design mark.
    evals: Rc<Cell<u64>>,
    /// Steps of the fast design that followed a whole-design mark.
    wakes: u64,
    /// The fast design was marked whole since its last step.
    marked_whole: bool,
    /// Evaluations the reference performed: one per step, or the
    /// reference was not awake.
    reference_evals: Rc<Cell<u64>>,
    /// Cycles stepped so far.
    steps: u64,
    /// Steps begun with the fast design asleep (no node marked).
    slept: u64,
    /// Steps begun with no node marked that changed exactly one
    /// gateway, by gateway: each evaluates that gateway's downstream
    /// nodes only.
    partial: BTreeMap<&'static str, u64>,
    /// The gateway values of the previous step.
    last: Vec<(&'static str, Fix)>,
}

impl Twin {
    /// Builds the pair, measuring switching activity when `activity`.
    fn new(build: impl Fn() -> (Graph, Vec<String>), activity: bool) -> Twin {
        let (mut fast, probes) = build();
        let (mut reference, _) = build();
        let (mut still, _) = build();
        let evals = spy_on(&mut fast);
        let reference_evals = spy_on(&mut reference);
        spy_on(&mut still);
        if activity {
            fast.enable_activity();
            reference.enable_activity();
        }
        Twin {
            fast,
            reference,
            still,
            probes,
            evals,
            wakes: 0,
            marked_whole: true,
            reference_evals,
            steps: 0,
            slept: 0,
            partial: BTreeMap::new(),
            last: Vec::new(),
        }
    }

    /// Applies the same gateway values to both designs, steps both (the
    /// reference woken first) and checks that nothing observable differs.
    fn step(&mut self, stimulus: &[(&'static str, Fix)], ctx: &str) {
        let snapshot = self.reference.save_state();
        self.reference.load_state(&snapshot);
        if self.fast.asleep() {
            self.slept += 1;
            let mut changed = stimulus.iter().zip(&self.last).filter(|(a, b)| a != b);
            if let (Some((a, _)), None) = (changed.next(), changed.next()) {
                *self.partial.entry(a.0).or_default() += 1;
            }
            // Asleep, the design is at a fixed point of its held gateway
            // values: a full step changes nothing but the cycle count.
            self.still.load_state(&snapshot);
            self.still.step();
            let after = self.still.save_state();
            assert_eq!(after.values, snapshot.values, "{ctx}: asleep, but a step moved a value");
            assert_eq!(
                after.block_words, snapshot.block_words,
                "{ctx}: asleep, but a step moved block state"
            );
        }
        for g in [&mut self.fast, &mut self.reference] {
            for &(name, value) in stimulus {
                g.set_input(name, value).unwrap();
            }
            g.step();
        }
        self.last = stimulus.to_vec();
        self.steps += 1;
        self.wakes += std::mem::take(&mut self.marked_whole) as u64;
        assert_eq!(self.reference_evals.get(), self.steps, "{ctx}: the reference slept");
        assert_eq!(
            self.evals.get(),
            self.wakes,
            "{ctx}: a source-free node evaluates only after a whole-design mark"
        );
        self.check(ctx);
    }

    fn check(&self, ctx: &str) {
        let (a, b) = (&self.fast, &self.reference);
        let cycle = a.cycles();
        assert_eq!(a.save_state(), b.save_state(), "{ctx} cycle {cycle}: state");
        for name in a.output_names() {
            assert_eq!(a.output(name), b.output(name), "{ctx} cycle {cycle}: output {name}");
        }
        for p in &self.probes {
            assert_eq!(a.probe_samples(p), b.probe_samples(p), "{ctx} cycle {cycle}: probe {p}");
        }
        assert_eq!(a.total_toggles(), b.total_toggles(), "{ctx} cycle {cycle}: toggles");
        assert_eq!(a.node_activity(), b.node_activity(), "{ctx} cycle {cycle}: node activity");
        assert_eq!(a.activity_factor(), b.activity_factor(), "{ctx} cycle {cycle}: activity");
        assert_eq!(a.detected_faults(), b.detected_faults(), "{ctx} cycle {cycle}: faults");
    }

    /// Applies a state change to both designs and checks them again.
    /// `marks_whole` says whether the change marks every node
    /// (`load_state` does).
    fn both(&mut self, f: impl Fn(&mut Graph), marks_whole: bool, ctx: &str) {
        f(&mut self.fast);
        f(&mut self.reference);
        self.marked_whole |= marks_whole;
        self.check(ctx);
    }
}

/// Gateway values that change in short bursts and are then held for long
/// stretches, re-set every cycle as the co-simulation feed does. Some
/// bursts are solo stretches: one gateway changes on every step of the
/// stretch and every other gateway holds.
struct Stimulus {
    gateways: Vec<(&'static str, FixFmt)>,
    values: Vec<Fix>,
    hold: u32,
    /// The gateway of a solo stretch and the steps left in it.
    solo: Option<(usize, u32)>,
}

impl Stimulus {
    fn new(gateways: &[(&'static str, FixFmt)]) -> Stimulus {
        let values = gateways.iter().map(|&(_, fmt)| Fix::zero(fmt)).collect();
        Stimulus { gateways: gateways.to_vec(), values, hold: 0, solo: None }
    }

    /// Zeroes every gateway and holds it there for `cycles` cycles,
    /// ending any solo stretch that would change one meanwhile.
    fn idle(&mut self, cycles: u32) {
        for v in &mut self.values {
            *v = Fix::zero(v.fmt());
        }
        self.hold = cycles;
        self.solo = None;
    }

    fn next(&mut self, rng: &mut Rng) -> Vec<(&'static str, Fix)> {
        if let Some((i, left)) = self.solo {
            let old = self.values[i];
            while self.values[i] == old {
                self.values[i] = small(rng, self.gateways[i].1);
            }
            self.solo = (left > 1).then_some((i, left - 1));
        } else if self.hold > 0 {
            self.hold -= 1;
        } else {
            let i = rng.range_usize(0, self.gateways.len());
            match rng.below(8) {
                0 | 1 => self.hold = rng.range_u32(5, 80),
                2 => self.solo = Some((i, rng.range_u32(1, 12))),
                _ => self.values[i] = small(rng, self.gateways[i].1),
            }
        }
        self.gateways.iter().map(|g| g.0).zip(self.values.iter().copied()).collect()
    }
}

/// A small value, so held designs reach fixed points.
fn small(rng: &mut Rng, fmt: FixFmt) -> Fix {
    Fix::from_int(rng.range_i64(-2, 3), fmt)
}

/// Runs a twin for `cycles` cycles under `stimulus`, with occasional
/// returns to the run's start, snapshot restores and activity restarts.
fn run_twin(twin: &mut Twin, stimulus: &mut Stimulus, rng: &mut Rng, cycles: u64, ctx: &str) {
    // Snapshots cover the feed too, so the gateway values set right
    // after a restore match the design's and only the restore itself can
    // wake a sleeping design.
    let start = (twin.fast.save_state(), stimulus.values.clone());
    let mut saved: Option<(GraphState, Vec<Fix>)> = None;
    for _ in 0..cycles {
        match rng.below(200) {
            0 => {
                twin.both(|g| g.load_state(&start.0), true, &format!("{ctx} back to start"));
                stimulus.values.clone_from(&start.1);
            }
            1 => saved = Some((twin.fast.save_state(), stimulus.values.clone())),
            2 => {
                if let Some((state, values)) = &saved {
                    twin.both(|g| g.load_state(state), true, &format!("{ctx} restore"));
                    stimulus.values.clone_from(values);
                }
            }
            3 => twin.both(|g| g.enable_activity(), false, &format!("{ctx} activity")),
            _ => {}
        }
        let values = stimulus.next(rng);
        twin.step(&values, ctx);
    }
}

/// A peripheral design by name, built fresh on each call.
type Peripheral = (&'static str, fn() -> Graph);

const FSL_GATEWAYS: [(&str, FixFmt); 3] =
    [("fsl0_data", FixFmt::INT32), ("fsl0_valid", BOOL), ("fsl0_ctrl", BOOL)];

#[test]
fn random_library_designs_sleep_like_they_step() {
    let (mut slept, mut sleepers) = (0, 0);
    let mut partial: BTreeMap<&str, u64> = BTreeMap::new();
    cases(300, |seed, rng| {
        let design = rng.clone();
        rng.next_u64();
        let mut twin = Twin::new(|| random_design(design.clone()), rng.flip());
        let mut stimulus = Stimulus::new(&[("x0", I16), ("x1", I16), ("en", BOOL), ("clr", BOOL)]);
        run_twin(&mut twin, &mut stimulus, rng, 300, &format!("seed {seed}"));
        slept += twin.slept;
        sleepers += (twin.slept > 0) as u32;
        for (gateway, n) in twin.partial {
            *partial.entry(gateway).or_default() += n;
        }
    });
    // Not vacuous: many designs (those without free-running counters or
    // unbounded accumulation) reach fixed points in the held stretches,
    // and many steps wake such a design through one gateway only.
    assert!(sleepers >= 60, "only {sleepers} of 300 designs ever slept");
    assert!(slept >= 15_000, "only {slept} of 90000 cycles slept");
    for gateway in ["x0", "x1", "en", "clr"] {
        let n = partial.get(gateway).copied().unwrap_or(0);
        assert!(n >= 100, "only {n} partial wakes through `{gateway}`");
    }
}

#[test]
fn peripherals_sleep_like_they_step() {
    let builds: [Peripheral; 5] = [
        ("cordic P=4", || cordic_graph(4)),
        ("cordic P=2 TMR", || cordic_graph_tmr(2)),
        ("matmul nb=2", || matmul_graph(2)),
        ("matmul nb=4", || matmul_graph(4)),
        ("matmul nb=2 TMR", || matmul_graph_tmr(2, 0)),
    ];
    for (name, build) in builds {
        cases(6, |seed, rng| {
            let mut twin = Twin::new(|| (build(), Vec::new()), seed % 2 == 1);
            let mut stimulus = Stimulus::new(&FSL_GATEWAYS);
            run_twin(&mut twin, &mut stimulus, rng, 800, &format!("{name} seed {seed}"));
            assert!(twin.slept > 0, "{name} seed {seed}: never slept");
        });
    }
}

/// A TMR design with one replica's state words flipped keeps counting
/// miscompares each cycle exactly as stepping does: a miscompare changes
/// the voter's counter, so its edge reports a change and the design never
/// sleeps through the fault.
#[test]
fn upset_tmr_replicas_sleep_like_they_step() {
    let builds: [Peripheral; 2] = [
        ("cordic P=2 TMR", || cordic_graph_tmr(2)),
        ("matmul nb=2 TMR", || matmul_graph_tmr(2, 0)),
    ];
    for (name, build) in builds {
        let mut detected = 0;
        cases(8, |seed, rng| {
            let mut twin = Twin::new(|| (build(), Vec::new()), seed % 2 == 1);
            let mut stimulus = Stimulus::new(&FSL_GATEWAYS);
            let ctx = format!("{name} seed {seed}");
            run_twin(&mut twin, &mut stimulus, rng, 200, &ctx);
            // Drain with idle inputs, so the upset lands on a sleeping
            // design and only the restore can wake it.
            stimulus.idle(u32::MAX);
            let slept = twin.slept;
            for _ in 0..100 {
                let values = stimulus.next(rng);
                twin.step(&values, &format!("{ctx} drain"));
            }
            assert!(twin.slept > slept, "{ctx}: a drained design sleeps");
            // Flip one bit of replica 1 of a voted block. A `Tmr` frame
            // is [miscompares, replica 0, replica 1, replica 2].
            let mut state = twin.fast.save_state();
            let voted: Vec<usize> =
                (0..state.spans.len()).filter(|&i| state.spans[i] > 1).collect();
            let node = *rng.pick(&voted);
            let start: usize = state.spans[..node].iter().map(|&n| n as usize).sum();
            let per_replica = (state.spans[node] as usize - 1) / 3;
            let word = start + 1 + per_replica + rng.range_usize(0, per_replica);
            state.block_words[word] ^= 1 << rng.range_u32(0, 32);
            twin.both(|g| g.load_state(&state), true, &format!("{ctx} upset"));
            let clean = twin.fast.detected_faults();
            for i in 0..400 {
                if i == 100 {
                    stimulus.hold = 0;
                }
                let values = stimulus.next(rng);
                twin.step(&values, &format!("{ctx} after upset"));
            }
            detected += twin.fast.detected_faults() - clean;
        });
        assert!(detected > 0, "{name}: no upset was ever detected");
    }
}

/// A drained CORDIC pipeline with held inputs stops evaluating; setting
/// the same value again evaluates nothing. A source-free node has no
/// input that can change, so it is evaluated only when the whole design
/// is marked: not for a changed data word, but once for each restore.
#[test]
fn drained_cordic_sleeps_until_an_input_changes() {
    let mut g = cordic_graph(4);
    let evals = spy_on(&mut g);
    let power_on = g.save_state();
    let h = |name| g.input_handle(name).unwrap();
    let (data, valid, ctrl) = (h("fsl0_data"), h("fsl0_valid"), h("fsl0_ctrl"));
    let word = |v: u64| Fix::from_bits(v, FixFmt::INT32);
    let bit = |v: u64| Fix::from_bits(v, BOOL);
    // A control word, then one (XS, Y, Z) tuple.
    for (w, c) in [(1 << 20, 1), (1 << 20, 0), (3, 0), (0, 0)] {
        g.set_input_fast(data, word(w));
        g.set_input_fast(valid, bit(1));
        g.set_input_fast(ctrl, bit(c));
        g.step();
    }
    // Idle inputs until the result has drained out.
    g.set_input_fast(data, word(0));
    g.set_input_fast(valid, bit(0));
    g.set_input_fast(ctrl, bit(0));
    g.run(20);
    assert!(g.asleep(), "drained pipeline is a fixed point");
    assert_eq!(evals.get(), 1, "evaluated once, on the first step after compile");

    for _ in 0..100 {
        g.set_input_fast(data, word(0));
        g.set_input_fast(valid, bit(0));
        g.set_input_fast(ctrl, bit(0));
        g.step();
    }
    assert_eq!(evals.get(), 1, "re-setting held values evaluates nothing");
    assert_eq!(g.cycles(), 124, "skipped steps still count cycles");

    // A changed data word with `valid` low wakes only the data word's
    // consumers; the source-free node is not among them.
    g.set_input_fast(data, word(5));
    g.run(10);
    assert_eq!(evals.get(), 1, "a data word does not reach a source-free node");
    assert!(g.asleep(), "the changed word settles");

    // Restoring a snapshot, the current one or the power-on one, marks
    // every node.
    g.load_state(&g.save_state());
    g.run(10);
    assert_eq!(evals.get(), 2, "a restore marks every node once");
    g.load_state(&power_on);
    g.run(10);
    assert_eq!(evals.get(), 3, "restoring power-on marks every node once");
}

/// Two disjoint chains, each gateway → spy → delay → spy: a change on one
/// gateway evaluates that chain's spies once each and leaves the other
/// chain's alone, and both chains compute what they would when stepped
/// in full.
#[test]
fn a_gateway_change_evaluates_only_its_downstream_nodes() {
    let mut g = Graph::new();
    let chain = |g: &mut Graph, name: &str| {
        let x = g.gateway_in(name, I16);
        let (head, head_evals) = spy_after(g, &format!("{name}_head"), x);
        let d = g.add(format!("{name}_delay"), Delay::new(I16, 1));
        g.wire(head, d, 0).unwrap();
        let (tail, tail_evals) = spy_after(g, &format!("{name}_tail"), d);
        g.gateway_out(format!("{name}_y"), tail, 0);
        [head_evals, tail_evals]
    };
    let a = chain(&mut g, "a");
    let b = chain(&mut g, "b");
    g.compile().unwrap();
    let counts = |chain: &[Rc<Cell<u64>>; 2]| chain.each_ref().map(|c| c.get());
    g.run(5);
    assert_eq!((counts(&a), counts(&b)), ([1, 1], [1, 1]), "compile marks every node once");

    g.set_input("a", Fix::from_int(3, I16)).unwrap();
    g.run(5);
    assert_eq!(counts(&a), [2, 2], "the changed chain evaluates each spy once");
    assert_eq!(counts(&b), [1, 1], "the other chain is left alone");
    assert_eq!(g.output("a_y").unwrap().raw(), 3);
    assert_eq!(g.output("b_y").unwrap().raw(), 0);

    g.set_input("b", Fix::from_int(-4, I16)).unwrap();
    g.run(5);
    assert_eq!((counts(&a), counts(&b)), ([2, 2], [2, 2]), "and the other way round");
    assert_eq!(g.output("b_y").unwrap().raw(), -4);
}

/// A register whose evaluation peeks at its data input: a Mealy output,
/// which the `Block` contract rules out for a sequential block.
struct PeekingRegister(Fix);

impl Block for PeekingRegister {
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> &[FixFmt] {
        &[I16]
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        outputs[0] = Fix::from_int(self.0.raw().wrapping_add(inputs[0].raw()), I16);
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        self.0 = inputs[0];
        true
    }
    fn is_combinational(&self) -> bool {
        false
    }
}

/// A sequential block that reads its inputs in `eval` fails loudly on the
/// first step instead of presenting stale outputs later.
#[test]
#[should_panic(expected = "index out of bounds")]
fn a_sequential_block_reading_its_inputs_panics_on_its_first_step() {
    let mut g = Graph::new();
    let x = g.gateway_in("x", I16);
    let r = g.add("peek", PeekingRegister(Fix::zero(I16)));
    g.wire(x, r, 0).unwrap();
    g.compile().expect("feedback-free design compiles");
    g.step();
}

/// What the [`Counted`] nodes of one design saw, shared with the test.
#[derive(Default)]
struct Ledger {
    /// The step the design is about to take.
    step: u64,
    /// Per node: it may evaluate, because its last clock edge reported a
    /// change or the whole design was marked since.
    due: Vec<bool>,
    /// Per node: the step of its last evaluation.
    last_eval: Vec<Option<u64>>,
    /// Per node: the inputs of its last clock edge.
    last_inputs: Vec<Vec<Fix>>,
    /// Evaluations of sequential nodes.
    evals: u64,
    /// Clock edges on changed inputs in a step that did not evaluate the
    /// node: evaluations a scheduler waking sequential blocks for every
    /// changed source would have spent.
    saved: u64,
}

impl Ledger {
    /// Marks every node due, as `compile` and `load_state` do.
    fn wake(&mut self) {
        self.due.iter_mut().for_each(|d| *d = true);
    }
}

/// A sequential block that checks each of its evaluations against the
/// [`Ledger`] and records its clock edges there.
struct Counted<B> {
    inner: B,
    id: usize,
    ledger: Rc<RefCell<Ledger>>,
}

impl<B> Counted<B> {
    /// Wraps `inner` as the next node of `ledger`, due to evaluate once
    /// the design compiles.
    fn new(inner: B, ledger: &Rc<RefCell<Ledger>>) -> Counted<B> {
        let mut l = ledger.borrow_mut();
        l.due.push(true);
        l.last_eval.push(None);
        l.last_inputs.push(Vec::new());
        Counted { inner, id: l.due.len() - 1, ledger: ledger.clone() }
    }
}

impl<B: Block> Block for Counted<B> {
    fn inputs(&self) -> usize {
        self.inner.inputs()
    }
    fn outputs(&self) -> &[FixFmt] {
        self.inner.outputs()
    }
    fn eval(&self, inputs: &[Fix], outputs: &mut [Fix]) {
        let mut l = self.ledger.borrow_mut();
        let step = l.step;
        assert!(
            std::mem::take(&mut l.due[self.id]),
            "node {} evaluated at step {step} without a wake or a changing clock edge",
            self.id
        );
        l.evals += 1;
        l.last_eval[self.id] = Some(step);
        self.inner.eval(inputs, outputs);
    }
    fn clock(&mut self, inputs: &[Fix]) -> bool {
        let state = |b: &B| {
            let mut words = Vec::new();
            b.save_state(&mut words);
            words
        };
        let before = state(&self.inner);
        let changed = self.inner.clock(inputs);
        let mut l = self.ledger.borrow_mut();
        assert!(
            changed || state(&self.inner) == before,
            "node {} reported no change at step {}, but its state moved",
            self.id,
            l.step
        );
        if l.last_inputs[self.id] != inputs && l.last_eval[self.id] != Some(l.step) {
            l.saved += 1;
        }
        l.last_inputs[self.id] = inputs.to_vec();
        l.due[self.id] |= changed;
        changed
    }
    fn is_combinational(&self) -> bool {
        self.inner.is_combinational()
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        self.inner.save_state(out);
    }
    fn load_state(&mut self, src: &mut StateFrame) {
        self.inner.load_state(src);
    }
}

/// `cordic_graph(4)` with every block wrapped in [`Counted`].
fn counted_cordic_p4(ledger: &Rc<RefCell<Ledger>>) -> Graph {
    let mut g = Graph::new();
    let gateways = FSL_GATEWAYS.map(|(name, fmt)| g.gateway_in(name, fmt));
    let deser = g.add("deser", Counted::new(Deserializer::new(), ledger));
    for (port, gateway) in gateways.into_iter().enumerate() {
        g.wire(gateway, deser, port).unwrap();
    }
    let mut prev = deser;
    for i in 0..4 {
        let pe = g.add(format!("pe{i}"), Counted::new(CordicPe::new(), ledger));
        for port in 0..6 {
            g.connect(prev, port, pe, port).unwrap();
        }
        prev = pe;
    }
    let ser = g.add("ser", Counted::new(Serializer::new(), ledger));
    for (port, from) in [1, 2, 3].into_iter().enumerate() {
        g.connect(prev, from, ser, port).unwrap();
    }
    g.gateway_out("fsl0_out_data", ser, 0);
    g.gateway_out("fsl0_out_valid", ser, 1);
    g.compile().expect("cordic pipeline compiles");
    g
}

/// A fixed FSL stream for the CORDIC pipeline, as `(data, valid, ctrl)`
/// per cycle: six passes, each a control word and five `(XS, Y, Z)`
/// tuples whose words arrive 0–2 cycles apart, with stray data on the
/// bus while `valid` is low, then 20 idle cycles.
fn cordic_stream() -> Vec<[u64; 3]> {
    let mut cycles = Vec::new();
    for pass in 0..6u64 {
        cycles.push([(1 << 20) >> pass, 1, 1]);
        for t in 0..5u64 {
            for (k, word) in [(3 + t) << 16, t * 977, pass << 12].into_iter().enumerate() {
                cycles.push([word, 1, 0]);
                for gap in 0..(t + k as u64) % 3 {
                    cycles.push([gap * (0x55 + t), 0, 0]);
                }
            }
        }
        cycles.extend([[0, 0, 0]; 20]);
    }
    cycles
}

/// Every evaluation of a sequential CORDIC block follows that block's
/// own clock edge that reported a change, or a whole-design mark
/// (compile, restore); a changed source alone gets it
/// clocked, not evaluated. The counted design computes what the plain
/// `cordic_graph(4)` does, cycle by cycle, and the clock edges on
/// changed inputs that evaluated nothing count the work this saves.
#[test]
fn sequential_blocks_evaluate_only_after_a_changing_edge_or_a_wake() {
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let mut counted = counted_cordic_p4(&ledger);
    let mut reference = cordic_graph(4);
    let power_on = [counted.save_state(), reference.save_state()];
    let stream = cordic_stream();
    let wakes = [stream.len() / 3, 2 * stream.len() / 3];
    for (i, &[data, valid, ctrl]) in stream.iter().enumerate() {
        for (g, power_on) in [&mut counted, &mut reference].into_iter().zip(&power_on) {
            if i == wakes[0] {
                g.load_state(&g.save_state());
            } else if i == wakes[1] {
                g.load_state(power_on);
            }
        }
        if wakes.contains(&i) {
            ledger.borrow_mut().wake();
        }
        ledger.borrow_mut().step = i as u64;
        for g in [&mut counted, &mut reference] {
            g.set_input("fsl0_data", Fix::from_bits(data, FixFmt::INT32)).unwrap();
            g.set_input("fsl0_valid", Fix::from_bits(valid, BOOL)).unwrap();
            g.set_input("fsl0_ctrl", Fix::from_bits(ctrl, BOOL)).unwrap();
            g.step();
        }
        assert_eq!(counted.save_state(), reference.save_state(), "cycle {i}: state");
        for name in ["fsl0_out_data", "fsl0_out_valid"] {
            assert_eq!(counted.output(name), reference.output(name), "cycle {i}: {name}");
        }
    }
    let l = ledger.borrow();
    assert!(l.evals > 0, "the pipeline evaluated");
    // 285 against 516 when written.
    assert!(l.saved * 3 > l.evals, "{} saved against {} evaluations", l.saved, l.evals);
}
