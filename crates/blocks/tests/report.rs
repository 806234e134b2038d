//! Clock-report oracle: a sequential block's `clock` returns `false`
//! only when the edge left its state bit-identical, as `save_state`
//! writes it.
//!
//! Every sequential block of the library and of the app peripherals is
//! driven directly, without a graph, by seeded inputs that change in
//! bursts and are held for stretches, and each edge's report is checked
//! against the state saved before and after it. A block that can hold
//! still must also say so: under a held idle input (every port zero) it
//! reports `false` within a bound, and again on the next edges, since
//! the same state and inputs give the same edge. On odd seeds the TMR
//! cases flip a bit of one replica's state now and then, so the voter's
//! miscompare counter moves on edges where no replica's state does.

use softsim_apps::cordic::hardware::{CordicPe, Deserializer, Serializer};
use softsim_apps::matmul::hardware::MatmulUnit;
use softsim_blocks::block::{bit, Block};
use softsim_blocks::library::{
    Accumulator, Counter, Delay, DownSample, DualPortRam, Mult, Register, SinglePortRam, SyncFifo,
    Tmr, UpSample,
};
use softsim_blocks::{Fix, FixFmt};
use softsim_testkit::{cases, Rng};

const I16: FixFmt = FixFmt::INT16;
const W32: FixFmt = FixFmt::INT32;
const BOOL: FixFmt = FixFmt::BOOL;

/// The input formats of a CORDIC PE: `xs, y, z, tuple_valid, c_in,
/// c_load`.
const PE_INPUTS: [FixFmt; 6] = [W32, W32, W32, BOOL, W32, BOOL];

/// Edges driven by seeded inputs per case and seed.
const EDGES: usize = 300;

/// Idle edges within which a block that can hold still must report no
/// change: a buffer the stream filled (at most a word per edge) drains
/// one word per edge.
const SETTLE: usize = EDGES + 16;

/// One sequential block under test.
struct Case {
    name: &'static str,
    block: Box<dyn Block>,
    /// The format of each input port.
    inputs: Vec<FixFmt>,
    /// Under a held idle input the block reaches a state that an edge
    /// leaves as it is.
    settles: bool,
    /// A `Tmr`, whose state frame is `[miscompares, replica 0, replica
    /// 1, replica 2]`.
    voted: bool,
}

fn case(name: &'static str, block: impl Block + 'static, inputs: &[FixFmt], settles: bool) -> Case {
    Case { name, block: Box::new(block), inputs: inputs.to_vec(), settles, voted: false }
}

fn voted<B: Block + Clone + 'static>(name: &'static str, inner: B, inputs: &[FixFmt]) -> Case {
    Case { voted: true, ..case(name, Tmr::new(inner), inputs, true) }
}

/// Every sequential block, freshly built.
fn blocks() -> Vec<Case> {
    vec![
        case("Delay 1", Delay::new(I16, 1), &[I16], true),
        case("Delay 3", Delay::new(I16, 3), &[I16], true),
        case("Register", Register::zeroed(I16), &[I16, BOOL], true),
        case("Counter mod 1", Counter::new(I16, 1), &[], true),
        case("Counter mod 3", Counter::new(I16, 3), &[], false),
        case("Accumulator", Accumulator::new(I16), &[I16, BOOL, BOOL], true),
        case("SyncFifo", SyncFifo::new(I16, 3), &[I16, BOOL, BOOL], true),
        case("SinglePortRam", SinglePortRam::new(I16, 4), &[I16, I16, BOOL], true),
        case("DownSample 1", DownSample::new(I16, 1), &[I16], true),
        case("DownSample 3", DownSample::new(I16, 3), &[I16], false),
        case("UpSample 1", UpSample::new(I16, 1), &[I16], true),
        case("UpSample 2", UpSample::new(I16, 2), &[I16], false),
        case("DualPortRam", DualPortRam::new(I16, 4), &[I16, I16, BOOL, I16], true),
        case("Mult latency 1", Mult::new(I16, 1), &[I16, I16], true),
        case("Mult latency 2", Mult::new(I16, 2), &[I16, I16], true),
        case("Deserializer", Deserializer::new(), &[W32, BOOL, BOOL], true),
        case("CordicPe", CordicPe::new(), &PE_INPUTS, true),
        case("Serializer", Serializer::new(), &[W32, W32, BOOL], true),
        case("MatmulUnit nb=2", MatmulUnit::new(2), &[W32, BOOL, BOOL], true),
        voted("Tmr Register", Register::zeroed(I16), &[I16, BOOL]),
        voted("Tmr CordicPe", CordicPe::new(), &PE_INPUTS),
    ]
}

/// A value for a port: a strobe or enable high three times in ten, or a
/// small word, so that held inputs reach fixed points and RAM addresses
/// collide.
fn draw(rng: &mut Rng, fmt: FixFmt) -> Fix {
    if fmt == BOOL {
        bit(rng.below(10) < 3)
    } else {
        Fix::from_int(rng.range_i64(-2, 3), fmt)
    }
}

fn words(block: &dyn Block) -> Vec<u64> {
    let mut out = Vec::new();
    block.save_state(&mut out);
    out
}

/// Clocks `block` once on `inputs`, checks a `false` report against its
/// saved state, and returns the report.
fn edge(block: &mut dyn Block, inputs: &[Fix], ctx: &str) -> bool {
    let before = words(block);
    let changed = block.clock(inputs);
    if !changed {
        assert_eq!(words(block), before, "{ctx}: reported no change, but the state moved");
    }
    changed
}

/// Flips one bit of replica 1's state in a `Tmr` frame.
fn upset(block: &mut dyn Block, rng: &mut Rng) {
    let mut state = words(block);
    let per_replica = (state.len() - 1) / 3;
    state[1 + per_replica + rng.range_usize(0, per_replica)] ^= 1 << rng.range_u32(0, 16);
    block.load_state(&mut state.into_iter());
}

#[test]
fn every_report_of_no_change_leaves_the_state_as_it_was() {
    let mut quiet = vec![0u64; blocks().len()];
    cases(40, |seed, rng| {
        for (k, mut c) in blocks().into_iter().enumerate() {
            let ctx = format!("{} seed {seed}", c.name);
            let block = c.block.as_mut();
            let mut ins: Vec<Fix> = c.inputs.iter().map(|&f| Fix::zero(f)).collect();
            let mut hold = 0;
            let upsets = c.voted && seed % 2 == 1;
            for i in 0..EDGES {
                if hold > 0 {
                    hold -= 1;
                } else if rng.below(4) == 0 {
                    hold = rng.range_u32(1, 16);
                } else {
                    for (v, &fmt) in ins.iter_mut().zip(&c.inputs) {
                        if rng.flip() {
                            *v = draw(rng, fmt);
                        }
                    }
                }
                if upsets && rng.below(40) == 0 {
                    upset(block, rng);
                }
                quiet[k] += !edge(block, &ins, &format!("{ctx} edge {i}")) as u64;
            }
            // A replica upset that outlives the stream keeps the voter
            // counting, so only an untouched voter must settle.
            if !c.settles || upsets {
                continue;
            }
            let idle: Vec<Fix> = c.inputs.iter().map(|&f| Fix::zero(f)).collect();
            let settled = (0..SETTLE).find(|i| !edge(block, &idle, &format!("{ctx} idle {i}")));
            assert!(settled.is_some(), "{ctx}: still reporting changes after {SETTLE} idle edges");
            for i in 0..2 {
                let ctx = format!("{ctx} settled {i}");
                assert!(!edge(block, &idle, &ctx), "{ctx}: the same state and inputs changed");
            }
        }
    });
    // Not vacuous: each block that can hold still reported it on some
    // edges of the seeded streams, not only when idle.
    for (c, n) in blocks().iter().zip(quiet) {
        assert_eq!(n > 0, c.settles, "{}: {n} edges reported no change", c.name);
    }
}
