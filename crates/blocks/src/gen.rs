//! Parameterized design generators — the PyGen analog.
//!
//! The paper parameterizes its hardware designs "using the PyGen
//! developed by us": Python functions that emit System Generator designs
//! for a given parameter set. This module provides the same capability as
//! Rust builders over [`Graph`]: linear pipelines, adder trees and MAC
//! banks, each returning the created node handles so callers wire them
//! into larger designs.

use crate::block::Block;
use crate::fix::FixFmt;
use crate::graph::{Graph, GraphError, NodeId};
use crate::library::{AddSub, AddSubOp, Delay, Mult};

/// Builds a linear pipeline of `n` identical stages produced by `make`,
/// wiring output port `i` of each stage to input port `i` of the next
/// (all stages must share the port shape of `first`).
///
/// Returns the stage handles in order.
pub fn linear_pipeline<B: Block + 'static>(
    g: &mut Graph,
    name: &str,
    n: usize,
    mut make: impl FnMut(usize) -> B,
) -> Result<Vec<NodeId>, GraphError> {
    assert!(n >= 1);
    let mut stages = Vec::with_capacity(n);
    for i in 0..n {
        let block = make(i);
        let ports = block.inputs();
        let stage = g.add(format!("{name}{i}"), block);
        if let Some(&prev) = stages.last() {
            for p in 0..ports {
                g.connect(prev, p, stage, p)?;
            }
        }
        stages.push(stage);
    }
    Ok(stages)
}

/// Builds a balanced adder tree summing `leaves` (all the same format),
/// returning the root node. A classic reduction structure for MAC banks
/// and dot products.
pub fn adder_tree(
    g: &mut Graph,
    name: &str,
    leaves: &[(NodeId, usize)],
    fmt: FixFmt,
) -> Result<(NodeId, usize), GraphError> {
    assert!(!leaves.is_empty());
    let mut level: Vec<(NodeId, usize)> = leaves.to_vec();
    let mut depth = 0;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for (i, pair) in level.chunks(2).enumerate() {
            if let [a, b] = pair {
                let add = g.add(format!("{name}_l{depth}_{i}"), AddSub::new(AddSubOp::Add, fmt));
                g.connect(a.0, a.1, add, 0)?;
                g.connect(b.0, b.1, add, 1)?;
                next.push((add, 0));
            } else {
                // Odd leaf: delay to stay aligned with the added pairs'
                // combinational depth (zero-cycle here, pass through).
                next.push(pair[0]);
            }
        }
        level = next;
        depth += 1;
    }
    Ok(level[0])
}

/// Builds a bank of `n` pipelined multipliers sharing input `a`
/// (broadcast) against per-lane inputs `b[i]` — the Fig. 6 MAC front end.
/// Returns the multiplier handles.
pub fn mult_bank(
    g: &mut Graph,
    name: &str,
    a: (NodeId, usize),
    b: &[(NodeId, usize)],
    out_fmt: FixFmt,
    latency: usize,
) -> Result<Vec<NodeId>, GraphError> {
    let mut mults = Vec::with_capacity(b.len());
    for (i, lane) in b.iter().enumerate() {
        let m = g.add(format!("{name}{i}"), Mult::new(out_fmt, latency));
        g.connect(a.0, a.1, m, 0)?;
        g.connect(lane.0, lane.1, m, 1)?;
        mults.push(m);
    }
    Ok(mults)
}

/// Builds an `n`-cycle delay-line (shift register) of individual one-
/// cycle [`Delay`] stages and returns them; useful for matching pipeline
/// alignment across parallel paths.
pub fn delay_line(
    g: &mut Graph,
    name: &str,
    from: (NodeId, usize),
    fmt: FixFmt,
    n: usize,
) -> Result<NodeId, GraphError> {
    assert!(n >= 1);
    let mut prev = from;
    let mut last = from.0;
    for i in 0..n {
        let d = g.add(format!("{name}{i}"), Delay::new(fmt, 1));
        g.connect(prev.0, prev.1, d, 0)?;
        prev = (d, 0);
        last = d;
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fix::Fix;
    use crate::library::Constant;

    const I16: FixFmt = FixFmt::INT16;
    const I32: FixFmt = FixFmt::INT32;

    #[test]
    fn adder_tree_sums_constants() {
        let mut g = Graph::new();
        let leaves: Vec<(NodeId, usize)> =
            (1..=7).map(|i| (g.add(format!("c{i}"), Constant::int(i, I16)), 0)).collect();
        let (root, port) = adder_tree(&mut g, "sum", &leaves, I32).unwrap();
        g.gateway_out("total", root, port);
        g.compile().unwrap();
        g.step();
        assert_eq!(g.output("total").unwrap().raw(), (1..=7).sum::<i64>());
    }

    #[test]
    fn mult_bank_broadcasts_a() {
        let mut g = Graph::new();
        let a = g.add("a", Constant::int(3, I16));
        let b: Vec<(NodeId, usize)> =
            (0..4).map(|i| (g.add(format!("b{i}"), Constant::int(10 + i, I16)), 0)).collect();
        let mults = mult_bank(&mut g, "m", (a, 0), &b, I32, 1).unwrap();
        for (i, m) in mults.iter().enumerate() {
            g.gateway_out(format!("p{i}"), *m, 0);
        }
        g.compile().unwrap();
        g.run(2); // one stage of multiplier latency
        for i in 0..4 {
            assert_eq!(g.output(&format!("p{i}")).unwrap().raw(), 3 * (10 + i as i64), "lane {i}");
        }
    }

    #[test]
    fn delay_line_matches_single_deep_delay() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let chained = delay_line(&mut g, "dl", (x, 0), I16, 3).unwrap();
        let deep = g.add("deep", Delay::new(I16, 3));
        g.wire(x, deep, 0).unwrap();
        g.gateway_out("a", chained, 0);
        g.gateway_out("b", deep, 0);
        g.compile().unwrap();
        for i in 1..=8 {
            g.set_input("x", Fix::from_int(i, I16)).unwrap();
            g.step();
            assert_eq!(g.output("a").unwrap().raw(), g.output("b").unwrap().raw(), "cycle {i}");
        }
    }

    #[test]
    fn linear_pipeline_of_delays_accumulates_latency() {
        let mut g = Graph::new();
        let x = g.gateway_in("x", I16);
        let stages = linear_pipeline(&mut g, "st", 4, |_| Delay::new(I16, 1)).unwrap();
        g.wire(x, stages[0], 0).unwrap();
        g.gateway_out("y", *stages.last().unwrap(), 0);
        g.compile().unwrap();
        g.set_input("x", Fix::from_int(5, I16)).unwrap();
        g.step();
        g.set_input("x", Fix::zero(I16)).unwrap();
        for _ in 0..3 {
            g.step();
            assert_eq!(g.output("y").unwrap().raw(), 0);
        }
        g.step();
        assert_eq!(g.output("y").unwrap().raw(), 5, "arrives after 4 stages... ");
    }

    #[test]
    fn linear_pipeline_makes_each_stage_once() {
        let mut g = Graph::new();
        let mut made = Vec::new();
        linear_pipeline(&mut g, "st", 5, |i| {
            made.push(i);
            Delay::new(I16, 1)
        })
        .unwrap();
        assert_eq!(made, [0, 1, 2, 3, 4]);
        assert_eq!(g.len(), 5);
    }
}
