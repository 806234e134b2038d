//! Structural RTL netlist of the FIR filter for the low-level baseline:
//! tap registers, a tap-delay line, per-tap multiplier primitives and an
//! adder-tree's worth of add/sub components, all generating real event
//! traffic, with the control FSM cycle-exact against the block-level
//! filter.

use softsim_isa::Image;
use softsim_rtl::kernel::Primitives;
use softsim_rtl::{comp, RtlStop, SocRtl};

/// Builds the full low-level system: MB32 SoC plus a `t`-tap FIR on FSL
/// channel `ch`.
pub fn build_fir_rtl(image: &Image, t: usize, ch: usize) -> SocRtl {
    let mut soc = SocRtl::new(image);
    attach_fir_rtl(&mut soc, t, ch);
    soc
}

/// Attaches the filter to an existing SoC.
pub fn attach_fir_rtl(soc: &mut SocRtl, t: usize, ch: usize) {
    assert!((1..=32).contains(&t));
    let hin = soc.hw_in(ch);
    let hout = soc.hw_out(ch);
    let clk = soc.clock.clk;
    let k = &mut soc.kernel;

    // Tap and delay-line registers plus the write pointer and strobes.
    k.add_primitives(Primitives {
        ff_bits: (2 * t * 32 + 8) as u64,
        lut_bits: (t * 4 + 20) as u64,
        mult18s: 0,
        brams: 0,
    });

    // Observation datapath: per-tap multiplier and accumulator adder.
    let x_bcast = k.signal(format!("fir{ch}_x"), 32);
    let mut tap_sigs = Vec::new();
    let mut prods = Vec::new();
    for i in 0..t {
        let h = k.signal(format!("fir{ch}_h{i}"), 32);
        let p = k.signal(format!("fir{ch}_p{i}"), 32);
        comp::multiplier(k, clk, x_bcast, h, p, 32, 1);
        tap_sigs.push(h);
        prods.push(p);
    }
    // Adder tree observers (t-1 adders).
    let mut level = prods.clone();
    let mut depth = 0usize;
    while level.len() > 1 {
        let mut next = Vec::new();
        for (i, pair) in level.chunks(2).enumerate() {
            if let [a, b] = pair {
                let y = k.signal(format!("fir{ch}_t{depth}_{i}"), 32);
                comp::addsub(k, *a, *b, None, y, 32);
                next.push(y);
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
        depth += 1;
    }

    // Control FSM, cycle-exact with the block-level graph: taps load on
    // control words; each sample computes y combinationally and registers
    // it (visible — and pushed — the following cycle).
    let mut taps = vec![0i32; t];
    let mut ptr = 0usize;
    let mut line = vec![0i32; t]; // line[0] unused; line[k] = x[n-k]
    let mut pending: Option<i32> = None;
    k.process(&[clk], move |ctx| {
        if !ctx.rising(clk) {
            return;
        }
        // Present last cycle's registered output.
        match pending.take() {
            Some(y) => {
                ctx.set(hout.data, (y as u32) as u64);
                ctx.set(hout.valid, 1);
            }
            None => ctx.set(hout.valid, 0),
        }
        if ctx.get(hin.valid) == 0 {
            return;
        }
        let data = ctx.get(hin.data) as u32 as i32;
        if ctx.get(hin.ctrl) != 0 {
            taps[ptr % t] = data;
            ctx.set(tap_sigs[ptr % t], (data as u32) as u64);
            ptr += 1;
            return;
        }
        // Sample: y = h[0]*x + sum h[k]*line[k]; then shift the line.
        ctx.set(x_bcast, (data as u32) as u64);
        let mut y = taps[0].wrapping_mul(data);
        for k_i in 1..t {
            y = y.wrapping_add(taps[k_i].wrapping_mul(line[k_i]));
        }
        for k_i in (2..t).rev() {
            line[k_i] = line[k_i - 1];
        }
        if t > 1 {
            line[1] = data;
        }
        pending = Some(y);
    });
}

/// Convenience: run a FIR image against the RTL system (filter on
/// channel 0).
pub fn run_fir_rtl(image: &Image, t: usize, max_cycles: u64) -> (SocRtl, RtlStop) {
    let mut soc = build_fir_rtl(image, t, 0);
    let stop = soc.run(max_cycles);
    (soc, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fir::reference;
    use crate::fir::software::fir_cosim;
    use softsim_cosim::CoSimStop;
    use softsim_isa::asm::assemble;

    #[test]
    fn rtl_fir_matches_reference_and_cosim_cycles() {
        let taps = vec![4, -3, 2, 1];
        let input = reference::test_signal(20, 9);
        let (mut hi, img) = fir_cosim(&taps, &input, true);
        assert_eq!(hi.run(10_000_000), CoSimStop::Halted);
        let (soc, stop) = run_fir_rtl(&img, taps.len(), 10_000_000);
        assert_eq!(stop, RtlStop::Halted);
        assert_eq!(hi.cpu_stats().cycles, soc.cpu_cycles(), "cycle counts");
        let base = img.symbol("y_data").unwrap();
        let expect = reference::fir(&taps, &input);
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(soc.mem_word(base + 4 * i as u32) as i32, *e, "sample {i}");
        }
    }

    #[test]
    fn multi_peripheral_rtl_matches_cosim() {
        // The beamformer: CORDIC pipeline on FSL 0 and the FIR on FSL 2,
        // both as RTL, against the two-peripheral co-simulation.
        use crate::beamformer::{beamformer_cosim, beamformer_program, FIR_CHANNEL};
        use crate::cordic::rtl::attach_cordic_rtl;
        use crate::fir::reference::test_signal;
        use crate::lpc::reference::test_autocorrelation;

        let r = test_autocorrelation(4);
        let input = test_signal(16, 7);
        let p = 4;
        let (mut hi, img) = beamformer_cosim(&r, p, &input);
        assert_eq!(hi.run(10_000_000), CoSimStop::Halted);

        let img2 = assemble(&beamformer_program(&r, p, &input)).unwrap();
        let mut soc = SocRtl::new(&img2);
        attach_cordic_rtl(&mut soc, p);
        attach_fir_rtl(&mut soc, r.len(), FIR_CHANNEL);
        assert_eq!(soc.run(10_000_000), RtlStop::Halted);
        assert_eq!(hi.cpu_stats().cycles, soc.cpu_cycles(), "cycle counts");
        let base = img.symbol("y_data").unwrap();
        for i in 0..input.len() as u32 {
            assert_eq!(
                hi.cpu().mem().read_u32(base + 4 * i).unwrap(),
                soc.mem_word(base + 4 * i),
                "sample {i}"
            );
        }
    }
}
