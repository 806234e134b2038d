//! Bindings between FSL channels and block-graph gateways.
//!
//! In the paper, the *MicroBlaze Simulink block* "implements the FSL FIFO
//! and the data input and output interfaces" and moves words between the
//! processor simulation and the System Generator design (§III-A/B). A
//! [`FslToHw`]/[`FslFromHw`] pair describes exactly that wiring for one
//! channel: which gateway ports of the peripheral graph carry the FSL
//! data, valid and control signals.

use softsim_blocks::graph::InputHandle;
use softsim_blocks::{Fix, FixFmt, Graph, GraphError};

/// Wiring of one processor → hardware FSL channel into gateway inputs.
#[derive(Debug, Clone)]
pub struct FslToHw {
    /// FSL channel index (0..8).
    pub channel: usize,
    /// Gateway-in name receiving the 32-bit data word.
    pub data: String,
    /// Gateway-in name receiving the `exists`/valid strobe (1 bit).
    pub valid: String,
    /// Gateway-in name receiving the control bit (`Out#_control`), if the
    /// peripheral distinguishes control words.
    pub control: Option<String>,
}

impl FslToHw {
    /// Standard naming: `fsl{ch}_data` / `fsl{ch}_valid` / `fsl{ch}_ctrl`.
    pub fn standard(channel: usize) -> FslToHw {
        FslToHw {
            channel,
            data: format!("fsl{channel}_data"),
            valid: format!("fsl{channel}_valid"),
            control: Some(format!("fsl{channel}_ctrl")),
        }
    }

    /// Drops the control-bit wire (peripherals that only take data words).
    pub fn without_control(mut self) -> FslToHw {
        self.control = None;
        self
    }
}

/// Wiring of one hardware → processor FSL channel from gateway outputs.
#[derive(Debug, Clone)]
pub struct FslFromHw {
    /// FSL channel index (0..8).
    pub channel: usize,
    /// Gateway-out name producing the 32-bit result word.
    pub data: String,
    /// Gateway-out name strobing result validity (1 bit).
    pub valid: String,
    /// Gateway-out name driving the control bit, if any.
    pub control: Option<String>,
}

impl FslFromHw {
    /// Standard naming: `fsl{ch}_out_data` / `fsl{ch}_out_valid`.
    pub fn standard(channel: usize) -> FslFromHw {
        FslFromHw {
            channel,
            data: format!("fsl{channel}_out_data"),
            valid: format!("fsl{channel}_out_valid"),
            control: None,
        }
    }
}

/// The gateway inputs that one processor → hardware FSL channel drives,
/// resolved to handles (no name lookups in the per-cycle path), with the
/// store that puts one FSL cycle into them.
pub(crate) struct GatewayInputs {
    pub(crate) data: InputHandle,
    pub(crate) valid: InputHandle,
    pub(crate) control: Option<InputHandle>,
    /// Every gateway's binary point is at 0, so each holds the bits of
    /// the integer it is given, cut to its word length.
    integral: bool,
}

impl GatewayInputs {
    /// Resolves the named gateways.
    pub(crate) fn resolve(
        graph: &Graph,
        data: &str,
        valid: &str,
        control: Option<&str>,
    ) -> Result<GatewayInputs, GraphError> {
        let (data, valid) = (graph.input_handle(data)?, graph.input_handle(valid)?);
        let control = control.map(|name| graph.input_handle(name)).transpose()?;
        let integral = [Some(data), Some(valid), control]
            .into_iter()
            .flatten()
            .all(|h| graph.input_value(h).fmt().frac == 0);
        Ok(GatewayInputs { data, valid, control, integral })
    }

    /// Stores one FSL cycle — the data word, the valid strobe and the
    /// control bit — for the graph's next step. An integral gateway
    /// takes the two's-complement bits of the (sign-extended) word or
    /// the flag as they are; a gateway with a binary point takes the
    /// value converted into its format.
    #[inline(always)]
    pub(crate) fn store(&self, g: &mut Graph, data: u32, valid: bool, ctrl: bool) {
        if self.integral {
            g.set_input_bits(self.data, data as i32 as u64);
            g.set_input_bits(self.valid, valid as u64);
            if let Some(c) = self.control {
                g.set_input_bits(c, ctrl as u64);
            }
        } else {
            g.set_input_fast(self.data, Fix::from_bits(data as u64, FixFmt::INT32));
            g.set_input_fast(self.valid, Fix::from_bits(valid as u64, FixFmt::BOOL));
            if let Some(c) = self.control {
                g.set_input_fast(c, Fix::from_bits(ctrl as u64, FixFmt::BOOL));
            }
        }
    }

    /// True when every gateway holds the idle word: data, valid and
    /// control all zero.
    pub(crate) fn hold_idle(&self, g: &Graph) -> bool {
        [Some(self.data), Some(self.valid), self.control]
            .into_iter()
            .flatten()
            .all(|h| g.input_value(h).is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_blocks::{Overflow, Rounding};

    /// An integral gateway holds the word's two's-complement bits cut to
    /// its length; a gateway with a binary point holds the word's value,
    /// as `set_input_fast` converts it.
    #[test]
    fn a_store_puts_the_word_value_into_each_gateway_format() {
        let mut g = Graph::new();
        let q = FixFmt::signed(32, 4);
        for (name, fmt) in [("a", FixFmt::INT16), ("b", q), ("v", FixFmt::BOOL)] {
            let _ = g.gateway_in(name, fmt);
        }
        g.compile().unwrap();
        let narrow = GatewayInputs::resolve(&g, "a", "v", None).unwrap();
        let scaled = GatewayInputs::resolve(&g, "b", "v", Some("v")).unwrap();
        assert!(narrow.integral && !scaled.integral);
        let missing = GatewayInputs::resolve(&g, "a", "x", None).err();
        assert_eq!(missing, Some(GraphError::NoSuchGateway { name: "x".into() }));
        narrow.store(&mut g, -3i32 as u32, true, false);
        scaled.store(&mut g, -3i32 as u32, true, false);
        assert_eq!(g.input_value(narrow.data), Fix::from_int(-3, FixFmt::INT16));
        let converted =
            Fix::from_int(-3, FixFmt::INT32).convert(q, Overflow::Wrap, Rounding::Truncate);
        assert_eq!(g.input_value(scaled.data), converted);
        assert_eq!(g.input_value(scaled.data).raw(), -48);
        assert!(!narrow.hold_idle(&g));
        narrow.store(&mut g, 0x1_0000, false, false);
        assert!(narrow.hold_idle(&g), "bits above the gateway's word are dropped");
    }
}
