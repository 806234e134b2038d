//! Bindings between FSL channels and block-graph gateways.
//!
//! In the paper, the *MicroBlaze Simulink block* "implements the FSL FIFO
//! and the data input and output interfaces" and moves words between the
//! processor simulation and the System Generator design (§III-A/B). A
//! [`FslToHw`]/[`FslFromHw`] pair describes exactly that wiring for one
//! channel: which gateway ports of the peripheral graph carry the FSL
//! data, valid and control signals.

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
