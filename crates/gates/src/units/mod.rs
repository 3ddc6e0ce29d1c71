//! The pipelined arithmetic units under study (Fig. 10 of the paper) and the
//! SwapCodes support circuits of Table IV.
//!
//! Six datapath units are modelled, matching the paper's gate-level injection
//! targets: fixed-point add and multiply-add, and binary32/binary64
//! floating-point add and fused multiply-add. Each is a pipelined netlist
//! with registered inputs, a register stage at the natural mid-point (MAD and
//! FP units), and registered outputs, so that transient faults can strike
//! pipeline state as well as logic.

mod codec;
mod fp;
mod fxp;

pub use codec::{
    mad_residue_predictor, move_propagate_mux, recoding_residue_encoder, residue_add_predictor,
    residue_encoder, secded_add_predictor, secded_decoder, secded_dp_report_logic,
};
pub use fp::{fp_add, fp_fma};
pub use fxp::{fxp_add32, fxp_add32_ripple, fxp_mad32};

use crate::netlist::Netlist;
use crate::softfloat;

/// Which arithmetic unit a netlist implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKind {
    /// 32-bit fixed-point adder.
    FxpAdd32,
    /// 32x32+64 fixed-point multiply-add (64-bit result).
    FxpMad32,
    /// binary32 floating-point adder.
    FpAdd32,
    /// binary32 fused multiply-add.
    FpFma32,
    /// binary64 floating-point adder.
    FpAdd64,
    /// binary64 fused multiply-add.
    FpFma64,
}

impl UnitKind {
    /// Display label matching the paper's Fig. 10 x-axis.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            UnitKind::FxpAdd32 => "FxP Add",
            UnitKind::FxpMad32 => "FxP MAD",
            UnitKind::FpAdd32 => "Fp32 Add",
            UnitKind::FpFma32 => "Fp32 MAD",
            UnitKind::FpAdd64 => "Fp64 Add",
            UnitKind::FpFma64 => "Fp64 MAD",
        }
    }

    /// Number of operand words the unit consumes.
    #[must_use]
    pub fn input_count(self) -> usize {
        match self {
            UnitKind::FxpAdd32 | UnitKind::FpAdd32 | UnitKind::FpAdd64 => 2,
            UnitKind::FxpMad32 | UnitKind::FpFma32 | UnitKind::FpFma64 => 3,
        }
    }

    /// Width of each operand word in bits.
    #[must_use]
    pub fn operand_widths(self) -> [u32; 3] {
        match self {
            UnitKind::FxpAdd32 | UnitKind::FpAdd32 => [32, 32, 0],
            UnitKind::FxpMad32 => [32, 32, 64],
            UnitKind::FpFma32 => [32, 32, 32],
            UnitKind::FpAdd64 => [64, 64, 0],
            UnitKind::FpFma64 => [64, 64, 64],
        }
    }

    /// Width of the result in bits (32-bit results occupy one register,
    /// 64-bit results a register pair).
    #[must_use]
    pub fn output_bits(self) -> u32 {
        match self {
            UnitKind::FxpAdd32 | UnitKind::FpAdd32 | UnitKind::FpFma32 => 32,
            UnitKind::FxpMad32 | UnitKind::FpAdd64 | UnitKind::FpFma64 => 64,
        }
    }
}

/// A pipelined arithmetic unit: a netlist plus its operational metadata.
#[derive(Debug, Clone)]
pub struct ArithUnit {
    kind: UnitKind,
    netlist: Netlist,
}

impl ArithUnit {
    pub(crate) fn new(kind: UnitKind, netlist: Netlist) -> Self {
        Self { kind, netlist }
    }

    /// Which unit this is.
    #[must_use]
    pub fn kind(&self) -> UnitKind {
        self.kind
    }

    /// The gate-level netlist. Output word 0 is the arithmetic result.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The bit-exact software reference for this unit (the injection golden
    /// value is the fault-free circuit output; this reference exists to
    /// *test* the circuit).
    #[must_use]
    pub fn reference(&self, inputs: [u64; 3]) -> u64 {
        let [a, b, c] = inputs;
        match self.kind {
            UnitKind::FxpAdd32 => u64::from((a as u32).wrapping_add(b as u32)),
            UnitKind::FxpMad32 => u64::from(a as u32)
                .wrapping_mul(u64::from(b as u32))
                .wrapping_add(c),
            UnitKind::FpAdd32 => softfloat::add32(a, b),
            UnitKind::FpFma32 => softfloat::fma32(a, b, c),
            UnitKind::FpAdd64 => softfloat::add64(a, b),
            UnitKind::FpFma64 => softfloat::fma64(a, b, c),
        }
    }
}

/// Build the 32-bit fixed-point adder unit.
#[must_use]
pub fn build_unit(kind: UnitKind) -> ArithUnit {
    match kind {
        UnitKind::FxpAdd32 => fxp_add32(),
        UnitKind::FxpMad32 => fxp_mad32(),
        UnitKind::FpAdd32 => fp_add(softfloat::BINARY32),
        UnitKind::FpFma32 => fp_fma(softfloat::BINARY32),
        UnitKind::FpAdd64 => fp_add(softfloat::BINARY64),
        UnitKind::FpFma64 => fp_fma(softfloat::BINARY64),
    }
}

/// All six units of the paper's coverage study, in Fig. 10 order.
#[must_use]
pub fn all_units() -> Vec<ArithUnit> {
    [
        UnitKind::FxpAdd32,
        UnitKind::FxpMad32,
        UnitKind::FpAdd32,
        UnitKind::FpFma32,
        UnitKind::FpAdd64,
        UnitKind::FpFma64,
    ]
    .into_iter()
    .map(build_unit)
    .collect()
}
