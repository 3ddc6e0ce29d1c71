//! Protection scheme descriptors.

use swapcodes_isa::{Kernel, Op};
use swapcodes_sim::{Launch, Protection};

use crate::{interthread, swapecc, swdup};

/// Which operations a Swap-Predict configuration covers with hardware
/// check-bit prediction units (the Fig. 12 / Fig. 16 ladder). Sets are
/// cumulative: each named preset includes everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredictorSet {
    /// Fixed-point add/subtract (residue EAC adders).
    pub fxp_add_sub: bool,
    /// Fixed-point multiply and multiply-add, including the mixed-width
    /// `IMAD.WIDE` (the Fig. 9 residue unit).
    pub fxp_mul_mad: bool,
    /// Other fixed-point: logic, shifts, min/max, selects, conversions
    /// (predictable per Rao's checking logic; "Other FxP" in Fig. 16).
    pub other_fxp: bool,
    /// Floating-point add/subtract (future-work predictors, Fig. 16).
    pub fp_add_sub: bool,
    /// Floating-point multiply and fused multiply-add (Fig. 16's "Fp-MAD").
    pub fp_mul_mad: bool,
}

impl PredictorSet {
    /// No prediction (pure Swap-ECC; moves are still propagated).
    pub const NONE: PredictorSet = PredictorSet {
        fxp_add_sub: false,
        fxp_mul_mad: false,
        other_fxp: false,
        fp_add_sub: false,
        fp_mul_mad: false,
    };

    /// "Pre AddSub": fixed-point add/subtract prediction (§IV-C).
    pub const ADD_SUB: PredictorSet = PredictorSet {
        fxp_add_sub: true,
        ..PredictorSet::NONE
    };

    /// "Pre MAD": add/subtract plus multiply/MAD prediction — the most
    /// aggressive fully-evaluated organization (§IV-C).
    pub const MAD: PredictorSet = PredictorSet {
        fxp_mul_mad: true,
        ..PredictorSet::ADD_SUB
    };

    /// Fig. 16 "Other FxP": every fixed-point operation.
    pub const OTHER_FXP: PredictorSet = PredictorSet {
        other_fxp: true,
        ..PredictorSet::MAD
    };

    /// Fig. 16 "Fp-AddSub": adds floating-point add/subtract predictors.
    pub const FP_ADD_SUB: PredictorSet = PredictorSet {
        fp_add_sub: true,
        ..PredictorSet::OTHER_FXP
    };

    /// Fig. 16 "Fp-MAD": full floating-point prediction.
    pub const FP_MAD: PredictorSet = PredictorSet {
        fp_mul_mad: true,
        ..PredictorSet::FP_ADD_SUB
    };

    /// Whether this set predicts `op` (moves are handled separately by
    /// end-to-end move propagation).
    #[must_use]
    pub fn covers(&self, op: &Op) -> bool {
        match op {
            Op::IAdd { .. } | Op::ISub { .. } => self.fxp_add_sub,
            Op::IMul { .. } | Op::IMad { .. } | Op::IMadWide { .. } => self.fxp_mul_mad,
            Op::Shl { .. }
            | Op::Shr { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
            | Op::Not { .. }
            | Op::IMin { .. }
            | Op::IMax { .. }
            | Op::Sel { .. }
            | Op::I2F { .. }
            | Op::F2I { .. } => self.other_fxp,
            Op::FAdd { .. } | Op::FMin { .. } | Op::FMax { .. } | Op::DAdd { .. } => {
                self.fp_add_sub
            }
            Op::FMul { .. } | Op::FFma { .. } | Op::DMul { .. } | Op::DFma { .. } => {
                self.fp_mul_mad
            }
            _ => false,
        }
    }

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        if self.fp_mul_mad {
            "Fp-MAD"
        } else if self.fp_add_sub {
            "Fp-AddSub"
        } else if self.other_fxp {
            "Other FxP"
        } else if self.fxp_mul_mad {
            "Pre MAD"
        } else if self.fxp_add_sub {
            "Pre AddSub"
        } else {
            "Swap-ECC"
        }
    }
}

/// A pipeline error protection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The un-duplicated program.
    Baseline,
    /// Software-enforced intra-thread duplication with explicit checks.
    SwDup,
    /// Swap-ECC: swapped codewords, implicit checking on register reads.
    SwapEcc,
    /// Swap-Predict: Swap-ECC plus the given hardware predictor set.
    SwapPredict(PredictorSet),
    /// Inter-thread duplication (§V). `checked` enables the shuffle-based
    /// checking instructions; `false` models the theoretical no-checking
    /// variant of Fig. 15.
    InterThread {
        /// Whether checking shuffles/compares are emitted.
        checked: bool,
    },
}

impl Scheme {
    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Scheme::Baseline => "Original".to_owned(),
            Scheme::SwDup => "SW-Dup".to_owned(),
            Scheme::SwapEcc => "Swap-ECC".to_owned(),
            Scheme::SwapPredict(p) => p.label().to_owned(),
            Scheme::InterThread { checked: true } => "Inter-Thread".to_owned(),
            Scheme::InterThread { checked: false } => "Inter-Thread (no checks)".to_owned(),
        }
    }

    /// The Fig. 12 scheme sweep.
    #[must_use]
    pub fn figure12_sweep() -> Vec<Scheme> {
        vec![
            Scheme::SwDup,
            Scheme::SwapEcc,
            Scheme::SwapPredict(PredictorSet::ADD_SUB),
            Scheme::SwapPredict(PredictorSet::MAD),
        ]
    }

    /// The Fig. 16 future-predictor sweep.
    #[must_use]
    pub fn figure16_sweep() -> Vec<Scheme> {
        vec![
            Scheme::SwapPredict(PredictorSet::MAD),
            Scheme::SwapPredict(PredictorSet::OTHER_FXP),
            Scheme::SwapPredict(PredictorSet::FP_ADD_SUB),
            Scheme::SwapPredict(PredictorSet::FP_MAD),
        ]
    }

    pub(crate) fn apply(
        self,
        kernel: &Kernel,
        launch: Launch,
    ) -> Result<Transformed, TransformError> {
        match self {
            Scheme::Baseline => Ok(Transformed {
                kernel: kernel.clone(),
                launch,
                protection: Protection::None,
            }),
            Scheme::SwDup => Ok(Transformed {
                kernel: swdup::transform(kernel),
                launch,
                protection: Protection::None,
            }),
            Scheme::SwapEcc => Ok(Transformed {
                kernel: swapecc::transform(kernel, PredictorSet::NONE),
                launch,
                protection: Protection::SecDedDp,
            }),
            Scheme::SwapPredict(set) => Ok(Transformed {
                kernel: swapecc::transform(kernel, set),
                launch,
                protection: Protection::SecDedDp,
            }),
            Scheme::InterThread { checked } => {
                interthread::transform(kernel, launch, checked).map(|(kernel, launch)| {
                    Transformed {
                        kernel,
                        launch,
                        protection: Protection::None,
                    }
                })
            }
        }
    }
}

/// A scheme application result: the kernel to run, its launch geometry, and
/// the register-file protection it assumes.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The transformed kernel.
    pub kernel: Kernel,
    /// The (possibly thread-doubled) launch.
    pub launch: Launch,
    /// Register-file protection required by the scheme.
    pub protection: Protection,
}

/// Why a scheme could not be applied to a kernel (the §V transparency
/// failures of inter-thread duplication).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformError {
    /// Thread doubling would exceed the maximum CTA size.
    TooManyThreads {
        /// Threads the doubled CTA would need.
        required: u32,
        /// The hardware CTA limit.
        limit: u32,
    },
    /// The kernel uses intra-warp shuffle communication.
    UsesShuffles,
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::TooManyThreads { required, limit } => write!(
                f,
                "inter-thread duplication needs {required} threads per CTA (limit {limit})"
            ),
            TransformError::UsesShuffles => {
                write!(
                    f,
                    "inter-thread duplication cannot split shuffle-using warps"
                )
            }
        }
    }
}

impl std::error::Error for TransformError {}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_isa::{Reg, Src};

    #[test]
    fn predictor_sets_are_cumulative() {
        let add = Op::IAdd {
            d: Reg(0),
            a: Reg(1),
            b: Src::Imm(1),
        };
        let mad = Op::IMadWide {
            d: Reg(0),
            a: Reg(2),
            b: Reg(3),
            c: Reg(4),
        };
        let ffma = Op::FFma {
            d: Reg(0),
            a: Reg(1),
            b: Reg(2),
            c: Reg(3),
        };
        assert!(PredictorSet::ADD_SUB.covers(&add));
        assert!(!PredictorSet::ADD_SUB.covers(&mad));
        assert!(PredictorSet::MAD.covers(&mad));
        assert!(PredictorSet::MAD.covers(&add));
        assert!(!PredictorSet::MAD.covers(&ffma));
        assert!(PredictorSet::FP_MAD.covers(&ffma));
    }

    #[test]
    fn labels() {
        assert_eq!(Scheme::SwDup.label(), "SW-Dup");
        assert_eq!(Scheme::SwapPredict(PredictorSet::MAD).label(), "Pre MAD");
        assert_eq!(Scheme::SwapPredict(PredictorSet::FP_MAD).label(), "Fp-MAD");
    }

    #[test]
    fn sweeps_have_paper_cardinality() {
        assert_eq!(Scheme::figure12_sweep().len(), 4);
        assert_eq!(Scheme::figure16_sweep().len(), 4);
    }
}
