//! Swapped-codeword composition and pipeline-error detection predicates.
//!
//! The core SwapCodes idea: the register file holds the *data* produced by the
//! original instruction together with the *check bits* produced by its shadow.
//! A single pipeline error strikes either the original or the shadow — never
//! both — so it can corrupt the data or the check bits of a codeword, but not
//! both, and the ordinary register-file ECC decoder observes it on the next
//! read. This module provides:
//!
//! * [`SwappedWord`] / [`compose`] — the swapped write-back itself;
//! * [`original_strike`] / [`shadow_strike`] — classification of what happens
//!   when a pipeline error corrupts one of the two instruction outcomes,
//!   the predicate evaluated per injection in the Fig. 11 campaigns;
//! * [`classify_strike64`] — the 64-bit-output rule (an error is detected if
//!   *either* constituent 32-bit register produces a DUE).

use crate::code::{RawDecode, SystematicCode};

/// A register-file word as stored under Swap-ECC with a detection-only code
/// (no data-parity bit needed; see [`crate::report`] for correcting codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwappedWord {
    /// Data segment, from the original instruction.
    pub data: u32,
    /// Check bits, swapped in from the shadow instruction.
    pub check: u16,
}

/// Compose the stored word from the two instruction outcomes.
///
/// In error-free operation `original == shadow` and the result is an ordinary
/// codeword — which is what keeps Swap-ECC debuggable: an intervening
/// interrupt (e.g. cuda-gdb) can read any register without a false DUE.
#[must_use]
pub fn compose<C: SystematicCode>(code: &C, original: u32, shadow: u32) -> SwappedWord {
    SwappedWord {
        data: original,
        check: code.encode(shadow),
    }
}

/// Which of the duplicated instruction pair a pipeline error struck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrikeTarget {
    /// The data-producing original instruction.
    Original,
    /// The check-bit-producing shadow instruction.
    Shadow,
}

/// Outcome of a pipeline error under SwapCodes, as seen at the next register
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrikeOutcome {
    /// The faulty value equals the golden value: the error was masked before
    /// reaching the register.
    Masked,
    /// The register-file decoder raised a DUE: the error is contained.
    Detected,
    /// Corrupted data passed the decoder silently: silent data corruption.
    SilentCorruption,
    /// The decoder saw nothing, but the stored data is correct anyway (a
    /// shadow-side error whose wrong check bits happen to alias): harmless.
    Benign,
}

impl StrikeOutcome {
    /// `true` for the outcome the Fig. 11 "SDC risk" metric counts.
    #[must_use]
    pub fn is_sdc(self) -> bool {
        self == StrikeOutcome::SilentCorruption
    }
}

/// Outcome when the *original* (data-producing) instruction computes `faulty`
/// instead of `golden`.
///
/// The stored word is `(faulty, encode(golden))`; any inconsistency the code
/// can see is a detection. The SwapCodes reporting layer guarantees that a
/// "correctable-looking" syndrome is flagged rather than miscorrected (the
/// data-parity rule), so for SDC-risk purposes a non-clean decode is a
/// detection for correcting codes too.
#[must_use]
pub fn original_strike<C: SystematicCode>(code: &C, golden: u32, faulty: u32) -> StrikeOutcome {
    if golden == faulty {
        return StrikeOutcome::Masked;
    }
    match code.decode(faulty, code.encode(golden)) {
        RawDecode::Clean => StrikeOutcome::SilentCorruption,
        // A check-bit "correction" leaves the faulty data in place and raises
        // no DUE: silent corruption through the footnote-3 reporting hole
        // (only reachable by >=3-bit deltas whose syndrome aliases to a
        // weight-1 column; counted honestly as SDC).
        RawDecode::CorrectedCheck { .. } => StrikeOutcome::SilentCorruption,
        // Data-correction syndromes are converted to DUEs by the DP rule; for
        // detection-only codes they are plain detections.
        RawDecode::CorrectedData { .. } | RawDecode::Detected => StrikeOutcome::Detected,
    }
}

/// Outcome when the *shadow* (check-producing) instruction computes `faulty`.
///
/// The stored data is golden; at worst the read raises a spurious-looking DUE
/// (still a correct, contained outcome), and an aliasing check pattern is
/// harmless because the data is right.
#[must_use]
pub fn shadow_strike<C: SystematicCode>(code: &C, golden: u32, faulty: u32) -> StrikeOutcome {
    if golden == faulty {
        return StrikeOutcome::Masked;
    }
    match code.decode(golden, code.encode(faulty)) {
        RawDecode::Clean => StrikeOutcome::Benign,
        // Under the DP rule a data-correction syndrome with consistent parity
        // raises a DUE instead of miscorrecting; a check "correction" leaves
        // the (correct) data alone. Either way the data survives.
        RawDecode::CorrectedCheck { .. } => StrikeOutcome::Benign,
        RawDecode::CorrectedData { .. } | RawDecode::Detected => StrikeOutcome::Detected,
    }
}

/// In-place correction entry point for the recovery subsystem: when the
/// decoder's syndrome identifies a single corrupted *data* bit, return the
/// corrected data word.
///
/// Under swapped codewords the "correction" restores the value the *shadow*
/// computed (the check bits came from it), which is the golden value for an
/// original-side strike but the *faulty* value for a shadow-side strike —
/// the two cases are locally indistinguishable, which is exactly why the
/// Fig. 5 data-parity rule refuses to correct and raises a DUE instead. The
/// paper claims detection only; applying this correction is a recovery
/// *policy choice* whose miscorrection rate must be measured, never assumed
/// zero (see `sim::recovery`).
#[must_use]
pub fn try_correct_data<C: SystematicCode>(code: &C, word: SwappedWord) -> Option<u32> {
    match code.decode(word.data, word.check) {
        RawDecode::CorrectedData { data, .. } => Some(data),
        _ => None,
    }
}

/// Apply the 64-bit-output rule of the paper's coverage study: the result is
/// split across two 32-bit registers, and the error counts as detected if
/// *either* register raises a DUE.
#[must_use]
pub fn classify_strike64<C: SystematicCode>(
    code: &C,
    target: StrikeTarget,
    golden: u64,
    faulty: u64,
) -> StrikeOutcome {
    if golden == faulty {
        return StrikeOutcome::Masked;
    }
    let classify = |g: u32, f: u32| match target {
        StrikeTarget::Original => original_strike(code, g, f),
        StrikeTarget::Shadow => shadow_strike(code, g, f),
    };
    let lo = classify(golden as u32, faulty as u32);
    let hi = classify((golden >> 32) as u32, (faulty >> 32) as u32);
    combine(lo, hi)
}

/// Classify a 32-bit-output strike (convenience mirror of
/// [`classify_strike64`]).
#[must_use]
pub fn classify_strike32<C: SystematicCode>(
    code: &C,
    target: StrikeTarget,
    golden: u32,
    faulty: u32,
) -> StrikeOutcome {
    match target {
        StrikeTarget::Original => original_strike(code, golden, faulty),
        StrikeTarget::Shadow => shadow_strike(code, golden, faulty),
    }
}

fn combine(lo: StrikeOutcome, hi: StrikeOutcome) -> StrikeOutcome {
    use StrikeOutcome::{Benign, Detected, Masked, SilentCorruption};
    match (lo, hi) {
        (Detected, _) | (_, Detected) => Detected,
        (SilentCorruption, _) | (_, SilentCorruption) => SilentCorruption,
        (Benign, _) | (_, Benign) => Benign,
        (Masked, Masked) => Masked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeKind, HsiaoSecDed, ResidueCode};

    #[test]
    fn error_free_composition_is_a_codeword() {
        let code = HsiaoSecDed::new();
        for v in [0u32, 42, u32::MAX, 0xDEAD_BEEF] {
            let w = compose(&code, v, v);
            assert!(code.is_codeword(w.data, w.check));
        }
    }

    #[test]
    fn correction_restores_original_strike_but_miscorrects_shadow_strike() {
        let code = HsiaoSecDed::new();
        let golden = 0x0BAD_F00D_u32;
        let faulty = golden ^ (1 << 13);
        // Original strike: data faulty, check from the (clean) shadow.
        let orig = compose(&code, faulty, golden);
        assert_eq!(try_correct_data(&code, orig), Some(golden));
        // Shadow strike: data already golden; the proposed "correction"
        // drags it to the shadow's faulty value — a miscorrection.
        let shad = compose(&code, golden, faulty);
        assert_eq!(try_correct_data(&code, shad), Some(faulty));
        // Clean words and uncorrectable syndromes correct nothing.
        assert_eq!(
            try_correct_data(&code, compose(&code, golden, golden)),
            None
        );
    }

    #[test]
    fn single_bit_original_strikes_always_detected_with_secded() {
        let code = HsiaoSecDed::new();
        let golden = 0x0BAD_F00D_u32;
        for bit in 0..32 {
            assert_eq!(
                original_strike(&code, golden, golden ^ (1 << bit)),
                StrikeOutcome::Detected
            );
        }
    }

    #[test]
    fn double_bit_strikes_always_detected_with_secded() {
        let code = HsiaoSecDed::new();
        let golden = 0x1122_3344_u32;
        for i in 0..32u32 {
            for j in (i + 1)..32 {
                assert_eq!(
                    original_strike(&code, golden, golden ^ (1 << i) ^ (1 << j)),
                    StrikeOutcome::Detected,
                    "2-bit ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn triple_bit_strikes_mostly_detected_with_secded() {
        // 3-bit data deltas can alias to a weight-1 (check-column) syndrome,
        // which the footnote-3 reporting treats as a benign check-bit storage
        // correction — the one residual SDC path for small deltas. Measure
        // that it is rare.
        let code = HsiaoSecDed::new();
        let golden = 0x1122_3344_u32;
        let mut total = 0u32;
        let mut sdc = 0u32;
        for i in 0..32u32 {
            for j in (i + 1)..32 {
                for k in (j + 1)..32 {
                    total += 1;
                    let faulty = golden ^ (1 << i) ^ (1 << j) ^ (1 << k);
                    if original_strike(&code, golden, faulty).is_sdc() {
                        sdc += 1;
                    }
                }
            }
        }
        let frac = f64::from(sdc) / f64::from(total);
        assert!(frac < 0.25, "3-bit SDC fraction {frac} unexpectedly high");
    }

    #[test]
    fn shadow_strikes_never_corrupt() {
        for kind in CodeKind::figure11_sweep() {
            let code = kind.build();
            let golden = 0xAAAA_5555_u32;
            for bit in 0..32 {
                let out = shadow_strike(&code, golden, golden ^ (1 << bit));
                assert!(
                    !out.is_sdc(),
                    "{kind}: shadow strike on bit {bit} corrupted data"
                );
            }
        }
    }

    #[test]
    fn residue_misses_exactly_modulus_multiples() {
        let code = ResidueCode::new(3); // mod 7
        let golden = 1_000_000u32;
        assert_eq!(
            original_strike(&code, golden, golden + 7),
            StrikeOutcome::SilentCorruption
        );
        assert_eq!(
            original_strike(&code, golden, golden + 6),
            StrikeOutcome::Detected
        );
    }

    #[test]
    fn sixty_four_bit_rule_detects_if_either_half_does() {
        let code = HsiaoSecDed::new();
        let golden = 0x0123_4567_89AB_CDEF_u64;
        // Corrupt only the high half.
        let faulty = golden ^ (1u64 << 40);
        assert_eq!(
            classify_strike64(&code, StrikeTarget::Original, golden, faulty),
            StrikeOutcome::Detected
        );
    }

    #[test]
    fn masked_strikes_are_masked() {
        let code = HsiaoSecDed::new();
        assert_eq!(
            classify_strike64(&code, StrikeTarget::Original, 7, 7),
            StrikeOutcome::Masked
        );
        assert_eq!(
            classify_strike32(&code, StrikeTarget::Shadow, 7, 7),
            StrikeOutcome::Masked
        );
    }
}
