//! SwapCodes detection evaluation per register-file code (Fig. 11).
//!
//! Each unmasked gate-level injection yields a (golden, faulty) output pair.
//! Under SwapCodes the corrupted result is stored with the *shadow's*
//! (correct) check bits, so the error survives undetected only if the faulty
//! data aliases into a codeword with the golden check bits; for 64-bit
//! results the error counts as detected if *either* 32-bit register raises a
//! DUE.

use swapcodes_ecc::swap::{classify_strike32, classify_strike64, StrikeOutcome, StrikeTarget};
use swapcodes_ecc::{AnyCode, CodeKind};

use crate::gate::UnitCampaignResult;
use crate::stats::Proportion;

/// Detection outcome tally for one (unit, code) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionTally {
    /// Errors flagged as DUEs.
    pub detected: u64,
    /// Errors that silently corrupted data.
    pub sdc: u64,
    /// Errors with no architectural effect (should not occur for
    /// original-strike evaluation of unmasked records).
    pub benign: u64,
}

impl DetectionTally {
    /// Total evaluated errors.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.detected + self.sdc + self.benign
    }

    /// The Fig. 11 SDC-risk proportion.
    #[must_use]
    pub fn sdc_risk(&self) -> Proportion {
        Proportion::new(self.sdc, self.total())
    }
}

/// Evaluate a campaign's records against one code (original-instruction
/// strikes — shadow strikes cannot corrupt, see
/// [`swapcodes_ecc::swap::shadow_strike`]).
#[must_use]
pub fn sdc_risk(result: &UnitCampaignResult, kind: CodeKind) -> DetectionTally {
    let code: AnyCode = kind.build();
    let mut tally = DetectionTally::default();
    for r in &result.records {
        let outcome = if result.output_bits == 64 {
            classify_strike64(&code, StrikeTarget::Original, r.golden, r.faulty)
        } else {
            classify_strike32(
                &code,
                StrikeTarget::Original,
                r.golden as u32,
                r.faulty as u32,
            )
        };
        match outcome {
            StrikeOutcome::Detected => tally.detected += 1,
            StrikeOutcome::SilentCorruption => tally.sdc += 1,
            StrikeOutcome::Benign | StrikeOutcome::Masked => tally.benign += 1,
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::InjectionRecord;

    fn fake_result(records: Vec<InjectionRecord>, bits: u32) -> UnitCampaignResult {
        UnitCampaignResult {
            unit_label: "test",
            output_bits: bits,
            records,
            fully_masked_inputs: 0,
            attempts: 0,
        }
    }

    #[test]
    fn single_bit_errors_always_detected_by_secded() {
        let records = (0..32)
            .map(|b| InjectionRecord {
                golden: 0xAAAA_5555,
                faulty: 0xAAAA_5555 ^ (1 << b),
            })
            .collect();
        let tally = sdc_risk(&fake_result(records, 32), CodeKind::SecDed);
        assert_eq!(tally.detected, 32);
        assert_eq!(tally.sdc, 0);
    }

    #[test]
    fn residue_misses_multiples_of_the_modulus() {
        let records = vec![
            InjectionRecord {
                golden: 100,
                faulty: 103,
            }, // +3: aliases mod 3
            InjectionRecord {
                golden: 100,
                faulty: 101,
            }, // +1: detected
        ];
        let tally = sdc_risk(&fake_result(records, 32), CodeKind::Residue { a: 2 });
        assert_eq!(tally.sdc, 1);
        assert_eq!(tally.detected, 1);
    }

    #[test]
    fn wide_outputs_use_the_either_half_rule() {
        let records = vec![InjectionRecord {
            golden: 0x0000_0001_0000_0000,
            faulty: 0x0000_0002_0000_0000, // two bit flips in the high half
        }];
        let tally = sdc_risk(&fake_result(records, 64), CodeKind::SecDed);
        assert_eq!(tally.detected, 1);
    }
}
