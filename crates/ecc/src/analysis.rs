//! Exhaustive and sampled code-strength analysis: classify the outcome of
//! every (or a sample of) error pattern(s) of a given weight against a code,
//! separately for storage errors (anywhere in the word) and pipeline errors
//! (confined to the data segment, as SwapCodes construction guarantees).

use crate::code::{RawDecode, SystematicCode};

/// Outcome counts for one error-weight class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// Errors corrected back to the original data.
    pub corrected: u64,
    /// Errors flagged as DUEs (including data-correction syndromes that the
    /// DP reporting converts to DUEs for pipeline patterns).
    pub detected: u64,
    /// Errors "corrected" to the wrong data (the silent-corruption path of a
    /// correcting code).
    pub miscorrected: u64,
    /// Errors invisible to the code (syndrome zero).
    pub silent: u64,
}

impl CoverageReport {
    /// Total patterns evaluated.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.corrected + self.detected + self.miscorrected + self.silent
    }

    /// Fraction of patterns that end in silent corruption (silent +
    /// miscorrected).
    #[must_use]
    pub fn sdc_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.silent + self.miscorrected) as f64 / self.total() as f64
        }
    }
}

/// Enumerate all `weight`-bit error patterns over `bits` positions, calling
/// `f` with each pattern as a bit-position list.
fn for_each_pattern(bits: u32, weight: u32, f: &mut impl FnMut(&[u32])) {
    fn rec(bits: u32, weight: u32, start: u32, acc: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
        if weight == 0 {
            f(acc);
            return;
        }
        for b in start..=(bits - weight) {
            acc.push(b);
            rec(bits, weight - 1, b + 1, acc, f);
            acc.pop();
        }
    }
    rec(bits, weight, 0, &mut Vec::new(), f);
}

/// Exhaustively classify all `weight`-bit *storage* errors (data and check
/// bits both corruptible) for `data`.
///
/// # Panics
///
/// Panics if `weight` is 0 or exceeds the codeword width.
#[must_use]
pub fn storage_coverage<C: SystematicCode>(code: &C, data: u32, weight: u32) -> CoverageReport {
    let width = 32 + code.check_width();
    assert!(weight >= 1 && weight <= width, "bad error weight {weight}");
    let check = code.encode(data);
    let mut report = CoverageReport::default();
    for_each_pattern(width, weight, &mut |bits| {
        let mut d = data;
        let mut c = check;
        for &b in bits {
            if b < 32 {
                d ^= 1 << b;
            } else {
                c ^= 1 << (b - 32);
            }
        }
        classify(code, data, d, c, &mut report, false);
    });
    report
}

/// Exhaustively classify all `weight`-bit *pipeline* error patterns: the
/// swapped-codeword construction confines them to the data segment (the
/// stored check bits remain those of the golden value), and the DP reporting
/// rule converts correctable-looking syndromes into DUEs because the data
/// parity — produced from the faulty data itself — always reads consistent.
#[must_use]
pub fn pipeline_coverage<C: SystematicCode>(code: &C, data: u32, weight: u32) -> CoverageReport {
    assert!(
        (1..=32).contains(&weight),
        "bad pipeline error weight {weight}"
    );
    let check = code.encode(data);
    let mut report = CoverageReport::default();
    for_each_pattern(32, weight, &mut |bits| {
        let mut d = data;
        for &b in bits {
            d ^= 1 << b;
        }
        classify(code, data, d, check, &mut report, true);
    });
    report
}

fn classify<C: SystematicCode>(
    code: &C,
    golden: u32,
    data: u32,
    check: u16,
    report: &mut CoverageReport,
    pipeline: bool,
) {
    match code.decode(data, check) {
        RawDecode::Clean => {
            if data == golden {
                report.corrected += 1; // error cancelled itself (weight 0 net)
            } else {
                report.silent += 1;
            }
        }
        RawDecode::CorrectedData { data: fixed, .. } => {
            if pipeline {
                // DP rule: data parity is consistent, so this raises a DUE.
                report.detected += 1;
            } else if fixed == golden {
                report.corrected += 1;
            } else {
                report.miscorrected += 1;
            }
        }
        RawDecode::CorrectedCheck { .. } => {
            if data == golden {
                report.corrected += 1;
            } else {
                // Data is wrong but the decoder blessed it (the footnote-3
                // alias for pipeline patterns).
                report.silent += 1;
            }
        }
        RawDecode::Detected => report.detected += 1,
    }
}

/// Summarise a code's guaranteed strength: the largest weight `w` such that
/// every storage error of weight `<= w` is corrected, and the largest `d`
/// such that every storage error of weight `<= d` is corrected-or-detected
/// (checked empirically up to `max_weight` on the given data word).
#[must_use]
pub fn guaranteed_strength<C: SystematicCode>(code: &C, data: u32, max_weight: u32) -> (u32, u32) {
    let mut correct_to = 0;
    let mut detect_to = 0;
    for w in 1..=max_weight {
        let r = storage_coverage(code, data, w);
        if r.miscorrected == 0 && r.silent == 0 && r.detected == 0 && correct_to == w - 1 {
            correct_to = w;
        }
        if r.miscorrected == 0 && r.silent == 0 && detect_to == w - 1 {
            detect_to = w;
        }
    }
    (correct_to, detect_to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeKind, HsiaoSecDed};

    const DATA: u32 = 0x3C5A_96E1;

    #[test]
    fn secded_strength_is_1_correct_2_detect() {
        let code = HsiaoSecDed::new();
        assert_eq!(guaranteed_strength(&code, DATA, 3), (1, 2));
    }

    #[test]
    fn sec_strength_is_1_correct_1_detect() {
        let code = CodeKind::Sec.build();
        let (c, d) = guaranteed_strength(&code, DATA, 2);
        assert_eq!(c, 1);
        assert_eq!(d, 1, "SEC miscorrects some doubles");
    }

    #[test]
    fn ted_detects_up_to_three() {
        let code = CodeKind::Ted.build();
        for w in 1..=3 {
            let r = storage_coverage(&code, DATA, w);
            assert_eq!(r.miscorrected + r.silent, 0, "weight {w}");
        }
        // Some 4-bit patterns alias.
        let r4 = storage_coverage(&code, DATA, 4);
        assert!(r4.silent > 0);
    }

    #[test]
    fn pipeline_coverage_is_full_for_small_deltas() {
        let code = HsiaoSecDed::new();
        for w in 1..=2 {
            let r = pipeline_coverage(&code, DATA, w);
            assert_eq!(r.silent + r.miscorrected, 0, "weight {w}");
            assert_eq!(r.detected, r.total());
        }
        // Weight-3 pipeline deltas can alias to check-column syndromes
        // (the quantified footnote-3 hole) but never miscorrect.
        let r3 = pipeline_coverage(&code, DATA, 3);
        assert_eq!(r3.miscorrected, 0);
        assert!(r3.sdc_fraction() < 0.25);
    }

    #[test]
    fn residue_pipeline_silence_matches_alias_count() {
        // For a residue code, silent weight-w patterns are exactly the
        // deltas that leave the value congruent mod A.
        let code = CodeKind::Residue { a: 3 }.build();
        let r = pipeline_coverage(&code, DATA, 3);
        let mut expect_silent = 0;
        for_each_pattern(32, 3, &mut |bits| {
            let mut d = DATA;
            for &b in bits {
                d ^= 1 << b;
            }
            if u64::from(d) % 7 == u64::from(DATA) % 7 {
                expect_silent += 1;
            }
        });
        assert_eq!(r.silent, expect_silent);
    }

    #[test]
    fn reports_add_up() {
        let code = HsiaoSecDed::new();
        let r = storage_coverage(&code, DATA, 2);
        // C(39, 2) patterns.
        assert_eq!(r.total(), 39 * 38 / 2);
    }
}
