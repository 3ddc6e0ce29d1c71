//! Error-reporting algorithms that keep storage correction safe under
//! SwapCodes (Fig. 5 of the paper: SEC-DED-DP and SEC-DP).
//!
//! With swapped codewords, a correctable-looking syndrome is ambiguous: it may
//! be a genuine single-bit *storage* error (correct it) or a single-bit
//! *pipeline* error in the ECC-producing shadow instruction (correcting would
//! corrupt error-free data — the miscorrection hazard of §III-B). The
//! data-parity (DP) schemes disambiguate with one extra parity bit generated
//! from the data segment only, by the *original* instruction:
//!
//! * a storage error corrupts the data, so the data parity mismatches —
//!   correction is allowed;
//! * a pipeline error in the shadow leaves the data untouched, so the data
//!   parity stays consistent — the decoder raises a DUE instead of
//!   miscorrecting.

use crate::code::{RawDecode, SystematicCode};
use crate::{parity32, HsiaoSecDed, SecCode};

/// A register-file word stored under a data-parity reporting scheme.
///
/// `check` is written by the shadow instruction (the swap); `data` and
/// `data_parity` are written by the original instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DpWord {
    /// The 32-bit data segment.
    pub data: u32,
    /// The ECC check bits (swapped in from the shadow instruction).
    pub check: u16,
    /// Even parity over the data segment only, from the original instruction.
    pub data_parity: bool,
}

/// What a register read observed, for the augmented error-reporting subsystem
/// (Table II: "separate storage from pipeline errors").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadEvent {
    /// No inconsistency.
    Clean,
    /// A single-bit storage error in the data was corrected.
    CorrectedData {
        /// The corrected data-bit index.
        bit: u32,
    },
    /// A single-bit storage error in the check bits was corrected
    /// (data untouched; see footnote 3 of the paper).
    CorrectedCheck {
        /// The corrected check-bit index.
        bit: u32,
    },
    /// The data-parity bit itself suffered a storage error (data untouched).
    CorrectedParity,
    /// Detected-uncorrectable error attributed to the pipeline: the syndrome
    /// asks for a data correction but the data parity says the data is
    /// intact, so correcting would miscorrect a compute error.
    DuePipeline,
    /// Detected-uncorrectable error that cannot be attributed.
    DueStorage,
}

impl ReadEvent {
    /// Whether this read must raise a machine-check (any DUE).
    #[must_use]
    pub fn is_due(self) -> bool {
        matches!(self, ReadEvent::DuePipeline | ReadEvent::DueStorage)
    }

    /// Whether a (safe) correction was performed.
    #[must_use]
    pub fn is_correction(self) -> bool {
        matches!(
            self,
            ReadEvent::CorrectedData { .. }
                | ReadEvent::CorrectedCheck { .. }
                | ReadEvent::CorrectedParity
        )
    }
}

/// The value returned by a protected register read, with its event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// The (possibly corrected) data handed to the pipeline.
    pub value: u32,
    /// What the error-reporting logic observed.
    pub event: ReadEvent,
}

/// A data-parity reporter layered over a correcting code (Fig. 5).
///
/// `DpReporter<HsiaoSecDed>` is SEC-DED-DP (40 bits/register, works with any
/// SEC-DED code); `DpReporter<SecCode>` is SEC-DP (39 bits — within the
/// original SEC-DED redundancy — at the price of layout-sensitive double-bit
/// storage coverage, see [`crate::layout`]).
#[derive(Debug, Clone)]
pub struct DpReporter<C> {
    code: C,
}

/// SEC-DED with data parity: the general Swap-ECC storage-correcting scheme.
pub type SecDedDp = DpReporter<HsiaoSecDed>;

/// SEC with data parity: fits in SEC-DED redundancy via code downgrade.
pub type SecDp = DpReporter<SecCode>;

impl SecDedDp {
    /// Build the SEC-DED-DP reporter.
    #[must_use]
    pub fn new_secded_dp() -> Self {
        DpReporter::new(HsiaoSecDed::new())
    }
}

impl SecDp {
    /// Build the SEC-DP reporter.
    #[must_use]
    pub fn new_sec_dp() -> Self {
        DpReporter::new(SecCode::new())
    }
}

impl<C: SystematicCode> DpReporter<C> {
    /// Layer data-parity reporting over `code`.
    ///
    /// # Panics
    ///
    /// Panics if `code` is detection-only (DP reporting exists precisely to
    /// make *correction* safe).
    #[must_use]
    pub fn new(code: C) -> Self {
        assert!(
            code.corrects(),
            "data-parity reporting needs a correcting code"
        );
        Self { code }
    }

    /// The underlying correcting code.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// Total redundant bits per 32-bit register (check bits + data parity).
    #[must_use]
    pub fn redundancy(&self) -> u32 {
        self.code.check_width() + 1
    }

    /// The full write performed by an *original* instruction: data, check
    /// bits and data parity. (Under Swap-ECC the check segment will later be
    /// overwritten by the shadow.)
    #[must_use]
    pub fn encode_original(&self, data: u32) -> DpWord {
        DpWord {
            data,
            check: self.code.encode(data),
            data_parity: parity32(data),
        }
    }

    /// The check bits a *shadow* instruction writes (masked write-back:
    /// neither data nor parity are touched).
    #[must_use]
    pub fn shadow_check(&self, shadow_result: u32) -> u16 {
        self.code.encode(shadow_result)
    }

    /// Decode a stored word with the Fig. 5 reporting algorithm.
    ///
    /// Data correction is permitted *only* when the data parity confirms the
    /// data segment is corrupted; a correctable-looking syndrome with
    /// consistent data parity is flagged [`ReadEvent::DuePipeline`].
    #[must_use]
    pub fn read(&self, word: DpWord) -> ReadResult {
        let parity_consistent = parity32(word.data) == word.data_parity;
        match self.code.decode(word.data, word.check) {
            RawDecode::Clean => ReadResult {
                value: word.data,
                event: if parity_consistent {
                    ReadEvent::Clean
                } else {
                    // Codeword intact, parity bit disagrees: the parity bit
                    // itself took a storage hit.
                    ReadEvent::CorrectedParity
                },
            },
            RawDecode::CorrectedCheck { bit } => ReadResult {
                value: word.data,
                event: if parity_consistent {
                    // Check-bit storage error; correcting it never touches
                    // data (footnote 3).
                    ReadEvent::CorrectedCheck { bit }
                } else {
                    // Check-bit error AND a parity inconsistency: at least
                    // two independent errors.
                    ReadEvent::DueStorage
                },
            },
            RawDecode::CorrectedData { bit, data } => {
                if parity_consistent {
                    // The data parity vouches for the data: the "correctable"
                    // syndrome must come from wrong check bits, i.e. a
                    // pipeline error in the shadow instruction. Never
                    // miscorrect — raise a DUE.
                    ReadResult {
                        value: word.data,
                        event: ReadEvent::DuePipeline,
                    }
                } else {
                    ReadResult {
                        value: data,
                        event: ReadEvent::CorrectedData { bit },
                    }
                }
            }
            RawDecode::Detected => ReadResult {
                value: word.data,
                event: ReadEvent::DueStorage,
            },
        }
    }
}

/// A conventional correcting reporter *without* data parity, provided to
/// demonstrate the miscorrection hazard that motivates the DP schemes.
///
/// Under swapped codewords this reporter will happily "correct" (i.e.
/// corrupt) error-free data when the shadow instruction suffers a single-bit
/// pipeline error.
#[derive(Debug, Clone)]
pub struct PlainCorrectingReporter<C> {
    code: C,
}

impl<C: SystematicCode> PlainCorrectingReporter<C> {
    /// Wrap a correcting code with unconditional-correction reporting.
    #[must_use]
    pub fn new(code: C) -> Self {
        Self { code }
    }

    /// Decode, applying any correction the code suggests.
    #[must_use]
    pub fn read(&self, data: u32, check: u16) -> ReadResult {
        match self.code.decode(data, check) {
            RawDecode::Clean => ReadResult {
                value: data,
                event: ReadEvent::Clean,
            },
            RawDecode::CorrectedData { bit, data } => ReadResult {
                value: data,
                event: ReadEvent::CorrectedData { bit },
            },
            RawDecode::CorrectedCheck { bit } => ReadResult {
                value: data,
                event: ReadEvent::CorrectedCheck { bit },
            },
            RawDecode::Detected => ReadResult {
                value: data,
                event: ReadEvent::DueStorage,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secded_dp() -> SecDedDp {
        SecDedDp::new_secded_dp()
    }

    fn sec_dp() -> SecDp {
        SecDp::new_sec_dp()
    }

    const PATTERNS: [u32; 5] = [0, u32::MAX, 0xDEAD_BEEF, 0x8000_0001, 0x5555_AAAA];

    #[test]
    fn clean_words_read_clean() {
        let rep = secded_dp();
        for data in PATTERNS {
            let w = rep.encode_original(data);
            let r = rep.read(w);
            assert_eq!(r.value, data);
            assert_eq!(r.event, ReadEvent::Clean);
        }
    }

    #[test]
    fn all_single_bit_storage_errors_are_corrected_secded_dp() {
        let rep = secded_dp();
        for data in PATTERNS {
            let clean = rep.encode_original(data);
            // Data bits.
            for bit in 0..32 {
                let mut w = clean;
                w.data ^= 1 << bit;
                let r = rep.read(w);
                assert_eq!(r.value, data, "data bit {bit}");
                assert_eq!(r.event, ReadEvent::CorrectedData { bit });
            }
            // Check bits.
            for bit in 0..7 {
                let mut w = clean;
                w.check ^= 1 << bit;
                let r = rep.read(w);
                assert_eq!(r.value, data);
                assert_eq!(r.event, ReadEvent::CorrectedCheck { bit });
            }
            // Parity bit.
            let mut w = clean;
            w.data_parity = !w.data_parity;
            let r = rep.read(w);
            assert_eq!(r.value, data);
            assert_eq!(r.event, ReadEvent::CorrectedParity);
        }
    }

    #[test]
    fn all_single_bit_storage_errors_are_corrected_sec_dp() {
        let rep = sec_dp();
        for data in PATTERNS {
            let clean = rep.encode_original(data);
            for bit in 0..32 {
                let mut w = clean;
                w.data ^= 1 << bit;
                let r = rep.read(w);
                assert_eq!(r.value, data, "data bit {bit}");
            }
            for bit in 0..6 {
                let mut w = clean;
                w.check ^= 1 << bit;
                assert_eq!(rep.read(w).value, data);
            }
        }
    }

    /// The central SwapCodes safety property: a single-bit pipeline error in
    /// the shadow instruction must never be "corrected" into the data.
    #[test]
    fn shadow_pipeline_errors_never_miscorrect() {
        let rep = secded_dp();
        for golden in PATTERNS {
            for bit in 0..32u32 {
                let faulty_shadow = golden ^ (1 << bit);
                let word = DpWord {
                    data: golden,
                    check: rep.shadow_check(faulty_shadow),
                    data_parity: parity32(golden),
                };
                let r = rep.read(word);
                assert_eq!(r.value, golden, "bit {bit}: data was corrupted");
                assert_eq!(r.event, ReadEvent::DuePipeline, "bit {bit}");
            }
        }
    }

    /// The same scenario WITHOUT data parity miscorrects — the hazard that
    /// motivates SEC-DED-DP.
    #[test]
    fn plain_secded_miscorrects_shadow_pipeline_errors() {
        let code = HsiaoSecDed::new();
        let plain = PlainCorrectingReporter::new(code.clone());
        let golden = 0xCAFE_BABE_u32;
        let mut miscorrections = 0;
        for bit in 0..32u32 {
            let faulty_shadow = golden ^ (1 << bit);
            let r = plain.read(golden, code.encode(faulty_shadow));
            if r.value != golden {
                miscorrections += 1;
            }
        }
        assert_eq!(
            miscorrections, 32,
            "every single-bit shadow error miscorrects without DP"
        );
    }

    /// Original-instruction pipeline errors keep their faulty data but must
    /// raise a DUE (detection, which duplication then acts on).
    #[test]
    fn original_pipeline_single_bit_errors_are_detected() {
        let rep = secded_dp();
        for golden in PATTERNS {
            for bit in 0..32u32 {
                let faulty = golden ^ (1 << bit);
                let word = DpWord {
                    data: faulty,
                    check: rep.shadow_check(golden),
                    data_parity: parity32(faulty),
                };
                let r = rep.read(word);
                assert!(r.event.is_due(), "bit {bit} silently passed");
            }
        }
    }

    #[test]
    fn double_bit_storage_errors_detected_secded_dp() {
        let rep = secded_dp();
        let data = 0x0F1E_2D3C_u32;
        let clean = rep.encode_original(data);
        // Sample data-data, data-check and check-check doubles.
        for i in 0..39u32 {
            for j in (i + 1)..39 {
                let mut w = clean;
                for &b in &[i, j] {
                    if b < 32 {
                        w.data ^= 1 << b;
                    } else {
                        w.check ^= 1 << (b - 32);
                    }
                }
                let r = rep.read(w);
                assert!(r.event.is_due(), "double ({i},{j}) produced {:?}", r.event);
            }
        }
    }

    #[test]
    fn sec_dp_detects_almost_all_data_data_doubles() {
        // Double-bit storage errors confined to the data segment flip the
        // data parity twice (consistent) — a correctable-looking syndrome
        // with consistent parity raises a DUE rather than miscorrecting.
        // The only escapes are syndromes that alias to a weight-1 check
        // column ("almost double-bit error detection", §III-B).
        let rep = sec_dp();
        let data = 0x1234_5678_u32;
        let clean = rep.encode_original(data);
        let mut total = 0u32;
        let mut due = 0u32;
        let mut miscorrected = 0u32;
        for i in 0..32u32 {
            for j in (i + 1)..32 {
                let mut w = clean;
                w.data ^= (1 << i) | (1 << j);
                let r = rep.read(w);
                total += 1;
                if r.event.is_due() {
                    due += 1;
                } else if r.value != w.data {
                    miscorrected += 1;
                }
            }
        }
        assert_eq!(miscorrected, 0, "DP must never actively miscorrect these");
        assert!(
            f64::from(due) / f64::from(total) > 0.85,
            "only {due}/{total} data-data doubles raised a DUE"
        );
    }

    #[test]
    fn sec_dp_has_data_check_double_holes() {
        // The documented SEC-DP weakness (closed by codeword layout): some
        // data-bit + check-bit doubles miscorrect. Verify they exist.
        let rep = sec_dp();
        let data = 0u32;
        let clean = rep.encode_original(data);
        let mut holes = 0;
        for i in 0..32u32 {
            for j in 0..6u32 {
                let mut w = clean;
                w.data ^= 1 << i;
                w.check ^= 1 << j;
                let r = rep.read(w);
                if !r.event.is_due() && r.value != data {
                    holes += 1;
                }
            }
        }
        assert!(holes > 0, "expected data+check double-bit coverage holes");
    }

    #[test]
    fn redundancy_counts() {
        assert_eq!(secded_dp().redundancy(), 8); // 7 + 1 (needs the spare SRAM bit)
        assert_eq!(sec_dp().redundancy(), 7); // fits SEC-DED redundancy
    }
}
