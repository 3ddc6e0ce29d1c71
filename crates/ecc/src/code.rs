//! The [`SystematicCode`] trait and the [`AnyCode`] runtime-selectable wrapper.

use crate::{HsiaoSecDed, ParityCode, ResidueCode, SecCode};

/// Result of decoding a stored (data, check) pair with a systematic code.
///
/// "Corrected" variants report what the decoder *would* do; whether a
/// correction is actually applied is decided by the error-reporting policy
/// layered on top (see [`crate::report`]), which is exactly where SwapCodes
/// intervenes to avoid miscorrecting pipeline errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawDecode {
    /// The word is a codeword; no error observed.
    Clean,
    /// The syndrome points at a single data bit; `data` is the corrected word.
    CorrectedData {
        /// Index of the data bit the decoder believes is in error.
        bit: u32,
        /// Data with that bit flipped back.
        data: u32,
    },
    /// The syndrome points at a single check bit; the data is untouched.
    CorrectedCheck {
        /// Index of the check bit the decoder believes is in error.
        bit: u32,
    },
    /// A detectable-but-uncorrectable error (DUE).
    Detected,
}

/// A systematic error code protecting a 32-bit data word.
///
/// A *systematic* code keeps data and check bits in fixed, separate positions;
/// all practical register-file ECCs are systematic, and SwapCodes requires
/// this property so that the shadow instruction can overwrite only the
/// check-bit segment of a register.
pub trait SystematicCode {
    /// Number of check bits this code appends to a 32-bit word.
    fn check_width(&self) -> u32;

    /// Compute the check bits for `data`.
    fn encode(&self, data: u32) -> u16;

    /// Decode a stored pair, reporting what the decoder observes.
    fn decode(&self, data: u32, check: u16) -> RawDecode;

    /// Whether this code ever attempts to *correct* (vs. merely detect).
    fn corrects(&self) -> bool;

    /// `true` when `(data, check)` is a codeword. Default: decode is clean.
    fn is_codeword(&self, data: u32, check: u16) -> bool {
        self.decode(data, check) == RawDecode::Clean
    }

    /// Mask covering the valid check bits.
    fn check_mask(&self) -> u16 {
        ((1u32 << self.check_width()) - 1) as u16
    }
}

/// Identifies one of the register-file code configurations evaluated in the
/// paper (Fig. 11 and §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeKind {
    /// Single-bit even parity.
    Parity,
    /// Low-cost residue code with modulus `2^a - 1`.
    Residue {
        /// Width of the residue check in bits (modulus is `2^a - 1`).
        a: u8,
    },
    /// Hamming SEC (38,32), correction enabled.
    Sec,
    /// Hsiao SEC-DED (39,32), correction enabled.
    SecDed,
    /// Hsiao SEC-DED used detection-only: a triple-error-detecting code.
    Ted,
}

impl CodeKind {
    /// All code configurations swept in Fig. 11, weakest to strongest.
    #[must_use]
    pub fn figure11_sweep() -> Vec<CodeKind> {
        let mut v = vec![CodeKind::Parity];
        for a in 2..=8 {
            v.push(CodeKind::Residue { a });
        }
        v.push(CodeKind::Ted);
        v.push(CodeKind::SecDed);
        v
    }

    /// Short human-readable label (matches the paper's figure axes).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            CodeKind::Parity => "Parity".to_owned(),
            CodeKind::Residue { a } => format!("Mod-{}", (1u32 << a) - 1),
            CodeKind::Sec => "SEC".to_owned(),
            CodeKind::SecDed => "SEC-DED".to_owned(),
            CodeKind::Ted => "TED".to_owned(),
        }
    }

    /// Construct the code this kind names.
    #[must_use]
    pub fn build(self) -> AnyCode {
        match self {
            CodeKind::Parity => AnyCode::Parity(ParityCode::new()),
            CodeKind::Residue { a } => AnyCode::Residue(ResidueCode::new(a)),
            CodeKind::Sec => AnyCode::Sec(SecCode::new()),
            CodeKind::SecDed => AnyCode::SecDed(HsiaoSecDed::new()),
            CodeKind::Ted => AnyCode::Ted(HsiaoSecDed::new()),
        }
    }
}

impl std::fmt::Display for CodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A runtime-selectable systematic code (enum dispatch over the concrete
/// implementations).
#[derive(Debug, Clone)]
pub enum AnyCode {
    /// Single-bit parity.
    Parity(ParityCode),
    /// Low-cost residue code.
    Residue(ResidueCode),
    /// Hamming SEC with correction.
    Sec(SecCode),
    /// Hsiao SEC-DED with correction.
    SecDed(HsiaoSecDed),
    /// Hsiao SEC-DED decoded detection-only (TED).
    Ted(HsiaoSecDed),
}

impl AnyCode {
    /// The [`CodeKind`] this code was built from.
    #[must_use]
    pub fn kind(&self) -> CodeKind {
        match self {
            AnyCode::Parity(_) => CodeKind::Parity,
            AnyCode::Residue(r) => CodeKind::Residue { a: r.width() },
            AnyCode::Sec(_) => CodeKind::Sec,
            AnyCode::SecDed(_) => CodeKind::SecDed,
            AnyCode::Ted(_) => CodeKind::Ted,
        }
    }
}

impl SystematicCode for AnyCode {
    fn check_width(&self) -> u32 {
        match self {
            AnyCode::Parity(c) => c.check_width(),
            AnyCode::Residue(c) => c.check_width(),
            AnyCode::Sec(c) => c.check_width(),
            AnyCode::SecDed(c) | AnyCode::Ted(c) => c.check_width(),
        }
    }

    fn encode(&self, data: u32) -> u16 {
        match self {
            AnyCode::Parity(c) => c.encode(data),
            AnyCode::Residue(c) => c.encode(data),
            AnyCode::Sec(c) => c.encode(data),
            AnyCode::SecDed(c) | AnyCode::Ted(c) => c.encode(data),
        }
    }

    fn decode(&self, data: u32, check: u16) -> RawDecode {
        match self {
            AnyCode::Parity(c) => c.decode(data, check),
            AnyCode::Residue(c) => c.decode(data, check),
            AnyCode::Sec(c) => c.decode(data, check),
            AnyCode::SecDed(c) => c.decode(data, check),
            // Detection-only use: any inconsistency is a DUE, never a
            // correction.
            AnyCode::Ted(c) => {
                if c.decode(data, check) == RawDecode::Clean {
                    RawDecode::Clean
                } else {
                    RawDecode::Detected
                }
            }
        }
    }

    fn corrects(&self) -> bool {
        matches!(self, AnyCode::Sec(_) | AnyCode::SecDed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_build() {
        for kind in CodeKind::figure11_sweep() {
            assert_eq!(kind.build().kind(), kind);
        }
    }

    #[test]
    fn labels_match_paper_axes() {
        assert_eq!(CodeKind::Residue { a: 2 }.label(), "Mod-3");
        assert_eq!(CodeKind::Residue { a: 7 }.label(), "Mod-127");
        assert_eq!(CodeKind::Residue { a: 8 }.label(), "Mod-255");
        assert_eq!(CodeKind::SecDed.label(), "SEC-DED");
    }

    #[test]
    fn sweep_orders_weakest_first() {
        let sweep = CodeKind::figure11_sweep();
        assert_eq!(sweep.first(), Some(&CodeKind::Parity));
        assert_eq!(sweep.last(), Some(&CodeKind::SecDed));
        assert_eq!(sweep.len(), 10);
    }

    #[test]
    fn ted_never_corrects() {
        let ted = CodeKind::Ted.build();
        let sec_ded = CodeKind::SecDed.build();
        let data = 0x1234_5678_u32;
        let check = sec_ded.encode(data);
        // Single-bit data error: SEC-DED corrects, TED detects.
        let flipped = data ^ 1;
        assert!(matches!(
            sec_ded.decode(flipped, check),
            RawDecode::CorrectedData { .. }
        ));
        assert_eq!(ted.decode(flipped, check), RawDecode::Detected);
        assert!(!ted.corrects());
        assert!(sec_ded.corrects());
    }

    #[test]
    fn encode_is_deterministic_across_clones() {
        let code = CodeKind::SecDed.build();
        let clone = code.clone();
        for data in [0u32, 1, 0xFFFF_FFFF, 0xA5A5_5A5A] {
            assert_eq!(code.encode(data), clone.encode(data));
        }
    }
}
