//! Low-cost residue codes and the residue arithmetic behind Swap-Predict.
//!
//! Low-cost residue codes use a checking modulus one less than a power of two,
//! `A = 2^a - 1`, so that the residue of an `N`-bit number can be generated by
//! end-around-carry addition of its `N/a` non-overlapping bit slices
//! (a carry-save multi-operand modular adder followed by an end-around-carry
//! carry-propagate adder in hardware; see §III-C of the paper). Residues are
//! closed under modular addition and multiplication, which makes them ideal
//! for *check-bit prediction*: a narrow `a`-bit residue datapath can compute
//! the check bits of an arithmetic result without re-executing the operation.
//!
//! This module implements:
//!
//! * [`ResidueCode`] — the systematic detection-only register-file code;
//! * [`Residue`] — a residue value with modular `+`, `-`, `×`;
//! * [`ResidueMadPredictor`] — prediction for the mixed-operand-width GPU MAD
//!   (`32b × 32b + 64b → 64b`), including the `|2^32|_A` addend correction of
//!   Eq. 1 and the carry-out handling needed because the datapath result
//!   wraps at 64 bits;
//! * [`ResidueRecoder`] — the modified encoder of Fig. 9b that *recodes* a
//!   64-bit result residue into the residues of its two 32-bit register
//!   halves (`Zadj` subtraction), with the Table III carry adjustment.

use crate::code::{RawDecode, SystematicCode};

/// A residue value modulo `A = 2^a - 1`.
///
/// The value is kept *canonical* in `0..A`; the all-ones pattern (the "double
/// zero" of low-cost residue encodings) is accepted on input and normalised
/// to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Residue {
    value: u8,
    a: u8,
}

impl Residue {
    /// The canonical residue value, in `0..modulus`.
    #[must_use]
    pub fn value(self) -> u8 {
        self.value
    }

    /// The check width `a` in bits.
    #[must_use]
    pub fn width(self) -> u8 {
        self.a
    }

    /// The checking modulus `A = 2^a - 1`.
    #[must_use]
    pub fn modulus(self) -> u16 {
        (1u16 << self.a) - 1
    }

    fn canon(raw: u16, a: u8) -> Self {
        let m = (1u16 << a) - 1;
        let mut v = raw;
        while v > m {
            v = (v & m) + (v >> a);
        }
        if v == m {
            v = 0;
        }
        Residue { value: v as u8, a }
    }

    /// Modular addition (an `a`-bit end-around-carry adder in hardware).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the moduli differ.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Residue) -> Residue {
        debug_assert_eq!(self.a, rhs.a, "mismatched residue moduli");
        Residue::canon(u16::from(self.value) + u16::from(rhs.value), self.a)
    }

    /// Modular subtraction, implemented as addition of the complement
    /// (`-x ≡ !x (mod 2^a - 1)` for an `a`-bit `x`).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Residue) -> Residue {
        self.add(rhs.neg())
    }

    /// Modular negation.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Residue {
        // Bitwise complement within a bits: x + !x = 2^a - 1 ≡ 0.
        Residue::canon(!u16::from(self.value) & self.modulus(), self.a)
    }

    /// Modular multiplication (partial-product CS-MOMA + EAC adder in
    /// hardware).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Residue) -> Residue {
        debug_assert_eq!(self.a, rhs.a, "mismatched residue moduli");
        let product = u32::from(self.value) * u32::from(rhs.value);
        // Fold the 2a-bit product. Two fold rounds always suffice for a <= 8.
        let m = u32::from(self.modulus());
        let mut v = product;
        while v > m {
            v = (v & m) + (v >> self.a);
        }
        Residue::canon(v as u16, self.a)
    }

    /// Whether two residues are congruent (accepting the double-zero).
    #[must_use]
    pub fn congruent(self, rhs: Residue) -> bool {
        self.a == rhs.a && self.value == rhs.value
    }
}

/// A low-cost residue register-file code with modulus `2^a - 1`.
///
/// # Example
///
/// ```
/// use swapcodes_ecc::{ResidueCode, SystematicCode, RawDecode};
///
/// let mod7 = ResidueCode::new(3);
/// assert_eq!(mod7.modulus(), 7);
/// let check = mod7.encode(100);
/// assert_eq!(u32::from(check), 100 % 7);
/// assert_eq!(mod7.decode(101, check), RawDecode::Detected);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResidueCode {
    a: u8,
}

impl ResidueCode {
    /// Create a residue code with check width `a` (modulus `2^a - 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= a <= 8` (the low-cost moduli 3..255 considered in
    /// the paper).
    #[must_use]
    pub fn new(a: u8) -> Self {
        assert!((2..=8).contains(&a), "check width {a} outside 2..=8");
        ResidueCode { a }
    }

    /// The check width `a` in bits.
    #[must_use]
    pub fn width(self) -> u8 {
        self.a
    }

    /// The checking modulus `A = 2^a - 1`.
    #[must_use]
    pub fn modulus(self) -> u16 {
        (1u16 << self.a) - 1
    }

    /// Residue of a 32-bit value (the hardware residue generator: bit-slice
    /// fold through a CS-MOMA and EAC adder).
    #[must_use]
    pub fn of_u32(self, x: u32) -> Residue {
        self.of_u128(u128::from(x))
    }

    /// Residue of a 64-bit value.
    #[must_use]
    pub fn of_u64(self, x: u64) -> Residue {
        self.of_u128(u128::from(x))
    }

    /// Residue of an up-to-128-bit value.
    #[must_use]
    pub fn of_u128(self, x: u128) -> Residue {
        let a = u32::from(self.a);
        let m = u128::from(self.modulus());
        // Sum the non-overlapping a-bit slices, then fold the carries back
        // around until the sum fits (end-around carry).
        let mut acc: u128 = 0;
        let mut rest = x;
        while rest != 0 {
            acc += rest & m;
            rest >>= a;
        }
        while acc > m {
            acc = (acc & m) + (acc >> a);
        }
        Residue::canon(acc as u16, self.a)
    }

    /// The residue with canonical value `v`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` exceeds the modulus.
    #[must_use]
    pub fn residue(self, v: u16) -> Residue {
        debug_assert!(v <= self.modulus());
        Residue::canon(v, self.a)
    }

    /// `|2^k|_A` — always a power of two for a low-cost modulus, because
    /// `2^a ≡ 1 (mod 2^a - 1)`.
    #[must_use]
    pub fn pow2(self, k: u32) -> Residue {
        Residue::canon(1u16 << (k % u32::from(self.a)), self.a)
    }

    /// `|2^-k|_A` — the multiplicative inverse of `2^k`, also a power of two.
    #[must_use]
    pub fn pow2_inv(self, k: u32) -> Residue {
        let a = u32::from(self.a);
        self.pow2((a - (k % a)) % a)
    }
}

impl SystematicCode for ResidueCode {
    fn check_width(&self) -> u32 {
        u32::from(self.a)
    }

    fn encode(&self, data: u32) -> u16 {
        u16::from(self.of_u32(data).value())
    }

    fn decode(&self, data: u32, check: u16) -> RawDecode {
        let recomputed = self.of_u32(data);
        let stored = Residue::canon(check & self.check_mask(), self.a);
        if recomputed.congruent(stored) {
            RawDecode::Clean
        } else {
            RawDecode::Detected
        }
    }

    fn corrects(&self) -> bool {
        false
    }
}

/// Residue check-bit prediction for the GPU multiply-add,
/// `Z = X * Y + C` with 32-bit `X`, `Y` and a 64-bit addend `C` delivered as
/// two 32-bit register halves (§III-C, Fig. 9a).
///
/// The register file supplies `|C_hi|_A` and `|C_lo|_A` rather than `|C|_A`;
/// Eq. 1 of the paper recovers the full addend residue as
/// `|C|_A = |C_hi|_A ⊗ |2^32|_A ⊕ |C_lo|_A`, where `|2^32|_A` is a power of
/// two for every low-cost modulus (so the multiply is just wiring).
#[derive(Debug, Clone, Copy)]
pub struct ResidueMadPredictor {
    code: ResidueCode,
}

impl ResidueMadPredictor {
    /// Build a predictor for `code`.
    #[must_use]
    pub fn new(code: ResidueCode) -> Self {
        Self { code }
    }

    /// The code being predicted.
    #[must_use]
    pub fn code(&self) -> ResidueCode {
        self.code
    }

    /// The addend correction factor `|2^32|_A` (1, 4, 1, 4, 4, 16, 1 for
    /// moduli 3, 7, 15, 31, 63, 127, 255).
    #[must_use]
    pub fn correction_factor(&self) -> Residue {
        self.code.pow2(32)
    }

    /// Recover `|C|_A` from the two register-half residues (Eq. 1).
    #[must_use]
    pub fn full_addend_residue(&self, c_hi: Residue, c_lo: Residue) -> Residue {
        c_hi.mul(self.correction_factor()).add(c_lo)
    }

    /// Predict `|X*Y + C|_A` for the un-wrapped (infinitely wide) result.
    #[must_use]
    pub fn predict(&self, x: Residue, y: Residue, c_hi: Residue, c_lo: Residue) -> Residue {
        x.mul(y).add(self.full_addend_residue(c_hi, c_lo))
    }

    /// Predict the residue of the 64-bit *register* result, which wraps at
    /// bit 64. The datapath's carry-out of bit 64 selects whether to subtract
    /// `|2^64|_A`.
    #[must_use]
    pub fn predict_wrapped(
        &self,
        x: Residue,
        y: Residue,
        c_hi: Residue,
        c_lo: Residue,
        carry_out: bool,
    ) -> Residue {
        let full = self.predict(x, y, c_hi, c_lo);
        if carry_out {
            full.sub(self.code.pow2(64))
        } else {
            full
        }
    }
}

/// The modified residue encoder of Fig. 9b.
///
/// With `Pred? = 0` it encodes an instruction output directly. With
/// `Pred? = 1` it *recodes* the predicted full-result residue `Rz` into the
/// residues of the two 32-bit words written back to the register file:
/// `Zadj` — the output segment *not* currently being written — is subtracted
/// out of `Rz` (by adding its bitwise inverse, with the Table III carry
/// adjustment making the complement arithmetic exact).
#[derive(Debug, Clone, Copy)]
pub struct ResidueRecoder {
    code: ResidueCode,
}

impl ResidueRecoder {
    /// Build a recoder for `code`.
    #[must_use]
    pub fn new(code: ResidueCode) -> Self {
        Self { code }
    }

    /// Plain encode path (`Pred? = 0`).
    #[must_use]
    pub fn encode(&self, value: u32) -> Residue {
        self.code.of_u32(value)
    }

    /// Residue for the low register of a 64-bit result:
    /// `|Z_lo|_A = Rz ⊖ |Z_hi|_A ⊗ |2^32|_A` (`Zadj = Z_hi`).
    #[must_use]
    pub fn recode_low(&self, rz: Residue, zadj_hi: Residue) -> Residue {
        rz.sub(zadj_hi.mul(self.code.pow2(32)))
    }

    /// Residue for the high register of a 64-bit result:
    /// `|Z_hi|_A = (Rz ⊖ |Z_lo|_A) ⊗ |2^-32|_A` (`Zadj = Z_lo`).
    #[must_use]
    pub fn recode_high(&self, rz: Residue, zadj_lo: Residue) -> Residue {
        rz.sub(zadj_lo).mul(self.code.pow2_inv(32))
    }

    /// Recode both halves at once.
    #[must_use]
    pub fn recode(&self, rz: Residue, z_lo: u32, z_hi: u32) -> (Residue, Residue) {
        let r_lo_direct = self.code.of_u32(z_lo);
        let r_hi_direct = self.code.of_u32(z_hi);
        (
            self.recode_low(rz, r_hi_direct),
            self.recode_high(rz, r_lo_direct),
        )
    }
}

/// The Table III carry-in/carry-out adjustment residue.
///
/// When the recoding adder folds `!Zadj` into `Rz`, the end-around complement
/// arithmetic leaves a `+Cin - Cout` discrepancy. Low-cost residues are
/// encoded with a double zero, so the proper adjustment is formed by a
/// residue whose bottom bit is the carry-in and whose remaining `a-1` bits
/// are all set to the carry-out:
///
/// | Cout | Cin | pattern (a=4) | adjustment |
/// |------|-----|---------------|------------|
/// | 0    | 0   | `0000`        | +0         |
/// | 0    | 1   | `0001`        | +1         |
/// | 1    | 0   | `1110`        | −1         |
/// | 1    | 1   | `1111`        | −0         |
///
/// # Panics
///
/// Panics unless `2 <= a <= 8`.
#[must_use]
pub fn carry_adjustment(a: u8, carry_out: bool, carry_in: bool) -> Residue {
    assert!((2..=8).contains(&a), "check width {a} outside 2..=8");
    let m = (1u16 << a) - 1;
    let mut pattern = 0u16;
    if carry_in {
        pattern |= 1;
    }
    if carry_out {
        pattern |= m & !1;
    }
    Residue::canon(pattern, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_widths() -> impl Iterator<Item = u8> {
        2..=8u8
    }

    #[test]
    fn fold_matches_direct_modulo() {
        for a in all_widths() {
            let code = ResidueCode::new(a);
            let m = u128::from(code.modulus());
            for x in [
                0u128,
                1,
                u128::from(u32::MAX),
                u128::from(u64::MAX),
                0x0123_4567_89AB_CDEF_u128,
                u128::MAX,
            ] {
                assert_eq!(u128::from(code.of_u128(x).value()), x % m, "a={a} x={x:#x}");
            }
        }
    }

    #[test]
    fn double_zero_is_accepted() {
        for a in all_widths() {
            let code = ResidueCode::new(a);
            // A stored all-ones check is congruent to zero.
            assert_eq!(code.decode(0, code.modulus()), RawDecode::Clean);
        }
    }

    #[test]
    fn modular_ops_match_integer_arithmetic() {
        for a in all_widths() {
            let code = ResidueCode::new(a);
            let m = u32::from(code.modulus());
            for x in 0..m {
                for y in (0..m).step_by(3) {
                    let rx = code.residue(x as u16);
                    let ry = code.residue(y as u16);
                    assert_eq!(u32::from(rx.add(ry).value()), (x + y) % m);
                    assert_eq!(u32::from(rx.mul(ry).value()), (x * y) % m);
                    assert_eq!(u32::from(rx.sub(ry).value()), (x + m - y) % m);
                }
            }
        }
    }

    #[test]
    fn correction_factors_match_paper() {
        // Paper: moduli 3, 7, 15, 31, 63, 127, 255 have correction factors
        // 1, 4, 1, 4, 4, 16, 1.
        let expected = [(2u8, 1u8), (3, 4), (4, 1), (5, 4), (6, 4), (7, 16), (8, 1)];
        for (a, factor) in expected {
            let pred = ResidueMadPredictor::new(ResidueCode::new(a));
            assert_eq!(pred.correction_factor().value(), factor, "a={a}");
        }
    }

    #[test]
    fn eq1_recovers_full_addend_residue() {
        for a in all_widths() {
            let code = ResidueCode::new(a);
            let pred = ResidueMadPredictor::new(code);
            for c in [
                0u64,
                1,
                u64::MAX,
                0xFFFF_FFFF_0000_0001,
                0x1234_5678_9ABC_DEF0,
            ] {
                let hi = code.of_u32((c >> 32) as u32);
                let lo = code.of_u32(c as u32);
                assert_eq!(
                    pred.full_addend_residue(hi, lo),
                    code.of_u64(c),
                    "a={a} c={c:#x}"
                );
            }
        }
    }

    #[test]
    fn mad_prediction_matches_datapath() {
        for a in all_widths() {
            let code = ResidueCode::new(a);
            let pred = ResidueMadPredictor::new(code);
            let cases = [
                (0u32, 0u32, 0u64),
                (u32::MAX, u32::MAX, u64::MAX),
                (0x8000_0000, 2, 0x7FFF_FFFF_FFFF_FFFF),
                (12345, 67890, 0xDEAD_BEEF_CAFE_F00D),
            ];
            for (x, y, c) in cases {
                let full = u128::from(x) * u128::from(y) + u128::from(c);
                let wrapped = full as u64;
                let carry_out = (full >> 64) != 0;
                let rx = code.of_u32(x);
                let ry = code.of_u32(y);
                let chi = code.of_u32((c >> 32) as u32);
                let clo = code.of_u32(c as u32);
                assert_eq!(
                    pred.predict(rx, ry, chi, clo),
                    code.of_u128(full),
                    "unwrapped a={a}"
                );
                assert_eq!(
                    pred.predict_wrapped(rx, ry, chi, clo, carry_out),
                    code.of_u64(wrapped),
                    "wrapped a={a} x={x:#x} y={y:#x} c={c:#x}"
                );
            }
        }
    }

    #[test]
    fn recode_splits_match_direct_encoding() {
        for a in all_widths() {
            let code = ResidueCode::new(a);
            let rec = ResidueRecoder::new(code);
            for z in [0u64, u64::MAX, 0x0000_0001_FFFF_FFFF, 0xFEDC_BA98_7654_3210] {
                let rz = code.of_u64(z);
                let (z_lo, z_hi) = (z as u32, (z >> 32) as u32);
                let (r_lo, r_hi) = rec.recode(rz, z_lo, z_hi);
                assert_eq!(r_lo, code.of_u32(z_lo), "low a={a} z={z:#x}");
                assert_eq!(r_hi, code.of_u32(z_hi), "high a={a} z={z:#x}");
            }
        }
    }

    #[test]
    fn table3_carry_adjustments() {
        // +0, +1, -1, -0 per Table III, for every low-cost modulus.
        for a in all_widths() {
            let m = (1u16 << a) - 1;
            assert_eq!(carry_adjustment(a, false, false).value(), 0);
            assert_eq!(carry_adjustment(a, false, true).value(), 1);
            assert_eq!(u16::from(carry_adjustment(a, true, false).value()), m - 1);
            // -0: the all-ones double zero, canonicalised to 0.
            assert_eq!(carry_adjustment(a, true, true).value(), 0);
        }
    }

    #[test]
    fn pow2_inverse_is_inverse() {
        for a in all_widths() {
            let code = ResidueCode::new(a);
            for k in [1u32, 5, 31, 32, 63, 64] {
                let prod = code.pow2(k).mul(code.pow2_inv(k));
                assert_eq!(prod.value(), 1, "a={a} k={k}");
            }
        }
    }

    #[test]
    fn residue_detects_small_deltas() {
        // A residue code misses exactly the deltas that are multiples of A.
        let code = ResidueCode::new(3); // mod 7
        let data = 1000u32;
        let check = code.encode(data);
        assert_eq!(code.decode(data + 1, check), RawDecode::Detected);
        assert_eq!(code.decode(data + 7, check), RawDecode::Clean); // aliased
    }
}
