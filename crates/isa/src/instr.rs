//! Predicated instructions with SwapCodes metadata.

use crate::op::Op;
use crate::reg::Pred;

/// Why an instruction exists, for the dynamic code-mix accounting of the
/// paper's Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Original program instruction.
    Original,
    /// A shadow copy inserted by a duplication pass.
    Shadow,
    /// Explicit checking code (compare/branch/trap) of software duplication.
    Check,
    /// Other compiler-inserted overhead (index fix-up, syncs, NOPs).
    CompilerInserted,
}

/// One predicated instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// The operation.
    pub op: Op,
    /// Guard predicate (`None` = always execute). The `bool` is the guard
    /// polarity: `(p, false)` means `@!p`.
    pub guard: Option<(Pred, bool)>,
    /// Provenance for instruction-mix accounting.
    pub role: Role,
    /// Swap-ECC shadow marker: write back only the ECC check bits
    /// (the 1-bit ISA meta-data flag of Table II).
    pub ecc_only: bool,
    /// Swap-Predict marker: this instruction's check bits come from a
    /// hardware predictor, so no shadow copy is required.
    pub predicted: bool,
}

impl Instr {
    /// An unguarded original-program instruction.
    #[must_use]
    pub fn new(op: Op) -> Self {
        Self {
            op,
            guard: None,
            role: Role::Original,
            ecc_only: false,
            predicted: false,
        }
    }

    /// Guard with `@p` (when `polarity`) or `@!p`.
    #[must_use]
    pub fn guarded(op: Op, p: Pred, polarity: bool) -> Self {
        Self {
            guard: Some((p, polarity)),
            ..Self::new(op)
        }
    }

    /// Set the provenance role.
    #[must_use]
    pub fn with_role(mut self, role: Role) -> Self {
        self.role = role;
        self
    }

    /// Mark as a Swap-ECC check-bit-only shadow write.
    #[must_use]
    pub fn with_ecc_only(mut self) -> Self {
        self.ecc_only = true;
        self
    }

    /// Mark as hardware check-bit predicted.
    #[must_use]
    pub fn with_predicted(mut self) -> Self {
        self.predicted = true;
        self
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some((p, pol)) = self.guard {
            write!(f, "@{}{} ", if pol { "" } else { "!" }, p)?;
        }
        write!(f, "{}", self.op.mnemonic())?;
        if self.ecc_only {
            write!(f, " [ECC]")?;
        }
        if self.predicted {
            write!(f, " [PRED]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Src;
    use crate::reg::Reg;

    #[test]
    fn display_includes_guard_and_flags() {
        let i = Instr::guarded(Op::Bra { target: 3 }, Pred(1), false);
        assert_eq!(format!("{i}"), "@!P1 BRA");
        let s = Instr::new(Op::IAdd {
            d: Reg(0),
            a: Reg(1),
            b: Src::Imm(2),
        })
        .with_ecc_only();
        assert_eq!(format!("{s}"), "IADD [ECC]");
    }

    #[test]
    fn builders_set_flags() {
        let i = Instr::new(Op::Nop).with_role(Role::Check).with_predicted();
        assert_eq!(i.role, Role::Check);
        assert!(i.predicted);
        assert!(!i.ecc_only);
    }
}
