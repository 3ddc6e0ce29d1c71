//! Register and predicate identifiers.

/// A 32-bit general-purpose register. `Reg(255)` is [`RZ`], hard-wired zero.
///
/// 64-bit values occupy the pair `(Reg(n), Reg(n+1))`, addressed by the base
/// register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// The zero register: reads as 0, writes are discarded.
pub const RZ: Reg = Reg(255);

impl Reg {
    /// Whether this is the hard-wired zero register.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == RZ
    }

    /// The second register of the pair based at `self`.
    ///
    /// # Panics
    ///
    /// Panics if called on [`RZ`] or on `Reg(254)`.
    #[must_use]
    pub fn pair_hi(self) -> Reg {
        assert!(self.0 < 254, "no pair register above {self:?}");
        Reg(self.0 + 1)
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            write!(f, "RZ")
        } else {
            write!(f, "R{}", self.0)
        }
    }
}

/// A 1-bit predicate register. `Pred(7)` is [`PT`], hard-wired true.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub u8);

/// The always-true predicate.
pub const PT: Pred = Pred(7);

impl Pred {
    /// Whether this is the hard-wired true predicate.
    #[must_use]
    pub fn is_true(self) -> bool {
        self == PT
    }
}

impl std::fmt::Display for Pred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_true() {
            write!(f, "PT")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_identity() {
        assert!(RZ.is_zero());
        assert!(!Reg(0).is_zero());
        assert_eq!(format!("{RZ}"), "RZ");
        assert_eq!(format!("{}", Reg(12)), "R12");
    }

    #[test]
    fn pairs() {
        assert_eq!(Reg(4).pair_hi(), Reg(5));
    }

    #[test]
    #[should_panic(expected = "no pair register")]
    fn rz_has_no_pair() {
        let _ = RZ.pair_hi();
    }
}
