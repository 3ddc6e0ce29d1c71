//! Dynamic instruction classification and operand tracing — the simulator's
//! stand-in for the paper's SASSI-like binary instrumentation.

use std::collections::HashMap;

use swapcodes_isa::{Instr, Op, Role};

/// Raw dynamic warp-instruction counts by provenance, the inputs to the
/// Fig. 13 code-mix categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileCounts {
    /// Original instructions that are not duplication-eligible
    /// (loads/stores/atomics/control/predicates/shuffles).
    pub not_eligible: u64,
    /// Original duplication-eligible instructions whose check bits are
    /// hardware-predicted (including propagated moves).
    pub eligible_predicted: u64,
    /// Original duplication-eligible instructions without prediction.
    pub eligible_plain: u64,
    /// Shadow copies inserted by a duplication pass.
    pub shadow: u64,
    /// Explicit checking instructions (software duplication).
    pub checking: u64,
    /// Other compiler-inserted instructions (index fix-ups, syncs, NOPs).
    pub compiler_inserted: u64,
}

impl ProfileCounts {
    /// Record one executed warp-instruction.
    pub fn record(&mut self, instr: &Instr) {
        match instr.role {
            Role::Check => self.checking += 1,
            Role::CompilerInserted => self.compiler_inserted += 1,
            Role::Shadow => self.shadow += 1,
            Role::Original => {
                if !instr.op.is_dup_eligible() {
                    self.not_eligible += 1;
                } else if instr.predicted {
                    self.eligible_predicted += 1;
                } else {
                    self.eligible_plain += 1;
                }
            }
        }
    }

    /// Total dynamic warp-instructions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.not_eligible
            + self.eligible_predicted
            + self.eligible_plain
            + self.shadow
            + self.checking
            + self.compiler_inserted
    }

    /// Instructions the *original* (untransformed) program contributes: the
    /// denominator of the Fig. 13 bloat bars.
    #[must_use]
    pub fn original_program(&self) -> u64 {
        self.not_eligible + self.eligible_predicted + self.eligible_plain
    }

    /// Dynamic instruction bloat relative to the original program
    /// (1.0 = no overhead).
    #[must_use]
    pub fn bloat(&self) -> f64 {
        if self.original_program() == 0 {
            1.0
        } else {
            self.total() as f64 / self.original_program() as f64
        }
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &ProfileCounts) {
        self.not_eligible += other.not_eligible;
        self.eligible_predicted += other.eligible_predicted;
        self.eligible_plain += other.eligible_plain;
        self.shadow += other.shadow;
        self.checking += other.checking;
        self.compiler_inserted += other.compiler_inserted;
    }
}

/// Arithmetic unit classes traced for gate-level injection (the Fig. 10
/// units). Mirrors `swapcodes_gates::units::UnitKind` without depending on
/// that crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TracedUnit {
    FxpAdd32,
    FxpMad32,
    FpAdd32,
    FpFma32,
    FpAdd64,
    FpFma64,
}

impl TracedUnit {
    /// All traced units in Fig. 10 order.
    #[must_use]
    pub fn all() -> [TracedUnit; 6] {
        [
            TracedUnit::FxpAdd32,
            TracedUnit::FxpMad32,
            TracedUnit::FpAdd32,
            TracedUnit::FpFma32,
            TracedUnit::FpAdd64,
            TracedUnit::FpFma64,
        ]
    }
}

/// Map an operation to the arithmetic unit it exercises (with operand
/// normalisation: multiplies trace as MADs with a zero addend).
#[must_use]
pub fn traced_unit(op: &Op) -> Option<TracedUnit> {
    match op {
        Op::IAdd { .. } | Op::ISub { .. } => Some(TracedUnit::FxpAdd32),
        Op::IMul { .. } | Op::IMad { .. } | Op::IMadWide { .. } => Some(TracedUnit::FxpMad32),
        Op::FAdd { .. } => Some(TracedUnit::FpAdd32),
        Op::FMul { .. } | Op::FFma { .. } => Some(TracedUnit::FpFma32),
        Op::DAdd { .. } => Some(TracedUnit::FpAdd64),
        Op::DMul { .. } | Op::DFma { .. } => Some(TracedUnit::FpFma64),
        _ => None,
    }
}

/// Captured operand streams per arithmetic unit, for realistic gate-level
/// error injection (the paper traces Rodinia inputs the same way).
#[derive(Debug, Clone, Default)]
pub struct OperandTrace {
    streams: HashMap<TracedUnit, Vec<[u64; 3]>>,
    cap_per_unit: usize,
}

impl OperandTrace {
    /// Create a trace keeping at most `cap_per_unit` tuples per unit.
    #[must_use]
    pub fn with_cap(cap_per_unit: usize) -> Self {
        Self {
            streams: HashMap::new(),
            cap_per_unit,
        }
    }

    /// Record an operand tuple for `unit` (dropped beyond the cap).
    pub fn record(&mut self, unit: TracedUnit, operands: [u64; 3]) {
        let v = self.streams.entry(unit).or_default();
        if v.len() < self.cap_per_unit {
            v.push(operands);
        }
    }

    /// The captured tuples for `unit`.
    #[must_use]
    pub fn stream(&self, unit: TracedUnit) -> &[[u64; 3]] {
        self.streams.get(&unit).map_or(&[], Vec::as_slice)
    }

    /// Whether any unit reached its cap (useful to know tracing is "full").
    #[must_use]
    pub fn any_full(&self) -> bool {
        self.streams.values().any(|v| v.len() >= self.cap_per_unit)
    }

    /// Merge another trace (respecting the cap).
    pub fn merge(&mut self, other: &OperandTrace) {
        for (unit, tuples) in &other.streams {
            let v = self.streams.entry(*unit).or_default();
            for t in tuples {
                if v.len() >= self.cap_per_unit {
                    break;
                }
                v.push(*t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_isa::{Reg, Src};

    #[test]
    fn profile_classification() {
        let mut p = ProfileCounts::default();
        let add = Op::IAdd {
            d: Reg(0),
            a: Reg(1),
            b: Src::Imm(1),
        };
        p.record(&Instr::new(add));
        p.record(&Instr::new(add).with_role(Role::Shadow));
        p.record(&Instr::new(add).with_predicted());
        p.record(&Instr::new(Op::Trap).with_role(Role::Check));
        p.record(&Instr::new(Op::Exit));
        assert_eq!(p.eligible_plain, 1);
        assert_eq!(p.shadow, 1);
        assert_eq!(p.eligible_predicted, 1);
        assert_eq!(p.checking, 1);
        assert_eq!(p.not_eligible, 1);
        assert_eq!(p.total(), 5);
        assert_eq!(p.original_program(), 3);
        assert!((p.bloat() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn operand_trace_caps() {
        let mut t = OperandTrace::with_cap(2);
        for i in 0..5 {
            t.record(TracedUnit::FpAdd32, [i, i, 0]);
        }
        assert_eq!(t.stream(TracedUnit::FpAdd32).len(), 2);
        assert!(t.any_full());
        assert!(t.stream(TracedUnit::FpFma64).is_empty());
    }

    #[test]
    fn unit_mapping() {
        assert_eq!(
            traced_unit(&Op::DFma {
                d: Reg(0),
                a: Reg(2),
                b: Reg(4),
                c: Reg(6)
            }),
            Some(TracedUnit::FpFma64)
        );
        assert_eq!(traced_unit(&Op::Exit), None);
    }
}
