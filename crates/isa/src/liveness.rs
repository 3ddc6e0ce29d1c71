//! Backward register and predicate liveness over kernel instructions.
//!
//! The solver is a *sound over-approximation* of dynamic liveness: every
//! point where a value is dynamically observable is statically live. Three
//! rules keep it sound under the SwapCodes instruction forms:
//!
//! * a **guarded** definition never kills its destination — on the
//!   guard-false paths the previous value survives the instruction;
//! * an **`ecc_only`** definition (a Swap-ECC shadow) never kills — it
//!   writes only the check-bit segment of the register, so the data bits
//!   of the previous value remain architecturally observable;
//! * a guard predicate is a **use** of that predicate (`PT` excepted:
//!   the hardware short-circuits it and never reads the predicate file).
//!
//! The analysis is instruction-granular (successors mirror the executor:
//! fall-through unless `EXIT`/`TRAP`, branch target plus guarded
//! fall-through for `BRA`) so its live intervals can be intersected with
//! per-PC dynamic issue counts by the `swapcodes-verify` ACE analyzer.

use crate::instr::Instr;
use crate::kernel::Kernel;
use crate::op::Op;
use crate::reg::{Pred, Reg};

/// A set of live general-purpose registers and predicate registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct LiveSet {
    regs: [u64; 4],
    preds: u8,
}

impl LiveSet {
    /// The empty set.
    pub const EMPTY: Self = Self {
        regs: [0; 4],
        preds: 0,
    };

    /// Is register `r` in the set? `RZ` is never live.
    #[must_use]
    pub fn reg(&self, r: Reg) -> bool {
        !r.is_zero() && self.regs[(r.0 >> 6) as usize] & (1u64 << (r.0 & 63)) != 0
    }

    /// Is predicate `p` in the set? `PT` is never live.
    #[must_use]
    pub fn pred(&self, p: Pred) -> bool {
        !p.is_true() && p.0 < 8 && self.preds & (1 << p.0) != 0
    }

    /// Insert register `r` (`RZ` is ignored).
    pub fn insert_reg(&mut self, r: Reg) {
        if !r.is_zero() {
            self.regs[(r.0 >> 6) as usize] |= 1u64 << (r.0 & 63);
        }
    }

    /// Remove register `r`.
    pub fn remove_reg(&mut self, r: Reg) {
        if !r.is_zero() {
            self.regs[(r.0 >> 6) as usize] &= !(1u64 << (r.0 & 63));
        }
    }

    /// Insert predicate `p` (`PT` and out-of-range indices are ignored).
    pub fn insert_pred(&mut self, p: Pred) {
        if !p.is_true() && p.0 < 8 {
            self.preds |= 1 << p.0;
        }
    }

    /// Remove predicate `p`.
    pub fn remove_pred(&mut self, p: Pred) {
        if !p.is_true() && p.0 < 8 {
            self.preds &= !(1 << p.0);
        }
    }

    /// Union `other` into `self`; `true` when `self` grew.
    pub fn union_with(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(other.regs.iter()) {
            let merged = *a | b;
            changed |= merged != *a;
            *a = merged;
        }
        let merged = self.preds | other.preds;
        changed |= merged != self.preds;
        self.preds = merged;
        changed
    }

    /// Number of live registers.
    #[must_use]
    pub fn reg_count(&self) -> u32 {
        self.regs.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of live predicates.
    #[must_use]
    pub fn pred_count(&self) -> u32 {
        self.preds.count_ones()
    }

    /// The per-instruction backward transfer: mutate a live-**out** set into
    /// the corresponding live-**in** set.
    ///
    /// Kills (destination removal) apply only to unguarded, non-`ecc_only`
    /// definitions; uses (sources, `SEL` predicates, non-`PT` guards) are
    /// then inserted.
    pub fn step_back(&mut self, instr: &Instr) {
        if instr.guard.is_none() && !instr.ecc_only {
            for d in instr.op.defs() {
                self.remove_reg(d);
            }
            if let Some(p) = instr.op.pred_def() {
                self.remove_pred(p);
            }
        }
        for u in instr.op.uses() {
            self.insert_reg(u);
        }
        if let Some(p) = instr.op.pred_use() {
            self.insert_pred(p);
        }
        if let Some((p, _)) = instr.guard {
            self.insert_pred(p);
        }
    }
}

/// Per-instruction live-in/live-out sets for a whole kernel.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<LiveSet>,
    live_out: Vec<LiveSet>,
}

/// Instruction successors as the executor sees them: at most two.
fn succs(kernel: &Kernel, i: usize) -> (Option<usize>, Option<usize>) {
    let n = kernel.len();
    let instr = &kernel.instrs()[i];
    match instr.op {
        Op::Exit | Op::Trap => (None, None),
        Op::Bra { target } => {
            let taken = (target < n).then_some(target);
            let fall = (instr.guard.is_some() && i + 1 < n).then_some(i + 1);
            (taken, fall)
        }
        _ => ((i + 1 < n).then_some(i + 1), None),
    }
}

impl Liveness {
    /// Solve backward liveness to a fixpoint over `kernel`.
    #[must_use]
    pub fn compute(kernel: &Kernel) -> Self {
        let n = kernel.len();
        let mut live_in = vec![LiveSet::EMPTY; n];
        let mut live_out = vec![LiveSet::EMPTY; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out = LiveSet::EMPTY;
                let (a, b) = succs(kernel, i);
                if let Some(s) = a {
                    out.union_with(&live_in[s]);
                }
                if let Some(s) = b {
                    out.union_with(&live_in[s]);
                }
                let mut inn = out;
                inn.step_back(&kernel.instrs()[i]);
                if live_out[i] != out {
                    live_out[i] = out;
                    changed = true;
                }
                if live_in[i] != inn {
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        Self { live_in, live_out }
    }

    /// Live set on entry to instruction `i` (before its guard evaluates).
    #[must_use]
    pub fn live_in(&self, i: usize) -> &LiveSet {
        &self.live_in[i]
    }

    /// Live set on exit from instruction `i`.
    #[must_use]
    pub fn live_out(&self, i: usize) -> &LiveSet {
        &self.live_out[i]
    }

    /// Number of instructions analyzed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live_in.len()
    }

    /// `true` for an empty kernel.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_in.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, Role};
    use crate::kernel::KernelBuilder;
    use crate::op::{CmpOp, CmpTy, MemSpace, MemWidth, Src};
    use crate::reg::{PT, RZ};

    fn mov(d: u8, imm: i32) -> Op {
        Op::Mov {
            d: Reg(d),
            a: Src::Imm(imm),
        }
    }

    fn st(addr: u8, v: u8) -> Op {
        Op::St {
            space: MemSpace::Global,
            addr: Reg(addr),
            offset: 0,
            v: Reg(v),
            width: MemWidth::W32,
        }
    }

    #[test]
    fn straight_line_kill_and_gen() {
        // R1 = ..; R0 = ..; ST [R1], R0; EXIT
        let mut k = KernelBuilder::new("s");
        k.push(mov(1, 4));
        k.push(mov(0, 7));
        k.push(st(1, 0));
        k.push(Op::Exit);
        let l = Liveness::compute(&k.finish());
        // Before the store both operands are live; after it nothing is.
        assert!(l.live_in(2).reg(Reg(0)) && l.live_in(2).reg(Reg(1)));
        assert_eq!(l.live_out(2).reg_count(), 0);
        // The unguarded MOV kills R0 upward: not live before instruction 1.
        assert!(!l.live_in(1).reg(Reg(0)));
        assert!(l.live_in(1).reg(Reg(1)));
        // Both defs kill upward: nothing is live at kernel entry.
        assert_eq!(l.live_in(0).reg_count(), 0);
    }

    #[test]
    fn guarded_def_does_not_kill() {
        // R0 = 1; @P0 R0 = 2; ST [R1], R0
        let k = Kernel::from_instrs(
            "g",
            vec![
                Instr::new(mov(0, 1)),
                Instr::guarded(mov(0, 2), Pred(0), true),
                Instr::new(st(1, 0)),
                Instr::new(Op::Exit),
            ],
        );
        let l = Liveness::compute(&k);
        // On the guard-false path the first MOV's value reaches the store,
        // so R0 stays live across the guarded redefinition...
        assert!(l.live_in(1).reg(Reg(0)));
        // ...and the guard predicate is a use.
        assert!(l.live_in(1).pred(Pred(0)));
        // The unguarded MOV at 0 kills R0 upward.
        assert!(!l.live_in(0).reg(Reg(0)));
    }

    #[test]
    fn ecc_only_def_does_not_kill() {
        // Swap-ECC shadow: writes only check bits, data bits survive.
        let k = Kernel::from_instrs(
            "e",
            vec![
                Instr::new(mov(0, 1)),
                Instr::new(mov(0, 1))
                    .with_role(Role::Shadow)
                    .with_ecc_only(),
                Instr::new(st(1, 0)),
                Instr::new(Op::Exit),
            ],
        );
        let l = Liveness::compute(&k);
        assert!(
            l.live_in(1).reg(Reg(0)),
            "ecc_only write must not kill its destination"
        );
    }

    #[test]
    fn loop_keeps_induction_variable_live() {
        // 0: R0 = 0
        // 1: SETP P0 (R0 < R2)
        // 2: @P0 BRA 1
        // 3: EXIT
        let k = Kernel::from_instrs(
            "loop",
            vec![
                Instr::new(mov(0, 0)),
                Instr::new(Op::SetP {
                    p: Pred(0),
                    cmp: CmpOp::Lt,
                    ty: CmpTy::I32,
                    a: Reg(0),
                    b: Src::Reg(Reg(2)),
                }),
                Instr::guarded(Op::Bra { target: 1 }, Pred(0), true),
                Instr::new(Op::Exit),
            ],
        );
        let l = Liveness::compute(&k);
        // The back edge keeps R0/R2 live at the comparison forever.
        assert!(l.live_in(1).reg(Reg(0)) && l.live_in(1).reg(Reg(2)));
        assert!(l.live_out(1).pred(Pred(0)));
        // SETP is an unguarded predicate def: P0 dead above it.
        assert!(!l.live_in(1).pred(Pred(0)));
    }

    #[test]
    fn sel_predicate_is_a_use_and_pt_rz_are_never_live() {
        let k = Kernel::from_instrs(
            "sel",
            vec![
                Instr::new(Op::Sel {
                    d: Reg(0),
                    p: Pred(3),
                    a: Reg(1),
                    b: Src::Reg(RZ),
                }),
                Instr::new(st(2, 0)),
                Instr::new(Op::Exit),
            ],
        );
        let l = Liveness::compute(&k);
        assert!(l.live_in(0).pred(Pred(3)));
        assert!(!l.live_in(0).reg(RZ), "RZ reads are not liveness");
        let mut s = LiveSet::EMPTY;
        s.insert_pred(PT);
        s.insert_reg(RZ);
        assert_eq!(s, LiveSet::EMPTY, "PT/RZ are hard-wired, never tracked");
    }
}
