//! Kernels and the label-resolving kernel builder.

use crate::instr::Instr;
use crate::op::Op;

/// A forward-referenceable branch label issued by [`KernelBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A compiled kernel: a straight vector of instructions with resolved branch
/// targets.
#[derive(Debug, Clone)]
pub struct Kernel {
    name: String,
    instrs: Vec<Instr>,
}

impl Kernel {
    /// Construct from finished parts (targets must already be resolved).
    #[must_use]
    pub fn from_instrs(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        Self {
            name: name.into(),
            instrs,
        }
    }

    /// Kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the kernel is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Architectural registers used per thread: one past the highest
    /// register index referenced (the occupancy-limiting quantity).
    #[must_use]
    pub fn register_count(&self) -> u32 {
        let mut max = 0u32;
        for i in &self.instrs {
            for r in i.op.defs().into_iter().chain(i.op.uses()) {
                max = max.max(u32::from(r.0) + 1);
            }
        }
        max
    }

    /// Whether any instruction uses warp shuffles (the inter-thread
    /// duplication incompatibility of §V).
    #[must_use]
    pub fn uses_shuffles(&self) -> bool {
        self.instrs.iter().any(|i| matches!(i.op, Op::Shfl { .. }))
    }

    /// Whether any instruction is a CTA barrier.
    #[must_use]
    pub fn uses_barriers(&self) -> bool {
        self.instrs.iter().any(|i| matches!(i.op, Op::Bar))
    }
}

/// Builds a [`Kernel`], resolving labels to instruction indices.
///
/// # Example
///
/// ```
/// use swapcodes_isa::{KernelBuilder, Op, Reg, Src};
///
/// let mut k = KernelBuilder::new("loop");
/// let top = k.label();
/// k.bind(top);
/// k.push(Op::IAdd { d: Reg(0), a: Reg(0), b: Src::Imm(-1) });
/// k.branch_to(top); // back edge
/// k.push(Op::Exit);
/// let kernel = k.finish();
/// assert_eq!(kernel.len(), 3);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instr>,
    /// `labels[l]` = bound instruction index.
    labels: Vec<Option<usize>>,
    /// (instruction index, label) fix-ups.
    fixups: Vec<(usize, Label)>,
}

impl KernelBuilder {
    /// Start a kernel named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            instrs: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Append an unguarded instruction.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.instrs.push(Instr::new(op));
        self
    }

    /// Append a prepared instruction.
    pub fn push_instr(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// Create a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the next instruction's position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        assert!(
            self.labels[label.0].replace(self.instrs.len()).is_none(),
            "label bound twice"
        );
        self
    }

    /// Append an unconditional `BRA` to `label`.
    pub fn branch_to(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.instrs.push(Instr::new(Op::Bra { target: usize::MAX }));
        self
    }

    /// Append a guarded `BRA` to `label`.
    pub fn branch_if(&mut self, label: Label, p: crate::reg::Pred, polarity: bool) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.instrs
            .push(Instr::guarded(Op::Bra { target: usize::MAX }, p, polarity));
        self
    }

    /// Current instruction count (useful for manual target math in tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instructions were appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Resolve labels and produce the kernel.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound.
    #[must_use]
    pub fn finish(mut self) -> Kernel {
        for (idx, label) in self.fixups {
            let target = self.labels[label.0].expect("branch to unbound label");
            if let Op::Bra { target: t } = &mut self.instrs[idx].op {
                *t = target;
            }
        }
        Kernel {
            name: self.name,
            instrs: self.instrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Src;
    use crate::reg::{Pred, Reg};

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut k = KernelBuilder::new("t");
        let end = k.label();
        let top = k.label();
        k.bind(top);
        k.push(Op::IAdd {
            d: Reg(0),
            a: Reg(0),
            b: Src::Imm(1),
        });
        k.branch_if(end, Pred(0), true);
        k.branch_to(top);
        k.bind(end);
        k.push(Op::Exit);
        let kernel = k.finish();
        match kernel.instrs()[1].op {
            Op::Bra { target } => assert_eq!(target, 3),
            ref other => panic!("expected BRA, got {other:?}"),
        }
        match kernel.instrs()[2].op {
            Op::Bra { target } => assert_eq!(target, 0),
            ref other => panic!("expected BRA, got {other:?}"),
        }
    }

    #[test]
    fn register_count_counts_pairs() {
        let mut k = KernelBuilder::new("t");
        k.push(Op::DAdd {
            d: Reg(10),
            a: Reg(0),
            b: Reg(2),
        });
        k.push(Op::Exit);
        let kernel = k.finish();
        assert_eq!(kernel.register_count(), 12); // R11 is the pair high half
    }

    #[test]
    #[should_panic(expected = "branch to unbound label")]
    fn unbound_label_panics() {
        let mut k = KernelBuilder::new("t");
        let l = k.label();
        k.branch_to(l);
        let _ = k.finish();
    }

    #[test]
    fn feature_queries() {
        let mut k = KernelBuilder::new("t");
        k.push(Op::Shfl {
            d: Reg(0),
            a: Reg(1),
            mode: crate::op::ShflMode::Bfly(1),
        });
        k.push(Op::Bar);
        k.push(Op::Exit);
        let kernel = k.finish();
        assert!(kernel.uses_shuffles());
        assert!(kernel.uses_barriers());
    }
}
