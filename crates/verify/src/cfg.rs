//! Control-flow graph construction over a [`Kernel`].
//!
//! Blocks are maximal straight-line instruction runs; edges are
//! predicate-aware: an unguarded `BRA` has a single successor, a guarded
//! `BRA` has both its target and its fall-through, an unguarded
//! `EXIT`/`TRAP` terminates and a guarded one falls through. Unreachable blocks (e.g. the defensive `EXIT` the SW-Dup pass
//! places before its trap block) are identified so the dataflow never
//! reports on code that cannot execute.

use swapcodes_isa::{Kernel, Op};

/// One basic block: instructions `[start, end)` of the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
    /// Predecessor block indices.
    pub preds: Vec<usize>,
}

/// A kernel's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in instruction order; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// `block_of[i]` = index of the block containing instruction `i`.
    pub block_of: Vec<usize>,
    /// Whether each block is reachable from the entry.
    pub reachable: Vec<bool>,
}

impl Cfg {
    /// Build the CFG of `kernel`.
    #[must_use]
    pub fn build(kernel: &Kernel) -> Self {
        let n = kernel.len();
        let instrs = kernel.instrs();

        // Leaders: entry, every in-range branch target, every instruction
        // after a control transfer.
        let mut leader = vec![false; n.max(1)];
        if n > 0 {
            leader[0] = true;
        }
        for (i, instr) in instrs.iter().enumerate() {
            match instr.op {
                Op::Bra { target } => {
                    if target < n {
                        leader[target] = true;
                    }
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                }
                Op::Exit | Op::Trap if i + 1 < n => leader[i + 1] = true,
                _ => {}
            }
        }

        let mut blocks: Vec<Block> = Vec::new();
        let mut block_of = vec![0usize; n];
        for i in 0..n {
            if leader[i] {
                blocks.push(Block {
                    start: i,
                    end: i + 1,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
            } else if let Some(b) = blocks.last_mut() {
                b.end = i + 1;
            }
            block_of[i] = blocks.len().saturating_sub(1);
        }

        // Successor edges from each block's terminator.
        let nb = blocks.len();
        for bi in 0..nb {
            let last = blocks[bi].end - 1;
            let succs: Vec<usize> = match instrs[last].op {
                Op::Bra { target } if target < n => {
                    let mut s = vec![block_of[target]];
                    if instrs[last].guard.is_some() && blocks[bi].end < n {
                        let ft = block_of[blocks[bi].end];
                        if !s.contains(&ft) {
                            s.push(ft);
                        }
                    }
                    s
                }
                // A guarded EXIT/TRAP retires (or traps) only its
                // guard-true lanes; the others fall through.
                Op::Exit | Op::Trap if instrs[last].guard.is_some() && blocks[bi].end < n => {
                    vec![block_of[blocks[bi].end]]
                }
                // Out-of-range branch: structurally invalid (validate.rs
                // catches it); treat as terminating.
                Op::Bra { .. } | Op::Exit | Op::Trap => Vec::new(),
                _ if blocks[bi].end < n => vec![block_of[blocks[bi].end]],
                _ => Vec::new(),
            };
            for &s in &succs {
                blocks[s].preds.push(bi);
            }
            blocks[bi].succs = succs;
        }

        // Reachability from the entry block.
        let mut reachable = vec![false; nb];
        let mut stack = if nb > 0 { vec![0usize] } else { Vec::new() };
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b], true) {
                continue;
            }
            stack.extend(blocks[b].succs.iter().copied());
        }

        Self {
            blocks,
            block_of,
            reachable,
        }
    }

    /// A shortest block-path witness from instruction `from` to instruction
    /// `to`: the first instruction index of every block on one shortest CFG
    /// path, ending with `to`. Returns just `[to]` when no path exists (or
    /// `from`/`to` are out of range).
    #[must_use]
    pub fn path_witness(&self, from: usize, to: usize) -> Vec<usize> {
        let (Some(&fb), Some(&tb)) = (self.block_of.get(from), self.block_of.get(to)) else {
            return vec![to];
        };
        if fb == tb {
            return if from == to { vec![to] } else { vec![from, to] };
        }
        // BFS over blocks recording parents.
        let mut parent = vec![usize::MAX; self.blocks.len()];
        let mut queue = std::collections::VecDeque::from([fb]);
        let mut seen = vec![false; self.blocks.len()];
        seen[fb] = true;
        while let Some(b) = queue.pop_front() {
            if b == tb {
                break;
            }
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    parent[s] = b;
                    queue.push_back(s);
                }
            }
        }
        if !seen[tb] {
            return vec![to];
        }
        let mut path = vec![to];
        let mut b = tb;
        while b != fb {
            path.push(self.blocks[b].start);
            b = parent[b];
        }
        path.push(from);
        path.reverse();
        path.dedup();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_isa::{Instr, KernelBuilder, Op, Pred, Reg, Src};

    fn branchy() -> Kernel {
        let mut k = KernelBuilder::new("b");
        let end = k.label();
        k.push(Op::IAdd {
            d: Reg(0),
            a: Reg(0),
            b: Src::Imm(1),
        });
        k.branch_if(end, Pred(0), true);
        k.push(Op::IAdd {
            d: Reg(0),
            a: Reg(0),
            b: Src::Imm(2),
        });
        k.bind(end);
        k.push(Op::Exit);
        k.finish()
    }

    #[test]
    fn guarded_branch_has_two_successors() {
        let cfg = Cfg::build(&branchy());
        // Blocks: [0..2), [2..3), [3..4).
        assert_eq!(cfg.blocks.len(), 3);
        let entry = &cfg.blocks[0];
        assert_eq!(entry.succs.len(), 2);
        assert!(cfg.reachable.iter().all(|&r| r));
    }

    #[test]
    fn unconditional_branch_has_one_successor() {
        let mut k = KernelBuilder::new("u");
        let end = k.label();
        k.branch_to(end);
        k.push(Op::Nop);
        k.bind(end);
        k.push(Op::Exit);
        let cfg = Cfg::build(&k.finish());
        assert_eq!(cfg.blocks[0].succs, vec![2]);
        assert!(!cfg.reachable[1], "NOP after BRA is unreachable");
    }

    #[test]
    fn guarded_exit_and_trap_fall_through() {
        for op in [Op::Exit, Op::Trap] {
            let k = Kernel::from_instrs(
                "gx",
                vec![
                    Instr::new(Op::Nop),
                    Instr::guarded(op, Pred(0), true),
                    Instr::new(Op::Nop),
                    Instr::new(Op::Exit),
                ],
            );
            let cfg = Cfg::build(&k);
            // Blocks: [0..2) ends in the guarded exit, [2..4) after it.
            assert_eq!(cfg.blocks.len(), 2, "{op:?}");
            assert_eq!(cfg.blocks[0].succs, vec![1], "{op:?}");
            assert!(cfg.reachable[1], "{op:?}: guard-false lanes continue");
        }
        let k = Kernel::from_instrs(
            "ux",
            vec![
                Instr::new(Op::Exit),
                Instr::new(Op::Nop),
                Instr::new(Op::Exit),
            ],
        );
        let cfg = Cfg::build(&k);
        assert!(cfg.blocks[0].succs.is_empty());
        assert!(!cfg.reachable[1], "code after an unguarded EXIT is dead");
    }

    #[test]
    fn path_witness_spans_blocks() {
        let cfg = Cfg::build(&branchy());
        let w = cfg.path_witness(0, 3);
        assert_eq!(w.first(), Some(&0));
        assert_eq!(w.last(), Some(&3));
    }

    #[test]
    fn empty_and_single_block() {
        let cfg = Cfg::build(&Kernel::from_instrs("e", vec![Instr::new(Op::Exit)]));
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].succs.len(), 0);
        let cfg = Cfg::build(&Kernel::from_instrs("z", Vec::new()));
        assert!(cfg.blocks.is_empty());
    }
}
