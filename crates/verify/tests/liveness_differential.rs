//! Differential soundness of the static liveness analysis: over random
//! kernels, every register or predicate that the tier-1 interpreter
//! *dynamically* reads must be statically live-in at the PC of the read —
//! and, walking each warp trace backward, the dynamically-live set at every
//! traced instruction must be contained in the static live-in/live-out
//! sets. Static liveness is allowed to over-approximate (that is what makes
//! the ACE analysis and the dead-write lints sound); it must never
//! under-approximate.
//!
//! Kernels are generated from a small ALU grammar — straight-line compute
//! (MOV/IADD/SETP/SEL), optional guards, guarded `EXIT`s and guarded forward
//! branches — so every run terminates without touching memory, and the
//! trace exercises predication, divergence, branch-skipped defs and lanes
//! that keep running past a guarded `EXIT`.

use std::collections::BTreeSet;

use proptest::prelude::*;
use swapcodes_isa::{CmpOp, CmpTy, Instr, Kernel, KernelBuilder, Liveness, Op, Pred, Reg, Src};
use swapcodes_sim::exec::ExecConfig;
use swapcodes_sim::{Executor, GlobalMemory, Launch};

/// One generated instruction: an ALU op (or, for `kind` 4, an `EXIT` that
/// is always guarded) plus an optional guard.
#[derive(Debug, Clone)]
struct GenOp {
    kind: u8,
    d: u8,
    a: u8,
    b: u8,
    p: u8,
    imm: i32,
    guard: Option<(u8, bool)>,
}

/// A guarded forward branch: after grammar position `at`, skip `dist`
/// positions ahead.
#[derive(Debug, Clone, Copy)]
struct GenBranch {
    at: usize,
    dist: usize,
    p: u8,
    pol: bool,
}

const REGS: u8 = 6;
const PREDS: u8 = 3;

fn gen_op() -> impl Strategy<Value = GenOp> {
    (
        (0u8..5, 0..REGS, 0..REGS, 0..REGS),
        (0..PREDS, -8i32..8),
        (any::<bool>(), 0..PREDS, any::<bool>()),
    )
        .prop_map(|((kind, d, a, b), (p, imm), (guarded, gp, gpol))| GenOp {
            kind,
            d,
            a,
            b,
            p,
            imm,
            // An unguarded EXIT would end every lane; the interesting case
            // is the guarded one, whose guard-false lanes fall through.
            guard: (guarded || kind == 4).then_some((gp, gpol)),
        })
}

fn build(ops: &[GenOp], branches: &[GenBranch]) -> Kernel {
    let mut k = KernelBuilder::new("fuzz");
    // Each branch jumps to a label bound just before the op at its target
    // grammar position (clamped to the end, where EXIT sits).
    let mut labels = Vec::new();
    for br in branches {
        let target = (br.at + 1 + br.dist).min(ops.len());
        labels.push((target, k.label()));
    }
    for (i, op) in ops.iter().enumerate() {
        for (target, label) in &labels {
            if *target == i {
                k.bind(*label);
            }
        }
        let d = Reg(op.d);
        let a = Reg(op.a);
        let b = Src::Reg(Reg(op.b));
        let raw = match op.kind {
            0 => Op::Mov {
                d,
                a: Src::Imm(op.imm),
            },
            1 => Op::IAdd { d, a, b },
            2 => Op::SetP {
                p: Pred(op.p),
                cmp: CmpOp::Lt,
                ty: CmpTy::I32,
                a,
                b: Src::Imm(op.imm),
            },
            4 => Op::Exit,
            _ => Op::Sel {
                d,
                p: Pred(op.p),
                a,
                b,
            },
        };
        match op.guard {
            Some((gp, pol)) => {
                k.push_instr(Instr::guarded(raw, Pred(gp), pol));
            }
            None => {
                k.push(raw);
            }
        }
        for br in branches {
            if br.at == i {
                let (_, label) = labels
                    .iter()
                    .find(|(t, _)| *t == (br.at + 1 + br.dist).min(ops.len()))
                    .expect("label was created for this branch");
                k.branch_if(*label, Pred(br.p), br.pol);
            }
        }
    }
    for (target, label) in &labels {
        if *target == ops.len() {
            k.bind(*label);
        }
    }
    k.push(Op::Exit);
    k.finish()
}

/// The dynamically-live set derived from one executed warp trace, checked
/// entry by entry against the static fixpoint.
fn check_trace_against_static(kernel: &Kernel, live: &Liveness, entries: &[(u32, u32)]) {
    let mut dyn_regs: BTreeSet<u8> = BTreeSet::new();
    let mut dyn_preds: BTreeSet<u8> = BTreeSet::new();
    for &(kidx, mask) in entries.iter().rev() {
        let pc = kidx as usize;
        let instr = &kernel.instrs()[pc];
        for &r in &dyn_regs {
            assert!(
                live.live_out(pc).reg(Reg(r)),
                "R{r} dynamically live after pc {pc} but statically dead\n{kernel:?}"
            );
        }
        for &p in &dyn_preds {
            assert!(
                live.live_out(pc).pred(Pred(p)),
                "P{p} dynamically live after pc {pc} but statically dead\n{kernel:?}"
            );
        }
        if mask != 0 {
            // Mirror the static kill rule (unguarded, architecturally-full
            // writes kill); killing no more than statics keeps the dynamic
            // set an under-approximation, which is the sound direction for
            // this containment check.
            if instr.guard.is_none() && !instr.ecc_only {
                for dreg in instr.op.defs() {
                    dyn_regs.remove(&dreg.0);
                }
                if let Some(pd) = instr.op.pred_def() {
                    dyn_preds.remove(&pd.0);
                }
            }
            for u in instr.op.uses() {
                if !u.is_zero() {
                    dyn_regs.insert(u.0);
                }
            }
            if let Some(pu) = instr.op.pred_use() {
                if !pu.is_true() {
                    dyn_preds.insert(pu.0);
                }
            }
        }
        // The guard predicate is read whenever the instruction issues,
        // even if every lane fails it.
        if let Some((gp, _)) = instr.guard {
            if !gp.is_true() {
                dyn_preds.insert(gp.0);
            }
        }
        for &r in &dyn_regs {
            assert!(
                live.live_in(pc).reg(Reg(r)),
                "R{r} dynamically read at/after pc {pc} but statically dead-in\n{kernel:?}"
            );
        }
        for &p in &dyn_preds {
            assert!(
                live.live_in(pc).pred(Pred(p)),
                "P{p} dynamically read at/after pc {pc} but statically dead-in\n{kernel:?}"
            );
        }
    }
}

fn run_and_check(kernel: &Kernel) {
    let exec = Executor {
        config: ExecConfig {
            collect_trace: true,
            ..ExecConfig::default()
        },
    };
    let mut mem = GlobalMemory::new(64);
    let out = exec
        .run(kernel, Launch::grid(1, 32), &mut mem)
        .expect("ALU-only kernel runs fault-free");
    let live = Liveness::compute(kernel);
    for trace in &out.traces {
        let entries: Vec<(u32, u32)> = trace.entries.iter().map(|e| (e.kidx, e.mask)).collect();
        check_trace_against_static(kernel, &live, &entries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Static liveness contains every dynamically observed read, across
    /// random guarded ALU kernels with guarded exits and forward branches.
    #[test]
    fn static_liveness_over_approximates_dynamic(
        ops in proptest::collection::vec(gen_op(), 4..24),
        raw_branches in proptest::collection::vec(
            (0usize..24, 1usize..6, 0..PREDS, any::<bool>()), 0..4),
    ) {
        let branches: Vec<GenBranch> = raw_branches
            .into_iter()
            .filter(|(at, _, _, _)| *at < ops.len())
            .map(|(at, dist, p, pol)| GenBranch { at, dist, p, pol })
            .collect();
        let kernel = build(&ops, &branches);
        run_and_check(&kernel);
    }
}

/// A hand-built divergence case pinning the property the fuzzer samples:
/// a guarded def must NOT kill (the fall-through path still needs the old
/// value), and the interpreter's trace agrees.
#[test]
fn guarded_def_does_not_kill_across_divergence() {
    let mut k = KernelBuilder::new("div");
    // P0 = (lane-id pattern) via SETP on R0 (all lanes R0 = 0 initially,
    // so use an immediate split: P0 = 0 < imm).
    k.push(Op::Mov {
        d: Reg(1),
        a: Src::Imm(7),
    });
    k.push(Op::SetP {
        p: Pred(0),
        cmp: CmpOp::Lt,
        ty: CmpTy::I32,
        a: Reg(0),
        b: Src::Imm(1),
    });
    // Guarded redefinition of R1: must not kill R1's prior value.
    k.push_instr(Instr::guarded(
        Op::Mov {
            d: Reg(1),
            a: Src::Imm(9),
        },
        Pred(0),
        false,
    ));
    // R1 consumed afterwards.
    k.push(Op::IAdd {
        d: Reg(2),
        a: Reg(1),
        b: Src::Reg(Reg(1)),
    });
    k.push(Op::Exit);
    let kernel = k.finish();
    let live = Liveness::compute(&kernel);
    // R1 is live-in at the guarded mov (pc 2): the guard may fail.
    assert!(live.live_in(2).reg(Reg(1)));
    run_and_check(&kernel);
}
