//! Tier-2 execution: closure-compiled threaded code over the predecoded
//! micro-op table.
//!
//! The tier-1 fast-forward interpreter ([`crate::snapshot`]) already avoids
//! re-matching the `Op` enum per step by lowering the kernel once into the
//! flat [`PredecodedKernel`] table, but every dynamic instruction still
//! funnels through a central `match mop.uop` dispatch. Tier 2 compiles that
//! table one step further, into a *threaded-code buffer*: one boxed closure
//! per static micro-op, with the guard shape, operand sources and write mode
//! captured in the closure at compile time. The scheduler indexes the buffer
//! by PC and calls the closure directly — dispatch is an indirect call on a
//! per-PC function pointer instead of a jump table inside a shared
//! interpreter loop, and adjacent micro-ops can be *fused* into
//! superinstruction closures that issue two architectural instructions per
//! dispatch.
//!
//! # Fusion rules and their soundness
//!
//! All fused closures guard on `w.frags.len() == 1` at run time and fall
//! back to single-step execution otherwise: with a single fragment, the
//! min-PC scheduler provably re-picks the same fragment after each issued
//! instruction, so executing several in the same dispatch preserves the
//! exact tier-1 issue order (and therefore the dynamic-instruction and
//! eligible-op counter sequences that fault targeting keys on). Because a
//! closure is emitted for *every* PC regardless of fusion, a branch into
//! the middle of a fused region simply lands on that suffix's own closure —
//! fusion never needs branch-target analysis.
//!
//! * **Superblock** — a maximal run of *straight-line* micro-ops (anything
//!   but a branch, exit, trap or barrier), walked in one dispatch up to the
//!   warp's remaining quantum budget. The scheduler round trip, indirect
//!   call, fragment pick and strike-window test are paid once per walk
//!   instead of once per instruction. Within a superblock:
//!   * an **ECC-shadow pair** — an original (identical micro-op,
//!     [`WriteMode::Full`], destinations disjoint from sources) directly
//!     followed by its SwapCodes check-bit shadow ([`WriteMode::EccOnly`],
//!     same guard) — executes the original and *skips the shadow's
//!     recomputation entirely*, keeping only its issue accounting and
//!     eligible-counter bump. After the original's full write the shadow
//!     would recompute the same result from unchanged sources and re-encode
//!     the same check bits over the same stored data — a state no-op. If
//!     any of the shadow's operand reads would have raised a DUE, the
//!     original's identical reads already did and the walk stopped first;
//!     the decoder arming flag is a performance hint with no architectural
//!     effect on consistent codewords (see `snapshot::state_matches`).
//!   * every other element (loads, stores, atomics, compares, shuffles,
//!     compute ops) executes in full — guard evaluation, execution, DUE
//!     promotion and halt checks per element, so mid-walk detections,
//!     memory faults and predicate writes behave exactly as in tier 1.
//!
//!   The walk is entered only after proving, once, that nothing inside it
//!   can observe the difference from per-instruction stepping: the trial's
//!   single fault strike must not land in the walked window of either
//!   per-side eligible counter (otherwise the walk degrades to exact
//!   per-element stepping for one element and re-tests), and the walk must
//!   not cross the fuel limit or the dynamic-instruction cap (both of which
//!   halt runs mid-stream in tier 1). Eligible counters are bulk-advanced
//!   at the end of the walk — nothing inside a walk reads them, and the
//!   scheduler hooks that do only run between rounds.
//! * **SetP + guarded branch** — an unguarded, unskipped predicate compare
//!   immediately followed by a branch guarded on the predicate bit it just
//!   wrote (neither fault-eligible). Both halves execute in full through the
//!   shared interpreter core; the fusion saves one scheduler round trip and
//!   evaluates the branch guard from the freshly written predicates. This is
//!   the protection passes' check-and-trap idiom, the hottest two-op
//!   sequence software duplication adds.
//!
//! A fused dispatch never issues more instructions than the warp's
//! remaining 64-instruction quantum budget, so warp interleaving — and with
//! it the global counter sequences that fault targeting and detection
//! timestamps observe — is byte-identical across tiers. The campaign
//! engine runs tier 2 and tier 1 over identical snapshot ladders and the
//! differential suites assert byte-identical outcome tallies.
//!
//! Tier-2 runs additionally execute with the register file's *deferred
//! check-bit encoding* enabled (see [`crate::regfile::WarpRegFile`]): full
//! writes store only the data segment, and the clean-state codeword
//! invariant is restored bit-identically at every observation point. The
//! engine enables the mode in [`crate::snapshot`] when a compiled kernel
//! is present; the closures here need no awareness of it.

use core::fmt;

use crate::fault::FaultTarget;
use crate::predecode::{Guard, MicroOp, PSrc, PredecodedKernel, UOp, WriteMode};
use crate::snapshot::{
    account_issue, eval_guard, exec_uop, merge_frags, pick_fragment, promote_due, step_with,
    target_and_bump, FastCtx, FastWarp,
};

/// Which execution engine the fast-forward campaign engine interprets the
/// predecoded kernel with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// The predecoded interpreter: a central match over the micro-op table.
    /// The differential reference for tier 2.
    #[default]
    Tier1,
    /// Closure-compiled threaded code with superinstruction fusion.
    Tier2,
}

impl ExecTier {
    /// Canonical lowercase name (`"tier1"` / `"tier2"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Tier1 => "tier1",
            Self::Tier2 => "tier2",
        }
    }
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One threaded-code dispatch closure: executes the micro-op(s) at its PC
/// against the shared campaign state, never issuing more architectural
/// instructions than the warp's remaining quantum `budget`, and returns how
/// many it issued (1, 2 for a fused pair, or up to `budget` for a fused
/// chain).
type Thunk = Box<dyn Fn(&mut FastCtx<'_>, &mut FastWarp, usize, i32) -> i32 + Send + Sync>;

/// A kernel compiled to threaded code: one dispatch closure per static
/// micro-op, plus fusion statistics.
pub struct CompiledKernel {
    thunks: Vec<Thunk>,
    fused_pairs: usize,
}

impl fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledKernel")
            .field("len", &self.thunks.len())
            .field("fused_pairs", &self.fused_pairs)
            .finish_non_exhaustive()
    }
}

impl CompiledKernel {
    /// Compile every micro-op of `pk` into its dispatch closure, fusing
    /// straight-line runs into superblocks. Every PC gets the maximal
    /// superblock *starting there* (suffixes overlap), so a branch into the
    /// middle of one block lands on another block's own closure.
    #[must_use]
    pub fn compile(pk: &PredecodedKernel) -> Self {
        let n = pk.len();
        let mut thunks: Vec<Thunk> = Vec::with_capacity(n);
        let mut fused_pairs = 0;
        for pc in 0..n {
            let mop0 = *pk.op_ref(pc);
            // Gather the superblock starting at this PC: ECC pairs (shadow
            // skipped) and fully-executed singles, ending at control flow.
            let mut elems: Vec<BlockElem> = Vec::new();
            let mut q = pc;
            while q < n {
                let m = *pk.op_ref(q);
                if !blockable(&m.uop) {
                    break;
                }
                if q + 1 < n {
                    let s = *pk.op_ref(q + 1);
                    if is_ecc_pair(&m, &s) {
                        elems.push(BlockElem::Pair(EccPair {
                            orig: m,
                            shadow_eligible: s.eligible,
                        }));
                        q += 2;
                        continue;
                    }
                }
                elems.push(BlockElem::Single(m));
                q += 1;
            }
            let has_pair = elems.iter().any(|e| matches!(e, BlockElem::Pair(_)));
            let thunk = if has_pair || elems.len() >= 2 {
                fused_pairs += 1;
                superblock(elems)
            } else if pc + 1 < n && is_setp_bra(&mop0, pk.op_ref(pc + 1)) {
                fused_pairs += 1;
                fused_setp_bra(mop0, *pk.op_ref(pc + 1))
            } else {
                generic(mop0)
            };
            thunks.push(thunk);
        }
        Self {
            thunks,
            fused_pairs,
        }
    }

    /// Number of PCs whose closure is a fused superinstruction.
    #[must_use]
    pub fn fused_pairs(&self) -> usize {
        self.fused_pairs
    }

    /// Number of compiled closures (= static micro-ops).
    #[must_use]
    pub fn len(&self) -> usize {
        self.thunks.len()
    }

    /// Whether the kernel compiled to no closures.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.thunks.is_empty()
    }

    /// Dispatch one closure for warp `w`: pick the min-PC fragment, retire
    /// it if it ran past the end, otherwise call the closure at its PC with
    /// the warp's remaining quantum budget. Returns the number of
    /// architectural instructions issued (never more than `budget`).
    pub(crate) fn step(&self, ctx: &mut FastCtx<'_>, w: &mut FastWarp, budget: i32) -> i32 {
        let fi = pick_fragment(w);
        let pc = w.frags[fi].pc;
        if let Some(thunk) = self.thunks.get(pc) {
            thunk(ctx, w, fi, budget)
        } else {
            w.frags.remove(fi);
            1
        }
    }
}

/// The unfused closure: full shared-core semantics for one micro-op.
fn generic(mop: MicroOp) -> Thunk {
    Box::new(move |ctx, w, fi, _budget| {
        step_with(ctx, w, &mop, fi);
        1
    })
}

/// A fused ECC pair inside a superblock: the original micro-op plus the
/// shadow's fault-eligibility side (the shadow's recomputation is never
/// executed).
struct EccPair {
    orig: MicroOp,
    shadow_eligible: Option<FaultTarget>,
}

/// One element of a superblock.
enum BlockElem {
    /// Original + skipped check-bit shadow: issues two instructions.
    Pair(EccPair),
    /// Any other straight-line micro-op, executed in full: issues one.
    Single(MicroOp),
}

impl BlockElem {
    fn cost(&self) -> i32 {
        match self {
            BlockElem::Pair(_) => 2,
            BlockElem::Single(_) => 1,
        }
    }

    fn first_op(&self) -> &MicroOp {
        match self {
            BlockElem::Pair(p) => &p.orig,
            BlockElem::Single(m) => m,
        }
    }
}

/// Micro-ops a superblock may contain: everything except control flow and
/// barriers, which can change the fragment set, the active mask or the
/// warp's scheduling state mid-walk.
fn blockable(u: &UOp) -> bool {
    !matches!(u, UOp::Bra { .. } | UOp::Exit | UOp::Trap | UOp::Bar)
}

/// Would the trial's datapath fault fire while the matching per-side
/// eligible counter advances by `orig_bumps` / `shadow_bumps` from its
/// current value? (Counters are per-side and advance by exactly one per
/// eligible instruction, so ordering within the span is irrelevant.) The
/// per-class activation windows come from [`FaultSpec::fires_at`]: a
/// transient fires at exactly one counter value, a stuck-at defect on every
/// in-duty value past activation — which also disables the ECC-shadow skip
/// (its state-no-op proof fails when the shadow's recomputation would be
/// corrupted too). Control strikes are keyed on the dynamic-instruction
/// counter instead and are handled by [`FastCtx::control_pending_within`].
fn strike_in_span(ctx: &FastCtx<'_>, orig_bumps: u64, shadow_bumps: u64) -> bool {
    let Some(f) = ctx.fault else {
        return false;
    };
    if f.is_control() {
        return false;
    }
    let (cur, n) = match f.target {
        FaultTarget::Original => (ctx.eligible_orig, orig_bumps),
        FaultTarget::Shadow => (ctx.eligible_shadow, shadow_bumps),
    };
    (cur..cur + n).any(|seen| f.fires_at(seen))
}

/// One ECC pair under full per-pair semantics: bail to the generic
/// single-step path when the strike lands inside this pair's eligible
/// window, otherwise execute the original and account the skipped shadow.
fn ecc_pair_step(
    ctx: &mut FastCtx<'_>,
    w: &mut FastWarp,
    fi: usize,
    pair: &EccPair,
    pair_window: (u64, u64),
) -> i32 {
    if strike_in_span(ctx, pair_window.0, pair_window.1) || ctx.control_pending_within(2) {
        step_with(ctx, w, &pair.orig, fi);
        return 1;
    }
    let exec_mask = eval_guard(pair.orig.guard, w.frags[fi].mask, &w.preds);
    if !account_issue(ctx) {
        return 1;
    }
    let _ = target_and_bump(ctx, pair.orig.eligible);
    exec_uop(ctx, w, &pair.orig, fi, exec_mask, None);
    promote_due(ctx);
    if ctx.halted() {
        return 1;
    }
    // Shadow half: bookkeeping only; the write itself is a state no-op.
    if !account_issue(ctx) {
        return 2;
    }
    let _ = target_and_bump(ctx, pair.shadow_eligible);
    w.frags[fi].pc += 1;
    2
}

/// Credit the eligible counters for a partially-completed walk: everything
/// before element `i` (`walked`, from the prefix sums) plus the halting
/// element's own already-issued side.
fn settle_counters(ctx: &mut FastCtx<'_>, walked: (u64, u64), extra: Option<FaultTarget>) {
    let (mut o, mut s) = walked;
    match extra {
        Some(FaultTarget::Original) => o += 1,
        Some(FaultTarget::Shadow) => s += 1,
        None => {}
    }
    ctx.eligible_orig += o;
    ctx.eligible_shadow += s;
}

/// A straight-line superblock compiled into one superinstruction: walk as
/// many elements as the quantum budget allows per dispatch, with the strike
/// window, fuel limit, dynamic-instruction cap and fragment shape
/// prechecked once for the whole walk so the per-element body is just guard
/// evaluation, execution and halt checks.
fn superblock(elems: Vec<BlockElem>) -> Thunk {
    // Prefix sums of per-side eligible-counter bumps over the elements.
    let mut prefix = Vec::with_capacity(elems.len() + 1);
    let (mut o, mut s) = (0u64, 0u64);
    prefix.push((o, s));
    for e in &elems {
        let sides = match e {
            BlockElem::Pair(p) => [p.orig.eligible, p.shadow_eligible],
            BlockElem::Single(m) => [m.eligible, None],
        };
        for side in sides.into_iter().flatten() {
            match side {
                FaultTarget::Original => o += 1,
                FaultTarget::Shadow => s += 1,
            }
        }
        prefix.push((o, s));
    }
    let first = *elems[0].first_op();
    Box::new(move |ctx, w, fi, budget| {
        if w.frags.len() != 1 {
            step_with(ctx, w, &first, fi);
            return 1;
        }
        // Walk as many elements as the quantum budget allows.
        let mut k = 0usize;
        let mut cost = 0i32;
        while k < elems.len() {
            let c = elems[k].cost();
            if cost + c > budget {
                break;
            }
            cost += c;
            k += 1;
        }
        let (orig_bumps, shadow_bumps) = prefix[k];
        let walk_len = cost.unsigned_abs() as u64;
        let bulk_ok = k > 0
            && !strike_in_span(ctx, orig_bumps, shadow_bumps)
            && !ctx.control_pending_within(walk_len)
            && ctx.dyn_count + walk_len < ctx.max_dynamic
            && ctx.fuel.is_none_or(|f| ctx.dyn_count + walk_len <= f);
        if !bulk_ok {
            // The strike, the fuel limit or the dynamic cap lands somewhere
            // in the walk: advance one element under exact per-instruction
            // semantics and let the next dispatch re-test what remains.
            return match &elems[0] {
                BlockElem::Pair(p) => ecc_pair_step(ctx, w, fi, p, prefix[1]),
                BlockElem::Single(m) => {
                    step_with(ctx, w, m, fi);
                    1
                }
            };
        }
        let mut issued = 0i32;
        for (i, e) in elems[..k].iter().enumerate() {
            match e {
                BlockElem::Pair(p) => {
                    let exec_mask = eval_guard(p.orig.guard, w.frags[fi].mask, &w.preds);
                    ctx.dyn_count += 1;
                    exec_uop(ctx, w, &p.orig, fi, exec_mask, None);
                    promote_due(ctx);
                    issued += 1;
                    if ctx.halted() {
                        settle_counters(ctx, prefix[i], p.orig.eligible);
                        return issued;
                    }
                    // Shadow half: bookkeeping only (state no-op).
                    ctx.dyn_count += 1;
                    w.frags[fi].pc += 1;
                    issued += 1;
                }
                BlockElem::Single(m) => {
                    let exec_mask = eval_guard(m.guard, w.frags[fi].mask, &w.preds);
                    ctx.dyn_count += 1;
                    exec_uop(ctx, w, m, fi, exec_mask, None);
                    promote_due(ctx);
                    issued += 1;
                    if ctx.halted() {
                        settle_counters(ctx, prefix[i], m.eligible);
                        return issued;
                    }
                }
            }
        }
        ctx.eligible_orig += orig_bumps;
        ctx.eligible_shadow += shadow_bumps;
        issued
    })
}

/// SetP + dependent guarded branch superinstruction: both halves execute in
/// full; the branch guard is evaluated from the just-written predicates.
fn fused_setp_bra(mop0: MicroOp, mop1: MicroOp) -> Thunk {
    Box::new(move |ctx, w, fi, _budget| {
        if w.frags.len() != 1 || ctx.control_pending_within(2) {
            step_with(ctx, w, &mop0, fi);
            return 1;
        }
        // SetP half (guard Always, never fault-eligible by the fusion rule).
        let mask0 = w.frags[fi].mask;
        if !account_issue(ctx) {
            return 1;
        }
        exec_uop(ctx, w, &mop0, fi, mask0, None);
        promote_due(ctx);
        if ctx.halted() {
            return 1;
        }
        // Branch half: guard reads the predicate bit the SetP just wrote.
        let exec_mask = eval_guard(mop1.guard, w.frags[fi].mask, &w.preds);
        if !account_issue(ctx) {
            return 2;
        }
        exec_uop(ctx, w, &mop1, fi, exec_mask, None);
        promote_due(ctx);
        merge_frags(w);
        2
    })
}

/// Micro-ops that touch only the register file (and, for `Sel`, read
/// predicates): no memory, no barriers, no control flow, no predicate
/// writes. These cannot change fragment structure or guard outcomes.
fn register_only(u: &UOp) -> bool {
    matches!(
        u,
        UOp::S2R { .. }
            | UOp::Mov { .. }
            | UOp::Alu2 { .. }
            | UOp::Alu1 { .. }
            | UOp::IMad { .. }
            | UOp::IMadWide { .. }
            | UOp::FFma { .. }
            | UOp::DAdd { .. }
            | UOp::DMul { .. }
            | UOp::DFma { .. }
            | UOp::Sel { .. }
    )
}

const RZ8: u8 = 255;

fn push_reg(out: &mut Vec<u8>, r: u8) {
    if r != RZ8 {
        out.push(r);
    }
}

fn push_reg64(out: &mut Vec<u8>, r: u8) {
    if r != RZ8 {
        out.push(r);
        out.push(r + 1);
    }
}

fn push_src(out: &mut Vec<u8>, s: PSrc) {
    if let PSrc::Reg(r) = s {
        push_reg(out, r);
    }
}

/// Architectural registers a micro-op writes (pair-high halves included).
fn defs(u: &UOp) -> Vec<u8> {
    let mut out = Vec::new();
    match *u {
        UOp::S2R { d, .. }
        | UOp::Mov { d, .. }
        | UOp::Alu2 { d, .. }
        | UOp::Alu1 { d, .. }
        | UOp::IMad { d, .. }
        | UOp::FFma { d, .. }
        | UOp::Sel { d, .. } => push_reg(&mut out, d),
        UOp::IMadWide { d, .. }
        | UOp::DAdd { d, .. }
        | UOp::DMul { d, .. }
        | UOp::DFma { d, .. } => {
            push_reg64(&mut out, d);
        }
        _ => {}
    }
    out
}

/// Architectural registers a micro-op reads (pair-high halves included).
fn uses(u: &UOp) -> Vec<u8> {
    let mut out = Vec::new();
    match *u {
        UOp::Mov { a, .. } => push_src(&mut out, a),
        UOp::Alu2 { a, b, .. } => {
            push_reg(&mut out, a);
            push_src(&mut out, b);
        }
        UOp::Alu1 { a, .. } => push_reg(&mut out, a),
        UOp::IMad { a, b, c, .. } | UOp::FFma { a, b, c, .. } => {
            push_reg(&mut out, a);
            push_reg(&mut out, b);
            push_reg(&mut out, c);
        }
        UOp::IMadWide { a, b, c, .. } => {
            push_reg(&mut out, a);
            push_reg(&mut out, b);
            push_reg64(&mut out, c);
        }
        UOp::DAdd { a, b, .. } | UOp::DMul { a, b, .. } => {
            push_reg64(&mut out, a);
            push_reg64(&mut out, b);
        }
        UOp::DFma { a, b, c, .. } => {
            push_reg64(&mut out, a);
            push_reg64(&mut out, b);
            push_reg64(&mut out, c);
        }
        UOp::Sel { a, b, .. } => {
            push_reg(&mut out, a);
            push_src(&mut out, b);
        }
        _ => {}
    }
    out
}

/// SwapCodes original + check-bit shadow: identical register-only micro-op
/// under the same guard, full write followed by ECC-only write, with
/// destinations disjoint from sources (so the shadow's recomputation reads
/// unchanged registers).
fn is_ecc_pair(mop0: &MicroOp, mop1: &MicroOp) -> bool {
    mop0.uop == mop1.uop
        && mop0.guard == mop1.guard
        && mop0.write == WriteMode::Full
        && mop1.write == WriteMode::EccOnly
        && register_only(&mop0.uop)
        && {
            let ds = defs(&mop0.uop);
            !ds.is_empty() && uses(&mop0.uop).iter().all(|u| !ds.contains(u))
        }
}

/// Unguarded effectful SetP directly feeding the guard of the next branch,
/// neither op fault-eligible.
fn is_setp_bra(mop0: &MicroOp, mop1: &MicroOp) -> bool {
    let UOp::SetP { p, skip, .. } = mop0.uop else {
        return false;
    };
    if skip || mop0.guard != Guard::Always || mop0.eligible.is_some() {
        return false;
    }
    matches!(mop1.uop, UOp::Bra { .. })
        && mop1.eligible.is_none()
        && matches!(mop1.guard, Guard::If(b) | Guard::IfNot(b) if b == p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(uop: UOp, write: WriteMode) -> MicroOp {
        MicroOp {
            uop,
            guard: Guard::Always,
            write,
            eligible: None,
        }
    }

    #[test]
    fn tier_displays() {
        assert_eq!(ExecTier::Tier1.to_string(), "tier1");
        assert_eq!(ExecTier::Tier2.to_string(), "tier2");
        assert_eq!(ExecTier::default(), ExecTier::Tier1);
    }

    #[test]
    fn ecc_pair_requires_disjoint_defs_and_uses() {
        let orig = plain(
            UOp::Alu2 {
                kind: crate::predecode::Alu2Kind::IAdd,
                d: 2,
                a: 0,
                b: PSrc::Reg(1),
            },
            WriteMode::Full,
        );
        let mut shadow = orig;
        shadow.write = WriteMode::EccOnly;
        assert!(is_ecc_pair(&orig, &shadow));

        // d aliases a source: the shadow's recomputation would read the
        // freshly written register, so the pair must not fuse.
        let alias = plain(
            UOp::Alu2 {
                kind: crate::predecode::Alu2Kind::IAdd,
                d: 0,
                a: 0,
                b: PSrc::Reg(1),
            },
            WriteMode::Full,
        );
        let mut alias_shadow = alias;
        alias_shadow.write = WriteMode::EccOnly;
        assert!(!is_ecc_pair(&alias, &alias_shadow));

        // Different write-mode order is not the SwapCodes shadow idiom.
        assert!(!is_ecc_pair(&shadow, &orig));
    }

    #[test]
    fn pair_classification_covers_the_protection_idioms() {
        let setp = plain(
            UOp::SetP {
                p: 3,
                skip: false,
                cmp: swapcodes_isa::CmpOp::Ne,
                ty: swapcodes_isa::CmpTy::I32,
                a: 0,
                b: PSrc::Reg(1),
            },
            WriteMode::Full,
        );
        let mut bra = plain(UOp::Bra { target: 9 }, WriteMode::Full);
        bra.guard = Guard::If(3);
        assert!(is_setp_bra(&setp, &bra));
        bra.guard = Guard::If(2);
        assert!(!is_setp_bra(&setp, &bra), "different predicate bit");

        let mov = plain(
            UOp::Mov {
                d: 4,
                a: PSrc::Imm(7),
            },
            WriteMode::Full,
        );
        assert!(blockable(&mov.uop));
        assert!(!blockable(&UOp::Bar));
        assert!(!blockable(&UOp::Exit));
        assert!(!blockable(&UOp::Bra { target: 0 }));
    }

    #[test]
    fn compile_reports_fused_pairs() {
        use swapcodes_isa::{KernelBuilder, Op, Reg, Src};
        let mut b = KernelBuilder::new("t2");
        b.push(Op::Mov {
            d: Reg(0),
            a: Src::Imm(1),
        });
        b.push(Op::Mov {
            d: Reg(1),
            a: Src::Imm(2),
        });
        b.push(Op::Exit);
        let pk = PredecodedKernel::new(&b.finish());
        let ck = CompiledKernel::compile(&pk);
        assert_eq!(ck.len(), 3);
        assert!(!ck.is_empty());
        assert_eq!(ck.fused_pairs(), 1, "the two Movs fuse as a superblock");
        let dbg = format!("{ck:?}");
        assert!(dbg.contains("fused_pairs"));
    }
}
