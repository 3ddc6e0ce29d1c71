//! Static protection verifier for SwapCodes-transformed kernels.
//!
//! The paper's central claim is that each protection scheme leaves no
//! unprotected path from a faulty pipeline result to architectural state.
//! Fault injection samples that claim dynamically; this crate *proves* it
//! statically: it builds the kernel CFG ([`mod@cfg`]), runs a classic forward
//! must-dataflow ([`dataflow`]) over a per-register protection lattice
//! (`Unprotected | ShadowPending | Checked | EccCovered | Predicted`, as
//! specialised per scheme in [`Rule`]'s namespaces), and checks each
//! scheme's invariant:
//!
//! * **SW-Dup** — every value an unduplicated consumer (store, address,
//!   atomic, predicate write, shuffle) reads must have passed a
//!   shadow-compare-and-trap on *all* paths since its last definition, every
//!   duplicated definition must have an independent shadow re-execution in
//!   the shadow register space, and shadows must never share the original's
//!   output operands (the hole that would let a corrupt original validate
//!   itself);
//! * **Swap-ECC / Swap-Predict** — every duplication-eligible definition
//!   must either carry an ECC-only shadow re-execution before any read, be a
//!   propagated move of a covered value, or be legitimately covered by the
//!   configured hardware check-bit predictor set;
//! * **Inter-thread** — shuffle-based checks must reach every global
//!   store/atomic operand on all paths (i.e. dominate the store through the
//!   dataflow), stores must be restricted to the original lane, checks must
//!   not sit in divergent (guarded) flow, and thread-index reads must be
//!   halved.
//!
//! Verification emits structured [`Finding`]s (rule id, instruction,
//! register, shortest-path witness) and a [`Coverage`] summary — the static
//! counterpart of the paper's Fig. 10 detection coverage: the fraction of
//! fault-injection target points the scheme provably protects.
//!
//! # Example
//!
//! ```
//! use swapcodes_core::Scheme;
//! use swapcodes_isa::{KernelBuilder, Op, Reg, Src};
//! use swapcodes_verify::verify;
//!
//! let mut k = KernelBuilder::new("axpy");
//! k.push(Op::IAdd { d: Reg(0), a: Reg(1), b: Src::Imm(7) });
//! k.push(Op::Exit);
//! let kernel = k.finish();
//!
//! let t = swapcodes_core::apply(Scheme::SwapEcc, &kernel,
//!     swapcodes_sim::Launch::grid(1, 32)).unwrap();
//! let report = verify(Scheme::SwapEcc, &t.kernel);
//! assert!(report.is_clean());
//! assert_eq!(report.coverage.fraction(), 1.0);
//! # // the untransformed kernel is a hole the verifier sees immediately:
//! let bad = verify(Scheme::SwapEcc, &kernel);
//! assert!(!bad.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avf;
pub mod cfg;
pub mod dataflow;
mod interthread;
mod swapecc;
mod swdup;

use swapcodes_core::Scheme;
use swapcodes_isa::{Kernel, Reg};
use swapcodes_json::escape;

/// A verifier rule: one way a scheme's protection invariant can be broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// SW-Dup: a duplicated value reached an unduplicated consumer without a
    /// shadow compare on some path.
    SwDupUncheckedConsume,
    /// SW-Dup: a duplicated definition has no shadow re-execution.
    SwDupMissingShadow,
    /// SW-Dup: a shadow instruction reads original-space registers it should
    /// have read from the shadow space (a corrupt original would validate
    /// itself).
    SwDupSharedOperand,
    /// SW-Dup: a shadow instruction is not the register-mapped image of its
    /// original.
    SwDupShadowMismatch,
    /// SW-Dup: a shadow register is overwritten by something other than its
    /// paired shadow re-execution (e.g. a copy of the unverified original).
    SwDupShadowClobber,
    /// SW-Dup: a value is consumed between its original and shadow halves.
    SwDupConsumeBeforeShadow,
    /// SW-Dup: shadow pairs imply inconsistent register-space offsets.
    SwDupInconsistentOffset,
    /// Swap-ECC: a definition is read before its ECC-only shadow re-executes
    /// (the self-consistent-codeword window).
    SwapEccConsumeBeforeShadow,
    /// Swap-ECC: a duplication-eligible definition has no ECC-only shadow on
    /// some path.
    SwapEccMissingShadow,
    /// Swap-ECC: an ECC-only shadow does not match a preceding plain
    /// execution of the same operation.
    SwapEccOrphanShadow,
    /// Swap-Predict: an instruction is marked `predicted` but is neither a
    /// propagated move nor covered by the configured predictor set.
    SwapEccBogusPredicted,
    /// Inter-thread: a store/atomic operand is not shuffle-checked on all
    /// paths.
    InterThreadUncheckedStore,
    /// Inter-thread: a store/atomic is not restricted to the original lane.
    InterThreadUnguardedStore,
    /// Inter-thread: the lane-parity prologue that defines the shadow-lane
    /// predicate is missing.
    InterThreadMissingPrologue,
    /// Inter-thread: a shuffle check sits in divergent (guarded) flow, where
    /// the partner lane may not participate.
    InterThreadDivergentCheck,
    /// Inter-thread: a thread-index read is not halved to the logical index.
    InterThreadUnhalvedTid,
}

impl Rule {
    /// Stable machine-readable rule id, `namespace/kebab-name`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::SwDupUncheckedConsume => "swdup/unchecked-consume",
            Rule::SwDupMissingShadow => "swdup/missing-shadow",
            Rule::SwDupSharedOperand => "swdup/shared-operand",
            Rule::SwDupShadowMismatch => "swdup/shadow-mismatch",
            Rule::SwDupShadowClobber => "swdup/shadow-clobber",
            Rule::SwDupConsumeBeforeShadow => "swdup/consume-before-shadow",
            Rule::SwDupInconsistentOffset => "swdup/inconsistent-offset",
            Rule::SwapEccConsumeBeforeShadow => "swapecc/consume-before-shadow",
            Rule::SwapEccMissingShadow => "swapecc/missing-shadow",
            Rule::SwapEccOrphanShadow => "swapecc/orphan-shadow",
            Rule::SwapEccBogusPredicted => "swapecc/bogus-predicted",
            Rule::InterThreadUncheckedStore => "interthread/unchecked-store",
            Rule::InterThreadUnguardedStore => "interthread/unguarded-store",
            Rule::InterThreadMissingPrologue => "interthread/missing-prologue",
            Rule::InterThreadDivergentCheck => "interthread/divergent-check",
            Rule::InterThreadUnhalvedTid => "interthread/unhalved-tid",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One protection hole found by the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant is violated.
    pub rule: Rule,
    /// Instruction index where the violation manifests.
    pub at: usize,
    /// The register whose protection is broken, if one is implicated.
    pub reg: Option<Reg>,
    /// A path witness: instruction indices from the implicated definition
    /// (first element) through one shortest CFG path to the violation (last
    /// element). A single element means the violation is purely local.
    pub witness: Vec<usize>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ instr {}", self.rule, self.at)?;
        if let Some(r) = self.reg {
            write!(f, " [{r}]")?;
        }
        if self.witness.len() > 1 {
            write!(f, " (path")?;
            for w in &self.witness {
                write!(f, " {w}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// The statically-proven protection coverage: of the `points` a fault
/// injector could target under this scheme, how many are provably covered.
///
/// The *point* granularity matches each scheme's fault model: eligible
/// (duplicated/predicted) instruction definitions for the intra-thread
/// schemes and store/atomic operand slots for inter-thread duplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// What a point is, for report labelling.
    pub kind: &'static str,
    /// Reachable fault-target points in the kernel.
    pub points: u32,
    /// Points the scheme provably protects.
    pub covered: u32,
}

impl Coverage {
    /// Covered fraction in `[0, 1]`; a kernel with no target points is
    /// vacuously fully covered.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.points == 0 {
            1.0
        } else {
            f64::from(self.covered) / f64::from(self.points)
        }
    }
}

/// The result of verifying one kernel under one scheme.
#[derive(Debug, Clone)]
pub struct Report {
    /// The scheme label the kernel was verified against.
    pub scheme: String,
    /// Every invariant violation, in instruction order.
    pub findings: Vec<Finding>,
    /// Statically-proven coverage.
    pub coverage: Coverage,
}

impl Report {
    /// Whether the kernel upholds every invariant of its scheme.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the report as a JSON object — the machine-readable form CI
    /// consumes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                let reg = f
                    .reg
                    .map_or_else(|| "null".to_owned(), |r| format!("\"{r}\""));
                let witness: Vec<String> = f.witness.iter().map(ToString::to_string).collect();
                format!(
                    "{{\"rule\":\"{}\",\"at\":{},\"reg\":{},\"witness\":[{}]}}",
                    f.rule.id(),
                    f.at,
                    reg,
                    witness.join(",")
                )
            })
            .collect();
        format!(
            "{{\"scheme\":\"{}\",\"clean\":{},\"coverage\":{{\"kind\":\"{}\",\"points\":{},\"covered\":{},\"fraction\":{:.6}}},\"findings\":[{}]}}",
            escape(&self.scheme),
            self.is_clean(),
            escape(self.coverage.kind),
            self.coverage.points,
            self.coverage.covered,
            self.coverage.fraction(),
            findings.join(",")
        )
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} finding(s), {}/{} {} covered ({:.1}%)",
            self.scheme,
            self.findings.len(),
            self.coverage.covered,
            self.coverage.points,
            self.coverage.kind,
            self.coverage.fraction() * 100.0
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Deduplicate and order findings so reports are deterministic regardless of
/// block visit order.
fn finalize_findings(mut findings: Vec<Finding>) -> Vec<Finding> {
    findings.sort_by_key(|f| (f.at, f.rule.id(), f.reg.map(|r| r.0)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.at == b.at && a.reg == b.reg);
    findings
}

/// Verify that `kernel` upholds the protection invariant of `scheme`.
///
/// The kernel is expected to be the **output** of
/// [`swapcodes_core::apply`] for the same scheme (or hand-written code
/// claiming to satisfy the same contract). [`Scheme::Baseline`] and the
/// unchecked inter-thread variant carry no detection invariant: they verify
/// clean with zero static coverage over their would-be target points.
#[must_use]
pub fn verify(scheme: Scheme, kernel: &Kernel) -> Report {
    let cfg = cfg::Cfg::build(kernel);
    let (findings, coverage) = match scheme {
        Scheme::Baseline => (Vec::new(), baseline_coverage(kernel, &cfg)),
        Scheme::SwDup => swdup::check(kernel, &cfg),
        Scheme::SwapEcc => swapecc::check(kernel, &cfg, swapcodes_core::PredictorSet::NONE),
        Scheme::SwapPredict(set) => swapecc::check(kernel, &cfg, set),
        Scheme::InterThread { checked } => interthread::check(kernel, &cfg, checked),
    };
    Report {
        scheme: scheme.label(),
        findings: finalize_findings(findings),
        coverage,
    }
}

/// Baseline: every reachable eligible definition is an unprotected fault
/// target.
fn baseline_coverage(kernel: &Kernel, cfg: &cfg::Cfg) -> Coverage {
    let mut points = 0u32;
    for (bi, block) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[bi] {
            continue;
        }
        for instr in &kernel.instrs()[block.start..block.end] {
            if instr.op.is_dup_eligible() {
                points += 1;
            }
        }
    }
    Coverage {
        kind: "eligible defs",
        points,
        covered: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_isa::{KernelBuilder, Op, Src};

    #[test]
    fn rule_ids_are_namespaced_and_unique() {
        let rules = [
            Rule::SwDupUncheckedConsume,
            Rule::SwDupMissingShadow,
            Rule::SwDupSharedOperand,
            Rule::SwDupShadowMismatch,
            Rule::SwDupShadowClobber,
            Rule::SwDupConsumeBeforeShadow,
            Rule::SwDupInconsistentOffset,
            Rule::SwapEccConsumeBeforeShadow,
            Rule::SwapEccMissingShadow,
            Rule::SwapEccOrphanShadow,
            Rule::SwapEccBogusPredicted,
            Rule::InterThreadUncheckedStore,
            Rule::InterThreadUnguardedStore,
            Rule::InterThreadMissingPrologue,
            Rule::InterThreadDivergentCheck,
            Rule::InterThreadUnhalvedTid,
        ];
        let ids: std::collections::HashSet<&str> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), rules.len());
        assert!(ids.iter().all(|id| id.contains('/')));
    }

    #[test]
    fn finding_display_carries_rule_register_and_path() {
        let f = Finding {
            rule: Rule::SwDupUncheckedConsume,
            at: 12,
            reg: Some(Reg(5)),
            witness: vec![3, 8, 12],
        };
        let s = f.to_string();
        assert!(s.contains("swdup/unchecked-consume"));
        assert!(s.contains("R5"));
        assert!(s.contains("path 3 8 12"));
    }

    #[test]
    fn baseline_verifies_clean_with_zero_coverage() {
        let mut k = KernelBuilder::new("b");
        k.push(Op::IAdd {
            d: Reg(0),
            a: Reg(1),
            b: Src::Imm(1),
        });
        k.push(Op::Exit);
        let r = verify(Scheme::Baseline, &k.finish());
        assert!(r.is_clean());
        assert_eq!(r.coverage.points, 1);
        assert_eq!(r.coverage.covered, 0);
        assert_eq!(r.coverage.fraction(), 0.0);
    }

    #[test]
    fn vacuous_coverage_is_full() {
        let c = Coverage {
            kind: "eligible defs",
            points: 0,
            covered: 0,
        };
        assert_eq!(c.fraction(), 1.0);
    }

    #[test]
    fn report_display_summarises() {
        let r = Report {
            scheme: "Swap-ECC".to_owned(),
            findings: vec![Finding {
                rule: Rule::SwapEccMissingShadow,
                at: 2,
                reg: Some(Reg(1)),
                witness: vec![2],
            }],
            coverage: Coverage {
                kind: "eligible defs",
                points: 4,
                covered: 3,
            },
        };
        let s = r.to_string();
        assert!(s.contains("1 finding(s)"));
        assert!(s.contains("3/4"));
        assert!(s.contains("swapecc/missing-shadow"));
    }
}
