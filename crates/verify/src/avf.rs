//! Liveness-based ACE-window vulnerability analysis with per-fault-class
//! coverage prediction.
//!
//! The injection campaigns in `swapcodes-inject` *measure* detection
//! coverage; this module *predicts* it from static structure plus one
//! fault-free dynamic profile, and the `oracle::avf_calibration` harness
//! holds the two against each other. The pipeline:
//!
//! 1. **ACE windows** — backward register/predicate liveness
//!    ([`swapcodes_isa::Liveness`]) is intersected with the per-PC dynamic
//!    issue counts of a golden run ([`DynProfile`], built from the
//!    executor's issue log). A strike on architecturally-dead state is
//!    provably masked; everything else is an ACE (architecturally correct
//!    execution required) window measured in dynamic-instruction units.
//! 2. **Scheme windows** — the protection scheme masks part of the ACE
//!    surface: SW-Dup's shadow compare catches any datapath delta, the
//!    Swap-ECC family catches exactly the burst patterns its code's
//!    syndrome distinguishes (enumerated exhaustively through
//!    [`swapcodes_ecc::swap::original_strike`] — detection of a linear code is
//!    data-independent, so the delta pattern alone decides the outcome).
//! 3. **Control exposure** — the four control-state strike kinds
//!    ([`ControlTarget`]) are masked structurally: dead predicate bits
//!    (liveness), strikes from which no store/atomic is reachable (a
//!    backward may-analysis over the CFG, [`crate::dataflow::solve_backward`]),
//!    and barrier flips in barrier-free kernels. The surviving exposure is
//!    scaled by per-kind behavioral rates calibrated once against a pooled
//!    control-only campaign (constants below carry their provenance).
//!
//! The output is a [`AvfReport`]: per-class predicted coverage with an
//! honest tolerance, the liveness ACE fractions, and a ranked list of
//! unprotected control-state sites — the mechanistic explanation of the
//! control-fault coverage gap the taxonomy campaigns measure. Site
//! *exclusion* uses only provable masking arguments, so every measured SDC
//! escape must map into the listed sites; site *ranking* uses the
//! calibrated model.

use swapcodes_core::Scheme;
use swapcodes_ecc::swap::{original_strike, shadow_strike, StrikeOutcome};
use swapcodes_ecc::HsiaoSecDed;
use swapcodes_isa::{Kernel, Liveness, Op};
use swapcodes_sim::ControlTarget;

use crate::cfg::Cfg;
use crate::dataflow::solve_backward;

/// Per-PC dynamic issue counts from a fault-free golden run.
///
/// Built from the executor's global issue log
/// (`ExecConfig::collect_issue_log`): `issue_log[i]` is the PC of the
/// `i`-th dynamically issued warp-instruction, which is also where a
/// control strike with `eligible_index == i` lands.
#[derive(Debug, Clone)]
pub struct DynProfile {
    issues: Vec<u64>,
    total: u64,
}

impl DynProfile {
    /// Tally a golden issue log into per-PC counts. Entries beyond
    /// `kernel_len` (impossible on a well-formed golden run) are ignored.
    #[must_use]
    pub fn from_issue_log(kernel_len: usize, log: &[u32]) -> Self {
        let mut issues = vec![0u64; kernel_len];
        let mut total = 0u64;
        for &pc in log {
            if let Some(slot) = issues.get_mut(pc as usize) {
                *slot += 1;
                total += 1;
            }
        }
        Self { issues, total }
    }

    /// Dynamic issues of instruction `pc`.
    #[must_use]
    pub fn issues(&self, pc: usize) -> u64 {
        self.issues.get(pc).copied().unwrap_or(0)
    }

    /// Total dynamic instructions profiled.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Stuck-at site area exposure (mirror of `swapcodes_gates::AreaSummary`,
/// kept as plain numbers so the analyzer does not depend on netlist types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaExposure {
    /// Total injectable area in milli-NAND2 equivalents.
    pub total_milli: u64,
    /// Area held by flip-flop (pipeline-state) sites.
    pub ff_milli: u64,
    /// Number of injectable sites.
    pub sites: usize,
}

/// Predicted coverage for one fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPrediction {
    /// Stable class label (`transient` / `control` / `stuckat`), the label
    /// campaign tallies bucket each [`swapcodes_sim::FaultClass`] under.
    pub class: &'static str,
    /// Predicted detected-given-unmasked coverage, the campaign's
    /// `ArchOutcomes::coverage` metric.
    pub coverage: f64,
    /// Model-unmasked (ACE) fraction of strikes in this class.
    pub ace: f64,
    /// Calibration tolerance: `|predicted - measured|` beyond this (and
    /// outside the measured Wilson interval) is a model failure.
    pub tolerance: f64,
}

/// One control-state strike site: a (PC, kind) pair the scheme does not
/// provably mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSite {
    /// Kernel PC the strike lands on (`issue_log[eligible_index]`).
    pub pc: usize,
    /// Which control state the strike corrupts.
    pub kind: ControlTarget,
    /// Dynamic issues of this PC (exposure weight).
    pub issues: u64,
    /// Model-predicted SDC probability mass of this site (ranking key).
    pub sdc_weight: f64,
}

/// Short stable label for a control-target kind.
#[must_use]
pub fn kind_label(kind: ControlTarget) -> &'static str {
    match kind {
        ControlTarget::Predicate => "predicate",
        ControlTarget::ActiveMask => "active-mask",
        ControlTarget::Barrier => "barrier",
        ControlTarget::SchedulerSlot => "scheduler-slot",
    }
}

/// The vulnerability analysis of one kernel under one scheme.
#[derive(Debug, Clone)]
pub struct AvfReport {
    /// Scheme label the kernel was analyzed under.
    pub scheme: String,
    /// Liveness-weighted register-file ACE fraction: live register slots
    /// per dynamic instruction over the architectural register count.
    pub reg_ace: f64,
    /// Liveness-weighted predicate-file ACE fraction (over the 7 writable
    /// predicate registers).
    pub pred_ace: f64,
    /// Per-kind control-state model exposure, in [`ControlTarget`] order
    /// (predicate, active-mask, barrier, scheduler-slot).
    pub control_exposure: [f64; 4],
    /// Transient-class prediction.
    pub transient: ClassPrediction,
    /// Control-class prediction.
    pub control: ClassPrediction,
    /// Stuck-at-class prediction.
    pub stuck_at: ClassPrediction,
    /// Unprotected control-state sites, ranked by predicted SDC mass
    /// (descending). Exclusion is provable-masking only, so measured SDC
    /// escapes always map into this list.
    pub control_sites: Vec<ControlSite>,
    /// Stuck-at site area exposure, when the caller supplied one.
    pub area: Option<AreaExposure>,
}

impl AvfReport {
    /// The three class predictions in campaign bucket order.
    #[must_use]
    pub fn classes(&self) -> [&ClassPrediction; 3] {
        [&self.transient, &self.control, &self.stuck_at]
    }

    /// The prediction for a class label, if it is one of the three.
    #[must_use]
    pub fn prediction(&self, class: &str) -> Option<&ClassPrediction> {
        self.classes().into_iter().find(|c| c.class == class)
    }

    /// Is `(pc, kind)` among the reported (not provably masked) sites?
    #[must_use]
    pub fn site_listed(&self, pc: usize, kind: ControlTarget) -> bool {
        self.control_sites
            .iter()
            .any(|s| s.pc == pc && s.kind == kind)
    }
}

impl std::fmt::Display for AvfReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: reg ACE {:.1}%, pred ACE {:.1}%",
            self.scheme,
            self.reg_ace * 100.0,
            self.pred_ace * 100.0
        )?;
        for c in self.classes() {
            writeln!(
                f,
                "  {:<9} predicted coverage {:>5.1}% (ACE {:>5.1}%, tol ±{:.0}%)",
                c.class,
                c.coverage * 100.0,
                c.ace * 100.0,
                c.tolerance * 100.0
            )?;
        }
        writeln!(f, "  top unprotected control sites:")?;
        for s in self.control_sites.iter().take(5) {
            writeln!(
                f,
                "    pc {:<4} {:<14} issues {:<8} sdc weight {:.5}",
                s.pc,
                kind_label(s.kind),
                s.issues,
                s.sdc_weight
            )?;
        }
        Ok(())
    }
}

/// Per-kind behavioral rates, conditional on a strike the structural model
/// leaves unmasked.
#[derive(Debug, Clone, Copy)]
struct KindRates {
    det: f64,
    sdc: f64,
}

/// Per-family control-strike behavior. Calibrated once from a pooled
/// control-only campaign (400 trials x 3 workloads x each scheme of the
/// family, seed `0xCA11_B007`); the campaign-validation harness re-measures
/// with independent seeds and gates `|predicted - measured|` against
/// [`CONTROL_TOLERANCE`].
#[derive(Debug, Clone, Copy)]
struct ControlRates {
    predicate: KindRates,
    active_mask: KindRates,
    barrier: KindRates,
    scheduler: KindRates,
}

/// Scheme family for prediction purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// SW-Dup: raw-value shadow compare plus trap.
    SwDup,
    /// Swap-ECC / Swap-Predict: codeword consistency at register reads.
    Ecc,
    /// No intra-thread duplication invariant (Baseline, inter-thread).
    Bare,
}

fn family(scheme: Scheme) -> Family {
    match scheme {
        Scheme::SwDup => Family::SwDup,
        Scheme::SwapEcc | Scheme::SwapPredict(_) => Family::Ecc,
        Scheme::Baseline | Scheme::InterThread { .. } => Family::Bare,
    }
}

/// Documented calibration tolerances per class (see DESIGN §12 for the
/// argument): the transient model is an exact pattern enumeration whose
/// residual error is workload value-masking; the control model carries
/// empirically-calibrated behavioral constants; the stuck-at model is a
/// saturation argument.
pub const TRANSIENT_TOLERANCE: f64 = 0.05;
/// Control-class calibration tolerance.
pub const CONTROL_TOLERANCE: f64 = 0.15;
/// Stuck-at-class calibration tolerance.
pub const STUCKAT_TOLERANCE: f64 = 0.02;

fn control_rates(fam: Family) -> ControlRates {
    match fam {
        // SW-Dup pool (1200 trials): the model's predicate exposure tracks
        // the measured unmasked fraction, and of the unmasked strikes the
        // shadow compare catches 6 det vs 2 sdc; active-mask flips are SDC
        // 296/297; barrier flips 1 SDC in 275 (u_bar = 1 only for the one
        // barrier workload); scheduler strikes land 69 det / 54 sdc / 174
        // behaviorally-masked of 297.
        Family::SwDup => ControlRates {
            predicate: KindRates {
                det: 0.75,
                sdc: 0.25,
            },
            active_mask: KindRates {
                det: 0.0,
                sdc: 0.997,
            },
            barrier: KindRates {
                det: 0.0,
                sdc: 0.011,
            },
            scheduler: KindRates {
                det: 0.232,
                sdc: 0.182,
            },
        },
        // Swap-ECC + Swap-Predict pool (2400 trials): predicate 0 det /
        // 1 sdc of the (tiny) unmasked exposure; active-mask 592/594 SDC;
        // barrier 2 SDC in 549; scheduler 98 det / 155 sdc of 600. Bare
        // kernels have no intra-thread checks either, so they share the
        // family's (checkless) control behavior.
        Family::Ecc | Family::Bare => ControlRates {
            predicate: KindRates { det: 0.0, sdc: 1.0 },
            active_mask: KindRates {
                det: 0.0,
                sdc: 0.997,
            },
            barrier: KindRates {
                det: 0.0,
                sdc: 0.011,
            },
            scheduler: KindRates {
                det: 0.163,
                sdc: 0.258,
            },
        },
    }
}

/// Exhaustive transient-delta enumeration for the Swap-ECC family: every
/// burst pattern the campaign can draw (widths 1/2/4 with weights 3:2:1,
/// positions uniform, original/shadow target 50/50) classified through the
/// SEC-DED strike predicates. Detection of a linear code depends only on
/// the delta, so this is the complete scheme window — the residual
/// (workload-dependent) error is value-level masking downstream of an
/// aliasing burst. Returns predicted detected-given-unmasked coverage.
fn transient_coverage_secded() -> f64 {
    let code = HsiaoSecDed::new();
    let mut det = 0.0f64;
    let mut sdc = 0.0f64;
    for (width, weight) in [(1u32, 3.0 / 6.0), (2, 2.0 / 6.0), (4, 1.0 / 6.0)] {
        let positions = 33 - width;
        let p = weight / f64::from(positions);
        for bit in 0..positions {
            let delta = ((1u32 << width) - 1) << bit;
            match original_strike(&code, 0, delta) {
                StrikeOutcome::Detected => det += 0.5 * p,
                StrikeOutcome::SilentCorruption => sdc += 0.5 * p,
                StrikeOutcome::Masked | StrikeOutcome::Benign => {}
            }
            // Benign shadow aliasing leaves golden data in place:
            // program-level masked, outside the coverage denominator.
            if shadow_strike(&code, 0, delta) == StrikeOutcome::Detected {
                det += 0.5 * p;
            }
        }
    }
    det / (det + sdc)
}

/// Per-instruction "an architecturally-observable effect (store/atomic) is
/// still reachable from here" — the backward may-analysis that proves
/// control strikes near the kernel tail masked.
fn effect_reachable(kernel: &Kernel, cfg: &Cfg) -> Vec<bool> {
    let has_effect = |i: &swapcodes_isa::Instr| matches!(i.op, Op::St { .. } | Op::AtomAdd { .. });
    let outs = solve_backward(
        cfg,
        false,
        |a: &bool, b: &bool| *a || *b,
        |b, s| {
            s || kernel.instrs()[cfg.blocks[b].start..cfg.blocks[b].end]
                .iter()
                .any(has_effect)
        },
    );
    let mut reach = vec![false; kernel.len()];
    for (bi, block) in cfg.blocks.iter().enumerate() {
        let mut r = outs[bi].unwrap_or(false);
        for i in (block.start..block.end).rev() {
            r = r || has_effect(&kernel.instrs()[i]);
            reach[i] = r;
        }
    }
    reach
}

/// Analyze `kernel` (the scheme-transformed kernel a campaign executes)
/// against the dynamic `profile` of its golden run.
#[must_use]
pub fn analyze(
    scheme: Scheme,
    kernel: &Kernel,
    profile: &DynProfile,
    area: Option<AreaExposure>,
) -> AvfReport {
    let fam = family(scheme);
    let cfg = Cfg::build(kernel);
    let live = Liveness::compute(kernel);
    let reach = effect_reachable(kernel, &cfg);
    let n = kernel.len();
    let total = profile.total().max(1) as f64;
    let has_bar =
        (0..n).any(|i| cfg.reachable[cfg.block_of[i]] && matches!(kernel.instrs()[i].op, Op::Bar));

    // Liveness ACE fractions (dynamic-instruction weighted).
    let regs = f64::from(kernel.register_count().max(1));
    let mut reg_slots = 0.0f64;
    let mut pred_slots = 0.0f64;
    // Transient ACE: eligible original defs whose destination is live-out.
    let mut elig_issues = 0u64;
    let mut elig_live = 0u64;
    // Control exposure accumulators per kind.
    let mut exposure = [0.0f64; 4];
    let mut sites: Vec<ControlSite> = Vec::new();
    let rates = control_rates(fam);

    for pc in 0..n {
        let issues = profile.issues(pc);
        if issues == 0 {
            continue;
        }
        let w = issues as f64 / total;
        let instr = &kernel.instrs()[pc];
        let lin = live.live_in(pc);
        reg_slots += w * f64::from(lin.reg_count());
        pred_slots += w * f64::from(lin.pred_count());

        if instr.op.is_dup_eligible() && !instr.ecc_only {
            elig_issues += issues;
            if instr.op.defs().iter().any(|&d| live.live_out(pc).reg(d)) {
                elig_live += issues;
            }
        }

        // Predicate strike: bit uniform over 8; PT (bit 7) is hardwired and
        // statically-dead bits are provably unobservable from this point.
        let u_pred = f64::from(lin.pred_count()) / 8.0;
        exposure[0] += w * u_pred;
        // Active-mask strike: masked only when no store/atomic is reachable.
        let u_amask = if reach[pc] { 1.0 } else { 0.0 };
        exposure[1] += w * u_amask;
        // Barrier flip: pure scheduling delay in a barrier-free kernel.
        let u_bar = if has_bar { 1.0 } else { 0.0 };
        exposure[2] += w * u_bar;
        // Scheduler-slot strike: the warp resumes at pc ^ {1,2,4} (or
        // retires when that leaves the kernel); masked only when neither
        // the lost suffix nor any strike destination can reach an effect.
        let u_sched = if reach[pc]
            || [1usize, 2, 4]
                .iter()
                .any(|&m| (pc ^ m) < n && reach[pc ^ m])
        {
            1.0
        } else {
            0.0
        };
        exposure[3] += w * u_sched;

        // Site list: exclusion is provable masking only; ranking weight
        // carries the calibrated model.
        let kinds: [(ControlTarget, f64, KindRates); 4] = [
            (ControlTarget::Predicate, u_pred, rates.predicate),
            (ControlTarget::ActiveMask, u_amask, rates.active_mask),
            (ControlTarget::Barrier, u_bar, rates.barrier),
            (ControlTarget::SchedulerSlot, u_sched, rates.scheduler),
        ];
        for (kind, u, kr) in kinds {
            let provably_masked = match kind {
                // Only the hardwired PT bit is provably dead per-PC in the
                // presence of warp divergence (other fragments of the same
                // warp can read bits this fragment's continuation never
                // does), so predicate sites are always listed; the model
                // weight still reflects the local liveness window.
                ControlTarget::Predicate => false,
                ControlTarget::ActiveMask | ControlTarget::SchedulerSlot => u == 0.0,
                ControlTarget::Barrier => !has_bar,
            };
            if provably_masked {
                continue;
            }
            sites.push(ControlSite {
                pc,
                kind,
                issues,
                sdc_weight: 0.25 * w * u * kr.sdc,
            });
        }
    }

    // Control coverage: mix the per-kind exposures with the calibrated
    // behavioral rates. Kinds are drawn uniformly (1/4 each).
    let mut cdet = 0.0f64;
    let mut csdc = 0.0f64;
    for (u, kr) in exposure.iter().zip([
        rates.predicate,
        rates.active_mask,
        rates.barrier,
        rates.scheduler,
    ]) {
        cdet += 0.25 * u * kr.det;
        csdc += 0.25 * u * kr.sdc;
    }
    let control_cov = if cdet + csdc > 0.0 {
        cdet / (cdet + csdc)
    } else {
        1.0
    };
    let control_ace = exposure.iter().sum::<f64>() / 4.0;

    let transient_cov = match fam {
        Family::SwDup => 1.0,
        Family::Ecc => transient_coverage_secded(),
        Family::Bare => 0.0,
    };
    let transient_ace = if elig_issues == 0 {
        0.0
    } else {
        elig_live as f64 / elig_issues as f64
    };
    // Stuck-at: a permanent defect re-asserts on every eligible access, so
    // under any duplication scheme the first live consumption of a changed
    // value raises a detection; the burst is a single stuck bit (weight-1
    // delta), which SEC-DED and a raw compare both always see.
    let stuck_cov = match fam {
        Family::SwDup | Family::Ecc => 1.0,
        Family::Bare => 0.0,
    };

    sites.sort_by(|a, b| {
        b.sdc_weight
            .partial_cmp(&a.sdc_weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.pc.cmp(&b.pc))
    });

    AvfReport {
        scheme: scheme.label(),
        reg_ace: reg_slots / regs,
        pred_ace: pred_slots / 7.0,
        control_exposure: exposure,
        transient: ClassPrediction {
            class: "transient",
            coverage: transient_cov,
            ace: transient_ace,
            tolerance: TRANSIENT_TOLERANCE,
        },
        control: ClassPrediction {
            class: "control",
            coverage: control_cov,
            ace: control_ace,
            tolerance: CONTROL_TOLERANCE,
        },
        stuck_at: ClassPrediction {
            class: "stuckat",
            coverage: stuck_cov,
            ace: 1.0,
            tolerance: STUCKAT_TOLERANCE,
        },
        control_sites: sites,
        area,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_isa::{CmpOp, CmpTy, KernelBuilder, MemSpace, MemWidth, Pred, Reg, Src};

    fn straightline() -> Kernel {
        let mut k = KernelBuilder::new("s");
        k.push(Op::Mov {
            d: Reg(0),
            a: Src::Imm(1),
        });
        k.push(Op::IAdd {
            d: Reg(1),
            a: Reg(0),
            b: Src::Imm(2),
        });
        k.push(Op::St {
            space: MemSpace::Global,
            addr: Reg(0),
            offset: 0,
            v: Reg(1),
            width: MemWidth::W32,
        });
        k.push(Op::Exit);
        k.finish()
    }

    fn uniform_profile(kernel: &Kernel) -> DynProfile {
        let log: Vec<u32> = (0..kernel.len() as u32).collect();
        DynProfile::from_issue_log(kernel.len(), &log)
    }

    #[test]
    fn profile_tallies_and_ignores_out_of_range() {
        let p = DynProfile::from_issue_log(3, &[0, 0, 2, 9]);
        assert_eq!(p.issues(0), 2);
        assert_eq!(p.issues(2), 1);
        assert_eq!(p.issues(9), 0);
        assert_eq!(p.total(), 3);
    }

    #[test]
    fn secded_burst_enumeration_is_high_but_imperfect() {
        let c = transient_coverage_secded();
        // 1- and 2-bit bursts are always detected; only 4-bit bursts can
        // alias, and they are drawn 1/6 of the time on one side.
        assert!(c > 0.9 && c < 1.0, "coverage {c}");
    }

    #[test]
    fn swdup_predicts_full_transient_coverage() {
        let k = straightline();
        let r = analyze(Scheme::SwDup, &k, &uniform_profile(&k), None);
        assert_eq!(r.transient.coverage, 1.0);
        assert_eq!(r.stuck_at.coverage, 1.0);
    }

    #[test]
    fn barrier_free_kernel_masks_barrier_sites() {
        let k = straightline();
        let r = analyze(Scheme::SwapEcc, &k, &uniform_profile(&k), None);
        assert_eq!(r.control_exposure[2], 0.0);
        assert!(r
            .control_sites
            .iter()
            .all(|s| s.kind != ControlTarget::Barrier));
    }

    #[test]
    fn tail_instructions_mask_active_mask_and_scheduler_sites() {
        let k = straightline();
        let r = analyze(Scheme::SwapEcc, &k, &uniform_profile(&k), None);
        // After the store (pc 3 = EXIT) no effect is reachable; pc 3 ^ m
        // lands on pre-store code for m in {1,2}, so the scheduler site at
        // the EXIT stays listed while the active-mask site does not.
        assert!(!r.site_listed(3, ControlTarget::ActiveMask));
        assert!(r.site_listed(3, ControlTarget::SchedulerSlot));
        assert!(r.site_listed(0, ControlTarget::ActiveMask));
    }

    #[test]
    fn dead_predicate_windows_shrink_exposure_but_sites_stay_listed() {
        // P0 is set and immediately consumed: live at exactly one PC.
        let mut k = KernelBuilder::new("p");
        k.push(Op::SetP {
            p: Pred(0),
            cmp: CmpOp::Eq,
            ty: CmpTy::U32,
            a: Reg(0),
            b: Src::Imm(0),
        });
        k.push(Op::Sel {
            d: Reg(1),
            p: Pred(0),
            a: Reg(0),
            b: Src::Reg(Reg(0)),
        });
        k.push(Op::St {
            space: MemSpace::Global,
            addr: Reg(0),
            offset: 0,
            v: Reg(1),
            width: MemWidth::W32,
        });
        k.push(Op::Exit);
        let k = k.finish();
        let r = analyze(Scheme::SwapEcc, &k, &uniform_profile(&k), None);
        // Exposure: P0 live only at the SEL's live-in (1 of 8 bits at 1 of
        // 4 PCs) = 1/32.
        assert!((r.control_exposure[0] - 1.0 / 32.0).abs() < 1e-9);
        // Every PC still lists a predicate site (divergence soundness).
        assert!(r.site_listed(0, ControlTarget::Predicate));
    }

    #[test]
    fn report_display_carries_key_facts() {
        let k = straightline();
        let r = analyze(
            Scheme::SwapEcc,
            &k,
            &uniform_profile(&k),
            Some(AreaExposure {
                total_milli: 1000,
                ff_milli: 400,
                sites: 12,
            }),
        );
        let d = r.to_string();
        assert!(d.starts_with("Swap-ECC: reg ACE"));
        assert!(d.contains("transient predicted coverage"));
        assert!(d.contains("predicted coverage"));
        assert!(r.prediction("control").is_some());
        assert!(r.prediction("nope").is_none());
    }

    #[test]
    fn sites_are_ranked_by_sdc_weight() {
        let k = straightline();
        let r = analyze(Scheme::SwapEcc, &k, &uniform_profile(&k), None);
        for pair in r.control_sites.windows(2) {
            assert!(pair[0].sdc_weight >= pair[1].sdc_weight);
        }
    }
}
