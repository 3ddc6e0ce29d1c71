//! Differential oracle: cross-check the *static* protection proof against
//! *dynamic* fault injection.
//!
//! The static verifier ([`swapcodes_verify`]) claims that a clean report
//! means no unprotected path from a covered definition to architectural
//! state. Injection claims that faults get detected. This module pits the
//! two against each other over the same transformed kernel:
//!
//! * a trial that ends in SDC while the static report is clean is an
//!   **escape** — either the verifier's rules are unsound or the simulator's
//!   detection model is broken, and either way it is a bug worth a test
//!   failure;
//! * a dirty static report on a stock transform output is a transform
//!   regression caught before a single trial runs.
//!
//! The oracle reuses [`ArchCampaign`]'s pure per-trial fault derivation, so
//! an escape's trial index is enough to replay it exactly.

use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_sim::exec::{ExecConfig, Executor};
use swapcodes_sim::recovery::RecoveryConfig;
use swapcodes_sim::FaultClass;
use swapcodes_verify::avf::{analyze, AreaExposure, AvfReport, DynProfile};
use swapcodes_verify::{verify, Report};

use crate::arch::{
    ArchCampaign, ArchOutcomes, CampaignOptions, FaultClassTallies, FaultMix, PrepError,
    TrialOutcome,
};
use crate::stats::Proportion;

/// The verdict of one differential run: the static report and every trial
/// that escaped as SDC.
#[derive(Debug)]
pub struct OracleVerdict {
    /// The static verifier's report over the campaign's transformed kernel.
    pub report: Report,
    /// Trials executed.
    pub trials: u64,
    /// Trial indices that ended in silent data corruption.
    pub escapes: Vec<u64>,
}

impl OracleVerdict {
    /// Clean static proof AND no dynamic escape.
    #[must_use]
    pub fn is_clean_and_sound(&self) -> bool {
        self.report.is_clean() && self.escapes.is_empty()
    }
}

impl std::fmt::Display for OracleVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} findings, {}/{} trials escaped",
            self.report.scheme,
            self.report.findings.len(),
            self.escapes.len(),
            self.trials,
        )
    }
}

/// Statically verify `workload` under `scheme`, then fire `trials` injection
/// trials at the same kernel and record every SDC escape.
///
/// # Errors
///
/// Propagates [`PrepError`] when the scheme does not apply or the golden run
/// fails — same contract as [`ArchCampaign::prepare`].
pub fn differential_oracle(
    workload: &swapcodes_workloads::Workload,
    scheme: Scheme,
    trials: u64,
    seed: u64,
) -> Result<OracleVerdict, PrepError> {
    let campaign = ArchCampaign::prepare(workload, scheme, seed)?;
    let report = verify(scheme, campaign.kernel());
    let mut escapes = Vec::new();
    for trial in 0..trials {
        if campaign.run_trial(trial) == TrialOutcome::Sdc {
            escapes.push(trial);
        }
    }
    Ok(OracleVerdict {
        report,
        trials,
        escapes,
    })
}

/// The verdict of a recovery-mode differential run: beyond the static/SDC
/// cross-check, it audits that the recovery ladder never converted a
/// detection into a silent escape.
#[derive(Debug)]
pub struct RecoveryVerdict {
    /// The static verifier's report over the campaign's transformed kernel.
    pub report: Report,
    /// Trials executed.
    pub trials: u64,
    /// Trial indices that ended in plain silent data corruption (fault never
    /// detected — recovery was never in play).
    pub escapes: Vec<u64>,
    /// Trial indices where a recovery path completed with a wrong output —
    /// recovery-induced SDCs. Must be empty under the safe (default) ladder.
    pub miscorrections: Vec<u64>,
    /// Trials recovered (output verified equal to golden per trial).
    pub recovered: u64,
}

impl RecoveryVerdict {
    /// Clean static proof, no dynamic escape, and no recovery-induced SDC.
    #[must_use]
    pub fn is_clean_and_sound(&self) -> bool {
        self.report.is_clean() && self.escapes.is_empty() && self.miscorrections.is_empty()
    }
}

impl std::fmt::Display for RecoveryVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} findings, {}/{} trials escaped, {} miscorrected, {} recovered",
            self.report.scheme,
            self.report.findings.len(),
            self.escapes.len(),
            self.trials,
            self.miscorrections.len(),
            self.recovered,
        )
    }
}

/// [`differential_oracle`] with the recovery ladder armed: statically verify
/// the kernel, then run every trial through [`ArchCampaign::run_trial_recovering`]
/// and record both plain SDC escapes and recovery-induced miscorrections.
///
/// Every `Recovered` outcome has already had its output compared word-for-
/// word against the golden run (that comparison is what grants the outcome),
/// so `recovered > 0` with empty `miscorrections` is a machine-checked proof
/// that recovery converted DUEs without inventing SDCs.
///
/// # Errors
///
/// Propagates [`PrepError`] when the scheme does not apply or the golden run
/// fails.
pub fn recovery_oracle(
    workload: &swapcodes_workloads::Workload,
    scheme: Scheme,
    trials: u64,
    seed: u64,
    rcfg: &RecoveryConfig,
) -> Result<RecoveryVerdict, PrepError> {
    let campaign = ArchCampaign::prepare(workload, scheme, seed)?;
    let report = verify(scheme, campaign.kernel());
    let mut escapes = Vec::new();
    let mut miscorrections = Vec::new();
    let mut recovered = 0u64;
    for trial in 0..trials {
        match campaign.run_trial_recovering(trial, rcfg).outcome {
            TrialOutcome::Sdc => escapes.push(trial),
            TrialOutcome::Miscorrected => miscorrections.push(trial),
            TrialOutcome::Recovered { .. } => recovered += 1,
            _ => {}
        }
    }
    Ok(RecoveryVerdict {
        report,
        trials,
        escapes,
        miscorrections,
        recovered,
    })
}

/// The verdict of a control-fault gap measurement: the paper's stated
/// coverage boundary, made quantitative.
///
/// SwapCodes protects *datapath results*: the static verifier proves every
/// covered definition is checked before reaching architectural state, and
/// PR3's differential oracle confirms no transient datapath strike escapes a
/// clean kernel. Control-state faults sit outside that contract — a
/// corrupted predicate or active mask changes *which* instructions execute
/// rather than what value one produces, so a statically-clean kernel may
/// still emit silent data corruption. This verdict measures that gap.
#[derive(Debug)]
pub struct ControlGapVerdict {
    /// The static verifier's report over the campaign's transformed kernel
    /// (clean for stock transform outputs — that is the point: the proof
    /// holds and the escapes happen anyway).
    pub report: Report,
    /// Control-fault trials executed.
    pub trials: u64,
    /// Trial indices that ended in silent data corruption.
    pub escapes: Vec<u64>,
    /// Full outcome tally of the control-fault campaign (hang/trap/DUE
    /// buckets show *how* the covered fraction gets caught — largely by the
    /// watchdog, not the codes).
    pub outcomes: ArchOutcomes,
}

impl ControlGapVerdict {
    /// The measured coverage gap: the fraction of unmasked control faults
    /// that escaped as SDC (`1 - coverage` of the tally).
    #[must_use]
    pub fn gap(&self) -> f64 {
        1.0 - self.outcomes.coverage()
    }

    /// `true` when the static proof is clean yet control faults escaped —
    /// the expected shape of the paper's coverage boundary.
    #[must_use]
    pub fn boundary_demonstrated(&self) -> bool {
        self.report.is_clean() && !self.escapes.is_empty()
    }
}

impl std::fmt::Display for ControlGapVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: static {}, {}/{} control trials escaped (gap {:.1}%)",
            self.report.scheme,
            if self.report.is_clean() {
                "clean"
            } else {
                "dirty"
            },
            self.escapes.len(),
            self.trials,
            self.gap() * 100.0,
        )
    }
}

/// Measure the control-fault coverage gap: statically verify the kernel,
/// then fire `trials` **control-state** faults (predicates, active masks,
/// barrier state, scheduler slots — never datapath results) at it and
/// record every SDC escape.
///
/// Unlike [`differential_oracle`], escapes here are *not* a soundness bug:
/// the static proof only covers datapath definitions, and this function
/// exists to quantify what that proof does not promise.
///
/// # Errors
///
/// Propagates [`PrepError`] when the scheme does not apply or the golden run
/// fails.
pub fn control_fault_gap(
    workload: &swapcodes_workloads::Workload,
    scheme: Scheme,
    trials: u64,
    seed: u64,
) -> Result<ControlGapVerdict, PrepError> {
    let opts = CampaignOptions {
        mix: FaultMix::control_only(),
        ..CampaignOptions::from_env()
    };
    let campaign = ArchCampaign::prepare_with(workload, scheme, seed, opts)?;
    let report = verify(scheme, campaign.kernel());
    let mut escapes = Vec::new();
    let mut outcomes = ArchOutcomes::default();
    for trial in 0..trials {
        let outcome = campaign.run_trial(trial);
        outcomes.record(outcome);
        if outcome == TrialOutcome::Sdc {
            escapes.push(trial);
        }
    }
    Ok(ControlGapVerdict {
        report,
        trials,
        escapes,
        outcomes,
    })
}

/// Capture the golden issue log of a prepared campaign and run the static
/// vulnerability analyzer over the same kernel: a fault-free reference
/// re-execution (same protection, same single-CTA geometry as the
/// campaign's golden run) with `collect_issue_log` on, cross-checked
/// against the engine's dynamic-instruction count so the log provably
/// indexes the stream control strikes are delivered into.
///
/// Returns the [`AvfReport`] and the issue log (`log[i]` = PC of global
/// dynamic instruction `i`, which is where a control strike with
/// `eligible_index == i` lands).
///
/// # Errors
///
/// Propagates the executor error as [`PrepError::Golden`] — impossible for
/// a campaign whose preparation already ran the same configuration clean,
/// but kept structured rather than panicking.
pub fn campaign_avf(campaign: &ArchCampaign) -> Result<(AvfReport, Vec<u32>), PrepError> {
    let mut mem = campaign.workload().build_memory();
    let exec = Executor {
        config: ExecConfig {
            protection: campaign.protection(),
            cta_limit: Some(1),
            collect_issue_log: true,
            ..ExecConfig::default()
        },
    };
    let out = exec
        .run(campaign.kernel(), campaign.launch(), &mut mem)
        .map_err(PrepError::Golden)?;
    assert_eq!(
        out.dynamic_instructions,
        campaign.golden_dynamic(),
        "issue-log capture diverged from the campaign's golden stream"
    );
    assert_eq!(out.issue_log.len() as u64, out.dynamic_instructions);
    let profile = DynProfile::from_issue_log(campaign.kernel().len(), &out.issue_log);
    let area = campaign.site_catalog().map(|c| {
        let a = c.area_summary();
        AreaExposure {
            total_milli: a.total_milli,
            ff_milli: a.ff_milli,
            sites: a.sites,
        }
    });
    let report = analyze(campaign.scheme(), campaign.kernel(), &profile, area);
    Ok((report, out.issue_log))
}

/// One cell of the predicted-vs-measured calibration matrix.
#[derive(Debug, Clone)]
pub struct AvfCell {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Fault-class label (`transient` / `control` / `stuckat`).
    pub class: &'static str,
    /// Analyzer-predicted detected-given-unmasked coverage.
    pub predicted: f64,
    /// Documented calibration tolerance for this class.
    pub tolerance: f64,
    /// Detected outcomes among unmasked trials.
    pub detected: u64,
    /// Unmasked trials (detected + SDC + miscorrected).
    pub unmasked: u64,
    /// Measured point coverage (1.0 when nothing was unmasked).
    pub measured: f64,
    /// 95% Wilson interval of the measurement.
    pub wilson: (f64, f64),
}

impl AvfCell {
    /// The calibration gate: the prediction sits inside the measured Wilson
    /// interval, or within the class's documented tolerance of the point
    /// estimate.
    #[must_use]
    pub fn within(&self) -> bool {
        (self.predicted >= self.wilson.0 && self.predicted <= self.wilson.1)
            || (self.predicted - self.measured).abs() <= self.tolerance
    }
}

impl std::fmt::Display for AvfCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} x {} [{}]: predicted {:.3}, measured {:.3} ({}/{}, wilson [{:.3}, {:.3}]) -> {}",
            self.workload,
            self.scheme,
            self.class,
            self.predicted,
            self.measured,
            self.detected,
            self.unmasked,
            self.wilson.0,
            self.wilson.1,
            if self.within() { "ok" } else { "MISS" },
        )
    }
}

/// The verdict of the full calibration run: every (workload, scheme, class)
/// cell, plus the escape-attribution audit on the control gap's flagship
/// cell (matmul x Swap-ECC).
#[derive(Debug)]
pub struct AvfCalibrationVerdict {
    /// All cells, in (workload, scheme, class) iteration order.
    pub cells: Vec<AvfCell>,
    /// Trials fired per (workload, scheme) campaign.
    pub trials_per_cell: u64,
    /// Measured control-fault SDC escapes on matmul x Swap-ECC.
    pub escapes_total: u64,
    /// Of those, how many struck a (PC, kind) site the analyzer's ranked
    /// report lists.
    pub escapes_listed: u64,
}

impl AvfCalibrationVerdict {
    /// `true` when every cell passes its calibration gate.
    #[must_use]
    pub fn all_within(&self) -> bool {
        self.cells.iter().all(AvfCell::within)
    }

    /// Fraction of measured control-SDC escapes attributed to a listed
    /// site (1.0 when no escape was observed).
    #[must_use]
    pub fn escape_listed_fraction(&self) -> f64 {
        if self.escapes_total == 0 {
            1.0
        } else {
            self.escapes_listed as f64 / self.escapes_total as f64
        }
    }
}

impl std::fmt::Display for AvfCalibrationVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "avf calibration: {}/{} cells within tolerance, {}/{} escapes attributed",
            self.cells.iter().filter(|c| c.within()).count(),
            self.cells.len(),
            self.escapes_listed,
            self.escapes_total,
        )?;
        for c in &self.cells {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// Calibrate the static vulnerability analyzer against fresh measurement:
/// for every (workload, scheme) in the reference 3x3 matrix, run the
/// analyzer over the campaign kernel and `trials` mixed-class injection
/// trials over the same kernel, then compare per-class coverage. On
/// matmul x Swap-ECC, every control-fault SDC escape is additionally mapped
/// back through the issue log to its (PC, kind) strike site and checked
/// against the analyzer's ranked site report.
///
/// # Errors
///
/// Propagates [`PrepError`] when a scheme does not apply or a golden run
/// fails.
pub fn avf_calibration(trials: u64, seed: u64) -> Result<AvfCalibrationVerdict, PrepError> {
    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    let mut cells = Vec::new();
    let mut escapes_total = 0u64;
    let mut escapes_listed = 0u64;
    for wname in ["matmul", "kmeans", "hspot"] {
        let w = swapcodes_workloads::by_name(wname).expect("reference workload");
        for scheme in schemes {
            let opts = CampaignOptions {
                mix: FaultMix::all_classes(),
                ..CampaignOptions::from_env()
            };
            let campaign = ArchCampaign::prepare_with(&w, scheme, seed, opts)?;
            let (report, issue_log) = campaign_avf(&campaign)?;
            let audit_escapes = wname == "matmul" && scheme == Scheme::SwapEcc;
            let mut tallies = FaultClassTallies::default();
            for trial in 0..trials {
                let (class, outcome) = campaign.run_trial_classed_salted(trial, 0);
                tallies.record(class, outcome);
                if audit_escapes
                    && matches!(class, FaultClass::Control(_))
                    && matches!(outcome, TrialOutcome::Sdc | TrialOutcome::Miscorrected)
                {
                    let fault = campaign.trial_fault(trial);
                    let pc = issue_log[fault.eligible_index as usize] as usize;
                    let kind = fault.control_target().expect("control fault");
                    escapes_total += 1;
                    if report.site_listed(pc, kind) {
                        escapes_listed += 1;
                    }
                }
            }
            for (class, tally) in [
                ("transient", &tallies.transient),
                ("control", &tallies.control),
                ("stuckat", &tallies.stuck_at),
            ] {
                let detected =
                    tally.trap + tally.due + tally.crash + tally.hang + tally.recovered();
                let unmasked = detected + tally.sdc + tally.miscorrected;
                let p = Proportion::new(detected, unmasked);
                let pred = report.prediction(class).expect("known class");
                cells.push(AvfCell {
                    workload: wname.to_owned(),
                    scheme: scheme.label(),
                    class,
                    predicted: pred.coverage,
                    tolerance: pred.tolerance,
                    detected,
                    unmasked,
                    measured: if unmasked == 0 { 1.0 } else { p.point() },
                    wilson: p.wilson95(),
                });
            }
        }
    }
    Ok(AvfCalibrationVerdict {
        cells,
        trials_per_cell: trials,
        escapes_total,
        escapes_listed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_workloads::by_name;

    /// The acceptance gate: across >=1000 sampled trials, no fault into a
    /// statically-covered kernel escapes detection.
    #[test]
    fn no_statically_covered_fault_escapes_detection() {
        let mut total = 0u64;
        for name in ["matmul", "kmeans"] {
            let w = by_name(name).expect("workload");
            for scheme in [
                Scheme::SwDup,
                Scheme::SwapEcc,
                Scheme::SwapPredict(PredictorSet::MAD),
            ] {
                let v = differential_oracle(&w, scheme, 200, 0x0AC1E).expect("prepare");
                assert!(
                    v.is_clean_and_sound(),
                    "{name} x {scheme:?}: {v}\n{}",
                    v.report
                );
                total += v.trials;
            }
        }
        assert!(total >= 1000, "sampled only {total} trials");
    }

    /// The oracle's negative control: Baseline has no static findings (there
    /// is nothing to verify) but plenty of dynamic escapes, so the two sides
    /// are demonstrably measuring different things.
    #[test]
    fn baseline_escapes_are_visible() {
        let w = by_name("matmul").expect("matmul");
        let v = differential_oracle(&w, Scheme::Baseline, 40, 7).expect("prepare");
        assert!(v.report.is_clean());
        assert_eq!(v.report.coverage.covered, 0);
        assert!(!v.escapes.is_empty(), "baseline should leak SDC: {v}");
    }

    /// Escape trial indices replay deterministically.
    #[test]
    fn verdict_is_pure_in_seed() {
        let w = by_name("kmeans").expect("kmeans");
        let a = differential_oracle(&w, Scheme::Baseline, 30, 99).expect("prepare");
        let b = differential_oracle(&w, Scheme::Baseline, 30, 99).expect("prepare");
        assert_eq!(a.escapes, b.escapes);
    }

    /// PR3's result has a boundary, and this measures it: the same scheme
    /// that provably detects every transient datapath strike (the test
    /// above) lets control-state faults through as SDC — with the static
    /// report still clean. The gap is reported, bucket sums stay intact,
    /// and the measurement replays deterministically.
    #[test]
    fn control_faults_escape_statically_clean_kernels() {
        let w = by_name("matmul").expect("matmul");
        let v = control_fault_gap(&w, Scheme::SwapEcc, 120, 0x0AC1E).expect("prepare");
        assert!(v.report.is_clean(), "stock transform verifies clean");
        assert_eq!(
            v.outcomes.total(),
            v.trials,
            "every trial lands in a bucket"
        );
        assert_eq!(v.escapes.len() as u64, v.outcomes.sdc);
        assert!(
            v.boundary_demonstrated(),
            "control faults should escape SEC-DED (the paper's stated \
             coverage boundary): {v}"
        );
        assert!(v.gap() > 0.0);
        // Purity: the same seed replays the same escapes.
        let again = control_fault_gap(&w, Scheme::SwapEcc, 120, 0x0AC1E).expect("prepare");
        assert_eq!(v.escapes, again.escapes);
    }

    /// The vulnerability analyzer runs over a real campaign kernel: the
    /// issue log indexes the golden stream exactly, the report carries the
    /// structural facts the probe calibrated against (matmul's transformed
    /// kernel reaches no barrier, Swap-ECC's transient prediction is the
    /// SEC-DED burst enumeration), and the whole analysis replays
    /// deterministically.
    #[test]
    fn campaign_avf_reports_structural_facts() {
        let w = by_name("matmul").expect("matmul");
        let opts = CampaignOptions {
            mix: FaultMix::all_classes(),
            ..CampaignOptions::from_env()
        };
        let c = ArchCampaign::prepare_with(&w, Scheme::SwapEcc, 0xACE, opts).expect("prepare");
        let (report, log) = campaign_avf(&c).expect("analyze");
        assert_eq!(log.len() as u64, c.golden_dynamic());
        assert!(log.iter().all(|&pc| (pc as usize) < c.kernel().len()));
        // matmul's transformed kernel reaches no barrier: exposure 0.
        assert_eq!(report.control_exposure[2], 0.0);
        // Swap-ECC transient prediction = burst enumeration, not 1.0.
        assert!(report.transient.coverage > 0.9 && report.transient.coverage < 1.0);
        // The stuck-at catalog was built (mixed mix), so area flows through.
        let area = report.area.expect("stuck-at catalog present");
        assert!(area.ff_milli > 0 && area.ff_milli < area.total_milli);
        // Sites are ranked and the scheduler class dominates the top.
        assert!(!report.control_sites.is_empty());
        let (again, log2) = campaign_avf(&c).expect("analyze");
        assert_eq!(log, log2);
        assert_eq!(again.control_sites.len(), report.control_sites.len());
    }

    /// The acceptance gate for the analyzer: every cell of the 3x3x3
    /// (workload x scheme x class) matrix lands inside the measured Wilson
    /// interval or the class's documented tolerance, and the ranked site
    /// report attributes >=90% of measured control-SDC escapes on
    /// matmul x Swap-ECC. The full-trial version of this gate runs in CI
    /// via the `avf_calibration` bench example's jq check.
    #[test]
    fn avf_predictions_track_measured_coverage() {
        let v = avf_calibration(90, 0xACE_CA1B).expect("matrix prepares");
        assert_eq!(v.cells.len(), 27, "3 workloads x 3 schemes x 3 classes");
        assert!(v.all_within(), "calibration miss:\n{v}");
        assert!(
            v.escape_listed_fraction() >= 0.9,
            "site report must attribute >=90% of escapes: {}/{}",
            v.escapes_listed,
            v.escapes_total
        );
        // The flagship cell actually produced escapes to attribute.
        assert!(
            v.escapes_total > 0,
            "expected control SDCs on matmul x Swap-ECC"
        );
    }

    /// The safe recovery ladder must never launder a detection into an SDC:
    /// every `Recovered` outcome's output already compared equal to golden,
    /// and no miscorrection may appear with storage correction off.
    #[test]
    fn safe_recovery_never_invents_sdcs() {
        let w = by_name("matmul").expect("matmul");
        let rcfg = RecoveryConfig::default();
        let v = recovery_oracle(&w, Scheme::SwapEcc, 60, 0x0AC1E, &rcfg).expect("prepare");
        assert!(v.is_clean_and_sound(), "{v}\n{}", v.report);
        assert!(v.recovered > 0, "expected DUE->recovered conversion: {v}");
    }
}
