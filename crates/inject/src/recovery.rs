//! Detect-and-recover campaigns: drive injected trials through the
//! [`swapcodes_sim::recovery::RecoveryEngine`] ladder, account the cycle
//! overhead of every recovery action, and degrade gracefully when a scheme
//! keeps failing to recover.
//!
//! The degradation rule closes a practical loop the paper leaves open: a
//! Swap-Predict deployment whose predictors chronically mispredict converts
//! every mispredict into a DUE, and if those DUEs also resist recovery the
//! cell would burn its whole retry budget on every trial. Instead of failing
//! the sweep, [`run_recovery_campaign`] aborts such a cell early and reruns
//! it under SW-Dup (the scheme that needs no predictor), tagging the result
//! [`RecoveryCell::degraded`] so reports show the fallback explicitly.
//!
//! Recovery trials deliberately stay on the **classic** executor
//! ([`ArchCampaign::run_trial_recovering`]) rather than the fast-forward
//! engine used for plain campaigns: the recovery ladder needs live warp
//! checkpoints, replay, and per-action cycle accounting that only the full
//! executor records. Each warp checkpoint is a
//! [`swapcodes_sim::snapshot::WarpSnapshot`]: PC fragments, predicates and
//! the full ECC-encoded register file.

use swapcodes_core::Scheme;
use swapcodes_sim::recovery::{RecoveryConfig, RecoveryStats};
use swapcodes_sim::timing::{simulate_kernel, RecoveryCostModel, TimingConfig};
use swapcodes_workloads::Workload;

use crate::arch::{ArchCampaign, ArchOutcomes, PrepError, TrialOutcome};

/// Configuration of a detect-and-recover campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCampaignConfig {
    /// The recovery ladder handed to every trial.
    pub recovery: RecoveryConfig,
    /// Cycle cost model for the overhead accounting.
    pub cost: RecoveryCostModel,
    /// Graceful degradation: when a Swap-Predict cell accumulates this many
    /// trials whose detection survived the whole ladder, abort it and rerun
    /// the cell under SW-Dup instead of failing the sweep. `None` disables
    /// degradation.
    pub degrade_after_unrecoverable: Option<u32>,
}

impl Default for RecoveryCampaignConfig {
    fn default() -> Self {
        Self {
            recovery: RecoveryConfig::default(),
            cost: RecoveryCostModel::default(),
            degrade_after_unrecoverable: Some(8),
        }
    }
}

/// One (workload, scheme) cell of a detect-and-recover sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCell {
    /// Workload name.
    pub workload: String,
    /// Label of the scheme the sweep *requested* for this cell.
    pub requested: String,
    /// Label of the scheme that actually ran (differs from `requested` only
    /// when the cell degraded).
    pub ran: String,
    /// Whether the cell was degraded to SW-Dup after repeated unrecoverable
    /// detections under the requested scheme.
    pub degraded: bool,
    /// Trial tallies (including the `recovered_*`/`miscorrected` buckets).
    pub outcomes: ArchOutcomes,
    /// Recovery work summed over all trials.
    pub stats: RecoveryStats,
    /// Fault-free cycles of the (final) transformed kernel, from the timing
    /// model — the base a relaunch pays again.
    pub kernel_cycles: u64,
    /// Total recovery overhead cycles across the campaign, per the cost
    /// model.
    pub overhead_cycles: u64,
}

impl RecoveryCell {
    /// Fraction of detection-bearing trials the ladder converted into
    /// completed, correct runs: `recovered / (recovered + residual detected
    /// + miscorrected)`. `1.0` when no trial detected anything.
    #[must_use]
    pub fn recovered_fraction(&self) -> f64 {
        let o = &self.outcomes;
        let residual = o.trap + o.due + o.crash + o.hang;
        let detected = o.recovered() + residual + o.miscorrected;
        if detected == 0 {
            1.0
        } else {
            o.recovered() as f64 / detected as f64
        }
    }

    /// Recovery-induced SDCs per trial (nonzero only when in-place storage
    /// correction is enabled — the gamble the report quantifies).
    #[must_use]
    pub fn miscorrection_rate(&self) -> f64 {
        let total = self.outcomes.total();
        if total == 0 {
            0.0
        } else {
            self.outcomes.miscorrected as f64 / total as f64
        }
    }

    /// Mean recovery overhead cycles per trial.
    #[must_use]
    pub fn mean_overhead_cycles(&self) -> f64 {
        let total = self.outcomes.total();
        if total == 0 {
            0.0
        } else {
            self.overhead_cycles as f64 / total as f64
        }
    }
}

/// Outcome of driving one cell to completion (or to its abort threshold).
struct CellRun {
    outcomes: ArchOutcomes,
    stats: RecoveryStats,
    kernel_cycles: u64,
    aborted: bool,
}

fn run_cell(
    workload: &Workload,
    scheme: Scheme,
    trials: u32,
    seed: u64,
    cfg: &RecoveryCampaignConfig,
    abort_after: Option<u32>,
) -> Result<CellRun, PrepError> {
    let campaign = ArchCampaign::prepare(workload, scheme, seed)?;
    let mut mem = workload.build_memory();
    let kernel_cycles = simulate_kernel(
        campaign.kernel(),
        campaign.launch(),
        &mut mem,
        &TimingConfig::default(),
    )
    .map_or(0, |t| t.cycles);
    let mut outcomes = ArchOutcomes::default();
    let mut stats = RecoveryStats::default();
    let mut unrecovered = 0u32;
    for trial in 0..u64::from(trials) {
        let t = campaign.run_trial_recovering(trial, &cfg.recovery);
        outcomes.record(t.outcome);
        stats.merge(&t.stats);
        if matches!(
            t.outcome,
            TrialOutcome::Trap | TrialOutcome::Due | TrialOutcome::Crash | TrialOutcome::Hang
        ) {
            unrecovered += 1;
            if abort_after.is_some_and(|n| unrecovered >= n) {
                return Ok(CellRun {
                    outcomes,
                    stats,
                    kernel_cycles,
                    aborted: true,
                });
            }
        }
    }
    Ok(CellRun {
        outcomes,
        stats,
        kernel_cycles,
        aborted: false,
    })
}

/// Run `trials` injected trials of `workload` under `scheme` with the full
/// detect-and-recover ladder, returning the tallied cell.
///
/// When the requested scheme is a Swap-Predict variant and
/// [`RecoveryCampaignConfig::degrade_after_unrecoverable`] trials end with
/// their detection unrecovered, the cell is aborted and rerun from scratch
/// under [`Scheme::SwDup`] (same seed, same trial count) with
/// [`RecoveryCell::degraded`] set.
///
/// # Errors
///
/// Propagates [`PrepError`] when the scheme cannot be applied or the golden
/// run fails — including for the SW-Dup fallback of a degraded cell.
pub fn run_recovery_campaign(
    workload: &Workload,
    scheme: Scheme,
    trials: u32,
    seed: u64,
    cfg: &RecoveryCampaignConfig,
) -> Result<RecoveryCell, PrepError> {
    let abort = if matches!(scheme, Scheme::SwapPredict(_)) {
        cfg.degrade_after_unrecoverable
    } else {
        None
    };
    let first = run_cell(workload, scheme, trials, seed, cfg, abort)?;
    if !first.aborted {
        return Ok(RecoveryCell {
            workload: workload.name.to_owned(),
            requested: scheme.label(),
            ran: scheme.label(),
            degraded: false,
            overhead_cycles: cfg.cost.overhead_cycles(&first.stats, first.kernel_cycles),
            outcomes: first.outcomes,
            stats: first.stats,
            kernel_cycles: first.kernel_cycles,
        });
    }
    // Degrade: the predictor-backed scheme kept producing unrecoverable
    // detections; fall back to software duplication for the whole cell.
    let fallback = run_cell(workload, Scheme::SwDup, trials, seed, cfg, None)?;
    Ok(RecoveryCell {
        workload: workload.name.to_owned(),
        requested: scheme.label(),
        ran: Scheme::SwDup.label(),
        degraded: true,
        overhead_cycles: cfg
            .cost
            .overhead_cycles(&fallback.stats, fallback.kernel_cycles),
        outcomes: fallback.outcomes,
        stats: fallback.stats,
        kernel_cycles: fallback.kernel_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_core::PredictorSet;
    use swapcodes_sim::recovery::RecoverySpec;
    use swapcodes_workloads::by_name;

    #[test]
    fn safe_ladder_recovers_dues_without_inventing_sdcs() {
        let w = by_name("matmul").expect("matmul");
        let cfg = RecoveryCampaignConfig::default();
        let cell =
            run_recovery_campaign(&w, Scheme::SwapEcc, 24, 9, &cfg).expect("campaign prepares");
        assert_eq!(cell.outcomes.total(), 24);
        assert!(!cell.degraded);
        assert_eq!(cell.outcomes.miscorrected, 0, "safe mode never miscorrects");
        assert_eq!(cell.outcomes.sdc, 0);
        assert!(cell.outcomes.recovered() > 0, "{:?}", cell.outcomes);
        assert!(cell.overhead_cycles > 0, "recovery work must be charged");
        assert!(cell.recovered_fraction() > 0.0);
    }

    #[test]
    fn hobbled_swap_predict_cell_degrades_to_sw_dup() {
        let w = by_name("matmul").expect("matmul");
        // A ladder with every rung disabled cannot recover anything, so the
        // first unrecovered detection trips the degradation threshold.
        let cfg = RecoveryCampaignConfig {
            recovery: RecoveryConfig::disabled(),
            degrade_after_unrecoverable: Some(1),
            ..RecoveryCampaignConfig::default()
        };
        let scheme = Scheme::SwapPredict(PredictorSet::MAD);
        let cell = run_recovery_campaign(&w, scheme, 16, 3, &cfg).expect("campaign prepares");
        assert!(cell.degraded, "disabled ladder must trip degradation");
        assert_eq!(cell.requested, scheme.label());
        assert_eq!(cell.ran, Scheme::SwDup.label());
        assert_eq!(cell.outcomes.total(), 16, "fallback reruns the full cell");
    }

    #[test]
    fn degradation_never_applies_to_non_predict_schemes() {
        let w = by_name("kmeans").expect("kmeans");
        let cfg = RecoveryCampaignConfig {
            recovery: RecoveryConfig::disabled(),
            degrade_after_unrecoverable: Some(1),
            ..RecoveryCampaignConfig::default()
        };
        let cell = run_recovery_campaign(&w, Scheme::SwapEcc, 8, 5, &cfg).expect("prepares");
        assert!(!cell.degraded);
        assert_eq!(cell.ran, Scheme::SwapEcc.label());
    }

    #[test]
    fn storage_correction_mode_measures_its_miscorrections() {
        let w = by_name("matmul").expect("matmul");
        let cfg = RecoveryCampaignConfig {
            recovery: RecoveryConfig {
                spec: RecoverySpec {
                    storage_correction: true,
                    ..RecoverySpec::default()
                },
                ..RecoveryConfig::default()
            },
            ..RecoveryCampaignConfig::default()
        };
        let cell = run_recovery_campaign(&w, Scheme::SwapEcc, 48, 21, &cfg).expect("prepares");
        assert_eq!(cell.outcomes.total(), 48);
        // Correction acts on DUE syndromes; under swapped codewords a
        // shadow-side strike lands in the check bits and correction rewrites
        // good data toward them — the miscorrection the report quantifies.
        assert!(
            cell.outcomes.recovered_correct + cell.outcomes.miscorrected > 0,
            "correction should have acted: {:?}",
            cell.outcomes
        );
    }
}
