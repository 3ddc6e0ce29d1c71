//! Detect-and-recover, end to end: the acceptance campaign for the recovery
//! subsystem plus the overhead/miscorrection report.
//!
//! Phase 1 is the differential proof: over a 3×3 (workload × scheme) matrix
//! the recovery oracle re-runs every injected trial through the bounded
//! ladder (warp checkpoint/replay → kernel relaunch) and asserts that
//!
//! * detections get converted into completed runs (nonzero DUE→recovered),
//! * every `Recovered` trial's output compared equal to the golden run, and
//! * zero recovery-induced SDCs appear (safe mode never miscorrects).
//!
//! Phase 2 renders the report: recovered fraction and recovery cycle
//! overhead per scheme, then the opt-in in-place-correction experiment with
//! its measured miscorrection rate.
//!
//! `SWAPCODES_FAST=1` shrinks trial counts for CI smoke runs.

use swapcodes_bench::{banner, fast_mode, Table};
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::oracle::recovery_oracle;
use swapcodes_inject::recovery::{run_recovery_campaign, RecoveryCampaignConfig};
use swapcodes_sim::recovery::{RecoveryConfig, RecoverySpec};
use swapcodes_workloads::by_name;

/// The recovered fraction and recovery cycle overhead per workload and
/// scheme, on two ladders:
///
/// 1. **Safe ladder** (warp replay → kernel relaunch, no storage
///    correction): the deployment mode. Recovery here can only turn
///    detections into verified-correct completions — a miscorrection in
///    this table would be a bug.
/// 2. **Correction-enabled ladder** (Swap-ECC only): the experiment
///    quantifying why in-place correction under swapped codewords is a
///    gamble — roughly the shadow-strike half of correctable syndromes
///    rewrite good data toward faulty check bits.
fn recovery_report(names: &[&str], trials: u32, seed: u64) {
    banner(
        "Detect-and-recover",
        "Fraction of detection-bearing trials converted into verified-\
         correct completions by the bounded ladder (replay -> relaunch), \
         with the recovery cycle overhead per trial. 'degraded' marks \
         Swap-Predict cells that fell back to SW-Dup.",
    );

    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    let cfg = RecoveryCampaignConfig::default();

    let mut headers = vec!["benchmark".to_owned()];
    for s in &schemes {
        headers.push(format!("{} rec%", s.label()));
        headers.push(format!("{} ovh/trial", s.label()));
    }
    let mut table = Table::new(headers);
    let mut recovered_total = 0u64;
    let mut miscorrected_total = 0u64;
    for name in names {
        let w = by_name(name).expect("known workload");
        let mut cells = vec![w.name.to_owned()];
        for &s in &schemes {
            let cell = run_recovery_campaign(&w, s, trials, seed, &cfg).expect("cell prepares");
            recovered_total += cell.outcomes.recovered();
            miscorrected_total += cell.outcomes.miscorrected;
            let tag = if cell.degraded { " (degraded)" } else { "" };
            cells.push(format!("{:.0}%{tag}", cell.recovered_fraction() * 100.0));
            cells.push(format!("{:.0}cy", cell.mean_overhead_cycles()));
        }
        table.row(cells);
    }
    table.print();
    println!(
        "  {recovered_total} detections recovered across the sweep, \
         {miscorrected_total} recovery-induced SDCs (must be 0 in safe mode)"
    );

    banner(
        "In-place storage correction (opt-in, Swap-ECC)",
        "The same cells with correctable DUE syndromes rewritten in place. \
         Under swapped codewords a shadow-side strike lands in the check \
         bits, so correction rewrites good data toward them: the \
         miscorrection rate is the price of skipping replay.",
    );
    let correcting = RecoveryCampaignConfig {
        recovery: RecoveryConfig {
            spec: RecoverySpec {
                storage_correction: true,
                ..RecoverySpec::default()
            },
            ..RecoveryConfig::default()
        },
        ..RecoveryCampaignConfig::default()
    };
    let mut ctable = Table::new(vec![
        "benchmark",
        "corrected",
        "miscorrected",
        "miscorrection rate",
    ]);
    for name in names {
        let w = by_name(name).expect("known workload");
        let cell =
            run_recovery_campaign(&w, Scheme::SwapEcc, trials, seed, &correcting).expect("cell");
        ctable.row(vec![
            w.name.to_owned(),
            cell.outcomes.recovered_correct.to_string(),
            cell.outcomes.miscorrected.to_string(),
            format!("{:.1}%", cell.miscorrection_rate() * 100.0),
        ]);
    }
    ctable.print();
}

fn main() {
    let trials: u64 = if fast_mode() { 30 } else { 120 };
    let workloads = ["matmul", "kmeans", "b+tree"];
    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    let rcfg = RecoveryConfig::default();

    println!("== Recovery oracle: {trials} trials per cell ==");
    let mut recovered = 0u64;
    for name in workloads {
        let w = by_name(name).expect("workload");
        for scheme in schemes {
            let v = recovery_oracle(&w, scheme, trials, 0xD0C5, &rcfg).expect("cell prepares");
            assert!(
                v.miscorrections.is_empty(),
                "{name} x {scheme:?}: recovery invented an SDC: {v}"
            );
            assert!(
                v.escapes.is_empty(),
                "{name} x {scheme:?}: fault escaped detection: {v}"
            );
            recovered += v.recovered;
            println!("  {name:>8} x {v}");
        }
    }
    assert!(
        recovered > 0,
        "acceptance requires nonzero DUE->recovered conversion"
    );
    println!("  total recovered across the matrix: {recovered}");
    println!();

    let report_trials = u32::try_from(trials).expect("small trial count");
    recovery_report(&workloads, report_trials, 0xD0C5);
}
