//! Copy-on-write resume validation: the CoW trial path (page-granular
//! global-memory overlay, lazily materialized warp regfiles, dirty-set
//! convergence checks) must classify every trial byte-identically to both
//! the legacy deep-copy (clone) resume it replaced and the from-scratch
//! reference executor — a three-way differential over random cells, seeds,
//! fault mixes and trial windows. The range driver must reproduce the
//! per-trial tallies exactly, and the CoW telemetry must show the path
//! actually materializes less state than a full clone.

use proptest::prelude::*;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{ArchCampaign, CampaignOptions, FaultClassTallies, FaultMix};
use swapcodes_workloads::by_name;

/// The (workload, scheme) cells the differential samples from — every
/// scheme family, including the unprotected baseline whose SDC-heavy mix
/// stresses the golden-output comparison rather than detection.
fn cells() -> Vec<(&'static str, Scheme)> {
    vec![
        ("matmul", Scheme::Baseline),
        ("matmul", Scheme::SwapEcc),
        ("matmul", Scheme::SwDup),
        ("kmeans", Scheme::SwapEcc),
        ("kmeans", Scheme::SwDup),
        ("kmeans", Scheme::SwapPredict(PredictorSet::MAD)),
        ("hspot", Scheme::SwapEcc),
        ("pathf", Scheme::SwapPredict(PredictorSet::FP_MAD)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For random cells, seeds, fault-mix weights and trial windows: CoW
    /// resume, clone resume and the from-scratch reference agree on every
    /// trial's class and outcome; the accumulated per-class buckets match;
    /// and the range driver over the same window tallies them identically.
    #[test]
    fn cow_resume_three_way_differential(
        cell in 0usize..8,
        seed in 0u64..1_000_000,
        transient in 0u32..3,
        control in 0u32..3,
        stuck_at in 0u32..3,
        start in 0u64..40,
    ) {
        let mix = FaultMix { transient, control, stuck_at };
        let mix = if transient + control + stuck_at == 0 {
            FaultMix::all_classes()
        } else {
            mix
        };
        let (name, scheme) = cells()[cell];
        let w = by_name(name).expect("workload");
        let opts = CampaignOptions { mix, ..CampaignOptions::default() };
        let campaign = ArchCampaign::prepare_with(&w, scheme, seed, opts).expect("applies");
        let end = start + 5;

        let mut cow = FaultClassTallies::default();
        let mut clone = FaultClassTallies::default();
        for trial in start..end {
            let (cow_class, cow_outcome) = campaign.run_trial_classed_salted(trial, 0);
            let (clone_class, clone_outcome) = campaign.run_trial_clone_resume_salted(trial, 0);
            let reference = campaign.run_trial_reference_salted(trial, 0);
            prop_assert_eq!(
                (cow_class, cow_outcome),
                (clone_class, clone_outcome),
                "trial {} (seed {:#x}, mix {}) CoW vs clone diverged on {}/{}",
                trial, seed, mix.tag(), name, scheme.label()
            );
            prop_assert_eq!(
                cow_outcome,
                reference,
                "trial {} (seed {:#x}, mix {}) CoW vs reference diverged on {}/{}",
                trial, seed, mix.tag(), name, scheme.label()
            );
            cow.record(cow_class, cow_outcome);
            clone.record(clone_class, clone_outcome);
        }
        prop_assert_eq!(&cow, &clone, "per-class buckets diverged");
        prop_assert_eq!(
            &cow,
            &campaign.run_range_classed(start, end),
            "range driver diverged from per-trial accumulation"
        );
    }
}

/// A dense window on the two bench cells, checked one-for-one across all
/// three paths (the bench extends this to full campaign scale on every CI
/// run via the `perf_baseline` differential gate).
#[test]
fn dense_window_three_way_identical() {
    for (name, scheme) in [("matmul", Scheme::SwapEcc), ("kmeans", Scheme::SwDup)] {
        let w = by_name(name).expect("workload");
        let campaign = ArchCampaign::prepare(&w, scheme, 0xC0D_FACE).expect("applies");
        for trial in 0..80 {
            let (cow_class, cow_outcome) = campaign.run_trial_classed_salted(trial, 0);
            let (clone_class, clone_outcome) = campaign.run_trial_clone_resume_salted(trial, 0);
            assert_eq!(
                (cow_class, cow_outcome),
                (clone_class, clone_outcome),
                "trial {trial} CoW vs clone diverged on {name}/{}",
                scheme.label()
            );
            assert_eq!(
                cow_outcome,
                campaign.run_trial_reference_salted(trial, 0),
                "trial {trial} CoW vs reference diverged on {name}/{}",
                scheme.label()
            );
        }
    }
}

/// The CoW path materializes strictly less state than a full clone: across
/// a batch of trials the overlay clones only a fraction of the global
/// memory's pages, and the per-trial byte telemetry reflects that.
#[test]
fn cow_telemetry_shows_partial_materialization() {
    let w = by_name("matmul").expect("workload");
    let campaign = ArchCampaign::prepare(&w, Scheme::SwapEcc, 11).expect("applies");
    let trials = 64u64;
    let mut pages_cloned = 0u64;
    let mut pages_total = 0u64;
    let mut bytes_cloned = 0u64;
    for trial in 0..trials {
        let (_, telem) = campaign.run_trial_telemetry_salted(trial, 0);
        assert!(
            telem.cow_pages_cloned <= telem.cow_pages_total,
            "trial {trial}: cloned {} of {} pages",
            telem.cow_pages_cloned,
            telem.cow_pages_total
        );
        pages_cloned += telem.cow_pages_cloned;
        pages_total += telem.cow_pages_total;
        bytes_cloned += telem.bytes_cloned;
    }
    assert!(pages_total > 0, "telemetry must report the page universe");
    assert!(
        pages_cloned * 2 < pages_total,
        "CoW must leave most pages shared: cloned {pages_cloned} of {pages_total}"
    );
    assert!(
        bytes_cloned > 0,
        "trials touch state, so some bytes must materialize"
    );
}
