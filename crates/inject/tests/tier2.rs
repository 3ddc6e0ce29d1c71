//! Tier-2 executor validation: the closure-compiled threaded-code engine
//! must classify every trial byte-identically to the tier-1 micro-op
//! interpreter AND to the from-scratch reference executor, across every
//! scheme family and with the peephole pass both on and off. The engines
//! share one peepholed kernel per campaign, so tallies are comparable
//! one-for-one.

use proptest::prelude::*;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{ArchCampaign, CampaignOptions};
use swapcodes_sim::ExecTier;
use swapcodes_workloads::by_name;

/// The (workload, scheme) cells the differential property samples from
/// (mirrors `fast_forward.rs`).
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

fn opts(tier: ExecTier, peephole: bool) -> CampaignOptions {
    CampaignOptions {
        tier,
        peephole,
        ..CampaignOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Three-way differential: for random cells, seeds, salts and trial
    /// windows, tier 2, tier 1 and the from-scratch reference executor
    /// classify every trial identically (all over the same peepholed
    /// kernel).
    #[test]
    fn tier2_matches_tier1_and_reference(
        cell in 0usize..8,
        seed in 0u64..1_000_000,
        salt in 0u32..4,
        start in 0u64..48,
    ) {
        let (name, scheme) = cells()[cell];
        let w = by_name(name).expect("workload");
        let c1 = ArchCampaign::prepare_with(&w, scheme, seed, opts(ExecTier::Tier1, true))
            .expect("applies");
        let c2 = ArchCampaign::prepare_with(&w, scheme, seed, opts(ExecTier::Tier2, true))
            .expect("applies");
        prop_assert_eq!(c1.fused_pairs(), 0, "tier 1 compiles nothing");
        for trial in start..start + 6 {
            let t1 = c1.run_trial_salted(trial, salt);
            let t2 = c2.run_trial_salted(trial, salt);
            let reference = c2.run_trial_reference_salted(trial, salt);
            prop_assert_eq!(
                t2, t1,
                "tier divergence at trial {} (seed {:#x}, salt {}) on {}/{}",
                trial, seed, salt, name, scheme.label()
            );
            prop_assert_eq!(
                t2, reference,
                "reference divergence at trial {} (seed {:#x}, salt {}) on {}/{}",
                trial, seed, salt, name, scheme.label()
            );
        }
    }
}

/// Dense windows on the bench cells: whole-range tallies are byte-identical
/// between the tiers, with and without the peephole pass (the bench's
/// ≥1,200-trial differential gate in `perf_baseline` extends this to
/// campaign scale).
#[test]
fn dense_tallies_are_byte_identical_across_tiers() {
    for (name, scheme) in [("matmul", Scheme::SwapEcc), ("kmeans", Scheme::SwDup)] {
        let w = by_name(name).expect("workload");
        for peephole in [true, false] {
            let c1 =
                ArchCampaign::prepare_with(&w, scheme, 0x7E12, opts(ExecTier::Tier1, peephole))
                    .expect("applies");
            let c2 =
                ArchCampaign::prepare_with(&w, scheme, 0x7E12, opts(ExecTier::Tier2, peephole))
                    .expect("applies");
            assert_eq!(
                c1.run_range(0, 120),
                c2.run_range(0, 120),
                "{name}/{} (peephole={peephole}) tallies diverged",
                scheme.label()
            );
        }
    }
}

/// The tier-2 compiler actually fuses superinstructions on the protection
/// idioms: Swap-ECC's adjacent original/ECC-shadow pairs must produce a
/// substantial fused count, and fused execution still converges early.
#[test]
fn tier2_fuses_swapecc_pairs_and_fast_forwards() {
    let w = by_name("matmul").expect("workload");
    let c = ArchCampaign::prepare_with(&w, Scheme::SwapEcc, 7, opts(ExecTier::Tier2, true))
        .expect("applies");
    assert!(
        c.fused_pairs() > 0,
        "Swap-ECC emits adjacent fusable pairs: {:?}",
        c.peephole_stats()
    );
    assert!(c.snapshot_count() >= 2, "ladder captured under tier 2");
    let trials = 64u64;
    let mut resumed_nonzero = 0u64;
    for trial in 0..trials {
        let (_, telem) = c.run_trial_telemetry_salted(trial, 0);
        if telem.resumed_from > 0 {
            resumed_nonzero += 1;
        }
    }
    assert!(
        resumed_nonzero * 2 > trials,
        "most trials should resume past epoch 0 under tier 2 \
         ({resumed_nonzero}/{trials})"
    );
}

/// Engine tags distinguish every (tier, peephole) combination, and the
/// prepared campaign reports the tag its checkpoints will carry.
#[test]
fn engine_tags_cover_the_option_grid() {
    assert_eq!(opts(ExecTier::Tier1, false).engine_tag(), "ff1");
    assert_eq!(opts(ExecTier::Tier1, true).engine_tag(), "ff1p");
    assert_eq!(opts(ExecTier::Tier2, false).engine_tag(), "ff2");
    assert_eq!(opts(ExecTier::Tier2, true).engine_tag(), "ff2p");
    assert_eq!(CampaignOptions::default().engine_tag(), "ff2p");

    let w = by_name("matmul").expect("workload");
    let c = ArchCampaign::prepare_with(&w, Scheme::SwapEcc, 1, CampaignOptions::default())
        .expect("applies");
    assert_eq!(c.engine_tag(), "ff2p");
    assert_eq!(c.options().tier, ExecTier::Tier2);
}
