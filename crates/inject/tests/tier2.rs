//! Tier-2 executor validation: the closure-compiled threaded-code engine
//! must classify every trial byte-identically to the tier-1 micro-op
//! interpreter AND to the from-scratch reference executor, across every
//! scheme family. The engines share one peepholed kernel per campaign, so
//! tallies are comparable one-for-one.

use proptest::prelude::*;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{ArchCampaign, CampaignOptions, FaultMix};
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
        ("pathf", Scheme::InterThread { checked: true }),
    ]
}

fn opts(tier: ExecTier) -> CampaignOptions {
    CampaignOptions {
        tier,
        ..CampaignOptions::default()
    }
}

fn opts_mix(tier: ExecTier, mix: FaultMix) -> CampaignOptions {
    CampaignOptions { mix, ..opts(tier) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Three-way differential: for random cells, seeds, salts, fault-mix
    /// weights and trial windows, tier 2, tier 1 and the from-scratch
    /// reference executor classify every trial identically (all over the
    /// same peepholed kernel).
    #[test]
    fn tier2_matches_tier1_and_reference(
        cell in 0usize..9,
        seed in 0u64..1_000_000,
        salt in 0u32..4,
        transient in 0u32..3,
        control in 0u32..3,
        stuck_at in 0u32..3,
        start in 0u64..48,
    ) {
        let mix = FaultMix { transient, control, stuck_at };
        let mix = if transient + control + stuck_at == 0 {
            FaultMix::all_classes()
        } else {
            mix
        };
        let (name, scheme) = cells()[cell];
        let w = by_name(name).expect("workload");
        let c1 = ArchCampaign::prepare_with(&w, scheme, seed, opts_mix(ExecTier::Tier1, mix))
            .expect("applies");
        let c2 = ArchCampaign::prepare_with(&w, scheme, seed, opts_mix(ExecTier::Tier2, mix))
            .expect("applies");
        prop_assert_eq!(c1.fused_pairs(), 0, "tier 1 compiles nothing");
        for trial in start..start + 6 {
            let t1 = c1.run_trial_classed_salted(trial, salt).1;
            let t2 = c2.run_trial_classed_salted(trial, salt).1;
            let reference = c2.run_trial_reference_salted(trial, salt);
            prop_assert_eq!(
                t2, t1,
                "tier divergence at trial {} (seed {:#x}, salt {}, mix {}) on {}/{}",
                trial, seed, salt, mix.tag(), name, scheme.label()
            );
            prop_assert_eq!(
                t2, reference,
                "reference divergence at trial {} (seed {:#x}, salt {}, mix {}) on {}/{}",
                trial, seed, salt, mix.tag(), name, scheme.label()
            );
        }
    }
}

/// Dense windows on the bench cells: whole-range per-class tallies are
/// byte-identical between the tiers (the bench's ≥1,200-trial differential
/// gate in `perf_baseline` extends this to campaign scale).
#[test]
fn dense_tallies_are_byte_identical_across_tiers() {
    for (name, scheme) in [("matmul", Scheme::SwapEcc), ("kmeans", Scheme::SwDup)] {
        let w = by_name(name).expect("workload");
        let c1 =
            ArchCampaign::prepare_with(&w, scheme, 0x7E12, opts(ExecTier::Tier1)).expect("applies");
        let c2 =
            ArchCampaign::prepare_with(&w, scheme, 0x7E12, opts(ExecTier::Tier2)).expect("applies");
        assert_eq!(
            c1.run_range_classed(0, 120),
            c2.run_range_classed(0, 120),
            "{name}/{} tallies diverged",
            scheme.label()
        );
    }
}

/// The tier-2 compiler actually fuses superinstructions on the protection
/// idioms: Swap-ECC's adjacent original/ECC-shadow pairs must produce a
/// substantial fused count, and fused execution still converges early.
#[test]
fn tier2_fuses_swapecc_pairs_and_fast_forwards() {
    let w = by_name("matmul").expect("workload");
    let c =
        ArchCampaign::prepare_with(&w, Scheme::SwapEcc, 7, opts(ExecTier::Tier2)).expect("applies");
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

/// Engine tags distinguish the two tiers, the default keeps the `ff2p` tag
/// persisted checkpoints carry, and the prepared campaign reports the tag
/// its checkpoints will carry.
#[test]
fn engine_tags_cover_the_option_grid() {
    assert_eq!(opts(ExecTier::Tier1).engine_tag(), "ff1p");
    assert_eq!(opts(ExecTier::Tier2).engine_tag(), "ff2p");
    assert_eq!(CampaignOptions::default().engine_tag(), "ff2p");

    let w = by_name("matmul").expect("workload");
    let c = ArchCampaign::prepare_with(&w, Scheme::SwapEcc, 1, CampaignOptions::default())
        .expect("applies");
    assert_eq!(c.engine_tag(), "ff2p");
    assert_eq!(c.options().tier, ExecTier::Tier2);
}
