//! Architecture-level coverage campaigns across workloads and schemes — the
//! system-level counterpart of the paper's neutron-beam observation that
//! duplication cuts SDC by an order of magnitude.

use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::arch::arch_campaign;
use swapcodes_inject::{ArchCampaign, CampaignOptions, FaultMix};
use swapcodes_sim::ControlTarget;
use swapcodes_workloads::by_name;

#[test]
fn protected_schemes_have_zero_sdc_on_single_bit_faults() {
    // Small deterministic campaigns across three differently-shaped
    // workloads; single-bit pipeline faults cannot escape SEC-DED-backed
    // Swap-ECC/Swap-Predict or SW-Dup's checks.
    for name in ["kmeans", "b+tree", "matmul"] {
        let w = by_name(name).expect("workload");
        for scheme in [
            Scheme::SwDup,
            Scheme::SwapEcc,
            Scheme::SwapPredict(PredictorSet::MAD),
        ] {
            let out = arch_campaign(&w, scheme, 10, 0xC0FE);
            assert_eq!(out.sdc, 0, "{name} under {scheme:?}: {out:?}");
        }
    }
}

#[test]
fn baseline_sdc_exceeds_protected_sdc() {
    let w = by_name("kmeans").expect("kmeans");
    let base = arch_campaign(&w, Scheme::Baseline, 30, 0xBEE);
    let prot = arch_campaign(&w, Scheme::SwapEcc, 30, 0xBEE);
    assert!(base.sdc > 0, "baseline shows SDC: {base:?}");
    assert_eq!(prot.sdc, 0, "swap-ecc contains everything: {prot:?}");
    assert!(prot.coverage() >= base.coverage());
}

#[test]
fn swdup_detection_is_trap_based_swapecc_is_due_based() {
    let w = by_name("b+tree").expect("b+tree");
    let dup = arch_campaign(&w, Scheme::SwDup, 16, 0xD1CE);
    let swap = arch_campaign(&w, Scheme::SwapEcc, 16, 0xD1CE);
    assert_eq!(
        dup.due, 0,
        "SW-Dup has no register-file protection: {dup:?}"
    );
    assert_eq!(swap.trap, 0, "Swap-ECC emits no checking traps: {swap:?}");
    assert!(dup.trap > 0);
    assert!(swap.due > 0);
}

#[test]
fn interthread_campaign_contains_faults() {
    let w = by_name("pathf").expect("pathfinder");
    let out = arch_campaign(&w, Scheme::InterThread { checked: true }, 12, 0x17);
    assert_eq!(
        out.sdc, 0,
        "shuffle checks contain store-visible faults: {out:?}"
    );
}

/// Control-state strikes take the fast-forward shortcuts of DESIGN §9
/// without changing an outcome: matmul's warps share no written word, so
/// its barrier strikes are Masked without executing and its other strikes
/// run the struck warp alone; hspot's warps exchange words, so there a
/// flipped predicate that only dead code reads re-converges before the
/// kernel ends.
#[test]
fn control_faults_exit_early_without_changing_outcomes() {
    let opts = CampaignOptions {
        mix: FaultMix::control_only(),
        ..CampaignOptions::default()
    };
    let w = by_name("matmul").expect("matmul");
    let c = ArchCampaign::prepare_with(&w, Scheme::SwapEcc, 0x5E_0C7, opts).expect("applies");
    let (mut barriers, mut others, mut confined) = (0, 0, 0);
    for trial in 0..48 {
        let (outcome, telem) = c.run_trial_telemetry_salted(trial, 0);
        assert_eq!(
            outcome,
            c.run_trial_reference_salted(trial, 0),
            "trial {trial}: {:?}",
            c.trial_fault_salted(trial, 0)
        );
        if c.trial_fault_salted(trial, 0).control_target() == Some(ControlTarget::Barrier) {
            barriers += 1;
            assert_eq!(telem.executed, 0, "trial {trial}: barrier strike ran");
        } else {
            others += 1;
            confined += u32::from(telem.confined);
        }
    }
    assert!(barriers > 0, "48 control draws include a barrier strike");
    assert!(
        confined * 10 >= others * 9,
        "{confined} of {others} non-barrier strikes confined"
    );

    let w = by_name("hspot").expect("hspot");
    let c = ArchCampaign::prepare_with(&w, Scheme::SwapEcc, 0x5E_0C7, opts).expect("applies");
    assert!(!c.warp_independent(), "hspot's warps exchange halo words");
    let mut predicate_exits = 0;
    for trial in 0..48 {
        let (outcome, telem) = c.run_trial_telemetry_salted(trial, 0);
        assert_eq!(
            outcome,
            c.run_trial_reference_salted(trial, 0),
            "hspot trial {trial}: {:?}",
            c.trial_fault_salted(trial, 0)
        );
        assert!(!telem.confined, "hspot trial {trial} confined");
        if c.trial_fault_salted(trial, 0).control_target() == Some(ControlTarget::Predicate) {
            predicate_exits += u32::from(telem.early_exit);
        }
    }
    assert!(predicate_exits > 0, "some predicate strike exits early");
}
