//! Acceptance for the golden-convergence early exit (DESIGN §9): the
//! live-only, position-keyed convergence check and the warp-independence
//! rule for barrier strikes must never change an outcome.
//!
//! * a window of control-only trials — copy-on-write resume (all four
//!   rules) against the from-scratch reference — on the four perfbench
//!   cells and two Inter-Thread cells, whose `SHFL`s read other lanes'
//!   registers. On warp-independent cells rule 4 confines non-barrier
//!   strikes before the convergence check runs, so hspot × Swap-ECC and
//!   lud × Inter-Thread, which are not warp-independent, keep rules 1 and
//!   2 exercised;
//! * a fuel budget of exactly the golden length, where a trial that
//!   re-converges late must still hang as the reference does;
//! * a two-warp kernel that swaps shared words across a barrier, which is
//!   not warp-independent, so its barrier strikes run and can corrupt;
//! * the ladder itself: rungs land at the first warp boundary past each
//!   interval, so on matmul × Swap-ECC, whose rounds are 2,048 instructions
//!   long, they stay within one quantum of the interval.
//!
//! Run with `--release`: the file runs ~2,100 from-scratch reference trials.

use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{ArchCampaign, CampaignOptions, FaultMix};
use swapcodes_isa::{KernelBuilder, MemSpace, MemWidth, Op, Reg, SpecialReg, Src};
use swapcodes_sim::exec::{Detection, ExecConfig, Executor};
use swapcodes_sim::snapshot::CampaignEngine;
use swapcodes_sim::{
    ControlTarget, ExecTier, FaultClass, FaultSpec, GlobalMemory, Launch, Protection,
};
use swapcodes_workloads::by_name;

fn control_only(tier: ExecTier) -> CampaignOptions {
    CampaignOptions {
        tier,
        mix: FaultMix::control_only(),
        ..CampaignOptions::default()
    }
}

#[test]
fn control_window_matches_reference() {
    let cells = [
        ("matmul", Scheme::SwapEcc),
        ("kmeans", Scheme::SwDup),
        ("hspot", Scheme::SwapEcc),
        ("bprop", Scheme::SwapPredict(PredictorSet::MAD)),
        ("pathf", Scheme::InterThread { checked: true }),
        ("lud", Scheme::InterThread { checked: true }),
    ];
    for (name, scheme) in cells {
        let w = by_name(name).expect("workload");
        let c = ArchCampaign::prepare_with(&w, scheme, 0xC0_4E12, control_only(ExecTier::Tier2))
            .expect("applies");
        let mut early = 0;
        for trial in 0..256 {
            let fault = c.trial_fault_salted(trial, 0);
            assert!(matches!(fault.class, FaultClass::Control(_)));
            let (cow, telem) = c.run_trial_telemetry_salted(trial, 0);
            assert_eq!(
                cow,
                c.run_trial_reference_salted(trial, 0),
                "trial {trial} ({fault:?}) on {name}/{}: CoW vs reference",
                scheme.label()
            );
            early += u64::from(telem.early_exit);
        }
        assert!(
            early > 0,
            "{name}/{}: no trial exited early",
            scheme.label()
        );
    }
}

/// With fuel equal to the golden length, a trial that re-converges to a
/// rung *behind* the golden count (a scheduler-slot strike that re-runs
/// instructions) would finish past its fuel: the reference hangs, so the
/// early exit must not fire. The gate is the trial's own finishing count.
#[test]
fn tight_fuel_matches_reference() {
    let w = by_name("hspot").expect("workload");
    let mut c = ArchCampaign::prepare_with(
        &w,
        Scheme::SwapEcc,
        0x71_6487,
        control_only(ExecTier::Tier2),
    )
    .expect("applies");
    c.fuel = c.golden_dynamic();
    for trial in 0..512 {
        assert_eq!(
            c.run_trial_classed_salted(trial, 0).1,
            c.run_trial_reference_salted(trial, 0),
            "trial {trial} ({:?}) under fuel = golden length",
            c.trial_fault_salted(trial, 0)
        );
    }
}

/// Two warps of 32 threads: each thread stores `3·tid` to `shared[tid]`,
/// waits at the barrier, then loads its neighbour's word
/// `shared[(tid + 1) % 64]` and stores it to `global[tid]`. Lanes 31 and 63
/// read the other warp's word.
fn shared_swap_kernel() -> swapcodes_isa::Kernel {
    let mut k = KernelBuilder::new("swap");
    k.push(Op::S2R {
        d: Reg(0),
        sr: SpecialReg::TidX,
    });
    k.push(Op::Shl {
        d: Reg(1),
        a: Reg(0),
        b: Src::Imm(2),
    });
    k.push(Op::IMul {
        d: Reg(2),
        a: Reg(0),
        b: Src::Imm(3),
    });
    k.push(Op::St {
        space: MemSpace::Shared,
        addr: Reg(1),
        offset: 0,
        v: Reg(2),
        width: MemWidth::W32,
    });
    k.push(Op::Bar);
    k.push(Op::IAdd {
        d: Reg(3),
        a: Reg(0),
        b: Src::Imm(1),
    });
    k.push(Op::And {
        d: Reg(3),
        a: Reg(3),
        b: Src::Imm(63),
    });
    k.push(Op::Shl {
        d: Reg(3),
        a: Reg(3),
        b: Src::Imm(2),
    });
    k.push(Op::Ld {
        d: Reg(4),
        space: MemSpace::Shared,
        addr: Reg(3),
        offset: 0,
        width: MemWidth::W32,
    });
    k.push(Op::St {
        space: MemSpace::Global,
        addr: Reg(1),
        offset: 0,
        v: Reg(4),
        width: MemWidth::W32,
    });
    k.push(Op::Exit);
    k.finish()
}

#[test]
fn barrier_strikes_run_unless_warps_are_independent() {
    let kernel = shared_swap_kernel();
    let launch = Launch {
        ctas: 1,
        threads_per_cta: 64,
        shared_words: 64,
    };
    let initial = GlobalMemory::new(256);
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let cfg = ExecConfig {
            tier,
            ..ExecConfig::default()
        };
        let (engine, cap) =
            CampaignEngine::capture_config(&kernel, launch, Protection::None, &initial, 4, &cfg)
                .expect("capture");
        assert!(
            !engine.warp_independent(),
            "{tier}: the warps exchange shared words"
        );
        let fuel = cap.dynamic_instructions * 8 + 10_000;
        let mut corrupted = 0;
        for at in 0..cap.dynamic_instructions {
            let fault = FaultSpec::try_control(at, 0, ControlTarget::Barrier, 0).expect("valid");
            let fast = engine.run_trial(fault, fuel, None);
            let mut mem = GlobalMemory::new(256);
            let reference = Executor {
                config: ExecConfig {
                    fault: Some(fault),
                    cta_limit: Some(1),
                    fuel: Some(fuel),
                    ..ExecConfig::default()
                },
            }
            .run(&kernel, launch, &mut mem)
            .expect("reference runs");
            assert!(fast.executed > 0, "{tier}@{at}: a barrier trial must run");
            assert_eq!(fast.detection, reference.detection, "{tier}@{at}");
            if fast.converged_early {
                assert_eq!(reference.detection, Detection::None, "{tier}@{at}");
                assert_eq!(mem.words(), cap.mem.words(), "{tier}@{at}");
            } else {
                assert_eq!(fast.mem.words(), mem.words(), "{tier}@{at}");
            }
            corrupted += u32::from(mem.words() != cap.mem.words());
        }
        assert!(
            corrupted > 0,
            "{tier}: some barrier strike lets a warp read a stale word"
        );
    }

    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        for (name, scheme, independent) in [
            ("matmul", Scheme::SwapEcc, true),
            ("kmeans", Scheme::SwDup, true),
            ("bprop", Scheme::SwapPredict(PredictorSet::MAD), true),
            ("hspot", Scheme::SwapEcc, false),
        ] {
            let w = by_name(name).expect("workload");
            let c = ArchCampaign::prepare_with(&w, scheme, 1, control_only(tier)).expect("applies");
            assert_eq!(c.warp_independent(), independent, "{tier}: {name}");
        }
    }
}

/// matmul × Swap-ECC runs 32 warps per CTA, so a scheduler round is 2,048
/// instructions: a ladder that waited for round tops would space its rungs
/// 2,048 apart whatever the interval. Rungs taken at the first warp
/// boundary past each interval are less than one 64-instruction quantum
/// late, and the default interval (golden / 32, at least 512) yields about
/// 30 of them, on both tiers.
#[test]
fn ladder_rungs_follow_the_interval() {
    let w = by_name("matmul").expect("workload");
    let t = swapcodes_core::apply(Scheme::SwapEcc, &w.kernel, w.launch).expect("applies");
    let (kernel, _) = swapcodes_core::peephole(&t.kernel);
    let golden = Executor {
        config: ExecConfig {
            protection: t.protection,
            cta_limit: Some(1),
            ..ExecConfig::default()
        },
    }
    .run(&kernel, t.launch, &mut w.build_memory())
    .expect("golden runs")
    .dynamic_instructions;
    let interval = (golden / 32).max(512);
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let cfg = ExecConfig {
            tier,
            ..ExecConfig::default()
        };
        let (engine, _) = CampaignEngine::capture_config(
            &kernel,
            t.launch,
            t.protection,
            &w.build_memory(),
            interval,
            &cfg,
        )
        .expect("capture");
        let counts: Vec<u64> = engine.snapshots().iter().map(|s| s.dyn_count).collect();
        assert!(
            counts.len() >= 28,
            "{tier}: {} rungs at interval {interval} over {golden} instructions",
            counts.len()
        );
        for pair in counts.windows(2) {
            assert!(
                pair[1] - pair[0] <= interval + 64,
                "{tier}: rungs at {} and {} (interval {interval})",
                pair[0],
                pair[1]
            );
        }
    }
}
