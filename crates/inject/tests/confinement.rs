//! Acceptance for warp-confined trials (rule 4 of DESIGN §9): running only
//! the struck warp of a warp-independent cell must never change an outcome.
//!
//! * every figure cell × {`all`, control-only, transient-only} against the
//!   from-scratch reference: confined trials occur on every
//!   warp-independent cell whose CTA has more than one warp, never on the
//!   others and never for a stuck-at fault;
//! * tight fuel (golden, golden + 3, golden + 40), where the count bounds
//!   must send undecidable confined runs back to the normal schedule;
//! * three two-warp kernels whose strikes break an owner rule (a store into
//!   and a load from the other warp's word: the trial must re-run) or spin
//!   the struck warp forever (the confined run must hang by itself).
//!
//! Run with `--release`: the full matrix is ~28,000 reference trials
//! (`SWAPCODES_FAST=1` runs 8 trials per cell and mix instead of 64).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{
    ArchCampaign, CampaignOptions, CellConfig, FaultMix, PrepError, PreparedCell,
};
use swapcodes_isa::{CmpOp, CmpTy, Kernel, KernelBuilder, MemSpace, MemWidth, Op, Pred, Reg};
use swapcodes_isa::{SpecialReg, Src};
use swapcodes_sim::exec::{ExecConfig, ExecError, Executor};
use swapcodes_sim::snapshot::{CampaignEngine, FastTrial};
use swapcodes_sim::{
    ControlTarget, ExecTier, FaultClass, FaultSpec, GlobalMemory, Launch, Protection,
};
use swapcodes_workloads::{all, by_name};

const SEED: u64 = 0x21_C0F1;

fn fast_mode() -> bool {
    std::env::var("SWAPCODES_FAST").is_ok_and(|v| v == "1")
}

/// Baseline plus every scheme of Figs. 12, 15 and 16, without repeats.
fn figure_schemes() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::Baseline];
    for s in Scheme::figure12_sweep()
        .into_iter()
        .chain([
            Scheme::InterThread { checked: true },
            Scheme::InterThread { checked: false },
        ])
        .chain(Scheme::figure16_sweep())
    {
        if !schemes.contains(&s) {
            schemes.push(s);
        }
    }
    schemes
}

/// What one figure cell's trials showed.
struct CellReport {
    label: String,
    independent: bool,
    warps: u32,
    confined: u32,
}

/// Run `trials` trials of each mix on one prepared cell; every outcome must
/// equal the reference. Returns the number of confined trials.
fn run_cell(cell: &Arc<PreparedCell>, trials: u64, label: &str) -> u32 {
    let mut confined = 0;
    for mix in [
        FaultMix::all_classes(),
        FaultMix::control_only(),
        FaultMix::transient_only(),
    ] {
        let c = ArchCampaign::from_cell(Arc::clone(cell), SEED, mix);
        for trial in 0..trials {
            let fault = c.trial_fault_salted(trial, 0);
            let (outcome, telem) = c.run_trial_telemetry_salted(trial, 0);
            assert_eq!(
                outcome,
                c.run_trial_reference_salted(trial, 0),
                "{label} trial {trial} under {}: {fault:?}",
                mix.tag()
            );
            if telem.confined {
                assert!(
                    !matches!(fault.class, FaultClass::StuckAt(_)),
                    "{label} trial {trial}: a stuck-at trial was confined"
                );
                assert!(!telem.early_exit, "{label} trial {trial}");
                confined += 1;
            }
        }
    }
    confined
}

#[test]
fn figure_cells_match_reference() {
    let trials = if fast_mode() { 8 } else { 64 };
    let workloads = all();
    let schemes = figure_schemes();
    let cells: Vec<_> = workloads
        .iter()
        .flat_map(|w| schemes.iter().map(move |&s| (w, s)))
        .collect();
    let next = AtomicUsize::new(0);
    let reports = Mutex::new(Vec::new());
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(&(w, scheme)) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let owned = swapcodes_workloads::Workload {
                        kernel: w.kernel.clone(),
                        ..*w
                    };
                    let config = CellConfig::resolve(scheme, CampaignOptions::default());
                    let cell = match PreparedCell::prepare(owned, config) {
                        Ok(cell) => Arc::new(cell),
                        Err(PrepError::NotApplicable) => continue,
                        Err(e) => panic!("{} / {}: {e:?}", w.name, scheme.label()),
                    };
                    let label = format!("{} / {}", w.name, scheme.label());
                    let view =
                        ArchCampaign::from_cell(Arc::clone(&cell), SEED, FaultMix::default());
                    let independent = view.warp_independent();
                    let warps = view.launch().threads_per_cta.div_ceil(32);
                    let confined = run_cell(&cell, trials, &label);
                    reports.lock().expect("reports").push(CellReport {
                        label,
                        independent,
                        warps,
                        confined,
                    });
                }
            });
        }
    });
    let reports = reports.into_inner().expect("reports");
    assert_eq!(reports.len(), 146, "every applicable figure cell ran");
    for r in &reports {
        if r.independent && r.warps > 1 {
            assert!(r.confined > 0, "{}: no trial was confined", r.label);
        } else {
            assert_eq!(r.confined, 0, "{}: confined without rule 4", r.label);
        }
        if ["lud", "gauss", "hspot", "bfs"]
            .iter()
            .any(|n| r.label.starts_with(&format!("{n} ")))
        {
            assert!(!r.independent, "{}: warps exchange written words", r.label);
        }
    }
}

/// With fuel at or just above the golden length, most confined runs cannot
/// prove the reference stays within fuel and must re-run; spinning warps
/// must hang exactly as the reference does.
#[test]
fn tight_fuel_matches_reference() {
    let trials = if fast_mode() { 24 } else { 128 };
    let cells = [
        ("matmul", Scheme::SwapEcc),
        ("kmeans", Scheme::SwDup),
        ("bprop", Scheme::SwapPredict(PredictorSet::MAD)),
        ("pathf", Scheme::InterThread { checked: true }),
    ];
    let options = CampaignOptions {
        mix: FaultMix::all_classes(),
        ..CampaignOptions::default()
    };
    for (name, scheme) in cells {
        let w = by_name(name).expect("workload");
        let mut c = ArchCampaign::prepare_with(&w, scheme, SEED, options).expect("applies");
        let golden = c.golden_dynamic();
        for fuel in [golden, golden + 3, golden + 40] {
            c.fuel = fuel;
            for trial in 0..trials {
                assert_eq!(
                    c.run_trial_classed_salted(trial, 0).1,
                    c.run_trial_reference_salted(trial, 0),
                    "{name}/{} trial {trial} ({:?}) under fuel {fuel} (golden {golden})",
                    scheme.label(),
                    c.trial_fault_salted(trial, 0)
                );
            }
        }
    }
}

fn s2r_tid(k: &mut KernelBuilder) {
    k.push(Op::S2R {
        d: Reg(0),
        sr: SpecialReg::TidX,
    });
}

fn shl2(k: &mut KernelBuilder, d: u8) {
    k.push(Op::Shl {
        d: Reg(d),
        a: Reg(0),
        b: Src::Imm(2),
    });
}

fn store(k: &mut KernelBuilder, addr: u8, v: u8) {
    k.push(Op::St {
        space: MemSpace::Global,
        addr: Reg(addr),
        offset: 0,
        v: Reg(v),
        width: MemWidth::W32,
    });
}

/// `global[tid] = tid`: eligible op 1 is warp 0's address `SHL`.
fn store_kernel() -> Kernel {
    let mut k = KernelBuilder::new("own-store");
    s2r_tid(&mut k);
    shl2(&mut k, 2);
    store(&mut k, 2, 0);
    k.push(Op::Exit);
    k.finish()
}

/// `global[tid] = tid; global[64 + tid] = global[tid]`, the load address
/// computed apart: eligible op 2 is warp 0's load-address `SHL`.
fn load_kernel() -> Kernel {
    let mut k = KernelBuilder::new("own-load");
    s2r_tid(&mut k);
    shl2(&mut k, 2);
    store(&mut k, 2, 0);
    shl2(&mut k, 3);
    k.push(Op::Ld {
        d: Reg(4),
        space: MemSpace::Global,
        addr: Reg(3),
        offset: 0,
        width: MemWidth::W32,
    });
    k.push(Op::IAdd {
        d: Reg(5),
        a: Reg(2),
        b: Src::Imm(256),
    });
    store(&mut k, 5, 4);
    k.push(Op::Exit);
    k.finish()
}

/// Count `R3` down from 10 to 0, then `global[tid] = tid`. Returns the
/// kernel and the PCs of the loop top and of the store.
fn countdown_kernel() -> (Kernel, usize, usize) {
    let mut k = KernelBuilder::new("countdown");
    s2r_tid(&mut k);
    k.push(Op::Mov {
        d: Reg(3),
        a: Src::Imm(10),
    });
    let top = k.label();
    k.bind(top);
    let top_pc = k.len();
    k.push(Op::ISub {
        d: Reg(3),
        a: Reg(3),
        b: Src::Imm(1),
    });
    k.push(Op::SetP {
        p: Pred(1),
        cmp: CmpOp::Ne,
        ty: CmpTy::I32,
        a: Reg(3),
        b: Src::Imm(0),
    });
    k.branch_if(top, Pred(1), true);
    shl2(&mut k, 2);
    let store_pc = k.len();
    store(&mut k, 2, 0);
    k.push(Op::Exit);
    (k.finish(), top_pc, store_pc)
}

/// Run `fault` on `kernel` over two warps on both tiers against the
/// reference; returns the fast trials.
fn two_warp_trials(kernel: &Kernel, fault: FaultSpec) -> Vec<FastTrial> {
    let launch = Launch::grid(1, 64);
    let initial = GlobalMemory::new(512);
    let mut out = Vec::new();
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let cfg = ExecConfig {
            tier,
            ..ExecConfig::default()
        };
        let (engine, cap) =
            CampaignEngine::capture_config(kernel, launch, Protection::None, &initial, 8, &cfg)
                .expect("capture");
        assert!(engine.warp_independent(), "{tier}: warps own their words");
        let fuel = cap.dynamic_instructions * 8 + 10_000;
        let fast = engine.run_trial(fault, fuel, None);
        let mut mem = GlobalMemory::new(512);
        let reference = Executor {
            config: ExecConfig {
                fault: Some(fault),
                cta_limit: Some(1),
                fuel: Some(fuel),
                ..ExecConfig::default()
            },
        }
        .run(kernel, launch, &mut mem);
        match reference {
            Ok(r) => {
                assert_eq!(fast.error, None, "{tier}");
                assert_eq!(fast.detection, r.detection, "{tier}");
                assert!(
                    engine.output_matches(&fast, 0, mem.words()),
                    "{tier}: final memory"
                );
            }
            Err(e) => assert_eq!(fast.error, Some(e), "{tier}"),
        }
        out.push(fast);
    }
    out
}

/// A flipped address bit sends warp 0's store into warp 1's word: the write
/// check fails, and the re-run on the normal schedule gives the outcome.
#[test]
fn store_into_other_warp_reruns() {
    for t in two_warp_trials(&store_kernel(), FaultSpec::single_bit(1, 3, 7)) {
        assert!(t.rerun && t.confined.is_none(), "{t:?}");
    }
}

/// A flipped load address makes warp 0 read a word warp 1 writes: the
/// read check fails and the trial re-runs.
#[test]
fn load_from_other_warp_reruns() {
    for t in two_warp_trials(&load_kernel(), FaultSpec::single_bit(2, 3, 7)) {
        assert!(t.rerun && t.confined.is_none(), "{t:?}");
    }
}

/// A scheduler-slot strike on warp 0's store jumps back into the loop with
/// `R3 = 0`, which then counts down from 2³² − 1: the confined warp runs
/// past fuel alone, and the trial hangs like the reference without a
/// re-run.
#[test]
fn spinning_warp_hangs_without_rerun() {
    let (kernel, top_pc, store_pc) = countdown_kernel();
    // Warp 0 issues S2R, MOV, 10 × (ISUB, ISETP, BRA), SHL, then the store.
    let at = 2 + 30 + 1;
    let fault = FaultSpec::try_control(
        at,
        0,
        ControlTarget::SchedulerSlot,
        (top_pc ^ store_pc) as u64,
    )
    .expect("valid control spec");
    for t in two_warp_trials(&kernel, fault) {
        assert!(matches!(t.error, Some(ExecError::Hang { .. })), "{t:?}");
        assert_eq!(t.confined, Some(0), "{t:?}");
        assert!(!t.rerun, "{t:?}");
    }
}
