//! Static verification: prove a transformed kernel's protection coverage
//! without running a single injection trial, then watch the verifier catch a
//! hand-broken kernel.
//!
//! Run with: `cargo run --release --example verify_kernel`

use swapcodes::core::{apply, Scheme};
use swapcodes::isa::{Instr, Kernel, Op, Role, Src};
use swapcodes::verify::verify;

fn main() {
    // 1. Every scheme's output across the whole workload suite verifies
    //    clean: the dataflow proof that no unprotected path reaches
    //    architectural state.
    println!("== static verification across the workload suite ==");
    for w in swapcodes::workloads::all() {
        for scheme in [
            Scheme::SwDup,
            Scheme::SwapEcc,
            Scheme::SwapPredict(swapcodes::core::PredictorSet::ADD_SUB),
            Scheme::SwapPredict(swapcodes::core::PredictorSet::MAD),
            Scheme::InterThread { checked: true },
        ] {
            let Ok(t) = apply(scheme, &w.kernel, w.launch) else {
                // Inter-thread duplication is not transparent (§V): shuffle
                // kernels and full CTAs are legitimately rejected.
                continue;
            };
            let report = verify(scheme, &t.kernel);
            assert!(report.is_clean(), "{}: {report}", w.name);
            println!(
                "  {:<12} {:<12} {:>3}/{:<3} {} covered",
                w.name,
                report.scheme,
                report.coverage.covered,
                report.coverage.points,
                report.coverage.kind,
            );
        }
    }

    // 2. The vulnerability analyzer goes beyond the binary clean/dirty
    //    proof: liveness-derived ACE windows plus a dynamic issue profile
    //    predict per-fault-class coverage and rank the control-state sites
    //    the scheme leaves unprotected (`swapcodes::verify::avf`).
    println!("\n== predicted vulnerability (liveness ACE x scheme windows) ==");
    for w in swapcodes::workloads::all() {
        for scheme in [Scheme::SwDup, Scheme::SwapEcc] {
            let Ok(t) = apply(scheme, &w.kernel, w.launch) else {
                continue;
            };
            let exec = swapcodes::sim::Executor {
                config: swapcodes::sim::exec::ExecConfig {
                    protection: t.protection,
                    cta_limit: Some(1),
                    collect_issue_log: true,
                    ..swapcodes::sim::exec::ExecConfig::default()
                },
            };
            let mut mem = w.build_memory();
            let out = exec
                .run(&t.kernel, t.launch, &mut mem)
                .expect("fault-free profile run");
            let profile =
                swapcodes::verify::avf::DynProfile::from_issue_log(t.kernel.len(), &out.issue_log);
            let report = swapcodes::verify::avf::analyze(scheme, &t.kernel, &profile, None);
            let top = report
                .control_sites
                .first()
                .map(|s| {
                    format!(
                        "top site pc {} {}",
                        s.pc,
                        swapcodes::verify::avf::kind_label(s.kind)
                    )
                })
                .unwrap_or_else(|| "no unprotected sites".to_owned());
            println!(
                "  {:<12} {:<9} reg ACE {:>4.1}%  coverage t/c/s {:>5.1}/{:>4.1}/{:>5.1}%  {top}",
                w.name,
                report.scheme,
                report.reg_ace * 100.0,
                report.transient.coverage * 100.0,
                report.control.coverage * 100.0,
                report.stuck_at.coverage * 100.0,
            );
        }
    }

    // 3. Break a transformed kernel the way a miscompiled pass would —
    //    clobber a shadow with the unverified original — and the verifier
    //    pinpoints the hole with a path witness.
    println!("\n== a deliberately broken SW-Dup kernel ==");
    let w = swapcodes::workloads::by_name("matmul").expect("matmul exists");
    let t = apply(Scheme::SwDup, &w.kernel, w.launch).expect("sw-dup applies");
    let mut instrs = t.kernel.instrs().to_vec();
    // Replace the first shadow with a copy of its original: every later
    // check of that register now compares the original against itself.
    let (pos, orig_def) = instrs
        .iter()
        .enumerate()
        .find_map(|(i, ins)| (ins.role == Role::Shadow).then(|| (i, instrs[i - 1].op.defs()[0])))
        .expect("transformed kernel has shadows");
    let shadow_def = instrs[pos].op.defs()[0];
    instrs[pos] = Instr::new(Op::Mov {
        d: shadow_def,
        a: Src::Reg(orig_def),
    })
    .with_role(Role::Shadow);
    let broken = Kernel::from_instrs("matmul.swdup.broken", instrs);

    let report = verify(Scheme::SwDup, &broken);
    assert!(!report.is_clean());
    print!("{report}");

    // 4. The JSON form feeds CI and dashboards.
    println!("\nmachine-readable: {}", report.to_json());
}
