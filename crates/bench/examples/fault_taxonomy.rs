//! Fault-model taxonomy acceptance campaign: the three-class injection mix
//! end to end, written to `BENCH_faults.json`.
//!
//! Over a 6×3 (workload × scheme) matrix every trial draws its fault class
//! from the equal-weight [`FaultMix::all_classes`] ticket — burst-capable
//! datapath transients, control-state strikes (predicate registers, active
//! masks, barrier counters, scheduler slots) and area-weighted stuck-at
//! sites from the FxpMad32 netlist — and the per-class outcome buckets are
//! asserted to account for every single trial (`bucket_sum == trials`, the
//! CI jq gate). Control faults must land in detection buckets or SDC,
//! never in a host panic.
//!
//! Two differential legs ride along:
//!
//! * **Pure-transient identity** — a `FaultMix::transient_only` campaign is
//!   byte-identical, trial for trial, to the from-scratch reference
//!   executor, proving the taxonomy plumbing did not perturb the legacy
//!   draw order or the fast-forward engine.
//! * **Control-fault coverage gap** — statically-clean Swap-ECC kernels
//!   (matmul, kmeans, hspot) leak SDCs under a control-only mix; matmul's
//!   measured gap goes into the report (the coverage boundary the paper's
//!   §VI discussion predicts for intra-thread codes).
//!
//! `SWAPCODES_FAST=1` shrinks trial counts for CI smoke runs.

use swapcodes_bench::fast_mode;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{
    control_fault_gap, ArchCampaign, ArchOutcomes, CampaignOptions, FaultClassTallies, FaultMix,
};
use swapcodes_workloads::by_name;

/// One class bucket as a JSON object.
fn outcomes_json(o: &ArchOutcomes) -> String {
    format!(
        "{{\"trap\": {}, \"due\": {}, \"crash\": {}, \"hang\": {}, \"masked\": {}, \
         \"sdc\": {}, \"recovered\": {}, \"miscorrected\": {}, \"total\": {}, \
         \"coverage\": {:.4}}}",
        o.trap,
        o.due,
        o.crash,
        o.hang,
        o.masked,
        o.sdc,
        o.recovered(),
        o.miscorrected,
        o.total(),
        o.coverage()
    )
}

fn main() {
    let fast = fast_mode();
    let trials: u64 = if fast { 120 } else { 360 };
    let seed = 0xFA17_0007u64;
    let workloads = ["matmul", "kmeans", "hspot", "bprop", "pathf", "srad_v2"];
    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    let mix = FaultMix::all_classes();
    let opts = CampaignOptions {
        mix,
        ..CampaignOptions::default()
    };

    // --- Mixed-class matrix: every trial must land in exactly one bucket. -
    println!(
        "== Fault taxonomy: mix {} ({} trials per cell) ==",
        mix.tag(),
        trials
    );
    let mut totals = FaultClassTallies::default();
    let mut cell_json = Vec::new();
    for name in workloads {
        let w = by_name(name).expect("workload");
        for scheme in schemes {
            let campaign =
                ArchCampaign::prepare_with(&w, scheme, seed, opts).expect("cell prepares");
            let classes = campaign.run_range_classed(0, trials);
            assert_eq!(
                classes.total(),
                trials,
                "{name} x {}: class buckets lost a trial",
                scheme.label()
            );
            assert_eq!(
                classes.aggregate().total(),
                trials,
                "{name} x {}: aggregate disagrees with class buckets",
                scheme.label()
            );
            let [t, c, s] = classes.classes().map(|(_, o)| o.coverage() * 100.0);
            println!(
                "  {name:>8} x {:<14} coverage t/c/s = {t:.0}/{c:.0}/{s:.0}%",
                scheme.label()
            );
            let buckets: Vec<String> = classes
                .classes()
                .iter()
                .map(|(label, o)| format!("\"{label}\": {}", outcomes_json(o)))
                .collect();
            cell_json.push(format!(
                "    {{\"workload\": \"{name}\", \"scheme\": \"{}\", {}}}",
                scheme.label(),
                buckets.join(", ")
            ));
            totals.merge(&classes);
        }
    }
    let matrix_trials = trials * (workloads.len() * schemes.len()) as u64;
    let bucket_sum = totals.total();
    assert_eq!(
        bucket_sum, matrix_trials,
        "per-class buckets must sum to the matrix trial count"
    );
    for (label, o) in totals.classes() {
        println!(
            "  {label:<9} {:>5} trials: {:.1}% covered, {} masked, {} SDC, {} hang",
            o.total(),
            o.coverage() * 100.0,
            o.masked,
            o.sdc,
            o.hang
        );
    }

    // --- Pure-transient identity: taxonomy plumbing left the legacy path --
    // byte-identical to the from-scratch reference executor.
    let ident_trials = if fast { 80 } else { 200 };
    let w = by_name("matmul").expect("workload");
    let transient = ArchCampaign::prepare_with(
        &w,
        Scheme::SwapEcc,
        seed,
        CampaignOptions {
            mix: FaultMix::transient_only(),
            ..CampaignOptions::default()
        },
    )
    .expect("transient cell prepares");
    let mut fast_tally = ArchOutcomes::default();
    let mut reference_tally = ArchOutcomes::default();
    for trial in 0..ident_trials {
        fast_tally.record(transient.run_trial_classed_salted(trial, 0).1);
        reference_tally.record(transient.run_trial_reference_salted(trial, 0));
    }
    assert_eq!(
        fast_tally, reference_tally,
        "pure-transient mix must stay byte-identical to the reference path"
    );
    println!(
        "  transient identity: {ident_trials} trials byte-identical to the \
         reference executor"
    );

    // --- Control-fault coverage gap on statically-clean kernels. ----------
    // The JSON report keeps matmul's row.
    let gap_trials = if fast { 120 } else { 240 };
    let gaps: Vec<_> = ["matmul", "kmeans", "hspot"]
        .into_iter()
        .map(|name| {
            let w = by_name(name).expect("workload");
            let gap = control_fault_gap(&w, Scheme::SwapEcc, gap_trials, seed)
                .expect("gap cell prepares");
            assert!(
                gap.report.is_clean(),
                "{name}: stock Swap-ECC transform must verify clean"
            );
            assert_eq!(gap.outcomes.total(), gap_trials);
            println!(
                "  control gap: {name} x swap-ecc static clean, dynamic coverage \
                 {:.1}%, gap {:.1}%, {} SDC escapes",
                gap.outcomes.coverage() * 100.0,
                gap.gap() * 100.0,
                gap.escapes.len()
            );
            gap
        })
        .collect();
    let gap = &gaps[0];

    // --- Report. ----------------------------------------------------------
    let json = format!(
        "{{\n  \"mix\": \"{}\",\n  \"trials_per_cell\": {trials},\n  \"cells\": [\n{}\n  ],\n  \
         \"transient_identity\": {{\n    \"trials\": {ident_trials},\n    \"byte_identical\": true\n  }},\n  \
         \"control_gap\": {{\n    \"workload\": \"matmul\",\n    \"scheme\": \"{}\",\n    \
         \"trials\": {gap_trials},\n    \"static_clean\": {},\n    \"dynamic_coverage\": {:.4},\n    \
         \"gap\": {:.4},\n    \"sdc_escapes\": {}\n  }},\n  \
         \"totals\": {{\n    \"cells\": {},\n    \"trials\": {matrix_trials},\n    \"bucket_sum\": {bucket_sum},\n    \
         \"transient\": {},\n    \"control\": {},\n    \"stuckat\": {}\n  }}\n}}\n",
        mix.tag(),
        cell_json.join(",\n"),
        Scheme::SwapEcc.label(),
        gap.report.is_clean(),
        gap.outcomes.coverage(),
        gap.gap(),
        gap.escapes.len(),
        workloads.len() * schemes.len(),
        totals.transient.total(),
        totals.control.total(),
        totals.stuck_at.total(),
    );
    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    println!("\nwrote BENCH_faults.json");
    print!("{json}");
}
