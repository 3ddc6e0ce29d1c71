//! Perf baseline: wall-clock timings of the production paths, and of the
//! campaign references they are checked against, written to
//! `BENCH_sweep.json`.
//!
//! Four legs:
//!
//! * **Figure sweep** — the shared parallel memoized [`SweepEngine`] over
//!   every cell the five timing figures read: one traced pass per distinct
//!   cell on the campaign engine's exact-step core
//!   (`sim::snapshot::traced_pass`) and the event-driven replay, then a walk
//!   of each figure's cells, duplicates included, from the cache. No cell
//!   may fail. The serial references are not timed here: the
//!   `timing_matches_reference` and `sweep_matches_serial` tests check the
//!   engine's cells against them.
//! * **Gate campaign** — the one-site-at-a-time reference
//!   (`run_unit_campaign_reference`: every input's whole injection order
//!   drawn up front, one `evaluate_flipped` per site, single-threaded)
//!   versus the packed work-stealing campaign. Both test the same sites, so
//!   their error and attempt counts are asserted equal. No ratio is
//!   reported: a speed-up over a deliberately slow reference only shows
//!   that the reference is slow.
//! * **Architecture campaign** — three legs on identical trials, single
//!   threaded: every trial simulated from scratch
//!   (`run_trial_reference_salted`, the seed path); the tier-1 engine
//!   (predecoded micro-op interpreter) with its normal copy-on-write resume
//!   (`fast_forward_s`, `speedup`); and the production engine — tier 2 with
//!   the same resume (page-granular memory overlay, lazy regfile
//!   materialization, dirty-set convergence checks) — in logical trial
//!   order (`cow_s`, `speedup_cow`). Both engines' tallies are asserted
//!   byte-identical to the reference per cell, and the production leg
//!   reports materialization telemetry (`bytes_cloned_per_trial`,
//!   `cow_page_hit_rate`).
//! * **Tier-2 executor** — the tier-1 engine versus the tier-2
//!   closure-compiled threaded-code engine (the default), both over the
//!   peepholed kernel, golden capture plus campaign trials, with the tier-2
//!   tallies asserted byte-identical to the from-scratch interpreter
//!   reference over every trial.
//!
//! Run with `cargo run --release -p swapcodes-bench --example perf_baseline`.

use std::collections::HashSet;
use std::time::Instant;

use swapcodes_bench::{fast_mode, SweepEngine};
use swapcodes_core::Scheme;
use swapcodes_gates::units::{build_unit, UnitKind};
use swapcodes_inject::{
    default_thread_count, run_unit_campaign, run_unit_campaign_reference, ArchCampaign,
    ArchOutcomes, CampaignConfig, CampaignOptions,
};
use swapcodes_sim::ExecTier;
use swapcodes_workloads::{all, by_name};

/// The timing cells each figure bench walks, duplication included — exactly
/// what the five standalone benches used to recompute.
fn figure_timing_cells() -> Vec<(usize, Scheme)> {
    let n = all().len();
    let mut cells = Vec::new();
    // fig12: baseline + the four intra-thread schemes, every workload.
    for w in 0..n {
        cells.push((w, Scheme::Baseline));
        for s in Scheme::figure12_sweep() {
            cells.push((w, s));
        }
    }
    // fig15: baseline again, inter-thread twice, SW-Dup again.
    for w in 0..n {
        cells.push((w, Scheme::Baseline));
        cells.push((w, Scheme::InterThread { checked: true }));
        cells.push((w, Scheme::InterThread { checked: false }));
        cells.push((w, Scheme::SwDup));
    }
    // fig16: baseline a third time + the predictor ladder.
    for w in 0..n {
        cells.push((w, Scheme::Baseline));
        for s in Scheme::figure16_sweep() {
            cells.push((w, s));
        }
    }
    cells
}

fn main() {
    let workloads = all();
    let threads = default_thread_count();
    println!("perf baseline: {threads} worker thread(s)");

    // --- Figure sweep: shared engine, one pass per cell, worker pool. -----
    // The fig13 and fig14 cells are part of the timing matrix, so the one
    // prewarm runs every pass the five figures read.
    let timing_cells = figure_timing_cells();
    let t1 = Instant::now();
    let engine = SweepEngine::new();
    let distinct: HashSet<Scheme> = timing_cells.iter().map(|&(_, s)| s).collect();
    let matrix: Vec<Scheme> = distinct.into_iter().collect();
    engine.prewarm(&workloads, &matrix);
    // Re-walk every figure's cells: all cache hits now.
    for &(w, s) in &timing_cells {
        std::hint::black_box(engine.timing(&workloads[w], s));
    }
    let sweep_s = t1.elapsed().as_secs_f64();
    println!(
        "  parallel memoized sweep           {sweep_s:7.2}s ({} timing cells walked, {} cached cells)",
        timing_cells.len(),
        engine.cached_cells()
    );
    assert!(
        engine.failures().is_empty(),
        "sweep cells failed: {:?}",
        engine.failures()
    );

    // --- Gate-level injection campaign: per-site reference vs the pool. ---
    let unit = build_unit(UnitKind::FxpMad32);
    // `SWAPCODES_FAST` turns the campaign leg into a CI smoke run; the
    // sweep leg always walks the full matrix (memoization is what's under
    // test there).
    let input_count: u64 = if fast_mode() { 400 } else { 2_000 };
    let inputs: Vec<[u64; 3]> = (0..input_count)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            [x & 0xFFFF_FFFF, (x >> 32) & 0xFFFF_FFFF, x.rotate_left(17)]
        })
        .collect();
    let cfg = CampaignConfig::default();
    let t2 = Instant::now();
    let reference = run_unit_campaign_reference(&unit, &inputs, &cfg, 0);
    let campaign_reference_s = t2.elapsed().as_secs_f64();
    let ref_found = reference.iter().filter(|o| o.record.is_some()).count() as u64;
    let ref_attempts: u64 = reference.iter().map(|o| o.attempts).sum();
    let t3 = Instant::now();
    let res = run_unit_campaign(&unit, &inputs, &cfg);
    let campaign_parallel_s = t3.elapsed().as_secs_f64();
    assert_eq!(
        (ref_found, ref_attempts),
        (res.records.len() as u64, res.attempts),
        "the pooled campaign must reproduce the per-site reference's errors and attempts"
    );
    println!("  campaign per-site reference (1 thread) {campaign_reference_s:7.2}s ({ref_found} errors, {ref_attempts} attempts)");
    println!("  campaign pool ({threads} thread(s))            {campaign_parallel_s:7.2}s");

    // --- Architecture campaign: from-scratch vs resume-engine legs. -------
    // All legs run on one thread; trials are identical `(seed, index)`
    // draws, and the per-cell tallies must agree outcome-for-outcome — this
    // is the differential gate guarding both tiers of the fast-forward
    // engine at campaign scale.
    let arch_cells = [("matmul", Scheme::SwapEcc), ("kmeans", Scheme::SwDup)];
    let arch_trials: u64 = if fast_mode() { 250 } else { 600 };
    let arch_seed = 0xA2C4_0005u64;
    let mut arch_reference_s = 0.0f64;
    let mut arch_tier1_s = 0.0f64;
    let mut arch_cow_s = 0.0f64;
    let mut arch_snapshots = 0usize;
    let mut arch_early_exits = 0u64;
    let mut arch_confined = 0u64;
    let mut arch_total = 0u64;
    let mut arch_bytes_cloned = 0u64;
    let mut arch_pages_cloned = 0u64;
    let mut arch_pages_total = 0u64;
    // The tier-1 interpreter engine (the tier-2 engine gets its own gate
    // below).
    let tier1_opts = CampaignOptions {
        tier: ExecTier::Tier1,
        ..CampaignOptions::default()
    };
    for (name, scheme) in arch_cells {
        let w = by_name(name).expect("workload");
        let campaign =
            ArchCampaign::prepare_with(&w, scheme, arch_seed, tier1_opts).expect("scheme applies");
        // The production leg runs the stack a real campaign gets from
        // `CampaignOptions::from_env()` (tier 2) against the same trial
        // draws.
        let production =
            ArchCampaign::prepare_with(&w, scheme, arch_seed, CampaignOptions::default())
                .expect("scheme applies");
        arch_snapshots += campaign.snapshot_count();

        let t = Instant::now();
        let mut reference_tally = ArchOutcomes::default();
        for trial in 0..arch_trials {
            reference_tally.record(campaign.run_trial_reference_salted(trial, 0));
        }
        let cell_reference_s = t.elapsed().as_secs_f64();
        arch_reference_s += cell_reference_s;

        // Leg 2: the tier-1 engine through its normal copy-on-write resume.
        let t = Instant::now();
        let mut tier1_tally = ArchOutcomes::default();
        for trial in 0..arch_trials {
            tier1_tally.record(campaign.run_trial_classed_salted(trial, 0).1);
        }
        let cell_tier1_s = t.elapsed().as_secs_f64();
        arch_tier1_s += cell_tier1_s;

        // Leg 3: the production engine, logical trial order, with
        // materialization telemetry.
        let t = Instant::now();
        let mut cow_tally = ArchOutcomes::default();
        for trial in 0..arch_trials {
            let (outcome, telemetry) = production.run_trial_telemetry_salted(trial, 0);
            if telemetry.early_exit {
                arch_early_exits += 1;
            }
            arch_confined += u64::from(telemetry.confined);
            arch_bytes_cloned += telemetry.bytes_cloned;
            arch_pages_cloned += telemetry.cow_pages_cloned;
            arch_pages_total += telemetry.cow_pages_total;
            cow_tally.record(outcome);
        }
        let cell_cow_s = t.elapsed().as_secs_f64();
        arch_cow_s += cell_cow_s;

        arch_total += arch_trials;

        assert_eq!(
            tier1_tally,
            reference_tally,
            "tier-1 tallies diverge from the reference path on {name}/{}",
            scheme.label()
        );
        assert_eq!(
            cow_tally,
            reference_tally,
            "tier-2 tallies diverge from the reference path on {name}/{}",
            scheme.label()
        );
        println!(
            "  arch {name}/{}: from-scratch {cell_reference_s:6.2}s, tier-1 {cell_tier1_s:6.2}s, tier-2 {cell_cow_s:6.2}s ({:.1}x, {} snapshots)",
            scheme.label(),
            cell_reference_s / cell_cow_s,
            campaign.snapshot_count()
        );
    }
    let arch_speedup = arch_reference_s / arch_tier1_s;
    let arch_speedup_cow = arch_reference_s / arch_cow_s;
    let arch_early_rate = arch_early_exits as f64 / arch_total as f64;
    let arch_confined_rate = arch_confined as f64 / arch_total as f64;
    let arch_bytes_per_trial = arch_bytes_cloned as f64 / arch_total as f64;
    let arch_page_hit_rate = 1.0 - arch_pages_cloned as f64 / arch_pages_total as f64;
    println!(
        "  arch campaign (1 thread)          {arch_reference_s:7.2}s -> tier-1 {arch_tier1_s:7.2}s ({arch_speedup:.1}x) -> tier-2 {arch_cow_s:7.2}s ({arch_speedup_cow:.1}x, {arch_total} trials, {:.0}% early exit, {:.0}% confined)",
        arch_early_rate * 100.0,
        arch_confined_rate * 100.0
    );
    println!(
        "  arch cow telemetry                {arch_bytes_per_trial:.0} bytes cloned/trial, {:.1}% page hit rate",
        arch_page_hit_rate * 100.0
    );

    // --- Tier-2 executor: interpreter engine vs threaded code. ------------
    // The tier-1 leg is the predecoded micro-op interpreter; the tier-2 leg
    // is the default (the kernel compiled to closure threaded code). Both
    // run the peepholed kernel. Each leg times
    // golden capture (`prepare_with`) plus its full trial sweep, and the
    // tier-2 tallies are asserted byte-identical to the from-scratch
    // interpreter reference over every trial. Swap-ECC cells dominate
    // because the original/ECC-shadow pair idiom is where superinstruction
    // fusion earns its keep.
    let tier2_cells = [
        ("matmul", Scheme::SwapEcc),
        ("hspot", Scheme::SwapEcc),
        ("kmeans", Scheme::SwapEcc),
    ];
    let tier2_trials: u64 = if fast_mode() { 400 } else { 600 };
    let tier2_seed = 0xA2C4_0006u64;
    let mut tier1_leg_s = 0.0f64;
    let mut tier2_leg_s = 0.0f64;
    let mut tier2_fused = 0usize;
    let mut tier2_removed = 0usize;
    let mut tier2_total = 0u64;
    for (name, scheme) in tier2_cells {
        let w = by_name(name).expect("workload");

        let t = Instant::now();
        let c1 =
            ArchCampaign::prepare_with(&w, scheme, tier2_seed, tier1_opts).expect("scheme applies");
        let mut tier1_tally = ArchOutcomes::default();
        for trial in 0..tier2_trials {
            tier1_tally.record(c1.run_trial_classed_salted(trial, 0).1);
        }
        let cell_tier1_s = t.elapsed().as_secs_f64();
        tier1_leg_s += cell_tier1_s;
        std::hint::black_box(&tier1_tally);

        let t = Instant::now();
        let c2 = ArchCampaign::prepare_with(&w, scheme, tier2_seed, CampaignOptions::default())
            .expect("scheme applies");
        let mut tier2_tally = ArchOutcomes::default();
        for trial in 0..tier2_trials {
            tier2_tally.record(c2.run_trial_classed_salted(trial, 0).1);
        }
        let cell_tier2_s = t.elapsed().as_secs_f64();
        tier2_leg_s += cell_tier2_s;
        tier2_fused += c2.fused_pairs();
        tier2_removed += c2.peephole_stats().removed();
        tier2_total += tier2_trials;

        let mut reference_tally = ArchOutcomes::default();
        for trial in 0..tier2_trials {
            reference_tally.record(c2.run_trial_reference_salted(trial, 0));
        }
        assert_eq!(
            tier2_tally,
            reference_tally,
            "tier-2 tallies diverge from the interpreter reference on {name}/{}",
            scheme.label()
        );
        println!(
            "  tier2 {name}/{}: tier-1 {cell_tier1_s:6.2}s, tier-2 {cell_tier2_s:6.2}s ({:.1}x, {} fused pairs)",
            scheme.label(),
            cell_tier1_s / cell_tier2_s,
            c2.fused_pairs()
        );
    }
    let tier2_speedup = tier1_leg_s / tier2_leg_s;
    println!(
        "  tier-2 executor (1 thread)        {tier1_leg_s:7.2}s -> {tier2_leg_s:7.2}s ({tier2_speedup:.1}x, {tier2_total} trials, {tier2_fused} fused pairs, {tier2_removed} peephole removals)"
    );

    // --- Report. ----------------------------------------------------------
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"sweep\": {{\n    \"parallel_memoized_s\": {sweep_s:.3},\n    \"timing_cells_walked\": {},\n    \"distinct_cells_cached\": {}\n  }},\n  \"gate_campaign\": {{\n    \"unit\": \"FxpMad32\",\n    \"inputs\": {},\n    \"reference_s\": {campaign_reference_s:.3},\n    \"pool_s\": {campaign_parallel_s:.3},\n    \"errors\": {ref_found},\n    \"attempts\": {ref_attempts}\n  }},\n  \"arch_campaign\": {{\n    \"cells\": {},\n    \"trials\": {arch_total},\n    \"reference_s\": {arch_reference_s:.3},\n    \"fast_forward_s\": {arch_tier1_s:.3},\n    \"cow_s\": {arch_cow_s:.3},\n    \"speedup\": {arch_speedup:.2},\n    \"speedup_cow\": {arch_speedup_cow:.2},\n    \"snapshots\": {arch_snapshots},\n    \"early_exit_rate\": {arch_early_rate:.3},\n    \"confined_rate\": {arch_confined_rate:.3},\n    \"bytes_cloned_per_trial\": {arch_bytes_per_trial:.1},\n    \"cow_page_hit_rate\": {arch_page_hit_rate:.4}\n  }},\n  \"tier2\": {{\n    \"cells\": {},\n    \"trials\": {tier2_total},\n    \"tier1_s\": {tier1_leg_s:.3},\n    \"tier2_s\": {tier2_leg_s:.3},\n    \"speedup\": {tier2_speedup:.2},\n    \"fused_pairs\": {tier2_fused},\n    \"peephole_removed\": {tier2_removed}\n  }}\n}}\n",
        timing_cells.len(),
        engine.cached_cells(),
        inputs.len(),
        arch_cells.len(),
        tier2_cells.len(),
    );
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("\nwrote BENCH_sweep.json");
    print!("{json}");
}
