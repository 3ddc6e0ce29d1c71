//! The production timing run must reproduce the reference run
//! (`simulate_kernel_reference`: the per-lane `Executor` and the original
//! replay) on every cell the timing figures walk: every suite workload
//! under Baseline and the Fig. 12, Fig. 15 and Fig. 16 schemes.
//! `KernelTiming` carries the cycle counts and every resource-pressure
//! statistic, so equality is cycle-for-cycle. The functional pass under it,
//! the campaign engine's `traced_pass`, must also record the `Executor`'s
//! traces entry for entry on the CTAs the sweep runs.
//!
//! `SWAPCODES_FAST=1` runs a fixed subset: Baseline, Swap-ECC and checked
//! inter-thread duplication on the barrier kernels plus matmul and lavaMD.
//! Run the whole matrix in release with
//! `cargo test --release -p swapcodes-bench --test timing_matches_reference`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use swapcodes_bench::{fast_mode, PROFILE_CTAS};
use swapcodes_core::{apply, Scheme, Transformed};
use swapcodes_sim::exec::{ExecConfig, Executor};
use swapcodes_sim::occupancy::occupancy;
use swapcodes_sim::timing::{simulate_kernel, simulate_kernel_reference, TimingConfig};
use swapcodes_sim::traced_pass;
use swapcodes_workloads::{all, Workload};

/// Cells of the figures' matrix to which their scheme applies.
const FIGURE_CELLS: usize = 146;
/// Cells of the `SWAPCODES_FAST` subset to which their scheme applies.
const FAST_CELLS: usize = 20;

/// Baseline plus every scheme of Figs. 12, 15 and 16, without repeats.
fn figure_timing_schemes() -> Vec<Scheme> {
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

fn cells(workloads: &[Workload]) -> Vec<(&Workload, Scheme)> {
    if fast_mode() {
        let names = [
            "bprop", "hspot", "lud", "needle", "pathf", "matmul", "lavaMD",
        ];
        let schemes = [
            Scheme::Baseline,
            Scheme::SwapEcc,
            Scheme::InterThread { checked: true },
        ];
        workloads
            .iter()
            .filter(|w| names.contains(&w.name))
            .flat_map(|w| schemes.into_iter().map(move |s| (w, s)))
            .collect()
    } else {
        let schemes = figure_timing_schemes();
        workloads
            .iter()
            .flat_map(|w| schemes.iter().map(move |&s| (w, s)))
            .collect()
    }
}

/// Run `check` on the transformed kernel of every applicable cell of the
/// matrix on a few threads, and assert that it reported no mismatch and
/// that the matrix kept its size. `check` returns `None` when the cell's
/// two sides agree.
fn for_each_cell(what: &str, check: impl Fn(&Workload, &Transformed) -> Option<String> + Sync) {
    let workloads = all();
    let cells = cells(&workloads);
    let next = AtomicUsize::new(0);
    let compared = AtomicUsize::new(0);
    let mismatches = Mutex::new(Vec::new());
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(&(w, s)) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let Ok(t) = apply(s, &w.kernel, w.launch) else {
                        continue;
                    };
                    compared.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = check(w, &t) {
                        let cell = format!("{} / {}: {m}", w.name, s.label());
                        mismatches.lock().unwrap().push(cell);
                    }
                }
            });
        }
    });
    let mismatches = mismatches.into_inner().unwrap();
    assert!(
        mismatches.is_empty(),
        "{what} differs from the reference:\n{}",
        mismatches.join("\n")
    );
    let expected = if fast_mode() {
        FAST_CELLS
    } else {
        FIGURE_CELLS
    };
    assert_eq!(
        compared.into_inner(),
        expected,
        "the compared timing matrix changed size"
    );
}

#[test]
fn production_replay_equals_reference_on_figure_cells() {
    let cfg = TimingConfig::default();
    for_each_cell("the timing run", |w, t| {
        let fast = simulate_kernel(&t.kernel, t.launch, &mut w.build_memory(), &cfg);
        let reference = simulate_kernel_reference(&t.kernel, t.launch, &mut w.build_memory(), &cfg);
        let fast = fast.expect("production replay");
        let reference = reference.expect("reference replay");
        (fast != reference).then(|| format!("{fast:?} != {reference:?}"))
    });
}

/// The sweep's pass (`run_cell`) runs the occupancy wave or the first
/// `PROFILE_CTAS` CTAs, whichever is more: both engines run that many, and
/// every warp trace (CTA, warp, and each entry's kernel index, exec mask
/// and memory transactions), the dynamic-instruction count and the final
/// memory must be equal.
#[test]
fn engine_traces_equal_executor_traces_on_figure_cells() {
    let cfg = TimingConfig::default();
    for_each_cell("the engine's traced pass", |w, t| {
        let (kernel, launch) = (&t.kernel, t.launch);
        let regs = kernel.register_count().max(1);
        let occ = occupancy(&cfg.gpu, regs, launch.threads_per_cta, launch.shared_words);
        let ctas = occ.ctas.min(launch.ctas).max(PROFILE_CTAS.min(launch.ctas));
        let exec = Executor {
            config: ExecConfig {
                collect_trace: true,
                cta_limit: Some(ctas),
                ..ExecConfig::default()
            },
        };
        let mut ref_mem = w.build_memory();
        let reference = exec.run(kernel, launch, &mut ref_mem).expect("executor");
        let mut mem = w.build_memory();
        let max_dynamic = ExecConfig::default().max_dynamic;
        let pass = traced_pass(kernel, launch, &mut mem, ctas, max_dynamic).expect("pass");
        if pass.dynamic_instructions != reference.dynamic_instructions {
            return Some(format!(
                "{} != {} dynamic instructions",
                pass.dynamic_instructions, reference.dynamic_instructions
            ));
        }
        if pass.traces.len() != reference.traces.len() {
            return Some(format!(
                "{} != {} warp traces",
                pass.traces.len(),
                reference.traces.len()
            ));
        }
        if let Some((p, r)) = pass
            .traces
            .iter()
            .zip(&reference.traces)
            .find(|(p, r)| p != r)
        {
            let at = p.entries.iter().zip(&r.entries).position(|(a, b)| a != b);
            return Some(format!(
                "CTA {} warp {} vs CTA {} warp {}: {} vs {} entries, first difference at {at:?}",
                p.cta,
                p.warp,
                r.cta,
                r.warp,
                p.entries.len(),
                r.entries.len()
            ));
        }
        (mem.words() != ref_mem.words()).then(|| "final memory differs".to_string())
    });
}
