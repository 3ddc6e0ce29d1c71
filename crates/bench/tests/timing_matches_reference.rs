//! The production cycle replay must reproduce the reference replay
//! (`simulate_kernel_reference`) on every cell the timing figures walk:
//! every suite workload under Baseline and the Fig. 12, Fig. 15 and
//! Fig. 16 schemes. `KernelTiming` carries the cycle counts and every
//! resource-pressure statistic, so equality is cycle-for-cycle.
//!
//! `SWAPCODES_FAST=1` runs a fixed subset: Baseline, Swap-ECC and checked
//! inter-thread duplication on the barrier kernels plus matmul and lavaMD.
//! Run the whole matrix in release with
//! `cargo test --release -p swapcodes-bench --test timing_matches_reference`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use swapcodes_bench::fast_mode;
use swapcodes_core::{apply, Scheme};
use swapcodes_sim::timing::{simulate_kernel, simulate_kernel_reference, TimingConfig};
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

#[test]
fn production_replay_equals_reference_on_figure_cells() {
    let workloads = all();
    let cells = cells(&workloads);
    let cfg = TimingConfig::default();
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
                    let fast = simulate_kernel(&t.kernel, t.launch, &mut w.build_memory(), &cfg);
                    let reference =
                        simulate_kernel_reference(&t.kernel, t.launch, &mut w.build_memory(), &cfg);
                    let fast = fast.expect("production replay");
                    let reference = reference.expect("reference replay");
                    compared.fetch_add(1, Ordering::Relaxed);
                    if fast != reference {
                        mismatches.lock().unwrap().push(format!(
                            "{} / {}: {fast:?} != {reference:?}",
                            w.name,
                            s.label()
                        ));
                    }
                }
            });
        }
    });
    let mismatches = mismatches.into_inner().unwrap();
    assert!(
        mismatches.is_empty(),
        "replay differs from the reference:\n{}",
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
