//! Parallel, memoized (workload × scheme) sweep engine.
//!
//! Every figure bench in this crate walks some slice of the same matrix:
//! each workload transformed under each protection scheme, then timed
//! ([`KernelTiming`], Figs. 12, 15 and 16), profiled ([`ProfileCounts`],
//! Fig. 13) and power-estimated ([`PowerEstimate`], Fig. 14) on the
//! simulator. Run standalone, the five benches would repeat those
//! simulations — every one re-times `Baseline` for every workload, fig12
//! and fig16 share four schemes, and Figs. 13–14 read the very runs fig12
//! times.
//!
//! [`SweepEngine`] runs one traced pass per cell (`run_cell`), folds it
//! into the cell's timing, profile and power, drops the traces, and caches
//! the result behind a [`std::sync::RwLock`] keyed by `(workload name,
//! scheme)`. [`SweepEngine::timing`], [`SweepEngine::profile`] and
//! [`SweepEngine::power`] are views of that one cache. Batch requests fan
//! over a pool of [`std::thread::scope`] workers with a work-stealing index
//! counter. All simulations are deterministic pure functions of
//! `(workload, scheme)`, so cell values are identical no matter which
//! thread computes them or in what order — each view equals its serial
//! reference (`measure`, `profile`, or `estimate` over `traces_for`) for any
//! `SWAPCODES_THREADS` setting (a property locked in by
//! `tests/sweep_matches_serial.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use swapcodes_core::Scheme;
use swapcodes_inject::{contain, default_thread_count};
use swapcodes_sim::power::PowerEstimate;
use swapcodes_sim::profiler::ProfileCounts;
use swapcodes_sim::timing::KernelTiming;
use swapcodes_workloads::Workload;

use crate::{run_cell, Cell, CellRun};

/// Cache key: workload names are `&'static str` interned in the workload
/// table, so the key is `Copy` and hashing never touches the kernel body.
type Key = (&'static str, Scheme);

/// Shared access to the cache. A poisoned lock is recovered, not
/// propagated: every write inserts one finished cell, so the map is valid at
/// every step.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to the cache, recovering a poisoned lock like [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One failed cell of a sweep, as surfaced by [`SweepEngine::failures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// Workload name.
    pub workload: &'static str,
    /// The scheme of the failed cell.
    pub scheme: Scheme,
    /// Why the cell failed.
    pub reason: String,
}

/// Shared sweep cache. Cheap to clone conceptually (hold it behind a `&` or
/// `Arc`); all interior mutability is lock-guarded.
///
/// Every cell computation runs inside [`contain`], so a panicking or
/// structurally failing cell is recorded as [`Cell::Failed`] — and skipped
/// by the figure reports — while the rest of the matrix completes.
#[derive(Debug, Default)]
pub struct SweepEngine {
    cells: RwLock<HashMap<Key, Arc<Cell<CellRun>>>>,
    threads: Option<usize>,
}

impl SweepEngine {
    /// Engine with the default worker count (`SWAPCODES_THREADS`, else
    /// available parallelism).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit worker count (tests pin this to compare
    /// scheduling-independent results).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
            ..Self::default()
        }
    }

    fn worker_count(&self, tasks: usize) -> usize {
        self.threads
            .unwrap_or_else(default_thread_count)
            .clamp(1, tasks.max(1))
    }

    /// The cached pass of one cell; `NotApplicable` when the scheme does
    /// not apply to the workload, `Failed` when the simulation errored or
    /// panicked. Computes and caches on miss.
    fn pass(&self, w: &Workload, scheme: Scheme) -> Arc<Cell<CellRun>> {
        if let Some(hit) = read(&self.cells).get(&(w.name, scheme)) {
            return Arc::clone(hit);
        }
        let value = Arc::new(contain(1, |_| run_cell(w, scheme)).unwrap_or_else(Cell::Failed));
        Arc::clone(write(&self.cells).entry((w.name, scheme)).or_insert(value))
    }

    /// Timing of one cell (Figs. 12, 15 and 16).
    pub fn timing(&self, w: &Workload, scheme: Scheme) -> Cell<KernelTiming> {
        Cell::clone(&self.pass(w, scheme)).map(|run| run.timing)
    }

    /// Dynamic-instruction profile of one cell's first
    /// [`crate::PROFILE_CTAS`] CTAs (Fig. 13).
    pub fn profile(&self, w: &Workload, scheme: Scheme) -> Cell<ProfileCounts> {
        Cell::clone(&self.pass(w, scheme)).map(|run| run.profile)
    }

    /// Power estimate of one cell's occupancy wave under the default power
    /// model (Fig. 14).
    pub fn power(&self, w: &Workload, scheme: Scheme) -> Cell<PowerEstimate> {
        Cell::clone(&self.pass(w, scheme)).map(|run| run.power)
    }

    /// Run the passes of the full `workloads × schemes` matrix in parallel.
    /// Subsequent views of those cells are pure cache reads; cells already
    /// cached are skipped, so repeated prewarms (e.g. the fig16 sweep after
    /// fig12 already ran) only pay for the new cells.
    pub fn prewarm(&self, workloads: &[Workload], schemes: &[Scheme]) {
        let tasks: Vec<(&Workload, Scheme)> = {
            let cells = read(&self.cells);
            pairs(workloads, schemes)
                .filter(|&(w, s)| !cells.contains_key(&(w.name, s)))
                .collect()
        };
        if tasks.is_empty() {
            return;
        }
        let workers = self.worker_count(tasks.len());
        if workers == 1 {
            for &(w, s) in &tasks {
                self.pass(w, s);
            }
            return;
        }
        // Work-stealing over a shared index: workers grab the next
        // unclaimed cell, so a slow cell (snap under SwDup) never idles the
        // rest of the pool behind a static chunk boundary.
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(w, s)) = tasks.get(i) else { break };
                    self.pass(w, s);
                });
            }
        });
    }

    /// Number of cached cells: one per pass run, plus the inapplicable
    /// cells (test and reporting hook).
    #[must_use]
    pub fn cached_cells(&self) -> usize {
        read(&self.cells).len()
    }

    /// Every failed cell, sorted by `(workload, scheme)` so the summary is
    /// deterministic no matter which worker hit the failure. A failed pass
    /// fails every view of its cell and is reported once.
    #[must_use]
    pub fn failures(&self) -> Vec<SweepFailure> {
        let mut out: Vec<SweepFailure> = read(&self.cells)
            .iter()
            .filter_map(|(&(workload, scheme), cell)| {
                cell.failure().map(|reason| SweepFailure {
                    workload,
                    scheme,
                    reason: reason.to_owned(),
                })
            })
            .collect();
        out.sort_by(|a, b| (a.workload, a.scheme.label()).cmp(&(b.workload, b.scheme.label())));
        out
    }

    /// Print the failed cells (if any) after a sweep, so a degraded matrix
    /// is visible in the report rather than silently shorter.
    pub fn print_failure_summary(&self) {
        let failures = self.failures();
        if failures.is_empty() {
            return;
        }
        println!(
            "\n  {} sweep cell(s) FAILED and were skipped:",
            failures.len()
        );
        for f in &failures {
            println!("    {} x {}: {}", f.workload, f.scheme.label(), f.reason);
        }
    }
}

fn pairs<'a>(
    workloads: &'a [Workload],
    schemes: &'a [Scheme],
) -> impl Iterator<Item = (&'a Workload, Scheme)> + 'a {
    workloads
        .iter()
        .flat_map(move |w| schemes.iter().map(move |&s| (w, s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_workloads::all;

    #[test]
    fn cache_hit_returns_same_arc() {
        let engine = SweepEngine::with_threads(2);
        let ws = all();
        let a = engine.pass(&ws[0], Scheme::Baseline);
        assert!(engine.timing(&ws[0], Scheme::Baseline).is_value());
        assert!(engine.profile(&ws[0], Scheme::Baseline).is_value());
        assert!(engine.power(&ws[0], Scheme::Baseline).is_value());
        let b = engine.pass(&ws[0], Scheme::Baseline);
        assert!(Arc::ptr_eq(&a, &b), "every view must be a cache hit");
        assert_eq!(engine.cached_cells(), 1);
    }

    #[test]
    fn prewarm_skips_cached_cells() {
        let engine = SweepEngine::with_threads(4);
        let ws: Vec<Workload> = all().into_iter().take(3).collect();
        let schemes = [Scheme::Baseline, Scheme::SwDup];
        engine.prewarm(&ws, &schemes);
        assert_eq!(engine.cached_cells(), ws.len() * schemes.len());
        let before = engine.pass(&ws[0], Scheme::Baseline);
        engine.prewarm(&ws, &schemes);
        let after = engine.pass(&ws[0], Scheme::Baseline);
        assert!(Arc::ptr_eq(&before, &after), "prewarm must not recompute");
    }

    #[test]
    fn inapplicable_scheme_is_cached_as_not_applicable() {
        let engine = SweepEngine::new();
        // matmul is not inter-thread transformable (paper §VII).
        let w = swapcodes_workloads::by_name("matmul").expect("workload");
        let scheme = Scheme::InterThread { checked: true };
        let t = engine.pass(&w, scheme);
        assert!(t.is_not_applicable());
        assert!(engine.timing(&w, scheme).is_not_applicable());
        assert!(engine.profile(&w, scheme).is_not_applicable());
        assert!(engine.power(&w, scheme).is_not_applicable());
        // The miss itself is memoized.
        assert!(Arc::ptr_eq(&t, &engine.pass(&w, scheme)));
        assert!(
            engine.failures().is_empty(),
            "inapplicable is not a failure"
        );
    }

    #[test]
    fn failed_cell_degrades_gracefully_and_is_surfaced() {
        let engine = SweepEngine::with_threads(2);
        let mut bad = swapcodes_workloads::by_name("bfs").expect("workload");
        bad.name = "bfs-poisoned";
        // Poison the input initialiser: the cell computation panics, which
        // containment must turn into a Failed cell, not a dead worker pool.
        bad.init = |_| panic!("poisoned initialiser");
        let good = swapcodes_workloads::by_name("matmul").expect("workload");

        let ws = vec![good, bad];
        engine.prewarm(&ws, &[Scheme::Baseline, Scheme::SwapEcc]);

        // The healthy workload's cells completed...
        assert!(engine.timing(&ws[0], Scheme::Baseline).is_value());
        assert!(engine.timing(&ws[0], Scheme::SwapEcc).is_value());
        // ...the poisoned one is marked failed (and memoized as such)...
        let t = engine.pass(&ws[1], Scheme::Baseline);
        assert!(t.is_failed());
        assert!(Arc::ptr_eq(&t, &engine.pass(&ws[1], Scheme::Baseline)));
        // ...and the failure is surfaced in the summary.
        let failures = engine.failures();
        assert_eq!(failures.len(), 2, "both poisoned cells: {failures:?}");
        assert!(failures.iter().all(|f| f.workload == "bfs-poisoned"));
        assert!(failures[0].reason.contains("poisoned initialiser"));
    }

    #[test]
    fn failed_pass_fails_every_view_and_is_reported_once() {
        let engine = SweepEngine::with_threads(1);
        let mut bad = swapcodes_workloads::by_name("bfs").expect("workload");
        bad.name = "bfs-poisoned-views";
        bad.init = |_| panic!("poisoned initialiser");
        assert!(engine.timing(&bad, Scheme::Baseline).is_failed());
        assert!(engine.profile(&bad, Scheme::Baseline).is_failed());
        assert!(engine.power(&bad, Scheme::Baseline).is_failed());
        assert_eq!(engine.cached_cells(), 1, "one pass serves every view");
        let failures = engine.failures();
        assert_eq!(failures.len(), 1, "one failed pass: {failures:?}");
        assert!(failures[0].reason.contains("poisoned initialiser"));
    }
}
