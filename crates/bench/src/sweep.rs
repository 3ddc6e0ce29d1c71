//! Parallel, memoized (workload × scheme) sweep engine.
//!
//! Every figure bench in this crate walks some slice of the same matrix:
//! each workload transformed under each protection scheme, then timed
//! ([`KernelTiming`]), profiled ([`ProfileCounts`]) or traced
//! (`WarpTrace`) on the simulator. Run standalone, the five benches
//! quintuplicate those simulations — every one re-times `Baseline` for every
//! workload, fig12 and fig16 share four schemes, and so on.
//!
//! [`SweepEngine`] computes each cell of the matrix exactly once, caches it
//! behind a [`std::sync::RwLock`] keyed by `(workload name, scheme)`, and
//! fans batch requests over a pool of [`std::thread::scope`] workers with a
//! work-stealing index counter. All simulations are deterministic pure
//! functions of `(workload, scheme)`, so cell values are identical no matter
//! which thread computes them or in what order — results are byte-identical
//! to the serial `measure`/`profile`/`traces_and_timing` paths for any
//! `SWAPCODES_THREADS` setting (a property locked in by
//! `tests/sweep_matches_serial.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use swapcodes_core::Scheme;
use swapcodes_inject::{contain, default_thread_count};
use swapcodes_sim::profiler::ProfileCounts;
use swapcodes_sim::timing::KernelTiming;
use swapcodes_workloads::Workload;

use crate::{measure, profile, Cell, TracesAndTiming};

/// Cache key: workload names are `&'static str` interned in the workload
/// table, so the key is `Copy` and hashing never touches the kernel body.
type Key = (&'static str, Scheme);

/// Shared access to a cache. A poisoned lock is recovered, not propagated:
/// every write inserts one finished cell, so the map is valid at every step.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to a cache, recovering a poisoned lock like [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Which artefact of a matrix cell a prewarm request should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Artefact {
    Timing,
    Profile,
    Traces,
}

/// One failed cell of a sweep, as surfaced by [`SweepEngine::failures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// Workload name.
    pub workload: &'static str,
    /// The scheme of the failed cell.
    pub scheme: Scheme,
    /// Which artefact failed (`"timing"`, `"profile"` or `"traces"`).
    pub artefact: &'static str,
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
    timings: RwLock<HashMap<Key, Arc<Cell<KernelTiming>>>>,
    profiles: RwLock<HashMap<Key, Arc<Cell<ProfileCounts>>>>,
    traces: RwLock<HashMap<Key, Arc<Cell<TracesAndTiming>>>>,
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

    /// Timing for one cell; `NotApplicable` when the scheme does not apply
    /// to the workload, `Failed` when the simulation errored or panicked.
    /// Computes and caches on miss.
    pub fn timing(&self, w: &Workload, scheme: Scheme) -> Arc<Cell<KernelTiming>> {
        if let Some(hit) = read(&self.timings).get(&(w.name, scheme)) {
            return Arc::clone(hit);
        }
        let value = Arc::new(contain(1, |_| measure(w, scheme)).unwrap_or_else(Cell::Failed));
        Arc::clone(
            write(&self.timings)
                .entry((w.name, scheme))
                .or_insert(value),
        )
    }

    /// Dynamic-instruction profile for one cell; cached on miss.
    pub fn profile(&self, w: &Workload, scheme: Scheme) -> Arc<Cell<ProfileCounts>> {
        if let Some(hit) = read(&self.profiles).get(&(w.name, scheme)) {
            return Arc::clone(hit);
        }
        let value = Arc::new(contain(1, |_| profile(w, scheme)).unwrap_or_else(Cell::Failed));
        Arc::clone(
            write(&self.profiles)
                .entry((w.name, scheme))
                .or_insert(value),
        )
    }

    /// Warp traces + timing for one cell (power estimation); cached on
    /// miss. The timing half comes through the timing cache, so a traces
    /// cell whose timing was already swept costs only the traced execution.
    pub fn traces_and_timing(&self, w: &Workload, scheme: Scheme) -> Arc<Cell<TracesAndTiming>> {
        if let Some(hit) = read(&self.traces).get(&(w.name, scheme)) {
            return Arc::clone(hit);
        }
        let value = Arc::new(match &*self.timing(w, scheme) {
            Cell::Value(timing) => {
                let timing = *timing;
                contain(1, |_| crate::traces_for(w, scheme, &timing))
                    .unwrap_or_else(Cell::Failed)
                    .map(|traces| (traces, timing))
            }
            Cell::NotApplicable => Cell::NotApplicable,
            Cell::Failed(why) => Cell::Failed(why.clone()),
        });
        Arc::clone(write(&self.traces).entry((w.name, scheme)).or_insert(value))
    }

    /// Fill the timing cache for the full `workloads × schemes` matrix in
    /// parallel. Subsequent [`Self::timing`] calls for those cells are pure
    /// cache reads.
    pub fn prewarm_timings(&self, workloads: &[Workload], schemes: &[Scheme]) {
        self.prewarm(workloads, schemes, Artefact::Timing);
    }

    /// Fill the profile cache for the full matrix in parallel.
    pub fn prewarm_profiles(&self, workloads: &[Workload], schemes: &[Scheme]) {
        self.prewarm(workloads, schemes, Artefact::Profile);
    }

    /// Fill the traces cache for the full matrix in parallel.
    pub fn prewarm_traces(&self, workloads: &[Workload], schemes: &[Scheme]) {
        self.prewarm(workloads, schemes, Artefact::Traces);
    }

    /// Number of cached cells across all three artefact caches (test and
    /// reporting hook).
    #[must_use]
    pub fn cached_cells(&self) -> usize {
        read(&self.timings).len() + read(&self.profiles).len() + read(&self.traces).len()
    }

    /// Every failed cell across all three artefact caches, sorted by
    /// `(workload, artefact, scheme)` so the summary is deterministic no
    /// matter which worker hit the failure.
    #[must_use]
    pub fn failures(&self) -> Vec<SweepFailure> {
        fn collect<T>(
            map: &RwLock<HashMap<Key, Arc<Cell<T>>>>,
            artefact: &'static str,
            out: &mut Vec<SweepFailure>,
        ) {
            for ((workload, scheme), cell) in read(map).iter() {
                if let Some(reason) = cell.failure() {
                    out.push(SweepFailure {
                        workload,
                        scheme: *scheme,
                        artefact,
                        reason: reason.to_owned(),
                    });
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.timings, "timing", &mut out);
        collect(&self.profiles, "profile", &mut out);
        collect(&self.traces, "traces", &mut out);
        out.sort_by(|a, b| {
            (a.workload, a.artefact, a.scheme.label()).cmp(&(
                b.workload,
                b.artefact,
                b.scheme.label(),
            ))
        });
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
            println!(
                "    {} x {} [{}]: {}",
                f.workload,
                f.scheme.label(),
                f.artefact,
                f.reason
            );
        }
    }

    fn prewarm(&self, workloads: &[Workload], schemes: &[Scheme], what: Artefact) {
        // Skip cells that are already cached so repeated prewarms (e.g. the
        // fig16 sweep after fig12 already ran) only pay for the new cells.
        let tasks: Vec<(&Workload, Scheme)> = pairs(workloads, schemes)
            .filter(|&(w, s)| !self.is_cached((w.name, s), what))
            .collect();
        self.run_pool(&tasks, what);
    }

    fn is_cached(&self, key: Key, what: Artefact) -> bool {
        match what {
            Artefact::Timing => read(&self.timings).contains_key(&key),
            Artefact::Profile => read(&self.profiles).contains_key(&key),
            Artefact::Traces => read(&self.traces).contains_key(&key),
        }
    }

    fn run_pool(&self, tasks: &[(&Workload, Scheme)], what: Artefact) {
        if tasks.is_empty() {
            return;
        }
        let workers = self.worker_count(tasks.len());
        if workers == 1 {
            for &(w, s) in tasks {
                self.compute_into_cache(w, s, what);
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
                    self.compute_into_cache(w, s, what);
                });
            }
        });
    }

    fn compute_into_cache(&self, w: &Workload, s: Scheme, what: Artefact) {
        match what {
            Artefact::Timing => {
                let _ = self.timing(w, s);
            }
            Artefact::Profile => {
                let _ = self.profile(w, s);
            }
            Artefact::Traces => {
                let _ = self.traces_and_timing(w, s);
            }
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
        let a = engine.timing(&ws[0], Scheme::Baseline);
        let b = engine.timing(&ws[0], Scheme::Baseline);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        assert_eq!(engine.cached_cells(), 1);
    }

    #[test]
    fn prewarm_skips_cached_cells() {
        let engine = SweepEngine::with_threads(4);
        let ws: Vec<Workload> = all().into_iter().take(3).collect();
        let schemes = [Scheme::Baseline, Scheme::SwDup];
        engine.prewarm_timings(&ws, &schemes);
        assert_eq!(engine.cached_cells(), ws.len() * schemes.len());
        let before = engine.timing(&ws[0], Scheme::Baseline);
        engine.prewarm_timings(&ws, &schemes);
        let after = engine.timing(&ws[0], Scheme::Baseline);
        assert!(Arc::ptr_eq(&before, &after), "prewarm must not recompute");
    }

    #[test]
    fn inapplicable_scheme_is_cached_as_not_applicable() {
        let engine = SweepEngine::new();
        // matmul is not inter-thread transformable (paper §VII).
        let w = swapcodes_workloads::by_name("matmul").expect("workload");
        let t = engine.timing(&w, Scheme::InterThread { checked: true });
        assert!(t.is_not_applicable());
        // The miss itself is memoized.
        let again = engine.timing(&w, Scheme::InterThread { checked: true });
        assert!(Arc::ptr_eq(&t, &again));
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
        engine.prewarm_timings(&ws, &[Scheme::Baseline, Scheme::SwapEcc]);

        // The healthy workload's cells completed...
        assert!(engine.timing(&ws[0], Scheme::Baseline).is_value());
        assert!(engine.timing(&ws[0], Scheme::SwapEcc).is_value());
        // ...the poisoned one is marked failed (and memoized as such)...
        let t = engine.timing(&ws[1], Scheme::Baseline);
        assert!(t.is_failed());
        assert!(Arc::ptr_eq(&t, &engine.timing(&ws[1], Scheme::Baseline)));
        // ...and the failure is surfaced in the summary.
        let failures = engine.failures();
        assert_eq!(failures.len(), 2, "both poisoned cells: {failures:?}");
        assert!(failures.iter().all(|f| f.workload == "bfs-poisoned"));
        assert!(failures[0].reason.contains("poisoned initialiser"));
    }

    #[test]
    fn traces_inherit_timing_failure() {
        let engine = SweepEngine::with_threads(1);
        let mut bad = swapcodes_workloads::by_name("bfs").expect("workload");
        bad.name = "bfs-poisoned-traces";
        bad.init = |_| panic!("poisoned initialiser");
        let cell = engine.traces_and_timing(&bad, Scheme::Baseline);
        assert!(cell.is_failed());
    }
}
