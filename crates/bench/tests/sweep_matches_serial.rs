//! The one-pass sweep must be invisible in the results: every view of a
//! (workload × scheme) cell computed through [`SweepEngine`] must equal its
//! serial reference exactly, for any worker count. Timings equal the
//! wave-only `measure`, profiles equal `profile`'s own run of the first
//! `PROFILE_CTAS` CTAs, and power estimates equal `estimate` over
//! `traces_for`, bit for bit.
//!
//! The matrix is every cell the timing figures walk: each suite workload
//! under Baseline and the Fig. 12, 15 and 16 schemes. It includes the
//! matmul cells, whose wave is smaller than `PROFILE_CTAS`, so their pass
//! runs past the wave.

use std::sync::OnceLock;

use swapcodes_bench::{measure, profile, traces_for, SweepEngine};
use swapcodes_core::{apply, PredictorSet, Scheme};
use swapcodes_sim::power::{estimate, PowerEstimate, PowerModel};
use swapcodes_workloads::{all, by_name, Workload};

/// Cells of the figures' timing matrix to which their scheme applies.
const FIGURE_CELLS: usize = 146;

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

/// One engine with the default worker count, prewarmed over the whole
/// timing matrix, shared by the matrix tests.
fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let engine = SweepEngine::new();
        engine.prewarm(&all(), &figure_timing_schemes());
        engine
    })
}

fn bits(p: &PowerEstimate) -> (u64, u64) {
    (p.power_w.to_bits(), p.energy_uj.to_bits())
}

#[test]
fn parallel_timings_equal_serial_measure() {
    let engine = engine();
    let mut applicable = 0;
    for w in &all() {
        for s in figure_timing_schemes() {
            let serial = measure(w, s);
            applicable += usize::from(serial.is_value());
            assert_eq!(
                engine.timing(w, s),
                serial,
                "timing mismatch for {} / {}",
                w.name,
                s.label()
            );
        }
    }
    assert_eq!(applicable, FIGURE_CELLS, "the timing matrix changed size");
    assert!(engine.failures().is_empty());
}

#[test]
fn parallel_profiles_equal_serial_profile() {
    let engine = engine();
    let mut applicable = 0;
    for w in &all() {
        for s in figure_timing_schemes() {
            let serial = profile(w, s);
            applicable += usize::from(serial.is_value());
            assert_eq!(
                engine.profile(w, s),
                serial,
                "profile mismatch for {} / {}",
                w.name,
                s.label()
            );
        }
    }
    assert_eq!(applicable, FIGURE_CELLS, "the profile matrix changed size");
}

#[test]
fn parallel_power_equals_estimate_over_traces_for() {
    let engine = engine();
    // Fig. 14's eight cells, plus every applicable matmul cell (a wave
    // smaller than the pass).
    let mut cells: Vec<(Workload, Scheme)> = Vec::new();
    for name in ["snap", "lavaMD"] {
        for s in [
            Scheme::Baseline,
            Scheme::SwDup,
            Scheme::SwapEcc,
            Scheme::SwapPredict(PredictorSet::MAD),
        ] {
            cells.push((by_name(name).expect("workload"), s));
        }
    }
    for s in figure_timing_schemes() {
        let matmul = by_name("matmul").expect("workload");
        if apply(s, &matmul.kernel, matmul.launch).is_ok() {
            cells.push((matmul, s));
        }
    }
    assert_eq!(cells.len(), 16, "8 Fig. 14 cells and 8 matmul cells");

    for (w, s) in &cells {
        let t = apply(*s, &w.kernel, w.launch).expect("scheme applies");
        let timing = measure(w, *s).value().copied().expect("timing");
        let traces = traces_for(w, *s, &timing);
        let traces = traces.value().expect("traces");
        let serial = estimate(&PowerModel::default(), &t.kernel, traces, &timing);
        let power = engine.power(w, *s);
        let parallel = power.value().expect("power");
        assert_eq!(
            bits(parallel),
            bits(&serial),
            "power mismatch for {} / {}: {parallel:?} != {serial:?}",
            w.name,
            s.label()
        );
    }
}

#[test]
fn worker_count_does_not_change_results() {
    // Inter-thread schemes include inapplicable (None) cells, exercising the
    // miss-memoization path under contention too.
    let workloads = all();
    let schemes = [
        Scheme::Baseline,
        Scheme::SwDup,
        Scheme::InterThread { checked: true },
    ];
    let serial = SweepEngine::with_threads(1);
    serial.prewarm(&workloads, &schemes);
    for threads in [2, 8] {
        let parallel = SweepEngine::with_threads(threads);
        parallel.prewarm(&workloads, &schemes);
        for w in &workloads {
            for &s in &schemes {
                let what = format!("{} / {} with 1 and {threads} workers", w.name, s.label());
                assert_eq!(serial.timing(w, s), parallel.timing(w, s), "{what}");
                assert_eq!(serial.profile(w, s), parallel.profile(w, s), "{what}");
                assert_eq!(
                    serial.power(w, s).map(|p| bits(&p)),
                    parallel.power(w, s).map(|p| bits(&p)),
                    "{what}"
                );
            }
        }
    }
}
