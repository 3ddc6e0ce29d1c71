//! Criterion micro-benchmarks for the core primitives: code encode/decode
//! throughput, residue MAD prediction, gate-level netlist evaluation,
//! compiler pass throughput, and the timing simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use swapcodes_core::{apply, Scheme};
use swapcodes_ecc::{CodeKind, HsiaoSecDed, ResidueCode, ResidueMadPredictor, SystematicCode};
use swapcodes_gates::units::fxp_add32;
use swapcodes_gates::{transpose64, EvalScratch, NodeId};
use swapcodes_sim::timing::{simulate_kernel, TimingConfig};
use swapcodes_workloads::by_name;

fn bench_codes(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecc");
    let secded = HsiaoSecDed::new();
    g.bench_function("secded_encode", |b| {
        let mut x = 0u32;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(secded.encode(black_box(x)))
        });
    });
    g.bench_function("secded_decode_clean", |b| {
        let check = secded.encode(0xDEAD_BEEF);
        b.iter(|| black_box(secded.decode(black_box(0xDEAD_BEEF), black_box(check))));
    });
    for kind in [CodeKind::Residue { a: 2 }, CodeKind::Residue { a: 7 }] {
        let code = kind.build();
        g.bench_function(format!("{}_encode", kind.label()), |b| {
            let mut x = 0u32;
            b.iter(|| {
                x = x.wrapping_add(0x0123_4567);
                black_box(code.encode(black_box(x)))
            });
        });
    }
    let pred = ResidueMadPredictor::new(ResidueCode::new(7));
    g.bench_function("mod127_mad_predict", |b| {
        let code = ResidueCode::new(7);
        let (x, y) = (code.of_u32(123_456), code.of_u32(789_012));
        let (hi, lo) = (code.of_u32(0xAA55), code.of_u32(0x55AA));
        b.iter(|| black_box(pred.predict_wrapped(x, y, hi, lo, false)));
    });
    g.finish();
}

fn bench_gates(c: &mut Criterion) {
    let mut g = c.benchmark_group("gates");
    let unit = fxp_add32();
    g.bench_function("fxp_add32_eval", |b| {
        b.iter(|| black_box(unit.netlist().evaluate(black_box(&[123, 456]))));
    });
    // One packed pass: 64 lanes, each with its own operands and one flip.
    let nodes = unit.netlist().injectable_nodes();
    let flips: Vec<(NodeId, u64)> = (0..64).map(|lane| (nodes[lane * 7], 1 << lane)).collect();
    let planes: Vec<[u64; 64]> = (0..2)
        .map(|word| {
            let mut rows = std::array::from_fn(|lane| (lane as u64 + 1) * (123 + 333 * word));
            transpose64(&mut rows);
            rows
        })
        .collect();
    let mut scratch = EvalScratch::new();
    let mut out = [[0u64; 64]];
    g.bench_function("fxp_add32_lanes64_inject", |b| {
        b.iter(|| {
            unit.netlist()
                .evaluate_lanes(black_box(&planes), &flips, &mut scratch, &mut out);
            black_box(out[0][63])
        });
    });
    g.finish();
}

fn bench_compiler_and_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("system");
    g.sample_size(10);
    let w = by_name("bfs").expect("bfs");
    g.bench_function("swapecc_transform_bfs", |b| {
        b.iter(|| black_box(apply(Scheme::SwapEcc, &w.kernel, w.launch).expect("applies")));
    });
    g.bench_function("simulate_bfs_baseline", |b| {
        let cfg = TimingConfig::default();
        b.iter(|| {
            let mut mem = w.build_memory();
            black_box(simulate_kernel(&w.kernel, w.launch, &mut mem, &cfg))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_codes, bench_gates, bench_compiler_and_sim);
criterion_main!(benches);
