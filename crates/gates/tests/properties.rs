//! Property-based tests: the gate-level units are bit-exact against their
//! software references across random operands.

use proptest::prelude::*;
use swapcodes_ecc::{HsiaoSecDed, RawDecode, ResidueCode, ResidueMadPredictor, SystematicCode};
use swapcodes_gates::softfloat::{BINARY32, BINARY64};
use swapcodes_gates::units::{
    build_unit, mad_residue_predictor, residue_encoder, secded_decoder, UnitKind,
};
use swapcodes_gates::{EvalScratch, Gate, Netlist, NodeId};

/// A strategy for normal (or zero) binary32 encodings.
fn normal32() -> impl Strategy<Value = u64> {
    (any::<bool>(), 64u32..190, 0u32..(1 << 23))
        .prop_map(|(s, e, m)| u64::from((u32::from(s) << 31) | (e << 23) | m))
}

fn normal64() -> impl Strategy<Value = u64> {
    (any::<bool>(), 800u64..1250, 0u64..(1 << 52))
        .prop_map(|(s, e, m)| (u64::from(s) << 63) | (e << 52) | m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fxp_add_matches_wrapping_add(a: u32, b: u32) {
        let unit = build_unit(UnitKind::FxpAdd32);
        let got = unit.netlist().evaluate(&[u64::from(a), u64::from(b)])[0];
        prop_assert_eq!(got, u64::from(a.wrapping_add(b)));
    }

    #[test]
    fn fxp_mad_matches_wide_mad(a: u32, b: u32, c: u64) {
        let unit = build_unit(UnitKind::FxpMad32);
        let out = unit.netlist().evaluate(&[u64::from(a), u64::from(b), c]);
        let full = u128::from(a) * u128::from(b) + u128::from(c);
        prop_assert_eq!(out[0], full as u64);
        prop_assert_eq!(out[1], (full >> 64) as u64, "carry-out");
    }

    #[test]
    fn fp32_add_matches_reference(a in normal32(), b in normal32()) {
        let unit = build_unit(UnitKind::FpAdd32);
        let want = unit.reference([a, b, 0]);
        prop_assume!(BINARY32.exponent(want) != 0xFF);
        let got = unit.netlist().evaluate(&[a, b])[0];
        // +/-0 equivalence at FTZ corners.
        let canon = |x: u64| if x & 0x7FFF_FFFF == 0 { 0 } else { x };
        prop_assert_eq!(canon(got), canon(want));
    }

    #[test]
    fn fp32_fma_matches_reference(a in normal32(), b in normal32(), c in normal32()) {
        let unit = build_unit(UnitKind::FpFma32);
        let want = unit.reference([a, b, c]);
        prop_assume!(BINARY32.exponent(want) != 0xFF);
        let got = unit.netlist().evaluate(&[a, b, c])[0];
        let canon = |x: u64| if x & 0x7FFF_FFFF == 0 { 0 } else { x };
        prop_assert_eq!(canon(got), canon(want));
    }

    #[test]
    fn fp64_fma_matches_reference(a in normal64(), b in normal64(), c in normal64()) {
        let unit = build_unit(UnitKind::FpFma64);
        let want = unit.reference([a, b, c]);
        prop_assume!(BINARY64.exponent(want) != 0x7FF);
        let got = unit.netlist().evaluate(&[a, b, c])[0];
        let canon = |x: u64| if x & 0x7FFF_FFFF_FFFF_FFFF == 0 { 0 } else { x };
        prop_assert_eq!(canon(got), canon(want));
    }

    /// The residue-encoder circuit equals the software fold for every width.
    #[test]
    fn residue_encoder_circuit_exact(a in 2u8..=8, v: u32) {
        let net = residue_encoder(a);
        let code = ResidueCode::new(a);
        prop_assert_eq!(
            net.evaluate(&[u64::from(v)])[0],
            u64::from(code.of_u32(v).value())
        );
    }

    /// The MAD residue predictor circuit equals the software predictor.
    #[test]
    fn mad_predictor_circuit_exact(a in 2u8..=8, x: u32, y: u32, c: u64) {
        let code = ResidueCode::new(a);
        let pred = ResidueMadPredictor::new(code);
        let net = mad_residue_predictor(a);
        let full = u128::from(x) * u128::from(y) + u128::from(c);
        let cout = (full >> 64) != 0;
        let want = pred.predict_wrapped(
            code.of_u32(x),
            code.of_u32(y),
            code.of_u32((c >> 32) as u32),
            code.of_u32(c as u32),
            cout,
        );
        let got = net.evaluate(&[
            u64::from(code.of_u32(x).value()),
            u64::from(code.of_u32(y).value()),
            u64::from(code.of_u32((c >> 32) as u32).value()),
            u64::from(code.of_u32(c as u32).value()),
            u64::from(cout),
        ])[0];
        prop_assert_eq!(got, u64::from(want.value()));
    }

    /// The decoder circuit agrees with the software decoder on random
    /// (data, check) pairs, including corrupted ones.
    #[test]
    fn decoder_circuit_agrees_with_software(data: u32, check in 0u16..128) {
        let code = HsiaoSecDed::new();
        let net = secded_decoder();
        let out = net.evaluate(&[u64::from(data), u64::from(check)]);
        match code.decode(data, check) {
            RawDecode::Clean => {
                prop_assert_eq!(out[1], 0b0001);
                prop_assert_eq!(out[0], u64::from(data));
            }
            RawDecode::CorrectedData { data: fixed, .. } => {
                prop_assert_eq!(out[1], 0b0010);
                prop_assert_eq!(out[0], u64::from(fixed));
            }
            RawDecode::CorrectedCheck { .. } => {
                prop_assert_eq!(out[1], 0b0100);
                prop_assert_eq!(out[0], u64::from(data));
            }
            RawDecode::Detected => prop_assert_eq!(out[1], 0b1000),
        }
    }

    /// Single-node injection changes at most the output (sanity: the golden
    /// lane of a batch is never affected by the faulty lanes).
    #[test]
    fn batch_golden_lane_is_clean(a: u32, b: u32, pick in 0usize..600) {
        let unit = build_unit(UnitKind::FxpAdd32);
        let nodes = unit.netlist().injectable_nodes();
        let node = nodes[pick % nodes.len()];
        let batch = unit
            .netlist()
            .evaluate_batch(&[u64::from(a), u64::from(b)], &[node]);
        prop_assert_eq!(batch.golden(0), u64::from(a.wrapping_add(b)));
    }
}

/// Build a random but well-formed netlist from a gate recipe: each entry
/// selects a gate kind and operand nodes among the nodes pushed so far.
/// Output word `w` has `widths[w]` bits (up to 64), drawn from the newest
/// nodes backwards, repeating nodes when the netlist is smaller.
fn random_netlist(recipe: &[(u8, u32, u32, u32)], widths: &[usize]) -> Netlist {
    let mut net = Netlist::new(2);
    let mut nodes: Vec<NodeId> = Vec::new();
    for word in 0..2u16 {
        for bit in 0..8u8 {
            nodes.push(net.push(Gate::Input { word, bit }));
        }
    }
    for &(kind, a, b, c) in recipe {
        let pick = |x: u32| nodes[x as usize % nodes.len()];
        let gate = match kind % 10 {
            0 => Gate::Const(a % 2 == 1),
            1 => Gate::Not(pick(a)),
            2 => Gate::And(pick(a), pick(b)),
            3 => Gate::Or(pick(a), pick(b)),
            4 => Gate::Xor(pick(a), pick(b)),
            5 => Gate::Nand(pick(a), pick(b)),
            6 => Gate::Nor(pick(a), pick(b)),
            7 => Gate::Xnor(pick(a), pick(b)),
            8 => Gate::Mux {
                s: pick(a),
                a: pick(b),
                b: pick(c),
            },
            _ => Gate::Ff(pick(a)),
        };
        nodes.push(net.push(gate));
    }
    for (w, &width) in widths.iter().enumerate() {
        let bits: Vec<NodeId> = nodes
            .iter()
            .rev()
            .cycle()
            .skip(w)
            .take(width)
            .copied()
            .collect();
        net.add_output(bits);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On arbitrary random netlists with one or two output words of up to
    /// 64 bits, batch evaluation through one reused [`EvalScratch`] is
    /// bit-identical to a fresh-allocation batch and to per-flip serial
    /// evaluation — i.e. scratch reuse leaves no residue between calls,
    /// netlists, or flip sets, and the per-lane output transpose puts every
    /// bit where `evaluate_flipped` does.
    #[test]
    fn scratch_reuse_matches_fresh_on_random_netlists(
        recipe in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()),
            4..96,
        ),
        widths in proptest::collection::vec(1usize..=64, 1..3),
        in_a: u64,
        in_b: u64,
        flip_seed: u64,
    ) {
        let net = random_netlist(&recipe, &widths);
        let nodes = net.injectable_nodes();
        let inputs = [in_a, in_b];

        let mut scratch = EvalScratch::new();
        let mut out = swapcodes_gates::BatchResult::default();
        // Several flip sets of different sizes through the same scratch.
        for round in 0..4u64 {
            let k = 1 + (flip_seed.rotate_left(8 * round as u32) as usize) % 63.min(nodes.len());
            let flips: Vec<NodeId> = (0..k)
                .map(|i| {
                    let ix = flip_seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(round * 1_000 + i as u64);
                    nodes[ix as usize % nodes.len()]
                })
                .collect();
            net.evaluate_batch_with(&inputs, &flips, &mut scratch, &mut out);
            let fresh = net.evaluate_batch(&inputs, &flips);
            for w in 0..net.output_words() {
                prop_assert_eq!(out.golden(w), fresh.golden(w), "golden lane, word {}", w);
                prop_assert_eq!(out.golden(w), net.evaluate(&inputs)[w]);
                for (lane, &flip) in flips.iter().enumerate() {
                    prop_assert_eq!(
                        out.output(w, lane),
                        net.evaluate_flipped(&inputs, flip)[w],
                        "lane {} flipping node {}", lane, flip
                    );
                }
            }
        }
    }
}
