//! Property-based tests: the gate-level units are bit-exact against their
//! software references across random operands.

use proptest::prelude::*;
use swapcodes_ecc::{HsiaoSecDed, RawDecode, ResidueCode, ResidueMadPredictor, SystematicCode};
use swapcodes_gates::softfloat::{BINARY32, BINARY64};
use swapcodes_gates::units::{
    build_unit, mad_residue_predictor, residue_encoder, secded_decoder, UnitKind,
};
use swapcodes_gates::{transpose64, EvalScratch, Gate, Netlist, NodeId};

/// The bit planes of 64 lanes' input words (`lanes[l][w]` is lane `l`'s
/// word `w`).
fn lane_planes<const W: usize>(lanes: &[[u64; W]]) -> Vec<[u64; 64]> {
    (0..W)
        .map(|w| {
            let mut rows: [u64; 64] = std::array::from_fn(|l| lanes[l][w]);
            transpose64(&mut rows);
            rows
        })
        .collect()
}

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

    /// A flip-free lane stays clean while every other lane of the pass
    /// flips a node.
    #[test]
    fn flip_free_lane_is_clean(a: u32, b: u32, pick in 0usize..600, clean in 0usize..64) {
        let unit = build_unit(UnitKind::FxpAdd32);
        let net = unit.netlist();
        let nodes = net.injectable_nodes();
        let node = nodes[pick % nodes.len()];
        // Lane `l` adds `a` rotated by `l` to `b`.
        let lane_a = |lane: usize| a.rotate_left(lane as u32);
        let lanes: Vec<[u64; 2]> = (0..64).map(|l| [u64::from(lane_a(l)), u64::from(b)]).collect();
        let mut out = [[0u64; 64]];
        let flips = [(node, !(1u64 << clean))];
        net.evaluate_lanes(&lane_planes(&lanes), &flips, &mut EvalScratch::new(), &mut out);
        prop_assert_eq!(out[0][clean], u64::from(lane_a(clean).wrapping_add(b)));
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
    /// 64 bits, every lane of a pass equals the single-lane evaluation of
    /// its own inputs: `evaluate_flipped` for a lane with one or two flips
    /// (two flips of a lane hit one node and OR, and lanes share flipped
    /// nodes), `evaluate` for a flip-free lane. All rounds share one
    /// [`EvalScratch`], so reuse must leave no residue between calls or
    /// flip sets, and the per-lane output transpose must put every bit
    /// where the single-lane path does.
    #[test]
    fn scratch_reuse_matches_fresh_on_random_netlists(
        recipe in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()),
            4..96,
        ),
        widths in proptest::collection::vec(1usize..=64, 1..3),
        seed: u64,
    ) {
        let net = random_netlist(&recipe, &widths);
        let nodes = net.injectable_nodes();
        prop_assume!(!nodes.is_empty());
        // SplitMix64 over `seed`: per-lane inputs and flips.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };

        let mut scratch = EvalScratch::new();
        let mut out = vec![[0u64; 64]; net.output_words()];
        for _round in 0..4 {
            let inputs: Vec<[u64; 2]> = (0..64).map(|_| [next(), next()]).collect();
            let mut lane_flip: [Option<NodeId>; 64] = [None; 64];
            let mut flips: Vec<(NodeId, u64)> = Vec::new();
            for (lane, slot) in lane_flip.iter_mut().enumerate() {
                let r = next();
                // Six candidate nodes, so lanes often share one.
                let node = nodes[(r >> 8) as usize % nodes.len().min(6)];
                match r % 3 {
                    0 => {}
                    // One flip joins the node's multi-lane entry.
                    1 => match flips.iter_mut().find(|f| f.0 == node) {
                        Some(f) => f.1 |= 1 << lane,
                        None => flips.push((node, 1 << lane)),
                    },
                    // Two single-lane entries on one node.
                    _ => flips.extend([(node, 1 << lane), (node, 1 << lane)]),
                }
                if r % 3 != 0 {
                    *slot = Some(node);
                }
            }
            net.evaluate_lanes(&lane_planes(&inputs), &flips, &mut scratch, &mut out);
            for (lane, (words, flip)) in inputs.iter().zip(lane_flip).enumerate() {
                let want = match flip {
                    Some(node) => net.evaluate_flipped(words, node),
                    None => net.evaluate(words),
                };
                for (w, lanes) in out.iter().enumerate() {
                    prop_assert_eq!(
                        lanes[lane], want[w],
                        "lane {} word {} flipping {:?}", lane, w, flip
                    );
                }
            }
        }
    }
}
