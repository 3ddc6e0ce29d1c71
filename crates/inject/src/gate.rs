//! Gate-level single-event injection campaigns (the Hamartia methodology of
//! §IV-A): for every input pair, flip the output of randomly chosen gates or
//! flip-flops until one corrupts the unit output.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swapcodes_gates::units::ArithUnit;
use swapcodes_gates::{transpose64, EvalScratch, Netlist, NodeId};

use crate::stats::Proportion;

/// Worker-pool width used by the parallel drivers in this workspace: the
/// `SWAPCODES_THREADS` environment override when set and well-formed
/// (malformed values are surfaced once, see
/// [`crate::harness::take_env_anomalies`]), otherwise the machine's
/// available parallelism.
#[must_use]
pub fn default_thread_count() -> usize {
    crate::harness::threads_from_env().unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    })
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Maximum injection attempts per input before giving up (fully-masked
    /// inputs are rare but possible, e.g. multiplication by zero).
    pub max_attempts_per_input: usize,
    /// RNG seed (campaigns are deterministic given the seed).
    pub seed: u64,
    /// Worker-thread override; `None` uses [`default_thread_count`].
    /// Results are identical for every thread count (per-input seeding).
    pub threads: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            max_attempts_per_input: 4096,
            seed: 0x05AC_0DE5,
            threads: None,
        }
    }
}

/// One unmasked injection: the fault-free and corrupted outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Fault-free output.
    pub golden: u64,
    /// Corrupted output.
    pub faulty: u64,
}

impl InjectionRecord {
    /// Number of erroneous output bits.
    #[must_use]
    pub fn error_bits(&self) -> u32 {
        (self.golden ^ self.faulty).count_ones()
    }
}

/// Severity-pattern counts over the unmasked injections (Fig. 10's three
/// categories, in increasing order of coding complexity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternCounts {
    /// Exactly one erroneous output bit.
    pub one_bit: u64,
    /// Two or three erroneous bits.
    pub two_three_bits: u64,
    /// Four or more erroneous bits (the only category with SDC risk under
    /// SwapCodes with SEC-DED).
    pub four_plus_bits: u64,
}

impl PatternCounts {
    /// Total unmasked injections.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.one_bit + self.two_three_bits + self.four_plus_bits
    }

    /// The single-bit proportion.
    #[must_use]
    pub fn one_bit_proportion(&self) -> Proportion {
        Proportion::new(self.one_bit, self.total())
    }

    /// The 2–3-bit proportion.
    #[must_use]
    pub fn two_three_proportion(&self) -> Proportion {
        Proportion::new(self.two_three_bits, self.total())
    }

    /// The >=4-bit proportion.
    #[must_use]
    pub fn four_plus_proportion(&self) -> Proportion {
        Proportion::new(self.four_plus_bits, self.total())
    }
}

/// Result of one unit's campaign.
#[derive(Debug, Clone)]
pub struct UnitCampaignResult {
    /// Display label of the unit.
    pub unit_label: &'static str,
    /// Output width in bits (32 or 64).
    pub output_bits: u32,
    /// All unmasked injections.
    pub records: Vec<InjectionRecord>,
    /// Inputs whose every attempted injection was masked.
    pub fully_masked_inputs: u64,
    /// Total injection attempts (masked + unmasked).
    pub attempts: u64,
}

impl UnitCampaignResult {
    /// Classify the records into Fig. 10's severity patterns.
    #[must_use]
    pub fn patterns(&self) -> PatternCounts {
        let mut p = PatternCounts::default();
        for r in &self.records {
            match r.error_bits() {
                0 => unreachable!("masked records are not stored"),
                1 => p.one_bit += 1,
                2 | 3 => p.two_three_bits += 1,
                _ => p.four_plus_bits += 1,
            }
        }
        p
    }

    /// Architectural masking rate: attempts that did not corrupt the output.
    #[must_use]
    pub fn masking_rate(&self) -> Proportion {
        Proportion::new(self.attempts - self.records.len() as u64, self.attempts)
    }
}

/// Per-input outcome of a campaign slice: the absolute input index (which
/// alone determines the input's RNG stream), the unmasked record if one was
/// found, and the injection attempts charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputOutcome {
    /// Absolute index of the input in the full operand stream.
    pub index: u64,
    /// The unmasked injection, or `None` when every attempt masked.
    pub record: Option<InjectionRecord>,
    /// Injection attempts charged to this input.
    pub attempts: u64,
}

/// Bit lanes of one netlist pass.
const LANES: usize = 64;

/// One input of a block: its fault-free output and its partial
/// Fisher–Yates draw, made lazily, one pass's worth of sites at a time.
struct InputState {
    index: u64,
    rng: SmallRng,
    /// Sparse overlay of the draw's permutation of the injectable nodes:
    /// the node now at each position an earlier swap moved. Every other
    /// position still holds its identity-order node.
    moved: HashMap<usize, u32>,
    /// Sites drawn so far; once a pass is evaluated, all of them are tested.
    drawn: usize,
    golden: u64,
    /// Lanes holding this input's sites in the current pass, in draw order.
    lanes: Range<usize>,
    outcome: Option<InputOutcome>,
}

impl InputState {
    fn new(seed: u64, index: u64) -> Self {
        Self {
            index,
            rng: SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            moved: HashMap::new(),
            drawn: 0,
            golden: 0,
            lanes: 0..0,
            outcome: None,
        }
    }

    /// Start over as input `index`, keeping the overlay's allocation.
    fn reset(&mut self, seed: u64, index: u64) {
        let mut moved = std::mem::take(&mut self.moved);
        moved.clear();
        *self = Self {
            moved,
            ..Self::new(seed, index)
        };
    }

    /// Step `i = drawn` of the partial Fisher–Yates over `nodes`: swap
    /// position `i` with a uniform `j` in `i..n` and return the node now at
    /// `i`. Later steps read only positions above `i`, so only position `j`
    /// is written back.
    fn draw(&mut self, nodes: &[u32]) -> u32 {
        let i = self.drawn;
        let j = self.rng.gen_range(i..nodes.len());
        let at = |p: usize| self.moved.get(&p).copied().unwrap_or(nodes[p]);
        let (site, displaced) = (at(j), at(i));
        self.moved.insert(j, displaced);
        self.drawn += 1;
        site
    }

    fn decide(&mut self, faulty: Option<u64>, attempts: usize) {
        self.outcome = Some(InputOutcome {
            index: self.index,
            record: faulty.map(|faulty| InjectionRecord {
                golden: self.golden,
                faulty,
            }),
            attempts: attempts as u64,
        });
    }
}

/// The buffers of one netlist pass: which block input each lane runs,
/// the input planes, the flips, the per-lane outputs and the node values.
#[derive(Default)]
struct Pass {
    /// Block input each lane runs; idle lanes keep a stale owner and no
    /// flip, and nothing reads their outputs.
    owner: Vec<usize>,
    planes: Vec<[u64; LANES]>,
    flips: Vec<(NodeId, u64)>,
    out: Vec<[u64; LANES]>,
    eval: EvalScratch,
}

impl Pass {
    /// Evaluate `net` with lane `l` running block input `owner[l]` under
    /// the flips of `flips`.
    fn run(&mut self, net: &Netlist, block: &[[u64; 3]]) {
        self.planes
            .resize(usize::from(net.input_words()), [0; LANES]);
        self.out.resize(net.output_words(), [0; LANES]);
        for (w, plane) in self.planes.iter_mut().enumerate() {
            *plane = std::array::from_fn(|lane| block[self.owner[lane]][w]);
            transpose64(plane);
        }
        net.evaluate_lanes(&self.planes, &self.flips, &mut self.eval, &mut self.out);
    }
}

/// Per-worker reusable buffers: one state per input of the current block,
/// the undecided list, and the pass buffers. Nothing here is allocated per
/// pass once warmed up.
#[derive(Default)]
struct WorkerScratch {
    inputs: Vec<InputState>,
    undecided: Vec<usize>,
    pass: Pass,
}

/// Run the injection campaign for one unit over the given operand stream:
/// per input, random single-node flips until the output corrupts. The 64
/// bit lanes of every netlist pass hold (input, site) trials of up to 64
/// inputs at once.
///
/// Inputs are distributed over the worker pool in blocks of 64 through a
/// work-stealing counter rather than fixed chunks: per-input cost varies by
/// orders of magnitude (an early-corrupting input is done after one pass, a
/// fully-masked one tests `max_attempts_per_input` sites), so static
/// chunking leaves whole threads idle behind one unlucky chunk. Results are
/// byte-identical for any thread count because every input derives its RNG
/// from `(seed, input index)` alone.
///
/// # Panics
///
/// Panics if `inputs` is empty.
#[must_use]
pub fn run_unit_campaign(
    unit: &ArithUnit,
    inputs: &[[u64; 3]],
    cfg: &CampaignConfig,
) -> UnitCampaignResult {
    let outcomes = run_unit_campaign_slice(unit, inputs, cfg, 0);

    let mut records = Vec::with_capacity(inputs.len());
    let mut fully_masked = 0u64;
    let mut attempts = 0u64;
    for o in outcomes {
        attempts += o.attempts;
        match o.record {
            Some(r) => records.push(r),
            None => fully_masked += 1,
        }
    }

    UnitCampaignResult {
        unit_label: unit.kind().label(),
        output_bits: unit.kind().output_bits(),
        records,
        fully_masked_inputs: fully_masked,
        attempts,
    }
}

/// Run a contiguous slice of a unit campaign whose first input sits at
/// absolute index `first_index` of the full operand stream, returning
/// per-input outcomes sorted by index.
///
/// Each input tests the sites of its own partial Fisher–Yates draw, in draw
/// order, up to `k = min(max_attempts_per_input, nodes)` of them. It is
/// decided at its first corrupting site, with attempts = that site's
/// position + 1, or fully masked after `k` attempts. Workers take blocks of
/// 64 consecutive inputs. A flip-free pass gives each input of the block
/// its golden output, one lane per input. Every later pass splits the 64
/// lanes evenly over the `a` undecided inputs (`⌊64/a⌋` or `⌈64/a⌉` each,
/// never past `k`), each lane testing the input's next site. Sites an input
/// drew beyond its first corrupting one in the same pass are discarded.
///
/// An input's outcome depends only on its golden output and its site
/// sequence, and the sequence only on its RNG, seeded from `(seed,
/// absolute index)`. So it does not depend on which inputs share its passes,
/// on the thread count, or on how a caller slices the stream — the resume
/// path of [`crate::harness::run_unit_campaign_checkpointed`] yields exactly
/// the outcomes of one uninterrupted pass, and [`run_unit_campaign_reference`]
/// yields them one site at a time.
///
/// # Panics
///
/// Panics if `inputs` is empty.
#[must_use]
pub fn run_unit_campaign_slice(
    unit: &ArithUnit,
    inputs: &[[u64; 3]],
    cfg: &CampaignConfig,
    first_index: u64,
) -> Vec<InputOutcome> {
    assert!(
        !inputs.is_empty(),
        "no operand stream for {:?}",
        unit.kind()
    );
    let net = unit.netlist();
    let nodes = net.injectable_nodes();
    let k = cfg.max_attempts_per_input.min(nodes.len());

    // Decide every input of one block, absolute indices from `first`.
    let run_block = |first: u64, block: &[[u64; 3]], ws: &mut WorkerScratch| {
        for i in 0..block.len() {
            let index = first + i as u64;
            match ws.inputs.get_mut(i) {
                Some(state) => state.reset(cfg.seed, index),
                None => ws.inputs.push(InputState::new(cfg.seed, index)),
            }
        }
        let inputs = &mut ws.inputs[..block.len()];
        let pass = &mut ws.pass;

        // The golden pass: lane `i` runs input `i` without flips.
        pass.owner.clear();
        pass.owner.extend(0..block.len());
        pass.owner.resize(LANES, 0);
        pass.flips.clear();
        pass.run(net, block);
        for (state, &golden) in inputs.iter_mut().zip(&pass.out[0]) {
            state.golden = golden;
        }
        let undecided = &mut ws.undecided;
        undecided.clear();
        undecided.extend(0..block.len());
        loop {
            undecided.retain(|&i| {
                let state = &mut inputs[i];
                if state.outcome.is_none() && state.drawn == k {
                    state.decide(None, k);
                }
                state.outcome.is_none()
            });
            if undecided.is_empty() {
                break;
            }
            let (share, extra) = (LANES / undecided.len(), LANES % undecided.len());
            pass.flips.clear();
            let mut lane = 0;
            for (rank, &i) in undecided.iter().enumerate() {
                let state = &mut inputs[i];
                let take = (share + usize::from(rank < extra)).min(k - state.drawn);
                state.lanes = lane..lane + take;
                for _ in 0..take {
                    pass.owner[lane] = i;
                    pass.flips.push((state.draw(&nodes), 1 << lane));
                    lane += 1;
                }
            }
            pass.run(net, block);
            for &i in undecided.iter() {
                let state = &mut inputs[i];
                let outs = &pass.out[0][state.lanes.clone()];
                if let Some(pos) = outs.iter().position(|&out| out != state.golden) {
                    let tested_before = state.drawn - outs.len();
                    state.decide(Some(outs[pos]), tested_before + pos + 1);
                }
            }
        }
    };

    let blocks = inputs.len().div_ceil(LANES);
    let threads = cfg
        .threads
        .unwrap_or_else(default_thread_count)
        .clamp(1, blocks);
    let next_block = AtomicUsize::new(0);
    let collected = parking_lot::Mutex::new(Vec::with_capacity(inputs.len()));
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            let next_block = &next_block;
            let collected = &collected;
            let run_block = &run_block;
            scope.spawn(move |_| {
                let mut ws = WorkerScratch::default();
                let mut local: Vec<InputOutcome> = Vec::new();
                loop {
                    let b = next_block.fetch_add(1, Ordering::Relaxed);
                    if b >= blocks {
                        break;
                    }
                    let lo = b * LANES;
                    let block = &inputs[lo..(lo + LANES).min(inputs.len())];
                    run_block(first_index + lo as u64, block, &mut ws);
                    local.extend(
                        ws.inputs[..block.len()]
                            .iter()
                            .map(|s| s.outcome.expect("every input is decided")),
                    );
                }
                collected.lock().append(&mut local);
            });
        }
    })
    .expect("injection workers do not panic");

    let mut all = collected.into_inner();
    all.sort_unstable_by_key(|o| o.index);
    all
}

/// The reference for [`run_unit_campaign_slice`]: serial, it draws each
/// input's whole partial Fisher–Yates order up front and tests one site at
/// a time with [`Netlist::evaluate_flipped`](swapcodes_gates::Netlist::evaluate_flipped)
/// against [`Netlist::evaluate`](swapcodes_gates::Netlist::evaluate). It
/// shares neither the lane packing nor the campaign loop, so differential
/// tests hold the production driver to it outcome for outcome.
///
/// # Panics
///
/// Panics if `inputs` is empty.
#[must_use]
pub fn run_unit_campaign_reference(
    unit: &ArithUnit,
    inputs: &[[u64; 3]],
    cfg: &CampaignConfig,
    first_index: u64,
) -> Vec<InputOutcome> {
    assert!(
        !inputs.is_empty(),
        "no operand stream for {:?}",
        unit.kind()
    );
    let net = unit.netlist();
    let words = unit.kind().input_count();
    let mut outcomes = Vec::with_capacity(inputs.len());
    for (offset, tuple) in inputs.iter().enumerate() {
        let index = first_index + offset as u64;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut order = net.injectable_nodes();
        let k = cfg.max_attempts_per_input.min(order.len());
        for i in 0..k {
            let j = rng.gen_range(i..order.len());
            order.swap(i, j);
        }
        let golden = net.evaluate(&tuple[..words])[0];
        let mut outcome = InputOutcome {
            index,
            record: None,
            attempts: k as u64,
        };
        for (pos, &site) in order[..k].iter().enumerate() {
            let faulty = net.evaluate_flipped(&tuple[..words], site)[0];
            if faulty != golden {
                outcome.record = Some(InjectionRecord { golden, faulty });
                outcome.attempts = pos as u64 + 1;
                break;
            }
        }
        outcomes.push(outcome);
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_gates::units::fxp_add32;

    #[test]
    fn campaign_finds_unmasked_errors() {
        let unit = fxp_add32();
        let inputs: Vec<[u64; 3]> = (0..50)
            .map(|i| [i * 0x1234_5678 % 0xFFFF_FFFF, i * 999 + 7, 0])
            .collect();
        let res = run_unit_campaign(&unit, &inputs, &CampaignConfig::default());
        assert_eq!(res.records.len() + res.fully_masked_inputs as usize, 50);
        assert!(res.records.len() >= 45, "adder faults rarely fully mask");
        let p = res.patterns();
        assert_eq!(p.total(), res.records.len() as u64);
        // Adders produce plenty of single-bit errors (sum XOR path).
        assert!(p.one_bit > 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let unit = fxp_add32();
        let inputs = vec![[3u64, 4, 0], [100, 231, 0]];
        let cfg = CampaignConfig::default();
        let a = run_unit_campaign(&unit, &inputs, &cfg);
        let b = run_unit_campaign(&unit, &inputs, &cfg);
        assert_eq!(a.records, b.records);
        // The default-config runs above used the ambient SWAPCODES_THREADS /
        // available-parallelism worker count; results must not depend on it.
        for threads in [1, 2, 5] {
            let pinned = run_unit_campaign(
                &unit,
                &inputs,
                &CampaignConfig {
                    threads: Some(threads),
                    ..CampaignConfig::default()
                },
            );
            assert_eq!(a.records, pinned.records, "threads={threads}");
        }
    }

    /// Work-stealing must not leak scheduling into results: any thread
    /// count (and therefore any `SWAPCODES_THREADS` setting, which only
    /// feeds the default of `CampaignConfig::threads`) produces the same
    /// records, masking counts and attempt totals. 200 inputs make four
    /// 64-input blocks, so up to four workers take part.
    #[test]
    fn campaign_is_thread_count_independent() {
        let unit = fxp_add32();
        let inputs: Vec<[u64; 3]> = (0..200)
            .map(|i| [i * 0x0101_0101 % 0xFFFF_FFFF, i * 77 + 13, 0])
            .collect();
        let serial = run_unit_campaign(
            &unit,
            &inputs,
            &CampaignConfig {
                threads: Some(1),
                ..CampaignConfig::default()
            },
        );
        for threads in [2, 3, 8, 64] {
            let parallel = run_unit_campaign(
                &unit,
                &inputs,
                &CampaignConfig {
                    threads: Some(threads),
                    ..CampaignConfig::default()
                },
            );
            assert_eq!(serial.records, parallel.records, "threads={threads}");
            assert_eq!(serial.attempts, parallel.attempts, "threads={threads}");
            assert_eq!(
                serial.fully_masked_inputs, parallel.fully_masked_inputs,
                "threads={threads}"
            );
        }
    }

    /// An input's outcome is keyed by its absolute index alone, not by the
    /// inputs that share its passes or came before it: run alone at its
    /// index through `run_unit_campaign_slice`, every input of a stream
    /// longer than one 64-input block gets exactly its outcome in the full
    /// run.
    #[test]
    fn per_input_samples_are_position_keyed_not_history_keyed() {
        use swapcodes_gates::units::{build_unit, UnitKind};
        for kind in [UnitKind::FxpAdd32, UnitKind::FpFma32] {
            let unit = build_unit(kind);
            let inputs: Vec<[u64; 3]> = (0..70u64)
                .map(|i| {
                    let x = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    [x & 0xFFFF_FFFF, x >> 32, x.rotate_left(23) & 0xFFFF_FFFF]
                })
                .collect();
            let cfg = CampaignConfig {
                threads: Some(1),
                ..CampaignConfig::default()
            };
            let full = run_unit_campaign_slice(&unit, &inputs, &cfg, 0);
            for (i, tuple) in inputs.iter().enumerate() {
                let alone = run_unit_campaign_slice(&unit, &[*tuple], &cfg, i as u64);
                assert_eq!(alone, [full[i]], "{kind:?} input {i}");
            }
        }
    }

    /// The packed driver equals the one-site-at-a-time reference outcome
    /// for outcome: every unit, 130 inputs (two full 64-input blocks and a
    /// tail) in a slice starting at a non-zero index, attempt caps on both
    /// sides of one and two passes' worth of lanes (inputs that exhaust
    /// small caps fully mask), two seeds, and 1, 2 and 3 threads.
    #[test]
    fn lazy_draw_matches_eager_partial_fisher_yates() {
        use swapcodes_gates::units::{build_unit, UnitKind};
        const FIRST_INDEX: u64 = 1_000_003;
        let kinds = [
            UnitKind::FxpAdd32,
            UnitKind::FxpMad32,
            UnitKind::FpAdd32,
            UnitKind::FpFma32,
            UnitKind::FpAdd64,
            UnitKind::FpFma64,
        ];
        let (mut masked_seen, mut late_seen) = (false, false);
        for kind in kinds {
            let unit = build_unit(kind);
            let widths = kind.operand_widths();
            let inputs: Vec<[u64; 3]> = (0..130u64)
                .map(|i| {
                    let mut tuple = [0u64; 3];
                    for (w, (word, bits)) in tuple.iter_mut().zip(widths).enumerate() {
                        let x = (i * 3 + w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        *word = if bits >= 64 { x } else { x & ((1 << bits) - 1) };
                    }
                    if kind == UnitKind::FxpMad32 && i % 8 < 2 {
                        tuple[1] = 0; // zero multiplicand
                    }
                    tuple
                })
                .collect();
            for seed in [0x05AC_0DE5, 0xF1_6000] {
                for max_attempts_per_input in [1, 62, 63, 64, 126, 127, 4096] {
                    let cfg = CampaignConfig {
                        max_attempts_per_input,
                        seed,
                        threads: None,
                    };
                    let eager = run_unit_campaign_reference(&unit, &inputs, &cfg, FIRST_INDEX);
                    masked_seen |= eager.iter().any(|o| o.record.is_none());
                    late_seen |= eager.iter().any(|o| o.record.is_some() && o.attempts > 63);
                    for threads in [1, 2, 3] {
                        let cfg = CampaignConfig {
                            threads: Some(threads),
                            ..cfg
                        };
                        let packed = run_unit_campaign_slice(&unit, &inputs, &cfg, FIRST_INDEX);
                        assert_eq!(
                            packed, eager,
                            "{kind:?} seed {seed:#x} cap {max_attempts_per_input} threads {threads}"
                        );
                    }
                }
            }
        }
        assert!(masked_seen, "no input exhausted its cap");
        assert!(late_seen, "no input corrupted after its first 63 sites");
    }

    #[test]
    fn error_bits_counts_xor() {
        let r = InjectionRecord {
            golden: 0b1010,
            faulty: 0b0110,
        };
        assert_eq!(r.error_bits(), 2);
    }
}
