//! Flattened gate-level netlists with bit-parallel evaluation and transient
//! fault injection.

use serde::{Deserialize, Serialize};

/// Index of a node (gate, flip-flop, input or constant) within a [`Netlist`].
pub type NodeId = u32;

/// One node of a netlist. Inputs reference earlier nodes only, so the vector
/// order is a topological order and evaluation is a single forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Gate {
    /// Bit `bit` of primary input word `word`.
    Input {
        /// Index of the input word.
        word: u16,
        /// Bit index within the word.
        bit: u8,
    },
    /// Constant zero or one.
    Const(bool),
    /// Inverter.
    Not(NodeId),
    /// 2-input AND.
    And(NodeId, NodeId),
    /// 2-input OR.
    Or(NodeId, NodeId),
    /// 2-input XOR.
    Xor(NodeId, NodeId),
    /// 2-input NAND.
    Nand(NodeId, NodeId),
    /// 2-input NOR.
    Nor(NodeId, NodeId),
    /// 2-input XNOR.
    Xnor(NodeId, NodeId),
    /// 2:1 multiplexer: `s ? a : b`.
    Mux {
        /// Select signal.
        s: NodeId,
        /// Output when `s` is 1.
        a: NodeId,
        /// Output when `s` is 0.
        b: NodeId,
    },
    /// Pipeline flip-flop. Functionally transparent in the unrolled
    /// evaluation used here; distinguished so that injection campaigns can
    /// target state as well as logic, and for area/FF accounting.
    Ff(NodeId),
}

/// A combinational-plus-pipeline-register netlist.
///
/// The paper's injection methodology treats a transient fault as a single
/// gate or flip-flop output flip observed through one evaluation of the
/// (unrolled) pipeline; [`Netlist::evaluate_flipped`] reproduces exactly
/// that.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Netlist {
    nodes: Vec<Gate>,
    /// Output words: each is a list of node ids, LSB first.
    outputs: Vec<Vec<NodeId>>,
    input_words: u16,
}

impl Netlist {
    /// Create an empty netlist expecting `input_words` primary input words.
    #[must_use]
    pub fn new(input_words: u16) -> Self {
        Self {
            nodes: Vec::new(),
            outputs: Vec::new(),
            input_words,
        }
    }

    /// Append a node.
    ///
    /// # Panics
    ///
    /// Panics if a referenced operand does not precede the new node
    /// (the netlist must stay topologically ordered), or on id overflow.
    pub fn push(&mut self, gate: Gate) -> NodeId {
        let id = NodeId::try_from(self.nodes.len()).expect("netlist too large");
        let check = |n: NodeId| debug_assert!(n < id, "forward reference in netlist");
        match gate {
            Gate::Input { word, .. } => debug_assert!(word < self.input_words),
            Gate::Const(_) => {}
            Gate::Not(a) | Gate::Ff(a) => check(a),
            Gate::And(a, b)
            | Gate::Or(a, b)
            | Gate::Xor(a, b)
            | Gate::Nand(a, b)
            | Gate::Nor(a, b)
            | Gate::Xnor(a, b) => {
                check(a);
                check(b);
            }
            Gate::Mux { s, a, b } => {
                check(s);
                check(a);
                check(b);
            }
        }
        self.nodes.push(gate);
        id
    }

    /// Register an output word (bits LSB first). Returns its index.
    pub fn add_output(&mut self, bits: Vec<NodeId>) -> usize {
        self.outputs.push(bits);
        self.outputs.len() - 1
    }

    /// Number of nodes (gates + FFs + inputs + constants).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes in topological order.
    #[must_use]
    pub fn nodes(&self) -> &[Gate] {
        &self.nodes
    }

    /// Number of primary input words.
    #[must_use]
    pub fn input_words(&self) -> u16 {
        self.input_words
    }

    /// Number of output words.
    #[must_use]
    pub fn output_words(&self) -> usize {
        self.outputs.len()
    }

    /// The node ids forming output word `w`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[must_use]
    pub fn output_bits(&self, w: usize) -> &[NodeId] {
        &self.outputs[w]
    }

    /// Ids of the fault-injectable nodes: every gate and flip-flop output
    /// (primary inputs and constants are excluded, matching the paper's
    /// sphere of replication — input corruption is the *previous* unit's
    /// problem).
    #[must_use]
    pub fn injectable_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, g)| !matches!(g, Gate::Input { .. } | Gate::Const(_)))
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// Number of flip-flops (Table IV's FF column).
    #[must_use]
    pub fn flip_flop_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|g| matches!(g, Gate::Ff(_)))
            .count()
    }

    /// Evaluate the netlist on `inputs` (one `u64` per input word, low bits
    /// used) and return one `u64` per output word.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not supply every input word.
    #[must_use]
    pub fn evaluate(&self, inputs: &[u64]) -> Vec<u64> {
        self.evaluate_words(inputs, &[])
    }

    /// Evaluate with a single transient fault: node `flip`'s output is
    /// inverted for this evaluation.
    #[must_use]
    pub fn evaluate_flipped(&self, inputs: &[u64], flip: NodeId) -> Vec<u64> {
        self.evaluate_words(inputs, &[flip])
    }

    /// Evaluate up to 64 *independent* single-fault experiments in one pass:
    /// lane `i` of every node value carries the simulation in which
    /// `flips[i]` is inverted (lanes beyond `flips.len()` are fault-free).
    ///
    /// Returns, for each output word, a vector of per-lane word values
    /// indexed like `flips` with one extra trailing entry for the fault-free
    /// lane.
    ///
    /// Allocates fresh buffers per call; hot callers (injection campaigns)
    /// should hold an [`EvalScratch`] and a [`BatchResult`] and use
    /// [`Netlist::evaluate_batch_with`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `flips.len() > 63` or inputs are missing.
    #[must_use]
    pub fn evaluate_batch(&self, inputs: &[u64], flips: &[NodeId]) -> BatchResult {
        let mut scratch = EvalScratch::new();
        let mut out = BatchResult::default();
        self.evaluate_batch_with(inputs, flips, &mut scratch, &mut out);
        out
    }

    /// Allocation-free form of [`Netlist::evaluate_batch`]: node values and
    /// flip masks live in `scratch`, per-lane output words in `out`, and
    /// both are reused across calls (the first call sizes them, later calls
    /// only overwrite).
    ///
    /// # Panics
    ///
    /// Panics if `flips.len() > 63` or inputs are missing.
    pub fn evaluate_batch_with(
        &self,
        inputs: &[u64],
        flips: &[NodeId],
        scratch: &mut EvalScratch,
        out: &mut BatchResult,
    ) {
        assert!(flips.len() <= 63, "at most 63 faulty lanes per batch");
        self.evaluate_lanes_into(inputs, flips, scratch);
        let lanes = &scratch.values;
        out.per_output.resize(self.outputs.len(), Vec::new());
        for (bits, words) in self.outputs.iter().zip(out.per_output.iter_mut()) {
            assert!(bits.len() <= 64, "output words are at most 64 bits");
            // Row `pos` holds output bit `pos` of every lane; transposed,
            // row `lane` is that lane's output word.
            let mut matrix = [0u64; 64];
            for (row, &bit_node) in matrix.iter_mut().zip(bits) {
                *row = lanes[bit_node as usize];
            }
            transpose64(&mut matrix);
            words.clear();
            words.extend_from_slice(&matrix[..flips.len()]);
            // Lane 63 is the fault-free lane, stored last.
            words.push(matrix[63]);
        }
    }

    /// Per-node lane evaluation into `scratch`. Lane 63 is always
    /// fault-free; lane `i` (i < flips.len()) has `flips[i]` inverted.
    ///
    /// The flip-mask buffer is kept all-zero between calls by sparsely
    /// resetting exactly the nodes in `flips` on the way out, so no
    /// node-count-sized buffer is zeroed (or allocated) per call.
    fn evaluate_lanes_into(&self, inputs: &[u64], flips: &[NodeId], scratch: &mut EvalScratch) {
        assert_eq!(
            inputs.len(),
            usize::from(self.input_words),
            "wrong number of input words"
        );
        scratch.ensure_capacity(self.nodes.len());
        for (lane, &node) in flips.iter().enumerate() {
            scratch.flip_mask[node as usize] |= 1u64 << lane;
        }
        let v = &mut scratch.values;
        for (i, gate) in self.nodes.iter().enumerate() {
            let val = match *gate {
                Gate::Input { word, bit } => {
                    if inputs[usize::from(word)] >> bit & 1 != 0 {
                        u64::MAX
                    } else {
                        0
                    }
                }
                Gate::Const(c) => {
                    if c {
                        u64::MAX
                    } else {
                        0
                    }
                }
                Gate::Not(a) => !v[a as usize],
                Gate::And(a, b) => v[a as usize] & v[b as usize],
                Gate::Or(a, b) => v[a as usize] | v[b as usize],
                Gate::Xor(a, b) => v[a as usize] ^ v[b as usize],
                Gate::Nand(a, b) => !(v[a as usize] & v[b as usize]),
                Gate::Nor(a, b) => !(v[a as usize] | v[b as usize]),
                Gate::Xnor(a, b) => !(v[a as usize] ^ v[b as usize]),
                Gate::Mux { s, a, b } => {
                    let sv = v[s as usize];
                    (sv & v[a as usize]) | (!sv & v[b as usize])
                }
                Gate::Ff(a) => v[a as usize],
            };
            v[i] = val ^ scratch.flip_mask[i];
        }
        // Sparse reset: `flips` is exactly the dirty set.
        for &node in flips {
            scratch.flip_mask[node as usize] = 0;
        }
    }

    fn evaluate_words(&self, inputs: &[u64], flips: &[NodeId]) -> Vec<u64> {
        // Single-lane path: run the faulty configuration in lane 0.
        let mut scratch = EvalScratch::new();
        self.evaluate_lanes_into(inputs, flips, &mut scratch);
        let lane = if flips.is_empty() { 63 } else { 0 };
        self.outputs
            .iter()
            .map(|bits| {
                let mut w = 0u64;
                for (pos, &bit_node) in bits.iter().enumerate() {
                    if scratch.values[bit_node as usize] >> lane & 1 != 0 {
                        w |= 1u64 << pos;
                    }
                }
                w
            })
            .collect()
    }
}

/// Transpose a 64×64 bit matrix in place: bit `c` of row `r` moves to bit
/// `r` of row `c`. Each round swaps the off-diagonal `j`×`j` blocks of
/// every `2j`×`2j` block, halving `j` from 32 to 1.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        for base in (0..64).step_by(2 * j) {
            for k in base..base + j {
                let t = ((m[k] >> j) ^ m[k + j]) & mask;
                m[k] ^= t << j;
                m[k + j] ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Reusable evaluation buffers for [`Netlist::evaluate_batch_with`].
///
/// One scratch serves netlists of any size (buffers grow to the largest
/// netlist seen and are then reused); the flip-mask invariant — all zeros
/// between calls — is maintained by sparse resets, never by re-zeroing the
/// whole buffer.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Per-node lane values (fully overwritten every evaluation).
    values: Vec<u64>,
    /// Per-node flip masks (all-zero between evaluations).
    flip_mask: Vec<u64>,
}

impl EvalScratch {
    /// Create an empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_capacity(&mut self, nodes: usize) {
        if self.values.len() < nodes {
            self.values.resize(nodes, 0);
            self.flip_mask.resize(nodes, 0);
        }
    }
}

/// Result of a batched fault-injection evaluation.
///
/// `BatchResult::default()` is an empty result intended as a reusable
/// output buffer for [`Netlist::evaluate_batch_with`].
#[derive(Debug, Clone, Default)]
pub struct BatchResult {
    per_output: Vec<Vec<u64>>,
}

impl BatchResult {
    /// Value of output word `out` in fault lane `lane`
    /// (`lane == number_of_flips` is the fault-free lane).
    #[must_use]
    pub fn output(&self, out: usize, lane: usize) -> u64 {
        self.per_output[out][lane]
    }

    /// The fault-free value of output word `out`.
    #[must_use]
    pub fn golden(&self, out: usize) -> u64 {
        *self.per_output[out]
            .last()
            .expect("batch always carries the fault-free lane")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny half-adder netlist built by hand.
    fn half_adder() -> Netlist {
        let mut n = Netlist::new(2);
        let a = n.push(Gate::Input { word: 0, bit: 0 });
        let b = n.push(Gate::Input { word: 1, bit: 0 });
        let s = n.push(Gate::Xor(a, b));
        let c = n.push(Gate::And(a, b));
        n.add_output(vec![s, c]);
        n
    }

    #[test]
    fn half_adder_truth_table() {
        let n = half_adder();
        assert_eq!(n.evaluate(&[0, 0])[0], 0b00);
        assert_eq!(n.evaluate(&[1, 0])[0], 0b01);
        assert_eq!(n.evaluate(&[0, 1])[0], 0b01);
        assert_eq!(n.evaluate(&[1, 1])[0], 0b10);
    }

    #[test]
    fn injection_flips_exactly_one_node() {
        let n = half_adder();
        // Node 2 is the XOR (sum). Flipping it inverts the sum bit.
        let faulty = n.evaluate_flipped(&[1, 0], 2);
        assert_eq!(faulty[0], 0b00);
        // Flipping the AND (carry) sets the carry.
        let faulty = n.evaluate_flipped(&[1, 0], 3);
        assert_eq!(faulty[0], 0b11);
    }

    #[test]
    fn batch_matches_individual_injections() {
        let n = half_adder();
        let flips = n.injectable_nodes();
        let batch = n.evaluate_batch(&[1, 1], &flips);
        for (lane, &f) in flips.iter().enumerate() {
            assert_eq!(batch.output(0, lane), n.evaluate_flipped(&[1, 1], f)[0]);
        }
        assert_eq!(batch.golden(0), n.evaluate(&[1, 1])[0]);

        // The scratch-reusing form is bit-identical across repeated calls on
        // the same buffers (the flip-mask sparse reset must leave no residue
        // between batches with different flip sets and inputs).
        let mut scratch = EvalScratch::new();
        let mut out = BatchResult::default();
        for inputs in [[1u64, 1], [1, 0], [0, 1], [0, 0]] {
            for flip_set in [&flips[..], &flips[..1], &[]] {
                n.evaluate_batch_with(&inputs, flip_set, &mut scratch, &mut out);
                for (lane, &f) in flip_set.iter().enumerate() {
                    assert_eq!(out.output(0, lane), n.evaluate_flipped(&inputs, f)[0]);
                }
                assert_eq!(out.golden(0), n.evaluate(&inputs)[0]);
            }
        }
    }

    #[test]
    fn one_scratch_serves_netlists_of_different_sizes() {
        let big = half_adder();
        let mut small = Netlist::new(1);
        let a = small.push(Gate::Input { word: 0, bit: 0 });
        let inv = small.push(Gate::Not(a));
        small.add_output(vec![inv]);

        let mut scratch = EvalScratch::new();
        let mut out = BatchResult::default();
        big.evaluate_batch_with(&[1, 1], &big.injectable_nodes(), &mut scratch, &mut out);
        assert_eq!(out.golden(0), 0b10);
        small.evaluate_batch_with(&[1], &[inv], &mut scratch, &mut out);
        assert_eq!(out.golden(0), 0);
        assert_eq!(out.output(0, 0), 1, "flipping the inverter restores 1");
    }

    #[test]
    fn inputs_and_constants_are_not_injectable() {
        let n = half_adder();
        assert_eq!(n.injectable_nodes(), vec![2, 3]);
    }

    #[test]
    fn ff_is_transparent_but_counted() {
        let mut n = Netlist::new(1);
        let a = n.push(Gate::Input { word: 0, bit: 0 });
        let f = n.push(Gate::Ff(a));
        n.add_output(vec![f]);
        assert_eq!(n.evaluate(&[1])[0], 1);
        assert_eq!(n.flip_flop_count(), 1);
        assert_eq!(n.evaluate_flipped(&[1], 1)[0], 0);
    }
}
