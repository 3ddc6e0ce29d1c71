//! Flattened gate-level netlists with bit-parallel evaluation and transient
//! fault injection.

/// Index of a node (gate, flip-flop, input or constant) within a [`Netlist`].
pub type NodeId = u32;

/// One node of a netlist. Inputs reference earlier nodes only, so the vector
/// order is a topological order and evaluation is a single forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default)]
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
        self.evaluate_broadcast(inputs, &[])
    }

    /// Evaluate with a single transient fault: node `flip`'s output is
    /// inverted for this evaluation.
    #[must_use]
    pub fn evaluate_flipped(&self, inputs: &[u64], flip: NodeId) -> Vec<u64> {
        self.evaluate_broadcast(inputs, &[(flip, u64::MAX)])
    }

    /// Evaluate 64 independent experiments in one pass, one per bit lane of
    /// every node value.
    ///
    /// Lanes read their primary inputs from bit planes: `planes[word][bit]`
    /// is the mask of lanes whose input word `word` has bit `bit` set
    /// ([`transpose64`] turns 64 per-lane words into one word's planes).
    /// Each `(node, mask)` of `flips` inverts `node`'s output in the lanes
    /// of `mask`; two flips on one node OR their masks. On return,
    /// `out[w][lane]` is output word `w` as lane `lane` computed it.
    ///
    /// Node values and flip masks live in `scratch`, which serves netlists
    /// of any size and is reused without per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `planes` does not supply every input word, if `out` does
    /// not hold one entry per output word, or if an output word is wider
    /// than 64 bits.
    pub fn evaluate_lanes(
        &self,
        planes: &[[u64; 64]],
        flips: &[(NodeId, u64)],
        scratch: &mut EvalScratch,
        out: &mut [[u64; 64]],
    ) {
        assert_eq!(
            planes.len(),
            usize::from(self.input_words),
            "wrong number of input words"
        );
        assert_eq!(
            out.len(),
            self.outputs.len(),
            "one lane buffer per output word"
        );
        scratch.ensure_capacity(self.nodes.len());
        for &(node, mask) in flips {
            scratch.flip_mask[node as usize] |= mask;
        }
        let v = &mut scratch.values;
        for (i, gate) in self.nodes.iter().enumerate() {
            let val = match *gate {
                Gate::Input { word, bit } => planes[usize::from(word)][usize::from(bit)],
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
        // Sparse reset: `flips` is exactly the dirty set, so the flip-mask
        // buffer is all zeros again without re-zeroing it.
        for &(node, _) in flips {
            scratch.flip_mask[node as usize] = 0;
        }
        for (bits, lanes) in self.outputs.iter().zip(out.iter_mut()) {
            assert!(bits.len() <= 64, "output words are at most 64 bits");
            // Row `pos` holds output bit `pos` of every lane; transposed,
            // row `lane` is that lane's output word.
            *lanes = [0; 64];
            for (row, &bit_node) in lanes.iter_mut().zip(bits) {
                *row = v[bit_node as usize];
            }
            transpose64(lanes);
        }
    }

    /// Run one experiment in every lane (broadcast planes) and read lane 0.
    fn evaluate_broadcast(&self, inputs: &[u64], flips: &[(NodeId, u64)]) -> Vec<u64> {
        let planes: Vec<[u64; 64]> = inputs
            .iter()
            .map(|&word| std::array::from_fn(|bit| if word >> bit & 1 != 0 { u64::MAX } else { 0 }))
            .collect();
        let mut out = vec![[0u64; 64]; self.outputs.len()];
        self.evaluate_lanes(&planes, flips, &mut EvalScratch::new(), &mut out);
        out.iter().map(|lanes| lanes[0]).collect()
    }
}

/// Transpose a 64×64 bit matrix in place: bit `c` of row `r` moves to bit
/// `r` of row `c`. Each round swaps the off-diagonal `j`×`j` blocks of
/// every `2j`×`2j` block, halving `j` from 32 to 1.
///
/// With row = lane, 64 per-lane input words become the bit planes
/// [`Netlist::evaluate_lanes`] reads; the evaluator uses it the other way
/// round to return per-lane output words.
pub fn transpose64(m: &mut [u64; 64]) {
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

/// Reusable evaluation buffers for [`Netlist::evaluate_lanes`].
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

    /// Bit planes of a two-word input where lane `l` reads `a = l & 1` and
    /// `b = l >> 1 & 1`.
    fn half_adder_planes() -> Vec<[u64; 64]> {
        (0..2)
            .map(|word| {
                let mut rows: [u64; 64] = std::array::from_fn(|lane| (lane as u64) >> word & 1);
                transpose64(&mut rows);
                rows
            })
            .collect()
    }

    #[test]
    fn lanes_match_individual_injections() {
        let n = half_adder();
        let planes = half_adder_planes();
        let lane_inputs = |lane: usize| [lane as u64 & 1, lane as u64 >> 1 & 1];
        // Lanes 0-3 run clean; lanes 4.. flip the sum or the carry, and
        // lanes 8-15 are flipped by two OR-ed entries on one node.
        let sum_lanes = 0x5555_5555_5555_5550u64;
        let carry_lanes = 0xAAAA_AAAA_AAAA_AAA0u64;
        let flip_sets: [&[(NodeId, u64)]; 3] = [
            &[(2, sum_lanes), (3, carry_lanes)],
            &[(2, sum_lanes & 0xFF00), (3, carry_lanes), (2, sum_lanes)],
            &[],
        ];

        // One scratch across flip sets: the sparse flip-mask reset must
        // leave no residue between calls.
        let mut scratch = EvalScratch::new();
        let mut out = [[0u64; 64]];
        for flips in flip_sets {
            n.evaluate_lanes(&planes, flips, &mut scratch, &mut out);
            for (lane, &got) in out[0].iter().enumerate() {
                let flipped = flips
                    .iter()
                    .find(|&&(_, mask)| mask >> lane & 1 != 0)
                    .map(|&(node, _)| node);
                let want = match flipped {
                    Some(node) => n.evaluate_flipped(&lane_inputs(lane), node)[0],
                    None => n.evaluate(&lane_inputs(lane))[0],
                };
                assert_eq!(got, want, "lane {lane}, flips {flips:?}");
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
        let mut out = [[0u64; 64]];
        big.evaluate_lanes(&half_adder_planes(), &[(3, 1 << 5)], &mut scratch, &mut out);
        assert_eq!(out[0][3], 0b10, "lane 3 adds 1 + 1");
        assert_eq!(out[0][5], 0b11, "lane 5 adds 1 + 0 with the carry flipped");
        small.evaluate_lanes(&[[u64::MAX; 64]], &[(inv, 1)], &mut scratch, &mut out);
        assert_eq!(out[0][0], 1, "flipping the inverter restores 1");
        assert_eq!(out[0][1], 0);
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
