//! Structural circuit builder: elaborates datapath descriptions into
//! gate-level [`Netlist`]s.

use crate::netlist::{Gate, Netlist, NodeId};

/// A bit-vector of wires, LSB first.
#[derive(Debug, Clone)]
pub struct Bv {
    bits: Vec<NodeId>,
}

impl Bv {
    /// Wrap a list of wires (LSB first).
    #[must_use]
    pub fn from_bits(bits: Vec<NodeId>) -> Self {
        Self { bits }
    }

    /// Width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Wire of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bit(&self, i: usize) -> NodeId {
        self.bits[i]
    }

    /// The most significant bit.
    ///
    /// # Panics
    ///
    /// Panics on an empty vector.
    #[must_use]
    pub fn msb(&self) -> NodeId {
        *self.bits.last().expect("empty bit-vector")
    }

    /// Bits `lo..hi` (half-open) as a new vector.
    #[must_use]
    pub fn slice(&self, lo: usize, hi: usize) -> Bv {
        Bv::from_bits(self.bits[lo..hi].to_vec())
    }

    /// Concatenate `self` (low part) with `high`.
    #[must_use]
    pub fn concat(&self, high: &Bv) -> Bv {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&high.bits);
        Bv::from_bits(bits)
    }

    /// The underlying wires, LSB first.
    #[must_use]
    pub fn bits(&self) -> &[NodeId] {
        &self.bits
    }
}

/// Builds a [`Netlist`] from structural datapath primitives.
///
/// All primitives elaborate to 1/2-input gates, muxes and flip-flops, so the
/// resulting netlists are meaningful targets for single-node transient fault
/// injection and NAND2-equivalent area accounting.
#[derive(Debug)]
pub struct CircuitBuilder {
    net: Netlist,
    zero: NodeId,
    one: NodeId,
}

impl CircuitBuilder {
    /// Create a builder for a circuit with `input_words` primary inputs.
    #[must_use]
    pub fn new(input_words: u16) -> Self {
        let mut net = Netlist::new(input_words);
        let zero = net.push(Gate::Const(false));
        let one = net.push(Gate::Const(true));
        Self { net, zero, one }
    }

    /// Finish construction and return the netlist.
    #[must_use]
    pub fn finish(self) -> Netlist {
        self.net
    }

    /// Constant 0 wire.
    #[must_use]
    pub fn zero(&self) -> NodeId {
        self.zero
    }

    /// Constant 1 wire.
    #[must_use]
    pub fn one(&self) -> NodeId {
        self.one
    }

    /// Declare input word `word` with `width` bits.
    pub fn input(&mut self, word: u16, width: usize) -> Bv {
        let bits = (0..width)
            .map(|bit| {
                self.net.push(Gate::Input {
                    word,
                    bit: u8::try_from(bit).expect("input word wider than 64 bits"),
                })
            })
            .collect();
        Bv::from_bits(bits)
    }

    /// A `width`-bit constant (bits above 63 are zero).
    pub fn constant(&mut self, value: u64, width: usize) -> Bv {
        let bits = (0..width)
            .map(|i| {
                if i < 64 && value >> i & 1 != 0 {
                    self.one
                } else {
                    self.zero
                }
            })
            .collect();
        Bv::from_bits(bits)
    }

    /// Register an output word.
    pub fn output(&mut self, bv: &Bv) -> usize {
        self.net.add_output(bv.bits.clone())
    }

    // ---- bit-level primitives -------------------------------------------

    /// Inverter.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.net.push(Gate::Not(a))
    }

    /// 2-input AND.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.net.push(Gate::And(a, b))
    }

    /// 2-input OR.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.net.push(Gate::Or(a, b))
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.net.push(Gate::Xor(a, b))
    }

    /// 2-input XNOR.
    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.net.push(Gate::Xnor(a, b))
    }

    /// 2:1 mux (`s ? a : b`).
    pub fn mux(&mut self, s: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.net.push(Gate::Mux { s, a, b })
    }

    /// Pipeline flip-flop on one wire.
    pub fn ff(&mut self, a: NodeId) -> NodeId {
        self.net.push(Gate::Ff(a))
    }

    // ---- vector logic ----------------------------------------------------

    /// Bitwise NOT.
    pub fn bv_not(&mut self, a: &Bv) -> Bv {
        let bits = a.bits.iter().map(|&x| self.not(x)).collect();
        Bv::from_bits(bits)
    }

    /// AND every bit of `a` with the single wire `s` (operand gating).
    pub fn bv_gate(&mut self, a: &Bv, s: NodeId) -> Bv {
        let bits = a.bits.iter().map(|&x| self.and(x, s)).collect();
        Bv::from_bits(bits)
    }

    /// Per-bit 2:1 mux between equal-width vectors.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn bv_mux(&mut self, s: NodeId, a: &Bv, b: &Bv) -> Bv {
        assert_eq!(a.width(), b.width(), "mux width mismatch");
        let bits = a
            .bits
            .iter()
            .zip(&b.bits)
            .map(|(&x, &y)| self.mux(s, x, y))
            .collect();
        Bv::from_bits(bits)
    }

    /// Zero-extend to `width`.
    pub fn zext(&mut self, a: &Bv, width: usize) -> Bv {
        let mut bits = a.bits.clone();
        while bits.len() < width {
            bits.push(self.zero);
        }
        Bv::from_bits(bits)
    }

    /// Pipeline register over a whole vector.
    pub fn register(&mut self, a: &Bv) -> Bv {
        let bits = a.bits.iter().map(|&x| self.ff(x)).collect();
        Bv::from_bits(bits)
    }

    /// OR-reduce: 1 iff any bit set.
    pub fn reduce_or(&mut self, a: &Bv) -> NodeId {
        self.reduce(a, Gate::Or)
    }

    /// AND-reduce: 1 iff all bits set.
    pub fn reduce_and(&mut self, a: &Bv) -> NodeId {
        self.reduce(a, Gate::And)
    }

    /// XOR-reduce (parity).
    pub fn reduce_xor(&mut self, a: &Bv) -> NodeId {
        self.reduce(a, Gate::Xor)
    }

    /// Equality comparator.
    pub fn eq(&mut self, a: &Bv, b: &Bv) -> NodeId {
        let x = self.zip2(a, b, Gate::Xnor);
        self.reduce_and(&x)
    }

    /// 1 iff `a == 0`.
    pub fn is_zero(&mut self, a: &Bv) -> NodeId {
        let any = self.reduce_or(a);
        self.not(any)
    }

    // ---- arithmetic -------------------------------------------------------

    /// Kogge–Stone parallel-prefix adder. Returns `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add(&mut self, a: &Bv, b: &Bv, carry_in: NodeId) -> (Bv, NodeId) {
        assert_eq!(a.width(), b.width(), "adder width mismatch");
        let n = a.width();
        // Level 0 generate/propagate.
        let mut g: Vec<NodeId> = Vec::with_capacity(n);
        let mut p: Vec<NodeId> = Vec::with_capacity(n);
        for i in 0..n {
            g.push(self.and(a.bits[i], b.bits[i]));
            p.push(self.xor(a.bits[i], b.bits[i]));
        }
        let p0 = p.clone();
        // Fold the carry-in into bit 0: g0' = g0 | (p0 & cin).
        if carry_in != self.zero {
            let t = self.and(p[0], carry_in);
            g[0] = self.or(g[0], t);
        }
        // Prefix tree: after the last level, g[i] is the carry out of bit i.
        let mut dist = 1;
        while dist < n {
            let (mut ng, mut np) = (g.clone(), p.clone());
            for i in dist..n {
                let t = self.and(p[i], g[i - dist]);
                ng[i] = self.or(g[i], t);
                np[i] = self.and(p[i], p[i - dist]);
            }
            g = ng;
            p = np;
            dist *= 2;
        }
        // sum_i = p0_i ^ carry_{i-1}.
        let mut sum = Vec::with_capacity(n);
        sum.push(self.xor(p0[0], carry_in));
        for i in 1..n {
            sum.push(self.xor(p0[i], g[i - 1]));
        }
        (Bv::from_bits(sum), g[n - 1])
    }

    /// Ripple-carry adder: the minimal-area, maximal-depth alternative to
    /// [`CircuitBuilder::add`], used by the adder-architecture ablation.
    /// Returns `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn ripple_add(&mut self, a: &Bv, b: &Bv, carry_in: NodeId) -> (Bv, NodeId) {
        assert_eq!(a.width(), b.width(), "adder width mismatch");
        let mut carry = carry_in;
        let mut sum = Vec::with_capacity(a.width());
        for i in 0..a.width() {
            let (x, y) = (a.bit(i), b.bit(i));
            let p = self.xor(x, y);
            sum.push(self.xor(p, carry));
            let g = self.and(x, y);
            let t = self.and(p, carry);
            carry = self.or(g, t);
        }
        (Bv::from_bits(sum), carry)
    }

    /// Two's-complement subtraction `a - b`. Returns `(difference,
    /// no_borrow)`; `no_borrow == 1` iff `a >= b` (unsigned).
    pub fn sub(&mut self, a: &Bv, b: &Bv) -> (Bv, NodeId) {
        let nb = self.bv_not(b);
        self.add(a, &nb, self.one)
    }

    /// Unsigned `a < b`.
    pub fn lt(&mut self, a: &Bv, b: &Bv) -> NodeId {
        let (_, no_borrow) = self.sub(a, b);
        self.not(no_borrow)
    }

    /// Carry-save adder (3:2 compressor) over three equal-width vectors.
    /// Returns `(sum, carry)` with carry NOT yet shifted left.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn csa(&mut self, a: &Bv, b: &Bv, c: &Bv) -> (Bv, Bv) {
        assert!(a.width() == b.width() && b.width() == c.width());
        let mut sum = Vec::with_capacity(a.width());
        let mut carry = Vec::with_capacity(a.width());
        for i in 0..a.width() {
            let ab = self.xor(a.bits[i], b.bits[i]);
            sum.push(self.xor(ab, c.bits[i]));
            let t1 = self.and(a.bits[i], b.bits[i]);
            let t2 = self.and(ab, c.bits[i]);
            carry.push(self.or(t1, t2));
        }
        (Bv::from_bits(sum), Bv::from_bits(carry))
    }

    /// Shift left by a constant, keeping `width` bits (zero fill).
    pub fn shl_const(&mut self, a: &Bv, k: usize, width: usize) -> Bv {
        let mut bits = vec![self.zero; k.min(width)];
        for i in 0..width.saturating_sub(k) {
            bits.push(if i < a.width() { a.bits[i] } else { self.zero });
        }
        bits.truncate(width);
        while bits.len() < width {
            bits.push(self.zero);
        }
        Bv::from_bits(bits)
    }

    /// Unsigned multiplier via AND-array partial products and a Wallace
    /// (CSA) reduction tree plus a final Kogge–Stone adder.
    /// The result has `a.width() + b.width()` bits.
    pub fn mul(&mut self, a: &Bv, b: &Bv) -> Bv {
        let w = a.width() + b.width();
        // Partial products, each zero-extended to the result width.
        let mut rows: Vec<Bv> = Vec::with_capacity(b.width());
        for (i, &bb) in b.bits.iter().enumerate() {
            let gated = self.bv_gate(a, bb);
            let wide = self.zext(&gated, w);
            rows.push(self.shl_const(&wide, i, w));
        }
        self.reduce_rows(rows, w)
    }

    /// Reduce a set of addend rows to one sum with a CSA tree + final adder.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn reduce_rows(&mut self, mut rows: Vec<Bv>, w: usize) -> Bv {
        assert!(!rows.is_empty());
        for r in &mut rows {
            *r = self.zext(r, w);
        }
        while rows.len() > 2 {
            let mut next = Vec::with_capacity(rows.len() * 2 / 3 + 1);
            let mut it = rows.chunks(3);
            for chunk in &mut it {
                match chunk {
                    [a, b, c] => {
                        let (s, carry) = self.csa(&a.clone(), &b.clone(), &c.clone());
                        next.push(s);
                        next.push(self.shl_const(&carry, 1, w));
                    }
                    rest => next.extend(rest.iter().cloned()),
                }
            }
            rows = next;
        }
        if rows.len() == 1 {
            return rows.pop().expect("non-empty");
        }
        let (a, b) = (rows[0].clone(), rows[1].clone());
        let (sum, _) = self.add(&a, &b, self.zero);
        sum
    }

    /// Logical right barrel shifter with sticky collection: returns
    /// `(a >> sh, sticky)` where `sticky` ORs every bit shifted out.
    pub fn shr_var_sticky(&mut self, a: &Bv, sh: &Bv) -> (Bv, NodeId) {
        let n = a.width();
        let mut cur = a.clone();
        let mut sticky = self.zero;
        for (j, &sbit) in sh.bits.iter().enumerate() {
            let k = 1usize << j;
            if k >= n {
                // Shifting by >= width: everything goes to sticky if enabled.
                let any = self.reduce_or(&cur);
                let lost = self.and(any, sbit);
                sticky = self.or(sticky, lost);
                let zeroes = self.constant(0, n);
                cur = self.bv_mux(sbit, &zeroes, &cur);
                continue;
            }
            // Bits that fall off this stage.
            let falling = cur.slice(0, k);
            let any = self.reduce_or(&falling);
            let lost = self.and(any, sbit);
            sticky = self.or(sticky, lost);
            // Shifted version.
            let mut bits = cur.bits[k..].to_vec();
            while bits.len() < n {
                bits.push(self.zero);
            }
            let shifted = Bv::from_bits(bits);
            cur = self.bv_mux(sbit, &shifted, &cur);
        }
        (cur, sticky)
    }

    /// Logical left barrel shifter (zero fill), fixed width.
    pub fn shl_var(&mut self, a: &Bv, sh: &Bv) -> Bv {
        let n = a.width();
        let mut cur = a.clone();
        for (j, &sbit) in sh.bits.iter().enumerate() {
            let k = 1usize << j;
            let shifted = if k >= n {
                self.constant(0, n)
            } else {
                self.shl_const(&cur, k, n)
            };
            cur = self.bv_mux(sbit, &shifted, &cur);
        }
        cur
    }

    /// Leading-zero counter: returns a `ceil(log2(n+1))`-bit count of the
    /// zeros above the most significant set bit (`n` when `a == 0`).
    pub fn lzc(&mut self, a: &Bv) -> Bv {
        let n = a.width();
        // found[i] = bit (n-1-i) is the first set bit from the top.
        let mut none_above = self.one;
        let mut found: Vec<NodeId> = Vec::with_capacity(n + 1);
        for i in 0..n {
            let bit = a.bits[n - 1 - i];
            found.push(self.and(none_above, bit));
            let nb = self.not(bit);
            none_above = self.and(none_above, nb);
        }
        found.push(none_above); // all zero -> count = n
        let out_w = usize::BITS as usize - n.leading_zeros() as usize; // log2(n)+1
        let mut out = Vec::with_capacity(out_w);
        for k in 0..out_w {
            // OR of found[i] for every i with bit k set.
            let picks: Vec<NodeId> = (0..=n)
                .filter(|i| i >> k & 1 == 1)
                .map(|i| found[i])
                .collect();
            out.push(if picks.is_empty() {
                self.zero
            } else {
                self.reduce_or(&Bv::from_bits(picks))
            });
        }
        Bv::from_bits(out)
    }

    // ---- helpers -----------------------------------------------------------

    fn zip2(&mut self, a: &Bv, b: &Bv, make: fn(NodeId, NodeId) -> Gate) -> Bv {
        assert_eq!(a.width(), b.width(), "vector width mismatch");
        let bits = a
            .bits
            .iter()
            .zip(&b.bits)
            .map(|(&x, &y)| self.net.push(make(x, y)))
            .collect();
        Bv::from_bits(bits)
    }

    fn reduce(&mut self, a: &Bv, make: fn(NodeId, NodeId) -> Gate) -> NodeId {
        assert!(!a.bits.is_empty(), "reduction over empty vector");
        let mut level = a.bits.clone();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / 2 + 1);
            for pair in level.chunks(2) {
                match *pair {
                    [x, y] => next.push(self.net.push(make(x, y))),
                    [x] => next.push(x),
                    _ => unreachable!(),
                }
            }
            level = next;
        }
        level[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval2(f: impl FnOnce(&mut CircuitBuilder, &Bv, &Bv) -> Bv, a: u64, b: u64, w: usize) -> u64 {
        let mut cb = CircuitBuilder::new(2);
        let av = cb.input(0, w);
        let bv = cb.input(1, w);
        let out = f(&mut cb, &av, &bv);
        cb.output(&out);
        cb.finish().evaluate(&[a, b])[0]
    }

    #[test]
    fn kogge_stone_adds() {
        for (a, b) in [(0u64, 0u64), (1, 1), (0xFFFF_FFFF, 1), (12345, 67890)] {
            let got = eval2(
                |cb, x, y| {
                    let (s, _) = cb.add(x, y, cb.zero());
                    s
                },
                a,
                b,
                32,
            );
            assert_eq!(got, (a + b) & 0xFFFF_FFFF, "{a} + {b}");
        }
    }

    #[test]
    fn adder_carry_out() {
        let mut cb = CircuitBuilder::new(2);
        let a = cb.input(0, 8);
        let b = cb.input(1, 8);
        let (s, cout) = cb.add(&a, &b, cb.zero());
        cb.output(&s);
        cb.output(&Bv::from_bits(vec![cout]));
        let n = cb.finish();
        let r = n.evaluate(&[200, 100]);
        assert_eq!(r[0], (200 + 100) & 0xFF);
        assert_eq!(r[1], 1);
    }

    #[test]
    fn subtraction_and_compare() {
        let got = eval2(|cb, x, y| cb.sub(x, y).0, 100, 58, 16);
        assert_eq!(got, 42);
        let mut cb = CircuitBuilder::new(2);
        let a = cb.input(0, 16);
        let b = cb.input(1, 16);
        let lt = cb.lt(&a, &b);
        cb.output(&Bv::from_bits(vec![lt]));
        let n = cb.finish();
        assert_eq!(n.evaluate(&[3, 4])[0], 1);
        assert_eq!(n.evaluate(&[4, 3])[0], 0);
        assert_eq!(n.evaluate(&[4, 4])[0], 0);
    }

    #[test]
    fn multiplier_matches_native() {
        for (a, b) in [(0u64, 7u64), (255, 255), (0xABCD, 0x1234), (65535, 65535)] {
            let got = eval2(|cb, x, y| cb.mul(x, y), a, b, 16);
            assert_eq!(got, a * b, "{a} * {b}");
        }
    }

    #[test]
    fn barrel_shifter_with_sticky() {
        let mut cb = CircuitBuilder::new(2);
        let a = cb.input(0, 16);
        let sh = cb.input(1, 5);
        let (out, sticky) = cb.shr_var_sticky(&a, &sh);
        cb.output(&out);
        cb.output(&Bv::from_bits(vec![sticky]));
        let n = cb.finish();
        for (a, s) in [
            (0b1011_0000u64, 4u64),
            (0b1011_0001, 4),
            (1, 1),
            (0xFFFF, 16),
        ] {
            let r = n.evaluate(&[a, s]);
            assert_eq!(r[0], a >> s, "{a} >> {s}");
            let lost = a & ((1u64 << s.min(16)) - 1);
            assert_eq!(r[1], u64::from(lost != 0), "sticky of {a} >> {s}");
        }
    }

    #[test]
    fn left_shifter() {
        let mut cb = CircuitBuilder::new(2);
        let a = cb.input(0, 16);
        let sh = cb.input(1, 4);
        let out = cb.shl_var(&a, &sh);
        cb.output(&out);
        let n = cb.finish();
        for (a, s) in [(1u64, 0u64), (1, 15), (0x00FF, 4), (0xFFFF, 8)] {
            assert_eq!(n.evaluate(&[a, s])[0], (a << s) & 0xFFFF);
        }
    }

    #[test]
    fn leading_zero_counter() {
        let mut cb = CircuitBuilder::new(1);
        let a = cb.input(0, 24);
        let c = cb.lzc(&a);
        cb.output(&c);
        let n = cb.finish();
        for v in [0u64, 1, 0x0080_0000, 0x0040_0000, 0x0000_00F0, 0x00FF_FFFF] {
            let expect = u64::from(v.leading_zeros()) - 40; // 24-bit view
            assert_eq!(n.evaluate(&[v])[0], expect, "lzc({v:#x})");
        }
    }

    #[test]
    fn csa_preserves_sum() {
        let mut cb = CircuitBuilder::new(3);
        let a = cb.input(0, 12);
        let b = cb.input(1, 12);
        let c = cb.input(2, 12);
        let (s, carry) = cb.csa(&a, &b, &c);
        let shifted = cb.shl_const(&carry, 1, 12);
        let (total, _) = cb.add(&s, &shifted, cb.zero());
        cb.output(&total);
        let n = cb.finish();
        for (a, b, c) in [(1u64, 2u64, 3u64), (100, 200, 300), (0xFFF, 0xFFF, 0xFFF)] {
            assert_eq!(n.evaluate(&[a, b, c])[0], (a + b + c) & 0xFFF);
        }
    }

    #[test]
    fn reduce_rows_sums_many_operands() {
        let mut cb = CircuitBuilder::new(5);
        let rows: Vec<Bv> = (0..5).map(|i| cb.input(i, 8)).collect();
        let sum = cb.reduce_rows(rows, 11);
        cb.output(&sum);
        let n = cb.finish();
        let inputs = [10u64, 20, 30, 40, 250];
        assert_eq!(n.evaluate(&inputs)[0], 350);
    }
}
