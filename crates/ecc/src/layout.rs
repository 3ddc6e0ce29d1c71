//! Register-file codeword layout analysis (Figs. 6–7 of the paper).
//!
//! GPU vector register files are built from wide SRAMs that store several
//! codewords per physical row. The SEC-DP organization has one weakness:
//! double-bit *storage* errors that hit a data bit and a check bit of the
//! same codeword can miscorrect. Because spatially-correlated upsets strike
//! physically adjacent cells, the holes can be closed by laying codewords out
//! so that no data bit of a word is ever adjacent to one of its own check
//! bits. This module models three layouts and evaluates the SEC-DP outcome
//! of every adjacent double-bit upset:
//!
//! * [`RowLayout::contiguous`] — a 156-bit-wide SRAM storing each word's
//!   data, check and parity bits side by side (the problematic layout);
//! * [`RowLayout::split_srams`] — Fig. 6: 128-bit data SRAM plus a separate
//!   ECC SRAM (whose internal fragmentation also donates the free
//!   SEC-DED-DP parity bit);
//! * [`RowLayout::interleaved`] — Fig. 7: data and check bits of the four
//!   words spaced so that adjacent cells always belong to different words.

use crate::report::{DpWord, SecDp};
use crate::{parity32, SystematicCode};

/// Role of one physical bit cell within a register-file row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitRole {
    /// Data bit `bit` of word `word`.
    Data {
        /// Which of the row's codewords this cell belongs to.
        word: u8,
        /// Bit index within the word's 32-bit data segment.
        bit: u8,
    },
    /// Check bit `bit` of word `word`.
    Check {
        /// Which of the row's codewords this cell belongs to.
        word: u8,
        /// Bit index within the word's check segment.
        bit: u8,
    },
    /// Data-parity bit of word `word` (DP schemes).
    Parity {
        /// Which of the row's codewords this cell belongs to.
        word: u8,
    },
    /// Unused filler (internal fragmentation).
    Unused,
}

/// A physical row layout: an ordered list of bit cells. Adjacency in the
/// vector models physical adjacency in the SRAM.
#[derive(Debug, Clone)]
pub struct RowLayout {
    cells: Vec<BitRole>,
    words: u8,
    check_width: u8,
}

impl RowLayout {
    /// Each word's 39 bits (32 data + 6 check + 1 parity for SEC-DP) stored
    /// contiguously in one 156-bit row.
    #[must_use]
    pub fn contiguous(words: u8, check_width: u8) -> Self {
        let mut cells = Vec::new();
        for w in 0..words {
            for b in 0..32 {
                cells.push(BitRole::Data { word: w, bit: b });
            }
            for b in 0..check_width {
                cells.push(BitRole::Check { word: w, bit: b });
            }
            cells.push(BitRole::Parity { word: w });
        }
        Self {
            cells,
            words,
            check_width,
        }
    }

    /// Fig. 6: the data bits live in a 128-bit data SRAM and the check +
    /// parity bits in a separate ECC SRAM (concatenated here with a gap of
    /// unused fragmentation bits, which breaks physical adjacency between
    /// the SRAMs).
    #[must_use]
    pub fn split_srams(words: u8, check_width: u8) -> Self {
        let mut cells = Vec::new();
        for w in 0..words {
            for b in 0..32 {
                cells.push(BitRole::Data { word: w, bit: b });
            }
        }
        // The two arrays are physically disjoint; model the gap explicitly.
        for _ in 0..4 {
            cells.push(BitRole::Unused);
        }
        for w in 0..words {
            for b in 0..check_width {
                cells.push(BitRole::Check { word: w, bit: b });
            }
            cells.push(BitRole::Parity { word: w });
        }
        Self {
            cells,
            words,
            check_width,
        }
    }

    /// Fig. 7: bit-interleave the words so adjacent cells always belong to
    /// different codewords (`D0 D1 D2 D3 D0 D1 ... C0 C1 C2 C3 ...`).
    #[must_use]
    pub fn interleaved(words: u8, check_width: u8) -> Self {
        let mut cells = Vec::new();
        for b in 0..32 {
            for w in 0..words {
                cells.push(BitRole::Data { word: w, bit: b });
            }
        }
        for b in 0..check_width {
            for w in 0..words {
                cells.push(BitRole::Check { word: w, bit: b });
            }
        }
        for w in 0..words {
            cells.push(BitRole::Parity { word: w });
        }
        Self {
            cells,
            words,
            check_width,
        }
    }

    /// The physical row width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    /// The cells of the row, in physical order.
    #[must_use]
    pub fn cells(&self) -> &[BitRole] {
        &self.cells
    }

    /// Number of adjacent cell pairs whose two bits are a data bit and a
    /// check/parity bit *of the same codeword* — the SEC-DP-problematic
    /// pattern.
    #[must_use]
    pub fn problematic_adjacent_pairs(&self) -> usize {
        self.adjacent_pairs()
            .filter(|&(a, b)| is_problematic(a, b))
            .count()
    }

    fn adjacent_pairs(&self) -> impl Iterator<Item = (BitRole, BitRole)> + '_ {
        self.cells.windows(2).map(|w| (w[0], w[1]))
    }

    /// Evaluate the outcome of every adjacent double-bit upset under SEC-DP,
    /// for the given data values stored in the row's words.
    ///
    /// # Panics
    ///
    /// Panics if `values` has fewer entries than the layout has words.
    #[must_use]
    pub fn evaluate_sec_dp(&self, values: &[u32]) -> LayoutReport {
        assert!(values.len() >= usize::from(self.words));
        assert_eq!(
            u32::from(self.check_width),
            6,
            "SEC-DP evaluation expects a 6-bit SEC code"
        );
        let rep = SecDp::new_sec_dp();
        let mut report = LayoutReport::default();
        for pair in self.cells.windows(2) {
            report.total_pairs += 1;
            let (a, b) = (pair[0], pair[1]);
            if is_problematic(a, b) {
                report.same_word_data_check_pairs += 1;
            }
            // Build the four stored words, flip the two cells, decode each.
            let mut words: Vec<DpWord> = values
                .iter()
                .take(usize::from(self.words))
                .map(|&v| DpWord {
                    data: v,
                    check: rep.code().encode(v),
                    data_parity: parity32(v),
                })
                .collect();
            for &cell in &[a, b] {
                match cell {
                    BitRole::Data { word, bit } => {
                        words[usize::from(word)].data ^= 1 << bit;
                    }
                    BitRole::Check { word, bit } => {
                        words[usize::from(word)].check ^= 1 << bit;
                    }
                    BitRole::Parity { word } => {
                        let w = &mut words[usize::from(word)];
                        w.data_parity = !w.data_parity;
                    }
                    BitRole::Unused => {}
                }
            }
            let mut silent = false;
            for (i, w) in words.iter().enumerate() {
                let r = rep.read(*w);
                let golden = values[i];
                if !r.event.is_due() && r.value != golden {
                    silent = true;
                }
            }
            if silent {
                report.silent_corruptions += 1;
            }
        }
        report
    }
}

fn is_problematic(a: BitRole, b: BitRole) -> bool {
    let word_of = |r: BitRole| match r {
        BitRole::Data { word, .. } | BitRole::Check { word, .. } | BitRole::Parity { word } => {
            Some(word)
        }
        BitRole::Unused => None,
    };
    let is_data = |r: BitRole| matches!(r, BitRole::Data { .. });
    match (word_of(a), word_of(b)) {
        (Some(wa), Some(wb)) if wa == wb => is_data(a) != is_data(b),
        _ => false,
    }
}

/// Outcome summary of an adjacent-double-bit upset sweep over one layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutReport {
    /// Number of adjacent cell pairs swept.
    pub total_pairs: usize,
    /// Pairs hitting a data bit and a check/parity bit of the same word.
    pub same_word_data_check_pairs: usize,
    /// Pairs whose upset produced silent data corruption under SEC-DP.
    pub silent_corruptions: usize,
}

impl LayoutReport {
    /// Fraction of adjacent double-bit upsets that silently corrupt data.
    #[must_use]
    pub fn sdc_fraction(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.silent_corruptions as f64 / self.total_pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUES: [u32; 4] = [0xDEAD_BEEF, 0x0123_4567, 0xFFFF_0000, 0x5A5A_A5A5];

    #[test]
    fn contiguous_layout_has_problematic_pairs() {
        let layout = RowLayout::contiguous(4, 6);
        assert_eq!(layout.width(), 4 * 39);
        assert!(layout.problematic_adjacent_pairs() > 0);
    }

    #[test]
    fn interleaved_layout_has_no_problematic_pairs() {
        let layout = RowLayout::interleaved(4, 6);
        assert_eq!(layout.problematic_adjacent_pairs(), 0);
    }

    #[test]
    fn split_srams_have_no_data_check_adjacency_across_arrays() {
        let layout = RowLayout::split_srams(4, 6);
        // Within the ECC SRAM, a word's check bits sit next to its own
        // parity bit; those pairs are data-free and harmless, but the
        // data/check boundary is separated by the fragmentation gap.
        let data_check = layout
            .cells()
            .windows(2)
            .filter(|w| {
                matches!(
                    (w[0], w[1]),
                    (BitRole::Data { .. }, BitRole::Check { .. })
                        | (BitRole::Check { .. }, BitRole::Data { .. })
                )
            })
            .count();
        assert_eq!(data_check, 0);
    }

    #[test]
    fn interleaving_closes_the_sec_dp_holes() {
        let bad = RowLayout::contiguous(4, 6).evaluate_sec_dp(&VALUES);
        let good = RowLayout::interleaved(4, 6).evaluate_sec_dp(&VALUES);
        assert_eq!(
            good.silent_corruptions, 0,
            "interleaved layout must have zero SDC under adjacent doubles"
        );
        // The contiguous layout is expected to have at least one hole for
        // some data value; sweep a few patterns to find one.
        let mut found = bad.silent_corruptions > 0;
        for seed in 0..16u32 {
            let vals = [
                seed.wrapping_mul(0x9E37_79B9),
                !seed,
                seed ^ 0x0F0F_0F0F,
                seed.rotate_left(7),
            ];
            if RowLayout::contiguous(4, 6)
                .evaluate_sec_dp(&vals)
                .silent_corruptions
                > 0
            {
                found = true;
                break;
            }
        }
        assert!(found, "contiguous layout unexpectedly hole-free");
    }

    #[test]
    fn fig6_organization_fits_dp_bit_in_fragmentation() {
        // 128b ECC SRAM row, 4 words * (7 SEC-DED + 1 DP) = 32 bits per 16
        // threads' worth of fragmentation: 4 * 8 <= 128 - 4 * 24. The check
        // here is the simple arithmetic the paper quotes: a 128b-wide ECC
        // SRAM serving 16 threads' 7b check-bits has 128 - 16*7 = 16 spare
        // bits, room for 16 one-bit data parities.
        let spare = 128 - 16 * 7;
        assert_eq!(spare, 16);
    }
}
