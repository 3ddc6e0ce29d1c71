//! The ECC-protected vector register file.
//!
//! Every register physically stores its data segment alongside ECC check
//! bits (and, for the DP schemes, the data-parity bit). Original-instruction
//! writes fill the whole word; Swap-ECC shadow instructions perform a masked
//! write of only the check bits (Table II's data write enable); Swap-Predict
//! writes pair the datapath result with check bits formed by the prediction
//! pipeline. Every operand read runs the decoder, which is where SwapCodes
//! turns pipeline errors into DUEs.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::predecode::WriteMode;

use swapcodes_ecc::report::{DpWord, ReadEvent, SecDedDp, SecDp};
use swapcodes_ecc::swap::{self, SwappedWord};
use swapcodes_ecc::{parity32, AnyCode, CodeKind, RawDecode, SystematicCode};

/// Register-file protection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// No ECC (or ECC modelling disabled).
    None,
    /// A detection-only code: residue, parity, or SEC-DED-used-as-TED.
    DetectOnly(CodeKind),
    /// SEC-DED with the data-parity reporting algorithm (storage correction
    /// preserved, pipeline miscorrection impossible).
    SecDedDp,
    /// SEC + data parity within SEC-DED redundancy.
    SecDp,
}

/// What a protected register read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegFileEvent {
    /// Word decoded cleanly.
    Clean,
    /// A storage error was corrected (DP schemes only).
    Corrected,
    /// Detected-uncorrectable error; `pipeline_suspected` is set when the
    /// augmented reporting attributes it to a compute error.
    Due {
        /// Whether the Fig. 5 reporting attributed the error to the pipeline.
        pipeline_suspected: bool,
    },
}

impl RegFileEvent {
    /// Whether this read must raise a machine check.
    #[must_use]
    pub fn is_due(self) -> bool {
        matches!(self, RegFileEvent::Due { .. })
    }
}

/// One architectural register's 32 lanes, side by side: the unit a
/// register-major file stores and a column read or write moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Column {
    data: [u32; 32],
    check: [u16; 32],
    /// Data-parity bit of lane `l` at bit `l`.
    parity: u32,
}

#[derive(Clone)]
enum Decoder {
    None,
    Detect(AnyCode),
    SecDedDp(SecDedDp),
    SecDp(SecDp),
}

impl std::fmt::Debug for Decoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Decoder::None => "None",
            Decoder::Detect(_) => "Detect",
            Decoder::SecDedDp(_) => "SecDedDp",
            Decoder::SecDp(_) => "SecDp",
        };
        f.write_str(name)
    }
}

impl Decoder {
    /// Check bits of `value`.
    fn check(&self, value: u32) -> u16 {
        match self {
            Decoder::None => 0,
            Decoder::Detect(code) => code.encode(value),
            Decoder::SecDedDp(rep) => rep.code().encode(value),
            Decoder::SecDp(rep) => rep.code().encode(value),
        }
    }

    /// Check bits of the lanes in `mask` of `src`, into `out`; the code is
    /// matched once for the column.
    fn check_col(&self, mask: u32, src: &[u32; 32], out: &mut [u16; 32]) {
        #[inline(always)]
        fn each(mask: u32, src: &[u32; 32], out: &mut [u16; 32], enc: impl Fn(u32) -> u16) {
            for l in Lanes(mask) {
                out[l] = enc(src[l]);
            }
        }
        match self {
            // Unprotected words store zero check bits: clear the written
            // lanes in one blend instead of visiting them one by one.
            Decoder::None => blend(out, &[0; 32], mask),
            Decoder::Detect(code) => each(mask, src, out, |v| code.encode(v)),
            Decoder::SecDedDp(rep) => each(mask, src, out, |v| rep.code().encode(v)),
            Decoder::SecDp(rep) => each(mask, src, out, |v| rep.code().encode(v)),
        }
    }

    /// The stored data-parity bit of `value`: only the DP schemes store
    /// one; the others store 0.
    fn parity(&self, value: u32) -> bool {
        matches!(self, Decoder::SecDedDp(_) | Decoder::SecDp(_)) && parity32(value)
    }

    /// [`Self::parity`] of all 32 lanes of `src`, bit `l` for lane `l`.
    fn parity_col(&self, src: &[u32; 32]) -> u32 {
        match self {
            Decoder::None | Decoder::Detect(_) => 0,
            Decoder::SecDedDp(_) | Decoder::SecDp(_) => (0..32)
                .filter(|&l| parity32(src[l]))
                .fold(0, |bits, l| bits | 1 << l),
        }
    }

    /// The value and event a read of the stored word returns.
    fn decode(&self, data: u32, check: u16, parity: bool) -> (u32, RegFileEvent) {
        let word = DpWord {
            data,
            check,
            data_parity: parity,
        };
        match self {
            Decoder::None => (data, RegFileEvent::Clean),
            Decoder::Detect(code) => {
                if code.decode(data, check) == RawDecode::Clean {
                    (data, RegFileEvent::Clean)
                } else {
                    (
                        data,
                        RegFileEvent::Due {
                            pipeline_suspected: true,
                        },
                    )
                }
            }
            Decoder::SecDedDp(rep) => {
                let r = rep.read(word);
                (r.value, convert(r.event))
            }
            Decoder::SecDp(rep) => {
                let r = rep.read(word);
                (r.value, convert(r.event))
            }
        }
    }
}

/// The lanes set in a 32-bit mask, lowest first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes(pub(crate) u32);

impl Iterator for Lanes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }
}

/// Which lanes of one column read raised a DUE, and which of those the
/// Fig. 5 reporting attributed to the pipeline (bit `l` for lane `l`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DueLanes {
    /// Lanes whose read raised a DUE.
    pub due: u32,
    /// The subset with `pipeline_suspected` set.
    pub pipeline: u32,
}

/// The register file of one warp: 32 lanes x `regs` registers, each with
/// stored check bits, held register-major so one register's 32 lanes sit
/// next to each other. Cloning snapshots the full stored state (data,
/// check bits, parity and the armed flag) — the basis of warp-level
/// checkpoint/replay in [`crate::recovery`].
///
/// Two access paths reach the same words: per-lane reads and writes
/// ([`Self::read`], [`Self::write_full`] and the rest), which the reference
/// executor uses, and whole-column reads and writes ([`Self::read_col`],
/// [`Self::write_col`]), with which the campaign engine computes each
/// warp-instruction as one 32-lane column.
///
/// # Deferred encoding
///
/// While the file is unarmed, every stored word is a consistent codeword,
/// so the check segment is a pure function of the data segment
/// (`check == encode(data)`). The tier-2 engine exploits this: with
/// [`Self::set_deferred`] enabled, full writes store only the data segment
/// and mark the register dirty, and the codeword invariant is restored
/// lazily — by [`Self::flush_deferred`] at every point where check bits
/// become observable (epoch snapshot capture, golden-state comparison,
/// decoder arming) and inside ECC-only writes for the one register the
/// shadow compares against. Because flushing re-encodes from the stored
/// data, the restored word is bit-identical to what eager encoding would
/// have produced, so deferral is architecturally invisible.
#[derive(Debug, Clone)]
pub struct WarpRegFile {
    regs: u32,
    cols: Vec<Column>,
    decoder: Decoder,
    /// Fast path: when no fault has been injected the file cannot hold a
    /// non-codeword, so decode is skipped until the first raw write.
    armed: bool,
    /// Deferred-encode mode (tier-2 engine): full writes store only data
    /// and set a dirty bit instead of encoding check bits eagerly.
    deferred: bool,
    /// One bit per architectural register whose check bits are stale
    /// (all 32 lanes are re-encoded together on flush).
    dirty: Vec<u64>,
    /// One bit per architectural register written since the last
    /// [`Self::take_touched`] — the trial/epoch dirty-register superset the
    /// copy-on-write resume path compares against golden state (DESIGN §14).
    /// Deferred-dirty is always a subset of touched (a deferred write sets
    /// both), so lazy flushing never writes an untouched register.
    touched: Vec<u64>,
}

impl WarpRegFile {
    /// Create a zeroed register file for one warp.
    #[must_use]
    pub fn new(regs: u32, protection: Protection) -> Self {
        let decoder = match protection {
            Protection::None => Decoder::None,
            Protection::DetectOnly(kind) => Decoder::Detect(kind.build()),
            Protection::SecDedDp => Decoder::SecDedDp(SecDedDp::new_secded_dp()),
            Protection::SecDp => Decoder::SecDp(SecDp::new_sec_dp()),
        };
        // A zeroed word is a codeword for every supported code
        // (linear codes: encode(0) == 0; residue of 0 is 0).
        Self {
            regs,
            cols: vec![Column::default(); regs as usize],
            decoder,
            armed: false,
            deferred: false,
            dirty: vec![0; (regs as usize).div_ceil(64)],
            touched: vec![0; (regs as usize).div_ceil(64)],
        }
    }

    /// Number of registers per lane.
    #[must_use]
    pub fn regs(&self) -> u32 {
        self.regs
    }

    /// Bytes of stored register state: per register, 32 data words, 32
    /// check-bit words and a data-parity mask (196 bytes). What a
    /// copy-on-write materialization copies, bookkeeping bitmaps aside.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        (self.cols.len() * std::mem::size_of::<Column>()) as u64
    }

    #[inline]
    fn col(&self, reg: u8) -> &Column {
        debug_assert!(u32::from(reg) < self.regs, "R{reg} out of range");
        &self.cols[usize::from(reg)]
    }

    #[inline]
    fn col_mut(&mut self, reg: u8) -> &mut Column {
        debug_assert!(u32::from(reg) < self.regs, "R{reg} out of range");
        &mut self.cols[usize::from(reg)]
    }

    /// Enable or disable deferred encoding (see the type-level docs). A
    /// request to enable it on an armed file is ignored: once the decoder is
    /// armed every read inspects check bits, so they must stay eager.
    pub fn set_deferred(&mut self, on: bool) {
        self.deferred = on && !self.armed;
    }

    /// Whether any register currently holds stale (deferred) check bits.
    #[must_use]
    pub fn has_deferred(&self) -> bool {
        self.dirty.iter().any(|&w| w != 0)
    }

    /// Restore the codeword invariant for every dirty register by
    /// re-encoding the check segment from the stored data. While the file is
    /// unarmed this reproduces exactly the bits an eager write would have
    /// stored, so it is safe to call at any observation point.
    pub fn flush_deferred(&mut self) {
        for word in 0..self.dirty.len() {
            let mut bits = self.dirty[word];
            self.dirty[word] = 0;
            while bits != 0 {
                let reg = (word * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                self.reencode_lanes(reg as u8);
            }
        }
    }

    #[inline]
    fn touch(&mut self, reg: u8) {
        self.touched[usize::from(reg) >> 6] |= 1 << (reg & 63);
    }

    /// One bit per register written since the last [`Self::take_touched`].
    #[must_use]
    pub fn touched_bits(&self) -> &[u64] {
        &self.touched
    }

    /// Drain the touched-register bitmap, returning the old bits and
    /// resetting the tracker. Called at epoch capture so resumed trials
    /// start from a snapshot with an empty dirty superset.
    pub fn take_touched(&mut self) -> Vec<u64> {
        let fresh = vec![0; self.touched.len()];
        std::mem::replace(&mut self.touched, fresh)
    }

    #[inline]
    fn reg_dirty(&self, reg: u8) -> bool {
        self.dirty[usize::from(reg) >> 6] & (1 << (reg & 63)) != 0
    }

    /// Re-encode one register's check bits (all 32 lanes) from its stored
    /// data and clear its dirty bit.
    fn reencode_reg(&mut self, reg: u8) {
        self.dirty[usize::from(reg) >> 6] &= !(1 << (reg & 63));
        self.reencode_lanes(reg);
    }

    fn reencode_lanes(&mut self, reg: u8) {
        let Self { cols, decoder, .. } = self;
        let col = &mut cols[usize::from(reg)];
        decoder.check_col(u32::MAX, &col.data, &mut col.check);
        col.parity = decoder.parity_col(&col.data);
    }

    /// Leave the clean fast path: flush any deferred check bits first (they
    /// are about to become observable through the decoder), then disable
    /// deferral and start decoding on every read.
    fn arm(&mut self) {
        if self.has_deferred() {
            self.flush_deferred();
        }
        self.deferred = false;
        self.armed = true;
    }

    /// Restore the codeword invariant for `reg` before a write that stores
    /// (or compares against) its check bits, so a later flush cannot
    /// re-encode over the evidence.
    #[inline]
    fn settle(&mut self, reg: u8) {
        if self.reg_dirty(reg) {
            self.reencode_reg(reg);
        }
    }

    /// Store one word of `reg`.
    fn store(&mut self, lane: u32, reg: u8, data: u32, check: u16, parity: bool) {
        let col = self.col_mut(reg);
        let l = lane as usize;
        col.data[l] = data;
        col.check[l] = check;
        col.parity = col.parity & !(1 << l) | u32::from(parity) << l;
    }

    /// Full write by an original (or un-duplicated) instruction: data, check
    /// bits and data parity all from `value`. In deferred mode only the data
    /// segment is stored and the register is marked dirty; the check segment
    /// is re-encoded (to the identical bits) before any observer reads it.
    pub fn write_full(&mut self, lane: u32, reg: u8, value: u32) {
        debug_assert!(lane < 32);
        self.touch(reg);
        if self.deferred {
            self.col_mut(reg).data[lane as usize] = value;
            self.dirty[usize::from(reg) >> 6] |= 1 << (reg & 63);
            return;
        }
        let (check, parity) = (self.decoder.check(value), self.decoder.parity(value));
        self.store(lane, reg, value, check, parity);
    }

    /// Masked write by a Swap-ECC shadow instruction: only the check bits,
    /// computed from the shadow's own result.
    pub fn write_ecc_only(&mut self, lane: u32, reg: u8, shadow_value: u32) {
        self.touch(reg);
        // The shadow compares against this register's stored check bits:
        // restore the codeword invariant for it first.
        self.settle(reg);
        let check = self.decoder.check(shadow_value);
        let l = lane as usize;
        if self.col(reg).check[l] != check {
            // A disagreeing shadow means someone computed a wrong value —
            // leave the fast path so reads start decoding.
            self.arm();
        }
        self.col_mut(reg).check[l] = check;
    }

    /// Write by a Swap-Predict-covered instruction: the data comes from the
    /// (possibly faulty) datapath while the check bits come from the
    /// prediction pipeline operating on the input residues — i.e. from the
    /// fault-free `predicted_value`.
    pub fn write_predicted(&mut self, lane: u32, reg: u8, value: u32, predicted_value: u32) {
        self.touch(reg);
        self.settle(reg);
        // The data-parity bit is produced from the datapath output.
        let parity = self.decoder.parity(value);
        let check = self.decoder.check(predicted_value);
        self.store(lane, reg, value, check, parity);
        if value != predicted_value {
            self.arm();
        }
    }

    /// Write a value whose data may be faulty while the check segment
    /// reflects `check_source` (the swapped-codeword composition used when a
    /// fault is injected into an original instruction).
    pub fn write_split(&mut self, lane: u32, reg: u8, data: u32, check_source: u32) {
        self.touch(reg);
        self.settle(reg);
        let parity = self.decoder.parity(data);
        let check = self.decoder.check(check_source);
        self.store(lane, reg, data, check, parity);
        if data != check_source {
            self.arm();
        }
    }

    /// Write `vals` into register `reg` on the lanes in `mask`, through the
    /// path `mode` names: per lane exactly what [`Self::write_full`],
    /// [`Self::write_ecc_only`] or [`Self::write_predicted`] store, with the
    /// touched, dirty and arming bookkeeping done once for the column. An
    /// empty `mask` writes and touches nothing.
    ///
    /// `strike` names the one lane whose value a fault changed, with its
    /// fault-free value: a [`WriteMode::Predicted`] write takes that lane's
    /// check bits from the fault-free value, as the prediction pipeline
    /// does, and arms the decoder when the two differ.
    pub fn write_col(
        &mut self,
        mode: WriteMode,
        reg: u8,
        mask: u32,
        vals: &[u32; 32],
        strike: Option<(usize, u32)>,
    ) {
        if mask == 0 {
            return;
        }
        debug_assert!(u32::from(reg) < self.regs, "R{reg} out of range");
        debug_assert!(strike.is_none_or(|(l, _)| mask & 1 << l != 0));
        self.touch(reg);
        let r = usize::from(reg);
        match mode {
            WriteMode::Full => {
                let col = &mut self.cols[r];
                blend(&mut col.data, vals, mask);
                if self.deferred {
                    self.dirty[r >> 6] |= 1 << (r & 63);
                    return;
                }
                self.decoder.check_col(mask, vals, &mut col.check);
                col.parity = col.parity & !mask | self.decoder.parity_col(vals) & mask;
            }
            WriteMode::EccOnly => {
                self.settle(reg);
                let mut check = self.cols[r].check;
                self.decoder.check_col(mask, vals, &mut check);
                if check != self.cols[r].check {
                    // A disagreeing shadow lane: reads start decoding.
                    self.arm();
                }
                self.cols[r].check = check;
            }
            WriteMode::Predicted => {
                self.settle(reg);
                let col = &mut self.cols[r];
                blend(&mut col.data, vals, mask);
                self.decoder.check_col(mask, vals, &mut col.check);
                col.parity = col.parity & !mask | self.decoder.parity_col(vals) & mask;
                if let Some((l, golden)) = strike {
                    col.check[l] = self.decoder.check(golden);
                    if vals[l] != golden {
                        self.arm();
                    }
                }
            }
        }
    }

    /// Read a register through the decoder. Takes `&self`: reads never
    /// mutate stored state, which is what lets a copy-on-write resume share
    /// one base file across every trial resuming from the same rung.
    pub fn read(&self, lane: u32, reg: u8) -> (u32, RegFileEvent) {
        debug_assert!(lane < 32);
        let col = self.col(reg);
        let l = lane as usize;
        if !self.armed {
            return (col.data[l], RegFileEvent::Clean);
        }
        self.decoder
            .decode(col.data[l], col.check[l], col.parity & 1 << l != 0)
    }

    /// Register `reg`'s 32 lanes as reads through the decoder return them,
    /// decoding the lanes in `mask` (others keep their stored data), plus
    /// which of those lanes raised a DUE. Reads all lanes in one pass, and
    /// decodes nothing while the file is unarmed.
    #[must_use]
    pub fn read_col(&self, reg: u8, mask: u32) -> ([u32; 32], DueLanes) {
        let col = self.col(reg);
        let mut vals = col.data;
        let mut dues = DueLanes::default();
        if self.armed {
            for l in Lanes(mask) {
                let (v, e) =
                    self.decoder
                        .decode(col.data[l], col.check[l], col.parity & 1 << l != 0);
                vals[l] = v;
                if let RegFileEvent::Due { pipeline_suspected } = e {
                    dues.due |= 1 << l;
                    dues.pipeline |= u32::from(pipeline_suspected) << l;
                }
            }
        }
        (vals, dues)
    }

    /// Read without decoding (debugger view; §III-A explains why error-free
    /// Swap-ECC registers are always valid codewords, keeping this safe).
    #[must_use]
    pub fn peek(&self, lane: u32, reg: u8) -> u32 {
        self.col(reg).data[lane as usize]
    }

    /// All 32 lanes of `reg` without decoding (the `SHFL` source view).
    #[must_use]
    pub fn peek_col(&self, reg: u8) -> [u32; 32] {
        self.col(reg).data
    }

    /// Whether two register files hold byte-identical stored state (data,
    /// check bits and data parity for every lane/register).
    ///
    /// The decoder `armed` fast-path flag is intentionally ignored: it is a
    /// performance hint, not architectural state. When every stored word
    /// equals a word written by a fault-free run, each word is a consistent
    /// codeword, so decoding (armed) and not decoding (unarmed) return the
    /// same values and events.
    #[cfg(test)]
    #[must_use]
    pub fn stored_eq(&self, other: &Self) -> bool {
        debug_assert!(
            !self.has_deferred() && !other.has_deferred(),
            "stored-state comparison requires flushed check bits"
        );
        self.cols == other.cols
    }

    /// Whether one architectural register (all 32 lanes) holds byte-identical
    /// stored state in both files — the per-register unit of the dirty-only
    /// golden comparison (DESIGN §14). Check bits must be flushed in both
    /// files first.
    #[must_use]
    pub fn stored_eq_reg(&self, other: &Self, reg: u8) -> bool {
        debug_assert_eq!(self.regs, other.regs);
        debug_assert!(
            !self.reg_dirty(reg) && !other.reg_dirty(reg),
            "stored-state comparison requires flushed check bits"
        );
        self.col(reg) == other.col(reg)
    }

    /// Attempt in-place correction of a stored word whose syndrome points at
    /// a single data bit, rewriting the register as a consistent codeword
    /// (data, re-encoded check bits and parity) and returning the corrected
    /// value.
    ///
    /// This is the [`swapcodes_ecc::swap::try_correct_data`] entry point of
    /// the recovery subsystem's `EccCorrect` policy. Under swapped codewords
    /// it restores the shadow's value, so it is only *sound* for
    /// original-side strikes — see the hazard note on that function. Returns
    /// `None` when the word is clean, uncorrectable, or unprotected.
    pub fn correct_in_place(&mut self, lane: u32, reg: u8) -> Option<u32> {
        let col = self.col(reg);
        let word = SwappedWord {
            data: col.data[lane as usize],
            check: col.check[lane as usize],
        };
        let fixed = match &self.decoder {
            Decoder::None => None,
            Decoder::Detect(code) => swap::try_correct_data(code, word),
            Decoder::SecDedDp(rep) => swap::try_correct_data(rep.code(), word),
            Decoder::SecDp(rep) => swap::try_correct_data(rep.code(), word),
        }?;
        self.write_full(lane, reg, fixed);
        Some(fixed)
    }

    /// Inject a raw storage bit-flip (for storage-error testing).
    pub fn flip_storage_bit(&mut self, lane: u32, reg: u8, bit: u32) {
        self.touch(reg);
        // This write corrupts a codeword: restore the deferred lanes first
        // so a later flush cannot re-encode over the evidence.
        self.settle(reg);
        let l = lane as usize;
        let col = self.col_mut(reg);
        match bit {
            0..=31 => col.data[l] ^= 1 << bit,
            32..=47 => col.check[l] ^= 1 << (bit - 32),
            _ => col.parity ^= 1 << l,
        }
        self.arm();
    }
}

/// Copy the lanes in `mask` of `src` into `dst`.
#[inline]
fn blend<T: Copy>(dst: &mut [T; 32], src: &[T; 32], mask: u32) {
    if mask == u32::MAX {
        *dst = *src;
        return;
    }
    for (l, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
        if mask & 1 << l != 0 {
            *d = s;
        }
    }
}

/// A lazily cloned warp register file: resumed trials share the epoch
/// snapshot's file through an `Arc` until the first write materializes a
/// private copy. `Deref`/`DerefMut` make the wrapper transparent to the
/// executor — reads go through the shared base, while any `&mut` access
/// clones it first (and re-enables deferred encoding when the tier-2 engine
/// asked for it, since the captured base was flushed and un-deferred).
#[derive(Debug, Clone)]
pub enum CowRegFile {
    /// Still sharing the epoch snapshot's file.
    Shared {
        /// The captured golden-epoch register file.
        base: Arc<WarpRegFile>,
        /// Re-enable deferred check-bit encoding at materialization
        /// (tier-2 resume).
        defer_on_write: bool,
    },
    /// A private copy, materialized by the first write.
    Owned(Box<WarpRegFile>),
}

impl CowRegFile {
    /// Share `base` until the first write.
    #[must_use]
    pub fn shared(base: Arc<WarpRegFile>, defer_on_write: bool) -> Self {
        CowRegFile::Shared {
            base,
            defer_on_write,
        }
    }

    /// Wrap an already-private file (the golden capture).
    #[must_use]
    pub fn owned(rf: WarpRegFile) -> Self {
        CowRegFile::Owned(Box::new(rf))
    }

    /// Whether a write has materialized a private copy.
    #[must_use]
    pub fn is_materialized(&self) -> bool {
        matches!(self, CowRegFile::Owned(_))
    }
}

impl Deref for CowRegFile {
    type Target = WarpRegFile;

    #[inline]
    fn deref(&self) -> &WarpRegFile {
        match self {
            CowRegFile::Shared { base, .. } => base,
            CowRegFile::Owned(rf) => rf,
        }
    }
}

impl DerefMut for CowRegFile {
    fn deref_mut(&mut self) -> &mut WarpRegFile {
        if let CowRegFile::Shared {
            base,
            defer_on_write,
        } = self
        {
            let mut rf = base.as_ref().clone();
            if *defer_on_write {
                rf.set_deferred(true);
            }
            *self = CowRegFile::Owned(Box::new(rf));
        }
        match self {
            CowRegFile::Owned(rf) => rf,
            CowRegFile::Shared { .. } => unreachable!("just materialized"),
        }
    }
}

fn convert(e: ReadEvent) -> RegFileEvent {
    match e {
        ReadEvent::Clean => RegFileEvent::Clean,
        ReadEvent::CorrectedData { .. }
        | ReadEvent::CorrectedCheck { .. }
        | ReadEvent::CorrectedParity => RegFileEvent::Corrected,
        ReadEvent::DuePipeline => RegFileEvent::Due {
            pipeline_suspected: true,
        },
        ReadEvent::DueStorage => RegFileEvent::Due {
            pipeline_suspected: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_swap_ecc_round_trip() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.write_full(0, 3, 0xDEAD_BEEF);
        rf.write_ecc_only(0, 3, 0xDEAD_BEEF); // error-free shadow
        let (v, e) = rf.read(0, 3);
        assert_eq!(v, 0xDEAD_BEEF);
        assert_eq!(e, RegFileEvent::Clean);
    }

    #[test]
    fn faulty_original_is_detected_on_read() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        // Original computed 41 (faulty), shadow computed 42 (golden).
        rf.write_split(2, 1, 41, 42);
        let (v, e) = rf.read(2, 1);
        assert_eq!(v, 41, "data must not be miscorrected");
        assert!(e.is_due());
    }

    #[test]
    fn faulty_shadow_is_detected_and_never_corrupts() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.write_full(0, 1, 42);
        rf.write_ecc_only(0, 1, 43); // shadow took the hit
        let (v, e) = rf.read(0, 1);
        assert_eq!(v, 42);
        assert!(e.is_due());
    }

    #[test]
    fn storage_error_corrected_under_dp() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.write_full(5, 2, 0x1234_5678);
        rf.flip_storage_bit(5, 2, 9);
        let (v, e) = rf.read(5, 2);
        assert_eq!(v, 0x1234_5678);
        assert_eq!(e, RegFileEvent::Corrected);
    }

    #[test]
    fn detect_only_residue_catches_original_strike() {
        let mut rf = WarpRegFile::new(8, Protection::DetectOnly(CodeKind::Residue { a: 7 }));
        rf.write_split(0, 0, 100, 101);
        let (_, e) = rf.read(0, 0);
        assert!(e.is_due());
    }

    #[test]
    fn predicted_write_detects_datapath_fault() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        // Datapath produced 7 (faulty); predictor derived check bits for 5.
        rf.write_predicted(1, 4, 7, 5);
        let (v, e) = rf.read(1, 4);
        assert_eq!(v, 7);
        assert!(e.is_due());
    }

    #[test]
    fn correct_in_place_recovers_original_strike() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.write_split(2, 1, 42 ^ (1 << 4), 42); // original struck one data bit
        assert_eq!(rf.correct_in_place(2, 1), Some(42));
        let (v, e) = rf.read(2, 1);
        assert_eq!(v, 42);
        assert_eq!(e, RegFileEvent::Clean, "corrected word is a codeword");
    }

    #[test]
    fn correct_in_place_miscorrects_shadow_strike() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.write_full(0, 1, 42);
        rf.write_ecc_only(0, 1, 43); // shadow struck
                                     // The hazard the DP rule exists to avoid: correction corrupts the
                                     // (already correct) data toward the shadow's faulty value.
        assert_eq!(rf.correct_in_place(0, 1), Some(43));
    }

    #[test]
    fn correct_in_place_refuses_clean_and_unprotected_words() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.write_full(0, 0, 7);
        assert_eq!(rf.correct_in_place(0, 0), None);
        let mut plain = WarpRegFile::new(8, Protection::None);
        plain.write_split(0, 0, 1, 2);
        assert_eq!(plain.correct_in_place(0, 0), None);
    }

    #[test]
    fn clone_snapshots_stored_state() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.write_full(3, 2, 0xAAAA_5555);
        let snap = rf.clone();
        rf.write_full(3, 2, 0);
        let restored = snap;
        let (v, e) = restored.read(3, 2);
        assert_eq!(v, 0xAAAA_5555);
        assert_eq!(e, RegFileEvent::Clean);
    }

    #[test]
    fn unprotected_file_sees_nothing() {
        let mut rf = WarpRegFile::new(8, Protection::None);
        rf.write_split(0, 0, 1, 2);
        let (v, e) = rf.read(0, 0);
        assert_eq!(v, 1);
        assert_eq!(e, RegFileEvent::Clean);
    }

    #[test]
    fn deferred_writes_flush_to_identical_codewords() {
        let mut eager = WarpRegFile::new(8, Protection::SecDedDp);
        let mut lazy = WarpRegFile::new(8, Protection::SecDedDp);
        lazy.set_deferred(true);
        for (reg, v) in [(0u8, 0xDEAD_BEEFu32), (3, 42), (7, u32::MAX)] {
            for lane in 0..32 {
                eager.write_full(lane, reg, v ^ lane);
                lazy.write_full(lane, reg, v ^ lane);
            }
        }
        assert!(lazy.has_deferred());
        lazy.flush_deferred();
        assert!(eager.stored_eq(&lazy));
    }

    #[test]
    fn shadow_compare_sees_through_deferred_check_bits() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.set_deferred(true);
        rf.write_full(0, 1, 42);
        rf.write_ecc_only(0, 1, 42); // clean shadow: must not arm
        let (v, e) = rf.read(0, 1);
        assert_eq!((v, e), (42, RegFileEvent::Clean));
        rf.write_full(0, 1, 42);
        rf.write_ecc_only(0, 1, 43); // faulty shadow: must still detect
        let (_, e) = rf.read(0, 1);
        assert!(e.is_due());
    }

    #[test]
    fn arming_flushes_and_disables_deferral() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.set_deferred(true);
        rf.write_full(0, 0, 5);
        rf.write_split(1, 2, 41, 42); // strike arms the file
        assert!(!rf.has_deferred(), "arming restores every codeword");
        let (v, e) = rf.read(0, 0);
        assert_eq!((v, e), (5, RegFileEvent::Clean), "deferred word re-encoded");
        rf.write_full(2, 3, 9); // post-arm writes are eager again
        assert!(!rf.has_deferred());
        let (_, e) = rf.read(1, 2);
        assert!(e.is_due());
    }

    #[test]
    fn split_write_over_deferred_register_keeps_its_evidence() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.set_deferred(true);
        rf.write_full(0, 4, 1); // reg 4 now holds stale check bits
        rf.write_split(0, 4, 41, 42); // then takes the strike
        let (v, e) = rf.read(0, 4);
        assert_eq!(v, 41);
        assert!(
            e.is_due(),
            "flush must not re-encode over the split codeword"
        );
    }

    #[test]
    fn set_deferred_is_refused_once_armed() {
        let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
        rf.flip_storage_bit(0, 0, 3);
        rf.set_deferred(true);
        rf.write_full(0, 1, 6);
        assert!(!rf.has_deferred());
    }

    #[test]
    fn fast_path_stays_clean_until_armed() {
        let mut rf = WarpRegFile::new(4, Protection::SecDedDp);
        rf.write_full(0, 0, 7);
        let (_, e) = rf.read(0, 0);
        assert_eq!(e, RegFileEvent::Clean);
    }

    #[test]
    fn touched_bitmap_tracks_every_write_path() {
        let mut rf = WarpRegFile::new(70, Protection::SecDedDp);
        rf.write_full(0, 0, 1);
        rf.write_ecc_only(0, 1, 1);
        rf.write_predicted(0, 2, 3, 3);
        rf.write_split(0, 3, 4, 4);
        rf.flip_storage_bit(0, 69, 2);
        let bits = rf.take_touched();
        assert_eq!(bits[0], 0b1111);
        assert_eq!(bits[1], 1 << 5, "reg 69 lands in the second word");
        assert!(
            rf.touched_bits().iter().all(|&w| w == 0),
            "take_touched drains the tracker"
        );
        rf.write_full(1, 4, 9);
        assert_eq!(rf.touched_bits()[0], 1 << 4);
    }

    #[test]
    fn stored_eq_reg_isolates_single_register_differences() {
        let mut a = WarpRegFile::new(8, Protection::SecDedDp);
        let mut b = WarpRegFile::new(8, Protection::SecDedDp);
        a.write_full(5, 3, 0xFACE);
        b.write_full(5, 3, 0xFACE);
        b.write_full(7, 6, 1);
        assert!(a.stored_eq_reg(&b, 3));
        assert!(!a.stored_eq_reg(&b, 6));
    }

    #[test]
    fn cow_regfile_materializes_on_first_write_only() {
        let mut base = WarpRegFile::new(8, Protection::SecDedDp);
        base.write_full(0, 2, 42);
        base.take_touched();
        let base = Arc::new(base);
        let mut cow = CowRegFile::shared(Arc::clone(&base), false);
        assert_eq!(cow.read(0, 2), (42, RegFileEvent::Clean));
        assert_eq!(cow.peek(0, 2), 42);
        assert!(!cow.is_materialized(), "reads must not clone");
        cow.write_full(0, 2, 7);
        assert!(cow.is_materialized());
        assert_eq!(cow.peek(0, 2), 7);
        assert_eq!(base.peek(0, 2), 42, "the shared base is untouched");
        assert_eq!(cow.touched_bits()[0], 1 << 2, "private copy starts clean");
        // A materialization copies 8 columns of 32 data words, 32 check-bit
        // words and a parity mask.
        assert_eq!(cow.stored_bytes(), 8 * (32 * 4 + 32 * 2 + 4));
    }

    #[test]
    fn cow_regfile_rearms_deferred_encoding_at_materialization() {
        let base = Arc::new(WarpRegFile::new(8, Protection::SecDedDp));
        let mut cow = CowRegFile::shared(base, true);
        assert!(!cow.has_deferred());
        cow.write_full(0, 1, 5);
        assert!(
            cow.has_deferred(),
            "tier-2 resume defers check bits in the private copy"
        );
        cow.flush_deferred();
        let mut eager = WarpRegFile::new(8, Protection::SecDedDp);
        eager.write_full(0, 1, 5);
        assert!(cow.stored_eq(&eager));
    }

    /// A column write stores, touches and arms exactly what the per-lane
    /// writes of its lanes do, in every mode, deferred or not, protected or
    /// not, with an empty mask and with a strike; a column read returns the
    /// per-lane reads' values and DUE lanes. A struck predicted lane takes
    /// its check bits from the fault-free value.
    #[test]
    fn column_access_matches_per_lane_access() {
        let vals: [u32; 32] = std::array::from_fn(|l| 0x100 + l as u32);
        let cases = [
            (u32::MAX, None),
            (0x00F0_F00F, Some((2, 0x77))),
            (1 << 31, Some((31, vals[31]))),
            (0, None),
        ];
        let modes = [WriteMode::Full, WriteMode::EccOnly, WriteMode::Predicted];
        for (protection, mode) in [Protection::SecDedDp, Protection::None]
            .into_iter()
            .flat_map(|p| modes.map(|m| (p, m)))
        {
            for deferred in [false, true] {
                for (mask, strike) in cases {
                    let mut col = WarpRegFile::new(4, protection);
                    col.set_deferred(deferred);
                    for lane in 0..32 {
                        col.write_full(lane, 1, lane * 3);
                    }
                    if protection == Protection::None {
                        // Unprotected check bits and parity hold only what
                        // storage flips leave: start from nonzero ones, so a
                        // write that skips zeroing its lanes shows.
                        col.cols[1].check = [0xA5A5; 32];
                        col.cols[1].parity = 0x5A5A_5A5A;
                    }
                    col.take_touched();
                    let mut lanes = col.clone();
                    col.write_col(mode, 1, mask, &vals, strike);
                    for l in Lanes(mask) {
                        let (lane, v) = (l as u32, vals[l]);
                        let golden = strike.filter(|&(s, _)| s == l).map_or(v, |(_, g)| g);
                        match mode {
                            WriteMode::Full => lanes.write_full(lane, 1, v),
                            WriteMode::EccOnly => lanes.write_ecc_only(lane, 1, v),
                            WriteMode::Predicted => lanes.write_predicted(lane, 1, v, golden),
                        }
                    }
                    let what =
                        format!("{protection:?} {mode:?} deferred={deferred} mask={mask:#x}");
                    assert_eq!(col.touched_bits(), lanes.touched_bits(), "{what}");
                    assert_eq!(col.has_deferred(), lanes.has_deferred(), "{what}");
                    assert_eq!(col.armed, lanes.armed, "{what}");
                    col.flush_deferred();
                    lanes.flush_deferred();
                    assert!(col.stored_eq(&lanes), "{what}");
                    let (got, dues) = col.read_col(1, u32::MAX);
                    for lane in 0..32 {
                        let (v, e) = lanes.read(lane, 1);
                        let bit = 1 << lane;
                        assert_eq!(got[lane as usize], v, "{what} lane {lane}");
                        assert_eq!(dues.due & bit != 0, e.is_due(), "{what} lane {lane}");
                        let pipeline = e
                            == RegFileEvent::Due {
                                pipeline_suspected: true,
                            };
                        assert_eq!(dues.pipeline & bit != 0, pipeline, "{what} lane {lane}");
                    }
                }
            }
        }
    }
}
