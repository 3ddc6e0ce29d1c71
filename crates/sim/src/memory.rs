//! Global and shared memory (word-backed, byte-addressed).
//!
//! The memory subsystem lies outside the SwapCodes sphere of replication
//! (Fig. 1) — it is assumed protected by conventional storage ECC — so it is
//! modelled functionally, without error state.
//!
//! Injection trials resume from shared golden epoch snapshots, so both
//! memories also come in copy-on-write form: [`CowMemory`] overlays a
//! page-granular dirty set on an `Arc`'d base, and [`CowShared`] clones its
//! (small) base on the first write. A resumed trial materializes only the
//! bytes it actually touches — see `crate::snapshot` and DESIGN §14.

use std::sync::Arc;

/// Device global memory. Addresses are byte addresses; accesses must be
/// 4-byte aligned.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    words: Vec<u32>,
}

impl GlobalMemory {
    /// Allocate `bytes` of zeroed global memory (rounded up to words).
    #[must_use]
    pub fn new(bytes: usize) -> Self {
        Self {
            words: vec![0; bytes.div_ceil(4)],
        }
    }

    /// Size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len() * 4
    }

    /// Whether the memory has zero size.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Read the 32-bit word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-bounds access.
    #[must_use]
    pub fn read(&self, addr: u32) -> u32 {
        self.words[Self::index(addr, self.words.len())]
    }

    /// Write the 32-bit word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-bounds access.
    pub fn write(&mut self, addr: u32, value: u32) {
        let i = Self::index(addr, self.words.len());
        self.words[i] = value;
    }

    /// Atomically add `value` to the word at `addr`, returning the old value.
    pub fn atomic_add(&mut self, addr: u32, value: u32) -> u32 {
        let i = Self::index(addr, self.words.len());
        let old = self.words[i];
        self.words[i] = old.wrapping_add(value);
        old
    }

    /// Checked read: `None` on misaligned or out-of-bounds access.
    #[must_use]
    pub fn try_read(&self, addr: u32) -> Option<u32> {
        self.checked_index(addr).map(|i| self.words[i])
    }

    /// Checked write: `false` on misaligned or out-of-bounds access.
    pub fn try_write(&mut self, addr: u32, value: u32) -> bool {
        if let Some(i) = self.checked_index(addr) {
            self.words[i] = value;
            true
        } else {
            false
        }
    }

    /// Checked atomic add: `None` on misaligned or out-of-bounds access.
    pub fn try_atomic_add(&mut self, addr: u32, value: u32) -> Option<u32> {
        let i = self.checked_index(addr)?;
        let old = self.words[i];
        self.words[i] = old.wrapping_add(value);
        Some(old)
    }

    fn checked_index(&self, addr: u32) -> Option<usize> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        let i = (addr / 4) as usize;
        (i < self.words.len()).then_some(i)
    }

    /// Copy a slice of f32 values to byte address `addr`.
    pub fn write_f32_slice(&mut self, addr: u32, data: &[f32]) {
        for (i, &v) in data.iter().enumerate() {
            self.write(addr + 4 * i as u32, v.to_bits());
        }
    }

    /// Read `n` f32 values from byte address `addr`.
    #[must_use]
    pub fn read_f32_slice(&self, addr: u32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| f32::from_bits(self.read(addr + 4 * i as u32)))
            .collect()
    }

    /// Read `n` u32 values from byte address `addr`.
    #[must_use]
    pub fn read_u32_slice(&self, addr: u32, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read(addr + 4 * i as u32)).collect()
    }

    /// The raw backing words (for whole-memory comparisons).
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Rebuild a global memory from previously captured words (zero-copy:
    /// the vector is moved, not duplicated).
    #[must_use]
    pub fn from_words(words: Vec<u32>) -> Self {
        Self { words }
    }

    fn index(addr: u32, len: usize) -> usize {
        assert_eq!(addr % 4, 0, "unaligned access at {addr:#x}");
        let i = (addr / 4) as usize;
        assert!(i < len, "global memory access at {addr:#x} out of bounds");
        i
    }
}

/// Per-CTA shared memory (scratchpad).
#[derive(Debug, Clone)]
pub struct SharedMemory {
    words: Vec<u32>,
}

impl SharedMemory {
    /// Allocate `words` 32-bit words of zeroed shared memory.
    #[must_use]
    pub fn new(words: usize) -> Self {
        Self {
            words: vec![0; words],
        }
    }

    /// Read the word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-bounds access.
    #[must_use]
    pub fn read(&self, addr: u32) -> u32 {
        assert_eq!(addr % 4, 0, "unaligned shared access");
        self.words[(addr / 4) as usize]
    }

    /// Write the word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-bounds access.
    pub fn write(&mut self, addr: u32, value: u32) {
        assert_eq!(addr % 4, 0, "unaligned shared access");
        let i = (addr / 4) as usize;
        self.words[i] = value;
    }

    /// Checked read: `None` on misaligned or out-of-bounds access.
    #[must_use]
    pub fn try_read(&self, addr: u32) -> Option<u32> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        self.words.get((addr / 4) as usize).copied()
    }

    /// Checked write: `false` on misaligned or out-of-bounds access.
    pub fn try_write(&mut self, addr: u32, value: u32) -> bool {
        if !addr.is_multiple_of(4) {
            return false;
        }
        if let Some(w) = self.words.get_mut((addr / 4) as usize) {
            *w = value;
            true
        } else {
            false
        }
    }

    /// The raw backing words (for snapshots and whole-memory comparisons).
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Rebuild a shared memory from previously captured words (zero-copy:
    /// the vector is moved, not duplicated).
    #[must_use]
    pub fn from_words(words: Vec<u32>) -> Self {
        Self { words }
    }
}

/// Default copy-on-write page size in words (256 bytes). Overridable per
/// engine through `ExecConfig::cow_page_words`.
pub const DEFAULT_COW_PAGE_WORDS: usize = 64;

/// Copy-on-write global memory: an `Arc`'d base image (a golden epoch
/// snapshot) overlaid with materialized pages. Reads fall through to the
/// base until a write materializes the containing page; the set of resident
/// pages is exactly the trial's dirty superset, which is what the
/// golden-convergence early-exit compares (DESIGN §14).
#[derive(Debug, Clone)]
pub struct CowMemory {
    base: Arc<Vec<u32>>,
    /// Materialized pages, indexed by page number (`None` = read the base).
    pages: Vec<Option<Box<[u32]>>>,
    /// One bit per page: set when the page is materialized.
    resident: Vec<u64>,
    page_words: usize,
    page_shift: u32,
    pages_cloned: u64,
}

impl CowMemory {
    /// Wrap `base` with an empty overlay. `page_words` is rounded up to a
    /// power of two (minimum 1).
    #[must_use]
    pub fn new(base: Arc<Vec<u32>>, page_words: usize) -> Self {
        let page_words = page_words.max(1).next_power_of_two();
        let page_count = base.len().div_ceil(page_words).max(1);
        Self {
            pages: (0..page_count).map(|_| None).collect(),
            resident: vec![0; page_count.div_ceil(64)],
            page_words,
            page_shift: page_words.trailing_zeros(),
            pages_cloned: 0,
            base,
        }
    }

    /// Size in bytes (identical to the base image).
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len() * 4
    }

    /// Whether the memory has zero size.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Number of copy-on-write pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Page size in words.
    #[must_use]
    pub fn page_words(&self) -> usize {
        self.page_words
    }

    /// Pages materialized by writes so far.
    #[must_use]
    pub fn pages_cloned(&self) -> u64 {
        self.pages_cloned
    }

    /// One bit per page: set when the page was materialized by a write —
    /// the trial's dirty-page superset.
    #[must_use]
    pub fn resident_bits(&self) -> &[u64] {
        &self.resident
    }

    #[inline]
    fn checked_index(&self, addr: u32) -> Option<usize> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        let i = (addr / 4) as usize;
        (i < self.base.len()).then_some(i)
    }

    #[inline]
    fn word(&self, i: usize) -> u32 {
        match &self.pages[i >> self.page_shift] {
            Some(pg) => pg[i & (self.page_words - 1)],
            None => self.base[i],
        }
    }

    /// Materialize the page containing word `i` and return the slot.
    fn page_mut(&mut self, i: usize) -> &mut u32 {
        let p = i >> self.page_shift;
        if self.pages[p].is_none() {
            let start = p << self.page_shift;
            let end = (start + self.page_words).min(self.base.len());
            self.pages[p] = Some(self.base[start..end].to_vec().into_boxed_slice());
            self.resident[p >> 6] |= 1 << (p & 63);
            self.pages_cloned += 1;
        }
        let pg = self.pages[p].as_mut().expect("page just materialized");
        &mut pg[i & (self.page_words - 1)]
    }

    /// Materialize every page upfront (the legacy clone-resume mode).
    pub fn materialize_all(&mut self) {
        for i in (0..self.base.len()).step_by(self.page_words) {
            let _ = self.page_mut(i);
        }
    }

    /// Read the 32-bit word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-bounds access.
    #[must_use]
    pub fn read(&self, addr: u32) -> u32 {
        assert_eq!(addr % 4, 0, "unaligned access at {addr:#x}");
        let i = (addr / 4) as usize;
        assert!(
            i < self.base.len(),
            "global memory access at {addr:#x} out of bounds"
        );
        self.word(i)
    }

    /// Checked read: `None` on misaligned or out-of-bounds access.
    #[inline]
    #[must_use]
    pub fn try_read(&self, addr: u32) -> Option<u32> {
        self.checked_index(addr).map(|i| self.word(i))
    }

    /// Checked write: `false` on misaligned or out-of-bounds access.
    #[inline]
    pub fn try_write(&mut self, addr: u32, value: u32) -> bool {
        if let Some(i) = self.checked_index(addr) {
            *self.page_mut(i) = value;
            true
        } else {
            false
        }
    }

    /// Checked atomic add: `None` on misaligned or out-of-bounds access.
    pub fn try_atomic_add(&mut self, addr: u32, value: u32) -> Option<u32> {
        let i = self.checked_index(addr)?;
        let w = self.page_mut(i);
        let old = *w;
        *w = old.wrapping_add(value);
        Some(old)
    }

    /// Read `n` u32 values from byte address `addr` (O(n), not O(total) —
    /// the campaign's output-region check must not flatten the overlay).
    #[must_use]
    pub fn read_u32_slice(&self, addr: u32, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read(addr + 4 * i as u32)).collect()
    }

    /// Flatten the overlay into a plain word vector (O(total); tests and
    /// final-state consumers only — the trial hot path never calls this).
    #[must_use]
    pub fn words(&self) -> Vec<u32> {
        let mut out = self.base.as_ref().clone();
        for (p, page) in self.pages.iter().enumerate() {
            if let Some(pg) = page {
                let start = p << self.page_shift;
                out[start..start + pg.len()].copy_from_slice(pg);
            }
        }
        out
    }

    /// Flatten into an owned [`GlobalMemory`].
    #[must_use]
    pub fn to_global(&self) -> GlobalMemory {
        GlobalMemory::from_words(self.words())
    }

    /// Whether page `p` of this memory's view equals the same page of
    /// `golden` (a full flattened image of identical length).
    #[must_use]
    pub fn page_eq(&self, p: usize, golden: &[u32]) -> bool {
        let start = p << self.page_shift;
        let end = (start + self.page_words).min(self.base.len());
        match &self.pages[p] {
            Some(pg) => pg[..] == golden[start..end],
            None => self.base[start..end] == golden[start..end],
        }
    }

    /// Flatten the overlay into a fresh base and return it together with the
    /// dirty-page bitset of the interval since the last rebase. The overlay
    /// is cleared, so subsequent writes accumulate the next interval's dirty
    /// set — this is how the golden capture run derives per-epoch deltas.
    pub fn rebase(&mut self) -> (Arc<Vec<u32>>, Vec<u64>) {
        if self.pages_cloned == 0 {
            return (Arc::clone(&self.base), vec![0; self.resident.len()]);
        }
        let fresh = vec![0; self.resident.len()];
        let delta = std::mem::replace(&mut self.resident, fresh);
        self.base = Arc::new(self.words());
        for p in &mut self.pages {
            *p = None;
        }
        self.pages_cloned = 0;
        (Arc::clone(&self.base), delta)
    }
}

/// Copy-on-write shared memory: shared scratchpads are small (at most a few
/// KiB), so the overlay is whole-unit — the first write clones the base.
/// This also removes the resume-path double copy the eager
/// `SharedMemory::from_words(snap.shared.clone())` pattern used to pay.
#[derive(Debug, Clone)]
pub struct CowShared {
    base: Arc<Vec<u32>>,
    local: Option<Vec<u32>>,
}

impl CowShared {
    /// Allocate `words` 32-bit words of zeroed shared memory.
    #[must_use]
    pub fn new_zeroed(words: usize) -> Self {
        Self {
            base: Arc::new(vec![0; words]),
            local: None,
        }
    }

    /// Zero-copy resume constructor: share `base` until the first write.
    #[must_use]
    pub fn resume(base: Arc<Vec<u32>>) -> Self {
        Self { base, local: None }
    }

    /// Whether a write has materialized a private copy.
    #[must_use]
    pub fn is_materialized(&self) -> bool {
        self.local.is_some()
    }

    /// Materialize the private copy upfront (legacy clone-resume mode).
    pub fn materialize(&mut self) {
        if self.local.is_none() {
            self.local = Some(self.base.as_ref().clone());
        }
    }

    /// The current view of the words.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        self.local.as_deref().unwrap_or(&self.base)
    }

    /// Checked read: `None` on misaligned or out-of-bounds access.
    #[inline]
    #[must_use]
    pub fn try_read(&self, addr: u32) -> Option<u32> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        self.words().get((addr / 4) as usize).copied()
    }

    /// Checked write: `false` on misaligned or out-of-bounds access.
    pub fn try_write(&mut self, addr: u32, value: u32) -> bool {
        if !addr.is_multiple_of(4) {
            return false;
        }
        let i = (addr / 4) as usize;
        if i >= self.base.len() {
            return false;
        }
        self.materialize();
        self.local.as_mut().expect("just materialized")[i] = value;
        true
    }

    /// Snapshot the current state as a fresh shared base, returning whether
    /// anything was written since the last rebase (the per-epoch
    /// shared-memory delta flag).
    pub fn rebase(&mut self) -> (Arc<Vec<u32>>, bool) {
        match self.local.take() {
            Some(words) => {
                self.base = Arc::new(words);
                (Arc::clone(&self.base), true)
            }
            None => (Arc::clone(&self.base), false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = GlobalMemory::new(64);
        m.write(0, 42);
        m.write(60, 0xFFFF_FFFF);
        assert_eq!(m.read(0), 42);
        assert_eq!(m.read(60), 0xFFFF_FFFF);
        assert_eq!(m.read(4), 0);
    }

    #[test]
    fn atomic_add_returns_old() {
        let mut m = GlobalMemory::new(8);
        assert_eq!(m.atomic_add(4, 10), 0);
        assert_eq!(m.atomic_add(4, 5), 10);
        assert_eq!(m.read(4), 15);
    }

    #[test]
    fn f32_slices() {
        let mut m = GlobalMemory::new(32);
        m.write_f32_slice(8, &[1.5, -2.25]);
        assert_eq!(m.read_f32_slice(8, 2), vec![1.5, -2.25]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_panics() {
        let m = GlobalMemory::new(8);
        let _ = m.read(2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_panics() {
        let m = GlobalMemory::new(8);
        let _ = m.read(8);
    }

    #[test]
    fn cow_memory_materializes_only_written_pages() {
        let base = Arc::new((0..256u32).collect::<Vec<_>>());
        let mut m = CowMemory::new(Arc::clone(&base), 16);
        assert_eq!(m.page_count(), 16);
        assert_eq!(m.try_read(4), Some(1), "reads fall through to the base");
        assert_eq!(m.pages_cloned(), 0);
        assert!(m.try_write(4, 999));
        assert!(m.try_write(8, 1000));
        assert_eq!(m.pages_cloned(), 1, "same page: one materialization");
        assert_eq!(m.try_atomic_add(64 * 4, 5), Some(64));
        assert_eq!(m.pages_cloned(), 2);
        assert_eq!(m.read(4), 999);
        assert_eq!(base[1], 1, "the shared base is untouched");
        let flat = m.words();
        assert_eq!(flat[1], 999);
        assert_eq!(flat[2], 1000);
        assert_eq!(flat[64], 69);
        assert_eq!(flat[3], 3, "unwritten words keep base values");
        assert_eq!(m.read_u32_slice(0, 4), vec![0, 999, 1000, 3]);
    }

    #[test]
    fn cow_memory_rejects_unaligned_and_oob() {
        let mut m = CowMemory::new(Arc::new(vec![0; 8]), 4);
        assert_eq!(m.try_read(2), None);
        assert_eq!(m.try_read(32), None);
        assert!(!m.try_write(33, 1));
        assert_eq!(m.try_atomic_add(6, 1), None);
        assert_eq!(m.pages_cloned(), 0);
    }

    #[test]
    fn cow_memory_rebase_reports_interval_dirty_pages() {
        let base = Arc::new(vec![7u32; 200]);
        let mut m = CowMemory::new(base, 16);
        // No writes: rebase reuses the same Arc and reports no dirty pages.
        let (b0, d0) = m.rebase();
        assert!(d0.iter().all(|&w| w == 0));
        assert!(Arc::ptr_eq(&b0, &m.rebase().0));

        assert!(m.try_write(0, 1)); // page 0
        assert!(m.try_write(16 * 4 * 3, 2)); // page 3
        let (b1, d1) = m.rebase();
        assert_eq!(d1[0], 0b1001);
        assert_eq!(b1[0], 1);
        assert_eq!(m.pages_cloned(), 0, "rebase clears the overlay");
        // Next interval sees only its own writes.
        assert!(m.try_write(16 * 4 * 5, 3)); // page 5
        let (_, d2) = m.rebase();
        assert_eq!(d2[0], 0b10_0000);
    }

    #[test]
    fn cow_memory_page_eq_sees_overlay_and_base() {
        let golden: Vec<u32> = (0..100).collect();
        let mut m = CowMemory::new(Arc::new(golden.clone()), 16);
        assert!((0..m.page_count()).all(|p| m.page_eq(p, &golden)));
        assert!(m.try_write(0, 42));
        assert!(!m.page_eq(0, &golden));
        assert!(m.try_write(0, 0)); // write the golden value back
        assert!(m.page_eq(0, &golden), "reconverged page compares equal");
        assert!(
            m.page_eq(6, &golden),
            "partial tail page compares in-bounds"
        );
    }

    #[test]
    fn cow_shared_clones_whole_unit_on_first_write() {
        let base = Arc::new(vec![5u32; 16]);
        let mut s = CowShared::resume(Arc::clone(&base));
        assert_eq!(s.try_read(8), Some(5));
        assert!(!s.is_materialized());
        assert!(s.try_write(8, 9));
        assert!(s.is_materialized());
        assert_eq!(s.try_read(8), Some(9));
        assert_eq!(base[2], 5);
        assert_eq!(s.try_read(5), None, "unaligned");
        assert!(!s.try_write(64, 1), "out of bounds");
        let (b, dirty) = s.rebase();
        assert!(dirty);
        assert_eq!((b[3], b[8 / 4]), (5, 9));
        let (_, dirty) = s.rebase();
        assert!(!dirty, "no writes since the last rebase");
    }
}
