//! Simplified Signature Path Prefetcher (Kim et al., MICRO 2016), the L2C
//! prefetcher in Table I.
//!
//! This implementation keeps SPP's essential structure — a per-page
//! signature of recent block-offset deltas, a pattern table mapping
//! signatures to predicted deltas with confidence, and confidence-gated
//! lookahead down the predicted path — while omitting the paper's global
//! accuracy throttling, which matters little at the lookahead depths used
//! here.
//!
//! The signature table is fully associative with LRU replacement, but the
//! naive model of that (a linear scan per access, a second full scan per
//! victim) sat directly on the L2 demand path and dominated simulation
//! wall time. It is implemented here as an open-addressing page index plus
//! an intrusive LRU list: O(1) lookup, O(1) victim, and — because tracked
//! pages are unique, LRU stamps are distinct, and empty slots are only
//! ever consumed in index order — the slot chosen for every access is
//! identical to the one the scans picked.

const SIG_BITS: u32 = 12;
const SIG_MASK: u32 = (1 << SIG_BITS) - 1;
const BLOCKS_PER_PAGE: u64 = 64;

/// SPP tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SppConfig {
    /// Signature-table entries (tracked pages).
    pub signature_entries: usize,
    /// Minimum confidence (0..=3) to issue a prefetch.
    pub confidence_threshold: u8,
    /// Maximum lookahead depth along the predicted delta path.
    pub max_depth: usize,
}

impl Default for SppConfig {
    fn default() -> Self {
        SppConfig { signature_entries: 256, confidence_threshold: 2, max_depth: 4 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SigEntry {
    page: u64,
    valid: bool,
    last_offset: i32,
    signature: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct PatternEntry {
    delta: i32,
    confidence: u8,
}

/// Sentinel for an empty page-index probe slot.
const IDX_EMPTY: u64 = u64::MAX;
/// Sentinel for a deleted page-index probe slot (tombstone). Pages are
/// `block / 64` with blocks below 2^58, so neither sentinel collides.
const IDX_TOMB: u64 = u64::MAX - 1;

/// Open-addressing (linear probe) map from page number to signature-table
/// slot. Fully deterministic: probe order is a pure function of the key.
#[derive(Debug)]
struct PageIndex {
    keys: Vec<u64>,
    slots: Vec<u32>,
    mask: usize,
    tombs: usize,
}

impl PageIndex {
    fn new(capacity: usize) -> Self {
        // 4x the live capacity keeps probe chains short.
        let size = (capacity * 4).next_power_of_two();
        PageIndex { keys: vec![IDX_EMPTY; size], slots: vec![0; size], mask: size - 1, tombs: 0 }
    }

    #[inline]
    fn probe_start(&self, page: u64) -> usize {
        // Fibonacci hashing: spreads consecutive page numbers.
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    #[inline]
    fn get(&self, page: u64) -> Option<usize> {
        let mut i = self.probe_start(page);
        loop {
            let k = self.keys[i];
            if k == page {
                return Some(self.slots[i] as usize);
            }
            if k == IDX_EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "slot indexes the signature table, whose size is a config value far below 2^32"
    )]
    fn insert(&mut self, page: u64, slot: usize) {
        let mut i = self.probe_start(page);
        let mut place = None;
        loop {
            match self.keys[i] {
                IDX_EMPTY => {
                    let at = place.unwrap_or(i);
                    if self.keys[at] == IDX_TOMB {
                        self.tombs -= 1;
                    }
                    self.keys[at] = page;
                    self.slots[at] = slot as u32;
                    return;
                }
                IDX_TOMB => place = place.or(Some(i)),
                k if k == page => {
                    self.slots[i] = slot as u32;
                    return;
                }
                _ => {}
            }
            i = (i + 1) & self.mask;
        }
    }

    fn remove(&mut self, page: u64) {
        let mut i = self.probe_start(page);
        loop {
            match self.keys[i] {
                k if k == page => {
                    self.keys[i] = IDX_TOMB;
                    self.tombs += 1;
                    return;
                }
                IDX_EMPTY => return,
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Rebuild when tombstones would stretch probe chains. Live entries
    /// are re-inserted from the signature table by the caller.
    fn needs_rebuild(&self) -> bool {
        self.tombs * 4 > self.keys.len()
    }

    fn clear(&mut self) {
        self.keys.fill(IDX_EMPTY);
        self.tombs = 0;
    }

    fn save_state(&self, w: &mut simstate::StateSink) {
        w.put_u64s(&self.keys);
        w.put_u32s(&self.slots);
        w.put_usize(self.tombs);
    }

    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError> {
        r.read_u64s_into("spp index keys", &mut self.keys)?;
        r.read_u32s_into("spp index slots", &mut self.slots)?;
        self.tombs = r.get_usize()?;
        Ok(())
    }
}

/// Sentinel for the LRU list's null link.
const LRU_NONE: u32 = u32::MAX;

/// Simplified SPP.
#[derive(Debug)]
pub struct Spp {
    cfg: SppConfig,
    sig_table: Vec<SigEntry>,
    pattern_table: Vec<PatternEntry>,
    index: PageIndex,
    /// Intrusive recency list over signature-table slots; head = MRU,
    /// tail = LRU victim.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    lru_head: u32,
    lru_tail: u32,
    /// Next never-used slot: empty slots are consumed in index order,
    /// matching the first-minimum tie-break of the original victim scan.
    free_next: usize,
}

impl Spp {
    pub fn new(cfg: SppConfig) -> Self {
        Spp {
            cfg,
            sig_table: vec![SigEntry::default(); cfg.signature_entries],
            pattern_table: vec![PatternEntry::default(); 1 << SIG_BITS],
            index: PageIndex::new(cfg.signature_entries),
            lru_prev: vec![LRU_NONE; cfg.signature_entries],
            lru_next: vec![LRU_NONE; cfg.signature_entries],
            lru_head: LRU_NONE,
            lru_tail: LRU_NONE,
            free_next: 0,
        }
    }

    fn next_signature(sig: u32, delta: i32) -> u32 {
        // Fold the signed delta into the signature as SPP does.
        let d = (delta & 0x3f) as u32 | (u32::from(delta < 0) << 6);
        ((sig << 3) ^ d) & SIG_MASK
    }

    /// Unlink `slot` from the recency list (it must be linked).
    #[inline]
    fn lru_unlink(&mut self, slot: usize) {
        let (prev, next) = (self.lru_prev[slot], self.lru_next[slot]);
        if prev == LRU_NONE {
            self.lru_head = next;
        } else {
            self.lru_next[prev as usize] = next;
        }
        if next == LRU_NONE {
            self.lru_tail = prev;
        } else {
            self.lru_prev[next as usize] = prev;
        }
    }

    /// Push `slot` to the MRU end of the recency list.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "slot indexes the signature table, whose size is a config value far below 2^32"
    )]
    fn lru_push_front(&mut self, slot: usize) {
        self.lru_prev[slot] = LRU_NONE;
        self.lru_next[slot] = self.lru_head;
        if self.lru_head != LRU_NONE {
            self.lru_prev[self.lru_head as usize] = slot as u32;
        }
        self.lru_head = slot as u32;
        if self.lru_tail == LRU_NONE {
            self.lru_tail = slot as u32;
        }
    }

    /// Slot for `page`: the tracked slot on a hit, else a fresh slot
    /// (first never-used, else the LRU victim). `true` means hit.
    fn sig_slot(&mut self, page: u64) -> (usize, bool) {
        if let Some(slot) = self.index.get(page) {
            self.lru_unlink(slot);
            return (slot, true);
        }
        let slot = if self.free_next < self.sig_table.len() {
            let s = self.free_next;
            self.free_next += 1;
            s
        } else {
            let victim = self.lru_tail as usize;
            self.lru_unlink(victim);
            self.index.remove(self.sig_table[victim].page);
            if self.index.needs_rebuild() {
                self.index.clear();
                for (i, e) in self.sig_table.iter().enumerate() {
                    if e.valid && i != victim {
                        self.index.insert(e.page, i);
                    }
                }
            }
            victim
        };
        self.index.insert(page, slot);
        (slot, false)
    }

    /// Serialize the signature table, pattern table, page index, recency
    /// list, and free-slot cursor. The config is not stored (validated via
    /// the snapshot's config hash); geometry is checked on restore.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.put_usize(self.sig_table.len());
        for e in &self.sig_table {
            w.put_u64(e.page);
            w.put_bool(e.valid);
            w.put_u32(e.last_offset as u32);
            w.put_u32(e.signature);
        }
        w.put_usize(self.pattern_table.len());
        for e in &self.pattern_table {
            w.put_u32(e.delta as u32);
            w.put_u8(e.confidence);
        }
        self.index.save_state(w);
        w.put_u32s(&self.lru_prev);
        w.put_u32s(&self.lru_next);
        w.put_u32(self.lru_head);
        w.put_u32(self.lru_tail);
        w.put_usize(self.free_next);
    }

    /// Restore state saved by [`Self::save_state`] into an SPP of the same
    /// configuration.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        let sig_len = r.get_usize()?;
        if sig_len != self.sig_table.len() {
            return Err(simstate::StateError::ShapeMismatch {
                what: "spp signature table",
                expected: self.sig_table.len() as u64,
                found: sig_len as u64,
            });
        }
        for e in &mut self.sig_table {
            e.page = r.get_u64()?;
            e.valid = r.get_bool()?;
            e.last_offset = r.get_u32()? as i32;
            e.signature = r.get_u32()?;
        }
        let pat_len = r.get_usize()?;
        if pat_len != self.pattern_table.len() {
            return Err(simstate::StateError::ShapeMismatch {
                what: "spp pattern table",
                expected: self.pattern_table.len() as u64,
                found: pat_len as u64,
            });
        }
        for e in &mut self.pattern_table {
            e.delta = r.get_u32()? as i32;
            e.confidence = r.get_u8()?;
        }
        self.index.load_state(r)?;
        r.read_u32s_into("spp lru_prev", &mut self.lru_prev)?;
        r.read_u32s_into("spp lru_next", &mut self.lru_next)?;
        self.lru_head = r.get_u32()?;
        self.lru_tail = r.get_u32()?;
        let free_next = r.get_usize()?;
        if free_next > self.sig_table.len() {
            return Err(simstate::StateError::BadValue {
                what: "spp free_next",
                found: free_next as u64,
            });
        }
        self.free_next = free_next;
        Ok(())
    }

    fn train(&mut self, sig: u32, delta: i32) {
        let entry = &mut self.pattern_table[sig as usize];
        if entry.delta == delta {
            entry.confidence = (entry.confidence + 1).min(3);
        } else if entry.confidence > 0 {
            entry.confidence -= 1;
        } else {
            *entry = PatternEntry { delta, confidence: 1 };
        }
    }

    /// Observe one demand access (`pc`, `block`) and push candidate
    /// prefetch block addresses into `out`.
    pub fn on_access(&mut self, _pc: u16, block: u64, _hit: bool, out: &mut Vec<u64>) {
        let page = block / BLOCKS_PER_PAGE;
        let offset = (block % BLOCKS_PER_PAGE) as i32;

        let (slot, tracked) = self.sig_slot(page);
        let e = self.sig_table[slot];
        let mut sig = 0u32;
        if tracked && e.valid {
            let delta = offset - e.last_offset;
            if delta != 0 {
                self.train(e.signature, delta);
                sig = Self::next_signature(e.signature, delta);
            } else {
                sig = e.signature;
            }
        }
        self.sig_table[slot] = SigEntry { page, valid: true, last_offset: offset, signature: sig };
        self.lru_push_front(slot);

        // Confidence-gated lookahead down the predicted path.
        let mut cur_sig = sig;
        let mut cur_offset = offset;
        for _ in 0..self.cfg.max_depth {
            let p = self.pattern_table[cur_sig as usize];
            if p.confidence < self.cfg.confidence_threshold || p.delta == 0 {
                break;
            }
            let next = cur_offset + p.delta;
            #[expect(clippy::cast_possible_truncation, reason = "BLOCKS_PER_PAGE is 64")]
            if !(0..BLOCKS_PER_PAGE as i32).contains(&next) {
                break; // never cross the page, as real SPP (sans GHR) cannot
            }
            out.push(page * BLOCKS_PER_PAGE + next as u64);
            cur_offset = next;
            cur_sig = Self::next_signature(cur_sig, p.delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_stream(spp: &mut Spp, blocks: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &b in blocks {
            spp.on_access(0, b, false, &mut out);
        }
        out
    }

    #[test]
    fn learns_unit_stride() {
        let mut spp = Spp::new(SppConfig::default());
        let stream: Vec<u64> = (0..20).collect();
        let out = run_stream(&mut spp, &stream);
        // After the pattern trains, prefetches run ahead of the stream.
        assert!(!out.is_empty());
        assert!(out.iter().all(|&b| b < 64), "stays within the page");
        assert!(out.contains(&15) || out.contains(&16));
    }

    #[test]
    fn learns_stride_2() {
        let mut spp = Spp::new(SppConfig::default());
        let stream: Vec<u64> = (0..30).map(|i| i * 2).collect();
        let out = run_stream(&mut spp, &stream);
        assert!(out.iter().any(|b| b % 2 == 0));
    }

    #[test]
    fn random_stream_trains_poorly() {
        let mut spp = Spp::new(SppConfig::default());
        // Pseudo-random offsets across many pages: confidence never builds.
        let stream: Vec<u64> = (0..200u64).map(|i| (i * 2654435761) % 100_000).collect();
        let out = run_stream(&mut spp, &stream);
        assert!(
            out.len() < 20,
            "irregular stream should produce few prefetches, got {}",
            out.len()
        );
    }

    #[test]
    fn never_crosses_page_boundary() {
        let mut spp = Spp::new(SppConfig::default());
        let stream: Vec<u64> = (40..64).collect();
        let out = run_stream(&mut spp, &stream);
        assert!(out.iter().all(|&b| b < 64));
    }

    #[test]
    fn signature_folding_distinguishes_sign() {
        let a = Spp::next_signature(0, 1);
        let b = Spp::next_signature(0, -1);
        assert_ne!(a, b);
    }

    #[test]
    fn eviction_tracks_true_lru_under_capacity_pressure() {
        // More pages than table entries: the oldest-touched page must be
        // the one evicted (retraining it restarts from a zero signature).
        let entries = SppConfig::default().signature_entries as u64;
        let mut spp = Spp::new(SppConfig::default());
        let mut out = Vec::new();
        // Touch pages 0..entries+1; page 0 is LRU when entries+1 arrives.
        for p in 0..=entries {
            spp.on_access(0, p * BLOCKS_PER_PAGE, false, &mut out);
        }
        // Page 1..entries are still tracked; page 0 was evicted.
        assert_eq!(spp.index.get(0), None);
        assert!(spp.index.get(1).is_some());
        assert!(spp.index.get(entries).is_some());
    }

    #[test]
    fn page_index_survives_heavy_turnover() {
        // Cycle far more pages than capacity to exercise tombstone
        // rebuilds; the index must stay consistent with the sig table.
        let mut spp = Spp::new(SppConfig::default());
        let mut out = Vec::new();
        for i in 0..50_000u64 {
            let page = (i * 2654435761) % 4096;
            spp.on_access(0, page * BLOCKS_PER_PAGE + i % 64, false, &mut out);
        }
        for (slot, e) in spp.sig_table.iter().enumerate() {
            if e.valid {
                assert_eq!(spp.index.get(e.page), Some(slot), "index lost page {}", e.page);
            }
        }
    }
}
