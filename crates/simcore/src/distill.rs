//! Line Distillation cache (Qureshi et al., HPCA 2007) — the "Distill
//! Cache" comparison point of Fig. 7/14.
//!
//! The cache is split into a Line-Organized Cache (LOC) holding whole
//! blocks and a Word-Organized Cache (WOC) holding individual 8-byte words.
//! When the LOC evicts a line, the words that were actually referenced are
//! *distilled* into the WOC, so a later access to a hot word can hit even
//! though the rest of the line is gone. The split is capacity-neutral
//! against the baseline LLC: `ways` total ways per set are divided into
//! `loc_ways` line ways and `(ways - loc_ways) * WORDS_PER_BLOCK` word
//! entries.

use crate::block::{word_in_block, WORDS_PER_BLOCK};
use crate::cache::{Cache, Eviction, LookupResult};
use crate::config::CacheConfig;
use crate::replacement::ReplCtx;
use crate::stats::CacheStats;

/// Maximum used words for a dying line to be worth distilling; lines with
/// more used words than this are simply dropped (they were well-utilized,
/// so distillation saves nothing).
const DISTILL_MAX_WORDS: u32 = 4;

/// Sentinel key for an empty/invalidated WOC slot. Real keys are
/// `block << 3 | word` with block addresses far below 2^58, so the
/// sentinel can never collide.
const INVALID_KEY: u64 = u64::MAX;

#[inline]
fn woc_key(block: u64, word: usize) -> u64 {
    debug_assert!(word < WORDS_PER_BLOCK);
    (block << 3) | word as u64
}

/// Result of a Distill-cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistillResult {
    LineHit,
    WordHit,
    Miss,
}

/// The distilled LLC: LOC + WOC.
///
/// WOC entries live in two flat parallel arrays: packed `(block, word)`
/// keys and LRU stamps. The lookup scan compares one word per entry
/// instead of unpacking a struct, and an invalid slot is just the
/// sentinel key with stamp 0 (which the insert scan already treats as
/// infinitely old).
pub struct DistillCache {
    loc: Cache,
    sets: usize,
    woc_per_set: usize,
    woc_keys: Vec<u64>,
    woc_stamps: Vec<u64>,
    clock: u64,
    /// Demand hits served by the WOC.
    pub woc_hits: u64,
    pub latency: u64,
}

impl DistillCache {
    /// Build from the baseline LLC geometry, dedicating `loc_ways` of the
    /// original ways to lines and the remainder to words.
    pub fn new(llc: &CacheConfig, loc_ways: usize) -> Self {
        assert!(loc_ways > 0 && loc_ways < llc.ways);
        let woc_per_set = (llc.ways - loc_ways) * WORDS_PER_BLOCK;
        let loc_cfg = CacheConfig { ways: loc_ways, ..*llc };
        DistillCache {
            loc: Cache::new(&loc_cfg),
            sets: llc.sets,
            woc_per_set,
            woc_keys: vec![INVALID_KEY; llc.sets * woc_per_set],
            woc_stamps: vec![0; llc.sets * woc_per_set],
            clock: 0,
            woc_hits: 0,
            latency: llc.latency,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "only the low bits survive the power-of-two set mask"
    )]
    fn set_of(&self, block: u64) -> usize {
        // Power-of-two set counts are enforced by the inner LOC cache
        // (same geometry), so the mask is exact.
        (block as usize) & (self.sets - 1)
    }

    fn woc_lookup(&mut self, block: u64, word: usize) -> bool {
        self.clock += 1;
        let base = self.set_of(block) * self.woc_per_set;
        let key = woc_key(block, word);
        let set = &self.woc_keys[base..base + self.woc_per_set];
        if let Some(i) = set.iter().position(|&k| k == key) {
            self.woc_stamps[base + i] = self.clock;
            return true;
        }
        false
    }

    fn woc_insert(&mut self, block: u64, word: u8) {
        self.clock += 1;
        let base = self.set_of(block) * self.woc_per_set;
        let key = woc_key(block, usize::from(word));
        // Reuse an existing entry for the same (block, word) or take the
        // LRU slot (invalid slots carry stamp 0: infinitely old).
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for i in 0..self.woc_per_set {
            if self.woc_keys[base + i] == key {
                victim = i;
                break;
            }
            let stamp = self.woc_stamps[base + i];
            if stamp < oldest {
                oldest = stamp;
                victim = i;
            }
        }
        self.woc_keys[base + victim] = key;
        self.woc_stamps[base + victim] = self.clock;
    }

    /// Distill the used words of an evicted line into the WOC.
    fn distill(&mut self, ev: &Eviction) {
        let used = ev.used_words.count_ones();
        if used == 0 || used > DISTILL_MAX_WORDS {
            return;
        }
        #[expect(clippy::cast_possible_truncation, reason = "WORDS_PER_BLOCK is 8")]
        for w in 0..WORDS_PER_BLOCK as u8 {
            if ev.used_words & (1 << w) != 0 {
                self.woc_insert(ev.block, w);
            }
        }
    }

    /// Demand access.
    pub fn access(&mut self, addr: u64, block: u64, is_write: bool, ctx: ReplCtx) -> DistillResult {
        match self.loc.access(addr, block, is_write, ctx) {
            LookupResult::Hit => DistillResult::LineHit,
            LookupResult::Miss => {
                if !is_write && self.woc_lookup(block, word_in_block(addr)) {
                    // A word hit still counts as a hit at this level; fix up
                    // the pessimistic miss the LOC recorded.
                    self.loc.stats.misses -= 1;
                    self.loc.stats.hits += 1;
                    self.woc_hits += 1;
                    DistillResult::WordHit
                } else {
                    DistillResult::Miss
                }
            }
        }
    }

    /// Fill a line into the LOC, distilling any victim.
    pub fn fill(
        &mut self,
        addr: u64,
        block: u64,
        is_write: bool,
        ctx: ReplCtx,
    ) -> Option<Eviction> {
        let ev = self.loc.fill(addr, block, is_write, false, ctx);
        if let Some(e) = &ev {
            self.distill(e);
        }
        ev
    }

    pub fn probe(&self, block: u64) -> bool {
        self.loc.probe(block)
    }

    pub fn invalidate(&mut self, block: u64) -> Option<bool> {
        let base = self.set_of(block) * self.woc_per_set;
        for i in 0..self.woc_per_set {
            if self.woc_keys[base + i] >> 3 == block {
                self.woc_keys[base + i] = INVALID_KEY;
                // Stamp 0 restores the "infinitely old" ordering the
                // insert scan expects from an empty slot.
                self.woc_stamps[base + i] = 0;
            }
        }
        self.loc.invalidate(block)
    }

    pub fn mark_dirty(&mut self, block: u64) -> bool {
        self.loc.mark_dirty(block)
    }

    pub fn stats(&self) -> &CacheStats {
        &self.loc.stats
    }

    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.loc.stats
    }

    pub fn position(&self) -> u64 {
        self.loc.position()
    }

    /// Serialize the LOC plus the WOC arrays, clock, and word-hit counter.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"DST_");
        self.loc.save_state(w);
        w.put_usize(self.woc_per_set);
        w.put_u64s(&self.woc_keys);
        w.put_u64s(&self.woc_stamps);
        w.put_u64(self.clock);
        w.put_u64(self.woc_hits);
    }

    /// Restore state saved by [`Self::save_state`] into a cache of the same
    /// LOC/WOC split.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"DST_")?;
        self.loc.load_state(r)?;
        let woc_per_set = r.get_usize()?;
        if woc_per_set != self.woc_per_set {
            return Err(simstate::StateError::ShapeMismatch {
                what: "distill woc_per_set",
                expected: self.woc_per_set as u64,
                found: woc_per_set as u64,
            });
        }
        r.read_u64s_into("distill woc_keys", &mut self.woc_keys)?;
        r.read_u64s_into("distill woc_stamps", &mut self.woc_stamps)?;
        self.clock = r.get_u64()?;
        self.woc_hits = r.get_u64()?;
        Ok(())
    }
}

impl std::fmt::Debug for DistillCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistillCache")
            .field("sets", &self.sets)
            .field("woc_per_set", &self.woc_per_set)
            .field("woc_hits", &self.woc_hits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_BITS;
    use crate::config::{PrefetcherKind, ReplacementKind};

    fn cfg(sets: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            sets,
            ways,
            latency: 10,
            mshr_entries: 4,
            replacement: ReplacementKind::Lru,
            prefetcher: PrefetcherKind::None,
        }
    }

    fn addr_of(block: u64, word: u64) -> u64 {
        (block << BLOCK_BITS) + word * 8
    }

    #[test]
    fn line_hit_after_fill() {
        let mut d = DistillCache::new(&cfg(4, 4), 2);
        d.access(addr_of(1, 0), 1, false, ReplCtx::NONE);
        d.fill(addr_of(1, 0), 1, false, ReplCtx::NONE);
        assert_eq!(d.access(addr_of(1, 0), 1, false, ReplCtx::NONE), DistillResult::LineHit);
    }

    #[test]
    fn evicted_used_word_hits_in_woc() {
        let mut d = DistillCache::new(&cfg(1, 3), 2);
        // Fill block 1, touch word 3, then evict it by filling 2 more lines.
        d.fill(addr_of(1, 3), 1, false, ReplCtx::NONE);
        d.fill(addr_of(2, 0), 2, false, ReplCtx::NONE);
        d.fill(addr_of(3, 0), 3, false, ReplCtx::NONE); // evicts block 1
        assert!(!d.probe(1));
        // The used word (3) was distilled; an access to it hits the WOC.
        assert_eq!(d.access(addr_of(1, 3), 1, false, ReplCtx::NONE), DistillResult::WordHit);
        assert_eq!(d.woc_hits, 1);
        // A different word of the same line misses.
        assert_eq!(d.access(addr_of(1, 5), 1, false, ReplCtx::NONE), DistillResult::Miss);
    }

    #[test]
    fn heavily_used_lines_not_distilled() {
        let mut d = DistillCache::new(&cfg(1, 3), 2);
        d.fill(addr_of(1, 0), 1, false, ReplCtx::NONE);
        for w in 1..8 {
            d.access(addr_of(1, w), 1, false, ReplCtx::NONE);
        }
        d.fill(addr_of(2, 0), 2, false, ReplCtx::NONE);
        d.fill(addr_of(3, 0), 3, false, ReplCtx::NONE); // evicts block 1, 8 used words
        assert_eq!(d.access(addr_of(1, 0), 1, false, ReplCtx::NONE), DistillResult::Miss);
    }

    #[test]
    fn invalidate_clears_woc_words_too() {
        let mut d = DistillCache::new(&cfg(1, 3), 2);
        d.fill(addr_of(1, 2), 1, false, ReplCtx::NONE);
        d.fill(addr_of(2, 0), 2, false, ReplCtx::NONE);
        d.fill(addr_of(3, 0), 3, false, ReplCtx::NONE);
        // Word 2 of block 1 is in the WOC now; invalidation must remove it.
        d.invalidate(1);
        assert_eq!(d.access(addr_of(1, 2), 1, false, ReplCtx::NONE), DistillResult::Miss);
    }

    #[test]
    fn woc_word_hit_counts_as_level_hit() {
        let mut d = DistillCache::new(&cfg(1, 3), 2);
        d.fill(addr_of(1, 3), 1, false, ReplCtx::NONE);
        d.fill(addr_of(2, 0), 2, false, ReplCtx::NONE);
        d.fill(addr_of(3, 0), 3, false, ReplCtx::NONE);
        let misses_before = d.stats().misses;
        d.access(addr_of(1, 3), 1, false, ReplCtx::NONE);
        assert_eq!(d.stats().misses, misses_before);
    }
}
