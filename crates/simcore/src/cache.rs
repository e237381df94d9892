//! Generic set-associative, write-back cache with pluggable replacement.
//!
//! The cache tracks tags and state only (the simulator never moves data);
//! per-word usage bits are kept for the Line Distillation baseline.

use crate::block::word_in_block;
use crate::config::CacheConfig;
use crate::replacement::{ReplCtx, ReplState};
use crate::stats::CacheStats;

/// Tag sentinel for an invalid (empty) way. Blocks are `addr >> BLOCK_BITS`
/// so a real tag never reaches `u64::MAX`; using a sentinel instead of a
/// separate `valid` bitmap keeps the hit lookup to a single array scan.
const INVALID_TAG: u64 = u64::MAX;

/// Per-line flag: line holds data newer than the level below.
const META_DIRTY: u8 = 1 << 0;
/// Per-line flag: line was filled by a prefetcher and not yet demanded.
const META_PREFETCHED: u8 = 1 << 1;

/// A dirty line pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    pub block: u64,
    pub dirty: bool,
    /// Words demanded while the line was resident (Line Distillation).
    pub used_words: u8,
}

/// Result of a demand lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    Hit,
    Miss,
}

/// Set-associative cache.
///
/// Line state is stored struct-of-arrays: parallel flat `tags`/`meta`/`used`
/// vectors indexed by `set * ways + way`. The hit path only ever touches
/// `tags` (a contiguous `u64` scan the compiler unrolls/vectorises), and
/// replacement state is enum-dispatched ([`ReplState`]) so its hooks inline
/// instead of going through a vtable.
pub struct Cache {
    sets: usize,
    ways: usize,
    /// Set-index mask (`sets` is validated to be a power of two).
    set_mask: usize,
    /// Per-way resident block, [`INVALID_TAG`] when empty.
    tags: Vec<u64>,
    /// Per-way `META_*` flag bits.
    meta: Vec<u8>,
    /// Per-way bitmap of 8-byte words touched by demand accesses.
    used: Vec<u8>,
    repl: ReplState,
    pub stats: CacheStats,
    /// Lookup latency in core cycles.
    pub latency: u64,
    /// Monotonic access position (feeds T-OPT's ReplCtx). Advances on
    /// every demand access *and* on every fill, so back-to-back fills
    /// never share a replacement timestamp. 64-bit: never wraps.
    pos: u64,
}

impl Cache {
    pub fn new(cfg: &CacheConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two(),
            "cache sets must be a power of two for mask indexing (got {}); \
             validate configs with CacheConfig::validate",
            cfg.sets
        );
        Cache {
            sets: cfg.sets,
            ways: cfg.ways,
            set_mask: cfg.sets - 1,
            tags: vec![INVALID_TAG; cfg.sets * cfg.ways],
            meta: vec![0; cfg.sets * cfg.ways],
            used: vec![0; cfg.sets * cfg.ways],
            repl: ReplState::new(cfg.replacement, cfg.sets, cfg.ways),
            stats: CacheStats::default(),
            latency: cfg.latency,
            pos: 0,
        }
    }

    pub fn sets(&self) -> usize {
        self.sets
    }

    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "only the low bits survive the power-of-two set mask"
    )]
    fn set_of(&self, block: u64) -> usize {
        // Sets are validated to be a power of two, so the mask is exact
        // (and avoids a hardware divide on the hot path).
        (block as usize) & self.set_mask
    }

    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        // Invalid ways hold INVALID_TAG, which no real block equals, so a
        // plain tag compare doubles as the validity check.
        let base = set * self.ways;
        self.tags[base..base + self.ways].iter().position(|&t| t == tag)
    }

    /// Current access-position counter.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Demand access. Updates replacement state, dirty and word-usage bits.
    /// Does *not* fill on miss; the caller drives the fill path so that
    /// MSHR and lower-level timing can be modelled.
    pub fn access(&mut self, addr: u64, block: u64, is_write: bool, ctx: ReplCtx) -> LookupResult {
        self.pos += 1;
        let set = self.set_of(block);
        match self.find(set, block) {
            Some(way) => {
                self.stats.record_hit();
                let idx = set * self.ways + way;
                let m = self.meta[idx];
                if m & META_PREFETCHED != 0 {
                    self.stats.prefetch_hits += 1;
                }
                // Clears the prefetched bit, preserves dirty, ORs in the
                // write's dirty — branchlessly.
                self.meta[idx] = (m & !META_PREFETCHED) | (u8::from(is_write) * META_DIRTY);
                self.used[idx] |= 1 << word_in_block(addr);
                self.repl.on_hit(set, way, ReplCtx { pos: self.pos, ..ctx });
                LookupResult::Hit
            }
            None => {
                self.stats.record_miss();
                LookupResult::Miss
            }
        }
    }

    /// Fill `block` (after a demand miss or on behalf of a prefetcher).
    /// Returns the eviction the fill displaced, if any.
    pub fn fill(
        &mut self,
        addr: u64,
        block: u64,
        is_write: bool,
        prefetched: bool,
        ctx: ReplCtx,
    ) -> Option<Eviction> {
        let set = self.set_of(block);
        if let Some(way) = self.find(set, block) {
            // Already present (e.g. race between demand fill and prefetch):
            // just merge state.
            let idx = set * self.ways + way;
            self.meta[idx] |= u8::from(is_write) * META_DIRTY;
            if !prefetched {
                self.meta[idx] &= !META_PREFETCHED;
                self.used[idx] |= 1 << word_in_block(addr);
            }
            return None;
        }
        // Fills advance the position clock too: back-to-back fills
        // (prefetch bursts, MSHR drains) must not share the stale demand
        // position, or age-based policies see them as simultaneous.
        self.pos += 1;
        let base = set * self.ways;
        let (way, evicted) = match self.find(set, INVALID_TAG) {
            Some(w) => (w, None),
            None => {
                let w = self.repl.victim(set);
                let idx = base + w;
                (
                    w,
                    Some(Eviction {
                        block: self.tags[idx],
                        dirty: self.meta[idx] & META_DIRTY != 0,
                        used_words: self.used[idx],
                    }),
                )
            }
        };
        if prefetched {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.fills += 1;
        }
        let idx = base + way;
        self.tags[idx] = block;
        self.meta[idx] =
            (u8::from(is_write) * META_DIRTY) | (u8::from(prefetched) * META_PREFETCHED);
        self.used[idx] = if prefetched { 0 } else { 1 << word_in_block(addr) };
        self.repl.on_fill(set, way, ReplCtx { pos: self.pos, ..ctx });
        if evicted.is_some() {
            self.stats.writebacks += u64::from(evicted.is_some_and(|e| e.dirty));
        }
        evicted
    }

    /// Check for presence without disturbing any state (coherence probes).
    pub fn probe(&self, block: u64) -> bool {
        self.find(self.set_of(block), block).is_some()
    }

    /// Invalidate `block` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, block: u64) -> Option<bool> {
        let set = self.set_of(block);
        let way = self.find(set, block)?;
        let idx = set * self.ways + way;
        let dirty = self.meta[idx] & META_DIRTY != 0;
        self.tags[idx] = INVALID_TAG;
        self.meta[idx] = 0;
        self.used[idx] = 0;
        self.stats.invalidations += 1;
        Some(dirty)
    }

    /// Mark a resident block dirty (write forwarded into this level).
    pub fn mark_dirty(&mut self, block: u64) -> bool {
        let set = self.set_of(block);
        if let Some(way) = self.find(set, block) {
            self.meta[set * self.ways + way] |= META_DIRTY;
            true
        } else {
            false
        }
    }

    /// Number of currently valid lines (test/debug aid).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Serialize line state, replacement metadata, stats, and the position
    /// clock. Geometry (`sets`/`ways`) is written for validation; latency
    /// and the set mask are config-derived and not stored.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"CCH_");
        w.put_usize(self.sets);
        w.put_usize(self.ways);
        w.put_u64s(&self.tags);
        w.put_bytes(&self.meta);
        w.put_bytes(&self.used);
        self.repl.save_state(w);
        self.stats.save_state(w);
        w.put_u64(self.pos);
    }

    /// Restore state saved by [`Self::save_state`] into a cache of the same
    /// geometry and replacement policy.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"CCH_")?;
        let sets = r.get_usize()?;
        if sets != self.sets {
            return Err(simstate::StateError::ShapeMismatch {
                what: "cache sets",
                expected: self.sets as u64,
                found: sets as u64,
            });
        }
        let ways = r.get_usize()?;
        if ways != self.ways {
            return Err(simstate::StateError::ShapeMismatch {
                what: "cache ways",
                expected: self.ways as u64,
                found: ways as u64,
            });
        }
        r.read_u64s_into("cache tags", &mut self.tags)?;
        r.read_bytes_into("cache meta", &mut self.meta)?;
        r.read_bytes_into("cache used", &mut self.used)?;
        self.repl.load_state(r)?;
        self.stats.load_state(r)?;
        self.pos = r.get_u64()?;
        Ok(())
    }
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("latency", &self.latency)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetcherKind, ReplacementKind};

    fn small_cache(sets: usize, ways: usize) -> Cache {
        Cache::new(&CacheConfig {
            sets,
            ways,
            latency: 1,
            mshr_entries: 4,
            replacement: ReplacementKind::Lru,
            prefetcher: PrefetcherKind::None,
        })
    }

    fn addr_of(block: u64) -> u64 {
        block << crate::block::BLOCK_BITS
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(4, 2);
        let b = 100;
        assert_eq!(c.access(addr_of(b), b, false, ReplCtx::NONE), LookupResult::Miss);
        assert!(c.fill(addr_of(b), b, false, false, ReplCtx::NONE).is_none());
        assert_eq!(c.access(addr_of(b), b, false, ReplCtx::NONE), LookupResult::Hit);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.fills, 1);
    }

    #[test]
    fn conflict_eviction_in_same_set() {
        let mut c = small_cache(4, 2);
        // Blocks 0, 4, 8 all map to set 0 in a 4-set cache.
        for b in [0u64, 4, 8] {
            c.access(addr_of(b), b, false, ReplCtx::NONE);
            c.fill(addr_of(b), b, false, false, ReplCtx::NONE);
        }
        // Block 0 was LRU and must have been evicted.
        assert!(!c.probe(0));
        assert!(c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn write_makes_dirty_and_eviction_reports_it() {
        let mut c = small_cache(1, 1);
        c.access(addr_of(7), 7, true, ReplCtx::NONE);
        c.fill(addr_of(7), 7, true, false, ReplCtx::NONE);
        let ev = c.fill(addr_of(9), 9, false, false, ReplCtx::NONE).unwrap();
        assert_eq!(ev.block, 7);
        assert!(ev.dirty);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn clean_eviction_not_a_writeback() {
        let mut c = small_cache(1, 1);
        c.fill(addr_of(7), 7, false, false, ReplCtx::NONE);
        let ev = c.fill(addr_of(9), 9, false, false, ReplCtx::NONE).unwrap();
        assert!(!ev.dirty);
        assert_eq!(c.stats.writebacks, 0);
    }

    #[test]
    fn prefetch_fill_then_demand_hit_counts_prefetch_hit() {
        let mut c = small_cache(4, 2);
        c.fill(addr_of(3), 3, false, true, ReplCtx::NONE);
        assert_eq!(c.stats.prefetch_fills, 1);
        assert_eq!(c.access(addr_of(3), 3, false, ReplCtx::NONE), LookupResult::Hit);
        assert_eq!(c.stats.prefetch_hits, 1);
        // Second hit no longer counts as a prefetch hit.
        c.access(addr_of(3), 3, false, ReplCtx::NONE);
        assert_eq!(c.stats.prefetch_hits, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache(4, 2);
        c.fill(addr_of(5), 5, true, false, ReplCtx::NONE);
        assert_eq!(c.invalidate(5), Some(true));
        assert!(!c.probe(5));
        assert_eq!(c.invalidate(5), None);
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn used_words_accumulate() {
        let mut c = small_cache(1, 1);
        let b = 0u64;
        c.fill(0, b, false, false, ReplCtx::NONE); // word 0
        c.access(8, b, false, ReplCtx::NONE); // word 1
        c.access(56, b, false, ReplCtx::NONE); // word 7
        let ev = c.fill(addr_of(1), 1, false, false, ReplCtx::NONE).unwrap();
        assert_eq!(ev.used_words, 0b1000_0011);
    }

    #[test]
    fn duplicate_fill_is_merged_not_duplicated() {
        let mut c = small_cache(4, 2);
        c.fill(addr_of(3), 3, false, false, ReplCtx::NONE);
        assert!(c.fill(addr_of(3), 3, true, false, ReplCtx::NONE).is_none());
        assert_eq!(c.occupancy(), 1);
        // The merged write must have made it dirty.
        let ev = loop {
            // force eviction of block 3 by filling its set
            if let Some(ev) = c.fill(addr_of(7), 7, false, false, ReplCtx::NONE) {
                break ev;
            }
            if let Some(ev) = c.fill(addr_of(11), 11, false, false, ReplCtx::NONE) {
                break ev;
            }
        };
        assert_eq!(ev.block, 3);
        assert!(ev.dirty);
    }

    #[test]
    fn fill_advances_the_position_clock() {
        let mut c = small_cache(4, 2);
        assert_eq!(c.position(), 0);
        c.fill(addr_of(1), 1, false, false, ReplCtx::NONE);
        assert_eq!(c.position(), 1);
        // A merged (already-present) fill is not an insertion: no tick.
        c.fill(addr_of(1), 1, false, false, ReplCtx::NONE);
        assert_eq!(c.position(), 1);
        c.access(addr_of(1), 1, false, ReplCtx::NONE);
        assert_eq!(c.position(), 2);
    }

    #[test]
    fn back_to_back_fills_age_distinctly_under_topt() {
        // Two unhinted fills in a row used to inherit the same stale demand
        // position, so their predicted next uses tied and the victim fell
        // back to the LRU stamp (insertion order). Each fill now gets its
        // own position tick: the *later* fill is predicted farther away and
        // is the one evicted.
        let mut c = Cache::new(&CacheConfig {
            sets: 1,
            ways: 2,
            latency: 1,
            mshr_entries: 4,
            replacement: ReplacementKind::TOpt,
            prefetcher: PrefetcherKind::None,
        });
        c.fill(addr_of(10), 10, false, false, ReplCtx::NONE);
        c.fill(addr_of(20), 20, false, false, ReplCtx::NONE);
        let ev = c.fill(addr_of(30), 30, false, false, ReplCtx::NONE).unwrap();
        assert_eq!(ev.block, 20, "later back-to-back fill must be predicted farther");
        assert!(c.probe(10));
        assert!(!c.probe(20));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_set_count_is_rejected() {
        let _ = small_cache(3, 2);
    }

    #[test]
    fn snapshot_restores_bit_identical_behaviour() {
        for repl in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::TOpt] {
            let cfg = CacheConfig {
                sets: 4,
                ways: 2,
                latency: 1,
                mshr_entries: 4,
                replacement: repl,
                prefetcher: PrefetcherKind::None,
            };
            let mut live = Cache::new(&cfg);
            // Mixed warmup: fills, hits, a write, a prefetch, an invalidate.
            for b in [0u64, 4, 8, 3, 7, 3, 0] {
                if live.access(addr_of(b), b, b == 7, ReplCtx::NONE) == LookupResult::Miss {
                    live.fill(addr_of(b), b, b == 7, false, ReplCtx::NONE);
                }
            }
            live.fill(addr_of(12), 12, false, true, ReplCtx::NONE);
            live.invalidate(4);

            let mut w = simstate::StateSink::new();
            live.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut restored = Cache::new(&cfg);
            let mut r = simstate::StateSource::new(&bytes);
            restored.load_state(&mut r).expect("restore");
            r.expect_end().expect("payload fully consumed");

            // Same tail of accesses produces the same observable behaviour
            // (including victim choices, which exercise replacement state).
            for b in [1u64, 5, 9, 13, 1, 3, 12, 8] {
                assert_eq!(
                    live.access(addr_of(b), b, false, ReplCtx::NONE),
                    restored.access(addr_of(b), b, false, ReplCtx::NONE),
                    "{repl:?}: divergent lookup for block {b}"
                );
                assert_eq!(
                    live.fill(addr_of(b), b, false, false, ReplCtx::NONE),
                    restored.fill(addr_of(b), b, false, false, ReplCtx::NONE),
                    "{repl:?}: divergent eviction for block {b}"
                );
            }
            assert_eq!(live.stats, restored.stats);
            assert_eq!(live.position(), restored.position());
        }
    }

    #[test]
    fn snapshot_rejects_wrong_geometry_and_policy() {
        let mut src = small_cache(4, 2);
        src.fill(addr_of(1), 1, false, false, ReplCtx::NONE);
        let mut w = simstate::StateSink::new();
        src.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut wrong_shape = small_cache(8, 2);
        assert!(matches!(
            wrong_shape.load_state(&mut simstate::StateSource::new(&bytes)),
            Err(simstate::StateError::ShapeMismatch { .. })
        ));

        let mut wrong_policy = Cache::new(&CacheConfig {
            sets: 4,
            ways: 2,
            latency: 1,
            mshr_entries: 4,
            replacement: ReplacementKind::TOpt,
            prefetcher: PrefetcherKind::None,
        });
        assert!(matches!(
            wrong_policy.load_state(&mut simstate::StateSource::new(&bytes)),
            Err(simstate::StateError::BadValue { .. })
        ));
    }

    #[test]
    fn mark_dirty_only_when_present() {
        let mut c = small_cache(4, 2);
        assert!(!c.mark_dirty(9));
        c.fill(addr_of(9), 9, false, false, ReplCtx::NONE);
        assert!(c.mark_dirty(9));
    }
}
