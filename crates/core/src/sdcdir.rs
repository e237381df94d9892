//! The SDCDir: the cache-directory extension that keeps the Side Data
//! Caches coherent with the conventional hierarchy (Section III-C, Fig. 6).
//!
//! Each entry holds a block tag, coherence state bits, and a sharer vector.
//! The SDCDir maintains *precise* information about SDC contents: a fill
//! into an SDC allocates an entry, and evicting an SDCDir entry requires
//! invalidating the block in every SDC that holds it (writing back if
//! dirty) — that back-invalidation is surfaced to the caller.

use crate::config::SdcDirConfig;
use serde::Serialize;

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    block: u64,
    valid: bool,
    /// Sharer bit vector (one bit per core).
    sharers: u64,
    stamp: u64,
}

/// SDCDir statistics.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SdcDirStats {
    pub lookups: u64,
    pub hits: u64,
    pub inserts: u64,
    /// Entries displaced by capacity, each forcing SDC back-invalidation.
    pub capacity_evictions: u64,
}

/// The directory extension tracking SDC contents.
#[derive(Debug)]
pub struct SdcDir {
    sets: usize,
    ways: usize,
    entries: Vec<DirEntry>,
    clock: u64,
    pub latency: u64,
    pub stats: SdcDirStats,
}

impl SdcDir {
    pub fn new(cfg: &SdcDirConfig) -> Self {
        SdcDir {
            sets: cfg.sets,
            ways: cfg.ways,
            entries: vec![DirEntry::default(); cfg.sets * cfg.ways],
            clock: 0,
            latency: cfg.latency,
            stats: SdcDirStats::default(),
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "block % sets is below sets, itself a usize"
    )]
    fn set_of(&self, block: u64) -> usize {
        (block % self.sets as u64) as usize
    }

    fn find(&self, block: u64) -> Option<usize> {
        let base = self.set_of(block) * self.ways;
        (0..self.ways)
            .map(|w| base + w)
            .find(|&i| self.entries[i].valid && self.entries[i].block == block)
    }

    /// Is `block` recorded as present in any SDC?
    pub fn contains(&mut self, block: u64) -> bool {
        self.stats.lookups += 1;
        let hit = self.find(block).is_some();
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Record that `core` filled `block` into its SDC. If the directory had
    /// to displace another entry, that entry's block is returned and the
    /// caller must invalidate it in all SDCs (Section III-C replacement
    /// rule).
    pub fn insert(&mut self, block: u64, core: usize) -> Option<u64> {
        self.clock += 1;
        self.stats.inserts += 1;
        if let Some(i) = self.find(block) {
            self.entries[i].sharers |= 1 << core;
            self.entries[i].stamp = self.clock;
            return None;
        }
        let base = self.set_of(block) * self.ways;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let e = &self.entries[base + w];
            if !e.valid {
                victim = base + w;
                break;
            }
            if e.stamp < oldest {
                oldest = e.stamp;
                victim = base + w;
            }
        }
        let displaced = self.entries[victim].valid.then_some(self.entries[victim].block);
        if displaced.is_some() {
            self.stats.capacity_evictions += 1;
        }
        self.entries[victim] =
            DirEntry { block, valid: true, sharers: 1 << core, stamp: self.clock };
        displaced
    }

    /// Record that `core`'s SDC no longer holds `block` (capacity eviction
    /// in the SDC itself). The entry disappears when no sharer remains.
    pub fn remove(&mut self, block: u64, core: usize) {
        if let Some(i) = self.find(block) {
            self.entries[i].sharers &= !(1 << core);
            if self.entries[i].sharers == 0 {
                self.entries[i].valid = false;
            }
        }
    }

    /// Sharer vector for `block` (testing/coherence-invariant aid).
    pub fn sharers(&self, block: u64) -> u64 {
        self.find(block).map_or(0, |i| self.entries[i].sharers)
    }

    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    pub fn reset_stats(&mut self) {
        self.stats = SdcDirStats::default();
    }

    /// Serialize the directory entries, LRU clock, and stats. Geometry is
    /// checked on restore; latency is config and not stored.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"SDIR");
        w.put_usize(self.sets);
        w.put_usize(self.ways);
        for e in &self.entries {
            w.put_u64(e.block);
            w.put_bool(e.valid);
            w.put_u64(e.sharers);
            w.put_u64(e.stamp);
        }
        w.put_u64(self.clock);
        w.put_u64(self.stats.lookups);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.inserts);
        w.put_u64(self.stats.capacity_evictions);
    }

    /// Restore state saved by [`Self::save_state`] into a directory of the
    /// same geometry.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"SDIR")?;
        let sets = r.get_usize()?;
        if sets != self.sets {
            return Err(simstate::StateError::ShapeMismatch {
                what: "sdcdir sets",
                expected: self.sets as u64,
                found: sets as u64,
            });
        }
        let ways = r.get_usize()?;
        if ways != self.ways {
            return Err(simstate::StateError::ShapeMismatch {
                what: "sdcdir ways",
                expected: self.ways as u64,
                found: ways as u64,
            });
        }
        for e in &mut self.entries {
            e.block = r.get_u64()?;
            e.valid = r.get_bool()?;
            e.sharers = r.get_u64()?;
            e.stamp = r.get_u64()?;
        }
        self.clock = r.get_u64()?;
        self.stats.lookups = r.get_u64()?;
        self.stats.hits = r.get_u64()?;
        self.stats.inserts = r.get_u64()?;
        self.stats.capacity_evictions = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> SdcDir {
        SdcDir::new(&SdcDirConfig::table1())
    }

    #[test]
    fn insert_then_contains() {
        let mut d = dir();
        assert!(!d.contains(42));
        assert_eq!(d.insert(42, 0), None);
        assert!(d.contains(42));
        assert_eq!(d.sharers(42), 1);
    }

    #[test]
    fn second_core_adds_sharer_bit() {
        let mut d = dir();
        d.insert(42, 0);
        d.insert(42, 3);
        assert_eq!(d.sharers(42), 0b1001);
        assert_eq!(d.occupancy(), 1);
    }

    #[test]
    fn remove_clears_when_last_sharer_leaves() {
        let mut d = dir();
        d.insert(7, 0);
        d.insert(7, 1);
        d.remove(7, 0);
        assert!(d.contains(7));
        d.remove(7, 1);
        assert!(!d.contains(7));
    }

    #[test]
    fn capacity_eviction_reports_displaced_block() {
        let mut d = dir();
        // 16 sets: blocks congruent mod 16 share a set (8 ways).
        let mut displaced = None;
        for i in 0..9u64 {
            displaced = d.insert(i * 16, 0);
        }
        assert_eq!(displaced, Some(0), "LRU entry (block 0) displaced");
        assert_eq!(d.stats.capacity_evictions, 1);
    }

    #[test]
    fn precise_occupancy_bounded_by_entries() {
        let mut d = dir();
        for i in 0..1000u64 {
            d.insert(i, 0);
        }
        assert!(d.occupancy() <= 128);
    }
}
