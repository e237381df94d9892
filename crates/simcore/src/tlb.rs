//! Two-level data TLB (Table I: 64-entry L1 DTLB, 1536-entry L2 STLB) with
//! a fixed-cost page walk on an STLB miss.

use crate::block::page_of;
use crate::config::{TlbConfig, PAGE_WALK_LATENCY};
use crate::stats::CacheStats;

/// Sentinel page number marking an empty way. Page numbers are
/// `addr >> 12`, far below `u64::MAX`, so the sentinel never collides and
/// the lookup loop compares one flat `u64` lane (no `Option` tag bytes).
const INVALID_PAGE: u64 = u64::MAX;

/// One TLB level: a set-associative array of page numbers with inline LRU
/// stamps (same fill/victim order as the `Lru` replacement policy, flattened
/// into the level so the whole lookup stays in two arrays).
#[derive(Debug)]
struct TlbLevel {
    sets: usize,
    ways: usize,
    pages: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    latency: u64,
}

impl TlbLevel {
    fn new(cfg: &TlbConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two(),
            "TLB sets must be a power of two for mask indexing (got {})",
            cfg.sets
        );
        TlbLevel {
            sets: cfg.sets,
            ways: cfg.ways,
            pages: vec![INVALID_PAGE; cfg.sets * cfg.ways],
            stamps: vec![0; cfg.sets * cfg.ways],
            clock: 0,
            latency: cfg.latency,
        }
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "only the low bits survive the power-of-two set mask"
    )]
    fn set_of(&self, page: u64) -> usize {
        (page as usize) & (self.sets - 1)
    }

    fn save_state(&self, w: &mut simstate::StateSink) {
        w.put_usize(self.sets);
        w.put_usize(self.ways);
        w.put_u64s(&self.pages);
        w.put_u64s(&self.stamps);
        w.put_u64(self.clock);
    }

    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError> {
        let sets = r.get_usize()?;
        if sets != self.sets {
            return Err(simstate::StateError::ShapeMismatch {
                what: "tlb sets",
                expected: self.sets as u64,
                found: sets as u64,
            });
        }
        let ways = r.get_usize()?;
        if ways != self.ways {
            return Err(simstate::StateError::ShapeMismatch {
                what: "tlb ways",
                expected: self.ways as u64,
                found: ways as u64,
            });
        }
        r.read_u64s_into("tlb pages", &mut self.pages)?;
        r.read_u64s_into("tlb stamps", &mut self.stamps)?;
        self.clock = r.get_u64()?;
        Ok(())
    }

    #[inline]
    fn lookup(&mut self, page: u64) -> bool {
        let set = self.set_of(page);
        let base = set * self.ways;
        if let Some(w) = self.pages[base..base + self.ways].iter().position(|&p| p == page) {
            self.clock += 1;
            self.stamps[base + w] = self.clock;
            return true;
        }
        false
    }

    fn fill(&mut self, page: u64) {
        let set = self.set_of(page);
        let base = set * self.ways;
        // First empty way, else the LRU one (first strict minimum stamp).
        let way = self.pages[base..base + self.ways]
            .iter()
            .position(|&p| p == INVALID_PAGE)
            .unwrap_or_else(|| {
                let mut victim = 0;
                let mut oldest = u64::MAX;
                for (w, &s) in self.stamps[base..base + self.ways].iter().enumerate() {
                    if s < oldest {
                        oldest = s;
                        victim = w;
                    }
                }
                victim
            });
        self.pages[base + way] = page;
        self.clock += 1;
        self.stamps[base + way] = self.clock;
    }
}

/// The DTLB + STLB pair. Translation latency is returned per access; the
/// DTLB lookup overlaps the L1 cache access (as on real hardware), so a
/// DTLB hit contributes zero additional cycles.
#[derive(Debug)]
pub struct TlbHierarchy {
    dtlb: TlbLevel,
    stlb: TlbLevel,
    pub dtlb_stats: CacheStats,
    pub stlb_stats: CacheStats,
}

impl TlbHierarchy {
    pub fn new(dtlb: &TlbConfig, stlb: &TlbConfig) -> Self {
        TlbHierarchy {
            dtlb: TlbLevel::new(dtlb),
            stlb: TlbLevel::new(stlb),
            dtlb_stats: CacheStats::default(),
            stlb_stats: CacheStats::default(),
        }
    }

    /// Translate the access at `addr`; returns the extra latency (in core
    /// cycles) the translation adds on top of the cache access.
    pub fn translate(&mut self, addr: u64) -> u64 {
        let page = page_of(addr);
        if self.dtlb.lookup(page) {
            self.dtlb_stats.record_hit();
            return 0;
        }
        self.dtlb_stats.record_miss();
        if self.stlb.lookup(page) {
            self.stlb_stats.record_hit();
            self.dtlb.fill(page);
            return self.stlb.latency;
        }
        self.stlb_stats.record_miss();
        self.stlb.fill(page);
        self.dtlb.fill(page);
        self.stlb.latency + PAGE_WALK_LATENCY
    }

    /// Serialize both levels (entries + LRU stamps) and their stats.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"TLB_");
        self.dtlb.save_state(w);
        self.stlb.save_state(w);
        self.dtlb_stats.save_state(w);
        self.stlb_stats.save_state(w);
    }

    /// Restore state saved by [`Self::save_state`] into a hierarchy of the
    /// same geometry.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"TLB_")?;
        self.dtlb.load_state(r)?;
        self.stlb.load_state(r)?;
        self.dtlb_stats.load_state(r)?;
        self.stlb_stats.load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn tlbs() -> TlbHierarchy {
        let cfg = SystemConfig::baseline(1);
        TlbHierarchy::new(&cfg.dtlb, &cfg.stlb)
    }

    #[test]
    fn first_access_walks_then_hits() {
        let mut t = tlbs();
        let lat = t.translate(0x1234);
        assert_eq!(lat, 8 + PAGE_WALK_LATENCY);
        assert_eq!(t.translate(0x1240), 0); // same page, DTLB hit
        assert_eq!(t.dtlb_stats.hits, 1);
        assert_eq!(t.stlb_stats.misses, 1);
    }

    #[test]
    fn dtlb_evictions_fall_back_to_stlb() {
        let mut t = tlbs();
        // Touch far more pages than the 64-entry DTLB holds, but fewer than
        // the STLB's 1536 entries.
        for p in 0..256u64 {
            t.translate(p * 4096);
        }
        // Re-touch page 0: DTLB evicted it, STLB still has it.
        let lat = t.translate(0);
        assert_eq!(lat, 8);
    }

    #[test]
    fn distinct_pages_distinct_misses() {
        let mut t = tlbs();
        t.translate(0);
        t.translate(4096);
        assert_eq!(t.stlb_stats.misses, 2);
    }
}
