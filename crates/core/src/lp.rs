//! The Large Predictor (LP): a PC-indexed stride-accumulator table that
//! classifies each memory access as cache-friendly (route to the L1D) or
//! cache-averse (route to the SDC). Section III-B of the paper.
//!
//! Each entry holds the tag of the owning PC, the block address of that
//! PC's previous access, a 14-bit saturating accumulation of past strides,
//! and a valid bit. On every access the entry's accumulator is updated as
//! `s_acc = (s_acc + |stride|) >> 1` — an exponential moving average of the
//! stride magnitude — and the access is sent to the SDC iff
//! `s_acc >= tau_glob` *before* the update (prediction precedes training,
//! Fig. 4/5).

use crate::config::LpConfig;
use serde::Serialize;

/// Saturation bound of the 14-bit stride accumulator (Table IV).
pub const S_ACC_MAX: u64 = (1 << 14) - 1;

/// Where the predictor routes an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Cache-averse: serve via the Side Data Cache.
    Sdc,
    /// Cache-friendly (or no information): serve via L1D/L2C/LLC.
    Hierarchy,
}

#[derive(Debug, Clone, Copy, Default)]
struct LpEntry {
    tag: u64,
    /// Block address of the previous access by this PC.
    addr: u64,
    /// Saturating stride accumulator.
    s_acc: u64,
    valid: bool,
    stamp: u64,
}

/// Predictor statistics.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LpStats {
    pub lookups: u64,
    pub table_hits: u64,
    pub table_misses: u64,
    pub sdc_routes: u64,
    pub hierarchy_routes: u64,
}

/// The Large Predictor.
#[derive(Debug)]
pub struct LargePredictor {
    cfg: LpConfig,
    sets: usize,
    entries: Vec<LpEntry>,
    clock: u64,
    pub stats: LpStats,
}

impl LargePredictor {
    pub fn new(cfg: LpConfig) -> Self {
        assert!(
            cfg.ways > 0 && cfg.entries.is_multiple_of(cfg.ways),
            "entries must divide by ways"
        );
        let sets = cfg.entries / cfg.ways;
        // The tag is the PC with the set-index bits shifted off, so the set
        // count must be a power of two: with e.g. 6 sets, `pc % 6` and
        // `pc >> 1` would let distinct PCs collide on the same (set, tag)
        // and silently share one accumulator.
        assert!(
            sets.is_power_of_two(),
            "LP set count must be a power of two (entries {} / ways {} = {} sets)",
            cfg.entries,
            cfg.ways,
            sets
        );
        LargePredictor {
            cfg,
            sets,
            entries: vec![LpEntry::default(); cfg.entries],
            clock: 0,
            stats: LpStats::default(),
        }
    }

    pub fn config(&self) -> &LpConfig {
        &self.cfg
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "only the low bits survive the power-of-two set mask"
    )]
    fn set_of(&self, pc: u64) -> usize {
        (pc & (self.sets as u64 - 1)) as usize
    }

    #[inline]
    fn tag_of(&self, pc: u64) -> u64 {
        pc >> self.sets.trailing_zeros()
    }

    /// Predict the route for the access `(pc, block)` and train the table,
    /// exactly as Figs. 4 and 5 describe: look up by PC; on a hit compare
    /// the *current* accumulator against tau_glob, then fold in the new
    /// stride; on a miss install a fresh entry (LRU victim) and route to
    /// the hierarchy.
    pub fn predict_and_train(&mut self, pc: u64, block: u64) -> Route {
        self.clock += 1;
        self.stats.lookups += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.ways;

        for w in 0..self.cfg.ways {
            let e = &mut self.entries[base + w];
            if e.valid && e.tag == tag {
                self.stats.table_hits += 1;
                let route =
                    if e.s_acc >= self.cfg.tau_glob { Route::Sdc } else { Route::Hierarchy };
                // Train: accumulate the new stride and halve (Fig. 5 step 4).
                let stride = e.addr.abs_diff(block);
                e.s_acc = ((e.s_acc + stride) >> 1).min(S_ACC_MAX);
                e.addr = block;
                e.stamp = self.clock;
                match route {
                    Route::Sdc => self.stats.sdc_routes += 1,
                    Route::Hierarchy => self.stats.hierarchy_routes += 1,
                }
                return route;
            }
        }

        // Table miss: install over the LRU (or invalid) way; the access
        // itself goes through the normal hierarchy (Fig. 4 step 5).
        self.stats.table_misses += 1;
        self.stats.hierarchy_routes += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.cfg.ways {
            let e = &self.entries[base + w];
            let key = if e.valid { e.stamp } else { 0 };
            if key < oldest {
                oldest = key;
                victim = w;
            }
        }
        self.entries[base + victim] =
            LpEntry { tag, addr: block, s_acc: 0, valid: true, stamp: self.clock };
        Route::Hierarchy
    }

    /// Inspect the accumulator currently associated with `pc`, if any
    /// (testing/inspection aid).
    pub fn accumulator_of(&self, pc: u64) -> Option<u64> {
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.ways;
        (0..self.cfg.ways)
            .map(|w| &self.entries[base + w])
            .find(|e| e.valid && e.tag == tag)
            .map(|e| e.s_acc)
    }

    pub fn reset_stats(&mut self) {
        self.stats = LpStats::default();
    }

    /// Serialize the predictor table, LRU clock, and stats. The config is
    /// not stored (validated via the snapshot's config hash); geometry is
    /// checked on restore.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"LP__");
        w.put_usize(self.entries.len());
        for e in &self.entries {
            w.put_u64(e.tag);
            w.put_u64(e.addr);
            w.put_u64(e.s_acc);
            w.put_bool(e.valid);
            w.put_u64(e.stamp);
        }
        w.put_u64(self.clock);
        w.put_u64(self.stats.lookups);
        w.put_u64(self.stats.table_hits);
        w.put_u64(self.stats.table_misses);
        w.put_u64(self.stats.sdc_routes);
        w.put_u64(self.stats.hierarchy_routes);
    }

    /// Restore state saved by [`Self::save_state`] into a predictor of the
    /// same geometry.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"LP__")?;
        let n = r.get_usize()?;
        if n != self.entries.len() {
            return Err(simstate::StateError::ShapeMismatch {
                what: "lp entries",
                expected: self.entries.len() as u64,
                found: n as u64,
            });
        }
        for e in &mut self.entries {
            e.tag = r.get_u64()?;
            e.addr = r.get_u64()?;
            e.s_acc = r.get_u64()?;
            e.valid = r.get_bool()?;
            e.stamp = r.get_u64()?;
        }
        self.clock = r.get_u64()?;
        self.stats.lookups = r.get_u64()?;
        self.stats.table_hits = r.get_u64()?;
        self.stats.table_misses = r.get_u64()?;
        self.stats.sdc_routes = r.get_u64()?;
        self.stats.hierarchy_routes = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp() -> LargePredictor {
        LargePredictor::new(LpConfig::table1())
    }

    #[test]
    fn first_access_installs_and_routes_to_hierarchy() {
        let mut p = lp();
        assert_eq!(p.predict_and_train(0x400, 100), Route::Hierarchy);
        assert_eq!(p.stats.table_misses, 1);
        assert_eq!(p.accumulator_of(0x400), Some(0));
    }

    #[test]
    fn sequential_pc_stays_in_hierarchy() {
        let mut p = lp();
        for i in 0..100u64 {
            let route = p.predict_and_train(0x400, 1000 + i);
            assert_eq!(route, Route::Hierarchy, "stride-1 access routed to SDC at i={i}");
        }
        // s_acc converges to ~1 (exponential average of stride 1).
        assert!(p.accumulator_of(0x400).unwrap() <= 1);
    }

    #[test]
    fn large_stride_pc_diverts_to_sdc() {
        let mut p = lp();
        let mut routes = Vec::new();
        for i in 0..20u64 {
            routes.push(p.predict_and_train(0x400, i * 100_000));
        }
        // After warm-up the accumulator is far above tau=8.
        assert_eq!(routes[0], Route::Hierarchy, "first access has no history");
        assert!(routes[5..].iter().all(|&r| r == Route::Sdc), "routes: {routes:?}");
        assert!(p.accumulator_of(0x400).unwrap() >= 8);
    }

    #[test]
    fn accumulator_is_exponential_average() {
        let mut p = lp();
        p.predict_and_train(1, 0);
        p.predict_and_train(1, 100); // s_acc = (0 + 100) >> 1 = 50
        assert_eq!(p.accumulator_of(1), Some(50));
        p.predict_and_train(1, 100); // s_acc = (50 + 0) >> 1 = 25
        assert_eq!(p.accumulator_of(1), Some(25));
        p.predict_and_train(1, 104); // s_acc = (25 + 4) >> 1 = 14
        assert_eq!(p.accumulator_of(1), Some(14));
    }

    #[test]
    fn accumulator_saturates_at_14_bits() {
        let mut p = lp();
        p.predict_and_train(1, 0);
        for i in 1..50u64 {
            p.predict_and_train(1, i * u64::from(u32::MAX));
        }
        assert_eq!(p.accumulator_of(1), Some(S_ACC_MAX));
    }

    #[test]
    fn prediction_precedes_training() {
        // tau = 8. A PC whose first observed stride is huge must still be
        // routed to the hierarchy on that access (s_acc was 0 at predict
        // time) and to the SDC on the next.
        let mut p = lp();
        p.predict_and_train(1, 0);
        assert_eq!(p.predict_and_train(1, 1_000_000), Route::Hierarchy);
        assert_eq!(p.predict_and_train(1, 2_000_000), Route::Sdc);
    }

    #[test]
    fn lru_replacement_within_set() {
        // 4 sets, 8 ways: PCs congruent mod 4 share a set. Install 9 PCs in
        // set 0; the first must have been evicted.
        let mut p = lp();
        for i in 0..9u64 {
            p.predict_and_train(i * 4, 0);
        }
        assert!(p.accumulator_of(0).is_none(), "PC 0 should be evicted");
        assert!(p.accumulator_of(32).is_none() || p.accumulator_of(4).is_some());
        assert!(p.accumulator_of(8 * 4).is_some(), "newest PC present");
    }

    #[test]
    fn tau_zero_routes_everything_with_history_to_sdc() {
        let mut p = LargePredictor::new(LpConfig { entries: 32, ways: 8, tau_glob: 0 });
        p.predict_and_train(1, 0);
        assert_eq!(p.predict_and_train(1, 1), Route::Sdc);
        assert_eq!(p.predict_and_train(1, 1), Route::Sdc); // stride 0 still >= 0
    }

    #[test]
    fn distinct_pcs_tracked_independently() {
        let mut p = lp();
        for i in 0..50u64 {
            p.predict_and_train(100, i); // stride 1
            p.predict_and_train(200, i * 50_000); // huge stride
        }
        assert_eq!(p.predict_and_train(100, 50), Route::Hierarchy);
        assert_eq!(p.predict_and_train(200, 99 * 50_000), Route::Sdc);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_set_count_is_rejected() {
        // 24 entries / 4 ways = 6 sets: set index (mod) and tag (shift)
        // would disagree, aliasing distinct PCs onto one accumulator.
        let _ = LargePredictor::new(LpConfig { entries: 24, ways: 4, tau_glob: 8 });
    }

    #[test]
    fn same_set_pcs_never_share_an_entry() {
        // 4 sets: PCs 3, 7, 11, ... all land in set 3 but carry distinct
        // tags. Train PC 3 with huge strides and its set neighbors with
        // stride 1; the neighbors must not inherit PC 3's accumulator.
        let mut p = lp();
        for i in 0..20u64 {
            p.predict_and_train(3, i * 100_000);
            p.predict_and_train(7, 5000 + i);
        }
        assert_eq!(p.predict_and_train(3, 0), Route::Sdc);
        assert_eq!(p.predict_and_train(7, 5020), Route::Hierarchy);
        assert!(p.accumulator_of(7).unwrap() <= 1);
    }

    #[test]
    fn fully_associative_table_works() {
        // sets = 1 (fig. 11 configuration): every PC shares the set, tag is
        // the whole PC.
        let mut p = LargePredictor::new(LpConfig { entries: 8, ways: 8, tau_glob: 8 });
        for pc in 0..8u64 {
            p.predict_and_train(pc, 0);
        }
        for pc in 0..8u64 {
            assert_eq!(p.accumulator_of(pc), Some(0), "pc {pc} evicted prematurely");
        }
    }

    #[test]
    fn stats_add_up() {
        let mut p = lp();
        for i in 0..100u64 {
            p.predict_and_train(i % 10, i * 1000);
        }
        assert_eq!(p.stats.lookups, 100);
        assert_eq!(p.stats.table_hits + p.stats.table_misses, 100);
        assert_eq!(p.stats.sdc_routes + p.stats.hierarchy_routes, 100);
    }
}
