//! Hit/miss accounting, MPKI computation, and the PC-stride profiler that
//! backs the paper's Finding 3 (Fig. 3).

use serde::Serialize;
use std::collections::BTreeMap;

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Demand accesses (loads + stores reaching this level).
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines inserted (demand fills).
    pub fills: u64,
    /// Lines inserted by a prefetcher.
    pub prefetch_fills: u64,
    /// Demand hits on lines brought in by a prefetcher.
    pub prefetch_hits: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines invalidated by coherence actions.
    pub invalidations: u64,
}

impl CacheStats {
    pub fn record_hit(&mut self) {
        self.accesses += 1;
        self.hits += 1;
    }

    pub fn record_miss(&mut self) {
        self.accesses += 1;
        self.misses += 1;
    }

    /// Misses per kilo-instruction for a measurement window of
    /// `instructions` instructions.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.misses as f64 * 1000.0 / instructions as f64
    }

    /// Demand miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.misses as f64 / self.accesses as f64
    }

    /// Reset all counters (used at the warmup/measurement boundary;
    /// cache *state* is preserved).
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }

    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.put_u64(self.accesses);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.fills);
        w.put_u64(self.prefetch_fills);
        w.put_u64(self.prefetch_hits);
        w.put_u64(self.writebacks);
        w.put_u64(self.invalidations);
    }

    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        self.accesses = r.get_u64()?;
        self.hits = r.get_u64()?;
        self.misses = r.get_u64()?;
        self.fills = r.get_u64()?;
        self.prefetch_fills = r.get_u64()?;
        self.prefetch_hits = r.get_u64()?;
        self.writebacks = r.get_u64()?;
        self.invalidations = r.get_u64()?;
        Ok(())
    }
}

/// Counters for the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DramStats {
    pub reads: u64,
    pub writes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    /// Sum of (completion - issue) over all demand reads, for mean latency.
    pub total_read_latency: u64,
    /// Prefetches dropped because the target bank/bus was congested.
    pub prefetches_dropped: u64,
}

impl DramStats {
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    pub fn mean_read_latency(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.total_read_latency as f64 / self.reads as f64
    }

    pub fn row_hit_ratio(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }

    pub fn reset(&mut self) {
        *self = DramStats::default();
    }

    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.put_u64(self.reads);
        w.put_u64(self.writes);
        w.put_u64(self.row_hits);
        w.put_u64(self.row_misses);
        w.put_u64(self.row_conflicts);
        w.put_u64(self.total_read_latency);
        w.put_u64(self.prefetches_dropped);
    }

    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        self.reads = r.get_u64()?;
        self.writes = r.get_u64()?;
        self.row_hits = r.get_u64()?;
        self.row_misses = r.get_u64()?;
        self.row_conflicts = r.get_u64()?;
        self.total_read_latency = r.get_u64()?;
        self.prefetches_dropped = r.get_u64()?;
        Ok(())
    }
}

/// Aggregated statistics for one simulated core's memory system.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct HierStats {
    pub l1d: CacheStats,
    pub l2c: CacheStats,
    pub llc: CacheStats,
    pub sdc: CacheStats,
    pub dtlb: CacheStats,
    pub stlb: CacheStats,
    pub dram: DramStats,
    /// Accesses routed to the SDC path by the predictor.
    pub routed_to_sdc: u64,
    /// Accesses routed to the regular hierarchy.
    pub routed_to_l1d: u64,
    /// SDC misses that were served by a valid copy in the cache hierarchy
    /// (found via the directory probe) rather than DRAM.
    pub sdc_served_by_hierarchy: u64,
    /// SDC lines invalidated due to SDCDir evictions.
    pub sdcdir_evict_invalidations: u64,
}

impl HierStats {
    pub fn reset(&mut self) {
        *self = HierStats::default();
    }
}

/// The final result of simulating one workload window on one configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SimResult {
    /// Instructions in the measurement window.
    pub instructions: u64,
    /// Cycles the measurement window took.
    pub cycles: u64,
    pub stats: HierStats,
}

impl SimResult {
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }

    pub fn l1d_mpki(&self) -> f64 {
        self.stats.l1d.mpki(self.instructions)
    }

    pub fn l2c_mpki(&self) -> f64 {
        self.stats.l2c.mpki(self.instructions)
    }

    pub fn llc_mpki(&self) -> f64 {
        self.stats.llc.mpki(self.instructions)
    }

    pub fn sdc_mpki(&self) -> f64 {
        self.stats.sdc.mpki(self.instructions)
    }

    /// Speedup of `self` relative to a baseline run of the same workload.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        baseline.cycles as f64 / self.cycles as f64
    }
}

/// Geometric mean of a slice of ratios (> 0).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Stride-bucket histogram keyed on the magnitude of the block-address
/// stride between consecutive accesses from the same PC (Fig. 3).
///
/// Buckets follow the paper's x-axis: 0, 1, (10^0,10^1], (10^1,10^2], ...,
/// (10^5,10^6], >10^6.
pub const STRIDE_BUCKETS: usize = 9;

/// Human-readable bucket labels, index-aligned with the profiler output.
pub fn stride_bucket_label(i: usize) -> &'static str {
    match i {
        0 => "0",
        1 => "1",
        2 => "(10^0,10^1]",
        3 => "(10^1,10^2]",
        4 => "(10^2,10^3]",
        5 => "(10^3,10^4]",
        6 => "(10^4,10^5]",
        7 => "(10^5,10^6]",
        _ => ">10^6",
    }
}

/// Classify a block stride magnitude into its bucket index.
pub fn stride_bucket(stride: u64) -> usize {
    match stride {
        0 => 0,
        1 => 1,
        2..=10 => 2,
        11..=100 => 3,
        101..=1_000 => 4,
        1_001..=10_000 => 5,
        10_001..=100_000 => 6,
        100_001..=1_000_000 => 7,
        _ => 8,
    }
}

/// Per-bucket counts of accesses and of accesses served by DRAM.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StrideProfile {
    pub accesses: [u64; STRIDE_BUCKETS],
    pub dram_served: [u64; STRIDE_BUCKETS],
}

impl StrideProfile {
    /// Probability that an access in bucket `i` was served by DRAM.
    pub fn dram_probability(&self, i: usize) -> f64 {
        if self.accesses[i] == 0 {
            return 0.0;
        }
        self.dram_served[i] as f64 / self.accesses[i] as f64
    }
}

/// Observes the (PC, block address) stream and attributes each access to a
/// stride bucket; the caller reports whether the access reached DRAM.
#[derive(Debug, Default)]
pub struct StrideProfiler {
    last_block: BTreeMap<u16, u64>,
    pub profile: StrideProfile,
}

impl StrideProfiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one access. `served_by_dram` is true if the demand request
    /// missed everywhere and was satisfied from main memory.
    pub fn observe(&mut self, pc: u16, block: u64, served_by_dram: bool) {
        let bucket = match self.last_block.insert(pc, block) {
            Some(prev) => stride_bucket(prev.abs_diff(block)),
            // First access from a PC has no stride; treat as stride 0,
            // matching the predictor's "no information" behaviour.
            None => 0,
        };
        self.profile.accesses[bucket] += 1;
        if served_by_dram {
            self.profile.dram_served[bucket] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_basic() {
        let mut s = CacheStats::default();
        for _ in 0..10 {
            s.record_miss();
        }
        for _ in 0..90 {
            s.record_hit();
        }
        assert_eq!(s.accesses, 100);
        assert!((s.mpki(1000) - 10.0).abs() < 1e-12);
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mpki_zero_instructions() {
        let s = CacheStats { misses: 5, ..Default::default() };
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[1.2, 1.2, 1.2]) - 1.2).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_mixed() {
        let g = geomean(&[2.0, 0.5]);
        assert!((g - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stride_buckets_cover_paper_ranges() {
        assert_eq!(stride_bucket(0), 0);
        assert_eq!(stride_bucket(1), 1);
        assert_eq!(stride_bucket(2), 2);
        assert_eq!(stride_bucket(10), 2);
        assert_eq!(stride_bucket(11), 3);
        assert_eq!(stride_bucket(100_000), 6);
        assert_eq!(stride_bucket(100_001), 7);
        assert_eq!(stride_bucket(1_000_000), 7);
        assert_eq!(stride_bucket(1_000_001), 8);
        assert_eq!(stride_bucket(u64::MAX), 8);
    }

    #[test]
    fn profiler_tracks_per_pc_strides() {
        let mut p = StrideProfiler::new();
        p.observe(1, 100, false); // first access: bucket 0
        p.observe(1, 101, true); // stride 1
        p.observe(1, 201, true); // stride 100 -> bucket 3
        p.observe(2, 500, false); // different PC: first access
        assert_eq!(p.profile.accesses[0], 2);
        assert_eq!(p.profile.accesses[1], 1);
        assert_eq!(p.profile.accesses[3], 1);
        assert_eq!(p.profile.dram_served[1], 1);
        assert!((p.profile.dram_probability(1) - 1.0).abs() < 1e-12);
        assert_eq!(p.profile.dram_probability(5), 0.0);
    }

    #[test]
    fn sim_result_speedup() {
        let base = SimResult { instructions: 1000, cycles: 2000, ..Default::default() };
        let fast = SimResult { instructions: 1000, cycles: 1000, ..Default::default() };
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((base.ipc() - 0.5).abs() < 1e-12);
    }
}
