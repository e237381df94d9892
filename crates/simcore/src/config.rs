//! System configuration types and the Table I (Intel Cascade Lake-like)
//! presets used throughout the evaluation.

use crate::block::BLOCK_BYTES;
use serde::{Deserialize, Serialize};

/// Which hardware prefetcher a cache level runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefetcherKind {
    None,
    /// Fetch block B+1 on every demand access to block B (L1D and SDC).
    NextLine,
    /// Simplified Signature Path Prefetcher (L2C).
    Spp,
    /// PC-stride prefetcher (extension; ablation benches).
    Stride,
}

/// Replacement policy selector for a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementKind {
    Lru,
    /// Static RRIP (extension; not part of the paper's Table I).
    Srrip,
    /// Transpose-based OPT (the T-OPT baseline, LLC only).
    TOpt,
}

/// A structurally invalid configuration, caught before any simulation
/// state is built. Typed (rather than a panic) so sweep runners can fold
/// it into their error taxonomy instead of aborting a whole campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Which component was invalid (`l1d`, `llc`, `stlb`, ...).
    pub component: &'static str,
    pub detail: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.component, self.detail)
    }
}

impl std::error::Error for ConfigError {}

/// Geometry and timing of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    pub sets: usize,
    pub ways: usize,
    /// Lookup latency in core cycles.
    pub latency: u64,
    /// Number of MSHR entries bounding outstanding misses.
    pub mshr_entries: usize,
    pub replacement: ReplacementKind,
    pub prefetcher: PrefetcherKind,
}

impl CacheConfig {
    pub const fn size_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * BLOCK_BYTES
    }

    pub const fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Check structural validity: set counts must be powers of two (set
    /// indexing is mask-based, matching the LP's requirement) and the
    /// geometry non-degenerate.
    pub fn validate(&self, component: &'static str) -> Result<(), ConfigError> {
        if !self.sets.is_power_of_two() {
            return Err(ConfigError {
                component,
                detail: format!("set count must be a power of two, got {}", self.sets),
            });
        }
        if self.ways == 0 {
            return Err(ConfigError { component, detail: "ways must be non-zero".into() });
        }
        Ok(())
    }
}

/// TLB geometry (entries map 4 KiB pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    pub sets: usize,
    pub ways: usize,
    pub latency: u64,
}

impl TlbConfig {
    pub const fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// See [`CacheConfig::validate`].
    pub fn validate(&self, component: &'static str) -> Result<(), ConfigError> {
        if !self.sets.is_power_of_two() {
            return Err(ConfigError {
                component,
                detail: format!("set count must be a power of two, got {}", self.sets),
            });
        }
        if self.ways == 0 {
            return Err(ConfigError { component, detail: "ways must be non-zero".into() });
        }
        Ok(())
    }
}

/// DDR4-like main memory timing.
///
/// Timing parameters are expressed in DRAM I/O-bus cycles as in Table I
/// (tRP = tRCD = tCAS = 24 at 1466.5 MHz) and converted to core cycles via
/// `core_clock_ghz / bus_clock_ghz`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    pub channels: usize,
    pub banks_per_channel: usize,
    /// Row-precharge latency, DRAM bus cycles.
    pub t_rp: u64,
    /// RAS-to-CAS latency, DRAM bus cycles.
    pub t_rcd: u64,
    /// Column-access latency, DRAM bus cycles.
    pub t_cas: u64,
    /// Cycles the data bus is busy transferring one 64 B block
    /// (BL8 at double data rate = 4 bus cycles).
    pub t_burst: u64,
    /// Core clock in GHz (Table I: 2.166).
    pub core_clock_ghz: f64,
    /// DRAM I/O bus clock in GHz (Table I: 1.4665).
    pub bus_clock_ghz: f64,
}

impl DramConfig {
    /// Convert DRAM bus cycles to core cycles (rounded up).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "f64 -> u64 of a small positive cycle count; the ceil() makes dropping the fraction exact"
    )]
    pub fn to_core_cycles(&self, bus_cycles: u64) -> u64 {
        let ratio = self.core_clock_ghz / self.bus_clock_ghz;
        (bus_cycles as f64 * ratio).ceil() as u64
    }
}

/// Out-of-order core parameters (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Dispatch/retire width.
    pub width: usize,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
}

/// Maximum backlog (core cycles) a prefetch tolerates at its target DRAM
/// bank/bus before being dropped — models the bounded prefetch queues of
/// real memory controllers that drop on overflow. Generous enough to ride
/// out one row activation (a healthy stream's steady state) while still
/// shedding prefetches once queues genuinely back up. Demands are never
/// dropped.
pub const PREFETCH_DROP_SLACK: u64 = 64;

/// Latency of the page-table walk charged on an STLB miss (core cycles).
/// A fixed cost stands in for the 4-level walk; walks mostly hit the
/// page-walk caches in the workloads we model.
pub const PAGE_WALK_LATENCY: u64 = 80;

/// Full single-core system description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    pub core: CoreConfig,
    pub dtlb: TlbConfig,
    pub stlb: TlbConfig,
    pub l1d: CacheConfig,
    pub l2c: CacheConfig,
    pub llc: CacheConfig,
    pub dram: DramConfig,
    /// Model DRAM bandwidth consumed by prefetch fills and writebacks.
    pub model_prefetch_traffic: bool,
    /// Entries in a fully-associative victim cache beside the L1D
    /// (0 = none; the related-work baseline of Section VI).
    pub l1_victim_entries: usize,
}

impl SystemConfig {
    /// The paper's baseline (Table I), for a given core count: the LLC
    /// scales at 1.375 MiB (2048 sets x 11 ways / core) per core.
    pub fn baseline(cores: usize) -> Self {
        SystemConfig {
            core: CoreConfig { width: 4, rob_entries: 224 },
            dtlb: TlbConfig { sets: 16, ways: 4, latency: 1 },
            stlb: TlbConfig { sets: 128, ways: 12, latency: 8 },
            l1d: CacheConfig {
                sets: 64,
                ways: 8,
                latency: 4,
                mshr_entries: 10,
                replacement: ReplacementKind::Lru,
                prefetcher: PrefetcherKind::NextLine,
            },
            l2c: CacheConfig {
                sets: 1024,
                ways: 16,
                latency: 10,
                mshr_entries: 16,
                replacement: ReplacementKind::Lru,
                prefetcher: PrefetcherKind::Spp,
            },
            llc: CacheConfig {
                sets: 2048 * cores,
                ways: 11,
                latency: 56,
                mshr_entries: 64 * cores,
                replacement: ReplacementKind::Lru,
                prefetcher: PrefetcherKind::None,
            },
            dram: DramConfig {
                channels: cores.max(1),
                // 8 ranks x 8 banks per channel (ChampSim's DDR4 default).
                banks_per_channel: 64,
                t_rp: 24,
                t_rcd: 24,
                t_cas: 24,
                t_burst: 4,
                core_clock_ghz: 2.166,
                bus_clock_ghz: 1.4665,
            },
            model_prefetch_traffic: true,
            l1_victim_entries: 0,
        }
    }

    /// Related-work baseline: the Baseline plus a 16-entry fully-
    /// associative victim cache beside the L1D (Jouppi, ISCA 1990).
    pub fn victim_cache(cores: usize) -> Self {
        let mut cfg = Self::baseline(cores);
        cfg.l1_victim_entries = 16;
        cfg
    }

    /// The "L1D 40KB ISO" comparison point: L1D grows from 8 to 10 ways,
    /// spending the SDC's 8 KiB budget on the L1D instead.
    pub fn l1d_40k_iso(cores: usize) -> Self {
        let mut cfg = Self::baseline(cores);
        cfg.l1d.ways = 10;
        cfg
    }

    /// The "2xLLC" comparison point: LLC sets doubled (2048 -> 4096/core).
    pub fn double_llc(cores: usize) -> Self {
        let mut cfg = Self::baseline(cores);
        cfg.llc.sets *= 2;
        cfg
    }

    /// Baseline with T-OPT replacement at the LLC.
    pub fn topt(cores: usize) -> Self {
        let mut cfg = Self::baseline(cores);
        cfg.llc.replacement = ReplacementKind::TOpt;
        cfg
    }

    /// Validate every set-indexed structure in the system. Runners call
    /// this before building simulation state so a bad config surfaces as
    /// a typed error instead of a panic mid-sweep.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.dtlb.validate("dtlb")?;
        self.stlb.validate("stlb")?;
        self.l1d.validate("l1d")?;
        self.l2c.validate("l2c")?;
        self.llc.validate("llc")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes_match_paper() {
        let cfg = SystemConfig::baseline(1);
        assert_eq!(cfg.l1d.size_bytes(), 32 * 1024);
        assert_eq!(cfg.l2c.size_bytes(), 1024 * 1024);
        // LLC: 1.375 MiB per core = 2048 sets * 11 ways * 64 B.
        assert_eq!(cfg.llc.size_bytes(), (1408 * 1024) as u64);
        assert_eq!(cfg.dtlb.entries(), 64);
        assert_eq!(cfg.stlb.entries(), 1536);
        assert_eq!(cfg.core.rob_entries, 224);
        assert_eq!(cfg.core.width, 4);
    }

    #[test]
    fn llc_scales_with_cores() {
        let cfg = SystemConfig::baseline(4);
        assert_eq!(cfg.llc.size_bytes(), 4 * 1408 * 1024);
    }

    #[test]
    fn l1d_40k_iso_adds_8kib() {
        let cfg = SystemConfig::l1d_40k_iso(1);
        assert_eq!(cfg.l1d.size_bytes(), 40 * 1024);
    }

    #[test]
    fn double_llc_doubles_capacity() {
        let base = SystemConfig::baseline(1);
        let big = SystemConfig::double_llc(1);
        assert_eq!(big.llc.size_bytes(), 2 * base.llc.size_bytes());
    }

    #[test]
    fn dram_cycle_conversion() {
        let cfg = SystemConfig::baseline(1).dram;
        // 24 bus cycles at 1.4665 GHz is ~35.4 core cycles at 2.166 GHz.
        let c = cfg.to_core_cycles(24);
        assert!((35..=36).contains(&c), "got {c}");
        assert_eq!(cfg.to_core_cycles(0), 0);
    }

    #[test]
    fn validate_accepts_table1_and_rejects_non_pow2_sets() {
        assert!(SystemConfig::baseline(1).validate().is_ok());
        assert!(SystemConfig::baseline(4).validate().is_ok());
        let mut cfg = SystemConfig::baseline(1);
        cfg.llc.sets = 3000;
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.component, "llc");
        assert!(err.to_string().contains("power of two"), "{err}");

        let mut cfg = SystemConfig::baseline(1);
        cfg.dtlb.sets = 5;
        assert_eq!(cfg.validate().unwrap_err().component, "dtlb");

        let mut cfg = SystemConfig::baseline(1);
        cfg.l1d.ways = 0;
        assert_eq!(cfg.validate().unwrap_err().component, "l1d");
    }

    #[test]
    fn topt_flag_set() {
        assert_eq!(SystemConfig::topt(1).llc.replacement, ReplacementKind::TOpt);
    }
}
