//! The conventional cache hierarchy (the paper's Baseline), split into a
//! per-core private side (TLBs, L1D, L2C) and a shared backend (LLC + DRAM)
//! so the same components serve both single-core and multi-core engines —
//! and so the SDC+LP system in the `sdclp` crate can wrap the private side
//! while reusing the backend.

use crate::block::block_of;
use crate::cache::{Cache, LookupResult};
use crate::config::SystemConfig;
use crate::distill::{DistillCache, DistillResult};
use crate::dram::Dram;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::PrefetchState;
use crate::replacement::ReplCtx;
use crate::stats::HierStats;
use crate::tlb::TlbHierarchy;
use crate::trace::MemRef;
use crate::victim::VictimCache;
use simtel::StallTag;

/// Which component ultimately supplied the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    L1d,
    Sdc,
    L2c,
    Llc,
    Dram,
}

/// Timing outcome of one memory access.
#[derive(Debug, Clone, Copy)]
pub struct AccessOutcome {
    /// Cycle the data is available to the core.
    pub completion: u64,
    pub served_by: ServedBy,
    /// True when the access was delayed by a full MSHR file anywhere on
    /// its path (telemetry: the engine tags the ROB entry with it).
    pub mshr_stalled: bool,
}

impl AccessOutcome {
    pub fn new(completion: u64, served_by: ServedBy) -> Self {
        AccessOutcome { completion, served_by, mshr_stalled: false }
    }

    pub fn with_mshr_stall(mut self, stalled: bool) -> Self {
        self.mshr_stalled = stalled;
        self
    }

    pub fn served_by_dram(&self) -> bool {
        self.served_by == ServedBy::Dram
    }

    /// The ROB entry of this access, dispatched at cycle `dispatch`: its
    /// completion cycle and the stall tag naming what a later dispatch
    /// stall behind it waits on. Stores retire through the write buffer,
    /// so they do not block the ROB for their memory latency. MSHR
    /// pressure outranks the serving level: the delay existed before the
    /// access even issued. Both engines retire accesses through this.
    pub fn rob_entry(&self, is_write: bool, dispatch: u64) -> (u64, StallTag) {
        if is_write {
            (dispatch + 1, StallTag::Core)
        } else if self.mshr_stalled {
            (self.completion, StallTag::MshrFull)
        } else if self.served_by_dram() {
            (self.completion, StallTag::Dram)
        } else {
            (self.completion, StallTag::Mem)
        }
    }
}

/// A complete memory system as seen by the single-core engine.
pub trait MemorySystem {
    /// Perform the demand access in `r`, issued at core cycle `now`.
    fn access(&mut self, r: &MemRef, now: u64) -> AccessOutcome;
    /// Snapshot of all component statistics.
    fn collect_stats(&self) -> HierStats;
    /// Clear statistics at the warmup/measurement boundary
    /// (microarchitectural state is preserved).
    fn reset_stats(&mut self);
    /// Hand a telemetry handle to every component that emits events
    /// (DRAM row conflicts, SDC routing). The default keeps telemetry
    /// fully optional: systems that don't override it simply never emit.
    fn attach_telemetry(&mut self, _tel: simtel::TelemetryHandle) {}
    /// Cumulative side-channel counters for interval snapshots (MSHR
    /// pressure, LP routing mix, SDC directory occupancy).
    fn telemetry_counters(&self) -> simtel::ExtraCounters {
        simtel::ExtraCounters::default()
    }
    /// Serialize the complete deterministic state of the memory system.
    fn save_state(&self, w: &mut simstate::StateSink);
    /// Restore state saved by [`MemorySystem::save_state`] into a system of
    /// the same configuration (geometry is validated, never assumed).
    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError>;
}

/// The per-core private component of any evaluated system: it sees the
/// access first and may resolve it privately or escalate to the shared
/// backend. Implemented by the baseline [`CoreSide`] here and by the
/// SDC+LP core in the `sdclp` crate.
pub trait CoreMemory {
    fn access(&mut self, r: &MemRef, now: u64, backend: &mut SharedBackend) -> AccessOutcome;
    /// Per-core statistics (the caller merges in the shared backend's).
    fn collect_core_stats(&self) -> HierStats;
    fn reset_stats(&mut self);
    /// See [`MemorySystem::attach_telemetry`].
    fn attach_telemetry(&mut self, _tel: simtel::TelemetryHandle) {}
    /// See [`MemorySystem::telemetry_counters`] (core-private part only;
    /// the caller merges the shared backend's).
    fn telemetry_counters(&self) -> simtel::ExtraCounters {
        simtel::ExtraCounters::default()
    }
    /// Serialize the core-private deterministic state.
    fn save_state(&self, w: &mut simstate::StateSink);
    /// Restore state saved by [`CoreMemory::save_state`].
    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError>;
}

impl<M: MemorySystem + ?Sized> MemorySystem for Box<M> {
    fn access(&mut self, r: &MemRef, now: u64) -> AccessOutcome {
        (**self).access(r, now)
    }

    fn collect_stats(&self) -> HierStats {
        (**self).collect_stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }

    fn attach_telemetry(&mut self, tel: simtel::TelemetryHandle) {
        (**self).attach_telemetry(tel)
    }

    fn telemetry_counters(&self) -> simtel::ExtraCounters {
        (**self).telemetry_counters()
    }

    fn save_state(&self, w: &mut simstate::StateSink) {
        (**self).save_state(w)
    }

    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError> {
        (**self).load_state(r)
    }
}

impl<C: CoreMemory + ?Sized> CoreMemory for Box<C> {
    fn access(&mut self, r: &MemRef, now: u64, backend: &mut SharedBackend) -> AccessOutcome {
        (**self).access(r, now, backend)
    }

    fn collect_core_stats(&self) -> HierStats {
        (**self).collect_core_stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }

    fn attach_telemetry(&mut self, tel: simtel::TelemetryHandle) {
        (**self).attach_telemetry(tel)
    }

    fn telemetry_counters(&self) -> simtel::ExtraCounters {
        (**self).telemetry_counters()
    }

    fn save_state(&self, w: &mut simstate::StateSink) {
        (**self).save_state(w)
    }

    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError> {
        (**self).load_state(r)
    }
}

/// LLC flavor: a normal cache or the Line Distillation variant.
pub enum LlcModel {
    Normal(Cache),
    Distill(DistillCache),
}

impl LlcModel {
    fn access(&mut self, addr: u64, block: u64, is_write: bool, ctx: ReplCtx) -> bool {
        match self {
            LlcModel::Normal(c) => c.access(addr, block, is_write, ctx) == LookupResult::Hit,
            LlcModel::Distill(d) => d.access(addr, block, is_write, ctx) != DistillResult::Miss,
        }
    }

    fn fill(
        &mut self,
        addr: u64,
        block: u64,
        is_write: bool,
        ctx: ReplCtx,
    ) -> Option<crate::cache::Eviction> {
        match self {
            LlcModel::Normal(c) => c.fill(addr, block, is_write, false, ctx),
            LlcModel::Distill(d) => d.fill(addr, block, is_write, ctx),
        }
    }

    pub fn probe(&self, block: u64) -> bool {
        match self {
            LlcModel::Normal(c) => c.probe(block),
            LlcModel::Distill(d) => d.probe(block),
        }
    }

    pub fn invalidate(&mut self, block: u64) -> Option<bool> {
        match self {
            LlcModel::Normal(c) => c.invalidate(block),
            LlcModel::Distill(d) => d.invalidate(block),
        }
    }

    fn mark_dirty(&mut self, block: u64) -> bool {
        match self {
            LlcModel::Normal(c) => c.mark_dirty(block),
            LlcModel::Distill(d) => d.mark_dirty(block),
        }
    }

    pub fn stats(&self) -> &crate::stats::CacheStats {
        match self {
            LlcModel::Normal(c) => &c.stats,
            LlcModel::Distill(d) => d.stats(),
        }
    }

    pub fn stats_mut(&mut self) -> &mut crate::stats::CacheStats {
        match self {
            LlcModel::Normal(c) => &mut c.stats,
            LlcModel::Distill(d) => d.stats_mut(),
        }
    }

    pub fn latency(&self) -> u64 {
        match self {
            LlcModel::Normal(c) => c.latency,
            LlcModel::Distill(d) => d.latency,
        }
    }

    /// Serialize the LLC (variant discriminant + cache state).
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"LLC_");
        match self {
            LlcModel::Normal(c) => {
                w.put_u8(0);
                c.save_state(w);
            }
            LlcModel::Distill(d) => {
                w.put_u8(1);
                d.save_state(w);
            }
        }
    }

    /// Restore state saved by [`Self::save_state`]. The live variant must
    /// match (the LLC flavor is configuration).
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"LLC_")?;
        let disc = r.get_u8()?;
        match (disc, &mut *self) {
            (0, LlcModel::Normal(c)) => c.load_state(r),
            (1, LlcModel::Distill(d)) => d.load_state(r),
            _ => Err(simstate::StateError::BadValue {
                what: "llc model discriminant",
                found: u64::from(disc),
            }),
        }
    }
}

/// Shared LLC + DRAM (one instance per simulated machine).
pub struct SharedBackend {
    pub llc: LlcModel,
    pub llc_mshr: MshrFile,
    pub dram: Dram,
    pub model_prefetch_traffic: bool,
}

impl SharedBackend {
    pub fn new(cfg: &SystemConfig) -> Self {
        Self::with_llc(cfg, LlcModel::Normal(Cache::new(&cfg.llc)))
    }

    /// Backend with the Line Distillation LLC: up to 3 of the ways become
    /// the word-organized cache, keeping total capacity identical. Narrow
    /// LLCs donate fewer ways so at least one line-organized way remains
    /// (`ways - 3` would wrap for associativities of 3 or less).
    pub fn new_distill(cfg: &SystemConfig) -> Self {
        assert!(
            cfg.llc.ways >= 2,
            "Line Distillation needs an LLC with at least 2 ways (got {})",
            cfg.llc.ways
        );
        let woc_ways = 3.min(cfg.llc.ways - 1);
        let loc_ways = cfg.llc.ways - woc_ways;
        Self::with_llc(cfg, LlcModel::Distill(DistillCache::new(&cfg.llc, loc_ways)))
    }

    fn with_llc(cfg: &SystemConfig, llc: LlcModel) -> Self {
        SharedBackend {
            llc,
            llc_mshr: MshrFile::new(cfg.llc.mshr_entries),
            dram: Dram::new(&cfg.dram),
            model_prefetch_traffic: cfg.model_prefetch_traffic,
        }
    }

    /// Demand access arriving at the LLC at cycle `t_llc`. `oracle_pos` is
    /// the issuing core's T-OPT position (in hinted-access units, the same
    /// clock `MemRef::next_use` hints are expressed in).
    /// Returns (completion cycle, who served it, MSHR-stalled flag).
    pub fn access(&mut self, r: &MemRef, t_llc: u64, oracle_pos: u64) -> (u64, ServedBy, bool) {
        let block = block_of(r.addr);
        let ctx = ReplCtx { next_use: r.next_use, pos: oracle_pos, sid: r.sid };
        let hit = self.llc.access(r.addr, block, r.is_write, ctx);
        let t_llc_done = t_llc + self.llc.latency();
        if hit {
            return (t_llc_done, ServedBy::Llc, false);
        }
        let (t_dram, stalled) = match self.llc_mshr.acquire(block, t_llc_done) {
            MshrOutcome::Merged { done } => return (done, ServedBy::Llc, false),
            MshrOutcome::Granted { start } => (start, start > t_llc_done),
        };
        let done = self.dram.access(block, false, t_dram);
        self.llc_mshr.commit(block, done);
        if let Some(ev) = self.llc.fill(r.addr, block, false, ctx) {
            if ev.dirty {
                self.dram.access(ev.block, true, done);
            }
        }
        (done, ServedBy::Dram, stalled)
    }

    /// Fetch a block directly from DRAM, bypassing the LLC (the SDC miss
    /// path). The block is *not* filled anywhere here.
    /// Returns (completion cycle, MSHR-stalled flag).
    pub fn dram_fetch(&mut self, block: u64, t: u64) -> (u64, bool) {
        let (t_dram, stalled) = match self.llc_mshr.acquire(block, t) {
            MshrOutcome::Merged { done } => return (done, false),
            MshrOutcome::Granted { start } => (start, start > t),
        };
        let done = self.dram.access(block, false, t_dram);
        self.llc_mshr.commit(block, done);
        (done, stalled)
    }

    /// Write a dirty line evicted from a private L2 back into the LLC
    /// (allocate-on-writeback), spilling further victims to DRAM.
    pub fn writeback(&mut self, block: u64, now: u64) {
        if self.llc.mark_dirty(block) {
            return;
        }
        let addr = block << crate::block::BLOCK_BITS;
        if let Some(ev) = self.llc.fill(addr, block, true, ReplCtx::NONE) {
            if ev.dirty {
                self.dram.access(ev.block, true, now);
            }
        }
    }

    /// Write a dirty block straight to DRAM (SDC evictions bypass the LLC).
    pub fn dram_writeback(&mut self, block: u64, now: u64) {
        self.dram.access(block, true, now);
    }

    /// Source a prefetch candidate from the LLC or DRAM. Returns false if
    /// the prefetch had to be dropped (DRAM congested); the caller must
    /// then not fill the line.
    pub fn prefetch_source(&mut self, block: u64, now: u64) -> bool {
        if self.llc.probe(block) {
            return true;
        }
        if self.model_prefetch_traffic {
            return self.dram.try_prefetch(block, now, crate::config::PREFETCH_DROP_SLACK);
        }
        true
    }

    pub fn reset_stats(&mut self) {
        self.llc.stats_mut().reset();
        self.dram.stats.reset();
    }

    /// Forward a telemetry handle to the event-emitting components.
    pub fn attach_telemetry(&mut self, tel: simtel::TelemetryHandle) {
        self.dram.attach_telemetry(tel);
    }

    /// Backend share of [`MemorySystem::telemetry_counters`].
    pub fn telemetry_counters(&self) -> simtel::ExtraCounters {
        simtel::ExtraCounters {
            mshr_high_water: self.llc_mshr.high_water,
            mshr_stall_cycles: self.llc_mshr.stall_cycles,
            ..Default::default()
        }
    }

    /// Serialize the shared LLC + MSHR + DRAM state. The
    /// `model_prefetch_traffic` flag is configuration and not stored.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"BKND");
        self.llc.save_state(w);
        self.llc_mshr.save_state(w);
        self.dram.save_state(w);
    }

    /// Restore state saved by [`Self::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"BKND")?;
        self.llc.load_state(r)?;
        self.llc_mshr.load_state(r)?;
        self.dram.load_state(r)?;
        Ok(())
    }
}

/// Per-core private side of the baseline hierarchy: DTLB/STLB, L1D, L2C,
/// their MSHRs and prefetchers.
pub struct CoreSide {
    pub tlb: TlbHierarchy,
    pub l1d: Cache,
    pub l2c: Cache,
    l1_mshr: MshrFile,
    l2_mshr: MshrFile,
    l1_prefetcher: PrefetchState,
    l2_prefetcher: PrefetchState,
    pf_buf: Vec<u64>,
    /// T-OPT oracle clock: counts hinted accesses from this core, the time
    /// base `MemRef::next_use` values refer to. 64-bit so it never wraps.
    oracle_pos: u64,
    /// Optional victim cache beside the L1D (related-work baseline).
    pub victim: Option<VictimCache>,
}

impl CoreSide {
    pub fn new(cfg: &SystemConfig) -> Self {
        CoreSide {
            tlb: TlbHierarchy::new(&cfg.dtlb, &cfg.stlb),
            l1d: Cache::new(&cfg.l1d),
            l2c: Cache::new(&cfg.l2c),
            l1_mshr: MshrFile::new(cfg.l1d.mshr_entries),
            l2_mshr: MshrFile::new(cfg.l2c.mshr_entries),
            l1_prefetcher: PrefetchState::new(cfg.l1d.prefetcher),
            l2_prefetcher: PrefetchState::new(cfg.l2c.prefetcher),
            pf_buf: Vec::with_capacity(8),
            oracle_pos: 0,
            victim: (cfg.l1_victim_entries > 0).then(|| VictimCache::new(cfg.l1_victim_entries)),
        }
    }

    /// Dispose of an L1D eviction: into the victim cache when one exists
    /// (its dirty displacements continue to the L2), else dirty victims go
    /// straight to the L2.
    fn handle_l1_eviction(
        &mut self,
        ev: crate::cache::Eviction,
        backend: &mut SharedBackend,
        now: u64,
    ) {
        if let Some(vc) = &mut self.victim {
            if let Some(dd) = vc.insert(ev.block, ev.dirty) {
                self.l1_victim_to_l2(dd.block, backend, now);
            }
        } else if ev.dirty {
            self.l1_victim_to_l2(ev.block, backend, now);
        }
    }

    /// Spill a dirty L1 victim into the L2 (allocate-on-writeback).
    fn l1_victim_to_l2(&mut self, block: u64, backend: &mut SharedBackend, now: u64) {
        if self.l2c.mark_dirty(block) {
            return;
        }
        let addr = block << crate::block::BLOCK_BITS;
        if let Some(ev) = self.l2c.fill(addr, block, true, false, ReplCtx::NONE) {
            if ev.dirty {
                backend.writeback(ev.block, now);
            }
        }
    }

    fn l1_prefetch(
        &mut self,
        pc: u16,
        block: u64,
        hit: bool,
        backend: &mut SharedBackend,
        now: u64,
    ) {
        if self.l1_prefetcher.is_none() {
            return;
        }
        let mut buf = std::mem::take(&mut self.pf_buf);
        buf.clear();
        self.l1_prefetcher.on_access(pc, block, hit, &mut buf);
        for &pb in &buf {
            if self.l1d.probe(pb) {
                continue;
            }
            if !self.l1_mshr.try_acquire(pb, now) {
                break; // MSHR file full: the prefetch is dropped
            }
            let done = if self.l2c.probe(pb) {
                now + self.l2c.latency
            } else if backend.llc.probe(pb) {
                now + backend.llc.latency()
            } else if backend.model_prefetch_traffic {
                if !backend.dram.try_prefetch(pb, now, crate::config::PREFETCH_DROP_SLACK) {
                    continue; // dropped under DRAM congestion
                }
                now + backend.dram.closed_row_latency()
            } else {
                now + backend.dram.closed_row_latency()
            };
            // The prefetch occupies its MSHR until the fill arrives —
            // the feedback that throttles prefetching under pressure.
            self.l1_mshr.commit(pb, done);
            let pa = pb << crate::block::BLOCK_BITS;
            if let Some(ev) = self.l1d.fill(pa, pb, false, true, ReplCtx::NONE) {
                self.handle_l1_eviction(ev, backend, now);
            }
        }
        self.pf_buf = buf;
    }

    fn l2_prefetch(
        &mut self,
        pc: u16,
        block: u64,
        hit: bool,
        backend: &mut SharedBackend,
        now: u64,
    ) {
        if self.l2_prefetcher.is_none() {
            return;
        }
        let mut buf = std::mem::take(&mut self.pf_buf);
        buf.clear();
        self.l2_prefetcher.on_access(pc, block, hit, &mut buf);
        for &pb in &buf {
            if self.l2c.probe(pb) {
                continue;
            }
            if !self.l2_mshr.try_acquire(pb, now) {
                break;
            }
            let done = if backend.llc.probe(pb) {
                now + backend.llc.latency()
            } else if backend.model_prefetch_traffic {
                if !backend.dram.try_prefetch(pb, now, crate::config::PREFETCH_DROP_SLACK) {
                    continue;
                }
                now + backend.dram.closed_row_latency()
            } else {
                now + backend.dram.closed_row_latency()
            };
            self.l2_mshr.commit(pb, done);
            let pa = pb << crate::block::BLOCK_BITS;
            if let Some(ev) = self.l2c.fill(pa, pb, false, true, ReplCtx::NONE) {
                if ev.dirty {
                    backend.writeback(ev.block, now);
                }
            }
        }
        self.pf_buf = buf;
    }

    /// The demand path below the L1D: L2 lookup, then the shared backend.
    /// `t_l2` is the cycle the request arrives at the L2.
    fn access_below_l1(
        &mut self,
        r: &MemRef,
        t_l2: u64,
        backend: &mut SharedBackend,
    ) -> (u64, ServedBy, bool) {
        let block = block_of(r.addr);
        let ctx = ReplCtx { next_use: r.next_use, pos: self.oracle_pos, sid: r.sid };

        let l2_hit = self.l2c.access(r.addr, block, r.is_write, ctx) == LookupResult::Hit;
        let t_l2_done = t_l2 + self.l2c.latency;
        if l2_hit {
            self.l2_prefetch(r.pc, block, true, backend, t_l2_done);
            return (t_l2_done, ServedBy::L2c, false);
        }

        let (t_llc, l2_stalled) = match self.l2_mshr.acquire(block, t_l2_done) {
            MshrOutcome::Merged { done } => return (done, ServedBy::L2c, false),
            MshrOutcome::Granted { start } => (start, start > t_l2_done),
        };

        let (done, served_by, llc_stalled) = backend.access(r, t_llc, self.oracle_pos);
        self.l2_mshr.commit(block, done);
        // Prefetches issue behind the demand so they never steal its DRAM
        // bank or bus slot.
        self.l2_prefetch(r.pc, block, false, backend, done);
        (done, served_by, l2_stalled || llc_stalled)
    }
}

impl CoreMemory for CoreSide {
    fn access(&mut self, r: &MemRef, now: u64, backend: &mut SharedBackend) -> AccessOutcome {
        let block = block_of(r.addr);
        if r.next_use != u32::MAX {
            // Advance the T-OPT oracle clock on every hinted access.
            self.oracle_pos += 1;
        }
        let ctx = ReplCtx { next_use: r.next_use, pos: self.oracle_pos, sid: r.sid };

        let t0 = now + self.tlb.translate(r.addr);

        let l1_hit = self.l1d.access(r.addr, block, r.is_write, ctx) == LookupResult::Hit;
        let t_l1_done = t0 + self.l1d.latency;
        if l1_hit {
            self.l1_prefetch(r.pc, block, true, backend, t_l1_done);
            return AccessOutcome::new(t_l1_done, ServedBy::L1d);
        }

        // Victim-cache probe (when configured): a hit swaps the line back
        // into the L1 at one extra cycle.
        if let Some(victim) = self.victim.as_mut() {
            if let Some(was_dirty) = victim.take(block) {
                if let Some(ev) = self.l1d.fill(r.addr, block, was_dirty || r.is_write, false, ctx)
                {
                    self.handle_l1_eviction(ev, backend, t_l1_done);
                }
                return AccessOutcome::new(t_l1_done + 1, ServedBy::L1d);
            }
        }

        let (t_l2, l1_stalled) = match self.l1_mshr.acquire(block, t_l1_done) {
            MshrOutcome::Merged { done } => return AccessOutcome::new(done, ServedBy::L1d),
            MshrOutcome::Granted { start } => (start, start > t_l1_done),
        };

        let (completion, served_by, below_stalled) = self.access_below_l1(r, t_l2, backend);
        self.l1_mshr.commit(block, completion);

        // Fill the private levels on the way back.
        if let Some(ev) = self.l2c.fill(r.addr, block, r.is_write, false, ctx) {
            if ev.dirty {
                backend.writeback(ev.block, completion);
            }
        }
        if let Some(ev) = self.l1d.fill(r.addr, block, r.is_write, false, ctx) {
            self.handle_l1_eviction(ev, backend, completion);
        }
        self.l1_prefetch(r.pc, block, false, backend, completion);
        AccessOutcome::new(completion, served_by).with_mshr_stall(l1_stalled || below_stalled)
    }

    fn collect_core_stats(&self) -> HierStats {
        HierStats {
            l1d: self.l1d.stats,
            l2c: self.l2c.stats,
            dtlb: self.tlb.dtlb_stats,
            stlb: self.tlb.stlb_stats,
            routed_to_l1d: self.l1d.stats.accesses,
            ..Default::default()
        }
    }

    fn reset_stats(&mut self) {
        self.l1d.stats.reset();
        self.l2c.stats.reset();
        self.tlb.dtlb_stats.reset();
        self.tlb.stlb_stats.reset();
    }

    fn telemetry_counters(&self) -> simtel::ExtraCounters {
        simtel::ExtraCounters {
            mshr_high_water: self.l1_mshr.high_water.max(self.l2_mshr.high_water),
            mshr_stall_cycles: self.l1_mshr.stall_cycles + self.l2_mshr.stall_cycles,
            ..Default::default()
        }
    }

    fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"CORE");
        self.tlb.save_state(w);
        self.l1d.save_state(w);
        self.l2c.save_state(w);
        self.l1_mshr.save_state(w);
        self.l2_mshr.save_state(w);
        self.l1_prefetcher.save_state(w);
        self.l2_prefetcher.save_state(w);
        w.put_u64(self.oracle_pos);
        // pf_buf is per-access scratch (cleared before every use): skipped.
        match &self.victim {
            None => w.put_bool(false),
            Some(vc) => {
                w.put_bool(true);
                vc.save_state(w);
            }
        }
    }

    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError> {
        r.expect_tag(b"CORE")?;
        self.tlb.load_state(r)?;
        self.l1d.load_state(r)?;
        self.l2c.load_state(r)?;
        self.l1_mshr.load_state(r)?;
        self.l2_mshr.load_state(r)?;
        self.l1_prefetcher.load_state(r)?;
        self.l2_prefetcher.load_state(r)?;
        self.oracle_pos = r.get_u64()?;
        let has_victim = r.get_bool()?;
        match (&mut self.victim, has_victim) {
            (None, false) => Ok(()),
            (Some(vc), true) => vc.load_state(r),
            // Victim-cache presence is configuration; a mismatch means the
            // snapshot came from a different system.
            (_, found) => Err(simstate::StateError::BadValue {
                what: "victim cache presence",
                found: u64::from(found),
            }),
        }
    }
}

/// A single-core machine: one [`CoreMemory`] plus its own backend.
pub struct SingleCore<C: CoreMemory> {
    pub core: C,
    pub backend: SharedBackend,
}

impl<C: CoreMemory> SingleCore<C> {
    pub fn from_parts(core: C, backend: SharedBackend) -> Self {
        SingleCore { core, backend }
    }
}

impl<C: CoreMemory> MemorySystem for SingleCore<C> {
    fn access(&mut self, r: &MemRef, now: u64) -> AccessOutcome {
        self.core.access(r, now, &mut self.backend)
    }

    fn collect_stats(&self) -> HierStats {
        let mut s = self.core.collect_core_stats();
        s.llc = *self.backend.llc.stats();
        s.dram = self.backend.dram.stats;
        s
    }

    fn reset_stats(&mut self) {
        self.core.reset_stats();
        self.backend.reset_stats();
    }

    fn attach_telemetry(&mut self, tel: simtel::TelemetryHandle) {
        self.core.attach_telemetry(tel.clone());
        self.backend.attach_telemetry(tel);
    }

    fn telemetry_counters(&self) -> simtel::ExtraCounters {
        let core = self.core.telemetry_counters();
        let back = self.backend.telemetry_counters();
        simtel::ExtraCounters {
            mshr_high_water: core.mshr_high_water.max(back.mshr_high_water),
            mshr_stall_cycles: core.mshr_stall_cycles + back.mshr_stall_cycles,
            ..core
        }
    }

    fn save_state(&self, w: &mut simstate::StateSink) {
        self.core.save_state(w);
        self.backend.save_state(w);
    }

    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError> {
        self.core.load_state(r)?;
        self.backend.load_state(r)?;
        Ok(())
    }
}

/// The paper's Baseline memory system.
pub type BaselineHierarchy = SingleCore<CoreSide>;

impl BaselineHierarchy {
    pub fn new(cfg: &SystemConfig) -> Self {
        SingleCore::from_parts(CoreSide::new(cfg), SharedBackend::new(cfg))
    }

    /// Baseline with the Line Distillation LLC (Distill Cache baseline).
    pub fn new_distill(cfg: &SystemConfig) -> Self {
        SingleCore::from_parts(CoreSide::new(cfg), SharedBackend::new_distill(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_BYTES;
    use crate::config::PrefetcherKind;

    fn system() -> BaselineHierarchy {
        let mut cfg = SystemConfig::baseline(1);
        // Keep tests deterministic and focused: no prefetchers.
        cfg.l1d.prefetcher = PrefetcherKind::None;
        cfg.l2c.prefetcher = PrefetcherKind::None;
        BaselineHierarchy::new(&cfg)
    }

    fn read(addr: u64) -> MemRef {
        MemRef::read(1, 0, addr)
    }

    #[test]
    fn cold_access_reaches_dram_and_warms_all_levels() {
        let mut sys = system();
        let out = sys.access(&read(0x10000), 0);
        assert_eq!(out.served_by, ServedBy::Dram);
        let out2 = sys.access(&read(0x10000), out.completion);
        assert_eq!(out2.served_by, ServedBy::L1d);
        assert_eq!(out2.completion - out.completion, 4);
    }

    #[test]
    fn dram_access_pays_serial_lookup_latencies() {
        let mut sys = system();
        let out = sys.access(&read(0x20000), 0);
        // TLB walk + L1(4) + L2(10) + LLC(56) + DRAM: well above 150 cycles.
        assert!(out.completion > 150, "completion = {}", out.completion);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut sys = system();
        for i in 0..1024u64 {
            let a = i * BLOCK_BYTES;
            sys.access(&read(a), i * 1000);
        }
        // Block 0 left the 512-line L1 but is still in the L2.
        let out = sys.access(&read(0), 10_000_000);
        assert_eq!(out.served_by, ServedBy::L2c);
    }

    #[test]
    fn mshr_merge_returns_outstanding_completion() {
        let mut sys = system();
        let a = 0x40000;
        let o1 = sys.access(&read(a), 0);
        let o2 = sys.access(&read(a + 8), 1);
        assert!(o2.completion <= o1.completion);
    }

    #[test]
    fn write_allocates() {
        let mut sys = system();
        let w = MemRef::write(1, 0, 0x50000);
        sys.access(&w, 0);
        assert!(sys.core.l1d.probe(block_of(0x50000)));
        assert_eq!(sys.collect_stats().l1d.misses, 1);
    }

    #[test]
    fn stats_reset_preserves_state() {
        let mut sys = system();
        sys.access(&read(0x60000), 0);
        sys.reset_stats();
        assert_eq!(sys.collect_stats().l1d.accesses, 0);
        let out = sys.access(&read(0x60000), 1_000_000);
        assert_eq!(out.served_by, ServedBy::L1d);
    }

    #[test]
    fn distill_variant_constructs_and_serves() {
        let mut cfg = SystemConfig::baseline(1);
        cfg.l1d.prefetcher = PrefetcherKind::None;
        cfg.l2c.prefetcher = PrefetcherKind::None;
        let mut sys = BaselineHierarchy::new_distill(&cfg);
        let out = sys.access(&read(0x70000), 0);
        assert_eq!(out.served_by, ServedBy::Dram);
        let out2 = sys.access(&read(0x70000), out.completion);
        assert_eq!(out2.served_by, ServedBy::L1d);
    }

    #[test]
    fn distill_clamps_woc_ways_for_narrow_llcs() {
        // `ways - 3` used to wrap for associativities <= 3; narrow LLCs now
        // donate fewer ways and must still construct and serve accesses.
        for ways in [2usize, 3, 4, 16] {
            let mut cfg = SystemConfig::baseline(1);
            cfg.l1d.prefetcher = PrefetcherKind::None;
            cfg.l2c.prefetcher = PrefetcherKind::None;
            cfg.llc.ways = ways;
            let mut sys = BaselineHierarchy::new_distill(&cfg);
            let out = sys.access(&read(0x70000), 0);
            assert_eq!(out.served_by, ServedBy::Dram, "ways={ways}");
            let out2 = sys.access(&read(0x70000), out.completion);
            assert_eq!(out2.served_by, ServedBy::L1d, "ways={ways}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 ways")]
    fn distill_rejects_direct_mapped_llc() {
        let mut cfg = SystemConfig::baseline(1);
        cfg.llc.ways = 1;
        let _ = SharedBackend::new_distill(&cfg);
    }

    #[test]
    fn next_line_prefetcher_turns_sequential_misses_into_hits() {
        let mut cfg = SystemConfig::baseline(1);
        cfg.l2c.prefetcher = PrefetcherKind::None;
        let mut sys = BaselineHierarchy::new(&cfg); // L1 next-line on
        let mut t = 0;
        let mut dram_served = 0;
        for i in 0..64u64 {
            let out = sys.access(&read(i * BLOCK_BYTES), t);
            t = out.completion;
            if out.served_by == ServedBy::Dram {
                dram_served += 1;
            }
        }
        assert!(dram_served < 40, "next-line should hide many misses, got {dram_served}");
    }

    #[test]
    fn dram_fetch_bypasses_llc() {
        let mut cfg = SystemConfig::baseline(1);
        cfg.l1d.prefetcher = PrefetcherKind::None;
        cfg.l2c.prefetcher = PrefetcherKind::None;
        let mut backend = SharedBackend::new(&cfg);
        let (done, stalled) = backend.dram_fetch(42, 0);
        assert!(done > 0);
        assert!(!stalled, "an idle MSHR file cannot stall the fetch");
        assert!(!backend.llc.probe(42), "bypass fetch must not fill the LLC");
    }
}
