//! Single-core simulation engine: drives a [`MemorySystem`] with an
//! instruction stream through the ROB timing model, with warmup and
//! measurement windows (the SimPoint-style methodology of Section IV-C).

use crate::block::block_of;
use crate::hierarchy::{MemorySystem, ServedBy};
use crate::rob::RobModel;
use crate::stats::{CacheStats, HierStats, SimResult, StrideProfile, StrideProfiler};
use crate::trace::{CompactTrace, MemRef, Tracer};
use simtel::{
    DramDelta, EventKind, ExtraCounters, LevelDelta, LpDelta, StallBuckets, TelemetryHandle,
    TelemetryInterval,
};

/// Warmup/measurement window lengths, in instructions.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warmup: u64,
    pub measure: u64,
}

impl Window {
    pub fn new(warmup: u64, measure: u64) -> Self {
        Window { warmup, measure }
    }

    pub fn total(&self) -> u64 {
        self.warmup + self.measure
    }
}

/// Watchdog ceilings for one simulation run. All limits are deterministic
/// functions of simulated state (cycles, trace events) — never wall-clock —
/// so a budgeted run is exactly reproducible.
///
/// A run that crosses a ceiling stops consuming input and is flagged
/// [`Engine::timed_out`]; [`Engine::finish`] still returns the partial
/// result, so the sweep layer can record a graceful `timed_out` outcome
/// instead of hanging a shard on a pathological configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Ceiling on total simulated cycles (warmup + measurement).
    pub max_cycles: Option<u64>,
    /// Ceiling on memory events consumed from the trace.
    pub max_events: Option<u64>,
}

impl Budget {
    /// No ceilings (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Cycle ceiling only.
    pub fn cycles(max: u64) -> Self {
        Budget { max_cycles: Some(max), max_events: None }
    }

    /// Memory-event ceiling only.
    pub fn events(max: u64) -> Self {
        Budget { max_cycles: None, max_events: Some(max) }
    }

    pub fn is_unlimited(&self) -> bool {
        self.max_cycles.is_none() && self.max_events.is_none()
    }
}

/// Rolling baseline behind interval emission: the cumulative counters as
/// of the last snapshot, so each interval is an exact delta. Reset at the
/// warmup/measurement boundary so intervals cover only the window the
/// final [`SimResult`] reports — interval sums reconcile with it exactly.
/// Shared with [`crate::multicore`], which keeps one per core.
#[derive(Default)]
pub(crate) struct TelSnap {
    pub(crate) index: u64,
    pub(crate) last_cycle: u64,
    pub(crate) prev_instrs: u64,
    /// Measured-instruction count that triggers the next snapshot
    /// (0 while telemetry is disabled — the hot-path guard).
    pub(crate) next_instrs: u64,
    pub(crate) prev_stats: HierStats,
    pub(crate) prev_extra: ExtraCounters,
    pub(crate) prev_stalls: StallBuckets,
}

impl TelSnap {
    /// Anchor the baseline at the start of a measurement window.
    pub(crate) fn arm(
        &mut self,
        every: u64,
        cycle: u64,
        stats: HierStats,
        extra: ExtraCounters,
        stalls: StallBuckets,
    ) {
        *self = TelSnap {
            index: 0,
            last_cycle: cycle,
            prev_instrs: 0,
            next_instrs: every,
            prev_stats: stats,
            prev_extra: extra,
            prev_stalls: stalls,
        };
    }

    /// Diff the cumulative counters against the baseline into one interval
    /// record, then roll the baseline forward to `end_cycle`/`measured`.
    pub(crate) fn build(
        &mut self,
        core: u32,
        end_cycle: u64,
        measured: u64,
        stats: HierStats,
        extra: ExtraCounters,
        stalls_now: StallBuckets,
    ) -> TelemetryInterval {
        fn level(now: &CacheStats, prev: &CacheStats) -> LevelDelta {
            LevelDelta {
                accesses: now.accesses.saturating_sub(prev.accesses),
                hits: now.hits.saturating_sub(prev.hits),
                misses: now.misses.saturating_sub(prev.misses),
            }
        }
        let mut stalls = stalls_now.delta_since(&self.prev_stalls);
        stalls.busy = end_cycle.saturating_sub(self.last_cycle).saturating_sub(stalls.attributed());
        let interval = TelemetryInterval {
            index: self.index,
            core,
            start_cycle: self.last_cycle,
            end_cycle,
            instructions: measured.saturating_sub(self.prev_instrs),
            l1d: level(&stats.l1d, &self.prev_stats.l1d),
            sdc: level(&stats.sdc, &self.prev_stats.sdc),
            l2c: level(&stats.l2c, &self.prev_stats.l2c),
            llc: level(&stats.llc, &self.prev_stats.llc),
            dram: DramDelta {
                reads: stats.dram.reads.saturating_sub(self.prev_stats.dram.reads),
                writes: stats.dram.writes.saturating_sub(self.prev_stats.dram.writes),
                row_hits: stats.dram.row_hits.saturating_sub(self.prev_stats.dram.row_hits),
                row_misses: stats.dram.row_misses.saturating_sub(self.prev_stats.dram.row_misses),
                row_conflicts: stats
                    .dram
                    .row_conflicts
                    .saturating_sub(self.prev_stats.dram.row_conflicts),
            },
            mshr_high_water: extra.mshr_high_water,
            lp: LpDelta {
                lookups: extra.lp_lookups.saturating_sub(self.prev_extra.lp_lookups),
                sdc_routes: extra.lp_sdc_routes.saturating_sub(self.prev_extra.lp_sdc_routes),
                hierarchy_routes: extra
                    .lp_hierarchy_routes
                    .saturating_sub(self.prev_extra.lp_hierarchy_routes),
            },
            sdc_bypasses: extra.sdc_bypasses.saturating_sub(self.prev_extra.sdc_bypasses),
            stalls,
        };
        self.index += 1;
        self.last_cycle = end_cycle;
        self.prev_instrs = measured;
        self.prev_stats = stats;
        self.prev_extra = extra;
        self.prev_stalls = stalls_now;
        interval
    }
}

fn tel_level(s: ServedBy) -> simtel::Level {
    match s {
        ServedBy::L1d => simtel::Level::L1d,
        ServedBy::Sdc => simtel::Level::Sdc,
        ServedBy::L2c => simtel::Level::L2c,
        ServedBy::Llc => simtel::Level::Llc,
        ServedBy::Dram => simtel::Level::Dram,
    }
}

/// The engine: owns the core model and the memory system under test.
///
/// Implements [`Tracer`], so an instrumented kernel can stream into it
/// directly, and also replays pre-recorded [`CompactTrace`]s (the mode the
/// experiment harness uses so every configuration sees identical input).
pub struct Engine<M: MemorySystem> {
    rob: RobModel,
    pub mem: M,
    window: Window,
    instrs: u64,
    measure_start_cycle: u64,
    in_measurement: bool,
    profiler: Option<StrideProfiler>,
    budget: Budget,
    mem_events: u64,
    timed_out: bool,
    tel: TelemetryHandle,
    tel_snap: TelSnap,
}

impl<M: MemorySystem> Engine<M> {
    pub fn new(mem: M, width: usize, rob_entries: usize, window: Window) -> Self {
        let mut e = Engine {
            rob: RobModel::new(width, rob_entries),
            mem,
            window,
            instrs: 0,
            measure_start_cycle: 0,
            in_measurement: false,
            profiler: None,
            budget: Budget::default(),
            mem_events: 0,
            timed_out: false,
            tel: TelemetryHandle::disabled(),
            tel_snap: TelSnap::default(),
        };
        if window.warmup == 0 {
            e.begin_measurement();
        }
        e
    }

    /// Enable the PC-stride profiler (Fig. 3 instrumentation).
    pub fn enable_stride_profiler(&mut self) {
        self.profiler = Some(StrideProfiler::new());
    }

    /// Arm the runaway-simulation watchdog. See [`Budget`].
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Attach a telemetry sink. Interval snapshots fire every
    /// `tel.interval_instructions()` measured instructions; component
    /// events (DRAM row conflicts, SDC routing) flow through clones of
    /// the same handle. Attach before running — if the measurement
    /// window is already open (zero warmup), the interval baseline is
    /// re-anchored to the current state.
    pub fn attach_telemetry(&mut self, tel: TelemetryHandle) {
        self.mem.attach_telemetry(tel.clone());
        self.tel = tel;
        if self.in_measurement {
            self.reset_tel_baseline();
        }
    }

    fn reset_tel_baseline(&mut self) {
        if !self.tel.enabled() {
            return;
        }
        self.tel_snap.arm(
            self.tel.interval_instructions(),
            self.rob.current_cycle(),
            self.mem.collect_stats(),
            self.mem.telemetry_counters(),
            self.rob.stalls,
        );
    }

    /// Did the run cross a watchdog ceiling? (The partial result from
    /// [`Engine::finish`] is still valid measurement data up to the cut.)
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Total simulated cycles so far.
    pub fn current_cycle(&self) -> u64 {
        self.rob.current_cycle()
    }

    fn check_budget(&mut self) {
        if self.timed_out {
            return;
        }
        let cycles_hit = self.budget.max_cycles.is_some_and(|max| self.rob.current_cycle() >= max);
        let events_hit = self.budget.max_events.is_some_and(|max| self.mem_events >= max);
        if cycles_hit || events_hit {
            self.timed_out = true;
            self.tel.event(self.rob.current_cycle(), || EventKind::WatchdogTick);
        }
    }

    fn begin_measurement(&mut self) {
        self.in_measurement = true;
        self.measure_start_cycle = self.rob.current_cycle();
        self.mem.reset_stats();
        if let Some(p) = &mut self.profiler {
            *p = StrideProfiler::new();
        }
        self.reset_tel_baseline();
    }

    fn note_instructions(&mut self, n: u64) {
        let before = self.instrs;
        self.instrs += n;
        if !self.in_measurement && before < self.window.warmup && self.instrs >= self.window.warmup
        {
            self.begin_measurement();
        }
        // `next_instrs` is 0 unless a sink is attached, so the disabled
        // path pays exactly one compare here.
        if self.tel_snap.next_instrs != 0 && self.in_measurement {
            self.maybe_snapshot();
        }
    }

    /// Emit at most one interval per call. The cadence is instruction
    /// driven, but an interval must also advance the cycle clock so
    /// `end_cycle` stays strictly monotone across snapshots.
    fn maybe_snapshot(&mut self) {
        let measured = self.instrs.saturating_sub(self.window.warmup);
        if measured < self.tel_snap.next_instrs {
            return;
        }
        let now = self.rob.current_cycle();
        if now <= self.tel_snap.last_cycle {
            return;
        }
        self.emit_interval(now, measured);
        let every = self.tel.interval_instructions().max(1);
        self.tel_snap.next_instrs = (measured / every + 1) * every;
    }

    fn emit_interval(&mut self, end_cycle: u64, measured: u64) {
        let stats = self.mem.collect_stats();
        let extra = self.mem.telemetry_counters();
        let interval = self.tel_snap.build(
            self.tel.core(),
            end_cycle,
            measured,
            stats,
            extra,
            self.rob.stalls,
        );
        self.tel.interval(&interval);
    }

    /// Replay a recorded trace through the engine.
    pub fn replay(&mut self, trace: &CompactTrace) {
        self.replay_from(trace, 0);
    }

    /// Replay `trace` starting at event index `from`. Returns the index of
    /// the next unconsumed event (the `trace_pos` a snapshot taken now
    /// should carry). Event indices are the snapshot resume points: a
    /// restore followed by `replay_from` at the stored position is
    /// bit-identical to the uninterrupted replay.
    pub fn replay_from(&mut self, trace: &CompactTrace, from: usize) -> usize {
        self.replay_span(trace, from, usize::MAX)
    }

    /// Replay at most `max_events` trace events starting at index `from`
    /// (the mid-measurement checkpoint cadence). Returns the index of the
    /// next unconsumed event; stops early when the engine is done.
    pub fn replay_span(&mut self, trace: &CompactTrace, from: usize, max_events: usize) -> usize {
        let mut idx = from;
        for ev in trace.events.iter_from(from).take(max_events) {
            if self.done() {
                break;
            }
            if ev.is_mem() {
                self.mem(ev.as_mem_ref());
            } else {
                self.bubble_n(ev.addr);
            }
            idx += 1;
        }
        idx
    }

    /// Serialize the engine's complete deterministic state: the ROB, the
    /// memory system under test, the window position, and the budget spend
    /// (`mem_events`/`timed_out`). Window geometry is stored for
    /// validation. Deliberately *not* stored (caller configuration or pure
    /// observers, re-attached after restore): the budget ceilings, the
    /// telemetry sink, and the stride profiler.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"ENG_");
        w.put_u64(self.window.warmup);
        w.put_u64(self.window.measure);
        self.rob.save_state(w);
        self.mem.save_state(w);
        w.put_u64(self.instrs);
        w.put_u64(self.measure_start_cycle);
        w.put_bool(self.in_measurement);
        w.put_u64(self.mem_events);
        w.put_bool(self.timed_out);
    }

    /// Restore state saved by [`Engine::save_state`] into an engine built
    /// with the same configuration and window. The telemetry interval
    /// baseline is re-anchored to the restored state (intervals emitted
    /// after a restore cover only post-restore execution).
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"ENG_")?;
        let warmup = r.get_u64()?;
        if warmup != self.window.warmup {
            return Err(simstate::StateError::ShapeMismatch {
                what: "window warmup",
                expected: self.window.warmup,
                found: warmup,
            });
        }
        let measure = r.get_u64()?;
        if measure != self.window.measure {
            return Err(simstate::StateError::ShapeMismatch {
                what: "window measure",
                expected: self.window.measure,
                found: measure,
            });
        }
        self.rob.load_state(r)?;
        self.mem.load_state(r)?;
        self.instrs = r.get_u64()?;
        self.measure_start_cycle = r.get_u64()?;
        self.in_measurement = r.get_bool()?;
        self.mem_events = r.get_u64()?;
        self.timed_out = r.get_bool()?;
        if self.in_measurement {
            self.reset_tel_baseline();
        }
        Ok(())
    }

    /// One-call snapshot: the serialized state for an `SSTATEv2`
    /// container.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = simstate::StateSink::new();
        self.save_state(&mut w);
        w.into_bytes()
    }

    /// Restore from a payload produced by [`Engine::snapshot`], requiring
    /// the payload to be fully consumed.
    pub fn restore(&mut self, payload: &[u8]) -> Result<(), simstate::StateError> {
        let mut r = simstate::StateSource::new(payload);
        self.load_state(&mut r)?;
        r.expect_end()
    }

    fn bubble_n(&mut self, n: u64) {
        self.rob.bubbles(n);
        self.note_instructions(n);
        if !self.budget.is_unlimited() {
            self.check_budget();
        }
    }

    /// Finish the run and produce the measurement-window result.
    pub fn finish(mut self) -> SimResult {
        let end = self.rob.drain();
        // Flush the tail interval so per-interval sums reconcile exactly
        // with the final window stats. Draining may not advance the
        // dispatch clock, so the tail is granted at least one cycle.
        if self.tel_snap.next_instrs != 0 && self.in_measurement {
            let measured = self.instrs.saturating_sub(self.window.warmup);
            let tail_is_empty = measured == self.tel_snap.prev_instrs
                && self.mem.collect_stats() == self.tel_snap.prev_stats;
            if !tail_is_empty {
                let end_cycle = end.max(self.tel_snap.last_cycle + 1);
                self.emit_interval(end_cycle, measured);
            }
        }
        let cycles = end.saturating_sub(self.measure_start_cycle).max(1);
        let instructions = if self.in_measurement {
            self.instrs.saturating_sub(self.window.warmup)
        } else {
            // The workload ended inside warmup; fall back to whole-run stats.
            self.instrs
        };
        SimResult { instructions, cycles, stats: self.mem.collect_stats() }
    }

    /// Extract the stride profile (if profiling was enabled).
    pub fn stride_profile(&self) -> Option<StrideProfile> {
        self.profiler.as_ref().map(|p| p.profile.clone())
    }

    pub fn instructions(&self) -> u64 {
        self.instrs
    }
}

impl<M: MemorySystem> Tracer for Engine<M> {
    fn mem(&mut self, r: MemRef) {
        if self.done() {
            return;
        }
        let d = self.rob.dispatch_slot();
        let outcome = self.mem.access(&r, d);
        let (completion, tag) = outcome.rob_entry(r.is_write, d);
        self.rob.complete_tagged(completion, tag);
        if self.tel.enabled() && !matches!(outcome.served_by, ServedBy::L1d | ServedBy::Sdc) {
            self.tel.event(completion, || EventKind::CacheMiss {
                served_by: tel_level(outcome.served_by),
            });
        }
        if self.in_measurement {
            if let Some(p) = &mut self.profiler {
                p.observe(r.pc, block_of(r.addr), outcome.served_by_dram());
            }
        }
        self.note_instructions(1);
        self.mem_events += 1;
        if !self.budget.is_unlimited() {
            self.check_budget();
        }
    }

    fn bubble(&mut self, n: u32) {
        if self.done() {
            return;
        }
        self.bubble_n(u64::from(n));
    }

    fn done(&self) -> bool {
        self.timed_out || self.instrs >= self.window.total()
    }

    fn remaining(&self) -> Option<u64> {
        let left = if self.timed_out { 0 } else { self.window.total().saturating_sub(self.instrs) };
        Some(left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetcherKind, SystemConfig};
    use crate::hierarchy::BaselineHierarchy;
    use crate::trace::RecordingTracer;

    fn engine(window: Window) -> Engine<BaselineHierarchy> {
        let mut cfg = SystemConfig::baseline(1);
        cfg.l1d.prefetcher = PrefetcherKind::None;
        cfg.l2c.prefetcher = PrefetcherKind::None;
        Engine::new(BaselineHierarchy::new(&cfg), cfg.core.width, cfg.core.rob_entries, window)
    }

    #[test]
    fn pure_bubbles_run_at_width_ipc() {
        let mut e = engine(Window::new(0, 100_000));
        e.bubble_n(100_000);
        let r = e.finish();
        assert!((r.ipc() - 4.0).abs() < 0.2, "ipc = {}", r.ipc());
    }

    #[test]
    fn hot_loop_is_fast_cold_scan_is_slow() {
        // Same instruction count; random large-footprint scan must be slower.
        let mut hot = engine(Window::new(0, 40_000));
        for i in 0..10_000u64 {
            hot.load(1, 0, (i % 16) * 64);
            hot.bubble(3);
        }
        let hot_r = hot.finish();

        let mut cold = engine(Window::new(0, 40_000));
        for i in 0..10_000u64 {
            // Large-stride pattern touching ~10k distinct blocks.
            cold.load(1, 0, (i * 7919) % 1_000_000 * 4096);
            cold.bubble(3);
        }
        let cold_r = cold.finish();
        assert!(cold_r.cycles > 3 * hot_r.cycles, "cold {} vs hot {}", cold_r.cycles, hot_r.cycles);
    }

    #[test]
    fn warmup_stats_are_discarded() {
        let mut e = engine(Window::new(1000, 1000));
        // All misses happen in warmup... (stride of 5 blocks spreads the
        // 400 distinct blocks across the 64 L1 sets).
        for i in 0..400u64 {
            e.load(1, 0, i * 320);
        }
        e.bubble(600); // finish warmup
        assert_eq!(e.instructions(), 1000);
        // ...measurement re-touches the same blocks: hits only.
        for i in 0..400u64 {
            e.load(1, 0, i * 320);
        }
        // L1 (512 lines) holds most of the 400 distinct blocks.
        let r = e.finish();
        assert!(r.l1d_mpki() < 100.0, "l1d mpki = {}", r.l1d_mpki());
        // Only 400 of the 1000 measurement instructions were issued before
        // the workload ended; finish() reports what actually ran.
        assert_eq!(r.instructions, 400);
    }

    #[test]
    fn replay_equals_live_streaming() {
        let mut rec = RecordingTracer::new(10_000);
        let mut i = 0u64;
        while !rec.done() {
            rec.load(1, 0, (i * 12345) % 100_000 * 64);
            rec.bubble(2);
            i += 1;
        }
        let trace = rec.finish();

        let mut live = engine(Window::new(0, 10_000));
        let mut j = 0u64;
        while !live.done() {
            live.load(1, 0, (j * 12345) % 100_000 * 64);
            live.bubble(2);
            j += 1;
        }
        let live_r = live.finish();

        let mut rep = engine(Window::new(0, 10_000));
        rep.replay(&trace);
        let rep_r = rep.finish();

        assert_eq!(live_r.cycles, rep_r.cycles);
        assert_eq!(live_r.stats.l1d.misses, rep_r.stats.l1d.misses);
    }

    #[test]
    fn stride_profiler_collects_during_measurement() {
        let mut e = engine(Window::new(0, 1000));
        e.enable_stride_profiler();
        for i in 0..100u64 {
            e.load(1, 0, i * 64); // stride-1 blocks
        }
        let profile = e.stride_profile().unwrap();
        assert!(profile.accesses[1] > 50);
    }

    #[test]
    fn cycle_budget_cuts_replay_and_flags_timeout() {
        let mut rec = RecordingTracer::new(50_000);
        let mut i = 0u64;
        while !rec.done() {
            rec.load(1, 0, (i * 48_271) % 400_000 * 64); // miss-heavy scan
            rec.bubble(1);
            i += 1;
        }
        let trace = rec.finish();

        let mut free = engine(Window::new(0, 50_000));
        free.replay(&trace);
        assert!(!free.timed_out());
        let full_cycles = free.finish().cycles;

        let mut capped = engine(Window::new(0, 50_000));
        capped.set_budget(Budget::cycles(full_cycles / 4));
        capped.replay(&trace);
        assert!(capped.timed_out(), "budget below the full run must fire");
        let partial = capped.finish();
        assert!(partial.cycles < full_cycles);
        assert!(partial.instructions > 0, "partial result still carries data");
    }

    #[test]
    fn event_budget_counts_memory_events() {
        let mut e = engine(Window::new(0, 10_000));
        e.set_budget(Budget::events(100));
        for i in 0..1000u64 {
            if e.done() {
                break;
            }
            e.load(1, 0, i * 64);
        }
        assert!(e.timed_out());
        assert_eq!(e.instructions(), 100);
    }

    #[test]
    fn budget_runs_are_deterministic() {
        let run = || {
            let mut e = engine(Window::new(0, 20_000));
            e.set_budget(Budget::cycles(5_000));
            let mut i = 0u64;
            while !e.done() {
                e.load(1, 0, (i * 7919) % 100_000 * 64);
                e.bubble(1);
                i += 1;
            }
            let timed = e.timed_out();
            (timed, e.finish())
        };
        let (ta, a) = run();
        let (tb, b) = run();
        assert!(ta && tb);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let run = |budget: Option<Budget>| {
            let mut e = engine(Window::new(100, 5000));
            if let Some(b) = budget {
                e.set_budget(b);
            }
            let mut i = 0u64;
            while !e.done() {
                e.load(2, 1, (i * 31) % 5000 * 64);
                e.bubble(1);
                i += 1;
            }
            e.finish()
        };
        assert_eq!(run(None), run(Some(Budget::unlimited())));
    }

    fn miss_heavy_run(e: &mut Engine<BaselineHierarchy>) {
        let mut i = 0u64;
        while !e.done() {
            e.load(1, 0, (i * 7919) % 50_000 * 64);
            e.bubble(2);
            i += 1;
        }
    }

    #[test]
    fn warmup_to_measurement_reset_boundary_is_exact() {
        // Cross the boundary mid-burst: 150 loads against a 100-instruction
        // warmup. The window stats must count exactly the 50 measurement
        // loads — none of the warmup, all of the rest.
        let mut e = engine(Window::new(100, 1000));
        for i in 0..150u64 {
            e.load(1, 0, i * 64);
        }
        let r = e.finish();
        assert_eq!(r.instructions, 50);
        assert_eq!(r.stats.l1d.accesses, 50, "stats reset exactly at the boundary");
    }

    #[test]
    fn telemetry_disabled_or_enabled_never_perturbs_results() {
        // The no-op default and an attached collector must all produce the
        // same simulation — telemetry observes, never steers. This pins the
        // zero-cost-when-disabled contract and manifest byte-identity.
        let mut plain = engine(Window::new(200, 20_000));
        miss_heavy_run(&mut plain);
        let plain_r = plain.finish();

        let mut noop = engine(Window::new(200, 20_000));
        noop.attach_telemetry(simtel::TelemetryHandle::disabled());
        miss_heavy_run(&mut noop);
        assert_eq!(plain_r, noop.finish());

        let cfg = simtel::TelemetryConfig { interval_instructions: 1000, ..Default::default() };
        let tel = simtel::TelemetryHandle::collector(&cfg);
        let mut traced = engine(Window::new(200, 20_000));
        traced.attach_telemetry(tel.clone());
        miss_heavy_run(&mut traced);
        assert_eq!(plain_r, traced.finish());
        let out = tel.take_output().unwrap();
        assert!(!out.intervals.is_empty());
    }

    #[test]
    fn interval_sums_reconcile_with_final_stats() {
        let cfg = simtel::TelemetryConfig { interval_instructions: 1000, ..Default::default() };
        let tel = simtel::TelemetryHandle::collector(&cfg);
        let mut e = engine(Window::new(500, 10_000));
        e.attach_telemetry(tel.clone());
        miss_heavy_run(&mut e);
        let r = e.finish();
        let out = tel.take_output().unwrap();
        assert!(out.intervals.len() >= 5, "got {} intervals", out.intervals.len());

        // Strict monotonicity and index contiguity.
        for (i, iv) in out.intervals.iter().enumerate() {
            assert_eq!(iv.index, i as u64);
            assert!(iv.end_cycle > iv.start_cycle, "empty interval at {i}");
            if i > 0 {
                assert_eq!(iv.start_cycle, out.intervals[i - 1].end_cycle);
            }
        }

        // Exact reconciliation with the window result.
        let sum =
            |f: fn(&simtel::TelemetryInterval) -> u64| -> u64 { out.intervals.iter().map(f).sum() };
        assert_eq!(sum(|iv| iv.instructions), r.instructions);
        assert_eq!(sum(|iv| iv.l1d.accesses), r.stats.l1d.accesses);
        assert_eq!(sum(|iv| iv.l1d.misses), r.stats.l1d.misses);
        assert_eq!(sum(|iv| iv.l2c.misses), r.stats.l2c.misses);
        assert_eq!(sum(|iv| iv.llc.misses), r.stats.llc.misses);
        assert_eq!(sum(|iv| iv.dram.reads), r.stats.dram.reads);
        assert_eq!(sum(|iv| iv.dram.row_hits), r.stats.dram.row_hits);

        // Events carry simulated cycles and the miss vocabulary.
        assert!(out.events.iter().any(|ev| matches!(
            ev.kind,
            simtel::EventKind::CacheMiss { served_by: simtel::Level::Dram }
        )));
    }

    #[test]
    fn watchdog_fire_emits_a_tick_event() {
        let cfg = simtel::TelemetryConfig::default();
        let tel = simtel::TelemetryHandle::collector(&cfg);
        let mut e = engine(Window::new(0, 50_000));
        e.attach_telemetry(tel.clone());
        e.set_budget(Budget::events(100));
        miss_heavy_run(&mut e);
        assert!(e.timed_out());
        let _ = e.finish();
        let out = tel.take_output().unwrap();
        let ticks =
            out.events.iter().filter(|ev| ev.kind == simtel::EventKind::WatchdogTick).count();
        assert_eq!(ticks, 1, "the watchdog latches: one tick per run");
    }

    #[test]
    fn determinism_same_input_same_cycles() {
        let run = || {
            let mut e = engine(Window::new(100, 5000));
            let mut i = 0u64;
            while !e.done() {
                e.load(2, 1, (i * 31) % 5000 * 64);
                e.bubble(1);
                i += 1;
            }
            e.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.llc.misses, b.stats.llc.misses);
    }

    /// Synthetic trace with a mixed access pattern (hot loop + pointer-ish
    /// chases + writes + bubbles) that exercises cache fills, evictions,
    /// prefetcher training, and DRAM row state.
    fn mixed_trace(events: usize) -> CompactTrace {
        let mut rec = RecordingTracer::new(u64::MAX);
        let mut x = 12345u64;
        for i in 0..events as u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match i % 5 {
                0 => rec.mem(MemRef::read(3, 0, (i % 64) * 64)),
                1 => rec.mem(MemRef::read(7, 1, (x >> 20) % 4_000_000 / 64 * 64)),
                2 => rec.mem(MemRef::write(9, 2, (i % 512) * 64)),
                3 => rec.mem(MemRef::read(11, 1, (i * 64) % 2_000_000)),
                _ => rec.bubble(1 + (x % 4) as u32),
            }
        }
        rec.finish()
    }

    /// Engine with prefetchers enabled, to snapshot as much machine state
    /// as the baseline hierarchy can hold.
    fn full_engine(window: Window) -> Engine<BaselineHierarchy> {
        let cfg = SystemConfig::baseline(1);
        Engine::new(BaselineHierarchy::new(&cfg), cfg.core.width, cfg.core.rob_entries, window)
    }

    #[test]
    fn snapshot_restore_then_run_is_bit_identical() {
        let trace = mixed_trace(12_000);
        let window = Window::new(2_000, 6_000);

        let mut straight = full_engine(window);
        straight.replay(&trace);
        let want = straight.finish();
        assert!(want.instructions > 0 && want.cycles > 0);

        // Split at several points: mid-warmup, at the boundary region, and
        // mid-measurement. Each must resume to the same final result.
        for split in [500usize, 1_700, 3_000, 5_500] {
            let mut first = full_engine(window);
            let pos = first.replay_span(&trace, 0, split);
            assert_eq!(pos, split, "trace long enough to hit the split");
            let payload = first.snapshot();

            let mut resumed = full_engine(window);
            resumed.restore(&payload).unwrap();
            assert_eq!(resumed.instructions(), first.instructions());
            resumed.replay_from(&trace, pos);
            let got = resumed.finish();
            assert_eq!(got, want, "diverged after restore at event {split}");
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_cycle_position() {
        let trace = mixed_trace(4_000);
        let mut e = full_engine(Window::new(0, 100_000));
        let pos = e.replay_span(&trace, 0, 2_000);
        let payload = e.snapshot();

        let mut r = full_engine(Window::new(0, 100_000));
        r.restore(&payload).unwrap();
        assert_eq!(r.instructions(), e.instructions());
        // Both continue and land on the same cycle count.
        e.replay_from(&trace, pos);
        r.replay_from(&trace, pos);
        assert_eq!(e.finish(), r.finish());
    }

    #[test]
    fn restore_rejects_wrong_window_and_junk() {
        let mut e = full_engine(Window::new(100, 1_000));
        e.bubble_n(50);
        let payload = e.snapshot();

        let mut other = full_engine(Window::new(200, 1_000));
        assert!(matches!(
            other.restore(&payload),
            Err(simstate::StateError::ShapeMismatch { what: "window warmup", .. })
        ));

        let mut truncated = payload.clone();
        truncated.truncate(payload.len() / 2);
        let mut fresh = full_engine(Window::new(100, 1_000));
        assert!(fresh.restore(&truncated).is_err());
    }
}
