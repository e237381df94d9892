#![forbid(unsafe_code)]
// A simulator library reports through stats, telemetry sinks and
// manifests; a stray print would interleave with the harness's output.
#![deny(clippy::print_stdout, clippy::print_stderr)]
//! Deterministic telemetry for the simulator: interval snapshots, a
//! bounded event trace, and stall-cycle attribution.
//!
//! Design constraints (DESIGN.md §7):
//!
//! * **Zero-cost when disabled.** Every hook goes through a
//!   [`TelemetryHandle`] whose disabled form is a `None` — the hot path
//!   pays one branch and never constructs an event. A perf-neutrality
//!   test in the engine pins that an *attached* sink does not change
//!   simulated cycles either: telemetry only observes counters the
//!   simulator already maintains.
//! * **Deterministic.** Every timestamp is a simulated cycle; nothing in
//!   this crate reads the wall clock (simlint D2 applies), allocates
//!   randomness, or iterates a hash-ordered container. Two identical
//!   runs produce byte-identical telemetry files.
//! * **Bounded.** The event trace is a ring: when full, the oldest event
//!   is dropped and counted, so a pathological run cannot exhaust memory.
//!
//! The simulator crates depend on this one (never the reverse), so the
//! record types here are plain counters — `simcore` translates its own
//! stats structs into [`TelemetryInterval`] deltas when it snapshots.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

pub mod export;
pub mod render;

/// Default snapshot cadence: one interval per 100k traced instructions.
pub const DEFAULT_INTERVAL_INSTRUCTIONS: u64 = 100_000;

/// Default event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// The `core` id stamped on events from shared components (LLC-side
/// MSHRs, DRAM) that serve every core.
pub const SHARED_CORE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Event severity, ordered: `Debug < Info < Warn`. The ring keeps only
/// events at or above its configured minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Debug,
    Info,
    Warn,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }
}

/// Which memory level an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    L1d,
    Sdc,
    L2c,
    Llc,
    Dram,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::L1d => "l1d",
            Level::Sdc => "sdc",
            Level::L2c => "l2c",
            Level::Llc => "llc",
            Level::Dram => "dram",
        }
    }
}

/// The traced event vocabulary. Each kind carries a fixed severity so
/// filtering needs no per-site configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A demand access was served below the named level (i.e. missed
    /// everything above it). Emitted by the engine from the access
    /// outcome, so it costs nothing inside the hierarchy walk.
    CacheMiss { served_by: Level },
    /// The LP routed an access around the hierarchy into the SDC.
    SdcBypass,
    /// An SDC-routed access was actually resident in the hierarchy —
    /// the Large Predictor called a cache-friendly line averse.
    LpMispredict,
    /// A DRAM access closed one row to open another (worst-case timing).
    DramRowConflict,
    /// The engine's runaway-simulation watchdog fired.
    WatchdogTick,
}

impl EventKind {
    pub fn severity(self) -> Severity {
        match self {
            EventKind::CacheMiss { .. } | EventKind::SdcBypass => Severity::Debug,
            EventKind::LpMispredict | EventKind::DramRowConflict => Severity::Info,
            EventKind::WatchdogTick => Severity::Warn,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::SdcBypass => "sdc_bypass",
            EventKind::LpMispredict => "lp_mispredict",
            EventKind::DramRowConflict => "dram_row_conflict",
            EventKind::WatchdogTick => "watchdog_tick",
        }
    }
}

/// One traced event. `cycle` is simulated time; `core` identifies the
/// emitting core ([`SHARED_CORE`] for shared components).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryEvent {
    pub cycle: u64,
    pub core: u32,
    pub kind: EventKind,
}

impl TelemetryEvent {
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

/// Bounded event ring with severity filtering. Keeps the *newest*
/// `capacity` events; older ones are dropped and counted so exporters
/// can report truncation instead of silently hiding it.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    min_severity: Severity,
    events: VecDeque<TelemetryEvent>,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// Events rejected by the severity filter.
    pub filtered: u64,
}

impl EventRing {
    pub fn new(capacity: usize, min_severity: Severity) -> Self {
        EventRing {
            capacity,
            min_severity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
            filtered: 0,
        }
    }

    pub fn push(&mut self, ev: TelemetryEvent) {
        if ev.severity() < self.min_severity {
            self.filtered += 1;
            return;
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn drain(&mut self) -> Vec<TelemetryEvent> {
        self.events.drain(..).collect()
    }
}

// ---------------------------------------------------------------------------
// Stall attribution
// ---------------------------------------------------------------------------

/// Why a ROB entry may hold up retirement. Tagged at completion time by
/// the engine; charged to a bucket when the dispatcher actually waits on
/// that entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StallTag {
    /// Non-memory instruction (or a write retired through the buffer).
    #[default]
    Core,
    /// Load served somewhere in the cache hierarchy.
    Mem,
    /// Load served by DRAM.
    Dram,
    /// Load delayed because an MSHR file was full before it could issue.
    MshrFull,
}

/// Retire-blocked cycle attribution. `rob_full`/`mshr_full`/`dram_wait`
/// count cycles the dispatcher spent waiting for a full ROB to drain,
/// split by what the blocking head entry was waiting on; `busy` is the
/// remainder of the window (cycles where dispatch made progress),
/// computed per interval as `cycles - attributed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBuckets {
    pub rob_full: u64,
    pub mshr_full: u64,
    pub dram_wait: u64,
    pub busy: u64,
}

impl StallBuckets {
    /// Charge `cycles` of dispatch stall to the bucket named by `tag`.
    pub fn charge(&mut self, tag: StallTag, cycles: u64) {
        match tag {
            StallTag::Core | StallTag::Mem => self.rob_full += cycles,
            StallTag::MshrFull => self.mshr_full += cycles,
            StallTag::Dram => self.dram_wait += cycles,
        }
    }

    /// Stall cycles attributed to a concrete cause (excludes `busy`).
    pub fn attributed(&self) -> u64 {
        self.rob_full + self.mshr_full + self.dram_wait
    }

    /// Per-interval delta against an earlier snapshot of the same
    /// cumulative buckets (`busy` is left 0; the engine fills it from
    /// the interval's cycle count).
    pub fn delta_since(&self, base: &StallBuckets) -> StallBuckets {
        StallBuckets {
            rob_full: self.rob_full.saturating_sub(base.rob_full),
            mshr_full: self.mshr_full.saturating_sub(base.mshr_full),
            dram_wait: self.dram_wait.saturating_sub(base.dram_wait),
            busy: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Interval records
// ---------------------------------------------------------------------------

/// Per-level access counters over one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelDelta {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
}

impl LevelDelta {
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// DRAM activity over one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramDelta {
    pub reads: u64,
    pub writes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
}

impl DramDelta {
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Large Predictor routing mix over one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpDelta {
    pub lookups: u64,
    pub sdc_routes: u64,
    pub hierarchy_routes: u64,
}

/// Cumulative side-channel counters a memory system exposes to the
/// engine's snapshotter, beyond its ordinary hit/miss stats. All fields
/// are cumulative over the measurement window; the engine diffs the
/// monotone ones per interval and passes high-water marks through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtraCounters {
    /// Highest simultaneous occupancy seen across the system's MSHR
    /// files (window-cumulative high-water mark, not an interval delta).
    pub mshr_high_water: u64,
    /// Total cycles requests were delayed by full MSHR files.
    pub mshr_stall_cycles: u64,
    pub lp_lookups: u64,
    pub lp_sdc_routes: u64,
    pub lp_hierarchy_routes: u64,
    /// Accesses routed around the hierarchy into the SDC.
    pub sdc_bypasses: u64,
    /// Valid entries currently held by the SDC directory (instantaneous).
    pub sdcdir_occupancy: u64,
}

/// One interval snapshot: everything between two cycle stamps, as
/// deltas (except the documented high-water/occupancy fields).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetryInterval {
    /// 0-based interval index within the run (per core).
    pub index: u64,
    pub core: u32,
    /// First cycle covered (exclusive of the previous interval's end).
    pub start_cycle: u64,
    /// Last cycle covered; strictly greater than `start_cycle`.
    pub end_cycle: u64,
    /// Instructions retired in the interval.
    pub instructions: u64,
    pub l1d: LevelDelta,
    pub sdc: LevelDelta,
    pub l2c: LevelDelta,
    pub llc: LevelDelta,
    pub dram: DramDelta,
    /// MSHR occupancy high-water mark (window-cumulative).
    pub mshr_high_water: u64,
    pub lp: LpDelta,
    pub sdc_bypasses: u64,
    pub stalls: StallBuckets,
}

impl TelemetryInterval {
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.instructions as f64 / c as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

/// Everything collected by a sink, drained at end of run.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOutput {
    pub intervals: Vec<TelemetryInterval>,
    pub events: Vec<TelemetryEvent>,
    /// Events evicted from the ring because it was full.
    pub dropped_events: u64,
    /// Events rejected by the severity filter.
    pub filtered_events: u64,
}

/// Where telemetry flows. The default methods are no-ops, so a sink can
/// implement only what it consumes; [`NullSink`] implements nothing.
pub trait TelemetrySink: Send {
    fn interval(&mut self, _interval: &TelemetryInterval) {}
    fn event(&mut self, _event: &TelemetryEvent) {}
    /// Drain whatever the sink collected. `None` for streaming sinks.
    fn take_output(&mut self) -> Option<TelemetryOutput> {
        None
    }
}

/// The no-op sink: every hook call vanishes.
pub struct NullSink;

impl TelemetrySink for NullSink {}

/// Collection parameters for [`Collector`] / [`TelemetryHandle::collector`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Snapshot cadence in traced instructions.
    pub interval_instructions: u64,
    /// Event-ring capacity (0 disables event retention entirely).
    pub event_capacity: usize,
    /// Minimum severity retained by the event ring.
    pub min_severity: Severity,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval_instructions: DEFAULT_INTERVAL_INSTRUCTIONS,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            min_severity: Severity::Debug,
        }
    }
}

/// The standard in-memory sink: stores every interval, rings events.
pub struct Collector {
    intervals: Vec<TelemetryInterval>,
    ring: EventRing,
}

impl Collector {
    pub fn new(cfg: &TelemetryConfig) -> Self {
        Collector {
            intervals: Vec::new(),
            ring: EventRing::new(cfg.event_capacity, cfg.min_severity),
        }
    }
}

impl TelemetrySink for Collector {
    fn interval(&mut self, interval: &TelemetryInterval) {
        self.intervals.push(*interval);
    }

    fn event(&mut self, event: &TelemetryEvent) {
        self.ring.push(*event);
    }

    fn take_output(&mut self) -> Option<TelemetryOutput> {
        Some(TelemetryOutput {
            intervals: std::mem::take(&mut self.intervals),
            events: self.ring.drain(),
            dropped_events: self.ring.dropped,
            filtered_events: self.ring.filtered,
        })
    }
}

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

/// The hook every simulator component holds. Cloning is cheap (an `Arc`
/// bump or a `None` copy); the disabled handle is the `Default` and
/// costs one branch per hook call.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    sink: Option<Arc<Mutex<Box<dyn TelemetrySink>>>>,
    /// Stamped onto events emitted through this handle.
    core: u32,
    interval_instructions: u64,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("enabled", &self.enabled())
            .field("core", &self.core)
            .field("interval_instructions", &self.interval_instructions)
            .finish()
    }
}

impl TelemetryHandle {
    /// The zero-cost disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        TelemetryHandle::default()
    }

    /// A handle backed by an in-memory [`Collector`].
    pub fn collector(cfg: &TelemetryConfig) -> Self {
        TelemetryHandle::with_sink(Box::new(Collector::new(cfg)), cfg.interval_instructions)
    }

    /// A handle backed by an arbitrary sink.
    pub fn with_sink(sink: Box<dyn TelemetrySink>, interval_instructions: u64) -> Self {
        TelemetryHandle {
            sink: Some(Arc::new(Mutex::new(sink))),
            core: 0,
            interval_instructions: interval_instructions.max(1),
        }
    }

    /// A clone of this handle that stamps `core` onto its events
    /// (multicore wiring; [`SHARED_CORE`] for shared components).
    pub fn for_core(&self, core: u32) -> Self {
        let mut h = self.clone();
        h.core = core;
        h
    }

    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    pub fn core(&self) -> u32 {
        self.core
    }

    /// Snapshot cadence in instructions (0 when disabled).
    pub fn interval_instructions(&self) -> u64 {
        if self.enabled() {
            self.interval_instructions
        } else {
            0
        }
    }

    /// Deliver an interval snapshot.
    pub fn interval(&self, interval: &TelemetryInterval) {
        if let Some(sink) = &self.sink {
            sink.lock().interval(interval);
        }
    }

    /// Deliver an event. The kind is built lazily so a disabled handle
    /// never constructs it.
    pub fn event(&self, cycle: u64, kind: impl FnOnce() -> EventKind) {
        if let Some(sink) = &self.sink {
            let ev = TelemetryEvent { cycle, core: self.core, kind: kind() };
            sink.lock().event(&ev);
        }
    }

    /// Drain the sink's collected output (post-run; `None` when disabled
    /// or when the sink streams).
    pub fn take_output(&self) -> Option<TelemetryOutput> {
        self.sink.as_ref().and_then(|s| s.lock().take_output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { cycle, core: 0, kind }
    }

    #[test]
    fn severity_orders_and_maps() {
        assert!(Severity::Debug < Severity::Info && Severity::Info < Severity::Warn);
        assert_eq!(EventKind::WatchdogTick.severity(), Severity::Warn);
        assert_eq!(EventKind::SdcBypass.severity(), Severity::Debug);
        assert_eq!(EventKind::DramRowConflict.severity(), Severity::Info);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = EventRing::new(2, Severity::Debug);
        r.push(ev(1, EventKind::SdcBypass));
        r.push(ev(2, EventKind::SdcBypass));
        r.push(ev(3, EventKind::SdcBypass));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped, 1);
        let drained = r.drain();
        assert_eq!(drained[0].cycle, 2, "oldest event is evicted first");
        assert_eq!(drained[1].cycle, 3);
    }

    #[test]
    fn ring_filters_below_min_severity() {
        let mut r = EventRing::new(8, Severity::Info);
        r.push(ev(1, EventKind::SdcBypass)); // Debug: filtered
        r.push(ev(2, EventKind::DramRowConflict)); // Info: kept
        r.push(ev(3, EventKind::WatchdogTick)); // Warn: kept
        assert_eq!(r.len(), 2);
        assert_eq!(r.filtered, 1);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut r = EventRing::new(0, Severity::Debug);
        r.push(ev(1, EventKind::SdcBypass));
        assert!(r.is_empty());
        assert_eq!(r.dropped, 1);
    }

    #[test]
    fn stall_buckets_charge_and_delta() {
        let mut s = StallBuckets::default();
        s.charge(StallTag::Core, 3);
        s.charge(StallTag::Mem, 2);
        s.charge(StallTag::Dram, 10);
        s.charge(StallTag::MshrFull, 4);
        assert_eq!(s.rob_full, 5);
        assert_eq!(s.dram_wait, 10);
        assert_eq!(s.mshr_full, 4);
        assert_eq!(s.attributed(), 19);
        let base = StallBuckets { rob_full: 1, mshr_full: 1, dram_wait: 1, busy: 99 };
        let d = s.delta_since(&base);
        assert_eq!(d, StallBuckets { rob_full: 4, mshr_full: 3, dram_wait: 9, busy: 0 });
    }

    #[test]
    fn interval_math() {
        let iv = TelemetryInterval {
            start_cycle: 100,
            end_cycle: 300,
            instructions: 100,
            l1d: LevelDelta { accesses: 50, hits: 40, misses: 10 },
            ..Default::default()
        };
        assert_eq!(iv.cycles(), 200);
        assert!((iv.ipc() - 0.5).abs() < 1e-12);
        assert!((iv.l1d.mpki(100) - 100.0).abs() < 1e-9);
        assert!((iv.l1d.miss_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(TelemetryInterval::default().ipc(), 0.0);
        assert_eq!(LevelDelta::default().mpki(0), 0.0);
    }

    #[test]
    fn dram_row_hit_rate() {
        let d = DramDelta { row_hits: 3, row_misses: 1, row_conflicts: 0, ..Default::default() };
        assert!((d.row_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(DramDelta::default().row_hit_rate(), 0.0);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TelemetryHandle::disabled();
        assert!(!h.enabled());
        assert_eq!(h.interval_instructions(), 0);
        let mut built = false;
        h.event(1, || {
            built = true;
            EventKind::WatchdogTick
        });
        assert!(!built, "disabled handle must not construct events");
        h.interval(&TelemetryInterval::default());
        assert!(h.take_output().is_none());
    }

    #[test]
    fn collector_round_trips_intervals_and_events() {
        let h = TelemetryHandle::collector(&TelemetryConfig::default());
        assert!(h.enabled());
        assert_eq!(h.interval_instructions(), DEFAULT_INTERVAL_INSTRUCTIONS);
        h.interval(&TelemetryInterval { index: 0, end_cycle: 10, ..Default::default() });
        h.interval(&TelemetryInterval {
            index: 1,
            start_cycle: 10,
            end_cycle: 25,
            ..Default::default()
        });
        let h2 = h.for_core(3);
        h2.event(7, || EventKind::DramRowConflict);
        let out = h.take_output().expect("collector drains");
        assert_eq!(out.intervals.len(), 2);
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].core, 3, "for_core stamps the core id");
        assert_eq!(out.events[0].cycle, 7);
        assert_eq!(out.dropped_events, 0);
        // A second drain yields nothing new.
        assert_eq!(h.take_output().expect("still a collector").intervals.len(), 0);
    }
}
