//! Multi-core simulation engine: N cores with private memory sides sharing
//! one LLC + DRAM backend, interleaved on a common timeline (Section IV-D
//! methodology).
//!
//! Cores replay recorded traces, wrapping a trace shorter than the window.
//! Simulation advances the core with the smallest local cycle so
//! shared-resource contention (LLC capacity, DRAM banks and bus) is
//! ordered consistently. A core that finishes its measurement window is no
//! longer scheduled: it stops replaying, and so stops generating
//! contention, while the other cores finish. The usual multi-programmed
//! methodology keeps finished cores running; EXPERIMENTS.md lists this
//! under Known deviations.

use crate::engine::TelSnap;
use crate::hierarchy::{CoreMemory, SharedBackend};
use crate::rob::RobModel;
use crate::stats::SimResult;
use crate::trace::CompactTrace;
use simtel::TelemetryHandle;

/// Per-core warmup/measure window (instructions).
pub use crate::engine::Window;

struct CoreState {
    rob: RobModel,
    instrs: u64,
    event_idx: usize,
    /// Trace events consumed (monotonic — `event_idx` wraps, this does not).
    consumed: u64,
    measuring: bool,
    measure_start_cycle: u64,
    finished: bool,
    result_cycles: u64,
    result_instrs: u64,
    tel: TelSnap,
}

/// The multi-core engine.
pub struct MulticoreEngine<C: CoreMemory> {
    mems: Vec<C>,
    backend: SharedBackend,
    window: Window,
    tel: TelemetryHandle,
}

impl<C: CoreMemory> MulticoreEngine<C> {
    pub fn new(mems: Vec<C>, backend: SharedBackend, window: Window) -> Self {
        assert!(!mems.is_empty());
        MulticoreEngine { mems, backend, window, tel: TelemetryHandle::disabled() }
    }

    /// Attach a telemetry sink: core `c` emits events and intervals through
    /// `tel.for_core(c)`, the shared backend through
    /// `tel.for_core(simtel::SHARED_CORE)`. Per-core interval snapshots
    /// carry the private-side counters; the shared LLC/DRAM deltas are
    /// machine-wide, so they stay zero in per-core intervals and appear
    /// only in the final per-run stats.
    pub fn attach_telemetry(&mut self, tel: TelemetryHandle) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "core ids are below the core count, a handful"
        )]
        for (i, mem) in self.mems.iter_mut().enumerate() {
            mem.attach_telemetry(tel.for_core(i as u32));
        }
        self.backend.attach_telemetry(tel.for_core(simtel::SHARED_CORE));
        self.tel = tel;
    }

    /// Replay one trace per core to completion; returns one result per core.
    ///
    /// Traces shorter than the window wrap around.
    pub fn run(self, traces: &[&CompactTrace], width: usize, rob_entries: usize) -> Vec<SimResult> {
        let offsets = vec![0u64; traces.len()];
        self.run_with_offsets(traces, &offsets, width, rob_entries)
    }

    /// Like [`MulticoreEngine::run`], but adds `offsets[c]` to every
    /// address of core `c`'s trace — how one recorded trace is replayed on
    /// several cores at once with disjoint address spaces (the paper's
    /// multi-programmed mixes).
    pub fn run_with_offsets(
        self,
        traces: &[&CompactTrace],
        offsets: &[u64],
        width: usize,
        rob_entries: usize,
    ) -> Vec<SimResult> {
        let mut run = self.start(offsets, width, rob_entries);
        run.run_to_completion(traces);
        run.finish()
    }

    /// Begin a steppable run: build per-core state and return the driver.
    /// Splitting construction from stepping lets the sweep layer advance
    /// the machine in bounded spans and snapshot between them.
    pub fn start(self, offsets: &[u64], width: usize, rob_entries: usize) -> MulticoreRun<C> {
        assert_eq!(offsets.len(), self.mems.len());
        let every = self.tel.interval_instructions();
        let mut cores: Vec<CoreState> = (0..self.mems.len())
            .map(|_| CoreState {
                rob: RobModel::new(width, rob_entries),
                instrs: 0,
                event_idx: 0,
                consumed: 0,
                measuring: self.window.warmup == 0,
                measure_start_cycle: 0,
                finished: false,
                result_cycles: 0,
                result_instrs: 0,
                tel: TelSnap::default(),
            })
            .collect();
        if every != 0 && self.window.warmup == 0 {
            for (i, c) in cores.iter_mut().enumerate() {
                c.tel.arm(
                    every,
                    0,
                    self.mems[i].collect_core_stats(),
                    self.mems[i].telemetry_counters(),
                    c.rob.stalls,
                );
            }
        }
        MulticoreRun { engine: self, cores, offsets: offsets.to_vec() }
    }
}

/// An in-flight multi-core run: the engine plus per-core replay state,
/// advanced one scheduler step at a time so the sweep layer can take
/// crash-recovery snapshots between bounded spans.
pub struct MulticoreRun<C: CoreMemory> {
    engine: MulticoreEngine<C>,
    cores: Vec<CoreState>,
    offsets: Vec<u64>,
}

impl<C: CoreMemory> MulticoreRun<C> {
    /// Is every core past its measurement window?
    pub fn done(&self) -> bool {
        self.cores.iter().all(|c| c.finished)
    }

    /// Total scheduler steps consumed so far (one trace event per step),
    /// summed over cores. Deterministic, so it doubles as the snapshot
    /// position carried in the `SSTATEv2` identity.
    pub fn steps(&self) -> u64 {
        self.cores.iter().map(|c| c.consumed).sum()
    }

    /// Advance the machine by at most `max_steps` scheduler steps (each
    /// step replays one trace event on the core with the smallest local
    /// cycle). Returns `true` while any core is still running.
    pub fn step_span(&mut self, traces: &[&CompactTrace], max_steps: u64) -> bool {
        assert_eq!(traces.len(), self.cores.len());
        assert!(traces.iter().all(|t| !t.is_empty()), "cannot replay an empty trace");
        let n = self.cores.len();
        let every = self.engine.tel.interval_instructions();
        let window = self.engine.window;
        let mut stepped = 0u64;
        // One sequential decoder per core at its stored position.
        let mut cursors: Vec<_> = self
            .cores
            .iter()
            .zip(traces)
            .map(|(c, t)| {
                let mut cursor = t.events.iter_from(c.event_idx);
                cursor.wrap();
                cursor
            })
            .collect();
        // Advance the unfinished core with the smallest local cycle.
        while stepped < max_steps {
            let Some(cid) = (0..n)
                .filter(|&i| !self.cores[i].finished)
                .min_by_key(|&i| self.cores[i].rob.current_cycle())
            else {
                return false;
            };
            stepped += 1;
            let core = &mut self.cores[cid];
            let cursor = &mut cursors[cid];
            // Never at the end: traces are non-empty and cursors wrap eagerly.
            let Some(ev) = cursor.next() else { break };
            cursor.wrap();
            core.event_idx = cursor.pos();
            core.consumed += 1;

            let before = core.instrs;
            if ev.is_mem() {
                let mut r = ev.as_mem_ref();
                r.addr += self.offsets[cid];
                let d = core.rob.dispatch_slot();
                let out = self.engine.mems[cid].access(&r, d, &mut self.engine.backend);
                let (completion, tag) = out.rob_entry(r.is_write, d);
                core.rob.complete_tagged(completion, tag);
                core.instrs += 1;
            } else {
                core.rob.bubbles(ev.addr);
                core.instrs += ev.addr;
            }

            // Warmup boundary: reset this core's private stats.
            let crossed_warmup =
                !core.measuring && before < window.warmup && core.instrs >= window.warmup;
            if crossed_warmup {
                core.measuring = true;
                core.measure_start_cycle = core.rob.current_cycle();
                self.engine.mems[cid].reset_stats();
                if every != 0 {
                    core.tel.arm(
                        every,
                        core.rob.current_cycle(),
                        self.engine.mems[cid].collect_core_stats(),
                        self.engine.mems[cid].telemetry_counters(),
                        core.rob.stalls,
                    );
                }
            }

            // Interval snapshot (same cadence and monotonicity rules as the
            // single-core engine; at most one per event).
            if core.tel.next_instrs != 0 && core.measuring && !core.finished {
                let measured = core.instrs.saturating_sub(window.warmup);
                let now = core.rob.current_cycle();
                if measured >= core.tel.next_instrs && now > core.tel.last_cycle {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "core ids are below the core count, a handful"
                    )]
                    let interval = core.tel.build(
                        cid as u32,
                        now,
                        measured,
                        self.engine.mems[cid].collect_core_stats(),
                        self.engine.mems[cid].telemetry_counters(),
                        core.rob.stalls,
                    );
                    self.engine.tel.interval(&interval);
                    core.tel.next_instrs = (measured / every + 1) * every;
                }
            }

            // Measurement complete for this core?
            if !core.finished && core.instrs >= window.total() {
                core.finished = true;
                let end = core.rob.drain();
                core.result_cycles = end.saturating_sub(core.measure_start_cycle).max(1);
                core.result_instrs = core.instrs - window.warmup.min(core.instrs);
                // Tail flush so this core's interval sums cover its window.
                if core.tel.next_instrs != 0 {
                    let measured = core.result_instrs;
                    if measured > core.tel.prev_instrs {
                        let end_cycle = end.max(core.tel.last_cycle + 1);
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "core ids are below the core count, a handful"
                        )]
                        let interval = core.tel.build(
                            cid as u32,
                            end_cycle,
                            measured,
                            self.engine.mems[cid].collect_core_stats(),
                            self.engine.mems[cid].telemetry_counters(),
                            core.rob.stalls,
                        );
                        self.engine.tel.interval(&interval);
                    }
                }
            }

            // Once the last core crosses warmup, reset the shared backend so
            // LLC/DRAM counters cover only the measured region.
            if crossed_warmup && self.cores.iter().all(|c| c.measuring) {
                self.engine.backend.reset_stats();
            }
        }
        !self.done()
    }

    /// Replay until every core finishes its window.
    pub fn run_to_completion(&mut self, traces: &[&CompactTrace]) {
        while self.step_span(traces, u64::MAX) {}
    }

    /// Per-core results. Each carries the shared LLC/DRAM counters (they
    /// describe the whole machine, so every core reports the same backend
    /// numbers).
    pub fn finish(self) -> Vec<SimResult> {
        self.cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut stats = self.engine.mems[i].collect_core_stats();
                stats.llc = *self.engine.backend.llc.stats();
                stats.dram = self.engine.backend.dram.stats;
                SimResult { instructions: c.result_instrs, cycles: c.result_cycles, stats }
            })
            .collect()
    }

    /// Serialize the full machine: every core's replay cursor + ROB +
    /// private memory side, then the shared backend. Telemetry interval
    /// state is deliberately not stored (pure observer; intervals emitted
    /// after a restore cover only post-restore execution).
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"MC__");
        w.put_usize(self.cores.len());
        for (i, c) in self.cores.iter().enumerate() {
            c.rob.save_state(w);
            w.put_u64(c.instrs);
            w.put_usize(c.event_idx);
            w.put_u64(c.consumed);
            w.put_bool(c.measuring);
            w.put_u64(c.measure_start_cycle);
            w.put_bool(c.finished);
            w.put_u64(c.result_cycles);
            w.put_u64(c.result_instrs);
            w.put_u64(self.offsets[i]);
            self.engine.mems[i].save_state(w);
        }
        self.engine.backend.save_state(w);
    }

    /// Restore state saved by [`Self::save_state`] into a run started with
    /// the same configuration, core count, and window.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"MC__")?;
        let n = r.get_usize()?;
        if n != self.cores.len() {
            return Err(simstate::StateError::ShapeMismatch {
                what: "core count",
                expected: self.cores.len() as u64,
                found: n as u64,
            });
        }
        for (i, c) in self.cores.iter_mut().enumerate() {
            c.rob.load_state(r)?;
            c.instrs = r.get_u64()?;
            c.event_idx = r.get_usize()?;
            c.consumed = r.get_u64()?;
            c.measuring = r.get_bool()?;
            c.measure_start_cycle = r.get_u64()?;
            c.finished = r.get_bool()?;
            c.result_cycles = r.get_u64()?;
            c.result_instrs = r.get_u64()?;
            let offset = r.get_u64()?;
            if let Some(slot) = self.offsets.get_mut(i) {
                *slot = offset;
            }
            c.tel = TelSnap::default();
            self.engine.mems[i].load_state(r)?;
        }
        self.engine.backend.load_state(r)
    }

    /// One-call snapshot state for an `SSTATEv2` container.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = simstate::StateSink::new();
        self.save_state(&mut w);
        w.into_bytes()
    }

    /// Restore from a payload produced by [`Self::snapshot`], requiring the
    /// payload to be fully consumed.
    pub fn restore(&mut self, payload: &[u8]) -> Result<(), simstate::StateError> {
        let mut r = simstate::StateSource::new(payload);
        self.load_state(&mut r)?;
        r.expect_end()
    }
}

/// Weighted speedup of a mix: sum over threads of
/// `IPC_shared / IPC_single`, as defined in Section IV-D.
pub fn weighted_ipc(shared: &[SimResult], single: &[SimResult]) -> f64 {
    assert_eq!(shared.len(), single.len());
    shared
        .iter()
        .zip(single)
        .map(|(sh, si)| {
            let denom = si.ipc();
            if denom <= 0.0 {
                0.0
            } else {
                sh.ipc() / denom
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetcherKind, SystemConfig};
    use crate::hierarchy::CoreSide;
    use crate::trace::{RecordingTracer, Tracer};

    fn make_trace(seed: u64, instrs: u64, footprint_blocks: u64) -> CompactTrace {
        make_spaced_trace(seed, instrs, footprint_blocks, 2)
    }

    /// Random loads over `footprint_blocks`, `bubbles` ALU ops apart.
    fn make_spaced_trace(
        seed: u64,
        instrs: u64,
        footprint_blocks: u64,
        bubbles: u32,
    ) -> CompactTrace {
        let mut rec = RecordingTracer::new(instrs);
        let mut x = seed;
        while !rec.done() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rec.load(1, 0, (x % footprint_blocks) * 64);
            rec.bubble(bubbles);
        }
        rec.finish()
    }

    fn cfg() -> SystemConfig {
        let mut cfg = SystemConfig::baseline(4);
        cfg.l1d.prefetcher = PrefetcherKind::None;
        cfg.l2c.prefetcher = PrefetcherKind::None;
        cfg
    }

    #[test]
    fn a_finished_core_stops_replaying() {
        let cfg = cfg();
        // Core 0 loops over an L1-resident footprint, core 1 misses to
        // DRAM: core 0 finishes its window long before core 1.
        let traces =
            [make_spaced_trace(3, 4_000, 64, 1), make_spaced_trace(4, 4_000, 10_000_000, 1)];
        let refs: Vec<&CompactTrace> = traces.iter().collect();
        let mems: Vec<CoreSide> = (0..2).map(|_| CoreSide::new(&cfg)).collect();
        let engine = MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(0, 6_000));
        let mut run = engine.start(&[0, 1 << 40], 4, 224);
        while !run.cores[0].finished {
            assert!(run.step_span(&refs, 1));
        }
        // Every event is one instruction, so the 6 000-instruction window
        // is 6 000 events: the 4 000-event trace wrapped once.
        let frozen = run.cores[0].consumed;
        assert_eq!(frozen, 6_000);
        assert_eq!(run.cores[0].event_idx, 2_000);
        assert!(!run.cores[1].finished);
        while run.step_span(&refs, 64) {
            assert_eq!(run.cores[0].consumed, frozen, "finished core 0 replayed an event");
        }
        assert_eq!(run.cores[0].consumed, frozen);
        assert!(run.cores[1].finished);
    }

    #[test]
    fn four_cores_all_produce_results() {
        let cfg = cfg();
        let traces: Vec<CompactTrace> =
            (0..4).map(|i| make_trace(i + 1, 20_000, 100_000)).collect();
        let refs: Vec<&CompactTrace> = traces.iter().collect();
        let mems: Vec<CoreSide> = (0..4).map(|_| CoreSide::new(&cfg)).collect();
        let engine =
            MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(2000, 18_000));
        let results = engine.run(&refs, 4, 224);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.cycles > 0);
            assert!(r.instructions > 0);
            assert!(r.ipc() > 0.0);
        }
    }

    #[test]
    fn shared_run_is_slower_than_isolated() {
        let cfg = cfg();
        // DRAM-heavy trace: contention must hurt.
        let traces: Vec<CompactTrace> =
            (0..4).map(|i| make_trace(i + 77, 30_000, 10_000_000)).collect();
        let refs: Vec<&CompactTrace> = traces.iter().collect();

        let mems: Vec<CoreSide> = (0..4).map(|_| CoreSide::new(&cfg)).collect();
        let shared = MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(0, 30_000))
            .run(&refs, 4, 224);

        // Isolated: each trace alone on the same machine.
        let mut singles = Vec::new();
        for t in &traces {
            let mems = vec![CoreSide::new(&cfg)];
            let r = MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(0, 30_000))
                .run(&[t], 4, 224);
            singles.push(r.into_iter().next().unwrap());
        }

        let ws = weighted_ipc(&shared, &singles);
        assert!(ws <= 4.0 + 1e-9, "weighted IPC cannot exceed core count, got {ws}");
        assert!(ws > 0.5, "weighted IPC suspiciously low: {ws}");
        for (sh, si) in shared.iter().zip(&singles) {
            assert!(sh.ipc() <= si.ipc() * 1.05, "shared {} vs single {}", sh.ipc(), si.ipc());
        }
    }

    #[test]
    fn results_carry_shared_backend_stats() {
        let cfg = cfg();
        // Footprint far beyond the private caches so the LLC and DRAM see
        // real traffic during measurement.
        let traces: Vec<CompactTrace> =
            (0..2).map(|i| make_trace(i + 9, 20_000, 4_000_000)).collect();
        let refs: Vec<&CompactTrace> = traces.iter().collect();
        let mems: Vec<CoreSide> = (0..2).map(|_| CoreSide::new(&cfg)).collect();
        let results =
            MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(2000, 18_000))
                .run(&refs, 4, 224);
        for (i, r) in results.iter().enumerate() {
            assert!(r.stats.llc.accesses > 0, "core {i} lost shared LLC stats");
            assert!(r.stats.dram.reads > 0, "core {i} lost shared DRAM stats");
        }
        // The backend is shared: every core reports the same machine-wide
        // counters.
        assert_eq!(results[0].stats.llc.accesses, results[1].stats.llc.accesses);
        assert_eq!(results[0].stats.dram.reads, results[1].stats.dram.reads);
        // Backend counters were reset at the warmup boundary, so they
        // cannot exceed what the private caches let through plus writebacks.
        let total_l2_misses: u64 = results.iter().map(|r| r.stats.l2c.misses).sum();
        assert!(
            results[0].stats.llc.accesses <= total_l2_misses * 2,
            "LLC accesses {} look unreset (l2 misses {})",
            results[0].stats.llc.accesses,
            total_l2_misses
        );
    }

    #[test]
    fn short_trace_wraps_around() {
        let cfg = cfg();
        let trace = make_trace(5, 1000, 1000);
        let mems = vec![CoreSide::new(&cfg)];
        let results = MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(0, 5000))
            .run(&[&trace], 4, 224);
        assert!(results[0].instructions >= 5000);
    }

    #[test]
    fn per_core_intervals_are_monotone_and_reconcile() {
        let cfg = cfg();
        let traces: Vec<CompactTrace> =
            (0..2).map(|i| make_trace(i + 3, 20_000, 2_000_000)).collect();
        let refs: Vec<&CompactTrace> = traces.iter().collect();

        let run = |tel: Option<TelemetryHandle>| {
            let mems: Vec<CoreSide> = (0..2).map(|_| CoreSide::new(&cfg)).collect();
            let mut eng =
                MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(2000, 18_000));
            if let Some(t) = tel {
                eng.attach_telemetry(t);
            }
            eng.run(&refs, 4, 224)
        };

        let plain = run(None);
        let tcfg = simtel::TelemetryConfig { interval_instructions: 2000, ..Default::default() };
        let tel = TelemetryHandle::collector(&tcfg);
        let traced = run(Some(tel.clone()));
        assert_eq!(plain, traced, "telemetry must not perturb the simulation");

        let out = tel.take_output().unwrap();
        for core in 0..2u32 {
            let ivs: Vec<_> = out.intervals.iter().filter(|iv| iv.core == core).collect();
            assert!(ivs.len() >= 2, "core {core}: {} intervals", ivs.len());
            for (i, iv) in ivs.iter().enumerate() {
                assert_eq!(iv.index, i as u64);
                assert!(iv.end_cycle > iv.start_cycle);
                if i > 0 {
                    assert_eq!(iv.start_cycle, ivs[i - 1].end_cycle);
                }
            }
            let instrs: u64 = ivs.iter().map(|iv| iv.instructions).sum();
            assert_eq!(instrs, traced[core as usize].instructions);
            let l1d: u64 = ivs.iter().map(|iv| iv.l1d.accesses).sum();
            assert_eq!(l1d, traced[core as usize].stats.l1d.accesses);
        }
        // Shared-backend events carry the SHARED_CORE stamp.
        assert!(out.events.iter().all(|ev| ev.core < 2 || ev.core == simtel::SHARED_CORE));
    }

    #[test]
    fn dram_bound_stalls_are_charged_to_dram_and_mshr_buckets() {
        // Loads spread over a footprint far beyond the LLC: nearly every
        // one misses to DRAM. Sparse loads leave MSHRs free, so the ROB
        // fills behind DRAM misses; dense loads also exhaust the MSHRs.
        let stalls = |bubbles: u32| {
            let cfg = cfg();
            let traces: Vec<CompactTrace> =
                (0..2).map(|i| make_spaced_trace(i + 11, 20_000, 10_000_000, bubbles)).collect();
            let refs: Vec<&CompactTrace> = traces.iter().collect();
            let mems: Vec<CoreSide> = (0..2).map(|_| CoreSide::new(&cfg)).collect();
            let mut eng =
                MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(2000, 18_000));
            let tcfg =
                simtel::TelemetryConfig { interval_instructions: 2000, ..Default::default() };
            let tel = TelemetryHandle::collector(&tcfg);
            eng.attach_telemetry(tel.clone());
            eng.run(&refs, 4, 224);
            let out = tel.take_output().unwrap();
            out.intervals.iter().fold(simtel::StallBuckets::default(), |mut acc, iv| {
                acc.rob_full += iv.stalls.rob_full;
                acc.mshr_full += iv.stalls.mshr_full;
                acc.dram_wait += iv.stalls.dram_wait;
                acc
            })
        };
        let sparse = stalls(24);
        assert!(sparse.dram_wait > 0, "no DRAM wait charged: {sparse:?}");
        assert!(sparse.dram_wait > sparse.rob_full, "{sparse:?}");
        let dense = stalls(1);
        assert!(dense.mshr_full > 0, "no MSHR-full stall charged: {dense:?}");
    }

    #[test]
    fn multicore_snapshot_restore_then_run_is_bit_identical() {
        // Prefetchers on: snapshot the richest state the hierarchy holds.
        let cfg = SystemConfig::baseline(4);
        let traces: Vec<CompactTrace> =
            (0..4).map(|i| make_trace(i + 21, 20_000, 3_000_000)).collect();
        let refs: Vec<&CompactTrace> = traces.iter().collect();
        let offsets = [0u64, 1 << 32, 2 << 32, 3 << 32];
        let window = Window::new(2000, 18_000);
        let build = || {
            let mems: Vec<CoreSide> = (0..4).map(|_| CoreSide::new(&cfg)).collect();
            MulticoreEngine::new(mems, SharedBackend::new(&cfg), window)
        };

        let mut straight = build().start(&offsets, 4, 224);
        straight.run_to_completion(&refs);
        let want = straight.finish();

        // Split mid-warmup and mid-measurement.
        for split in [3_000u64, 40_000] {
            let mut first = build().start(&offsets, 4, 224);
            assert!(first.step_span(&refs, split), "machine still running at step {split}");
            assert_eq!(first.steps(), split);
            let payload = first.snapshot();

            let mut resumed = build().start(&offsets, 4, 224);
            resumed.restore(&payload).unwrap();
            assert_eq!(resumed.steps(), split);
            resumed.run_to_completion(&refs);
            assert_eq!(resumed.finish(), want, "diverged after restore at step {split}");
        }
    }

    #[test]
    fn multicore_restore_rejects_wrong_core_count() {
        let cfg = cfg();
        let trace = make_trace(5, 2000, 10_000);
        let mems: Vec<CoreSide> = (0..2).map(|_| CoreSide::new(&cfg)).collect();
        let mut run = MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(0, 5000))
            .start(&[0, 0], 4, 224);
        run.step_span(&[&trace, &trace], 100);
        let payload = run.snapshot();

        let mems = vec![CoreSide::new(&cfg)];
        let mut other = MulticoreEngine::new(mems, SharedBackend::new(&cfg), Window::new(0, 5000))
            .start(&[0], 4, 224);
        assert!(matches!(
            other.restore(&payload),
            Err(simstate::StateError::ShapeMismatch { what: "core count", .. })
        ));
    }

    #[test]
    fn weighted_ipc_of_identical_runs_is_core_count() {
        let r = SimResult { instructions: 1000, cycles: 500, ..Default::default() };
        let shared = vec![r.clone(), r.clone()];
        let single = vec![r.clone(), r.clone()];
        assert!((weighted_ipc(&shared, &single) - 2.0).abs() < 1e-12);
    }
}
