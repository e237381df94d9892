//! The daemon: accept loop, shard scheduler, worker pool, drain shutdown.
//!
//! ## Scheduling
//!
//! A submission is split into *shards* by the batch executor's own
//! `matrix::shard_by_workload` — one per workload, in first-appearance
//! order — so a shard's points share one trace recording. Shards feed a
//! round-robin queue across sweeps: each worker pops the next shard of the
//! least-recently-served sweep, so one client's 36-point suite cannot
//! starve another client's 2-point probe (concurrent-client fairness).
//!
//! ## Clock-free liveness
//!
//! The simulator stack bans wall-clock (the root clippy.toml disallows
//! `Instant`, `SystemTime` and `Duration` here), so the daemon has no
//! timeouts anywhere: connection reads block, workers
//! park on a condvar, and shutdown wakes the blocked `accept()` by
//! self-connecting to its own socket. The per-point runaway guard is the
//! executor's deterministic cycle-budget watchdog, not a timer.
//!
//! ## Fault radii
//!
//! A panicking point is contained by the executor's `catch_unwind` and
//! becomes a `failed` record; the worker, the other shards, and both
//! clients' streams all survive. A client that vanishes mid-stream only
//! cancels its own sweep's undispatched shards.

use crate::cache::{ResultCache, RunnerPool};
use crate::proto::{
    self, send_response, CacheStatsMsg, ErrorCode, PointSpec, RecordMsg, Request, Response,
    StatusMsg, SubmitSpec, SweepSummary,
};
use gpgraph::SuiteScale;
use gpworkloads::matrix::{shard_by_workload, MatrixOptions, MatrixPoint, SystemSpec, Watchdog};
use gpworkloads::singlecore::Workload;
use gpworkloads::{find_scale, find_system, find_workload, Runner};
use simcore::Window;
use std::collections::{BTreeMap, VecDeque};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Messages the daemon reports through the host's logger hook. The
/// library itself never prints (its root denies clippy's print lints); the
/// `simserved` binary installs an stderr-writing hook.
pub type LogFn = Arc<dyn Fn(&str) + Send + Sync>;

/// Daemon construction parameters.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path to serve on.
    pub socket: PathBuf,
    /// Worker threads (0 = available parallelism).
    pub workers: usize,
    /// Checkpoint directory shared by all sweeps (`None` disables warmup
    /// forking and crash snapshots).
    pub state_dir: Option<PathBuf>,
    /// Fork each point from a persisted post-warmup snapshot when one
    /// exists (requires `state_dir`).
    pub warmup_fork: bool,
    /// Crash-snapshot cadence in trace events (0 disables; requires
    /// `state_dir`).
    pub snapshot_every: u64,
    /// Per-point runaway ceiling, passed through to the executor.
    pub watchdog: Watchdog,
    /// Largest accepted submission, in points. Typed backpressure: a
    /// bigger sweep is rejected with [`ErrorCode::QueueFull`].
    pub queue_limit: usize,
    /// Completed sweeps whose records stay fetchable via
    /// `Request::Results` (oldest evicted first).
    pub archive_limit: usize,
    /// Accept the reserved system name `poison` as a fault-injection
    /// point (tests only; off in production daemons).
    pub allow_poison: bool,
    /// Logger hook (the library never prints on its own).
    pub log: Option<LogFn>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("simserve.sock"),
            workers: 0,
            state_dir: None,
            warmup_fork: false,
            snapshot_every: 0,
            watchdog: Watchdog::CyclesPerInstr(Watchdog::DEFAULT_CPI),
            queue_limit: 4096,
            archive_limit: 32,
            allow_poison: false,
            log: None,
        }
    }
}

/// Submission-wide run parameters every shard of a sweep shares.
#[derive(Clone)]
struct Plan {
    scale: SuiteScale,
    window: Window,
    skip: Option<u64>,
    /// Telemetry snapshot cadence in instructions (0 = no telemetry).
    interval: u64,
}

/// How one point's memory system resolves.
enum ResolvedSystem {
    Kind(gpworkloads::SystemKind),
    /// A named design with its DRAM channel count overridden.
    Channels(gpworkloads::SystemKind, usize),
    /// Fault-injection hook: the build closure panics.
    Poison,
}

/// One point after name resolution, carrying its submission ordinal.
struct ResolvedPoint {
    index: u32,
    workload: Workload,
    system: ResolvedSystem,
}

/// A worker work unit: the points of one sweep sharing one workload
/// (hence one trace recording).
type Shard = Vec<ResolvedPoint>;

enum SweepEvent {
    Record(RecordMsg),
    Done(SweepSummary),
}

struct SweepState {
    plan: Plan,
    shards: VecDeque<Shard>,
    /// Points not yet finished (running or undispatched).
    pending_points: usize,
    ok: u32,
    failed: u32,
    cached: u32,
    /// Streams completed records to the submitting connection.
    tx: mpsc::Sender<SweepEvent>,
    records: Vec<RecordMsg>,
}

/// Scheduler state under the one daemon-wide mutex.
struct Sched {
    next_sweep: u64,
    /// Round-robin order: sweep ids with shards still undispatched.
    rr: VecDeque<u64>,
    sweeps: BTreeMap<u64, SweepState>,
    running_shards: u32,
    queued_points: u64,
    draining: bool,
    stopped: bool,
    completed_sweeps: u64,
    /// Points that finished while draining (reported by shutdown).
    drained_points: u64,
    archive: BTreeMap<u64, Vec<RecordMsg>>,
    archive_order: VecDeque<u64>,
}

struct Shared {
    cfg: DaemonConfig,
    workers: u32,
    /// Checkpoint store over `cfg.state_dir`, shared by every worker.
    store: Option<simstate::CheckpointStore>,
    runners: RunnerPool,
    results: ResultCache,
    stale_reaped: AtomicU64,
    sched: Mutex<Sched>,
    /// Wakes workers when shards arrive or the daemon stops.
    work_cv: Condvar,
    /// Wakes the drain loop when the scheduler may have gone idle.
    idle_cv: Condvar,
}

fn lock_sched(shared: &Shared) -> MutexGuard<'_, Sched> {
    // Scheduler critical sections only move plain data; a panic inside
    // one would be a daemon bug, and serving on recovered state beats
    // wedging every worker.
    shared.sched.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn log(&self, msg: &str) {
        if let Some(f) = &self.cfg.log {
            f(msg);
        }
    }

    /// Reap orphaned checkpoints. Called at startup and whenever the
    /// scheduler goes idle — under the scheduler lock, so a reap can
    /// never race a starting shard's live `mid|` snapshots.
    fn reap_stale_locked(&self) {
        if let Some(store) = &self.store {
            match store.sweep_stale() {
                Ok(0) => {}
                Ok(n) => {
                    self.stale_reaped.fetch_add(n as u64, Ordering::Relaxed);
                    self.log(&format!("reaped {n} stale checkpoint file(s)"));
                }
                Err(e) => self.log(&format!("checkpoint reap failed: {e}")),
            }
        }
    }

    /// Wait for the store's queued checkpoint writes to reach the disk.
    /// Never called under the scheduler lock: workers keep dispatching
    /// while the writer catches up.
    fn flush_store(&self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.flush() {
                self.log(&format!("could not write checkpoint {e}"));
            }
        }
    }
}

/// The daemon entry point.
pub struct Daemon;

/// A running daemon: join handles plus its socket path.
#[derive(Debug)]
pub struct DaemonHandle {
    socket: PathBuf,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Block until the daemon has fully shut down (accept loop exited and
    /// every worker drained).
    pub fn join(self) {
        // A worker/accept thread that panicked already contained the
        // damage; join() only cares that they are gone.
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

impl Daemon {
    /// Bind the socket, start the worker pool and accept loop, and return
    /// immediately. A leftover socket file from a killed daemon (e.g.
    /// `kill -9`) is detected by a probe connect and replaced, so restart
    /// recovery needs no manual cleanup.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let listener = bind_replacing_stale(&cfg.socket)?;
        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        };
        let shared = Arc::new(Shared {
            // A report field: a count past u32::MAX saturates.
            workers: u32::try_from(workers).unwrap_or(u32::MAX),
            store: cfg.state_dir.as_ref().map(simstate::CheckpointStore::new),
            runners: RunnerPool::new(),
            results: ResultCache::new(),
            stale_reaped: AtomicU64::new(0),
            sched: Mutex::new(Sched {
                next_sweep: 1,
                rr: VecDeque::new(),
                sweeps: BTreeMap::new(),
                running_shards: 0,
                queued_points: 0,
                draining: false,
                stopped: false,
                completed_sweeps: 0,
                drained_points: 0,
                archive: BTreeMap::new(),
                archive_order: VecDeque::new(),
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            cfg,
        });

        // Startup reap: snapshots orphaned by a killed predecessor are
        // garbage by definition (no sweep is running yet). Warm forks
        // survive — they are exactly what makes restart recovery warm.
        {
            let _guard = lock_sched(&shared);
            shared.reap_stale_locked();
        }

        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        shared.log(&format!(
            "simserved listening on {} ({workers} worker(s))",
            shared.cfg.socket.display()
        ));
        Ok(DaemonHandle { socket: shared.cfg.socket.clone(), accept, workers: worker_handles })
    }
}

/// Bind `socket`, replacing a stale file left by a killed daemon. If a
/// live daemon answers a probe connect, fail with `AddrInUse`.
fn bind_replacing_stale(socket: &Path) -> std::io::Result<UnixListener> {
    if socket.exists() {
        if UnixStream::connect(socket).is_ok() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("a daemon is already serving on {}", socket.display()),
            ));
        }
        std::fs::remove_file(socket)?;
    }
    if let Some(dir) = socket.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    UnixListener::bind(socket)
}

// ---------------------------------------------------------------------------
// Accept loop and connection handling
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: UnixListener) {
    for stream in listener.incoming() {
        if lock_sched(shared).stopped {
            break;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_connection(&shared, stream));
            }
            Err(e) => shared.log(&format!("accept failed: {e}")),
        }
    }
    let _ = std::fs::remove_file(&shared.cfg.socket);
    shared.log("simserved stopped");
}

fn handle_connection(shared: &Arc<Shared>, mut stream: UnixStream) {
    let req = match proto::recv_request(&mut stream) {
        Ok(Some(req)) => req,
        Ok(None) => return, // clean EOF: a probe connect or wakeup ping
        Err(e) => {
            // A malformed frame gets a typed rejection; if even that
            // write fails the client is gone and there is nobody to tell.
            shared.log(&format!("rejecting malformed request: {e}"));
            let rsp = Response::Error {
                code: ErrorCode::BadRequest,
                detail: format!("malformed request frame: {e}"),
            };
            let _ = send_response(&mut stream, &rsp);
            return;
        }
    };
    let result = match req {
        Request::Submit(spec) => handle_submit(shared, &mut stream, spec),
        Request::Status => send_response(&mut stream, &Response::StatusInfo(status_msg(shared))),
        Request::CacheStats => {
            send_response(&mut stream, &Response::CacheStatsInfo(cache_stats_msg(shared)))
        }
        Request::Results { sweep } => send_response(&mut stream, &results_msg(shared, sweep)),
        Request::Shutdown => handle_shutdown(shared, &mut stream),
    };
    if let Err(e) = result {
        shared.log(&format!("connection ended early: {e}"));
    }
}

fn status_msg(shared: &Shared) -> StatusMsg {
    let s = lock_sched(shared);
    StatusMsg {
        active_sweeps: u32::try_from(s.sweeps.len()).unwrap_or(u32::MAX),
        queued_points: s.queued_points,
        running_shards: s.running_shards,
        completed_sweeps: s.completed_sweeps,
        draining: s.draining,
        workers: shared.workers,
    }
}

fn cache_stats_msg(shared: &Shared) -> CacheStatsMsg {
    let (runners, traces, graphs) = shared.runners.stats();
    CacheStatsMsg {
        result_entries: shared.results.entries() as u64,
        result_hits: shared.results.hits.load(Ordering::Relaxed),
        result_misses: shared.results.misses.load(Ordering::Relaxed),
        points_simulated: shared.results.simulated.load(Ordering::Relaxed),
        points_failed: shared.results.failed.load(Ordering::Relaxed),
        traces_cached: traces as u64,
        graphs_cached: graphs as u64,
        runners: runners as u64,
        warm_forks: shared.store.as_ref().map_or(0, |st| st.warm_forks() as u64),
        stale_reaped: shared.stale_reaped.load(Ordering::Relaxed),
    }
}

fn results_msg(shared: &Shared, sweep: u64) -> Response {
    let s = lock_sched(shared);
    if let Some(records) = s.archive.get(&sweep) {
        return Response::ResultsInfo { sweep, records: records.clone() };
    }
    // An active sweep serves its records-so-far: a reconnecting client
    // can poll while its original stream is gone.
    if let Some(st) = s.sweeps.get(&sweep) {
        return Response::ResultsInfo { sweep, records: st.records.clone() };
    }
    Response::Error {
        code: ErrorCode::UnknownSweep,
        detail: format!("sweep {sweep} is neither active nor archived"),
    }
}

// ---------------------------------------------------------------------------
// Submit
// ---------------------------------------------------------------------------

fn handle_submit(
    shared: &Arc<Shared>,
    stream: &mut UnixStream,
    spec: SubmitSpec,
) -> Result<(), proto::ProtoError> {
    let (plan, resolved) = match resolve_submission(shared, &spec) {
        Ok(v) => v,
        Err(detail) => {
            return send_response(stream, &Response::Error { code: ErrorCode::BadRequest, detail })
        }
    };
    let total = match u32::try_from(resolved.len()) {
        Ok(total) if resolved.len() <= shared.cfg.queue_limit => total,
        _ => {
            let detail = format!(
                "{} points exceed the per-submission bound of {}",
                resolved.len(),
                shared.cfg.queue_limit
            );
            return send_response(stream, &Response::Error { code: ErrorCode::QueueFull, detail });
        }
    };
    let shards = shard_by_workload(resolved, |p| p.workload).into_iter().map(|(_, s)| s).collect();
    let (tx, rx) = mpsc::channel();

    let sweep = {
        let mut s = lock_sched(shared);
        if s.draining || s.stopped {
            drop(s);
            return send_response(
                stream,
                &Response::Error {
                    code: ErrorCode::Draining,
                    detail: "daemon is draining toward shutdown".to_string(),
                },
            );
        }
        let sweep = s.next_sweep;
        s.next_sweep += 1;
        s.queued_points += u64::from(total);
        s.sweeps.insert(
            sweep,
            SweepState {
                plan,
                shards,
                pending_points: total as usize,
                ok: 0,
                failed: 0,
                cached: 0,
                tx,
                records: Vec::new(),
            },
        );
        s.rr.push_back(sweep);
        sweep
    };
    // Wake every worker: a multi-shard sweep can use them all at once.
    shared.work_cv.notify_all();
    shared.log(&format!("sweep {sweep}: accepted {total} point(s)"));

    if let Err(e) = send_response(stream, &Response::Submitted { sweep, points: total }) {
        cancel_sweep(shared, sweep);
        return Err(e);
    }
    // Stream records as they complete. recv() returns Err only after the
    // scheduler dropped the sender, i.e. the sweep is gone.
    while let Ok(event) = rx.recv() {
        let (rsp, done) = match event {
            SweepEvent::Record(rec) => (Response::Record(rec), false),
            SweepEvent::Done(summary) => (Response::SweepDone(summary), true),
        };
        if let Err(e) = send_response(stream, &rsp) {
            // Client vanished mid-stream: cancel what has not started.
            cancel_sweep(shared, sweep);
            return Err(e);
        }
        if done {
            break;
        }
    }
    Ok(())
}

/// Validate a submission and resolve every name to a typed point.
fn resolve_submission(
    shared: &Shared,
    spec: &SubmitSpec,
) -> Result<(Plan, Vec<ResolvedPoint>), String> {
    if spec.points.is_empty() {
        return Err("a submission needs at least one point".to_string());
    }
    if spec.measure == 0 {
        return Err("measure window must be at least one instruction".to_string());
    }
    let scale = find_scale(&spec.scale)?;
    let mut resolved = Vec::with_capacity(spec.points.len());
    for (i, p) in spec.points.iter().enumerate() {
        let index = u32::try_from(i)
            .map_err(|_| format!("a submission holds at most {} points", proto::MAX_POINTS))?;
        let workload = find_workload(&p.workload)?;
        let system = resolve_system(shared, p)?;
        resolved.push(ResolvedPoint { index, workload, system });
    }
    let plan = Plan {
        scale,
        window: Window::new(spec.warmup, spec.measure),
        skip: spec.skip,
        interval: spec.interval,
    };
    Ok((plan, resolved))
}

fn resolve_system(shared: &Shared, p: &PointSpec) -> Result<ResolvedSystem, String> {
    if p.system == "poison" {
        if !shared.cfg.allow_poison {
            return Err("the reserved system name \"poison\" needs --allow-poison".to_string());
        }
        return Ok(ResolvedSystem::Poison);
    }
    let kind = find_system(&p.system)?;
    Ok(if p.channels > 0 {
        ResolvedSystem::Channels(kind, p.channels as usize)
    } else {
        ResolvedSystem::Kind(kind)
    })
}

/// Drop a sweep whose client vanished: undispatched shards are removed;
/// points already running on workers finish and discover the sweep gone.
fn cancel_sweep(shared: &Shared, sweep: u64) {
    let mut s = lock_sched(shared);
    if let Some(st) = s.sweeps.remove(&sweep) {
        let undispatched: usize = st.shards.iter().map(Vec::len).sum();
        s.queued_points = s.queued_points.saturating_sub(undispatched as u64);
        s.rr.retain(|id| *id != sweep);
        shared.log(&format!("sweep {sweep}: cancelled ({undispatched} point(s) unstarted)"));
    }
    // The scheduler may just have gone idle.
    maybe_idle(shared, &mut s);
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

fn handle_shutdown(shared: &Arc<Shared>, stream: &mut UnixStream) -> Result<(), proto::ProtoError> {
    shared.log("shutdown requested: draining");
    let drained = {
        let mut s = lock_sched(shared);
        s.draining = true;
        while !(s.sweeps.is_empty() && s.running_shards == 0) {
            s = shared.idle_cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.drained_points
    };
    // Idle means the last shard flushed, but a shard that finished while
    // it did may have queued more: land it before the process can exit.
    shared.flush_store();
    // Reply while the process is still guaranteed alive: once `stopped`
    // flips, the accept loop (and with it the whole daemon) may exit
    // before a late write finishes, truncating the client's frame.
    // `draining` already rejects new submissions, so nothing restarts
    // between the drain above and the stop below. Stop even if the
    // client vanished mid-reply.
    let reply = send_response(stream, &Response::ShutdownComplete { drained_points: drained });
    lock_sched(shared).stopped = true;
    shared.work_cv.notify_all();
    // The accept loop blocks in accept(); a self-connect wakes it so it
    // can observe `stopped` and exit (the probe reads as a clean EOF).
    let _ = UnixStream::connect(&shared.cfg.socket);
    reply
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut s = lock_sched(shared);
            loop {
                if s.stopped {
                    return;
                }
                if let Some(job) = pop_next_shard(&mut s) {
                    s.running_shards += 1;
                    break job;
                }
                s = shared.work_cv.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let (sweep, shard, plan) = job;
        let runner = shared.runners.get(plan.scale, plan.window, plan.skip);
        // Manifests stay wall-clock-free so streamed records match the
        // batch binaries byte for byte. The daemon reaps on its own idle
        // schedule, so the executor's sweep-level options stay off.
        let opts = MatrixOptions {
            watchdog: shared.cfg.watchdog,
            warmup_fork: shared.cfg.warmup_fork,
            snapshot_every: shared.cfg.snapshot_every,
            telemetry: (plan.interval > 0).then(|| simtel::TelemetryConfig {
                interval_instructions: plan.interval,
                ..Default::default()
            }),
            ..MatrixOptions::quiet()
        };
        for point in shard {
            let (rec, class) = run_point(shared, &runner, &opts, sweep, point);
            finish_point(shared, sweep, rec, class);
        }
        let mut s = lock_sched(shared);
        if s.sweeps.is_empty() && s.running_shards == 1 {
            // The last shard out: its checkpoint writes land before the
            // scheduler reads as idle (and reaps), without the lock.
            drop(s);
            shared.flush_store();
            s = lock_sched(shared);
        }
        s.running_shards -= 1;
        maybe_idle(shared, &mut s);
    }
}

/// Round-robin shard dispatch: serve the least-recently-served sweep's
/// next shard; re-queue the sweep behind the others if it has more.
fn pop_next_shard(s: &mut Sched) -> Option<(u64, Shard, Plan)> {
    while let Some(sweep) = s.rr.pop_front() {
        let Some(st) = s.sweeps.get_mut(&sweep) else { continue };
        let Some(shard) = st.shards.pop_front() else { continue };
        if !st.shards.is_empty() {
            s.rr.push_back(sweep);
        }
        return Some((sweep, shard, st.plan.clone()));
    }
    None
}

/// Scheduler idle check: with no sweeps and no running shards, reap
/// orphaned checkpoints and wake anyone waiting on the drain condition.
fn maybe_idle(shared: &Shared, s: &mut MutexGuard<'_, Sched>) {
    if s.sweeps.is_empty() && s.running_shards == 0 {
        shared.reap_stale_locked();
        shared.idle_cv.notify_all();
    }
}

enum PointClass {
    Ok,
    Failed,
    Cached,
}

/// Record a finished point against its sweep and stream it to the
/// client. Completes the sweep when this was its last point.
fn finish_point(shared: &Shared, sweep: u64, rec: RecordMsg, class: PointClass) {
    let mut s = lock_sched(shared);
    s.queued_points = s.queued_points.saturating_sub(1);
    if s.draining {
        s.drained_points += 1;
    }
    let Some(st) = s.sweeps.get_mut(&sweep) else {
        return; // cancelled while this point was running
    };
    match class {
        PointClass::Ok => st.ok += 1,
        PointClass::Failed => st.failed += 1,
        PointClass::Cached => st.cached += 1,
    }
    st.records.push(rec.clone());
    st.pending_points -= 1;
    let _ = st.tx.send(SweepEvent::Record(rec));
    if st.pending_points == 0 {
        let summary = SweepSummary { sweep, ok: st.ok, failed: st.failed, cached: st.cached };
        let _ = st.tx.send(SweepEvent::Done(summary));
        let records = std::mem::take(&mut st.records);
        s.sweeps.remove(&sweep);
        s.rr.retain(|id| *id != sweep);
        s.completed_sweeps += 1;
        archive_sweep(&mut s, shared.cfg.archive_limit, sweep, records);
        shared.log(&format!("sweep {sweep}: complete"));
        maybe_idle(shared, &mut s);
    }
}

fn archive_sweep(s: &mut MutexGuard<'_, Sched>, limit: usize, sweep: u64, records: Vec<RecordMsg>) {
    if limit == 0 {
        return;
    }
    s.archive.insert(sweep, records);
    s.archive_order.push_back(sweep);
    while s.archive_order.len() > limit {
        if let Some(old) = s.archive_order.pop_front() {
            s.archive.remove(&old);
        }
    }
}

// ---------------------------------------------------------------------------
// Point execution
// ---------------------------------------------------------------------------

/// Run one resolved point: serve it from the warm result cache when its
/// identity matches a finished record, otherwise simulate it through the
/// executor's per-point fault domain and publish the result.
fn run_point(
    shared: &Shared,
    runner: &Runner,
    opts: &MatrixOptions,
    sweep: u64,
    point: ResolvedPoint,
) -> (RecordMsg, PointClass) {
    let mp = MatrixPoint::new(point.workload, build_system_spec(&point, runner));
    let index = point.index as usize;
    let record = |manifest: &gpworkloads::RunManifest, cached, intervals_jsonl| RecordMsg {
        sweep,
        index: point.index,
        workload: point.workload.name(),
        system: manifest.system.clone(),
        status: manifest.status.clone(),
        cached,
        // The daemon's options leave walltime off, so the manifest's only
        // wall-clock field is 0.0.
        manifest_json: serde::to_json_string(manifest),
        intervals_jsonl,
    };

    // The cache key needs the trace checksum, which the runner hashes
    // once per recording. A panicking trace recording skips the cache;
    // the executor turns it into a `failed` record.
    let trace = runner.matrix_trace(point.workload);
    let simulate = || {
        let rec = runner.run_matrix_point(&mp, index, &trace, opts, shared.store.as_ref());
        shared.results.simulated.fetch_add(1, Ordering::Relaxed);
        if !rec.is_ok() {
            shared.results.failed.fetch_add(1, Ordering::Relaxed);
            let m = &rec.manifest;
            shared.log(&format!(
                "sweep {sweep}: {} on {} {}: {}",
                m.workload, m.system, m.status, m.error
            ));
        }
        rec
    };
    let rec = match &trace {
        Err(_) => simulate(),
        Ok((_, sum)) => {
            let mut ran = None;
            let key = runner.point_resume_key(&mp, *sum);
            let mut manifest = shared.results.get_or_run(&key, || {
                let rec = simulate();
                let manifest = rec.manifest.clone();
                ran = Some(rec);
                manifest
            });
            let Some(rec) = ran else {
                manifest.index = index;
                // Interval history is not cached; re-run against a fresh
                // daemon to collect telemetry.
                return (record(&manifest, true, String::new()), PointClass::Cached);
            };
            rec
        }
    };
    let intervals_jsonl = rec
        .telemetry
        .as_ref()
        .map(|t| simtel::export::intervals_jsonl(&t.intervals))
        .unwrap_or_default();
    let class = if rec.is_ok() { PointClass::Ok } else { PointClass::Failed };
    (record(&rec.manifest, false, intervals_jsonl), class)
}

fn build_system_spec(point: &ResolvedPoint, runner: &Runner) -> SystemSpec {
    match point.system {
        ResolvedSystem::Kind(k) => SystemSpec::Kind(k),
        ResolvedSystem::Channels(k, ch) => SystemSpec::kind_with_channels(k, ch, &runner.sdclp),
        // Fault-injection hook: the panic is the test payload, contained
        // by the executor's catch_unwind into a `failed` record.
        ResolvedSystem::Poison => {
            SystemSpec::custom("poison", "poison-injected", |_| panic!("injected poison point"))
        }
    }
}
