//! `serve-overlap`: an in-process `simserve` daemon with warm graphs,
//! traces and warmup forks, fed by two closed-loop client connections
//! whose seeded sweeps overlap, so a fixed share of requested points are
//! result-cache hits. Exercises framing, scheduling, the single-flight
//! cache, fork restore, crash snapshots and telemetry streaming; replay is
//! only part of the work, so a replay speed-up shows diluted here.

use crate::common::{
    build_inputs, component_probe, matrix_probe, record_traces, replay_layer_metrics, state_probe,
    telemetry_probe, Ctx,
};
use crate::report::{fingerprint, median, peak_rss_mib, shuffle, simulated_counts, Outcome};
use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{cross, norm_name, MatrixOptions, Runner, SystemKind, Workload};
use simcore::{geomean, Window};
use simserve::proto::{PointSpec, RecordMsg, Response, SubmitSpec};
use simserve::{Client, Daemon, DaemonConfig, DaemonHandle};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Daemon workers and client connections (the host has two cores).
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Points per submitted sweep.
const SWEEP_POINTS: usize = 4;
const GRAPHS: [GraphInput; 2] = [GraphInput::Web, GraphInput::Urand];
/// Host-speed sampling cadence while daemon threads do the work.
const SAMPLE_PERIOD: Duration = Duration::from_millis(200);

struct Plan {
    scale: SuiteScale,
    window: Window,
    snapshot_every: u64,
    interval: u64,
}

impl Plan {
    fn spec(&self, points: &[(Workload, SystemKind)]) -> SubmitSpec {
        SubmitSpec {
            scale: format!("{:?}", self.scale).to_lowercase(),
            warmup: self.window.warmup,
            measure: self.window.measure,
            skip: None,
            interval: self.interval,
            points: points
                .iter()
                .map(|(w, k)| PointSpec {
                    workload: w.name(),
                    system: norm_name(k.name()),
                    channels: 0,
                })
                .collect(),
        }
    }
}

/// What one client connection observed.
#[derive(Default)]
struct Session {
    /// Each record with its latency.
    records: Vec<(RecordMsg, f64)>,
    first_record_ms: Vec<f64>,
    missing: u64,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let plan = if ctx.smoke {
        Plan {
            scale: SuiteScale::Tiny,
            window: Window::new(10_000, 40_000),
            snapshot_every: 5_000,
            interval: 10_000,
        }
    } else {
        Plan {
            scale: SuiteScale::Medium,
            window: Window::new(500_000, 2_000_000),
            snapshot_every: 500_000,
            interval: 100_000,
        }
    };
    let mut out = Outcome::default();
    let workloads: Vec<Workload> =
        Kernel::ALL.iter().flat_map(|&k| GRAPHS.map(|g| Workload::new(k, g))).collect();
    let distinct = cross(&workloads, &SystemKind::FIG7);
    let state_dir = ctx.workdir.join("state");

    let setup = Instant::now();
    // Warmup forks for every timed point, primed by a batch executor on
    // both cores (no other thread runs yet).
    let runner = Runner::new(plan.scale, plan.window);
    build_inputs(&runner, &GRAPHS, ctx, &mut out);
    record_traces(&runner, &workloads, ctx, &mut out);
    let prime = MatrixOptions {
        state_dir: Some(state_dir.clone()),
        warmup_fork: true,
        ..MatrixOptions::quiet()
    };
    std::env::set_var("RAYON_NUM_THREADS", WORKERS.to_string());
    let primed = sampling(ctx, || {
        ctx.spans.run("gpworkloads", "Runner::run_matrix_with", 0, || {
            runner.run_matrix_with(&distinct, &prime)
        })
    });
    std::env::set_var("RAYON_NUM_THREADS", "1");
    out.check(primed.is_ok_and(|r| r.iter().all(|r| r.is_ok())), || {
        "fork priming failed".to_string()
    });

    let mut daemon = start_daemon(&plan, &workloads, &state_dir, 0, ctx, &mut out);
    out.setup = Some((setup, Instant::now()));

    // Rounds of client sweeps until `--seconds` of timed work. Each round
    // has a fresh daemon, whose result cache starts empty, so every round
    // has the same hit share; the seed and the round choose its sweeps.
    // Starting and warming the daemon of a later round is neither set-up
    // nor timed work.
    let mut requests = Vec::new();
    let mut sessions = Vec::new();
    let mut counters = [0u64; 4];
    while let Some((handle, client)) = daemon {
        let round = out.passes;
        let round_requests =
            client_requests(&distinct, ctx.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let before = client.cache_stats();
        let start = Instant::now();
        let round_sessions: Vec<Session> = sampling(ctx, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = round_requests
                    .iter()
                    .enumerate()
                    .map(|(c, points)| {
                        let client = client.clone();
                        let plan = &plan;
                        s.spawn(move || session(&client, plan, points, c, ctx))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
            })
        });
        out.timed.push((start, Instant::now()));
        out.passes += 1;

        let after = client.cache_stats();
        let drained = ctx.spans.run("simserve", "Client::shutdown", round, || client.shutdown());
        out.check(drained.is_ok(), || "daemon shutdown failed".to_string());
        handle.join();
        let requested: usize = round_requests.iter().map(Vec::len).sum();
        match (before, after) {
            (Ok(b), Ok(a)) => {
                let hits = a.result_hits - b.result_hits;
                let misses = a.result_misses - b.result_misses;
                let simulated = a.points_simulated - b.points_simulated;
                let failed = a.points_failed - b.points_failed;
                out.check(
                    hits + misses == requested as u64 && simulated == distinct.len() as u64 && failed == 0,
                    || format!("round {round} cache counters: {hits} hits + {misses} misses for {requested} requests, {simulated} simulated for {} distinct, {failed} failed", distinct.len()),
                );
                for (total, n) in
                    counters.iter_mut().zip([hits, requested as u64, simulated, failed])
                {
                    *total += n;
                }
            }
            _ => {
                out.check(false, || "cache-stats request failed".to_string());
            }
        }
        requests.extend(round_requests);
        sessions.extend(round_sessions);
        // A second daemon in the same process raises the high-water by 0 to
        // 60 MiB from run to run; a user runs one daemon, so the high-water
        // is read before the first restart.
        out.peak_rss_mib.get_or_insert_with(peak_rss_mib);
        daemon = if out.timed_s() < ctx.seconds {
            start_daemon(&plan, &workloads, &state_dir, round + 1, ctx, &mut out)
        } else {
            None
        };
    }
    if sessions.is_empty() {
        return out;
    }
    // Both clients' records of a point, in every round, must match.
    check_records(&plan, &requests, &sessions, &mut out);
    let [hits, requested, simulated, failed] = counters;
    out.set("simserve.hit_frac", hits as f64 / requested.max(1) as f64);
    out.set("simserve.points_simulated", simulated as f64);
    out.set("simserve.points_failed", failed as f64);
    let first: Vec<f64> = sessions.iter().flat_map(|s| s.first_record_ms.iter().copied()).collect();
    out.set("simserve.first_record_ms_p50", median(&first));

    if ctx.spans.on() {
        let all: Vec<&RecordMsg> =
            sessions.iter().flat_map(|s| s.records.iter().map(|r| &r.0)).collect();
        let codec_us = frame_codec_us(&all, ctx, &mut out);
        out.set("simserve.frame_codec_us", codec_us);
        let probe = cross(&workloads[..2], &[SystemKind::Baseline, SystemKind::SdcLp]);
        let (plain_s, results) = telemetry_probe(&runner, &probe, ctx, &mut out);
        let events: usize = probe.iter().map(|(w, _)| runner.trace(*w).len()).sum();
        replay_layer_metrics(ctx, &mut out, events, probe.len());
        let all_r: Vec<_> = results.iter().map(|(_, r)| r).collect();
        let sdc: Vec<_> =
            results.iter().filter(|(k, _)| *k == SystemKind::SdcLp).map(|(_, r)| r).collect();
        simulated_counts(&mut out, &all_r, &sdc);
        // Stall attribution and interval counts from the daemon's own
        // telemetry stream, which the timed points produced.
        stream_stalls(&all, &mut out);
        matrix_probe(&runner, &probe, plain_s, ctx, &mut out);
        component_probe(&runner.trace(workloads[0]), ctx, &mut out);
        state_probe(&runner, workloads[0], SystemKind::SdcLp, ctx, &mut out);
    }
    out
}

/// Start a daemon on the primed state dir and warm its graphs and traces
/// with a design no timed point uses. `None`, with the failure counted,
/// if it did not start.
fn start_daemon(
    plan: &Plan,
    workloads: &[Workload],
    state_dir: &Path,
    round: u64,
    ctx: &Ctx,
    out: &mut Outcome,
) -> Option<(DaemonHandle, Client)> {
    let socket = ctx.workdir.join(format!("serve-{round}.sock"));
    let cfg = DaemonConfig {
        socket: socket.clone(),
        workers: WORKERS,
        state_dir: Some(state_dir.to_path_buf()),
        warmup_fork: true,
        snapshot_every: plan.snapshot_every,
        ..DaemonConfig::default()
    };
    let handle = match ctx.spans.run("simserve", "Daemon::start", round, || Daemon::start(cfg)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: daemon did not start: {e}");
            out.attempted += 1;
            out.failed += 1;
            return None;
        }
    };
    let client = Client::new(&socket);
    let warm: Vec<_> = workloads.iter().map(|&w| (w, SystemKind::Expert)).collect();
    let warmed = ctx.spans.run("simserve", "Client::submit", round, || {
        client.submit(plan.spec(&warm)).and_then(|s| s.collect_records())
    });
    out.check(warmed.is_ok_and(|(r, _)| r.iter().all(|r| r.status == "ok")), || {
        "daemon warm-up sweep failed".to_string()
    });
    Some((handle, client))
}

/// Run `f` while another thread samples the host speed: the work runs on
/// threads the benchmark cannot pause to sample in between.
fn sampling<T>(ctx: &Ctx, f: impl FnOnce() -> T) -> T {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| ctx.pace.sample_until(SAMPLE_PERIOD, || done.load(Ordering::Relaxed)));
        let out = f();
        done.store(true, Ordering::Relaxed);
        out
    })
}

/// Each client's points: a seeded third of the distinct points is
/// requested by both clients, the rest split between them, so one in four
/// requests is a result-cache hit. Each list is in its own seeded order.
fn client_requests(
    distinct: &[(Workload, SystemKind)],
    seed: u64,
) -> Vec<Vec<(Workload, SystemKind)>> {
    let mut pool = distinct.to_vec();
    shuffle(&mut pool, seed);
    let third = pool.len() / 3;
    let (shared, own) = pool.split_at(third);
    (0..CLIENTS)
        .map(|c| {
            let mut points = shared.to_vec();
            points.extend(own.iter().skip(c).step_by(CLIENTS));
            shuffle(&mut points, seed.wrapping_add(1 + c as u64));
            points
        })
        .collect()
}

/// One client connection: submit each sweep, wait for all of its records,
/// then submit the next (a closed loop).
fn session(
    client: &Client,
    plan: &Plan,
    points: &[(Workload, SystemKind)],
    c: usize,
    ctx: &Ctx,
) -> Session {
    let mut s = Session::default();
    for (i, sweep) in points.chunks(SWEEP_POINTS).enumerate() {
        let request = (c * 10_000 + i) as u64;
        let t = Instant::now();
        let mut got = 0;
        let stream = ctx
            .spans
            .run("simserve", "Client::submit", request, || client.submit(plan.spec(sweep)));
        if let Ok(mut stream) = stream {
            loop {
                match ctx
                    .spans
                    .run("simserve", "SweepStream::next_record", request, || stream.next_record())
                {
                    Ok(Some(rec)) => {
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if got == 0 {
                            s.first_record_ms.push(ms);
                        }
                        got += 1;
                        s.records.push((rec, ms));
                    }
                    Ok(None) => break,
                    Err(e) => {
                        eprintln!("perfbench: client {c} sweep {i}: {e}");
                        break;
                    }
                }
            }
        }
        s.missing += (sweep.len() - got.min(sweep.len())) as u64;
    }
    s
}

/// Output checks: every requested point arrives `ok` with its full window,
/// and both clients' records of a shared point are byte-identical apart
/// from their submission index.
fn check_records(
    plan: &Plan,
    requests: &[Vec<(Workload, SystemKind)>],
    sessions: &[Session],
    out: &mut Outcome,
) {
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    let mut ipc: BTreeMap<(String, String), f64> = BTreeMap::new();
    for (points, s) in requests.iter().zip(sessions) {
        out.attempted += points.len() as u64;
        out.failed += s.missing;
        for (rec, ms) in &s.records {
            let body = without_index(&rec.manifest_json);
            let instr = json_u64(&body, "instructions").unwrap_or(0);
            let cycles = json_u64(&body, "cycles").unwrap_or(0);
            let key = format!("{}|{}", rec.workload, rec.system);
            let same = seen.get(&key).is_none_or(|prev| *prev == body);
            let good = rec.status == "ok" && instr >= plan.window.measure && same;
            if out
                .check(good, || format!("{key}: status {} or differs between clients", rec.status))
            {
                out.points.push(*ms);
                out.delivered_instr += plan.window.warmup + instr;
                ipc.insert(
                    (rec.workload.clone(), rec.system.clone()),
                    instr as f64 / cycles.max(1) as f64,
                );
            }
            seen.insert(key, body);
        }
    }
    // Records carry the design's display label.
    let speedups: Vec<f64> = ipc
        .iter()
        .filter(|((_, sys), _)| sys == SystemKind::SdcLp.name())
        .filter_map(|((w, _), s)| {
            ipc.get(&(w.clone(), SystemKind::Baseline.name().to_string())).map(|b| s / b)
        })
        .collect();
    out.sdclp_speedup = geomean(&speedups);
    out.fingerprint = fingerprint(seen.into_iter().collect());
}

/// The manifest line with its per-submission `"index":N,` field removed.
fn without_index(json: &str) -> String {
    match json.find("\"index\":") {
        Some(start) => {
            let end = json[start..].find(',').map_or(json.len(), |e| start + e + 1);
            format!("{}{}", &json[..start], &json[end..])
        }
        None => json.to_string(),
    }
}

/// An unsigned integer field of a flat JSON object.
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Mean host microseconds to encode and decode one observed record frame.
fn frame_codec_us(records: &[&RecordMsg], ctx: &Ctx, out: &mut Outcome) -> f64 {
    let t = Instant::now();
    let mut ok = true;
    ctx.spans.run("simserve", "Response::encode+decode", 0, || {
        for rec in records {
            let rsp = Response::Record((*rec).clone());
            ok &= Response::decode(&rsp.encode()).is_ok_and(|back| back == rsp);
        }
    });
    out.check(ok, || "a record frame did not survive encode and decode".to_string());
    t.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64
}

/// Stall cycles per instruction and interval count from the interval
/// lines the daemon streamed with the simulated records.
fn stream_stalls(records: &[&RecordMsg], out: &mut Outcome) {
    let lines: Vec<&str> = records.iter().flat_map(|r| r.intervals_jsonl.lines()).collect();
    let sum = |key: &str| lines.iter().filter_map(|l| json_u64(l, key)).sum::<u64>() as f64;
    let instr = sum("instructions").max(1.0);
    out.set("simcore.stall_cpi.rob_full", sum("stall_rob_full") / instr);
    out.set("simcore.stall_cpi.mshr_full", sum("stall_mshr_full") / instr);
    out.set("simcore.stall_cpi.dram_wait", sum("stall_dram_wait") / instr);
    out.set("simcore.stall_cpi.busy", sum("stall_busy") / instr);
    out.set("simtel.intervals", lines.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_stripped_and_fields_parse() {
        let j = r#"{"index":7,"workload":"bfs.web","instructions":2000001,"cycles":9}"#;
        let body = without_index(j);
        assert_eq!(body, r#"{"workload":"bfs.web","instructions":2000001,"cycles":9}"#);
        assert_eq!(json_u64(&body, "instructions"), Some(2_000_001));
        assert_eq!(json_u64(&body, "cycles"), Some(9));
    }

    #[test]
    fn one_request_in_four_is_shared() {
        let w: Vec<Workload> = GRAPHS.map(|g| Workload::new(Kernel::Bfs, g)).to_vec();
        let distinct = cross(&w, &SystemKind::FIG7);
        let reqs = client_requests(&distinct, 3);
        let total: usize = reqs.iter().map(Vec::len).sum();
        assert_eq!(total - distinct.len(), distinct.len() / 3);
        assert_eq!((total - distinct.len()) * 4, total);
    }
}
