//! End-to-end daemon tests (in-process): two concurrent clients with
//! overlapping fig7-subset sweeps, byte-identity against the batch
//! executor, exactly-once simulation proven by cache counters, poison
//! containment, warm resubmission, and drain shutdown.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test when their setup cannot hold"
)]

use gpgraph::SuiteScale;
use gpworkloads::matrix::{MatrixOptions, Watchdog};
use gpworkloads::{Runner, SystemKind};
use simcore::Window;
use simserve::proto::{PointSpec, SubmitSpec};
use simserve::{Client, Daemon, DaemonConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

const WARMUP: u64 = 5_000;
const MEASURE: u64 = 20_000;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simserve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn point(workload: &str, system: &str) -> PointSpec {
    PointSpec { workload: workload.to_string(), system: system.to_string(), channels: 0 }
}

fn submit(points: Vec<PointSpec>) -> SubmitSpec {
    SubmitSpec {
        scale: "tiny".to_string(),
        warmup: WARMUP,
        measure: MEASURE,
        skip: None,
        interval: 0,
        points,
    }
}

fn start_daemon(tag: &str, workers: usize, allow_poison: bool) -> (simserve::DaemonHandle, Client) {
    let dir = tmp_dir(tag);
    let cfg = DaemonConfig {
        socket: dir.join("simserved.sock"),
        workers,
        state_dir: Some(dir.join("state")),
        warmup_fork: true,
        snapshot_every: 0,
        watchdog: Watchdog::Off,
        allow_poison,
        ..DaemonConfig::default()
    };
    let handle = Daemon::start(cfg).expect("daemon starts");
    let client = Client::new(handle.socket());
    (handle, client)
}

/// The acceptance-criteria scenario in one daemon lifetime: overlapping
/// concurrent sweeps, byte-identity, exactly-once, poison containment,
/// warm resubmission, drain shutdown.
#[test]
fn two_clients_overlap_byte_identically_and_simulate_each_point_once() {
    let (handle, client) = start_daemon("overlap", 2, true);

    // Two fig7-subset sweeps sharing two points (bfs.kron x Baseline,
    // bfs.kron x SDC+LP); each also brings a point of its own.
    let sweep_a = vec![
        point("bfs.kron", "baseline"),
        point("bfs.kron", "sdc_lp"),
        point("bc.kron", "baseline"),
    ];
    let sweep_b = vec![
        point("bfs.kron", "baseline"),
        point("bfs.kron", "sdc_lp"),
        point("bc.kron", "sdc_lp"),
    ];

    let client_a = client.clone();
    let client_b = client.clone();
    let spec_a = submit(sweep_a.clone());
    let spec_b = submit(sweep_b.clone());
    let ta = std::thread::spawn(move || {
        client_a.submit(spec_a).expect("submit a").collect_records().expect("stream a")
    });
    let tb = std::thread::spawn(move || {
        client_b.submit(spec_b).expect("submit b").collect_records().expect("stream b")
    });
    let (recs_a, sum_a) = ta.join().expect("client a thread");
    let (recs_b, sum_b) = tb.join().expect("client b thread");

    assert_eq!(recs_a.len(), 3);
    assert_eq!(recs_b.len(), 3);
    assert_eq!(sum_a.ok + sum_a.cached, 3, "no failures in sweep a: {sum_a:?}");
    assert_eq!(sum_b.ok + sum_b.cached, 3, "no failures in sweep b: {sum_b:?}");

    // Exactly-once: 4 unique points across both sweeps — the counters
    // must show 4 simulations no matter how the two streams interleaved.
    let stats = client.cache_stats().expect("cache-stats");
    assert_eq!(stats.points_simulated, 4, "unique points simulate once: {stats:?}");
    assert_eq!(stats.result_misses, 4, "one lease per unique point");
    assert_eq!(stats.result_hits, 2, "the two overlapping points hit");
    assert_eq!(stats.points_failed, 0);
    assert_eq!(stats.result_entries, 4);
    assert!(stats.traces_cached >= 2, "bfs.kron and bc.kron traces stay warm");
    assert_eq!(stats.runners, 1, "one (scale, window, skip) class");

    // Byte-identity: batch-run the union matrix with the executor the
    // daemon wraps, and compare manifest JSON per (workload, system)
    // ignoring the submission-dependent index field.
    let runner = Runner::new(SuiteScale::Tiny, Window::new(WARMUP, MEASURE));
    let batch = runner
        .run_matrix_with(
            &[
                (gpworkloads::find_workload("bfs.kron").expect("bfs"), SystemKind::Baseline),
                (gpworkloads::find_workload("bfs.kron").expect("bfs"), SystemKind::SdcLp),
                (gpworkloads::find_workload("bc.kron").expect("bc"), SystemKind::Baseline),
                (gpworkloads::find_workload("bc.kron").expect("bc"), SystemKind::SdcLp),
            ],
            &MatrixOptions::quiet(),
        )
        .expect("batch matrix");
    let strip_index = |json: &str| -> String {
        let tail = json.split_once(",\"workload\"").expect("manifest json has workload").1;
        tail.to_string()
    };
    let batch_by_point: BTreeMap<(String, String), String> = batch
        .iter()
        .map(|r| {
            let m = &r.manifest;
            ((m.workload.clone(), m.system.clone()), strip_index(&serde::to_json_string(m)))
        })
        .collect();
    for rec in recs_a.iter().chain(recs_b.iter()) {
        let want = batch_by_point
            .get(&(rec.workload.clone(), rec.system.clone()))
            .unwrap_or_else(|| panic!("batch ran {}/{}", rec.workload, rec.system));
        assert_eq!(
            &strip_index(&rec.manifest_json),
            want,
            "daemon and batch manifests must be byte-identical for {}/{} (cached={})",
            rec.workload,
            rec.system,
            rec.cached
        );
    }

    // Poison containment: a panicking system build yields one `failed`
    // record; the daemon, the stream, and subsequent requests survive.
    let (recs_p, sum_p) = client
        .submit(submit(vec![point("bfs.kron", "poison"), point("bfs.kron", "baseline")]))
        .expect("poisoned submit accepted")
        .collect_records()
        .expect("poisoned stream completes");
    assert_eq!(sum_p.failed, 1, "exactly the poison point fails: {sum_p:?}");
    let poisoned = recs_p.iter().find(|r| r.system == "poison").expect("poison record streamed");
    assert_eq!(poisoned.status, "failed");
    assert!(
        poisoned.manifest_json.contains("injected poison"),
        "failure detail carries the panic message: {}",
        poisoned.manifest_json
    );
    let healthy = recs_p.iter().find(|r| r.system == "Baseline").expect("healthy record");
    assert!(healthy.cached, "the shared healthy point came from cache");

    // Warm resubmission: sweep A again — all three points cached, zero
    // new simulation.
    let before = client.cache_stats().expect("stats before resubmit");
    let (recs_r, sum_r) = client
        .submit(submit(sweep_a))
        .expect("resubmit")
        .collect_records()
        .expect("resubmit stream");
    assert_eq!(sum_r.cached, 3, "everything warm on resubmit: {sum_r:?}");
    assert!(recs_r.iter().all(|r| r.cached));
    let after = client.cache_stats().expect("stats after resubmit");
    assert_eq!(
        after.points_simulated, before.points_simulated,
        "a fully-warm sweep simulates nothing"
    );

    // Results archive replays the completed sweep's records.
    let sweep_id = recs_r[0].sweep;
    let archived = client.results(sweep_id).expect("archived results");
    assert_eq!(archived.len(), 3);

    // Drain shutdown: the daemon stops accepting, finishes, and exits.
    client.shutdown().expect("graceful shutdown");
    handle.join();
}

#[test]
fn sequential_clients_share_the_warm_result_cache() {
    let (handle, client) = start_daemon("seq", 1, false);
    let spec = submit(vec![point("bfs.kron", "baseline")]);

    let (recs1, _) =
        client.submit(spec.clone()).expect("first submit").collect_records().expect("first stream");
    assert_eq!(recs1.len(), 1);
    assert!(!recs1[0].cached, "cold cache simulates");
    assert_eq!(recs1[0].status, "ok");

    // A second, separately-connected client sees the warm entry.
    let client2 = Client::new(handle.socket());
    let (recs2, sum2) =
        client2.submit(spec).expect("second submit").collect_records().expect("second stream");
    assert!(recs2[0].cached, "second client hits the shared cache");
    assert_eq!(sum2.cached, 1);

    let stats = client2.cache_stats().expect("stats");
    assert_eq!(stats.points_simulated, 1);
    assert_eq!(stats.result_hits, 1);

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn bad_submissions_get_typed_rejections_and_leave_the_daemon_healthy() {
    let (handle, client) = start_daemon("reject", 1, false);

    // Unknown workload name.
    let err = client
        .submit(submit(vec![point("warp.drive", "baseline")]))
        .expect_err("unknown workload rejected");
    assert!(
        matches!(
            &err,
            simserve::ServeError::Rejected { code: simserve::proto::ErrorCode::BadRequest, .. }
        ),
        "unexpected error {err:?}"
    );

    // Poison without --allow-poison is a bad request, not a crash.
    let err = client
        .submit(submit(vec![point("bfs.kron", "poison")]))
        .expect_err("poison rejected when not allowed");
    assert!(matches!(
        &err,
        simserve::ServeError::Rejected { code: simserve::proto::ErrorCode::BadRequest, .. }
    ));

    // Empty submissions and zero-length windows are malformed too.
    let err = client.submit(submit(vec![])).expect_err("empty sweep rejected");
    assert!(matches!(
        &err,
        simserve::ServeError::Rejected { code: simserve::proto::ErrorCode::BadRequest, .. }
    ));
    let mut zero = submit(vec![point("bfs.kron", "baseline")]);
    zero.measure = 0;
    let err = client.submit(zero).expect_err("zero measure rejected");
    assert!(matches!(
        &err,
        simserve::ServeError::Rejected { code: simserve::proto::ErrorCode::BadRequest, .. }
    ));

    // Oversized sweeps bounce with typed backpressure.
    let big: Vec<PointSpec> = (0..5000).map(|_| point("bfs.kron", "baseline")).collect();
    let err = client.submit(submit(big)).expect_err("oversized sweep rejected");
    assert!(matches!(
        &err,
        simserve::ServeError::Rejected { code: simserve::proto::ErrorCode::QueueFull, .. }
    ));

    // Unknown sweep id on Results.
    let err = client.results(999).expect_err("unknown sweep rejected");
    assert!(matches!(
        &err,
        simserve::ServeError::Rejected { code: simserve::proto::ErrorCode::UnknownSweep, .. }
    ));

    // After all that abuse the daemon still schedules fine.
    let status = client.status().expect("status");
    assert_eq!(status.active_sweeps, 0);
    assert!(!status.draining);
    let (recs, _) = client
        .submit(submit(vec![point("bfs.kron", "baseline")]))
        .expect("healthy submit")
        .collect_records()
        .expect("healthy stream");
    assert_eq!(recs[0].status, "ok");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn stale_socket_files_are_replaced_but_live_daemons_are_not() {
    let dir = tmp_dir("bind");
    let socket = dir.join("simserved.sock");
    // A stale file (as left by kill -9) must be silently replaced.
    std::fs::write(&socket, b"stale").expect("plant stale socket file");
    let cfg = DaemonConfig { socket: socket.clone(), workers: 1, ..DaemonConfig::default() };
    let handle = Daemon::start(cfg.clone()).expect("daemon binds over the stale file");
    // A second daemon on the same socket must refuse: the first answers.
    let err = Daemon::start(cfg).expect_err("double bind refused");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    let client = Client::new(&socket);
    client.shutdown().expect("shutdown");
    handle.join();
    assert!(!socket.exists(), "socket file removed on clean exit");
}
