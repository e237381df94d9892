#![forbid(unsafe_code)]
//! The simserve client: submit sweeps to a running `simserved` and watch
//! records stream back, or query the daemon's scheduler and caches.
//!
//! ```text
//! simctl [--socket PATH] <command> [flags]
//!
//! commands:
//!   submit       submit a sweep and stream its records
//!   status       scheduler snapshot (active sweeps, queue, workers)
//!   cache-stats  warm-cache counters (hits, misses, simulated points)
//!   results N    re-fetch the records of sweep N
//!   shutdown     drain the daemon and stop it
//!
//! submit flags:
//!   --workloads a,b,c   workload names (`all` = whole 36-point suite)
//!   --systems x,y       system designs (`fig7` = the six Fig. 7 systems)
//!   --channels n,m      also sweep DRAM channel counts (cross product)
//!   --scale S           tiny|small|medium|full (default tiny)
//!   --warmup N / --measure N / --skip N   instruction window
//!   --interval N        stream interval telemetry every N instructions
//!   --manifest PATH     append each record's manifest JSONL line
//! ```
//!
//! A bad command line exits with status 2 (like every gpbench binary); a
//! daemon or transport error exits with status 1.
//!
//! Example — the Fig. 7 kron column through the daemon:
//!
//! ```text
//! simctl submit --workloads bfs.kron,pr.kron,cc.kron --systems fig7
//! ```

use gpbench::{number, Flags};
use gpworkloads::{norm_name, SystemKind};
use simserve::proto::{PointSpec, SubmitSpec};
use simserve::Client;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut socket = PathBuf::from("results/simserve.sock");
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The global --socket flag may precede the command.
    if args.first().map(String::as_str) == Some("--socket") {
        args.remove(0);
        if args.is_empty() {
            eprintln!("error: --socket needs a path");
            return ExitCode::from(2);
        }
        socket = args.remove(0).into();
    }
    let Some(command) = args.first().cloned() else {
        eprintln!("usage: simctl [--socket PATH] submit|status|cache-stats|results|shutdown");
        return ExitCode::from(2);
    };
    let rest = args.split_off(1);
    let client = Client::new(&socket);

    let result = match command.as_str() {
        "submit" => cmd_submit(&client, rest),
        "status" => cmd_status(&client),
        "cache-stats" => cmd_cache_stats(&client),
        "results" => cmd_results(&client, rest),
        "shutdown" => cmd_shutdown(&client),
        other => {
            eprintln!("unknown command {other:?} (try submit / status / cache-stats / results / shutdown)");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_status(client: &Client) -> Result<ExitCode, simserve::ServeError> {
    let s = client.status()?;
    println!("daemon on {}", client.socket().display());
    println!("  workers:          {}", s.workers);
    println!("  active sweeps:    {}", s.active_sweeps);
    println!("  queued points:    {}", s.queued_points);
    println!("  running shards:   {}", s.running_shards);
    println!("  completed sweeps: {}", s.completed_sweeps);
    println!("  draining:         {}", s.draining);
    Ok(ExitCode::SUCCESS)
}

fn cmd_cache_stats(client: &Client) -> Result<ExitCode, simserve::ServeError> {
    let s = client.cache_stats()?;
    println!("warm caches on {}", client.socket().display());
    println!("  result entries:   {}", s.result_entries);
    println!("  result hits:      {}", s.result_hits);
    println!("  result misses:    {}", s.result_misses);
    println!("  points simulated: {}", s.points_simulated);
    println!("  points failed:    {}", s.points_failed);
    println!("  traces cached:    {}", s.traces_cached);
    println!("  graphs cached:    {}", s.graphs_cached);
    println!("  runner classes:   {}", s.runners);
    println!("  warm forks:       {}", s.warm_forks);
    println!("  stale reaped:     {}", s.stale_reaped);
    Ok(ExitCode::SUCCESS)
}

fn cmd_shutdown(client: &Client) -> Result<ExitCode, simserve::ServeError> {
    let drained = client.shutdown()?;
    println!("daemon drained and stopped ({drained} point(s) completed while draining)");
    Ok(ExitCode::SUCCESS)
}

fn cmd_results(client: &Client, rest: Vec<String>) -> Result<ExitCode, simserve::ServeError> {
    let mut rest = rest.into_iter();
    let sweep = rest.next().unwrap_or_default();
    let parsed = Flags::parse(rest, &["--manifest"], &[])
        .and_then(|f| Ok((number::<u64>("SWEEP_ID", &sweep)?, f)));
    let Ok((sweep, flags)) = parsed else {
        eprintln!("usage: simctl results SWEEP_ID [--manifest PATH]");
        return Ok(ExitCode::from(2));
    };
    let records = client.results(sweep)?;
    let mut out = manifest_writer(flags.value("--manifest").map(Path::new));
    for rec in &records {
        println!(
            "[{}] {} on {}: {}{}",
            rec.index,
            rec.workload,
            rec.system,
            rec.status,
            if rec.cached { " (cached)" } else { "" }
        );
        write_manifest_line(&mut out, &rec.manifest_json);
    }
    println!("{} record(s) for sweep {sweep}", records.len());
    Ok(ExitCode::SUCCESS)
}

const SUBMIT_FLAGS: &[&str] = &[
    "--workloads",
    "--systems",
    "--channels",
    "--scale",
    "--warmup",
    "--measure",
    "--skip",
    "--interval",
    "--manifest",
    "--telemetry",
];

/// The submission a `submit` command line describes.
fn submit_spec(flags: &Flags) -> Result<SubmitSpec, String> {
    let list = |flag| flags.list::<String>(flag, Vec::new());
    let mut workloads = list("--workloads")?;
    if workloads.is_empty() || workloads.iter().any(|w| w == "all") {
        workloads = gpworkloads::all_workloads().iter().map(|w| w.name()).collect();
    }
    let mut systems = list("--systems")?;
    if systems.is_empty() {
        systems = vec!["baseline".to_string()];
    }
    if systems.iter().any(|s| s == "fig7") {
        let named = SystemKind::FIG7.iter().map(|k| norm_name(k.name()));
        systems = systems.into_iter().filter(|s| s != "fig7").chain(named).collect();
    }
    // 0 = the design's own channel count.
    let channels: Vec<u32> = flags.list("--channels", vec![0])?;
    let mut points = Vec::new();
    for w in &workloads {
        for s in &systems {
            for &ch in &channels {
                points.push(PointSpec { workload: w.clone(), system: s.clone(), channels: ch });
            }
        }
    }
    Ok(SubmitSpec {
        scale: flags.value("--scale").unwrap_or("tiny").to_string(),
        warmup: flags.number("--warmup", 200_000)?,
        measure: flags.number("--measure", 800_000)?,
        skip: flags.value("--skip").map(|_| flags.number("--skip", 0)).transpose()?,
        interval: flags.number("--interval", 0)?,
        points,
    })
}

fn cmd_submit(client: &Client, rest: Vec<String>) -> Result<ExitCode, simserve::ServeError> {
    let parsed =
        Flags::parse(rest, SUBMIT_FLAGS, &[]).and_then(|flags| Ok((submit_spec(&flags)?, flags)));
    let (spec, flags) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\nsubmit flags: {}", SUBMIT_FLAGS.join(" / "));
            return Ok(ExitCode::from(2));
        }
    };
    let telemetry = flags.value("--telemetry").map(Path::new);
    let mut stream = client.submit(spec)?;
    let total = stream.points();
    println!("sweep {} accepted: {total} point(s)", stream.sweep());
    let mut out = manifest_writer(flags.value("--manifest").map(Path::new));
    let mut done = 0u32;
    let mut failed = 0u32;
    while let Some(rec) = stream.next_record()? {
        done += 1;
        println!(
            "[{done}/{total}] {} on {}: {}{}",
            rec.workload,
            rec.system,
            rec.status,
            if rec.cached { " (cached)" } else { "" }
        );
        if rec.status != "ok" {
            failed += 1;
        }
        write_manifest_line(&mut out, &rec.manifest_json);
        if let (Some(dir), false) = (telemetry, rec.intervals_jsonl.is_empty()) {
            let path =
                dir.join(format!("{}.{}.intervals.jsonl", rec.workload, norm_name(&rec.system)));
            let _ = std::fs::create_dir_all(dir);
            if let Err(e) = std::fs::write(&path, &rec.intervals_jsonl) {
                eprintln!("warning: writing {}: {e}", path.display());
            }
        }
    }
    if let Some(summary) = stream.summary() {
        println!(
            "sweep {} done: {} ok, {} failed, {} cached",
            summary.sweep, summary.ok, summary.failed, summary.cached
        );
    }
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn manifest_writer(path: Option<&Path>) -> Option<std::io::BufWriter<std::fs::File>> {
    let path = path?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::File::create(path) {
        Ok(f) => Some(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("warning: cannot open manifest {}: {e}", path.display());
            None
        }
    }
}

fn write_manifest_line(out: &mut Option<std::io::BufWriter<std::fs::File>>, line: &str) {
    if let Some(w) = out {
        let _ = writeln!(w, "{line}");
    }
}
