#![forbid(unsafe_code)]
//! Telemetry timeline viewer: runs one workload on one system design with
//! interval telemetry enabled and renders the per-interval IPC / L1D-MPKI
//! timeline as ASCII bars (plus CSV / JSONL / Perfetto trace on request).
//!
//! ```text
//! cargo run --release -p gpbench --bin timeline -- \
//!     --workload bfs.kron --system sdc_lp --quick --csv out/bfs.csv
//! ```
//!
//! * `--workload NAME` — workload name (`bfs.kron`, `cc.friendster`, ...);
//!   a unique substring also works (`bfs.k`). Default `bfs.kron`.
//! * `--system NAME` — system design (`baseline`, `sdc_lp`, `t_opt`,
//!   `distill`, `l1d_40kb_iso`, `2xllc`, `expert`). Default `sdc_lp`.
//! * `--csv PATH` — also write the per-interval table as CSV.
//! * All shared harness flags apply; `--interval N` sets the snapshot
//!   period and `--telemetry DIR` additionally writes the JSONL intervals
//!   and the Chrome trace-event JSON for Perfetto.

use gpbench::{usage_exit, HarnessOpts};
use gpworkloads::{find_system, find_workload, norm_name};
use std::process::ExitCode;

const FLAGS: &[&str] = &["--workload", "--system", "--csv"];

fn main() -> ExitCode {
    let (opts, flags) = HarnessOpts::parse_args(FLAGS);
    let found = find_workload(flags.value("--workload").unwrap_or("bfs.kron"))
        .and_then(|w| Ok((w, find_system(flags.value("--system").unwrap_or("sdc_lp"))?)));
    let (workload, kind) = found.unwrap_or_else(|e| usage_exit(&e, &HarnessOpts::flags(FLAGS)));

    // The whole point of this binary is the timeline, so telemetry is
    // always collected here; --telemetry only adds the file outputs.
    let cfg = opts.telemetry_config().unwrap_or(simtel::TelemetryConfig {
        interval_instructions: opts.interval.max(1),
        ..Default::default()
    });

    let runner = opts.runner();
    let (result, output) = runner.run_one_with_telemetry(workload, kind, &cfg);

    println!(
        "timeline: {} on {} ({:?} scale, interval {} instrs, {} snapshot(s))",
        workload.name(),
        kind.name(),
        opts.scale,
        cfg.interval_instructions,
        output.intervals.len()
    );
    println!(
        "window: {} instrs in {} cycles (IPC {:.3})",
        result.instructions,
        result.cycles,
        result.ipc()
    );
    println!();
    print!("{}", simtel::render::ascii_timeline(&output.intervals));

    let point = format!("{}.{}", workload.name(), norm_name(kind.name()));
    if let Some(path) = flags.value("--csv").map(std::path::Path::new) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, simtel::render::csv_timeline(&output.intervals)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nwrote {}", path.display());
    }
    if opts.telemetry.is_some() {
        if let Err(e) = opts.write_telemetry(&point, &output) {
            eprintln!("error: writing telemetry for {point}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote telemetry files for {point}");
    }
    ExitCode::SUCCESS
}
