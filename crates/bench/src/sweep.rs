//! The one sweep driver and table renderer behind every workload x system
//! table: the `figure` rows and `dram_sweep`.
//!
//! [`run_sweep`] runs a point list through the matrix executor and writes
//! what the records carry besides the table (per-point telemetry files,
//! the `--bench-out` summary). [`render_table`] prints one row per
//! workload from a list of [`Column`]s. Every cell and footer is
//! failure-aware: a failed or timed-out point prints its status, and
//! AVERAGE / GEOMEAN count only cells that have a value.

use crate::{pct, run_or_exit, HarnessOpts, TextTable};
use gpworkloads::{MatrixOptions, MatrixPoint, PointStatus, RunRecord, Runner, Workload};
use simcore::{geomean, SimResult};
use std::path::Path;

/// What a table cell shows for its point.
#[derive(Clone, Copy)]
pub enum Value {
    /// Speedup over the row's first point (the Baseline), as a percent
    /// change.
    Speedup,
    /// Speedup over the row's first point as a ratio (`1.234x`).
    Ratio,
    /// A statistic read from `SimResult::stats` (an MPKI), one decimal.
    Stat(fn(&SimResult) -> f64),
    /// A share read from `SimResult::stats`, as a percent.
    StatShare(fn(&SimResult) -> f64),
    /// A share computed from the point's interval telemetry, as a percent.
    Telemetry(fn(&simtel::TelemetryOutput) -> Option<f64>),
}

/// How a column aggregates in the table's footer row.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Footer {
    Blank,
    Average,
    Geomean,
}

/// One table column: a value of one point of each row.
#[derive(Clone, Copy)]
pub struct Column {
    pub header: &'static str,
    /// The point's position in each row (0 is the Baseline).
    pub spec: usize,
    pub value: Value,
    pub footer: Footer,
}

impl Column {
    pub const fn new(header: &'static str, spec: usize, value: Value, footer: Footer) -> Self {
        Column { header, spec, value, footer }
    }

    /// Percent speedup of `spec` over the Baseline, GEOMEAN footer.
    pub const fn speedup(header: &'static str, spec: usize) -> Self {
        Column::new(header, spec, Value::Speedup, Footer::Geomean)
    }

    /// A per-level statistic of `spec`, AVERAGE footer.
    pub const fn stat(header: &'static str, spec: usize, stat: fn(&SimResult) -> f64) -> Self {
        Column::new(header, spec, Value::Stat(stat), Footer::Average)
    }

    fn reads_stats(&self) -> bool {
        matches!(self.value, Value::Stat(_) | Value::StatShare(_))
    }

    /// The column's value on one row, or the text its cell prints instead:
    /// the status of a failed or timed-out point (or of the Baseline a
    /// speedup divides by), or `-` where the point carries no such data.
    fn cell(&self, row: &[RunRecord]) -> Result<f64, &'static str> {
        let rec = &row[self.spec];
        if !rec.is_ok() {
            return Err(rec.status.as_str());
        }
        match self.value {
            Value::Speedup | Value::Ratio if !row[0].is_ok() => Err(row[0].status.as_str()),
            Value::Speedup | Value::Ratio => Ok(rec.result.speedup_over(&row[0].result)),
            // A resumed point has its headline numbers only: cycles are
            // exact, per-level statistics are absent.
            _ if rec.status == PointStatus::Resumed && self.reads_stats() => Err("-"),
            Value::Stat(stat) | Value::StatShare(stat) => Ok(stat(&rec.result)),
            Value::Telemetry(share) => rec.telemetry.as_ref().and_then(share).ok_or("-"),
        }
    }

    fn format(&self, v: f64) -> String {
        match self.value {
            Value::Speedup => pct(v),
            Value::Ratio => format!("{v:.3}x"),
            Value::Stat(_) => format!("{v:.1}"),
            Value::StatShare(_) | Value::Telemetry(_) => format!("{:.1}%", v * 100.0),
        }
    }

    /// The column's footer over rows of `width` points: the mean or
    /// geomean of the cells that have a value, so a failed point, a failed
    /// Baseline or a resumed point's missing statistics never skew it.
    /// `None` for a blank footer or when no cell has a value.
    pub fn summary(&self, records: &[RunRecord], width: usize) -> Option<f64> {
        let values: Vec<f64> =
            records.chunks(width).filter_map(|row| self.cell(row).ok()).collect();
        if values.is_empty() {
            return None;
        }
        match self.footer {
            Footer::Blank => None,
            Footer::Average => Some(values.iter().sum::<f64>() / values.len() as f64),
            Footer::Geomean => Some(geomean(&values)),
        }
    }
}

/// Percent speedups of specs 1..=N over the Baseline, GEOMEAN footers.
pub const fn speedups<const N: usize>(headers: [&'static str; N]) -> [Column; N] {
    let mut columns = [Column::speedup("", 0); N];
    let mut i = 0;
    while i < N {
        columns[i] = Column::speedup(headers[i], i + 1);
        i += 1;
    }
    columns
}

/// Render one row per workload (rows of `width` points, Baseline first)
/// with a footer row when any column aggregates. A note follows when
/// resumed points left statistics cells empty.
pub fn render_table(columns: &[Column], width: usize, records: &[RunRecord]) -> String {
    let mut headers = vec!["workload"];
    headers.extend(columns.iter().map(|c| c.header));
    let mut table = TextTable::new(headers);
    for row in records.chunks(width) {
        let mut cells = vec![row[0].workload.name()];
        cells.extend(
            columns.iter().map(|c| c.cell(row).map_or_else(str::to_string, |v| c.format(v))),
        );
        table.row(cells);
    }
    let has = |footer| columns.iter().any(|c| c.footer == footer);
    let label = match (has(Footer::Average), has(Footer::Geomean)) {
        (true, true) => "AVG/GEOMEAN",
        (true, false) => "AVERAGE",
        (false, true) => "GEOMEAN",
        (false, false) => "",
    };
    if !label.is_empty() {
        let mut cells = vec![label.to_string()];
        cells.extend(columns.iter().map(|c| match (c.footer, c.summary(records, width)) {
            (Footer::Blank, _) => String::new(),
            (_, Some(v)) => c.format(v),
            (_, None) => "-".to_string(),
        }));
        table.row(cells);
    }
    let mut out = table.render();
    let resumed = records.iter().filter(|r| r.status == PointStatus::Resumed).count();
    if resumed > 0 && columns.iter().any(Column::reads_stats) {
        out.push_str(&format!(
            "{resumed} point(s) resumed from the manifest carry no per-level stats: \
             their stats cells print - and are left out of AVERAGE\n"
        ));
    }
    out
}

/// Run one sweep through the matrix executor, then write per-point
/// telemetry files under `--telemetry` and, when `bench_out` is given,
/// the sweep's benchmark summary. Exits on a sweep-level error.
pub fn run_sweep(
    opts: &HarnessOpts,
    runner: &Runner,
    tag: &str,
    points: &[MatrixPoint],
    mopts: &MatrixOptions,
    bench_out: Option<&Path>,
) -> Vec<RunRecord> {
    // Wall-clock here times the sweep itself (graph/trace builds included);
    // it feeds the benchmark summary, never any result.
    let start = std::time::Instant::now();
    let records = run_or_exit(runner.run_matrix_points(points, mopts), tag);
    let wall = start.elapsed().as_secs_f64();
    if let Some(dir) = &opts.telemetry {
        for rec in &records {
            let Some(tel) = &rec.telemetry else { continue };
            let point = format!("{}.{}", rec.workload.name(), gpworkloads::norm_name(&rec.label));
            if let Err(e) = opts.write_telemetry(&point, tel) {
                eprintln!("warning: writing telemetry for {point}: {e}");
            }
        }
        println!("wrote per-point interval telemetry under {}", dir.display());
    }
    if let Some(path) = bench_out {
        // Stall-share profile pass AFTER the wall clock stops: it re-runs a
        // fixed sweep subset with telemetry attached, which must never
        // count against the throughput number the gate checks.
        let stalls = profile_stall_shares(runner, points);
        if let Err(e) = write_bench_summary(path, tag, opts, &records, wall, stalls) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote benchmark summary to {}", path.display());
    }
    records
}

/// How many sweep workloads the stall-share profile pass re-runs (each
/// against every system of the sweep). Small and deterministic: the
/// shares come from the simulation alone, so a fixed prefix of the sweep
/// is a stable fingerprint of stall attribution.
const PROFILE_WORKLOADS: usize = 3;

/// The bench gate's deterministic stall-bucket fingerprint: dispatch-stall
/// attribution (rob_full, mshr_full, dram_wait, busy) over a fixed prefix
/// of the sweep as shares of total cycles, and the points profiled.
/// Simulated state only — no wall-clock — so any drift beyond float
/// formatting is a behavior change.
fn profile_stall_shares(runner: &Runner, points: &[MatrixPoint]) -> ([f64; 4], usize) {
    let mut profiled: Vec<Workload> = Vec::new();
    let subset: Vec<MatrixPoint> = points
        .iter()
        .filter(|p| {
            if !profiled.contains(&p.workload) && profiled.len() < PROFILE_WORKLOADS {
                profiled.push(p.workload);
            }
            profiled.contains(&p.workload)
        })
        .cloned()
        .collect();
    let cfg = simtel::TelemetryConfig {
        interval_instructions: 1_000_000,
        event_capacity: 0,
        ..Default::default()
    };
    let mopts = MatrixOptions { evict: true, ..MatrixOptions::quiet() }.with_telemetry(cfg);
    let records = run_or_exit(runner.run_matrix_points(&subset, &mopts), "stall profile");
    let telemetry: Vec<_> = records.iter().filter_map(|r| r.telemetry.as_ref()).collect();
    let mut cycles = [0u64; 4];
    for iv in telemetry.iter().flat_map(|t| &t.intervals) {
        let s = &iv.stalls;
        for (sum, c) in cycles.iter_mut().zip([s.rob_full, s.mshr_full, s.dram_wait, s.busy]) {
            *sum += c;
        }
    }
    let total = cycles.iter().sum::<u64>().max(1) as f64;
    (cycles.map(|c| c as f64 / total), telemetry.len())
}

/// Write the sweep's wall-clock throughput summary (the repo's pinned
/// simulator benchmark: `figure fig7 --scale small --bench-out
/// BENCH_sim.json`). Simulated instructions count each point's measured
/// window plus warmup, which is what the simulator actually traced.
fn write_bench_summary(
    path: &Path,
    tag: &str,
    opts: &HarnessOpts,
    records: &[RunRecord],
    wall_seconds: f64,
    (shares, profiled): ([f64; 4], usize),
) -> std::io::Result<()> {
    let ok: Vec<&RunRecord> = records.iter().filter(|r| r.is_ok()).collect();
    let simulated: u64 = ok.iter().map(|r| r.result.instructions + opts.window.warmup).sum();
    let rate = if wall_seconds > 0.0 { simulated as f64 / wall_seconds } else { 0.0 };
    let fields = [
        ("bench", format!("\"{tag}\"")),
        ("scale", format!("\"{}\"", format!("{:?}", opts.scale).to_lowercase())),
        ("warmup_instructions", opts.window.warmup.to_string()),
        ("measure_instructions", opts.window.measure.to_string()),
        ("points", records.len().to_string()),
        ("points_ok", ok.len().to_string()),
        ("wall_seconds", format!("{wall_seconds:.3}")),
        ("simulated_instructions", simulated.to_string()),
        ("simulated_instr_per_sec", format!("{rate:.0}")),
        ("threads", rayon::current_num_threads().to_string()),
        ("stall_profile_points", profiled.to_string()),
        ("stall_share_rob_full", format!("{:.6}", shares[0])),
        ("stall_share_mshr_full", format!("{:.6}", shares[1])),
        ("stall_share_dram_wait", format!("{:.6}", shares[2])),
        ("stall_share_busy", format!("{:.6}", shares[3])),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpworkloads::all_workloads;

    fn rec(workload: Workload, cycles: u64, status: PointStatus) -> RunRecord {
        RunRecord {
            workload,
            kind: None,
            label: String::new(),
            status,
            result: SimResult { instructions: 1000, cycles, ..Default::default() },
            manifest: Default::default(),
            telemetry: None,
        }
    }

    #[test]
    fn footers_use_only_healthy_pairs() {
        let ws = all_workloads();
        let failed = PointStatus::Failed { message: "boom".into() };
        let timed_out = PointStatus::TimedOut { cycles: 9, limit: 8 };
        // Rows of (Baseline, design): two healthy rows, a failed design
        // point, a timed-out Baseline, and a resumed design point.
        let records = vec![
            rec(ws[0], 1000, PointStatus::Ok),
            rec(ws[0], 500, PointStatus::Ok),
            rec(ws[1], 1000, PointStatus::Ok),
            rec(ws[1], 800, PointStatus::Ok),
            rec(ws[2], 1000, PointStatus::Ok),
            rec(ws[2], 0, failed),
            rec(ws[3], 400, timed_out),
            rec(ws[3], 900, PointStatus::Ok),
            rec(ws[4], 1000, PointStatus::Ok),
            rec(ws[4], 625, PointStatus::Resumed),
        ];
        let speedup = Column::speedup("design", 1);
        let healthy = geomean(&[2.0, 1.25, 1.6]);
        assert_eq!(speedup.summary(&records, 2), Some(healthy));
        // Stats columns also skip the resumed point; a timed-out Baseline
        // does not hide its design point's own statistics.
        let ipc = Column::new("ipc", 1, Value::Stat(SimResult::ipc), Footer::Average);
        assert_eq!(ipc.summary(&records, 2), Some((2.0 + 1.25 + 1000.0 / 900.0) / 3.0));

        let table = render_table(&[speedup, ipc], 2, &records);
        let lines: Vec<&str> = table.lines().collect();
        let cells = |i: usize| lines[i].split_whitespace().collect::<Vec<_>>();
        assert_eq!(cells(2), [ws[0].name().as_str(), "+100.0%", "2.0"]);
        assert_eq!(cells(4), [ws[2].name().as_str(), "failed", "failed"]);
        assert_eq!(cells(5), [ws[3].name().as_str(), "timed_out", "1.1"]);
        assert_eq!(cells(6), [ws[4].name().as_str(), "+60.0%", "-"]);
        let avg = format!("{:.1}", (2.0 + 1.25 + 1000.0 / 900.0) / 3.0);
        assert_eq!(cells(7), ["AVG/GEOMEAN", pct(healthy).as_str(), avg.as_str()]);
        assert!(lines[8].starts_with("1 point(s) resumed"), "{table}");
    }

    #[test]
    fn a_footer_with_no_healthy_cell_prints_a_dash() {
        let ws = all_workloads();
        let records = vec![
            rec(ws[0], 0, PointStatus::Failed { message: "x".into() }),
            rec(ws[0], 1, PointStatus::Ok),
        ];
        let table = render_table(&[Column::speedup("design", 1)], 2, &records);
        assert_eq!(
            table.lines().nth(3).unwrap().split_whitespace().collect::<Vec<_>>(),
            ["GEOMEAN", "-"]
        );
    }
}
