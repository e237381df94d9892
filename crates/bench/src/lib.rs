#![forbid(unsafe_code)]
//! # gpbench — experiment harness shared plumbing
//!
//! Each paper table/figure has a binary (`cargo run --release -p gpbench
//! --bin figN`). This library holds the shared command-line handling and
//! text-table rendering they use.

use gpgraph::SuiteScale;
use gpworkloads::{MatrixOptions, RunRecord, Runner, SimError, Watchdog};
use simcore::Window;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line options shared by every figure binary.
///
/// * `--scale tiny|small|full` — suite graph scale (default `full`).
/// * `--warmup N` / `--measure N` — window lengths in instructions.
/// * `--quick` — shorthand for `--scale small --warmup 200000 --measure
///   800000` (fast sanity runs).
/// * `--manifest PATH` — where sweep binaries stream their JSONL run
///   manifests (default `results/manifests/<bin>.jsonl`).
/// * `--no-manifest` — disable manifest output.
/// * `--resume` — reload the manifest (or its `.partial` leftover) and
///   re-run only points without a prior `ok` record.
/// * `--fail-fast` — abort the sweep on the first failing point instead
///   of completing the rest.
/// * `--watchdog-cpi N` — per-point runaway ceiling of `N` cycles per
///   windowed instruction (default 512); `--no-watchdog` disarms it.
/// * `--state-dir DIR` — directory for engine-state checkpoints (default
///   `results/state/<bin>`; checkpointing is off unless `--warmup-fork`
///   or `--snapshot-every` asks for it).
/// * `--warmup-fork` — persist each point's post-warmup machine state and
///   fork from it on later runs of the same point (bit-identical results;
///   skips the warmup replay).
/// * `--snapshot-every N` — crash-recovery snapshot every `N` trace events
///   during measurement; a killed run's next invocation resumes each
///   interrupted point from its last snapshot.
/// * `--telemetry DIR` — collect interval snapshots + event traces for
///   every simulated point and write `<DIR>/<workload>.<system>.intervals.jsonl`
///   and `.trace.json` (Chrome trace-event format, loadable in Perfetto).
/// * `--interval N` — telemetry snapshot period in traced instructions
///   (default 100000; only meaningful with `--telemetry`).
/// * `--bench-out PATH` — write a `BENCH_sim.json` wall-clock/throughput
///   summary for the sweep (binaries that support it, e.g. `fig7`).
///
/// Replay parallelism is controlled by `RAYON_NUM_THREADS` (defaults to
/// the machine's available parallelism).
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    pub scale: SuiteScale,
    pub window: Window,
    /// Restrict to workloads whose name contains this substring.
    pub only: Option<String>,
    /// Explicit manifest path (overrides the per-binary default).
    pub manifest: Option<PathBuf>,
    /// Suppress manifest output entirely.
    pub no_manifest: bool,
    /// Skip points with a prior `ok` manifest record.
    pub resume: bool,
    /// Abort on the first failing point.
    pub fail_fast: bool,
    /// Per-point runaway-simulation ceiling.
    pub watchdog: Watchdog,
    /// Telemetry output directory (`None` = telemetry disabled).
    pub telemetry: Option<PathBuf>,
    /// Telemetry snapshot period in traced instructions.
    pub interval: u64,
    /// Where to write the sweep's wall-clock benchmark summary.
    pub bench_out: Option<PathBuf>,
    /// Explicit checkpoint directory (overrides the per-binary default).
    pub state_dir: Option<PathBuf>,
    /// Fork points from persisted post-warmup checkpoints.
    pub warmup_fork: bool,
    /// Mid-measurement snapshot cadence in trace events (0 = off).
    pub snapshot_every: u64,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: SuiteScale::Full,
            window: Window::new(2_000_000, 8_000_000),
            only: None,
            manifest: None,
            no_manifest: false,
            resume: false,
            fail_fast: false,
            watchdog: Watchdog::CyclesPerInstr(Watchdog::DEFAULT_CPI),
            telemetry: None,
            interval: simtel::DEFAULT_INTERVAL_INSTRUCTIONS,
            bench_out: None,
            state_dir: None,
            warmup_fork: false,
            snapshot_every: 0,
        }
    }
}

impl HarnessOpts {
    pub fn parse_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = HarnessOpts::default();
        let mut warmup = None;
        let mut measure = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => {
                    opts.scale = SuiteScale::Small;
                    warmup = Some(200_000);
                    measure = Some(800_000);
                }
                "--scale" => {
                    opts.scale = match it.next().as_deref() {
                        Some("tiny") => SuiteScale::Tiny,
                        Some("small") => SuiteScale::Small,
                        Some("medium") => SuiteScale::Medium,
                        Some("full") => SuiteScale::Full,
                        other => panic!("unknown scale {other:?}"),
                    };
                }
                "--warmup" => {
                    warmup = Some(
                        it.next().expect("--warmup needs a value").parse().expect("bad --warmup"),
                    );
                }
                "--measure" => {
                    measure = Some(
                        it.next()
                            .expect("--measure needs a value")
                            .parse()
                            .expect("bad --measure"),
                    );
                }
                "--only" => {
                    opts.only = Some(it.next().expect("--only needs a substring"));
                }
                "--manifest" => {
                    opts.manifest = Some(it.next().expect("--manifest needs a path").into());
                }
                "--no-manifest" => {
                    opts.no_manifest = true;
                }
                "--resume" => {
                    opts.resume = true;
                }
                "--fail-fast" => {
                    opts.fail_fast = true;
                }
                "--watchdog-cpi" => {
                    opts.watchdog = Watchdog::CyclesPerInstr(
                        it.next()
                            .expect("--watchdog-cpi needs a value")
                            .parse()
                            .expect("bad --watchdog-cpi"),
                    );
                }
                "--no-watchdog" => {
                    opts.watchdog = Watchdog::Off;
                }
                "--telemetry" => {
                    opts.telemetry = Some(it.next().expect("--telemetry needs a directory").into());
                }
                "--interval" => {
                    opts.interval = it
                        .next()
                        .expect("--interval needs a value")
                        .parse()
                        .expect("bad --interval");
                }
                "--bench-out" => {
                    opts.bench_out = Some(it.next().expect("--bench-out needs a path").into());
                }
                "--state-dir" => {
                    opts.state_dir = Some(it.next().expect("--state-dir needs a path").into());
                }
                "--warmup-fork" => {
                    opts.warmup_fork = true;
                }
                "--snapshot-every" => {
                    opts.snapshot_every = it
                        .next()
                        .expect("--snapshot-every needs a value")
                        .parse()
                        .expect("bad --snapshot-every");
                }
                other => panic!("unknown argument {other:?} (try --quick / --scale / --warmup / --measure / --only / --manifest / --no-manifest / --resume / --fail-fast / --watchdog-cpi / --no-watchdog / --state-dir / --warmup-fork / --snapshot-every / --telemetry / --interval / --bench-out)"),
            }
        }
        opts.window = Window::new(
            warmup.unwrap_or(opts.window.warmup),
            measure.unwrap_or(opts.window.measure),
        );
        opts
    }

    pub fn runner(&self) -> Runner {
        // Persist generated graphs across harness binaries (safe to
        // delete; regenerated deterministically on demand).
        if std::env::var_os("GRAPH_CACHE_DIR").is_none() {
            std::env::set_var("GRAPH_CACHE_DIR", "target/graph-cache");
        }
        Runner::new(self.scale, self.window)
    }

    /// Does a workload name pass the `--only` filter?
    pub fn selected(&self, name: &str) -> bool {
        self.only.as_deref().is_none_or(|s| name.contains(s))
    }

    /// Matrix-executor options for a sweep named `tag` (usually the binary
    /// name; binaries running several sweeps pass distinct tags so later
    /// sweeps don't truncate earlier manifests). Progress lines and
    /// trace/graph eviction are always on for harness runs.
    pub fn matrix_options(&self, tag: &str) -> MatrixOptions {
        let mut m = MatrixOptions::harness();
        if !self.no_manifest {
            m.manifest_path = Some(match &self.manifest {
                Some(path) if tag.is_empty() => path.clone(),
                Some(path) => {
                    // With several sweeps per binary, derive per-tag files
                    // from the explicit path: results.jsonl -> results-tag.jsonl.
                    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("manifest");
                    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
                    path.with_file_name(format!("{stem}-{tag}.{ext}"))
                }
                None => PathBuf::from(format!("results/manifests/{tag}.jsonl")),
            });
        }
        // Resume needs a manifest to resume from; with --no-manifest it
        // silently degenerates to a plain run.
        m.resume = self.resume && m.manifest_path.is_some();
        m.fail_fast = self.fail_fast;
        m.watchdog = self.watchdog;
        // Engine-state checkpoints: on when either layer is requested,
        // under --state-dir or a per-binary default.
        if self.warmup_fork || self.snapshot_every > 0 {
            m.state_dir = Some(match &self.state_dir {
                Some(dir) => dir.clone(),
                None if tag.is_empty() => PathBuf::from("results/state"),
                None => PathBuf::from(format!("results/state/{tag}")),
            });
            m.warmup_fork = self.warmup_fork;
            m.snapshot_every = self.snapshot_every;
        }
        m
    }

    /// The workloads passing `--only`, in suite order.
    pub fn workloads(&self) -> Vec<gpworkloads::Workload> {
        gpworkloads::all_workloads().into_iter().filter(|w| self.selected(&w.name())).collect()
    }

    /// The telemetry collector configuration, or `None` when `--telemetry`
    /// was not given (the simulator then runs with the zero-cost no-op
    /// sink and manifests stay byte-identical).
    pub fn telemetry_config(&self) -> Option<simtel::TelemetryConfig> {
        self.telemetry.as_ref()?;
        Some(simtel::TelemetryConfig {
            interval_instructions: self.interval.max(1),
            ..Default::default()
        })
    }

    /// Write one point's telemetry under the `--telemetry` directory as
    /// `<point>.intervals.jsonl` + `<point>.trace.json` (Chrome trace-event
    /// JSON, loadable in Perfetto / `chrome://tracing`).
    pub fn write_telemetry(
        &self,
        point: &str,
        output: &simtel::TelemetryOutput,
    ) -> std::io::Result<()> {
        let Some(dir) = &self.telemetry else { return Ok(()) };
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("{point}.intervals.jsonl")),
            simtel::export::intervals_jsonl(&output.intervals),
        )?;
        std::fs::write(
            dir.join(format!("{point}.trace.json")),
            simtel::export::chrome_trace(output),
        )
    }
}

/// Unwrap a sweep result or exit(2) with the sweep-level error (manifest
/// I/O failure or a `--fail-fast` abort). Point-level failures do NOT take
/// this path — they come back as non-ok [`RunRecord`]s and are accounted
/// at the end via [`finish_sweeps`].
pub fn run_or_exit(result: Result<Vec<RunRecord>, SimError>, tag: &str) -> Vec<RunRecord> {
    match result {
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: sweep {tag} aborted: {e}");
            std::process::exit(2);
        }
    }
}

/// How many points across these sweeps failed or timed out.
pub fn failed_points(sweeps: &[&[RunRecord]]) -> usize {
    sweeps.iter().flat_map(|s| s.iter()).filter(|r| !r.is_ok()).count()
}

/// The harness exit protocol: report any failed/timed-out points to
/// stderr and exit nonzero, so a sweep that completed around bad points
/// (panic isolation) still fails CI. Call once at the end of `main` with
/// every sweep the binary ran.
pub fn finish_sweeps(sweeps: &[&[RunRecord]]) -> ExitCode {
    let failed = failed_points(sweeps);
    if failed == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {failed} point(s) failed or timed out:");
    for rec in sweeps.iter().flat_map(|s| s.iter()).filter(|r| !r.is_ok()) {
        eprintln!(
            "  {} on {}: {} ({})",
            rec.manifest.workload, rec.label, rec.manifest.status, rec.manifest.error
        );
    }
    eprintln!("hint: fix or exclude the points above, then re-run with --resume");
    ExitCode::FAILURE
}

/// Minimal fixed-width text table writer for figure/table output.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a ratio as a percent improvement ("+20.3%").
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn parse_defaults_to_full_scale() {
        let o = HarnessOpts::parse(Vec::<String>::new());
        assert_eq!(o.scale, SuiteScale::Full);
        assert_eq!(o.window.warmup, 2_000_000);
    }

    #[test]
    fn parse_quick() {
        let o = HarnessOpts::parse(vec!["--quick".to_string()]);
        assert_eq!(o.scale, SuiteScale::Small);
        assert_eq!(o.window.measure, 800_000);
    }

    #[test]
    fn parse_explicit_window() {
        let args: Vec<String> =
            ["--scale", "tiny", "--warmup", "100", "--measure", "200"].map(String::from).into();
        let o = HarnessOpts::parse(args);
        assert_eq!(o.scale, SuiteScale::Tiny);
        assert_eq!(o.window.warmup, 100);
        assert_eq!(o.window.measure, 200);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_rejects_unknown() {
        HarnessOpts::parse(vec!["--bogus".to_string()]);
    }

    #[test]
    fn manifest_flags_control_matrix_options() {
        let o = HarnessOpts::parse(Vec::<String>::new());
        let m = o.matrix_options("fig7");
        assert_eq!(m.manifest_path.as_deref(), Some(Path::new("results/manifests/fig7.jsonl")));
        assert!(m.progress && m.evict);

        let o = HarnessOpts::parse(vec!["--manifest".into(), "out/run.jsonl".into()]);
        assert_eq!(
            o.matrix_options("ablation2").manifest_path.as_deref(),
            Some(Path::new("out/run-ablation2.jsonl"))
        );

        let o = HarnessOpts::parse(vec!["--no-manifest".to_string()]);
        assert_eq!(o.matrix_options("fig7").manifest_path, None);
    }

    #[test]
    fn fault_tolerance_flags_control_matrix_options() {
        let o = HarnessOpts::parse(Vec::<String>::new());
        let m = o.matrix_options("fig7");
        assert!(!m.resume && !m.fail_fast);
        assert_eq!(m.watchdog, Watchdog::CyclesPerInstr(Watchdog::DEFAULT_CPI));

        let args: Vec<String> =
            ["--resume", "--fail-fast", "--watchdog-cpi", "64"].map(String::from).into();
        let o = HarnessOpts::parse(args);
        let m = o.matrix_options("fig7");
        assert!(m.resume && m.fail_fast);
        assert_eq!(m.watchdog, Watchdog::CyclesPerInstr(64));

        let o = HarnessOpts::parse(vec!["--no-watchdog".to_string()]);
        assert_eq!(o.matrix_options("fig7").watchdog, Watchdog::Off);

        // --resume without a manifest degenerates to a plain run.
        let args: Vec<String> = ["--resume", "--no-manifest"].map(String::from).into();
        assert!(!HarnessOpts::parse(args).matrix_options("fig7").resume);
    }

    #[test]
    fn checkpoint_flags_control_matrix_options() {
        // No checkpoint layer requested: state dir stays unset.
        let o = HarnessOpts::parse(Vec::<String>::new());
        let m = o.matrix_options("fig7");
        assert_eq!(m.state_dir, None);
        assert!(!m.warmup_fork);
        assert_eq!(m.snapshot_every, 0);

        // Either layer enables the per-binary default state dir.
        let o = HarnessOpts::parse(vec!["--warmup-fork".to_string()]);
        let m = o.matrix_options("fig7");
        assert_eq!(m.state_dir, Some(PathBuf::from("results/state/fig7")));
        assert!(m.warmup_fork);
        assert_eq!(m.snapshot_every, 0);

        let args: Vec<String> = ["--snapshot-every", "50000"].map(String::from).into();
        let m = HarnessOpts::parse(args).matrix_options("fig7");
        assert_eq!(m.state_dir, Some(PathBuf::from("results/state/fig7")));
        assert!(!m.warmup_fork);
        assert_eq!(m.snapshot_every, 50_000);

        // --state-dir overrides the default location.
        let args: Vec<String> = ["--warmup-fork", "--state-dir", "ckpt"].map(String::from).into();
        let m = HarnessOpts::parse(args).matrix_options("fig7");
        assert_eq!(m.state_dir, Some(PathBuf::from("ckpt")));

        // --state-dir alone enables no layer, so it writes no state.
        let args: Vec<String> = ["--state-dir", "ckpt"].map(String::from).into();
        let m = HarnessOpts::parse(args).matrix_options("fig7");
        assert_eq!(m.state_dir, None);
        assert!(!m.warmup_fork);
        assert_eq!(m.snapshot_every, 0);
    }

    #[test]
    fn telemetry_flags_parse_and_gate_the_config() {
        let o = HarnessOpts::parse(Vec::<String>::new());
        assert_eq!(o.telemetry, None);
        assert_eq!(o.interval, simtel::DEFAULT_INTERVAL_INSTRUCTIONS);
        assert_eq!(o.bench_out, None);
        assert!(o.telemetry_config().is_none(), "no --telemetry, no collector");

        let args: Vec<String> =
            ["--telemetry", "out/tel", "--interval", "5000", "--bench-out", "BENCH_sim.json"]
                .map(String::from)
                .into();
        let o = HarnessOpts::parse(args);
        assert_eq!(o.telemetry.as_deref(), Some(Path::new("out/tel")));
        assert_eq!(o.bench_out.as_deref(), Some(Path::new("BENCH_sim.json")));
        let cfg = o.telemetry_config().expect("collector enabled");
        assert_eq!(cfg.interval_instructions, 5000);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1.0"]);
        t.row(vec!["longer", "2.25"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.203), "+20.3%");
        assert_eq!(pct(0.95), "-5.0%");
    }
}
