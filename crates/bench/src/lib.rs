#![forbid(unsafe_code)]
//! # gpbench — experiment harness
//!
//! The `figure` binary regenerates every paper table and figure from one
//! spec table ([`figures::FIGURES`]); `dram_sweep` and `timeline` are
//! separate tools over the same plumbing. This library holds the shared
//! command-line handling, the sweep driver and table renderer
//! ([`sweep`]), and text-table rendering.

pub mod figures;
pub mod sweep;

use gpgraph::SuiteScale;
use gpworkloads::{find_scale, MatrixOptions, RunRecord, Runner, SimError, Watchdog};
use simcore::Window;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Command-line options shared by every harness binary, one field per
/// flag. Replay parallelism is controlled by `RAYON_NUM_THREADS` (default:
/// the machine's available parallelism).
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// `--scale tiny|small|medium|full`: suite graph scale (default full).
    pub scale: SuiteScale,
    /// `--warmup N` / `--measure N`: window lengths in instructions;
    /// `--quick` is `--scale small --warmup 200000 --measure 800000`.
    pub window: Window,
    /// `--only S`: restrict to workloads whose name contains `S`.
    pub only: Option<String>,
    /// `--manifest PATH`: where sweeps stream their JSONL run manifests
    /// (default `results/manifests/<tag>.jsonl`).
    pub manifest: Option<PathBuf>,
    /// `--no-manifest`: disable manifest output.
    pub no_manifest: bool,
    /// `--resume`: reload the manifest (or its `.partial` leftover) and
    /// re-run only points without a prior `ok` record.
    pub resume: bool,
    /// `--fail-fast`: abort the sweep on the first failing point.
    pub fail_fast: bool,
    /// `--watchdog-cpi N`: per-point runaway ceiling of `N` cycles per
    /// windowed instruction (default 512); `--no-watchdog` disarms it.
    pub watchdog: Watchdog,
    /// `--telemetry DIR`: write `<workload>.<system>.intervals.jsonl` and
    /// `.trace.json` (Chrome trace-event JSON) for every simulated point.
    pub telemetry: Option<PathBuf>,
    /// `--interval N`: telemetry snapshot period in traced instructions.
    pub interval: u64,
    /// `--bench-out PATH`: write the sweep's `BENCH_sim.json`
    /// wall-clock/throughput summary.
    pub bench_out: Option<PathBuf>,
    /// `--state-dir DIR`: engine-state checkpoints (default
    /// `results/state/<tag>`; written only under the next two flags).
    pub state_dir: Option<PathBuf>,
    /// `--warmup-fork`: persist each point's post-warmup state and fork
    /// later runs of the point from it (bit-identical results).
    pub warmup_fork: bool,
    /// `--snapshot-every N`: crash-recovery snapshot every `N` trace
    /// events of measurement; a killed run's next invocation resumes each
    /// interrupted point from its last one.
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
    /// The shared flags that take a value, and those that take none.
    const VALUED: [&'static str; 11] = [
        "--scale",
        "--warmup",
        "--measure",
        "--only",
        "--manifest",
        "--watchdog-cpi",
        "--state-dir",
        "--snapshot-every",
        "--telemetry",
        "--interval",
        "--bench-out",
    ];
    const SWITCHES: [&'static str; 6] =
        ["--quick", "--no-manifest", "--resume", "--fail-fast", "--no-watchdog", "--warmup-fork"];

    /// Parse the process arguments, accepting the binary's own valued
    /// flags `extra` besides the shared ones; a bad command line is a
    /// usage error (see [`usage_exit`]).
    pub fn parse_args(extra: &[&'static str]) -> (Self, Flags) {
        Self::parse_with(std::env::args().skip(1), extra)
            .unwrap_or_else(|e| usage_exit(&e, &Self::flags(extra)))
    }

    /// Parse the shared flags only.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        Self::parse_with(args, &[]).map(|(opts, _)| opts)
    }

    /// Parse the shared flags plus the declared binary-specific valued
    /// flags `extra` (read back through the returned [`Flags`]). Flags
    /// apply in order, so a later `--scale` overrides `--quick`'s.
    pub fn parse_with<I: IntoIterator<Item = String>>(
        args: I,
        extra: &[&'static str],
    ) -> Result<(Self, Flags), String> {
        let valued: Vec<&'static str> = Self::VALUED.iter().chain(extra).copied().collect();
        let flags = Flags::parse(args, &valued, &Self::SWITCHES)?;
        let mut opts = HarnessOpts::default();
        let (mut warmup, mut measure) = (None, None);
        for (flag, value) in &flags.0 {
            let v = value.as_deref().unwrap_or_default();
            match *flag {
                "--quick" => {
                    opts.scale = SuiteScale::Small;
                    warmup = Some(200_000);
                    measure = Some(800_000);
                }
                "--scale" => opts.scale = find_scale(v)?,
                "--warmup" => warmup = Some(number(flag, v)?),
                "--measure" => measure = Some(number(flag, v)?),
                "--only" => opts.only = Some(v.to_string()),
                "--manifest" => opts.manifest = Some(v.into()),
                "--no-manifest" => opts.no_manifest = true,
                "--resume" => opts.resume = true,
                "--fail-fast" => opts.fail_fast = true,
                "--watchdog-cpi" => opts.watchdog = Watchdog::CyclesPerInstr(number(flag, v)?),
                "--no-watchdog" => opts.watchdog = Watchdog::Off,
                "--telemetry" => opts.telemetry = Some(v.into()),
                "--interval" => opts.interval = number(flag, v)?,
                "--bench-out" => opts.bench_out = Some(v.into()),
                "--state-dir" => opts.state_dir = Some(v.into()),
                "--warmup-fork" => opts.warmup_fork = true,
                "--snapshot-every" => opts.snapshot_every = number(flag, v)?,
                _ => {} // the binary's own flag
            }
        }
        opts.window = Window::new(
            warmup.unwrap_or(opts.window.warmup),
            measure.unwrap_or(opts.window.measure),
        );
        Ok((opts, flags))
    }

    /// Every shared flag plus the binary's own, for the usage line.
    pub fn flags(extra: &[&'static str]) -> Vec<&'static str> {
        Self::VALUED.iter().chain(&Self::SWITCHES).chain(extra).copied().collect()
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

    /// Matrix-executor options for a sweep named `tag` (the figure name;
    /// rows running several sweeps pass distinct tags so later sweeps
    /// don't truncate earlier manifests). Progress lines and trace/graph
    /// eviction are always on for harness runs.
    pub fn matrix_options(&self, tag: &str) -> MatrixOptions {
        let mut m = MatrixOptions::harness();
        if !self.no_manifest {
            m.manifest_path = Some(match &self.manifest {
                Some(path) => tagged_path(path, tag),
                None => PathBuf::from(format!("results/manifests/{tag}.jsonl")),
            });
        }
        // Resume needs a manifest to resume from; with --no-manifest it
        // silently degenerates to a plain run.
        m.resume = self.resume && m.manifest_path.is_some();
        m.fail_fast = self.fail_fast;
        m.watchdog = self.watchdog;
        m.telemetry = self.telemetry_config();
        // Engine-state checkpoints: on when either layer is requested,
        // under --state-dir or a per-sweep default.
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

/// Derive a per-tag file from an explicit path (`run.jsonl` with tag
/// `fig7` becomes `run-fig7.jsonl`), so several sweeps under one flag
/// never overwrite each other. An empty tag keeps the path.
pub fn tagged_path(path: &Path, tag: &str) -> PathBuf {
    if tag.is_empty() {
        return path.to_path_buf();
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("manifest");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
    path.with_file_name(format!("{stem}-{tag}.{ext}"))
}

/// Parse one flag value (surrounding whitespace allowed).
pub fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.trim().parse().map_err(|_| format!("bad {flag} value {value:?}"))
}

/// A command line of declared flags, in the order given: `valued` flags
/// take the next argument, switches take none, anything else is an
/// error. Every gpbench binary parses its arguments through it.
#[derive(Debug, Clone, Default)]
pub struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Self, String> {
        let mut flags = Flags::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if let Some(&flag) = valued.iter().find(|&&f| f == arg) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.0.push((flag, Some(value)));
            } else if let Some(&flag) = switches.iter().find(|&&f| f == arg) {
                flags.0.push((flag, None));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    /// Was the switch (or valued flag) given?
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(f, _)| *f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// `flag`'s value parsed as a number, or `default` when absent.
    pub fn number<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.value(flag).map_or(Ok(default), |v| number(flag, v))
    }

    /// `flag`'s comma-separated list, or `default` when absent; an empty
    /// list or a bad entry is an error.
    pub fn list<T: FromStr>(&self, flag: &str, default: Vec<T>) -> Result<Vec<T>, String> {
        let Some(v) = self.value(flag) else { return Ok(default) };
        if v.trim().is_empty() {
            return Err(format!("{flag} needs at least one entry"));
        }
        v.split(',').map(|entry| number(flag, entry)).collect()
    }
}

/// Report a bad command line and the accepted `flags`, then exit with
/// status 2.
pub fn usage_exit(err: &str, flags: &[&str]) -> ! {
    eprintln!("error: {err}");
    eprintln!("flags: {}", flags.join(" / "));
    std::process::exit(2)
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
        let o = HarnessOpts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.scale, SuiteScale::Full);
        assert_eq!(o.window.warmup, 2_000_000);
    }

    #[test]
    fn parse_quick() {
        let o = HarnessOpts::parse(vec!["--quick".to_string()]).unwrap();
        assert_eq!(o.scale, SuiteScale::Small);
        assert_eq!(o.window.measure, 800_000);
    }

    #[test]
    fn parse_explicit_window() {
        let args: Vec<String> =
            ["--scale", "tiny", "--warmup", "100", "--measure", "200"].map(String::from).into();
        let o = HarnessOpts::parse(args).unwrap();
        assert_eq!(o.scale, SuiteScale::Tiny);
        assert_eq!(o.window.warmup, 100);
        assert_eq!(o.window.measure, 200);
    }

    fn parse_err(args: &[&str], extra: &[&'static str]) -> String {
        HarnessOpts::parse_with(args.iter().map(|a| a.to_string()), extra)
            .expect_err("bad command line must be an error")
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse_err(&["--bogus"], &[]).contains("unknown argument"));
        // A binary's own flag is unknown to a binary that did not declare it.
        assert!(parse_err(&["--mixes", "2"], &[]).contains("unknown argument"));
    }

    #[test]
    fn bad_values_are_usage_errors_not_panics() {
        assert!(parse_err(&["--scale", "huge"], &[]).contains("unknown scale"));
        assert!(parse_err(&["--warmup", "x"], &[]).contains("bad --warmup"));
        assert!(parse_err(&["--measure"], &[]).contains("--measure needs a value"));
        assert!(parse_err(&["--channels"], &["--channels"]).contains("needs a value"));
        let (_, flags) =
            HarnessOpts::parse_with(["--channels".to_string(), String::new()], &["--channels"])
                .unwrap();
        assert!(flags.list::<usize>("--channels", vec![1]).is_err(), "empty channel list");
        let (_, flags) =
            HarnessOpts::parse_with(["--channels".to_string(), "1,x".into()], &["--channels"])
                .unwrap();
        assert!(flags.list::<usize>("--channels", vec![1]).is_err(), "bad channel entry");
        let usage = HarnessOpts::flags(&["--mixes"]);
        assert_eq!((usage.len(), usage.last()), (18, Some(&"--mixes")));
    }

    #[test]
    fn extra_flags_parse_through_the_shared_parser() {
        let args = ["--mixes", "3", "--scale", "tiny", "--channels", "1, 2,4"].map(String::from);
        let (o, flags) = HarnessOpts::parse_with(args, &["--mixes", "--channels"]).unwrap();
        assert_eq!(o.scale, SuiteScale::Tiny);
        assert_eq!(flags.number("--mixes", 50usize), Ok(3));
        assert_eq!(flags.list("--channels", vec![8usize]), Ok(vec![1, 2, 4]));
        assert_eq!(flags.value("--system"), None);
        assert_eq!(flags.number("--system", 7u32), Ok(7), "absent flags take the default");
    }

    #[test]
    fn manifest_flags_control_matrix_options() {
        let o = HarnessOpts::parse(Vec::<String>::new()).unwrap();
        let m = o.matrix_options("fig7");
        assert_eq!(m.manifest_path.as_deref(), Some(Path::new("results/manifests/fig7.jsonl")));
        assert!(m.progress && m.evict);

        let o = HarnessOpts::parse(vec!["--manifest".into(), "out/run.jsonl".into()]).unwrap();
        assert_eq!(
            o.matrix_options("ablation2").manifest_path.as_deref(),
            Some(Path::new("out/run-ablation2.jsonl"))
        );

        let o = HarnessOpts::parse(vec!["--no-manifest".to_string()]).unwrap();
        assert_eq!(o.matrix_options("fig7").manifest_path, None);
    }

    #[test]
    fn fault_tolerance_flags_control_matrix_options() {
        let o = HarnessOpts::parse(Vec::<String>::new()).unwrap();
        let m = o.matrix_options("fig7");
        assert!(!m.resume && !m.fail_fast);
        assert_eq!(m.watchdog, Watchdog::CyclesPerInstr(Watchdog::DEFAULT_CPI));

        let args: Vec<String> =
            ["--resume", "--fail-fast", "--watchdog-cpi", "64"].map(String::from).into();
        let o = HarnessOpts::parse(args).unwrap();
        let m = o.matrix_options("fig7");
        assert!(m.resume && m.fail_fast);
        assert_eq!(m.watchdog, Watchdog::CyclesPerInstr(64));

        let o = HarnessOpts::parse(vec!["--no-watchdog".to_string()]).unwrap();
        assert_eq!(o.matrix_options("fig7").watchdog, Watchdog::Off);

        // --resume without a manifest degenerates to a plain run.
        let args: Vec<String> = ["--resume", "--no-manifest"].map(String::from).into();
        assert!(!HarnessOpts::parse(args).unwrap().matrix_options("fig7").resume);
    }

    #[test]
    fn checkpoint_flags_control_matrix_options() {
        // No checkpoint layer requested: state dir stays unset.
        let o = HarnessOpts::parse(Vec::<String>::new()).unwrap();
        let m = o.matrix_options("fig7");
        assert_eq!(m.state_dir, None);
        assert!(!m.warmup_fork);
        assert_eq!(m.snapshot_every, 0);

        // Either layer enables the per-binary default state dir.
        let o = HarnessOpts::parse(vec!["--warmup-fork".to_string()]).unwrap();
        let m = o.matrix_options("fig7");
        assert_eq!(m.state_dir, Some(PathBuf::from("results/state/fig7")));
        assert!(m.warmup_fork);
        assert_eq!(m.snapshot_every, 0);

        let args: Vec<String> = ["--snapshot-every", "50000"].map(String::from).into();
        let m = HarnessOpts::parse(args).unwrap().matrix_options("fig7");
        assert_eq!(m.state_dir, Some(PathBuf::from("results/state/fig7")));
        assert!(!m.warmup_fork);
        assert_eq!(m.snapshot_every, 50_000);

        // --state-dir overrides the default location.
        let args: Vec<String> = ["--warmup-fork", "--state-dir", "ckpt"].map(String::from).into();
        let m = HarnessOpts::parse(args).unwrap().matrix_options("fig7");
        assert_eq!(m.state_dir, Some(PathBuf::from("ckpt")));

        // --state-dir alone enables no layer, so it writes no state.
        let args: Vec<String> = ["--state-dir", "ckpt"].map(String::from).into();
        let m = HarnessOpts::parse(args).unwrap().matrix_options("fig7");
        assert_eq!(m.state_dir, None);
        assert!(!m.warmup_fork);
        assert_eq!(m.snapshot_every, 0);
    }

    #[test]
    fn telemetry_flags_parse_and_gate_the_config() {
        let o = HarnessOpts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.telemetry, None);
        assert_eq!(o.interval, simtel::DEFAULT_INTERVAL_INSTRUCTIONS);
        assert_eq!(o.bench_out, None);
        assert!(o.telemetry_config().is_none(), "no --telemetry, no collector");
        assert!(o.matrix_options("fig7").telemetry.is_none());

        let args: Vec<String> =
            ["--telemetry", "out/tel", "--interval", "5000", "--bench-out", "BENCH_sim.json"]
                .map(String::from)
                .into();
        let o = HarnessOpts::parse(args).unwrap();
        assert_eq!(o.telemetry.as_deref(), Some(Path::new("out/tel")));
        assert_eq!(o.bench_out.as_deref(), Some(Path::new("BENCH_sim.json")));
        let cfg = o.telemetry_config().expect("collector enabled");
        assert_eq!(cfg.interval_instructions, 5000);
        // Every sweep collects under --telemetry, not only the tools that
        // force it on.
        let m = o.matrix_options("fig7").telemetry.expect("sweeps collect telemetry");
        assert_eq!(m.interval_instructions, 5000);
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
