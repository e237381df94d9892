//! Black-box daemon lifecycle test over the real binaries: spawn
//! `simserved`, drive it with `simctl`, kill it with SIGKILL mid-sweep,
//! and verify a restarted daemon recovers the socket, reaps orphaned
//! checkpoints, and keeps its persisted warmup forks warm.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test when their setup cannot hold"
)]

use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WINDOW: [&str; 4] = ["--warmup", "5000", "--measure", "20000"];

struct DaemonProc {
    child: Child,
    socket: PathBuf,
}

impl DaemonProc {
    fn spawn(dir: &Path, extra: &[&str]) -> Self {
        let socket = dir.join("simserved.sock");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_simserved"));
        cmd.arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(dir.join("state"))
            .arg("--warmup-fork")
            .arg("--workers")
            .arg("2")
            .args(extra)
            .env("GRAPH_CACHE_DIR", dir.join("graph-cache"))
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd.spawn().expect("spawn simserved");
        let daemon = DaemonProc { child, socket };
        daemon.wait_ready();
        daemon
    }

    /// Poll until the daemon accepts connections (binding is fast; the
    /// generous deadline covers debug-build startup).
    fn wait_ready(&self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            if self.socket.exists() && UnixStream::connect(&self.socket).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("simserved did not come up on {}", self.socket.display());
    }

    fn simctl(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_simctl"));
        cmd.arg("--socket").arg(&self.socket).args(args);
        cmd
    }

    /// SIGKILL — the crash the restart path must recover from.
    fn kill9(&mut self) {
        self.child.kill().expect("kill -9 simserved");
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        // Belt and braces: tests shut down gracefully; a failed assert
        // must not leak a daemon.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simserve-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn stdout_of(output: std::process::Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn daemon_survives_kill_dash_nine_and_recovers_on_restart() {
    let dir = tmp_dir("kill9");

    // --- Generation 1: a healthy daemon completes a sweep. -------------
    let mut gen1 = DaemonProc::spawn(&dir, &[]);
    let out = gen1
        .simctl(&["submit", "--workloads", "bfs.kron", "--systems", "baseline"])
        .args(WINDOW)
        .output()
        .expect("run simctl");
    assert!(out.status.success(), "healthy submit: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout_of(out);
    assert!(text.contains("ok"), "point completed: {text}");

    // --- kill -9 mid-sweep. --------------------------------------------
    // Stream a larger sweep and pull the trigger after the first record:
    // the daemon dies with the sweep provably in flight.
    let mut streaming = gen1
        .simctl(&["submit", "--workloads", "all", "--systems", "baseline,sdc_lp"])
        .args(WINDOW)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn streaming simctl");
    let mut lines = BufReader::new(streaming.stdout.take().expect("piped stdout")).lines();
    let mut saw_record = false;
    for line in lines.by_ref() {
        let line = line.expect("read simctl stdout");
        if line.starts_with("[1/") {
            saw_record = true;
            break;
        }
    }
    assert!(saw_record, "at least one record streamed before the kill");
    gen1.kill9();
    let status = streaming.wait().expect("streaming simctl exits");
    assert!(!status.success(), "a client cut off mid-stream must report failure");

    // The corpse: a stale socket file, plus whatever mid-sweep state the
    // kill orphaned. Plant a known orphan so the reap is deterministic.
    assert!(gen1.socket.exists(), "kill -9 leaves the socket file behind");
    let state = dir.join("state");
    std::fs::create_dir_all(&state).expect("state dir");
    std::fs::write(state.join("mid_orphan-0000000000000000.sstate"), b"junk")
        .expect("plant orphaned crash snapshot");
    std::fs::write(state.join("half-written.sstate.tmp"), b"junk")
        .expect("plant orphaned staging file");
    let forks_before = count_warm_forks(&state);
    assert!(forks_before > 0, "generation 1 persisted at least one warmup fork");

    // --- Generation 2: restart on the same socket. ---------------------
    let gen2 = DaemonProc::spawn(&dir, &[]);
    let stats =
        stdout_of(gen2.simctl(&["cache-stats"]).output().expect("cache-stats after restart"));
    let reaped = field(&stats, "stale reaped:");
    assert!(reaped >= 2, "startup reap removed the planted orphans: {stats}");
    assert!(
        !state.join("mid_orphan-0000000000000000.sstate").exists(),
        "orphaned mid-sweep snapshot reaped"
    );
    assert!(!state.join("half-written.sstate.tmp").exists(), "staging leftover reaped");
    assert_eq!(
        count_warm_forks(&state),
        forks_before,
        "warmup forks survive the crash — restart recovery stays warm"
    );

    // The restarted daemon serves fine and reuses the persisted forks.
    let out = gen2
        .simctl(&["submit", "--workloads", "bfs.kron", "--systems", "baseline"])
        .args(WINDOW)
        .output()
        .expect("submit after restart");
    assert!(out.status.success(), "restarted daemon serves: {}", stdout_of(out));

    // Graceful exit removes the socket this time.
    let out = gen2.simctl(&["shutdown"]).output().expect("shutdown");
    assert!(out.status.success(), "graceful shutdown: {}", String::from_utf8_lossy(&out.stderr));
    let deadline = Instant::now() + Duration::from_secs(30);
    while gen2.socket.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!gen2.socket.exists(), "clean exit removes the socket file");
}

#[test]
fn simctl_reports_a_missing_daemon_as_an_error() {
    let dir = tmp_dir("nodaemon");
    let out = Command::new(env!("CARGO_BIN_EXE_simctl"))
        .arg("--socket")
        .arg(dir.join("absent.sock"))
        .arg("status")
        .output()
        .expect("run simctl");
    assert!(!out.status.success(), "no daemon -> nonzero exit");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "a readable error line: {err}");
}

fn count_warm_forks(state: &Path) -> usize {
    match std::fs::read_dir(state) {
        Ok(entries) => entries
            .flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("warm_") && name.ends_with(".sstate")
            })
            .count(),
        Err(_) => 0,
    }
}

/// Pull the integer after `label` out of simctl's aligned key-value
/// output.
fn field(text: &str, label: &str) -> u64 {
    text.lines()
        .find_map(|l| l.trim().strip_prefix(label))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("field {label:?} missing in:\n{text}"))
}
