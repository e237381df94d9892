//! `simctl`'s exit status: 2 for a bad command line, 1 for a daemon error.

use std::path::PathBuf;
use std::process::Command;

fn simctl(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_simctl")).args(args).output().expect("run simctl");
    out.status.code()
}

fn absent_socket() -> PathBuf {
    std::env::temp_dir().join(format!("simctl-exit-{}.sock", std::process::id()))
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(simctl(&[]), Some(2), "no command");
    assert_eq!(simctl(&["frobnicate"]), Some(2), "unknown command");
    assert_eq!(simctl(&["--socket"]), Some(2), "--socket without a path");
}

#[test]
fn a_missing_daemon_exits_1() {
    let socket = absent_socket();
    let socket = socket.to_str().expect("utf-8 temp path");
    assert_eq!(simctl(&["--socket", socket, "status"]), Some(1));
}
