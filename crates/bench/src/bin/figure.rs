#![forbid(unsafe_code)]
//! Regenerate one of the paper's tables or figures (or an ablation or
//! diagnostic sweep): `figure fig7 --quick`, `figure --list`.
//!
//! ```text
//! cargo run --release -p gpbench --bin figure -- fig7 --scale tiny --only kron
//! ```
//!
//! The first argument names a row of `gpbench::figures::FIGURES`; the
//! shared harness flags follow (`--scale`, `--only`, `--manifest`,
//! `--resume`, `--telemetry`, `--bench-out`, ...), plus any flag the row
//! declares (`fig14 --mixes N`).

use gpbench::figures::{find, run_figure, FIGURES};
use gpbench::{usage_exit, HarnessOpts};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "--list" {
        for fig in FIGURES {
            let title = fig.title.replace(" ({scale} scale)", "").replace(", {scale} scale", "");
            println!("{:<16} {title}", fig.name);
        }
        return ExitCode::SUCCESS;
    }
    let Some(fig) = find(&name) else {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!("error: unknown figure {name:?}; usage: figure <name> [flags] | figure --list");
        eprintln!("figures: {}", names.join(" "));
        return ExitCode::from(2);
    };
    let usage = |e: String| -> ! { usage_exit(&e, &HarnessOpts::flags(fig.flags)) };
    let (opts, flags) = HarnessOpts::parse_with(args, fig.flags).unwrap_or_else(|e| usage(e));
    run_figure(fig, &opts, &flags).unwrap_or_else(|e| usage(e))
}
