#![forbid(unsafe_code)]
//! CI benchmark gate: compare a fresh `figure fig7 --bench-out` summary against
//! the committed `BENCH_sim.json` baseline and fail on drift.
//!
//! Two kinds of checks with very different tolerances:
//!
//! * **Wall-clock** (`wall_seconds`, `simulated_instr_per_sec`) is noisy —
//!   CI machines and the pinned-baseline machine differ, and even one
//!   machine varies run to run by ±20–30%. The default tolerance is
//!   correspondingly generous: the gate catches order-of-magnitude
//!   regressions (an accidentally quadratic hot path), not percent-level
//!   ones.
//! * **Simulated state** (`points`, `points_ok`, `simulated_instructions`,
//!   `stall_share_*`) is deterministic: any drift beyond float formatting
//!   means the simulation changed behavior, which a perf-only PR must not
//!   do. Those tolerances are tight.
//!
//! Usage:
//!   bench_gate --baseline BENCH_sim.json --candidate target/bench_ci.json
//!              [--throughput-tol 0.35] [--wall-tol 0.55] [--stall-tol 0.02]
//!
//! Exit codes: 0 pass, 1 drift detected, 2 usage or input error.

use gpbench::Flags;
use gpworkloads::parse_json_object;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// A `figure fig7 --bench-out` summary: one flat JSON object. Values keep their
/// raw token text; numbers parse on demand (every value the gate compares
/// is either a count well below 2^53 or already a float).
struct Summary(BTreeMap<String, String>);

impl Summary {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Ok(Summary(parse_json_object(&text).map_err(|e| format!("parsing {path}: {e}"))?))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("{key}: missing"))
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        self.str(key)?.parse().map_err(|e| format!("{key}: expected a number ({e})"))
    }
}

struct Gate {
    baseline: Summary,
    candidate: Summary,
    failures: Vec<String>,
}

impl Gate {
    /// Deterministic quantity: candidate must equal baseline exactly.
    fn check_exact(&mut self, key: &str) {
        match (self.baseline.num(key), self.candidate.num(key)) {
            (Ok(b), Ok(c)) if b == c => println!("  ok    {key}: {c}"),
            (Ok(b), Ok(c)) => self.failures.push(format!("{key}: {c} != baseline {b}")),
            (Err(e), _) | (_, Err(e)) => self.failures.push(e),
        }
    }

    fn check_str(&mut self, key: &str) {
        match (
            self.baseline.str(key).map(str::to_string),
            self.candidate.str(key).map(str::to_string),
        ) {
            (Ok(b), Ok(c)) if b == c => println!("  ok    {key}: {c}"),
            (Ok(b), Ok(c)) => self.failures.push(format!("{key}: {c:?} != baseline {b:?}")),
            (Err(e), _) | (_, Err(e)) => self.failures.push(e),
        }
    }

    /// Deterministic share in [0, 1]: absolute drift beyond `tol` fails.
    fn check_share(&mut self, key: &str, tol: f64) {
        match (self.baseline.num(key), self.candidate.num(key)) {
            (Ok(b), Ok(c)) if (c - b).abs() <= tol => {
                println!("  ok    {key}: {c:.6} (baseline {b:.6}, |Δ| <= {tol})");
            }
            (Ok(b), Ok(c)) => self.failures.push(format!(
                "{key}: {c:.6} drifted from baseline {b:.6} by {:.6} (tol {tol})",
                (c - b).abs()
            )),
            (Err(e), _) | (_, Err(e)) => self.failures.push(e),
        }
    }

    /// Noisy wall-clock quantity: a rate (`floor`) must stay above
    /// `baseline * (1 - tol)`, a duration below `baseline * (1 + tol)`.
    fn check_bound(&mut self, key: &str, tol: f64, floor: bool) {
        let (limit, side, sign, dp) =
            if floor { (1.0 - tol, "floor", '-', 0) } else { (1.0 + tol, "ceiling", '+', 3) };
        let pct = tol * 100.0;
        match (self.baseline.num(key), self.candidate.num(key)) {
            (Ok(b), Ok(c)) if (c >= b * limit) == floor || c == b * limit => println!(
                "  ok    {key}: {c:.dp$} ({side} {:.dp$} = baseline {b:.dp$} {sign} {pct:.0}%)",
                b * limit
            ),
            (Ok(b), Ok(c)) => self.failures.push(format!(
                "{key}: {c:.dp$} {} {side} {:.dp$} (baseline {b:.dp$}, tol {pct:.0}%)",
                if floor { "below" } else { "above" },
                b * limit
            )),
            (Err(e), _) | (_, Err(e)) => self.failures.push(e),
        }
    }

    /// Every candidate point must have simulated successfully.
    fn check_all_ok(&mut self) {
        match (self.candidate.num("points"), self.candidate.num("points_ok")) {
            (Ok(p), Ok(ok)) if p == ok => println!("  ok    points_ok: {ok} of {p}"),
            (Ok(p), Ok(ok)) => {
                self.failures.push(format!("points_ok: only {ok} of {p} points simulated ok"));
            }
            (Err(e), _) | (_, Err(e)) => self.failures.push(e),
        }
    }
}

struct Args {
    baseline: String,
    candidate: String,
    throughput_tol: f64,
    wall_tol: f64,
    stall_tol: f64,
}

fn parse_args() -> Result<Args, String> {
    let valued = ["--baseline", "--candidate", "--throughput-tol", "--wall-tol", "--stall-tol"];
    let flags = Flags::parse(std::env::args().skip(1), &valued, &[])?;
    let path = |flag: &str| {
        flags.value(flag).map(str::to_string).ok_or(format!("{flag} PATH is required"))
    };
    Ok(Args {
        baseline: path("--baseline")?,
        candidate: path("--candidate")?,
        // Wall-clock tolerances are deliberately loose (see module docs):
        // the committed baseline and a CI runner are different machines.
        throughput_tol: flags.number("--throughput-tol", 0.35)?,
        wall_tol: flags.number("--wall-tol", 0.55)?,
        // Stall shares are simulated state; 0.02 absorbs only sub-percent
        // formatting/aggregation wiggle, not behavior change.
        stall_tol: flags.number("--stall-tol", 0.02)?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench_gate --baseline BENCH_sim.json --candidate bench_ci.json \
                 [--throughput-tol F] [--wall-tol F] [--stall-tol F]"
            );
            return ExitCode::from(2);
        }
    };
    let (baseline, candidate) =
        match (Summary::load(&args.baseline), Summary::load(&args.candidate)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };

    println!("bench-gate: {} vs baseline {}", args.candidate, args.baseline);
    let mut gate = Gate { baseline, candidate, failures: Vec::new() };

    // The candidate must be the same experiment as the baseline...
    gate.check_str("bench");
    gate.check_str("scale");
    gate.check_exact("warmup_instructions");
    gate.check_exact("measure_instructions");
    gate.check_exact("points");
    gate.check_all_ok();
    // ...simulating identical work (bit-identity at sweep granularity)...
    gate.check_exact("simulated_instructions");
    gate.check_exact("stall_profile_points");
    // ...with the same stall attribution (deterministic, tight)...
    gate.check_share("stall_share_rob_full", args.stall_tol);
    gate.check_share("stall_share_mshr_full", args.stall_tol);
    gate.check_share("stall_share_dram_wait", args.stall_tol);
    gate.check_share("stall_share_busy", args.stall_tol);
    // ...at no worse than baseline speed minus machine noise (loose).
    gate.check_bound("simulated_instr_per_sec", args.throughput_tol, true);
    gate.check_bound("wall_seconds", args.wall_tol, false);

    if gate.failures.is_empty() {
        println!("bench-gate: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &gate.failures {
            eprintln!("  FAIL  {f}");
        }
        eprintln!("bench-gate: {} check(s) drifted", gate.failures.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_committed_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
        let b = Summary::load(path).unwrap();
        assert_eq!(b.str("bench").unwrap(), "fig7");
        assert_eq!(b.str("scale").unwrap(), "small");
        assert_eq!(b.num("points").unwrap(), b.num("points_ok").unwrap());
        assert!(b.num("simulated_instr_per_sec").unwrap() > 0.0);
        // The last entry ends at a newline, not at a comma.
        assert!(b.num("stall_share_busy").unwrap() > 0.0);
    }

    #[test]
    fn strings_with_commas_and_non_numbers() {
        let s = Summary(parse_json_object("{\"note\": \"a, b\",\n \"k\": nope\n}").unwrap());
        assert_eq!(s.str("note").unwrap(), "a, b");
        assert!(s.num("k").is_err());
        assert!(s.num("missing").is_err());
        assert!(parse_json_object("[1, 2]").is_err());
        assert!(parse_json_object("{\"k\" 1}").is_err());
        assert!(parse_json_object("{k: 1}").is_err());
    }

    #[test]
    fn tolerances_gate_the_right_direction() {
        let mk = |rate: f64, share: f64| {
            Summary(
                [
                    ("simulated_instr_per_sec".to_string(), rate.to_string()),
                    ("stall_share_busy".to_string(), share.to_string()),
                ]
                .into_iter()
                .collect(),
            )
        };
        // 30% slower passes a 35% floor; 50% slower fails it.
        let mut g = Gate { baseline: mk(1000.0, 0.5), candidate: mk(700.0, 0.5), failures: vec![] };
        g.check_bound("simulated_instr_per_sec", 0.35, true);
        assert!(g.failures.is_empty());
        let mut g = Gate { baseline: mk(1000.0, 0.5), candidate: mk(500.0, 0.5), failures: vec![] };
        g.check_bound("simulated_instr_per_sec", 0.35, true);
        assert_eq!(g.failures.len(), 1);
        // A faster candidate always passes.
        let mut g =
            Gate { baseline: mk(1000.0, 0.5), candidate: mk(2000.0, 0.5), failures: vec![] };
        g.check_bound("simulated_instr_per_sec", 0.35, true);
        assert!(g.failures.is_empty());
        // Stall shares: 0.01 drift passes at 0.02, 0.05 drift fails.
        let mut g = Gate { baseline: mk(1.0, 0.50), candidate: mk(1.0, 0.51), failures: vec![] };
        g.check_share("stall_share_busy", 0.02);
        assert!(g.failures.is_empty());
        let mut g = Gate { baseline: mk(1.0, 0.50), candidate: mk(1.0, 0.55), failures: vec![] };
        g.check_share("stall_share_busy", 0.02);
        assert_eq!(g.failures.len(), 1);
        // Durations gate the other way: 50% slower passes a 55% ceiling,
        // twice as slow fails it.
        let wall = |secs: f64| Summary([("wall_seconds".to_string(), secs.to_string())].into());
        let mut g = Gate { baseline: wall(10.0), candidate: wall(15.0), failures: vec![] };
        g.check_bound("wall_seconds", 0.55, false);
        assert!(g.failures.is_empty());
        let mut g = Gate { baseline: wall(10.0), candidate: wall(20.0), failures: vec![] };
        g.check_bound("wall_seconds", 0.55, false);
        assert_eq!(g.failures.len(), 1);
    }
}
