#![forbid(unsafe_code)]
//! CI benchmark gate: compare a fresh `fig7 --bench-out` summary against
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

use gpworkloads::parse_json_object;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// A `fig7 --bench-out` summary: one flat JSON object. Values keep their
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

    /// Noisy wall-clock rate: candidate must stay above `baseline * (1 - tol)`.
    fn check_rate_floor(&mut self, key: &str, tol: f64) {
        match (self.baseline.num(key), self.candidate.num(key)) {
            (Ok(b), Ok(c)) if c >= b * (1.0 - tol) => {
                println!(
                    "  ok    {key}: {c:.0} (floor {:.0} = baseline {b:.0} - {:.0}%)",
                    b * (1.0 - tol),
                    tol * 100.0
                );
            }
            (Ok(b), Ok(c)) => self.failures.push(format!(
                "{key}: {c:.0} below floor {:.0} (baseline {b:.0}, tol {:.0}%)",
                b * (1.0 - tol),
                tol * 100.0
            )),
            (Err(e), _) | (_, Err(e)) => self.failures.push(e),
        }
    }

    /// Noisy wall-clock duration: candidate must stay below
    /// `baseline * (1 + tol)`.
    fn check_time_ceiling(&mut self, key: &str, tol: f64) {
        match (self.baseline.num(key), self.candidate.num(key)) {
            (Ok(b), Ok(c)) if c <= b * (1.0 + tol) => {
                println!(
                    "  ok    {key}: {c:.3} (ceiling {:.3} = baseline {b:.3} + {:.0}%)",
                    b * (1.0 + tol),
                    tol * 100.0
                );
            }
            (Ok(b), Ok(c)) => self.failures.push(format!(
                "{key}: {c:.3} above ceiling {:.3} (baseline {b:.3}, tol {:.0}%)",
                b * (1.0 + tol),
                tol * 100.0
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
    let mut baseline = None;
    let mut candidate = None;
    // Wall-clock tolerances are deliberately loose (see module docs): the
    // committed baseline and a CI runner are different machines.
    let mut throughput_tol = 0.35;
    let mut wall_tol = 0.55;
    // Stall shares are simulated state; 0.02 absorbs only sub-percent
    // formatting/aggregation wiggle, not behavior change.
    let mut stall_tol = 0.02;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut f64_arg = |name: &str| -> Result<f64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("bad {name}: {e}"))
        };
        match arg.as_str() {
            "--baseline" => baseline = it.next(),
            "--candidate" => candidate = it.next(),
            "--throughput-tol" => throughput_tol = f64_arg("--throughput-tol")?,
            "--wall-tol" => wall_tol = f64_arg("--wall-tol")?,
            "--stall-tol" => stall_tol = f64_arg("--stall-tol")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline PATH is required")?,
        candidate: candidate.ok_or("--candidate PATH is required")?,
        throughput_tol,
        wall_tol,
        stall_tol,
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
    gate.check_rate_floor("simulated_instr_per_sec", args.throughput_tol);
    gate.check_time_ceiling("wall_seconds", args.wall_tol);

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
        g.check_rate_floor("simulated_instr_per_sec", 0.35);
        assert!(g.failures.is_empty());
        let mut g = Gate { baseline: mk(1000.0, 0.5), candidate: mk(500.0, 0.5), failures: vec![] };
        g.check_rate_floor("simulated_instr_per_sec", 0.35);
        assert_eq!(g.failures.len(), 1);
        // A faster candidate always passes.
        let mut g =
            Gate { baseline: mk(1000.0, 0.5), candidate: mk(2000.0, 0.5), failures: vec![] };
        g.check_rate_floor("simulated_instr_per_sec", 0.35);
        assert!(g.failures.is_empty());
        // Stall shares: 0.01 drift passes at 0.02, 0.05 drift fails.
        let mut g = Gate { baseline: mk(1.0, 0.50), candidate: mk(1.0, 0.51), failures: vec![] };
        g.check_share("stall_share_busy", 0.02);
        assert!(g.failures.is_empty());
        let mut g = Gate { baseline: mk(1.0, 0.50), candidate: mk(1.0, 0.55), failures: vec![] };
        g.check_share("stall_share_busy", 0.02);
        assert_eq!(g.failures.len(), 1);
    }
}
