//! Runs every workload at Tiny scale with short windows, untraced and
//! traced, and checks that each metric `BENCHMARK.json` names is printed
//! with its unit and that the output checks pass.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let body = text.split(&format!("\"{section}\"")).nth(1).expect("section present");
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

fn workloads() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let body = text.split("\"workloads\"").nth(1).expect("workloads present");
    let body = &body[..body.find(']').expect("workloads close")];
    body.lines()
        .filter_map(|l| l.split("\"name\": \"").nth(1).and_then(|r| r.split('"').next()))
        .map(str::to_string)
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace"])
        .arg(trace.to_string())
        .arg("--smoke")
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let names = workloads();
    assert_eq!(names, ["fig7-medium", "mix4-medium", "serve-overlap"]);
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for w in &names {
            let line = run(w, trace);
            assert!(line.starts_with("{\"correct\": true, "), "{w}: {line}");
            assert!(line.contains("\"failed\": 0,"), "{w}: {line}");
            for (name, unit) in &metrics {
                let want = format!("\"{name}\": {{\"value\": ");
                let at = line.find(&want).unwrap_or_else(|| panic!("{w}: {name} missing"));
                let rest = &line[at + want.len()..];
                let end = rest.find(',').expect("value ends");
                let value: f64 = rest[..end].parse().expect("number");
                assert!(value.is_finite(), "{w}: {name} = {value}");
                let unit_field = format!(", \"unit\": \"{unit}\"}}");
                assert!(rest[end..].starts_with(&unit_field), "{w}: {name} lacks unit {unit}");
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
