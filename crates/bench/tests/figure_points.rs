//! Pins every sweep row's point identities: `tag workload label
//! config_hash` for each point of `FIGURES` at Tiny scale, then
//! `dram_sweep`'s points under its default flags. Batch resume and the
//! simserve daemon's result cache key points on these, so a spec-table
//! edit that renames a label or changes a config repr must show up here.
//! Built from the spec table alone; nothing is simulated.

use gpbench::figures::{dram_sweep_points, find, FIGURES};
use gpbench::HarnessOpts;
use gpworkloads::{MatrixPoint, Runner};

#[test]
fn figure_points_match_the_pinned_identities() {
    let dram_sweep = find("dram_sweep").unwrap();
    let args = ["--scale", "tiny"].map(String::from);
    let (opts, flags) = HarnessOpts::parse_with(args, dram_sweep.flags).unwrap();
    let runner = Runner::new(opts.scale, opts.window);
    let mut rows: Vec<(&str, Vec<MatrixPoint>)> = FIGURES
        .iter()
        .flat_map(|f| f.sweeps)
        .map(|sweep| (sweep.tag, sweep.points(&opts, &runner.sdclp).0))
        .collect();
    rows.push(("dram_sweep", dram_sweep_points(&opts, &flags, &runner.sdclp).unwrap().2));
    let mut got = Vec::new();
    for (tag, points) in rows {
        for p in points {
            let hash = p.system.config_hash(&runner);
            got.push(format!("{tag} {} {} {hash}", p.workload.name(), p.system.label()));
        }
    }
    let want: Vec<&str> = include_str!("fixtures/figure_points.txt").lines().collect();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "point {i} of the spec table");
    }
    assert_eq!(got.len(), want.len(), "point count");
}
