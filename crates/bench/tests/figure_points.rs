//! Pins every sweep row's point identities: `tag workload label
//! config_hash` for each point of `FIGURES` at Tiny scale. Batch resume and
//! the simserve daemon's result cache key points on these, so a spec-table
//! edit that renames a label or changes a config repr must show up here.
//! Built from the spec table alone; nothing is simulated.

use gpbench::figures::FIGURES;
use gpbench::HarnessOpts;
use gpworkloads::Runner;

#[test]
fn figure_points_match_the_pinned_identities() {
    let opts = HarnessOpts::parse(["--scale", "tiny"].map(String::from)).unwrap();
    let runner = Runner::new(opts.scale, opts.window);
    let mut got = Vec::new();
    for sweep in FIGURES.iter().flat_map(|f| f.sweeps) {
        for p in sweep.points(&opts, &runner.sdclp).0 {
            let hash = p.system.config_hash(&runner);
            got.push(format!("{} {} {} {hash}", sweep.tag, p.workload.name(), p.system.label()));
        }
    }
    let want: Vec<&str> = include_str!("fixtures/figure_points.txt").lines().collect();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "point {i} of the spec table");
    }
    assert_eq!(got.len(), want.len(), "point count");
}
