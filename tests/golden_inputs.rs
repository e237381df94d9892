//! Golden input identity: the six suite graphs and the kernel traces
//! recorded on them must stay byte-identical.
//!
//! `golden_sim_results.json` replays a synthetic trace, so it cannot see a
//! generator or a hinted kernel drift. This test pins, at Small scale, an
//! FNV-1a checksum of each suite graph (offsets + neighbors) and the
//! `trace_checksum` of all six kernels' traces the experiment runner
//! records on it (`pr` and `cc` carry T-OPT next-use hints, the others do
//! not). Pure speedups of the generators, the kernels (including `bc`'s
//! source choice) or the oracle must leave
//! `tests/fixtures/golden_inputs.txt` unchanged.
//!
//! To re-pin after an *intentional* change to a generator or kernel:
//!     GOLDEN_REGEN=1 cargo test --test golden_inputs
//! and commit the updated fixture.

use gpgraph::{Csr, GraphInput};
use gpkernels::Kernel;
use gpworkloads::{Runner, Workload};
use simcore::trace_io::trace_checksum;
use simstate::Fnv1a;

fn graph_checksum(g: &Csr) -> u64 {
    let mut h = Fnv1a::new();
    for o in g.offsets() {
        h.update(&o.to_le_bytes());
    }
    for v in g.raw_neighbors() {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

fn report() -> String {
    let runner = Runner::quick();
    let mut out = String::new();
    for graph in GraphInput::ALL {
        let input = runner.input(graph);
        out.push_str(&format!("graph/{graph}: {:016x}\n", graph_checksum(&input.csr)));
        // `bc`, `tc` and `sssp` follow the first three so the older lines
        // keep their place in the fixture.
        for kernel in [Kernel::Pr, Kernel::Cc, Kernel::Bfs, Kernel::Bc, Kernel::Tc, Kernel::Sssp] {
            let w = Workload::new(kernel, graph);
            out.push_str(&format!("trace/{w}: {:016x}\n", trace_checksum(&runner.trace(w))));
            runner.evict_trace(w);
        }
        runner.evict_graph(graph);
    }
    out
}

#[test]
fn suite_graphs_and_kernel_traces_are_bit_identical() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_inputs.txt");
    let actual = report();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(path, &actual).expect("write golden fixture");
        eprintln!("golden fixture regenerated at {path}");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden fixture missing; regenerate with GOLDEN_REGEN=1");
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(
            a, e,
            "a suite graph or kernel trace diverged from the golden fixture; \
             if this change is intentional, re-pin with GOLDEN_REGEN=1"
        );
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "fixture line count changed");
}
