//! The resident size of a suite graph is a function of its shape alone. A
//! packed CSR holds `words(n + 1, bits(E)) + words(E, bits(n - 1))` words of
//! 8 bytes: the offsets at the width of the edge count, the neighbour ids
//! at the width of the largest id, each with one pad word.
//!
//! The Small test pins that size for the six suite graphs. The Medium test
//! is ignored by default (six Medium builds take about 6 s in release on
//! 2 vCPUs) and runs as its own CI step:
//!     cargo test --release --test graph_footprint -- --ignored
//! It also bounds the total at 5/8 of the layout the packed arrays
//! replaced: `u64` offsets and `u32` ids, `8(n + 1) + 4E` bytes.

use gpgraph::packed::{bits, words};
use gpgraph::{GraphInput, SuiteScale};

/// `(graph, vertices, edges, footprint bytes)` of each suite graph, after
/// checking its footprint against the formula.
fn footprints(scale: SuiteScale) -> Vec<(GraphInput, usize, usize, usize)> {
    GraphInput::ALL
        .into_iter()
        .map(|input| {
            let g = gpgraph::build(input, scale);
            let (n, e) = (g.num_vertices(), g.num_edges());
            let formula = 8 * (words(n + 1, bits(e as u64)) + words(e, bits(n as u64 - 1)));
            assert_eq!(g.footprint_bytes(), formula, "{input} at {scale:?}");
            (input, n, e, formula)
        })
        .collect()
}

#[test]
fn small_suite_graph_footprints_are_pinned() {
    use GraphInput::*;
    let got: Vec<_> =
        footprints(SuiteScale::Small).into_iter().map(|(g, _, e, b)| (g, e, b)).collect();
    assert_eq!(
        got,
        [
            (Web, 1_042_352, 2_248_568),
            (Road, 246_842, 641_168),
            (Twitter, 1_294_540, 2_761_136),
            (Kron, 1_178_012, 2_528_080),
            (Urand, 1_310_506, 2_793_072),
            (Friendster, 1_828_442, 3_828_944),
        ]
    );
}

#[test]
#[ignore = "six Medium builds; run with --ignored (a CI step does)"]
fn medium_suite_graphs_take_at_most_five_eighths_of_the_unpacked_layout() {
    let all = footprints(SuiteScale::Medium);
    let packed: usize = all.iter().map(|&(_, _, _, b)| b).sum();
    let unpacked: usize = all.iter().map(|&(_, n, e, _)| 8 * (n + 1) + 4 * e).sum();
    for (input, n, e, b) in &all {
        eprintln!("{input}: {n} vertices, {e} edges, {b} bytes packed");
    }
    eprintln!("all six: {packed} bytes packed, {unpacked} unpacked");
    assert!(8 * packed <= 5 * unpacked, "{packed} packed vs {unpacked} unpacked bytes");
}
