//! Integration-level kernel correctness: the instrumented kernels, run on
//! the real suite graphs (tiny scale), must agree with the independent
//! reference implementations regardless of how their traces are consumed.

use gpgraph::{build, GraphInput, SuiteScale};
use gpkernels::input::KernelInput;
use gpkernels::{bc, bfs, cc, pr, reference, sssp, tc};
use simcore::trace::NullTracer;

fn input(g: GraphInput) -> KernelInput {
    KernelInput::from_symmetric(build(g, SuiteScale::Tiny))
}

#[test]
fn bfs_correct_on_every_suite_graph() {
    for g in GraphInput::ALL {
        let input = input(g);
        let source = input.default_source();
        let result = bfs::bfs(&input, 0, source, &mut NullTracer::new());
        let levels = reference::bfs_levels(&input.csr, source);
        #[allow(clippy::needless_range_loop)]
        for v in 0..input.num_vertices() {
            if levels[v] == u32::MAX {
                assert_eq!(result.parent[v], bfs::UNVISITED, "{g}: vertex {v}");
            } else {
                assert_eq!(result.depth[v], levels[v], "{g}: vertex {v}");
            }
        }
    }
}

#[test]
fn pagerank_correct_on_every_suite_graph() {
    for g in GraphInput::ALL {
        let input = input(g);
        let result = pr::pagerank(&input, 0, 0.85, 1e-8, 50, &mut NullTracer::new());
        let expected = reference::pagerank_dense(&input.csr, 0.85, 1e-8, 50);
        for (a, b) in result.scores.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-8, "{g}: {a} vs {b}");
        }
    }
}

#[test]
fn cc_partitions_match_union_find_on_every_suite_graph() {
    for g in GraphInput::ALL {
        let input = input(g);
        let result = cc::connected_components(&input, 0, &mut NullTracer::new());
        let expected = reference::cc_union_find(&input.csr);
        // Partitions agree iff the label-pair mapping is a bijection.
        let mut seen = std::collections::BTreeMap::new();
        for (&a, &b) in result.comp.iter().zip(&expected) {
            let prev = seen.insert(a, b);
            assert!(prev.is_none_or(|p| p == b), "{g}: inconsistent labels");
        }
    }
}

#[test]
fn sssp_matches_dijkstra_on_power_law_graphs() {
    for g in [GraphInput::Kron, GraphInput::Twitter] {
        let input = input(g);
        let source = input.default_source();
        let result = sssp::sssp(&input, 0, source, 8, &mut NullTracer::new());
        assert!(result.complete);
        assert_eq!(result.dist, reference::dijkstra(&input.csr, source), "{g}");
    }
}

#[test]
fn tc_matches_brute_force_on_road() {
    // Road is sparse enough for the brute-force reference at tiny scale.
    let input = input(GraphInput::Road);
    let result = tc::triangle_count(&input, 0, &mut NullTracer::new());
    assert!(result.complete);
    assert_eq!(result.triangles, reference::triangle_count_brute(&input.csr));
}

#[test]
fn bc_matches_brandes_on_web() {
    let input = input(GraphInput::Web);
    let sources = bc::pick_sources(&input, 4);
    let result = bc::betweenness(&input, 0, &sources, &mut NullTracer::new());
    let expected = reference::bc_brandes(&input.csr, &sources);
    for (a, b) in result.centrality.iter().zip(&expected) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}
