//! Randomized integration tests over the core data structures and the
//! kernel/reference equivalences.
//!
//! Originally written against `proptest`; rewritten as seeded-RNG case
//! loops so the suite runs in the offline build environment (the vendored
//! `rand` stand-in is deterministic for a fixed seed, so failures are
//! reproducible — re-run with the printed case number to isolate one).

use gpgraph::{build_csr, transpose, BuildOptions, Csr};
use gpkernels::input::KernelInput;
use gpkernels::{cc, reference, sssp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdclp::{LargePredictor, LpConfig, Route};
use simcore::cache::Cache;
use simcore::config::{CacheConfig, PrefetcherKind, ReplacementKind};
use simcore::replacement::ReplCtx;
use simcore::trace::NullTracer;

const CASES: u64 = 64;

/// Random edge list over up to 64 vertices (mirrors the old proptest
/// `edges_strategy`).
fn random_edges(rng: &mut StdRng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.random_range(2usize..64);
    let m = rng.random_range(0usize..200);
    #[expect(clippy::cast_possible_truncation, reason = "n is below 64")]
    let ids = n as u32;
    let edges = (0..m).map(|_| (rng.random_range(0..ids), rng.random_range(0..ids))).collect();
    (n, edges)
}

#[test]
fn built_csr_is_always_valid() {
    let mut rng = StdRng::seed_from_u64(0xC5A0);
    for case in 0..CASES {
        let (n, edges) = random_edges(&mut rng);
        let g = build_csr(n, edges, BuildOptions::default());
        assert!(g.validate().is_ok(), "case {case}");
        assert!(g.is_sorted(), "case {case}");
    }
}

#[test]
fn transpose_is_involutive() {
    let mut rng = StdRng::seed_from_u64(0xC5A1);
    for case in 0..CASES {
        let (n, edges) = random_edges(&mut rng);
        let g = build_csr(n, edges, BuildOptions::default());
        let tt = transpose(&transpose(&g));
        assert_eq!(g, tt, "case {case}");
    }
}

#[test]
fn symmetrized_graph_equals_own_transpose() {
    let mut rng = StdRng::seed_from_u64(0xC5A2);
    for case in 0..CASES {
        let (n, edges) = random_edges(&mut rng);
        let g = build_csr(n, edges, BuildOptions { symmetrize: true, ..Default::default() });
        assert_eq!(transpose(&g), g, "case {case}");
    }
}

#[test]
fn cc_equivalent_to_union_find() {
    let mut rng = StdRng::seed_from_u64(0xC5A3);
    for case in 0..CASES {
        let (n, edges) = random_edges(&mut rng);
        let g = build_csr(n, edges, BuildOptions { symmetrize: true, ..Default::default() });
        let input = KernelInput::from_symmetric(g);
        let got = cc::connected_components(&input, 0, &mut NullTracer::new());
        let expected = reference::cc_union_find(&input.csr);
        // Same-component relation must coincide.
        for u in 0..input.num_vertices() {
            for v in (u + 1)..input.num_vertices() {
                assert_eq!(
                    got.comp[u] == got.comp[v],
                    expected[u] == expected[v],
                    "case {case}: vertices {u} and {v}"
                );
            }
        }
    }
}

#[test]
fn sssp_equals_dijkstra() {
    let mut rng = StdRng::seed_from_u64(0xC5A4);
    for case in 0..CASES {
        let (n, edges) = random_edges(&mut rng);
        let delta = rng.random_range(1u64..64);
        let g = build_csr(n, edges, BuildOptions { symmetrize: true, ..Default::default() });
        let input = KernelInput::from_symmetric(g);
        let src = input.default_source();
        let got = sssp::sssp(&input, 0, src, delta, &mut NullTracer::new());
        assert!(got.complete, "case {case}");
        assert_eq!(got.dist, reference::dijkstra(&input.csr, src), "case {case}");
    }
}

#[test]
fn lp_accumulator_never_exceeds_14_bits() {
    let mut rng = StdRng::seed_from_u64(0xC5A5);
    for case in 0..CASES {
        let len = rng.random_range(1usize..300);
        let mut lp = LargePredictor::new(LpConfig::table1());
        for _ in 0..len {
            let pc = rng.random_range(0u64..64);
            let block = rng.random_range(0u64..(1 << 40));
            lp.predict_and_train(pc, block);
            if let Some(acc) = lp.accumulator_of(pc) {
                assert!(acc <= sdclp::lp::S_ACC_MAX, "case {case}");
            }
        }
    }
}

#[test]
fn lp_first_access_of_a_pc_never_routes_to_sdc() {
    let mut rng = StdRng::seed_from_u64(0xC5A6);
    for case in 0..CASES {
        let pc = rng.random_range(0u64..1000);
        let block = rng.random_range(0u64..(1 << 40));
        let mut lp = LargePredictor::new(LpConfig::table1());
        assert_eq!(lp.predict_and_train(pc, block), Route::Hierarchy, "case {case}");
    }
}

#[test]
fn cache_never_exceeds_capacity_and_keeps_mru() {
    let mut rng = StdRng::seed_from_u64(0xC5A7);
    for case in 0..CASES {
        let len = rng.random_range(1usize..500);
        let mut cache = Cache::new(&CacheConfig {
            sets: 16,
            ways: 4,
            latency: 1,
            mshr_entries: 4,
            replacement: ReplacementKind::Lru,
            prefetcher: PrefetcherKind::None,
        });
        for _ in 0..len {
            let b = rng.random_range(0u64..4096);
            let addr = b << 6;
            cache.access(addr, b, false, ReplCtx::NONE);
            cache.fill(addr, b, false, false, ReplCtx::NONE);
            // The block just filled must be resident (MRU is never the
            // victim of its own fill).
            assert!(cache.probe(b), "case {case}");
            assert!(cache.occupancy() <= 64, "case {case}");
        }
    }
}

#[test]
fn dram_completion_after_issue() {
    let mut rng = StdRng::seed_from_u64(0xC5A8);
    for case in 0..CASES {
        let len = rng.random_range(1usize..200);
        let mut dram = simcore::dram::Dram::new(&simcore::SystemConfig::baseline(1).dram);
        let mut now = 0u64;
        for _ in 0..len {
            let b = rng.random_range(0u64..(1u64 << 30));
            let done = dram.access(b, false, now);
            assert!(done > now, "case {case}");
            now += 3;
        }
    }
}

/// Non-random sanity: the suite builder's graphs stay connected enough for
/// traversal kernels to do real work.
#[test]
fn suite_graphs_have_giant_components() {
    use gpgraph::{build, GraphInput, SuiteScale};
    for g in [GraphInput::Kron, GraphInput::Urand, GraphInput::Friendster] {
        let csr = build(g, SuiteScale::Tiny);
        let input = KernelInput::from_symmetric(csr);
        let src = input.default_source();
        let levels = reference::bfs_levels(&input.csr, src);
        let reached = levels.iter().filter(|&&d| d != u32::MAX).count();
        assert!(
            reached * 2 > input.num_vertices(),
            "{g}: giant component only {reached}/{}",
            input.num_vertices()
        );
    }
}

/// The Csr type rejects malformed inputs (panic-based contract).
#[test]
#[should_panic(expected = "invalid CSR")]
fn csr_rejects_decreasing_offsets() {
    let _ = Csr::from_raw(vec![0, 5, 3], vec![0, 0, 0, 0, 0]);
}
