//! Uniform-random (Erdős–Rényi-style) generator — GAP's `urand` input.
//! The degree distribution is tightly concentrated around the mean, the
//! worst case for any locality-exploiting mechanism.

use crate::builder::{build_csr, BuildOptions};
use crate::csr::{vertex, Csr, VertexId};
use crate::gen::par_edges;
use crate::par::host_chunks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a uniform random graph with `n` vertices and `edge_factor * n`
/// undirected edges.
pub fn urand(n: usize, edge_factor: usize, seed: u64) -> Csr {
    let edges = urand_edges(n, edge_factor, seed, host_chunks(edge_factor * n));
    build_csr(n, edges, BuildOptions { symmetrize: true, ..Default::default() })
}

/// [`urand`]'s edge list, drawn over `chunks` threads. A draw makes no
/// table lookup, so the pre-pass skips an edge by drawing it.
fn urand_edges(
    n: usize,
    edge_factor: usize,
    seed: u64,
    chunks: usize,
) -> Vec<(VertexId, VertexId)> {
    let draw = |rng: &mut StdRng| {
        let u = vertex(rng.random_range(0..n));
        let v = vertex(rng.random_range(0..n));
        (u, v)
    };
    let skip = |rng: &mut StdRng| {
        draw(rng);
    };
    par_edges(edge_factor * n, StdRng::seed_from_u64(seed), chunks, skip, draw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    #[test]
    fn deterministic() {
        assert_eq!(urand(1000, 8, 5), urand(1000, 8, 5));
    }

    #[test]
    fn edge_list_is_the_same_for_every_chunk_count() {
        let expected = urand_edges(4096, 10, 0x07a9d, 1);
        for chunks in 2..=5 {
            assert_eq!(urand_edges(4096, 10, 0x07a9d, chunks), expected, "{chunks} chunks");
        }
    }

    #[test]
    fn empty_graph() {
        assert_eq!(urand(0, 8, 1).num_vertices(), 0);
    }

    #[test]
    fn degrees_concentrate_near_mean() {
        let g = urand(4096, 16, 9);
        let stats = DegreeStats::of(&g);
        // Binomial concentration: max degree within a few x of the mean.
        assert!((stats.max as f64) < 4.0 * stats.avg, "max {} vs avg {}", stats.max, stats.avg);
        assert!(stats.avg > 16.0, "avg degree {}", stats.avg);
    }

    #[test]
    fn valid_and_symmetric() {
        let g = urand(512, 4, 11);
        g.validate().unwrap();
        for u in g.vertex_ids() {
            for v in g.neighbors(u) {
                assert!(g.neighbors(v).any(|x| x == u));
            }
        }
    }
}
