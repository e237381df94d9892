//! Kronecker (R-MAT) generator — the construction behind GAP's `kron`
//! input (and a good stand-in for heavy-tailed social graphs).

use crate::builder::{build_csr, BuildOptions};
use crate::csr::{Csr, VertexId};
use crate::gen::par_edges;
use crate::par::host_chunks;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// R-MAT initiator probabilities used by Graph500/GAP: A=0.57, B=C=0.19.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// The R-MAT quadrant `(row bit, column bit)` for a uniform draw `r`:
/// `[0, A)` top-left, `[A, A+B)` top-right, `[A+B, A+B+C)` bottom-left,
/// the rest bottom-right. Branch-free, since an if-chain over the
/// 57/19/19/5 split mispredicts about half the time.
#[inline]
fn quadrant(r: f64) -> (u64, u64) {
    let bu = u64::from(r >= A + B);
    let bv = u64::from((A..A + B).contains(&r)) | u64::from(r >= A + B + C);
    (bu, bv)
}

/// Generate an R-MAT graph with `2^scale` vertices and `edge_factor *
/// 2^scale` undirected edges, deterministically from `seed`.
pub fn kron(scale: u32, edge_factor: usize, seed: u64) -> Csr {
    let n = 1usize << scale;
    let edges = kron_edges(scale, edge_factor, seed, host_chunks(edge_factor * n));
    build_csr(n, edges, BuildOptions { symmetrize: true, ..Default::default() })
}

/// [`kron`]'s edge list, drawn over `chunks` threads. Each edge takes
/// `scale` uniform draws, one per bit of its endpoints.
fn kron_edges(
    scale: u32,
    edge_factor: usize,
    seed: u64,
    chunks: usize,
) -> Vec<(VertexId, VertexId)> {
    let m = edge_factor << scale;
    let skip = |rng: &mut StdRng| {
        for _ in 0..scale {
            rng.next_u64();
        }
    };
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u and v have `scale` bits; build_csr rejects 2^scale vertices beyond the VertexId range"
    )]
    let draw = |rng: &mut StdRng| {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..scale {
            let (bu, bv) = quadrant(rng.random());
            u = (u << 1) | bu;
            v = (v << 1) | bv;
        }
        (u as VertexId, v as VertexId)
    };
    par_edges(m, StdRng::seed_from_u64(seed), chunks, skip, draw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    #[test]
    fn deterministic_for_a_seed() {
        let a = kron(10, 8, 42);
        let b = kron(10, 8, 42);
        assert_eq!(a, b);
        let c = kron(10, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn quadrant_matches_the_initiator_slices() {
        let chain = |r: f64| {
            if r < A {
                (0, 0)
            } else if r < A + B {
                (0, 1)
            } else if r < A + B + C {
                (1, 0)
            } else {
                (1, 1)
            }
        };
        let edges = [A, A + B, A + B + C];
        let around = edges.iter().flat_map(|&e| [e.next_down(), e, e.next_up()]);
        let grid = (0..=10_000).map(|i| f64::from(i) / 10_000.0);
        for r in around.chain(grid) {
            assert_eq!(quadrant(r), chain(r), "r = {r}");
        }
    }

    #[test]
    fn edge_list_is_the_same_for_every_chunk_count() {
        let expected = kron_edges(12, 10, 0x6809, 1);
        for chunks in 2..=5 {
            assert_eq!(kron_edges(12, 10, 0x6809, chunks), expected, "{chunks} chunks");
        }
    }

    #[test]
    fn size_is_as_requested() {
        let g = kron(12, 8, 1);
        assert_eq!(g.num_vertices(), 4096);
        // Dedup/self-loop removal shaves some edges off 2 * ef * n.
        assert!(g.num_edges() > 4096 * 8);
        assert!(g.num_edges() <= 4096 * 16);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = kron(13, 16, 7);
        let stats = DegreeStats::of(&g);
        // R-MAT: the max degree dwarfs the average (power-law-ish tail).
        assert!(stats.max as f64 > 20.0 * stats.avg, "max {} vs avg {}", stats.max, stats.avg);
    }

    #[test]
    fn symmetric_and_valid() {
        let g = kron(8, 4, 3);
        g.validate().unwrap();
        for u in g.vertex_ids() {
            for v in g.neighbors(u) {
                assert!(g.neighbors(v).any(|x| x == u), "missing reverse edge {v}->{u}");
            }
        }
    }
}
