//! Graph transposition: CSR (outgoing) ↔ CSC (incoming).
//!
//! Pull-style kernels (PageRank, pull-BFS) iterate incoming neighbors, and
//! the T-OPT replacement baseline derives its next-reference oracle from
//! the transpose — exactly what this module provides.

use crate::csr::{slot, Csr, VertexId};

/// Transpose `g`: the result's neighbor lists are the incoming neighbors
/// of each vertex, sorted ascending.
pub fn transpose(g: &Csr) -> Csr {
    let n = g.num_vertices();
    let mut degree = vec![0u64; n];
    for v in g.raw_neighbors() {
        degree[v as usize] += 1;
    }
    let mut offsets = vec![0u64; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degree[v];
    }
    let mut neighbors = vec![0 as VertexId; g.num_edges()];
    let mut cursor = offsets[..n].to_vec();
    // Iterating sources in ascending order yields sorted incoming lists.
    for u in g.vertex_ids() {
        for v in g.neighbors(u) {
            neighbors[slot(cursor[v as usize])] = u;
            cursor[v as usize] += 1;
        }
    }
    Csr::from_raw(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_csr, BuildOptions};

    fn fig1() -> Csr {
        Csr::from_raw(vec![0, 2, 3, 4, 5], vec![1, 2, 2, 0, 2])
    }

    #[test]
    fn fig1_transpose_matches_paper_csc() {
        // The paper's Fig. 1 CSC: incoming(0) = {2}, incoming(1) = {0},
        // incoming(2) = {0, 1, 3}, incoming(3) = {}.
        let t = transpose(&fig1());
        let rows: Vec<Vec<VertexId>> = t.vertex_ids().map(|v| t.neighbors(v).collect()).collect();
        assert_eq!(rows, [vec![2], vec![0], vec![0, 1, 3], vec![]]);
    }

    #[test]
    fn double_transpose_is_identity_for_sorted_graphs() {
        let g = fig1();
        assert_eq!(transpose(&transpose(&g)), g);
    }

    #[test]
    fn transpose_preserves_edge_count() {
        let edges: Vec<(u32, u32)> = (0..200).map(|i| ((i * 7) % 50, (i * 13 + 3) % 50)).collect();
        let g = build_csr(50, edges, BuildOptions::default());
        let t = transpose(&g);
        assert_eq!(g.num_edges(), t.num_edges());
        t.validate().unwrap();
        assert!(t.is_sorted());
    }

    #[test]
    fn symmetric_graph_transpose_is_itself() {
        let edges = vec![(0, 1), (1, 2), (2, 0)];
        let g = build_csr(3, edges, BuildOptions { symmetrize: true, ..Default::default() });
        assert_eq!(transpose(&g), g);
    }
}
