//! Independent, uninstrumented reference implementations used by the test
//! suite to validate the traced kernels' computational results. These are
//! deliberately the *textbook* algorithms (dense PageRank, union-find,
//! Dijkstra with a binary heap, brute-force triangle counting), not the
//! GAP formulations the traced kernels use, so agreement is meaningful.

use gpgraph::{Csr, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// BFS depth of every vertex from `source` (`u32::MAX` = unreachable).
pub fn bfs_levels(g: &Csr, source: VertexId) -> Vec<u32> {
    let mut depth = vec![u32::MAX; g.num_vertices()];
    depth[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if depth[v as usize] == u32::MAX {
                depth[v as usize] = depth[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    depth
}

/// Dense power-iteration PageRank (same damping/convergence semantics as
/// the paper's Algorithm 1).
pub fn pagerank_dense(g: &Csr, damping: f64, epsilon: f64, max_iters: u32) -> Vec<f64> {
    let n = g.num_vertices();
    let mut scores = vec![1.0 / n as f64; n];
    let base = (1.0 - damping) / n as f64;
    for _ in 0..max_iters {
        let mut contrib = vec![0.0; n];
        for ((v, c), score) in g.vertex_ids().zip(&mut contrib).zip(&scores) {
            let d = g.degree(v);
            if d > 0 {
                *c = score / d as f64;
            }
        }
        let mut error = 0.0;
        let mut next = vec![0.0; n];
        for ((u, nu), score) in g.vertex_ids().zip(&mut next).zip(&scores) {
            let sum: f64 = g.neighbors(u).map(|v| contrib[v as usize]).sum();
            *nu = base + damping * sum;
            error += (*nu - score).abs();
        }
        scores = next;
        if error < epsilon {
            break;
        }
    }
    scores
}

/// Connected components by union-find; returns a canonical label per
/// vertex (the minimum vertex id in its component).
pub fn cc_union_find(g: &Csr) -> Vec<VertexId> {
    let mut parent: Vec<u32> = g.vertex_ids().collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for (u, v) in g.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    g.vertex_ids().map(|v| find(&mut parent, v)).collect()
}

/// Exact triangle count (each triangle counted once).
pub fn triangle_count_brute(g: &Csr) -> u64 {
    // For every edge (u, v) with u < v, count common neighbors w > v.
    let mut count = 0u64;
    for u in g.vertex_ids() {
        let row_u: Vec<VertexId> = g.neighbors(u).collect();
        for &v in &row_u {
            if v <= u {
                continue;
            }
            for w in g.neighbors(v) {
                if w <= v {
                    continue;
                }
                if row_u.binary_search(&w).is_ok() {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Deterministic synthetic edge weight in `1..=31`, shared with the traced
/// SSSP kernel (the GAP generator attaches uniform random weights; ours are
/// a hash so both implementations agree without storing them).
#[inline]
pub fn edge_weight(u: VertexId, v: VertexId) -> u64 {
    let x = (u as u64) << 32 | v as u64;
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 59) + 1 // 1..=32
}

/// Dijkstra shortest-path distances from `source` with [`edge_weight`]
/// weights (`u64::MAX` = unreachable).
pub fn dijkstra(g: &Csr, source: VertexId) -> Vec<u64> {
    let mut dist = vec![u64::MAX; g.num_vertices()];
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::from([Reverse((0u64, source))]);
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for v in g.neighbors(u) {
            let nd = d + edge_weight(u, v);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Textbook Brandes betweenness centrality (unweighted), restricted to the
/// given source set (GAP's approximate BC does the same).
pub fn bc_brandes(g: &Csr, sources: &[VertexId]) -> Vec<f64> {
    let n = g.num_vertices();
    let mut centrality = vec![0.0; n];
    for &s in sources {
        let mut stack = Vec::new();
        let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut depth = vec![i64::MAX; n];
        sigma[s as usize] = 1.0;
        depth[s as usize] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            stack.push(u);
            for v in g.neighbors(u) {
                if depth[v as usize] == i64::MAX {
                    depth[v as usize] = depth[u as usize] + 1;
                    queue.push_back(v);
                }
                if depth[v as usize] == depth[u as usize] + 1 {
                    sigma[v as usize] += sigma[u as usize];
                    preds[v as usize].push(u);
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        for &w in stack.iter().rev() {
            for &v in &preds[w as usize] {
                delta[v as usize] +=
                    sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                centrality[w as usize] += delta[w as usize];
            }
        }
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgraph::{build_csr, BuildOptions};

    fn path_graph(n: u32) -> Csr {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        build_csr(n as usize, edges, BuildOptions { symmetrize: true, ..Default::default() })
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path_graph(5);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_levels(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = build_csr(3, vec![(0, 1)], BuildOptions { symmetrize: true, ..Default::default() });
        let d = bfs_levels(&g, 0);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn pagerank_sums_to_one_without_dangling_vertices() {
        // A ring has no dangling (zero-out-degree) vertices, so no rank
        // mass leaks and the scores sum to 1. (Kron graphs have isolated
        // vertices, which leak mass in GAP's formulation and ours alike.)
        let edges: Vec<(u32, u32)> = (0..128u32).map(|v| (v, (v + 1) % 128)).collect();
        let g = build_csr(128, edges, BuildOptions { symmetrize: true, ..Default::default() });
        let s = pagerank_dense(&g, 0.85, 1e-12, 200);
        let sum: f64 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn pagerank_symmetric_ring_is_uniform() {
        let edges: Vec<(u32, u32)> = (0..8u32).map(|v| (v, (v + 1) % 8)).collect();
        let g = build_csr(8, edges, BuildOptions { symmetrize: true, ..Default::default() });
        let s = pagerank_dense(&g, 0.85, 1e-12, 200);
        for &x in &s {
            assert!((x - 0.125).abs() < 1e-9);
        }
    }

    #[test]
    fn cc_two_components() {
        let g = build_csr(
            6,
            vec![(0, 1), (1, 2), (3, 4)],
            BuildOptions { symmetrize: true, ..Default::default() },
        );
        let c = cc_union_find(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_eq!(c[3], c[4]);
        assert_ne!(c[0], c[3]);
        assert_ne!(c[5], c[0]);
        assert_ne!(c[5], c[3]);
    }

    #[test]
    fn triangle_in_k3() {
        let g = build_csr(
            3,
            vec![(0, 1), (1, 2), (0, 2)],
            BuildOptions { symmetrize: true, ..Default::default() },
        );
        assert_eq!(triangle_count_brute(&g), 1);
    }

    #[test]
    fn triangles_in_k4() {
        let edges = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let g = build_csr(4, edges, BuildOptions { symmetrize: true, ..Default::default() });
        assert_eq!(triangle_count_brute(&g), 4);
    }

    #[test]
    fn dijkstra_on_path_accumulates_weights() {
        let g = path_graph(4);
        let d = dijkstra(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], edge_weight(0, 1));
        assert_eq!(d[2], edge_weight(0, 1) + edge_weight(1, 2));
    }

    #[test]
    fn edge_weights_in_declared_range() {
        for u in 0..50u32 {
            for v in 0..50u32 {
                let w = edge_weight(u, v);
                assert!((1..=32).contains(&w));
            }
        }
    }

    #[test]
    fn bc_path_center_is_highest() {
        let g = path_graph(5);
        let sources: Vec<u32> = (0..5).collect();
        let c = bc_brandes(&g, &sources);
        assert!(c[2] > c[1]);
        assert!(c[2] > c[3]);
        assert!(c[0] == 0.0 && c[4] == 0.0);
    }
}
