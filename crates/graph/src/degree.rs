//! Degree-distribution statistics. Different degree distributions are what
//! differentiate the six Table III inputs (power-law graphs concentrate
//! reuse on hub vertices; uniform graphs spread it thin), so the suite
//! tests assert on these.

use crate::csr::Csr;

/// Summary of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub avg: f64,
    /// Fraction of edges incident to the top 1% highest-degree vertices —
    /// a cheap skew measure (≈0.02 for uniform, ≫0.1 for power-law).
    pub top1pct_edge_share: f64,
    /// log2-bucketed degree histogram: `histogram[i]` counts vertices with
    /// degree in `[2^i, 2^(i+1))`; bucket 0 also counts degree 0.
    pub histogram: Vec<usize>,
}

impl DegreeStats {
    pub fn of(g: &Csr) -> Self {
        let n = g.num_vertices();
        if n == 0 {
            return DegreeStats {
                min: 0,
                max: 0,
                avg: 0.0,
                top1pct_edge_share: 0.0,
                histogram: vec![],
            };
        }
        let mut degrees: Vec<usize> = g.degrees().collect();
        // n > 0 was checked above; map_or keeps the empty case total anyway.
        let min = degrees.iter().min().map_or(0, |&d| d);
        let max = degrees.iter().max().map_or(0, |&d| d);
        let avg = g.avg_degree();

        let mut histogram = vec![0usize; 64 - (max.max(1) as u64).leading_zeros() as usize + 1];
        for &d in &degrees {
            let bucket =
                if d == 0 { 0 } else { usize::BITS as usize - 1 - d.leading_zeros() as usize };
            histogram[bucket] += 1;
        }

        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = (n / 100).max(1);
        let top_edges: usize = degrees[..top].iter().sum();
        let total: usize = g.num_edges();
        let top1pct_edge_share = if total == 0 { 0.0 } else { top_edges as f64 / total as f64 };

        DegreeStats { min, max, avg, top1pct_edge_share, histogram }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_csr, BuildOptions};

    #[test]
    fn star_graph_is_maximally_skewed() {
        // Vertex 0 connected to everyone.
        let edges: Vec<(u32, u32)> = (1..100).map(|v| (0, v)).collect();
        let g = build_csr(100, edges, BuildOptions { symmetrize: true, ..Default::default() });
        let s = DegreeStats::of(&g);
        assert_eq!(s.max, 99);
        assert_eq!(s.min, 1);
        // The single top-1% vertex (vertex 0) touches half of all
        // directed edges.
        assert!(s.top1pct_edge_share > 0.45, "share = {}", s.top1pct_edge_share);
    }

    #[test]
    fn ring_graph_is_uniform() {
        let edges: Vec<(u32, u32)> = (0..100).map(|v| (v, (v + 1) % 100)).collect();
        let g = build_csr(100, edges, BuildOptions { symmetrize: true, ..Default::default() });
        let s = DegreeStats::of(&g);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.avg - 2.0).abs() < 1e-9);
        assert!(s.top1pct_edge_share < 0.02);
    }

    #[test]
    fn histogram_buckets_sum_to_vertex_count() {
        let edges: Vec<(u32, u32)> = (1..50).map(|v| (0, v)).collect();
        let g = build_csr(60, edges, BuildOptions::default());
        let s = DegreeStats::of(&g);
        assert_eq!(s.histogram.iter().sum::<usize>(), 60);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_raw(vec![0], vec![]);
        let s = DegreeStats::of(&g);
        assert_eq!(s.max, 0);
    }
}
