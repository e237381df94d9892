//! Shared kernel input: the graph in both directions.

use gpgraph::{transpose, Csr, VertexId};
use std::sync::Arc;

/// A graph prepared for kernel execution.
pub struct KernelInput {
    /// Outgoing-neighbor view (CSR).
    pub csr: Arc<Csr>,
    /// Incoming-neighbor view (CSC). Equal to `csr` for symmetric graphs.
    pub csc: Arc<Csr>,
}

impl KernelInput {
    /// For a symmetric (undirected) graph the CSC *is* the CSR.
    pub fn from_symmetric(g: Csr) -> Self {
        let csr = Arc::new(g);
        KernelInput { csc: Arc::clone(&csr), csr }
    }

    /// For a directed graph, compute the transpose.
    pub fn from_directed(g: Csr) -> Self {
        let csc = Arc::new(transpose(&g));
        KernelInput { csr: Arc::new(g), csc }
    }

    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Deterministic traversal source: the highest-out-degree vertex
    /// (guaranteed non-isolated on any graph with edges).
    pub fn default_source(&self) -> VertexId {
        self.csr.vertex_ids().zip(self.csr.degrees()).max_by_key(|&(_, d)| d).map_or(0, |(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgraph::{build_csr, BuildOptions};

    #[test]
    fn symmetric_shares_storage() {
        let g = gpgraph::gen::urand(100, 4, 1);
        let input = KernelInput::from_symmetric(g);
        assert!(Arc::ptr_eq(&input.csr, &input.csc));
    }

    #[test]
    fn directed_builds_transpose() {
        let g = build_csr(3, vec![(0, 1), (1, 2)], BuildOptions::default());
        let input = KernelInput::from_directed(g);
        assert_eq!(input.csc.neighbors(1).collect::<Vec<_>>(), [0]);
        assert_eq!(input.csc.neighbors(2).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn default_source_is_max_degree() {
        let g = build_csr(
            4,
            vec![(2, 0), (2, 1), (2, 3), (0, 1)],
            BuildOptions { symmetrize: true, ..Default::default() },
        );
        let input = KernelInput::from_symmetric(g);
        assert_eq!(input.default_source(), 2);
    }

    #[test]
    fn oracle_follows_the_csc_sweep_order() {
        // Directed 0->1, 0->2, 1->2: the CSC neighbors array is [0, 0, 1],
        // so vertex 0's first slot is 0 and its next one is 1.
        let g = build_csr(3, vec![(0, 1), (0, 2), (1, 2)], BuildOptions::default());
        let input = KernelInput::from_directed(g);
        let oracle = crate::NextUseOracle::build(&input.csc, None);
        assert_eq!(oracle.sweep_len(), 3);
        assert_eq!(oracle.hint(0, 0, 0), 1);
        // Slot 1 is vertex 0's last in the sweep: next is slot 0 of sweep 1.
        assert_eq!(oracle.hint(0, 1, 0), 3);
        assert_eq!(oracle.hint(0, 2, 1), 3 + 2);
    }
}
