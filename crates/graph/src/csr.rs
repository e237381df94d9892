//! Compressed Sparse Row graph representation (Section II-A, Fig. 1).
//!
//! A [`Csr`] stores the Offset Array (OA) and Neighbors Array (NA) exactly
//! as the paper's Fig. 1 depicts. Used as CSR it encodes outgoing
//! neighbors; the same structure built from the transposed edge list is the
//! CSC (incoming neighbors).

/// Vertex identifier (the paper's property elements are 4 B; so are ours).
pub type VertexId = u32;

/// A CSR/CSC graph: offset array + neighbors array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
}

impl Csr {
    /// Build from raw arrays. `offsets` must be monotonically non-decreasing,
    /// have length `V + 1`, start at 0 and end at `neighbors.len()`, and all
    /// neighbor ids must be `< V`.
    ///
    /// Panics on malformed arrays — for trusted in-process construction
    /// (generators, builders). Untrusted bytes (disk caches, user files)
    /// must go through [`Csr::try_from_raw`] instead.
    #[expect(
        clippy::expect_used,
        reason = "documented contract — from_raw panics on malformed arrays; use try_from_raw() to handle errors"
    )]
    pub fn from_raw(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Self {
        Csr::try_from_raw(offsets, neighbors).expect("invalid CSR arrays")
    }

    /// Fallible [`Csr::from_raw`]: returns the structural violation instead
    /// of panicking, so decoders can reject corrupt input gracefully.
    pub fn try_from_raw(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Result<Self, String> {
        let g = Csr { offsets, neighbors };
        g.validate()?;
        Ok(g)
    }

    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        let (Some(&first), Some(&last)) = (self.offsets.first(), self.offsets.last()) else {
            return Err("offset array must have at least one element".into());
        };
        if first != 0 {
            return Err("offset array must start at 0".into());
        }
        if last != self.neighbors.len() as u64 {
            return Err(format!("last offset {last} != neighbor count {}", self.neighbors.len()));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset array must be non-decreasing".into());
        }
        let v = self.num_vertices() as VertexId;
        // The largest id is out of range exactly when any id is.
        if let Some(bad) = self.neighbors.iter().copied().max().filter(|&max| max >= v) {
            return Err(format!("neighbor id {bad} out of range (V = {v})"));
        }
        Ok(())
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of vertex `v` (out-degree for CSR, in-degree for CSC).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbor slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Edge-index range of vertex `v` within the NA (what `OA[u]` /
    /// `OA[u+1]` give the instrumented kernels).
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> (u64, u64) {
        (self.offsets[v as usize], self.offsets[v as usize + 1])
    }

    /// The raw offset array (OA).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw neighbors array (NA).
    pub fn raw_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Neighbor at global edge index `i`.
    #[inline]
    pub fn neighbor_at(&self, i: u64) -> VertexId {
        self.neighbors[i as usize]
    }

    /// Iterate `(source, destination)` over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / self.num_vertices() as f64
    }

    /// Are every vertex's neighbor lists sorted ascending? (Required by the
    /// triangle-counting kernel.)
    pub fn is_sorted(&self) -> bool {
        (0..self.num_vertices() as VertexId)
            .all(|v| self.neighbors(v).windows(2).all(|w| w[0] <= w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example graph of the paper's Fig. 1 (CSR side):
    /// 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 -> 2.
    pub(crate) fn fig1_graph() -> Csr {
        Csr::from_raw(vec![0, 2, 3, 4, 5], vec![1, 2, 2, 0, 2])
    }

    #[test]
    fn fig1_structure() {
        let g = fig1_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn edge_iteration_matches_lists() {
        let g = fig1_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)]);
    }

    #[test]
    fn edge_range_consistent_with_neighbors() {
        let g = fig1_graph();
        for v in 0..4 {
            let (lo, hi) = g.edge_range(v);
            assert_eq!((hi - lo) as usize, g.degree(v));
            for i in lo..hi {
                assert!(g.neighbors(v).contains(&g.neighbor_at(i)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn rejects_bad_offsets() {
        Csr::from_raw(vec![0, 3, 2], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn rejects_out_of_range_neighbor() {
        Csr::from_raw(vec![0, 1], vec![5]);
    }

    #[test]
    fn try_from_raw_reports_instead_of_panicking() {
        let err = Csr::try_from_raw(vec![0, 3, 2], vec![0, 1]).unwrap_err();
        assert!(err.contains("non-decreasing") || err.contains("offset"), "err: {err}");
        let err = Csr::try_from_raw(vec![0, 1], vec![5]).unwrap_err();
        assert!(err.contains("out of range"), "err: {err}");
        assert!(Csr::try_from_raw(vec![], vec![]).is_err());
        assert!(Csr::try_from_raw(vec![0, 2, 3, 4, 5], vec![1, 2, 2, 0, 2]).is_ok());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Csr::from_raw(vec![0], vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn sortedness_detection() {
        assert!(fig1_graph().is_sorted());
        let unsorted = Csr::from_raw(vec![0, 2, 2], vec![1, 0]);
        assert!(!unsorted.is_sorted());
    }
}
