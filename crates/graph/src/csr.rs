//! Compressed Sparse Row graph representation (Section II-A, Fig. 1).
//!
//! A [`Csr`] stores the Offset Array (OA) and Neighbors Array (NA) as the
//! paper's Fig. 1 depicts, each bit-packed at its values' natural width.
//! Used as CSR it encodes outgoing neighbors; the same structure built from
//! the transposed edge list is the CSC (incoming neighbors).

use crate::packed::{bits, PackedArray, Packer};

/// Vertex identifier (the paper's property elements are 4 B; so are ours).
pub type VertexId = u32;

/// Vertex `i` as its id. Callers pass an index below a vertex count, and
/// every graph's vertex count fits the id range ([`Csr::validate`]).
#[expect(
    clippy::cast_possible_truncation,
    reason = "i is below a vertex count; validate() rejects a count beyond the VertexId range"
)]
#[inline]
pub(crate) fn vertex(i: usize) -> VertexId {
    i as VertexId
}

/// An offset-array entry or edge index as a slot of the neighbour array.
#[expect(
    clippy::cast_possible_truncation,
    reason = "offsets count slots of an in-memory array, so they fit a usize"
)]
#[inline]
pub(crate) fn slot(offset: u64) -> usize {
    offset as usize
}

/// Neighbour-array value `x` as a vertex id. Every NA value fits the id
/// range: the NA width is that of the largest id, and a graph's vertex
/// count fits the id range ([`Csr::validate`]).
#[expect(
    clippy::cast_possible_truncation,
    reason = "NA values are at most bits(n - 1) <= 32 bits wide; validate() rejects a larger n"
)]
#[inline]
fn id(x: u64) -> VertexId {
    x as VertexId
}

/// A CSR/CSC graph: offset array + neighbors array, each packed at the
/// width of its largest possible value ([`crate::packed`]): the OA at
/// `bits(num_edges)`, the NA at `bits(num_vertices - 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: PackedArray,
    neighbors: PackedArray,
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
        let n =
            offsets.len().checked_sub(1).ok_or("offset array must have at least one element")?;
        let m = neighbors.len() as u64;
        let (oa_width, na_width) = widths(n as u64, m);
        let (mut oa, mut na) = (Packer::new(oa_width), Packer::new(na_width));
        oa.reserve(offsets.len());
        pack_offsets(&mut oa, &offsets, m)?;
        na.reserve(neighbors.len());
        pack_neighbors(&mut na, &neighbors, n as u64)?;
        Csr::try_from_packed(oa.finish(), na.finish())
    }

    /// A graph over arrays packed at [`widths`], once [`Csr::validate`]
    /// accepts it.
    pub(crate) fn try_from_packed(
        offsets: PackedArray,
        neighbors: PackedArray,
    ) -> Result<Self, String> {
        let g = Csr { offsets, neighbors };
        g.validate()?;
        Ok(g)
    }

    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        let Some(n) = self.offsets.len().checked_sub(1) else {
            return Err("offset array must have at least one element".into());
        };
        let m = self.num_edges() as u64;
        let (first, last) = (self.offsets.get(0), self.offsets.get(n));
        if first != 0 {
            return Err("offset array must start at 0".into());
        }
        if last != m {
            return Err(format!("last offset {last} != neighbor count {m}"));
        }
        let mut prev = 0;
        if self.offsets().any(|o| std::mem::replace(&mut prev, o) > o) {
            return Err("offset array must be non-decreasing".into());
        }
        let Ok(v) = VertexId::try_from(n) else {
            return Err(format!("{n} vertices exceed the VertexId range"));
        };
        debug_assert_eq!(
            (self.offsets.width(), self.neighbors.width()),
            widths(u64::from(v), m),
            "arrays at their canonical widths"
        );
        // The largest id is out of range exactly when any id is, and when
        // the width holds no id past V - 1 none can be.
        if self.neighbors.max_value() >= u64::from(v) {
            if let Some(bad) = self.raw_neighbors().max().filter(|&max| max >= v) {
                return Err(format!("neighbor id {bad} out of range (V = {v})"));
            }
        }
        Ok(())
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Every vertex id, ascending.
    pub fn vertex_ids(&self) -> std::ops::Range<VertexId> {
        0..vertex(self.num_vertices())
    }

    /// Degree of vertex `v` (out-degree for CSR, in-degree for CSC).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.edge_range(v);
        slot(hi - lo)
    }

    /// Every vertex's degree in vertex order, decoded from the OA in one
    /// pass.
    pub fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets().zip(self.offsets().skip(1)).map(|(lo, hi)| slot(hi - lo))
    }

    /// Neighbors of vertex `v`, decoded in order.
    #[inline]
    pub fn neighbors(
        &self,
        v: VertexId,
    ) -> impl DoubleEndedIterator<Item = VertexId> + ExactSizeIterator + '_ {
        let (lo, hi) = self.edge_range(v);
        self.neighbors.range(slot(lo)..slot(hi)).map(id)
    }

    /// Vertex `v`'s row as `(edge index, neighbor)` pairs, decoded in
    /// order: the NA slot an instrumented kernel loads beside the id it
    /// reads there.
    #[inline]
    pub fn row(&self, v: VertexId) -> impl Iterator<Item = (u64, VertexId)> + Clone + '_ {
        let (lo, hi) = self.edge_range(v);
        (lo..hi).zip(self.neighbors.range(slot(lo)..slot(hi)).map(id))
    }

    /// Edge-index range of vertex `v` within the NA (what `OA[u]` /
    /// `OA[u+1]` give the instrumented kernels).
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> (u64, u64) {
        (self.offsets.get(v as usize), self.offsets.get(v as usize + 1))
    }

    /// The offset array (OA), decoded in order.
    pub fn offsets(&self) -> impl DoubleEndedIterator<Item = u64> + ExactSizeIterator + '_ {
        self.offsets.iter()
    }

    /// The whole neighbors array (NA), decoded in order.
    pub fn raw_neighbors(
        &self,
    ) -> impl DoubleEndedIterator<Item = VertexId> + ExactSizeIterator + '_ {
        self.neighbors.iter().map(id)
    }

    /// Neighbor at global edge index `i`.
    #[inline]
    pub fn neighbor_at(&self, i: u64) -> VertexId {
        id(self.neighbors.get(slot(i)))
    }

    /// Bytes the packed OA and NA occupy.
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.footprint_bytes() + self.neighbors.footprint_bytes()
    }

    /// Iterate `(source, destination)` over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertex_ids().flat_map(move |u| self.neighbors(u).map(move |v| (u, v)))
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
        self.vertex_ids().all(|v| self.neighbors(v).is_sorted())
    }
}

/// The OA and NA widths of a graph with `n` vertices and `m` edges: those
/// of its largest offset and its largest vertex id.
pub(crate) fn widths(n: u64, m: u64) -> (u32, u32) {
    (bits(m), bits(n.saturating_sub(1)))
}

/// Append offsets of a graph with `m` edges to `oa`, or say why one of them
/// cannot be an offset. The check keeps every value within the OA width.
pub(crate) fn pack_offsets(oa: &mut Packer, offsets: &[u64], m: u64) -> Result<(), String> {
    if let Some(o) = offsets.iter().find(|&&o| o > m) {
        return Err(format!("offset {o} exceeds the neighbor count {m}"));
    }
    oa.extend(offsets.iter().copied());
    Ok(())
}

/// Append neighbor ids of a graph with `n` vertices to `na`, or say why one
/// of them cannot be an id. The check keeps every id within the NA width.
pub(crate) fn pack_neighbors(na: &mut Packer, ids: &[VertexId], n: u64) -> Result<(), String> {
    if let Some(v) = ids.iter().find(|&&v| u64::from(v) >= n) {
        return Err(format!("neighbor id {v} out of range (V = {n})"));
    }
    na.extend(ids.iter().map(|&v| u64::from(v)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::words;

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
        let rows: Vec<Vec<VertexId>> = g.vertex_ids().map(|v| g.neighbors(v).collect()).collect();
        assert_eq!(rows, [vec![1, 2], vec![2], vec![0], vec![2]]);
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
            assert_eq!(hi - lo, g.degree(v) as u64);
            for i in lo..hi {
                assert!(g.neighbors(v).any(|x| x == g.neighbor_at(i)));
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
    fn ids_the_width_holds_past_the_vertex_count_are_rejected() {
        // Three vertices: ids are 2 bits wide, and 2 bits also hold 3.
        let (oa_width, na_width) = widths(3, 1);
        let oa = PackedArray::from_values(oa_width, [0, 1, 1, 1].into_iter());
        let na = PackedArray::from_values(na_width, [3].into_iter());
        let err = Csr::try_from_packed(oa, na).unwrap_err();
        assert!(err.contains("neighbor id 3 out of range"), "err: {err}");
    }

    #[test]
    fn accessors_decode_the_packed_arrays() {
        let g = fig1_graph();
        assert_eq!(g.offsets().collect::<Vec<_>>(), [0, 2, 3, 4, 5]);
        assert_eq!(g.raw_neighbors().collect::<Vec<_>>(), [1, 2, 2, 0, 2]);
        assert_eq!(g.row(0).collect::<Vec<_>>(), [(0, 1), (1, 2)]);
        assert_eq!(g.row(3).collect::<Vec<_>>(), [(4, 2)]);
        // OA: five 3-bit offsets (bits(5)); NA: five 2-bit ids (bits(3)).
        assert_eq!(g.footprint_bytes(), 8 * (words(5, 3) + words(5, 2)));
        assert_eq!(g.footprint_bytes(), 32);
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
