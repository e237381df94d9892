//! Next-reference oracle for T-OPT (Balaji et al.), derived from the graph
//! exactly as the transpose-based hardware proposal derives it.
//!
//! For kernels that sweep the neighbors array in order every iteration
//! (pull-PageRank, Shiloach–Vishkin CC), the position at which a vertex's
//! property element is next accessed is fully determined by the NA: it is
//! the next NA slot holding the same vertex id. This module precomputes
//! that successor chain over the NA a kernel sweeps (the CSC for pull-PR,
//! the CSR for CC). A kernel builds the table at the start of a run, drops
//! it when the run ends, and attaches the resulting positions as
//! `MemRef::next_use` hints, giving the T-OPT LLC replacement policy the
//! same foreknowledge the original hardware gets from the transpose.

use gpgraph::{Csr, VertexId};

/// Sentinel: no further occurrence.
const NONE: u32 = u32::MAX;

/// Per-edge-position successor table over a CSR's neighbors array.
#[derive(Debug)]
pub struct NextUseOracle {
    /// `next_pos[i]`: the next NA position referencing the same vertex as
    /// position `i` within the same sweep, or `NONE`. Covers only the
    /// first `next_pos.len()` positions (the recording bound).
    next_pos: Vec<u32>,
    /// `first_pos[v]`: the first NA position referencing `v`, or `NONE`.
    first_pos: Vec<u32>,
    /// NA length (= hinted accesses per sweep).
    edges: u32,
}

impl NextUseOracle {
    /// Build the table for the NA positions a run can still record.
    /// `bound` is the tracer's [`Tracer::remaining`] at the start of the
    /// run: each NA position costs at least its own NA-load instruction,
    /// so a hint for position `bound` or later is only ever computed for
    /// an event the tracer drops, and such positions get no entry. A bound
    /// of `None` or at least the NA length (a multi-sweep window) keeps
    /// every position. The backward scan always covers the whole NA, so
    /// each stored entry equals the unbounded table's.
    ///
    /// [`Tracer::remaining`]: simcore::trace::Tracer::remaining
    pub fn build(g: &Csr, bound: Option<u64>) -> Self {
        let e = g.num_edges();
        assert!(e < NONE as usize, "graph too large for 32-bit oracle positions");
        let kept = bound.map_or(e, |b| usize::try_from(b).unwrap_or(usize::MAX).min(e));
        let mut next_pos = vec![NONE; kept];
        let mut last_seen = vec![NONE; g.num_vertices()];
        // Backward scan threads each vertex's occurrences into a chain.
        for i in (0..e).rev() {
            let v = g.raw_neighbors()[i] as usize;
            if i < kept {
                next_pos[i] = last_seen[v];
            }
            last_seen[v] = i as u32;
        }
        // After the backward scan, last_seen holds each vertex's first
        // occurrence.
        NextUseOracle { next_pos, first_pos: last_seen, edges: e as u32 }
    }

    /// Number of hinted accesses per sweep.
    pub fn sweep_len(&self) -> u32 {
        self.edges
    }

    /// Absolute next-use position (in hinted-access units) for the access
    /// at position `i` of sweep `sweep` to vertex `v`. Returns `u32::MAX`
    /// if the oracle position would overflow (effectively "far future") or
    /// `i` lies past the build bound (the tracer drops that event).
    #[inline]
    pub fn hint(&self, sweep: u32, i: u32, v: VertexId) -> u32 {
        let Some(&same_sweep) = self.next_pos.get(i as usize) else {
            return NONE;
        };
        if same_sweep != NONE {
            return sweep
                .checked_mul(self.edges)
                .and_then(|b| b.checked_add(same_sweep))
                .unwrap_or(NONE);
        }
        // Next occurrence is the vertex's first slot of the next sweep.
        let first = self.first_pos[v as usize];
        if first == NONE {
            return NONE;
        }
        (sweep + 1).checked_mul(self.edges).and_then(|b| b.checked_add(first)).unwrap_or(NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgraph::Csr;

    /// NA = [1, 2, 2, 0, 2] (the paper's Fig. 1 CSR).
    fn fig1() -> Csr {
        Csr::from_raw(vec![0, 2, 3, 4, 5], vec![1, 2, 2, 0, 2])
    }

    #[test]
    fn successor_chain_within_sweep() {
        let o = NextUseOracle::build(&fig1(), None);
        // Vertex 2 appears at positions 1, 2, 4.
        assert_eq!(o.hint(0, 1, 2), 2);
        assert_eq!(o.hint(0, 2, 2), 4);
        // Position 4 is vertex 2's last occurrence: next sweep, first slot 1.
        assert_eq!(o.hint(0, 4, 2), 5 + 1);
    }

    #[test]
    fn single_occurrence_wraps_to_next_sweep() {
        let o = NextUseOracle::build(&fig1(), None);
        // Vertex 0 appears only at position 3.
        assert_eq!(o.hint(0, 3, 0), 5 + 3);
        assert_eq!(o.hint(2, 3, 0), 3 * 5 + 3);
    }

    #[test]
    fn hints_are_strictly_in_the_future() {
        let g = gpgraph::gen::kron(8, 4, 3);
        let o = NextUseOracle::build(&g, None);
        for sweep in 0..3u32 {
            for i in 0..g.num_edges() as u32 {
                let v = g.raw_neighbors()[i as usize];
                let h = o.hint(sweep, i, v);
                let now = sweep * o.sweep_len() + i;
                assert!(h == u32::MAX || h > now, "hint {h} not after {now}");
            }
        }
    }

    #[test]
    fn bounded_table_agrees_with_the_full_one_on_every_stored_position() {
        let g = gpgraph::gen::kron(9, 4, 5);
        let full = NextUseOracle::build(&g, None);
        let e = full.sweep_len();
        assert_eq!(full.next_pos.len(), g.num_edges());
        for bound in [0, 1, 63, e / 3, e - 1] {
            let part = NextUseOracle::build(&g, Some(u64::from(bound)));
            assert_eq!(part.next_pos.len(), bound as usize);
            assert_eq!(part.sweep_len(), e);
            for (i, &v) in (0..e).zip(g.raw_neighbors()) {
                for sweep in 0..2 {
                    let want = if i < bound { full.hint(sweep, i, v) } else { NONE };
                    assert_eq!(part.hint(sweep, i, v), want, "bound {bound}, position {i}");
                }
            }
        }
        // A bound at or past the NA length keeps every position.
        for bound in [u64::from(e), 3 * u64::from(e), u64::MAX] {
            assert_eq!(NextUseOracle::build(&g, Some(bound)).next_pos.len(), g.num_edges());
        }
    }

    #[test]
    fn overflow_saturates_to_far_future() {
        let o = NextUseOracle::build(&fig1(), None);
        assert_eq!(o.hint(u32::MAX / 4, 3, 0), u32::MAX);
    }
}
