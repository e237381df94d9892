//! Triangle Counting — sorted-neighbor-list intersection (Table II:
//! push-only, no frontier, no property array).
//!
//! For every edge (u, v) with u < v, the kernel merge-intersects N(u) and
//! N(v), counting common neighbors w > v. The cursor into N(u) streams
//! sequentially, while hopping to each N(v) makes the second NA cursor the
//! irregular stream (whole rows land at unpredictable NA offsets).

use crate::input::KernelInput;
use crate::mem::{sid, AddressSpace};
use crate::mix;
use simcore::trace::Tracer;

mod pc {
    pub const OA_U: u16 = 0x50;
    pub const NA_U: u16 = 0x51; // streaming cursor
    pub const OA_V: u16 = 0x52; // irregular row lookup
    pub const NA_V: u16 = 0x53; // irregular cursor
}

/// TC outcome.
#[derive(Debug)]
pub struct TcResult {
    pub triangles: u64,
    /// True if the kernel swept every edge (the simulation window can cut
    /// the sweep short; the count is then partial).
    pub complete: bool,
}

/// Count triangles. Requires sorted neighbor lists (the builder provides
/// them).
pub fn triangle_count<T: Tracer + ?Sized>(input: &KernelInput, asid: u8, t: &mut T) -> TcResult {
    let g = &input.csr;
    debug_assert!(g.is_sorted(), "triangle counting requires sorted neighbor lists");
    let n = g.num_vertices();

    let mut space = AddressSpace::new(asid);
    let oa = space.alloc(sid::OA, 8, n as u64 + 1);
    let na = space.alloc(sid::NA, 4, g.num_edges().max(1) as u64);

    let mut triangles = 0u64;
    let mut complete = true;
    'outer: for u in g.vertex_ids() {
        if t.done() {
            complete = false;
            break;
        }
        oa.load(t, pc::OA_U, u as u64);
        t.bubble(mix::VERTEX);
        let mut row_u = g.row(u);
        while let Some((iu, v)) = row_u.next() {
            na.load(t, pc::NA_U, iu);
            t.bubble(mix::SCAN);
            if v <= u {
                continue;
            }
            if t.done() {
                complete = false;
                break 'outer;
            }
            // Jump to v's row: the irregular part.
            oa.load(t, pc::OA_V, v as u64);
            t.bubble(mix::SETUP);
            // Merge-intersect N(u) (> v) with N(v) (> v): the rest of u's
            // row after slot iu against v's row, each decoded in order.
            let (mut rest_u, mut row_v) = (row_u.clone(), g.row(v));
            let (mut a, mut b) = (rest_u.next(), row_v.next());
            while let (Some((ia, wa)), Some((ib, wb))) = (a, b) {
                na.load(t, pc::NA_U, ia);
                na.load(t, pc::NA_V, ib);
                t.bubble(mix::MERGE_STEP);
                if wb <= v {
                    b = row_v.next();
                    continue;
                }
                match wa.cmp(&wb) {
                    std::cmp::Ordering::Less => a = rest_u.next(),
                    std::cmp::Ordering::Greater => b = row_v.next(),
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        a = rest_u.next();
                        b = row_v.next();
                    }
                }
            }
        }
    }
    TcResult { triangles, complete }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::triangle_count_brute;
    use gpgraph::{build_csr, BuildOptions};
    use simcore::trace::{NullTracer, RecordingTracer};

    fn sym(edges: Vec<(u32, u32)>, n: usize) -> KernelInput {
        KernelInput::from_symmetric(build_csr(
            n,
            edges,
            BuildOptions { symmetrize: true, ..Default::default() },
        ))
    }

    #[test]
    fn k3_has_one_triangle() {
        let input = sym(vec![(0, 1), (1, 2), (0, 2)], 3);
        let r = triangle_count(&input, 0, &mut NullTracer::new());
        assert_eq!(r.triangles, 1);
        assert!(r.complete);
    }

    #[test]
    fn k4_has_four_triangles() {
        let input = sym(vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        let r = triangle_count(&input, 0, &mut NullTracer::new());
        assert_eq!(r.triangles, 4);
    }

    #[test]
    fn triangle_free_graph() {
        // A star has no triangles.
        let edges: Vec<(u32, u32)> = (1..20).map(|v| (0, v)).collect();
        let input = sym(edges, 20);
        assert_eq!(triangle_count(&input, 0, &mut NullTracer::new()).triangles, 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in [1, 7, 42] {
            let input = KernelInput::from_symmetric(gpgraph::gen::urand(120, 6, seed));
            let traced = triangle_count(&input, 0, &mut NullTracer::new());
            let brute = triangle_count_brute(&input.csr);
            assert_eq!(traced.triangles, brute, "seed {seed}");
        }
    }

    #[test]
    fn matches_brute_force_on_kron() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(7, 4, 9));
        let traced = triangle_count(&input, 0, &mut NullTracer::new());
        assert_eq!(traced.triangles, triangle_count_brute(&input.csr));
    }

    #[test]
    fn window_truncation_reports_incomplete() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(9, 8, 1));
        let mut rec = RecordingTracer::new(1000);
        let r = triangle_count(&input, 0, &mut rec);
        assert!(!r.complete);
    }
}
