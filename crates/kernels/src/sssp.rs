//! Single-Source Shortest Paths — δ-stepping (Meyer & Sanders), per
//! Table II (push-only, frontier-based).
//!
//! Vertices live in distance buckets of width δ; the smallest non-empty
//! bucket is drained repeatedly, relaxing outgoing edges. Distance probes
//! `dist[NA[i]]` are the irregular stream; bucket queues stream
//! sequentially. Edge weights are deterministic hashes shared with the
//! Dijkstra reference (see `reference::edge_weight`).

use crate::input::KernelInput;
use crate::mem::{sid, AddressSpace};
use crate::mix;
use crate::reference::edge_weight;
use gpgraph::VertexId;
use simcore::trace::Tracer;

mod pc {
    pub const BUCKET_POP: u16 = 0x60;
    pub const OA_LOAD: u16 = 0x61;
    pub const NA_LOAD: u16 = 0x62;
    pub const WEIGHT_LOAD: u16 = 0x63;
    pub const DIST_PROBE: u16 = 0x64; // irregular
    pub const DIST_STORE: u16 = 0x65; // irregular
    pub const BUCKET_PUSH: u16 = 0x66;
}

/// SSSP outcome.
#[derive(Debug)]
pub struct SsspResult {
    pub dist: Vec<u64>,
    /// True if the algorithm ran to completion (not window-truncated).
    pub complete: bool,
}

/// Run δ-stepping SSSP from `source` with bucket width `delta`.
pub fn sssp<T: Tracer + ?Sized>(
    input: &KernelInput,
    asid: u8,
    source: VertexId,
    delta: u64,
    t: &mut T,
) -> SsspResult {
    assert!(delta > 0);
    let g = &input.csr;
    let n = g.num_vertices();

    let mut space = AddressSpace::new(asid);
    let oa = space.alloc(sid::OA, 8, n as u64 + 1);
    let na = space.alloc(sid::NA, 4, g.num_edges().max(1) as u64);
    let wa = space.alloc(sid::WEIGHTS, 4, g.num_edges().max(1) as u64);
    let dist_arr = space.alloc(sid::PROP_A, 4, n as u64);
    let bucket_arr = space.alloc(sid::FRONTIER, 4, n as u64);

    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new()];
    buckets[0].push(source);
    let mut complete = true;
    // Bucket storage is a queue: its traffic is sequential positions, not
    // vertex-indexed.
    let mut pop_pos = 0u64;
    let mut push_pos = 0u64;

    let mut bi = 0usize;
    'outer: while bi < buckets.len() {
        // Drain bucket bi to empty (relaxations may refill it).
        while let Some(u) = buckets[bi].pop() {
            if t.done() {
                complete = false;
                break 'outer;
            }
            bucket_arr.load(t, pc::BUCKET_POP, pop_pos % n as u64);
            pop_pos += 1;
            t.bubble(mix::VERTEX);
            // Skip stale entries (vertex settled into an earlier bucket).
            let du = dist[u as usize];
            if du == u64::MAX || du / delta < bi as u64 {
                continue;
            }
            oa.load(t, pc::OA_LOAD, u as u64);
            t.bubble(mix::SETUP);
            for (i, v) in g.row(u) {
                na.load(t, pc::NA_LOAD, i);
                wa.load(t, pc::WEIGHT_LOAD, i);
                dist_arr.load(t, pc::DIST_PROBE, v as u64);
                t.bubble(mix::EDGE);
                let nd = du + edge_weight(u, v);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    dist_arr.store(t, pc::DIST_STORE, v as u64);
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "a bucket index: `buckets` is resized to hold it, so it fits a usize"
                    )]
                    let nb = (nd / delta) as usize;
                    if nb >= buckets.len() {
                        buckets.resize(nb + 1, Vec::new());
                    }
                    bucket_arr.store(t, pc::BUCKET_PUSH, push_pos % n as u64);
                    push_pos += 1;
                    t.bubble(mix::UPDATE);
                    buckets[nb].push(v);
                }
            }
        }
        bi += 1;
    }
    SsspResult { dist, complete }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dijkstra;
    use simcore::trace::{NullTracer, RecordingTracer};

    fn check(input: &KernelInput, source: VertexId, delta: u64) {
        let r = sssp(input, 0, source, delta, &mut NullTracer::new());
        assert!(r.complete);
        let reference = dijkstra(&input.csr, source);
        assert_eq!(r.dist, reference);
    }

    #[test]
    fn matches_dijkstra_on_kron() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(8, 4, 31));
        check(&input, input.default_source(), 8);
    }

    #[test]
    fn matches_dijkstra_on_road() {
        let input = KernelInput::from_symmetric(gpgraph::gen::road(16, 0.9, 20, 2));
        check(&input, 0, 4);
    }

    #[test]
    fn matches_dijkstra_across_delta_choices() {
        let input = KernelInput::from_symmetric(gpgraph::gen::urand(300, 6, 17));
        let reference = dijkstra(&input.csr, 5);
        for delta in [1, 2, 16, 1000] {
            let r = sssp(&input, 0, 5, delta, &mut NullTracer::new());
            assert_eq!(r.dist, reference, "delta = {delta}");
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let g = gpgraph::build_csr(
            4,
            vec![(0, 1)],
            gpgraph::BuildOptions { symmetrize: true, ..Default::default() },
        );
        let input = KernelInput::from_symmetric(g);
        let r = sssp(&input, 0, 0, 8, &mut NullTracer::new());
        assert_eq!(r.dist[2], u64::MAX);
        assert_eq!(r.dist[3], u64::MAX);
    }

    #[test]
    fn window_truncation_flagged() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(10, 8, 3));
        let mut rec = RecordingTracer::new(500);
        let r = sssp(&input, 0, input.default_source(), 8, &mut rec);
        assert!(!r.complete);
    }
}
