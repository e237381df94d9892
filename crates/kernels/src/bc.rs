//! Betweenness Centrality — Brandes' algorithm over a sampled source set,
//! as GAP's approximate BC does (Table II: push-mostly, frontier-based,
//! 8B + 4B property elements).
//!
//! Each source contributes a forward BFS that accumulates shortest-path
//! counts (`sigma`, the 8 B property) and a reverse dependency sweep
//! (`delta`). Both sweeps probe per-vertex properties through the NA — the
//! cache-averse stream.

use crate::input::KernelInput;
use crate::mem::{sid, AddressSpace};
use crate::mix;
use gpgraph::VertexId;
use simcore::trace::Tracer;

mod pc {
    pub const QUEUE_POP: u16 = 0x40;
    pub const OA_LOAD: u16 = 0x41;
    pub const NA_LOAD: u16 = 0x42;
    pub const DEPTH_PROBE: u16 = 0x43; // irregular
    pub const SIGMA_UPDATE: u16 = 0x44; // irregular (8B elements)
    pub const STACK_POP: u16 = 0x45;
    pub const DELTA_UPDATE: u16 = 0x46; // irregular
    pub const SCORE_STORE: u16 = 0x47;
}

/// BC outcome.
#[derive(Debug)]
pub struct BcResult {
    pub centrality: Vec<f64>,
    pub sources_processed: usize,
}

/// Run Brandes BC from `sources`.
pub fn betweenness<T: Tracer + ?Sized>(
    input: &KernelInput,
    asid: u8,
    sources: &[VertexId],
    t: &mut T,
) -> BcResult {
    let g = &input.csr;
    let n = g.num_vertices();

    let mut space = AddressSpace::new(asid);
    let oa = space.alloc(sid::OA, 8, n as u64 + 1);
    let na = space.alloc(sid::NA, 4, g.num_edges().max(1) as u64);
    // Table II: BC's irregular element is 8 B + 4 B (sigma + depth).
    let sigma_arr = space.alloc(sid::PROP_B, 8, n as u64);
    let depth_arr = space.alloc(sid::PROP_A, 4, n as u64);
    let delta_arr = space.alloc(sid::PROP_A, 8, n as u64);
    let queue_arr = space.alloc(sid::FRONTIER, 4, n as u64);
    let score_arr = space.alloc(sid::PROP_B, 8, n as u64);

    let mut centrality = vec![0.0f64; n];
    let mut sources_processed = 0;

    'outer: for &s in sources {
        let mut depth = vec![i64::MAX; n];
        let mut sigma = vec![0.0f64; n];
        let mut stack: Vec<VertexId> = Vec::new();
        depth[s as usize] = 0;
        sigma[s as usize] = 1.0;
        let mut queue = std::collections::VecDeque::from([s]);

        // Forward phase: BFS with path counting.
        while let Some(u) = queue.pop_front() {
            if stack.len().is_multiple_of(512) && t.done() {
                break 'outer;
            }
            queue_arr.load(t, pc::QUEUE_POP, stack.len() as u64 % n as u64);
            oa.load(t, pc::OA_LOAD, u as u64);
            t.bubble(mix::VERTEX);
            stack.push(u);
            let (lo, hi) = g.edge_range(u);
            for i in lo..hi {
                na.load(t, pc::NA_LOAD, i);
                let v = g.neighbor_at(i);
                depth_arr.load(t, pc::DEPTH_PROBE, v as u64);
                t.bubble(mix::EDGE);
                if depth[v as usize] == i64::MAX {
                    depth[v as usize] = depth[u as usize] + 1;
                    queue.push_back(v);
                }
                if depth[v as usize] == depth[u as usize] + 1 {
                    sigma_arr.load(t, pc::SIGMA_UPDATE, v as u64);
                    sigma_arr.store(t, pc::SIGMA_UPDATE, v as u64);
                    t.bubble(mix::UPDATE);
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }

        // Reverse phase: dependency accumulation.
        let mut delta = vec![0.0f64; n];
        for (si, &w) in stack.iter().enumerate().rev() {
            if si % 512 == 0 && t.done() {
                break 'outer;
            }
            queue_arr.load(t, pc::STACK_POP, si as u64 % n as u64);
            oa.load(t, pc::OA_LOAD, w as u64);
            t.bubble(mix::VERTEX);
            let (lo, hi) = g.edge_range(w);
            for i in lo..hi {
                na.load(t, pc::NA_LOAD, i);
                let v = g.neighbor_at(i);
                depth_arr.load(t, pc::DEPTH_PROBE, v as u64);
                t.bubble(mix::EDGE);
                // v is a predecessor of w on a shortest path.
                if depth[v as usize] == depth[w as usize] - 1 && sigma[w as usize] > 0.0 {
                    delta_arr.load(t, pc::DELTA_UPDATE, v as u64);
                    delta_arr.store(t, pc::DELTA_UPDATE, v as u64);
                    t.bubble(mix::UPDATE);
                    delta[v as usize] +=
                        sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                }
            }
            if w != s {
                score_arr.store(t, pc::SCORE_STORE, w as u64);
                t.bubble(mix::UPDATE);
                centrality[w as usize] += delta[w as usize];
            }
        }
        sources_processed += 1;
    }

    BcResult { centrality, sources_processed }
}

/// GAP-style deterministic source sample: the `k` highest-degree vertices
/// (deterministic and guaranteed non-isolated).
pub fn pick_sources(input: &KernelInput, k: usize) -> Vec<VertexId> {
    let mut by_degree: Vec<VertexId> = (0..input.num_vertices() as VertexId).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(input.csr.degree(v)));
    by_degree.truncate(k);
    by_degree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bc_brandes;
    use simcore::trace::NullTracer;

    #[test]
    fn matches_reference_on_kron() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(7, 3, 5));
        let sources = pick_sources(&input, 4);
        let r = betweenness(&input, 0, &sources, &mut NullTracer::new());
        let reference = bc_brandes(&input.csr, &sources);
        assert_eq!(r.sources_processed, 4);
        for (a, b) in r.centrality.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_reference_on_path() {
        let edges: Vec<(u32, u32)> = (0..9u32).map(|i| (i, i + 1)).collect();
        let g = gpgraph::build_csr(
            10,
            &edges,
            gpgraph::BuildOptions { symmetrize: true, ..Default::default() },
        );
        let input = KernelInput::from_symmetric(g);
        let sources: Vec<u32> = (0..10).collect();
        let r = betweenness(&input, 0, &sources, &mut NullTracer::new());
        let reference = bc_brandes(&input.csr, &sources);
        for (a, b) in r.centrality.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        // Path centers dominate.
        assert!(r.centrality[5] > r.centrality[1]);
    }

    #[test]
    fn sources_are_distinct_high_degree() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(8, 4, 2));
        let sources = pick_sources(&input, 8);
        assert_eq!(sources.len(), 8);
        let min_picked = sources.iter().map(|&s| input.csr.degree(s)).min().unwrap();
        // No unpicked vertex has higher degree than the lowest picked one.
        let max_unpicked = (0..input.num_vertices() as u32)
            .filter(|v| !sources.contains(v))
            .map(|v| input.csr.degree(v))
            .max()
            .unwrap();
        assert!(min_picked >= max_unpicked);
    }
}
