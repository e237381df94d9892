//! Breadth-First Search — direction-optimizing (push & pull), as the GAP
//! implementation referenced in Table II.
//!
//! Push steps pop vertices from the frontier queue and probe
//! `parent[NA[i]]` (irregular); when the frontier grows past a threshold
//! the kernel switches to pull steps that scan unvisited vertices and test
//! frontier membership through incoming edges via the per-vertex depth
//! array (`depth[u] == level - 1`), as bitmap-free direction-optimizing
//! BFS implementations do — keeping the pull phase's irregular stream at
//! the full 4 B-per-vertex footprint of Table II.

use crate::input::KernelInput;
use crate::mem::{sid, AddressSpace};
use crate::mix;
use gpgraph::VertexId;
use simcore::trace::Tracer;

mod pc {
    pub const QUEUE_POP: u16 = 0x20;
    pub const OA_LOAD: u16 = 0x21;
    pub const NA_LOAD: u16 = 0x22;
    pub const PARENT_PROBE: u16 = 0x23; // irregular
    pub const PARENT_STORE: u16 = 0x24;
    pub const QUEUE_PUSH: u16 = 0x25;
    pub const PARENT_SCAN: u16 = 0x26; // pull: sequential parent scan
    pub const OA_IN_LOAD: u16 = 0x27;
    pub const NA_IN_LOAD: u16 = 0x28;
    pub const DEPTH_PROBE: u16 = 0x29; // irregular (pull membership test)
}

/// Unvisited marker in the parent array.
pub const UNVISITED: i64 = -1;

/// BFS outcome: parent tree and depth of each vertex.
#[derive(Debug)]
pub struct BfsResult {
    pub parent: Vec<i64>,
    pub depth: Vec<u32>,
    pub reached: usize,
}

/// Frontier fraction above which the kernel switches push -> pull.
const PULL_THRESHOLD: f64 = 0.05;

/// Run direction-optimizing BFS from `source`.
pub fn bfs<T: Tracer + ?Sized>(
    input: &KernelInput,
    asid: u8,
    source: VertexId,
    t: &mut T,
) -> BfsResult {
    let g = &input.csr;
    let gin = &input.csc;
    let n = g.num_vertices();

    let mut space = AddressSpace::new(asid);
    let oa = space.alloc(sid::OA, 8, n as u64 + 1);
    let na = space.alloc(sid::NA, 4, g.num_edges().max(1) as u64);
    let oa_in = space.alloc(sid::OA, 8, n as u64 + 1);
    let na_in = space.alloc(sid::NA, 4, gin.num_edges().max(1) as u64);
    let parent_arr = space.alloc(sid::PROP_A, 4, n as u64);
    let depth_arr = space.alloc(sid::PROP_A, 4, n as u64);
    let queue_arr = space.alloc(sid::FRONTIER, 4, n as u64);

    let mut parent = vec![UNVISITED; n];
    let mut depth = vec![u32::MAX; n];
    let mut frontier = vec![source];
    parent[source as usize] = source as i64;
    depth[source as usize] = 0;
    let mut reached = 1usize;
    let mut level = 0u32;

    'outer: while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        if (frontier.len() as f64) < PULL_THRESHOLD * n as f64 {
            // Push step.
            for (qi, &u) in frontier.iter().enumerate() {
                if qi % 512 == 0 && t.done() {
                    break 'outer;
                }
                queue_arr.load(t, pc::QUEUE_POP, qi as u64);
                oa.load(t, pc::OA_LOAD, u as u64);
                t.bubble(mix::VERTEX);
                let (lo, hi) = g.edge_range(u);
                for i in lo..hi {
                    na.load(t, pc::NA_LOAD, i);
                    let v = g.neighbor_at(i);
                    parent_arr.load(t, pc::PARENT_PROBE, v as u64);
                    t.bubble(mix::EDGE);
                    if parent[v as usize] == UNVISITED {
                        parent[v as usize] = u as i64;
                        depth[v as usize] = level;
                        parent_arr.store(t, pc::PARENT_STORE, v as u64);
                        queue_arr.store(t, pc::QUEUE_PUSH, next.len() as u64);
                        t.bubble(mix::UPDATE);
                        next.push(v);
                        reached += 1;
                    }
                }
            }
        } else {
            // Pull step: scan unvisited vertices; membership = depth test.
            let in_frontier: Vec<bool> = {
                let mut bm = vec![false; n];
                for &u in &frontier {
                    bm[u as usize] = true;
                }
                bm
            };
            for v in 0..n as VertexId {
                if v % 1024 == 0 && t.done() {
                    break 'outer;
                }
                parent_arr.load(t, pc::PARENT_SCAN, v as u64);
                t.bubble(mix::SCAN);
                if parent[v as usize] != UNVISITED {
                    continue;
                }
                oa_in.load(t, pc::OA_IN_LOAD, v as u64);
                t.bubble(mix::VERTEX);
                let (lo, hi) = gin.edge_range(v);
                for i in lo..hi {
                    na_in.load(t, pc::NA_IN_LOAD, i);
                    let u = gin.neighbor_at(i);
                    depth_arr.load(t, pc::DEPTH_PROBE, u as u64);
                    t.bubble(mix::EDGE);
                    if in_frontier[u as usize] {
                        parent[v as usize] = u as i64;
                        depth[v as usize] = level;
                        parent_arr.store(t, pc::PARENT_STORE, v as u64);
                        t.bubble(mix::UPDATE);
                        next.push(v);
                        reached += 1;
                        break;
                    }
                }
            }
        }
        frontier = next;
    }

    BfsResult { parent, depth, reached }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bfs_levels;
    use simcore::trace::{NullTracer, RecordingTracer};

    fn check_against_reference(input: &KernelInput, source: VertexId) {
        let result = bfs(input, 0, source, &mut NullTracer::new());
        let reference = bfs_levels(&input.csr, source);
        for v in 0..input.num_vertices() {
            let ref_depth = reference[v];
            if ref_depth == u32::MAX {
                assert_eq!(result.parent[v], UNVISITED, "vertex {v} wrongly reached");
            } else {
                assert_eq!(result.depth[v], ref_depth, "depth mismatch at {v}");
                if v as u32 != source {
                    // Parent must be one level closer.
                    let p = result.parent[v] as usize;
                    assert_eq!(reference[p], ref_depth - 1, "bad parent at {v}");
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_kron() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(9, 4, 21));
        let source = input.default_source();
        check_against_reference(&input, source);
    }

    #[test]
    fn matches_reference_on_road_like() {
        // High-diameter graph exercises many levels and the push path.
        let input = KernelInput::from_symmetric(gpgraph::gen::road(32, 0.95, 30, 3));
        check_against_reference(&input, 0);
    }

    #[test]
    fn pull_phase_engages_on_dense_graph() {
        // Dense graph: frontier explodes after one level, triggering pull.
        let input = KernelInput::from_symmetric(gpgraph::gen::urand(2000, 16, 5));
        let mut rec = RecordingTracer::new(10_000_000);
        bfs(&input, 0, input.default_source(), &mut rec);
        let trace = rec.finish();
        let pull_probes =
            trace.events.iter().filter(|e| e.is_mem() && e.pc == pc::DEPTH_PROBE).count();
        assert!(pull_probes > 0, "pull phase never engaged");
    }

    #[test]
    fn reached_counts_component_size() {
        let input = KernelInput::from_symmetric(gpgraph::gen::urand(500, 8, 7));
        let result = bfs(&input, 0, input.default_source(), &mut NullTracer::new());
        let reachable = result.parent.iter().filter(|&&p| p != UNVISITED).count();
        assert_eq!(result.reached, reachable);
        assert!(result.reached > 400, "random graph should be mostly connected");
    }
}
