//! PageRank — pull-only, the paper's Algorithm 1.
//!
//! Two phases per iteration: a sequential sweep writing
//! `outgoing_contrib[u] = scores[u] / d+(u)`, then the pull sweep where
//! each vertex sums `outgoing_contrib[NA[i]]` over its incoming neighbors.
//! The contrib loads are the canonical cache-averse stream the paper's
//! introduction dissects; they carry T-OPT next-use hints.

use crate::input::KernelInput;
use crate::mem::{sid, AddressSpace};
use crate::mix;
use crate::oracle::NextUseOracle;
use simcore::trace::Tracer;

/// Synthetic PCs, one per static access site.
mod pc {
    pub const SCORE_LOAD: u16 = 0x10;
    pub const DEGREE_LOAD: u16 = 0x11;
    pub const CONTRIB_STORE: u16 = 0x12;
    pub const OA_LOAD: u16 = 0x13;
    pub const NA_LOAD: u16 = 0x14;
    pub const CONTRIB_GATHER: u16 = 0x15; // the irregular one
    pub const SCORE_STORE: u16 = 0x16;
}

/// PageRank outcome.
#[derive(Debug)]
pub struct PrResult {
    pub scores: Vec<f64>,
    pub iterations: u32,
    pub converged: bool,
}

/// Run pull-PageRank, emitting the memory trace into `t`.
pub fn pagerank<T: Tracer + ?Sized>(
    input: &KernelInput,
    asid: u8,
    damping: f64,
    epsilon: f64,
    max_iters: u32,
    t: &mut T,
) -> PrResult {
    let g = &input.csc; // pull: incoming neighbors
    let out = &input.csr;
    let n = g.num_vertices();
    // Built for this run only, over the NA positions of the swept CSC the
    // tracer can still record; dropped when the run (recording) ends.
    let oracle = NextUseOracle::build(g, t.remaining());

    let mut space = AddressSpace::new(asid);
    let oa = space.alloc(sid::OA, 8, n as u64 + 1);
    let na = space.alloc(sid::NA, 4, g.num_edges().max(1) as u64);
    let scores_arr = space.alloc(sid::PROP_B, 4, n as u64);
    let contrib_arr = space.alloc(sid::PROP_A, 4, n as u64);
    let degree_arr = space.alloc(sid::DEGREE, 4, n as u64);

    let base = (1.0 - damping) / n as f64;
    let mut scores = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0f64; n];

    let mut iterations = 0;
    let mut converged = false;
    'outer: for iter in 0..max_iters {
        iterations = iter + 1;
        // Phase 1 (Algorithm 1, lines 4-6): sequential contrib sweep.
        #[allow(clippy::needless_range_loop)] // mirrors Algorithm 1's indexing
        for u in 0..n {
            if u % 4096 == 0 && t.done() {
                break 'outer;
            }
            scores_arr.load(t, pc::SCORE_LOAD, u as u64);
            degree_arr.load(t, pc::DEGREE_LOAD, u as u64);
            contrib_arr.store(t, pc::CONTRIB_STORE, u as u64);
            t.bubble(mix::VERTEX);
            let d = out.degree(u as u32);
            contrib[u] = if d > 0 { scores[u] / d as f64 } else { 0.0 };
        }
        // Phase 2 (lines 7-15): the pull sweep.
        let mut error = 0.0;
        #[allow(clippy::needless_range_loop)] // mirrors Algorithm 1's indexing
        for u in 0..n {
            if u % 1024 == 0 && t.done() {
                break 'outer;
            }
            oa.load(t, pc::OA_LOAD, u as u64);
            t.bubble(mix::VERTEX);
            let (lo, hi) = g.edge_range(u as u32);
            let mut sum = 0.0;
            for i in lo..hi {
                let v = g.neighbor_at(i);
                na.load(t, pc::NA_LOAD, i);
                // The connectivity-driven gather: cache-averse by nature.
                contrib_arr.load_hinted(
                    t,
                    pc::CONTRIB_GATHER,
                    v as u64,
                    oracle.hint(iter, i as u32, v),
                );
                t.bubble(mix::EDGE);
                sum += contrib[v as usize];
            }
            scores_arr.store(t, pc::SCORE_STORE, u as u64);
            t.bubble(mix::UPDATE);
            let new_score = base + damping * sum;
            error += (new_score - scores[u]).abs();
            scores[u] = new_score;
        }
        if error < epsilon {
            converged = true;
            break;
        }
    }
    PrResult { scores, iterations, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::pagerank_dense;
    use simcore::trace::{NullTracer, RecordingTracer};

    fn small_input() -> KernelInput {
        KernelInput::from_symmetric(gpgraph::gen::kron(8, 4, 11))
    }

    #[test]
    fn matches_dense_reference() {
        let input = small_input();
        let mut t = NullTracer::new();
        let result = pagerank(&input, 0, 0.85, 1e-9, 100, &mut t);
        let reference = pagerank_dense(&input.csr, 0.85, 1e-9, 100);
        for (a, b) in result.scores.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!(result.converged);
    }

    #[test]
    fn trace_contains_irregular_gathers() {
        let input = small_input();
        let mut rec = RecordingTracer::new(200_000);
        pagerank(&input, 0, 0.85, 1e-9, 3, &mut rec);
        let trace = rec.finish();
        let gathers =
            trace.events.iter().filter(|e| e.is_mem() && e.pc == pc::CONTRIB_GATHER).count();
        // One gather per edge per iteration (window permitting).
        assert!(gathers > input.num_edges() / 2, "gathers = {gathers}");
        // Most gathers carry oracle hints.
        let hinted = trace
            .events
            .iter()
            .filter(|e| e.is_mem() && e.pc == pc::CONTRIB_GATHER && e.next_use != u32::MAX)
            .count();
        assert!(hinted > gathers / 2, "hinted = {hinted} of {gathers}");
    }

    #[test]
    fn oracle_hints_predict_the_true_next_access() {
        // Strong end-to-end oracle check: within a recorded PR trace, each
        // hinted gather's next_use must equal the hinted-access index at
        // which the same element is next accessed.
        let input = small_input();
        let mut rec = RecordingTracer::new(500_000);
        pagerank(&input, 0, 0.85, 1e-9, 3, &mut rec);
        let trace = rec.finish();

        use std::collections::HashMap;
        let hinted: Vec<(u64, u32)> = trace
            .events
            .iter()
            .filter(|e| e.is_mem() && e.pc == pc::CONTRIB_GATHER)
            .map(|e| (e.addr, e.next_use))
            .collect();
        let mut next_seen: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, (addr, _)) in hinted.iter().enumerate() {
            next_seen.entry(*addr).or_default().push(i as u32);
        }
        let mut checked = 0;
        for (i, (addr, hint)) in hinted.iter().enumerate() {
            if *hint == u32::MAX {
                continue;
            }
            let positions = &next_seen[addr];
            let idx = positions.partition_point(|&p| p <= i as u32);
            if let Some(&actual_next) = positions.get(idx) {
                // Hints count hinted accesses starting at the oracle's own
                // origin; allow the off-by-one between "position" and
                // "count" conventions.
                assert!(
                    hint.abs_diff(actual_next) <= 1,
                    "access {i} to {addr:#x}: hint {hint}, actual next {actual_next}"
                );
                checked += 1;
            }
            // else: next access fell outside the window - unverifiable.
        }
        assert!(checked > 1000, "only {checked} hints were verifiable");
    }

    #[test]
    fn window_limits_respected() {
        let input = small_input();
        let mut rec = RecordingTracer::new(10_000);
        pagerank(&input, 0, 0.85, 1e-9, 100, &mut rec);
        let trace = rec.finish();
        assert!(trace.instructions <= 10_000 + 4096 * 16);
    }

    #[test]
    fn scores_sum_to_one_without_dangling_vertices() {
        // Dangling vertices leak rank mass (as in GAP); a ring has none.
        let edges: Vec<(u32, u32)> = (0..256u32).map(|v| (v, (v + 1) % 256)).collect();
        let g = gpgraph::build_csr(
            256,
            &edges,
            gpgraph::BuildOptions { symmetrize: true, ..Default::default() },
        );
        let input = KernelInput::from_symmetric(g);
        let result = pagerank(&input, 0, 0.85, 1e-12, 200, &mut NullTracer::new());
        let sum: f64 = result.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }
}
