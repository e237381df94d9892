//! Connected Components — Shiloach–Vishkin, as cited by the paper
//! (Table II: push-mostly, no frontier).
//!
//! Each round sweeps every edge, hooking the larger component label onto
//! the smaller (`comp[comp[v]] = comp[u]`), then compresses label chains by
//! pointer jumping. The `comp[NA[i]]` loads sweep the NA in order and carry
//! T-OPT hints; the hook/compress chases are irregular and unhinted.

use crate::input::KernelInput;
use crate::mem::{sid, AddressSpace};
use crate::mix;
use crate::oracle::NextUseOracle;
use gpgraph::VertexId;
use simcore::trace::Tracer;

mod pc {
    pub const OA_LOAD: u16 = 0x30;
    pub const NA_LOAD: u16 = 0x31;
    pub const COMP_U: u16 = 0x32; // mostly sequential (outer loop)
    pub const COMP_V: u16 = 0x33; // irregular, hinted
    pub const COMP_HOOK: u16 = 0x34; // irregular store
    pub const COMP_JUMP: u16 = 0x35; // pointer chase
    pub const COMP_STORE: u16 = 0x36;
}

/// CC outcome: one label per vertex; two vertices are connected iff their
/// labels are equal.
#[derive(Debug)]
pub struct CcResult {
    pub comp: Vec<VertexId>,
    pub rounds: u32,
}

/// Run Shiloach–Vishkin connected components.
pub fn connected_components<T: Tracer + ?Sized>(
    input: &KernelInput,
    asid: u8,
    t: &mut T,
) -> CcResult {
    let g = &input.csr;
    let n = g.num_vertices();
    // Built for this run only, over the NA positions of the swept CSR the
    // tracer can still record; dropped when the run (recording) ends.
    let oracle = NextUseOracle::build(g, t.remaining().map(|n| n / mix::NA_POSITION + 1));

    let mut space = AddressSpace::new(asid);
    let oa = space.alloc(sid::OA, 8, n as u64 + 1);
    let na = space.alloc(sid::NA, 4, g.num_edges().max(1) as u64);
    let comp_arr = space.alloc(sid::PROP_A, 4, n as u64);

    let mut comp: Vec<VertexId> = g.vertex_ids().collect();
    let mut rounds = 0;

    'outer: loop {
        rounds += 1;
        let mut changed = false;
        // Hook phase: one NA sweep.
        for u in g.vertex_ids() {
            if u % 1024 == 0 && t.done() {
                break 'outer;
            }
            oa.load(t, pc::OA_LOAD, u as u64);
            comp_arr.load(t, pc::COMP_U, u as u64);
            t.bubble(mix::VERTEX);
            for (i, v) in g.row(u) {
                na.load(t, pc::NA_LOAD, i);
                comp_arr.load_hinted(t, pc::COMP_V, v as u64, oracle.hint(rounds - 1, i, v));
                t.bubble(mix::EDGE);
                let (cu, cv) = (comp[u as usize], comp[v as usize]);
                if cv < cu {
                    // Hook: comp[comp[u]] = comp[v].
                    comp_arr.store(t, pc::COMP_HOOK, cu as u64);
                    t.bubble(mix::UPDATE);
                    comp[cu as usize] = cv;
                    changed = true;
                }
            }
        }
        // Compress phase: pointer jumping.
        for v in g.vertex_ids() {
            if v % 2048 == 0 && t.done() {
                break 'outer;
            }
            comp_arr.load(t, pc::COMP_U, v as u64);
            t.bubble(mix::UPDATE);
            let mut c = comp[v as usize];
            while comp[c as usize] != c {
                comp_arr.load(t, pc::COMP_JUMP, c as u64);
                t.bubble(mix::CHASE);
                c = comp[c as usize];
            }
            comp_arr.store(t, pc::COMP_STORE, v as u64);
            comp[v as usize] = c;
        }
        if !changed {
            break;
        }
    }
    CcResult { comp, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::cc_union_find;
    use simcore::trace::{NullTracer, RecordingTracer};

    fn partitions_agree(a: &[VertexId], b: &[VertexId]) -> bool {
        // Same partition iff label-equality relations coincide. Check via
        // canonical mapping.
        use std::collections::BTreeMap;
        let mut fwd: BTreeMap<u32, u32> = BTreeMap::new();
        let mut rev: BTreeMap<u32, u32> = BTreeMap::new();
        for (&x, &y) in a.iter().zip(b) {
            match (fwd.get(&x), rev.get(&y)) {
                (None, None) => {
                    fwd.insert(x, y);
                    rev.insert(y, x);
                }
                (Some(&yy), _) if yy != y => return false,
                (_, Some(&xx)) if xx != x => return false,
                _ => {}
            }
        }
        true
    }

    #[test]
    fn matches_union_find_on_kron() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(9, 2, 13));
        let result = connected_components(&input, 0, &mut NullTracer::new());
        let reference = cc_union_find(&input.csr);
        assert!(partitions_agree(&result.comp, &reference));
    }

    #[test]
    fn matches_union_find_on_sparse_road() {
        // Sparse grid with deleted edges: many components.
        let input = KernelInput::from_symmetric(gpgraph::gen::road(32, 0.6, 10, 5));
        let result = connected_components(&input, 0, &mut NullTracer::new());
        let reference = cc_union_find(&input.csr);
        assert!(partitions_agree(&result.comp, &reference));
    }

    #[test]
    fn labels_are_fixpoints() {
        let input = KernelInput::from_symmetric(gpgraph::gen::urand(300, 4, 2));
        let result = connected_components(&input, 0, &mut NullTracer::new());
        for &c in &result.comp {
            assert_eq!(result.comp[c as usize], c, "label {c} is not a root");
        }
    }

    #[test]
    fn emits_hinted_na_sweep() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(8, 4, 4));
        let mut rec = RecordingTracer::new(1_000_000);
        connected_components(&input, 0, &mut rec);
        let trace = rec.finish();
        let hinted = trace
            .events
            .iter()
            .filter(|e| e.is_mem() && e.pc == pc::COMP_V && e.next_use != u32::MAX)
            .count();
        assert!(hinted > 0);
    }
}
