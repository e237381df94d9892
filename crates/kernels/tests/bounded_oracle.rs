//! The T-OPT oracle is built only for the neighbors-array positions a
//! recording can reach; the recorded events must not change. And it is
//! built over the neighbors array the kernel sweeps.

use gpgraph::{build_csr, BuildOptions, VertexId};
use gpkernels::cc::connected_components;
use gpkernels::{run_kernel_windowed, sid, Kernel, KernelInput, NextUseOracle};
use simcore::trace::{CompactTrace, MemRef, RecordingTracer, Tracer};

/// A recorder that hides its bound, so kernels build the full oracle.
struct Unbounded(RecordingTracer);

impl Tracer for Unbounded {
    fn mem(&mut self, r: MemRef) {
        self.0.mem(r);
    }

    fn bubble(&mut self, n: u32) {
        self.0.bubble(n);
    }

    fn done(&self) -> bool {
        self.0.done()
    }
}

fn record(
    kernel: Kernel,
    input: &KernelInput,
    skip: u64,
    limit: u64,
) -> (CompactTrace, CompactTrace) {
    let mut bounded = RecordingTracer::with_skip(skip, limit);
    run_kernel_windowed(kernel, input, 0, &mut bounded);
    let mut full = Unbounded(RecordingTracer::with_skip(skip, limit));
    run_kernel_windowed(kernel, input, 0, &mut full);
    (bounded.finish(), full.0.finish())
}

fn hinted(trace: &CompactTrace) -> usize {
    trace.events.iter().filter(|e| e.is_mem() && e.next_use != u32::MAX).count()
}

#[test]
fn bounded_oracle_records_the_same_events_as_the_full_one() {
    let input = KernelInput::from_symmetric(gpgraph::gen::urand(1024, 48, 21));
    let (n, na) = (input.num_vertices() as u64, input.num_edges() as u64);
    // PageRank's contrib sweep costs 9 instructions per vertex before the
    // first hinted gather; the graph's degree makes that a small prefix.
    assert!(10 * n < na / 4, "n {n}, na {na}");
    // Three windows whose bound (skip + limit) is below the NA length, then
    // a multi-sweep window that keeps the whole table.
    let windows = [(0, na / 2), (10 * n, na / 4), (na / 2, na / 3), (na / 2, na)];
    for &(skip, limit) in &windows[..3] {
        let bound = RecordingTracer::with_skip(skip, limit).remaining();
        assert!(bound.is_some_and(|b| b < na), "{skip}+{limit}: bound below the NA length");
    }
    for kernel in [Kernel::Pr, Kernel::Cc] {
        for &(skip, limit) in &windows {
            let (bounded, full) = record(kernel, &input, skip, limit);
            assert!(hinted(&full) > 0, "{kernel} {skip}+{limit}: the window holds hinted events");
            assert_eq!(bounded.instructions, full.instructions);
            assert_eq!(bounded.len(), full.len(), "{kernel} {skip}+{limit}");
            for (i, (b, f)) in bounded.events.iter().zip(full.events.iter()).enumerate() {
                assert_eq!(b, f, "{kernel} {skip}+{limit}: event {i}");
            }
        }
    }
}

/// Collects the hint of every property load that directly follows a
/// neighbors-array load: in `cc`'s hook sweep, the `comp[NA[i]]` loads.
#[derive(Default)]
struct SweepHints {
    after_na: bool,
    hints: Vec<u32>,
}

impl Tracer for SweepHints {
    fn mem(&mut self, r: MemRef) {
        if self.after_na {
            self.hints.push(r.next_use);
        }
        self.after_na = r.sid == sid::NA && !r.is_write;
    }

    fn bubble(&mut self, _n: u32) {}

    fn done(&self) -> bool {
        false
    }
}

#[test]
fn cc_hints_follow_the_csr_it_sweeps() {
    // A directed graph, so the CSR and CSC neighbors arrays differ.
    let n = 64u32;
    let edges: Vec<(VertexId, VertexId)> =
        (0..4 * n).map(|k| (k % n, (k * 7 + k / n * 13 + 1) % n)).collect();
    let input = KernelInput::from_directed(build_csr(n as usize, edges, BuildOptions::default()));
    let na = input.num_edges();
    let swept: Vec<VertexId> = (0..na as u64).map(|i| input.csr.neighbor_at(i)).collect();
    let transposed: Vec<VertexId> = (0..na as u64).map(|i| input.csc.neighbor_at(i)).collect();
    assert_ne!(swept, transposed, "the test graph must not be symmetric");

    let mut t = SweepHints::default();
    let rounds = connected_components(&input, 0, &mut t).rounds as usize;
    assert_eq!(t.hints.len(), rounds * na, "one hinted load per NA slot per round");
    let oracle = NextUseOracle::build(&input.csr, None);
    let expected: Vec<u32> = (0..t.hints.len())
        .map(|k| oracle.hint(u32::try_from(k / na).unwrap(), (k % na) as u64, swept[k % na]))
        .collect();
    assert_eq!(t.hints, expected);
}
