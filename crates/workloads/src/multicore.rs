//! Multi-core workloads (Section IV-D): 50 randomly generated 4-thread
//! mixes of the 36 single-thread workloads, evaluated by weighted speedup.

use crate::configs::{build_multicore, SystemKind};
use crate::runner::Runner;
use crate::singlecore::{all_workloads, Workload};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::{weighted_ipc, CompactTrace, MulticoreEngine, SimResult, SystemConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Threads per mix (the paper evaluates 4-thread mixes).
pub const MIX_WIDTH: usize = 4;

/// A 4-thread multi-programmed mix.
pub type Mix = [Workload; MIX_WIDTH];

/// Generate `count` mixes by uniform sampling (with replacement) from the
/// 36 workloads, deterministically from `seed`.
pub fn generate_mixes(count: usize, seed: u64) -> Vec<Mix> {
    let pool = all_workloads();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| std::array::from_fn(|_| pool[rng.random_range(0..pool.len())])).collect()
}

/// The 50 mixes the Fig. 14 evaluation uses.
pub fn paper_mixes() -> Vec<Mix> {
    generate_mixes(50, 0x000F_1614)
}

/// Runs multi-core experiments on top of a [`Runner`]'s cached traces,
/// memoizing each workload's isolated IPC per design.
pub struct MulticoreRunner<'r> {
    pub runner: &'r Runner,
    single_ipc: Mutex<BTreeMap<(Workload, SystemKind), f64>>,
}

impl<'r> MulticoreRunner<'r> {
    pub fn new(runner: &'r Runner) -> Self {
        MulticoreRunner { runner, single_ipc: Mutex::new(BTreeMap::new()) }
    }

    fn core_params(&self) -> (usize, usize) {
        let c = SystemConfig::baseline(1).core;
        (c.width, c.rob_entries)
    }

    /// A workload's IPC running alone on the `MIX_WIDTH`-core machine of
    /// the given design (Section IV-D's `IPC_single`).
    pub fn single_ipc(&self, w: Workload, kind: SystemKind) -> f64 {
        if let Some(&ipc) = self.single_ipc.lock().get(&(w, kind)) {
            return ipc;
        }
        let trace = self.runner.trace(w);
        let (cores, backend) = build_multicore(kind, &[w.kernel], MIX_WIDTH, &self.runner.sdclp);
        let (width, rob) = self.core_params();
        let engine = MulticoreEngine::new(cores, backend, self.runner.window);
        let results = engine.run(&[&trace], width, rob);
        let ipc = results[0].ipc();
        self.single_ipc.lock().insert((w, kind), ipc);
        ipc
    }

    /// Run a mix on a design; returns per-thread shared results.
    pub fn run_mix(&self, mix: &Mix, kind: SystemKind) -> Vec<SimResult> {
        let traces: Vec<Arc<CompactTrace>> = mix.iter().map(|&w| self.runner.trace(w)).collect();
        let trace_refs: Vec<&CompactTrace> = traces.iter().map(|t| t.as_ref()).collect();
        // Disjoint per-core address spaces, as in the paper's mixes.
        let offsets: Vec<u64> = (0..MIX_WIDTH as u64).map(|c| c << 40).collect();
        let kernels: Vec<_> = mix.iter().map(|w| w.kernel).collect();
        let (cores, backend) = build_multicore(kind, &kernels, MIX_WIDTH, &self.runner.sdclp);
        let (width, rob) = self.core_params();
        let engine = MulticoreEngine::new(cores, backend, self.runner.window);
        engine.run_with_offsets(&trace_refs, &offsets, width, rob)
    }

    /// The mix's weighted IPC on a design: sum of IPC_shared/IPC_single
    /// (Section IV-D). Figures normalize this to the Baseline design's.
    pub fn weighted_ipc(&self, mix: &Mix, kind: SystemKind) -> f64 {
        let shared = self.run_mix(mix, kind);
        let singles: Vec<f64> = mix.iter().map(|&w| self.single_ipc(w, kind)).collect();
        weighted_ipc(&shared, &singles)
    }

    /// Normalized weighted speedup of `kind` over Baseline for one mix —
    /// the y-axis of Fig. 14.
    pub fn normalized_weighted_speedup(&self, mix: &Mix, kind: SystemKind) -> f64 {
        let base = self.weighted_ipc(mix, SystemKind::Baseline);
        if base <= 0.0 {
            return 0.0;
        }
        self.weighted_ipc(mix, kind) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgraph::SuiteScale;
    use simcore::Window;

    #[test]
    fn mixes_are_deterministic_and_sized() {
        let a = generate_mixes(50, 7);
        let b = generate_mixes(50, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let c = generate_mixes(50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_mixes_cover_many_workloads() {
        let mixes = paper_mixes();
        let mut distinct: Vec<Workload> = mixes.iter().flatten().copied().collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() > 25, "only {} distinct workloads", distinct.len());
    }

    #[test]
    fn mix_run_produces_four_results_and_sane_weighted_ipc() {
        let runner = Runner::new(SuiteScale::Tiny, Window::new(10_000, 40_000));
        let mc = MulticoreRunner::new(&runner);
        let mix = generate_mixes(1, 3)[0];
        let results = mc.run_mix(&mix, SystemKind::Baseline);
        assert_eq!(results.len(), 4);
        let ws = mc.weighted_ipc(&mix, SystemKind::Baseline);
        assert!(ws > 0.0 && ws <= 4.2, "weighted ipc = {ws}");
    }

    #[test]
    fn single_ipc_is_memoized() {
        let runner = Runner::new(SuiteScale::Tiny, Window::new(5_000, 20_000));
        let mc = MulticoreRunner::new(&runner);
        let w = all_workloads()[0];
        let a = mc.single_ipc(w, SystemKind::Baseline);
        let b = mc.single_ipc(w, SystemKind::Baseline);
        assert_eq!(a, b);
    }
}
