//! Multi-core demo: run a 4-thread mix of graph workloads on the Baseline
//! and SDC+LP machines and report the normalized weighted speedup
//! (Section IV-D / Fig. 14 methodology).
//!
//! ```sh
//! cargo run --release --example multicore_mix
//! ```

use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{MulticoreRunner, Runner, SystemKind, Workload};
use simcore::Window;

fn main() {
    // Full scale is the regime the paper's mechanism needs (per-core
    // property arrays far exceeding the shared LLC). Graphs are cached on
    // disk after the first run (~minutes to generate, seconds to reload).
    gpbench::use_graph_cache();
    let runner = Runner::new(SuiteScale::Full, Window::new(500_000, 2_000_000));
    let mc = MulticoreRunner::new(&runner);

    let mix = [
        Workload::new(Kernel::Pr, GraphInput::Kron),
        Workload::new(Kernel::Cc, GraphInput::Urand),
        Workload::new(Kernel::Bfs, GraphInput::Twitter),
        Workload::new(Kernel::Sssp, GraphInput::Friendster),
    ];
    println!("mix: {}", mix.map(|w| w.name()).join(", "));

    println!();
    println!("per-thread shared-vs-isolated IPC on the Baseline machine:");
    let shared = mc.run_mix(&mix, SystemKind::Baseline);
    for (w, res) in mix.iter().zip(&shared) {
        let single = mc.single_ipc(*w, SystemKind::Baseline);
        println!(
            "  {:<18} shared {:.3}  isolated {:.3}  (slowdown {:.2}x)",
            w.name(),
            res.ipc(),
            single,
            single / res.ipc().max(1e-9)
        );
    }

    println!();
    for kind in [SystemKind::Baseline, SystemKind::TOpt, SystemKind::SdcLp] {
        let ws = mc.normalized_weighted_speedup(&mix, kind);
        println!("normalized weighted speedup, {:<18} {:+.1}%", kind.name(), (ws - 1.0) * 100.0);
    }
    println!();
    println!("(the gpbench fig14 binary runs the full 50-mix experiment)");
}
