//! Reproduce the paper's motivating analysis (Section II-B) on PageRank:
//! MPKI across the hierarchy, the fraction of L1D misses that fall through
//! to DRAM (Findings 1-2), and the stride/DRAM correlation the Large
//! Predictor exploits (Finding 3).
//!
//! ```sh
//! cargo run --release --example pagerank_bottleneck
//! ```

use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{Runner, SystemKind, Workload};
use simcore::stats::{stride_bucket_label, STRIDE_BUCKETS};
use simcore::Window;

fn main() {
    let runner = Runner::new(SuiteScale::Medium, Window::new(200_000, 1_800_000));
    let w = Workload::new(Kernel::Pr, GraphInput::Friendster);

    println!("running {w} on the Baseline with the stride profiler attached...");
    let (result, profile) = runner.run_with_stride_profile(w, SystemKind::Baseline);

    println!();
    println!("Finding 1 - MPKI by level:");
    println!(
        "  L1D {:6.1}   L2C {:6.1}   LLC {:6.1}",
        result.l1d_mpki(),
        result.l2c_mpki(),
        result.llc_mpki()
    );

    let fallthrough =
        if result.l1d_mpki() > 0.0 { result.llc_mpki() / result.l1d_mpki() * 100.0 } else { 0.0 };
    println!();
    println!("Finding 2 - {fallthrough:.1}% of L1D misses fall through to DRAM");
    println!("            (the paper reports 78.6% on its suite)");

    println!();
    println!("Finding 3 - P(DRAM) by PC-stride bucket:");
    for i in 0..STRIDE_BUCKETS {
        if profile.accesses[i] == 0 {
            continue;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a probability times 40 lies in 0..=40"
        )]
        let bar_len = (profile.dram_probability(i) * 40.0) as usize;
        println!(
            "  {:>12}  {:>9} accesses  {:5.1}%  {}",
            stride_bucket_label(i),
            profile.accesses[i],
            profile.dram_probability(i) * 100.0,
            "#".repeat(bar_len)
        );
    }
    println!();
    println!("Large strides -> DRAM: that correlation is all the Large Predictor needs.");
}
