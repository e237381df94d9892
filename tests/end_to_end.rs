//! Cross-crate integration tests: full pipeline runs (graph -> kernel ->
//! trace -> simulation) exercising every evaluated system design.

use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{all_workloads, Runner, SystemKind, Workload};
use simcore::Window;

fn quick_runner() -> Runner {
    Runner::new(SuiteScale::Tiny, Window::new(20_000, 120_000))
}

#[test]
fn every_system_design_runs_every_kernel() {
    let runner = quick_runner();
    for kernel in Kernel::ALL {
        let w = Workload::new(kernel, GraphInput::Kron);
        for kind in SystemKind::ALL {
            let res = runner.run_one(w, kind);
            assert!(res.instructions > 0, "{w} on {kind}");
            assert!(res.cycles > 0, "{w} on {kind}");
            assert!(res.ipc() > 0.0 && res.ipc() <= 4.0, "{w} on {kind}: ipc {}", res.ipc());
        }
        runner.evict_trace(w);
    }
}

#[test]
fn all_36_workloads_trace_and_simulate() {
    let runner = quick_runner();
    for w in all_workloads() {
        let res = runner.run_one(w, SystemKind::Baseline);
        assert!(res.instructions > 0, "{w}");
        assert!(res.stats.l1d.accesses > 0, "{w} produced no memory traffic");
        runner.evict_trace(w);
    }
}

#[test]
fn sdclp_beats_baseline_on_an_irregular_workload() {
    // The headline claim needs the paper's regime: a property array far
    // exceeding the LLC, which only Full scale provides (16 MiB vs
    // 1.375 MiB). Short window to keep the test affordable; reuse (or
    // create) the harness's on-disk graph cache so the 2^22-vertex build
    // cost is paid once per machine, not per test run.
    gpbench::use_graph_cache();
    let runner = Runner::new(SuiteScale::Full, Window::new(200_000, 800_000));
    let w = Workload::new(Kernel::Cc, GraphInput::Urand);
    let base = runner.run_one(w, SystemKind::Baseline);
    let prop = runner.run_one(w, SystemKind::SdcLp);
    assert!(
        prop.speedup_over(&base) > 1.05,
        "SDC+LP should beat Baseline on cc.urand at Full scale: {:.3}",
        prop.speedup_over(&base)
    );
    // And the bypass must have emptied the lower levels.
    assert!(prop.l2c_mpki() < base.l2c_mpki() / 2.0);
}

#[test]
fn runs_are_deterministic_across_engine_instances() {
    let runner = quick_runner();
    let w = Workload::new(Kernel::Sssp, GraphInput::Twitter);
    let a = runner.run_one(w, SystemKind::SdcLp);
    let b = runner.run_one(w, SystemKind::SdcLp);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats.sdc.misses, b.stats.sdc.misses);
    assert_eq!(a.stats.dram.reads, b.stats.dram.reads);
}

#[test]
fn regular_suite_is_not_hurt_by_sdclp() {
    use gpworkloads::RegularKind;
    let runner = quick_runner();
    for kind in RegularKind::ALL {
        let base = runner.run_regular_on(
            kind,
            Box::new(simcore::BaselineHierarchy::new(&simcore::SystemConfig::baseline(1))),
        );
        let prop = runner.run_regular_on(
            kind,
            Box::new(sdclp::sdclp_system(
                &simcore::SystemConfig::baseline(1),
                sdclp::SdcLpConfig::table1(),
            )),
        );
        let speedup = prop.speedup_over(&base);
        assert!(
            speedup > 0.9,
            "{kind}: SDC+LP must not badly hurt regular code (got {speedup:.3})"
        );
    }
}

#[test]
fn stride_profile_shows_dram_correlation_on_irregular_workload() {
    // Finding 3 at integration level: on a Medium irregular workload, the
    // large-stride buckets must have a much higher DRAM probability than
    // the small-stride ones.
    gpbench::use_graph_cache();
    let runner = Runner::new(SuiteScale::Medium, Window::new(100_000, 400_000));
    let w = Workload::new(Kernel::Cc, GraphInput::Friendster);
    let (_, profile) = runner.run_with_stride_profile(w, SystemKind::Baseline);
    let small: f64 = profile.dram_probability(1).max(profile.dram_probability(2));
    let large_bucket = (4..9)
        .filter(|&i| profile.accesses[i] > 1000)
        .map(|i| profile.dram_probability(i))
        .fold(0.0f64, f64::max);
    assert!(
        large_bucket > small + 0.2,
        "large-stride DRAM probability ({large_bucket:.2}) should exceed small-stride ({small:.2})"
    );
}
