//! What one run reports, and the helpers every workload shares to fill it.

use simcore::SimResult;
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics, in output order: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("sdclp_speedup_geomean", "ratio"),
];

/// The per-layer metrics the traced run prints on every workload: (name,
/// unit). A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("gpgraph.build_s", "s"),
    ("gpgraph.edges", "count"),
    ("gpgraph.self_s", "s"),
    ("gpkernels.record_s", "s"),
    ("gpkernels.trace_events", "count"),
    ("gpkernels.trace_mib", "MiB"),
    ("gpkernels.self_s", "s"),
    ("simcore.replay_s", "s"),
    ("simcore.replay_ns_per_event", "ns"),
    ("simcore.system_build_ms", "ms"),
    ("simcore.cache_access_ns", "ns"),
    ("simcore.dram_access_ns", "ns"),
    ("simcore.self_s", "s"),
    ("simcore.ipc", "instr/cycle"),
    ("simcore.l1d_mpki", "miss/kinstr"),
    ("simcore.l2c_mpki", "miss/kinstr"),
    ("simcore.llc_mpki", "miss/kinstr"),
    ("simcore.prefetch_useful_frac", "ratio"),
    ("simcore.dram_row_hit_frac", "ratio"),
    ("simcore.dram_read_latency_cycles", "cycles"),
    ("simcore.stall_cpi.rob_full", "cycles/instr"),
    ("simcore.stall_cpi.mshr_full", "cycles/instr"),
    ("simcore.stall_cpi.dram_wait", "cycles/instr"),
    ("simcore.stall_cpi.busy", "cycles/instr"),
    ("sdclp.lp_predict_ns", "ns"),
    ("sdclp.routed_to_sdc_frac", "ratio"),
    ("sdclp.sdc_hit_frac", "ratio"),
    ("sdclp.sdc_served_by_hierarchy", "count"),
    ("sdclp.sdcdir_invalidations", "count"),
    ("sdclp.self_s", "s"),
    ("gpworkloads.matrix_overhead_frac", "ratio"),
    ("gpworkloads.manifest_bytes", "bytes"),
    ("gpworkloads.self_s", "s"),
    ("simstate.snapshot_ms", "ms"),
    ("simstate.restore_ms", "ms"),
    ("simstate.snapshot_kib", "KiB"),
    ("simstate.store_save_ms", "ms"),
    ("simstate.store_load_ms", "ms"),
    ("simstate.self_s", "s"),
    ("simtel.overhead_frac", "ratio"),
    ("simtel.intervals", "count"),
    ("simtel.self_s", "s"),
    ("simserve.hit_frac", "ratio"),
    ("simserve.points_simulated", "count"),
    ("simserve.points_failed", "count"),
    ("simserve.first_record_ms_p50", "ms"),
    ("simserve.frame_codec_us", "us"),
    ("simserve.self_s", "s"),
    ("tracing.timed_s", "s"),
    ("tracing.sim_mips", "Minstr/s"),
    ("tracing.point_ms_p50", "ms"),
    ("tracing.spans", "count"),
    ("tracing.span_cost_frac", "ratio"),
];

/// Everything a workload run produces.
#[derive(Default)]
pub struct Outcome {
    /// When set-up started and ended.
    pub setup: Option<(Instant, Instant)>,
    /// Start and end of each interval of the timed phase.
    pub timed: Vec<(Instant, Instant)>,
    /// Simulated instructions delivered in the timed phase (warmup +
    /// measure window of every delivered point).
    pub delivered_instr: u64,
    /// Host milliseconds per timed point.
    pub points: Vec<f64>,
    pub passes: u64,
    /// Memory high-water, when the workload reads it before the run ends.
    pub peak_rss_mib: Option<f64>,
    pub attempted: u64,
    /// Points that failed, timed out, or failed an output check.
    pub failed: u64,
    pub sdclp_speedup: f64,
    /// FNV-1a over the simulated results, in a fixed order.
    pub fingerprint: u64,
    /// Per-layer metrics by name (see [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Host seconds of set-up, as measured.
    pub fn setup_s(&self) -> f64 {
        self.setup.map_or(0.0, |(a, b)| (b - a).as_secs_f64())
    }

    /// Host seconds of the timed phase, as measured.
    pub fn timed_s(&self) -> f64 {
        self.timed.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not declared in PER_LAYER"
        );
        self.layers.insert(name, value);
    }

    /// Count one failed output check, with its reason on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {}", what());
        }
        ok
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Host memory high-water mark of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Deterministic Fisher-Yates shuffle driven by SplitMix64 (the benchmark
/// seed chooses orders without touching the program's own RNG).
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// FNV-1a over labelled simulated results, sorted by label so the
/// fingerprint does not depend on execution order.
pub fn fingerprint(mut items: Vec<(String, String)>) -> u64 {
    items.sort();
    let mut h = simstate::Fnv1a::new();
    for (label, value) in items {
        h.update(label.as_bytes());
        h.update(&[0]);
        h.update(value.as_bytes());
        h.update(&[0]);
    }
    h.finish()
}

/// Simulated per-layer counts aggregated over `results`: every ratio is a
/// ratio of sums, so points weigh by their instructions and accesses.
/// `sdclp.*` ratios come from `sdc`, the results of the SDC+LP design.
pub fn simulated_counts(out: &mut Outcome, results: &[&SimResult], sdc: &[&SimResult]) {
    let sum = |f: &dyn Fn(&SimResult) -> u64| -> f64 { results.iter().map(|r| f(r) as f64).sum() };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let instr = sum(&|r| r.instructions);
    out.set("simcore.ipc", ratio(instr, sum(&|r| r.cycles)));
    out.set("simcore.l1d_mpki", ratio(1000.0 * sum(&|r| r.stats.l1d.misses), instr));
    out.set("simcore.l2c_mpki", ratio(1000.0 * sum(&|r| r.stats.l2c.misses), instr));
    out.set("simcore.llc_mpki", ratio(1000.0 * sum(&|r| r.stats.llc.misses), instr));
    let s = |r: &SimResult| [r.stats.l1d, r.stats.l2c, r.stats.llc];
    out.set(
        "simcore.prefetch_useful_frac",
        ratio(
            sum(&|r| s(r).iter().map(|c| c.prefetch_hits).sum()),
            sum(&|r| s(r).iter().map(|c| c.prefetch_fills).sum()),
        ),
    );
    let d = |r: &SimResult| r.stats.dram;
    out.set(
        "simcore.dram_row_hit_frac",
        ratio(
            sum(&|r| d(r).row_hits),
            sum(&|r| d(r).row_hits + d(r).row_misses + d(r).row_conflicts),
        ),
    );
    out.set(
        "simcore.dram_read_latency_cycles",
        ratio(sum(&|r| d(r).total_read_latency), sum(&|r| d(r).reads)),
    );
    let sum = |f: &dyn Fn(&SimResult) -> u64| -> f64 { sdc.iter().map(|r| f(r) as f64).sum() };
    let routed = sum(&|r| r.stats.routed_to_sdc);
    out.set("sdclp.routed_to_sdc_frac", ratio(routed, routed + sum(&|r| r.stats.routed_to_l1d)));
    out.set(
        "sdclp.sdc_hit_frac",
        ratio(sum(&|r| r.stats.sdc.hits), sum(&|r| r.stats.sdc.accesses)),
    );
    out.set("sdclp.sdc_served_by_hierarchy", sum(&|r| r.stats.sdc_served_by_hierarchy));
    out.set("sdclp.sdcdir_invalidations", sum(&|r| r.stats.sdcdir_evict_invalidations));
}

/// Stall cycles per instruction from telemetry intervals.
pub fn stall_cpi(out: &mut Outcome, intervals: &[simtel::TelemetryInterval]) {
    let instr: u64 = intervals.iter().map(|iv| iv.instructions).sum();
    let per = |f: &dyn Fn(&simtel::StallBuckets) -> u64| {
        let cycles: u64 = intervals.iter().map(|iv| f(&iv.stalls)).sum();
        if instr == 0 {
            0.0
        } else {
            cycles as f64 / instr as f64
        }
    };
    out.set("simcore.stall_cpi.rob_full", per(&|s| s.rob_full));
    out.set("simcore.stall_cpi.mshr_full", per(&|s| s.mshr_full));
    out.set("simcore.stall_cpi.dram_wait", per(&|s| s.dram_wait));
    out.set("simcore.stall_cpi.busy", per(&|s| s.busy));
    out.set("simtel.intervals", intervals.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fingerprint_ignores_order() {
        let x = vec![("a".to_string(), "1".to_string()), ("b".to_string(), "2".to_string())];
        let mut y = x.clone();
        y.reverse();
        assert_eq!(fingerprint(x), fingerprint(y));
    }
}
