//! The paper's tables and figures as rows of one spec table, [`FIGURES`].
//!
//! A workload x system sweep row is data: its tag (the manifest and
//! state-dir name), title, paper-reference line, workload set, a
//! Baseline-first list of design points, and the table's columns.
//! [`run_figure`] drives every such row through
//! [`crate::sweep::run_sweep`] and [`crate::sweep::render_table`]. Rows
//! that are not (only) a per-workload table — Tables I–IV, Fig. 3,
//! Fig. 14, `diag`'s per-point dump and `threshold_sweep`'s summary —
//! render through one plain function each.

use crate::sweep::{render_table, run_sweep, speedups, Column, Footer, Value};
use crate::{finish_sweeps, pct, tagged_path, Flags, HarnessOpts, TextTable};
use gpgraph::{DegreeStats, GraphInput};
use gpkernels::Kernel;
use gpworkloads::{
    all_workloads, cc_friendster, paper_mixes, MatrixPoint, MulticoreRunner, PointStatus,
    RegularKind, RunRecord, Runner, SystemKind, SystemSpec, Workload,
};
use sdclp::{HardwareBudget, LpConfig, Route, SdcConfig, SdcCore, SdcLpConfig, StaticRouter};
use simcore::config::{PrefetcherKind, ReplacementKind, PAGE_WALK_LATENCY};
use simcore::hierarchy::{SharedBackend, SingleCore};
use simcore::stats::{stride_bucket_label, STRIDE_BUCKETS};
use simcore::{geomean, SimResult, SystemConfig};
use std::process::ExitCode;

/// One workload x system sweep of a figure row.
#[derive(Clone, Copy)]
pub struct Sweep {
    /// Manifest, state-dir and benchmark-summary name.
    pub tag: &'static str,
    /// Heading above this sweep's table (`None`: the figure's title).
    pub caption: Option<&'static str>,
    /// The workloads swept, before `--only`.
    pub workloads: fn() -> Vec<Workload>,
    /// The design points of each row, Baseline first, given the runner's
    /// SDC+LP parameters.
    pub specs: fn(&SdcLpConfig) -> Vec<SystemSpec>,
    pub columns: &'static [Column],
}

impl Sweep {
    /// The defaults of a suite sweep: all 36 workloads, the figure's title.
    pub const SUITE: Sweep = Sweep {
        tag: "",
        caption: None,
        workloads: all_workloads,
        specs: |_| Vec::new(),
        columns: &[],
    };

    /// The sweep's points (workload-major, so each row of the table is one
    /// chunk) and the number of points per row.
    pub fn points(&self, opts: &HarnessOpts, sdclp: &SdcLpConfig) -> (Vec<MatrixPoint>, usize) {
        let specs = (self.specs)(sdclp);
        let points = (self.workloads)()
            .into_iter()
            .filter(|w| opts.selected(&w.name()))
            .flat_map(|w| specs.iter().map(move |s| MatrixPoint::new(w, s.clone())))
            .collect();
        (points, specs.len())
    }
}

/// A sweep's records and its points per row.
pub type SweepRecords = (usize, Vec<RunRecord>);

/// What a plain render function gets to work with.
pub struct Ctx<'a> {
    pub fig: &'a Figure,
    pub opts: &'a HarnessOpts,
    pub flags: &'a Flags,
    pub runner: &'a Runner,
}

/// A render function for a row that is not a plain per-workload table.
/// An `Err` is a usage error (a bad binary-specific flag value).
pub type Plain = fn(&Ctx, &[SweepRecords]) -> Result<(), String>;

/// One paper artifact: a row of [`FIGURES`].
pub struct Figure {
    /// The `figure` subcommand.
    pub name: &'static str,
    /// The table heading; `{scale}` is replaced by the suite scale.
    pub title: &'static str,
    /// Paper reference values, printed under the table.
    pub reference: &'static str,
    pub sweeps: &'static [Sweep],
    /// Valued flags this row accepts besides the shared ones.
    pub flags: &'static [&'static str],
    /// Renders the row instead of one table per sweep.
    pub plain: Option<Plain>,
}

impl Figure {
    /// The defaults of a row: no sweeps, reference, flags or plain render.
    pub const ROW: Figure =
        Figure { name: "", title: "", reference: "", sweeps: &[], flags: &[], plain: None };
}

/// Look a row up by name.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Run one row: every sweep through the driver, then its tables (or its
/// plain render function), then the harness exit protocol.
pub fn run_figure(fig: &Figure, opts: &HarnessOpts, flags: &Flags) -> Result<ExitCode, String> {
    let runner = opts.runner();
    let mut sweeps: Vec<SweepRecords> = Vec::new();
    for sweep in fig.sweeps {
        let (points, width) = sweep.points(opts, &runner.sdclp);
        // Several sweeps under one --bench-out each get a per-tag file.
        let bench_out = opts.bench_out.as_deref().map(|path| match fig.sweeps.len() {
            1 => path.to_path_buf(),
            _ => tagged_path(path, sweep.tag),
        });
        let mopts = opts.matrix_options(sweep.tag);
        sweeps.push((
            width,
            run_sweep(opts, &runner, sweep.tag, &points, &mopts, bench_out.as_deref()),
        ));
    }
    match fig.plain {
        Some(render) => render(&Ctx { fig, opts, flags, runner: &runner }, &sweeps)?,
        None => {
            for (i, (sweep, (width, records))) in fig.sweeps.iter().zip(&sweeps).enumerate() {
                if i > 0 {
                    println!();
                }
                println!("{}", heading(sweep.caption.unwrap_or(fig.title), opts));
                print!("{}", render_table(sweep.columns, *width, records));
            }
            println!();
            println!("{}", fig.reference);
        }
    }
    let all: Vec<&[RunRecord]> = sweeps.iter().map(|(_, r)| r.as_slice()).collect();
    Ok(finish_sweeps(&all))
}

fn heading(title: &str, opts: &HarnessOpts) -> String {
    title.replace("{scale}", &format!("{:?}", opts.scale))
}

fn with_baseline(specs: impl IntoIterator<Item = SystemSpec>) -> Vec<SystemSpec> {
    std::iter::once(SystemSpec::Kind(SystemKind::Baseline)).chain(specs).collect()
}

fn kinds(kinds: &[SystemKind]) -> Vec<SystemSpec> {
    kinds.iter().map(|&k| SystemSpec::Kind(k)).collect()
}

/// The Table I hierarchy every config sweep modifies.
fn table1() -> SystemConfig {
    SystemConfig::baseline(1)
}

/// The ablations' representative subset (pass `--only` to narrow it).
fn ablation_workloads() -> Vec<Workload> {
    vec![
        Workload::new(Kernel::Cc, GraphInput::Urand),
        Workload::new(Kernel::Pr, GraphInput::Kron),
        Workload::new(Kernel::Bfs, GraphInput::Twitter),
        Workload::new(Kernel::Sssp, GraphInput::Kron),
        Workload::new(Kernel::Bc, GraphInput::Urand),
        Workload::new(Kernel::Cc, GraphInput::Friendster),
    ]
}

/// Finding 2's statistic: the fraction of L1D misses served by DRAM.
fn dram_share(r: &SimResult) -> f64 {
    let l1 = r.l1d_mpki();
    if l1 > 0.0 {
        r.llc_mpki() / l1
    } else {
        0.0
    }
}

fn routed_to_sdc(r: &SimResult) -> f64 {
    let s = &r.stats;
    s.routed_to_sdc as f64 / (s.routed_to_sdc + s.routed_to_l1d).max(1) as f64
}

/// The τ_glob values Section V-B3 sweeps.
const TAUS: [u64; 9] = [0, 2, 4, 8, 16, 32, 64, 128, 256];

fn with_tau(sdclp: &SdcLpConfig, tau: u64) -> SdcLpConfig {
    SdcLpConfig { lp: LpConfig { tau_glob: tau, ..sdclp.lp }, ..*sdclp }
}

pub static FIGURES: &[Figure] = &[
    // Table I, printed from the live config structs so it cannot drift
    // from what the simulator runs.
    Figure {
        name: "table1",
        title: "Table I: system configuration",
        plain: Some(table1_config),
        ..Figure::ROW
    },
    // Table II, from the live kernel metadata.
    Figure {
        name: "table2",
        title: "Table II: graph kernels",
        plain: Some(table2_kernels),
        ..Figure::ROW
    },
    // Table III: the scaled input graphs and their degree statistics.
    Figure {
        name: "table3",
        title: "Table III: input graphs ({scale} scale)",
        reference: "Paper originals (vertices M / edges M): web 50.6/1949, road 23.9/58, \
                    twitter 61.6/1468,\nkron 134.2/2112, urand 134.2/2147, friendster 65.6/3612 \
                    — scaled ~32-64x here (DESIGN.md).",
        plain: Some(table3_graphs),
        ..Figure::ROW
    },
    // Table IV: per-core hardware budget of SDC+LP.
    Figure {
        name: "table4",
        title: "Table IV: hardware budget per core (48-bit physical addresses)",
        reference: "Paper reference: SDC 8.69 KB, LP 0.54 KB, SDCDir 0.77 KB, total ~10 KB per \
                    core.",
        plain: Some(table4_budget),
        ..Figure::ROW
    },
    // Figure 2: almost every L1D miss also misses the L2C and LLC
    // (Findings 1-2).
    Figure {
        name: "fig2",
        title: "Figure 2: Baseline MPKI per cache level ({scale} scale)",
        reference: "Paper reference averages: L1D 53.2, L2C 44.5, LLC 41.8; 78.6% of L1D misses \
                    reach DRAM.",
        sweeps: &[Sweep {
            tag: "fig2",
            specs: |_| kinds(&[SystemKind::Baseline]),
            columns: &[
                Column::stat("L1D", 0, SimResult::l1d_mpki),
                Column::stat("L2C", 0, SimResult::l2c_mpki),
                Column::stat("LLC", 0, SimResult::llc_mpki),
                Column::new("DRAM/L1D-miss", 0, Value::StatShare(dram_share), Footer::Average),
            ],
            ..Sweep::SUITE
        }],
        ..Figure::ROW
    },
    // Figure 3: P(DRAM) by PC stride on cc.friendster (Finding 3, the
    // signal the LP exploits).
    Figure {
        name: "fig3",
        title: "Figure 3: P(served by DRAM) per PC-stride bucket",
        reference: "Paper reference: 11.6% at (10^0,10^1], 97.6% at (10^5,10^6].",
        plain: Some(fig3_stride_profile),
        ..Figure::ROW
    },
    // Figure 7: the headline single-core comparison over 36 workloads.
    Figure {
        name: "fig7",
        title: "Figure 7: single-core speedup over Baseline ({scale} scale)",
        reference: "Paper reference geomeans: L1D40K +0.0%, Distill +0.1%, T-OPT +9.4%, 2xLLC \
                    +11.2%, SDC+LP +20.3%",
        sweeps: &[Sweep {
            tag: "fig7",
            specs: |_| kinds(&SystemKind::FIG7),
            columns: &speedups(["L1D 40KB ISO", "Distill", "T-OPT", "2xLLC", "SDC+LP"]),
            ..Sweep::SUITE
        }],
        ..Figure::ROW
    },
    // Figure 8: the bypass removes the useless L2C/LLC look-ups.
    Figure {
        name: "fig8",
        title: "Figure 8: L2C/LLC MPKI, Baseline vs SDC+LP ({scale} scale)",
        reference: "Paper reference averages: L2C 44.5 -> 4.4, LLC 41.8 -> 2.8.",
        sweeps: &[Sweep {
            tag: "fig8",
            specs: |_| kinds(&[SystemKind::Baseline, SystemKind::SdcLp]),
            columns: &[
                Column::stat("base L2C", 0, SimResult::l2c_mpki),
                Column::stat("base LLC", 0, SimResult::llc_mpki),
                Column::stat("sdclp L2C", 1, SimResult::l2c_mpki),
                Column::stat("sdclp LLC", 1, SimResult::llc_mpki),
            ],
            ..Sweep::SUITE
        }],
        ..Figure::ROW
    },
    // Figure 9: the LP separates the two access classes; the SDC absorbs
    // the irregular traffic.
    Figure {
        name: "fig9",
        title: "Figure 9: L1D/SDC MPKI, Baseline vs SDC+LP ({scale} scale)",
        reference: "Paper reference averages: L1D 53.2 -> 7.4; SDC 48.3.",
        sweeps: &[Sweep {
            tag: "fig9",
            specs: |_| kinds(&[SystemKind::Baseline, SystemKind::SdcLp]),
            columns: &[
                Column::stat("base L1D", 0, SimResult::l1d_mpki),
                Column::stat("sdclp L1D", 1, SimResult::l1d_mpki),
                Column::stat("sdclp SDC", 1, SimResult::sdc_mpki),
                Column::new("SDC routed", 1, Value::StatShare(routed_to_sdc), Footer::Blank),
            ],
            ..Sweep::SUITE
        }],
        ..Figure::ROW
    },
    // Figure 10: SDC size; the bigger SDCs pay 3- and 4-cycle hits, so the
    // 1-cycle 8 KiB SDC wins despite its higher MPKI.
    Figure {
        name: "fig10",
        title: "Figure 10: SDC size exploration ({scale} scale)",
        reference: "Paper reference: SDC MPKI 50.5/49.1/48.0; 8KB performs best (latency beats \
                    capacity).",
        sweeps: &[Sweep {
            tag: "fig10",
            specs: |sdclp| {
                let sizes = [
                    ("8KB", SdcConfig::table1()),
                    ("16KB", SdcConfig::kb16()),
                    ("32KB", SdcConfig::kb32()),
                ];
                with_baseline(sizes.map(|(size, sdc)| {
                    SystemSpec::sdclp(
                        format!("SDC {size}"),
                        table1(),
                        SdcLpConfig { sdc, ..*sdclp },
                    )
                }))
            },
            columns: &[
                Column::stat("8KB MPKI", 1, SimResult::sdc_mpki),
                Column::stat("16KB MPKI", 2, SimResult::sdc_mpki),
                Column::stat("32KB MPKI", 3, SimResult::sdc_mpki),
                Column::speedup("8KB", 1),
                Column::speedup("16KB", 2),
                Column::speedup("32KB", 3),
            ],
            ..Sweep::SUITE
        }],
        ..Figure::ROW
    },
    // Figure 11: fully-associative LP sizes; returns saturate at 32 entries
    // because graph kernels have few static access sites.
    Figure {
        name: "fig11",
        title: "Figure 11: LP entry-count sweep, fully associative ({scale} scale)",
        reference: "Paper reference geomeans: 8 +13.7%, 16 +17.9%, 32 +20.7%, 64 +20.7%.",
        sweeps: &[Sweep {
            tag: "fig11",
            specs: |sdclp| {
                with_baseline([8usize, 16, 32, 64].map(|entries| {
                    let lp = LpConfig::fully_associative(entries, sdclp.lp.tau_glob);
                    SystemSpec::sdclp(
                        format!("LP {entries}e"),
                        table1(),
                        SdcLpConfig { lp, ..*sdclp },
                    )
                }))
            },
            columns: &speedups(["8 entries", "16 entries", "32 entries", "64 entries"]),
            ..Sweep::SUITE
        }],
        ..Figure::ROW
    },
    // Figure 12: LP associativity at 32 entries; 8-way (Table I) approaches
    // fully associative.
    Figure {
        name: "fig12",
        title: "Figure 12: LP associativity sweep, 32 entries ({scale} scale)",
        reference: "Paper reference geomeans: 1-way +17.0%, 2-way +20.3%, 8-way +20.7%, full \
                    +20.7%.",
        sweeps: &[Sweep {
            tag: "fig12",
            specs: |sdclp| {
                with_baseline([1usize, 2, 8, 32].map(|ways| {
                    let lp = LpConfig { entries: 32, ways, tau_glob: sdclp.lp.tau_glob };
                    SystemSpec::sdclp(format!("LP {ways}w"), table1(), SdcLpConfig { lp, ..*sdclp })
                }))
            },
            columns: &speedups(["1-way", "2-way", "8-way", "full"]),
            ..Sweep::SUITE
        }],
        ..Figure::ROW
    },
    // Figure 13: the LP matches static expert classification, winning on
    // heterogeneous connectivity (bc.road), losing where tau_glob = 8
    // misfits (pr.web).
    Figure {
        name: "fig13",
        title: "Figure 13: SDC+LP vs Expert Programmer ({scale} scale)",
        reference: "Paper reference geomeans: SDC+LP +20.3%, Expert +19.1%.",
        sweeps: &[Sweep {
            tag: "fig13",
            specs: |_| kinds(&[SystemKind::Baseline, SystemKind::SdcLp, SystemKind::Expert]),
            columns: &speedups(["SDC+LP", "Expert Programmer"]),
            ..Sweep::SUITE
        }],
        ..Figure::ROW
    },
    // Figure 14: weighted speedup over random 4-thread mixes (Section
    // IV-D); `--mixes N` limits the mix count (default 50).
    Figure {
        name: "fig14",
        title: "Figure 14: multi-core normalized weighted speedup over Baseline",
        reference: "Paper reference geomeans: L1D40K +0.02%, Distill -0.04%, T-OPT +6.4%, 2xLLC \
                    +2.4%, SDC+LP +20.2% (max +69.3%).",
        flags: &["--mixes"],
        plain: Some(fig14_multicore),
        ..Figure::ROW
    },
    // Section V-B3: tau_glob = 8 helps graph processing without hurting
    // the regular suite (the SPEC stand-in).
    Figure {
        name: "threshold_sweep",
        title: "tau_glob sweep (Section V-B3), {scale} scale",
        reference: "Paper reference at tau=8: GAP +20.3%, SPEC +0.5%.",
        sweeps: &[Sweep {
            tag: "threshold_sweep",
            specs: |sdclp| {
                with_baseline(TAUS.map(|tau| {
                    SystemSpec::sdclp(format!("tau={tau}"), table1(), with_tau(sdclp, tau))
                }))
            },
            ..Sweep::SUITE
        }],
        plain: Some(threshold_summary),
        ..Figure::ROW
    },
    // Not paper figures: checks that each design choice DESIGN.md calls out
    // earns its keep, on a representative subset.
    Figure {
        name: "ablation",
        title: "Ablation studies",
        reference: "Expected: LP ~ Expert >> all-to-SDC; mild probe-latency sensitivity;\n\
                    SRRIP ~ LRU on graphs while the T-OPT oracle helps (paper Section VI);\n\
                    stride prefetching composes with (does not replace) the SDC+LP win.",
        sweeps: &[
            Sweep {
                tag: "ablation1",
                caption: Some("Ablation 1: what routes accesses to the SDC?"),
                workloads: ablation_workloads,
                specs: |sdclp| {
                    let (sys_cfg, cfg) = (table1(), *sdclp);
                    let all_to_sdc = SystemSpec::custom(
                        "all-to-SDC",
                        format!("all-to-SDC {cfg:?} {sys_cfg:?}"),
                        move |_| {
                            let core = SdcCore::new(&sys_cfg, cfg, StaticRouter(Route::Sdc), 0);
                            Box::new(SingleCore::from_parts(core, SharedBackend::new(&sys_cfg)))
                        },
                    );
                    let mut specs = kinds(&[SystemKind::SdcLp, SystemKind::Expert]);
                    specs.push(all_to_sdc);
                    with_baseline(specs)
                },
                columns: &speedups(["LP (paper)", "Expert", "all-to-SDC"]),
            },
            Sweep {
                tag: "ablation2",
                caption: Some("Ablation 2: SDC-miss directory-probe latency sensitivity"),
                workloads: ablation_workloads,
                specs: |sdclp| {
                    with_baseline([4u64, 8, 16, 32].map(|lat| {
                        let cfg = SdcLpConfig { dir_probe_latency: lat, ..*sdclp };
                        SystemSpec::sdclp(format!("probe={lat}cy"), table1(), cfg)
                    }))
                },
                columns: &speedups(["4cy", "8cy (paper-ish)", "16cy", "32cy"]),
            },
            // RRIP-class policies do little for graphs (Section VI), and a
            // 16-entry victim cache only recovers conflict misses.
            Sweep {
                tag: "ablation3",
                caption: Some("Ablation 3: LLC replacement + victim cache (baseline hierarchy)"),
                workloads: ablation_workloads,
                specs: |_| {
                    let llc = [ReplacementKind::Srrip, ReplacementKind::TOpt].map(|kind| {
                        let mut cfg = table1();
                        cfg.llc.replacement = kind;
                        SystemSpec::baseline_with(format!("llc={kind:?}"), cfg)
                    });
                    let victim = SystemSpec::baseline_with("victim", SystemConfig::victim_cache(1));
                    with_baseline(llc.into_iter().chain([victim]))
                },
                columns: &speedups(["SRRIP", "T-OPT", "victim cache"]),
            },
            Sweep {
                tag: "ablation4",
                caption: Some(
                    "Ablation 4: L1D prefetcher x SDC+LP (Section VI leaves the combination to \
                     future work)",
                ),
                workloads: ablation_workloads,
                specs: |sdclp| {
                    let mut stride = table1();
                    stride.l1d.prefetcher = PrefetcherKind::Stride;
                    with_baseline([
                        SystemSpec::baseline_with("base+stride", stride),
                        SystemSpec::Kind(SystemKind::SdcLp),
                        SystemSpec::sdclp("sdclp+stride", stride, *sdclp),
                    ])
                },
                columns: &speedups(["base+stride", "sdclp (next-line)", "sdclp+stride L1D"]),
            },
        ],
        ..Figure::ROW
    },
    // Every design's component statistics per workload: the tool used to
    // check the simulator against the paper's narrative.
    Figure {
        name: "diag",
        title: "Diagnostic deep-dive: every design's component statistics",
        sweeps: &[Sweep { tag: "diag", specs: |_| kinds(&SystemKind::ALL), ..Sweep::SUITE }],
        plain: Some(diag_dump),
        ..Figure::ROW
    },
];

fn table1_config(cx: &Ctx, _: &[SweepRecords]) -> Result<(), String> {
    let cfg = table1();
    let sdclp = SdcLpConfig::table1();
    println!("{}", cx.fig.title);
    println!("{}", "-".repeat(cx.fig.title.len()));
    println!(
        "CPU          {} GHz, {}-wide out-of-order, {}-entry ROB",
        cfg.dram.core_clock_ghz, cfg.core.width, cfg.core.rob_entries
    );
    println!(
        "L1 DTLB      {}-entry, {}-way, {}-cycle",
        cfg.dtlb.entries(),
        cfg.dtlb.ways,
        cfg.dtlb.latency
    );
    println!(
        "L2 TLB       {}-entry, {}-way, {}-cycle (page walk {} cycles)",
        cfg.stlb.entries(),
        cfg.stlb.ways,
        cfg.stlb.latency,
        PAGE_WALK_LATENCY
    );
    println!(
        "L1-D Cache   {} KiB, {}-way, {}-cycle, {} MSHRs, LRU, next-line prefetcher",
        cfg.l1d.size_bytes() / 1024,
        cfg.l1d.ways,
        cfg.l1d.latency,
        cfg.l1d.mshr_entries
    );
    println!(
        "SDC          {} KiB, {}-way, {}-cycle, {} MSHRs, LRU, next-line prefetcher",
        sdclp.sdc.size_bytes() / 1024,
        sdclp.sdc.ways,
        sdclp.sdc.latency,
        sdclp.sdc.mshr_entries
    );
    println!(
        "LP           {} entries, {}-way, LRU, tau_glob = {}",
        sdclp.lp.entries, sdclp.lp.ways, sdclp.lp.tau_glob
    );
    println!(
        "L2 Cache     {} KiB, {}-way, {}-cycle, {} MSHRs, LRU, SPP prefetcher",
        cfg.l2c.size_bytes() / 1024,
        cfg.l2c.ways,
        cfg.l2c.latency,
        cfg.l2c.mshr_entries
    );
    println!(
        "LLC          {} KiB/core, {}-way, {}-cycle, {} MSHRs, LRU",
        cfg.llc.size_bytes() / 1024,
        cfg.llc.ways,
        cfg.llc.latency,
        cfg.llc.mshr_entries
    );
    println!(
        "SDCDir       {} entries/core, {}-way, {}-cycle, LRU",
        sdclp.sdcdir.entries(),
        sdclp.sdcdir.ways,
        sdclp.sdcdir.latency
    );
    println!(
        "DRAM         {} channel(s) x {} banks, tRP=tRCD=tCAS={} bus cycles, bus {} GHz",
        cfg.dram.channels, cfg.dram.banks_per_channel, cfg.dram.t_cas, cfg.dram.bus_clock_ghz
    );
    Ok(())
}

fn table2_kernels(cx: &Ctx, _: &[SweepRecords]) -> Result<(), String> {
    let mut table = TextTable::new(vec![
        "kernel",
        "irregData ElemSz",
        "Execution style",
        "Use Frontier",
        "expert-averse sids",
    ]);
    for k in Kernel::ALL {
        table.row(vec![
            k.name().to_string(),
            k.irreg_elem_size().to_string(),
            k.execution_style().to_string(),
            if k.uses_frontier() { "Yes" } else { "No" }.to_string(),
            format!("{:?}", k.expert_averse_sids()),
        ]);
    }
    println!("{}", cx.fig.title);
    table.print();
    Ok(())
}

fn table3_graphs(cx: &Ctx, _: &[SweepRecords]) -> Result<(), String> {
    let mut table = TextTable::new(vec![
        "graph",
        "vertices (M)",
        "edges (M)",
        "avg deg",
        "max deg",
        "top-1% edge share",
    ]);
    for input in GraphInput::ALL {
        let g = &cx.runner.input(input).csr;
        let s = DegreeStats::of(g);
        table.row(vec![
            input.name().to_string(),
            format!("{:.2}", g.num_vertices() as f64 / 1e6),
            format!("{:.1}", g.num_edges() as f64 / 1e6),
            format!("{:.1}", s.avg),
            s.max.to_string(),
            format!("{:.1}%", s.top1pct_edge_share * 100.0),
        ]);
        eprintln!("built {input}");
    }
    println!("{}", heading(cx.fig.title, cx.opts));
    table.print();
    println!();
    println!("{}", cx.fig.reference);
    Ok(())
}

fn table4_budget(cx: &Ctx, _: &[SweepRecords]) -> Result<(), String> {
    println!("{}", cx.fig.title);
    print!("{}", HardwareBudget::compute(&SdcLpConfig::table1(), 1).render());
    println!();
    println!("{}", cx.fig.reference);
    println!();
    println!("At 4 cores (sharer vector grows):");
    print!("{}", HardwareBudget::compute(&SdcLpConfig::table1(), 4).render());
    Ok(())
}

fn fig3_stride_profile(cx: &Ctx, _: &[SweepRecords]) -> Result<(), String> {
    let w = cc_friendster();
    let (result, profile) = cx.runner.run_with_stride_profile(w, SystemKind::Baseline);
    let mut table = TextTable::new(vec!["stride bucket", "accesses", "P(DRAM)"]);
    for i in 0..STRIDE_BUCKETS {
        table.row(vec![
            stride_bucket_label(i).to_string(),
            profile.accesses[i].to_string(),
            format!("{:.1}%", profile.dram_probability(i) * 100.0),
        ]);
    }
    println!("{}, {w} ({:?} scale, IPC {:.3})", cx.fig.title, cx.opts.scale, result.ipc());
    table.print();
    println!();
    println!("{}", cx.fig.reference);
    Ok(())
}

fn fig14_multicore(cx: &Ctx, _: &[SweepRecords]) -> Result<(), String> {
    let mix_count = cx.flags.number("--mixes", 50usize)?;
    let mc = MulticoreRunner::new(cx.runner);
    let designs = &SystemKind::FIG7[1..];
    let mut headers = vec!["mix".to_string()];
    headers.extend(designs.iter().map(|k| k.name().to_string()));
    let mut table = TextTable::new(headers);
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    for (mi, mix) in paper_mixes().into_iter().take(mix_count).enumerate() {
        let base = mc.weighted_ipc(&mix, SystemKind::Baseline);
        let mut cells = vec![format!("{mi:02} [{}]", mix.map(|w| w.name()).join(","))];
        for (s, &kind) in speedups.iter_mut().zip(designs) {
            let ws = mc.weighted_ipc(&mix, kind) / base.max(1e-9);
            s.push(ws);
            cells.push(pct(ws));
        }
        table.row(cells);
        eprintln!("done mix {mi}");
    }
    let mut geo = vec!["GEOMEAN".to_string()];
    geo.extend(speedups.iter().map(|s| pct(geomean(s))));
    table.row(geo);
    let max_sdclp = speedups.last().into_iter().flatten().copied().fold(0.0f64, f64::max);
    println!("{}, {mix_count} mixes ({:?} scale)", cx.fig.title, cx.opts.scale);
    table.print();
    println!();
    println!("SDC+LP maximum: {}", pct(max_sdclp));
    println!("{}", cx.fig.reference);
    Ok(())
}

/// One row per τ_glob: the GAP geomean from the sweep (failure-aware, as
/// every footer) beside the regular suite's, which runs here outside the
/// matrix executor.
fn threshold_summary(cx: &Ctx, sweeps: &[SweepRecords]) -> Result<(), String> {
    let (width, records) = &sweeps[0];
    let runner = cx.runner;
    let mut regular: Vec<Vec<f64>> = vec![Vec::new(); TAUS.len()];
    for kind in RegularKind::ALL {
        let base =
            runner.run_regular_on(kind, Box::new(simcore::BaselineHierarchy::new(&table1())));
        for (speedups, &tau) in regular.iter_mut().zip(&TAUS) {
            let sys = Box::new(sdclp::sdclp_system(&table1(), with_tau(&runner.sdclp, tau)));
            speedups.push(runner.run_regular_on(kind, sys).speedup_over(&base));
        }
        runner.evict_regular_trace(kind);
        eprintln!("done regular {kind}");
    }
    let mut table = TextTable::new(vec!["tau_glob", "GAP geomean", "regular geomean"]);
    for (i, (&tau, reg)) in TAUS.iter().zip(&regular).enumerate() {
        let gap = Column::speedup("", i + 1).summary(records, *width);
        table.row(vec![tau.to_string(), gap.map_or("-".to_string(), pct), pct(geomean(reg))]);
    }
    println!("{}", heading(cx.fig.title, cx.opts));
    table.print();
    println!();
    println!("{}", cx.fig.reference);
    Ok(())
}

fn diag_dump(cx: &Ctx, sweeps: &[SweepRecords]) -> Result<(), String> {
    let (width, records) = &sweeps[0];
    let opts = cx.opts;
    for row in records.chunks(*width) {
        println!(
            "=== {} (scale {:?}, window {}+{}) ===",
            row[0].workload, opts.scale, opts.window.warmup, opts.window.measure
        );
        let base = &row[0];
        for rec in row {
            let (r, s) = (&rec.result, &rec.result.stats);
            if rec.status != PointStatus::Ok {
                let note =
                    if rec.is_ok() { "resumed: no per-level stats" } else { rec.status.as_str() };
                println!("{:<18} ipc {:.3} | {note}", rec.label, r.ipc());
                continue;
            }
            let speedup = match base.is_ok() {
                true => format!("{:+.1}%", (r.speedup_over(&base.result) - 1.0) * 100.0),
                false => base.status.as_str().to_string(),
            };
            println!(
                "{:<18} ipc {:.3} speedup {speedup} | MPKI l1d {:6.1} sdc {:6.1} l2c {:6.1} llc {:6.1} | \
                 dram r/w {:>8}/{:<8} rowhit {:4.1}% lat {:6.1} | routed sdc {:5.1}% srv-hier {} \
                 pf-fills l1 {} sdc {}",
                rec.label,
                r.ipc(),
                r.l1d_mpki(),
                r.sdc_mpki(),
                r.l2c_mpki(),
                r.llc_mpki(),
                s.dram.reads,
                s.dram.writes,
                s.dram.row_hit_ratio() * 100.0,
                s.dram.mean_read_latency(),
                100.0 * routed_to_sdc(r),
                s.sdc_served_by_hierarchy,
                s.l1d.prefetch_fills,
                s.sdc.prefetch_fills,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{render_table, run_sweep};

    /// A fig8-shaped sweep run, then re-run with `--resume`: resumed points
    /// carry no per-level statistics, so their cells must not read 0.0.
    #[test]
    fn resumed_points_leave_stats_cells_empty() {
        let dir = std::env::temp_dir().join(format!("gpbench-resume-{}", std::process::id()));
        let manifest = dir.join("m.jsonl").to_string_lossy().into_owned();
        let sweep = Sweep {
            workloads: || {
                vec![
                    Workload::new(Kernel::Bfs, GraphInput::Kron),
                    Workload::new(Kernel::Cc, GraphInput::Kron),
                ]
            },
            ..find("fig8").unwrap().sweeps[0]
        };
        let run = |extra: &[&str]| {
            let mut args = vec!["--scale", "tiny", "--warmup", "5000", "--measure", "20000"];
            args.extend(["--manifest", manifest.as_str()]);
            args.extend(extra);
            let opts = HarnessOpts::parse(args.into_iter().map(String::from)).unwrap();
            let runner = Runner::new(opts.scale, opts.window);
            let (points, width) = sweep.points(&opts, &runner.sdclp);
            let mopts = opts.matrix_options(sweep.tag);
            let records = run_sweep(&opts, &runner, sweep.tag, &points, &mopts, None);
            let table = render_table(sweep.columns, width, &records);
            (records, table)
        };
        let (first, fresh) = run(&[]);
        assert!(first.iter().all(|r| r.status == PointStatus::Ok));
        let (second, resumed) = run(&["--resume"]);
        std::fs::remove_dir_all(&dir).ok();
        assert!(second.iter().all(|r| r.status == PointStatus::Resumed));

        for line in resumed.lines().filter(|l| l.contains(".kron")) {
            assert!(!line.split_whitespace().any(|c| c == "0.0"), "zeroed stats cell: {line}");
        }
        let average = |table: &str| {
            table.lines().find(|l| l.trim_start().starts_with("AVERAGE")).unwrap().to_string()
        };
        let avg = average(&resumed);
        assert!(
            avg.split_whitespace().skip(1).all(|c| c == "-") || avg == average(&fresh),
            "{avg}"
        );
        assert!(resumed.contains("4 point(s) resumed"), "{resumed}");
    }
}
