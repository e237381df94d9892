//! Instruction-mix constants: non-memory "bubble" instructions accompanying
//! each traced access site, approximating the compiled GAP kernels'
//! dynamic instruction mix (roughly 20-30% memory instructions, 9-12
//! instructions per processed edge).
//!
//! These were calibrated so the Baseline configuration reproduces Fig. 2's
//! MPKI regime: worst-case workloads (cc/pr on urand/kron/friendster)
//! around 80-100 L1D MPKI, locality-friendly ones (road, web) far lower,
//! with the suite average near the paper's 53.

/// Inner-loop work per edge (index arithmetic, compare, accumulate).
pub const EDGE: u32 = 8;

/// The fewest instructions a `pr` or `cc` sweep spends on one
/// neighbors-array position: the NA load, the hinted property gather and
/// the [`EDGE`] work. A window of `n` instructions reaches at most
/// `n / NA_POSITION + 1` positions, which bounds the T-OPT oracle table.
pub const NA_POSITION: u64 = 2 + EDGE as u64;

/// Outer-loop work per vertex (bounds loads, loop control, branches).
pub const VERTEX: u32 = 6;

/// A conditional update path (compare + store bookkeeping).
pub const UPDATE: u32 = 3;

/// One pointer-jump step in a chase loop.
pub const CHASE: u32 = 3;

/// Row-jump setup (offset fetch, cursor initialization).
pub const SETUP: u32 = 4;

/// A tight merge/filter step (the TC intersection inner loop).
pub const MERGE_STEP: u32 = 4;

/// A cheap scan step (frontier-membership test in pull BFS).
pub const SCAN: u32 = 2;
