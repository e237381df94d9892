//! The six input graphs of Table III, scaled down ~64x so the experiments
//! run on one machine while preserving what the paper's mechanisms react
//! to: degree distribution, and property-array footprint *relative to* the
//! 1.375 MiB/core LLC (the scaled graphs' 4 MiB+ property arrays exceed the
//! LLC by the same order the originals exceed theirs).

use crate::csr::Csr;
use crate::gen::{chung_lu, kron, road, urand, ChungLuParams};

/// Fixed generator seeds, one per input, so every experiment in the
/// repository sees byte-identical graphs.
const SEED_WEB: u64 = 0x03eb;
const SEED_ROAD: u64 = 0x70ad;
const SEED_TWITTER: u64 = 0x7817;
const SEED_KRON: u64 = 0x6809;
const SEED_URAND: u64 = 0x07a9d;
const SEED_FRIENDSTER: u64 = 0xf71e9d;

/// The six named inputs of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GraphInput {
    Web,
    Road,
    Twitter,
    Kron,
    Urand,
    Friendster,
}

impl GraphInput {
    pub const ALL: [GraphInput; 6] = [
        GraphInput::Web,
        GraphInput::Road,
        GraphInput::Twitter,
        GraphInput::Kron,
        GraphInput::Urand,
        GraphInput::Friendster,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            GraphInput::Web => "web",
            GraphInput::Road => "road",
            GraphInput::Twitter => "twitter",
            GraphInput::Kron => "kron",
            GraphInput::Urand => "urand",
            GraphInput::Friendster => "friendster",
        }
    }
}

impl std::fmt::Display for GraphInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How large to build the suite graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SuiteScale {
    /// ~4 K vertices: unit tests.
    Tiny,
    /// ~64 K vertices: fast experiment iterations.
    Small,
    /// ~1 M vertices: integration-test scale.
    Medium,
    /// ~4 M vertices: the scale EXPERIMENTS.md reports. The 16 MiB
    /// per-vertex property arrays exceed the 1.375 MiB single-core LLC
    /// ~12x, reproducing the paper's "caches are mostly useless" regime
    /// (their graphs exceed the LLC by 70-190x).
    Full,
}

impl SuiteScale {
    /// log2 of the vertex-count target.
    pub fn bits(&self) -> u32 {
        match self {
            SuiteScale::Tiny => 12,
            SuiteScale::Small => 16,
            SuiteScale::Medium => 20,
            SuiteScale::Full => 22,
        }
    }

    pub fn vertices(&self) -> usize {
        1 << self.bits()
    }
}

/// Deterministically build one of the six suite graphs at a given scale.
///
/// Degree targets follow Table III's character — road ~2.4 and planar;
/// twitter/web/kron power-law (web with id-locality from URL ordering);
/// urand uniform; friendster the densest of the suite — with edge factors
/// trimmed ~30-40% below the originals so the six graphs fit one machine
/// (DESIGN.md, Substitutions). Packed at 20-bit ids, the six Medium graphs
/// take 285 MiB in all (12-73 MiB each); Full takes over four times that.
pub fn build(input: GraphInput, scale: SuiteScale) -> Csr {
    let bits = scale.bits();
    let n = scale.vertices();
    match input {
        GraphInput::Web => chung_lu(
            n,
            8,
            ChungLuParams { theta: 0.5, locality: 0.5, locality_window: 1024 },
            SEED_WEB,
        ),
        GraphInput::Road => {
            let side = 1usize << bits.div_ceil(2);
            road(side, 0.92, n / 20, SEED_ROAD)
        }
        GraphInput::Twitter => chung_lu(
            n,
            10,
            ChungLuParams { theta: 0.65, locality: 0.0, locality_window: 0 },
            SEED_TWITTER,
        ),
        GraphInput::Kron => kron(bits, 10, SEED_KRON),
        GraphInput::Urand => urand(n, 10, SEED_URAND),
        GraphInput::Friendster => chung_lu(
            n,
            14,
            ChungLuParams { theta: 0.55, locality: 0.0, locality_window: 0 },
            SEED_FRIENDSTER,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    #[test]
    fn all_six_build_at_tiny_scale() {
        for input in GraphInput::ALL {
            let g = build(input, SuiteScale::Tiny);
            g.validate().unwrap();
            assert!(g.num_vertices() > 0, "{input}");
            assert!(g.num_edges() > 0, "{input}");
        }
    }

    #[test]
    fn deterministic_per_input() {
        let a = build(GraphInput::Kron, SuiteScale::Tiny);
        let b = build(GraphInput::Kron, SuiteScale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn road_has_tiny_uniform_degree() {
        let g = build(GraphInput::Road, SuiteScale::Tiny);
        let s = DegreeStats::of(&g);
        assert!(s.avg < 5.0, "road avg degree {}", s.avg);
    }

    #[test]
    fn social_graphs_are_skewed_urand_is_not() {
        let kron = DegreeStats::of(&build(GraphInput::Kron, SuiteScale::Tiny));
        let urand = DegreeStats::of(&build(GraphInput::Urand, SuiteScale::Tiny));
        assert!(kron.top1pct_edge_share > 2.0 * urand.top1pct_edge_share);
    }

    #[test]
    fn friendster_is_densest() {
        let f = build(GraphInput::Friendster, SuiteScale::Tiny);
        let r = build(GraphInput::Road, SuiteScale::Tiny);
        assert!(f.avg_degree() > 4.0 * r.avg_degree());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(GraphInput::Web.name(), "web");
        assert_eq!(GraphInput::Friendster.to_string(), "friendster");
    }
}
