//! Road-network generator — GAP's `road` input: nearly planar, uniform low
//! degree (~2.4), enormous diameter, and good (but imperfect) id-locality
//! from coordinate sorting.
//!
//! Modelled as a 2-D grid with randomly deleted edges plus a few diagonal
//! shortcuts, with vertices numbered in **Morton (Z-order)** so 2-D
//! adjacency maps to id-proximity most of the time — the delta
//! distribution real coordinate-sorted road networks exhibit: mostly
//! small strides with an occasional tile-boundary jump. (A row-major
//! numbering would give every vertical edge a constant `side`-sized
//! stride, which no coordinate sort of a real network produces.)

use crate::builder::{build_csr, BuildOptions};
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interleave the low 16 bits of `x` into even bit positions.
fn spread16(x: u32) -> u32 {
    let mut v = x & 0xFFFF;
    v = (v | (v << 8)) & 0x00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333;
    v = (v | (v << 1)) & 0x5555_5555;
    v
}

/// Morton (Z-order) index of grid cell (r, c); `side` must be a power of
/// two no larger than 2^16.
pub fn morton(r: u32, c: u32) -> u32 {
    (spread16(r) << 1) | spread16(c)
}

/// Generate a road-like graph on a `side x side` grid (power-of-two side).
///
/// Each grid edge survives with probability `keep`, and `shortcuts`
/// random local diagonals are added.
pub fn road(side: usize, keep: f64, shortcuts: usize, seed: u64) -> Csr {
    assert!(side.is_power_of_two() && side <= 1 << 16, "side must be a power of two <= 65536");
    let n = side * side;
    let mut rng = StdRng::seed_from_u64(seed);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "r and c are below side <= 2^16, asserted above"
    )]
    let id = |r: usize, c: usize| morton(r as u32, c as u32) as VertexId;

    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side && rng.random::<f64>() < keep {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < side && rng.random::<f64>() < keep {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    // Shortcuts start in the first `side - 2` rows and columns; a grid of
    // side 2 or less has none to draw from.
    let span = side.saturating_sub(2);
    let shortcuts = if span == 0 { 0 } else { shortcuts };
    for _ in 0..shortcuts {
        let r = rng.random_range(0..span);
        let c = rng.random_range(0..span);
        edges.push((id(r, c), id(r + 1, c + 1)));
    }
    build_csr(n, edges, BuildOptions { symmetrize: true, ..Default::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    #[test]
    fn morton_is_a_bijection_on_the_grid() {
        let side = 32u32;
        let mut seen = vec![false; (side * side) as usize];
        for r in 0..side {
            for c in 0..side {
                let m = morton(r, c) as usize;
                assert!(m < seen.len());
                assert!(!seen[m], "collision at ({r},{c})");
                seen[m] = true;
            }
        }
    }

    #[test]
    fn morton_neighbors_are_usually_close() {
        // The median |delta| of grid-adjacent cells must be small; the
        // tail (tile boundaries) may be large.
        let side = 256u32;
        let mut deltas: Vec<u64> = Vec::new();
        for r in 0..side - 1 {
            for c in 0..side - 1 {
                deltas.push((morton(r, c) as i64 - morton(r, c + 1) as i64).unsigned_abs());
                deltas.push((morton(r, c) as i64 - morton(r + 1, c) as i64).unsigned_abs());
            }
        }
        deltas.sort_unstable();
        let median = deltas[deltas.len() / 2];
        assert!(median <= 8, "median Morton delta {median}");
        // Row-major numbering would put half the deltas at `side`.
        let big = deltas.iter().filter(|&&d| d >= side as u64).count();
        assert!(
            (big as f64) < 0.3 * deltas.len() as f64,
            "too many large deltas: {big}/{}",
            deltas.len()
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(road(64, 0.9, 100, 2), road(64, 0.9, 100, 2));
    }

    #[test]
    fn grids_too_small_for_shortcuts_skip_them() {
        for side in [1, 2] {
            let g = road(side, 1.0, 10, 3);
            g.validate().unwrap();
            assert_eq!(g.num_vertices(), side * side);
            assert_eq!(g.num_edges(), 4 * (side - 1) * side, "side {side}: grid edges only");
        }
    }

    #[test]
    fn low_uniform_degree() {
        let g = road(64, 0.8, 200, 4);
        let stats = DegreeStats::of(&g);
        assert!(stats.avg < 4.5, "avg {}", stats.avg);
        assert!(stats.max <= 8, "max {}", stats.max);
    }

    #[test]
    fn valid_structure() {
        road(32, 0.95, 50, 1).validate().unwrap();
    }
}
