//! Chung–Lu power-law generator — stands in for the crawled social/web
//! graphs of Table III (Twitter, Friendster, Web).
//!
//! Endpoints are drawn with probability proportional to per-vertex weights
//! `w_i = (i + 1)^(-theta)`, giving a power-law degree distribution whose
//! skew is controlled by `theta`. Sampling uses a Walker alias table for
//! O(1) draws (tens of millions of samples per graph). An optional
//! locality knob biases a fraction of edges toward nearby vertex ids,
//! mimicking the host-locality that crawled web graphs exhibit after
//! URL-ordering.

use crate::builder::{build_csr, BuildOptions};
use crate::csr::{Csr, VertexId};
use crate::gen::par_edges;
use crate::par::host_chunks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning for the Chung–Lu generator.
#[derive(Debug, Clone, Copy)]
pub struct ChungLuParams {
    /// Power-law exponent of the weight sequence (0.5–0.8 is Twitter-like).
    pub theta: f64,
    /// Fraction of edges rewired to land within `locality_window` of their
    /// source (0.0 = none; web graphs are ~0.5).
    pub locality: f64,
    /// Window for local edges, in vertex ids.
    pub locality_window: usize,
}

/// Walker alias table over arbitrary non-negative weights: O(n) build,
/// O(1) sample.
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0);
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0);
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining entries are numerically ~1.0.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        self.resolve(Self::draw_slot(self.prob.len(), rng))
    }

    /// The random half of a sample over `n` entries: a slot and its coin,
    /// with no table lookup.
    #[inline]
    fn draw_slot(n: usize, rng: &mut StdRng) -> Slot {
        let i = rng.random_range(0..n);
        Slot { i, coin: rng.random::<f64>() }
    }

    /// The table half of a sample: the slot's own entry or its alias.
    #[inline]
    fn resolve(&self, slot: Slot) -> u32 {
        if slot.coin < self.prob[slot.i] {
            slot.i as u32
        } else {
            self.alias[slot.i]
        }
    }
}

/// One alias-table draw before its lookup.
struct Slot {
    i: usize,
    coin: f64,
}

/// Generate a Chung–Lu graph with `n` vertices and `edge_factor * n`
/// undirected edges.
pub fn chung_lu(n: usize, edge_factor: usize, params: ChungLuParams, seed: u64) -> Csr {
    let edges = chung_lu_edges(n, edge_factor, params, seed, host_chunks(edge_factor * n));
    build_csr(n, &edges, BuildOptions { symmetrize: true, ..Default::default() })
}

/// [`chung_lu`]'s edge list, drawn over `chunks` threads.
fn chung_lu_edges(
    n: usize,
    edge_factor: usize,
    params: ChungLuParams,
    seed: u64,
    chunks: usize,
) -> Vec<(VertexId, VertexId)> {
    if n == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-params.theta)).collect();
    let table = AliasTable::new(&weights);
    let skip = |rng: &mut StdRng| {
        edge(n, params, rng, |_| 0);
    };
    let draw = |rng: &mut StdRng| edge(n, params, rng, |slot| table.resolve(slot));
    par_edges(edge_factor * n, StdRng::seed_from_u64(seed), chunks, skip, draw)
}

/// One edge: the generator's single definition of its draw order. `resolve`
/// turns an alias slot into a vertex. Whether an edge is local depends only
/// on the draws, so a no-op `resolve` consumes exactly the same stream.
#[inline]
fn edge(
    n: usize,
    params: ChungLuParams,
    rng: &mut StdRng,
    resolve: impl Fn(Slot) -> VertexId,
) -> (VertexId, VertexId) {
    let u = resolve(AliasTable::draw_slot(n, rng));
    let v = if params.locality > 0.0 && rng.random::<f64>() < params.locality {
        // Local edge: destination near the source.
        let w = params.locality_window.max(1);
        let delta = rng.random_range(0..w) as i64 - (w / 2) as i64;
        let cand = u as i64 + delta;
        cand.rem_euclid(n as i64) as VertexId
    } else {
        resolve(AliasTable::draw_slot(n, rng))
    };
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    fn params() -> ChungLuParams {
        ChungLuParams { theta: 0.6, locality: 0.0, locality_window: 0 }
    }

    #[test]
    fn alias_table_matches_weights() {
        let weights = [1.0, 2.0, 4.0, 1.0];
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u64; 4];
        let draws = 200_000;
        for _ in 0..draws {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f64 / draws as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "weight {i}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn alias_table_single_entry() {
        let table = AliasTable::new(&[3.0]);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(table.sample(&mut rng), 0);
    }

    #[test]
    fn edge_list_is_the_same_for_every_chunk_count() {
        let web = ChungLuParams { theta: 0.5, locality: 0.5, locality_window: 1024 };
        for p in [params(), web] {
            let expected = chung_lu_edges(4096, 8, p, 0x03eb, 1);
            for chunks in 2..=5 {
                assert_eq!(chung_lu_edges(4096, 8, p, 0x03eb, chunks), expected, "{p:?}");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = chung_lu(0, 8, params(), 1);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g, crate::gen::urand(0, 8, 1));
    }

    #[test]
    fn deterministic() {
        assert_eq!(chung_lu(500, 8, params(), 3), chung_lu(500, 8, params(), 3));
    }

    #[test]
    fn power_law_skew() {
        let g = chung_lu(4096, 16, params(), 17);
        let stats = DegreeStats::of(&g);
        assert!(stats.max as f64 > 10.0 * stats.avg, "max {} vs avg {}", stats.max, stats.avg);
    }

    #[test]
    fn locality_moves_edges_close() {
        let local =
            chung_lu(4096, 8, ChungLuParams { theta: 0.4, locality: 0.8, locality_window: 64 }, 5);
        let global = chung_lu(4096, 8, params(), 5);
        let mean_dist = |g: &Csr| -> f64 {
            let mut sum = 0.0;
            let mut cnt = 0u64;
            for (u, v) in g.edges() {
                sum += (u as i64 - v as i64).unsigned_abs() as f64;
                cnt += 1;
            }
            sum / cnt as f64
        };
        assert!(
            mean_dist(&local) < mean_dist(&global) / 2.0,
            "local {} vs global {}",
            mean_dist(&local),
            mean_dist(&global)
        );
    }

    #[test]
    fn valid_structure() {
        chung_lu(256, 4, params(), 1).validate().unwrap();
    }
}
