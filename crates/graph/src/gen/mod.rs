//! Synthetic graph generators reproducing the degree distributions of the
//! paper's six input graphs (Table III) at laptop scale.

mod chung_lu;
mod kron;
mod road;
mod urand;

pub use chung_lu::{chung_lu, AliasTable, ChungLuParams};
pub use kron::kron;
pub use road::road;
pub use urand::urand;

use crate::csr::VertexId;
use crate::par;
use rand::rngs::StdRng;

/// `m` edges drawn by `draw` from `rng`, filled by `chunks` threads (`1`
/// draws them in order on the caller's thread). The list is identical for
/// every chunk count.
///
/// A sequential pre-pass finds the state each chunk starts from by running
/// `skip`, which must consume exactly the random draws `draw` does but may
/// leave out its table lookups and arithmetic. Every chunk but the last then
/// asserts that it ended in the state the next one starts from, so a
/// `skip`/`draw` mismatch panics instead of silently changing a graph.
fn par_edges(
    m: usize,
    mut rng: StdRng,
    chunks: usize,
    skip: impl Fn(&mut StdRng),
    draw: impl Fn(&mut StdRng) -> (VertexId, VertexId) + Sync,
) -> Vec<(VertexId, VertexId)> {
    let mut edges = vec![(0, 0); m];
    let mut jobs = Vec::with_capacity(chunks);
    let mut slices = edges.chunks_mut(m.div_ceil(chunks.max(1)).max(1)).peekable();
    while let Some(slice) = slices.next() {
        let start = rng.clone();
        let end = slices.peek().map(|_| {
            for _ in 0..slice.len() {
                skip(&mut rng);
            }
            rng.clone()
        });
        jobs.push((slice, start, end));
    }
    par::map(jobs, |(slice, mut rng, end)| {
        for e in slice.iter_mut() {
            *e = draw(&mut rng);
        }
        if let Some(end) = end {
            assert!(
                rng == end,
                "edge draw and its skip pre-pass consumed different random streams"
            );
        }
    });
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn chunked_draws_match_the_sequential_stream() {
        let draw = |rng: &mut StdRng| (rng.random_range(0..100u32), rng.random_range(0..100u32));
        let skip = |rng: &mut StdRng| {
            rng.next_u64();
            rng.next_u64();
        };
        for m in [0, 1, 5, 1_000] {
            let expected = par_edges(m, StdRng::seed_from_u64(3), 1, skip, draw);
            assert_eq!(expected.len(), m);
            for chunks in 2..=7 {
                assert_eq!(par_edges(m, StdRng::seed_from_u64(3), chunks, skip, draw), expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "consumed different random streams")]
    fn skip_that_disagrees_with_draw_panics() {
        let draw = |rng: &mut StdRng| (rng.random_range(0..100u32), 0);
        let skip = |rng: &mut StdRng| {
            rng.next_u64();
            rng.next_u64();
        };
        par_edges(10, StdRng::seed_from_u64(3), 2, skip, draw);
    }
}
