//! Edge-list → CSR construction with the usual graph-benchmark hygiene:
//! optional symmetrization, self-loop removal, neighbor sorting and
//! deduplication (GAP's builder performs the same steps).

use crate::csr::{Csr, VertexId};
use crate::par;
use std::sync::atomic::{AtomicU32, Ordering};

/// Builder options.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Add the reverse of every edge (undirected graphs).
    pub symmetrize: bool,
    /// Drop (v, v) edges.
    pub remove_self_loops: bool,
    /// Sort each neighbor list and drop duplicate edges.
    pub sort_and_dedup: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { symmetrize: false, remove_self_loops: true, sort_and_dedup: true }
    }
}

/// Build a CSR from an edge list over `num_vertices` vertices, on up to
/// four host threads. The result is identical for every thread count.
pub fn build_csr(num_vertices: usize, edges: &[(VertexId, VertexId)], opts: BuildOptions) -> Csr {
    build_csr_chunked(num_vertices, edges, opts, par::host_chunks(edges.len()))
}

/// [`build_csr`] over `chunks` threads; `1` is the sequential build.
///
/// The edge list is cut into `chunks` slices. Each slice counts its
/// endpoints, then scatters them into its own slots of every row, placed
/// after the previous slice's slots, so a row lists its entries in
/// edge-list order whatever the chunk count. Sorting and deduplication then
/// run in place over edge-balanced row ranges; a sorted, deduplicated row is
/// canonical, and one `copy_within` pass closes the gaps the dropped
/// duplicates leave.
pub(crate) fn build_csr_chunked(
    num_vertices: usize,
    edges: &[(VertexId, VertexId)],
    opts: BuildOptions,
    chunks: usize,
) -> Csr {
    let chunks = chunks.max(1);
    let keep = |u: VertexId, v: VertexId| !(opts.remove_self_loops && u == v);
    let slices: Vec<_> = edges.chunks(edges.len().div_ceil(chunks).max(1)).collect();

    // 1. Per-slice degree counts. The arrays are allocated here rather than
    // on the workers: memory a worker frees stays cached in its own
    // allocator arena and would raise the process's peak RSS.
    let counts: Vec<_> = slices.iter().map(|&slice| (slice, vec![0u64; num_vertices])).collect();
    let mut cursors = par::map(counts, |(slice, mut count)| {
        for &(u, v) in slice {
            if keep(u, v) {
                count[u as usize] += 1;
                if opts.symmetrize {
                    count[v as usize] += 1;
                }
            }
        }
        count
    });

    // 2. Prefix-sum into offsets, turning each slice's counts into its start
    // cursor in every row.
    let mut offsets = vec![0u64; num_vertices + 1];
    let mut total = 0u64;
    for v in 0..num_vertices {
        for cursor in &mut cursors {
            let count = cursor[v];
            cursor[v] = total;
            total += count;
        }
        offsets[v + 1] = total;
    }

    // 3. Scatter. Every slice writes only the slots its cursors walk, which
    // are disjoint from every other slice's, and joining the workers makes
    // their stores visible here, so relaxed stores suffice.
    let slots: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
    par::map(slices.into_iter().zip(cursors).collect(), |(slice, mut cursor)| {
        let mut put = |row: VertexId, x: VertexId| {
            let c = &mut cursor[row as usize];
            slots[*c as usize].store(x, Ordering::Relaxed);
            *c += 1;
        };
        for &(u, v) in slice {
            if keep(u, v) {
                put(u, v);
                if opts.symmetrize {
                    put(v, u);
                }
            }
        }
    });
    let mut neighbors: Vec<VertexId> = slots.into_iter().map(AtomicU32::into_inner).collect();

    if !opts.sort_and_dedup {
        return Csr::from_raw(offsets, neighbors);
    }

    // 4. Sort and dedup every row in place. Row range k starts at the first
    // row whose entries begin at or past k/chunks of the total.
    let mut bounds: Vec<usize> = (0..chunks as u64)
        .map(|k| offsets.partition_point(|&o| o < total * k / chunks as u64))
        .collect();
    bounds.push(num_vertices);
    let starts: Vec<u64> = bounds.iter().map(|&b| offsets[b]).collect();
    let mut jobs = Vec::with_capacity(chunks);
    let (mut rest_ends, mut rest_lists) = (&mut offsets[1..], &mut neighbors[..]);
    for k in 0..chunks {
        let ends;
        let lists;
        (ends, rest_ends) = std::mem::take(&mut rest_ends).split_at_mut(bounds[k + 1] - bounds[k]);
        (lists, rest_lists) =
            std::mem::take(&mut rest_lists).split_at_mut((starts[k + 1] - starts[k]) as usize);
        jobs.push((starts[k], ends, lists));
    }
    let kept = par::map(jobs, |(base, ends, lists)| sort_dedup_rows(base, ends, lists));

    // 5. Compact the row ranges into one array and rebase their offsets.
    let mut len = 0u64;
    for (k, &kept) in kept.iter().enumerate() {
        let lo = starts[k] as usize;
        neighbors.copy_within(lo..lo + kept as usize, len as usize);
        for end in &mut offsets[bounds[k] + 1..=bounds[k + 1]] {
            *end += len;
        }
        len += kept;
    }
    neighbors.truncate(len as usize);
    neighbors.shrink_to_fit();
    Csr::from_raw(offsets, neighbors)
}

/// Sort and dedup consecutive rows packed in `lists`, compacting them to its
/// front. `ends[i]` is row `i`'s end offset, counted from `base` on entry and
/// from the start of `lists` on return. Returns the entries kept.
fn sort_dedup_rows(base: u64, ends: &mut [u64], lists: &mut [VertexId]) -> u64 {
    let (mut lo, mut kept) = (0, 0);
    for end in ends {
        let hi = (*end - base) as usize;
        lists[lo..hi].sort_unstable();
        let mut prev = None;
        for i in lo..hi {
            let x = lists[i];
            if prev != Some(x) {
                lists[kept] = x;
                kept += 1;
                prev = Some(x);
            }
        }
        *end = kept as u64;
        lo = hi;
    }
    kept as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The sequential builder `build_csr_chunked` replaced, kept verbatim as
    /// the reference its output must match.
    fn reference_build_csr(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
        opts: BuildOptions,
    ) -> Csr {
        let mut degree = vec![0u64; num_vertices];
        let keep = |u: VertexId, v: VertexId| !(opts.remove_self_loops && u == v);

        for &(u, v) in edges {
            if !keep(u, v) {
                continue;
            }
            degree[u as usize] += 1;
            if opts.symmetrize {
                degree[v as usize] += 1;
            }
        }

        // Prefix-sum into offsets.
        let mut offsets = vec![0u64; num_vertices + 1];
        for v in 0..num_vertices {
            offsets[v + 1] = offsets[v] + degree[v];
        }

        let total = offsets[num_vertices] as usize;
        let mut neighbors = vec![0 as VertexId; total];
        let mut cursor = offsets[..num_vertices].to_vec();
        for &(u, v) in edges {
            if !keep(u, v) {
                continue;
            }
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            if opts.symmetrize {
                neighbors[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }

        if !opts.sort_and_dedup {
            return Csr::from_raw(offsets, neighbors);
        }

        // Sort each list and drop duplicates, compacting in place.
        let mut out_offsets = vec![0u64; num_vertices + 1];
        let mut out_neighbors = Vec::with_capacity(total);
        for v in 0..num_vertices {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            let list = &mut neighbors[lo..hi];
            list.sort_unstable();
            let mut prev: Option<VertexId> = None;
            for &n in list.iter() {
                if prev != Some(n) {
                    out_neighbors.push(n);
                    prev = Some(n);
                }
            }
            out_offsets[v + 1] = out_neighbors.len() as u64;
        }
        Csr::from_raw(out_offsets, out_neighbors)
    }

    fn all_options() -> impl Iterator<Item = BuildOptions> {
        (0..8).map(|bits| BuildOptions {
            symmetrize: bits & 1 != 0,
            remove_self_loops: bits & 2 != 0,
            sort_and_dedup: bits & 4 != 0,
        })
    }

    /// Seeded edge lists over `n` vertices: endpoints crowd a few low ids
    /// (duplicates, self-loops) and the top id `n - 1`; the middle third of
    /// the ids stays isolated.
    fn random_edges(n: u32, m: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let endpoint = |rng: &mut StdRng| match rng.random_range(0..4u32) {
            0 => rng.random_range(0..4u32.min(n)),
            1 => n - 1,
            _ => {
                let v = rng.random_range(0..n);
                if (n / 3..2 * n / 3).contains(&v) {
                    v - n / 3
                } else {
                    v
                }
            }
        };
        (0..m).map(|_| (endpoint(&mut rng), endpoint(&mut rng))).collect()
    }

    #[test]
    fn chunked_build_matches_the_sequential_reference() {
        let cases: Vec<(u32, Vec<(VertexId, VertexId)>)> = vec![
            (1, vec![]),
            (5, vec![]),
            (5, vec![(4, 4), (0, 4)]),
            (6, random_edges(6, 3, 1)),
            (40, random_edges(40, 500, 2)),
            (300, random_edges(300, 4_000, 3)),
            (2_000, random_edges(2_000, 30_000, 4)),
        ];
        for (n, edges) in &cases {
            for opts in all_options() {
                let expected = reference_build_csr(*n as usize, edges, opts);
                for chunks in [1, 2, 3, 4, 5, 7] {
                    let got = build_csr_chunked(*n as usize, edges, opts, chunks);
                    assert_eq!(
                        got,
                        expected,
                        "n = {n}, {} edges, {opts:?}, {chunks} chunks",
                        edges.len()
                    );
                }
            }
        }
    }

    #[test]
    fn endpoint_out_of_range_panics_with_the_index_message() {
        let edges: Vec<_> = (0..10).map(|i| (i, 0)).collect();
        let caught =
            std::panic::catch_unwind(|| build_csr_chunked(5, &edges, BuildOptions::default(), 2));
        let payload = caught.expect_err("an endpoint >= num_vertices must panic");
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(msg.contains("index out of bounds"), "{msg}");
    }

    #[test]
    fn builds_fig1_graph() {
        let edges = vec![(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)];
        let g = build_csr(4, &edges, BuildOptions::default());
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let edges = vec![(0, 1), (1, 2)];
        let g = build_csr(3, &edges, BuildOptions { symmetrize: true, ..Default::default() });
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loops_removed_by_default() {
        let edges = vec![(0, 0), (0, 1), (1, 1)];
        let g = build_csr(2, &edges, BuildOptions::default());
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn duplicates_removed_and_sorted() {
        let edges = vec![(0, 3), (0, 1), (0, 3), (0, 2), (0, 1)];
        let g = build_csr(4, &edges, BuildOptions::default());
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert!(g.is_sorted());
    }

    #[test]
    fn no_dedup_preserves_multiplicity() {
        let edges = vec![(0, 1), (0, 1)];
        let g = build_csr(2, &edges, BuildOptions { sort_and_dedup: false, ..Default::default() });
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn isolated_vertices_have_empty_lists() {
        let g = build_csr(5, &[(0, 4)], BuildOptions::default());
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
    }
}
