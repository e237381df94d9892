//! Host-thread fan-out for graph construction. Callers split their work so
//! the output is identical for every chunk count; this module only decides
//! how many chunks a host gets and runs them.

/// Inputs below this many edges stay on one thread: the Tiny suite graphs
/// build in well under a millisecond, less than a thread spawn round.
const MIN_PARALLEL_EDGES: usize = 1 << 16;

/// At most this many chunks. Each CSR-builder chunk holds an 8 B-per-vertex
/// cursor array, so the cap bounds that transient at 32 B per vertex.
const MAX_CHUNKS: usize = 4;

/// How many chunks to split `edges` edges into on this host.
/// `available_parallelism` honours CPU affinity and cgroup quotas, so a
/// process pinned to one CPU builds sequentially.
pub(crate) fn host_chunks(edges: usize) -> usize {
    if edges < MIN_PARALLEL_EDGES {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get()).clamp(1, MAX_CHUNKS)
}

/// `f` applied to each item, one scoped thread per item (inline when there
/// is at most one), results in item order. A worker's panic is re-raised
/// with its original payload, so callers' failure messages read as if the
/// work had run on their own thread.
pub(crate) fn map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = items.into_iter().map(|item| s.spawn(move || f(item))).collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_inputs_stay_on_one_thread() {
        assert_eq!(host_chunks(0), 1);
        assert_eq!(host_chunks(MIN_PARALLEL_EDGES - 1), 1);
        assert!((1..=MAX_CHUNKS).contains(&host_chunks(MIN_PARALLEL_EDGES)));
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        let caught = std::panic::catch_unwind(|| {
            map(vec![1, 2, 3], |i: u32| {
                assert!(i != 2, "worker {i} failed");
                i
            })
        });
        let payload = caught.expect_err("the worker panic must propagate");
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert_eq!(msg, "worker 2 failed");
    }
}
