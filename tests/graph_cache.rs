//! The harness graph cache (`GRAPH_CACHE_DIR`) must never hand a kernel a
//! graph that differs from a fresh build. A cache file whose neighbor id
//! has a flipped bit that keeps it in range passes every CSR structural
//! check, and a file left by an older format version must not be read as
//! the current one: `Runner::input` warns, regenerates the graph and
//! rewrites the file in both cases.
//!
//! This is its own test binary because `GRAPH_CACHE_DIR` is process-wide.

use gpgraph::{GraphInput, SuiteScale};
use gpworkloads::Runner;
use simcore::Window;
use std::path::PathBuf;

/// Load Tiny kron through a new runner and check it against a fresh build.
/// The previous runner is dropped, so no runner in this binary holds the
/// graph in memory and this one reads the cache file.
fn cached_kron(fresh: &gpgraph::Csr) {
    let runner = Runner::new(SuiteScale::Tiny, Window::new(1_000, 1_000));
    let got = runner.input(GraphInput::Kron);
    assert!(*got.csr == *fresh, "the runner returned a graph that differs from a fresh build");
}

#[test]
fn corrupt_and_outdated_cache_files_are_regenerated() {
    let dir = std::env::temp_dir().join(format!("sdclp-graph-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("GRAPH_CACHE_DIR", &dir);
    let fresh = gpgraph::build(GraphInput::Kron, SuiteScale::Tiny);

    // A cold cache builds the graph and writes the one cache file.
    cached_kron(&fresh);
    let files: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "one cached graph: {files:?}");
    let path = &files[0];
    let pristine = std::fs::read(path).unwrap();

    // Flip the low bit of the first neighbor id, found by its bytes so the
    // test does not depend on the header layout. Every Tiny kron id is
    // below 2^12, so the flipped id stays in range.
    let head: Vec<u8> = fresh.raw_neighbors().take(16).flat_map(|v| v.to_le_bytes()).collect();
    let at = pristine.windows(head.len()).position(|w| w == head.as_slice()).unwrap();
    let mut flipped = pristine.clone();
    flipped[at] ^= 0x01;
    let id = u32::from_le_bytes(flipped[at..at + 4].try_into().unwrap());
    assert!((id as usize) < fresh.num_vertices());
    std::fs::write(path, &flipped).unwrap();
    cached_kron(&fresh);
    assert_eq!(std::fs::read(path).unwrap(), pristine, "the damaged file is rewritten");

    // A leftover GPCSRv1 file: the same arrays behind the old magic, with
    // no frame around them.
    let mut v1 = b"GPCSRv1\0".to_vec();
    v1.extend((fresh.num_vertices() as u64).to_le_bytes());
    v1.extend((fresh.num_edges() as u64).to_le_bytes());
    fresh.offsets().for_each(|o| v1.extend(o.to_le_bytes()));
    fresh.raw_neighbors().for_each(|v| v1.extend(v.to_le_bytes()));
    std::fs::write(path, &v1).unwrap();
    cached_kron(&fresh);
    assert_eq!(std::fs::read(path).unwrap(), pristine, "the outdated file is rewritten");

    let _ = std::fs::remove_dir_all(&dir);
}
