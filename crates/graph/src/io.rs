//! The binary CSR format (`GPCSRv2`) that caches the generated suite
//! graphs between harness runs: one [`simstate::frame`] whose payload is
//! (all little-endian)
//!
//! ```text
//! [u64 vertices n] [u64 edges m] [(n+1) x u64 offsets] [m x u32 neighbor ids]
//! ```
//!
//! The frame checksum catches what CSR validation cannot: a flipped bit
//! that leaves a neighbor id in range. Decoding returns the typed
//! [`GraphIoError`] and never panics: a corrupt or outdated (`GPCSRv1`)
//! cache file is recoverable — the runner regenerates the graph.

use crate::csr::{pack_neighbors, pack_offsets, widths, Csr, VertexId};
use crate::packed::Packer;
use simstate::frame::{FrameError, FrameReader, FrameWriter, Magic};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes of the binary CSR format.
const MAGIC: &Magic = b"GPCSRv2\0";

/// Why a graph failed to decode.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying I/O failure (not a format problem).
    Io(io::Error),
    /// The file's frame is damaged or from another format version.
    Frame(FrameError),
    /// The decoded arrays violate a CSR structural invariant
    /// (non-monotone offsets, out-of-range neighbor ids, bad bounds).
    InvalidCsr { detail: String },
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "graph I/O error: {e}"),
            GraphIoError::Frame(e) => write!(f, "graph file frame: {e}"),
            GraphIoError::InvalidCsr { detail } => write!(f, "invalid CSR: {detail}"),
        }
    }
}

impl std::error::Error for GraphIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for GraphIoError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => GraphIoError::Io(e),
            other => GraphIoError::Frame(other),
        }
    }
}

/// Payload bytes of a graph with `n` vertices and `m` edges (`None` when
/// the counts cannot describe a real graph).
fn payload_len(n: u64, m: u64) -> Option<u64> {
    n.checked_add(1)?.checked_mul(8)?.checked_add(m.checked_mul(4)?)?.checked_add(16)
}

/// Serialize a CSR in the compact binary format.
pub fn write_binary<W: Write>(g: &Csr, writer: W) -> io::Result<()> {
    let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
    let len = payload_len(n, m).ok_or_else(|| io::Error::other("graph too large to frame"))?;
    let mut frame = FrameWriter::new(BufWriter::new(writer), MAGIC, len)?;
    frame.put(&n.to_le_bytes())?;
    frame.put(&m.to_le_bytes())?;
    for o in g.offsets() {
        frame.put(&o.to_le_bytes())?;
    }
    for v in g.raw_neighbors() {
        frame.put(&v.to_le_bytes())?;
    }
    frame.finish()
}

/// Read `count` little-endian `N`-byte words, passing them to `each` a
/// chunk at a time.
fn read_words<R: Read, T, const N: usize>(
    r: &mut FrameReader<R>,
    count: u64,
    word: fn([u8; N]) -> T,
    mut each: impl FnMut(&[T]) -> Result<(), String>,
) -> Result<(), GraphIoError> {
    const CHUNK_WORDS: usize = 8192;
    let mut chunk = vec![0u8; CHUNK_WORDS * N];
    let mut values = Vec::with_capacity(CHUNK_WORDS);
    let mut left = count;
    while left > 0 {
        let words = usize::try_from(left).unwrap_or(usize::MAX).min(CHUNK_WORDS);
        chunk.truncate(words * N);
        r.read_exact(&mut chunk)?;
        values.clear();
        // `chunks_exact` yields only `N`-byte slices, so every conversion succeeds.
        values.extend(chunk.chunks_exact(N).filter_map(|c| c.try_into().ok()).map(word));
        each(&values).map_err(|detail| GraphIoError::InvalidCsr { detail })?;
        left -= words as u64;
    }
    Ok(())
}

/// An empty packer with room for `count` values. The room is clamped so a
/// corrupt count cannot reserve an absurd allocation; the array grows past
/// it only as bytes actually arrive.
fn with_room(width: u32, count: u64) -> Packer {
    let mut p = Packer::new(width);
    p.reserve(usize::try_from(count).unwrap_or(usize::MAX).min(1 << 26));
    p
}

/// Deserialize a CSR from the compact binary format, verifying the frame
/// and then every structural invariant (monotone offsets, in-range
/// neighbor ids) before the graph is handed to any kernel. Values are
/// packed as they arrive, so the unpacked arrays are never held.
pub fn read_binary<R: Read>(reader: R) -> Result<Csr, GraphIoError> {
    let mut frame = FrameReader::open(BufReader::new(reader), MAGIC, u64::MAX)?;
    let (n, m, len) = (frame.read_u64()?, frame.read_u64()?, frame.payload_len());
    if payload_len(n, m) != Some(len) {
        let detail = format!("a {len}-byte payload cannot hold {n} vertices and {m} edges");
        return Err(GraphIoError::InvalidCsr { detail });
    }
    let (oa_width, na_width) = widths(n, m);
    let mut offsets = with_room(oa_width, n + 1);
    read_words(&mut frame, n + 1, u64::from_le_bytes, |o| pack_offsets(&mut offsets, o, m))?;
    let mut neighbors = with_room(na_width, m);
    read_words(&mut frame, m, VertexId::from_le_bytes, |v| pack_neighbors(&mut neighbors, v, n))?;
    frame.finish()?;
    Csr::try_from_packed(offsets.finish(), neighbors.finish())
        .map_err(|detail| GraphIoError::InvalidCsr { detail })
}

/// Save to / load from a binary file path.
pub fn save<P: AsRef<Path>>(g: &Csr, path: P) -> io::Result<()> {
    write_binary(g, std::fs::File::create(path)?)
}

pub fn load<P: AsRef<Path>>(path: P) -> Result<Csr, GraphIoError> {
    read_binary(std::fs::File::open(path).map_err(GraphIoError::Io)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{kron, urand};

    fn encoded(g: &Csr) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(g, &mut buf).unwrap();
        buf
    }

    /// A correctly framed payload carrying arbitrary (possibly invalid)
    /// CSR arrays.
    fn framed_arrays(offsets: &[u64], neighbors: &[u32]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend((offsets.len() as u64 - 1).to_le_bytes());
        payload.extend((neighbors.len() as u64).to_le_bytes());
        offsets.iter().for_each(|o| payload.extend(o.to_le_bytes()));
        neighbors.iter().for_each(|v| payload.extend(v.to_le_bytes()));
        let mut buf = Vec::new();
        simstate::frame::write_frame(&mut buf, MAGIC, &payload).unwrap();
        buf
    }

    #[test]
    fn binary_round_trip() {
        let g = kron(8, 4, 99);
        assert_eq!(read_binary(&encoded(&g)[..]).unwrap(), g);
    }

    #[test]
    fn golden_bytes_pin_the_gpcsrv2_encoding() {
        let g = Csr::from_raw(vec![0, 2, 3, 3], vec![1, 2, 0]);
        let hex: String = encoded(&g).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "47504353527632003c00000000000000030000000000000003000000000000000000000000000000\
             0200000000000000030000000000000003000000000000000100000002000000000000003c000000\
             0000000018ebf5feac09116b"
        );
    }

    /// The bytes of a saved Small suite graph, pinned when neighbour ids
    /// were still held as `u32` in memory: the in-memory layout must not
    /// leak into the file, so cache files stay readable in both directions.
    #[test]
    fn saved_small_graph_bytes_are_pinned() {
        let bytes = encoded(&crate::build(crate::GraphInput::Road, crate::SuiteScale::Small));
        let mut h = simstate::Fnv1a::new();
        h.update(&bytes);
        assert_eq!((bytes.len(), h.finish()), (1_511_712, 0x7dee_dd7a_5198_8a48));
    }

    #[test]
    fn binary_rejects_bad_magic_and_gpcsrv1_files() {
        let mut buf = encoded(&kron(6, 2, 1));
        buf[..8].copy_from_slice(b"NOTCSRXX");
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::Frame(FrameError::BadMagic { .. }))
        ));
        buf[..8].copy_from_slice(b"GPCSRv1\0");
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::Frame(FrameError::UnsupportedVersion { .. }))
        ));
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = encoded(&kron(6, 2, 1));
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_binary(&buf[..]), Err(GraphIoError::Frame(FrameError::Truncated))));
    }

    /// A flipped bit that keeps a neighbor id in range passes every CSR
    /// check; only the frame checksum catches it.
    #[test]
    fn binary_rejects_an_in_range_neighbor_bit_flip() {
        let g = urand(64, 4, 7);
        let mut buf = encoded(&g);
        let last_id = buf.len() - 16 - 4;
        buf[last_id] ^= 0x01;
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
    }

    /// A well-framed file with an out-of-range neighbor id must come back
    /// as a typed error — this used to panic through `Csr::from_raw`.
    #[test]
    fn binary_rejects_out_of_range_edge_without_panicking() {
        let buf = framed_arrays(&[0, 2, 3, 4, 5], &[1, 2, 2, 0, u32::MAX]);
        match read_binary(&buf[..]) {
            Err(GraphIoError::InvalidCsr { detail }) => {
                assert!(detail.contains("out of range"), "detail: {detail}");
            }
            other => panic!("expected InvalidCsr, got {other:?}"),
        }
    }

    /// Non-monotone offsets are likewise a typed error, not a panic.
    #[test]
    fn binary_rejects_non_monotone_offsets() {
        let buf = framed_arrays(&[0, u64::MAX, 3, 4, 5], &[1, 2, 2, 0, 2]);
        assert!(matches!(read_binary(&buf[..]), Err(GraphIoError::InvalidCsr { .. })));
    }

    #[test]
    fn corrupt_header_counts_cannot_force_huge_allocation() {
        let mut buf = encoded(&kron(6, 2, 1));
        buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(GraphIoError::InvalidCsr { .. })));
        let mut buf = encoded(&kron(6, 2, 1));
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn save_load_round_trips_and_rejects_a_corrupt_file() {
        let dir = std::env::temp_dir().join(format!("gpgraph-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let g = urand(64, 4, 7);
        save(&g, &path).unwrap();
        assert_eq!(load(&path).unwrap(), g);

        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 20..n - 16].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path).is_err());
        assert!(matches!(load(dir.join("missing.csr")), Err(GraphIoError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
