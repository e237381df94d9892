//! The checksummed frame of every binary format in the workspace
//! (snapshots, simserve wire messages, the graph cache), little-endian:
//!
//! ```text
//! [8B magic] [u64 len] [len payload bytes] [u64 len echo] [u64 FNV-1a over len‖payload]
//! ```
//!
//! The echo catches truncation at a clean boundary, the checksum a
//! flipped bit anywhere in the length or payload. A magic is a family
//! name then a version number (`SSTATEv2`, `GPCSRv2\0`, `SRV2\0\0\0\0`);
//! another version of the family is [`FrameError::UnsupportedVersion`].
//! Readers grow buffers only as bytes arrive, so a corrupt length cannot
//! force a large allocation, and trust nothing before
//! [`FrameReader::finish`] has verified the footer.

use std::fmt;
use std::io::{self, Read, Write};

/// An 8-byte format magic: family name, then version.
pub type Magic = [u8; 8];

/// Streaming FNV-1a (64-bit), stable across platforms and toolchains:
/// the frame checksum, and the hash of every persisted identity.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    #[inline]
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure (not a format problem).
    Io(io::Error),
    /// The magic names no known format family.
    BadMagic { found: Magic },
    /// The magic names the expected family at another version.
    UnsupportedVersion { expected: Magic, found: Magic },
    /// The declared payload length exceeds the reader's bound.
    Oversized { len: u64, max: u64 },
    /// The stream, or the payload, ended before the bytes a reader needs.
    Truncated,
    /// The footer's length echo disagrees with the header.
    LengthMismatch { header: u64, footer: u64 },
    /// The footer checksum does not match the bytes read.
    ChecksumMismatch { stored: u64, computed: u64 },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::BadMagic { found } => write!(f, "bad magic \"{}\"", found.escape_ascii()),
            FrameError::UnsupportedVersion { expected, found } => {
                let (found, expected) = (found.escape_ascii(), expected.escape_ascii());
                write!(f, "unsupported format version \"{found}\" (expected \"{expected}\")")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Truncated => write!(f, "truncated"),
            FrameError::LengthMismatch { header, footer } => {
                write!(f, "length mismatch: header says {header} bytes, footer {footer}")
            }
            FrameError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: footer {stored:#018x}, computed {computed:#018x}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Streams one frame into `W`, which it does not buffer.
pub struct FrameWriter<W: Write> {
    w: W,
    sum: Fnv1a,
    len: u64,
    written: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Write the magic and length of a `len`-byte payload.
    pub fn new(mut w: W, magic: &Magic, len: u64) -> io::Result<Self> {
        let mut sum = Fnv1a::new();
        sum.update(&len.to_le_bytes());
        w.write_all(magic)?;
        w.write_all(&len.to_le_bytes())?;
        Ok(FrameWriter { w, sum, len, written: 0 })
    }

    /// Append payload bytes.
    pub fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.written += bytes.len() as u64;
        self.sum.update(bytes);
        self.w.write_all(bytes)
    }

    /// Write the footer and flush. Fails if the payload written differs
    /// from the declared length.
    pub fn finish(mut self) -> io::Result<()> {
        if self.written != self.len {
            let what = format!("{}-byte payload in a {}-byte frame", self.written, self.len);
            return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        }
        self.w.write_all(&self.len.to_le_bytes())?;
        self.w.write_all(&self.sum.finish().to_le_bytes())?;
        self.w.flush()
    }
}

/// Streams one frame out of `R` without buffering, so back-to-back frames
/// on a socket stay aligned (wrap a file in a `BufReader`).
pub struct FrameReader<R: Read> {
    r: R,
    sum: Fnv1a,
    len: u64,
    left: u64,
}

impl<R: Read> FrameReader<R> {
    /// Read and check the magic and length; a stream that is empty, or
    /// ends anywhere inside the frame, is [`FrameError::Truncated`].
    pub fn open(r: R, magic: &Magic, max_len: u64) -> Result<Self, FrameError> {
        Self::open_opt(r, magic, max_len)?.ok_or(FrameError::Truncated)
    }

    /// [`open`](Self::open), except that a stream ending before its first
    /// byte is `Ok(None)` (a clean close between frames).
    pub fn open_opt(mut r: R, magic: &Magic, max_len: u64) -> Result<Option<Self>, FrameError> {
        let mut found = [0u8; 8];
        let (first, rest) = found.split_at_mut(1);
        loop {
            match r.read(first) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        r.read_exact(rest)?;
        if found != *magic {
            return Err(if family(&found) == family(magic) {
                FrameError::UnsupportedVersion { expected: *magic, found }
            } else {
                FrameError::BadMagic { found }
            });
        }
        let len = read_u64(&mut r)?;
        let mut sum = Fnv1a::new();
        sum.update(&len.to_le_bytes());
        if len > max_len {
            return Err(FrameError::Oversized { len, max: max_len });
        }
        Ok(Some(FrameReader { r, sum, len, left: len }))
    }

    /// The payload length the header declares.
    pub fn payload_len(&self) -> u64 {
        self.len
    }

    /// Fill `buf` with the next payload bytes.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), FrameError> {
        self.left = self.left.checked_sub(buf.len() as u64).ok_or(FrameError::Truncated)?;
        self.r.read_exact(buf)?;
        self.sum.update(buf);
        Ok(())
    }

    /// The next eight payload bytes as a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, FrameError> {
        let mut bytes = [0u8; 8];
        self.read_exact(&mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// The rest of the payload, in a buffer grown only as bytes arrive.
    pub fn read_rest(&mut self) -> Result<Vec<u8>, FrameError> {
        let mut buf = Vec::new();
        (&mut self.r).take(self.left).read_to_end(&mut buf)?;
        if buf.len() as u64 != self.left {
            return Err(FrameError::Truncated);
        }
        self.sum.update(&buf);
        self.left = 0;
        Ok(buf)
    }

    /// Skip any unread payload, then verify the footer. Until this
    /// returns `Ok`, nothing read from the frame may be trusted.
    pub fn finish(mut self) -> Result<(), FrameError> {
        self.read_rest()?;
        let echo = read_u64(&mut self.r)?;
        if echo != self.len {
            return Err(FrameError::LengthMismatch { header: self.len, footer: echo });
        }
        let stored = read_u64(&mut self.r)?;
        let computed = self.sum.finish();
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { stored, computed });
        }
        Ok(())
    }
}

/// A magic's family name: the bytes before its version number.
fn family(magic: &Magic) -> &[u8] {
    magic.split(u8::is_ascii_digit).next().unwrap_or_default()
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut bytes = [0u8; 8];
    r.read_exact(&mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

/// Write `payload` as one frame and flush.
pub fn write_frame<W: Write>(w: W, magic: &Magic, payload: &[u8]) -> io::Result<()> {
    let mut frame = FrameWriter::new(w, magic, payload.len() as u64)?;
    frame.put(payload)?;
    frame.finish()
}

/// Read one whole frame of at most `max_len` payload bytes; `Ok(None)`
/// when the stream ends before its first byte.
pub fn read_frame_opt<R: Read>(
    r: R,
    magic: &Magic,
    max_len: u64,
) -> Result<Option<Vec<u8>>, FrameError> {
    let Some(mut frame) = FrameReader::open_opt(r, magic, max_len)? else { return Ok(None) };
    let payload = frame.read_rest()?;
    frame.finish()?;
    Ok(Some(payload))
}

/// The shared corruption suite: every frame format's decoder must reject
/// each case [`corrupted_copies`](tests::corrupted_copies) generates.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    const MAGIC: &Magic = b"TESTFRv2";

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, MAGIC, payload).expect("in-memory write");
        out
    }

    fn decode(wire: &[u8]) -> Result<Option<Vec<u8>>, FrameError> {
        read_frame_opt(wire, MAGIC, u64::MAX)
    }

    /// Every strict prefix of `wire` but the empty one, then `wire` with
    /// each single bit flipped.
    pub(crate) fn corrupted_copies(wire: &[u8]) -> Vec<(String, Vec<u8>)> {
        let cuts = (1..wire.len()).map(|cut| (format!("cut at {cut}"), wire[..cut].to_vec()));
        let flips = (0..wire.len() * 8).map(|bit| {
            let mut bad = wire.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            (format!("flip of bit {} in byte {}", bit % 8, bit / 8), bad)
        });
        cuts.chain(flips).collect()
    }

    #[test]
    fn whole_and_streamed_frames_round_trip() {
        for payload in [&b""[..], b"x", b"hello, frame"] {
            let wire = framed(payload);
            assert_eq!(wire.len(), payload.len() + 32);
            assert_eq!(decode(&wire).expect("decode").as_deref(), Some(payload));

            let mut frame = FrameReader::open(&wire[..], MAGIC, 64).expect("open");
            assert_eq!(frame.payload_len(), payload.len() as u64);
            let mut got = vec![0u8; payload.len()];
            frame.read_exact(&mut got).expect("payload");
            assert!(matches!(frame.read_exact(&mut [0u8; 1]), Err(FrameError::Truncated)));
            frame.finish().expect("footer");
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn back_to_back_frames_stay_aligned_and_end_cleanly() {
        let mut wire = framed(b"first");
        wire.extend(framed(b"second"));
        let mut r = &wire[..];
        assert_eq!(read_frame_opt(&mut r, MAGIC, 64).expect("1").as_deref(), Some(&b"first"[..]));
        assert_eq!(read_frame_opt(&mut r, MAGIC, 64).expect("2").as_deref(), Some(&b"second"[..]));
        assert_eq!(read_frame_opt(&mut r, MAGIC, 64).expect("eof"), None);
        assert!(matches!(FrameReader::open(&[][..], MAGIC, 64), Err(FrameError::Truncated)));
    }

    #[test]
    fn finish_verifies_a_partly_read_payload() {
        let wire = framed(b"abcdef");
        let mut frame = FrameReader::open(&wire[..], MAGIC, 64).expect("open");
        frame.read_exact(&mut [0u8; 2]).expect("head");
        assert!(frame.finish().is_ok());

        let mut bad = wire.clone();
        bad[20] ^= 1;
        let mut frame = FrameReader::open(&bad[..], MAGIC, 64).expect("open");
        frame.read_exact(&mut [0u8; 2]).expect("head");
        assert!(matches!(frame.finish(), Err(FrameError::ChecksumMismatch { .. })));
    }

    #[test]
    fn truncation_at_every_byte_offset_is_truncated() {
        let wire = framed(b"a payload");
        assert!(matches!(decode(&[]), Ok(None)), "an empty stream is a clean end");
        for cut in 1..wire.len() {
            match decode(&wire[..cut]) {
                Err(FrameError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_single_bit_flip_anywhere_is_rejected() {
        let wire = framed(b"a payload");
        for (what, bad) in corrupted_copies(&wire).into_iter().skip(wire.len() - 1) {
            let at = |lo: usize, hi: usize| (lo..hi).any(|i| bad[i] != wire[i]);
            match decode(&bad) {
                Err(FrameError::BadMagic { .. } | FrameError::UnsupportedVersion { .. })
                    if at(0, 8) => {}
                // A flipped length bit either overruns the stream or
                // shifts the footer onto other bytes.
                Err(
                    FrameError::Truncated
                    | FrameError::LengthMismatch { .. }
                    | FrameError::ChecksumMismatch { .. },
                ) if at(8, 16) => {}
                Err(FrameError::ChecksumMismatch { .. }) if at(16, wire.len() - 16) => {}
                Err(FrameError::LengthMismatch { .. }) if at(wire.len() - 16, wire.len() - 8) => {}
                Err(FrameError::ChecksumMismatch { .. }) if at(wire.len() - 8, wire.len()) => {}
                other => panic!("{what}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_length_echo_mismatch_is_its_own_error() {
        let mut wire = framed(b"four");
        let echo = wire.len() - 16;
        wire[echo] = 5;
        match decode(&wire) {
            Err(FrameError::LengthMismatch { header: 4, footer: 5 }) => {}
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_huge_declared_length_allocates_nothing_up_front() {
        let mut wire = framed(b"small");
        wire[8..16].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        // Unbounded: the reader grows only as bytes arrive, so the claim
        // ends in Truncated instead of an exabyte allocation.
        assert!(matches!(decode(&wire), Err(FrameError::Truncated)));
        // Bounded: rejected from the header alone.
        match read_frame_opt(&wire[..], MAGIC, 1 << 20) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!((len, max), (u64::MAX - 1, 1 << 20));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn old_version_magics_are_unsupported_versions() {
        // Each format's previous magic, as its old files and peers begin.
        let old_and_new: [(&[u8], &Magic); 3] = [
            (b"SSTATEv1", b"SSTATEv2"),
            (b"GPCSRv1\0", b"GPCSRv2\0"),
            (b"SRV1\x04\0\0\0", b"SRV2\0\0\0\0"),
        ];
        for (old, new) in old_and_new {
            let mut wire = Vec::new();
            write_frame(&mut wire, new, b"payload").expect("write");
            wire[..8].copy_from_slice(old);
            match read_frame_opt(&wire[..], new, 64) {
                Err(e @ FrameError::UnsupportedVersion { .. }) => {
                    assert!(e.to_string().contains("unsupported format version"), "{e}");
                }
                other => {
                    panic!("{}: expected UnsupportedVersion, got {other:?}", old.escape_ascii())
                }
            }
        }
        let mut wire = framed(b"payload");
        wire[..8].copy_from_slice(b"GPCSRv2\0");
        assert!(
            matches!(decode(&wire), Err(FrameError::BadMagic { found }) if &found == b"GPCSRv2\0")
        );
    }

    #[test]
    fn the_writer_enforces_its_declared_length() {
        let mut short = FrameWriter::new(Vec::new(), MAGIC, 4).expect("header");
        short.put(b"abc").expect("in-memory write");
        assert!(short.finish().is_err(), "one byte short");
        let mut long = FrameWriter::new(Vec::new(), MAGIC, 2).expect("header");
        long.put(b"abc").expect("in-memory write");
        assert!(long.finish().is_err(), "one byte past the declared length");
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.update(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
