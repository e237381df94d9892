//! The `SSTATEv1` on-disk snapshot container.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [8B magic "SSTATEv1"]
//! [u64 config_hash] [u64 trace_checksum] [u64 trace_pos]
//! [u64 payload_len] [payload bytes]
//! [u64 payload_len echo] [u64 FNV-1a checksum]   <- integrity footer
//! ```
//!
//! Same footer idiom as the `GPTRCv2` trace format: the length echo
//! catches truncation at a clean 8-byte boundary (where `read_exact`
//! alone cannot), and the checksum — FNV-1a over everything between the
//! magic and the footer — catches bit flips anywhere in the header or
//! payload. The header carries the snapshot's *identity*: the config hash
//! of the machine it was taken on, the checksum of the input trace it was
//! replaying, and the trace event index execution had reached, so a
//! loader can reject stale checkpoints before touching the payload.

use crate::StateError;
use std::io::{self, BufReader, BufWriter, Read, Write};

const MAGIC: &[u8; 8] = b"SSTATEv1";

/// Streaming FNV-1a (64-bit) — dependency-free, stable across platforms.
/// Public because checkpoint keys and trace identities are hashed with
/// the same function the container footer uses.
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

/// One decoded snapshot: identity header + opaque component payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Hash of the system configuration the snapshot was taken under.
    pub config_hash: u64,
    /// FNV-1a checksum of the input trace being replayed.
    pub trace_checksum: u64,
    /// Index of the next unconsumed trace event at snapshot time.
    pub trace_pos: u64,
    /// The serialized machine state ([`crate::StateSink`] output).
    pub payload: Vec<u8>,
}

impl Snapshot {
    /// Validate this snapshot's identity against the loader's expectation.
    pub fn check_identity(&self, config_hash: u64, trace_checksum: u64) -> Result<(), StateError> {
        if self.config_hash != config_hash {
            return Err(StateError::ConfigHashMismatch {
                expected: config_hash,
                found: self.config_hash,
            });
        }
        if self.trace_checksum != trace_checksum {
            return Err(StateError::TraceMismatch {
                expected: trace_checksum,
                found: self.trace_checksum,
            });
        }
        Ok(())
    }
}

/// Serialize a snapshot (with the integrity footer).
pub fn write_snapshot<W: Write>(snap: &Snapshot, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut sum = Fnv1a::new();
    let put = |w: &mut BufWriter<W>, sum: &mut Fnv1a, bytes: &[u8]| -> io::Result<()> {
        sum.update(bytes);
        w.write_all(bytes)
    };
    w.write_all(MAGIC)?;
    put(&mut w, &mut sum, &snap.config_hash.to_le_bytes())?;
    put(&mut w, &mut sum, &snap.trace_checksum.to_le_bytes())?;
    put(&mut w, &mut sum, &snap.trace_pos.to_le_bytes())?;
    put(&mut w, &mut sum, &(snap.payload.len() as u64).to_le_bytes())?;
    put(&mut w, &mut sum, &snap.payload)?;
    w.write_all(&(snap.payload.len() as u64).to_le_bytes())?;
    w.write_all(&sum.finish().to_le_bytes())?;
    w.flush()
}

/// Deserialize a snapshot, verifying magic, version, length echo, and
/// checksum. Identity (config/trace) is the caller's check — see
/// [`Snapshot::check_identity`].
pub fn read_snapshot<R: Read>(reader: R) -> Result<Snapshot, StateError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        // Any future SSTATEv2+ shares the 7-byte prefix; report it as a
        // version problem rather than generic corruption.
        if magic.starts_with(b"SSTATEv") {
            return Err(StateError::UnsupportedVersion);
        }
        return Err(StateError::BadMagic);
    }
    let mut sum = Fnv1a::new();
    let mut b8 = [0u8; 8];
    let mut get_u64 = |r: &mut BufReader<R>, sum: &mut Fnv1a| -> Result<u64, StateError> {
        r.read_exact(&mut b8)?;
        sum.update(&b8);
        Ok(u64::from_le_bytes(b8))
    };
    let config_hash = get_u64(&mut r, &mut sum)?;
    let trace_checksum = get_u64(&mut r, &mut sum)?;
    let trace_pos = get_u64(&mut r, &mut sum)?;
    let len = get_u64(&mut r, &mut sum)?;

    // Capacity hint is clamped: a corrupt header must not be able to
    // request an absurd up-front allocation — truncation is detected by
    // read_exact long before a real payload that large could exist.
    let mut payload = Vec::with_capacity((len as usize).min(1 << 24));
    let mut chunk = [0u8; 4096];
    let mut left = len;
    while left > 0 {
        let n = (left as usize).min(chunk.len());
        let buf = chunk.get_mut(..n).ok_or(StateError::Truncated)?;
        r.read_exact(buf)?;
        sum.update(buf);
        payload.extend_from_slice(buf);
        left -= n as u64;
    }

    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let footer_len = u64::from_le_bytes(b8);
    if footer_len != len {
        return Err(StateError::LengthMismatch { header: len, footer: footer_len });
    }
    r.read_exact(&mut b8)?;
    let expected = u64::from_le_bytes(b8);
    let found = sum.finish();
    if expected != found {
        return Err(StateError::ChecksumMismatch { expected, found });
    }
    Ok(Snapshot { config_hash, trace_checksum, trace_pos, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            config_hash: 0x1122_3344_5566_7788,
            trace_checksum: 0x99AA_BBCC_DDEE_FF00,
            trace_pos: 123_456,
            payload: (0..=255u8).cycle().take(5000).collect(),
        }
    }

    fn encoded(snap: &Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(snap, &mut buf).expect("in-memory write");
        buf
    }

    #[test]
    fn round_trip_preserves_everything() {
        let snap = sample();
        let back = read_snapshot(&encoded(&snap)[..]).expect("decode");
        assert_eq!(snap, back);
    }

    #[test]
    fn empty_payload_round_trips() {
        let snap = Snapshot { payload: Vec::new(), ..sample() };
        assert_eq!(read_snapshot(&encoded(&snap)[..]).expect("decode"), snap);
    }

    #[test]
    fn rejects_bad_magic_and_future_version() {
        let mut buf = encoded(&sample());
        buf[0] ^= 0xFF;
        assert!(matches!(read_snapshot(&buf[..]), Err(StateError::BadMagic)));

        let mut buf = encoded(&sample());
        buf[7] = b'2'; // "SSTATEv2"
        assert!(matches!(read_snapshot(&buf[..]), Err(StateError::UnsupportedVersion)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let pristine = encoded(&sample());
        // Mid-header, mid-payload, event-boundary-like (whole footer), and
        // partial-footer truncations must all fail loudly.
        for cut in [4, 20, pristine.len() - 16, pristine.len() - 3] {
            let mut buf = pristine.clone();
            buf.truncate(cut);
            assert!(read_snapshot(&buf[..]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn rejects_single_bit_flip_anywhere() {
        let pristine = encoded(&sample());
        for &pos in &[8usize, 16, 30, 41, pristine.len() / 2, pristine.len() - 17] {
            let mut buf = pristine.clone();
            buf[pos] ^= 0x04;
            assert!(read_snapshot(&buf[..]).is_err(), "bit flip at byte {pos} must not decode");
        }
    }

    #[test]
    fn corrupt_length_cannot_force_huge_allocation() {
        let mut buf = encoded(&sample());
        buf[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_snapshot(&buf[..]).is_err());
    }

    #[test]
    fn identity_check_rejects_stale_snapshots() {
        let snap = sample();
        assert!(snap.check_identity(snap.config_hash, snap.trace_checksum).is_ok());
        assert!(matches!(
            snap.check_identity(snap.config_hash ^ 1, snap.trace_checksum),
            Err(StateError::ConfigHashMismatch { .. })
        ));
        assert!(matches!(
            snap.check_identity(snap.config_hash, snap.trace_checksum ^ 1),
            Err(StateError::TraceMismatch { .. })
        ));
    }
}
