//! The `SSTATEv2` on-disk snapshot container: one [`crate::frame`] whose
//! payload is (all little-endian)
//!
//! ```text
//! [u64 config_hash] [u64 trace_checksum] [u64 trace_pos] [state bytes]
//! ```
//!
//! The first three fields are the snapshot's *identity*: the config hash
//! of the machine it was taken on, the checksum of the input trace it was
//! replaying, and the trace event index execution had reached, so a
//! loader can reject stale checkpoints. `SSTATEv1` files (the same fields
//! in a hand-rolled header) fail as an unsupported version.

use crate::frame::{FrameReader, FrameWriter, Magic};
use crate::StateError;
use std::io::{self, BufReader, BufWriter, Read, Write};

const MAGIC: &Magic = b"SSTATEv2";

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

/// Serialize a snapshot, streaming the state straight into the frame.
pub fn write_snapshot<W: Write>(snap: &Snapshot, writer: W) -> io::Result<()> {
    let len = 24 + snap.payload.len() as u64;
    let mut frame = FrameWriter::new(BufWriter::new(writer), MAGIC, len)?;
    for field in [snap.config_hash, snap.trace_checksum, snap.trace_pos] {
        frame.put(&field.to_le_bytes())?;
    }
    frame.put(&snap.payload)?;
    frame.finish()
}

/// Deserialize a snapshot, verifying the frame. Identity (config/trace)
/// is the caller's check — see [`Snapshot::check_identity`].
pub fn read_snapshot<R: Read>(reader: R) -> Result<Snapshot, StateError> {
    let mut frame = FrameReader::open(BufReader::new(reader), MAGIC, u64::MAX)?;
    let snap = Snapshot {
        config_hash: frame.read_u64()?,
        trace_checksum: frame.read_u64()?,
        trace_pos: frame.read_u64()?,
        payload: frame.read_rest()?,
    };
    frame.finish()?;
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::corrupted_copies;
    use crate::FrameError;

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
    fn golden_bytes_pin_the_sstatev2_encoding() {
        let snap = Snapshot { trace_pos: 7, payload: b"state".to_vec(), ..sample() };
        let golden = "53535441544576321d00000000000000887766554433221100ffeeddccbbaa99\
                      070000000000000073746174651d00000000000000d0c810bb0f1ef214";
        let hex: String = encoded(&snap).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
    }

    #[test]
    fn sstatev1_files_are_an_unsupported_version() {
        let mut buf = encoded(&sample());
        buf[..8].copy_from_slice(b"SSTATEv1");
        assert!(matches!(
            read_snapshot(&buf[..]),
            Err(StateError::Frame(FrameError::UnsupportedVersion { .. }))
        ));
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let snap = Snapshot { payload: b"tiny".to_vec(), ..sample() };
        for (what, bad) in corrupted_copies(&encoded(&snap)) {
            assert!(read_snapshot(&bad[..]).is_err(), "{what} must not decode");
        }
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
