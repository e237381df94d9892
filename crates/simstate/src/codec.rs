//! The snapshot byte codec: components serialize themselves into a
//! [`StateSink`] and restore from a [`StateSource`].
//!
//! The format is deliberately dumb — little-endian scalars and
//! length-prefixed slices, with 4-byte ASCII section tags between
//! components — because dumb is what stays bit-stable across releases of
//! the simulator. Geometry is validated on the way *in*: every slice
//! reader takes the length the live configuration expects and refuses a
//! stored length that disagrees, so a snapshot from a differently-shaped
//! machine can never silently scribble over a component.

use crate::StateError;

/// Append-only snapshot writer.
#[derive(Default)]
pub struct StateSink {
    buf: Vec<u8>,
}

impl StateSink {
    pub fn new() -> Self {
        StateSink::default()
    }

    /// The serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Open a component section (`expect_tag` checks it on restore).
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// `None` encodes as a 0 flag byte, `Some(v)` as 1 followed by `v`.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_bool(false),
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
        }
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, vals: &[u64]) {
        self.put_u64(vals.len() as u64);
        for &v in vals {
            self.put_u64(v);
        }
    }

    /// Length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, vals: &[u32]) {
        self.put_u64(vals.len() as u64);
        for &v in vals {
            self.put_u32(v);
        }
    }

    /// Length-prefixed `bool` slice (one byte per element).
    pub fn put_bools(&mut self, vals: &[bool]) {
        self.put_u64(vals.len() as u64);
        for &v in vals {
            self.put_bool(v);
        }
    }
}

/// Cursor over a snapshot payload. Every read is bounds-checked and
/// domain-checked; failures surface as typed [`StateError`]s.
pub struct StateSource<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateSource<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        StateSource { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// A fully-consumed source is the expected end state of a restore; a
    /// trailing remainder means the writer and reader disagree on shape.
    pub fn expect_end(&self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::ShapeMismatch {
                what: "snapshot payload tail",
                expected: 0,
                found: self.remaining() as u64,
            })
        }
    }

    /// The next `n` bytes; running out is a shape error, like the
    /// trailing remainder [`Self::expect_end`] reports.
    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let short = || StateError::ShapeMismatch {
            what: "snapshot payload bytes",
            expected: n as u64,
            found: self.remaining() as u64,
        };
        let end = self.pos.checked_add(n).ok_or_else(short)?;
        let bytes = self.buf.get(self.pos..end).ok_or_else(short)?;
        self.pos = end;
        Ok(bytes)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], StateError> {
        let mut arr = [0u8; N];
        arr.copy_from_slice(self.take(N)?);
        Ok(arr)
    }

    /// Check a component section tag written by [`StateSink::tag`].
    pub fn expect_tag(&mut self, expected: &[u8; 4]) -> Result<(), StateError> {
        let found = self.take_array::<4>()?;
        if &found == expected {
            Ok(())
        } else {
            Err(StateError::SectionMismatch { expected: *expected, found })
        }
    }

    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, StateError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StateError::BadValue { what: "bool", found: u64::from(other) }),
        }
    }

    pub fn get_u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    pub fn get_i64(&mut self) -> Result<i64, StateError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    pub fn get_usize(&mut self) -> Result<usize, StateError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| StateError::BadValue { what: "usize", found: u64::MAX })
    }

    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, StateError> {
        if self.get_bool()? {
            Ok(Some(self.get_u64()?))
        } else {
            Ok(None)
        }
    }

    fn check_len(&mut self, what: &'static str, expected: usize) -> Result<(), StateError> {
        let stored = self.get_u64()?;
        if stored != expected as u64 {
            return Err(StateError::ShapeMismatch {
                what,
                expected: expected as u64,
                found: stored,
            });
        }
        Ok(())
    }

    /// Restore a length-prefixed byte slice into `out`, requiring the
    /// stored length to match `out.len()` exactly.
    pub fn read_bytes_into(
        &mut self,
        what: &'static str,
        out: &mut [u8],
    ) -> Result<(), StateError> {
        self.check_len(what, out.len())?;
        out.copy_from_slice(self.take(out.len())?);
        Ok(())
    }

    /// Restore a length-prefixed `u64` slice into `out` (geometry-checked).
    pub fn read_u64s_into(
        &mut self,
        what: &'static str,
        out: &mut [u64],
    ) -> Result<(), StateError> {
        self.check_len(what, out.len())?;
        for slot in out.iter_mut() {
            *slot = self.get_u64()?;
        }
        Ok(())
    }

    /// Restore a length-prefixed byte slice whose length is dynamic but
    /// bounded (e.g. a wire-protocol string field). A stored length above
    /// `max` is rejected before any allocation happens, so a corrupt
    /// length prefix cannot ask for gigabytes.
    pub fn read_bytes_bounded(
        &mut self,
        what: &'static str,
        max: usize,
    ) -> Result<Vec<u8>, StateError> {
        let n = self.get_usize()?;
        if n > max {
            return Err(StateError::ShapeMismatch { what, expected: max as u64, found: n as u64 });
        }
        Ok(self.take(n)?.to_vec())
    }

    /// Restore a length-prefixed `u64` slice whose length is dynamic but
    /// bounded (e.g. MSHR occupancy, bounded by file capacity). A stored
    /// length above `max` is rejected.
    pub fn read_u64s_bounded(
        &mut self,
        what: &'static str,
        max: usize,
    ) -> Result<Vec<u64>, StateError> {
        let n = self.get_usize()?;
        if n > max {
            return Err(StateError::ShapeMismatch { what, expected: max as u64, found: n as u64 });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Restore a length-prefixed `u32` slice into `out` (geometry-checked).
    pub fn read_u32s_into(
        &mut self,
        what: &'static str,
        out: &mut [u32],
    ) -> Result<(), StateError> {
        self.check_len(what, out.len())?;
        for slot in out.iter_mut() {
            *slot = self.get_u32()?;
        }
        Ok(())
    }

    /// Restore a length-prefixed `bool` slice into `out` (geometry- and
    /// domain-checked).
    pub fn read_bools_into(
        &mut self,
        what: &'static str,
        out: &mut [bool],
    ) -> Result<(), StateError> {
        self.check_len(what, out.len())?;
        for slot in out.iter_mut() {
            *slot = self.get_bool()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = StateSink::new();
        w.tag(b"TST_");
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(99));
        let bytes = w.into_bytes();

        let mut r = StateSource::new(&bytes);
        assert!(r.expect_tag(b"TST_").is_ok());
        assert_eq!(r.get_u8().ok(), Some(7));
        assert_eq!(r.get_bool().ok(), Some(true));
        assert_eq!(r.get_u32().ok(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64().ok(), Some(u64::MAX - 1));
        assert_eq!(r.get_i64().ok(), Some(-42));
        assert_eq!(r.get_opt_u64().ok(), Some(None));
        assert_eq!(r.get_opt_u64().ok(), Some(Some(99)));
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn slices_round_trip_with_geometry_check() {
        let mut w = StateSink::new();
        w.put_u64s(&[1, 2, 3]);
        w.put_bools(&[true, false]);
        w.put_bytes(&[9, 8]);
        w.put_u32s(&[5, 6]);
        let bytes = w.into_bytes();

        let mut r = StateSource::new(&bytes);
        let mut u = [0u64; 3];
        assert!(r.read_u64s_into("u", &mut u).is_ok());
        assert_eq!(u, [1, 2, 3]);
        let mut b = [false; 2];
        assert!(r.read_bools_into("b", &mut b).is_ok());
        assert_eq!(b, [true, false]);
        let mut by = [0u8; 2];
        assert!(r.read_bytes_into("by", &mut by).is_ok());
        assert_eq!(by, [9, 8]);
        let mut u32s = [0u32; 2];
        assert!(r.read_u32s_into("u32s", &mut u32s).is_ok());
        assert_eq!(u32s, [5, 6]);

        // Wrong live geometry is rejected, not silently truncated.
        let mut r = StateSource::new(&bytes);
        let mut wrong = [0u64; 4];
        assert!(matches!(r.read_u64s_into("u", &mut wrong), Err(StateError::ShapeMismatch { .. })));
    }

    #[test]
    fn bounded_bytes_round_trip_and_reject_oversize() {
        let mut w = StateSink::new();
        w.put_bytes(b"hello");
        let bytes = w.into_bytes();

        let mut r = StateSource::new(&bytes);
        assert_eq!(r.read_bytes_bounded("s", 16).ok().as_deref(), Some(&b"hello"[..]));
        assert!(r.expect_end().is_ok());

        let mut r = StateSource::new(&bytes);
        assert!(matches!(
            r.read_bytes_bounded("s", 4),
            Err(StateError::ShapeMismatch { expected: 4, found: 5, .. })
        ));
    }

    #[test]
    fn truncation_and_bad_values_are_typed() {
        let mut r = StateSource::new(&[1, 2]);
        assert!(matches!(
            r.get_u64(),
            Err(StateError::ShapeMismatch { expected: 8, found: 2, .. })
        ));

        let mut r = StateSource::new(&[3]);
        assert!(matches!(r.get_bool(), Err(StateError::BadValue { .. })));

        let mut r = StateSource::new(b"XYZ_rest");
        assert!(matches!(r.expect_tag(b"ROB_"), Err(StateError::SectionMismatch { .. })));
    }

    #[test]
    fn trailing_bytes_fail_expect_end() {
        let mut w = StateSink::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = StateSource::new(&bytes);
        assert_eq!(r.get_u64().ok(), Some(1));
        assert!(r.expect_end().is_err());
    }
}
