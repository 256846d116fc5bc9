//! A tiny little-endian binary codec for on-disk artifacts.
//!
//! The sweep journal persists completed simulation results so an
//! interrupted sweep can resume without re-running finished cells.
//! Rather than pull in serde (this is an offline, zero-dependency
//! build), every persisted statistics type implements a pair of
//! hand-rolled methods over [`ByteWriter`] / [`ByteReader`]. The
//! encoding is positional and versioned by its container, so decode
//! errors surface as typed [`CodecError`]s instead of garbage numbers.
//!
//! The artifacts share one sealed frame: a `magic | u32 version` header
//! ([`ByteWriter::put_header`], [`ByteReader::check_header`]), then
//! `u32 len | payload | u32 crc32(payload)` ([`ByteWriter::put_sealed`],
//! [`ByteReader::get_sealed`]), once in a `CMCK` checkpoint or `CMPF`
//! profile and once per record, behind a kind byte, in a `CMJR` journal.
//!
//! # Examples
//!
//! ```
//! use critmem_common::codec::{ByteReader, ByteWriter};
//! let mut w = ByteWriter::new();
//! w.put_u64(42);
//! w.put_str("swim");
//! w.put_f64(1.5);
//! let bytes = w.into_bytes();
//! let mut r = ByteReader::new(&bytes);
//! assert_eq!(r.get_u64().unwrap(), 42);
//! assert_eq!(r.get_str().unwrap(), "swim");
//! assert_eq!(r.get_f64().unwrap(), 1.5);
//! assert!(r.is_empty());
//! ```

use crate::crc32;
use std::fmt;

/// A decode failure: what was expected and where the stream ran out or
/// went inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of the inconsistency.
    pub message: String,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CodecError {}

/// Architectural-state capture for checkpointed warm-start simulation.
///
/// A component implementing `Snapshot` can serialize its *mutable*
/// state into a [`ByteWriter`] and later overlay that state onto a
/// freshly constructed instance. Restore never rebuilds structure: the
/// caller reconstructs the component from its configuration through the
/// normal constructor, then calls [`Snapshot::load_state`] to replay
/// the captured fields. Anything derivable from configuration
/// (capacities, geometry, seeds baked into constructor arguments) is
/// deliberately *not* serialized.
///
/// Implementations must be deterministic: iteration over unordered
/// containers (e.g. `HashMap`) must be sorted before encoding so that
/// capturing the same state twice yields identical bytes.
pub trait Snapshot {
    /// Appends this component's mutable state to `w`.
    fn save_state(&self, w: &mut ByteWriter);

    /// Overlays previously captured state onto `self`.
    ///
    /// `self` must have been constructed with the same configuration
    /// that produced the saved state.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;
}

/// Growable little-endian encoder.
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern (lossless).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed raw byte blob.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed `u64` sequence.
    pub fn put_u64_seq(&mut self, xs: &[u64]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_u64(x);
        }
    }

    /// Appends an artifact header: four magic bytes and a `u32` format
    /// version.
    pub fn put_header(&mut self, magic: &[u8; 4], version: u32) {
        self.buf.extend_from_slice(magic);
        self.put_u32(version);
    }

    /// Appends a sealed frame: `u32 len | payload | u32 crc32(payload)`.
    pub fn put_sealed(&mut self, payload: &[u8]) {
        self.put_bytes(payload);
        self.put_u32(crc32::checksum(payload));
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style little-endian decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn err(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(self.err(format!(
                "need {n} bytes, {} remain",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(self.err(format!("invalid bool byte {n}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let bytes = self.get_bytes_ref()?.to_vec();
        String::from_utf8(bytes).map_err(|_| self.err("invalid UTF-8 string"))
    }

    /// Reads a length-prefixed raw byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        Ok(self.get_bytes_ref()?.to_vec())
    }

    fn get_bytes_ref(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed `u64` sequence.
    pub fn get_u64_seq(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.get_u32()? as usize;
        (0..len).map(|_| self.get_u64()).collect()
    }

    /// Checks the header [`ByteWriter::put_header`] wrote.
    ///
    /// # Errors
    ///
    /// Names the `artifact` and says "magic" for a wrong or missing
    /// magic, "version" for a version this build does not read, and
    /// "truncated" for a cut inside the version field.
    pub fn check_header(
        &mut self,
        artifact: &str,
        magic: &[u8; 4],
        version: u32,
    ) -> Result<(), CodecError> {
        if self.buf.get(self.pos..self.pos + 4) != Some(magic) {
            let magic = String::from_utf8_lossy(magic);
            return Err(self.err(format!("not a {artifact} (bad magic, expected {magic:?})")));
        }
        self.pos += 4;
        match self.get_u32() {
            Ok(found) if found == version => Ok(()),
            Ok(found) => Err(self.err(format!(
                "unsupported {artifact} version {found} (this build reads {version})"
            ))),
            Err(e) => Err(self.err(format!("{artifact} truncated: {}", e.message))),
        }
    }

    /// Reads a frame [`ByteWriter::put_sealed`] wrote and returns its
    /// payload once the CRC matches.
    ///
    /// # Errors
    ///
    /// Names the `artifact` and says "truncated" when the bytes end
    /// before the frame does, or "checksum" and "CRC" when the payload
    /// does not match its CRC-32.
    pub fn get_sealed(&mut self, artifact: &str) -> Result<&'a [u8], CodecError> {
        let offset = self.pos;
        let frame = |r: &mut Self| Ok((r.get_bytes_ref()?, r.get_u32()?));
        let (payload, stored) = frame(self).map_err(|e: CodecError| CodecError {
            message: format!("{artifact} truncated: {}", e.message),
            offset,
        })?;
        let computed = crc32::checksum(payload);
        if stored != computed {
            let message = format!(
                "{artifact} checksum mismatch: CRC-32 stored {stored:#010X}, computed \
                 {computed:#010X} (corrupt or torn write)"
            );
            return Err(CodecError { message, offset });
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX / 3);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_str("träce");
        w.put_bytes(&[1, 2, 3]);
        w.put_u64_seq(&[10, 20, 30]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "träce");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64_seq().unwrap(), vec![10, 20, 30]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        let err = r.get_u64().unwrap_err();
        assert!(err.message.contains("need 8 bytes"), "{err}");
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn sealed_frame_round_trips_and_names_each_fault() {
        let mut w = ByteWriter::new();
        w.put_header(b"TEST", 3);
        w.put_sealed(b"small payload");
        let bytes = w.into_bytes();
        let unseal = |bytes: &[u8]| {
            let mut r = ByteReader::new(bytes);
            r.check_header("test artifact", b"TEST", 3)?;
            r.get_sealed("test artifact").map(<[u8]>::to_vec)
        };
        assert_eq!(unseal(&bytes).unwrap(), b"small payload");
        let fault = |at: usize, patch: &[u8]| {
            let mut bad = bytes.clone();
            bad[at..at + patch.len()].copy_from_slice(patch);
            unseal(&bad).unwrap_err().message
        };
        assert!(fault(0, b"X").contains("not a test artifact (bad magic"));
        assert!(fault(4, &[9]).contains("version 9"));
        let crc = fault(14, b"?");
        assert!(crc.contains("CRC") && crc.contains("checksum"), "{crc}");
        // A length one short reads the CRC out of the payload's tail.
        assert!(fault(8, &[12]).contains("checksum"));
        for len in [14, u32::MAX] {
            assert!(
                fault(8, &len.to_le_bytes()).contains("truncated"),
                "len {len}"
            );
        }
        for cut in 4..bytes.len() {
            assert!(unseal(&bytes[..cut])
                .unwrap_err()
                .message
                .contains("truncated"));
        }
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_0001);
        let mut w = ByteWriter::new();
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let got = ByteReader::new(&bytes).get_f64().unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }
}
