//! Minimal std-only byte codec for versioned checkpoint formats.
//!
//! Unsigned integers are LEB128 varints; strings are length-prefixed
//! UTF-8. `qr-syntax` builds the instance checkpoint format on top of
//! this (magic + version header, predicate/term tables, fact stream),
//! and `qr-check` builds the certificate bundle formats the same way.
//!
//! Decode failures are structured: every [`DecodeError`] carries the
//! byte offset at which the offending value *starts* plus a
//! [`DecodeErrorKind`], so callers can point at the exact corrupt spot
//! instead of re-parsing an opaque message.

use std::fmt;

/// What went wrong while decoding a byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The stream ended before a complete value was read.
    UnexpectedEof,
    /// The stream does not start with the expected magic bytes.
    BadMagic,
    /// The stream's format version is newer than this build understands.
    UnsupportedVersion(u64),
    /// A structurally invalid value (out-of-range id, bad UTF-8, ...).
    Malformed(&'static str),
}

/// Error decoding a checkpoint byte stream: a [`DecodeErrorKind`]
/// located at the byte offset where the offending value starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset (into the decoded slice) of the value that failed.
    pub offset: usize,
    /// What went wrong there.
    pub kind: DecodeErrorKind,
}

impl DecodeError {
    /// An error of `kind` located at byte `offset`.
    pub fn at(offset: usize, kind: DecodeErrorKind) -> DecodeError {
        DecodeError { offset, kind }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DecodeErrorKind::UnexpectedEof => {
                write!(f, "unexpected end of stream at byte {}", self.offset)
            }
            DecodeErrorKind::BadMagic => write!(f, "bad magic at byte {}", self.offset),
            DecodeErrorKind::UnsupportedVersion(v) => {
                write!(f, "unsupported version {v} at byte {}", self.offset)
            }
            DecodeErrorKind::Malformed(what) => {
                write!(f, "malformed stream at byte {}: {what}", self.offset)
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only byte sink.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends raw bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends an unsigned integer as a LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over an encoded byte stream.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the full slice.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// The current byte offset — where the next read will start.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed. Every encoded value takes at least one
    /// byte, so a decoder that preallocates for a decoded count clamps it
    /// to this: a hostile count then costs no more than the input's size.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` iff every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// A [`DecodeError`] of `kind` located at the current offset.
    pub fn error(&self, kind: DecodeErrorKind) -> DecodeError {
        DecodeError::at(self.pos, kind)
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(self.error(DecodeErrorKind::UnexpectedEof));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or(DecodeError::at(start, DecodeErrorKind::UnexpectedEof))?;
            self.pos += 1;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(DecodeError::at(
                    start,
                    DecodeErrorKind::Malformed("varint overflows u64"),
                ));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let start = self.pos;
        let len = self.varint()? as usize;
        let bytes = self.raw(len).map_err(|e| {
            // Locate a short string at its length prefix, not past it.
            DecodeError::at(start, e.kind)
        })?;
        std::str::from_utf8(bytes)
            .map_err(|_| DecodeError::at(start, DecodeErrorKind::Malformed("invalid UTF-8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let values = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.varint(v);
        }
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.varint(), Ok(v));
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn strings_and_raw_roundtrip() {
        let mut w = ByteWriter::new();
        w.raw(b"QRCK");
        w.str("mother");
        w.str("");
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.raw(4), Ok(&b"QRCK"[..]));
        assert_eq!(r.pos(), 4);
        assert_eq!(r.str(), Ok("mother"));
        assert_eq!(r.str(), Ok(""));
        assert!(r.is_at_end());
    }

    #[test]
    fn truncated_stream_errors_carry_the_offset() {
        let mut w = ByteWriter::new();
        w.str("hello");
        let bytes = w.into_vec();
        // The string starts at offset 0; truncating its payload still
        // locates the error at the value start.
        let mut r = ByteReader::new(&bytes[..3]);
        assert_eq!(
            r.str(),
            Err(DecodeError::at(0, DecodeErrorKind::UnexpectedEof))
        );
        assert_eq!(
            ByteReader::new(&[0x80]).varint(),
            Err(DecodeError::at(0, DecodeErrorKind::UnexpectedEof))
        );
        // A failing read after a successful one is located past it.
        let mut w = ByteWriter::new();
        w.varint(7);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        r.varint().unwrap();
        assert_eq!(
            r.varint(),
            Err(DecodeError::at(1, DecodeErrorKind::UnexpectedEof))
        );
    }

    #[test]
    fn overlong_varint_is_malformed() {
        // 11 continuation bytes cannot fit in a u64.
        let bytes = [
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
        ];
        assert_eq!(
            ByteReader::new(&bytes).varint(),
            Err(DecodeError::at(
                0,
                DecodeErrorKind::Malformed("varint overflows u64")
            ))
        );
    }

    #[test]
    fn bad_utf8_is_malformed_at_the_string_start() {
        let mut w = ByteWriter::new();
        w.varint(1);
        w.raw(&[0xff]);
        let bytes = w.into_vec();
        assert_eq!(
            ByteReader::new(&bytes).str(),
            Err(DecodeError::at(
                0,
                DecodeErrorKind::Malformed("invalid UTF-8")
            ))
        );
    }

    #[test]
    fn display_names_offset_and_kind() {
        let e = DecodeError::at(12, DecodeErrorKind::UnsupportedVersion(9));
        assert_eq!(e.to_string(), "unsupported version 9 at byte 12");
        let e = DecodeError::at(0, DecodeErrorKind::BadMagic);
        assert_eq!(e.to_string(), "bad magic at byte 0");
        let e = DecodeError::at(3, DecodeErrorKind::Malformed("trailing bytes"));
        assert_eq!(e.to_string(), "malformed stream at byte 3: trailing bytes");
        let e = DecodeError::at(5, DecodeErrorKind::UnexpectedEof);
        assert_eq!(e.to_string(), "unexpected end of stream at byte 5");
    }
}
