//! A bounds-checked cursor over a borrowed byte slice.
//!
//! Every read is checked against the remaining length and fails with a typed
//! [`WireError::Truncated`] naming what was being read — no slicing panics,
//! no silent wraparound. Sub-decoders (`Decoder::sub`) carve out an exact
//! child region so a length field can never let an inner structure read its
//! parent's bytes. The decoder borrows its input (`&'a [u8]`): multi-byte
//! payloads come back as sub-slices of the original buffer, so decoding is
//! copy-free until a value type actually needs owned storage.

use crate::error::WireError;

/// Bounds-checked reader over `&'a [u8]`.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Start reading at the beginning of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the buffer is fully consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` bytes as a borrowed sub-slice.
    pub(crate) fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                what,
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one octet.
    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Read a big-endian u16.
    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian u32.
    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Carve out the next `n` bytes as an independent bounded sub-decoder.
    pub(crate) fn sub(&mut self, n: usize, what: &'static str) -> Result<Decoder<'a>, WireError> {
        Ok(Decoder::new(self.bytes(n, what)?))
    }

    /// Assert the buffer is fully consumed (strict trailing-bytes check).
    pub(crate) fn expect_end(&self, what: &'static str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                what,
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_bounds_checked() {
        let mut d = Decoder::new(&[1, 0, 2, 0, 0, 0, 3]);
        assert_eq!(d.u8("a").unwrap(), 1);
        assert_eq!(d.u16("b").unwrap(), 2);
        assert_eq!(d.u32("c").unwrap(), 3);
        assert!(d.is_empty());
        assert_eq!(
            d.u8("d"),
            Err(WireError::Truncated {
                what: "d",
                need: 1,
                have: 0
            })
        );
    }

    #[test]
    fn sub_decoder_cannot_escape_its_region() {
        let mut d = Decoder::new(&[0xAA, 0xBB, 0xCC]);
        let mut inner = d.sub(2, "inner").unwrap();
        assert_eq!(inner.u16("v").unwrap(), 0xAABB);
        assert!(inner.u8("past-end").is_err());
        assert_eq!(d.u8("outer").unwrap(), 0xCC);
    }

    #[test]
    fn expect_end_reports_leftovers() {
        let d = Decoder::new(&[1, 2]);
        assert_eq!(
            d.expect_end("msg"),
            Err(WireError::TrailingBytes {
                what: "msg",
                count: 2
            })
        );
    }
}
