//! Message buffers: a growable byte buffer with typed little-endian
//! writers, and a typed read cursor for the receiving side.

/// Errors raised while decoding a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn werr<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// A serialized payload under construction (or fully built).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Message {
    buf: Vec<u8>,
}

impl Message {
    pub fn new() -> Self {
        Message { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Message { buf: Vec::with_capacity(cap) }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Message { buf }
    }

    /// Clear the contents, keeping the allocation. This is the pool
    /// take/put primitive: a recycled message starts empty but retains
    /// the capacity of the largest payload it ever carried, so
    /// steady-state marshals never reallocate.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    pub fn reader(&self) -> MessageReader<'_> {
        MessageReader { buf: &self.buf, pos: 0 }
    }

    // ----- writers ---------------------------------------------------------

    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    #[inline]
    pub fn write_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Bulk-write a f64 slice (length NOT included — the serializer
    /// decides where the length lives).
    pub fn write_f64_slice(&mut self, v: &[f64]) {
        self.buf.reserve(v.len() * 8);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    pub fn write_i32_slice(&mut self, v: &[i32]) {
        self.buf.reserve(v.len() * 4);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    pub fn write_i64_slice(&mut self, v: &[i64]) {
        self.buf.reserve(v.len() * 8);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    pub fn write_bool_slice(&mut self, v: &[bool]) {
        self.buf.reserve(v.len());
        for x in v {
            self.buf.push(*x as u8);
        }
    }
}

/// Byte used by [`canary_fill`]. 0xA5 decodes as an implausible value
/// for every typed reader (large lengths, non-0/1 bools), so a stale
/// byte that leaks out of a recycled buffer fails loudly and
/// deterministically instead of aliasing a previous call's data.
pub const CANARY_BYTE: u8 = 0xA5;

/// Debug helper for pooled buffers: overwrite the buffer's entire
/// spare capacity with [`CANARY_BYTE`] and leave it empty. Writers only
/// ever append, so serialized output is byte-identical with or without
/// the canary — but any read of recycled memory that skipped a write
/// now yields sentinels instead of the previous call's bytes.
pub fn canary_fill(buf: &mut Vec<u8>) {
    let cap = buf.capacity();
    buf.clear();
    buf.resize(cap, CANARY_BYTE);
    buf.clear();
}

/// A read cursor over a message payload.
#[derive(Debug, Clone)]
pub struct MessageReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> MessageReader<'a> {
    /// Cursor over a raw payload slice. Lets receivers that own a
    /// `Vec<u8>` decode without wrapping it in a [`Message`] first
    /// (which would either move or copy the buffer).
    pub fn new(buf: &'a [u8]) -> Self {
        MessageReader { buf, pos: 0 }
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset, for error context.
    pub fn pos(&self) -> usize {
        self.pos
    }

    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` bytes. Inlined into every typed read: the marshal
    /// engine makes one per field, from another crate.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return self.underflow(n);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[cold]
    fn underflow<T>(&self, n: usize) -> Result<T, WireError> {
        werr(format!(
            "underflow at byte {}/{}: need {n} bytes, have {}",
            self.pos,
            self.buf.len(),
            self.remaining()
        ))
    }

    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, WireError> {
        Ok(self.take(1)?[0] != 0)
    }

    #[inline]
    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[inline]
    pub fn read_i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn read_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` length, then that many bytes, borrowed from the buffer.
    #[inline]
    pub fn read_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.read_u32()? as usize;
        self.take(n)
    }

    /// A [`read_bytes`](Self::read_bytes) body that must be UTF-8; the
    /// error names the offset of the first invalid byte.
    pub fn read_str(&mut self) -> Result<String, WireError> {
        let bytes = self.read_bytes()?;
        let (start, len) = (self.pos - bytes.len(), self.buf.len());
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|e| {
            WireError(format!("invalid UTF-8 at byte {}/{len}", start + e.valid_up_to()))
        })
    }

    pub fn read_f64_into(&mut self, out: &mut [f64]) -> Result<(), WireError> {
        let bytes = self.take(out.len() * 8)?;
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            out[i] = f64::from_le_bytes(chunk.try_into().unwrap());
        }
        Ok(())
    }

    pub fn read_i32_into(&mut self, out: &mut [i32]) -> Result<(), WireError> {
        let bytes = self.take(out.len() * 4)?;
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            out[i] = i32::from_le_bytes(chunk.try_into().unwrap());
        }
        Ok(())
    }

    pub fn read_i64_into(&mut self, out: &mut [i64]) -> Result<(), WireError> {
        let bytes = self.take(out.len() * 8)?;
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            out[i] = i64::from_le_bytes(chunk.try_into().unwrap());
        }
        Ok(())
    }

    pub fn read_bool_into(&mut self, out: &mut [bool]) -> Result<(), WireError> {
        let bytes = self.take(out.len())?;
        for (i, b) in bytes.iter().enumerate() {
            out[i] = *b != 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut m = Message::new();
        m.write_u8(7);
        m.write_bool(true);
        m.write_i32(-5);
        m.write_u32(9);
        m.write_i64(i64::MIN);
        m.write_f64(2.5);
        m.write_str("héllo");
        let mut r = m.reader();
        assert_eq!(r.read_u8().unwrap(), 7);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_i32().unwrap(), -5);
        assert_eq!(r.read_u32().unwrap(), 9);
        assert_eq!(r.read_i64().unwrap(), i64::MIN);
        assert_eq!(r.read_f64().unwrap(), 2.5);
        assert_eq!(r.read_str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn roundtrip_slices() {
        let mut m = Message::new();
        m.write_f64_slice(&[1.0, 2.0, 3.0]);
        m.write_i32_slice(&[4, 5]);
        m.write_i64_slice(&[6]);
        m.write_bool_slice(&[true, false]);
        let mut r = m.reader();
        let mut f = [0.0; 3];
        r.read_f64_into(&mut f).unwrap();
        assert_eq!(f, [1.0, 2.0, 3.0]);
        let mut i = [0; 2];
        r.read_i32_into(&mut i).unwrap();
        assert_eq!(i, [4, 5]);
        let mut l = [0i64; 1];
        r.read_i64_into(&mut l).unwrap();
        assert_eq!(l, [6]);
        let mut b = [false; 2];
        r.read_bool_into(&mut b).unwrap();
        assert_eq!(b, [true, false]);
    }

    #[test]
    fn underflow_detected() {
        let m = Message::new();
        assert!(m.reader().read_i32().is_err());
    }

    #[test]
    fn underflow_reports_offset_and_totals() {
        let mut m = Message::new();
        m.write_i32(7); // 4 bytes total
        let mut r = m.reader();
        r.read_u8().unwrap(); // pos = 1
        let err = r.read_i64().unwrap_err();
        assert_eq!(err.0, "underflow at byte 1/4: need 8 bytes, have 3");
    }

    #[test]
    fn truncated_str_underflow_names_the_short_body() {
        // Length prefix promises 100 bytes but only 2 follow.
        let mut m = Message::new();
        m.write_u32(100);
        m.write_u8(b'h');
        m.write_u8(b'i');
        let err = m.reader().read_str().unwrap_err();
        assert_eq!(err.0, "underflow at byte 4/6: need 100 bytes, have 2");
        // A whole body whose second byte is not UTF-8.
        let mut m = Message::new();
        m.write_u32(2);
        m.write_u8(b'h');
        m.write_u8(0xFF);
        let err = m.reader().read_str().unwrap_err();
        assert_eq!(err.0, "invalid UTF-8 at byte 5/6");
    }

    #[test]
    fn trailing_bytes_are_observable() {
        let mut m = Message::new();
        m.write_i32(1);
        m.write_u8(0xFF); // junk past the logical end
        let mut r = m.reader();
        r.read_i32().unwrap();
        assert!(!r.is_exhausted());
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.pos(), 4);
    }

    #[test]
    fn reader_over_raw_slice_matches_message_reader() {
        let mut m = Message::new();
        m.write_i64(42);
        let bytes = m.into_bytes();
        let mut r = MessageReader::new(&bytes);
        assert_eq!(r.read_i64().unwrap(), 42);
        assert!(r.is_exhausted());
    }

    #[test]
    fn reset_keeps_capacity_and_output_is_identical_after_canary() {
        let mut m = Message::new();
        m.write_str("a fairly long first payload to size the buffer");
        let first_cap = m.capacity();
        let mut buf = m.into_bytes();
        canary_fill(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), first_cap);
        let mut m = Message::from_bytes(buf);
        m.reset();
        m.write_i32(-9);
        let mut fresh = Message::new();
        fresh.write_i32(-9);
        // Recycled + canaried buffer serializes byte-identically.
        assert_eq!(m.as_bytes(), fresh.as_bytes());
        assert_eq!(m.capacity(), first_cap);
    }

    #[test]
    fn byte_len_accounting() {
        let mut m = Message::new();
        m.write_i32(1);
        m.write_f64(1.0);
        assert_eq!(m.len(), 12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn scalar_roundtrip(a: i32, b: i64, c: f64, d: bool, s in ".{0,64}") {
            let mut m = Message::new();
            m.write_i32(a);
            m.write_i64(b);
            m.write_f64(c);
            m.write_bool(d);
            m.write_str(&s);
            let mut r = m.reader();
            prop_assert_eq!(r.read_i32().unwrap(), a);
            prop_assert_eq!(r.read_i64().unwrap(), b);
            let got = r.read_f64().unwrap();
            prop_assert!(got == c || (got.is_nan() && c.is_nan()));
            prop_assert_eq!(r.read_bool().unwrap(), d);
            prop_assert_eq!(r.read_str().unwrap(), s);
            prop_assert!(r.is_exhausted());
        }

        #[test]
        fn f64_bulk_roundtrip(v in proptest::collection::vec(any::<f64>(), 0..128)) {
            let mut m = Message::new();
            m.write_u32(v.len() as u32);
            m.write_f64_slice(&v);
            let mut r = m.reader();
            let n = r.read_u32().unwrap() as usize;
            let mut out = vec![0.0; n];
            r.read_f64_into(&mut out).unwrap();
            for (x, y) in v.iter().zip(&out) {
                prop_assert!(x == y || (x.is_nan() && y.is_nan()));
            }
        }
    }
}
