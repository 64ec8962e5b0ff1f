//! Little-endian, length-checked byte framing for the binary
//! persistence formats: the run store's entry envelope and the
//! [`EventStream`](crate::EventStream) chunk section.
//!
//! Writers append to a `Vec<u8>`; readers take a cursor (`&mut &[u8]`)
//! and advance it past what they consumed. A length field is checked
//! against the bytes remaining *before* anything is sliced or
//! allocated, so a torn or hostile length yields an error, never a
//! panic or an oversized allocation.

use serde::Error;

/// Appends `v` as 4 little-endian bytes.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `bytes` behind a `u64` length prefix.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Takes the next `n` bytes off the cursor.
///
/// # Errors
///
/// Returns an [`Error`] naming `what` if fewer than `n` bytes remain.
pub fn take<'a>(input: &mut &'a [u8], n: u64, what: &str) -> Result<&'a [u8], Error> {
    let remaining = input.len();
    let Some(n) = usize::try_from(n).ok().filter(|&n| n <= remaining) else {
        return Err(Error::new(format!("{what}: {n} bytes claimed, {remaining} remain")));
    };
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Takes a little-endian `u32` off the cursor.
///
/// # Errors
///
/// Returns an [`Error`] naming `what` if fewer than 4 bytes remain.
pub fn take_u32(input: &mut &[u8], what: &str) -> Result<u32, Error> {
    let b = take(input, 4, what)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Takes a little-endian `u64` off the cursor.
///
/// # Errors
///
/// Returns an [`Error`] naming `what` if fewer than 8 bytes remain.
pub fn take_u64(input: &mut &[u8], what: &str) -> Result<u64, Error> {
    let b = take(input, 8, what)?;
    Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Takes a [`put_bytes`] field — a `u64` length, then that many bytes —
/// off the cursor, borrowing the bytes.
///
/// # Errors
///
/// Returns an [`Error`] naming `what` if the prefix or the bytes it
/// claims run past the end of the input.
pub fn take_bytes<'a>(input: &mut &'a [u8], what: &str) -> Result<&'a [u8], Error> {
    let n = take_u64(input, what)?;
    take(input, n, what)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_and_advance_the_cursor() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_bytes(&mut out, b"chunk");
        put_bytes(&mut out, b"");
        let mut cur = out.as_slice();
        assert_eq!(take_u32(&mut cur, "a").unwrap(), 0xdead_beef);
        assert_eq!(take_u64(&mut cur, "b").unwrap(), u64::MAX - 1);
        assert_eq!(take_bytes(&mut cur, "c").unwrap(), b"chunk");
        assert_eq!(take_bytes(&mut cur, "d").unwrap(), b"");
        assert!(cur.is_empty());
    }

    #[test]
    fn lengths_past_the_end_are_errors() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"abc");
        for cut in 0..out.len() {
            let mut cur = &out[..cut];
            assert!(take_bytes(&mut cur, "field").is_err(), "cut at {cut}");
        }
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        huge.extend_from_slice(b"abc");
        let err = take_bytes(&mut huge.as_slice(), "chunk").unwrap_err();
        assert!(err.to_string().contains("chunk"), "{err}");
    }
}
