//! Branch-trace file I/O — the analogue of the CBP framework's trace
//! files, so captured windows can be stored, shared and replayed without
//! re-running the encoder.
//!
//! Format: magic `VBT1`, a varint record count, then one varint per
//! branch: `(zigzag(pc_delta) << 1) | taken`, with `pc_delta` relative to
//! the previous record's PC. Hot loops re-visit the same sites, so deltas
//! are tiny and the encoding lands near one byte per branch.

use crate::record::BranchRecord;
use std::io::{self, Read, Write};

const MAGIC: [u8; 4] = *b"VBT1";

fn write_varint<W: Write>(mut w: W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(mut r: R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        v |= ((byte[0] & 0x7f) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflow"));
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes a branch trace.
///
/// ```
/// use vstress_trace::io::{read_branch_trace, write_branch_trace};
/// use vstress_trace::record::BranchRecord;
///
/// let trace = vec![BranchRecord { pc: 0x5000, taken: true }; 4];
/// let mut bytes = Vec::new();
/// write_branch_trace(&trace, &mut bytes)?;
/// assert_eq!(read_branch_trace(std::io::Cursor::new(&bytes))?, trace);
/// # Ok::<(), std::io::Error>(())
/// ```
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_branch_trace<W: Write>(records: &[BranchRecord], mut out: W) -> io::Result<()> {
    out.write_all(&MAGIC)?;
    write_varint(&mut out, records.len() as u64)?;
    let mut prev_pc = 0u64;
    for r in records {
        let delta = r.pc as i64 - prev_pc as i64;
        write_varint(&mut out, (zigzag(delta) << 1) | r.taken as u64)?;
        prev_pc = r.pc;
    }
    Ok(())
}

/// Reads a branch trace written by [`write_branch_trace`].
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic or corrupt varints, and
/// `UnexpectedEof` for truncation.
pub fn read_branch_trace<R: Read>(mut input: R) -> io::Result<Vec<BranchRecord>> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a VBT1 branch trace"));
    }
    let count = read_varint(&mut input)?;
    if count > 1 << 34 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible record count"));
    }
    // A bounded head start, then growth as records actually arrive: each
    // costs at least one input byte, so a count the input cannot back
    // fails at end of input instead of forcing a large allocation (run
    // store `window` entries are parsed here).
    let mut records = Vec::with_capacity(count.min(1 << 12) as usize);
    let mut prev_pc = 0u64;
    for _ in 0..count {
        let v = read_varint(&mut input)?;
        let taken = v & 1 == 1;
        let delta = unzigzag(v >> 1);
        let pc = (prev_pc as i64 + delta) as u64;
        records.push(BranchRecord { pc, taken });
        prev_pc = pc;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_trace(n: usize) -> Vec<BranchRecord> {
        let mut x = 0x1357_9bdfu64;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                BranchRecord {
                    pc: 0x5000_0000_0000 + ((x >> 20) % 64) * 4,
                    taken: (x >> 60).is_multiple_of(3),
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_order_and_values() {
        let trace = synthetic_trace(10_000);
        let mut bytes = Vec::new();
        write_branch_trace(&trace, &mut bytes).unwrap();
        let back = read_branch_trace(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn encoding_is_compact_for_hot_sites() {
        let trace = synthetic_trace(10_000);
        let mut bytes = Vec::new();
        write_branch_trace(&trace, &mut bytes).unwrap();
        let per_record = bytes.len() as f64 / trace.len() as f64;
        assert!(per_record < 2.5, "bytes per branch {per_record}");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut bytes = Vec::new();
        write_branch_trace(&[], &mut bytes).unwrap();
        assert!(read_branch_trace(std::io::Cursor::new(&bytes)).unwrap().is_empty());
    }

    #[test]
    fn garbage_and_truncation_are_errors() {
        assert!(read_branch_trace(std::io::Cursor::new(b"nope".to_vec())).is_err());
        let trace = synthetic_trace(100);
        let mut bytes = Vec::new();
        write_branch_trace(&trace, &mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(read_branch_trace(std::io::Cursor::new(&bytes)).is_err());
        // A count the input cannot back: 2^33 records, none present.
        let mut claim = MAGIC.to_vec();
        write_varint(&mut claim, 1 << 33).unwrap();
        assert!(read_branch_trace(claim.as_slice()).is_err());
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX >> 2] {
            let mut b = Vec::new();
            write_varint(&mut b, v).unwrap();
            assert_eq!(read_varint(std::io::Cursor::new(&b)).unwrap(), v);
        }
        assert_eq!(unzigzag(zigzag(-5)), -5);
        assert_eq!(unzigzag(zigzag(i64::MAX >> 1)), i64::MAX >> 1);
    }
}
