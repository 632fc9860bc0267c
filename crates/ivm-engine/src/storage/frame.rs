//! Compact columnar frame codec for spill files.
//!
//! A spill file is a magic header followed by a sequence of *frames*.
//! Each frame holds a bounded batch of rows in column-major order:
//!
//! ```text
//! file  := MAGIC frame*
//! frame := rows:u32 cols:u32 column{cols}
//! column:= value{rows}
//! value := tag:u8 payload
//! ```
//!
//! Payloads are fixed-width little-endian scalars except VARCHAR, which
//! is length-prefixed UTF-8. The format is column-major inside a frame so
//! runs of the same tag compress into predictable byte patterns and the
//! decoder's match is taken per column run, not per value of a row.
//!
//! The decoder never trusts the file: row/column counts and string
//! lengths are bounds-checked and every truncation or tag mismatch comes
//! back as a clean [`EngineError`], never a panic or an allocation bomb —
//! spill files live in a temp directory where anything can happen to
//! them.

use std::io::{Read, Write};

use crate::error::EngineError;
use crate::value::Value;

/// File magic identifying a spill file (and its format version).
pub const SPILL_MAGIC: &[u8; 8] = b"OIVMSPL1";

/// Hard cap on rows per frame; the writer flushes well below it, the
/// reader rejects anything above it as corruption.
pub const MAX_FRAME_ROWS: u32 = 1 << 20;

/// Hard cap on columns per frame (sanity bound against corrupt headers).
pub const MAX_FRAME_COLS: u32 = 1 << 16;

/// Hard cap on one VARCHAR payload (sanity bound against corrupt
/// lengths).
const MAX_TEXT_BYTES: u32 = 1 << 30;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_TEXT: u8 = 4;
const TAG_DATE: u8 = 5;

fn corrupt(what: impl Into<String>) -> EngineError {
    EngineError::execution(format!("corrupt spill frame: {}", what.into()))
}

fn io_err(op: &str, e: std::io::Error) -> EngineError {
    EngineError::execution(format!("spill I/O error ({op}): {e}"))
}

/// Write the file header. Every spill file starts with this.
pub fn write_header(w: &mut impl Write) -> Result<(), EngineError> {
    w.write_all(SPILL_MAGIC).map_err(|e| io_err("header", e))
}

/// Read and verify the file header.
pub fn read_header(r: &mut impl Read) -> Result<(), EngineError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| io_err("header read", e))?;
    if &magic != SPILL_MAGIC {
        return Err(corrupt("bad magic (not a spill file)"));
    }
    Ok(())
}

/// Encode one batch of rows (all of equal width) as a frame. Zero-row
/// frames are legal (empty partitions still get a well-formed file).
pub fn write_frame(w: &mut impl Write, rows: &[Vec<Value>]) -> Result<u64, EngineError> {
    let nrows = rows.len() as u32;
    debug_assert!(nrows <= MAX_FRAME_ROWS, "writer exceeded frame cap");
    let ncols = rows.first().map_or(0, Vec::len) as u32;
    let mut buf: Vec<u8> = Vec::with_capacity(8 + rows.len() * ncols as usize * 9);
    buf.extend_from_slice(&nrows.to_le_bytes());
    buf.extend_from_slice(&ncols.to_le_bytes());
    for c in 0..ncols as usize {
        for row in rows {
            debug_assert_eq!(row.len(), ncols as usize, "ragged frame row");
            encode_value(&mut buf, &row[c]);
        }
    }
    w.write_all(&buf).map_err(|e| io_err("frame write", e))?;
    Ok(buf.len() as u64)
}

/// Encode one row as a width-prefixed run of tagged values — the same
/// value encoding spill frames use, row-major. This is the row format of
/// table files ([`crate::storage::durability`]) and the row payload of
/// WAL records ([`crate::storage::wal`]), so the durability layer
/// inherits the frame codec's bounds checking wholesale.
pub fn encode_row(buf: &mut Vec<u8>, row: &[Value]) {
    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        encode_value(buf, v);
    }
}

/// Decode one row written by [`encode_row`]. Width and string lengths are
/// bounds-checked exactly like frame decoding: corruption comes back as a
/// clean [`EngineError`], never a panic or an allocation bomb.
pub fn decode_row(r: &mut impl Read) -> Result<Vec<Value>, EngineError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)
        .map_err(|_| corrupt("truncated row width"))?;
    let ncols = u32::from_le_bytes(b);
    if ncols > MAX_FRAME_COLS {
        return Err(corrupt(format!("row width {ncols} exceeds column cap")));
    }
    let mut row = Vec::with_capacity(ncols as usize);
    for _ in 0..ncols {
        row.push(decode_value(r)?);
    }
    Ok(row)
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Boolean(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Integer(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            buf.push(TAG_DOUBLE);
            buf.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Varchar(s) => {
            buf.push(TAG_TEXT);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            buf.push(TAG_DATE);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Decode the next frame, or `None` at a clean end of file. A file that
/// ends mid-frame is reported as corruption, not EOF.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<Vec<Value>>>, EngineError> {
    let mut head = [0u8; 8];
    match r.read_exact(&mut head[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(io_err("frame header", e)),
    }
    r.read_exact(&mut head[1..])
        .map_err(|_| corrupt("truncated frame header"))?;
    let nrows = u32::from_le_bytes(head[0..4].try_into().unwrap());
    let ncols = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if nrows > MAX_FRAME_ROWS {
        return Err(corrupt(format!("row count {nrows} exceeds frame cap")));
    }
    if ncols > MAX_FRAME_COLS {
        return Err(corrupt(format!("column count {ncols} exceeds frame cap")));
    }
    let (nrows, ncols) = (nrows as usize, ncols as usize);
    let mut rows: Vec<Vec<Value>> = (0..nrows).map(|_| Vec::with_capacity(ncols)).collect();
    for _ in 0..ncols {
        for row in rows.iter_mut() {
            row.push(decode_value(r)?);
        }
    }
    Ok(Some(rows))
}

fn decode_value(r: &mut impl Read) -> Result<Value, EngineError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)
        .map_err(|_| corrupt("truncated value tag"))?;
    Ok(match tag[0] {
        TAG_NULL => Value::Null,
        TAG_BOOL => {
            let mut b = [0u8; 1];
            r.read_exact(&mut b)
                .map_err(|_| corrupt("truncated boolean"))?;
            match b[0] {
                0 => Value::Boolean(false),
                1 => Value::Boolean(true),
                other => return Err(corrupt(format!("boolean byte {other}"))),
            }
        }
        TAG_INT => {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)
                .map_err(|_| corrupt("truncated integer"))?;
            Value::Integer(i64::from_le_bytes(b))
        }
        TAG_DOUBLE => {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)
                .map_err(|_| corrupt("truncated double"))?;
            Value::Double(f64::from_bits(u64::from_le_bytes(b)))
        }
        TAG_TEXT => {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)
                .map_err(|_| corrupt("truncated text length"))?;
            let len = u32::from_le_bytes(b);
            if len > MAX_TEXT_BYTES {
                return Err(corrupt(format!("text length {len} exceeds cap")));
            }
            let mut bytes = vec![0u8; len as usize];
            r.read_exact(&mut bytes)
                .map_err(|_| corrupt("truncated text payload"))?;
            Value::Varchar(
                String::from_utf8(bytes).map_err(|_| corrupt("text payload is not UTF-8"))?,
            )
        }
        TAG_DATE => {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)
                .map_err(|_| corrupt("truncated date"))?;
            Value::Date(i32::from_le_bytes(b))
        }
        other => return Err(corrupt(format!("unknown value tag {other}"))),
    })
}

/// Approximate heap footprint of one row, used for memory-budget
/// accounting (enum size per value plus string heap bytes, plus the row
/// vector's own header).
pub fn row_bytes(row: &[Value]) -> usize {
    let mut n = std::mem::size_of::<Vec<Value>>() + std::mem::size_of_val(row);
    for v in row {
        if let Value::Varchar(s) = v {
            n += s.len();
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        write_frame(&mut buf, &rows).unwrap();
        let mut cur = Cursor::new(buf);
        read_header(&mut cur).unwrap();
        let out = read_frame(&mut cur).unwrap().unwrap();
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
        out
    }

    #[test]
    fn every_variant_round_trips() {
        let rows = vec![
            vec![
                Value::Null,
                Value::Boolean(true),
                Value::Boolean(false),
                Value::Integer(i64::MIN),
                Value::Integer(i64::MAX),
                Value::Double(-0.0),
                Value::Double(f64::NAN),
                Value::Varchar(String::new()),
                Value::Varchar("héllo ✓ world".into()),
                Value::Date(i32::MIN),
            ],
            vec![
                Value::Integer(0),
                Value::Null,
                Value::Null,
                Value::Double(1.5e300),
                Value::Varchar("x".repeat(100_000)),
                Value::Date(0),
                Value::Boolean(true),
                Value::Null,
                Value::Varchar("b".into()),
                Value::Date(i32::MAX),
            ],
        ];
        let out = roundtrip(rows.clone());
        assert_eq!(out.len(), 2);
        // NaN breaks PartialEq; compare bitwise via grouping order.
        for (a, b) in rows.iter().flatten().zip(out.iter().flatten()) {
            assert!(a.total_cmp(b).is_eq(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn empty_frames_and_batch_boundary_sizes() {
        for n in [0usize, 1, 1023, 1024, 1025] {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|i| vec![Value::Integer(i as i64), Value::Varchar(format!("r{i}"))])
                .collect();
            assert_eq!(roundtrip(rows.clone()), rows, "size {n}");
        }
    }

    #[test]
    fn multiple_frames_stream_in_order() {
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        for chunk in 0..3i64 {
            let rows: Vec<Vec<Value>> = (0..4)
                .map(|i| vec![Value::Integer(chunk * 4 + i)])
                .collect();
            write_frame(&mut buf, &rows).unwrap();
        }
        let mut cur = Cursor::new(buf);
        read_header(&mut cur).unwrap();
        let mut all = Vec::new();
        while let Some(rows) = read_frame(&mut cur).unwrap() {
            all.extend(rows);
        }
        let expect: Vec<Vec<Value>> = (0..12).map(|i| vec![Value::Integer(i)]).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn bad_magic_is_a_clean_error() {
        let mut cur = Cursor::new(b"NOTSPILL".to_vec());
        let err = read_header(&mut cur).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // Too-short header is also an error, not a panic.
        let mut short = Cursor::new(b"OIV".to_vec());
        assert!(read_header(&mut short).is_err());
    }

    #[test]
    fn truncated_frames_are_clean_errors() {
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Integer(i), Value::Varchar(format!("row{i}"))])
            .collect();
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        write_frame(&mut buf, &rows).unwrap();
        // Cut the file at every prefix length after the header: each must
        // yield either a clean `None` (only at exactly the header) or a
        // corruption error — never a panic.
        for cut in 8..buf.len() - 1 {
            let mut cur = Cursor::new(buf[..cut].to_vec());
            read_header(&mut cur).unwrap();
            let res = read_frame(&mut cur);
            if cut == 8 {
                assert!(matches!(res, Ok(None)), "clean EOF at header boundary");
            } else {
                assert!(res.is_err(), "cut at {cut} must error");
            }
        }
    }

    #[test]
    fn corrupt_counts_and_tags_are_clean_errors() {
        // Absurd row count: rejected before any allocation.
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        let mut cur = Cursor::new(buf);
        read_header(&mut cur).unwrap();
        let err = read_frame(&mut cur).unwrap_err();
        assert!(err.to_string().contains("row count"), "{err}");

        // Unknown value tag.
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0xEE);
        let mut cur = Cursor::new(buf);
        read_header(&mut cur).unwrap();
        let err = read_frame(&mut cur).unwrap_err();
        assert!(err.to_string().contains("unknown value tag"), "{err}");

        // Absurd text length: rejected before allocating it.
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(4); // TAG_TEXT
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cur = Cursor::new(buf);
        read_header(&mut cur).unwrap();
        let err = read_frame(&mut cur).unwrap_err();
        assert!(err.to_string().contains("text length"), "{err}");
    }

    #[test]
    fn row_bytes_counts_string_heap() {
        let small = row_bytes(&[Value::Integer(1)]);
        let with_text = row_bytes(&[Value::Varchar("x".repeat(1000))]);
        assert!(with_text > small + 900);
    }
}
