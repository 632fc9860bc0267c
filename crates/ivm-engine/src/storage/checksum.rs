//! CRC-32 (IEEE 802.3 polynomial) and the one record framing every
//! durable file uses — the WAL, `catalog.meta` and table files:
//!
//! ```text
//! record := len:u32 crc:u32 payload   (crc = crc32(payload))
//! ```
//!
//! [`write_record`] frames a payload; [`RecordReader`] reads records back
//! with every length checked against the bytes left before anything is
//! allocated. The CRC is table-driven in-repo: the durability layer must
//! not pull in external crates, and a 256-entry table is plenty fast (one
//! lookup per byte).

use std::io::{self, Read};

/// The reflected CRC-32 polynomial (same one as zlib/ethernet).
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 of `data` (standard init/final XOR with `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental form: feed chunks through a running state initialized to
/// `0xFFFF_FFFF`, then XOR the result with `0xFFFF_FFFF` when done.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Bytes of a record header (`len:u32 crc:u32`).
const RECORD_HEADER: usize = 8;

/// Append one record to `out`: a header, then whatever `payload` appends
/// to `out`, which the header's length and CRC then cover.
pub fn write_record(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; RECORD_HEADER]);
    payload(out);
    let body = &out[start + RECORD_HEADER..];
    let (len, crc) = (body.len() as u32, crc32(body));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// What [`RecordReader::next_record`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Framed<'a> {
    /// The source ended exactly at a record boundary.
    Eof,
    /// A partial header, a length running past the end of the source, or
    /// a checksum mismatch. Whether that is a crash's torn tail or
    /// corruption is the caller's call.
    Torn,
    /// A whole record whose checksum verified: its payload.
    Record(&'a [u8]),
}

/// Reads records from a source of known length through one reused
/// payload buffer, which never grows past the largest record the source
/// really holds: a length is checked against the bytes left first.
#[derive(Debug)]
pub struct RecordReader<R> {
    src: R,
    left: u64,
    payload: Vec<u8>,
}

impl<R: Read> RecordReader<R> {
    /// Read records from `src`, which holds `len` more bytes.
    pub fn new(src: R, len: u64) -> RecordReader<R> {
        RecordReader {
            src,
            left: len,
            payload: Vec::new(),
        }
    }

    /// The next record. I/O errors of the source pass through; after
    /// [`Framed::Torn`] the position is unspecified, so stop reading.
    pub fn next_record(&mut self) -> io::Result<Framed<'_>> {
        if self.left == 0 {
            return Ok(Framed::Eof);
        }
        if self.left < RECORD_HEADER as u64 {
            return Ok(Framed::Torn);
        }
        let mut head = [0u8; RECORD_HEADER];
        self.src.read_exact(&mut head)?;
        self.left -= RECORD_HEADER as u64;
        let len = u32::from_le_bytes(head[..4].try_into().expect("sliced 4 bytes"));
        let crc = u32::from_le_bytes(head[4..].try_into().expect("sliced 4 bytes"));
        if u64::from(len) > self.left {
            return Ok(Framed::Torn);
        }
        self.payload.resize(len as usize, 0);
        self.src.read_exact(&mut self.payload)?;
        self.left -= u64::from(len);
        if crc32(&self.payload) != crc {
            return Ok(Framed::Torn);
        }
        Ok(Framed::Record(&self.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"page bytes to be checksummed in chunks";
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn records_read_back_and_every_cut_is_eof_or_torn() {
        let mut file = Vec::new();
        write_record(&mut file, |p| p.extend_from_slice(b"first"));
        write_record(&mut file, |p| p.extend_from_slice(&[7u8; 300]));
        for cut in 0..=file.len() {
            let mut r = RecordReader::new(&file[..cut], cut as u64);
            let mut whole = 0;
            let eof = loop {
                match r.next_record().unwrap() {
                    Framed::Record(_) => whole += 1,
                    end => break end == Framed::Eof,
                }
            };
            let first = RECORD_HEADER + 5;
            assert_eq!(eof, [0, first, file.len()].contains(&cut), "cut {cut}");
            let expected = usize::from(cut >= first) + usize::from(cut == file.len());
            assert_eq!(whole, expected, "cut {cut}");
        }
        // A length claiming 4 GiB in a 12-byte source is torn, unallocated.
        let mut hostile = u32::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 8]);
        let mut r = RecordReader::new(&hostile[..], hostile.len() as u64);
        assert_eq!(r.next_record().unwrap(), Framed::Torn);
        assert_eq!(r.payload.capacity(), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 512];
        let clean = crc32(&data);
        for bit in [0usize, 100 * 8 + 3, 511 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "flip at bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}
