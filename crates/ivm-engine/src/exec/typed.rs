//! Typed columnar key arenas for the hash operators.
//!
//! Key tuples are packed into fixed-width columns — one `u8`
//! representation tag plus one 8-byte word per key column — so a candidate
//! compare inside a [`FlatTable`] probe is a
//! branch-free `(class, word)` compare over a contiguous arena:
//!
//! | value                         | tag        | word                        |
//! |-------------------------------|------------|-----------------------------|
//! | `NULL`                        | `T_NULL`   | `0`                         |
//! | `BOOLEAN b`                   | `T_BOOL`   | `b as u64`                  |
//! | `INTEGER i`                   | `T_INT`    | `i as u64`                  |
//! | `DOUBLE d` in an integer class| `T_INT_DBL`| that integer, `as u64`      |
//! | any other `DOUBLE d`          | `T_DOUBLE` | `d.to_bits()`               |
//! | `DATE d`                      | `T_DATE`   | `d as u32 as u64`           |
//! | `VARCHAR s`                   | `T_TEXT`   | id of `s` in the arena heap |
//!
//! Which doubles share a class with an integer is decided in one place,
//! [`Value::num_key`](crate::value::Value::num_key); the word is that
//! class's word, so `INTEGER 3` and `DOUBLE 3.0` compare equal by `(class,
//! word)` while the representation tag lets decode recover the first-seen
//! subtype bit-exactly. The relation is an equivalence over every `Value`,
//! so every key encodes and the arena is the only key storage the hash
//! consumers have. Text is interned once per distinct string into a
//! per-arena `StringHeap`, making string equality an id compare.
//!
//! Population is chunk-at-a-time: the `encode_*` kernels encode a whole
//! batch's key tuples into a reusable [`EncodedChunk`] (the hashed ones
//! fused with the hash kernels' per-batch hash columns), and the per-row
//! find/insert then touches only packed words.
//!
//! Keys are never zero-width and never change width within one arena:
//! ungrouped aggregates take `AggMode::Ungrouped`, `lower_join` emits
//! `HashJoin` only with at least one equi-key, DISTINCT and set operations
//! see their (bind-time arity-checked) inputs' non-empty column lists.
//! [`KeyArena::bind_width`] asserts both (the first in debug builds only).

use crate::exec::batch::RowBatch;
use crate::exec::hash::{
    combine, hash_num, hash_str, mix, FlatTable, KeyHashes, BOOL_SALT, DATE_SALT, HASH_SEED,
    NULL_SALT,
};
use crate::exec::Row;
use crate::value::{NumKey, Value};

/// Representation tags.
const T_NULL: u8 = 0;
const T_BOOL: u8 = 1;
const T_INT: u8 = 2;
const T_INT_DBL: u8 = 3;
const T_DOUBLE: u8 = 4;
const T_DATE: u8 = 5;
const T_TEXT: u8 = 6;

/// Equality class per representation tag: `T_INT` and `T_INT_DBL` are two
/// spellings of one integer class; every other tag is its own class.
const EQ_CLASS: [u8; 7] = [0, 1, 2, 2, 3, 4, 5];

/// Probe-side sentinel for a string absent from the build arena's heap:
/// interned ids are `u32`-sized, so this word never equals a stored one.
const MISS_WORD: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// StringHeap
// ---------------------------------------------------------------------------

/// Per-arena string interner: distinct strings stored once in a byte heap,
/// addressed by dense `u32` ids through a [`FlatTable`]. Equal strings get
/// equal ids, so text key equality is a word compare.
#[derive(Debug, Clone)]
struct StringHeap {
    bytes: String,
    /// String `id` spans `bytes[ends[id]..ends[id + 1]]`.
    ends: Vec<usize>,
    map: FlatTable,
}

impl Default for StringHeap {
    fn default() -> StringHeap {
        StringHeap {
            bytes: String::new(),
            ends: vec![0],
            map: FlatTable::new(),
        }
    }
}

impl StringHeap {
    #[inline]
    fn get(&self, id: u64) -> &str {
        let id = id as usize;
        &self.bytes[self.ends[id]..self.ends[id + 1]]
    }

    /// Id of `s` (pre-hashed as `h = hash_str(s)`), interning it on first
    /// sight. Taking the hash lets the fused encode+hash kernels hash each
    /// string exactly once.
    fn intern(&mut self, s: &str, h: u64) -> u64 {
        if let Some(id) = self.lookup(s, h) {
            return id;
        }
        // Ids are `FlatTable` payloads, the same `u32` that caps the
        // tuples of every arena-backed table.
        let id =
            u32::try_from(self.ends.len() - 1).expect("more than u32::MAX distinct key strings");
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len());
        self.map.insert(h, id);
        u64::from(id)
    }

    /// Id of `s` (pre-hashed as `h = hash_str(s)`) when already interned
    /// (probe side never mutates the build arena's heap).
    #[inline]
    fn lookup(&self, s: &str, h: u64) -> Option<u64> {
        self.map
            .find(h, |p| self.get(u64::from(p)) == s)
            .map(u64::from)
    }
}

/// Encode one value as `(tag, word, value hash)` — the one place a `Value`
/// becomes a packed key slot. `text(s, hash_str(s))` resolves a string to
/// its heap id: [`StringHeap::intern`] on the owning side, a lookup
/// yielding [`MISS_WORD`] on the probe side. The hash is bit-identical to
/// [`hash_value`](crate::exec::hash::hash_value) (the packed word *is* the
/// scalar that kernel mixes; text hashes its bytes once, shared between
/// interning and the row hash); callers that ignore it pay nothing for it
/// once this inlines.
#[inline]
fn encode(v: &Value, text: impl FnOnce(&str, u64) -> u64) -> (u8, u64, u64) {
    let num = |tag, key: NumKey| (tag, key.word(), hash_num(key));
    match v {
        Value::Null => (T_NULL, 0, NULL_SALT),
        Value::Boolean(b) => {
            let w = u64::from(*b);
            (T_BOOL, w, mix(BOOL_SALT ^ w))
        }
        Value::Integer(i) => num(T_INT, NumKey::Int(*i)),
        Value::Double(d) => match NumKey::of_double(*d) {
            key @ NumKey::Int(_) => num(T_INT_DBL, key),
            key @ NumKey::Frac(_) => num(T_DOUBLE, key),
        },
        Value::Varchar(s) => {
            let h = hash_str(s);
            (T_TEXT, text(s, h), h)
        }
        Value::Date(d) => {
            let w = *d as u32 as u64;
            (T_DATE, w, mix(DATE_SALT ^ w))
        }
    }
}

// ---------------------------------------------------------------------------
// EncodedChunk
// ---------------------------------------------------------------------------

/// One batch's key tuples in packed form — the reusable scratch filled by
/// the [`KeyArena`] `encode_*` kernels. Row `r` occupies
/// `tags[r*width..][..width]` and `words[r*width..][..width]`.
#[derive(Debug, Default)]
pub struct EncodedChunk {
    width: usize,
    tags: Vec<u8>,
    words: Vec<u64>,
}

impl EncodedChunk {
    /// Fresh empty scratch.
    pub fn new() -> EncodedChunk {
        EncodedChunk::default()
    }

    /// Reset to a dense, default-filled layout (`T_NULL`/`0` everywhere):
    /// the column-at-a-time kernels write slots in column order.
    fn reset(&mut self, width: usize, rows: usize) {
        self.width = width;
        self.tags.clear();
        self.tags.resize(width * rows, T_NULL);
        self.words.clear();
        self.words.resize(width * rows, 0);
    }
}

// ---------------------------------------------------------------------------
// KeyArena
// ---------------------------------------------------------------------------

/// Fixed-width columnar storage for key tuples: per tuple, `width` `(tag,
/// word)` pairs in row-major order plus one shared string heap. Tuple `i`
/// is the arena row addressed by [`FlatTable`] payloads.
#[derive(Debug, Default, Clone)]
pub struct KeyArena {
    /// Key columns per tuple; 0 until the first batch binds it.
    width: usize,
    /// Tuples to reserve for once the width is known (sizing hint).
    hint: usize,
    tags: Vec<u8>,
    words: Vec<u64>,
    heap: StringHeap,
}

impl KeyArena {
    /// An empty arena whose key width the first batch fixes (see
    /// [`bind_width`](KeyArena::bind_width)), reserving space for about
    /// `hint` tuples then (0 = unknown).
    pub fn with_hint(hint: usize) -> KeyArena {
        KeyArena {
            hint,
            ..KeyArena::default()
        }
    }

    /// Fix the key width on first use; every later call must agree. The
    /// owning-side encoders call this themselves; a consumer that may probe
    /// before it ever encodes (an empty join build side) binds up front.
    pub fn bind_width(&mut self, width: usize) {
        debug_assert!(width > 0, "zero-width keys never reach a key arena");
        if self.width == 0 {
            self.width = width;
            self.tags.reserve(self.hint * width);
            self.words.reserve(self.hint * width);
        }
        assert_eq!(self.width, width, "key width changed mid-stream");
    }

    /// Number of key columns per tuple.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored tuples.
    #[inline]
    pub fn len(&self) -> usize {
        // An unbound arena (width 0) stores nothing.
        self.words.len().checked_div(self.width).unwrap_or(0)
    }

    /// True when no tuples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Encode `rows` key tuples of `width` columns into `chunk`, interning
    /// new text. `get(r, c)` yields key column `c` of row `r`.
    pub fn encode_chunk<'v>(
        &mut self,
        chunk: &mut EncodedChunk,
        width: usize,
        rows: usize,
        mut get: impl FnMut(usize, usize) -> &'v Value,
    ) {
        self.bind_width(width);
        chunk.reset(width, rows);
        let (tags, words, heap) = (&mut chunk.tags[..], &mut chunk.words[..], &mut self.heap);
        let mut slot = 0;
        for r in 0..rows {
            for c in 0..width {
                (tags[slot], words[slot], _) = encode(get(r, c), |s, h| heap.intern(s, h));
                slot += 1;
            }
        }
    }

    /// [`encode_chunk`](KeyArena::encode_chunk) straight off a batch's key
    /// columns `cols`, fused with the hash kernel: one column-at-a-time
    /// pass yields the packed chunk and the per-row hashes, bit-identical
    /// to [`hash_key_columns`](crate::exec::hash::hash_key_columns) on the
    /// same values — each key value is enum-dispatched exactly once
    /// instead of once to hash and once to encode.
    pub fn encode_batch(
        &mut self,
        chunk: &mut EncodedChunk,
        batch: &RowBatch<'_>,
        cols: &[usize],
    ) -> Vec<u64> {
        let rows = batch.num_rows();
        let width = cols.len();
        self.bind_width(width);
        chunk.reset(width, rows);
        let mut hashes = vec![HASH_SEED; rows];
        let (tags, words, heap) = (&mut chunk.tags[..], &mut chunk.words[..], &mut self.heap);
        for (k, &c) in cols.iter().enumerate() {
            batch.column(c).for_each_value(rows, |r, v| {
                let (t, w, vh) = encode(v, |s, sh| heap.intern(s, sh));
                tags[r * width + k] = t;
                words[r * width + k] = w;
                hashes[r] = combine(hashes[r], vh);
            });
        }
        hashes
    }

    /// Probe-side [`encode_batch`](KeyArena::encode_batch): lookup-only
    /// against this arena's heap (a probe string the heap has never seen
    /// gets a word no stored id equals — it matches nothing, which is exactly
    /// join semantics), with NULL keys marked — bit-identical to
    /// [`hash_batch_keys`](crate::exec::hash::hash_batch_keys).
    pub fn encode_probe_batch(
        &self,
        chunk: &mut EncodedChunk,
        batch: &RowBatch<'_>,
        cols: &[usize],
    ) -> KeyHashes {
        let rows = batch.num_rows();
        let width = self.width;
        debug_assert_eq!(cols.len(), width);
        chunk.reset(width, rows);
        let mut out = KeyHashes::seeded(rows);
        let mut nulls: Vec<usize> = Vec::new();
        let (tags, words, hashes) = (&mut chunk.tags[..], &mut chunk.words[..], &mut out.hashes);
        for (k, &c) in cols.iter().enumerate() {
            batch.column(c).for_each_value(rows, |r, v| {
                let (t, w, vh) = encode(v, |s, sh| self.heap.lookup(s, sh).unwrap_or(MISS_WORD));
                tags[r * width + k] = t;
                words[r * width + k] = w;
                hashes[r] = combine(hashes[r], vh);
                if t == T_NULL {
                    nulls.push(r);
                }
            });
        }
        for r in nulls {
            out.mark_null(r);
        }
        out
    }

    /// Append chunk row `r` as a stored tuple; returns its arena index.
    #[inline]
    pub fn push_from_chunk(&mut self, chunk: &EncodedChunk, r: usize) -> u32 {
        debug_assert_eq!(chunk.width, self.width);
        let idx = self.len() as u32;
        let s = r * self.width;
        self.tags.extend_from_slice(&chunk.tags[s..s + self.width]);
        self.words
            .extend_from_slice(&chunk.words[s..s + self.width]);
        idx
    }

    /// Grouping equality between stored tuple `idx` and chunk row `r`:
    /// equal classes and equal words across all columns. Valid for owned
    /// chunks and for probe chunks encoded against *this* arena (ids live
    /// in the same heap).
    #[inline]
    pub fn eq_chunk(&self, idx: usize, chunk: &EncodedChunk, r: usize) -> bool {
        let w = self.width;
        slots_eq(
            (&self.tags[idx * w..][..w], &self.words[idx * w..][..w]),
            (&chunk.tags[r * w..][..w], &chunk.words[r * w..][..w]),
        )
    }

    /// Grouping equality between two stored tuples (join build chains
    /// compare candidate build rows against each other).
    #[inline]
    pub fn eq_rows(&self, a: usize, b: usize) -> bool {
        let w = self.width;
        slots_eq(
            (&self.tags[a * w..][..w], &self.words[a * w..][..w]),
            (&self.tags[b * w..][..w], &self.words[b * w..][..w]),
        )
    }

    /// Grouping equality between stored tuple `idx` and a row of plain
    /// `Value`s fetched through `get(c)` — the compare for probe-only
    /// lookups that hold no scratch chunk. Text compares by content, so
    /// the probe never touches the heap's index.
    pub fn eq_row_at<'v>(&self, idx: usize, mut get: impl FnMut(usize) -> &'v Value) -> bool {
        let base = idx * self.width;
        (0..self.width).all(|c| {
            let (tag, word) = (self.tags[base + c], self.words[base + c]);
            match get(c) {
                Value::Varchar(s) => tag == T_TEXT && self.heap.get(word) == s.as_str(),
                v => {
                    let (t, w, _) = encode(v, |_, _| unreachable!("text handled above"));
                    EQ_CLASS[t as usize] == EQ_CLASS[tag as usize] && w == word
                }
            }
        })
    }

    /// Decode column `col` of stored tuple `idx` back to its original
    /// `Value` (bit-exact: every value round-trips).
    pub fn value_at(&self, idx: usize, col: usize) -> Value {
        let i = idx * self.width + col;
        let word = self.words[i];
        match self.tags[i] {
            T_NULL => Value::Null,
            T_BOOL => Value::Boolean(word != 0),
            T_INT => Value::Integer(word as i64),
            T_INT_DBL => Value::Double(NumKey::Int(word as i64).split().0),
            T_DOUBLE => Value::Double(f64::from_bits(word)),
            T_DATE => Value::Date(word as u32 as i32),
            T_TEXT => Value::Varchar(self.heap.get(word).to_string()),
            t => unreachable!("invalid key arena tag {t}"),
        }
    }

    /// Decode stored tuple `idx` into a materialized row.
    pub fn decode_row(&self, idx: usize) -> Row {
        (0..self.width).map(|c| self.value_at(idx, c)).collect()
    }
}

/// `(class, word)` equality of two packed tuples of equal width. A plain
/// loop: key widths are one or two columns, far below where a `memcmp`
/// call on the word slices would pay.
#[inline]
fn slots_eq((tags_a, words_a): (&[u8], &[u64]), (tags_b, words_b): (&[u8], &[u64])) -> bool {
    for k in 0..words_a.len() {
        if words_a[k] != words_b[k] || EQ_CLASS[tags_a[k] as usize] != EQ_CLASS[tags_b[k] as usize]
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: i64 = 1 << 53;

    fn arena_with(values: &[&[Value]]) -> KeyArena {
        let mut a = KeyArena::default();
        let mut chunk = EncodedChunk::new();
        a.encode_chunk(&mut chunk, values[0].len(), values.len(), |r, c| {
            &values[r][c]
        });
        for r in 0..values.len() {
            a.push_from_chunk(&chunk, r);
        }
        a
    }

    #[test]
    fn round_trips_every_type() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Null],
            vec![Value::Boolean(true)],
            vec![Value::Integer(-42)],
            vec![Value::Integer(BIG + 1)],
            vec![Value::Integer(i64::MAX)],
            vec![Value::Integer(i64::MIN)],
            vec![Value::Double(3.25)],
            vec![Value::Double(3.0)],
            vec![Value::Double(-(BIG as f64) * 4.0)],
            vec![Value::Double(i64::MIN as f64)],
            vec![Value::Double(-(i64::MIN as f64))], // 2^63: past every integer
            vec![Value::Double(-0.0)],
            vec![Value::Double(f64::NAN)],
            vec![Value::Double(f64::NEG_INFINITY)],
            vec![Value::Varchar(String::new())],
            vec![Value::Varchar("héllo".into())],
            vec![Value::Date(-719_468)],
        ];
        let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = arena_with(&refs);
        for (i, row) in rows.iter().enumerate() {
            let back = a.decode_row(i);
            // Bit-exact round trip, including NaN and -0.0 (compare debug
            // forms; Value's == is grouping equality, which -0.0/0.0 would
            // also distinguish but NaN payloads would not).
            assert_eq!(format!("{back:?}"), format!("{row:?}"));
        }
    }

    #[test]
    fn grouping_equality_matches_value_semantics() {
        // Every pair of this pool, through all three compares, must agree
        // with `Value`'s `==`: 3 ≡ 3.0, NULL ≡ NULL, '' ≢ NULL, DATE 3 ≢
        // INTEGER 3, and beyond ±2^53 no integer equals its neighbour's
        // double.
        let pool = [
            Value::Integer(3),
            Value::Double(3.0),
            Value::Double(3.5),
            Value::Integer(BIG),
            Value::Integer(BIG + 1),
            Value::Double(BIG as f64),
            Value::Integer(i64::MAX),
            Value::Double(i64::MAX as f64),
            Value::Integer(0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Null,
            Value::Varchar(String::new()),
            Value::Varchar("x".into()),
            Value::Date(3),
            Value::Boolean(true),
        ];
        let rows: Vec<&[Value]> = pool.iter().map(std::slice::from_ref).collect();
        let mut a = arena_with(&rows);
        let mut probe = EncodedChunk::new();
        a.encode_chunk(&mut probe, 1, pool.len(), |r, _| &pool[r]);
        for (i, x) in pool.iter().enumerate() {
            for (j, y) in pool.iter().enumerate() {
                let want = x == y;
                assert_eq!(a.eq_chunk(i, &probe, j), want, "eq_chunk {x:?} vs {y:?}");
                assert_eq!(a.eq_rows(i, j), want, "eq_rows {x:?} vs {y:?}");
                assert_eq!(a.eq_row_at(i, |_| y), want, "eq_row_at {x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn probe_batch_never_interns() {
        let rows = [vec![Value::Varchar("a".into())]];
        let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = arena_with(&refs);
        let heap_len = a.heap.ends.len();
        let mut chunk = EncodedChunk::new();
        let probes = RowBatch::from_rows(
            1,
            vec![
                vec![Value::Varchar("b".into())],
                vec![Value::Varchar("a".into())],
            ],
        );
        a.encode_probe_batch(&mut chunk, &probes, &[0]);
        assert_eq!(a.heap.ends.len(), heap_len, "probe must not intern");
        assert!(!a.eq_chunk(0, &chunk, 0), "unseen string matches nothing");
        assert!(a.eq_chunk(0, &chunk, 1));
    }

    #[test]
    fn fused_hashes_match_the_value_kernel() {
        let rows = vec![
            vec![Value::Integer(BIG + 1), Value::from("a")],
            vec![Value::Double(2.0), Value::Null],
            vec![Value::Double(0.5), Value::from("a")],
        ];
        let batch = RowBatch::from_rows(2, rows.clone());
        let mut a = KeyArena::default();
        let mut chunk = EncodedChunk::new();
        let owned = a.encode_batch(&mut chunk, &batch, &[0, 1]);
        let probed = a.encode_probe_batch(&mut chunk, &batch, &[0, 1]);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(owned[r], crate::exec::hash::hash_row(row));
            assert_eq!(probed.hashes[r], owned[r]);
            assert_eq!(probed.is_null(r), r == 1);
        }
    }
}
