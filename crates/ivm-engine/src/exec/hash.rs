//! Vectorized hash kernels and the flat open-addressing hash table
//! shared by every hash operator (join build/probe, aggregation group
//! tables, DISTINCT, set operations, the parallel radix partitioner, and
//! the delta-ingest victim map in `ivm-core`).
//!
//! The old hot paths keyed heap-allocated `Vec<Value>` rows into
//! `std::collections::HashMap` — SipHash, one streaming `Hash` call per
//! row, and a `Vec` allocation per key. Here the work is split the way
//! DuckDB/HyPer split it:
//!
//! 1. **Hash kernels** ([`hash_batch_keys`], [`hash_batch_rows`],
//!    [`hash_key_columns`], [`hash_rows_keys`]) hash a whole key-column
//!    set chunk-at-a-time into a `Vec<u64>`: a typed loop per column
//!    (i64/f64/bool/date take one multiply-mix on the scalar bits, text
//!    hashes its bytes, NULL takes a sentinel), combined across columns
//!    with a mixer. A key is hashed exactly once per operator.
//! 2. **[`FlatTable`]**: a `RawTable`-style flat open-addressing table —
//!    power-of-two capacity, an 8-bit tag array for early rejection, and
//!    `u32` payloads indexing arena-stored keys/rows. Probing is
//!    **group-wise**, hashbrown-style: 16 tag bytes are scanned per step —
//!    via SSE2 compare+movemask on x86_64, via SWAR on two `u64` words
//!    everywhere else, or byte-at-a-time when `OPENIVM_NO_SIMD=1` forces
//!    the scalar path (see [`ProbeMode`]). All three scans visit identical
//!    slot sequences, so parity tests can compare them on one table. The
//!    table never stores keys; callers compare candidates through a
//!    closure over their own arena (typed column compares, no per-key
//!    allocation). Stored hashes make growth a pure reinsertion pass.
//! 3. **Typed key arenas** ([`crate::exec::typed`]): the arenas behind
//!    those closures pack keys into fixed-width `(tag, word)` columns, so
//!    the compare itself is branch-free — [`RowSet`] and [`RowCounter`]
//!    below store their rows that way, as do the join and group tables.
//!
//! Hashes are consistent with the *grouping* equality of
//! [`Value`]: `NULL` hashes to a constant (groups
//! with `NULL`), and numerically-equal `INTEGER`/`DOUBLE` values hash the
//! same (both hash their [`Value::num_key`] word). The bit
//! layout is partitioned so the parallel radix partitioner can reuse one
//! hash column: **partition bits are the high bits** (`hash >>
//! part_shift`), the **table index is the low bits** (`hash & mask`), and
//! the tag byte comes from the middle bits — no second hash anywhere.

use crate::exec::batch::RowBatch;
use crate::exec::typed::{EncodedChunk, KeyArena};
use crate::exec::Row;
use crate::value::{NumKey, Value};

/// Seed every row hash starts from (also the hash of a zero-column row).
/// `pub(crate)` so the fused typed kernels ([`crate::exec::typed`]) start
/// their combine chains from the same state.
pub(crate) const HASH_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Sentinel mixed in for SQL NULL (NULL groups with NULL).
pub(crate) const NULL_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-type salts keeping differently-typed values apart (numerics share
/// one salt so `INTEGER 3` and `DOUBLE 3.0` hash identically, matching
/// grouping equality). The bool/date salts and [`hash_num`] are
/// `pub(crate)`: the typed encoder's packed word *is* the hashed scalar for
/// those types, so the fused kernels derive `hash_value`-identical hashes
/// from it.
pub(crate) const BOOL_SALT: u64 = 0xBF58_476D_1CE4_E5B9;
const NUM_SALT: u64 = 0x94D0_49BB_1331_11EB;
const TEXT_SALT: u64 = 0xD6E8_FEB8_6659_FD93;
pub(crate) const DATE_SALT: u64 = 0xA076_1D64_78BD_642F;

/// Finalizer (Murmur3/SplitMix-style): full-avalanche so the low bits
/// (table index), middle bits (tag), and high bits (radix partition) are
/// all usable independently.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Combine a per-column value hash into a row hash (order-sensitive).
#[inline]
pub(crate) fn combine(acc: u64, h: u64) -> u64 {
    mix(acc.rotate_left(23) ^ h)
}

/// FNV-1a over bytes, mixed — the text path of the hash kernels.
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    mix(h ^ TEXT_SALT)
}

/// Hash a string key — the text kernel on its own, used by the string
/// interner behind the typed key arenas.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Hash a numeric equality class (see [`Value::num_key`]).
#[inline]
pub(crate) fn hash_num(key: NumKey) -> u64 {
    mix(NUM_SALT ^ key.word())
}

/// Hash one value, consistent with grouping equality: equal values (under
/// `Value::total_cmp`) always hash equal.
#[inline]
pub fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_SALT,
        Value::Boolean(b) => mix(BOOL_SALT ^ u64::from(*b)),
        Value::Integer(i) => hash_num(NumKey::Int(*i)),
        Value::Double(d) => hash_num(NumKey::of_double(*d)),
        Value::Varchar(s) => hash_bytes(s.as_bytes()),
        Value::Date(d) => mix(DATE_SALT ^ (*d as u32 as u64)),
    }
}

/// Hash a materialized row (all columns, NULLs as values).
pub fn hash_row(row: &[Value]) -> u64 {
    hash_value_iter(row.iter())
}

/// Hash an iterator of values as one row key (all values, NULLs as
/// values).
pub fn hash_value_iter<'v>(values: impl Iterator<Item = &'v Value>) -> u64 {
    let mut h = HASH_SEED;
    for v in values {
        h = combine(h, hash_value(v));
    }
    h
}

/// Key hashes for one batch or row set, with NULL-key tracking for join
/// semantics (SQL: a NULL in any key column means the row never matches).
/// The null mask is only allocated when a NULL key actually occurs.
#[derive(Debug)]
pub struct KeyHashes {
    /// One combined hash per row.
    pub hashes: Vec<u64>,
    nulls: Option<Vec<bool>>,
}

impl KeyHashes {
    /// Whether row `r` had a NULL in any key column.
    #[inline]
    pub fn is_null(&self, r: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n[r])
    }

    pub(crate) fn mark_null(&mut self, r: usize) {
        self.nulls
            .get_or_insert_with(|| vec![false; self.hashes.len()])[r] = true;
    }

    /// Hashes pre-seeded with [`HASH_SEED`] for `n` rows — the start of
    /// every per-row combine chain, filled by the fused typed kernels.
    pub(crate) fn seeded(n: usize) -> KeyHashes {
        KeyHashes {
            hashes: vec![HASH_SEED; n],
            nulls: None,
        }
    }

    /// A zeroed hash set for `n` rows, to be filled by
    /// [`splice_from`](KeyHashes::splice_from) (parallel chunked
    /// hashing).
    pub fn with_len(n: usize) -> KeyHashes {
        KeyHashes {
            hashes: vec![0; n],
            nulls: None,
        }
    }

    /// Copy a chunk's hashes (and null marks) in at row `offset`.
    pub fn splice_from(&mut self, offset: usize, chunk: KeyHashes) {
        let len = chunk.hashes.len();
        self.hashes[offset..offset + len].copy_from_slice(&chunk.hashes);
        if let Some(chunk_nulls) = chunk.nulls {
            let total = self.hashes.len();
            let nulls = self.nulls.get_or_insert_with(|| vec![false; total]);
            nulls[offset..offset + len].copy_from_slice(&chunk_nulls);
        }
    }
}

/// Hash the key columns `cols` of a batch chunk-at-a-time: one typed
/// column loop per key column, combined into a single `Vec<u64>`, with
/// NULL keys marked for join semantics.
pub fn hash_batch_keys(batch: &RowBatch<'_>, cols: &[usize]) -> KeyHashes {
    let rows = batch.num_rows();
    let mut out = KeyHashes {
        hashes: vec![HASH_SEED; rows],
        nulls: None,
    };
    for &c in cols {
        let col = batch.column(c);
        let hashes = &mut out.hashes;
        let mut nulls: Vec<usize> = Vec::new();
        col.for_each_value(rows, |r, v| {
            if v.is_null() {
                nulls.push(r);
            }
            hashes[r] = combine(hashes[r], hash_value(v));
        });
        for r in nulls {
            out.mark_null(r);
        }
    }
    out
}

/// Hash every column of a batch into whole-row hashes (NULLs as values) —
/// the DISTINCT/set-operation kernel.
pub fn hash_batch_rows(batch: &RowBatch<'_>) -> Vec<u64> {
    let rows = batch.num_rows();
    let mut hashes = vec![HASH_SEED; rows];
    for c in 0..batch.width() {
        let col = batch.column(c);
        let out = &mut hashes;
        col.for_each_value(rows, |r, v| {
            out[r] = combine(out[r], hash_value(v));
        });
    }
    hashes
}

/// Hash pre-evaluated key columns (e.g. group-key kernels' output) into
/// per-row hashes. NULL group keys are values here (they group together).
pub fn hash_key_columns(cols: &[Vec<Value>], rows: usize) -> Vec<u64> {
    let mut hashes = vec![HASH_SEED; rows];
    for col in cols {
        debug_assert_eq!(col.len(), rows);
        for (h, v) in hashes.iter_mut().zip(col) {
            *h = combine(*h, hash_value(v));
        }
    }
    hashes
}

/// Hash the key columns of materialized rows (join build sides), marking
/// NULL keys.
pub fn hash_rows_keys(rows: &[Row], keys: &[usize]) -> KeyHashes {
    let mut out = KeyHashes {
        hashes: vec![HASH_SEED; rows.len()],
        nulls: None,
    };
    for (r, row) in rows.iter().enumerate() {
        let mut h = HASH_SEED;
        let mut null = false;
        for &k in keys {
            let v = &row[k];
            null |= v.is_null();
            h = combine(h, hash_value(v));
        }
        out.hashes[r] = h;
        if null {
            out.mark_null(r);
        }
    }
    out
}

/// Tag byte for a hash: middle bits (32..39), so it stays discriminating
/// inside a radix partition (whose rows share the *high* bits) and across
/// a probe run (which walks the *low* bits). `0x80` marks occupancy —
/// zero always means empty, and the occupancy bit is what lets the SWAR
/// empty scan reduce to "high bit clear".
#[inline]
fn tag_of(hash: u64) -> u8 {
    0x80 | ((hash >> 32) as u8 & 0x7F)
}

const EMPTY_TAG: u8 = 0;

/// Tag bytes scanned per probe step. Constant across all probe modes so
/// scalar, SWAR, and SSE2 probes visit identical slot sequences (the
/// parity guarantee `OPENIVM_NO_SIMD=1` tests rely on).
const GROUP: usize = 16;

/// Smallest table capacity: one full probe group.
const MIN_CAP: usize = GROUP;

/// How a [`FlatTable`] scans its 16-byte tag groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// Byte-at-a-time (forced by `OPENIVM_NO_SIMD=1`; the parity oracle).
    Scalar,
    /// Two `u64` SWAR words per group — stable Rust, every target.
    Swar,
    /// One `_mm_cmpeq_epi8`/`_mm_movemask_epi8` per group (x86_64 only;
    /// selecting it elsewhere silently runs the SWAR scan).
    Sse2,
}

/// Environment variable forcing the scalar probe path (`1` = scalar;
/// unset/empty/`0` = pick the fastest for the target).
pub const NO_SIMD_ENV: &str = "OPENIVM_NO_SIMD";

fn default_probe_mode() -> ProbeMode {
    if cfg!(target_arch = "x86_64") {
        ProbeMode::Sse2
    } else {
        ProbeMode::Swar
    }
}

/// The process-wide probe mode: SSE2 on x86_64, SWAR elsewhere, scalar
/// when `OPENIVM_NO_SIMD=1`. Read once; invalid settings abort loudly
/// rather than silently probing a different way than the user asked.
pub fn probe_mode() -> ProbeMode {
    use std::sync::OnceLock;
    static MODE: OnceLock<ProbeMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var(NO_SIMD_ENV) {
        Err(_) => default_probe_mode(),
        Ok(raw) => match raw.trim() {
            "" | "0" => default_probe_mode(),
            "1" => ProbeMode::Scalar,
            other => panic!(
                "invalid {NO_SIMD_ENV}={other:?}: expected \"1\" (force scalar tag \
                 probing) or \"0\"/unset (use SSE2/SWAR)"
            ),
        },
    })
}

const SWAR_ONES: u64 = 0x0101_0101_0101_0101;
const SWAR_HIGHS: u64 = 0x8080_8080_8080_8080;

/// High bit set in each byte of `w` that equals `b` — the exact zero-byte
/// detector `(m - ONES) & !m & HIGHS` applied to `m = w ^ splat(b)` (the
/// three-term form has no false positives).
#[inline]
fn swar_eq(w: u64, b: u8) -> u64 {
    let m = w ^ SWAR_ONES.wrapping_mul(u64::from(b));
    m.wrapping_sub(SWAR_ONES) & !m & SWAR_HIGHS
}

/// Collapse per-byte high bits into an 8-bit mask (movemask emulation):
/// bit `8i+7` of `x` lands on bit `56+i` of the product, and no two
/// contributions collide, so the multiply is carry-free and exact.
#[inline]
fn pack_high_bits(x: u64) -> u32 {
    (x.wrapping_mul(0x0002_0408_1020_4081) >> 56) as u32
}

#[inline]
fn swar_load(tags: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(tags[at..at + 8].try_into().unwrap())
}

#[inline]
fn swar_masks(tags: &[u8], start: usize, tag: u8) -> (u32, u32) {
    let lo = swar_load(tags, start);
    let hi = swar_load(tags, start + 8);
    let eq = pack_high_bits(swar_eq(lo, tag)) | (pack_high_bits(swar_eq(hi, tag)) << 8);
    // Occupied tags always carry the 0x80 bit, so "high bit clear" is an
    // exact empty test.
    let empty = pack_high_bits(!lo & SWAR_HIGHS) | (pack_high_bits(!hi & SWAR_HIGHS) << 8);
    (eq, empty)
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn sse2_masks(tags: &[u8], start: usize, tag: u8) -> (u32, u32) {
    use std::arch::x86_64::{
        _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8, _mm_setzero_si128,
    };
    debug_assert!(start + GROUP <= tags.len());
    // SAFETY: the mirrored tag tail guarantees `start + 16 <= tags.len()`
    // for every probe start, and SSE2 is part of the x86_64 baseline, so
    // the unaligned load and compare are always available.
    unsafe {
        let g = _mm_loadu_si128(tags.as_ptr().add(start).cast());
        let eq = _mm_movemask_epi8(_mm_cmpeq_epi8(g, _mm_set1_epi8(tag as i8))) as u32;
        let empty = _mm_movemask_epi8(_mm_cmpeq_epi8(g, _mm_setzero_si128())) as u32;
        (eq, empty)
    }
}

/// `(match_mask, empty_mask)` over the 16 tag bytes at `start`: bit `k`
/// of the match mask marks `tags[start+k] == tag`, bit `k` of the empty
/// mask marks an empty slot. All modes return identical masks.
#[inline]
fn group_masks(tags: &[u8], start: usize, tag: u8, mode: ProbeMode) -> (u32, u32) {
    match mode {
        ProbeMode::Scalar => {
            let mut eq = 0u32;
            let mut empty = 0u32;
            for k in 0..GROUP {
                let t = tags[start + k];
                eq |= u32::from(t == tag) << k;
                empty |= u32::from(t == EMPTY_TAG) << k;
            }
            (eq, empty)
        }
        ProbeMode::Swar => swar_masks(tags, start, tag),
        ProbeMode::Sse2 => {
            #[cfg(target_arch = "x86_64")]
            {
                sse2_masks(tags, start, tag)
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                swar_masks(tags, start, tag)
            }
        }
    }
}

/// A flat open-addressing hash table: power-of-two capacity, group-wise
/// probing over an 8-bit tag array, and `u32` payloads pointing into
/// caller-owned arenas.
///
/// Probing scans 16 tag bytes per step starting at the hash's home slot
/// (unaligned; the tag array keeps a 15-byte mirror of its head past the
/// end so group loads never wrap). Within a group, tag matches are
/// verified against the stored hash and then the caller's equality
/// closure; a group containing an empty slot ends the probe. Inserts take
/// the first empty slot in the same group sequence, which together with
/// "no deletion" (none of the engine's hash operators delete) makes the
/// early exit sound: an entry is never stored past the first empty slot
/// of its own probe sequence.
///
/// The table stores `(tag, hash, payload)` per slot and never the keys
/// themselves: lookups pass an equality closure over the payload, so key
/// storage, comparison, and chaining stay in the operator's arena (typed
/// key arenas, build rows, …) with no per-key allocation.
#[derive(Debug, Default, Clone)]
pub struct FlatTable {
    /// `capacity + GROUP - 1` bytes: the first `GROUP - 1` bytes are
    /// mirrored past the end so a 16-byte group load at any slot index
    /// stays in bounds.
    tags: Vec<u8>,
    hashes: Vec<u64>,
    payloads: Vec<u32>,
    /// capacity - 1; capacity is a power of two (0 before first insert).
    mask: usize,
    len: usize,
    /// Inserts left before the next doubling (7/8 load factor).
    growth_left: usize,
}

impl FlatTable {
    /// An empty table; allocates on first insert.
    pub fn new() -> FlatTable {
        FlatTable::default()
    }

    /// A table pre-sized so `n` inserts never rehash — size from exact
    /// input counts wherever they are known.
    pub fn with_capacity(n: usize) -> FlatTable {
        let mut t = FlatTable::default();
        if n > 0 {
            t.resize_to(capacity_for(n));
        }
        t
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot capacity (0 before the first insert).
    pub fn capacity(&self) -> usize {
        if self.tags.is_empty() {
            0
        } else {
            self.mask + 1
        }
    }

    /// Slot index of the entry with this hash whose arena key satisfies
    /// `eq`, probing group-wise in `mode`.
    #[inline]
    fn find_slot(
        &self,
        hash: u64,
        mut eq: impl FnMut(u32) -> bool,
        mode: ProbeMode,
    ) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let tag = tag_of(hash);
        let mut i = (hash as usize) & self.mask;
        // Home-slot fast path: most probes resolve at the hash's own slot
        // (hit there, or empty there on a miss), so test it before firing
        // up a group scan. Entries are never stored past the first empty
        // slot of their probe sequence (no deletion + first-empty
        // placement), so "home slot empty" is a definitive miss — the
        // group loop below would conclude the same from its empty mask.
        let t = self.tags[i];
        if t == tag && self.hashes[i] == hash && eq(self.payloads[i]) {
            return Some(i);
        }
        if t == EMPTY_TAG {
            return None;
        }
        loop {
            let (mut matches, empties) = group_masks(&self.tags, i, tag, mode);
            while matches != 0 {
                // Group loads may run into the mirrored tail; `& mask`
                // folds those candidates back onto their real slots.
                let j = (i + matches.trailing_zeros() as usize) & self.mask;
                if self.hashes[j] == hash && eq(self.payloads[j]) {
                    return Some(j);
                }
                matches &= matches - 1;
            }
            if empties != 0 {
                return None;
            }
            i = (i + GROUP) & self.mask;
        }
    }

    /// Find the payload of the entry with this hash whose arena key
    /// satisfies `eq`. The tag group rejects most non-matching slots
    /// 16 at a time before the full hash (let alone the key) is compared.
    #[inline]
    pub fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.find_in_mode(hash, eq, probe_mode())
    }

    /// [`find`](FlatTable::find) with an explicit probe mode — parity
    /// tests run the SWAR and SSE2 scans against the scalar one on the
    /// same table.
    #[doc(hidden)]
    #[inline]
    pub fn find_in_mode(
        &self,
        hash: u64,
        eq: impl FnMut(u32) -> bool,
        mode: ProbeMode,
    ) -> Option<u32> {
        self.find_slot(hash, eq, mode).map(|j| self.payloads[j])
    }

    /// Like [`find`](FlatTable::find), but yields a mutable payload slot —
    /// join builds use this to prepend chain heads in place.
    #[inline]
    pub fn find_mut(&mut self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<&mut u32> {
        let j = self.find_slot(hash, eq, probe_mode())?;
        Some(&mut self.payloads[j])
    }

    /// Insert an entry known to be absent (callers always
    /// [`find`](FlatTable::find) first). Grows by doubling when the 7/8
    /// load factor is hit; growth reinserts stored hashes — keys are
    /// never re-hashed or touched.
    pub fn insert(&mut self, hash: u64, payload: u32) {
        if self.growth_left == 0 {
            let cap = if self.capacity() == 0 {
                MIN_CAP
            } else {
                self.capacity() * 2
            };
            self.resize_to(cap);
        }
        self.insert_slot(hash, payload);
        self.len += 1;
        self.growth_left -= 1;
    }

    /// Place an entry into the first empty slot of its group sequence.
    #[inline]
    fn insert_slot(&mut self, hash: u64, payload: u32) {
        let mode = probe_mode();
        let tag = tag_of(hash);
        let mut i = (hash as usize) & self.mask;
        loop {
            let (_, empties) = group_masks(&self.tags, i, tag, mode);
            if empties != 0 {
                let j = (i + empties.trailing_zeros() as usize) & self.mask;
                self.set_tag(j, tag);
                self.hashes[j] = hash;
                self.payloads[j] = payload;
                return;
            }
            i = (i + GROUP) & self.mask;
        }
    }

    /// Write a tag byte, keeping the mirrored tail in sync so unaligned
    /// group loads near the end of the table see current bytes.
    #[inline]
    fn set_tag(&mut self, j: usize, tag: u8) {
        self.tags[j] = tag;
        if j < GROUP - 1 {
            let cap = self.mask + 1;
            self.tags[cap + j] = tag;
        }
    }

    fn resize_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= MIN_CAP);
        let old_cap = self.capacity();
        let old_tags = std::mem::replace(&mut self.tags, vec![EMPTY_TAG; cap + GROUP - 1]);
        let old_hashes = std::mem::replace(&mut self.hashes, vec![0; cap]);
        let old_payloads = std::mem::replace(&mut self.payloads, vec![0; cap]);
        self.mask = cap - 1;
        self.growth_left = cap - cap / 8 - self.len;
        // Skip the mirror bytes of the old tag array; slots only.
        for ((t, h), p) in old_tags
            .iter()
            .take(old_cap)
            .zip(old_hashes)
            .zip(old_payloads)
        {
            if *t != EMPTY_TAG {
                self.insert_slot(h, p);
            }
        }
    }
}

/// Capacity (power of two) at which `n` entries stay under the 7/8 load
/// factor — at least one full probe group.
fn capacity_for(n: usize) -> usize {
    let needed = n + n.div_ceil(7); // ceil(n * 8/7)
    needed.next_power_of_two().max(MIN_CAP)
}

/// Prepend entry `i` onto its equal-key chain in `table`: the chain head
/// is found by `hash` + `eq`; when one exists, `set_next(old_head)` links
/// `i` in front of it (the caller owns the chain array), otherwise `i`
/// starts a new chain. This is the one chain-building step shared by the
/// join build (single-table or radix-partitioned) and the delta-ingest
/// victim index — prepending over a reverse scan yields chains that
/// iterate in ascending entry order.
pub fn chain_prepend(
    table: &mut FlatTable,
    hash: u64,
    i: u32,
    eq: impl FnMut(u32) -> bool,
    set_next: impl FnOnce(u32),
) {
    match table.find_mut(hash, eq) {
        Some(head) => {
            set_next(*head);
            *head = i;
        }
        None => table.insert(hash, i),
    }
}

/// A set of rows over a [`FlatTable`] — the DISTINCT / set-operation
/// "seen" structure. Rows live in a typed key arena (packed `(tag, word)`
/// columns, string heap), so membership compares are word compares.
#[derive(Debug, Default)]
pub struct RowSet {
    table: FlatTable,
    rows: KeyArena,
    scratch: EncodedChunk,
}

impl RowSet {
    /// An empty set.
    pub fn new() -> RowSet {
        RowSet::default()
    }

    /// An empty set pre-sized for `n` rows (planner cardinality hint):
    /// the flat index never rehashes below `n` inserts and the arena
    /// reserves ahead.
    pub fn with_capacity(n: usize) -> RowSet {
        RowSet {
            table: FlatTable::with_capacity(n),
            rows: KeyArena::with_hint(n),
            scratch: EncodedChunk::new(),
        }
    }

    /// Encode a batch's rows into the typed scratch chunk, once, before
    /// the per-row [`insert_batch_row`](RowSet::insert_batch_row) loop.
    /// Interning is idempotent, so pre-encoding rows that turn out to be
    /// duplicates costs nothing extra.
    pub fn begin_batch(&mut self, batch: &RowBatch<'_>) {
        let (width, rows) = (batch.width(), batch.num_rows());
        self.rows
            .encode_chunk(&mut self.scratch, width, rows, |r, c| batch.value(c, r));
    }

    /// Insert row `r` of the batch last passed to
    /// [`begin_batch`](RowSet::begin_batch) (pre-hashed as `hash`); `true`
    /// when it was not yet present. The row is never materialized — it
    /// lives packed in the arena.
    pub fn insert_batch_row(&mut self, hash: u64, r: usize) -> bool {
        let (rows, scratch) = (&self.rows, &self.scratch);
        if self
            .table
            .find(hash, |p| rows.eq_chunk(p as usize, scratch, r))
            .is_some()
        {
            return false;
        }
        let idx = self.rows.push_from_chunk(&self.scratch, r);
        self.table.insert(hash, idx);
        true
    }

    /// Insert a materialized row (spill-path counterpart); `true` when it
    /// was not yet present.
    pub fn insert_row(&mut self, hash: u64, row: Row) -> bool {
        self.rows
            .encode_chunk(&mut self.scratch, row.len(), 1, |_, c| &row[c]);
        self.insert_batch_row(hash, 0)
    }
}

/// A multiplicity map over whole rows — the EXCEPT/INTERSECT right-side
/// counter, stored like [`RowSet`]. The probe-only lookups
/// (`contains*`/`count_mut*`) compare probe values directly against the
/// packed arena, so they never intern.
#[derive(Debug, Default)]
pub struct RowCounter {
    table: FlatTable,
    rows: KeyArena,
    counts: Vec<usize>,
    scratch: EncodedChunk,
}

impl RowCounter {
    /// An empty counter.
    pub fn new() -> RowCounter {
        RowCounter::default()
    }

    /// An empty counter pre-sized for `n` rows (planner cardinality
    /// hint).
    pub fn with_capacity(n: usize) -> RowCounter {
        RowCounter {
            table: FlatTable::with_capacity(n),
            rows: KeyArena::with_hint(n),
            ..RowCounter::default()
        }
    }

    /// Encode a batch's rows into the typed scratch chunk before an
    /// [`add_batch_row`](RowCounter::add_batch_row) loop.
    pub fn begin_batch(&mut self, batch: &RowBatch<'_>) {
        let (width, rows) = (batch.width(), batch.num_rows());
        self.rows
            .encode_chunk(&mut self.scratch, width, rows, |r, c| batch.value(c, r));
    }

    /// Bump the multiplicity of row `r` of the batch last passed to
    /// [`begin_batch`](RowCounter::begin_batch) (pre-hashed as `hash`).
    pub fn add_batch_row(&mut self, hash: u64, r: usize) {
        let (rows, scratch) = (&self.rows, &self.scratch);
        match self
            .table
            .find(hash, |p| rows.eq_chunk(p as usize, scratch, r))
        {
            Some(p) => self.counts[p as usize] += 1,
            None => {
                let idx = self.rows.push_from_chunk(&self.scratch, r);
                self.counts.push(1);
                self.table.insert(hash, idx);
            }
        }
    }

    /// Bump the multiplicity of an already-materialized row (spill-path
    /// counterpart of [`add_batch_row`](RowCounter::add_batch_row)).
    pub fn add_row(&mut self, hash: u64, row: Row) {
        self.rows
            .encode_chunk(&mut self.scratch, row.len(), 1, |_, c| &row[c]);
        self.add_batch_row(hash, 0);
    }

    /// Index of the stored row whose values are `get(c)`.
    fn index_of<'v>(&self, hash: u64, mut get: impl FnMut(usize) -> &'v Value) -> Option<usize> {
        self.table
            .find(hash, |p| self.rows.eq_row_at(p as usize, &mut get))
            .map(|p| p as usize)
    }

    /// Whether the row occurs at all (set semantics; multiplicities of 0
    /// still count as present, matching the consumed-map contract of
    /// EXCEPT ALL).
    pub fn contains_batch_row(&self, hash: u64, batch: &RowBatch<'_>, r: usize) -> bool {
        self.index_of(hash, |c| batch.value(c, r)).is_some()
    }

    /// Mutable multiplicity of the row, when present (bag semantics
    /// consume one per match).
    pub fn count_mut(&mut self, hash: u64, batch: &RowBatch<'_>, r: usize) -> Option<&mut usize> {
        self.index_of(hash, |c| batch.value(c, r))
            .map(|i| &mut self.counts[i])
    }

    /// Whether the materialized row occurs at all (set semantics).
    pub fn contains_row(&self, hash: u64, row: &[Value]) -> bool {
        self.index_of(hash, |c| &row[c]).is_some()
    }

    /// Mutable multiplicity of the materialized row, when present.
    pub fn count_mut_row(&mut self, hash: u64, row: &[Value]) -> Option<&mut usize> {
        self.index_of(hash, |c| &row[c])
            .map(|i| &mut self.counts[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Value {
        Value::Integer(v)
    }

    #[test]
    fn grouping_equal_values_hash_equal() {
        assert_eq!(hash_value(&i(3)), hash_value(&Value::Double(3.0)));
        assert_ne!(hash_value(&i(3)), hash_value(&Value::Double(3.5)));
        assert_eq!(hash_value(&Value::Null), hash_value(&Value::Null));
        // Date and Integer never group-compare equal; keep them apart.
        assert_ne!(hash_value(&Value::Date(3)), hash_value(&i(3)));
    }

    #[test]
    fn batch_key_hashes_match_row_hashes() {
        let rows = vec![
            vec![i(1), Value::from("a")],
            vec![Value::Null, Value::from("b")],
            vec![i(3), Value::Null],
        ];
        let batch = RowBatch::from_rows(2, rows.clone());
        let by_batch = hash_batch_keys(&batch, &[0, 1]);
        let by_rows = hash_rows_keys(&rows, &[0, 1]);
        assert_eq!(by_batch.hashes, by_rows.hashes);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(by_batch.is_null(r), by_rows.is_null(r));
            assert_eq!(by_batch.hashes[r], hash_row(row));
        }
        assert!(by_batch.is_null(1) && by_batch.is_null(2) && !by_batch.is_null(0));
        // Whole-row hashing agrees with the key kernels on full keys.
        assert_eq!(hash_batch_rows(&batch), by_batch.hashes);
    }

    #[test]
    fn column_order_matters() {
        assert_ne!(
            hash_row(&[i(1), i(2)]),
            hash_row(&[i(2), i(1)]),
            "row hashes must be order-sensitive"
        );
    }

    #[test]
    fn flat_table_find_and_grow() {
        // Keys are the payloads themselves (arena = identity).
        let mut t = FlatTable::new();
        assert_eq!(t.find(42, |_| true), None);
        for k in 0u32..5000 {
            let h = hash_value(&i(i64::from(k)));
            assert_eq!(t.find(h, |p| p == k), None);
            t.insert(h, k);
        }
        assert_eq!(t.len(), 5000);
        for k in 0u32..5000 {
            let h = hash_value(&i(i64::from(k)));
            assert_eq!(t.find(h, |p| p == k), Some(k));
        }
        assert_eq!(t.find(hash_value(&i(999_999)), |_| true), None);
    }

    #[test]
    fn probe_modes_agree() {
        // The scalar scan is the oracle: SWAR and SSE2 group masks must
        // produce identical find results on a table spanning growth
        // boundaries, with and without heavy tag collisions.
        let mut t = FlatTable::new();
        for k in 0u32..3000 {
            t.insert(hash_value(&i(i64::from(k))), k);
        }
        // Colliding entries: same hash (hence same tag and home slot).
        for k in 3000u32..3100 {
            t.insert(0xABCD_EF01_2345_6789, k);
        }
        for k in 0u32..3100 {
            let h = if k < 3000 {
                hash_value(&i(i64::from(k)))
            } else {
                0xABCD_EF01_2345_6789
            };
            let scalar = t.find_in_mode(h, |p| p == k, ProbeMode::Scalar);
            assert_eq!(scalar, Some(k));
            assert_eq!(t.find_in_mode(h, |p| p == k, ProbeMode::Swar), scalar);
            assert_eq!(t.find_in_mode(h, |p| p == k, ProbeMode::Sse2), scalar);
        }
        for miss in [hash_value(&i(777_777)), 0x1234, !0u64] {
            assert_eq!(t.find_in_mode(miss, |_| true, ProbeMode::Scalar), None);
            assert_eq!(t.find_in_mode(miss, |_| true, ProbeMode::Swar), None);
            assert_eq!(t.find_in_mode(miss, |_| true, ProbeMode::Sse2), None);
        }
    }

    #[test]
    fn with_capacity_never_rehashes() {
        for n in [0usize, 1, 7, 8, 1023, 1024, 1025] {
            let mut t = FlatTable::with_capacity(n);
            let cap = t.capacity();
            for k in 0..n as u32 {
                t.insert(hash_value(&i(i64::from(k))), k);
            }
            if n > 0 {
                assert_eq!(
                    t.capacity(),
                    cap,
                    "with_capacity({n}) rehashed during {n} inserts"
                );
            } else {
                assert_eq!(cap, 0, "with_capacity(0) must not allocate");
            }
        }
    }

    #[test]
    fn colliding_hashes_resolve_by_eq() {
        // Force every entry onto one hash: probing + eq must disambiguate.
        let mut t = FlatTable::new();
        for k in 0u32..100 {
            t.insert(0xDEAD_BEEF, k);
        }
        // find returns the entry whose payload the closure accepts.
        for k in 0u32..100 {
            assert_eq!(t.find(0xDEAD_BEEF, |p| p == k), Some(k));
        }
        assert_eq!(t.find(0xDEAD_BEEF, |p| p == 100), None);
        // A different hash that maps to the same slot region still misses.
        assert_eq!(t.find(!0xDEAD_BEEF, |_| true), None);
    }

    #[test]
    fn find_mut_updates_payload_in_place() {
        let mut t = FlatTable::new();
        t.insert(7, 1);
        *t.find_mut(7, |_| true).unwrap() = 9;
        assert_eq!(t.find(7, |_| true), Some(9));
        assert!(t.find_mut(8, |_| true).is_none());
    }

    #[test]
    fn row_set_and_counter() {
        let batch = RowBatch::from_rows(1, vec![vec![i(1)], vec![i(2)], vec![i(1)]]);
        let hashes = hash_batch_rows(&batch);
        let mut set = RowSet::new();
        set.begin_batch(&batch);
        assert!(set.insert_batch_row(hashes[0], 0));
        assert!(set.insert_batch_row(hashes[1], 1));
        assert!(!set.insert_batch_row(hashes[2], 2));

        let mut counts = RowCounter::new();
        counts.begin_batch(&batch);
        for (r, &hash) in hashes.iter().enumerate() {
            counts.add_batch_row(hash, r);
        }
        assert_eq!(counts.count_mut(hashes[0], &batch, 0), Some(&mut 2));
        assert_eq!(counts.count_mut(hashes[1], &batch, 1), Some(&mut 1));
        assert!(counts.contains_batch_row(hashes[0], &batch, 2));
    }

    #[test]
    fn row_set_keeps_wide_integers_apart() {
        let big = 1i64 << 53;
        let rows = vec![
            vec![i(big), Value::from("x")],
            vec![i(big + 1), Value::from("x")], // same f64 image, other row
            vec![Value::Double(big as f64), Value::from("x")], // ≡ row 0 only
            vec![i(big + 1), Value::from("x")], // dup of row 1
        ];
        let batch = RowBatch::from_rows(2, rows);
        let hashes = hash_batch_rows(&batch);
        let mut set = RowSet::new();
        set.begin_batch(&batch);
        assert!(set.insert_batch_row(hashes[0], 0));
        assert!(set.insert_batch_row(hashes[1], 1));
        assert!(!set.insert_batch_row(hashes[2], 2));
        assert!(!set.insert_batch_row(hashes[3], 3));
    }

    #[test]
    fn row_counter_probes_across_numeric_types() {
        let batch = RowBatch::from_rows(1, vec![vec![i(5)], vec![Value::Double(5.0)]]);
        let hashes = hash_batch_rows(&batch);
        let mut counts = RowCounter::new();
        counts.begin_batch(&batch);
        counts.add_batch_row(hashes[0], 0);
        counts.add_batch_row(hashes[1], 1);
        // INTEGER 5 and DOUBLE 5.0 are one group under grouping equality.
        assert_eq!(
            counts.count_mut_row(hash_row(&[i(5)]), &[i(5)]),
            Some(&mut 2)
        );
        let big = (1i64 << 53) + 1;
        assert!(!counts.contains_row(hash_row(&[i(big)]), &[i(big)]));
    }
}
