//! Hash aggregation over batched input.
//!
//! The operator consumes its child on first pull, folding rows into
//! per-group accumulators keyed by the evaluated group expressions, then
//! re-emits one output batch per `batch_size` groups in first-seen order.
//! [`AggMode::Ungrouped`] runs a single accumulator set and always emits
//! exactly one row, even for empty input.
//!
//! Group keys and aggregate arguments are evaluated **vectorized**: each
//! expression is compiled once into a [`VectorKernel`] and evaluated
//! chunk-at-a-time against the input batch, so the per-row work inside
//! the fold loop is reduced to cloning the pre-computed values into the
//! group hash table. The same [`AggSpec`] fold path is reused by the
//! morsel-driven parallel executor ([`crate::exec::parallel`]), which
//! folds per-morsel partial states and merges them with [`Acc::merge`].

use std::collections::{HashSet, VecDeque};

use crate::error::EngineError;
use crate::exec::batch::RowBatch;
use crate::exec::hash::{hash_key_columns, FlatTable};
use crate::exec::spill::{
    for_each_fitting_group, spill_batches, MemoryBudget, MergeEmit, OutputRuns, PartitionGroups,
    PartitionedSpiller, SpillHash,
};
use crate::exec::typed::{EncodedChunk, KeyArena};
use crate::exec::{BatchBuilder, BoxedOperator, Operator, Row};
use crate::expr::{AggExpr, AggFunc, BoundExpr, EvalChunk, VectorKernel};
use crate::planner::physical::AggMode;
use crate::value::Value;

/// An exactly-rounded floating-point sum accumulator.
///
/// Compensated summation generalized to a full error expansion:
/// instead of one Neumaier-style running compensation term, the
/// accumulator keeps the *entire* rounding error as a list of
/// non-overlapping partials of increasing magnitude (Shewchuk's
/// grow-expansion, as in CPython's `math.fsum`), so the partials
/// represent the real-number sum of everything added with **no error at
/// all**. [`value`](ExactSum::value) then rounds that exact sum once,
/// correctly (round-half-even). Because the represented sum is exact,
/// the result is independent of addition order and of where partial
/// accumulators are [`merge`](ExactSum::merge)d — which is what makes
/// the parallel executor's morsel-boundary merges bitwise identical to
/// the serial fold, where a single running compensation would differ in
/// the last ulp.
///
/// Non-finite inputs (and exact sums that overflow the `f64` range)
/// collapse the accumulator to plain IEEE addition semantics: NaN is
/// sticky, `+inf + -inf` is NaN — matching what a `+` fold produces.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSum {
    partials: Vec<f64>,
    /// Set once any input or the exact sum itself leaves the finite
    /// range; from then on plain IEEE addition applies.
    special: Option<f64>,
}

impl ExactSum {
    /// Add one addend, maintaining the exact expansion.
    pub(crate) fn add(&mut self, value: f64) {
        if let Some(s) = &mut self.special {
            *s += value;
            return;
        }
        if !value.is_finite() {
            self.special = Some(self.round() + value);
            self.partials.clear();
            return;
        }
        let mut x = value;
        let mut out = 0;
        for i in 0..self.partials.len() {
            let mut y = self.partials[i];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            // Dekker two-sum: hi is the rounded sum, lo the exact error.
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[out] = lo;
                out += 1;
            }
            x = hi;
        }
        self.partials.truncate(out);
        if x != 0.0 {
            if !x.is_finite() {
                // The exact sum left the f64 range.
                self.special = Some(x);
                self.partials.clear();
                return;
            }
            self.partials.push(x);
        }
    }

    /// Fold another accumulator in. Merging expansions adds exact
    /// quantities, so any merge tree yields the same exact sum — and
    /// therefore the same rounded [`value`](ExactSum::value) — as the
    /// serial element-order fold.
    pub(crate) fn merge(&mut self, later: &ExactSum) {
        if let Some(s) = later.special {
            self.add(s);
            return;
        }
        for &x in &later.partials {
            self.add(x);
        }
    }

    /// The correctly rounded (round-half-even) value of the exact sum.
    pub(crate) fn value(&self) -> f64 {
        match self.special {
            Some(s) => s,
            None => self.round(),
        }
    }

    /// CPython `math.fsum`'s backward pass: sum partials highest first,
    /// stopping at the first nonzero remainder, then apply the halfway
    /// correction so the result rounds as if computed in one operation.
    fn round(&self) -> f64 {
        let p = &self.partials;
        let Some(mut n) = p.len().checked_sub(1) else {
            return 0.0;
        };
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            debug_assert!(x.abs() >= y.abs());
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // hi may sit exactly halfway between representable values; if
        // the remaining partials push in the same direction as lo, the
        // exact sum is past the halfway point and hi must round away.
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

/// One accumulator per aggregate per group.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Sum {
        total_i: i64,
        total_f: ExactSum,
        is_float: bool,
        seen: bool,
    },
    Count(i64),
    Avg {
        total: ExactSum,
        count: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Sum => Acc::Sum {
                total_i: 0,
                total_f: ExactSum::default(),
                is_float: false,
                seen: false,
            },
            AggFunc::Count => Acc::Count(0),
            AggFunc::Avg => Acc::Avg {
                total: ExactSum::default(),
                count: 0,
            },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, v: &Value) -> Result<(), EngineError> {
        // NULLs never reach here (skipped by the caller), except COUNT(*)
        // which feeds a non-null marker.
        match self {
            Acc::Sum {
                total_i,
                total_f,
                is_float,
                seen,
            } => {
                *seen = true;
                match v {
                    Value::Integer(i) => {
                        if *is_float {
                            total_f.add(*i as f64);
                        } else {
                            *total_i = total_i
                                .checked_add(*i)
                                .ok_or_else(|| EngineError::execution("integer overflow in SUM"))?;
                        }
                    }
                    Value::Double(d) => {
                        if !*is_float {
                            total_f.add(*total_i as f64);
                            *is_float = true;
                        }
                        total_f.add(*d);
                    }
                    other => {
                        return Err(EngineError::execution(format!("SUM of {other}")));
                    }
                }
            }
            Acc::Count(c) => *c += 1,
            Acc::Avg { total, count } => {
                let d = v
                    .as_f64()
                    .ok_or_else(|| EngineError::execution(format!("AVG of {v}")))?;
                total.add(d);
                *count += 1;
            }
            Acc::Min(cur) => {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// [`update`](Acc::update) specialized for a non-null integer fed
    /// from a typed argument chunk — no `Value` is constructed unless an
    /// extremum is actually stored.
    #[inline]
    fn update_i64(&mut self, v: i64) -> Result<(), EngineError> {
        match self {
            Acc::Sum {
                total_i,
                total_f,
                is_float,
                seen,
            } => {
                *seen = true;
                if *is_float {
                    total_f.add(v as f64);
                } else {
                    *total_i = total_i
                        .checked_add(v)
                        .ok_or_else(|| EngineError::execution("integer overflow in SUM"))?;
                }
            }
            Acc::Count(c) => *c += 1,
            Acc::Avg { total, count } => {
                total.add(v as f64);
                *count += 1;
            }
            Acc::Min(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| Value::Integer(v).total_cmp(c).is_lt())
                {
                    *cur = Some(Value::Integer(v));
                }
            }
            Acc::Max(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| Value::Integer(v).total_cmp(c).is_gt())
                {
                    *cur = Some(Value::Integer(v));
                }
            }
        }
        Ok(())
    }

    /// [`update`](Acc::update) specialized for a non-null double fed from
    /// a typed argument chunk.
    #[inline]
    fn update_f64(&mut self, v: f64) -> Result<(), EngineError> {
        match self {
            Acc::Sum {
                total_i,
                total_f,
                is_float,
                seen,
            } => {
                *seen = true;
                if !*is_float {
                    total_f.add(*total_i as f64);
                    *is_float = true;
                }
                total_f.add(v);
            }
            Acc::Count(c) => *c += 1,
            Acc::Avg { total, count } => {
                total.add(v);
                *count += 1;
            }
            Acc::Min(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| Value::Double(v).total_cmp(c).is_lt())
                {
                    *cur = Some(Value::Double(v));
                }
            }
            Acc::Max(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| Value::Double(v).total_cmp(c).is_gt())
                {
                    *cur = Some(Value::Double(v));
                }
            }
        }
        Ok(())
    }

    /// Fold `later` (a partial accumulator over rows that come *after*
    /// every row `self` has seen) into `self`. Used by the parallel
    /// executor to merge per-morsel partial states in morsel order, which
    /// keeps first-seen semantics (MIN/MAX ties, SUM type promotion)
    /// aligned with the serial fold.
    pub(crate) fn merge(&mut self, later: Acc) -> Result<(), EngineError> {
        match (self, later) {
            (
                Acc::Sum {
                    total_i,
                    total_f,
                    is_float,
                    seen,
                },
                Acc::Sum {
                    total_i: bi,
                    total_f: bf,
                    is_float: bfl,
                    seen: bs,
                },
            ) => {
                *seen |= bs;
                if *is_float || bfl {
                    if !*is_float {
                        total_f.add(*total_i as f64);
                        *is_float = true;
                    }
                    if bfl {
                        total_f.merge(&bf);
                    } else {
                        total_f.add(bi as f64);
                    }
                } else {
                    *total_i = total_i
                        .checked_add(bi)
                        .ok_or_else(|| EngineError::execution("integer overflow in SUM"))?;
                }
            }
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (
                Acc::Avg { total, count },
                Acc::Avg {
                    total: bt,
                    count: bc,
                },
            ) => {
                total.merge(&bt);
                *count += bc;
            }
            (Acc::Min(cur), Acc::Min(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                        *cur = Some(v);
                    }
                }
            }
            (Acc::Max(cur), Acc::Max(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                        *cur = Some(v);
                    }
                }
            }
            _ => unreachable!("mismatched accumulator kinds"),
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::Sum {
                total_i,
                total_f,
                is_float,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if is_float {
                    Value::Double(total_f.value())
                } else {
                    Value::Integer(total_i)
                }
            }
            Acc::Count(c) => Value::Integer(c),
            Acc::Avg { total, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Double(total.value() / count as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Per-group accumulator state: one [`Acc`] per aggregate, plus the seen
/// sets of DISTINCT aggregates.
#[derive(Debug)]
pub(crate) struct GroupState {
    pub(crate) accs: Vec<Acc>,
    pub(crate) distinct_seen: Vec<Option<HashSet<Value>>>,
}

impl GroupState {
    /// Merge a partial state over *later* rows into this one (same
    /// ordering contract as [`Acc::merge`]). DISTINCT seen-sets are
    /// unioned; with [`AggSpec::deferred_distinct`] the accumulators of
    /// distinct aggregates are untouched until
    /// [`AggSpec::finalize_distinct`] folds the merged sets.
    pub(crate) fn merge(&mut self, later: GroupState) -> Result<(), EngineError> {
        for (acc, b) in self.accs.iter_mut().zip(later.accs) {
            acc.merge(b)?;
        }
        for (set, b) in self.distinct_seen.iter_mut().zip(later.distinct_seen) {
            if let (Some(set), Some(b)) = (set, b) {
                set.extend(b);
            }
        }
        Ok(())
    }
}

/// The grouped accumulator store: a flat open-addressing index
/// ([`FlatTable`]) over arena-stored group keys, states, and hashes.
/// Group keys live in a typed key arena (packed `(tag, word)` columns —
/// see [`crate::exec::typed`]), so a group lookup is a branch-free word
/// compare. Arena order *is* first-seen order, so draining the arenas
/// reproduces the serial output order with no separate `order` vector;
/// stored per-group hashes make morsel merges reuse the fold-time hash (a
/// group key is hashed once per operator, never re-hashed at merge).
#[derive(Debug, Default)]
pub(crate) struct GroupTable {
    table: FlatTable,
    keys: KeyArena,
    hashes: Vec<u64>,
    states: Vec<GroupState>,
    scratch: EncodedChunk,
}

impl GroupTable {
    /// An empty table.
    pub(crate) fn new() -> GroupTable {
        GroupTable::default()
    }

    /// An empty table pre-sized for about `hint` groups (planner sizing
    /// hint; 0 = unknown).
    pub(crate) fn with_capacity(hint: usize) -> GroupTable {
        GroupTable {
            table: FlatTable::with_capacity(hint),
            keys: KeyArena::with_hint(hint),
            hashes: Vec::with_capacity(hint),
            states: Vec::with_capacity(hint),
            scratch: EncodedChunk::new(),
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// Encode the key columns `cols` of one batch into the typed scratch
    /// chunk *and* hash them — one fused pass per batch, each key value
    /// enum-dispatched exactly once (bit-identical to
    /// [`hash_key_columns`]) — before the per-row
    /// [`group_index`](GroupTable::group_index) loop. Returns the per-row
    /// key hashes.
    fn begin_chunk(&mut self, batch: &RowBatch<'_>, cols: &[usize]) -> Vec<u64> {
        self.keys.encode_batch(&mut self.scratch, batch, cols)
    }

    /// The group index for row `r` of the chunk last passed to
    /// [`begin_chunk`](GroupTable::begin_chunk), creating a fresh state
    /// (first-seen append) when new.
    fn group_index(&mut self, hash: u64, r: usize, spec: &AggSpec) -> usize {
        let (keys, scratch) = (&self.keys, &self.scratch);
        if let Some(g) = self
            .table
            .find(hash, |g| keys.eq_chunk(g as usize, scratch, r))
        {
            return g as usize;
        }
        let g = self.keys.push_from_chunk(&self.scratch, r);
        self.hashes.push(hash);
        self.states.push(spec.new_state());
        self.table.insert(hash, g);
        g as usize
    }

    /// The state for an already-materialized key (morsel merges),
    /// creating a fresh state when new. Uses the key's stored fold-time
    /// hash.
    fn merge_index(&mut self, hash: u64, key: &[Value], spec: &AggSpec) -> usize {
        // No batch fold is in flight during a merge, so the chunk scratch
        // is free for the single-key encode.
        self.keys
            .encode_chunk(&mut self.scratch, key.len(), 1, |_, c| &key[c]);
        self.group_index(hash, 0, spec)
    }

    /// Merge `later` (per-morsel partial groups over rows *after* every
    /// row this table has seen) in its first-seen order — reconstructing
    /// the global serial first-seen order across morsels. Keys decode out
    /// of `later`'s arena one at a time (exact round trip).
    pub(crate) fn merge_from(
        &mut self,
        later: GroupTable,
        spec: &AggSpec,
    ) -> Result<(), EngineError> {
        let keys = later.keys;
        for ((g, hash), state) in (0usize..).zip(later.hashes).zip(later.states) {
            let idx = self.merge_index(hash, &keys.decode_row(g), spec);
            self.states[idx].merge(state)?;
        }
        Ok(())
    }

    /// Drain into `(key, state)` pairs in first-seen group order. All keys
    /// decode before the first pair is handed out: their text ends up
    /// stored in the consumer's result table, and decoding it in one run
    /// keeps it contiguous on the heap instead of interleaved with the
    /// consumer's per-row temporaries.
    pub(crate) fn into_ordered(self) -> impl Iterator<Item = (Vec<Value>, GroupState)> {
        let keys: Vec<Row> = (0..self.len()).map(|g| self.keys.decode_row(g)).collect();
        keys.into_iter().zip(self.states)
    }

    /// Drain straight into `batch_size`-row output batches — key columns
    /// then finished aggregate columns, first-seen group order. Key
    /// values decode column-wise out of the arena into the output
    /// columns, so no per-group key row is ever materialized (the
    /// [`into_ordered`](GroupTable::into_ordered) path allocates one
    /// `Vec<Value>` per group, which dominates high-cardinality emits).
    pub(crate) fn into_batches(self, batch_size: usize) -> VecDeque<RowBatch<'static>> {
        let n = self.states.len();
        let mut out = VecDeque::new();
        if n == 0 {
            return out;
        }
        let agg_width = self.states[0].accs.len();
        let kw = self.keys.width();
        let step = batch_size.max(1);
        let mut states = self.states.into_iter();
        for start in (0..n).step_by(step) {
            let end = (start + step).min(n);
            let mut cols: Vec<Vec<Value>> = (0..kw + agg_width)
                .map(|_| Vec::with_capacity(end - start))
                .collect();
            for (c, col) in cols.iter_mut().enumerate().take(kw) {
                for g in start..end {
                    col.push(self.keys.value_at(g, c));
                }
            }
            for state in states.by_ref().take(end - start) {
                for (j, acc) in state.accs.into_iter().enumerate() {
                    cols[kw + j].push(acc.finish());
                }
            }
            out.push_back(RowBatch::from_columns(cols));
        }
        out
    }
}

/// The compiled form of one aggregation: vectorized kernels for the group
/// keys and aggregate arguments plus the fold/merge/finish logic, shared
/// by the serial [`HashAggregateOp`] and the parallel partitioned
/// aggregation.
pub(crate) struct AggSpec {
    aggs: Vec<AggExpr>,
    group_kernels: Vec<VectorKernel>,
    arg_kernels: Vec<Option<VectorKernel>>,
    /// When every group key is a bare column reference (`GROUP BY k`),
    /// their input column indexes: the fold then encodes and hashes keys
    /// straight off the batch columns instead of evaluating each kernel
    /// into a cloned `Vec<Value>`.
    bare_group_cols: Option<Vec<usize>>,
    /// When set (parallel mode), DISTINCT aggregates only collect their
    /// seen-sets during folding; the accumulators are fed once from the
    /// merged set in [`AggSpec::finalize_distinct`]. The serial path
    /// folds distinct values immediately (first-occurrence order).
    deferred_distinct: bool,
}

impl AggSpec {
    /// Compile kernels for prepared group expressions and aggregates.
    pub(crate) fn new(group: &[BoundExpr], aggs: Vec<AggExpr>, deferred_distinct: bool) -> AggSpec {
        let group_kernels: Vec<VectorKernel> = group.iter().map(VectorKernel::compile).collect();
        let arg_kernels = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(VectorKernel::compile))
            .collect();
        let bare_group_cols = (!group.is_empty())
            .then(|| {
                group_kernels
                    .iter()
                    .map(VectorKernel::column_index)
                    .collect::<Option<Vec<usize>>>()
            })
            .flatten();
        AggSpec {
            aggs,
            group_kernels,
            arg_kernels,
            bare_group_cols,
            deferred_distinct,
        }
    }

    /// Number of aggregate output columns.
    pub(crate) fn agg_width(&self) -> usize {
        self.aggs.len()
    }

    /// A fresh per-group state.
    pub(crate) fn new_state(&self) -> GroupState {
        // Without any DISTINCT aggregate the seen-set vector stays empty
        // (`Vec::new` never allocates): grouped folds create one state
        // per group, so a dead allocation here is paid once per group.
        let distinct_seen = if self.aggs.iter().any(|a| a.distinct) {
            self.aggs
                .iter()
                .map(|a| a.distinct.then(HashSet::new))
                .collect()
        } else {
            Vec::new()
        };
        GroupState {
            accs: self.aggs.iter().map(|a| Acc::new(a.func)).collect(),
            distinct_seen,
        }
    }

    /// Evaluate the aggregate-argument kernels for one batch
    /// (chunk-at-a-time, numeric outputs staying typed; `None` slots are
    /// `COUNT(*)`).
    fn arg_chunks(&self, batch: &RowBatch<'_>) -> Result<Vec<Option<EvalChunk>>, EngineError> {
        self.arg_kernels
            .iter()
            .map(|k| k.as_ref().map(|k| k.eval_chunk(batch)).transpose())
            .collect()
    }

    fn fold_row(
        &self,
        state: &mut GroupState,
        row: usize,
        arg_cols: &[Option<EvalChunk>],
    ) -> Result<(), EngineError> {
        for (i, chunk) in arg_cols.iter().enumerate() {
            match chunk {
                // COUNT(*) counts rows; feed a constant marker.
                None => {
                    if let Some(seen) = state.distinct_seen.get_mut(i).and_then(Option::as_mut) {
                        if !seen.insert(Value::Boolean(true)) {
                            continue;
                        }
                        if self.deferred_distinct {
                            continue;
                        }
                    }
                    state.accs[i].update(&Value::Boolean(true))?;
                }
                Some(EvalChunk::Ints { data, nulls }) => {
                    if nulls.as_ref().is_some_and(|n| n[row]) {
                        continue;
                    }
                    let v = data[row];
                    if let Some(seen) = state.distinct_seen.get_mut(i).and_then(Option::as_mut) {
                        if !seen.insert(Value::Integer(v)) {
                            continue;
                        }
                        if self.deferred_distinct {
                            continue;
                        }
                    }
                    state.accs[i].update_i64(v)?;
                }
                Some(EvalChunk::Floats { data, nulls }) => {
                    if nulls.as_ref().is_some_and(|n| n[row]) {
                        continue;
                    }
                    let v = data[row];
                    if let Some(seen) = state.distinct_seen.get_mut(i).and_then(Option::as_mut) {
                        if !seen.insert(Value::Double(v)) {
                            continue;
                        }
                        if self.deferred_distinct {
                            continue;
                        }
                    }
                    state.accs[i].update_f64(v)?;
                }
                Some(EvalChunk::Values(vals)) => {
                    let value = &vals[row];
                    if value.is_null() {
                        continue;
                    }
                    if let Some(seen) = state.distinct_seen.get_mut(i).and_then(Option::as_mut) {
                        if seen.contains(value) {
                            continue;
                        }
                        seen.insert(value.clone());
                        if self.deferred_distinct {
                            // Parallel mode: the accumulator is fed from
                            // the merged set at finalization, never
                            // during folding.
                            continue;
                        }
                    }
                    state.accs[i].update(value)?;
                }
            }
        }
        Ok(())
    }

    /// Evaluate the group-key kernels and their per-row hashes for one
    /// batch (the spill path uses this to route rows to radix partitions
    /// without folding them yet).
    pub(crate) fn group_hashes(&self, batch: &RowBatch<'_>) -> Result<Vec<u64>, EngineError> {
        let key_cols: Vec<Vec<Value>> = self
            .group_kernels
            .iter()
            .map(|k| k.eval_column(batch))
            .collect::<Result<_, _>>()?;
        Ok(hash_key_columns(&key_cols, batch.num_rows()))
    }

    /// Fold one batch into the grouped flat table, evaluating group keys,
    /// aggregate arguments, *and key hashes* vectorized — each key is
    /// hashed exactly once, chunk-at-a-time, and only materialized on
    /// first sight.
    pub(crate) fn fold_batch_grouped(
        &self,
        batch: &RowBatch<'_>,
        groups: &mut GroupTable,
    ) -> Result<(), EngineError> {
        self.fold_batch_grouped_observed(batch, groups, |_| {})
    }

    /// [`fold_batch_grouped`](AggSpec::fold_batch_grouped) with a hook
    /// invoked with the batch row index whenever that row *creates* a new
    /// group — the spill path records the creating row's global sequence
    /// number to restore the serial first-seen emission order.
    pub(crate) fn fold_batch_grouped_observed(
        &self,
        batch: &RowBatch<'_>,
        groups: &mut GroupTable,
        mut on_new_group: impl FnMut(usize),
    ) -> Result<(), EngineError> {
        // Bare-column keys encode and hash straight off the batch columns;
        // computed keys are evaluated into a batch of their own first.
        let bare = self
            .bare_group_cols
            .as_deref()
            .filter(|cols| cols.iter().all(|&c| c < batch.width()));
        let hashes = match bare {
            Some(cols) => groups.begin_chunk(batch, cols),
            None => {
                let key_cols: Vec<Vec<Value>> = self
                    .group_kernels
                    .iter()
                    .map(|k| k.eval_column(batch))
                    .collect::<Result<_, _>>()?;
                let cols: Vec<usize> = (0..key_cols.len()).collect();
                groups.begin_chunk(&RowBatch::from_columns(key_cols), &cols)
            }
        };
        let arg_cols = self.arg_chunks(batch)?;
        for (r, &hash) in hashes.iter().enumerate() {
            let before = groups.len();
            let g = groups.group_index(hash, r, self);
            if groups.len() > before {
                on_new_group(r);
            }
            self.fold_row(&mut groups.states[g], r, &arg_cols)?;
        }
        Ok(())
    }

    /// Fold one batch into a single (ungrouped) accumulator state.
    pub(crate) fn fold_batch_global(
        &self,
        batch: &RowBatch<'_>,
        state: &mut GroupState,
    ) -> Result<(), EngineError> {
        let arg_cols = self.arg_chunks(batch)?;
        for r in 0..batch.num_rows() {
            self.fold_row(state, r, &arg_cols)?;
        }
        Ok(())
    }

    /// Feed the merged DISTINCT sets into their accumulators (deferred
    /// mode only). Values are folded in total order, which is
    /// deterministic regardless of how morsels were scheduled.
    pub(crate) fn finalize_distinct(&self, state: &mut GroupState) -> Result<(), EngineError> {
        debug_assert!(self.deferred_distinct);
        for (i, seen) in state.distinct_seen.iter_mut().enumerate() {
            let Some(seen) = seen else { continue };
            let mut values: Vec<Value> = seen.drain().collect();
            values.sort_by(|a, b| a.total_cmp(b));
            for v in &values {
                state.accs[i].update(v)?;
            }
        }
        Ok(())
    }
}

/// Hash (or single-group) aggregation operator.
///
/// With a bounded [`MemoryBudget`], grouped aggregation routes its input
/// rows through a [`PartitionedSpiller`] keyed on the group hash and
/// folds one radix partition's [`GroupTable`] at a time (recursively
/// re-partitioning partitions that still do not fit). A group's rows all
/// share its partition, so per-group fold order matches the serial fold
/// exactly; groups are tagged with the sequence number of their creating
/// row and merged back into the global first-seen order — spilled output
/// is row-identical, order included, to the in-memory fold. Ungrouped
/// aggregation holds one accumulator set and never needs to spill.
pub struct HashAggregateOp<'a> {
    input: BoxedOperator<'a>,
    spec: AggSpec,
    group_width: usize,
    mode: AggMode,
    batch_size: usize,
    /// Planner sizing hint for the group table (0 = unknown).
    groups_hint: usize,
    budget: MemoryBudget,
    /// Pre-partitioned input groups (one per parallel worker); set by
    /// [`HashAggregateOp::with_prepartitioned`].
    prepart: Option<PartitionGroups>,
    output: Option<VecDeque<RowBatch<'a>>>,
    spilled_emit: Option<MergeEmit>,
}

impl<'a> HashAggregateOp<'a> {
    /// Aggregate `input`; `group` and agg arguments must be prepared.
    /// `groups_hint` pre-sizes the flat group table (0 = unknown).
    pub fn new(
        input: BoxedOperator<'a>,
        group: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        mode: AggMode,
        batch_size: usize,
        groups_hint: usize,
    ) -> HashAggregateOp<'a> {
        debug_assert_eq!(mode == AggMode::Ungrouped, group.is_empty());
        HashAggregateOp {
            spec: AggSpec::new(&group, aggs, false),
            group_width: group.len(),
            input,
            mode,
            batch_size,
            groups_hint,
            budget: MemoryBudget::unbounded(),
            prepart: None,
            output: None,
            spilled_emit: None,
        }
    }

    /// Attach a memory budget: grouped folds that overflow it spill
    /// radix partitions of their input to disk and aggregate partition
    /// at a time.
    pub fn with_budget(mut self, budget: MemoryBudget) -> HashAggregateOp<'a> {
        self.budget = budget;
        self
    }

    /// Aggregate pre-partitioned input groups (one spiller result per
    /// parallel worker, hashed on the group key) instead of draining
    /// `input`. Grouped spill path only.
    pub(crate) fn with_prepartitioned(mut self, groups: PartitionGroups) -> HashAggregateOp<'a> {
        self.prepart = Some(groups);
        self
    }

    /// The spill path for grouped aggregation under a bounded budget.
    fn drain_and_aggregate_spilled(&mut self) -> Result<MergeEmit, EngineError> {
        let groups_in = match self.prepart.take() {
            Some(groups) => groups,
            None => {
                let mut spiller = PartitionedSpiller::new(self.budget.clone(), 0);
                let hash = SpillHash::Agg(&self.spec);
                spill_batches(&mut self.input, &hash, 0, &mut spiller)?;
                vec![spiller.finish()?]
            }
        };
        // Each partition appends one run of (first-seen sequence, output
        // row) pairs — ascending, because groups are discovered while
        // folding in sequence order — and the emission merge restores
        // the global serial first-seen order.
        let mut runs = OutputRuns::new(self.budget.clone());
        let budget = self.budget.clone();
        let spec = &self.spec;
        let batch_size = self.batch_size.max(1);
        for_each_fitting_group(groups_in, &budget, 0, &mut |tuples| {
            let mut groups = GroupTable::new();
            let mut first_seqs: Vec<u64> = Vec::new();
            for chunk in tuples.chunks(batch_size) {
                let seqs: Vec<u64> = chunk.iter().map(|(_, s, _)| *s).collect();
                let rows: Vec<Row> = chunk.iter().map(|(_, _, r)| r.clone()).collect();
                let batch = RowBatch::from_rows(rows[0].len(), rows);
                spec.fold_batch_grouped_observed(&batch, &mut groups, |r| {
                    first_seqs.push(seqs[r]);
                })?;
            }
            runs.begin_run();
            for (g, (key, state)) in groups.into_ordered().enumerate() {
                let row: Row = key
                    .into_iter()
                    .chain(state.accs.into_iter().map(Acc::finish))
                    .collect();
                runs.push(first_seqs[g], 0, row)?;
            }
            Ok(())
        })?;
        runs.finish(self.batch_size)
    }

    /// Whether this aggregation runs the out-of-core grouped path.
    fn spills(&self) -> bool {
        self.prepart.is_some() || (self.budget.is_bounded() && self.mode == AggMode::HashGrouped)
    }

    fn drain_and_aggregate(&mut self) -> Result<VecDeque<RowBatch<'a>>, EngineError> {
        let width = self.group_width + self.spec.agg_width();
        // Arena order doubles as first-seen group order.
        let mut groups = GroupTable::with_capacity(self.groups_hint);
        let mut global = (self.mode == AggMode::Ungrouped).then(|| self.spec.new_state());

        while let Some(batch) = self.input.next_batch()? {
            match &mut global {
                Some(state) => self.spec.fold_batch_global(&batch, state)?,
                None => self.spec.fold_batch_grouped(&batch, &mut groups)?,
            }
        }

        match global {
            Some(state) => {
                // Global aggregates produce one row even for empty input.
                let mut builder = BatchBuilder::new(width);
                builder.push_row(state.accs.into_iter().map(Acc::finish));
                let mut out = VecDeque::new();
                out.push_back(builder.finish());
                Ok(out)
            }
            None => Ok(groups.into_batches(self.batch_size)),
        }
    }
}

impl<'a> Operator<'a> for HashAggregateOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        if self.spilled_emit.is_some() || self.spills() {
            if self.spilled_emit.is_none() {
                let emit = self.drain_and_aggregate_spilled()?;
                self.spilled_emit = Some(emit);
            }
            return self.spilled_emit.as_mut().expect("just set").next_batch();
        }
        if self.output.is_none() {
            let aggregated = self.drain_and_aggregate()?;
            self.output = Some(aggregated);
        }
        Ok(self.output.as_mut().and_then(VecDeque::pop_front))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Row;
    use crate::exec::{drain, replay};
    use crate::types::DataType;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column {
            index: i,
            ty: Some(DataType::Integer),
            name: format!("c{i}"),
        }
    }

    fn agg(func: AggFunc, arg: Option<BoundExpr>) -> AggExpr {
        AggExpr {
            func,
            arg,
            distinct: false,
            name: func.name().to_string(),
        }
    }

    fn run(
        width: usize,
        rows: Vec<Row>,
        group: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        batch_size: usize,
    ) -> Vec<Row> {
        let mode = if group.is_empty() {
            AggMode::Ungrouped
        } else {
            AggMode::HashGrouped
        };
        let op = HashAggregateOp::new(
            replay(width, rows, batch_size),
            group,
            aggs,
            mode,
            batch_size,
            0,
        );
        drain(Box::new(op)).unwrap()
    }

    #[test]
    fn grouped_sum_count_across_batches() {
        let rows = vec![
            vec![Value::from("a"), Value::Integer(1)],
            vec![Value::from("b"), Value::Integer(2)],
            vec![Value::from("a"), Value::Integer(3)],
        ];
        let group = vec![BoundExpr::Column {
            index: 0,
            ty: Some(DataType::Varchar),
            name: "g".into(),
        }];
        // Batch size 1 forces group state to span batches.
        let out = run(
            2,
            rows,
            group,
            vec![agg(AggFunc::Sum, Some(col(1))), agg(AggFunc::Count, None)],
            1,
        );
        assert_eq!(
            out,
            vec![
                vec![Value::from("a"), Value::Integer(4), Value::Integer(2)],
                vec![Value::from("b"), Value::Integer(2), Value::Integer(1)],
            ]
        );
    }

    #[test]
    fn global_aggregate_on_empty_input_emits_one_row() {
        let out = run(
            1,
            vec![],
            vec![],
            vec![
                agg(AggFunc::Sum, Some(col(0))),
                agg(AggFunc::Count, None),
                agg(AggFunc::Min, Some(col(0))),
                agg(AggFunc::Avg, Some(col(0))),
            ],
            16,
        );
        assert_eq!(
            out,
            vec![vec![
                Value::Null,
                Value::Integer(0),
                Value::Null,
                Value::Null
            ]]
        );
    }

    #[test]
    fn nulls_are_skipped() {
        let rows = vec![
            vec![Value::Integer(1)],
            vec![Value::Null],
            vec![Value::Integer(3)],
        ];
        let out = run(
            1,
            rows,
            vec![],
            vec![
                agg(AggFunc::Sum, Some(col(0))),
                agg(AggFunc::Count, Some(col(0))),
                agg(AggFunc::Count, None),
                agg(AggFunc::Avg, Some(col(0))),
            ],
            2,
        );
        assert_eq!(
            out,
            vec![vec![
                Value::Integer(4),
                Value::Integer(2),
                Value::Integer(3),
                Value::Double(2.0),
            ]]
        );
    }

    #[test]
    fn sum_promotes_to_double() {
        let rows = vec![
            vec![Value::Integer(1)],
            vec![Value::Double(2.5)],
            vec![Value::Integer(2)],
        ];
        let out = run(1, rows, vec![], vec![agg(AggFunc::Sum, Some(col(0)))], 2);
        assert_eq!(out, vec![vec![Value::Double(5.5)]]);
    }

    #[test]
    fn min_max_strings() {
        let rows = vec![
            vec![Value::from("pear")],
            vec![Value::from("apple")],
            vec![Value::from("fig")],
        ];
        let out = run(
            1,
            rows,
            vec![],
            vec![
                agg(AggFunc::Min, Some(col(0))),
                agg(AggFunc::Max, Some(col(0))),
            ],
            2,
        );
        assert_eq!(out, vec![vec![Value::from("apple"), Value::from("pear")]]);
    }

    #[test]
    fn distinct_aggregation_spans_batches() {
        let rows = vec![
            vec![Value::Integer(1)],
            vec![Value::Integer(1)],
            vec![Value::Integer(2)],
        ];
        let mut sum_distinct = agg(AggFunc::Sum, Some(col(0)));
        sum_distinct.distinct = true;
        let mut count_distinct = agg(AggFunc::Count, Some(col(0)));
        count_distinct.distinct = true;
        let out = run(1, rows, vec![], vec![sum_distinct, count_distinct], 1);
        assert_eq!(out, vec![vec![Value::Integer(3), Value::Integer(2)]]);
    }

    #[test]
    fn null_group_keys_group_together() {
        let rows = vec![
            vec![Value::Null, Value::Integer(1)],
            vec![Value::Null, Value::Integer(2)],
        ];
        let group = vec![BoundExpr::Column {
            index: 0,
            ty: Some(DataType::Varchar),
            name: "g".into(),
        }];
        let out = run(2, rows, group, vec![agg(AggFunc::Sum, Some(col(1)))], 4);
        assert_eq!(out, vec![vec![Value::Null, Value::Integer(3)]]);
    }

    #[test]
    fn sum_overflow_errors() {
        let rows = vec![vec![Value::Integer(i64::MAX)], vec![Value::Integer(1)]];
        let op = HashAggregateOp::new(
            replay(1, rows, 4),
            vec![],
            vec![agg(AggFunc::Sum, Some(col(0)))],
            AggMode::Ungrouped,
            4,
            0,
        );
        assert!(drain(Box::new(op)).is_err());
    }

    #[test]
    fn many_groups_chunk_into_batches() {
        let rows: Vec<Row> = (0..10)
            .map(|v| vec![Value::Integer(v), Value::Integer(1)])
            .collect();
        let out = run(
            2,
            rows,
            vec![col(0)],
            vec![agg(AggFunc::Count, None)],
            3, // 10 groups → 4 output batches
        );
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|r| r[1] == Value::Integer(1)));
    }

    #[test]
    fn spilled_aggregation_is_row_identical_to_in_memory() {
        // Many groups, NULL keys, DISTINCT aggregates, mixed types.
        let rows: Vec<Row> = (0..500)
            .map(|i| {
                let g = if i % 19 == 0 {
                    Value::Null
                } else {
                    Value::from(format!("g{}", i % 37))
                };
                vec![g, Value::Integer(i % 29), Value::Integer(i % 5)]
            })
            .collect();
        let group = vec![BoundExpr::Column {
            index: 0,
            ty: Some(DataType::Varchar),
            name: "g".into(),
        }];
        let mut distinct_sum = agg(AggFunc::Sum, Some(col(2)));
        distinct_sum.distinct = true;
        let aggs = vec![
            agg(AggFunc::Sum, Some(col(1))),
            agg(AggFunc::Count, None),
            agg(AggFunc::Min, Some(col(1))),
            agg(AggFunc::Max, Some(col(1))),
            agg(AggFunc::Avg, Some(col(1))),
            distinct_sum,
        ];
        let run_with = |budget: MemoryBudget, batch_size: usize| {
            let op = HashAggregateOp::new(
                replay(3, rows.clone(), batch_size),
                group.clone(),
                aggs.clone(),
                AggMode::HashGrouped,
                batch_size,
                0,
            )
            .with_budget(budget);
            drain(Box::new(op)).unwrap()
        };
        let unbounded = run_with(MemoryBudget::unbounded(), 16);
        for limit in [1usize, 1024, 64 * 1024] {
            for batch_size in [1usize, 16, 1024] {
                let budget = MemoryBudget::with_limit(limit);
                let spilled = run_with(budget.clone(), batch_size);
                assert_eq!(
                    unbounded, spilled,
                    "budget {limit} batch {batch_size} changed aggregation output"
                );
                if limit == 1 {
                    assert!(budget.stats().spilled(), "1-byte budget must spill");
                }
            }
        }
    }

    #[test]
    fn bounded_ungrouped_aggregation_never_spills() {
        let budget = MemoryBudget::with_limit(1);
        let op = HashAggregateOp::new(
            replay(1, (0..100).map(|v| vec![Value::Integer(v)]).collect(), 8),
            vec![],
            vec![agg(AggFunc::Sum, Some(col(0)))],
            AggMode::Ungrouped,
            8,
            0,
        )
        .with_budget(budget.clone());
        assert_eq!(
            drain(Box::new(op)).unwrap(),
            vec![vec![Value::Integer(4950)]]
        );
        assert!(
            !budget.stats().spilled(),
            "one accumulator set never spills"
        );
    }

    #[test]
    fn acc_merge_matches_sequential_fold() {
        // SUM: int + promoted-double partials merge exactly.
        let mut a = Acc::new(AggFunc::Sum);
        a.update(&Value::Integer(3)).unwrap();
        let mut b = Acc::new(AggFunc::Sum);
        b.update(&Value::Double(2.5)).unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.finish(), Value::Double(5.5));
        // Overflow surfaces through merge too.
        let mut a = Acc::new(AggFunc::Sum);
        a.update(&Value::Integer(i64::MAX)).unwrap();
        let mut b = Acc::new(AggFunc::Sum);
        b.update(&Value::Integer(1)).unwrap();
        assert!(a.merge(b).is_err());
        // MIN/MAX keep the earlier partial's value on equal keys.
        let mut a = Acc::new(AggFunc::Min);
        a.update(&Value::Integer(7)).unwrap();
        let mut b = Acc::new(AggFunc::Min);
        b.update(&Value::Integer(7)).unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.finish(), Value::Integer(7));
        // AVG partials combine totals and counts.
        let mut a = Acc::new(AggFunc::Avg);
        a.update(&Value::Integer(1)).unwrap();
        let mut b = Acc::new(AggFunc::Avg);
        b.update(&Value::Integer(3)).unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.finish(), Value::Double(2.0));
        // Empty partials merge to the empty result.
        let mut a = Acc::new(AggFunc::Sum);
        a.merge(Acc::new(AggFunc::Sum)).unwrap();
        assert_eq!(a.finish(), Value::Null);
    }

    #[test]
    fn exact_sum_is_order_and_split_independent() {
        // The classic compensation-killer sequence: big and tiny
        // magnitudes whose naive fold loses the tiny terms entirely.
        let xs = [1e300, 1.0, -1e300, 1e-7, 1e16, 3.25, -1e16, -1.0];
        let mut serial = ExactSum::default();
        for &x in &xs {
            serial.add(x);
        }
        // Every split point, merged as the parallel executor would.
        for cut in 0..=xs.len() {
            let (a, b) = xs.split_at(cut);
            let mut left = ExactSum::default();
            for &x in a {
                left.add(x);
            }
            let mut right = ExactSum::default();
            for &x in b {
                right.add(x);
            }
            left.merge(&right);
            assert_eq!(
                left.value().to_bits(),
                serial.value().to_bits(),
                "split at {cut}"
            );
        }
        // Exactness, not just consistency: the tiny terms survive.
        assert_eq!(serial.value(), 1e-7 + 3.25);
    }

    #[test]
    fn exact_sum_rounds_half_to_even() {
        // 1 + 2^-53 + 2^-53: the naive left fold loses both halves and
        // returns 1.0; the exact sum is 1 + 2^-52, representable.
        let ulp_half = (2.0f64).powi(-53);
        let mut s = ExactSum::default();
        s.add(1.0);
        s.add(ulp_half);
        s.add(ulp_half);
        assert_eq!(s.value(), 1.0 + (2.0f64).powi(-52));
        // 1 + 2^-53 alone sits exactly halfway; round-half-even keeps 1.
        let mut s = ExactSum::default();
        s.add(1.0);
        s.add(ulp_half);
        assert_eq!(s.value(), 1.0);
    }

    #[test]
    fn exact_sum_special_values_follow_ieee() {
        let mut s = ExactSum::default();
        s.add(1.0);
        s.add(f64::INFINITY);
        s.add(5.0);
        assert_eq!(s.value(), f64::INFINITY);
        s.add(f64::NEG_INFINITY);
        assert!(s.value().is_nan(), "inf + -inf is NaN");
        let mut s = ExactSum::default();
        s.add(f64::NAN);
        s.add(1.0);
        assert!(s.value().is_nan(), "NaN is sticky");
        // Exact-sum overflow collapses to infinity like a `+` fold.
        let mut s = ExactSum::default();
        s.add(f64::MAX);
        s.add(f64::MAX);
        assert_eq!(s.value(), f64::INFINITY);
        // Empty sum is 0.0.
        assert_eq!(ExactSum::default().value(), 0.0);
    }
}
