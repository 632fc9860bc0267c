//! Columnar row batches flowing between physical operators.
//!
//! A [`RowBatch`] is a vector of column chunks plus a logical row count.
//! Chunks either *borrow* a storage column (zero-copy scans) or *own*
//! computed values, and each carries an optional selection vector so
//! filters and projections can drop or reorder rows without touching the
//! underlying `Value`s. Rows are only materialized at pipeline boundaries
//! (hash tables, sorts, final results).

use std::sync::Arc;

use crate::value::{Tuple, Value};

/// Default number of logical rows per batch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Backing storage of one column chunk.
#[derive(Debug, Clone)]
enum Values<'a> {
    /// Values computed by an operator, shared so projections stay cheap.
    Owned(Arc<Vec<Value>>),
    /// A borrowed slice of a storage column (zero-copy scan).
    Borrowed(&'a [Value]),
}

impl Values<'_> {
    fn get(&self, physical: usize) -> &Value {
        match self {
            Values::Owned(v) => &v[physical],
            Values::Borrowed(s) => &s[physical],
        }
    }
}

/// One column of a batch: values plus an optional logical→physical
/// selection vector.
#[derive(Debug, Clone)]
pub struct ColumnData<'a> {
    values: Values<'a>,
    sel: Option<Arc<Vec<u32>>>,
}

impl<'a> ColumnData<'a> {
    /// A column owning its values, aligned with the logical row order.
    pub fn owned(values: Vec<Value>) -> ColumnData<'a> {
        ColumnData {
            values: Values::Owned(Arc::new(values)),
            sel: None,
        }
    }

    /// A zero-copy view of a storage column slice, aligned with the
    /// logical row order.
    pub fn borrowed(values: &'a [Value]) -> ColumnData<'a> {
        ColumnData {
            values: Values::Borrowed(values),
            sel: None,
        }
    }

    /// A zero-copy view selecting `sel[i]` as logical row `i`.
    pub fn borrowed_with_sel(values: &'a [Value], sel: Arc<Vec<u32>>) -> ColumnData<'a> {
        ColumnData {
            values: Values::Borrowed(values),
            sel: Some(sel),
        }
    }

    /// A column sharing an owned value buffer, selecting `sel[i]` as
    /// logical row `i`. Lets operators that keep a columnar copy of
    /// materialized rows (e.g. a join's build side) emit gathered output
    /// without cloning any [`Value`].
    pub fn shared_with_sel(values: Arc<Vec<Value>>, sel: Arc<Vec<u32>>) -> ColumnData<'a> {
        ColumnData {
            values: Values::Owned(values),
            sel: Some(sel),
        }
    }

    /// Value at the logical row index.
    pub fn get(&self, logical: usize) -> &Value {
        let physical = match &self.sel {
            Some(sel) => sel[logical] as usize,
            None => logical,
        };
        self.values.get(physical)
    }

    /// Visit the first `rows` logical values in order. The selection
    /// dispatch happens once per chunk instead of once per value, so
    /// chunk-at-a-time kernels (e.g. the hash kernels in
    /// [`crate::exec::hash`]) run a tight slice loop in the common
    /// unselected case.
    pub fn for_each_value(&self, rows: usize, mut f: impl FnMut(usize, &Value)) {
        match (&self.values, &self.sel) {
            (Values::Owned(v), None) => {
                for (i, val) in v[..rows].iter().enumerate() {
                    f(i, val);
                }
            }
            (Values::Borrowed(s), None) => {
                for (i, val) in s[..rows].iter().enumerate() {
                    f(i, val);
                }
            }
            (values, Some(sel)) => {
                for (i, &p) in sel[..rows].iter().enumerate() {
                    f(i, values.get(p as usize));
                }
            }
        }
    }

    /// Restrict/reorder to the logical rows in `keep`, without copying
    /// values: selections compose. `composed` memoizes compositions per
    /// distinct source selection, since a batch's columns usually share
    /// one selection `Arc`.
    fn select(
        &self,
        keep: &Arc<Vec<u32>>,
        composed: &mut Vec<(*const Vec<u32>, Arc<Vec<u32>>)>,
    ) -> ColumnData<'a> {
        let sel = match &self.sel {
            None => Arc::clone(keep),
            Some(old) => {
                let ptr = Arc::as_ptr(old);
                match composed.iter().find(|(p, _)| *p == ptr) {
                    Some((_, sel)) => Arc::clone(sel),
                    None => {
                        let sel: Arc<Vec<u32>> =
                            Arc::new(keep.iter().map(|&i| old[i as usize]).collect());
                        composed.push((ptr, Arc::clone(&sel)));
                        sel
                    }
                }
            }
        };
        ColumnData {
            values: self.values.clone(),
            sel: Some(sel),
        }
    }
}

/// A batch of logical rows in columnar layout.
#[derive(Debug, Clone)]
pub struct RowBatch<'a> {
    columns: Vec<ColumnData<'a>>,
    rows: usize,
}

impl<'a> RowBatch<'a> {
    /// Build from column chunks. All columns must describe `rows` logical
    /// rows (zero-column batches carry the count alone, e.g. `Dual`).
    pub fn new(columns: Vec<ColumnData<'a>>, rows: usize) -> RowBatch<'a> {
        RowBatch { columns, rows }
    }

    /// Build from owned, fully-aligned column vectors.
    pub fn from_columns(columns: Vec<Vec<Value>>) -> RowBatch<'a> {
        let rows = columns.first().map_or(0, Vec::len);
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        RowBatch {
            columns: columns.into_iter().map(ColumnData::owned).collect(),
            rows,
        }
    }

    /// Transpose materialized rows (all of width `width`) into a batch.
    pub fn from_rows(width: usize, rows: Vec<Vec<Value>>) -> RowBatch<'a> {
        let mut columns: Vec<Vec<Value>> =
            (0..width).map(|_| Vec::with_capacity(rows.len())).collect();
        let n = rows.len();
        for row in rows {
            debug_assert_eq!(row.len(), width);
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v);
            }
        }
        RowBatch {
            columns: columns.into_iter().map(ColumnData::owned).collect(),
            rows: n,
        }
    }

    /// Number of logical rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Borrow a column chunk.
    pub fn column(&self, index: usize) -> &ColumnData<'a> {
        &self.columns[index]
    }

    /// Value at `(column, logical row)`.
    pub fn value(&self, column: usize, row: usize) -> &Value {
        self.columns[column].get(row)
    }

    /// A [`Tuple`] view of one logical row, for expression evaluation.
    pub fn row_view(&self, row: usize) -> BatchRow<'_, 'a> {
        debug_assert!(row < self.rows);
        BatchRow { batch: self, row }
    }

    /// Clone one logical row out of the batch.
    pub fn materialize_row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row).clone()).collect()
    }

    /// Clone every logical row out of the batch.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows).map(|i| self.materialize_row(i)).collect()
    }

    /// Keep only (and reorder to) the logical rows listed in `keep`.
    /// Zero-copy: the underlying values are shared, selections compose
    /// (computed once per distinct source selection, not per column).
    pub fn select(&self, keep: Vec<u32>) -> RowBatch<'a> {
        debug_assert!(keep.iter().all(|&i| (i as usize) < self.rows));
        let rows = keep.len();
        let keep = Arc::new(keep);
        let mut composed = Vec::new();
        RowBatch {
            columns: self
                .columns
                .iter()
                .map(|c| c.select(&keep, &mut composed))
                .collect(),
            rows,
        }
    }

    /// The standard keep-vector epilogue for streaming row-dropping
    /// operators: `None` when nothing survives, the batch itself when
    /// everything does, a composed selection otherwise.
    pub fn retain(self, keep: Vec<u32>) -> Option<RowBatch<'a>> {
        if keep.is_empty() {
            None
        } else if keep.len() == self.rows {
            Some(self)
        } else {
            Some(self.select(keep))
        }
    }

    /// The contiguous logical sub-range `[start, start + len)`, zero-copy.
    pub fn slice(&self, start: usize, len: usize) -> RowBatch<'a> {
        debug_assert!(start + len <= self.rows);
        self.select((start as u32..(start + len) as u32).collect())
    }

    /// Decompose into column chunks (for operators that splice batches,
    /// e.g. joins gluing probe-side and build-side columns together).
    pub fn into_columns(self) -> Vec<ColumnData<'a>> {
        self.columns
    }
}

/// One logical row inside a [`RowBatch`], usable wherever expression
/// evaluation expects a [`Tuple`].
#[derive(Debug, Clone, Copy)]
pub struct BatchRow<'b, 'a> {
    batch: &'b RowBatch<'a>,
    row: usize,
}

impl Tuple for BatchRow<'_, '_> {
    fn col(&self, index: usize) -> Option<&Value> {
        if index < self.batch.width() {
            Some(self.batch.value(index, self.row))
        } else {
            None
        }
    }
}

/// Incremental columnar builder for operator output.
#[derive(Debug)]
pub struct BatchBuilder {
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl BatchBuilder {
    /// An empty builder for `width` columns.
    pub fn new(width: usize) -> BatchBuilder {
        BatchBuilder {
            columns: (0..width).map(|_| Vec::new()).collect(),
            rows: 0,
        }
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row given as an iterator of values.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        let mut cols = self.columns.iter_mut();
        let mut n = 0;
        for v in row {
            cols.next().expect("row wider than builder").push(v);
            n += 1;
        }
        debug_assert_eq!(n, self.columns.len(), "row narrower than builder");
        self.rows += 1;
    }

    /// Finish into a batch.
    pub fn finish<'a>(self) -> RowBatch<'a> {
        RowBatch::from_columns(self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Value {
        Value::Integer(v)
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![i(1), i(10)], vec![i(2), i(20)]];
        let batch = RowBatch::from_rows(2, rows.clone());
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(batch.width(), 2);
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(batch.value(1, 1), &i(20));
    }

    #[test]
    fn selections_compose_without_copying() {
        let col: Vec<Value> = (0..10).map(i).collect();
        let batch = RowBatch::new(vec![ColumnData::borrowed(&col)], 10);
        let evens = batch.select(vec![0, 2, 4, 6, 8]);
        assert_eq!(evens.num_rows(), 5);
        let tail = evens.select(vec![3, 4]);
        assert_eq!(tail.to_rows(), vec![vec![i(6)], vec![i(8)]]);
    }

    #[test]
    fn slice_is_a_contiguous_selection() {
        let batch = RowBatch::from_rows(1, (0..5).map(|v| vec![i(v)]).collect());
        let mid = batch.slice(1, 3);
        assert_eq!(mid.to_rows(), vec![vec![i(1)], vec![i(2)], vec![i(3)]]);
    }

    #[test]
    fn zero_width_batches_carry_row_counts() {
        let dual = RowBatch::new(vec![], 1);
        assert_eq!(dual.num_rows(), 1);
        assert_eq!(dual.to_rows(), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn row_views_are_tuples() {
        use crate::value::Tuple;
        let batch = RowBatch::from_rows(2, vec![vec![i(7), Value::Null]]);
        let row = batch.row_view(0);
        assert_eq!(row.col(0), Some(&i(7)));
        assert_eq!(row.col(1), Some(&Value::Null));
        assert_eq!(row.col(2), None);
    }

    #[test]
    fn builder_collects_columnar_output() {
        let mut b = BatchBuilder::new(2);
        assert!(b.is_empty());
        b.push_row(vec![i(1), i(2)]);
        b.push_row(vec![i(3), i(4)]);
        assert_eq!(b.len(), 2);
        let batch = b.finish();
        assert_eq!(batch.to_rows(), vec![vec![i(1), i(2)], vec![i(3), i(4)]]);
    }
}
