//! Vectorized expression kernels: chunk-at-a-time evaluation of
//! [`BoundExpr`]s over columnar [`RowBatch`]es.
//!
//! [`VectorKernel::compile`] turns a bound expression into a small kernel
//! tree whose nodes evaluate whole column chunks per call: comparisons and
//! arithmetic over Integer/Double columns run as typed loops with null
//! masks, text and other values compare through borrowed references
//! (no `Value` cloning), and `AND`/`OR` propagate *activity masks* so the
//! right operand is only evaluated on rows the left operand did not decide
//! — replicating row-at-a-time short-circuit semantics exactly (a row that
//! would never reach a division in `eval` can't raise a division error
//! here either). Expression shapes with no kernel (CASE, LIKE, casts,
//! scalar functions, …) fall back to per-row [`BoundExpr::eval`] for just
//! that sub-tree, so every expression stays supported.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use ivm_sql::ast::{BinaryOp, UnaryOp};

use crate::error::EngineError;
use crate::exec::batch::RowBatch;
use crate::expr::eval::{eval_arith, sql_compare};
use crate::expr::BoundExpr;
use crate::types::DataType;
use crate::value::{NumKey, Value};

/// Tri-state boolean encoding used by predicate kernels.
const FALSE: i8 = 0;
const TRUE: i8 = 1;
const NULL: i8 = 2;

/// A compiled, chunk-at-a-time evaluator for one [`BoundExpr`].
#[derive(Debug)]
pub struct VectorKernel {
    prog: Node,
}

/// One kernel node. Children are evaluated into [`VecCol`] chunks; the
/// node combines them in a single pass over the chunk.
#[derive(Debug)]
enum Node {
    /// Input column reference.
    Col(usize),
    /// Constant, broadcast over the chunk.
    Lit(Value),
    /// Comparison (`=`, `<>`, `<`, `<=`, `>`, `>=`).
    Cmp {
        op: BinaryOp,
        left: Box<Node>,
        right: Box<Node>,
    },
    /// Arithmetic (`+`, `-`, `*`, `/`, `%`).
    Arith {
        op: BinaryOp,
        left: Box<Node>,
        right: Box<Node>,
    },
    /// Kleene AND with masked (short-circuit) right evaluation.
    And(Box<Node>, Box<Node>),
    /// Kleene OR with masked (short-circuit) right evaluation.
    Or(Box<Node>, Box<Node>),
    /// Boolean negation of a guaranteed-boolean child.
    Not(Box<Node>),
    /// `expr IS [NOT] NULL`.
    IsNull { input: Box<Node>, negated: bool },
    /// Membership probe against a materialized set (prepared `IN`).
    InSet {
        input: Box<Node>,
        set: Arc<HashSet<Value>>,
        has_null: bool,
        negated: bool,
    },
    /// Row-at-a-time escape hatch for unsupported shapes.
    Fallback(BoundExpr),
}

/// An evaluated chunk: one value per logical row (or one broadcast value).
#[derive(Debug)]
enum VecCol<'b> {
    /// Integer data; `nulls[i]` marks NULL rows (data slot is garbage).
    Int {
        data: Vec<i64>,
        nulls: Option<Vec<bool>>,
    },
    /// Double data (also used for mixed Integer/Double chunks).
    Float {
        data: Vec<f64>,
        nulls: Option<Vec<bool>>,
    },
    /// Tri-state booleans.
    Tri(Vec<i8>),
    /// Borrowed arbitrary values, one per row (e.g. a text column).
    Refs(Vec<&'b Value>),
    /// Owned arbitrary values, one per row (fallback output).
    Owned(Vec<Value>),
    /// A single value broadcast to every row.
    Scalar(Value),
}

impl VecCol<'_> {
    /// Value at row `i`, borrowing where possible.
    fn value_at(&self, i: usize) -> Cow<'_, Value> {
        match self {
            VecCol::Int { data, nulls } => {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    Cow::Owned(Value::Null)
                } else {
                    Cow::Owned(Value::Integer(data[i]))
                }
            }
            VecCol::Float { data, nulls } => {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    Cow::Owned(Value::Null)
                } else {
                    Cow::Owned(Value::Double(data[i]))
                }
            }
            VecCol::Tri(t) => Cow::Owned(match t[i] {
                FALSE => Value::Boolean(false),
                TRUE => Value::Boolean(true),
                _ => Value::Null,
            }),
            VecCol::Refs(refs) => Cow::Borrowed(refs[i]),
            VecCol::Owned(vals) => Cow::Borrowed(&vals[i]),
            VecCol::Scalar(v) => Cow::Borrowed(v),
        }
    }

    /// Convert to tri-state booleans (`as_bool` semantics: any non-boolean
    /// value, including NULL, becomes the unknown state — never an error).
    fn to_tri(&self, rows: usize) -> Vec<i8> {
        match self {
            VecCol::Tri(t) => t.clone(),
            VecCol::Scalar(v) => vec![tri_of(v); rows],
            other => (0..rows).map(|i| tri_of(&other.value_at(i))).collect(),
        }
    }

    /// Materialize into owned values.
    fn into_values(self, rows: usize) -> Vec<Value> {
        match self {
            VecCol::Owned(vals) => vals,
            VecCol::Scalar(v) => vec![v; rows],
            other => (0..rows).map(|i| other.value_at(i).into_owned()).collect(),
        }
    }
}

fn tri_of(v: &Value) -> i8 {
    match v.as_bool() {
        Some(true) => TRUE,
        Some(false) => FALSE,
        None => NULL,
    }
}

/// A numeric view over a [`VecCol`], for the typed comparison/arithmetic
/// loops. `None` means the chunk is not numeric-shaped.
enum NumView<'v> {
    Ints(&'v [i64], Option<&'v [bool]>),
    Floats(&'v [f64], Option<&'v [bool]>),
    ScalarInt(i64),
    ScalarFloat(f64),
    ScalarNull,
}

fn num_view<'v>(v: &'v VecCol<'_>) -> Option<NumView<'v>> {
    match v {
        VecCol::Int { data, nulls } => Some(NumView::Ints(data, nulls.as_deref())),
        VecCol::Float { data, nulls } => Some(NumView::Floats(data, nulls.as_deref())),
        VecCol::Scalar(Value::Integer(i)) => Some(NumView::ScalarInt(*i)),
        VecCol::Scalar(Value::Double(d)) => Some(NumView::ScalarFloat(*d)),
        VecCol::Scalar(Value::Null) => Some(NumView::ScalarNull),
        _ => None,
    }
}

impl NumView<'_> {
    fn all_int(&self) -> bool {
        matches!(
            self,
            NumView::Ints(..) | NumView::ScalarInt(_) | NumView::ScalarNull
        )
    }

    /// `(value, is_null)` as i64; only valid on int-shaped views.
    #[inline]
    fn int_at(&self, i: usize) -> (i64, bool) {
        match self {
            NumView::Ints(d, n) => (d[i], n.is_some_and(|n| n[i])),
            NumView::ScalarInt(v) => (*v, false),
            NumView::ScalarNull => (0, true),
            _ => unreachable!("int_at on float view"),
        }
    }

    /// The value at `i` with its own numeric type (`Null` when null), for
    /// comparisons: `Value`'s order is exact across INTEGER and DOUBLE.
    #[inline]
    fn value_at(&self, i: usize) -> Value {
        let null = |n: &Option<&[bool]>| n.is_some_and(|n| n[i]);
        match self {
            NumView::Ints(d, n) if !null(n) => Value::Integer(d[i]),
            NumView::Floats(d, n) if !null(n) => Value::Double(d[i]),
            NumView::ScalarInt(v) => Value::Integer(*v),
            NumView::ScalarFloat(v) => Value::Double(*v),
            _ => Value::Null,
        }
    }

    /// `(value, is_null)` widened to f64 (arithmetic only).
    #[inline]
    fn f64_at(&self, i: usize) -> (f64, bool) {
        match self {
            NumView::Ints(d, n) => (d[i] as f64, n.is_some_and(|n| n[i])),
            NumView::Floats(d, n) => (d[i], n.is_some_and(|n| n[i])),
            NumView::ScalarInt(v) => (*v as f64, false),
            NumView::ScalarFloat(v) => (*v, false),
            NumView::ScalarNull => (0.0, true),
        }
    }
}

/// A materialized projection chunk in its tightest representation: typed
/// vectors for all-numeric outputs (the aggregate fold reads these
/// without constructing a `Value` per row), owned values otherwise.
#[derive(Debug)]
pub enum EvalChunk {
    /// All-Integer output; `nulls[i]` marks NULL rows.
    Ints {
        /// Row values (garbage where null).
        data: Vec<i64>,
        /// Per-row null mask, if any row is NULL.
        nulls: Option<Vec<bool>>,
    },
    /// Double (or mixed Integer/Double, widened) output.
    Floats {
        /// Row values (garbage where null).
        data: Vec<f64>,
        /// Per-row null mask, if any row is NULL.
        nulls: Option<Vec<bool>>,
    },
    /// Any other output shape, one owned value per row.
    Values(Vec<Value>),
}

impl VectorKernel {
    /// Compile an expression into a kernel. Compilation never fails:
    /// unsupported sub-trees become row-at-a-time fallback nodes.
    pub fn compile(expr: &BoundExpr) -> VectorKernel {
        VectorKernel {
            prog: compile_node(expr),
        }
    }

    /// The input column index when the whole kernel is a bare column
    /// reference (`GROUP BY c`) — consumers can then read the batch
    /// column directly instead of evaluating the kernel into a clone.
    pub fn column_index(&self) -> Option<usize> {
        match self.prog {
            Node::Col(i) => Some(i),
            _ => None,
        }
    }

    /// True when the whole expression compiled to the row-at-a-time
    /// fallback (no vectorized node at all).
    pub fn is_fallback(&self) -> bool {
        matches!(self.prog, Node::Fallback(_))
    }

    /// Evaluate as a predicate: the logical rows of `batch` where the
    /// expression is TRUE, in row order.
    pub fn select(&self, batch: &RowBatch<'_>) -> Result<Vec<u32>, EngineError> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(Vec::new());
        }
        let out = eval_node(&self.prog, batch, rows, None)?;
        let tri = out.to_tri(rows);
        Ok(tri
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == TRUE)
            .map(|(i, _)| i as u32)
            .collect())
    }

    /// Evaluate as a projection: one output value per logical row.
    pub fn eval_column(&self, batch: &RowBatch<'_>) -> Result<Vec<Value>, EngineError> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(Vec::new());
        }
        let out = eval_node(&self.prog, batch, rows, None)?;
        Ok(out.into_values(rows))
    }

    /// Evaluate as a projection, keeping all-numeric outputs typed (the
    /// aggregate fold consumes [`EvalChunk::Ints`]/[`EvalChunk::Floats`]
    /// directly; everything else materializes as with
    /// [`eval_column`](VectorKernel::eval_column)).
    pub fn eval_chunk(&self, batch: &RowBatch<'_>) -> Result<EvalChunk, EngineError> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(EvalChunk::Values(Vec::new()));
        }
        Ok(match eval_node(&self.prog, batch, rows, None)? {
            VecCol::Int { data, nulls } => EvalChunk::Ints { data, nulls },
            VecCol::Float { data, nulls } => EvalChunk::Floats { data, nulls },
            other => EvalChunk::Values(other.into_values(rows)),
        })
    }
}

fn compile_node(expr: &BoundExpr) -> Node {
    match expr {
        BoundExpr::Literal(v) => Node::Lit(v.clone()),
        BoundExpr::Column { index, .. } => Node::Col(*index),
        BoundExpr::Binary { op, left, right } => match op {
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => Node::Cmp {
                op: *op,
                left: Box::new(compile_node(left)),
                right: Box::new(compile_node(right)),
            },
            BinaryOp::Plus
            | BinaryOp::Minus
            | BinaryOp::Multiply
            | BinaryOp::Divide
            | BinaryOp::Modulo => Node::Arith {
                op: *op,
                left: Box::new(compile_node(left)),
                right: Box::new(compile_node(right)),
            },
            BinaryOp::And => Node::And(Box::new(compile_node(left)), Box::new(compile_node(right))),
            BinaryOp::Or => Node::Or(Box::new(compile_node(left)), Box::new(compile_node(right))),
            BinaryOp::Concat => Node::Fallback(expr.clone()),
        },
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: inner,
        } if is_boolean_shaped(inner) => Node::Not(Box::new(compile_node(inner))),
        BoundExpr::IsNull {
            expr: inner,
            negated,
        } => Node::IsNull {
            input: Box::new(compile_node(inner)),
            negated: *negated,
        },
        BoundExpr::InSet {
            expr: inner,
            set,
            has_null,
            negated,
        } => Node::InSet {
            input: Box::new(compile_node(inner)),
            set: Arc::clone(set),
            has_null: *has_null,
            negated: *negated,
        },
        // CASE, CAST, LIKE, IN-list, scalar functions, +/-, CONCAT, …:
        // evaluated row-at-a-time as one opaque sub-tree.
        other => Node::Fallback(other.clone()),
    }
}

/// True when evaluating the expression can only yield BOOLEAN or NULL, so
/// a tri-state kernel can't silently swallow `eval`'s type errors.
fn is_boolean_shaped(expr: &BoundExpr) -> bool {
    match expr {
        BoundExpr::Literal(v) => matches!(v, Value::Boolean(_) | Value::Null),
        BoundExpr::Column { ty, .. } => *ty == Some(DataType::Boolean),
        BoundExpr::Binary { op, left, right } => match op {
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => true,
            BinaryOp::And | BinaryOp::Or => is_boolean_shaped(left) && is_boolean_shaped(right),
            _ => false,
        },
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => is_boolean_shaped(expr),
        BoundExpr::IsNull { .. } | BoundExpr::InSet { .. } | BoundExpr::Like { .. } => true,
        _ => false,
    }
}

/// Evaluate one node over the chunk. `active` masks the rows whose results
/// will actually be observed: loops still fill every slot (with NULL
/// placeholders), but errors are only raised for active rows, which is
/// what preserves per-row short-circuit semantics under `AND`/`OR`.
fn eval_node<'b>(
    node: &Node,
    batch: &'b RowBatch<'_>,
    rows: usize,
    active: Option<&[bool]>,
) -> Result<VecCol<'b>, EngineError> {
    #[inline]
    fn live(active: Option<&[bool]>, i: usize) -> bool {
        active.is_none_or(|m| m[i])
    }
    match node {
        Node::Lit(v) => Ok(VecCol::Scalar(v.clone())),
        Node::Col(index) => {
            if *index >= batch.width() {
                return Err(EngineError::execution(format!(
                    "column index {index} out of range"
                )));
            }
            Ok(extract_column(batch, *index, rows))
        }
        Node::Cmp { op, left, right } => {
            let l = eval_node(left, batch, rows, active)?;
            let r = eval_node(right, batch, rows, active)?;
            compare_chunks(*op, &l, &r, rows, active)
        }
        Node::Arith { op, left, right } => {
            let l = eval_node(left, batch, rows, active)?;
            let r = eval_node(right, batch, rows, active)?;
            arith_chunks(*op, &l, &r, rows, active)
        }
        Node::And(left, right) => {
            let lt = eval_node(left, batch, rows, active)?.to_tri(rows);
            // Rows already decided FALSE never observe the right operand.
            let rmask: Vec<bool> = (0..rows)
                .map(|i| live(active, i) && lt[i] != FALSE)
                .collect();
            let rt = eval_node(right, batch, rows, Some(&rmask))?.to_tri(rows);
            Ok(VecCol::Tri(
                (0..rows)
                    .map(|i| match (lt[i], rt[i]) {
                        (FALSE, _) | (_, FALSE) => FALSE,
                        (TRUE, TRUE) => TRUE,
                        _ => NULL,
                    })
                    .collect(),
            ))
        }
        Node::Or(left, right) => {
            let lt = eval_node(left, batch, rows, active)?.to_tri(rows);
            let rmask: Vec<bool> = (0..rows)
                .map(|i| live(active, i) && lt[i] != TRUE)
                .collect();
            let rt = eval_node(right, batch, rows, Some(&rmask))?.to_tri(rows);
            Ok(VecCol::Tri(
                (0..rows)
                    .map(|i| match (lt[i], rt[i]) {
                        (TRUE, _) | (_, TRUE) => TRUE,
                        (FALSE, FALSE) => FALSE,
                        _ => NULL,
                    })
                    .collect(),
            ))
        }
        Node::Not(inner) => {
            let t = eval_node(inner, batch, rows, active)?.to_tri(rows);
            Ok(VecCol::Tri(
                t.iter()
                    .map(|&v| match v {
                        TRUE => FALSE,
                        FALSE => TRUE,
                        _ => NULL,
                    })
                    .collect(),
            ))
        }
        Node::IsNull { input, negated } => {
            let v = eval_node(input, batch, rows, active)?;
            let isnull_at = |i: usize| -> bool {
                match &v {
                    VecCol::Int { nulls, .. } | VecCol::Float { nulls, .. } => {
                        nulls.as_ref().is_some_and(|n| n[i])
                    }
                    VecCol::Tri(t) => t[i] == NULL,
                    VecCol::Refs(refs) => refs[i].is_null(),
                    VecCol::Owned(vals) => vals[i].is_null(),
                    VecCol::Scalar(s) => s.is_null(),
                }
            };
            Ok(VecCol::Tri(
                (0..rows)
                    .map(|i| {
                        if isnull_at(i) != *negated {
                            TRUE
                        } else {
                            FALSE
                        }
                    })
                    .collect(),
            ))
        }
        Node::InSet {
            input,
            set,
            has_null,
            negated,
        } => {
            let v = eval_node(input, batch, rows, active)?;
            Ok(VecCol::Tri(
                (0..rows)
                    .map(|i| {
                        let probe = v.value_at(i);
                        if probe.is_null() {
                            NULL
                        } else if set.contains(probe.as_ref()) {
                            if *negated {
                                FALSE
                            } else {
                                TRUE
                            }
                        } else if *has_null {
                            NULL
                        } else if *negated {
                            TRUE
                        } else {
                            FALSE
                        }
                    })
                    .collect(),
            ))
        }
        Node::Fallback(expr) => {
            let mut out = Vec::with_capacity(rows);
            for i in 0..rows {
                if live(active, i) {
                    out.push(expr.eval(&batch.row_view(i))?);
                } else {
                    out.push(Value::Null);
                }
            }
            Ok(VecCol::Owned(out))
        }
    }
}

/// Extract one batch column as the tightest chunk representation its
/// values allow: all-Integer → `Int`, Integer/Double mix → `Float`,
/// all-Boolean → `Tri`, anything else → borrowed refs.
fn extract_column<'b>(batch: &'b RowBatch<'_>, index: usize, rows: usize) -> VecCol<'b> {
    let col = batch.column(index);
    let mut ints: Vec<i64> = Vec::with_capacity(rows);
    let mut nulls: Option<Vec<bool>> = None;
    let mut i = 0;
    while i < rows {
        match col.get(i) {
            Value::Integer(v) => ints.push(*v),
            Value::Null => {
                nulls.get_or_insert_with(|| vec![false; rows])[i] = true;
                ints.push(0);
            }
            Value::Double(_) => {
                // Upgrade to a float chunk, re-reading from the top —
                // unless an integer beyond ±2^53 would lose the exactness
                // comparisons are owed.
                let widened: Option<Vec<f64>> = ints.iter().map(|&v| exact_f64(v)).collect();
                let Some(mut floats) = widened else {
                    return refs_column(batch, index, rows);
                };
                while i < rows {
                    match col.get(i) {
                        Value::Integer(v) => match exact_f64(*v) {
                            Some(f) => floats.push(f),
                            None => return refs_column(batch, index, rows),
                        },
                        Value::Double(d) => floats.push(*d),
                        Value::Null => {
                            nulls.get_or_insert_with(|| vec![false; rows])[i] = true;
                            floats.push(0.0);
                        }
                        _ => return refs_column(batch, index, rows),
                    }
                    i += 1;
                }
                return VecCol::Float {
                    data: floats,
                    nulls,
                };
            }
            Value::Boolean(_) if ints.is_empty() && nulls.is_none() => {
                return bool_column(batch, index, rows)
            }
            _ => return refs_column(batch, index, rows),
        }
        i += 1;
    }
    VecCol::Int { data: ints, nulls }
}

/// `v` as a double, when that loses nothing.
fn exact_f64(v: i64) -> Option<f64> {
    let (nearest, rem) = NumKey::Int(v).split();
    (rem == 0).then_some(nearest)
}

fn bool_column<'b>(batch: &'b RowBatch<'_>, index: usize, rows: usize) -> VecCol<'b> {
    let col = batch.column(index);
    let mut tri = Vec::with_capacity(rows);
    for i in 0..rows {
        match col.get(i) {
            Value::Boolean(true) => tri.push(TRUE),
            Value::Boolean(false) => tri.push(FALSE),
            Value::Null => tri.push(NULL),
            _ => return refs_column(batch, index, rows),
        }
    }
    VecCol::Tri(tri)
}

fn refs_column<'b>(batch: &'b RowBatch<'_>, index: usize, rows: usize) -> VecCol<'b> {
    let col = batch.column(index);
    VecCol::Refs((0..rows).map(|i| col.get(i)).collect())
}

fn compare_chunks<'b>(
    op: BinaryOp,
    l: &VecCol<'b>,
    r: &VecCol<'b>,
    rows: usize,
    active: Option<&[bool]>,
) -> Result<VecCol<'b>, EngineError> {
    if let (Some(lv), Some(rv)) = (num_view(l), num_view(r)) {
        let mut out = Vec::with_capacity(rows);
        if lv.all_int() && rv.all_int() {
            for i in 0..rows {
                let (a, an) = lv.int_at(i);
                let (b, bn) = rv.int_at(i);
                out.push(if an || bn {
                    NULL
                } else {
                    tri_from_ord(a.cmp(&b), op)
                });
            }
        } else {
            for i in 0..rows {
                let (a, b) = (lv.value_at(i), rv.value_at(i));
                out.push(if a.is_null() || b.is_null() {
                    NULL
                } else {
                    tri_from_ord(a.total_cmp(&b), op)
                });
            }
        }
        return Ok(VecCol::Tri(out));
    }
    // Generic path: reference comparison with SQL semantics; type errors
    // surface only for rows that are actually observed.
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        if !active.is_none_or(|m| m[i]) {
            out.push(NULL);
            continue;
        }
        let a = l.value_at(i);
        let b = r.value_at(i);
        if a.is_null() || b.is_null() {
            out.push(NULL);
        } else {
            out.push(tri_from_ord(sql_compare(a.as_ref(), b.as_ref())?, op));
        }
    }
    Ok(VecCol::Tri(out))
}

#[inline]
fn tri_from_ord(ord: std::cmp::Ordering, op: BinaryOp) -> i8 {
    let b = match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => !ord.is_eq(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!("not a comparison"),
    };
    if b {
        TRUE
    } else {
        FALSE
    }
}

fn arith_chunks<'b>(
    op: BinaryOp,
    l: &VecCol<'b>,
    r: &VecCol<'b>,
    rows: usize,
    active: Option<&[bool]>,
) -> Result<VecCol<'b>, EngineError> {
    #[inline]
    fn live(active: Option<&[bool]>, i: usize) -> bool {
        active.is_none_or(|m| m[i])
    }
    if let (Some(lv), Some(rv)) = (num_view(l), num_view(r)) {
        if lv.all_int() && rv.all_int() {
            let mut data = Vec::with_capacity(rows);
            let mut nulls: Option<Vec<bool>> = None;
            for i in 0..rows {
                let (a, an) = lv.int_at(i);
                let (b, bn) = rv.int_at(i);
                if an || bn {
                    nulls.get_or_insert_with(|| vec![false; rows])[i] = true;
                    data.push(0);
                    continue;
                }
                if !live(active, i) {
                    nulls.get_or_insert_with(|| vec![false; rows])[i] = true;
                    data.push(0);
                    continue;
                }
                let v = match op {
                    BinaryOp::Plus => a.checked_add(b),
                    BinaryOp::Minus => a.checked_sub(b),
                    BinaryOp::Multiply => a.checked_mul(b),
                    BinaryOp::Divide => {
                        if b == 0 {
                            return Err(EngineError::execution("division by zero"));
                        }
                        a.checked_div(b)
                    }
                    BinaryOp::Modulo => {
                        if b == 0 {
                            return Err(EngineError::execution("modulo by zero"));
                        }
                        a.checked_rem(b)
                    }
                    _ => unreachable!("not arithmetic"),
                };
                match v {
                    Some(v) => data.push(v),
                    None => return Err(EngineError::execution("integer overflow")),
                }
            }
            return Ok(VecCol::Int { data, nulls });
        }
        let mut data = Vec::with_capacity(rows);
        let mut nulls: Option<Vec<bool>> = None;
        for i in 0..rows {
            let (a, an) = lv.f64_at(i);
            let (b, bn) = rv.f64_at(i);
            if an || bn || !live(active, i) {
                nulls.get_or_insert_with(|| vec![false; rows])[i] = true;
                data.push(0.0);
                continue;
            }
            let v = match op {
                BinaryOp::Plus => a + b,
                BinaryOp::Minus => a - b,
                BinaryOp::Multiply => a * b,
                BinaryOp::Divide => {
                    if b == 0.0 {
                        return Err(EngineError::execution("division by zero"));
                    }
                    a / b
                }
                BinaryOp::Modulo => {
                    if b == 0.0 {
                        return Err(EngineError::execution("modulo by zero"));
                    }
                    a % b
                }
                _ => unreachable!("not arithmetic"),
            };
            data.push(v);
        }
        return Ok(VecCol::Float { data, nulls });
    }
    // Generic path (dates, type errors): per-row with SQL null propagation.
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        if !live(active, i) {
            out.push(Value::Null);
            continue;
        }
        let a = l.value_at(i);
        let b = r.value_at(i);
        if a.is_null() || b.is_null() {
            out.push(Value::Null);
        } else {
            out.push(eval_arith(op, a.as_ref(), b.as_ref())?);
        }
    }
    Ok(VecCol::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::batch::RowBatch;

    fn i(v: i64) -> Value {
        Value::Integer(v)
    }

    fn col(idx: usize, ty: DataType) -> BoundExpr {
        BoundExpr::Column {
            index: idx,
            ty: Some(ty),
            name: format!("c{idx}"),
        }
    }

    fn bin(op: BinaryOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn batch_of(values: Vec<Vec<Value>>) -> RowBatch<'static> {
        RowBatch::from_columns(values)
    }

    #[test]
    fn integer_comparison_selects() {
        let b = batch_of(vec![vec![i(1), i(5), Value::Null, i(3)]]);
        let k = VectorKernel::compile(&bin(BinaryOp::Gt, col(0, DataType::Integer), lit(2i64)));
        assert!(!k.is_fallback());
        assert_eq!(k.select(&b).unwrap(), vec![1, 3]);
    }

    #[test]
    fn mixed_numeric_chunk_compares_as_float() {
        let b = batch_of(vec![vec![i(1), Value::Double(2.5), i(3)]]);
        let k = VectorKernel::compile(&bin(BinaryOp::GtEq, col(0, DataType::Double), lit(2.5f64)));
        assert_eq!(k.select(&b).unwrap(), vec![1, 2]);
    }

    #[test]
    fn text_comparison_borrows() {
        let b = batch_of(vec![vec![Value::from("a"), Value::from("b"), Value::Null]]);
        let k = VectorKernel::compile(&bin(BinaryOp::Eq, col(0, DataType::Varchar), lit("b")));
        assert_eq!(k.select(&b).unwrap(), vec![1]);
    }

    #[test]
    fn kleene_and_short_circuits_errors() {
        // v <> 0 AND 10 / v > 1: row-at-a-time eval never divides where
        // v = 0, so the kernel must not either.
        let b = batch_of(vec![vec![i(0), i(4), i(20)]]);
        let pred = bin(
            BinaryOp::And,
            bin(BinaryOp::NotEq, col(0, DataType::Integer), lit(0i64)),
            bin(
                BinaryOp::Gt,
                bin(BinaryOp::Divide, lit(10i64), col(0, DataType::Integer)),
                lit(1i64),
            ),
        );
        let k = VectorKernel::compile(&pred);
        assert_eq!(k.select(&b).unwrap(), vec![1]);
    }

    #[test]
    fn division_by_zero_still_errors_when_reached() {
        let b = batch_of(vec![vec![i(0), i(4)]]);
        let pred = bin(
            BinaryOp::Gt,
            bin(BinaryOp::Divide, lit(10i64), col(0, DataType::Integer)),
            lit(1i64),
        );
        assert!(VectorKernel::compile(&pred).select(&b).is_err());
    }

    #[test]
    fn arithmetic_projection_matches_eval() {
        let b = batch_of(vec![
            vec![i(1), Value::Null, i(3)],
            vec![i(10), i(20), i(30)],
        ]);
        let e = bin(
            BinaryOp::Plus,
            bin(BinaryOp::Multiply, col(0, DataType::Integer), lit(2i64)),
            col(1, DataType::Integer),
        );
        let k = VectorKernel::compile(&e);
        let got = k.eval_column(&b).unwrap();
        let want: Vec<Value> = (0..3).map(|r| e.eval(&b.row_view(r)).unwrap()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fallback_shapes_still_work() {
        // CASE compiles to a fallback node but must evaluate correctly.
        let b = batch_of(vec![vec![i(-1), i(2)]]);
        let e = BoundExpr::Case {
            branches: vec![(
                bin(BinaryOp::Gt, col(0, DataType::Integer), lit(0i64)),
                lit("pos"),
            )],
            else_result: Some(Box::new(lit("nonpos"))),
        };
        let k = VectorKernel::compile(&e);
        assert!(k.is_fallback());
        assert_eq!(
            k.eval_column(&b).unwrap(),
            vec![Value::from("nonpos"), Value::from("pos")]
        );
    }

    #[test]
    fn boolean_column_equals_literal() {
        let b = batch_of(vec![vec![
            Value::Boolean(true),
            Value::Boolean(false),
            Value::Null,
        ]]);
        let k = VectorKernel::compile(&bin(BinaryOp::Eq, col(0, DataType::Boolean), lit(true)));
        assert_eq!(k.select(&b).unwrap(), vec![0]);
    }

    #[test]
    fn out_of_range_column_errors_like_eval() {
        let b = batch_of(vec![vec![i(1)]]);
        let k = VectorKernel::compile(&col(7, DataType::Integer));
        assert!(k.eval_column(&b).is_err());
    }
}
