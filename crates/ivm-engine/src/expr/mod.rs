//! Bound (resolved, typed) expressions and their evaluation.

pub mod bind;
pub mod eval;
mod funcs;
pub mod vector;

pub use bind::{BindColumn, Scope};
pub use eval::like_match;
pub use funcs::{AggFunc, ScalarFunc};
pub use vector::{EvalChunk, VectorKernel};

use ivm_sql::ast::{BinaryOp, UnaryOp};

use crate::types::DataType;
use crate::value::Value;

/// A name-resolved expression evaluated against a row of the child
/// operator's output. `BETWEEN` is desugared at bind time; `COALESCE` and
/// friends become [`ScalarFunc`] calls; aggregate calls never appear here —
/// the planner extracts them into the Aggregate operator.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// A constant.
    Literal(Value),
    /// Parameter `slot` of a cached plan template, of literal type `ty`.
    /// Instantiation replaces it with the statement's value before the
    /// plan runs, so no operator evaluates one; constant folding leaves
    /// it alone.
    Param {
        /// Index into the statement's lifted values.
        slot: usize,
        /// The value's type, part of the template's cache key.
        ty: DataType,
    },
    /// Reference to column `index` of the input row.
    Column {
        /// Position in the input row.
        index: usize,
        /// Static type, when known.
        ty: Option<DataType>,
        /// Display name (for EXPLAIN-style output and projection naming).
        name: String,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// `CASE` expression (operand form desugared into searched form).
    Case {
        /// `(when, then)` pairs.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// `ELSE` result (NULL if absent).
        else_result: Option<Box<BoundExpr>>,
    },
    /// `CAST(expr AS ty)`.
    Cast {
        /// Operand.
        expr: Box<BoundExpr>,
        /// Target type.
        ty: DataType,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<BoundExpr>,
        /// IS NOT NULL when true.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Probe expression.
        expr: Box<BoundExpr>,
        /// Candidate values.
        list: Vec<BoundExpr>,
        /// NOT IN when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Matched string.
        expr: Box<BoundExpr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: Box<BoundExpr>,
        /// NOT LIKE when true.
        negated: bool,
    },
    /// Scalar function call.
    ScalarFn {
        /// Which function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
    /// `expr [NOT] IN (subquery)` before the subquery has run. The body
    /// is not held here: it is entry `subquery` of the statement's
    /// subquery list, which the binder collects (inner bodies before
    /// outer ones) and the plan carries at its root
    /// ([`crate::planner::LogicalPlan::Subqueries`]). Instantiating the
    /// plan runs each body once and turns this into [`Self::InSet`];
    /// evaluating it directly is an error.
    InSubquery {
        /// Probe expression.
        expr: Box<BoundExpr>,
        /// Index of the body, an uncorrelated one-column query, in the
        /// statement's subquery list.
        subquery: usize,
        /// NOT IN when true.
        negated: bool,
    },
    /// Membership test against a materialized value set: what
    /// instantiation makes of [`Self::InSubquery`] once its body ran.
    InSet {
        /// Probe expression.
        expr: Box<BoundExpr>,
        /// Materialized subquery values.
        set: std::sync::Arc<std::collections::HashSet<Value>>,
        /// Whether the subquery produced any NULL (three-valued IN).
        has_null: bool,
        /// NOT IN when true.
        negated: bool,
    },
}

/// The rows of one subquery body as an [`BoundExpr::InSet`] holds them:
/// its non-NULL values and whether it produced a NULL.
pub(crate) type SubquerySet = (std::sync::Arc<std::collections::HashSet<Value>>, bool);

impl BoundExpr {
    /// Static result type, when inferable (NULL literals and some function
    /// results are unknown until runtime).
    pub fn ty(&self) -> Option<DataType> {
        match self {
            BoundExpr::Literal(v) => v.data_type(),
            BoundExpr::Param { ty, .. } => Some(*ty),
            BoundExpr::Column { ty, .. } => *ty,
            BoundExpr::Binary { op, left, right } => match op {
                BinaryOp::Or
                | BinaryOp::And
                | BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq => Some(DataType::Boolean),
                BinaryOp::Concat => Some(DataType::Varchar),
                BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Modulo => {
                    match (left.ty(), right.ty()) {
                        (Some(a), Some(b)) => DataType::promote(a, b),
                        (Some(a), None) | (None, Some(a)) => Some(a),
                        (None, None) => None,
                    }
                }
                BinaryOp::Divide => match (left.ty(), right.ty()) {
                    (Some(DataType::Integer), Some(DataType::Integer)) => Some(DataType::Integer),
                    (Some(a), Some(b)) => DataType::promote(a, b),
                    _ => None,
                },
            },
            BoundExpr::Unary { op, expr } => match op {
                UnaryOp::Not => Some(DataType::Boolean),
                UnaryOp::Minus | UnaryOp::Plus => expr.ty(),
            },
            BoundExpr::Case {
                branches,
                else_result,
            } => branches
                .iter()
                .map(|(_, t)| t.ty())
                .chain(else_result.iter().map(|e| e.ty()))
                .flatten()
                .next(),
            BoundExpr::Cast { ty, .. } => Some(*ty),
            BoundExpr::IsNull { .. } | BoundExpr::InList { .. } | BoundExpr::Like { .. } => {
                Some(DataType::Boolean)
            }
            BoundExpr::ScalarFn { func, args } => func.return_type(args),
            BoundExpr::InSubquery { .. } | BoundExpr::InSet { .. } => Some(DataType::Boolean),
        }
    }

    /// True when the expression references no input columns (a constant).
    /// Subqueries read tables and parameters are bound per statement, so
    /// neither is constant.
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.visit(&mut |e| {
            if matches!(
                e,
                BoundExpr::Column { .. } | BoundExpr::Param { .. } | BoundExpr::InSubquery { .. }
            ) {
                constant = false;
            }
        });
        constant
    }

    /// Collect the column indexes this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        self.visit(&mut |e| {
            if let BoundExpr::Column { index, .. } = e {
                if !out.contains(index) {
                    out.push(*index);
                }
            }
        });
    }

    /// Rewrite every column index through `map` (old index → new index).
    /// Used by optimizer rules when reshaping operator inputs.
    pub fn remap_columns(&mut self, map: &impl Fn(usize) -> usize) {
        self.visit_mut(&mut |e| {
            if let BoundExpr::Column { index, .. } = e {
                *index = map(*index);
            }
        });
    }

    /// Call `f` on each direct operand, left to right. Of an
    /// `IN (SELECT …)` only the probe is one: the body lives in the plan.
    pub(crate) fn children(&self, mut f: impl FnMut(&BoundExpr)) {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Param { .. } | BoundExpr::Column { .. } => {}
            BoundExpr::Binary { left, right, .. }
            | BoundExpr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::InSubquery { expr, .. }
            | BoundExpr::InSet { expr, .. } => f(expr),
            BoundExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            BoundExpr::ScalarFn { args, .. } => args.iter().for_each(f),
            BoundExpr::Case {
                branches,
                else_result,
            } => {
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                if let Some(e) = else_result {
                    f(e);
                }
            }
        }
    }

    /// [`children`](Self::children), mutably.
    pub(crate) fn children_mut(&mut self, mut f: impl FnMut(&mut BoundExpr)) {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Param { .. } | BoundExpr::Column { .. } => {}
            BoundExpr::Binary { left, right, .. }
            | BoundExpr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::InSubquery { expr, .. }
            | BoundExpr::InSet { expr, .. } => f(expr),
            BoundExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            BoundExpr::ScalarFn { args, .. } => args.iter_mut().for_each(f),
            BoundExpr::Case {
                branches,
                else_result,
            } => {
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                if let Some(e) = else_result {
                    f(e);
                }
            }
        }
    }

    /// Call `f` on every node, parents before children.
    pub(crate) fn visit(&self, f: &mut impl FnMut(&BoundExpr)) {
        f(self);
        self.children(|c| c.visit(f));
    }

    /// [`visit`](Self::visit) with mutable access: `f` sees a node
    /// before the walk enters what it left there.
    pub(crate) fn visit_mut(&mut self, f: &mut impl FnMut(&mut BoundExpr)) {
        f(self);
        self.children_mut(|c| c.visit_mut(f));
    }
}

/// Flatten a predicate's top-level AND chain into its conjuncts (shared by
/// the optimizer's filter pushdown and the physical join lowering).
pub(crate) fn flatten_and(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
    if let BoundExpr::Binary {
        op: BinaryOp::And,
        left,
        right,
    } = e
    {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e.clone());
    }
}

/// One aggregate computed by an Aggregate operator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument (None only for `COUNT(*)`).
    pub arg: Option<BoundExpr>,
    /// DISTINCT aggregation.
    pub distinct: bool,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// Result type of this aggregate.
    pub fn ty(&self) -> Option<DataType> {
        match self.func {
            AggFunc::Count => Some(DataType::Integer),
            AggFunc::Avg => Some(DataType::Double),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => self.arg.as_ref().and_then(BoundExpr::ty),
        }
    }
}
