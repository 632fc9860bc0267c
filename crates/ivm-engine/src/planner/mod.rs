//! Logical plans, the AST → plan binder, and physical lowering.

mod binder;
pub mod physical;

pub use binder::plan_query;
pub(crate) use binder::{plan_template, QueryBinder};
pub use physical::{lower, PhysicalPlan};

use ivm_sql::ast::JoinKind;

use crate::expr::{AggExpr, BoundExpr};
use crate::schema::Schema;

/// Set operations at the plan level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// Bag/set union.
    Union,
    /// Bag/set difference.
    Except,
    /// Bag/set intersection.
    Intersect,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Expression over the input row.
    pub expr: BoundExpr,
    /// Descending order.
    pub desc: bool,
}

/// A relational logical plan. This is what the OpenIVM rewriter transforms:
/// leaves are substituted (`T → ΔT`) and operators rewritten bottom-up into
/// their DBSP incremental forms before the plan is lowered back to SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base table scan.
    Scan {
        /// Catalog table name.
        table: String,
        /// Output columns (the table schema).
        schema: Schema,
    },
    /// A single row with no columns (`SELECT 1` with no FROM).
    Dual {
        /// Empty schema.
        schema: Schema,
    },
    /// Row filter.
    Filter {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Boolean predicate over input rows.
        predicate: BoundExpr,
    },
    /// Column projection / computation.
    Project {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// One expression per output column.
        exprs: Vec<BoundExpr>,
        /// Output columns.
        schema: Schema,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Group-by expressions (over the input row).
        group: Vec<BoundExpr>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
        /// Output columns: group keys then aggregate results.
        schema: Schema,
    },
    /// Join.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// INNER/LEFT/RIGHT/FULL/CROSS.
        kind: JoinKind,
        /// ON condition over the concatenated row, absent for CROSS.
        on: Option<BoundExpr>,
        /// Output columns: left then right.
        schema: Schema,
    },
    /// UNION / EXCEPT / INTERSECT.
    SetOp {
        /// Which set operation.
        op: SetOpKind,
        /// Bag semantics (ALL) when true.
        all: bool,
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Output columns (names from the left input).
        schema: Schema,
    },
    /// Duplicate elimination over whole rows.
    Distinct {
        /// Input operator.
        input: Box<LogicalPlan>,
    },
    /// Sorting.
    Sort {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// LIMIT/OFFSET.
    Limit {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Maximum rows to emit.
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
    },
    /// The root of a statement with `IN (SELECT …)` subqueries: its plan
    /// and the bodies its [`BoundExpr::InSubquery`]s index. Only ever at
    /// the root.
    Subqueries {
        /// The statement's plan.
        input: Box<LogicalPlan>,
        /// One-column bodies, inner before outer: body `i` reads only
        /// bodies before it.
        subqueries: Vec<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Output schema of the operator.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Dual { schema }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::SetOp { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Subqueries { input, .. } => input.schema(),
        }
    }

    /// The operator's inputs, left to right (a subquery root's plan,
    /// then its bodies).
    pub(crate) fn inputs(&self) -> impl Iterator<Item = &LogicalPlan> {
        let (first, second, rest): (_, _, &[LogicalPlan]) = match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Dual { .. } => (None, None, &[]),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => (Some(&**input), None, &[]),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                (Some(&**left), Some(&**right), &[])
            }
            LogicalPlan::Subqueries { input, subqueries } => (Some(&**input), None, subqueries),
        };
        first.into_iter().chain(second).chain(rest)
    }

    /// [`inputs`](Self::inputs), mutably.
    pub(crate) fn inputs_mut(&mut self) -> impl Iterator<Item = &mut LogicalPlan> {
        let (first, second, rest): (_, _, &mut [LogicalPlan]) = match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Dual { .. } => (None, None, &mut []),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => (Some(&mut **input), None, &mut []),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                (Some(&mut **left), Some(&mut **right), &mut [])
            }
            LogicalPlan::Subqueries { input, subqueries } => (Some(&mut **input), None, subqueries),
        };
        first.into_iter().chain(second).chain(rest)
    }

    /// The expressions the operator evaluates itself (its inputs' not
    /// included): predicate, projections, group keys, aggregate
    /// arguments, join condition, sort keys.
    pub(crate) fn exprs_mut(&mut self) -> impl Iterator<Item = &mut BoundExpr> {
        let (one, list, aggs, keys): (_, &mut [BoundExpr], &mut [AggExpr], &mut [SortKey]) =
            match self {
                LogicalPlan::Filter { predicate, .. } => {
                    (Some(predicate), &mut [], &mut [], &mut [])
                }
                LogicalPlan::Join { on, .. } => (on.as_mut(), &mut [], &mut [], &mut []),
                LogicalPlan::Project { exprs, .. } => (None, exprs, &mut [], &mut []),
                LogicalPlan::Aggregate { group, aggs, .. } => (None, group, aggs, &mut []),
                LogicalPlan::Sort { keys, .. } => (None, &mut [], &mut [], keys),
                LogicalPlan::Scan { .. }
                | LogicalPlan::Dual { .. }
                | LogicalPlan::SetOp { .. }
                | LogicalPlan::Distinct { .. }
                | LogicalPlan::Limit { .. }
                | LogicalPlan::Subqueries { .. } => (None, &mut [], &mut [], &mut []),
            };
        one.into_iter()
            .chain(list)
            .chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut()))
            .chain(keys.iter_mut().map(|k| &mut k.expr))
    }

    /// Render an indented EXPLAIN-style tree (stored in OpenIVM metadata
    /// tables as the "query plan" property).
    pub fn explain(&self) -> String {
        fn fmt(plan: &LogicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let line = match plan {
                LogicalPlan::Scan { table, .. } => format!("Scan {table}"),
                LogicalPlan::Dual { .. } => "Dual".to_string(),
                LogicalPlan::Filter { .. } => "Filter".to_string(),
                LogicalPlan::Project { schema, .. } => {
                    format!("Project [{}]", schema.names().join(", "))
                }
                LogicalPlan::Aggregate { group, aggs, .. } => format!(
                    "Aggregate groups={} aggs=[{}]",
                    group.len(),
                    aggs.iter()
                        .map(|a| a.func.name().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                LogicalPlan::Join { kind, .. } => format!("Join {}", kind.as_str()),
                LogicalPlan::SetOp { op, all, .. } => {
                    format!("SetOp {:?}{}", op, if *all { " ALL" } else { "" })
                }
                LogicalPlan::Distinct { .. } => "Distinct".to_string(),
                LogicalPlan::Sort { keys, .. } => format!("Sort keys={}", keys.len()),
                LogicalPlan::Limit { limit, offset, .. } => {
                    format!("Limit limit={limit:?} offset={offset}")
                }
                LogicalPlan::Subqueries { subqueries, .. } => {
                    format!("Subqueries {}", subqueries.len())
                }
            };
            out.push_str(&pad);
            out.push_str(&line);
            out.push('\n');
            for input in plan.inputs() {
                fmt(input, depth + 1, out);
            }
        }
        let mut out = String::new();
        fmt(self, 0, &mut out);
        out
    }
}
