//! Logical plans, the AST → plan binder, and physical lowering.

mod binder;
pub mod physical;

pub use binder::plan_query;
pub(crate) use binder::plan_template;
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
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Names of the base tables this plan scans (deduplicated, in first-use
    /// order). Subquery plans inside `IN` predicates are included.
    pub fn scanned_tables(&self) -> Vec<String> {
        fn visit_expr(e: &BoundExpr, out: &mut Vec<String>) {
            if let BoundExpr::InSubquery { plan, .. } = e {
                walk(plan, out);
            }
        }
        fn walk(plan: &LogicalPlan, out: &mut Vec<String>) {
            match plan {
                LogicalPlan::Dual { .. } => {}
                LogicalPlan::Scan { table, .. } => {
                    if !out.contains(table) {
                        out.push(table.clone());
                    }
                }
                LogicalPlan::Filter { input, predicate } => {
                    walk(input, out);
                    visit_expr(predicate, out);
                }
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Distinct { input }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Aggregate { input, .. } => walk(input, out),
                LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
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
            };
            out.push_str(&pad);
            out.push_str(&line);
            out.push('\n');
            match plan {
                LogicalPlan::Scan { .. } | LogicalPlan::Dual { .. } => {}
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Distinct { input }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. } => fmt(input, depth + 1, out),
                LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                    fmt(left, depth + 1, out);
                    fmt(right, depth + 1, out);
                }
            }
        }
        let mut out = String::new();
        fmt(self, 0, &mut out);
        out
    }
}
