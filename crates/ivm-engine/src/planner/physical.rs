//! Physical plans: the executable form of a [`LogicalPlan`].
//!
//! Lowering decides *how* each operator runs, so the executor stays a dumb
//! pipeline driver:
//! - **join-side selection** — the estimated-smaller input becomes the hash
//!   join's build side (RIGHT joins are mirrored; a restoring projection
//!   keeps the output column order);
//! - **build form** — a build side that is a bare scan of a table whose
//!   primary key is exactly the join's build keys, probed by no more rows
//!   than the table holds, is read through that key's index instead of
//!   being hashed (see `index_build_keys`);
//! - **equi-key extraction** — `a = b` conjuncts across the join split into
//!   build/probe key columns plus a residual predicate; every join is a
//!   hash join, one without an equi-key (CROSS, comma, non-equi) with
//!   empty key lists;
//! - **aggregate mode** — grouped hash aggregation vs. single-group
//!   (scalar) aggregation is fixed here, not probed per row.

use ivm_sql::ast::{BinaryOp, JoinKind};

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{flatten_and, AggExpr, BoundExpr};
use crate::planner::{LogicalPlan, SetOpKind, SortKey};
use crate::schema::Schema;
use crate::types::DataType;
use crate::value::Value;

/// Join semantics after lowering. RIGHT joins no longer exist physically:
/// they become a mirrored `LeftOuter` plus a column-restoring projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysJoinKind {
    /// Emit matching pairs only.
    Inner,
    /// Also emit unmatched probe-side rows, padded with NULLs.
    LeftOuter,
    /// Also emit unmatched rows from both sides.
    FullOuter,
}

/// Aggregation mode, decided at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// No GROUP BY: one output row, even for empty input.
    Ungrouped,
    /// GROUP BY: hash-partitioned groups, first-seen output order.
    HashGrouped,
}

/// An executable operator tree. Children are in pull order: the executor
/// asks the root for batches and demand propagates down.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Batched scan over a base table's column vectors, optionally with a
    /// pushed-down predicate evaluated per storage chunk.
    TableScan {
        /// Catalog table name.
        table: String,
        /// Table schema.
        schema: Schema,
        /// Pushed-down filter over the table's columns (`None` = full scan).
        predicate: Option<BoundExpr>,
        /// The `column = literal` conjuncts of `predicate` that fix every
        /// column of the table's primary key, in key order (column
        /// position, literal value): the key of an ART point read. Empty
        /// when any key column is left open, or the table has no key.
        index_eq: Vec<(usize, Value)>,
    },
    /// A single zero-column row (`SELECT 1` with no FROM).
    Dual,
    /// Streaming row filter.
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Boolean predicate over input rows.
        predicate: BoundExpr,
    },
    /// Streaming projection / computation.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// One expression per output column.
        exprs: Vec<BoundExpr>,
        /// Output columns.
        schema: Schema,
    },
    /// Build-probe hash join on extracted equi-keys — the one join. With
    /// no equi-key (CROSS, comma and non-equi joins) both key lists are
    /// empty: every build row is a candidate for every probe row, and the
    /// residual is the whole ON clause.
    HashJoin {
        /// Streamed side; its rows lead the output layout.
        probe: Box<PhysicalPlan>,
        /// Materialized side the hash table is built over.
        build: Box<PhysicalPlan>,
        /// Probe-side key column positions (possibly none).
        probe_keys: Vec<usize>,
        /// Build-side key column positions (parallel to `probe_keys`).
        build_keys: Vec<usize>,
        /// Non-equi leftovers of the ON clause, evaluated over
        /// `probe_row ++ build_row` (`None` when there are none, or for
        /// CROSS).
        residual: Option<BoundExpr>,
        /// Join semantics (probe side is the preserved side).
        join: PhysJoinKind,
        /// Whether the build side is read through its table's primary-key
        /// index instead of being hashed. Only set on an `Inner` or
        /// `LeftOuter` join whose `build` is a bare `TableScan` keyed on
        /// exactly that key, in key order: such a join has no build state
        /// — nothing is materialized, partitioned, spilled or shared —
        /// and each probe row descends the index.
        index_build: bool,
        /// Output columns: probe then build.
        schema: Schema,
    },
    /// Hash aggregation.
    HashAggregate {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Group-by expressions.
        group: Vec<BoundExpr>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
        /// Grouped vs. single-group execution.
        mode: AggMode,
        /// Output columns: group keys then aggregate results.
        schema: Schema,
    },
    /// UNION ALL / EXCEPT ALL / INTERSECT ALL — bag semantics only (UNION
    /// streams both sides; EXCEPT/INTERSECT materialize the right side and
    /// stream the left); set semantics lower to a duplicate-dropping
    /// [`PhysicalPlan::HashAggregate`] around them.
    SetOp {
        /// Which set operation.
        op: SetOpKind,
        /// Streamed input.
        left: Box<PhysicalPlan>,
        /// Materialized input.
        right: Box<PhysicalPlan>,
        /// Output columns.
        schema: Schema,
    },
    /// Full sort (pipeline breaker).
    Sort {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Bounded-heap `ORDER BY … LIMIT k` (keeps `limit + offset` rows).
    TopK {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
        /// Maximum rows to emit after the offset.
        limit: usize,
        /// Rows to skip.
        offset: usize,
    },
    /// Streaming LIMIT/OFFSET with early termination.
    Limit {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Maximum rows to emit.
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
    },
    /// A plan template's root when its statement has `IN (SELECT …)`
    /// subqueries (see [`LogicalPlan::Subqueries`]). Instantiating the
    /// template for a run executes each body once, fills in the sets and
    /// drops this node, so the executor never meets it.
    Subqueries {
        /// The statement's plan.
        input: Box<PhysicalPlan>,
        /// One-column bodies, inner before outer.
        subqueries: Vec<PhysicalPlan>,
    },
}

static EMPTY_SCHEMA: Schema = Schema {
    columns: Vec::new(),
};

impl PhysicalPlan {
    /// Output schema of the operator.
    pub fn schema(&self) -> &Schema {
        match self {
            PhysicalPlan::TableScan { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::HashJoin { schema, .. }
            | PhysicalPlan::HashAggregate { schema, .. }
            | PhysicalPlan::SetOp { schema, .. } => schema,
            PhysicalPlan::Dual => &EMPTY_SCHEMA,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TopK { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Subqueries { input, .. } => input.schema(),
        }
    }

    /// The operator's inputs, in pull order (a subquery root's plan,
    /// then its bodies).
    pub(crate) fn inputs(&self) -> impl Iterator<Item = &PhysicalPlan> {
        let (first, second, rest): (_, _, &[PhysicalPlan]) = match self {
            PhysicalPlan::TableScan { .. } | PhysicalPlan::Dual => (None, None, &[]),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TopK { input, .. }
            | PhysicalPlan::Limit { input, .. } => (Some(&**input), None, &[]),
            PhysicalPlan::HashJoin { probe, build, .. } => (Some(&**probe), Some(&**build), &[]),
            PhysicalPlan::SetOp { left, right, .. } => (Some(&**left), Some(&**right), &[]),
            PhysicalPlan::Subqueries { input, subqueries } => (Some(&**input), None, subqueries),
        };
        first.into_iter().chain(second).chain(rest)
    }

    /// [`inputs`](Self::inputs), mutably.
    pub(crate) fn inputs_mut(&mut self) -> impl Iterator<Item = &mut PhysicalPlan> {
        let (first, second, rest): (_, _, &mut [PhysicalPlan]) = match self {
            PhysicalPlan::TableScan { .. } | PhysicalPlan::Dual => (None, None, &mut []),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TopK { input, .. }
            | PhysicalPlan::Limit { input, .. } => (Some(&mut **input), None, &mut []),
            PhysicalPlan::HashJoin { probe, build, .. } => {
                (Some(&mut **probe), Some(&mut **build), &mut [])
            }
            PhysicalPlan::SetOp { left, right, .. } => {
                (Some(&mut **left), Some(&mut **right), &mut [])
            }
            PhysicalPlan::Subqueries { input, subqueries } => {
                (Some(&mut **input), None, subqueries)
            }
        };
        first.into_iter().chain(second).chain(rest)
    }

    /// The expressions the operator evaluates itself (its inputs' not
    /// included): predicates, projections, join residual, group keys,
    /// aggregate arguments, sort keys.
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &BoundExpr> {
        let (one, list, aggs, keys): (_, &[BoundExpr], &[AggExpr], &[SortKey]) = match self {
            PhysicalPlan::TableScan { predicate, .. }
            | PhysicalPlan::HashJoin {
                residual: predicate,
                ..
            } => (predicate.as_ref(), &[], &[], &[]),
            PhysicalPlan::Filter { predicate, .. } => (Some(predicate), &[], &[], &[]),
            PhysicalPlan::Project { exprs, .. } => (None, exprs, &[], &[]),
            PhysicalPlan::HashAggregate { group, aggs, .. } => (None, group, aggs, &[]),
            PhysicalPlan::Sort { keys, .. } | PhysicalPlan::TopK { keys, .. } => {
                (None, &[], &[], keys)
            }
            PhysicalPlan::Dual
            | PhysicalPlan::SetOp { .. }
            | PhysicalPlan::Limit { .. }
            | PhysicalPlan::Subqueries { .. } => (None, &[], &[], &[]),
        };
        one.into_iter()
            .chain(list)
            .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
            .chain(keys.iter().map(|k| &k.expr))
    }

    /// [`exprs`](Self::exprs), mutably.
    pub(crate) fn exprs_mut(&mut self) -> impl Iterator<Item = &mut BoundExpr> {
        let (one, list, aggs, keys): (_, &mut [BoundExpr], &mut [AggExpr], &mut [SortKey]) =
            match self {
                PhysicalPlan::TableScan { predicate, .. }
                | PhysicalPlan::HashJoin {
                    residual: predicate,
                    ..
                } => (predicate.as_mut(), &mut [], &mut [], &mut []),
                PhysicalPlan::Filter { predicate, .. } => {
                    (Some(predicate), &mut [], &mut [], &mut [])
                }
                PhysicalPlan::Project { exprs, .. } => (None, exprs, &mut [], &mut []),
                PhysicalPlan::HashAggregate { group, aggs, .. } => (None, group, aggs, &mut []),
                PhysicalPlan::Sort { keys, .. } | PhysicalPlan::TopK { keys, .. } => {
                    (None, &mut [], &mut [], keys)
                }
                PhysicalPlan::Dual
                | PhysicalPlan::SetOp { .. }
                | PhysicalPlan::Limit { .. }
                | PhysicalPlan::Subqueries { .. } => (None, &mut [], &mut [], &mut []),
            };
        one.into_iter()
            .chain(list)
            .chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut()))
            .chain(keys.iter_mut().map(|k| &mut k.expr))
    }

    /// Render an indented EXPLAIN-style tree of the physical operators.
    pub fn explain(&self) -> String {
        fn fmt(plan: &PhysicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let line = match plan {
                PhysicalPlan::TableScan {
                    table,
                    schema,
                    predicate,
                    index_eq,
                } => format!(
                    "TableScan {table}{}{}",
                    if predicate.is_some() {
                        " [filtered]"
                    } else {
                        ""
                    },
                    if index_eq.is_empty() {
                        String::new()
                    } else {
                        let keys: Vec<String> = index_eq
                            .iter()
                            .map(|(col, v)| format!("{} = {v}", schema.columns[*col].name))
                            .collect();
                        format!(" [index_eq={}] {}", index_eq.len(), keys.join(", "))
                    }
                ),
                PhysicalPlan::Dual => "Dual".to_string(),
                PhysicalPlan::Filter { .. } => "Filter".to_string(),
                PhysicalPlan::Project { schema, .. } => {
                    format!("Project [{}]", schema.names().join(", "))
                }
                PhysicalPlan::HashJoin {
                    probe_keys,
                    build_keys,
                    residual,
                    join,
                    index_build,
                    ..
                } => {
                    format!(
                        "HashJoin {join:?} probe_keys={probe_keys:?} build_keys={build_keys:?}{}{}",
                        if residual.is_some() { " residual" } else { "" },
                        if *index_build { " [index build]" } else { "" }
                    )
                }
                PhysicalPlan::HashAggregate {
                    group, aggs, mode, ..
                } => format!(
                    "HashAggregate {mode:?} groups={} aggs=[{}]",
                    group.len(),
                    aggs.iter()
                        .map(|a| a.func.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                PhysicalPlan::SetOp { op, .. } => format!("SetOp {op:?} ALL"),
                PhysicalPlan::Sort { keys, .. } => format!("Sort keys={}", keys.len()),
                PhysicalPlan::TopK {
                    keys,
                    limit,
                    offset,
                    ..
                } => format!("TopK keys={} limit={limit} offset={offset}", keys.len()),
                PhysicalPlan::Limit { limit, offset, .. } => {
                    format!("Limit limit={limit:?} offset={offset}")
                }
                PhysicalPlan::Subqueries { subqueries, .. } => {
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

/// Lower an optimized logical plan into a physical operator tree, then
/// fold eligible `Filter` nodes into their `TableScan` inputs (predicate
/// pushdown into storage — see [`crate::optimizer`]'s physical rule).
/// The plan depends on the catalog alone, never on executor settings.
pub fn lower(plan: &LogicalPlan, catalog: &Catalog) -> Result<PhysicalPlan, EngineError> {
    #[cfg(test)]
    LOWERINGS.with(|n| n.set(n.get() + 1));
    let physical = lower_node(plan, catalog)?;
    Ok(crate::optimizer::push_scan_predicates(physical, catalog))
}

#[cfg(test)]
thread_local! {
    /// [`lower`] calls made by this thread.
    static LOWERINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many plans the calling thread has lowered so far (a cached
/// shape lowers once, its subquery bodies with it).
#[cfg(test)]
pub(crate) fn lowerings() -> usize {
    LOWERINGS.with(std::cell::Cell::get)
}

fn lower_node(plan: &LogicalPlan, catalog: &Catalog) -> Result<PhysicalPlan, EngineError> {
    Ok(match plan {
        LogicalPlan::Scan { table, schema } => PhysicalPlan::TableScan {
            table: table.clone(),
            schema: schema.clone(),
            predicate: None,
            index_eq: Vec::new(),
        },
        LogicalPlan::Dual { .. } => PhysicalPlan::Dual,
        LogicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(lower_node(input, catalog)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => PhysicalPlan::Project {
            input: Box::new(lower_node(input, catalog)?),
            exprs: exprs.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(lower_node(input, catalog)?),
            group: group.clone(),
            aggs: aggs.clone(),
            mode: if group.is_empty() {
                AggMode::Ungrouped
            } else {
                AggMode::HashGrouped
            },
            schema: schema.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => lower_join(left, right, *kind, on.as_ref(), schema, catalog)?,
        // Set semantics drop duplicates through the grouped aggregate:
        // UNION over the concatenation, EXCEPT / INTERSECT over the left
        // input only (`a EXCEPT b` = `distinct(a) EXCEPT ALL b`: each
        // distinct left row once, dropped iff the right side has it).
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => {
            let mut left = lower_node(left, catalog)?;
            if !all && *op != SetOpKind::Union {
                left = distinct(left);
            }
            let bag = PhysicalPlan::SetOp {
                op: *op,
                left: Box::new(left),
                right: Box::new(lower_node(right, catalog)?),
                schema: schema.clone(),
            };
            if !all && *op == SetOpKind::Union {
                distinct(bag)
            } else {
                bag
            }
        }
        LogicalPlan::Distinct { input } => distinct(lower_node(input, catalog)?),
        LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
            input: Box::new(lower_node(input, catalog)?),
            keys: keys.clone(),
        },
        // ORDER BY … LIMIT k lowers to a bounded-heap top-k instead of a
        // full sort followed by a limit.
        LogicalPlan::Limit {
            input,
            limit: Some(limit),
            offset,
        } => {
            if let LogicalPlan::Sort {
                input: sorted,
                keys,
            } = input.as_ref()
            {
                PhysicalPlan::TopK {
                    input: Box::new(lower_node(sorted, catalog)?),
                    keys: keys.clone(),
                    limit: *limit,
                    offset: *offset,
                }
            } else {
                PhysicalPlan::Limit {
                    input: Box::new(lower_node(input, catalog)?),
                    limit: Some(*limit),
                    offset: *offset,
                }
            }
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => PhysicalPlan::Limit {
            input: Box::new(lower_node(input, catalog)?),
            limit: *limit,
            offset: *offset,
        },
        LogicalPlan::Subqueries { input, subqueries } => PhysicalPlan::Subqueries {
            input: Box::new(lower_node(input, catalog)?),
            subqueries: subqueries
                .iter()
                .map(|body| lower_node(body, catalog))
                .collect::<Result<_, _>>()?,
        },
    })
}

/// Duplicate elimination over whole rows: a grouped hash aggregate keyed
/// on every column of `input`, with no aggregates. Groups come out in
/// first-seen order, so the rows are `input`'s first sights, in order.
fn distinct(input: PhysicalPlan) -> PhysicalPlan {
    let schema = input.schema().clone();
    let group = schema
        .columns
        .iter()
        .enumerate()
        .map(|(index, col)| BoundExpr::Column {
            index,
            ty: Some(col.ty),
            name: col.name.clone(),
        })
        .collect();
    PhysicalPlan::HashAggregate {
        input: Box::new(input),
        group,
        aggs: Vec::new(),
        mode: AggMode::HashGrouped,
        schema,
    }
}

/// Cheap cardinality estimate used for join-side selection. Base tables
/// report live row counts; everything else applies classic textbook
/// selectivities. Only relative order matters.
pub fn estimate_rows(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
    match plan {
        LogicalPlan::Scan { table, .. } => catalog
            .table(table)
            .map(|t| t.live_rows() as f64)
            .unwrap_or(1000.0),
        LogicalPlan::Dual { .. } => 1.0,
        LogicalPlan::Filter { input, .. } => estimate_rows(input, catalog) / 3.0,
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Subqueries { input, .. } => estimate_rows(input, catalog),
        LogicalPlan::Distinct { input } => estimate_rows(input, catalog) / 2.0,
        LogicalPlan::Aggregate { input, group, .. } => {
            if group.is_empty() {
                1.0
            } else {
                estimate_rows(input, catalog).sqrt().max(1.0)
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let l = estimate_rows(left, catalog);
            let r = estimate_rows(right, catalog);
            match (kind, on) {
                (JoinKind::Cross, _) | (_, None) => l * r,
                // Equi-joins: assume FK-ish fan-out bounded by the larger side.
                _ => l.max(r),
            }
        }
        LogicalPlan::SetOp { left, right, .. } => {
            estimate_rows(left, catalog) + estimate_rows(right, catalog)
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let bound = limit.map_or(f64::INFINITY, |l| (l + offset) as f64);
            estimate_rows(input, catalog).min(bound)
        }
    }
}

/// Cardinality estimate over *physical* plans, used as a sizing hint for
/// the flat hash tables of aggregation and distinct-style operators
/// (pre-sizing avoids rehash churn; see [`crate::exec::hash`]). Same
/// textbook selectivities as [`estimate_rows`], so hints stay cheap and
/// only roughly right — flat tables grow gracefully past them.
pub fn estimate_physical_rows(plan: &PhysicalPlan, catalog: &Catalog) -> f64 {
    match plan {
        PhysicalPlan::TableScan {
            table, predicate, ..
        } => {
            let base = catalog
                .table(table)
                .map(|t| t.live_rows() as f64)
                .unwrap_or(1000.0);
            if predicate.is_some() {
                base / 3.0
            } else {
                base
            }
        }
        PhysicalPlan::Dual => 1.0,
        PhysicalPlan::Filter { input, .. } => estimate_physical_rows(input, catalog) / 3.0,
        PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Subqueries { input, .. } => estimate_physical_rows(input, catalog),
        PhysicalPlan::HashAggregate { input, mode, .. } => match mode {
            AggMode::Ungrouped => 1.0,
            AggMode::HashGrouped => estimate_physical_rows(input, catalog).sqrt().max(1.0),
        },
        PhysicalPlan::HashJoin {
            probe,
            build,
            probe_keys,
            residual,
            ..
        } => {
            let p = estimate_physical_rows(probe, catalog);
            let b = estimate_physical_rows(build, catalog);
            // A CROSS product; anything with a condition is assumed
            // FK-ish, bounded by the larger side.
            if probe_keys.is_empty() && residual.is_none() {
                p * b
            } else {
                p.max(b)
            }
        }
        PhysicalPlan::SetOp { left, right, .. } => {
            estimate_physical_rows(left, catalog) + estimate_physical_rows(right, catalog)
        }
        PhysicalPlan::TopK { limit, offset, .. } => (limit + offset) as f64,
        PhysicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let bound = limit.map_or(f64::INFINITY, |l| (l + offset) as f64);
            estimate_physical_rows(input, catalog).min(bound)
        }
    }
}

/// Clamp a [`estimate_physical_rows`] result into a hash-table
/// pre-sizing hint: bounded so a wild over-estimate can never balloon an
/// allocation (the table grows past the hint on demand anyway).
pub fn table_size_hint(estimate: f64) -> usize {
    const MAX_HINT: usize = 1 << 20;
    if estimate.is_finite() && estimate > 0.0 {
        (estimate as usize).min(MAX_HINT)
    } else {
        0
    }
}

fn lower_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    kind: JoinKind,
    on: Option<&BoundExpr>,
    schema: &Schema,
    catalog: &Catalog,
) -> Result<PhysicalPlan, EngineError> {
    let lwidth = left.schema().len();
    let rwidth = right.schema().len();
    let left_phys = lower_node(left, catalog)?;
    let right_phys = lower_node(right, catalog)?;
    let join = match kind {
        JoinKind::Inner | JoinKind::Cross => PhysJoinKind::Inner,
        JoinKind::Left | JoinKind::Right => PhysJoinKind::LeftOuter,
        JoinKind::Full => PhysJoinKind::FullOuter,
    };

    // Equi-keys and residual over `left ++ right`; swapping sides swaps
    // each key pair and remaps the residual.
    let (equi, residual) = match on {
        Some(pred) => split_equi_conjuncts(pred, lwidth, lwidth + rwidth),
        None => (Vec::new(), None),
    };
    let (left_keys, right_keys): (Vec<usize>, Vec<usize>) = equi.into_iter().unzip();
    let index_right = || index_build_keys(join, right, &right_keys, left, &left_keys, catalog);
    let index_left = || index_build_keys(join, left, &left_keys, right, &right_keys, catalog);

    // Pick sides. The probe side is the preserved side of outer joins, so
    // only INNER joins are free to swap — for a side their keys can read
    // through its index, else for a smaller build table; RIGHT joins must
    // mirror (probe = right).
    let (swap, indexed) = match kind {
        JoinKind::Right => (true, index_left()),
        JoinKind::Inner => match (index_right(), index_left()) {
            (Some(keys), _) => (false, Some(keys)),
            (None, Some(keys)) => (true, Some(keys)),
            (None, None) => (
                estimate_rows(left, catalog) < estimate_rows(right, catalog),
                None,
            ),
        },
        _ => (false, index_right()),
    };

    let (probe_phys, build_phys) = if swap {
        (right_phys, left_phys)
    } else {
        (left_phys, right_phys)
    };
    let index_build = indexed.is_some();
    let (probe_keys, build_keys) = match indexed {
        Some(keys) => keys,
        None if swap => (right_keys, left_keys),
        None => (left_keys, right_keys),
    };

    // The residual was bound over `left ++ right`; re-express it over the
    // execution frame `probe ++ build`.
    let residual = residual.map(|mut e| {
        if swap {
            e.remap_columns(&|i| if i < lwidth { i + rwidth } else { i - lwidth });
        }
        e
    });

    // Frame schema: probe columns then build columns.
    let frame_schema = if swap {
        let mut cols = right.schema().columns.clone();
        cols.extend(left.schema().columns.iter().cloned());
        Schema::new(cols)
    } else {
        schema.clone()
    };

    // No equi-key leaves both key lists empty: the join still hashes,
    // every build row on one chain, and the residual is the whole ON.
    let joined = PhysicalPlan::HashJoin {
        probe: Box::new(probe_phys),
        build: Box::new(build_phys),
        probe_keys,
        build_keys,
        residual,
        join,
        index_build,
        schema: frame_schema,
    };

    if !swap {
        return Ok(joined);
    }
    // Mirrored execution emitted `right ++ left`; restore `left ++ right`.
    let restore: Vec<BoundExpr> = schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, col)| BoundExpr::Column {
            index: if i < lwidth { rwidth + i } else { i - lwidth },
            ty: Some(col.ty),
            name: col.name.clone(),
        })
        .collect();
    Ok(PhysicalPlan::Project {
        input: Box::new(joined),
        exprs: restore,
        schema: schema.clone(),
    })
}

/// The `(probe_keys, build_keys)` of a join whose build side `build` can
/// be read through its table's primary-key index, reordered into key
/// order; `None` when the join must hash its build side. All of:
/// - the join is `Inner` or `LeftOuter` (a FULL OUTER join must find the
///   build rows no probe row matched, which an index cannot list);
/// - `build` is a bare scan — no pushed filter, nothing above it;
/// - the table's primary key is exactly the build keys, each paired with
///   a probe column of the same type and none of them DOUBLE — the rule
///   scans apply to `column = literal` point reads;
/// - the probe side is estimated at no more rows than the table holds
///   live: past that, one pass over the table to hash it costs less than
///   a descent per probe row (a large fact table joined to a small
///   dimension keeps the hashed build).
fn index_build_keys(
    join: PhysJoinKind,
    build: &LogicalPlan,
    build_keys: &[usize],
    probe: &LogicalPlan,
    probe_keys: &[usize],
    catalog: &Catalog,
) -> Option<(Vec<usize>, Vec<usize>)> {
    if join == PhysJoinKind::FullOuter {
        return None;
    }
    let LogicalPlan::Scan { table, schema } = build else {
        return None;
    };
    let table = catalog.table(table).ok()?;
    let pk = table.pk_index()?;
    if pk.columns.len() != build_keys.len() {
        return None;
    }
    let mut keys = (Vec::new(), Vec::new());
    for &col in &pk.columns {
        let at = build_keys.iter().position(|&k| k == col)?;
        let ty = schema.columns[col].ty;
        if ty == DataType::Double || probe.schema().columns[probe_keys[at]].ty != ty {
            return None;
        }
        keys.0.push(probe_keys[at]);
        keys.1.push(col);
    }
    (estimate_rows(probe, catalog) <= table.live_rows() as f64).then_some(keys)
}

/// Split a join predicate over `probe ++ build` into `(probe_col,
/// build_col)` equality pairs plus a residual (None when fully consumed).
/// Only top-level AND conjuncts are considered.
fn split_equi_conjuncts(
    pred: &BoundExpr,
    probe_width: usize,
    total_width: usize,
) -> (Vec<(usize, usize)>, Option<BoundExpr>) {
    let mut conjuncts = Vec::new();
    flatten_and(pred, &mut conjuncts);
    let mut equi = Vec::new();
    let mut residual: Vec<BoundExpr> = Vec::new();
    for c in conjuncts {
        if let BoundExpr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = &c
        {
            if let (BoundExpr::Column { index: a, .. }, BoundExpr::Column { index: b, .. }) =
                (left.as_ref(), right.as_ref())
            {
                if *a < probe_width && (probe_width..total_width).contains(b) {
                    equi.push((*a, *b - probe_width));
                    continue;
                }
                if *b < probe_width && (probe_width..total_width).contains(a) {
                    equi.push((*b, *a - probe_width));
                    continue;
                }
            }
        }
        residual.push(c);
    }
    let residual = residual.into_iter().reduce(|l, r| BoundExpr::Binary {
        op: BinaryOp::And,
        left: Box::new(l),
        right: Box::new(r),
    });
    (equi, residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::storage::Table;
    use crate::types::DataType;
    use crate::value::Value;
    use ivm_sql::ast::Statement;

    fn catalog_with_sizes(small_rows: usize, big_rows: usize) -> Catalog {
        let mut c = Catalog::new();
        let mut small = Table::new(
            "small",
            Schema::new(vec![Column::new("id", DataType::Integer)]),
            vec![],
        );
        for v in 0..small_rows {
            small.insert(vec![Value::Integer(v as i64)]).unwrap();
        }
        let mut big = Table::new(
            "big",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("v", DataType::Integer),
            ]),
            vec![],
        );
        for v in 0..big_rows {
            big.insert(vec![Value::Integer(v as i64), Value::Integer(0)])
                .unwrap();
        }
        c.create_table(small).unwrap();
        c.create_table(big).unwrap();
        c
    }

    fn lower_sql(sql: &str, catalog: &Catalog) -> PhysicalPlan {
        let q = match ivm_sql::parse_statement(sql).unwrap() {
            Statement::Query(q) => q,
            _ => unreachable!(),
        };
        let plan = crate::optimizer::optimize(crate::planner::plan_query(&q, catalog).unwrap());
        lower(&plan, catalog).unwrap()
    }

    fn find_hash_join(plan: &PhysicalPlan) -> &PhysicalPlan {
        match plan {
            PhysicalPlan::HashJoin { .. } => plan,
            PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Sort { input, .. } => find_hash_join(input),
            other => panic!("no hash join in {}", other.explain()),
        }
    }

    #[test]
    fn inner_join_builds_on_smaller_side() {
        let catalog = catalog_with_sizes(5, 5000);
        let p = lower_sql(
            "SELECT * FROM big JOIN small ON big.id = small.id",
            &catalog,
        );
        // big is left in SQL, but small must end up as the build side, with
        // a restoring projection on top.
        let PhysicalPlan::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            join,
            ..
        } = find_hash_join(&p)
        else {
            unreachable!()
        };
        assert_eq!(*join, PhysJoinKind::Inner);
        assert!(matches!(**build, PhysicalPlan::TableScan { ref table, .. } if table == "small"));
        assert!(matches!(**probe, PhysicalPlan::TableScan { ref table, .. } if table == "big"));
        assert_eq!(probe_keys, &vec![0]);
        assert_eq!(build_keys, &vec![0]);
    }

    #[test]
    fn right_join_mirrors_to_left_outer_with_restore() {
        let catalog = catalog_with_sizes(5, 50);
        let p = lower_sql(
            "SELECT * FROM small RIGHT JOIN big ON small.id = big.id",
            &catalog,
        );
        // A restoring projection must sit above the mirrored join.
        let PhysicalPlan::Project { input, schema, .. } = &p else {
            panic!("expected restoring projection:\n{}", p.explain());
        };
        assert_eq!(schema.names(), vec!["id", "id", "v"]);
        let PhysicalPlan::HashJoin { probe, join, .. } = find_hash_join(input) else {
            unreachable!()
        };
        assert_eq!(*join, PhysJoinKind::LeftOuter);
        // The preserved (right) side streams as the probe.
        assert!(matches!(**probe, PhysicalPlan::TableScan { ref table, .. } if table == "big"));
    }

    #[test]
    fn outer_joins_never_swap() {
        let catalog = catalog_with_sizes(5, 5000);
        let p = lower_sql(
            "SELECT * FROM big LEFT JOIN small ON big.id = small.id",
            &catalog,
        );
        let PhysicalPlan::HashJoin { probe, join, .. } = find_hash_join(&p) else {
            unreachable!()
        };
        assert_eq!(*join, PhysJoinKind::LeftOuter);
        assert!(matches!(**probe, PhysicalPlan::TableScan { ref table, .. } if table == "big"));
    }

    /// `small` and `big` plus `keyed`: `keyed_rows` rows keyed on `id`.
    fn catalog_with_keyed(keyed_rows: usize) -> Catalog {
        let mut c = catalog_with_sizes(5, 5000);
        let schema = Schema::new(vec![
            Column::new("id", DataType::Integer),
            Column::new("d", DataType::Double),
        ]);
        let mut keyed = Table::new("keyed", schema, vec![0]);
        for v in 0..keyed_rows {
            keyed
                .insert(vec![Value::Integer(v as i64), Value::Double(0.5)])
                .unwrap();
        }
        c.create_table(keyed).unwrap();
        c
    }

    #[test]
    fn index_build_reads_a_keyed_table_probed_by_fewer_rows() {
        let catalog = catalog_with_keyed(100);
        let index = "build_keys=[0] [index build]\n";
        for (sql, form) in [
            // LEFT and INNER over the key, probed by 5 rows.
            (
                "SELECT * FROM small LEFT JOIN keyed ON small.id = keyed.id",
                Some(index),
            ),
            (
                "SELECT * FROM small JOIN keyed ON keyed.id = small.id",
                Some(index),
            ),
            // INNER swaps to read the keyed side through its index.
            (
                "SELECT * FROM keyed JOIN small ON keyed.id = small.id",
                Some(index),
            ),
            // RIGHT mirrors: the keyed (left) side is the build side.
            (
                "SELECT * FROM keyed RIGHT JOIN small ON keyed.id = small.id",
                Some(index),
            ),
            // 5 000 probe rows against 100 keyed rows: hashed.
            (
                "SELECT * FROM big LEFT JOIN keyed ON big.id = keyed.id",
                None,
            ),
            ("SELECT * FROM big JOIN keyed ON big.id = keyed.id", None),
            // FULL OUTER, a non-key column, a filtered build and a
            // type mismatch (DOUBLE probe key) all hash.
            (
                "SELECT * FROM small FULL JOIN keyed ON small.id = keyed.id",
                None,
            ),
            (
                "SELECT * FROM small LEFT JOIN keyed ON small.id = keyed.d",
                None,
            ),
            (
                "SELECT * FROM small LEFT JOIN (SELECT * FROM keyed WHERE d > 0) k \
                 ON small.id = k.id",
                None,
            ),
            (
                "SELECT * FROM keyed k2 LEFT JOIN keyed ON k2.d = keyed.id",
                None,
            ),
        ] {
            let explain = lower_sql(sql, &catalog).explain();
            match form {
                Some(form) => assert!(explain.contains(form), "{sql}:\n{explain}"),
                None => assert!(!explain.contains("[index build]"), "{sql}:\n{explain}"),
            }
        }
    }

    #[test]
    fn residual_splits_from_equi_keys() {
        let catalog = catalog_with_sizes(10, 20);
        let p = lower_sql(
            "SELECT * FROM big JOIN small ON big.id = small.id AND big.v > 3",
            &catalog,
        );
        let PhysicalPlan::HashJoin {
            residual,
            probe_keys,
            ..
        } = find_hash_join(&p)
        else {
            unreachable!()
        };
        assert!(residual.is_some());
        assert_eq!(probe_keys.len(), 1);
    }

    #[test]
    fn keyless_joins_lower_to_a_hash_join() {
        let catalog = catalog_with_sizes(10, 20);
        for (sql, join) in [
            (
                "SELECT big.v FROM big, small WHERE big.id = small.id",
                "HashJoin Inner probe_keys=[] build_keys=[]\n",
            ),
            (
                "SELECT * FROM big CROSS JOIN small",
                "HashJoin Inner probe_keys=[] build_keys=[]\n",
            ),
            (
                "SELECT * FROM big LEFT JOIN small ON big.id < small.id",
                "HashJoin LeftOuter probe_keys=[] build_keys=[] residual\n",
            ),
        ] {
            let explain = lower_sql(sql, &catalog).explain();
            assert!(explain.contains(join), "{sql}:\n{explain}");
        }
    }

    #[test]
    fn aggregate_mode_fixed_at_plan_time() {
        let catalog = catalog_with_sizes(10, 20);
        let grouped = lower_sql("SELECT id, COUNT(*) FROM big GROUP BY id", &catalog);
        assert!(
            grouped.explain().contains("HashGrouped"),
            "{}",
            grouped.explain()
        );
        let global = lower_sql("SELECT COUNT(*) FROM big", &catalog);
        assert!(
            global.explain().contains("Ungrouped"),
            "{}",
            global.explain()
        );
    }

    /// A filter on a scan folds into it, and its key equality becomes
    /// the scan's index key — only on a table whose key it covers.
    #[test]
    fn filters_fold_into_scans() {
        let catalog = catalog_with_keyed(10);
        fn find_scan(plan: &PhysicalPlan) -> &PhysicalPlan {
            match plan {
                PhysicalPlan::TableScan { .. } => plan,
                PhysicalPlan::Project { input, .. }
                | PhysicalPlan::Filter { input, .. }
                | PhysicalPlan::Limit { input, .. } => find_scan(input),
                other => panic!("unexpected node in {}", other.explain()),
            }
        }
        for (sql, keys) in [
            ("SELECT d FROM keyed WHERE d > 0.1 AND id = 7", 1),
            ("SELECT v FROM big WHERE v > 3 AND id = 7", 0),
        ] {
            let p = lower_sql(sql, &catalog);
            let PhysicalPlan::TableScan {
                predicate,
                index_eq,
                ..
            } = find_scan(&p)
            else {
                unreachable!()
            };
            assert!(predicate.is_some(), "{}", p.explain());
            let columns: Vec<usize> = index_eq.iter().map(|(c, _)| *c).collect();
            assert_eq!(columns, vec![0; keys], "{sql}: {}", p.explain());
            assert!(
                !p.explain().contains("Filter"),
                "no standalone filter left:\n{}",
                p.explain()
            );
        }
    }

    #[test]
    fn filters_above_joins_stay_filters_only_on_scans() {
        // HAVING filters sit above aggregates and must not be folded.
        let catalog = catalog_with_sizes(10, 20);
        let p = lower_sql(
            "SELECT id, COUNT(*) AS c FROM big GROUP BY id HAVING COUNT(*) > 1",
            &catalog,
        );
        assert!(p.explain().contains("Filter"), "{}", p.explain());
    }

    #[test]
    fn order_by_limit_lowers_to_top_k() {
        let catalog = catalog_with_sizes(10, 20);
        let p = lower_sql(
            "SELECT v FROM big ORDER BY v DESC LIMIT 5 OFFSET 2",
            &catalog,
        );
        let explain = p.explain();
        assert!(
            explain.contains("TopK keys=1 limit=5 offset=2"),
            "{explain}"
        );
        assert!(!explain.contains("Sort"), "{explain}");
        // LIMIT without ORDER BY stays a streaming limit.
        let p = lower_sql("SELECT v FROM big LIMIT 5", &catalog);
        assert!(p.explain().contains("Limit"), "{}", p.explain());
        // ORDER BY without LIMIT stays a full sort.
        let p = lower_sql("SELECT v FROM big ORDER BY v", &catalog);
        assert!(p.explain().contains("Sort"), "{}", p.explain());
    }

    #[test]
    fn set_semantics_lower_to_a_grouped_aggregate() {
        let catalog = catalog_with_sizes(10, 20);
        for (sql, shape) in [
            (
                "SELECT DISTINCT id FROM big",
                "HashAggregate HashGrouped groups=1 aggs=[]\n  Project",
            ),
            (
                "SELECT id FROM big UNION SELECT id FROM small",
                "HashAggregate HashGrouped groups=1 aggs=[]\n  SetOp Union ALL",
            ),
            (
                "SELECT id FROM big EXCEPT SELECT id FROM small",
                "SetOp Except ALL\n  HashAggregate HashGrouped groups=1 aggs=[]",
            ),
            (
                "SELECT id FROM big INTERSECT SELECT id FROM small",
                "SetOp Intersect ALL\n  HashAggregate HashGrouped groups=1 aggs=[]",
            ),
        ] {
            let explain = lower_sql(sql, &catalog).explain();
            assert!(explain.starts_with(shape), "{sql}:\n{explain}");
        }
        let bag = lower_sql(
            "SELECT id FROM big UNION ALL SELECT id FROM small",
            &catalog,
        );
        assert!(
            !bag.explain().contains("HashAggregate"),
            "{}",
            bag.explain()
        );
    }

    #[test]
    fn estimates_track_table_sizes() {
        let catalog = catalog_with_sizes(5, 5000);
        let small = LogicalPlan::Scan {
            table: "small".into(),
            schema: catalog.table("small").unwrap().schema.clone(),
        };
        let big = LogicalPlan::Scan {
            table: "big".into(),
            schema: catalog.table("big").unwrap().schema.clone(),
        };
        assert!(estimate_rows(&small, &catalog) < estimate_rows(&big, &catalog));
    }
}
