//! Batched, pull-based physical-operator executor.
//!
//! A [`crate::planner::LogicalPlan`] is lowered to a
//! [`PhysicalPlan`] (join sides,
//! equi-keys, and aggregate mode decided at plan time) and executed by
//! the one entry point, [`run`], under one [`ExecContext`]: the catalog
//! to read plus the session's [`ExecConfig`] (batch size, parallelism,
//! morsel size, memory budget). Everything below `run` — operator
//! construction, `IN (subquery)` materialization, the morsel executor —
//! takes the same context, so a subquery or a `LIMIT` subtree runs under
//! the session's budget and worker count by construction.
//!
//! There is one set of operator implementations, and `run` chooses how to
//! drive it. At one worker the plan compiles into a tree of [`Operator`]s
//! ([`build_operator`]) that `run` pulls dry, each yielding columnar
//! [`RowBatch`]es on demand: scans borrow storage columns zero-copy,
//! filters and projections push selection vectors instead of cloning
//! rows, and only pipeline breakers (hash tables, sorts) materialize
//! values; `LIMIT` stops pulling as soon as it is satisfied. Above one
//! worker the morsel scheduler ([`parallel`]) runs the same operators:
//! streaming stretches of the plan — scan, filter, project, hash-join
//! probe — are compiled once into shared immutable values
//! (`ScanSource`, `Streaming`) and instantiated per morsel of the
//! scanned table on every worker, and each breaker is the operator
//! `build_node` constructs, fed what its children produced in
//! parallel. `build_node` is the one per-node constructor, parameterised
//! on how a node's children are obtained: the serial builder recurses,
//! the scheduler collects each child and replays it.

pub mod batch;
pub mod hash;
pub mod parallel;
pub mod spill;
pub mod typed;

mod aggregate;
mod join;
mod operators;

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

pub use batch::{BatchBuilder, BatchRow, ColumnData, JoinedRow, RowBatch, DEFAULT_BATCH_SIZE};
pub(crate) use parallel::filter_row_ids;
pub use parallel::DEFAULT_MORSEL_SIZE;
pub use spill::{clean_orphan_spill_files, MemoryBudget, SpillStats};

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{AggExpr, BoundExpr, VectorKernel};
use crate::planner::physical::{
    estimate_physical_rows, lower_with_budget, table_size_hint, PhysicalPlan,
};
use crate::planner::{SetOpKind, SortKey};
use crate::value::Value;

/// A materialized result row.
pub type Row = Vec<Value>;

/// One node of a running pipeline: a pull-based source of row batches.
///
/// `next_batch` returns `Ok(None)` when exhausted; batches borrow storage
/// columns for the catalog lifetime `'a`.
pub trait Operator<'a> {
    /// Pull the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError>;
}

/// Any iterator of batch results is an operator: how the leaf sources —
/// a table scan ([`crate::storage::Table::scan_range`]), replayed rows,
/// the one-row dual relation — are written.
impl<'a, I> Operator<'a> for I
where
    I: Iterator<Item = Result<RowBatch<'a>, EngineError>>,
{
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        self.next().transpose()
    }
}

/// A boxed operator tied to the catalog borrow.
pub type BoxedOperator<'a> = Box<dyn Operator<'a> + 'a>;

/// The executor settings of one session — every value a plan's execution
/// depends on besides the data. Owned by [`crate::Database`] and by each
/// [`crate::ReadSession`], borrowed by every execution through an
/// [`ExecContext`].
#[derive(Debug, Clone)]
pub struct ExecConfig {
    batch_size: usize,
    parallelism: usize,
    /// `None` = adaptive: [`DEFAULT_MORSEL_SIZE`], scaled up on large
    /// scans (see [`ExecConfig::effective_morsel_size`]).
    morsel_size: Option<usize>,
    budget: MemoryBudget,
}

impl ExecConfig {
    /// The default batch size and adaptive morsels at the given worker
    /// count and memory budget.
    pub(crate) fn new(parallelism: usize, budget: MemoryBudget) -> ExecConfig {
        ExecConfig {
            batch_size: DEFAULT_BATCH_SIZE,
            parallelism: parallelism.max(1),
            morsel_size: None,
            budget,
        }
    }

    /// Rows per [`RowBatch`].
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Set the rows per batch (clamped to ≥ 1).
    pub fn set_batch_size(&mut self, batch_size: usize) {
        self.batch_size = batch_size.max(1);
    }

    /// The number of executor worker threads.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Set the number of executor worker threads (clamped to ≥ 1). At 1,
    /// plans run as one serial operator tree; above 1, the morsel
    /// scheduler runs the same operators on that many threads.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers.max(1);
    }

    /// The base morsel size in physical storage slots: a table spanning
    /// at most one such morsel is scanned on the calling thread.
    pub fn morsel_size(&self) -> usize {
        self.morsel_size.unwrap_or(DEFAULT_MORSEL_SIZE)
    }

    /// Pin the morsel size (clamped to ≥ 1). An explicit size also
    /// disables the adaptive scaling that grows morsels on large scans;
    /// tests shrink it to exercise multi-morsel scheduling on small
    /// tables.
    pub fn set_morsel_size(&mut self, slots: usize) {
        self.morsel_size = Some(slots.max(1));
    }

    /// Morsel size for a scan of `total_slots`: the pinned size, or —
    /// when adaptive — scaled up so each worker claims on the order of
    /// four morsels, bounded to 64 Ki slots, so the claim loop isn't the
    /// bottleneck.
    pub(crate) fn effective_morsel_size(&self, total_slots: usize) -> usize {
        match self.morsel_size {
            Some(pinned) => pinned,
            None => (total_slots / (self.parallelism * 4)).clamp(DEFAULT_MORSEL_SIZE, 1 << 16),
        }
    }

    /// The memory budget shared by every operator of every execution
    /// under this config; bounded budgets make pipeline breakers spill
    /// radix partitions to disk (see [`spill`]). The handle also carries
    /// the spill directory and the cumulative [`SpillStats`].
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Set the memory budget in bytes (`None` = unbounded).
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.budget.set_limit(bytes);
    }

    /// Set the directory spill files are created in.
    pub fn set_spill_dir(&mut self, dir: impl Into<std::path::PathBuf>) {
        self.budget.set_spill_dir(dir.into());
    }
}

/// What one execution borrows: the catalog to read and the session's
/// settings. Every executor function takes this one value, so no layer
/// can drop the budget or the worker count on the way down.
#[derive(Debug, Clone, Copy)]
pub struct ExecContext<'a> {
    /// The catalog (live or a frozen snapshot) the plan reads.
    pub catalog: &'a Catalog,
    /// The session's executor settings.
    pub config: &'a ExecConfig,
}

/// Run a physical plan to completion, materializing all result rows —
/// the single execution entry. At one worker the plan's operator tree is
/// pulled on this thread; above, the morsel scheduler runs the same
/// operators on several, emitting the same rows in the same order. This
/// is the only place that choice is made.
pub fn run(plan: &PhysicalPlan, cx: &ExecContext<'_>) -> Result<Vec<Row>, EngineError> {
    if cx.config.parallelism <= 1 {
        drain(build_operator(plan, cx)?)
    } else {
        parallel::collect_rows(plan, cx)
    }
}

/// Pull an operator dry, materializing its rows.
pub(crate) fn drain(mut op: BoxedOperator<'_>) -> Result<Vec<Row>, EngineError> {
    let mut rows = Vec::new();
    while let Some(batch) = op.next_batch()? {
        rows.extend(batch.to_rows());
    }
    Ok(rows)
}

/// Compile a physical plan into a runnable serial operator tree under
/// the context's batch size and memory budget ([`run`] drains it; pull
/// it by hand to observe the batching contract).
pub fn build_operator<'a>(
    plan: &PhysicalPlan,
    cx: &ExecContext<'a>,
) -> Result<BoxedOperator<'a>, EngineError> {
    build_node(plan, cx, &mut |input| build_operator(input, cx))
}

/// How [`build_node`] obtains the operator feeding a node from one of
/// its children.
pub(crate) type ChildSource<'s, 'a> =
    dyn FnMut(&PhysicalPlan) -> Result<BoxedOperator<'a>, EngineError> + 's;

/// Construct the operator for one physical node, its inputs supplied by
/// `child` — the one place a node's expressions are prepared
/// (`IN (subquery)` materialization, once per operator), its sizing
/// hints computed, and the memory budget threaded into a spill-capable
/// operator (hash join, hash aggregate, DISTINCT, set operations).
pub(crate) fn build_node<'a>(
    plan: &PhysicalPlan,
    cx: &ExecContext<'a>,
    child: &mut ChildSource<'_, 'a>,
) -> Result<BoxedOperator<'a>, EngineError> {
    let batch_size = cx.config.batch_size;
    let budget = &cx.config.budget;
    let size_hint = |node: &PhysicalPlan| table_size_hint(estimate_physical_rows(node, cx.catalog));
    Ok(match plan {
        PhysicalPlan::TableScan { .. } => {
            let scan = ScanSource::resolve(plan, cx)?;
            scan.operator(0..scan.table.total_slots(), batch_size)
        }
        // The one-row, zero-column relation (`SELECT 1` with no FROM).
        PhysicalPlan::Dual => Box::new(std::iter::once(Ok(RowBatch::new(vec![], 1)))),
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
            Streaming::compile(plan, cx)?.over(child(input)?, batch_size)
        }
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            mode,
            ..
        } => {
            let input = child(input)?;
            let (group, aggs) = prepare_aggregate(group, aggs, cx)?;
            // Planner sizing hint: pre-size the flat group table so
            // typical aggregations never rehash mid-fold.
            Box::new(
                aggregate::HashAggregateOp::new(
                    input,
                    group,
                    aggs,
                    *mode,
                    batch_size,
                    size_hint(plan),
                )
                .with_budget(budget.clone()),
            )
        }
        PhysicalPlan::HashJoin { probe, build, .. } => {
            let probe = child(probe)?;
            let build = child(build)?;
            Box::new(hash_join_op(join_spec(plan, cx)?, probe, build, cx))
        }
        PhysicalPlan::NestedLoopJoin {
            probe,
            build,
            on,
            join,
            ..
        } => {
            let probe_width = probe.schema().len();
            let build_width = build.schema().len();
            let probe = child(probe)?;
            let build = child(build)?;
            let on = on.as_ref().map(|e| prepare_expr(e, cx)).transpose()?;
            Box::new(join::NestedLoopJoinOp::new(
                probe,
                build,
                probe_width,
                build_width,
                on,
                *join,
                batch_size,
            ))
        }
        PhysicalPlan::SetOp {
            op,
            all,
            left,
            right,
            ..
        } => {
            // Planner sizing hints: the seen-set (set semantics only)
            // holds at most the output estimate, the right-side
            // multiplicity map (EXCEPT/INTERSECT only) the right input.
            // A chain of UNION ALLs sizes — and allocates — nothing.
            let seen_hint = if *all { 0 } else { size_hint(plan) };
            let right_hint = match op {
                SetOpKind::Union => 0,
                _ => size_hint(right),
            };
            let left = child(left)?;
            let right = child(right)?;
            Box::new(
                operators::SetOpOp::new(*op, *all, left, right)
                    .with_size_hints(seen_hint, right_hint)
                    .with_budget(budget.clone(), batch_size),
            )
        }
        PhysicalPlan::Distinct { input } => {
            // Planner sizing hint: pre-size the seen-set so large
            // DISTINCTs never rehash mid-stream.
            Box::new(
                operators::DistinctOp::new(child(input)?)
                    .with_size_hint(size_hint(plan))
                    .with_budget(budget.clone(), batch_size),
            )
        }
        PhysicalPlan::Sort { input, keys } => {
            let input = child(input)?;
            let keys = prepare_sort_keys(keys, cx)?;
            Box::new(operators::SortOp::new(input, keys, batch_size))
        }
        PhysicalPlan::TopK {
            input,
            keys,
            limit,
            offset,
        } => {
            let input = child(input)?;
            let keys = prepare_sort_keys(keys, cx)?;
            Box::new(operators::TopKOp::new(
                input, keys, *limit, *offset, batch_size,
            ))
        }
        PhysicalPlan::Limit {
            input,
            limit,
            offset,
        } => Box::new(operators::LimitOp::new(child(input)?, *limit, *offset)),
    })
}

/// A scan node resolved for execution: its table, its pushed-down
/// predicate compiled, and — asked here, once per scan node — whether an
/// ART index answers its equality conjuncts with a point read.
pub(crate) struct ScanSource<'a> {
    pub(crate) table: &'a crate::storage::Table,
    kernel: Option<Arc<VectorKernel>>,
    /// The row ids of the index point read, when one applies; the full
    /// predicate is still re-checked on the looked-up rows.
    pub(crate) point: Option<Vec<u64>>,
}

impl<'a> ScanSource<'a> {
    /// Resolve a `TableScan` node.
    pub(crate) fn resolve(
        plan: &PhysicalPlan,
        cx: &ExecContext<'a>,
    ) -> Result<ScanSource<'a>, EngineError> {
        let PhysicalPlan::TableScan {
            table,
            predicate,
            index_eq,
            ..
        } = plan
        else {
            unreachable!("ScanSource::resolve is only called on TableScan nodes")
        };
        let table = cx.catalog.table(table)?;
        let kernel = match predicate {
            None => None,
            Some(p) => Some(Arc::new(VectorKernel::compile(&prepare_expr(p, cx)?))),
        };
        Ok(ScanSource {
            table,
            kernel,
            point: table.equality_lookup(index_eq),
        })
    }

    /// The scan over the slot range `slots` — the whole table or one
    /// morsel — as an operator: zero-copy batches of `batch_size` live
    /// rows, the pushed predicate applied per storage window. A point
    /// read ignores the range (it is one unit of work): it emits the
    /// looked-up rows, already proven live by the index, re-checked
    /// against the full pushed predicate.
    pub(crate) fn operator(&self, slots: Range<usize>, batch_size: usize) -> BoxedOperator<'a> {
        let table = self.table;
        match (&self.point, &self.kernel) {
            (Some(ids), Some(kernel)) => {
                let (ids, kernel) = (ids.clone(), Arc::clone(kernel));
                let read = move || {
                    if ids.is_empty() {
                        return Ok(None);
                    }
                    let batch = table.batch_from_row_ids(&ids);
                    let keep = kernel.select(&batch)?;
                    Ok(batch.retain(keep))
                };
                Box::new(std::iter::once_with(read).filter_map(Result::transpose))
            }
            _ => Box::new(table.scan_range(slots, batch_size, self.kernel.clone())),
        }
    }
}

/// A streaming node — filter, projection, hash-join probe — compiled once
/// per plan node (expressions prepared, kernels compiled, build side
/// built) into an immutable, `Sync` value. [`Streaming::over`] wraps an
/// input in the node's operator: the serial builder calls it once, every
/// morsel worker once per morsel, so both run the same operators over the
/// same compiled state.
pub(crate) enum Streaming {
    Filter(Arc<VectorKernel>),
    Project(Arc<[operators::ProjColumn]>),
    Probe(Arc<join::JoinSpec>, Arc<join::BuiltJoin>),
}

impl Streaming {
    /// Compile a `Filter` or `Project` node.
    pub(crate) fn compile(
        plan: &PhysicalPlan,
        cx: &ExecContext<'_>,
    ) -> Result<Streaming, EngineError> {
        Ok(match plan {
            PhysicalPlan::Filter { predicate, .. } => Streaming::Filter(Arc::new(
                VectorKernel::compile(&prepare_expr(predicate, cx)?),
            )),
            PhysicalPlan::Project { exprs, .. } => {
                Streaming::Project(operators::ProjColumn::compile(&prepare_exprs(exprs, cx)?))
            }
            _ => unreachable!("Streaming::compile is only called on Filter and Project nodes"),
        })
    }

    /// The node's operator over `input`. A probe built this way never
    /// emits the FULL OUTER tail (see [`join::HashJoinOp::shared`]).
    pub(crate) fn over<'a>(
        &self,
        input: BoxedOperator<'a>,
        batch_size: usize,
    ) -> BoxedOperator<'a> {
        match self {
            Streaming::Filter(kernel) => {
                Box::new(operators::FilterOp::new(input, Arc::clone(kernel)))
            }
            Streaming::Project(columns) => {
                Box::new(operators::ProjectOp::new(input, Arc::clone(columns)))
            }
            Streaming::Probe(spec, built) => Box::new(join::HashJoinOp::shared(
                input,
                Arc::clone(spec),
                Arc::clone(built),
                batch_size,
                false,
            )),
        }
    }
}

/// The compiled form of a `HashJoin` node (residual prepared here).
pub(crate) fn join_spec(
    plan: &PhysicalPlan,
    cx: &ExecContext<'_>,
) -> Result<Arc<join::JoinSpec>, EngineError> {
    let PhysicalPlan::HashJoin {
        probe,
        build,
        probe_keys,
        build_keys,
        residual,
        join,
        ..
    } = plan
    else {
        unreachable!("join_spec is only called on HashJoin nodes")
    };
    let residual = residual.as_ref().map(|e| prepare_expr(e, cx)).transpose()?;
    Ok(Arc::new(join::JoinSpec::new(
        probe.schema().len(),
        build.schema().len(),
        probe_keys.clone(),
        build_keys.clone(),
        residual.as_ref(),
        *join,
    )))
}

/// The budgeted hash-join operator over the given inputs. Concretely
/// typed because the morsel executor's bounded-budget arm attaches
/// pre-partitioned inputs to it.
pub(crate) fn hash_join_op<'a>(
    spec: Arc<join::JoinSpec>,
    probe: BoxedOperator<'a>,
    build: BoxedOperator<'a>,
    cx: &ExecContext<'a>,
) -> join::HashJoinOp<'a> {
    join::HashJoinOp::new(probe, Some(build), spec, cx.config.batch_size)
        .with_budget(cx.config.budget.clone())
}

/// [`prepare_expr`] over a slice.
pub(crate) fn prepare_exprs(
    exprs: &[BoundExpr],
    cx: &ExecContext<'_>,
) -> Result<Vec<BoundExpr>, EngineError> {
    exprs.iter().map(|e| prepare_expr(e, cx)).collect()
}

/// Prepared group keys and aggregate arguments of a `HashAggregate` node.
pub(crate) fn prepare_aggregate(
    group: &[BoundExpr],
    aggs: &[AggExpr],
    cx: &ExecContext<'_>,
) -> Result<(Vec<BoundExpr>, Vec<AggExpr>), EngineError> {
    let mut aggs = aggs.to_vec();
    for a in &mut aggs {
        if let Some(arg) = &a.arg {
            a.arg = Some(prepare_expr(arg, cx)?);
        }
    }
    Ok((prepare_exprs(group, cx)?, aggs))
}

fn prepare_sort_keys(
    keys: &[SortKey],
    cx: &ExecContext<'_>,
) -> Result<Vec<(BoundExpr, bool)>, EngineError> {
    keys.iter()
        .map(|k| Ok((prepare_expr(&k.expr, cx)?, k.desc)))
        .collect()
}

/// Replace every [`BoundExpr::InSubquery`] in `expr` with a materialized
/// [`BoundExpr::InSet`] by running the subquery once, through [`run`]
/// under the same context — so it honours the session's memory budget
/// and worker count like any other plan. Uncorrelated by construction.
pub fn prepare_expr(expr: &BoundExpr, cx: &ExecContext<'_>) -> Result<BoundExpr, EngineError> {
    let mut prepared = expr.clone();
    materialize_subqueries(&mut prepared, cx)?;
    Ok(prepared)
}

fn materialize_subqueries(e: &mut BoundExpr, cx: &ExecContext<'_>) -> Result<(), EngineError> {
    match e {
        BoundExpr::Literal(_) | BoundExpr::Column { .. } => {}
        BoundExpr::Binary { left, right, .. } => {
            materialize_subqueries(left, cx)?;
            materialize_subqueries(right, cx)?;
        }
        BoundExpr::Unary { expr, .. }
        | BoundExpr::Cast { expr, .. }
        | BoundExpr::IsNull { expr, .. }
        | BoundExpr::InSet { expr, .. } => materialize_subqueries(expr, cx)?,
        BoundExpr::Case {
            branches,
            else_result,
        } => {
            for (when, then) in branches {
                materialize_subqueries(when, cx)?;
                materialize_subqueries(then, cx)?;
            }
            if let Some(e) = else_result {
                materialize_subqueries(e, cx)?;
            }
        }
        BoundExpr::InList { expr, list, .. } => {
            materialize_subqueries(expr, cx)?;
            for item in list {
                materialize_subqueries(item, cx)?;
            }
        }
        BoundExpr::Like { expr, pattern, .. } => {
            materialize_subqueries(expr, cx)?;
            materialize_subqueries(pattern, cx)?;
        }
        BoundExpr::ScalarFn { args, .. } => {
            for arg in args {
                materialize_subqueries(arg, cx)?;
            }
        }
        BoundExpr::InSubquery {
            expr: probe,
            plan,
            negated,
        } => {
            materialize_subqueries(probe, cx)?;
            let physical = lower_with_budget(plan, cx.catalog, cx.config.budget.limit())?;
            let rows = run(&physical, cx)?;
            let mut set = HashSet::with_capacity(rows.len());
            let mut has_null = false;
            for row in rows {
                let v = row
                    .into_iter()
                    .next()
                    .ok_or_else(|| EngineError::execution("IN subquery produced zero columns"))?;
                if v.is_null() {
                    has_null = true;
                } else {
                    set.insert(v);
                }
            }
            *e = BoundExpr::InSet {
                expr: Box::new(std::mem::replace(probe, BoundExpr::Literal(Value::Null))),
                set: Arc::new(set),
                has_null,
                negated: *negated,
            };
        }
    }
    Ok(())
}

/// An operator replaying materialized `rows` (each `width` columns wide)
/// in batches of `batch_size`: how the serial breaker operators consume
/// input the morsel executor collected in parallel, how the sorting
/// operators emit, and how operator unit tests feed prefabricated input.
pub(crate) fn replay<'a>(width: usize, rows: Vec<Row>, batch_size: usize) -> BoxedOperator<'a> {
    let mut batches = Vec::new();
    let mut it = rows.into_iter().peekable();
    while it.peek().is_some() {
        let chunk: Vec<Row> = it.by_ref().take(batch_size.max(1)).collect();
        batches.push(Ok(RowBatch::from_rows(width, chunk)));
    }
    Box::new(batches.into_iter())
}
