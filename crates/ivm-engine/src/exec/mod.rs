//! Batched, pull-based physical-operator executor.
//!
//! A [`crate::planner::LogicalPlan`] is lowered to a
//! [`PhysicalPlan`] (join sides,
//! equi-keys, and aggregate mode decided at plan time) and executed by
//! the one entry point, [`run`], under one [`ExecContext`]: the catalog
//! to read plus the session's [`ExecConfig`] (batch size, parallelism,
//! morsel size, memory budget). Everything below `run` — operator
//! construction, the morsel executor — takes the same context, and so
//! does the plan instantiation that runs a statement's `IN (subquery)`
//! bodies through `run` (`plan_cache`), so a subquery or a `LIMIT`
//! subtree runs under the session's budget and worker count by
//! construction. Operators compile straight from the plan's expressions:
//! by the time a plan reaches `run`, its parameters and subqueries are
//! filled in.
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
//! probe (every join is one; CROSS, comma and non-equi joins have no
//! keys) — are compiled once into shared immutable values
//! (`ScanSource`, `Streaming`) and instantiated per morsel of the
//! scanned table on every worker, and each breaker is the operator
//! `build_node` constructs, fed what its children produced in
//! parallel. `build_node` is the one per-node constructor, parameterised
//! on how a node's children are obtained: the serial builder recurses,
//! the scheduler hands over each child as an `Input` that runs its
//! subtree in parallel on first pull. A grace-capable breaker under a
//! bounded budget asks that input for spill partitions instead of rows.

pub mod batch;
pub mod hash;
pub mod parallel;
pub mod spill;
pub mod typed;

mod aggregate;
mod join;
mod operators;

use std::ops::Range;
use std::sync::Arc;

pub use batch::{BatchBuilder, BatchRow, ColumnData, RowBatch, DEFAULT_BATCH_SIZE};
pub use parallel::DEFAULT_MORSEL_SIZE;
pub use spill::{clean_orphan_spill_files, MemoryBudget, SpillStats};

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{BoundExpr, VectorKernel};
use crate::planner::physical::{estimate_physical_rows, table_size_hint, PhysicalPlan};
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

/// A node's input as [`build_node`] hands it over. Pulled, it is an
/// operator like any other. Under a bounded budget a grace-capable
/// breaker instead asks it for radix spill partitions
/// ([`Input::partitions`]) — the one way a breaker's input reaches a
/// spiller, with one implementation per way of running a subtree.
pub(crate) enum Input<'a> {
    /// An operator tree, drained into one spiller when partitioned.
    Op(BoxedOperator<'a>),
    /// A subtree the morsel scheduler runs on first pull; partitioned,
    /// every worker streams into its own spiller.
    Scheduled(parallel::Scheduled<'a>),
}

impl<'a> Input<'a> {
    /// The input's rows as radix spill partitions (one set per
    /// producer), hashed by `hash` and sequence-tagged from `seq_base`,
    /// never staged as rows.
    pub(crate) fn partitions(
        &mut self,
        budget: &MemoryBudget,
        hash: &spill::SpillHash<'_>,
        seq_base: u64,
    ) -> Result<spill::PartitionGroups, EngineError> {
        match self {
            Input::Op(op) => {
                let mut spiller = spill::PartitionedSpiller::new(budget.clone(), 0);
                spill::spill_batches(op, hash, seq_base, &mut spiller)?;
                Ok(vec![spiller.finish()?])
            }
            Input::Scheduled(child) => child.partitions(hash, seq_base),
        }
    }

    /// Whether pulling the input streams it. An operator tree does; the
    /// scheduler's child stages its whole output as rows first.
    pub(crate) fn streams(&self) -> bool {
        matches!(self, Input::Op(_))
    }

    /// The input as a plain operator.
    pub(crate) fn into_operator(self) -> BoxedOperator<'a> {
        match self {
            Input::Op(op) => op,
            scheduled => Box::new(scheduled),
        }
    }
}

impl<'a> Operator<'a> for Input<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        match self {
            Input::Op(op) => op.next_batch(),
            Input::Scheduled(child) => child.next_batch(),
        }
    }
}

impl<'a> From<BoxedOperator<'a>> for Input<'a> {
    fn from(op: BoxedOperator<'a>) -> Input<'a> {
        Input::Op(op)
    }
}

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

    /// Set the memory budget in bytes (`None` = unbounded, the default).
    /// Under a bounded budget, hash-join builds, group tables (DISTINCT
    /// and set-semantics set operations included), and the
    /// EXCEPT/INTERSECT multiplicity maps spill radix partitions to temp
    /// files when their tracked state exceeds the budget, and rehydrate
    /// them partition-at-a-time — results are row-identical to unbounded
    /// execution at any [`parallelism`](Self::parallelism): above 1,
    /// breaker inputs stream through per-worker spill partitioners
    /// (never staged as materialized row vectors), each worker writes its
    /// own spill files on its own thread, and spilled output merge-emits
    /// in sequence order. Environment default: `$OPENIVM_MEMORY_BUDGET`.
    ///
    /// Trade-offs: grouped aggregation and EXCEPT/INTERSECT cannot
    /// re-scan their input, so a bounded budget routes them through the
    /// partitioned spill framework even when nothing ends up spilling
    /// (serial joins fall back to the streaming path when the build side
    /// fits).
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.budget.set_limit(bytes);
    }

    /// Set the directory spill files are created in (default: the system
    /// temp directory, or `$OPENIVM_SPILL_DIR`).
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
    build_node(plan, cx, &mut |input| {
        Ok(Input::Op(build_operator(input, cx)?))
    })
}

/// How [`build_node`] obtains the input feeding a node from one of its
/// children (plans borrowed for `'p`).
pub(crate) type ChildSource<'s, 'p, 'a> =
    dyn FnMut(&'p PhysicalPlan) -> Result<Input<'a>, EngineError> + 's;

/// Construct the operator for one physical node, its inputs supplied by
/// `child` — the one place a node's operator is compiled from its
/// expressions, its sizing hints computed, and the memory budget
/// threaded into a spill-capable operator (hash join, hash aggregate —
/// which also drops the duplicates of DISTINCT and set-semantics set
/// operations —, EXCEPT / INTERSECT).
pub(crate) fn build_node<'p, 'a>(
    plan: &'p PhysicalPlan,
    cx: &ExecContext<'a>,
    child: &mut ChildSource<'_, 'p, 'a>,
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
            Streaming::compile(plan).over(child(input)?.into_operator(), batch_size)
        }
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            mode,
            ..
        } => {
            let input = child(input)?;
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
        // An indexed build side needs no input: the join reads its table.
        PhysicalPlan::HashJoin { probe, build, .. } => {
            let probe = child(probe)?;
            let spec = join_spec(plan);
            Box::new(match index_side(plan, cx)? {
                Some(side) => join::HashJoinOp::shared(probe, spec, side, batch_size, false),
                None => join::HashJoinOp::new(probe, Some(child(build)?), spec, batch_size)
                    .with_budget(budget.clone()),
            })
        }
        PhysicalPlan::SetOp {
            op, left, right, ..
        } => {
            // Planner sizing hint for the right-side multiplicity map
            // (EXCEPT/INTERSECT only); a chain of UNION ALLs sizes — and
            // allocates — nothing.
            let right_hint = match op {
                SetOpKind::Union => 0,
                _ => size_hint(right),
            };
            let left = child(left)?;
            let right = child(right)?;
            Box::new(
                operators::SetOpOp::new(*op, left, right)
                    .with_size_hint(right_hint)
                    .with_budget(budget.clone(), batch_size),
            )
        }
        PhysicalPlan::Sort { input, keys } => {
            let input = child(input)?.into_operator();
            Box::new(operators::SortOp::new(input, sort_keys(keys), batch_size))
        }
        PhysicalPlan::TopK {
            input,
            keys,
            limit,
            offset,
        } => {
            let input = child(input)?.into_operator();
            Box::new(operators::TopKOp::new(
                input,
                sort_keys(keys),
                *limit,
                *offset,
                batch_size,
            ))
        }
        PhysicalPlan::Limit {
            input,
            limit,
            offset,
        } => Box::new(operators::LimitOp::new(
            child(input)?.into_operator(),
            *limit,
            *offset,
        )),
        PhysicalPlan::Subqueries { .. } => {
            return Err(EngineError::execution(
                "a plan with subqueries runs only once instantiated",
            ))
        }
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
        Ok(ScanSource {
            table,
            kernel: predicate
                .as_ref()
                .map(|p| Arc::new(VectorKernel::compile(p))),
            point: table.equality_lookup(index_eq),
        })
    }

    /// The ids of the live rows the scan emits, ascending: the victims
    /// of an `UPDATE` or a `DELETE`. A point read re-checks the looked-up
    /// rows against the pushed predicate on the calling thread. Otherwise
    /// the workers claim storage-slot morsels and run the predicate per
    /// window (one worker, or one morsel, scans on the calling thread);
    /// per-morsel ids concatenate in morsel order, so the result is that
    /// of one scan of the whole table, and on error the earliest morsel's
    /// error surfaces.
    pub(crate) fn row_ids(&self, config: &ExecConfig) -> Result<Vec<u64>, EngineError> {
        let table = self.table;
        let Some(kernel) = &self.kernel else {
            return Ok(table.live_slot_ids().collect());
        };
        if let Some(ids) = &self.point {
            let keep = kernel.select(&table.batch_from_row_ids(ids))?;
            return Ok(keep.iter().map(|&i| ids[i as usize]).collect());
        }
        let total = table.total_slots();
        let (_, out) = parallel::for_each_morsel(
            total,
            config.effective_morsel_size(total),
            config.parallelism(),
            || (),
            |_, _, slots| table.filter_row_ids_range(slots, config.batch_size(), kernel),
        )?;
        Ok(out.into_iter().flatten().collect())
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
/// per plan node (kernels compiled, build side built or its index
/// resolved) into an immutable, `Sync` value.
/// [`Streaming::over`] wraps an input in the node's operator: the serial
/// builder calls it once, every morsel worker once per morsel, so both
/// run the same operators over the same compiled state.
pub(crate) enum Streaming<'a> {
    Filter(Arc<VectorKernel>),
    Project(Arc<[operators::ProjColumn]>),
    Probe(Arc<join::JoinSpec>, join::BuildSide<'a>),
}

impl<'a> Streaming<'a> {
    /// Compile a `Filter` or `Project` node.
    pub(crate) fn compile(plan: &PhysicalPlan) -> Streaming<'a> {
        match plan {
            PhysicalPlan::Filter { predicate, .. } => {
                Streaming::Filter(Arc::new(VectorKernel::compile(predicate)))
            }
            PhysicalPlan::Project { exprs, .. } => {
                Streaming::Project(operators::ProjColumn::compile(exprs))
            }
            _ => unreachable!("Streaming::compile is only called on Filter and Project nodes"),
        }
    }

    /// The node's operator over `input`. A probe built this way never
    /// emits the FULL OUTER tail (see [`join::HashJoinOp::shared`]).
    pub(crate) fn over(&self, input: BoxedOperator<'a>, batch_size: usize) -> BoxedOperator<'a> {
        match self {
            Streaming::Filter(kernel) => {
                Box::new(operators::FilterOp::new(input, Arc::clone(kernel)))
            }
            Streaming::Project(columns) => {
                Box::new(operators::ProjectOp::new(input, Arc::clone(columns)))
            }
            Streaming::Probe(spec, side) => Box::new(join::HashJoinOp::shared(
                input,
                Arc::clone(spec),
                side.clone(),
                batch_size,
                false,
            )),
        }
    }
}

/// The compiled form of a `HashJoin` node.
pub(crate) fn join_spec(plan: &PhysicalPlan) -> Arc<join::JoinSpec> {
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
    Arc::new(join::JoinSpec::new(
        probe.schema().len(),
        build.schema().len(),
        probe_keys.clone(),
        build_keys.clone(),
        residual.as_ref(),
        *join,
    ))
}

/// A sort node's keys as the sorting operators hold them.
fn sort_keys(keys: &[SortKey]) -> Vec<(BoundExpr, bool)> {
    keys.iter().map(|k| (k.expr.clone(), k.desc)).collect()
}

/// The build side of an index-built `HashJoin` node: its table, read
/// through the primary key the plan was lowered against. `None` for a
/// hashed build — or when the table no longer has that key (its shape
/// changed outside SQL DDL), which then hashes its build side instead.
pub(crate) fn index_side<'a>(
    plan: &PhysicalPlan,
    cx: &ExecContext<'a>,
) -> Result<Option<join::BuildSide<'a>>, EngineError> {
    let PhysicalPlan::HashJoin {
        build,
        build_keys,
        index_build: true,
        ..
    } = plan
    else {
        return Ok(None);
    };
    let PhysicalPlan::TableScan {
        table,
        predicate: None,
        ..
    } = &**build
    else {
        return Ok(None);
    };
    let table = cx.catalog.table(table)?;
    let keyed = table.pk_index().is_some_and(|pk| pk.columns == *build_keys);
    Ok(keyed.then_some(join::BuildSide::Indexed(table)))
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
