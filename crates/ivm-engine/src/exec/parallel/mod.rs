//! Morsel-driven parallel execution (HyPer-style).
//!
//! [`crate::exec::run`] sends a [`PhysicalPlan`] here when the
//! [`ExecContext`]'s parallelism is above 1; `collect_rows` then runs it
//! on a pool of scoped `std::thread` workers. The plan decomposes into
//! *pipelines* at the pipeline breakers (hash-join builds, aggregation,
//! sort/top-k, distinct, set operations): each pipeline is a table-scan
//! leaf plus a stack of morsel-local stages (filter, project, hash-join
//! probe), and its source table is cut into fixed-size **morsels** that
//! workers claim dynamically from a lock-free
//! [`crate::storage::MorselCursor`] — fast workers naturally take more
//! morsels, so skewed filters and joins balance without a scheduler
//! thread.
//!
//! Breakers merge. Hash-join build sides are materialized once and
//! radix-partitioned on the equi-key hash (parallel build, lock-free
//! probe); aggregation over a pipeline folds per-morsel partial states
//! that merge in morsel order. Every other node that is not part of a
//! pipeline takes one generic path: each child is collected (in
//! parallel, recursively) and replayed into the very operator the serial
//! builder constructs, through the shared `build_node`. Under a
//! bounded memory budget the grace-capable breakers (grouped
//! aggregation, DISTINCT, set operations, hash join) instead receive
//! their inputs as per-worker radix spill partitions, never staged as
//! rows. `LIMIT` subtrees run as a serial operator tree — under the same
//! context, so still budgeted — because stopping early is their point.
//! Everything reuses the vectorized kernels of [`crate::expr::vector`]
//! inside each worker.
//!
//! **Determinism.** Per-morsel results carry the morsel sequence number
//! and are merged in that order, so the parallel executor emits rows in
//! the *same order* as the serial one — group first-seen order included
//! — and SUM/AVG over DOUBLE are bitwise-equal to the serial fold (exact
//! partial sums, rounded once). The remaining differences are in what a
//! re-associated fold can observe: integer SUM overflow is detected on
//! the partial sums (a sequence whose running total stays in range can
//! overflow a partial, and vice versa), and MIN/MAX may retain a
//! different one of several cross-type-equal values. Runtime errors are
//! deterministic too: the error surfaced is the one from the earliest
//! morsel, which is the error the serial scan would reach first.

mod aggregate;
mod pipeline;

use crate::error::EngineError;
use crate::exec::aggregate::{AggSpec, HashAggregateOp};
use crate::exec::operators::{DistinctOp, SetOpOp};
use crate::exec::spill::{PartitionedSpiller, SpillPartition};
use crate::exec::{
    build_node, build_operator, drain, hash_join_op, prepare_aggregate, replay, BoxedOperator,
    ExecConfig, ExecContext, Row,
};
use crate::expr::VectorKernel;
use crate::planner::physical::{AggMode, PhysicalPlan};
use crate::planner::SetOpKind;
use crate::storage::Table;

/// Default morsel size in physical storage slots. Small enough that
/// mid-sized tables split across workers, large enough that the per-claim
/// atomic and per-morsel merge are noise.
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// Materialize the rows of `plan`, in serial output order, parallelizing
/// every pipeline and breaker the plan shape allows.
pub(crate) fn collect_rows(
    plan: &PhysicalPlan,
    cx: &ExecContext<'_>,
) -> Result<Vec<Row>, EngineError> {
    // A morsel-parallel pipeline handles the whole subtree in one pass.
    if let Some(spec) = pipeline::build_pipeline(plan, cx)? {
        let partials = pipeline::run_morsels(&spec, cx, pipeline::MorselWork::Collect)?;
        let mut rows: Vec<Row> = Vec::new();
        for (_, out) in partials {
            let pipeline::MorselOut::Rows(r) = out else {
                unreachable!("collect work yields rows")
            };
            rows.extend(r);
        }
        for batch in pipeline::pipeline_tails(&spec, cx)? {
            rows.extend(batch.to_rows());
        }
        return Ok(rows);
    }
    let batch_size = cx.config.batch_size();
    let budget = cx.config.budget();
    let bounded = budget.is_bounded();
    // An empty input: what a grace-capable operator is constructed over
    // when its real input arrives as pre-partitioned spill runs.
    let empty = |input: &PhysicalPlan| replay(input.schema().len(), Vec::new(), batch_size);
    let op: BoxedOperator<'_> = match plan {
        // Morsel-parallel partial aggregation: always for unbounded
        // budgets; under a bounded budget only the ungrouped mode (whose
        // accumulator state is O(1), so nothing can outgrow the budget).
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            mode,
            ..
        } if !bounded || *mode == AggMode::Ungrouped => {
            match pipeline::build_pipeline(input, cx)? {
                Some(spec) => return aggregate::parallel_aggregate(&spec, group, aggs, *mode, cx),
                None => from_collected_children(plan, cx)?,
            }
        }
        // Bounded budget, grace-capable breakers: inputs stream through
        // per-worker spill partitioners on the hash the breaker itself
        // uses (never staged as `Vec<Row>`), and the operator processes
        // one fitting partition group at a time, merge-emitting in
        // serial order.
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            mode,
            ..
        } => {
            let (group, aggs) = prepare_aggregate(group, aggs, cx)?;
            let spec = AggSpec::new(&group, aggs.clone(), false);
            let groups_in = collect_partitions(input, cx, pipeline::SpillHash::Agg(&spec), 0)?;
            Box::new(
                HashAggregateOp::new(empty(input), group, aggs, *mode, batch_size, 0)
                    .with_budget(budget.clone())
                    .with_prepartitioned(groups_in, input.schema().len()),
            )
        }
        PhysicalPlan::Distinct { input } if bounded => {
            let groups = collect_partitions(input, cx, pipeline::SpillHash::WholeRow, 0)?;
            Box::new(
                DistinctOp::new(empty(input))
                    .with_budget(budget.clone(), batch_size)
                    .with_prepartitioned(groups, input.schema().len()),
            )
        }
        // UNION ALL is pure concatenation and never accumulates, so it
        // takes the generic path even when bounded.
        PhysicalPlan::SetOp {
            op,
            all,
            left,
            right,
            ..
        } if bounded && !(*op == SetOpKind::Union && *all) => {
            let lwidth = left.schema().len();
            let set_op = SetOpOp::new(*op, *all, empty(left), empty(right))
                .with_budget(budget.clone(), batch_size);
            let whole_row = |input, seq_base| {
                collect_partitions(input, cx, pipeline::SpillHash::WholeRow, seq_base)
            };
            Box::new(if *op == SetOpKind::Union {
                // One combined producer set; right-input sequence tags
                // offset past every possible left tag.
                let mut groups = whole_row(left, 0)?;
                groups.extend(whole_row(right, 1 << 62)?);
                set_op.with_prepartitioned_union(groups, lwidth)
            } else {
                let right_groups = whole_row(right, 0)?;
                let left_groups = whole_row(left, 0)?;
                set_op.with_prepartitioned_pair(right_groups, left_groups, lwidth)
            })
        }
        PhysicalPlan::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            ..
        } if bounded => {
            let build_groups =
                collect_partitions(build, cx, pipeline::SpillHash::Keys(build_keys), 0)?;
            let probe_groups =
                collect_partitions(probe, cx, pipeline::SpillHash::Keys(probe_keys), 0)?;
            Box::new(
                hash_join_op(plan, empty(probe), empty(build), cx)?
                    .with_prepartitioned(build_groups, probe_groups),
            )
        }
        // LIMIT's whole point is to stop pulling early: a serial tree.
        PhysicalPlan::Limit { .. } => build_operator(plan, cx)?,
        _ => from_collected_children(plan, cx)?,
    };
    drain(op)
}

/// The generic non-pipelined node: the operator the serial builder would
/// construct, fed by a replay of each child's parallel-collected rows.
fn from_collected_children<'a>(
    plan: &PhysicalPlan,
    cx: &ExecContext<'a>,
) -> Result<BoxedOperator<'a>, EngineError> {
    build_node(plan, cx, &mut |input| {
        Ok(replay(
            input.schema().len(),
            collect_rows(input, cx)?,
            cx.config.batch_size(),
        ))
    })
}

/// Materialize `plan`'s output into budget-accounted radix spill
/// partitions — hashed with `hash`, sequence-tagged from `seq_base` — for
/// a grace-capable breaker to consume. Pipeline-able subtrees stream
/// morsel-parallel through per-worker spillers
/// ([`pipeline::run_morsels_spill`]); other shapes (nested breakers,
/// small scans) stream serially through the budgeted operator tree into
/// one spiller. Either way the rows are never staged in an unaccounted
/// `Vec<Row>`.
fn collect_partitions(
    plan: &PhysicalPlan,
    cx: &ExecContext<'_>,
    hash: pipeline::SpillHash<'_>,
    seq_base: u64,
) -> Result<Vec<Vec<SpillPartition>>, EngineError> {
    if let Some(spec) = pipeline::build_pipeline(plan, cx)? {
        return pipeline::run_morsels_spill(&spec, cx, hash, seq_base);
    }
    let mut op = build_operator(plan, cx)?;
    let mut spiller = PartitionedSpiller::new(cx.config.budget().clone(), 0);
    let mut seq = seq_base;
    while let Some(batch) = op.next_batch()? {
        let hashes = hash.hash(&batch)?;
        for (r, &h) in hashes.iter().enumerate() {
            spiller.push(h, seq, batch.materialize_row(r))?;
            seq += 1;
        }
    }
    Ok(vec![spiller.finish()?])
}

/// Parallel UPDATE/DELETE victim selection: workers claim storage-slot
/// morsels and run the vectorized predicate per window; per-morsel id
/// lists come back in slot order and concatenate in morsel order, so the
/// result is identical to the serial [`Table::filter_row_ids`] scan. On
/// error the cursor poisons and the earliest morsel's error surfaces.
pub(crate) fn parallel_filter_row_ids(
    table: &Table,
    kernel: &VectorKernel,
    config: &ExecConfig,
) -> Result<Vec<u64>, EngineError> {
    let out = pipeline::for_each_morsel(
        table.total_slots(),
        config.morsel_size(),
        config.parallelism(),
        |slots| table.filter_row_ids_range(slots, config.batch_size(), kernel),
    )?;
    Ok(out.into_iter().flat_map(|(_, ids)| ids).collect())
}
