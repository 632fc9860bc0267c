//! The morsel scheduler (HyPer-style): several workers driving the serial
//! operators.
//!
//! [`crate::exec::run`] sends a [`PhysicalPlan`] here when the
//! [`ExecContext`]'s parallelism is above 1. Nothing in this module
//! implements an operator. `collect_rows` cuts the plan at its pipeline
//! breakers (hash-join builds, aggregation, sort/top-k, distinct, set
//! operations) into *pipelines* — a table scan and the streaming nodes
//! above it (filter, project, hash-join probe), each compiled once into
//! an immutable value every worker shares — and schedules each pipeline
//! over **morsels** of its scanned table: scoped `std::thread` workers
//! claim fixed-size slot ranges from a lock-free
//! [`crate::storage::MorselCursor`] and, per morsel, instantiate the
//! operators `build_node` would build over the whole table — scan the
//! range, filter, project, probe — and pull them dry. Fast workers
//! naturally take more morsels, so skewed filters and joins balance
//! without a scheduler thread; a source that is one morsel, or an index
//! point read, spawns no thread at all.
//!
//! Breakers are the operators the serial builder constructs, through the
//! shared `build_node`. A hash-join build side is collected once (in
//! parallel, recursively), indexed once — radix-partitioned across the
//! workers when large — and probed lock-free by every morsel's
//! `HashJoinOp`. Aggregation over a pipeline folds one partial state per
//! morsel with the serial operator's `AggSpec` and merges them in morsel
//! order. Every other breaker takes one generic path: each child is
//! collected and replayed into it. Under a bounded memory budget the
//! grace-capable breakers (grouped aggregation, DISTINCT, set
//! operations, hash join) instead receive their inputs as per-worker
//! radix spill partitions, never staged as rows. `LIMIT` subtrees run as
//! one operator tree on the calling thread — under the same context, so
//! still budgeted — because stopping early is their point.
//!
//! **Determinism.** Per-morsel results are merged in morsel sequence
//! order, so the scheduler emits rows in the *same order* as one
//! operator tree over the whole table — group first-seen order included
//! — and SUM/AVG over DOUBLE are bitwise-equal to the unsplit fold (exact
//! partial sums, rounded once). The remaining differences are in what a
//! re-associated fold can observe: integer SUM overflow is detected on
//! the partial sums (a sequence whose running total stays in range can
//! overflow a partial, and vice versa), and MIN/MAX may retain a
//! different one of several cross-type-equal values. Runtime errors are
//! deterministic too: the error surfaced is the one from the earliest
//! morsel, which is the error one scan of the whole table reaches first.

mod aggregate;
mod pipeline;

use crate::error::EngineError;
use crate::exec::aggregate::{AggSpec, HashAggregateOp};
use crate::exec::operators::{DistinctOp, SetOpOp};
use crate::exec::spill::{spill_batches, PartitionGroups, PartitionedSpiller, SpillHash};
use crate::exec::{
    build_node, build_operator, drain, hash_join_op, join_spec, prepare_aggregate, replay,
    BoxedOperator, ExecConfig, ExecContext, Row,
};
use crate::expr::VectorKernel;
use crate::planner::physical::{AggMode, PhysicalPlan};
use crate::planner::SetOpKind;
use crate::storage::Table;

use pipeline::Pipeline;

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
    // A pipeline handles the whole subtree in one pass over its morsels.
    if let Some(pipeline) = Pipeline::of(plan, cx)? {
        let (_, chunks) = pipeline.run(cx, || (), |_, _, op| drain(op))?;
        let mut rows = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        chunks.into_iter().for_each(|chunk| rows.extend(chunk));
        return Ok(rows);
    }
    let batch_size = cx.config.batch_size();
    let budget = cx.config.budget();
    let bounded = budget.is_bounded();
    // An empty input: what a grace-capable operator is constructed over
    // when its real input arrives as pre-partitioned spill runs.
    let empty = || -> BoxedOperator<'_> { Box::new(std::iter::empty()) };
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
        } if !bounded || *mode == AggMode::Ungrouped => match Pipeline::of(input, cx)? {
            Some(input) => return aggregate::parallel_aggregate(&input, group, aggs, *mode, cx),
            None => from_collected_children(plan, cx)?,
        },
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
            let groups_in = collect_partitions(input, cx, &SpillHash::Agg(&spec), 0)?;
            Box::new(
                HashAggregateOp::new(empty(), group, aggs, *mode, batch_size, 0)
                    .with_budget(budget.clone())
                    .with_prepartitioned(groups_in),
            )
        }
        PhysicalPlan::Distinct { input } if bounded => {
            let groups = collect_partitions(input, cx, &SpillHash::WholeRow, 0)?;
            Box::new(
                DistinctOp::new(empty())
                    .with_budget(budget.clone(), batch_size)
                    .with_prepartitioned(groups),
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
            let set_op =
                SetOpOp::new(*op, *all, empty(), empty()).with_budget(budget.clone(), batch_size);
            let whole_row =
                |input, seq_base| collect_partitions(input, cx, &SpillHash::WholeRow, seq_base);
            Box::new(if *op == SetOpKind::Union {
                // One combined producer set; right-input sequence tags
                // offset past every possible left tag.
                let mut groups = whole_row(left, 0)?;
                groups.extend(whole_row(right, 1 << 62)?);
                set_op.with_prepartitioned_union(groups)
            } else {
                let right_groups = whole_row(right, 0)?;
                let left_groups = whole_row(left, 0)?;
                set_op.with_prepartitioned_pair(right_groups, left_groups)
            })
        }
        PhysicalPlan::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            ..
        } if bounded => {
            let build_groups = collect_partitions(build, cx, &SpillHash::Keys(build_keys), 0)?;
            let probe_groups = collect_partitions(probe, cx, &SpillHash::Keys(probe_keys), 0)?;
            Box::new(
                hash_join_op(join_spec(plan, cx)?, empty(), empty(), cx)
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
/// a grace-capable breaker to consume. Pipelines stream through
/// per-worker spillers ([`Pipeline::spill`]); other shapes (nested
/// breakers) stream serially through the budgeted operator tree into one
/// spiller. Either way the rows are never staged in an unaccounted
/// `Vec<Row>`.
fn collect_partitions(
    plan: &PhysicalPlan,
    cx: &ExecContext<'_>,
    hash: &SpillHash<'_>,
    seq_base: u64,
) -> Result<PartitionGroups, EngineError> {
    if let Some(pipeline) = Pipeline::of(plan, cx)? {
        return pipeline.spill(cx, hash, seq_base);
    }
    let mut spiller = PartitionedSpiller::new(cx.config.budget().clone(), 0);
    spill_batches(&mut build_operator(plan, cx)?, hash, seq_base, &mut spiller)?;
    Ok(vec![spiller.finish()?])
}

/// UPDATE/DELETE victim selection: the ids of `table`'s live rows that
/// `kernel` selects. The session's workers claim storage-slot morsels and
/// run the vectorized predicate per window (one worker, or one morsel,
/// scans on the calling thread); per-morsel id lists come back in slot
/// order and concatenate in morsel order, so the result — and thus the
/// apply order — is that of one scan of the whole table. On error the
/// cursor poisons and the earliest morsel's error surfaces.
pub(crate) fn filter_row_ids(
    table: &Table,
    kernel: &VectorKernel,
    config: &ExecConfig,
) -> Result<Vec<u64>, EngineError> {
    let (_, out) = pipeline::for_each_morsel(
        table.total_slots(),
        config.morsel_size(),
        config.parallelism(),
        || (),
        |_, _, slots| table.filter_row_ids_range(slots, config.batch_size(), kernel),
    )?;
    Ok(out.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use crate::storage::Table;
    use crate::{Database, Value};

    /// A point read on a table spanning many morsels asks the index once
    /// — not once per plan node that wonders whether to go parallel — and
    /// answers from the looked-up row on the calling thread.
    #[test]
    fn point_read_asks_the_index_once() {
        for workers in [1usize, 2, 4] {
            let mut db = Database::new();
            db.set_parallelism(workers);
            db.set_morsel_size(64);
            db.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, v INTEGER)")
                .unwrap();
            let values: Vec<String> = (0..1000).map(|i| format!("({i}, {})", i * 3)).collect();
            db.execute(&format!("INSERT INTO k VALUES {}", values.join(", ")))
                .unwrap();
            for (q, expected) in [
                (
                    "SELECT v FROM k WHERE id = 837",
                    vec![vec![Value::Integer(2511)]],
                ),
                ("SELECT v FROM k WHERE id = 5000", vec![]),
                (
                    "SELECT SUM(v) FROM k WHERE id = 837",
                    vec![vec![Value::Integer(2511)]],
                ),
            ] {
                let before = Table::equality_lookups();
                assert_eq!(db.query(q).unwrap().rows, expected, "{q}");
                let asked = Table::equality_lookups() - before;
                assert_eq!(asked, 1, "{q} at {workers} workers");
            }
        }
    }
}
