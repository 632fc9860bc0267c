//! The morsel scheduler (HyPer-style): several workers driving the serial
//! operators.
//!
//! [`crate::exec::run`] sends a [`PhysicalPlan`] here when the
//! [`ExecContext`]'s parallelism is above 1. Nothing in this module
//! implements an operator. `collect_rows` cuts the plan at its pipeline
//! breakers (hash-join builds, aggregation — DISTINCT and set-semantics
//! set operations included —, sort/top-k, bag set operations) into
//! *pipelines* — a table scan and the streaming nodes
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
//! order. Every other breaker takes one generic path: `build_node` gets
//! each child as a `Scheduled` input, which collects the child in
//! parallel on first pull and replays it. Under a bounded memory budget
//! the grace-capable breakers (grouped aggregation, EXCEPT/INTERSECT,
//! hash join) ask that input for partitions instead, and it
//! streams every worker into its own radix spiller — the input is never
//! staged as rows. `LIMIT` subtrees run as one operator tree on the
//! calling thread — under the same context, so still budgeted — because
//! stopping early is their point.
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
use crate::exec::aggregate::runs_grace;
use crate::exec::batch::RowBatch;
use crate::exec::spill::{PartitionGroups, SpillHash};
use crate::exec::{
    build_node, build_operator, drain, replay, BoxedOperator, ExecContext, Input, Operator, Row,
};
use crate::planner::physical::PhysicalPlan;
use crate::planner::SetOpKind;

pub(crate) use pipeline::for_each_morsel;
use pipeline::Pipeline;

/// Default morsel size in physical storage slots. Small enough that
/// mid-sized tables split across workers, large enough that the per-claim
/// atomic and per-morsel merge are noise.
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// Materialize the rows of `plan`, in serial output order, parallelizing
/// every pipeline and breaker the plan shape allows.
pub(crate) fn collect_rows<'a>(
    plan: &'a PhysicalPlan,
    cx: &ExecContext<'a>,
) -> Result<Vec<Row>, EngineError> {
    // A pipeline handles the whole subtree in one pass over its morsels.
    if let Some(pipeline) = Pipeline::of(plan, cx)? {
        let (_, chunks) = pipeline.run(cx, || (), |_, _, op| drain(op))?;
        let mut rows = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        chunks.into_iter().for_each(|chunk| rows.extend(chunk));
        return Ok(rows);
    }
    let op = match plan {
        // Morsel-parallel partial aggregation, unless the operator would
        // run its grace path (grouped, under a bounded budget): the
        // ungrouped mode's accumulator state is O(1), so nothing can
        // outgrow the budget.
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            mode,
            ..
        } if !runs_grace(cx.config.budget(), *mode) => match Pipeline::of(input, cx)? {
            Some(input) => return aggregate::parallel_aggregate(&input, group, aggs, *mode, cx),
            None => from_collected_children(plan, cx)?,
        },
        // UNION ALL is its inputs' rows, left then right: collected into
        // one vector, where replaying each input through the operator
        // would copy a chain's first rows once per level.
        PhysicalPlan::SetOp {
            op: SetOpKind::Union,
            left,
            right,
            ..
        } => {
            let mut rows = collect_rows(left, cx)?;
            rows.extend(collect_rows(right, cx)?);
            return Ok(rows);
        }
        // LIMIT's whole point is to stop pulling early: a serial tree.
        PhysicalPlan::Limit { .. } => build_operator(plan, cx)?,
        _ => from_collected_children(plan, cx)?,
    };
    drain(op)
}

/// The generic non-pipelined node: the operator the serial builder would
/// construct, each child handed over as a [`Scheduled`] input.
fn from_collected_children<'a>(
    plan: &'a PhysicalPlan,
    cx: &ExecContext<'a>,
) -> Result<BoxedOperator<'a>, EngineError> {
    build_node(plan, cx, &mut |input| {
        Ok(Input::Scheduled(Scheduled {
            plan: input,
            cx: *cx,
            rows: None,
        }))
    })
}

/// A breaker's child as the scheduler hands it over: nothing runs until
/// the breaker asks. Pulled, it collects its subtree in parallel and
/// replays the rows. Asked for partitions (a grace-capable breaker under
/// a bounded budget), it streams its subtree into radix spill partitions
/// instead — each worker into its own spiller — so its output is never
/// staged as rows.
pub(crate) struct Scheduled<'a> {
    plan: &'a PhysicalPlan,
    cx: ExecContext<'a>,
    rows: Option<BoxedOperator<'a>>,
}

impl Scheduled<'_> {
    /// The subtree's output as radix spill partitions — hashed with
    /// `hash`, sequence-tagged from `seq_base`. A pipeline streams
    /// through per-worker spillers ([`Pipeline::spill`]); any other shape
    /// (a nested breaker) drains its budgeted serial operator tree into
    /// one.
    pub(crate) fn partitions(
        &self,
        hash: &SpillHash<'_>,
        seq_base: u64,
    ) -> Result<PartitionGroups, EngineError> {
        let cx = &self.cx;
        match Pipeline::of(self.plan, cx)? {
            Some(pipeline) => pipeline.spill(cx, hash, seq_base),
            None => Input::Op(build_operator(self.plan, cx)?).partitions(
                cx.config.budget(),
                hash,
                seq_base,
            ),
        }
    }
}

impl<'a> Operator<'a> for Scheduled<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        if self.rows.is_none() {
            let rows = collect_rows(self.plan, &self.cx)?;
            let width = self.plan.schema().len();
            self.rows = Some(replay(width, rows, self.cx.config.batch_size()));
        }
        self.rows.as_mut().expect("just set").next_batch()
    }
}

#[cfg(test)]
mod tests {
    use crate::storage::Table;
    use crate::{Database, Value};

    /// A table of 1000 keyed rows, `v = 3 * id`, over morsels of 64 slots.
    fn keyed(workers: usize) -> Database {
        let mut db = Database::new();
        db.config_mut().set_parallelism(workers);
        db.config_mut().set_morsel_size(64);
        db.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
        let values: Vec<String> = (0..1000).map(|i| format!("({i}, {})", i * 3)).collect();
        db.execute(&format!("INSERT INTO k VALUES {}", values.join(", ")))
            .unwrap();
        db
    }

    /// A point read on a table spanning many morsels asks the index once
    /// — not once per plan node that wonders whether to go parallel — and
    /// answers from the looked-up row on the calling thread. An equality
    /// the key does not cover asks nothing: the scan reads every slot.
    #[test]
    fn point_read_asks_the_index_once() {
        for workers in [1usize, 2, 4] {
            let db = keyed(workers);
            for (q, expected, asks) in [
                (
                    "SELECT v FROM k WHERE id = 837",
                    vec![vec![Value::Integer(2511)]],
                    1,
                ),
                ("SELECT v FROM k WHERE id = 5000", vec![], 1),
                (
                    "SELECT SUM(v) FROM k WHERE id = 837",
                    vec![vec![Value::Integer(2511)]],
                    1,
                ),
                (
                    "SELECT id FROM k WHERE v = 2511",
                    vec![vec![Value::Integer(837)]],
                    0,
                ),
            ] {
                let before = Table::equality_lookups();
                assert_eq!(db.query(q).unwrap().rows, expected, "{q}");
                let asked = Table::equality_lookups() - before;
                assert_eq!(asked, asks, "{q} at {workers} workers");
            }
        }
    }

    /// An UPDATE or a DELETE by key finds its row the way a point read
    /// does: its scan asks the index once, whatever the worker count, and
    /// the kernel re-checks the looked-up row.
    #[test]
    fn dml_by_key_asks_the_index_once() {
        for workers in [1usize, 2, 4] {
            let mut db = keyed(workers);
            for (dml, affected) in [
                ("UPDATE k SET v = -1 WHERE id = 837", 1),
                ("UPDATE k SET v = -2 WHERE id = 838 AND v > 9999", 0),
                ("UPDATE k SET v = -2 WHERE id = 5000", 0),
                ("DELETE FROM k WHERE id = 836", 1),
                ("DELETE FROM k WHERE id = 836", 0),
            ] {
                let before = Table::equality_lookups();
                assert_eq!(db.execute(dml).unwrap().rows_affected, affected, "{dml}");
                let asked = Table::equality_lookups() - before;
                assert_eq!(asked, 1, "{dml} at {workers} workers");
            }
            let rows = db
                .query("SELECT id, v FROM k WHERE id BETWEEN 835 AND 838 ORDER BY id")
                .unwrap()
                .rows;
            let expected: Vec<Vec<Value>> = [(835, 2505), (837, -1), (838, 2514)]
                .iter()
                .map(|&(id, v)| vec![Value::Integer(id), Value::Integer(v)])
                .collect();
            assert_eq!(rows, expected, "at {workers} workers");
        }
    }
}
