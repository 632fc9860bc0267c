//! Parallel partitioned hash aggregation.
//!
//! Phase 1 is morsel-driven: each worker folds its morsels' batches into
//! per-morsel partial states (group tables with first-seen order)
//! through the [`AggSpec`] fold the serial operator runs. Phase 2 merges
//! the per-morsel summaries **in morsel order** — so first-seen group
//! order, MIN/MAX tie resolution, and SUM type promotion all match one
//! fold over the whole input regardless of how morsels were scheduled
//! across workers. DISTINCT aggregates defer accumulator
//! updates to a post-merge fold over the unioned value sets (in value
//! order), which is likewise schedule-independent.
//!
//! Results are deterministic across parallelism levels, floating-point
//! SUM/AVG included (exact partial sums, rounded once); integer-SUM
//! overflow detection applies to the re-associated partial sums, since
//! the fold associates at morsel boundaries.

use crate::error::EngineError;
use crate::exec::aggregate::{Acc, AggSpec, GroupTable};
use crate::exec::{ExecContext, Row};
use crate::expr::{AggExpr, BoundExpr};
use crate::planner::physical::AggMode;

use super::pipeline::Pipeline;

/// Aggregate a parallel pipeline: a partial state folded per operator
/// chain (each morsel, then each FULL OUTER tail — after every probed
/// morsel, as in the serial operator), ordered merge, deferred-DISTINCT
/// finalization. Emits rows in the serial first-seen group order (one
/// row always, for ungrouped mode).
pub(super) fn parallel_aggregate(
    pipeline: &Pipeline<'_>,
    group: &[BoundExpr],
    aggs: &[AggExpr],
    mode: AggMode,
    cx: &ExecContext<'_>,
) -> Result<Vec<Row>, EngineError> {
    let agg = AggSpec::new(group, aggs, true);

    match mode {
        AggMode::Ungrouped => {
            let (_, partials) = pipeline.run(
                cx,
                || (),
                |_, _, mut op| {
                    let mut state = agg.new_state();
                    while let Some(batch) = op.next_batch()? {
                        agg.fold_batch_global(&batch, &mut state)?;
                    }
                    Ok(state)
                },
            )?;
            let mut state = agg.new_state();
            for partial in partials {
                state.merge(partial)?;
            }
            agg.finalize_distinct(&mut state)?;
            // One output row even for empty input.
            Ok(vec![state.accs.into_iter().map(Acc::finish).collect()])
        }
        AggMode::HashGrouped => {
            let (_, partials) = pipeline.run(
                cx,
                || (),
                |_, _, mut op| {
                    let mut groups = GroupTable::new();
                    while let Some(batch) = op.next_batch()? {
                        agg.fold_batch_grouped(&batch, &mut groups)?;
                    }
                    Ok(groups)
                },
            )?;
            let mut groups = GroupTable::new();
            // Partials arrive in sequence order; merging each one's flat
            // table in its local first-seen order reconstructs the global
            // (serial) first-seen order. The merge reuses each group's
            // fold-time hash — keys are never re-hashed here.
            for partial in partials {
                groups.merge_from(partial, &agg)?;
            }
            let mut rows = Vec::with_capacity(groups.len());
            for (key, mut state) in groups.into_ordered() {
                agg.finalize_distinct(&mut state)?;
                rows.push(
                    key.into_iter()
                        .chain(state.accs.into_iter().map(Acc::finish))
                        .collect(),
                );
            }
            Ok(rows)
        }
    }
}
