//! Parallel partitioned hash aggregation.
//!
//! Phase 1 is morsel-driven: each worker folds its morsels' batches into
//! per-morsel partial states ([`GroupState`] maps with first-seen order)
//! using the same vectorized [`AggSpec`] fold the serial operator runs.
//! Phase 2 merges the per-morsel summaries **in morsel order** — so
//! first-seen group order, MIN/MAX tie resolution, and SUM type
//! promotion all match the serial executor regardless of how morsels
//! were scheduled across workers. DISTINCT aggregates defer accumulator
//! updates to a post-merge fold over the unioned value sets (in value
//! order), which is likewise schedule-independent.
//!
//! Results are deterministic across parallelism levels, floating-point
//! SUM/AVG included (exact partial sums, rounded once); integer-SUM
//! overflow detection applies to the re-associated partial sums, since
//! the fold associates at morsel boundaries.

use crate::error::EngineError;
use crate::exec::aggregate::{Acc, AggSpec, GroupTable};
use crate::exec::{prepare_aggregate, ExecContext, Row};
use crate::expr::{AggExpr, BoundExpr};
use crate::planner::physical::AggMode;

use super::pipeline::{pipeline_tails, run_morsels, MorselOut, MorselWork, PipelineSpec};

/// Aggregate a parallel pipeline: morsel-local fold, ordered merge,
/// deferred-DISTINCT finalization. Emits rows in the serial first-seen
/// group order (one row always, for ungrouped mode).
pub(super) fn parallel_aggregate(
    spec: &PipelineSpec<'_>,
    group: &[BoundExpr],
    aggs: &[AggExpr],
    mode: AggMode,
    cx: &ExecContext<'_>,
) -> Result<Vec<Row>, EngineError> {
    let (group, aggs) = prepare_aggregate(group, aggs, cx)?;
    let agg = AggSpec::new(&group, aggs, true);

    match mode {
        AggMode::Ungrouped => {
            let partials = run_morsels(spec, cx, MorselWork::AggGlobal(&agg))?;
            let mut state = agg.new_state();
            for (_, out) in partials {
                let MorselOut::Global(s) = out else {
                    unreachable!("global work yields global partials")
                };
                state.merge(s)?;
            }
            // FULL OUTER tails come after every probed morsel, as in the
            // serial operator; fold them last.
            for batch in pipeline_tails(spec, cx)? {
                agg.fold_batch_global(&batch, &mut state)?;
            }
            agg.finalize_distinct(&mut state)?;
            // One output row even for empty input.
            Ok(vec![state.accs.into_iter().map(Acc::finish).collect()])
        }
        AggMode::HashGrouped => {
            let partials = run_morsels(spec, cx, MorselWork::AggGrouped(&agg))?;
            let mut groups = GroupTable::new();
            // Partials arrive sorted by morsel sequence; merging each
            // morsel's flat table in its local first-seen order
            // reconstructs the global (serial) first-seen order. The
            // merge reuses each group's fold-time hash — keys are never
            // re-hashed here.
            for (_, out) in partials {
                let MorselOut::Grouped(partial) = out else {
                    unreachable!("grouped work yields grouped partials")
                };
                groups.merge_from(*partial, &agg)?;
            }
            for batch in pipeline_tails(spec, cx)? {
                agg.fold_batch_grouped(&batch, &mut groups)?;
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
