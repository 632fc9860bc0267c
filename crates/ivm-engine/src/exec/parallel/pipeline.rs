//! Pipelines and the morsel worker loop.
//!
//! A [`Pipeline`] is the schedulable form of a plan subtree made only of
//! streaming nodes: a table-scan leaf ([`ScanSource`]) and, bottom-up,
//! the [`Streaming`] nodes above it — filters, projections, hash-join
//! probes against build sides built once, up front. For each morsel a
//! worker claims from the [`MorselCursor`], [`Pipeline::run`]
//! instantiates the operators — the scan over the morsel's slot range,
//! then each node's operator over that — and hands the chain to the
//! caller's closure to pull dry. Results come back in morsel order, so
//! concatenating or merging them reproduces what one chain over the
//! whole table would emit.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::error::EngineError;
use crate::exec::join::{BuiltJoin, HashJoinOp};
use crate::exec::spill::{
    spill_batches, PartitionGroups, PartitionedSpiller, SpillHash, SpillPartition,
};
use crate::exec::{join_spec, BoxedOperator, ExecContext, ScanSource, Streaming};
use crate::planner::physical::{PhysJoinKind, PhysicalPlan};
use crate::storage::MorselCursor;

/// One pipeline: a scan leaf plus the streaming nodes above it, each
/// compiled once and shared by every worker.
pub(super) struct Pipeline<'a> {
    source: ScanSource<'a>,
    /// Bottom-up.
    stages: Vec<Streaming>,
}

impl<'a> Pipeline<'a> {
    /// Decompose `plan` into a pipeline: walk Filter/Project/HashJoin
    /// nodes down their probe side to a `TableScan` leaf, compiling each
    /// node and materializing + indexing every join build side
    /// (recursively through the parallel executor). `None` when `plan` is
    /// not such a chain; the caller then handles its root as a breaker.
    pub(super) fn of(
        plan: &PhysicalPlan,
        cx: &ExecContext<'a>,
    ) -> Result<Option<Pipeline<'a>>, EngineError> {
        let (input, stage) = match plan {
            PhysicalPlan::TableScan { .. } => {
                return Ok(Some(Pipeline {
                    source: ScanSource::resolve(plan, cx)?,
                    stages: Vec::new(),
                }))
            }
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                (input, None)
            }
            // Under a bounded memory budget a join build side must be able
            // to spill, and a shared in-memory build cannot: the join is
            // left to the breaker path, where both sides stream through
            // per-worker spill partitioners ([`Pipeline::spill`]) into the
            // grace-capable `HashJoinOp`. The pipelines below it still run
            // morsel-parallel.
            PhysicalPlan::HashJoin { .. } if cx.config.budget().is_bounded() => return Ok(None),
            PhysicalPlan::HashJoin { probe, build, .. } => (probe, Some(build)),
            _ => return Ok(None),
        };
        let Some(mut pipeline) = Pipeline::of(input, cx)? else {
            return Ok(None);
        };
        pipeline.stages.push(match stage {
            None => Streaming::compile(plan, cx)?,
            Some(build) => {
                let spec = join_spec(plan, cx)?;
                let rows = super::collect_rows(build, cx)?;
                let built = BuiltJoin::new(rows, &spec, cx.config.parallelism());
                Streaming::Probe(spec, Arc::new(built))
            }
        });
        Ok(Some(pipeline))
    }

    /// The operators of `stages[from..]` over `source`.
    fn over(&self, source: BoxedOperator<'a>, from: usize, batch_size: usize) -> BoxedOperator<'a> {
        self.stages[from..]
            .iter()
            .fold(source, |input, stage| stage.over(input, batch_size))
    }

    /// Run the pipeline: `work` is handed, one at a time per worker, every
    /// operator chain the pipeline consists of — one per morsel of the
    /// source table, then (on the calling thread, after every morsel is
    /// done) one per FULL OUTER probe stage for its tail — along with the
    /// worker's state (one `init()` per worker) and the chain's sequence
    /// number. Returns the sealed worker states and the per-chain results
    /// in sequence order, which is the order a serial plan emits in. A
    /// source that is a single morsel — or an index point read, one unit
    /// of work whatever the table's size — runs entirely on the calling
    /// thread.
    pub(super) fn run<S: WorkerState, T: Send>(
        &self,
        cx: &ExecContext<'_>,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, usize, BoxedOperator<'a>) -> Result<T, EngineError> + Sync,
    ) -> Result<(Vec<S::Sealed>, Vec<T>), EngineError> {
        let batch_size = cx.config.batch_size();
        let (total, morsel) = match self.source.point {
            Some(_) => (1, 1),
            None => {
                let total = self.source.table.total_slots();
                (total, cx.config.effective_morsel_size(total))
            }
        };
        let (mut states, mut out) = for_each_morsel(
            total,
            morsel,
            cx.config.parallelism(),
            &init,
            |state, seq, slots| {
                let scan = self.source.operator(slots, batch_size);
                work(state, seq, self.over(scan, 0, batch_size))
            },
        )?;
        // A FULL OUTER stage's tail is its unmatched build rows flowing
        // through the *remaining* stages — which may probe, and mark
        // matches in, FULL OUTER stages above, so tails run bottom-up,
        // each to exhaustion (a tail snapshots its unmatched rows on
        // first pull). Their sequence numbers follow every morsel's.
        let mut tail_state = None;
        for (j, stage) in self.stages.iter().enumerate() {
            if let Streaming::Probe(spec, built) = stage {
                if spec.join == PhysJoinKind::FullOuter {
                    let (spec, built) = (Arc::clone(spec), Arc::clone(built));
                    let no_probe = Box::new(std::iter::empty());
                    let tail = HashJoinOp::shared(no_probe, spec, built, batch_size, true);
                    let tail = self.over(Box::new(tail), j + 1, batch_size);
                    let state = tail_state.get_or_insert_with(&init);
                    out.push(work(state, out.len() + 1, tail)?);
                }
            }
        }
        if let Some(state) = tail_state {
            states.push(state.seal()?);
        }
        Ok((states, out))
    }

    /// Run the pipeline out-of-core: every worker routes its chains'
    /// output straight into its own budget-accounted
    /// [`PartitionedSpiller`] instead of materializing rows. Returns one
    /// partition set per producer; sequence tags are `seq_base +
    /// (chain_seq << 32 | output_ordinal)` — ascending per producer,
    /// because workers claim morsels in increasing order — so a
    /// sequence-ordered merge of all producers reproduces the serial
    /// output order exactly.
    pub(super) fn spill(
        &self,
        cx: &ExecContext<'_>,
        hash: &SpillHash<'_>,
        seq_base: u64,
    ) -> Result<PartitionGroups, EngineError> {
        let producers = self.run(
            cx,
            || PartitionedSpiller::new(cx.config.budget().clone(), 0),
            |spiller, seq, mut op| {
                let base = seq_base + ((seq as u64) << 32);
                spill_batches(&mut op, hash, base, spiller).map(drop)
            },
        )?;
        Ok(producers.0)
    }
}

/// A morsel worker's private state: made on the worker's thread before
/// its first claim, sealed on it after its last — so each worker's spill
/// files flush and sync in parallel with the others'.
pub(super) trait WorkerState: Send {
    type Sealed: Send;
    fn seal(self) -> Result<Self::Sealed, EngineError>;
}

impl WorkerState for () {
    type Sealed = ();
    fn seal(self) -> Result<(), EngineError> {
        Ok(())
    }
}

impl WorkerState for PartitionedSpiller {
    type Sealed = Vec<SpillPartition>;
    fn seal(self) -> Result<Vec<SpillPartition>, EngineError> {
        self.finish()
    }
}

/// The morsel-driven worker loop: scoped threads — `workers` of them, or
/// fewer when there are fewer morsels, and none at all for a single
/// morsel, which runs on the calling thread — each create their state
/// with `init`, claim `morsel_size`-slot morsels of `total_slots` from a
/// shared [`MorselCursor`] until it is exhausted, running `work` on each,
/// then seal their state. Returns the sealed states and the per-morsel
/// results in morsel order — the order one scan of the whole table
/// visits them in. On error the cursor is poisoned (other workers wind
/// down) and the error from the earliest morsel is returned — the error
/// that one scan would hit first.
pub(super) fn for_each_morsel<S: WorkerState, T: Send>(
    total_slots: usize,
    morsel_size: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, Range<usize>) -> Result<T, EngineError> + Sync,
) -> Result<(Vec<S::Sealed>, Vec<T>), EngineError> {
    const POISONED: &str = "a morsel worker panicked";
    let cursor = MorselCursor::new(total_slots, morsel_size);
    let states: Mutex<Vec<S::Sealed>> = Mutex::new(Vec::new());
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<(usize, EngineError)>> = Mutex::new(Vec::new());
    let worker = || {
        let mut state = init();
        while let Some((seq, slots)) = cursor.claim() {
            match work(&mut state, seq, slots) {
                Ok(out) => results.lock().expect(POISONED).push((seq, out)),
                Err(e) => {
                    cursor.stop();
                    errors.lock().expect(POISONED).push((seq, e));
                    return;
                }
            }
        }
        match state.seal() {
            Ok(sealed) => states.lock().expect(POISONED).push(sealed),
            Err(e) => errors.lock().expect(POISONED).push((usize::MAX, e)),
        }
    };
    let threads = workers.min(cursor.num_morsels());
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(worker);
            }
        });
    }
    let errors = errors.into_inner().expect(POISONED);
    if let Some((_, e)) = errors.into_iter().min_by_key(|(seq, _)| *seq) {
        return Err(e);
    }
    let mut out = results.into_inner().expect(POISONED);
    out.sort_by_key(|(seq, _)| *seq);
    let out = out.into_iter().map(|(_, t)| t).collect();
    Ok((states.into_inner().expect(POISONED), out))
}
