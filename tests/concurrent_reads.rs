//! Concurrency stress suite: N reader threads query a base table and its
//! materialized view through the snapshot hub while a single writer loops
//! ingest → refresh → checkpoint.
//!
//! The oracle is closed-form: batch `b` ingests exactly `PER` rows with
//! `g = 'b<b>'` and `v = b*1000 + i` (i in 0..PER), and the hub publishes
//! only at completed operations — so every read must decompose as "the
//! first k batches, each complete". A group with the wrong COUNT or SUM,
//! or a gap in the batch prefix, is a torn read.
//!
//! Runs unchanged under `OPENIVM_DATA_DIR` (durable legs: every ingest
//! hits the WAL, checkpoints flush pages) and a transient
//! `OPENIVM_FAULT_PLAN` (internal retries must stay invisible to
//! readers).

use std::sync::atomic::{AtomicBool, Ordering};

use openivm::ivm_core::{IvmFlags, IvmSession};
use openivm::ivm_engine::{QueryResult, ReadSession, Value};

const BATCHES: usize = 30;
const PER: usize = 50;

/// Expected SUM(v) of batch `b`: v = b*1000 + i for i in 0..PER.
fn batch_sum(b: usize) -> i64 {
    (PER * b * 1000 + PER * (PER - 1) / 2) as i64
}

/// Decode a `g, <count>, <sum>` result and assert it is a complete batch
/// prefix; returns the prefix length k. `what` labels failures.
fn assert_prefix(result: &QueryResult, what: &str) -> usize {
    let gi = result.columns.iter().position(|c| c == "g");
    let ci = result.columns.iter().position(|c| c == "c");
    let si = result.columns.iter().position(|c| c == "s");
    let (gi, ci, si) = (
        gi.unwrap_or_else(|| panic!("{what}: no g column in {:?}", result.columns)),
        ci.unwrap_or_else(|| panic!("{what}: no c column in {:?}", result.columns)),
        si.unwrap_or_else(|| panic!("{what}: no s column in {:?}", result.columns)),
    );
    let k = result.rows.len();
    assert!(k <= BATCHES, "{what}: more groups than batches ({k})");
    let mut seen = vec![false; k];
    for row in &result.rows {
        let g = match &row[gi] {
            Value::Varchar(s) => s.clone(),
            other => panic!("{what}: group key {other:?}"),
        };
        let b: usize = g
            .strip_prefix('b')
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{what}: unexpected group {g}"));
        assert!(
            b < k,
            "{what}: group {g} present but prefix has only {k} groups — gap in batch sequence"
        );
        assert!(!seen[b], "{what}: duplicate group {g}");
        seen[b] = true;
        let c = row[ci]
            .as_integer()
            .unwrap_or_else(|| panic!("{what}: count {:?}", row[ci]));
        let s = row[si]
            .as_integer()
            .unwrap_or_else(|| panic!("{what}: sum {:?}", row[si]));
        assert_eq!(
            c as usize, PER,
            "{what}: batch {b} torn — {c} of {PER} rows visible"
        );
        assert_eq!(s, batch_sum(b), "{what}: batch {b} sum mismatch");
    }
    k
}

/// One reader's loop: keep querying until the writer is done, asserting
/// the committed-prefix oracle and epoch monotonicity on every read.
fn read_loop(mut reader: ReadSession, done: &AtomicBool, label: &str) -> usize {
    let mut iterations = 0usize;
    let mut max_epoch = 0u64;
    let mut max_prefix = 0usize;
    loop {
        let finished = done.load(Ordering::Acquire);
        let base = reader
            .query("SELECT g, COUNT(*) AS c, SUM(v) AS s FROM base GROUP BY g")
            .unwrap();
        let k = assert_prefix(&base, label);
        assert!(
            k >= max_prefix,
            "{label}: snapshot went backwards ({k} < {max_prefix})"
        );
        max_prefix = k;
        assert!(reader.last_epoch() >= max_epoch, "{label}: epoch regressed");
        max_epoch = reader.last_epoch();
        // The materialized view may lag the base table by unrefreshed
        // batches, but must itself be a complete committed prefix.
        let view = reader.query("SELECT g, c, s FROM v").unwrap();
        assert_prefix(&view, label);
        iterations += 1;
        if finished {
            // One full pass after the writer finished: final state.
            assert_eq!(k, BATCHES, "{label}: final read missed batches");
            return iterations;
        }
    }
}

#[test]
fn concurrent_readers_see_only_committed_snapshots() {
    let mut session = IvmSession::new(IvmFlags::paper_defaults());
    session
        .execute("CREATE TABLE base (g VARCHAR, v INTEGER)")
        .unwrap();
    session
        .execute(
            "CREATE MATERIALIZED VIEW v AS \
             SELECT g, COUNT(*) AS c, SUM(v) AS s FROM base GROUP BY g",
        )
        .unwrap();
    let hub = session.share();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // A frozen pin taken before any batch: must keep reading the
        // empty table no matter how far the writer advances.
        let frozen = hub.pin();
        let mut frozen_reader = hub.reader();

        let writer = scope.spawn(|| {
            let mut session = session; // move the single writer in
            for b in 0..BATCHES {
                let rows: Vec<(Vec<Value>, bool)> = (0..PER)
                    .map(|i| {
                        (
                            vec![
                                Value::Varchar(format!("b{b}")),
                                Value::Integer((b * 1000 + i) as i64),
                            ],
                            true,
                        )
                    })
                    .collect();
                session.ingest_deltas("base", &rows).unwrap();
                session.refresh("v").unwrap();
                if b % 5 == 4 {
                    session.checkpoint().unwrap();
                }
            }
            session
        });

        // Four concurrent readers with mixed execution configurations:
        // serial, parallel, budgeted (spill-capable), parallel+budgeted.
        let mut handles = Vec::new();
        for (i, (workers, budget)) in [
            (1, None),
            (4, None),
            (1, Some(64 << 10)),
            (2, Some(64 << 10)),
        ]
        .into_iter()
        .enumerate()
        {
            let mut reader = hub.reader();
            reader.config_mut().set_parallelism(workers);
            reader.config_mut().set_memory_budget(budget);
            let done = &done;
            handles.push(scope.spawn(move || read_loop(reader, done, &format!("reader{i}"))));
        }

        let mut session = writer.join().expect("writer panicked");
        done.store(true, Ordering::Release);
        for h in handles {
            let iterations = h.join().expect("reader panicked");
            assert!(iterations > 0);
        }

        // The pre-ingest pin stayed frozen throughout.
        let empty = frozen_reader
            .query_pinned("SELECT COUNT(*) AS c FROM base", &frozen)
            .unwrap();
        assert_eq!(
            empty.rows[0][0].as_integer(),
            Some(0),
            "pinned snapshot moved"
        );

        // Writer-side sanity: all batches landed and the view agrees.
        assert!(session.check_consistency("v").unwrap());
        let total = session
            .database()
            .query("SELECT COUNT(*) AS c FROM base")
            .unwrap();
        assert_eq!(total.rows[0][0].as_integer(), Some((BATCHES * PER) as i64));
    });
}

#[test]
fn readers_reject_writes_and_share_plans() {
    let mut session = IvmSession::new(IvmFlags::paper_defaults());
    session
        .execute("CREATE TABLE base (g VARCHAR, v INTEGER)")
        .unwrap();
    session
        .execute("INSERT INTO base VALUES ('b0', 1), ('b0', 2)")
        .unwrap();
    let hub = session.share();
    session
        .execute("INSERT INTO base VALUES ('b1', 3)")
        .unwrap();

    let mut r1 = hub.reader();
    let mut r2 = hub.reader();
    assert!(r1.query("INSERT INTO base VALUES ('x', 9)").is_err());
    let a = r1.query("SELECT SUM(v) AS s FROM base").unwrap();
    let b = r2.query("SELECT SUM(v) AS s FROM base").unwrap();
    assert_eq!(a.rows[0][0].as_integer(), Some(6));
    assert_eq!(b.rows[0][0].as_integer(), Some(6));
    let (entries, hits, _misses) = hub.plan_cache_stats();
    assert!(entries >= 1);
    assert!(hits >= 1, "second reader should hit the shared plan cache");
}
