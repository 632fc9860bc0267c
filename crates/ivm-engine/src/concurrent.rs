//! Concurrent snapshot reads: the epoch-versioned snapshot hub and the
//! per-reader session layer.
//!
//! [`Database`] is deliberately single-session — every statement takes
//! `&mut self`, which is the right discipline for the one writer but
//! means nobody can query a view while the HTAP pipeline ingests and
//! refreshes. This module adds the missing read side without giving up
//! that discipline:
//!
//! * The writer stays exclusive. After each *committed point* (a
//!   completed statement, ingest batch, or refresh) it calls
//!   [`SnapshotHub::publish`], which freezes the catalog into an
//!   immutable [`Snapshot`] stamped with a monotonically increasing
//!   epoch. Freezing is O(tables × columns) `Arc` refcount bumps
//!   ([`Catalog::snapshot`]) — no row is copied, ever.
//! * Readers are [`ReadSession`]s. At statement start a reader *pins*
//!   the hub's current snapshot (one `Arc` clone under a briefly-held
//!   lock) and executes entirely against that frozen image — serial or
//!   through the morsel-driven parallel executor — while the writer
//!   keeps appending. Copy-on-write inside [`crate::storage::Table`]
//!   guarantees the pinned image never changes underneath the reader.
//! * Because the hub only ever holds images of committed points, every
//!   read is trivially torn-free: a reader can observe snapshot *n* or
//!   *n+1*, never half of each.
//!
//! The hub holds the writer's plan cache: readers plan through the same
//! entries as the [`Database`] it was made from, keyed by the
//! statement's shape — its text with the values it compares against
//! lifted into parameter slots — and validated against the snapshot's
//! catalog-shape generation. The writer and N readers, whatever their
//! executor settings, pay each shape's plan/optimize/lower cost once; a
//! statement of a known shape is parsed, lifted, and instantiated with
//! its own values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use ivm_sql::ast::{Query, Statement};
use ivm_sql::parse_statement;

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::exec::{ExecConfig, ExecContext};
use crate::plan_cache::{lock, plan_shared, Fill, PlanCache};
use crate::session::{env_config, run_planned, Database, QueryResult};

/// An immutable, epoch-stamped image of the catalog at a committed point.
///
/// Obtained from [`SnapshotHub::pin`]; holding the `Arc` keeps the image
/// alive (and its storage shared) for as long as the reader needs it.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    ddl_generation: u64,
    catalog: Catalog,
}

impl Snapshot {
    /// The publication epoch: strictly increasing across publishes, so
    /// two reads can be ordered by the snapshots they saw.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen catalog image.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

#[derive(Debug)]
struct HubInner {
    current: RwLock<Arc<Snapshot>>,
    epochs: AtomicU64,
}

/// The shared rendezvous between one writer and N readers.
///
/// Cloning the hub is cheap (`Arc`); hand clones to reader threads and
/// keep one beside the writer for publishing.
#[derive(Debug, Clone)]
pub struct SnapshotHub {
    inner: Arc<HubInner>,
    /// The writer database's plan cache.
    plans: Arc<Mutex<PlanCache>>,
}

impl SnapshotHub {
    /// A hub whose initial snapshot is the database's current state, and
    /// whose readers share the database's plan cache.
    pub fn new(db: &Database) -> SnapshotHub {
        let snapshot = Arc::new(Snapshot {
            epoch: 1,
            ddl_generation: db.ddl_generation(),
            catalog: db.catalog().snapshot(),
        });
        SnapshotHub {
            inner: Arc::new(HubInner {
                current: RwLock::new(snapshot),
                epochs: AtomicU64::new(1),
            }),
            plans: Arc::clone(&db.plan_cache),
        }
    }

    /// Publish the database's current state as the next snapshot. Call
    /// only at committed points — readers will serve exactly this image
    /// until the next publish. Returns the new epoch.
    pub fn publish(&self, db: &Database) -> u64 {
        let epoch = self.inner.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        let snapshot = Arc::new(Snapshot {
            epoch,
            ddl_generation: db.ddl_generation(),
            catalog: db.catalog().snapshot(),
        });
        *self.inner.current.write().unwrap() = snapshot;
        epoch
    }

    /// Pin the current snapshot: one `Arc` clone under a briefly-held
    /// read lock. The returned image is immutable for its lifetime.
    pub fn pin(&self) -> Arc<Snapshot> {
        Arc::clone(&self.inner.current.read().unwrap())
    }

    /// The epoch of the currently published snapshot.
    pub fn current_epoch(&self) -> u64 {
        self.inner.epochs.load(Ordering::Relaxed)
    }

    /// A new reader session against this hub. Each reader carries its
    /// own executor settings (initialized from the same environment
    /// defaults as [`Database::new`]) and its own statement state; all
    /// readers share the hub's snapshot stream and the writer's plan
    /// cache.
    pub fn reader(&self) -> ReadSession {
        ReadSession {
            hub: self.clone(),
            config: env_config(),
            last_epoch: 0,
        }
    }

    /// `(entries, hits, misses)` of the plan cache the readers share with
    /// the writer.
    pub fn plan_cache_stats(&self) -> (usize, u64, u64) {
        lock(&self.plans).stats()
    }
}

/// A read-only session over a [`SnapshotHub`].
///
/// Each statement pins the newest published snapshot and runs entirely
/// against it; repeated statements see monotonically non-decreasing
/// epochs. Sessions are cheap and single-threaded — create one per
/// connection/thread rather than sharing one behind a lock.
#[derive(Debug)]
pub struct ReadSession {
    hub: SnapshotHub,
    config: ExecConfig,
    last_epoch: u64,
}

impl ReadSession {
    /// This reader's executor settings.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Change this reader's executor settings (parallelism, memory
    /// budget, batch size, …).
    pub fn config_mut(&mut self) -> &mut ExecConfig {
        &mut self.config
    }

    /// The epoch of the snapshot the most recent [`query`](Self::query)
    /// ran against (0 before the first query).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Execute one `SELECT` against the newest published snapshot.
    ///
    /// The statement is planned against the pinned snapshot's catalog
    /// (through the plan cache shared with the writer) and executed —
    /// serially, or on the morsel-driven parallel executor when this
    /// reader's parallelism is above 1 — wholly against that frozen
    /// image. DML/DDL is rejected: writes go through the single writer.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, EngineError> {
        let q = parse_select(sql)?;
        let snapshot = self.hub.pin();
        self.query_snapshot(sql, q, &snapshot)
    }

    /// [`query`](Self::query) against an explicitly pinned snapshot —
    /// the repeatable-read form: every statement of a report can run
    /// against one consistent epoch regardless of concurrent publishes.
    pub fn query_pinned(
        &mut self,
        sql: &str,
        snapshot: &Snapshot,
    ) -> Result<QueryResult, EngineError> {
        self.query_snapshot(sql, parse_select(sql)?, snapshot)
    }

    /// Pin the current snapshot for use with
    /// [`query_pinned`](Self::query_pinned).
    pub fn pin(&self) -> Arc<Snapshot> {
        self.hub.pin()
    }

    fn query_snapshot(
        &mut self,
        sql: &str,
        q: Query,
        snapshot: &Snapshot,
    ) -> Result<QueryResult, EngineError> {
        self.last_epoch = snapshot.epoch();
        let cx = ExecContext {
            catalog: snapshot.catalog(),
            config: &self.config,
        };
        let as_sent = || parse_select(sql);
        let generation = snapshot.ddl_generation;
        let planned = plan_shared(&self.hub.plans, q, as_sent, &cx, generation, Fill::Run)?;
        run_planned(planned, &cx)
    }
}

fn parse_select(sql: &str) -> Result<Query, EngineError> {
    match parse_statement(sql)? {
        Statement::Query(q) => Ok(*q),
        _ => Err(EngineError::unsupported(
            "read sessions accept SELECT statements only; writes go through the writer session",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn db_with_rows(n: i64) -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)").unwrap();
        for i in 0..n {
            db.execute(&format!("INSERT INTO t VALUES ({}, {})", i % 4, i))
                .unwrap();
        }
        db
    }

    #[test]
    fn pinned_snapshot_is_frozen_while_writer_appends() {
        let mut db = db_with_rows(10);
        let hub = SnapshotHub::new(&db);
        let pinned = hub.pin();
        assert_eq!(pinned.epoch(), 1);

        // Writer keeps appending and even compacts; the pinned image
        // must not move.
        for i in 10..500 {
            db.execute(&format!("INSERT INTO t VALUES ({}, {})", i % 4, i))
                .unwrap();
        }
        db.execute("DELETE FROM t WHERE v >= 250").unwrap();
        db.catalog_mut().table_mut("t").unwrap().compact();

        let mut reader = hub.reader();
        reader.config_mut().set_parallelism(1);
        let old = reader
            .query_pinned("SELECT COUNT(*) FROM t", &pinned)
            .unwrap();
        assert_eq!(old.rows, vec![vec![Value::Integer(10)]]);

        // A fresh publish exposes the new state.
        hub.publish(&db);
        let new = reader.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(new.rows, vec![vec![Value::Integer(250)]]);
        assert_eq!(reader.last_epoch(), 2);
    }

    #[test]
    fn reader_rejects_writes() {
        let db = db_with_rows(1);
        let hub = SnapshotHub::new(&db);
        let mut reader = hub.reader();
        let err = reader.query("INSERT INTO t VALUES (9, 9)").unwrap_err();
        assert!(err.message().contains("read sessions accept SELECT"));
    }

    #[test]
    fn epochs_increase_monotonically() {
        let mut db = db_with_rows(2);
        let hub = SnapshotHub::new(&db);
        assert_eq!(hub.current_epoch(), 1);
        db.execute("INSERT INTO t VALUES (1, 2)").unwrap();
        assert_eq!(hub.publish(&db), 2);
        db.execute("INSERT INTO t VALUES (1, 3)").unwrap();
        assert_eq!(hub.publish(&db), 3);
        assert_eq!(hub.pin().epoch(), 3);
    }

    #[test]
    fn shared_plan_cache_hits_across_readers_and_validates_ddl() {
        let mut db = db_with_rows(8);
        let hub = SnapshotHub::new(&db);
        let mut r1 = hub.reader();
        let mut r2 = hub.reader();
        r1.config_mut().set_parallelism(1);
        r2.config_mut().set_parallelism(1);
        r1.query("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        r2.query("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        let (entries, hits, misses) = hub.plan_cache_stats();
        assert_eq!((entries, hits, misses), (1, 1, 1), "r2 reuses r1's plan");

        // DDL on the writer → next publish carries a new generation →
        // the cached plan stops matching and is rebuilt.
        db.execute("CREATE TABLE other (x INTEGER)").unwrap();
        hub.publish(&db);
        r1.query("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        let (_, hits, misses) = hub.plan_cache_stats();
        assert_eq!((hits, misses), (1, 2), "stale generation re-plans");

        // A plan is keyed by the statement's shape alone: a reader with
        // another budget reuses it.
        r2.config_mut().set_memory_budget(Some(1));
        r2.query("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        let (entries, hits, misses) = hub.plan_cache_stats();
        assert_eq!(
            (entries, hits, misses),
            (1, 2, 2),
            "budget is not in the key"
        );
    }

    #[test]
    fn lookups_differing_in_values_share_one_indexed_template() {
        let mut db = db_with_rows(64);
        db.execute("CREATE INDEX t_k ON t (k)").unwrap();
        let hub = SnapshotHub::new(&db);
        let mut reader = hub.reader();
        for k in 0..4 {
            let sql = format!("SELECT COUNT(*), SUM(v) FROM t WHERE k = {k}");
            assert_eq!(reader.query(&sql).unwrap(), db.query(&sql).unwrap());
        }
        assert_eq!(hub.plan_cache_stats(), (1, 3, 1), "one shape, planned once");

        // Another literal type is another shape.
        reader
            .query("SELECT COUNT(*) FROM t WHERE k = 1.5")
            .unwrap();
        assert_eq!(hub.plan_cache_stats().0, 2);
    }

    /// A subquery body is part of its plan: a shape's first execution
    /// lowers the body with the plan, and every later one — the
    /// writer's, a snapshot reader's, a DML's scan for its victims —
    /// instantiates the cached template and lowers nothing.
    #[test]
    fn cached_subquery_bodies_lower_once() {
        use crate::planner::physical::lowerings;
        let mut db = db_with_rows(16);
        db.execute("CREATE TABLE d (k INTEGER)").unwrap();
        db.execute("INSERT INTO d VALUES (1), (3)").unwrap();
        let hub = SnapshotHub::new(&db);
        let mut reader = hub.reader();
        // Rows (i % 4, i): k is 1 or 3 exactly when i is odd.
        let count =
            |v: i64| format!("SELECT COUNT(*) FROM t WHERE v > {v} AND k IN (SELECT k FROM d)");
        let odd_above = |v: i64| Value::Integer((v + 1..16).filter(|i| i % 2 == 1).count() as i64);
        let before = lowerings();
        for v in 0..5 {
            let via_db = db.execute(&count(v)).unwrap();
            assert_eq!(via_db.scalar(), Some(&odd_above(v)), "{}", count(v));
            let via_reader = reader.query(&count(v)).unwrap();
            assert_eq!(via_reader.scalar(), Some(&odd_above(v)), "{}", count(v));
        }
        assert_eq!(lowerings() - before, 1, "one shape, lowered once");

        let before = lowerings();
        for v in [1, 3, 4] {
            let sql = format!("DELETE FROM t WHERE v = {v} AND k IN (SELECT k FROM d)");
            let affected = db.execute(&sql).unwrap().rows_affected;
            assert_eq!(affected, usize::from(v % 2 == 1), "{sql}");
        }
        assert_eq!(lowerings() - before, 1, "one DML shape, lowered once");
    }

    /// The writer session and a snapshot reader share one plan → run
    /// path: five query shapes through both entries, at {1, 2} workers ×
    /// {unbounded, 1 KB} budget — all eight cells row-identical.
    #[test]
    fn parallel_reader_matches_serial_reader() {
        let mut db = db_with_rows(512);
        db.execute("CREATE TABLE d (k INTEGER, name VARCHAR)")
            .unwrap();
        db.execute("INSERT INTO d VALUES (0, 'zero'), (1, 'one'), (2, 'two')")
            .unwrap();
        let hub = SnapshotHub::new(&db);
        let shapes = [
            "SELECT k, v FROM t WHERE v > 100",
            "SELECT t.v, d.name FROM t JOIN d ON t.k = d.k",
            "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
            "SELECT DISTINCT k FROM t",
            "SELECT k, v FROM t ORDER BY v DESC LIMIT 7",
        ];
        let mut baseline: Option<Vec<QueryResult>> = None;
        for workers in [1usize, 2] {
            for budget in [None, Some(1024)] {
                db.config_mut().set_parallelism(workers);
                db.config_mut().set_morsel_size(32);
                db.config_mut().set_memory_budget(budget);
                let mut reader = hub.reader();
                reader.config_mut().set_parallelism(workers);
                reader.config_mut().set_morsel_size(32);
                reader.config_mut().set_memory_budget(budget);
                let via_db: Vec<QueryResult> =
                    shapes.iter().map(|q| db.query(q).unwrap()).collect();
                let via_reader: Vec<QueryResult> =
                    shapes.iter().map(|q| reader.query(q).unwrap()).collect();
                let expect = baseline.get_or_insert_with(|| via_db.clone());
                assert_eq!(
                    &via_db, expect,
                    "Database::query at {workers} workers, {budget:?}"
                );
                assert_eq!(
                    &via_reader, expect,
                    "ReadSession::query at {workers} workers, {budget:?}"
                );
            }
        }
    }
}
