//! The embedded database session: `Database::execute(sql)`.

use ivm_sql::ast::{
    Assignment, ConflictAction, CreateIndex, CreateTable, Delete, Drop, DropKind, Insert,
    InsertSource, Query, Statement, Update,
};
use ivm_sql::{parse_statement, parse_statements};

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::exec::{
    self, clean_orphan_spill_files, filter_row_ids, prepare_expr, ExecConfig, ExecContext,
    MemoryBudget, Row, SpillStats,
};
use crate::expr::bind::{bind_expr_with, Scope};
use crate::expr::BindColumn;
use crate::optimizer::optimize;
use crate::plan_cache::{PlanCache, PlanKey, Planned};
use crate::planner::physical::lower_with_budget;
use crate::planner::plan_query;
use crate::schema::{Column, Schema};
use crate::storage::durability::{Durability, DurabilityOptions, RecoveryStats};
use crate::storage::wal::WalStats;
use crate::storage::{BufferPoolStats, Table};
use crate::types::DataType;
use crate::value::Value;

/// Environment variable read by [`Database::new`] for the default number
/// of executor worker threads (CI runs the test suite at 1 and 4). When
/// unset, the pool defaults to `std::thread::available_parallelism()`;
/// setting it to `1` is the explicit serial bypass.
pub const PARALLELISM_ENV: &str = "OPENIVM_PARALLELISM";

/// Environment variable read by [`Database::new`] for the default
/// executor memory budget (bytes, with optional `K`/`KB`/`M`/`MB`/`G`/
/// `GB` suffix; `0` or `unbounded` disables the budget). CI runs the
/// whole test suite once with a small value so every test doubles as a
/// spill-correctness test.
pub const MEMORY_BUDGET_ENV: &str = "OPENIVM_MEMORY_BUDGET";

/// Environment variable read by [`Database::new`] for the directory
/// spill files are created in (default: the system temp directory).
pub const SPILL_DIR_ENV: &str = "OPENIVM_SPILL_DIR";

/// Environment variable read by [`Database::new`]: when set, every
/// database created through `new`/`default` is durable, backed by a
/// fresh *ephemeral* subdirectory of the given path (unique per
/// database, removed on drop). This is the CI switch that runs the
/// whole test suite against the page/WAL stack; explicitly durable
/// databases use [`Database::open`] instead. WAL fsync is off in this
/// mode — crash-safety is exercised by the dedicated harness, not the
/// suite-wide leg.
pub const DATA_DIR_ENV: &str = "OPENIVM_DATA_DIR";

/// Parse an `OPENIVM_DATA_DIR` value: a non-empty path.
///
/// Shared by the env reader (which turns `Err` into a loud startup
/// panic — a typo'd setting must never silently fall back) and tests.
pub fn parse_data_dir_setting(raw: &str) -> Result<std::path::PathBuf, EngineError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(EngineError::bind(format!(
            "invalid {DATA_DIR_ENV} value {raw:?}: expected a directory path"
        )));
    }
    Ok(std::path::PathBuf::from(trimmed))
}

/// Parse an `OPENIVM_PARALLELISM` value: a positive integer.
///
/// Shared by the env reader (which turns `Err` into a loud startup
/// panic — a typo'd setting must never silently fall back) and tests.
pub fn parse_parallelism_setting(raw: &str) -> Result<usize, EngineError> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(EngineError::bind(format!(
            "invalid {PARALLELISM_ENV} value {raw:?}: expected a positive integer \
             (e.g. 1 for serial, 4 for four workers)"
        ))),
    }
}

/// Parse an `OPENIVM_MEMORY_BUDGET` value: a byte count with an optional
/// `K`/`KB`/`M`/`MB`/`G`/`GB` suffix (case-insensitive); `0` or
/// `unbounded` disables the budget. Returns `None` for unbounded.
pub fn parse_memory_budget_setting(raw: &str) -> Result<Option<usize>, EngineError> {
    let s = raw.trim();
    let invalid = || {
        EngineError::bind(format!(
            "invalid {MEMORY_BUDGET_ENV} value {raw:?}: expected bytes with an optional \
             K/KB/M/MB/G/GB suffix (e.g. 64KB, 512M), or 0/unbounded to disable"
        ))
    };
    if s.eq_ignore_ascii_case("unbounded") {
        return Ok(None);
    }
    let upper = s.to_ascii_uppercase();
    let (digits, multiplier) = if let Some(p) = upper.strip_suffix("KB").or(upper.strip_suffix("K"))
    {
        (p, 1usize << 10)
    } else if let Some(p) = upper.strip_suffix("MB").or(upper.strip_suffix("M")) {
        (p, 1 << 20)
    } else if let Some(p) = upper.strip_suffix("GB").or(upper.strip_suffix("G")) {
        (p, 1 << 30)
    } else {
        (upper.as_str(), 1)
    };
    let digits = digits.trim();
    if digits.is_empty() {
        return Err(invalid());
    }
    let n: usize = digits.parse().map_err(|_| invalid())?;
    let bytes = n.checked_mul(multiplier).ok_or_else(invalid)?;
    Ok(if bytes == 0 { None } else { Some(bytes) })
}

/// Read and validate an environment setting; invalid values are a loud
/// startup error (panic with the parse message), never a silent default.
fn env_setting<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, EngineError>) -> Option<T> {
    match std::env::var(name) {
        Ok(raw) => Some(parse(&raw).unwrap_or_else(|e| panic!("{e}"))),
        Err(_) => None,
    }
}

/// The executor settings a new session starts with: the environment's
/// parallelism, memory budget, and spill directory over the defaults.
pub(crate) fn env_config() -> ExecConfig {
    // An explicit parallelism wins; `1` is the explicit serial bypass.
    // Unset: size the worker pool from the machine.
    let parallelism = env_setting(PARALLELISM_ENV, parse_parallelism_setting)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get));
    let budget = match env_setting(MEMORY_BUDGET_ENV, parse_memory_budget_setting).flatten() {
        Some(bytes) => MemoryBudget::with_limit(bytes),
        None => MemoryBudget::unbounded(),
    };
    if let Some(dir) = std::env::var_os(SPILL_DIR_ENV) {
        budget.set_spill_dir(std::path::PathBuf::from(dir));
    }
    ExecConfig::new(parallelism, budget)
}

/// Bind, optimize, and lower `q` against the context's catalog, under
/// its memory budget — the one way a query becomes a physical plan, for
/// the writer session and for snapshot readers alike.
pub(crate) fn plan_physical(q: &Query, cx: &ExecContext<'_>) -> Result<Planned, EngineError> {
    let plan = optimize(plan_query(q, cx.catalog)?);
    let columns = plan.schema().names();
    let physical = lower_with_budget(&plan, cx.catalog, cx.config.budget().limit())?;
    Ok((std::sync::Arc::new(physical), columns))
}

/// Run a planned query under `cx` ([`exec::run`]) into a [`QueryResult`].
pub(crate) fn run_planned(
    (physical, columns): Planned,
    cx: &ExecContext<'_>,
) -> Result<QueryResult, EngineError> {
    Ok(QueryResult {
        columns,
        rows: exec::run(&physical, cx)?,
        rows_affected: 0,
    })
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted by DML.
    pub rows_affected: usize,
}

impl QueryResult {
    fn dml(rows_affected: usize) -> QueryResult {
        QueryResult {
            rows_affected,
            ..Default::default()
        }
    }

    /// First value of the first row, if any (convenience for scalar queries).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// An embedded database instance — the role DuckDB plays inside OpenIVM
/// ("linking it as a library" per Figure 1).
///
/// Queries run through the batched physical-operator pipeline: logical
/// plans are lowered to [`crate::planner::PhysicalPlan`]s and executed
/// by [`crate::exec::run`] under this session's [`ExecConfig`] — the
/// serial operator tree at parallelism 1, the morsel-driven parallel
/// executor ([`crate::exec::parallel`]) above.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    /// Batch size, parallelism, morsel size, and the memory budget
    /// shared by every query of the session.
    config: ExecConfig,
    /// Physical-plan cache for repeated statements (maintenance scripts),
    /// invalidated by bumping `ddl_generation`.
    plan_cache: PlanCache,
    ddl_generation: u64,
    /// Durable backing (pages + WAL + checkpoints); `None` = in-memory
    /// mode, where every code path behaves exactly as before.
    durability: Option<Durability>,
    /// Depth of open [`begin_atomic`](Database::begin_atomic) batches;
    /// while positive, per-statement WAL commits are deferred.
    atomic_depth: u32,
    /// Checkpoint automatically once the WAL has this many bytes
    /// (`None` = only explicit checkpoints). Checked after each WAL
    /// commit: a plain statement's, or an outermost atomic batch's.
    auto_checkpoint_bytes: Option<u64>,
    /// Removes the (env-driven, per-database) data directory on drop.
    /// Declared after `durability` so files are closed first.
    ephemeral_dir: Option<EphemeralDir>,
}

/// Drop guard deleting an env-driven ephemeral data directory.
#[derive(Debug)]
struct EphemeralDir(std::path::PathBuf);

impl std::ops::Drop for EphemeralDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sequence for unique ephemeral data subdirectories within one process.
static EPHEMERAL_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Default for Database {
    fn default() -> Database {
        let mut db = Database::base();
        if let Some(root) = env_setting(DATA_DIR_ENV, parse_data_dir_setting) {
            let seq = EPHEMERAL_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = root.join(format!("db-{}-{seq}", std::process::id()));
            let opts = DurabilityOptions {
                sync_on_commit: false,
                ..DurabilityOptions::default()
            };
            db.open_at(&dir, opts)
                .unwrap_or_else(|e| panic!("{DATA_DIR_ENV}: cannot open {}: {e}", dir.display()));
            db.ephemeral_dir = Some(EphemeralDir(dir));
        }
        db
    }
}

impl Database {
    /// An empty in-memory database, before any `OPENIVM_DATA_DIR` wrap.
    fn base() -> Database {
        Database {
            catalog: Catalog::new(),
            config: env_config(),
            plan_cache: PlanCache::default(),
            ddl_generation: 0,
            durability: None,
            atomic_depth: 0,
            auto_checkpoint_bytes: None,
            ephemeral_dir: None,
        }
    }

    /// An empty database. Executor parallelism defaults to
    /// `$OPENIVM_PARALLELISM` when set (1 = explicit serial bypass), else
    /// to `std::thread::available_parallelism()`. With
    /// `$OPENIVM_DATA_DIR` set, the database is durable in a fresh
    /// ephemeral subdirectory of that path (see [`DATA_DIR_ENV`]).
    pub fn new() -> Database {
        Database::default()
    }

    /// Open (or create) a durable database at `path`: recover the last
    /// checkpoint, replay the committed WAL prefix, and fsync every
    /// commit from here on. Tables, views, and row ids come back exactly
    /// as of the last committed statement.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Database, EngineError> {
        Database::open_with_options(path, DurabilityOptions::default())
    }

    /// [`Database::open`] with explicit durability tuning (fsync policy,
    /// WAL segment size bound).
    pub fn open_with_options(
        path: impl AsRef<std::path::Path>,
        opts: DurabilityOptions,
    ) -> Result<Database, EngineError> {
        let mut db = Database::base();
        db.open_at(path.as_ref(), opts)?;
        Ok(db)
    }

    /// Attach durable backing from `dir` to this (empty) database.
    fn open_at(
        &mut self,
        dir: &std::path::Path,
        opts: DurabilityOptions,
    ) -> Result<(), EngineError> {
        // A crashed process leaves spill temp files behind; reclaim the
        // dead ones while we're recovering its durable state anyway.
        clean_orphan_spill_files(&self.config.budget().spill_dir());
        let (durability, mut catalog) = Durability::open(dir, opts)?;
        catalog.set_wal(Some(durability.wal_handle()));
        self.catalog = catalog;
        self.durability = Some(durability);
        self.invalidate_plans();
        Ok(())
    }

    /// Whether this database has durable backing.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable data directory, when [`Database::is_durable`].
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.durability.as_ref().map(Durability::dir)
    }

    /// Checkpoint the durable state: write dirty tables to fresh pages,
    /// publish the new catalog meta atomically, and truncate the WAL.
    /// A no-op for in-memory databases.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        match &mut self.durability {
            Some(d) => d.checkpoint(&self.catalog),
            None => Ok(()),
        }
    }

    /// Checkpoint and drop the database (the clean shutdown path). When
    /// the WAL is poisoned (read-only degraded mode after a commit-path
    /// I/O failure) the checkpoint is skipped and close still succeeds:
    /// the durable state on disk is exactly the last acknowledged commit.
    pub fn close(mut self) -> Result<(), EngineError> {
        if self.is_degraded() {
            return Ok(());
        }
        self.checkpoint()
    }

    /// Whether the database has dropped into read-only degraded mode: a
    /// WAL commit-path write or fsync failed, so DML is refused (queries
    /// keep working) until the database is reopened.
    pub fn is_degraded(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(Durability::wal_poisoned)
    }

    /// Checkpoint automatically once the WAL holds `bytes` (`None`
    /// disables, the default). Checked after each WAL commit — a plain
    /// statement's, or the close of an outermost atomic batch — the knob
    /// that keeps a long uncheckpointed run from accumulating unbounded
    /// WAL segments.
    pub fn set_auto_checkpoint(&mut self, bytes: Option<u64>) {
        self.auto_checkpoint_bytes = bytes;
    }

    /// Refuse mutating statements in degraded mode with a clean error.
    fn degraded_gate(&self, stmt: &Statement) -> Result<(), EngineError> {
        let mutates = !matches!(
            stmt,
            Statement::Query(_)
                | Statement::Explain(_)
                | Statement::Begin
                | Statement::Commit
                | Statement::Rollback
        );
        if mutates && self.is_degraded() {
            return Err(EngineError::execution(
                "database is in read-only degraded mode (WAL commit failed); \
                 reopen it to resume writes",
            ));
        }
        Ok(())
    }

    /// Durability epilogue of a statement, and of an outermost atomic
    /// batch: commit the WAL, then take the size-triggered
    /// auto-checkpoint when configured. Inside an open batch both wait
    /// for the batch to close.
    fn commit_statement(&mut self) -> Result<(), EngineError> {
        self.wal_commit()?;
        if let Some(threshold) = self.auto_checkpoint_bytes {
            if self.atomic_depth == 0 && !self.is_degraded() {
                let bytes = self
                    .durability
                    .as_ref()
                    .map(|d| d.wal_stats().bytes_written)
                    .unwrap_or(0);
                if bytes >= threshold {
                    self.checkpoint()?;
                }
            }
        }
        Ok(())
    }

    /// Make the current WAL statement durable (group-commit point). The
    /// SQL execution paths call this automatically after every
    /// statement; direct [`Database::catalog_mut`] mutations should call
    /// it when they want their writes to survive a crash. A no-op for
    /// in-memory databases and inside an open atomic batch.
    pub fn wal_commit(&mut self) -> Result<(), EngineError> {
        if self.atomic_depth > 0 {
            return Ok(());
        }
        match &self.durability {
            Some(d) => d.wal_commit(),
            None => Ok(()),
        }
    }

    /// Start an atomic durability batch: until the matching
    /// [`end_atomic`](Database::end_atomic), per-statement WAL commits are
    /// deferred, so recovery sees the whole batch or none of it. Callers
    /// composing one logical operation out of several statements (delta
    /// capture, view propagation scripts) use this to keep crash recovery
    /// from resurfacing a half-applied operation. Batches nest; only the
    /// outermost end commits. A no-op for in-memory databases.
    pub fn begin_atomic(&mut self) {
        self.atomic_depth += 1;
    }

    /// Close an atomic durability batch and, at the outermost level,
    /// commit its WAL records as one durability point. Call this even
    /// when a statement inside the batch failed: in-memory semantics keep
    /// the applied prefix, and recovery must reproduce exactly that.
    pub fn end_atomic(&mut self) -> Result<(), EngineError> {
        debug_assert!(self.atomic_depth > 0, "end_atomic without begin_atomic");
        self.atomic_depth = self.atomic_depth.saturating_sub(1);
        if self.atomic_depth == 0 {
            self.commit_statement()
        } else {
            Ok(())
        }
    }

    /// Counters from the last recovery ([`Database::open`]), when durable.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.durability.as_ref().map(Durability::recovery_stats)
    }

    /// Cumulative WAL counters, when durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(Durability::wal_stats)
    }

    /// Cumulative page I/O counters of `pages.db`, when durable: pages
    /// read (`misses`) and pages written (`pages_written`). There is no
    /// pool any more, so `hits` and `evictions` stay 0; the name is kept
    /// for the benchmark that reads it.
    pub fn buffer_pool_stats(&self) -> Option<BufferPoolStats> {
        self.durability.as_ref().map(Durability::pool_stats)
    }

    /// An empty database with an explicit executor batch size (rows per
    /// [`crate::exec::RowBatch`]; clamped to ≥ 1).
    pub fn with_batch_size(batch_size: usize) -> Database {
        let mut db = Database::default();
        db.set_batch_size(batch_size);
        db
    }

    /// The executor batch size.
    pub fn batch_size(&self) -> usize {
        self.config.batch_size()
    }

    /// Change the executor batch size (rows per batch; clamped to ≥ 1).
    pub fn set_batch_size(&mut self, batch_size: usize) {
        self.config.set_batch_size(batch_size);
    }

    /// The number of executor worker threads.
    pub fn parallelism(&self) -> usize {
        self.config.parallelism()
    }

    /// Set the number of executor worker threads (clamped to ≥ 1). At 1,
    /// queries run the serial operator tree; above 1, the morsel-driven
    /// parallel executor.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.config.set_parallelism(workers);
    }

    /// The morsel size (physical slots per scheduling unit) used by the
    /// parallel executor.
    pub fn morsel_size(&self) -> usize {
        self.config.morsel_size()
    }

    /// Set the parallel executor's morsel size (clamped to ≥ 1). Tables
    /// spanning at most one morsel run serially; tests shrink this to
    /// exercise multi-morsel scheduling on small tables. An explicit
    /// size also disables the adaptive scaling that grows morsels on
    /// large scans.
    pub fn set_morsel_size(&mut self, slots: usize) {
        self.config.set_morsel_size(slots);
    }

    /// `(entries, hits)` of the bound-plan cache (see
    /// [`execute_statement`](Database::execute_statement)).
    pub fn plan_cache_stats(&self) -> (usize, usize) {
        let (entries, hits, _) = self.plan_cache.stats();
        (entries, hits as usize)
    }

    /// Set the executor memory budget in bytes (`None` = unbounded, the
    /// default). Under a bounded budget, hash-join builds, group tables,
    /// DISTINCT, and set operations spill radix partitions to temp files
    /// when their tracked state exceeds the budget, and rehydrate them
    /// partition-at-a-time — results are row-identical to unbounded
    /// execution at any [`parallelism`](Database::parallelism): above 1,
    /// breaker inputs stream through per-worker spill partitioners
    /// (never staged as materialized row vectors), spill writes happen
    /// on a background writer thread, and spilled output merge-emits in
    /// sequence order. Environment default: `$OPENIVM_MEMORY_BUDGET`.
    ///
    /// Trade-offs: grouped aggregation, DISTINCT, and set operations
    /// cannot re-scan their input, so a bounded budget routes them
    /// through the partitioned spill framework even when nothing ends up
    /// spilling (serial joins fall back to the streaming path when the
    /// build side fits).
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        // The planner's build-side choice is budget-aware; the plan
        // cache is keyed on the budget, so entries lowered under the old
        // setting simply stop matching (and match again if it returns).
        self.config.set_memory_budget(bytes);
    }

    /// The executor memory budget in bytes (`None` = unbounded).
    pub fn memory_budget(&self) -> Option<usize> {
        self.config.budget().limit()
    }

    /// Set the directory spill files are created in (default: the system
    /// temp directory, or `$OPENIVM_SPILL_DIR`).
    pub fn set_spill_dir(&mut self, dir: impl Into<std::path::PathBuf>) {
        self.config.set_spill_dir(dir);
    }

    /// Cumulative spill/rehydrate counters for this session.
    pub fn spill_stats(&self) -> SpillStats {
        self.config.budget().stats()
    }

    /// What this session's executions borrow: its catalog and executor
    /// settings (pass it to [`exec::run`] or [`exec::build_operator`] to
    /// drive an already-lowered plan by hand).
    pub fn exec_context(&self) -> ExecContext<'_> {
        ExecContext {
            catalog: &self.catalog,
            config: &self.config,
        }
    }

    /// The optimized physical plan for `q`: with a `cache_key`, from the
    /// plan cache when the catalog shape is unchanged since it was
    /// stored (and stored there otherwise).
    fn planned(&mut self, cache_key: Option<&str>, q: &Query) -> Result<Planned, EngineError> {
        let Some(sql) = cache_key else {
            return plan_physical(q, &self.exec_context());
        };
        let key = PlanKey::new(sql, &self.config);
        if let Some(hit) = self.plan_cache.get(&key, self.ddl_generation) {
            return Ok(hit);
        }
        let planned = plan_physical(q, &self.exec_context())?;
        self.plan_cache
            .insert(key, self.ddl_generation, planned.clone());
        Ok(planned)
    }

    /// Borrow the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutably borrow the catalog (bulk loads, index rebuilds). Data
    /// mutations never stale the plan cache; if you *drop or re-create
    /// tables* through this handle (instead of SQL DDL, which invalidates
    /// automatically), call [`invalidate_plans`](Database::invalidate_plans).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Drop every cached physical plan (catalog shape changed outside the
    /// SQL DDL path).
    pub fn invalidate_plans(&mut self) {
        self.ddl_generation += 1;
        self.plan_cache.clear();
    }

    /// The catalog-shape generation the plan cache validates against;
    /// snapshot publication stamps it into each published snapshot so
    /// shared prepared-statement caches can do the same validation.
    pub(crate) fn ddl_generation(&self) -> u64 {
        self.ddl_generation
    }

    /// Execute a single SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, EngineError> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt, None)
    }

    /// Execute a `;`-separated script, returning one result per statement.
    /// Execution stops at the first error.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>, EngineError> {
        let stmts = parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.execute_statement(stmt, None)?);
        }
        Ok(out)
    }

    /// Execute a read-only query and return its rows.
    pub fn query(&self, sql: &str) -> Result<QueryResult, EngineError> {
        let stmt = parse_statement(sql)?;
        match &stmt {
            Statement::Query(q) => {
                let cx = self.exec_context();
                run_planned(plan_physical(q, &cx)?, &cx)
            }
            _ => Err(EngineError::unsupported(
                "query() accepts SELECT statements only",
            )),
        }
    }

    /// Execute one parsed statement. In a durable database this also
    /// commits the statement's WAL records afterwards — including after
    /// an error, because in-memory semantics keep the applied prefix of a
    /// partially failed statement, and recovery must reproduce exactly
    /// that state.
    ///
    /// With a `cache_key` (conventionally the statement's SQL text), the
    /// optimized physical plan of a query or an `INSERT … SELECT` source
    /// is cached under it: repeated executions of the same maintenance
    /// script skip planning, optimization, and physical lowering
    /// entirely. The cache is invalidated by any SQL DDL; catalog-shape
    /// changes made through [`catalog_mut`](Database::catalog_mut)
    /// require an explicit [`invalidate_plans`](Database::invalidate_plans).
    pub fn execute_statement(
        &mut self,
        stmt: &Statement,
        cache_key: Option<&str>,
    ) -> Result<QueryResult, EngineError> {
        self.degraded_gate(stmt)?;
        let result = self.execute_statement_inner(stmt, cache_key);
        let commit = self.commit_statement();
        match result {
            Err(e) => Err(e),
            Ok(r) => commit.map(|()| r),
        }
    }

    fn execute_statement_inner(
        &mut self,
        stmt: &Statement,
        cache_key: Option<&str>,
    ) -> Result<QueryResult, EngineError> {
        match stmt {
            Statement::Query(q) => {
                let planned = self.planned(cache_key, q)?;
                run_planned(planned, &self.exec_context())
            }
            Statement::CreateTable(ct) => self.create_table(ct),
            Statement::CreateIndex(ci) => self.create_index(ci),
            Statement::CreateView(cv) => {
                if cv.materialized {
                    // Mirrors stock DuckDB: materialized views need the
                    // OpenIVM extension (ivm-core's IvmSession fallback).
                    return Err(EngineError::unsupported(
                        "CREATE MATERIALIZED VIEW requires the OpenIVM extension",
                    ));
                }
                // Validate the view body eagerly, as real engines do.
                plan_query(&cv.query, &self.catalog)?;
                self.ddl_generation += 1;
                self.catalog
                    .create_view(cv.name.normalized(), (*cv.query).clone())?;
                Ok(QueryResult::default())
            }
            Statement::Drop(d) => self.drop(d),
            Statement::Insert(ins) => self.insert(ins, cache_key),
            Statement::Update(u) => self.update(u),
            Statement::Delete(d) => self.delete(d),
            // The analytical engine auto-commits; real transaction scoping
            // lives in the OLTP substrate (ivm-oltp).
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                Ok(QueryResult::default())
            }
            Statement::Explain(inner) => {
                let Statement::Query(q) = inner.as_ref() else {
                    return Err(EngineError::unsupported("EXPLAIN supports queries only"));
                };
                // Show what will actually run: the lowered physical tree,
                // under this session's budget.
                let (physical, _) = plan_physical(q, &self.exec_context())?;
                let rows = physical
                    .explain()
                    .lines()
                    .map(|l| vec![Value::Varchar(l.to_string())])
                    .collect();
                Ok(QueryResult {
                    columns: vec!["explain".to_string()],
                    rows,
                    rows_affected: 0,
                })
            }
        }
    }

    fn create_table(&mut self, ct: &CreateTable) -> Result<QueryResult, EngineError> {
        self.ddl_generation += 1;
        let name = ct.name.normalized().to_string();
        if self.catalog.has_table(&name) {
            if ct.if_not_exists {
                return Ok(QueryResult::default());
            }
            return Err(EngineError::catalog(format!("{name} already exists")));
        }
        let columns: Vec<Column> = ct
            .columns
            .iter()
            .map(|c| Column {
                name: c.name.normalized().to_string(),
                ty: DataType::from(c.ty),
                not_null: c.not_null,
            })
            .collect();
        let schema = Schema::new(columns);
        let mut pk = Vec::with_capacity(ct.primary_key.len());
        for k in &ct.primary_key {
            let pos = schema.position(k.normalized()).ok_or_else(|| {
                EngineError::bind(format!("unknown PRIMARY KEY column {}", k.normalized()))
            })?;
            pk.push(pos);
        }
        self.catalog.create_table(Table::new(name, schema, pk))?;
        Ok(QueryResult::default())
    }

    fn create_index(&mut self, ci: &CreateIndex) -> Result<QueryResult, EngineError> {
        self.ddl_generation += 1;
        let tname = ci.table.normalized();
        let table = self.catalog.table_mut(tname)?;
        let mut cols = Vec::with_capacity(ci.columns.len());
        for c in &ci.columns {
            let pos = table.schema.position(c.normalized()).ok_or_else(|| {
                EngineError::bind(format!("unknown column {} in index", c.normalized()))
            })?;
            cols.push(pos);
        }
        // A UNIQUE index on a keyless table becomes its primary-key ART —
        // the paper's "ART is generated after having populated V" path.
        if ci.unique && !table.has_pk_index() {
            table.add_pk_index(cols)?;
        } else {
            table.create_secondary_index(ci.name.normalized().to_string(), cols, ci.unique)?;
        }
        Ok(QueryResult::default())
    }

    fn drop(&mut self, d: &Drop) -> Result<QueryResult, EngineError> {
        self.ddl_generation += 1;
        let name = d.name.normalized();
        match d.kind {
            DropKind::Table => {
                self.catalog.drop_table(name, d.if_exists)?;
            }
            DropKind::View => {
                self.catalog.drop_view(name, d.if_exists)?;
            }
            DropKind::Index => {
                // Indexes are table-scoped; search all tables.
                let mut dropped = false;
                for tname in self.catalog.table_names() {
                    let t = self.catalog.table_mut(&tname)?;
                    if t.drop_secondary_index(name) {
                        dropped = true;
                        break;
                    }
                }
                if !dropped && !d.if_exists {
                    return Err(EngineError::catalog(format!("index {name} does not exist")));
                }
            }
        }
        Ok(QueryResult::default())
    }

    fn insert(
        &mut self,
        ins: &Insert,
        cache_key: Option<&str>,
    ) -> Result<QueryResult, EngineError> {
        let tname = ins.table.normalized().to_string();
        let (schema, column_map) = {
            let table = self.catalog.table(&tname)?;
            let schema = table.schema.clone();
            let map: Vec<usize> = if ins.columns.is_empty() {
                (0..schema.len()).collect()
            } else {
                let mut m = Vec::with_capacity(ins.columns.len());
                for c in &ins.columns {
                    let pos = schema.position(c.normalized()).ok_or_else(|| {
                        EngineError::bind(format!("unknown column {} in INSERT", c.normalized()))
                    })?;
                    m.push(pos);
                }
                m
            };
            (schema, map)
        };

        // Materialize source rows (before mutating the target table).
        let source_rows: Vec<Row> = match &ins.source {
            InsertSource::Values(rows) => {
                let scope = Scope::empty();
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != column_map.len() {
                        return Err(EngineError::bind(format!(
                            "INSERT expects {} values per row, got {}",
                            column_map.len(),
                            row.len()
                        )));
                    }
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        let bound = bind_expr_with(e, &scope, Some(&self.catalog))?;
                        let prepared = prepare_expr(&bound, &self.exec_context())?;
                        vals.push(prepared.eval(&[])?);
                    }
                    out.push(vals);
                }
                out
            }
            InsertSource::Query(q) => {
                let (physical, columns) = self.planned(cache_key, q)?;
                if columns.len() != column_map.len() {
                    return Err(EngineError::bind(format!(
                        "INSERT expects {} columns, query returns {}",
                        column_map.len(),
                        columns.len()
                    )));
                }
                exec::run(&physical, &self.exec_context())?
            }
        };

        // Widen each source row to full table width and coerce types.
        let mut full_rows = Vec::with_capacity(source_rows.len());
        for src in source_rows {
            let mut row = vec![Value::Null; schema.len()];
            for (i, v) in src.into_iter().enumerate() {
                let target = column_map[i];
                row[target] = coerce(v, schema.columns[target].ty)?;
            }
            full_rows.push(row);
        }

        // Pre-bind ON CONFLICT assignments.
        let conflict = ins.on_conflict.as_ref();
        let do_update: Option<Vec<(usize, crate::expr::BoundExpr)>> = match conflict {
            Some(oc) => match &oc.action {
                ConflictAction::DoNothing => None,
                ConflictAction::DoUpdate(assignments) => {
                    Some(self.bind_conflict_assignments(&tname, &schema, assignments)?)
                }
            },
            None => None,
        };

        let mut affected = 0usize;
        for row in full_rows {
            let table = self.catalog.table(&tname)?;
            let dup = match table.pk_index() {
                Some(pk) => {
                    let key = pk.key_of(&row);
                    pk.get_encoded(&key)
                }
                None => None,
            };
            match dup {
                None => {
                    self.catalog.table_mut(&tname)?.insert(row)?;
                    affected += 1;
                }
                Some(existing) => {
                    if ins.or_replace {
                        self.catalog.table_mut(&tname)?.upsert(row)?;
                        affected += 1;
                    } else if let Some(oc) = conflict {
                        match &oc.action {
                            ConflictAction::DoNothing => {}
                            ConflictAction::DoUpdate(_) => {
                                let assignments = do_update.as_ref().expect("bound with DoUpdate");
                                let old = self.catalog.table(&tname)?.row(existing);
                                // Scope row: existing row ++ excluded row.
                                let mut env = old.clone();
                                env.extend(row.iter().cloned());
                                let mut updated = old;
                                for (pos, expr) in assignments {
                                    let prepared = prepare_expr(expr, &self.exec_context())?;
                                    updated[*pos] =
                                        coerce(prepared.eval(&env)?, schema.columns[*pos].ty)?;
                                }
                                self.catalog.table_mut(&tname)?.update(existing, updated)?;
                                affected += 1;
                            }
                        }
                    } else {
                        return Err(EngineError::constraint(format!(
                            "duplicate key in table {tname}"
                        )));
                    }
                }
            }
        }
        Ok(QueryResult::dml(affected))
    }

    fn bind_conflict_assignments(
        &self,
        tname: &str,
        schema: &Schema,
        assignments: &[Assignment],
    ) -> Result<Vec<(usize, crate::expr::BoundExpr)>, EngineError> {
        // Visible names: the table's columns, then `excluded.*`.
        let mut scope_cols: Vec<BindColumn> = schema
            .columns
            .iter()
            .map(|c| BindColumn {
                qualifier: Some(tname.to_string()),
                name: c.name.clone(),
                ty: Some(c.ty),
            })
            .collect();
        scope_cols.extend(schema.columns.iter().map(|c| BindColumn {
            qualifier: Some("excluded".to_string()),
            name: c.name.clone(),
            ty: Some(c.ty),
        }));
        let scope = Scope {
            columns: scope_cols,
        };
        let mut out = Vec::with_capacity(assignments.len());
        for a in assignments {
            let pos = schema.position(a.column.normalized()).ok_or_else(|| {
                EngineError::bind(format!(
                    "unknown column {} in DO UPDATE",
                    a.column.normalized()
                ))
            })?;
            let bound = bind_expr_with(&a.value, &scope, Some(&self.catalog))?;
            out.push((pos, bound));
        }
        Ok(out)
    }

    fn update(&mut self, u: &Update) -> Result<QueryResult, EngineError> {
        let tname = u.table.normalized().to_string();
        let (schema, scope) = self.table_scope(&tname)?;
        let predicate = match &u.selection {
            Some(e) => {
                let b = bind_expr_with(e, &scope, Some(&self.catalog))?;
                Some(prepare_expr(&b, &self.exec_context())?)
            }
            None => None,
        };
        let mut bound_assignments = Vec::with_capacity(u.assignments.len());
        for a in &u.assignments {
            let pos = schema.position(a.column.normalized()).ok_or_else(|| {
                EngineError::bind(format!(
                    "unknown column {} in UPDATE",
                    a.column.normalized()
                ))
            })?;
            let b = bind_expr_with(&a.value, &scope, Some(&self.catalog))?;
            bound_assignments.push((pos, prepare_expr(&b, &self.exec_context())?));
        }
        // Phase 1: compute new rows against a stable snapshot. Victims are
        // found by a chunked vectorized scan; only they are materialized.
        let mut changes: Vec<(u64, Row)> = Vec::new();
        {
            let table = self.catalog.table(&tname)?;
            let victims = match &predicate {
                Some(p) => {
                    let kernel = crate::expr::VectorKernel::compile(p);
                    filter_row_ids(table, &kernel, &self.config)?
                }
                None => table.live_row_ids(),
            };
            for row_id in victims {
                let row = table.row(row_id);
                let mut updated = row.clone();
                for (pos, expr) in &bound_assignments {
                    updated[*pos] = coerce(expr.eval(&row)?, schema.columns[*pos].ty)?;
                }
                changes.push((row_id, updated));
            }
        }
        // Phase 2: apply.
        let affected = changes.len();
        let table = self.catalog.table_mut(&tname)?;
        for (row_id, updated) in changes {
            table.update(row_id, updated)?;
        }
        Ok(QueryResult::dml(affected))
    }

    fn delete(&mut self, d: &Delete) -> Result<QueryResult, EngineError> {
        let tname = d.table.normalized().to_string();
        let (_, scope) = self.table_scope(&tname)?;
        let predicate = match &d.selection {
            Some(e) => {
                let b = bind_expr_with(e, &scope, Some(&self.catalog))?;
                Some(prepare_expr(&b, &self.exec_context())?)
            }
            None => None,
        };
        let Some(predicate) = predicate else {
            // Unconditional DELETE clears the table wholesale — the shape
            // every propagation script ends with (`DELETE FROM Δ…`).
            let table = self.catalog.table_mut(&tname)?;
            let affected = table.live_rows();
            table.truncate();
            return Ok(QueryResult::dml(affected));
        };
        let victims: Vec<u64> = {
            let table = self.catalog.table(&tname)?;
            let kernel = crate::expr::VectorKernel::compile(&predicate);
            filter_row_ids(table, &kernel, &self.config)?
        };
        let affected = victims.len();
        let table = self.catalog.table_mut(&tname)?;
        for row_id in victims {
            table.delete(row_id)?;
        }
        Ok(QueryResult::dml(affected))
    }

    fn table_scope(&self, tname: &str) -> Result<(Schema, Scope), EngineError> {
        let table = self.catalog.table(tname)?;
        let schema = table.schema.clone();
        let scope = Scope {
            columns: schema
                .columns
                .iter()
                .map(|c| BindColumn {
                    qualifier: Some(tname.to_string()),
                    name: c.name.clone(),
                    ty: Some(c.ty),
                })
                .collect(),
        };
        Ok((schema, scope))
    }
}

/// Coerce a runtime value into a column type: exact/widening passes through,
/// everything else goes through SQL cast rules.
fn coerce(v: Value, target: DataType) -> Result<Value, EngineError> {
    match v.data_type() {
        None => Ok(Value::Null),
        Some(t) if target.accepts(t) => {
            if t == DataType::Integer && target == DataType::Double {
                v.cast(DataType::Double)
            } else {
                Ok(v)
            }
        }
        Some(_) => v.cast(target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_sql::parse_statement;

    fn seeded() -> Database {
        let mut db = Database::new();
        db.set_parallelism(1);
        db.execute("CREATE TABLE s (g VARCHAR, v INTEGER)").unwrap();
        db.execute("INSERT INTO s VALUES ('a', 1), ('b', 2), ('a', 3)")
            .unwrap();
        db.execute("CREATE TABLE sink (g VARCHAR, t INTEGER)")
            .unwrap();
        db
    }

    #[test]
    fn plan_cache_hits_on_repeated_statements() {
        let mut db = seeded();
        let sql = "SELECT g, SUM(v) AS t FROM s GROUP BY g";
        let stmt = parse_statement(sql).unwrap();
        let first = db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats(), (1, 0), "first run plans");
        let second = db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats(), (1, 1), "second run hits");
        assert_eq!(first.rows, second.rows);
        assert_eq!(first.columns, second.columns);

        // INSERT … SELECT caches its source plan under the same key space.
        let ins = "INSERT INTO sink SELECT g, SUM(v) FROM s GROUP BY g";
        let ins_stmt = parse_statement(ins).unwrap();
        db.execute_statement(&ins_stmt, Some(ins)).unwrap();
        db.execute_statement(&ins_stmt, Some(ins)).unwrap();
        assert_eq!(db.plan_cache_stats(), (2, 2));
        assert_eq!(
            db.query("SELECT COUNT(*) FROM sink").unwrap().scalar(),
            Some(&Value::Integer(4))
        );
    }

    #[test]
    fn plan_cache_invalidated_by_ddl() {
        let mut db = seeded();
        let sql = "SELECT g, SUM(v) AS t FROM s GROUP BY g";
        let stmt = parse_statement(sql).unwrap();
        db.execute_statement(&stmt, Some(sql)).unwrap();
        db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats().1, 1);
        // DDL bumps the generation: the next run re-plans (no new hit).
        db.execute("CREATE TABLE other (x INTEGER)").unwrap();
        db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats().1, 1, "stale entry re-planned");
        db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats().1, 2, "fresh entry hits again");
        // Explicit invalidation clears everything.
        db.invalidate_plans();
        assert_eq!(db.plan_cache_stats().0, 0);
    }

    #[test]
    fn plan_cache_keys_on_budget_and_parallelism() {
        let mut db = seeded();
        db.set_memory_budget(None);
        let sql = "SELECT g, SUM(v) AS t FROM s GROUP BY g ORDER BY g";
        let stmt = parse_statement(sql).unwrap();
        let baseline = db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats(), (1, 0));

        // Flipping the budget between two executions of the same SQL
        // must re-lower: `lower_with_budget` bakes a budget-dependent
        // build-side choice into the physical plan, so a plan lowered
        // under another budget is a different identity — reusing it was
        // the staleness bug.
        db.set_memory_budget(Some(123_456_789));
        let budgeted = db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats(), (2, 0), "budget flip re-lowers");
        assert_eq!(budgeted.rows, baseline.rows, "same data, same answer");

        // Keyed, not invalidated: each budget's plan survives the flips
        // and re-hits when its setting returns.
        db.set_memory_budget(None);
        db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats(), (2, 1), "unbounded plan re-hits");
        db.set_memory_budget(Some(123_456_789));
        db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats(), (2, 2), "budgeted plan re-hits");

        // Parallelism is part of plan identity too.
        db.set_parallelism(2);
        let parallel = db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats(), (3, 2), "parallelism flip re-lowers");
        assert_eq!(parallel.rows, baseline.rows);
        db.set_parallelism(1);
        db.execute_statement(&stmt, Some(sql)).unwrap();
        assert_eq!(db.plan_cache_stats(), (3, 3));
    }

    #[test]
    fn cached_plans_see_new_data() {
        let mut db = seeded();
        let sql = "SELECT SUM(v) FROM s";
        let stmt = parse_statement(sql).unwrap();
        assert_eq!(
            db.execute_statement(&stmt, Some(sql)).unwrap().scalar(),
            Some(&Value::Integer(6))
        );
        db.execute("INSERT INTO s VALUES ('c', 10)").unwrap();
        assert_eq!(
            db.execute_statement(&stmt, Some(sql)).unwrap().scalar(),
            Some(&Value::Integer(16)),
            "plan cache must never cache data"
        );
    }

    #[test]
    fn parallelism_knob_clamps_and_reports() {
        let mut db = Database::new();
        db.set_parallelism(0);
        assert_eq!(db.parallelism(), 1);
        db.set_parallelism(4);
        assert_eq!(db.parallelism(), 4);
        db.set_morsel_size(0);
        assert_eq!(db.morsel_size(), 1);
    }

    #[test]
    fn memory_budget_knob_and_stats() {
        let mut db = Database::new();
        db.set_memory_budget(None);
        assert_eq!(db.memory_budget(), None);
        db.set_memory_budget(Some(4096));
        assert_eq!(db.memory_budget(), Some(4096));
        db.execute("CREATE TABLE big (k INTEGER, v VARCHAR)")
            .unwrap();
        let values: Vec<String> = (0..600).map(|i| format!("({}, 'v{i}')", i % 7)).collect();
        db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
            .unwrap();
        db.set_memory_budget(Some(256));
        let out = db
            .query("SELECT k, COUNT(*) FROM big GROUP BY k")
            .unwrap()
            .rows;
        assert_eq!(out.len(), 7);
        assert!(db.spill_stats().spilled(), "{:?}", db.spill_stats());
        // Back to unbounded: same answer, counters keep their history.
        db.set_memory_budget(None);
        let again = db
            .query("SELECT k, COUNT(*) FROM big GROUP BY k")
            .unwrap()
            .rows;
        assert_eq!(out, again);
    }

    #[test]
    fn parallelism_env_values_parse_loudly() {
        assert_eq!(parse_parallelism_setting("1").unwrap(), 1);
        assert_eq!(parse_parallelism_setting(" 8 ").unwrap(), 8);
        for bad in ["", "0", "-2", "four", "2.5", "1worker"] {
            let err = parse_parallelism_setting(bad).unwrap_err();
            assert!(err.to_string().contains(PARALLELISM_ENV), "{bad:?} → {err}");
        }
    }

    #[test]
    fn memory_budget_env_values_parse_loudly() {
        assert_eq!(parse_memory_budget_setting("4096").unwrap(), Some(4096));
        assert_eq!(parse_memory_budget_setting("64KB").unwrap(), Some(65536));
        assert_eq!(parse_memory_budget_setting("64k").unwrap(), Some(65536));
        assert_eq!(parse_memory_budget_setting(" 2MB ").unwrap(), Some(2 << 20));
        assert_eq!(parse_memory_budget_setting("1G").unwrap(), Some(1 << 30));
        assert_eq!(parse_memory_budget_setting("1").unwrap(), Some(1));
        assert_eq!(parse_memory_budget_setting("0").unwrap(), None);
        assert_eq!(parse_memory_budget_setting("unbounded").unwrap(), None);
        assert_eq!(parse_memory_budget_setting("UNBOUNDED").unwrap(), None);
        for bad in [
            "",
            "KB",
            "lots",
            "-64KB",
            "64 K B",
            "1.5MB",
            "999999999999999999999",
        ] {
            let err = parse_memory_budget_setting(bad).unwrap_err();
            assert!(
                err.to_string().contains(MEMORY_BUDGET_ENV),
                "{bad:?} → {err}"
            );
        }
    }
}
