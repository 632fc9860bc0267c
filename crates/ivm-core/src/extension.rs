//! The OpenIVM extension session: IVM *inside* the engine.
//!
//! Mirrors §2's "The Extension Module: OpenIVM inside DuckDB": a fall-back
//! handler catches `CREATE MATERIALIZED VIEW` (which the plain engine
//! rejects), executes the compiled output, and registers interception rules
//! that route `INSERT`/`UPDATE`/`DELETE` on base tables into the delta
//! tables and kick off the propagation scripts — eagerly, lazily on view
//! query, or per batch, per [`PropagationMode`].

use std::collections::HashMap;

use ivm_engine::exec::hash::{chain_prepend, hash_row, hash_value_iter, FlatTable};
use ivm_engine::{Database, ErrorKind, QueryResult, SnapshotHub, Value};
use ivm_sql::ast::{
    Delete, Expr, Insert, InsertSource, Query, Select, SelectItem, SetExpr, Statement, TableRef,
    Update,
};
use ivm_sql::{parse_statement, print_statement, Ident};

use crate::compiler::{IvmArtifacts, IvmCompiler};
use crate::error::IvmError;
use crate::flags::{IvmFlags, PropagationMode};
use crate::metadata;
use crate::names::{self, MULTIPLICITY_COL};

/// A registered materialized view.
#[derive(Debug, Clone)]
pub struct RegisteredView {
    /// View (and table) name.
    pub name: String,
    /// Base tables feeding the view.
    pub base_tables: Vec<String>,
    /// Visible (non-hidden) column names.
    pub visible_columns: Vec<String>,
    /// Whether the view is a projection class (rows carry duplicate
    /// weights that expand on read).
    pub weighted_rows: bool,
    /// Maintenance statements by step: step-1 statements first, the rest
    /// after (split so multi-view refreshes can share delta tables).
    step1: Vec<String>,
    rest: Vec<String>,
    /// Steps 2–4 of the regroup variant (adaptive strategy only).
    rest_alt: Option<Vec<String>>,
    /// Full artifacts, kept for inspection.
    pub artifacts: IvmArtifacts,
}

/// Counters for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// DML statements intercepted into delta tables.
    pub intercepted_dml: usize,
    /// Propagation script executions.
    pub maintenance_runs: usize,
    /// Individual maintenance statements executed.
    pub maintenance_statements: usize,
    /// Adaptive strategy: refreshes that took the indexed-upsert path.
    pub adaptive_upserts: usize,
    /// Adaptive strategy: refreshes that took the regroup path.
    pub adaptive_regroups: usize,
}

/// An engine session with the OpenIVM extension loaded.
#[derive(Debug)]
pub struct IvmSession {
    db: Database,
    flags: IvmFlags,
    compiler: IvmCompiler,
    views: Vec<RegisteredView>,
    /// Views with unpropagated deltas → number of pending DML statements.
    pending: HashMap<String, usize>,
    /// Parsed-statement cache for the maintenance scripts: the same fixed
    /// SQL strings run on every refresh, so each is parsed exactly once.
    stmt_cache: HashMap<String, Statement>,
    /// Per-mirror deletion-victim indexes (row digest → live slot ids),
    /// maintained incrementally across [`IvmSession::ingest_deltas`]
    /// batches and validated against the table's mutation generation.
    victim_index: HashMap<String, MirrorIndex>,
    stats: SessionStats,
    /// When [`IvmSession::share`]d: the snapshot hub concurrent readers
    /// pin their statements against. Every completed top-level operation
    /// republishes, so the hub only ever holds committed points.
    shared: Option<SnapshotHub>,
}

impl IvmSession {
    /// New session with the given compiler flags.
    pub fn new(flags: IvmFlags) -> IvmSession {
        IvmSession {
            db: Database::new(),
            flags,
            compiler: IvmCompiler::new(),
            views: Vec::new(),
            pending: HashMap::new(),
            stmt_cache: HashMap::new(),
            victim_index: HashMap::new(),
            stats: SessionStats::default(),
            shared: None,
        }
    }

    /// Session with the paper's default flags.
    pub fn with_defaults() -> IvmSession {
        IvmSession::new(IvmFlags::paper_defaults())
    }

    /// Open (or create) a session over a *durable* database at `path`:
    /// base tables, materialized views, delta tables, and metadata come
    /// back from the last committed state, and every materialized view is
    /// re-registered by recompiling its stored SQL from the
    /// `_openivm_views` metadata table — without re-running the setup
    /// statements (the recovered tables already hold the data). Views
    /// whose delta tables hold unpropagated rows come back *dirty* and
    /// refresh on the usual triggers.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        flags: IvmFlags,
    ) -> Result<IvmSession, IvmError> {
        let db = Database::open(path).map_err(|e| IvmError::Engine(e.to_string()))?;
        let mut session = IvmSession {
            db,
            flags,
            compiler: IvmCompiler::new(),
            views: Vec::new(),
            pending: HashMap::new(),
            stmt_cache: HashMap::new(),
            victim_index: HashMap::new(),
            stats: SessionStats::default(),
            shared: None,
        };
        session.restore_views()?;
        Ok(session)
    }

    /// Checkpoint the underlying durable database (no-op in-memory).
    pub fn checkpoint(&mut self) -> Result<(), IvmError> {
        self.db
            .checkpoint()
            .map_err(|e| IvmError::Engine(e.to_string()))?;
        self.republish();
        Ok(())
    }

    /// Checkpoint and drop the session (clean shutdown).
    pub fn close(mut self) -> Result<(), IvmError> {
        self.checkpoint()
    }

    /// Re-register every materialized view recorded in the metadata
    /// tables of a recovered catalog.
    fn restore_views(&mut self) -> Result<(), IvmError> {
        if !self.db.catalog().has_table(names::META_VIEWS_TABLE) {
            return Ok(());
        }
        let rows = self
            .db
            .query(&format!(
                "SELECT view_name, view_sql FROM {} ORDER BY view_name",
                names::META_VIEWS_TABLE
            ))
            .map_err(|e| IvmError::Engine(e.to_string()))?
            .rows;
        for row in rows {
            let (Some(Value::Varchar(name)), Some(Value::Varchar(sql))) = (row.first(), row.get(1))
            else {
                return Err(IvmError::catalog(format!(
                    "corrupt {} row: {row:?}",
                    names::META_VIEWS_TABLE
                )));
            };
            let create = format!("CREATE MATERIALIZED VIEW {name} AS {sql}");
            let Statement::CreateView(cv) = parse_statement(&create).map_err(IvmError::from)?
            else {
                return Err(IvmError::catalog(format!(
                    "stored view SQL for {name} is not a query: {sql}"
                )));
            };
            let (name, base_tables) = {
                let view = self.register_view(cv, false)?;
                (view.name.clone(), view.base_tables.clone())
            };
            // Unpropagated delta rows survive the restart; mark the view
            // dirty so the usual triggers drain them.
            let dirty = base_tables.iter().any(|t| {
                self.db
                    .catalog()
                    .table(&names::delta(t))
                    .map(|d| d.live_rows() > 0)
                    .unwrap_or(false)
            });
            if dirty {
                self.pending.insert(name, 1);
            }
        }
        Ok(())
    }

    /// Borrow the underlying engine.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutably borrow the underlying engine (bulk loading).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Turn on concurrent snapshot serving: returns a [`SnapshotHub`]
    /// (cheap to clone into reader threads) whose initial snapshot is
    /// the session's current state. From now on, every completed
    /// top-level operation — statement, script, delta ingest, refresh,
    /// view DDL — republishes, so hub readers always see some committed
    /// point and never a torn intermediate. This session remains the
    /// single writer; readers are [`ivm_engine::ReadSession`]s.
    pub fn share(&mut self) -> SnapshotHub {
        if self.shared.is_none() {
            self.shared = Some(SnapshotHub::new(&self.db));
        }
        self.shared.clone().expect("just set")
    }

    /// The snapshot hub, when [`IvmSession::share`] has been called.
    pub fn snapshot_hub(&self) -> Option<&SnapshotHub> {
        self.shared.as_ref()
    }

    /// Publish the current state to hub readers (no-op when not shared).
    /// Called after every committed point; callers that mutate the
    /// database directly through [`IvmSession::database_mut`] should
    /// call it themselves.
    pub fn republish(&self) {
        if let Some(hub) = &self.shared {
            hub.publish(&self.db);
        }
    }

    /// Set the engine's executor parallelism (worker threads; clamped to
    /// ≥ 1). Affects full recomputation and propagation-script execution
    /// alike; 1 is the serial operator tree.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.db.set_parallelism(workers);
    }

    /// The engine's executor parallelism.
    pub fn parallelism(&self) -> usize {
        self.db.parallelism()
    }

    /// Set the engine's executor memory budget in bytes (`None` =
    /// unbounded). Bounded budgets make join builds, group tables,
    /// DISTINCT, and set operations spill radix partitions to disk; the
    /// maintained views stay row-identical to unbounded execution.
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.db.set_memory_budget(bytes);
    }

    /// The engine's cumulative spill/rehydrate counters (session stats
    /// for the out-of-core executor).
    pub fn spill_stats(&self) -> ivm_engine::SpillStats {
        self.db.spill_stats()
    }

    /// The active flags.
    pub fn flags(&self) -> &IvmFlags {
        &self.flags
    }

    /// Experiment counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Registered views.
    pub fn views(&self) -> &[RegisteredView] {
        &self.views
    }

    /// Look up a registered view.
    pub fn view(&self, name: &str) -> Option<&RegisteredView> {
        self.views.iter().find(|v| v.name == name)
    }

    /// Execute one SQL statement through the extension pipeline.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, IvmError> {
        let stmt = parse_statement(sql)?;
        let result = self.execute_statement(stmt);
        // Publish even after an error: earlier side effects of the
        // statement's refresh triggers are committed state.
        self.republish();
        result
    }

    /// Execute a `;`-separated script.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>, IvmError> {
        let stmts = ivm_sql::parse_statements(sql)?;
        let result = stmts
            .into_iter()
            .map(|s| self.execute_statement(s))
            .collect();
        self.republish();
        result
    }

    fn execute_statement(&mut self, stmt: Statement) -> Result<QueryResult, IvmError> {
        // Interception rules run before the engine sees the statement.
        match &stmt {
            Statement::Insert(ins) if self.is_tracked(ins.table.normalized()) => {
                return self.intercept_insert(ins.clone());
            }
            Statement::Update(u) if self.is_tracked(u.table.normalized()) => {
                return self.intercept_update(u.clone());
            }
            Statement::Delete(d) if self.is_tracked(d.table.normalized()) => {
                return self.intercept_delete(d.clone());
            }
            Statement::Drop(d)
                if d.kind == ivm_sql::ast::DropKind::View
                    && self.view(d.name.normalized()).is_some() =>
            {
                let name = d.name.normalized().to_string();
                self.drop_materialized_view(&name)?;
                return Ok(QueryResult::default());
            }
            Statement::Drop(d)
                if d.kind == ivm_sql::ast::DropKind::Table
                    && self.is_tracked(d.name.normalized()) =>
            {
                return Err(IvmError::catalog(format!(
                    "table {} feeds materialized views; drop those first",
                    d.name.normalized()
                )));
            }
            Statement::Query(q) => {
                // Lazy refresh: propagate before reading any stale view.
                let referenced: Vec<String> = q
                    .referenced_tables()
                    .iter()
                    .map(|i| i.normalized().to_string())
                    .collect();
                let stale: Vec<String> = referenced
                    .into_iter()
                    .filter(|t| self.view(t).is_some() && self.pending.contains_key(t))
                    .collect();
                for v in stale {
                    self.refresh(&v)?;
                }
            }
            _ => {}
        }
        // The fall-back path: the engine rejects CREATE MATERIALIZED VIEW
        // as unsupported; the extension catches exactly that case (the
        // paper's fall-back parser flow) and handles it.
        match self.db.execute_statement(&stmt, None) {
            Ok(r) => Ok(r),
            Err(e) if e.kind() == ErrorKind::Unsupported => {
                if let Statement::CreateView(cv) = &stmt {
                    if cv.materialized {
                        self.create_materialized_view(cv.clone())?;
                        return Ok(QueryResult::default());
                    }
                }
                Err(IvmError::Engine(e.to_string()))
            }
            Err(e) => Err(IvmError::Engine(e.to_string())),
        }
    }

    /// Compile and install a materialized view.
    pub fn create_materialized_view(
        &mut self,
        cv: ivm_sql::ast::CreateView,
    ) -> Result<&RegisteredView, IvmError> {
        self.register_view(cv, true)
    }

    /// Compile a materialized view and register it with the session.
    /// `run_setup` executes the generated setup statements (create + fill
    /// the view table, delta tables, metadata rows); restoring a view
    /// from a recovered durable catalog skips them, since every object
    /// already exists with its data.
    fn register_view(
        &mut self,
        cv: ivm_sql::ast::CreateView,
        run_setup: bool,
    ) -> Result<&RegisteredView, IvmError> {
        // Restoring skips the collision check too: the recovered catalog
        // already holds the view's table.
        let artifacts = if run_setup {
            self.compiler.compile(&cv, self.db.catalog(), &self.flags)?
        } else {
            self.compiler
                .compile_unchecked(&cv, self.db.catalog(), &self.flags)?
        };
        if run_setup {
            let setup = artifacts.setup_statements();
            // One durability point: a crash must never recover half the
            // view's generated objects (table but no metadata row, …).
            self.atomic(|s| {
                for stmt in setup {
                    s.db.execute(&stmt)
                        .map_err(|e| IvmError::Engine(format!("{e} while running: {stmt}")))?;
                }
                Ok(())
            })?;
        }
        let weighted_rows = artifacts.analysis.aggs.is_empty();
        let visible_columns = artifacts
            .analysis
            .output
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let (step1, rest): (Vec<_>, Vec<_>) = artifacts
            .propagation
            .steps
            .iter()
            .partition(|s| s.step == 1);
        let rest_alt = artifacts.alt_propagation.as_ref().map(|alt| {
            alt.steps
                .iter()
                .filter(|s| s.step != 1)
                .map(|s| s.sql.clone())
                .collect()
        });
        let view = RegisteredView {
            name: artifacts.analysis.view_name.clone(),
            base_tables: artifacts.analysis.base_tables.clone(),
            visible_columns,
            weighted_rows,
            step1: step1.into_iter().map(|s| s.sql.clone()).collect(),
            rest: rest.into_iter().map(|s| s.sql.clone()).collect(),
            rest_alt,
            artifacts,
        };
        self.views.push(view);
        self.republish();
        Ok(self.views.last().expect("just pushed"))
    }

    /// Drop a materialized view and its generated objects. Shared delta
    /// tables survive while other views still read them.
    pub fn drop_materialized_view(&mut self, name: &str) -> Result<(), IvmError> {
        let Some(pos) = self.views.iter().position(|v| v.name == name) else {
            return Err(IvmError::catalog(format!(
                "{name} is not a materialized view"
            )));
        };
        let view = self.views.remove(pos);
        self.pending.remove(name);
        let mut drops = vec![
            format!("DROP TABLE {}", view.name),
            format!("DROP TABLE {}", names::delta(&view.name)),
            format!("DROP TABLE IF EXISTS {}", names::stage(&view.name)),
        ];
        for t in &view.base_tables {
            let still_used = self.views.iter().any(|v| v.base_tables.contains(t));
            if !still_used {
                drops.push(format!("DROP TABLE IF EXISTS {}", names::delta(t)));
            }
        }
        drops.extend(metadata::metadata_remove(name));
        self.atomic(|s| {
            for stmt in drops {
                s.db.execute(&stmt)
                    .map_err(|e| IvmError::Engine(e.to_string()))?;
            }
            Ok(())
        })?;
        self.republish();
        Ok(())
    }

    fn is_tracked(&self, table: &str) -> bool {
        self.views
            .iter()
            .any(|v| v.base_tables.iter().any(|t| t == table))
    }

    fn dependents(&self, table: &str) -> Vec<String> {
        self.views
            .iter()
            .filter(|v| v.base_tables.iter().any(|t| t == table))
            .map(|v| v.name.clone())
            .collect()
    }

    fn base_table_columns(&self, table: &str) -> Result<Vec<String>, IvmError> {
        Ok(self
            .db
            .catalog()
            .table(table)
            .map_err(|e| IvmError::Engine(e.to_string()))?
            .schema
            .names())
    }

    fn run(&mut self, stmt: &Statement) -> Result<QueryResult, IvmError> {
        self.db
            .execute_statement(stmt, None)
            .map_err(|e| IvmError::Engine(e.to_string()))
    }

    /// Run `f` as one durability point. The extension's compound
    /// operations — delta capture around a base-table write, propagation
    /// scripts, view setup — are several engine statements that must
    /// never be torn by a crash: half a capture re-derives wrong deltas,
    /// and a propagated view with undrained deltas double-applies on the
    /// next refresh. The batch commits even when `f` fails part-way (the
    /// in-memory state keeps the applied prefix, and recovery must match
    /// it); the inner error wins over a commit error.
    fn atomic<T>(
        &mut self,
        f: impl FnOnce(&mut IvmSession) -> Result<T, IvmError>,
    ) -> Result<T, IvmError> {
        self.db.begin_atomic();
        let result = f(self);
        let commit = self
            .db
            .end_atomic()
            .map_err(|e| IvmError::Engine(e.to_string()));
        match result {
            Err(e) => Err(e),
            Ok(v) => commit.map(|()| v),
        }
    }

    fn after_capture(&mut self, table: &str) -> Result<(), IvmError> {
        self.stats.intercepted_dml += 1;
        let dependents = self.dependents(table);
        let mut refresh_now = Vec::new();
        for v in dependents {
            let counter = self.pending.entry(v.clone()).or_insert(0);
            *counter += 1;
            match self.flags.propagation {
                PropagationMode::Eager => refresh_now.push(v),
                PropagationMode::Batch(n) if *counter >= n => refresh_now.push(v),
                _ => {}
            }
        }
        for v in refresh_now {
            self.refresh(&v)?;
        }
        Ok(())
    }

    /// Route an INSERT into both the base table and its delta table.
    fn intercept_insert(&mut self, ins: Insert) -> Result<QueryResult, IvmError> {
        if ins.or_replace || ins.on_conflict.is_some() {
            return Err(IvmError::unsupported(
                "upsert on IVM-tracked base tables (use DELETE + INSERT)",
            ));
        }
        let table = ins.table.normalized().to_string();
        let delta = names::delta(&table);
        // Delta column list: the insert's columns (or all) plus multiplicity.
        let mut delta_cols: Vec<Ident> = if ins.columns.is_empty() {
            self.base_table_columns(&table)?
                .into_iter()
                .map(Ident::new)
                .collect()
        } else {
            ins.columns.clone()
        };
        delta_cols.push(Ident::new(MULTIPLICITY_COL));
        let delta_source = match &ins.source {
            InsertSource::Values(rows) => InsertSource::Values(
                rows.iter()
                    .map(|r| {
                        let mut r = r.clone();
                        r.push(Expr::boolean(true));
                        r
                    })
                    .collect(),
            ),
            InsertSource::Query(q) => {
                // SELECT q.*, TRUE FROM (query) AS q
                let mut s = Select::new(vec![
                    SelectItem::QualifiedWildcard(Ident::new("q")),
                    SelectItem::aliased(Expr::boolean(true), MULTIPLICITY_COL),
                ]);
                s.from = vec![TableRef::Subquery {
                    query: q.clone(),
                    alias: Ident::new("q"),
                }];
                InsertSource::Query(Box::new(Query {
                    ctes: vec![],
                    body: SetExpr::Select(Box::new(s)),
                    order_by: vec![],
                    limit: None,
                    offset: None,
                }))
            }
        };
        let delta_stmt = Statement::Insert(Insert {
            table: Ident::new(delta),
            columns: delta_cols,
            source: delta_source,
            or_replace: false,
            on_conflict: None,
        });
        self.atomic(|s| {
            let result = s.run(&Statement::Insert(ins))?;
            s.run(&delta_stmt)?;
            s.after_capture(&table)?;
            Ok(result)
        })
    }

    /// An UPDATE becomes delete + insert in the delta stream (as in DBSP):
    /// pre-images with multiplicity FALSE, post-images with TRUE.
    fn intercept_update(&mut self, u: Update) -> Result<QueryResult, IvmError> {
        let table = u.table.normalized().to_string();
        let delta = names::delta(&table);
        let cols = self.base_table_columns(&table)?;

        // Pre-image capture.
        let pre = insert_into(
            &delta,
            delta_capture_select(&table, &cols, u.selection.clone(), None),
        );
        // Post-image capture: apply SET expressions in the projection.
        let assignments: HashMap<String, Expr> = u
            .assignments
            .iter()
            .map(|a| (a.column.normalized().to_string(), a.value.clone()))
            .collect();
        let post = insert_into(
            &delta,
            delta_capture_select(&table, &cols, u.selection.clone(), Some(&assignments)),
        );
        self.atomic(|s| {
            s.run(&pre)?;
            s.run(&post)?;
            // The actual update.
            let result = s.run(&Statement::Update(u))?;
            s.after_capture(&table)?;
            Ok(result)
        })
    }

    fn intercept_delete(&mut self, d: Delete) -> Result<QueryResult, IvmError> {
        let table = d.table.normalized().to_string();
        let delta = names::delta(&table);
        let cols = self.base_table_columns(&table)?;
        let pre = insert_into(
            &delta,
            delta_capture_select(&table, &cols, d.selection.clone(), None),
        );
        self.atomic(|s| {
            s.run(&pre)?;
            let result = s.run(&Statement::Delete(d))?;
            s.after_capture(&table)?;
            Ok(result)
        })
    }

    /// Ingest externally-captured deltas (the cross-system path of
    /// Figure 3): each `(row, multiplicity)` pair is appended to the
    /// table's delta table *and* applied to the local mirror of the base
    /// table, emulating the paper's PostgreSQL-attached access so initial
    /// population and MIN/MAX recomputation see current data. Dependent
    /// views are marked dirty; propagation runs per the session's
    /// [`PropagationMode`].
    pub fn ingest_deltas(
        &mut self,
        table: &str,
        changes: &[(Vec<Value>, bool)],
    ) -> Result<(), IvmError> {
        if changes.is_empty() {
            return Ok(());
        }
        let tracked = self.is_tracked(table);
        // Direct catalog mutations bypass the SQL paths' automatic group
        // commit; the atomic batch makes mirror writes, delta appends, and
        // any eager propagation one durability point.
        self.atomic(|this| {
            {
                let catalog = this.db.catalog_mut();
                // Apply to the mirror first (deletions locate a matching row).
                // On keyless tables, per-deletion `find_row` would re-scan the
                // whole table each time; a [`MirrorIndex`] (row digest → live
                // slot ids) answers every deletion with one probe. The index
                // persists across batches — built once, maintained through
                // this loop's own inserts/deletes, and validated against the
                // table's mutation generation (foreign DML invalidates it).
                let deletions = changes.iter().filter(|(_, insertion)| !insertion).count();
                let mut index: Option<MirrorIndex> = {
                    let base = catalog.table(table).map_err(IvmError::from)?;
                    if base.has_pk_index() {
                        // PK tables answer find_row through the ART in O(1).
                        this.victim_index.remove(table);
                        None
                    } else {
                        match this.victim_index.remove(table) {
                            // A warm index is kept current through *every*
                            // batch — insert-only ones included, so it stays
                            // warm for the next deleting batch.
                            Some(ix) if !ix.poisoned && ix.generation == base.generation() => {
                                Some(ix)
                            }
                            _ if deletions > 0 && MirrorIndex::worth_building(base, deletions) => {
                                Some(MirrorIndex::build(base))
                            }
                            _ => None,
                        }
                    }
                };
                for (row, insertion) in changes {
                    let base = catalog.table_mut(table).map_err(IvmError::from)?;
                    if *insertion {
                        let id = base.insert(row.clone()).map_err(IvmError::from)?;
                        // A row inserted earlier in the batch is fair game for a
                        // later deletion of the same value.
                        if let Some(ix) = &mut index {
                            ix.add(row, id);
                        }
                    } else {
                        let victim = match &mut index {
                            Some(ix) if !ix.poisoned && row.len() == base.schema.len() => {
                                ix.take(row, base)
                            }
                            _ => base.find_row(row),
                        };
                        let victim = victim.ok_or_else(|| {
                            IvmError::catalog(format!(
                                "deletion delta does not match any row of {table}"
                            ))
                        })?;
                        base.delete(victim).map_err(IvmError::from)?;
                    }
                }
                if let Some(mut ix) = index {
                    let base = catalog.table(table).map_err(IvmError::from)?;
                    ix.generation = base.generation();
                    this.victim_index.insert(table.to_string(), ix);
                }
                // Then append to ΔT with the multiplicity flag — only when some
                // view actually consumes this table's deltas.
                if tracked {
                    let delta_name = names::delta(table);
                    let delta = catalog.table_mut(&delta_name).map_err(IvmError::from)?;
                    for (row, insertion) in changes {
                        let mut drow = row.clone();
                        drow.push(Value::Boolean(*insertion));
                        delta.insert(drow).map_err(IvmError::from)?;
                    }
                }
            }
            if tracked {
                this.after_capture(table)?;
            }
            Ok(())
        })?;
        self.republish();
        Ok(())
    }

    /// Run the propagation scripts for a view (and any dirty views sharing
    /// its delta tables, since Step 4 drains them).
    pub fn refresh(&mut self, view: &str) -> Result<(), IvmError> {
        if !self.pending.contains_key(view) {
            return Ok(());
        }
        // Fixpoint of dirty views connected through shared base tables.
        let mut affected: Vec<String> = vec![view.to_string()];
        loop {
            let mut grew = false;
            let tables: Vec<String> = affected
                .iter()
                .filter_map(|v| self.view(v))
                .flat_map(|v| v.base_tables.clone())
                .collect();
            for v in self.views.iter() {
                if self.pending.contains_key(&v.name)
                    && !affected.contains(&v.name)
                    && v.base_tables.iter().any(|t| tables.contains(t))
                {
                    affected.push(v.name.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        // Step 1 for every affected view first (they share ΔT)…
        let mut statements: Vec<String> = Vec::new();
        for v in &affected {
            let rv = self.view(v).expect("registered");
            statements.extend(rv.step1.iter().cloned());
        }
        // …then steps 2–4 per view, choosing the adaptive variant where
        // available: small views re-aggregate, large views upsert (the
        // cost-based choice the paper points to as future work).
        for v in &affected {
            let rv = self.view(v).expect("registered");
            let use_regroup = match &rv.rest_alt {
                Some(_) => {
                    let live = self
                        .db
                        .catalog()
                        .table(&rv.name)
                        .map(|t| t.live_rows())
                        .unwrap_or(usize::MAX);
                    live <= self.flags.adaptive_threshold
                }
                None => false,
            };
            let rv = self.view(v).expect("registered");
            let (chosen, is_adaptive): (Vec<String>, bool) = if use_regroup {
                (rv.rest_alt.as_ref().expect("checked").clone(), true)
            } else {
                (rv.rest.clone(), rv.rest_alt.is_some())
            };
            if is_adaptive {
                if use_regroup {
                    self.stats.adaptive_regroups += 1;
                } else {
                    self.stats.adaptive_upserts += 1;
                }
            }
            statements.extend(chosen);
        }
        // One durability point for the whole script: recovering a view
        // updated by steps 2–3 whose delta tables step 4 never drained
        // would re-apply those deltas on the next refresh.
        self.atomic(|s| {
            for sql in &statements {
                if !s.stmt_cache.contains_key(sql) {
                    s.stmt_cache
                        .insert(sql.clone(), parse_statement(sql).map_err(IvmError::from)?);
                }
                let stmt = &s.stmt_cache[sql];
                // The SQL text keys the engine's bound-plan cache too: each
                // maintenance statement is planned/optimized/lowered once and
                // re-executed from the cached physical plan until DDL changes
                // the catalog shape.
                s.db.execute_statement(stmt, Some(sql))
                    .map_err(|e| IvmError::Engine(format!("{e} while running: {sql}")))?;
            }
            Ok(())
        })?;
        self.stats.maintenance_runs += 1;
        self.stats.maintenance_statements += statements.len();
        for v in affected {
            self.pending.remove(&v);
        }
        self.republish();
        Ok(())
    }

    /// Refresh every dirty view.
    pub fn refresh_all(&mut self) -> Result<(), IvmError> {
        let dirty: Vec<String> = self.pending.keys().cloned().collect();
        for v in dirty {
            self.refresh(&v)?;
        }
        Ok(())
    }

    /// Query a materialized view's visible columns (refreshing first under
    /// lazy propagation). Projection-class views expand their Z-set weights
    /// back into duplicate rows, restoring bag semantics.
    pub fn query_view(&mut self, name: &str) -> Result<QueryResult, IvmError> {
        let Some(view) = self.view(name) else {
            return Err(IvmError::catalog(format!(
                "{name} is not a materialized view"
            )));
        };
        let visible = view.visible_columns.clone();
        let weighted = view.weighted_rows;
        self.refresh(name)?;
        let cols = visible.join(", ");
        let sql = if weighted {
            format!("SELECT {cols}, {} FROM {name}", names::COUNT_COL)
        } else {
            format!("SELECT {cols} FROM {name}")
        };
        let mut result = self
            .db
            .query(&sql)
            .map_err(|e| IvmError::Engine(e.to_string()))?;
        if weighted {
            let mut rows = Vec::new();
            for mut row in std::mem::take(&mut result.rows) {
                let weight = match row.pop() {
                    Some(Value::Integer(n)) => n.max(0) as usize,
                    _ => 1,
                };
                for _ in 0..weight {
                    rows.push(row.clone());
                }
            }
            result.rows = rows;
            result.columns.pop();
        }
        Ok(result)
    }

    /// Verify `V == Q(T)` as multisets — used by tests and experiments.
    pub fn check_consistency(&mut self, name: &str) -> Result<bool, IvmError> {
        let Some(view) = self.view(name) else {
            return Err(IvmError::catalog(format!(
                "{name} is not a materialized view"
            )));
        };
        let view_sql = view.artifacts.view_sql.clone();
        let maintained = self.query_view(name)?;
        let recomputed = self
            .db
            .execute(&view_sql)
            .map_err(|e| IvmError::Engine(e.to_string()))?;
        Ok(rows_equal_as_multisets(&maintained.rows, &recomputed.rows))
    }
}

/// A cold [`MirrorIndex`] build only pays off when there are at least
/// this many deletions or the table is small; below it, per-deletion
/// `find_row` (early-exiting equality scans, which exploit duplicate rows
/// in multiset tables) wins on huge tables. Once built, the index
/// persists across batches, so warm reuse has no threshold at all.
const COLD_BUILD_THRESHOLD: usize = 2;

/// Above this many live rows a cold build must also clear the deletion
/// threshold below; tiny deletion batches on huge keyless tables are
/// cheaper through `find_row`'s early-exit scans.
const COLD_BUILD_LARGE_TABLE: usize = 131_072;

/// On large tables a cold build needs this many deletions in the first
/// batch to amortize the one full-table pass.
const COLD_BUILD_LARGE_THRESHOLD: usize = 24;

/// The chain terminator of [`MirrorIndex::next`].
const NO_SLOT: u32 = u32::MAX;

/// A persistent deletion-victim index over a keyless mirror table: row
/// digest ([`ivm_engine::exec::hash::hash_row`]) → a chain of live slot
/// ids, on the engine's flat hash infrastructure. Equal-digest slots are
/// threaded through one flat `next` array (the same idiom as the join
/// build chains) — no per-digest allocation anywhere.
///
/// Built with one column-at-a-time pass, then maintained *incrementally*
/// through [`IvmSession::ingest_deltas`]'s own inserts and deletes — the
/// IVM idea applied to the mirror itself, so repeated delta batches stop
/// re-scanning the base table per batch. `generation` pins the index to
/// the table's mutation counter (unique per table *instance*): any
/// foreign DML — intercepted SQL writes, truncates, compaction, even a
/// drop-and-recreate under the same name — mismatches and the index
/// rebuilds on the next ingest. Lookups inherit [`FlatTable`]'s
/// group-wise tag probing (SWAR/SSE2), so a digest probe scans 16
/// control tags per step. Digest collisions are harmless:
/// colliding rows share a chain and [`MirrorIndex::take`] verifies the
/// actual column values before surrendering an id. Tables beyond
/// `u32::MAX` physical slots are never indexed (slot ids are stored as
/// u32).
#[derive(Debug)]
struct MirrorIndex {
    /// Table mutation generation this index is valid at.
    generation: u64,
    /// digest → chain-head slot id.
    table: FlatTable,
    /// Per physical slot: the next slot in its equal-digest chain
    /// ([`NO_SLOT`] ends; indexed by slot id, grown by
    /// [`MirrorIndex::add`]).
    next: Vec<u32>,
    /// Set when a slot id outgrew the u32 chain space; a poisoned index
    /// is discarded instead of being reused.
    poisoned: bool,
}

impl MirrorIndex {
    /// Whether a cold build amortizes for this batch (see the thresholds
    /// above).
    fn worth_building(base: &ivm_engine::Table, deletions: usize) -> bool {
        deletions >= COLD_BUILD_THRESHOLD
            && (base.live_rows() <= COLD_BUILD_LARGE_TABLE
                || deletions >= COLD_BUILD_LARGE_THRESHOLD)
            && base.total_slots() < NO_SLOT as usize
    }

    /// One pass over the live rows: digest straight off the column
    /// vectors. Slots are visited in *reverse* and prepended, so chains
    /// iterate in ascending slot order (matching `find_row`'s
    /// first-equal-row victim choice).
    fn build(base: &ivm_engine::Table) -> MirrorIndex {
        let columns: Vec<&[Value]> = (0..base.schema.len()).map(|i| base.column(i)).collect();
        let total = base.total_slots();
        let mut index = MirrorIndex {
            generation: base.generation(),
            table: FlatTable::with_capacity(base.live_rows().min(1 << 20)),
            next: vec![NO_SLOT; total],
            poisoned: false,
        };
        for id in base.live_slot_ids().rev() {
            let idx = id as usize;
            let digest = hash_value_iter(columns.iter().map(|c| &c[idx]));
            index.prepend(digest, id as u32);
        }
        index
    }

    fn prepend(&mut self, digest: u64, id: u32) {
        let next = &mut self.next;
        chain_prepend(
            &mut self.table,
            digest,
            id,
            |_| true,
            |head| next[id as usize] = head,
        );
    }

    /// Record a row this session just inserted. Prepending is fine: any
    /// equal row is a valid deletion victim on a multiset table.
    fn add(&mut self, row: &[Value], id: u64) {
        if self.poisoned {
            return;
        }
        let Ok(id32) = u32::try_from(id) else {
            self.poisoned = true;
            return;
        };
        if id32 == NO_SLOT {
            self.poisoned = true;
            return;
        }
        let id = id as usize;
        if self.next.len() <= id {
            self.next.resize(id + 1, NO_SLOT);
        }
        self.prepend(hash_row(row), id32);
    }

    /// Unlink and return the first chained slot whose row equals
    /// `target`, verifying column values (digest collisions share
    /// chains).
    fn take(&mut self, target: &[Value], base: &ivm_engine::Table) -> Option<u64> {
        let digest = hash_row(target);
        let head = self.table.find_mut(digest, |_| true)?;
        let row_eq = |id: u32| {
            let idx = id as usize;
            target
                .iter()
                .enumerate()
                .all(|(c, t)| &base.column(c)[idx] == t)
        };
        let mut cur = *head;
        if cur != NO_SLOT && row_eq(cur) {
            *head = self.next[cur as usize];
            return Some(u64::from(cur));
        }
        while cur != NO_SLOT {
            let nxt = self.next[cur as usize];
            if nxt != NO_SLOT && row_eq(nxt) {
                self.next[cur as usize] = self.next[nxt as usize];
                return Some(u64::from(nxt));
            }
            cur = nxt;
        }
        None
    }
}

/// Compare two row sets as multisets under `Value`'s grouping equality —
/// the consistency oracle (`INTEGER 3` and `DOUBLE 3.0` are one value: the
/// maintained view may widen types through arithmetic).
pub fn rows_equal_as_multisets(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    fn counts(rows: &[Vec<Value>]) -> HashMap<&[Value], usize> {
        let mut m = HashMap::new();
        for r in rows {
            *m.entry(r.as_slice()).or_insert(0) += 1;
        }
        m
    }
    counts(a) == counts(b)
}

/// `SELECT <cols or assignment exprs>, <mult> FROM table [WHERE …]`.
fn delta_capture_select(
    table: &str,
    cols: &[String],
    selection: Option<Expr>,
    assignments: Option<&HashMap<String, Expr>>,
) -> Query {
    let mut proj: Vec<SelectItem> = cols
        .iter()
        .map(|c| {
            let expr = match assignments.and_then(|a| a.get(c)) {
                Some(e) => e.clone(),
                None => Expr::col(c.clone()),
            };
            SelectItem::aliased(expr, c.clone())
        })
        .collect();
    let mult = assignments.is_some();
    proj.push(SelectItem::aliased(Expr::boolean(mult), MULTIPLICITY_COL));
    let mut s = Select::new(proj);
    s.from = vec![TableRef::table(table)];
    s.selection = selection;
    Query {
        ctes: vec![],
        body: SetExpr::Select(Box::new(s)),
        order_by: vec![],
        limit: None,
        offset: None,
    }
}

fn insert_into(table: &str, source: Query) -> Statement {
    Statement::Insert(Insert {
        table: Ident::new(table),
        columns: vec![],
        source: InsertSource::Query(Box::new(source)),
        or_replace: false,
        on_conflict: None,
    })
}

/// Print a statement for debugging (used by the examples).
pub fn statement_to_sql(stmt: &Statement, dialect: ivm_sql::Dialect) -> String {
    print_statement(stmt, dialect)
}
