//! The OLTP row store.
//!
//! Stands in for PostgreSQL in the paper's cross-system demo (Figure 3):
//! a row-oriented engine with primary keys (B-tree), single-writer
//! transactions with undo-based rollback, and AFTER triggers for change
//! capture. Analytics (joins, wide scans) are deliberately slow here —
//! that asymmetry is the reason the HTAP pipeline exists.

use std::collections::{BTreeMap, HashMap};

use ivm_engine::expr::bind::{bind_expr, Scope};
use ivm_engine::expr::BoundExpr;
use ivm_engine::{Column, DataType, Schema, Value};
use ivm_sql::ast::{Expr, InsertSource, OrderByExpr, SelectItem, SetExpr, Statement, TableRef};
use ivm_sql::parse_statement;

use crate::error::OltpError;
use crate::trigger::{ChangeLog, ChangeRecord};

/// Result of one OLTP statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OltpResult {
    /// Column names for queries.
    pub columns: Vec<String>,
    /// Result rows for queries.
    pub rows: Vec<Vec<Value>>,
    /// Rows touched by DML.
    pub rows_affected: usize,
}

/// One table: row-oriented storage keyed by a surrogate row id, plus a
/// B-tree primary-key index when declared.
#[derive(Debug)]
struct OltpTable {
    schema: Schema,
    pk: Vec<usize>,
    rows: BTreeMap<u64, Vec<Value>>,
    pk_index: BTreeMap<Vec<Value>, u64>,
    next_id: u64,
}

impl OltpTable {
    fn pk_key(&self, row: &[Value]) -> Option<Vec<Value>> {
        if self.pk.is_empty() {
            None
        } else {
            Some(self.pk.iter().map(|&i| row[i].clone()).collect())
        }
    }

    /// Point the primary key at row `id` as its contents go from `old` to
    /// `new`. The old key is removed only while it still names `id`: an
    /// earlier row of the same UPDATE (or of its undo) may have taken it.
    fn move_key(&mut self, id: u64, old: &[Value], new: &[Value]) {
        let (Some(old_key), Some(new_key)) = (self.pk_key(old), self.pk_key(new)) else {
            return;
        };
        if old_key != new_key {
            if self.pk_index.get(&old_key) == Some(&id) {
                self.pk_index.remove(&old_key);
            }
            self.pk_index.insert(new_key, id);
        }
    }
}

/// Undo-log entry for rollback.
#[derive(Debug)]
enum Undo {
    Insert {
        table: String,
        id: u64,
    },
    Delete {
        table: String,
        id: u64,
        row: Vec<Value>,
    },
    Update {
        table: String,
        id: u64,
        old: Vec<Value>,
    },
}

/// The OLTP engine.
#[derive(Debug, Default)]
pub struct OltpEngine {
    tables: HashMap<String, OltpTable>,
    /// Change logs for tables with a capture trigger installed.
    triggers: HashMap<String, ChangeLog>,
    in_txn: bool,
    undo: Vec<Undo>,
    statements_executed: u64,
}

impl OltpEngine {
    /// An empty engine.
    pub fn new() -> OltpEngine {
        OltpEngine::default()
    }

    /// Number of statements executed (for the experiment harness).
    pub fn statements_executed(&self) -> u64 {
        self.statements_executed
    }

    /// Install an AFTER-statement change-capture trigger on a table.
    pub fn create_capture_trigger(&mut self, table: &str) -> Result<(), OltpError> {
        if !self.tables.contains_key(table) {
            return Err(OltpError::new(format!("table {table} does not exist")));
        }
        self.triggers.entry(table.to_string()).or_default();
        Ok(())
    }

    /// Drain the committed changes captured for a table.
    pub fn drain_changes(&mut self, table: &str) -> Vec<ChangeRecord> {
        self.triggers
            .get_mut(table)
            .map(ChangeLog::drain)
            .unwrap_or_default()
    }

    /// Committed-but-unshipped change count for a table.
    pub fn pending_changes(&self, table: &str) -> usize {
        self.triggers.get(table).map(ChangeLog::len).unwrap_or(0)
    }

    /// Live row count.
    pub fn row_count(&self, table: &str) -> usize {
        self.tables.get(table).map(|t| t.rows.len()).unwrap_or(0)
    }

    /// Bulk-load already-committed rows into a table, bypassing change
    /// capture and the undo log. Used when an HTAP pipeline reopens a
    /// durable database: the OLAP side is the recovered source of truth
    /// and its rows must reappear here without being re-captured as new
    /// changes (which would double-apply them to the mirrors).
    pub fn load_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), OltpError> {
        if self.in_txn {
            return Err(OltpError::new("cannot bulk-load inside a transaction"));
        }
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| OltpError::new(format!("table {table} does not exist")))?;
        for row in rows {
            if row.len() != t.schema.len() {
                return Err(OltpError::new(format!(
                    "bulk-load arity mismatch for {table}: expected {}, got {}",
                    t.schema.len(),
                    row.len()
                )));
            }
            let id = t.next_id;
            if let Some(key) = t.pk_key(&row) {
                if t.pk_index.contains_key(&key) {
                    return Err(OltpError::new(format!("duplicate key in {table}")));
                }
                t.pk_index.insert(key, id);
            }
            t.next_id += 1;
            t.rows.insert(id, row);
        }
        Ok(())
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<OltpResult, OltpError> {
        let stmt = parse_statement(sql)?;
        self.statements_executed += 1;
        match stmt {
            Statement::CreateTable(ct) => self.create_table(ct),
            Statement::Insert(ins) => self.insert(ins),
            Statement::Update(u) => self.update(u),
            Statement::Delete(d) => self.delete(d),
            Statement::Query(q) => self.select(*q),
            Statement::Begin => {
                if self.in_txn {
                    return Err(OltpError::new("transaction already open"));
                }
                self.in_txn = true;
                Ok(OltpResult::default())
            }
            Statement::Commit => {
                if !self.in_txn {
                    return Err(OltpError::new("no open transaction"));
                }
                self.in_txn = false;
                self.undo.clear();
                for log in self.triggers.values_mut() {
                    log.commit();
                }
                Ok(OltpResult::default())
            }
            Statement::Rollback => {
                if !self.in_txn {
                    return Err(OltpError::new("no open transaction"));
                }
                self.in_txn = false;
                self.apply_undo();
                for log in self.triggers.values_mut() {
                    log.rollback();
                }
                Ok(OltpResult::default())
            }
            Statement::Drop(d) => {
                let name = d.name.normalized();
                if self.tables.remove(name).is_none() && !d.if_exists {
                    return Err(OltpError::new(format!("table {name} does not exist")));
                }
                self.triggers.remove(name);
                Ok(OltpResult::default())
            }
            other => Err(OltpError::new(format!(
                "unsupported OLTP statement: {other:?}"
            ))),
        }
    }

    /// Execute a `;`-separated script.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<OltpResult>, OltpError> {
        ivm_sql::parse_statements(sql)?
            .into_iter()
            .map(|s| {
                self.statements_executed += 1;
                match s {
                    Statement::CreateTable(ct) => self.create_table(ct),
                    Statement::Insert(ins) => self.insert(ins),
                    Statement::Update(u) => self.update(u),
                    Statement::Delete(d) => self.delete(d),
                    Statement::Query(q) => self.select(*q),
                    other => Err(OltpError::new(format!("unsupported in script: {other:?}"))),
                }
            })
            .collect()
    }

    fn apply_undo(&mut self) {
        while let Some(entry) = self.undo.pop() {
            match entry {
                Undo::Insert { table, id } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        if let Some(row) = t.rows.remove(&id) {
                            if let Some(key) = t.pk_key(&row) {
                                t.pk_index.remove(&key);
                            }
                        }
                    }
                }
                Undo::Delete { table, id, row } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        if let Some(key) = t.pk_key(&row) {
                            t.pk_index.insert(key, id);
                        }
                        t.rows.insert(id, row);
                    }
                }
                Undo::Update { table, id, old } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        if let Some(current) = t.rows.get(&id).cloned() {
                            t.move_key(id, &current, &old);
                        }
                        t.rows.insert(id, old);
                    }
                }
            }
        }
    }

    fn create_table(&mut self, ct: ivm_sql::ast::CreateTable) -> Result<OltpResult, OltpError> {
        let name = ct.name.normalized().to_string();
        if self.tables.contains_key(&name) {
            if ct.if_not_exists {
                return Ok(OltpResult::default());
            }
            return Err(OltpError::new(format!("table {name} already exists")));
        }
        let schema = Schema::new(
            ct.columns
                .iter()
                .map(|c| Column {
                    name: c.name.normalized().to_string(),
                    ty: DataType::from(c.ty),
                    not_null: c.not_null,
                })
                .collect(),
        );
        let mut pk = Vec::new();
        for k in &ct.primary_key {
            let pos = schema
                .position(k.normalized())
                .ok_or_else(|| OltpError::new(format!("unknown PK column {}", k.normalized())))?;
            pk.push(pos);
        }
        self.tables.insert(
            name,
            OltpTable {
                schema,
                pk,
                rows: BTreeMap::new(),
                pk_index: BTreeMap::new(),
                next_id: 0,
            },
        );
        Ok(OltpResult::default())
    }

    fn table(&self, name: &str) -> Result<&OltpTable, OltpError> {
        self.tables
            .get(name)
            .ok_or_else(|| OltpError::new(format!("table {name} does not exist")))
    }

    fn insert(&mut self, ins: ivm_sql::ast::Insert) -> Result<OltpResult, OltpError> {
        if ins.or_replace || ins.on_conflict.is_some() {
            return Err(OltpError::new(
                "upserts are not supported by the OLTP engine",
            ));
        }
        let name = ins.table.normalized().to_string();
        let (schema, pk, column_map) = {
            let t = self.table(&name)?;
            let map: Vec<usize> = if ins.columns.is_empty() {
                (0..t.schema.len()).collect()
            } else {
                let mut m = Vec::new();
                for c in &ins.columns {
                    m.push(t.schema.position(c.normalized()).ok_or_else(|| {
                        OltpError::new(format!("unknown column {}", c.normalized()))
                    })?);
                }
                m
            };
            (t.schema.clone(), t.pk.clone(), map)
        };
        let InsertSource::Values(rows) = &ins.source else {
            return Err(OltpError::new(
                "INSERT … SELECT is not supported by the OLTP engine",
            ));
        };
        let empty = Scope::empty();
        let mut affected = 0usize;
        for value_row in rows {
            if value_row.len() != column_map.len() {
                return Err(OltpError::new("INSERT arity mismatch"));
            }
            let mut row = vec![Value::Null; schema.len()];
            for (expr, &target) in value_row.iter().zip(&column_map) {
                let bound = bind_expr(expr, &empty)?;
                let v = bound.eval(&[])?;
                row[target] = coerce(v, schema.columns[target].ty)?;
            }
            for (v, c) in row.iter().zip(&schema.columns) {
                if v.is_null() && c.not_null {
                    return Err(OltpError::new(format!("NOT NULL violated: {}", c.name)));
                }
            }
            let t = self.tables.get_mut(&name).expect("checked");
            if !pk.is_empty() {
                let key: Vec<Value> = pk.iter().map(|&i| row[i].clone()).collect();
                if t.pk_index.contains_key(&key) {
                    return Err(OltpError::new(format!("duplicate key in {name}")));
                }
                t.pk_index.insert(key, t.next_id);
            }
            let id = t.next_id;
            t.next_id += 1;
            t.rows.insert(id, row.clone());
            if self.in_txn {
                self.undo.push(Undo::Insert {
                    table: name.clone(),
                    id,
                });
            }
            if let Some(log) = self.triggers.get_mut(&name) {
                log.record(ChangeRecord::insert(row), self.in_txn);
            }
            affected += 1;
        }
        Ok(OltpResult {
            rows_affected: affected,
            ..Default::default()
        })
    }

    fn matching_rows(
        &self,
        name: &str,
        selection: &Option<Expr>,
    ) -> Result<Vec<(u64, Vec<Value>)>, OltpError> {
        let t = self.table(name)?;
        let scope = Scope::of(name, &t.schema);
        let predicate = match selection {
            Some(e) => Some(bind_expr(e, &scope)?),
            None => None,
        };
        let mut out = Vec::new();
        for (&id, row) in &t.rows {
            let keep = match &predicate {
                Some(p) => p.eval(row)?.as_bool() == Some(true),
                None => true,
            };
            if keep {
                out.push((id, row.clone()));
            }
        }
        Ok(out)
    }

    fn update(&mut self, u: ivm_sql::ast::Update) -> Result<OltpResult, OltpError> {
        let name = u.table.normalized().to_string();
        let victims = self.matching_rows(&name, &u.selection)?;
        let (schema, assignments) = {
            let t = self.table(&name)?;
            let scope = Scope::of(&name, &t.schema);
            let mut bound = Vec::new();
            for a in &u.assignments {
                let pos = t.schema.position(a.column.normalized()).ok_or_else(|| {
                    OltpError::new(format!("unknown column {}", a.column.normalized()))
                })?;
                bound.push((pos, bind_expr(&a.value, &scope)?));
            }
            (t.schema.clone(), bound)
        };
        // Every new row first; the key is checked against the final
        // rows, as one statement: unique among themselves, and none held
        // by a row the UPDATE leaves alone.
        let mut changes = Vec::with_capacity(victims.len());
        for (id, old_row) in victims {
            let mut new_row = old_row.clone();
            for (pos, expr) in &assignments {
                new_row[*pos] = coerce(expr.eval(&old_row)?, schema.columns[*pos].ty)?;
            }
            changes.push((id, old_row, new_row));
        }
        let t = self.tables.get_mut(&name).expect("checked");
        let mut new_keys = std::collections::HashSet::new();
        for (id, _, new_row) in &changes {
            let Some(key) = t.pk_key(new_row) else {
                break;
            };
            let taken = t.pk_index.get(&key).is_some_and(|owner| {
                owner != id && changes.binary_search_by_key(owner, |c| c.0).is_err()
            });
            if taken || !new_keys.insert(key) {
                return Err(OltpError::new(format!("duplicate key in {name}")));
            }
        }
        let affected = changes.len();
        for (id, old_row, new_row) in changes {
            let t = self.tables.get_mut(&name).expect("checked");
            t.move_key(id, &old_row, &new_row);
            t.rows.insert(id, new_row.clone());
            if self.in_txn {
                self.undo.push(Undo::Update {
                    table: name.clone(),
                    id,
                    old: old_row.clone(),
                });
            }
            if let Some(log) = self.triggers.get_mut(&name) {
                // DBSP update = deletion of the pre-image + insertion of
                // the post-image.
                log.record(ChangeRecord::delete(old_row), self.in_txn);
                log.record(ChangeRecord::insert(new_row), self.in_txn);
            }
        }
        Ok(OltpResult {
            rows_affected: affected,
            ..Default::default()
        })
    }

    fn delete(&mut self, d: ivm_sql::ast::Delete) -> Result<OltpResult, OltpError> {
        let name = d.table.normalized().to_string();
        let victims = self.matching_rows(&name, &d.selection)?;
        let affected = victims.len();
        for (id, row) in victims {
            let t = self.tables.get_mut(&name).expect("checked");
            if let Some(key) = t.pk_key(&row) {
                t.pk_index.remove(&key);
            }
            t.rows.remove(&id);
            if self.in_txn {
                self.undo.push(Undo::Delete {
                    table: name.clone(),
                    id,
                    row: row.clone(),
                });
            }
            if let Some(log) = self.triggers.get_mut(&name) {
                log.record(ChangeRecord::delete(row), self.in_txn);
            }
        }
        Ok(OltpResult {
            rows_affected: affected,
            ..Default::default()
        })
    }

    /// Minimal single-table SELECT: projection, WHERE, GROUP BY with
    /// SUM/COUNT/AVG/MIN/MAX, ORDER BY output columns, LIMIT. Analytics on
    /// the row store exist only for the E3 "pure OLTP" comparison — they
    /// are intentionally naive row-at-a-time loops.
    fn select(&mut self, q: ivm_sql::ast::Query) -> Result<OltpResult, OltpError> {
        if !q.ctes.is_empty() {
            return Err(OltpError::new("CTEs are not supported by the OLTP engine"));
        }
        let SetExpr::Select(select) = &q.body else {
            return Err(OltpError::new(
                "set operations are not supported by the OLTP engine",
            ));
        };
        if select.from.len() != 1 {
            return Err(OltpError::new("OLTP SELECT reads exactly one table"));
        }
        let TableRef::Table { name, alias } = &select.from[0] else {
            return Err(OltpError::new(
                "joins/subqueries are not supported by the OLTP engine",
            ));
        };
        let tname = name.normalized().to_string();
        let qualifier = alias
            .as_ref()
            .map(|a| a.normalized().to_string())
            .unwrap_or_else(|| tname.clone());
        let t = self.table(&tname)?;
        let scope = Scope::of(&qualifier, &t.schema);

        // Expand projection.
        let mut items: Vec<(Expr, String)> = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    for c in &t.schema.columns {
                        items.push((Expr::col(c.name.clone()), c.name.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias
                        .as_ref()
                        .map(|a| a.normalized().to_string())
                        .unwrap_or_else(|| default_name(expr));
                    items.push((expr.clone(), name));
                }
            }
        }

        let predicate = match &select.selection {
            Some(e) => Some(bind_expr(e, &scope)?),
            None => None,
        };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for row in t.rows.values() {
            let keep = match &predicate {
                Some(p) => p.eval(row)?.as_bool() == Some(true),
                None => true,
            };
            if keep {
                rows.push(row.clone());
            }
        }

        let is_aggregate =
            !select.group_by.is_empty() || items.iter().any(|(e, _)| contains_aggregate(e));
        let columns: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
        let mut out_rows = if is_aggregate {
            self.aggregate_select(&items, &select.group_by, rows, &scope)?
        } else {
            let exprs: Vec<BoundExpr> = items
                .iter()
                .map(|(e, _)| bind_expr(e, &scope))
                .collect::<Result<_, _>>()?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut projected = Vec::with_capacity(exprs.len());
                for e in &exprs {
                    projected.push(e.eval(&row)?);
                }
                out.push(projected);
            }
            out
        };

        if !q.order_by.is_empty() {
            let keys: Vec<(usize, bool)> = q
                .order_by
                .iter()
                .map(|OrderByExpr { expr, desc }| match expr {
                    Expr::Column(c) => columns
                        .iter()
                        .position(|n| n == c.column.normalized())
                        .map(|i| (i, *desc))
                        .ok_or_else(|| OltpError::new("ORDER BY must name an output column")),
                    _ => Err(OltpError::new("ORDER BY must name an output column")),
                })
                .collect::<Result<_, _>>()?;
            out_rows.sort_by(|a, b| {
                for &(i, desc) in &keys {
                    let ord = a[i].total_cmp(&b[i]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(Expr::Literal(ivm_sql::ast::Literal::Number(n))) = &q.limit {
            if let Ok(limit) = n.parse::<usize>() {
                out_rows.truncate(limit);
            }
        }
        Ok(OltpResult {
            columns,
            rows: out_rows,
            rows_affected: 0,
        })
    }

    fn aggregate_select(
        &self,
        items: &[(Expr, String)],
        group_by: &[Expr],
        rows: Vec<Vec<Value>>,
        scope: &Scope,
    ) -> Result<Vec<Vec<Value>>, OltpError> {
        use std::collections::hash_map::Entry;

        let group_exprs: Vec<BoundExpr> = group_by
            .iter()
            .map(|e| bind_expr(e, scope))
            .collect::<Result<_, _>>()?;
        // Each item must be either a group expression or an aggregate call.
        enum Item {
            Group(usize),
            Agg {
                func: String,
                arg: Option<BoundExpr>,
            },
        }
        let mut plan_items = Vec::new();
        for (e, _) in items {
            if let Some(i) = group_by.iter().position(|g| g == e) {
                plan_items.push(Item::Group(i));
            } else if let Expr::Function {
                name, args, star, ..
            } = e
            {
                let func = name.normalized().to_string();
                if !matches!(func.as_str(), "sum" | "count" | "avg" | "min" | "max") {
                    return Err(OltpError::new(format!("unknown aggregate {func}")));
                }
                let arg = if *star {
                    None
                } else {
                    Some(bind_expr(&args[0], scope)?)
                };
                plan_items.push(Item::Agg { func, arg });
            } else {
                return Err(OltpError::new(
                    "OLTP aggregate projection must be keys or aggregate calls",
                ));
            }
        }

        // (sum, count, min, max) accumulators per item per group.
        type Acc = (f64, i64, Option<Value>, Option<Value>);
        let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for row in &rows {
            let mut key = Vec::with_capacity(group_exprs.len());
            for g in &group_exprs {
                key.push(g.eval(row)?);
            }
            let accs = match groups.entry(key.clone()) {
                Entry::Occupied(o) => o.into_mut(),
                Entry::Vacant(v) => {
                    order.push(key);
                    v.insert(vec![(0.0, 0, None, None); plan_items.len()])
                }
            };
            for (acc, item) in accs.iter_mut().zip(&plan_items) {
                if let Item::Agg { arg, .. } = item {
                    let v = match arg {
                        Some(a) => a.eval(row)?,
                        None => Value::Boolean(true),
                    };
                    if v.is_null() {
                        continue;
                    }
                    acc.0 += v.as_f64().unwrap_or(0.0);
                    acc.1 += 1;
                    if acc.2.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                        acc.2 = Some(v.clone());
                    }
                    if acc.3.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                        acc.3 = Some(v);
                    }
                }
            }
        }
        // Global aggregates over empty input still produce one row.
        if group_exprs.is_empty() && order.is_empty() {
            order.push(Vec::new());
            groups.insert(Vec::new(), vec![(0.0, 0, None, None); plan_items.len()]);
        }
        let mut out = Vec::with_capacity(order.len());
        for key in order {
            let accs = groups.remove(&key).expect("recorded");
            let mut row = Vec::with_capacity(plan_items.len());
            for (item, acc) in plan_items.iter().zip(accs) {
                row.push(match item {
                    Item::Group(i) => key[*i].clone(),
                    Item::Agg { func, .. } => match func.as_str() {
                        "sum" => {
                            if acc.1 == 0 {
                                Value::Null
                            } else if acc.0.fract() == 0.0 {
                                Value::Integer(acc.0 as i64)
                            } else {
                                Value::Double(acc.0)
                            }
                        }
                        "count" => Value::Integer(acc.1),
                        "avg" => {
                            if acc.1 == 0 {
                                Value::Null
                            } else {
                                Value::Double(acc.0 / acc.1 as f64)
                            }
                        }
                        "min" => acc.2.clone().unwrap_or(Value::Null),
                        "max" => acc.3.clone().unwrap_or(Value::Null),
                        _ => unreachable!(),
                    },
                });
            }
            out.push(row);
        }
        Ok(out)
    }
}

fn coerce(v: Value, target: DataType) -> Result<Value, OltpError> {
    match v.data_type() {
        None => Ok(Value::Null),
        Some(t) if target.accepts(t) => {
            if t == DataType::Integer && target == DataType::Double {
                Ok(v.cast(DataType::Double)?)
            } else {
                Ok(v)
            }
        }
        Some(_) => Ok(v.cast(target)?),
    }
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.column.normalized().to_string(),
        Expr::Function { name, .. } => name.normalized().to_string(),
        other => ivm_sql::print_expr(other, ivm_sql::Dialect::DuckDb).to_lowercase(),
    }
}

fn contains_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |node| {
        if let Expr::Function { name, .. } = node {
            if matches!(name.normalized(), "sum" | "count" | "avg" | "min" | "max") {
                found = true;
            }
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> OltpEngine {
        let mut e = OltpEngine::new();
        e.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner VARCHAR, balance INTEGER)")
            .unwrap();
        e.execute("INSERT INTO accounts VALUES (1, 'ada', 100), (2, 'bob', 50)")
            .unwrap();
        e
    }

    /// A multi-row UPDATE is checked against its final keys: a swap
    /// succeeds, a real collision is refused and changes nothing, and
    /// rolling a swap back restores both key entries.
    #[test]
    fn update_checks_final_keys_and_rolls_back_a_swap() {
        let mut e = engine();
        let rows = |e: &mut OltpEngine| {
            e.execute("SELECT id, owner FROM accounts ORDER BY id")
                .unwrap()
                .rows
        };
        let swapped = vec![
            vec![Value::Integer(1), Value::from("bob")],
            vec![Value::Integer(2), Value::from("ada")],
        ];
        e.execute("UPDATE accounts SET id = 3 - id").unwrap();
        assert_eq!(rows(&mut e), swapped);
        for collision in [
            "UPDATE accounts SET id = 2 WHERE id = 1",
            "UPDATE accounts SET id = 7",
        ] {
            assert!(e.execute(collision).is_err(), "{collision}");
            assert_eq!(rows(&mut e), swapped, "{collision}");
        }
        for stmt in ["BEGIN", "UPDATE accounts SET id = 3 - id", "ROLLBACK"] {
            e.execute(stmt).unwrap();
        }
        assert_eq!(rows(&mut e), swapped);
        for id in [1, 2] {
            let dup = format!("INSERT INTO accounts VALUES ({id}, 'x', 0)");
            assert!(e.execute(&dup).is_err(), "{dup}");
        }
        e.execute("INSERT INTO accounts VALUES (3, 'cyd', 0)")
            .unwrap();
    }

    #[test]
    fn crud_round_trip() {
        let mut e = engine();
        let r = e
            .execute("SELECT id, balance FROM accounts ORDER BY id")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        e.execute("UPDATE accounts SET balance = balance - 10 WHERE id = 1")
            .unwrap();
        let r = e
            .execute("SELECT balance FROM accounts WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Integer(90));
        e.execute("DELETE FROM accounts WHERE id = 2").unwrap();
        assert_eq!(e.row_count("accounts"), 1);
    }

    #[test]
    fn primary_key_enforced() {
        let mut e = engine();
        assert!(e
            .execute("INSERT INTO accounts VALUES (1, 'eve', 1)")
            .is_err());
        // PK change collisions rejected.
        assert!(e
            .execute("UPDATE accounts SET id = 2 WHERE id = 1")
            .is_err());
        // Legal PK change maintains the index.
        e.execute("UPDATE accounts SET id = 9 WHERE id = 1")
            .unwrap();
        let r = e
            .execute("SELECT owner FROM accounts WHERE id = 9")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::from("ada"));
    }

    #[test]
    fn transactions_commit_and_rollback() {
        let mut e = engine();
        e.execute("BEGIN").unwrap();
        e.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
            .unwrap();
        e.execute("DELETE FROM accounts WHERE id = 2").unwrap();
        e.execute("INSERT INTO accounts VALUES (3, 'eve', 7)")
            .unwrap();
        e.execute("ROLLBACK").unwrap();
        let r = e
            .execute("SELECT id, balance FROM accounts ORDER BY id")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Integer(1), Value::Integer(100)],
                vec![Value::Integer(2), Value::Integer(50)],
            ]
        );
        e.execute("BEGIN").unwrap();
        e.execute("INSERT INTO accounts VALUES (3, 'eve', 7)")
            .unwrap();
        e.execute("COMMIT").unwrap();
        assert_eq!(e.row_count("accounts"), 3);
        assert!(e.execute("COMMIT").is_err(), "no open txn");
    }

    #[test]
    fn triggers_capture_committed_changes_only() {
        let mut e = engine();
        e.create_capture_trigger("accounts").unwrap();
        e.execute("BEGIN").unwrap();
        e.execute("INSERT INTO accounts VALUES (3, 'eve', 7)")
            .unwrap();
        assert_eq!(e.pending_changes("accounts"), 0, "uncommitted invisible");
        e.execute("ROLLBACK").unwrap();
        assert_eq!(e.pending_changes("accounts"), 0);
        assert_eq!(e.row_count("accounts"), 2);

        e.execute("INSERT INTO accounts VALUES (4, 'dan', 9)")
            .unwrap();
        assert_eq!(e.pending_changes("accounts"), 1, "autocommit captures");
        e.execute("UPDATE accounts SET balance = 10 WHERE id = 4")
            .unwrap();
        let changes = e.drain_changes("accounts");
        // insert + (delete + insert) from the update.
        assert_eq!(changes.len(), 3);
        assert!(changes[0].insertion);
        assert!(!changes[1].insertion);
        assert!(changes[2].insertion);
        assert!(e.drain_changes("accounts").is_empty(), "drained");
    }

    #[test]
    fn naive_aggregates_work() {
        let mut e = engine();
        e.execute("INSERT INTO accounts VALUES (3, 'ada', 10)")
            .unwrap();
        let r = e
            .execute(
                "SELECT owner, SUM(balance) AS total, COUNT(*) AS n FROM accounts \
                 GROUP BY owner ORDER BY owner",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("ada"), Value::Integer(110), Value::Integer(2)],
                vec![Value::from("bob"), Value::Integer(50), Value::Integer(1)],
            ]
        );
        let r = e
            .execute("SELECT MIN(balance), MAX(balance), AVG(balance) FROM accounts")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Integer(10));
        assert_eq!(r.rows[0][1], Value::Integer(100));
    }

    #[test]
    fn unsupported_features_error() {
        let mut e = engine();
        assert!(e
            .execute("SELECT * FROM accounts a JOIN accounts b ON a.id = b.id")
            .is_err());
        assert!(e
            .execute("INSERT OR REPLACE INTO accounts VALUES (1, 'x', 1)")
            .is_err());
        assert!(e.execute("SELECT 1 UNION SELECT 2").is_err());
    }

    #[test]
    fn not_null_and_arity() {
        let mut e = OltpEngine::new();
        e.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR)")
            .unwrap();
        assert!(e.execute("INSERT INTO t VALUES (NULL, 'x')").is_err());
        assert!(e.execute("INSERT INTO t VALUES (1)").is_err());
        e.execute("INSERT INTO t (a) VALUES (1)").unwrap();
        let r = e.execute("SELECT b FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }
}
