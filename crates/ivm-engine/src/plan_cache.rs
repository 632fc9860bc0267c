//! The bound-plan cache: optimized physical plans by statement shape,
//! held within a byte cap.
//!
//! A [`crate::Database`] owns the one cache, and every
//! [`crate::SnapshotHub`] made from it holds the same handle, so the
//! writer's statements (a refresh re-runs the same maintenance script
//! each time) and every reader's queries plan each shape once between
//! them. Entries are keyed by a statement's [`Shape`]:
//! [`ivm_sql::lift_literals`] turns the values a statement compares
//! against into parameter slots, so statements that differ only in those
//! values share one plan *template*, and each statement instantiates it
//! with its own values ([`instantiate`]), running the template's
//! `IN (SELECT …)` bodies, which it holds optimized and lowered, once
//! per execution. One lookup, [`plan_lifted`], serves every path
//! through the cache and plans a miss outside the cache's lock: a
//! statement sent once is lifted on the way in ([`plan_shared`]); one run
//! many times is lifted once, when it is prepared
//! ([`PreparedStatement`]).
//!
//! **Byte cap.** Each entry is charged an estimate of the bytes it holds:
//! its key and output column names, and for every plan operator (those
//! of subquery bodies included) its struct, the schema it owns (column
//! structs and names), and each expression node's struct plus the
//! strings it owns (column names, VARCHAR literals). Allocator headers
//! and vector slack are not counted, so the estimate reads low by a small
//! factor. An insert that would take the total past [`PLAN_CACHE_BYTES`]
//! first evicts least-recently-used entries until it fits; an entry
//! larger than the cap alone is not kept.

use std::collections::{HashMap, HashSet};
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard};

use ivm_sql::ast::{
    Delete, Expr, Insert, InsertSource, Query, Select, SelectItem, Statement, TableRef, Update,
};
use ivm_sql::{lift_literals, print_query, Dialect, Ident};

use crate::error::EngineError;
use crate::exec::{self, ExecContext};
use crate::expr::bind::bind_literal;
use crate::expr::{BoundExpr, SubquerySet};
use crate::optimizer::bind_params;
use crate::planner::physical::PhysicalPlan;
use crate::schema::Column;
use crate::session::plan_physical;
use crate::types::DataType;
use crate::value::Value;

/// A planned query: the optimized physical plan and its output column
/// names.
pub(crate) type Planned = (Arc<PhysicalPlan>, Vec<String>);

/// Estimated bytes of plans the cache may hold. A session's maintenance
/// scripts and a server's statement shapes take a small fraction of it.
const PLAN_CACHE_BYTES: usize = 8 << 20;

/// The plan of `q` under `cx`, through `cache` at catalog-shape
/// `generation`: `q` is lifted in place (an owner hands its statement
/// over: cloning a served 64-key lookup's AST costs a sixth of serving
/// it) and planned through [`plan_lifted`]. `as_sent()` — `q` may be left
/// partly lifted — is planned uncached when `q` does not lift.
pub(crate) fn plan_shared(
    cache: &Mutex<PlanCache>,
    mut q: Query,
    as_sent: impl FnOnce() -> Result<Query, EngineError>,
    cx: &ExecContext<'_>,
    generation: u64,
    fill: Fill,
) -> Result<Planned, EngineError> {
    match Shape::lift(&mut q) {
        Some(shape) => plan_lifted(cache, &q, &shape, as_sent, cx, generation, fill),
        None => plan_uncached(&as_sent()?, cx, fill),
    }
}

/// The plan of the lifted query `q` of shape `shape`: looked up, planned
/// on a miss outside the lock (two concurrent misses both plan; the last
/// insert wins), and instantiated. `as_sent()` is planned uncached when
/// the lifted form does not plan: it then reports its own error, or it
/// plans only verbatim (a HAVING term that must match a GROUP BY
/// expression literally).
fn plan_lifted(
    cache: &Mutex<PlanCache>,
    q: &Query,
    shape: &Shape,
    as_sent: impl FnOnce() -> Result<Query, EngineError>,
    cx: &ExecContext<'_>,
    generation: u64,
    fill: Fill,
) -> Result<Planned, EngineError> {
    // Its own statement, so the lock is released before the match.
    let cached = lock(cache).get(&shape.key, generation);
    let template = match cached {
        Some(hit) => hit,
        None => {
            let Ok(planned) = plan_physical(q, cx, &shape.types) else {
                return plan_uncached(&as_sent()?, cx, fill);
            };
            lock(cache).insert(&shape.key, generation, planned.clone());
            planned
        }
    };
    instantiate(template, &shape.values, cx, fill)
}

/// The plan of `q` as sent, bypassing the cache.
pub(crate) fn plan_uncached(
    q: &Query,
    cx: &ExecContext<'_>,
    fill: Fill,
) -> Result<Planned, EngineError> {
    instantiate(plan_physical(q, cx, &[])?, &[], cx, fill)
}

/// How far [`instantiate`] fills a plan template in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// Parameters and subqueries: the plan is ready to run.
    Run,
    /// Parameters only; the subquery bodies stay in the plan, unrun —
    /// what `EXPLAIN` shows.
    Explain,
}

/// One statement's plan from `template` — the one instantiation pass
/// ([`bind_params`]). The parameter slots take `values`. Under
/// [`Fill::Run`] each subquery body runs once first, under `cx`
/// ([`run_subqueries`]), its set replaces every `IN (SELECT …)` that
/// reads it, and the subquery root is dropped, so the executor meets
/// neither. A template with no value to fill in and no subquery to run
/// is shared as it is, uncloned.
fn instantiate(
    (plan, columns): Planned,
    values: &[Value],
    cx: &ExecContext<'_>,
    fill: Fill,
) -> Result<Planned, EngineError> {
    let (root, bodies) = match &*plan {
        PhysicalPlan::Subqueries { input, subqueries } if fill == Fill::Run => {
            (&**input, &subqueries[..])
        }
        _ if values.is_empty() => return Ok((plan, columns)),
        root => (root, &[][..]),
    };
    let sets = run_subqueries(bodies, values, cx)?;
    let mut root = root.clone();
    bind_params(&mut root, values, &sets, cx.catalog);
    Ok((Arc::new(root), columns))
}

/// Run each subquery body once under `cx` ([`exec::run`]: the
/// statement's memory budget and worker count), in order, each filled in
/// from `values` and the sets of the bodies before it; their rows as
/// sets.
pub(crate) fn run_subqueries(
    bodies: &[PhysicalPlan],
    values: &[Value],
    cx: &ExecContext<'_>,
) -> Result<Vec<SubquerySet>, EngineError> {
    let mut sets = Vec::with_capacity(bodies.len());
    for body in bodies {
        let mut body = body.clone();
        bind_params(&mut body, values, &sets, cx.catalog);
        // The binder admits only one-column bodies.
        let rows = exec::run(&body, cx)?.into_iter();
        let mut set: HashSet<Value> = rows.filter_map(|row| row.into_iter().next()).collect();
        let has_null = set.remove(&Value::Null);
        sets.push((Arc::new(set), has_null));
    }
    Ok(sets)
}

/// A statement lifted once for many executions
/// ([`crate::Database::execute_prepared`]): the statement as sent and,
/// when it plans a query through the cache — a SELECT, an INSERT's
/// source, the scan an UPDATE or a DELETE finds its rows with, an
/// EXPLAINed statement's — that query's lifted form and shape, so an
/// execution that hits the cache clones, lifts and prints nothing. A
/// refresh runs each maintenance statement of a view this way.
#[derive(Debug)]
pub struct PreparedStatement {
    statement: Statement,
    lifted: Option<(Query, Shape)>,
}

impl PreparedStatement {
    /// Lift `statement`'s cached query, if it has one that lifts.
    pub fn new(statement: Statement) -> PreparedStatement {
        let lifted = cached_query(&statement).and_then(|mut q| {
            let shape = Shape::lift(&mut q)?;
            Some((q, shape))
        });
        PreparedStatement { statement, lifted }
    }

    /// The statement as sent.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }
}

/// The query `statement` plans through the cache when it runs: a SELECT
/// itself, an INSERT's source, an UPDATE's or a DELETE's
/// [`victim_query`], an EXPLAINed statement's.
fn cached_query(statement: &Statement) -> Option<Query> {
    match statement {
        Statement::Query(q)
        | Statement::Insert(Insert {
            source: InsertSource::Query(q),
            ..
        }) => Some((**q).clone()),
        Statement::Update(Update {
            table, selection, ..
        })
        | Statement::Delete(Delete { table, selection }) => {
            Some(victim_query(table, selection.as_ref()))
        }
        Statement::Explain(inner) => cached_query(inner),
        _ => None,
    }
}

/// How an UPDATE or a DELETE of `table` finds its rows: `SELECT * FROM
/// table WHERE selection`, planned like any query — its predicate pushed
/// into the table's scan, an equality on the key an index point read.
pub(crate) fn victim_query(table: &Ident, selection: Option<&Expr>) -> Query {
    let mut select = Select::new(vec![SelectItem::Wildcard]);
    select.from = vec![TableRef::Table {
        name: table.clone(),
        alias: None,
    }];
    select.selection = selection.cloned();
    Query::from_select(select)
}

/// The plan of `q` through `cache`: from the shape lifted up front when
/// `prepared` — `q`'s statement, prepared — has one, else as
/// [`plan_shared`] plans a statement sent once, from a clone of `q`.
pub(crate) fn plan_statement(
    cache: &Mutex<PlanCache>,
    q: &Query,
    prepared: Option<&PreparedStatement>,
    cx: &ExecContext<'_>,
    generation: u64,
    fill: Fill,
) -> Result<Planned, EngineError> {
    match prepared.and_then(|p| p.lifted.as_ref()) {
        Some((lifted, shape)) => {
            plan_lifted(cache, lifted, shape, || Ok(q.clone()), cx, generation, fill)
        }
        None => plan_shared(cache, q.clone(), || Ok(q.clone()), cx, generation, fill),
    }
}

pub(crate) fn lock(cache: &Mutex<PlanCache>) -> MutexGuard<'_, PlanCache> {
    cache.lock().expect("no update panics mid-way")
}

/// A statement's shape: the cache key — the lifted values' types and the
/// lifted statement's text — and the values that instantiate its plan.
#[derive(Debug)]
struct Shape {
    key: String,
    /// Types of the parameter slots, in slot order.
    types: Vec<DataType>,
    values: Vec<Value>,
}

impl Shape {
    /// Lift `q`'s literals in place (see [`ivm_sql::lift_literals`]).
    /// `None` when `q` holds a written `$n` placeholder or a literal that
    /// does not bind.
    fn lift(q: &mut Query) -> Option<Shape> {
        let values = lift_literals(q)?
            .iter()
            .map(bind_literal)
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        let types: Vec<DataType> = values
            .iter()
            .map(|v| v.data_type().expect("NULL is never lifted"))
            .collect();
        // `si SELECT …` for a VARCHAR and an INTEGER slot: the type codes
        // end at the first space, so no two (types, text) pairs share a
        // key.
        let mut key: String = types
            .iter()
            .map(|t| match t {
                DataType::Boolean => 'b',
                DataType::Integer => 'i',
                DataType::Double => 'd',
                DataType::Varchar => 's',
                DataType::Date => 't',
            })
            .collect();
        key.push(' ');
        key.push_str(&print_query(q, Dialect::DuckDb));
        Some(Shape { key, types, values })
    }
}

#[derive(Debug)]
struct Entry {
    /// The catalog-shape generation the plan was made under.
    generation: u64,
    plan: Planned,
    /// Estimated bytes held (see the module doc).
    bytes: usize,
    /// The cache tick of the last insert or hit.
    used: u64,
}

/// A cache of [`Planned`] queries by key, each valid while the catalog
/// shape (tables, views, indexes) is at the generation it was planned
/// under. Lowering reads the catalog alone — no executor setting — so
/// one entry serves every memory budget and worker count.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: HashMap<String, Entry>,
    /// Sum of the entries' estimated bytes.
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// The plan cached under `key`, if it was planned at catalog-shape
    /// `generation`. Counts a hit or a miss.
    fn get(&mut self, key: &str, generation: u64) -> Option<Planned> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) if entry.generation == generation => {
                entry.used = self.tick;
                self.hits += 1;
                Some(entry.plan.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store `plan` under `key`, planned at catalog-shape `generation`,
    /// evicting least-recently-used entries to stay within the byte cap.
    fn insert(&mut self, key: &str, generation: u64, plan: Planned) {
        self.remove(key);
        let bytes = key.len() + planned_bytes(&plan);
        if bytes > PLAN_CACHE_BYTES {
            return;
        }
        while self.bytes + bytes > PLAN_CACHE_BYTES {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
                .expect("bytes held imply an entry");
            self.remove(&lru);
        }
        self.tick += 1;
        self.bytes += bytes;
        let entry = Entry {
            generation,
            plan,
            bytes,
            used: self.tick,
        };
        self.entries.insert(key.to_string(), entry);
    }

    fn remove(&mut self, key: &str) {
        if let Some(entry) = self.entries.remove(key) {
            self.bytes -= entry.bytes;
        }
    }

    /// Drop every entry (the counters keep their history).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// `(entries, hits, misses)`.
    pub(crate) fn stats(&self) -> (usize, u64, u64) {
        (self.entries.len(), self.hits, self.misses)
    }
}

/// Estimated bytes a planned query holds (see the module doc).
fn planned_bytes((plan, columns): &Planned) -> usize {
    let names: usize = columns.iter().map(|c| size_of::<String>() + c.len()).sum();
    names + plan_bytes(plan)
}

fn plan_bytes(plan: &PhysicalPlan) -> usize {
    let schema = match plan {
        PhysicalPlan::TableScan { schema, .. }
        | PhysicalPlan::Project { schema, .. }
        | PhysicalPlan::HashJoin { schema, .. }
        | PhysicalPlan::HashAggregate { schema, .. }
        | PhysicalPlan::SetOp { schema, .. } => schema
            .columns
            .iter()
            .map(|c| size_of::<Column>() + c.name.len())
            .sum(),
        _ => 0,
    };
    let mut exprs = 0;
    for e in plan.exprs() {
        e.visit(&mut |node| {
            exprs += size_of::<BoundExpr>()
                + match node {
                    BoundExpr::Column { name, .. } => name.len(),
                    BoundExpr::Literal(Value::Varchar(s)) => s.len(),
                    _ => 0,
                };
        });
    }
    let inputs: usize = plan.inputs().map(plan_bytes).sum();
    size_of::<PhysicalPlan>() + schema + exprs + inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::SetOpKind;
    use crate::schema::Schema;

    fn plan() -> Planned {
        (Arc::new(PhysicalPlan::Dual), vec!["c".to_string()])
    }

    /// `width` scans of a one-column table under a chain of UNION ALLs.
    fn union_all(width: usize) -> Planned {
        let schema = Schema::new(vec![Column::new("k", DataType::Varchar)]);
        let scan = || PhysicalPlan::TableScan {
            table: "t".to_string(),
            schema: schema.clone(),
            predicate: None,
            index_eq: Vec::new(),
        };
        let mut plan = scan();
        for _ in 1..width {
            plan = PhysicalPlan::SetOp {
                op: SetOpKind::Union,
                left: Box::new(plan),
                right: Box::new(scan()),
                schema: schema.clone(),
            };
        }
        (Arc::new(plan), vec!["k".to_string()])
    }

    #[test]
    fn identity_generation_and_eviction() {
        let mut cache = PlanCache::default();
        assert!(cache.get("q", 0).is_none());
        cache.insert("q", 0, plan());
        // Same key + generation hits; a stale generation misses.
        assert_eq!(cache.get("q", 0).unwrap().1, vec!["c".to_string()]);
        assert!(cache.get("q", 1).is_none());
        assert_eq!(cache.stats(), (1, 1, 2));
        // Re-inserting a key replaces its entry.
        cache.insert("q", 1, plan());
        assert_eq!(cache.stats().0, 1);
        assert!(cache.get("q", 1).is_some());

        // Fill to the cap: the least recently used entry goes first.
        let big = union_all(512);
        let each = "a0".len() + planned_bytes(&big);
        let fit = PLAN_CACHE_BYTES / each;
        for i in 0..fit {
            cache.insert(&format!("a{i}"), 1, big.clone());
        }
        assert!(cache.get("a0", 1).is_some(), "a0 is now the newest use");
        cache.insert("overflow", 1, big.clone());
        assert!(cache.bytes <= PLAN_CACHE_BYTES);
        assert!(cache.get("a0", 1).is_some(), "a recent hit survives");
        assert!(cache.get("a1", 1).is_none(), "the oldest is evicted");
        assert!(cache.get("overflow", 1).is_some());

        // A plan larger than the whole cap is not kept.
        cache.clear();
        assert_eq!(cache.bytes, 0);
        let wide = "x".repeat(PLAN_CACHE_BYTES);
        let oversized = (Arc::new(PhysicalPlan::Dual), vec![wide]);
        cache.insert("huge", 1, oversized);
        assert_eq!(cache.stats().0, 0);
        assert_eq!(cache.bytes, 0);
    }

    /// A plan's subquery bodies are inputs of its root, so the byte
    /// estimate charges them.
    #[test]
    fn plan_bytes_charge_subquery_bodies() {
        let mut db = crate::Database::new();
        db.execute("CREATE TABLE t (k VARCHAR, v INTEGER)").unwrap();
        let sql = "SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE v > 1)";
        let Statement::Query(q) = ivm_sql::parse_statement(sql).unwrap() else {
            unreachable!("a query")
        };
        let (plan, _) = plan_physical(&q, &db.exec_context(), &[]).unwrap();
        let PhysicalPlan::Subqueries { input, subqueries } = &*plan else {
            panic!("{}", plan.explain())
        };
        let body = plan_bytes(&subqueries[0]);
        assert!(body > 2 * size_of::<PhysicalPlan>(), "{body}");
        assert_eq!(
            plan_bytes(&plan),
            size_of::<PhysicalPlan>() + plan_bytes(input) + body
        );
    }

    #[test]
    fn two_thousand_union_widths_stay_under_the_byte_cap() {
        let mut cache = PlanCache::default();
        let mut gets = 0;
        for width in 1..=2000 {
            let key = format!("w{width}");
            cache.insert(&key, 0, union_all(width));
            assert!(cache.bytes <= PLAN_CACHE_BYTES, "width {width}");
            assert!(cache.get(&key, 0).is_some(), "width {width} was kept");
            gets += 1;
            let held: usize = cache.entries.values().map(|e| e.bytes).sum();
            assert_eq!(held, cache.bytes, "the running total is the sum");
        }
        let (entries, hits, misses) = cache.stats();
        assert_eq!(entries, cache.entries.len());
        assert_eq!((hits, misses), (gets, 0));
        assert!(entries < 2000, "the cap evicted something");
        // Every survivor is still served.
        let keys: Vec<String> = cache.entries.keys().cloned().collect();
        for key in keys {
            assert!(cache.get(&key, 0).is_some());
        }
    }
}
