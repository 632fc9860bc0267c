//! Statement-level AST: DDL, DML, and queries.

use crate::ast::expr::{Expr, TypeName};
use crate::ident::Ident;

/// Any SQL statement the parser understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable(CreateTable),
    /// `CREATE [UNIQUE] INDEX`.
    CreateIndex(CreateIndex),
    /// `CREATE [MATERIALIZED] VIEW`.
    CreateView(CreateView),
    /// DROP TABLE/VIEW/INDEX.
    Drop(Drop),
    /// INSERT.
    Insert(Insert),
    /// UPDATE.
    Update(Update),
    /// DELETE.
    Delete(Delete),
    /// A SELECT query.
    Query(Box<Query>),
    /// `BEGIN [TRANSACTION]`.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
    /// EXPLAIN: render the plan of the wrapped statement instead of
    /// executing it.
    Explain(Box<Statement>),
}

impl Statement {
    /// The names of every table or view whose rows running the statement
    /// reads, each once, in first-use order: a query's (see
    /// [`Query::referenced_tables`]), an INSERT's source and the
    /// subqueries of its `DO UPDATE` assignments, and the subqueries of
    /// an UPDATE's or DELETE's assignments and WHERE. The table a DML
    /// statement writes is not reported, nor is anything for DDL or an
    /// EXPLAIN, which reads no rows.
    pub fn read_tables(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        let mut exprs: Vec<&Expr> = Vec::new();
        match self {
            Statement::Query(q) => collect_tables_query(q, &mut Vec::new(), &mut out),
            Statement::Insert(ins) => {
                match &ins.source {
                    InsertSource::Query(q) => collect_tables_query(q, &mut Vec::new(), &mut out),
                    InsertSource::Values(rows) => exprs.extend(rows.iter().flatten()),
                }
                if let Some(OnConflict {
                    action: ConflictAction::DoUpdate(assignments),
                    ..
                }) = &ins.on_conflict
                {
                    exprs.extend(assignments.iter().map(|a| &a.value));
                }
            }
            Statement::Update(u) => {
                exprs.extend(u.assignments.iter().map(|a| &a.value));
                exprs.extend(&u.selection);
            }
            Statement::Delete(d) => exprs.extend(&d.selection),
            _ => {}
        }
        for e in exprs {
            collect_tables_expr(e, &mut Vec::new(), &mut out);
        }
        out
    }
}

/// `CREATE TABLE name (col TYPE [PRIMARY KEY], …, [PRIMARY KEY (…)])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateTable {
    /// Object name.
    pub name: Ident,
    /// IF NOT EXISTS modifier.
    pub if_not_exists: bool,
    /// Column list.
    pub columns: Vec<ColumnDef>,
    /// Table-level primary key; single-column `PRIMARY KEY` modifiers are
    /// folded into this list by the parser.
    pub primary_key: Vec<Ident>,
}

/// One column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Object name.
    pub name: Ident,
    /// Target type.
    pub ty: TypeName,
    /// NOT NULL constraint.
    pub not_null: bool,
}

/// `CREATE [UNIQUE] INDEX name ON table (columns…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateIndex {
    /// Object name.
    pub name: Ident,
    /// Target table name.
    pub table: Ident,
    /// Column list.
    pub columns: Vec<Ident>,
    /// UNIQUE modifier.
    pub unique: bool,
}

/// `CREATE [MATERIALIZED] VIEW name AS query`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateView {
    /// Object name.
    pub name: Ident,
    /// MATERIALIZED keyword present.
    pub materialized: bool,
    /// The subquery.
    pub query: Box<Query>,
}

/// What a `DROP` statement targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// DROP TABLE.
    Table,
    /// DROP VIEW.
    View,
    /// DROP INDEX.
    Index,
}

/// `DROP TABLE|VIEW|INDEX [IF EXISTS] name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drop {
    /// Statement/join kind.
    pub kind: DropKind,
    /// Object name.
    pub name: Ident,
    /// IF EXISTS modifier.
    pub if_exists: bool,
}

/// `INSERT [OR REPLACE] INTO table [(cols)] VALUES …| SELECT …`
/// with optional `ON CONFLICT` clause (PostgreSQL-style upsert).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Insert {
    /// Target table name.
    pub table: Ident,
    /// Column list.
    pub columns: Vec<Ident>,
    /// Row source.
    pub source: InsertSource,
    /// DuckDB-style `INSERT OR REPLACE`.
    pub or_replace: bool,
    /// PostgreSQL-style `ON CONFLICT (cols) DO UPDATE SET …` / `DO NOTHING`.
    pub on_conflict: Option<OnConflict>,
}

/// The rows fed into an `INSERT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertSource {
    /// Literal rows: `VALUES (…), (…)`.
    Values(Vec<Vec<Expr>>),
    /// A SELECT query.
    Query(Box<Query>),
}

/// `ON CONFLICT (target) DO …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnConflict {
    /// Conflict target columns.
    pub target: Vec<Ident>,
    /// Conflict action.
    pub action: ConflictAction,
}

/// Action of an `ON CONFLICT` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictAction {
    /// `DO NOTHING`: skip conflicting rows.
    DoNothing,
    /// `DO UPDATE SET …`: update the existing row.
    DoUpdate(Vec<Assignment>),
}

/// `SET column = expr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Column name.
    pub column: Ident,
    /// Assigned expression.
    pub value: Expr,
}

/// `UPDATE table SET … [WHERE …]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Update {
    /// Target table name.
    pub table: Ident,
    /// SET assignments.
    pub assignments: Vec<Assignment>,
    /// WHERE predicate.
    pub selection: Option<Expr>,
}

/// `DELETE FROM table [WHERE …]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delete {
    /// Target table name.
    pub table: Ident,
    /// WHERE predicate.
    pub selection: Option<Expr>,
}

/// A full query: optional CTEs, a set-expression body, and trailing
/// ORDER BY / LIMIT / OFFSET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Leading WITH common table expressions.
    pub ctes: Vec<Cte>,
    /// The set-expression body.
    pub body: SetExpr,
    /// ORDER BY keys.
    pub order_by: Vec<OrderByExpr>,
    /// LIMIT row count.
    pub limit: Option<Expr>,
    /// OFFSET row count.
    pub offset: Option<Expr>,
}

impl Query {
    /// Wrap a bare `SELECT` into a `Query` with no CTEs or ordering.
    pub fn from_select(select: Select) -> Query {
        Query {
            ctes: Vec::new(),
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// The names of every table or view the query reads, each once, in
    /// first-use order: FROM lists, and the subqueries of every
    /// expression (WHERE, HAVING, ON, GROUP BY, the select list, ORDER
    /// BY). A CTE's name is local to the query that defines it and is not
    /// reported.
    pub fn referenced_tables(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        collect_tables_query(self, &mut Vec::new(), &mut out);
        out
    }
}

/// `ctes` holds the CTE names in scope; `q`'s own are popped on return.
fn collect_tables_query(q: &Query, ctes: &mut Vec<Ident>, out: &mut Vec<Ident>) {
    let outer = ctes.len();
    for cte in &q.ctes {
        collect_tables_query(&cte.query, ctes, out);
        ctes.push(cte.name.clone());
    }
    collect_tables_set_expr(&q.body, ctes, out);
    for ob in &q.order_by {
        collect_tables_expr(&ob.expr, ctes, out);
    }
    ctes.truncate(outer);
}

fn collect_tables_set_expr(body: &SetExpr, ctes: &mut Vec<Ident>, out: &mut Vec<Ident>) {
    match body {
        SetExpr::Select(s) => {
            for t in &s.from {
                collect_tables_ref(t, ctes, out);
            }
            let items = s.projection.iter().filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            });
            for e in items
                .chain(&s.selection)
                .chain(&s.group_by)
                .chain(&s.having)
            {
                collect_tables_expr(e, ctes, out);
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            collect_tables_set_expr(left, ctes, out);
            collect_tables_set_expr(right, ctes, out);
        }
    }
}

fn collect_tables_ref(t: &TableRef, ctes: &mut Vec<Ident>, out: &mut Vec<Ident>) {
    match t {
        TableRef::Table { name, .. } => {
            if !ctes.contains(name) && !out.contains(name) {
                out.push(name.clone());
            }
        }
        TableRef::Subquery { query, .. } => collect_tables_query(query, ctes, out),
        TableRef::Join {
            left,
            right,
            constraint,
            ..
        } => {
            collect_tables_ref(left, ctes, out);
            collect_tables_ref(right, ctes, out);
            if let Some(on) = constraint {
                collect_tables_expr(on, ctes, out);
            }
        }
    }
}

fn collect_tables_expr(e: &Expr, ctes: &mut Vec<Ident>, out: &mut Vec<Ident>) {
    e.visit(&mut |node| {
        if let Expr::InSubquery { query, .. } = node {
            collect_tables_query(query, ctes, out);
        }
    });
}

/// One common table expression: `name AS (query)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cte {
    /// Object name.
    pub name: Ident,
    /// The subquery.
    pub query: Box<Query>,
}

/// The body of a query: a plain select or a set operation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum SetExpr {
    /// A plain SELECT block.
    Select(Box<Select>),
    /// A set operation over two bodies.
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
}

/// Set operations between selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `UNION [ALL]`.
    Union,
    /// `EXCEPT [ALL]`.
    Except,
    /// `INTERSECT [ALL]`.
    Intersect,
}

impl SetOp {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            SetOp::Union => "UNION",
            SetOp::Except => "EXCEPT",
            SetOp::Intersect => "INTERSECT",
        }
    }
}

/// A `SELECT` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Select {
    /// DISTINCT qualifier.
    pub distinct: bool,
    /// SELECT list.
    pub projection: Vec<SelectItem>,
    /// FROM relations.
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub selection: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
}

impl Select {
    /// An empty select with the given projection (used by builders).
    pub fn new(projection: Vec<SelectItem>) -> Select {
        Select {
            distinct: false,
            projection,
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(Ident),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<Ident> },
}

impl SelectItem {
    /// `expr` with no alias.
    pub fn expr(expr: Expr) -> SelectItem {
        SelectItem::Expr { expr, alias: None }
    }

    /// `expr AS alias`.
    pub fn aliased(expr: Expr, alias: impl Into<Ident>) -> SelectItem {
        SelectItem::Expr {
            expr,
            alias: Some(alias.into()),
        }
    }
}

/// A table reference in a FROM clause.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum TableRef {
    /// Base table or CTE reference, optionally aliased.
    Table { name: Ident, alias: Option<Ident> },
    /// Derived table: `(query) AS alias`.
    Subquery { query: Box<Query>, alias: Ident },
    /// A join tree node.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        constraint: Option<Expr>,
    },
}

impl TableRef {
    /// Plain table reference without alias.
    pub fn table(name: impl Into<Ident>) -> TableRef {
        TableRef::Table {
            name: name.into(),
            alias: None,
        }
    }

    /// Table reference with alias.
    pub fn aliased(name: impl Into<Ident>, alias: impl Into<Ident>) -> TableRef {
        TableRef::Table {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }
}

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `RIGHT [OUTER] JOIN`.
    Right,
    /// `FULL [OUTER] JOIN`.
    Full,
    /// CROSS JOIN.
    Cross,
}

impl JoinKind {
    /// SQL spelling (without the trailing `JOIN`).
    pub fn as_str(&self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER",
            JoinKind::Left => "LEFT",
            JoinKind::Right => "RIGHT",
            JoinKind::Full => "FULL",
            JoinKind::Cross => "CROSS",
        }
    }
}

/// `expr [ASC|DESC]` in ORDER BY.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderByExpr {
    /// The operand expression.
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_tables_cover_dml_sources_and_subqueries() {
        for (sql, read) in [
            ("INSERT INTO sink SELECT k FROM mv", vec!["mv"]),
            (
                "INSERT INTO sink VALUES (1 IN (SELECT k FROM a))",
                vec!["a"],
            ),
            (
                "UPDATE t SET x = 1 WHERE k IN (SELECT k FROM a) OR k IN (SELECT k FROM b)",
                vec!["a", "b"],
            ),
            ("DELETE FROM t WHERE k IN (SELECT k FROM mv)", vec!["mv"]),
            ("DELETE FROM t", vec![]),
            ("EXPLAIN SELECT k FROM mv", vec![]),
        ] {
            let stmt = crate::parse_statement(sql).unwrap();
            let names: Vec<String> = stmt
                .read_tables()
                .iter()
                .map(|t| t.normalized().to_string())
                .collect();
            assert_eq!(names, read, "{sql}");
        }
    }

    #[test]
    fn referenced_tables_skips_ctes() {
        let inner = Query::from_select(Select {
            distinct: false,
            projection: vec![SelectItem::Wildcard],
            from: vec![TableRef::table("base")],
            selection: None,
            group_by: vec![],
            having: None,
        });
        let outer = Query {
            ctes: vec![Cte {
                name: Ident::new("c"),
                query: Box::new(inner),
            }],
            body: SetExpr::Select(Box::new(Select {
                distinct: false,
                projection: vec![SelectItem::Wildcard],
                from: vec![TableRef::Join {
                    left: Box::new(TableRef::table("c")),
                    right: Box::new(TableRef::table("other")),
                    kind: JoinKind::Inner,
                    constraint: Some(Expr::col("x").eq(Expr::col("y"))),
                }],
                selection: None,
                group_by: vec![],
                having: None,
            })),
            order_by: vec![],
            limit: None,
            offset: None,
        };
        let tables = outer.referenced_tables();
        assert_eq!(tables, vec![Ident::new("base"), Ident::new("other")]);
    }

    #[test]
    fn referenced_tables_enter_expression_subqueries_in_their_own_scope() {
        let Statement::Query(q) = crate::parse_statement(
            "SELECT k IN (SELECT k FROM s) FROM t JOIN j ON t.k IN (SELECT k FROM o) \
             WHERE k IN (WITH d AS (SELECT k FROM inner_t) SELECT k FROM d) \
             AND k IN (SELECT k FROM d) ORDER BY k IN (SELECT k FROM ob)",
        )
        .unwrap() else {
            unreachable!()
        };
        let names: Vec<String> = q
            .referenced_tables()
            .iter()
            .map(|i| i.normalized().to_string())
            .collect();
        assert_eq!(names, ["t", "j", "o", "s", "inner_t", "d", "ob"]);
    }
}
