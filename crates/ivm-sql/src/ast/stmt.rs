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

    /// The names of every base table referenced anywhere in the query
    /// (excluding CTE names, which are local).
    pub fn referenced_tables(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        let mut cte_names: Vec<Ident> = Vec::new();
        for cte in &self.ctes {
            collect_tables_set_expr(&cte.query.body, &cte_names, &mut out);
            cte_names.push(cte.name.clone());
        }
        collect_tables_set_expr(&self.body, &cte_names, &mut out);
        out.dedup();
        out
    }
}

fn collect_tables_set_expr(body: &SetExpr, ctes: &[Ident], out: &mut Vec<Ident>) {
    match body {
        SetExpr::Select(s) => {
            for t in &s.from {
                collect_tables_ref(t, ctes, out);
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            collect_tables_set_expr(left, ctes, out);
            collect_tables_set_expr(right, ctes, out);
        }
    }
}

fn collect_tables_ref(t: &TableRef, ctes: &[Ident], out: &mut Vec<Ident>) {
    match t {
        TableRef::Table { name, .. } => {
            if !ctes.contains(name) && !out.contains(name) {
                out.push(name.clone());
            }
        }
        TableRef::Subquery { query, .. } => collect_tables_set_expr(&query.body, ctes, out),
        TableRef::Join { left, right, .. } => {
            collect_tables_ref(left, ctes, out);
            collect_tables_ref(right, ctes, out);
        }
    }
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
}
