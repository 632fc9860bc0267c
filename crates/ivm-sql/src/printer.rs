//! AST → SQL string printing.
//!
//! The printer is the final stage of the Coral-style lowering: the OpenIVM
//! compiler builds dialect-appropriate ASTs and this module turns them into
//! strings. Parentheses around sub-expressions are re-derived from operator
//! precedence, which gives the round-trip property `parse(print(ast)) == ast`
//! (checked by property tests).

use std::fmt::Write as _;

use crate::ast::{
    Assignment, ConflictAction, Expr, InsertSource, Literal, OrderByExpr, Query, Select,
    SelectItem, SetExpr, Statement, TableRef, UnaryOp,
};
use crate::dialect::Dialect;

/// Print a statement in the given dialect. The output has no trailing `;`.
pub fn print_statement(stmt: &Statement, dialect: Dialect) -> String {
    let mut p = Printer {
        out: String::new(),
        _dialect: dialect,
    };
    p.statement(stmt);
    p.out
}

/// Print an expression in the given dialect.
pub fn print_expr(expr: &Expr, dialect: Dialect) -> String {
    let mut p = Printer {
        out: String::new(),
        _dialect: dialect,
    };
    p.expr(expr, 0);
    p.out
}

/// Print a query in the given dialect.
pub fn print_query(query: &Query, dialect: Dialect) -> String {
    let mut p = Printer {
        out: String::new(),
        _dialect: dialect,
    };
    p.query(query);
    p.out
}

struct Printer {
    out: String,
    // The two dialects currently print identically at the syntax level;
    // dialect-specific upsert *structure* is chosen upstream by the emitter.
    // Kept so new dialect-specific spellings have a single insertion point.
    _dialect: Dialect,
}

impl Printer {
    fn statement(&mut self, stmt: &Statement) {
        match stmt {
            Statement::CreateTable(ct) => {
                self.push("CREATE TABLE ");
                if ct.if_not_exists {
                    self.push("IF NOT EXISTS ");
                }
                let _ = write!(self.out, "{} (", ct.name);
                for (i, col) in ct.columns.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    let _ = write!(self.out, "{} {}", col.name, col.ty);
                    if col.not_null {
                        self.push(" NOT NULL");
                    }
                }
                if !ct.primary_key.is_empty() {
                    self.push(", PRIMARY KEY (");
                    self.ident_list(&ct.primary_key);
                    self.push(")");
                }
                self.push(")");
            }
            Statement::CreateIndex(ci) => {
                self.push("CREATE ");
                if ci.unique {
                    self.push("UNIQUE ");
                }
                let _ = write!(self.out, "INDEX {} ON {} (", ci.name, ci.table);
                self.ident_list(&ci.columns);
                self.push(")");
            }
            Statement::CreateView(cv) => {
                self.push("CREATE ");
                if cv.materialized {
                    self.push("MATERIALIZED ");
                }
                let _ = write!(self.out, "VIEW {} AS ", cv.name);
                self.query(&cv.query);
            }
            Statement::Drop(d) => {
                self.push("DROP ");
                self.push(match d.kind {
                    crate::ast::DropKind::Table => "TABLE ",
                    crate::ast::DropKind::View => "VIEW ",
                    crate::ast::DropKind::Index => "INDEX ",
                });
                if d.if_exists {
                    self.push("IF EXISTS ");
                }
                let _ = write!(self.out, "{}", d.name);
            }
            Statement::Insert(ins) => {
                self.push("INSERT ");
                if ins.or_replace {
                    self.push("OR REPLACE ");
                }
                let _ = write!(self.out, "INTO {}", ins.table);
                if !ins.columns.is_empty() {
                    self.push(" (");
                    self.ident_list(&ins.columns);
                    self.push(")");
                }
                self.push(" ");
                match &ins.source {
                    InsertSource::Values(rows) => {
                        self.push("VALUES ");
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                self.push(", ");
                            }
                            self.push("(");
                            self.expr_list(row);
                            self.push(")");
                        }
                    }
                    InsertSource::Query(q) => self.query(q),
                }
                if let Some(oc) = &ins.on_conflict {
                    self.push(" ON CONFLICT");
                    if !oc.target.is_empty() {
                        self.push(" (");
                        self.ident_list(&oc.target);
                        self.push(")");
                    }
                    match &oc.action {
                        ConflictAction::DoNothing => self.push(" DO NOTHING"),
                        ConflictAction::DoUpdate(assignments) => {
                            self.push(" DO UPDATE SET ");
                            self.assignments(assignments);
                        }
                    }
                }
            }
            Statement::Update(u) => {
                let _ = write!(self.out, "UPDATE {} SET ", u.table);
                self.assignments(&u.assignments);
                if let Some(sel) = &u.selection {
                    self.push(" WHERE ");
                    self.expr(sel, 0);
                }
            }
            Statement::Delete(d) => {
                let _ = write!(self.out, "DELETE FROM {}", d.table);
                if let Some(sel) = &d.selection {
                    self.push(" WHERE ");
                    self.expr(sel, 0);
                }
            }
            Statement::Query(q) => self.query(q),
            Statement::Explain(inner) => {
                self.push("EXPLAIN ");
                self.statement(inner);
            }
            Statement::Begin => self.push("BEGIN"),
            Statement::Commit => self.push("COMMIT"),
            Statement::Rollback => self.push("ROLLBACK"),
        }
    }

    fn query(&mut self, q: &Query) {
        if !q.ctes.is_empty() {
            self.push("WITH ");
            for (i, cte) in q.ctes.iter().enumerate() {
                if i > 0 {
                    self.push(", ");
                }
                let _ = write!(self.out, "{} AS (", cte.name);
                self.query(&cte.query);
                self.push(")");
            }
            self.push(" ");
        }
        self.set_expr(&q.body);
        if !q.order_by.is_empty() {
            self.push(" ORDER BY ");
            for (i, OrderByExpr { expr, desc }) in q.order_by.iter().enumerate() {
                if i > 0 {
                    self.push(", ");
                }
                self.expr(expr, 0);
                if *desc {
                    self.push(" DESC");
                }
            }
        }
        if let Some(limit) = &q.limit {
            self.push(" LIMIT ");
            self.expr(limit, 0);
        }
        if let Some(offset) = &q.offset {
            self.push(" OFFSET ");
            self.expr(offset, 0);
        }
    }

    fn set_expr(&mut self, body: &SetExpr) {
        match body {
            SetExpr::Select(s) => self.select(s),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                // Parenthesise operands that are themselves set ops, so the
                // association survives the round trip.
                self.set_operand(left, *op);
                let _ = write!(self.out, " {} ", op.as_str());
                if *all {
                    self.push("ALL ");
                }
                self.set_operand_right(right, *op);
            }
        }
    }

    fn set_operand(&mut self, body: &SetExpr, _parent: crate::ast::SetOp) {
        match body {
            SetExpr::Select(s) => self.select(s),
            SetExpr::SetOp { .. } => {
                self.push("(");
                self.set_expr(body);
                self.push(")");
            }
        }
    }

    fn set_operand_right(&mut self, body: &SetExpr, parent: crate::ast::SetOp) {
        self.set_operand(body, parent);
    }

    fn select(&mut self, s: &Select) {
        self.push("SELECT ");
        if s.distinct {
            self.push("DISTINCT ");
        }
        for (i, item) in s.projection.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            match item {
                SelectItem::Wildcard => self.push("*"),
                SelectItem::QualifiedWildcard(q) => {
                    let _ = write!(self.out, "{q}.*");
                }
                SelectItem::Expr { expr, alias } => {
                    self.expr(expr, 0);
                    if let Some(a) = alias {
                        let _ = write!(self.out, " AS {a}");
                    }
                }
            }
        }
        if !s.from.is_empty() {
            self.push(" FROM ");
            for (i, t) in s.from.iter().enumerate() {
                if i > 0 {
                    self.push(", ");
                }
                self.table_ref(t);
            }
        }
        if let Some(sel) = &s.selection {
            self.push(" WHERE ");
            self.expr(sel, 0);
        }
        if !s.group_by.is_empty() {
            self.push(" GROUP BY ");
            self.expr_list(&s.group_by);
        }
        if let Some(h) = &s.having {
            self.push(" HAVING ");
            self.expr(h, 0);
        }
    }

    fn table_ref(&mut self, t: &TableRef) {
        match t {
            TableRef::Table { name, alias } => {
                let _ = write!(self.out, "{name}");
                if let Some(a) = alias {
                    let _ = write!(self.out, " AS {a}");
                }
            }
            TableRef::Subquery { query, alias } => {
                self.push("(");
                self.query(query);
                let _ = write!(self.out, ") AS {alias}");
            }
            TableRef::Join {
                left,
                right,
                kind,
                constraint,
            } => {
                self.table_ref(left);
                let _ = write!(self.out, " {} JOIN ", kind.as_str());
                // Right side of a join must not itself be a bare join chain
                // (the parser builds left-deep trees); parenthesise if so.
                if matches!(**right, TableRef::Join { .. }) {
                    self.push("(");
                    self.table_ref(right);
                    self.push(")");
                } else {
                    self.table_ref(right);
                }
                if let Some(c) = constraint {
                    self.push(" ON ");
                    self.expr(c, 0);
                }
            }
        }
    }

    fn assignments(&mut self, assignments: &[Assignment]) {
        for (i, a) in assignments.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            let _ = write!(self.out, "{} = ", a.column);
            self.expr(&a.value, 0);
        }
    }

    /// Print `expr`, parenthesising when its precedence is at or below
    /// `min_prec` (the binding strength required by the parent context).
    fn expr(&mut self, e: &Expr, min_prec: u8) {
        let prec = expr_precedence(e);
        let needs_parens = prec < min_prec;
        if needs_parens {
            self.push("(");
        }
        self.expr_inner(e);
        if needs_parens {
            self.push(")");
        }
    }

    fn expr_inner(&mut self, e: &Expr) {
        match e {
            Expr::Literal(lit) => self.literal(lit),
            Expr::Param(slot) => {
                let _ = write!(self.out, "${}", slot + 1);
            }
            Expr::Column(c) => {
                let _ = write!(self.out, "{c}");
            }
            Expr::Binary { left, op, right } => {
                let prec = op.precedence();
                // Left-associative: left child may be equal precedence,
                // right child must bind strictly tighter.
                self.expr(left, prec);
                let _ = write!(self.out, " {} ", op.as_str());
                self.expr(right, prec + 1);
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => {
                    self.push("NOT ");
                    self.expr(expr, 4);
                }
                UnaryOp::Minus | UnaryOp::Plus => {
                    self.push(op.as_str());
                    // 9 forces parens around a nested unary so `-(-x)` never
                    // prints as the line comment `--x`.
                    self.expr(expr, 9);
                }
            },
            Expr::Function {
                name,
                args,
                distinct,
                star,
            } => {
                let _ = write!(self.out, "{name}(");
                if *star {
                    self.push("*");
                } else {
                    if *distinct {
                        self.push("DISTINCT ");
                    }
                    self.expr_list(args);
                }
                self.push(")");
            }
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                self.push("CASE");
                if let Some(op) = operand {
                    self.push(" ");
                    self.expr(op, 0);
                }
                for (when, then) in branches {
                    self.push(" WHEN ");
                    self.expr(when, 0);
                    self.push(" THEN ");
                    self.expr(then, 0);
                }
                if let Some(els) = else_result {
                    self.push(" ELSE ");
                    self.expr(els, 0);
                }
                self.push(" END");
            }
            Expr::Cast { expr, ty } => {
                self.push("CAST(");
                self.expr(expr, 0);
                let _ = write!(self.out, " AS {ty})");
            }
            Expr::IsNull { expr, negated } => {
                self.expr(expr, 5);
                self.push(if *negated { " IS NOT NULL" } else { " IS NULL" });
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                self.expr(expr, 5);
                self.push(if *negated { " NOT IN (" } else { " IN (" });
                self.expr_list(list);
                self.push(")");
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                self.expr(expr, 5);
                self.push(if *negated { " NOT IN (" } else { " IN (" });
                self.query(query);
                self.push(")");
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.expr(expr, 5);
                self.push(if *negated {
                    " NOT BETWEEN "
                } else {
                    " BETWEEN "
                });
                // Bounds parse at comparison precedence: anything at or
                // below it needs parens to survive the round trip.
                self.expr(low, 5);
                self.push(" AND ");
                self.expr(high, 5);
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.expr(expr, 5);
                self.push(if *negated { " NOT LIKE " } else { " LIKE " });
                self.expr(pattern, 5);
            }
        }
    }

    fn literal(&mut self, lit: &Literal) {
        match lit {
            Literal::Null => self.push("NULL"),
            Literal::Boolean(true) => self.push("TRUE"),
            Literal::Boolean(false) => self.push("FALSE"),
            Literal::Number(n) => self.push(n),
            Literal::String(s) => {
                let _ = write!(self.out, "'{}'", s.replace('\'', "''"));
            }
        }
    }

    fn expr_list(&mut self, exprs: &[Expr]) {
        for (i, e) in exprs.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            self.expr(e, 0);
        }
    }

    fn ident_list(&mut self, idents: &[crate::ident::Ident]) {
        for (i, id) in idents.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            let _ = write!(self.out, "{id}");
        }
    }

    fn push(&mut self, s: &str) {
        self.out.push_str(s);
    }
}

/// Precedence of an expression node as the *parent* sees it. Postfix
/// predicates (IS NULL, IN, BETWEEN, LIKE) share the comparison level; all
/// atoms (literals, columns, calls, CASE, CAST) are maximal.
fn expr_precedence(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => op.precedence(),
        Expr::Unary {
            op: UnaryOp::Not, ..
        } => 3,
        Expr::Unary { .. } => 8,
        Expr::IsNull { .. } | Expr::InList { .. } | Expr::Between { .. } | Expr::Like { .. } => 4,
        _ => u8::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    /// Round-trip helper: parse, print, parse again, compare trees.
    fn roundtrip(sql: &str) -> String {
        let ast = parse_statement(sql).unwrap();
        let printed = print_statement(&ast, Dialect::DuckDb);
        let ast2 = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(ast, ast2, "round-trip mismatch for {printed:?}");
        printed
    }

    #[test]
    fn print_simple_select() {
        assert_eq!(
            roundtrip("select a, sum(b) as total from t where x = 1 group by a having total > 0"),
            "SELECT a, sum(b) AS total FROM t WHERE x = 1 GROUP BY a HAVING total > 0"
        );
    }

    #[test]
    fn parens_rederived_for_precedence() {
        assert_eq!(roundtrip("SELECT (1 + 2) * 3"), "SELECT (1 + 2) * 3");
        assert_eq!(roundtrip("SELECT 1 + 2 * 3"), "SELECT 1 + 2 * 3");
        assert_eq!(roundtrip("SELECT NOT (a OR b)"), "SELECT NOT (a OR b)");
        assert_eq!(roundtrip("SELECT -(a + b)"), "SELECT -(a + b)");
        assert_eq!(roundtrip("SELECT a - (b - c)"), "SELECT a - (b - c)");
        // `=` chains left-associatively, so the left parens are redundant.
        assert_eq!(roundtrip("SELECT (a = b) = c"), "SELECT a = b = c");
    }

    #[test]
    fn double_negation_does_not_make_comments() {
        let printed = roundtrip("SELECT -(-x)");
        assert!(
            !printed.contains("--"),
            "printed {printed:?} contains a comment"
        );
    }

    #[test]
    fn print_paper_listing_2_shapes() {
        let printed = roundtrip(
            "INSERT INTO delta_query_groups \
             SELECT group_index, SUM(group_value) AS total_value, _duckdb_ivm_multiplicity \
             FROM delta_groups GROUP BY group_index, _duckdb_ivm_multiplicity",
        );
        assert!(printed.starts_with("INSERT INTO delta_query_groups SELECT"));
        roundtrip(
            "INSERT OR REPLACE INTO query_groups WITH ivm_cte AS (\
             SELECT group_index, SUM(CASE WHEN _duckdb_ivm_multiplicity = FALSE \
             THEN -total_value ELSE total_value END) AS total_value \
             FROM delta_query_groups GROUP BY group_index) \
             SELECT query_groups.group_index, \
             SUM(COALESCE(query_groups.total_value, 0) + delta_query_groups.total_value) \
             FROM ivm_cte AS delta_query_groups \
             LEFT JOIN query_groups ON query_groups.group_index = delta_query_groups.group_index \
             GROUP BY query_groups.group_index",
        );
        roundtrip("DELETE FROM query_groups WHERE total_value = 0");
        roundtrip("DELETE FROM delta_query_groups");
    }

    #[test]
    fn print_ddl() {
        assert_eq!(
            roundtrip("create table t (a integer primary key, b varchar not null)"),
            "CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR NOT NULL, PRIMARY KEY (a))"
        );
        assert_eq!(
            roundtrip("create unique index i on t (a, b)"),
            "CREATE UNIQUE INDEX i ON t (a, b)"
        );
        assert_eq!(
            roundtrip("create materialized view v as select 1"),
            "CREATE MATERIALIZED VIEW v AS SELECT 1"
        );
    }

    #[test]
    fn print_on_conflict() {
        assert_eq!(
            roundtrip(
                "insert into v (k, total) values (1, 2) \
                 on conflict (k) do update set total = excluded.total"
            ),
            "INSERT INTO v (k, total) VALUES (1, 2) \
             ON CONFLICT (k) DO UPDATE SET total = excluded.total"
        );
        roundtrip("insert into t values (1) on conflict do nothing");
    }

    #[test]
    fn print_set_ops_preserve_association() {
        // Right-nested set op must keep parens.
        let q = roundtrip("SELECT 1 UNION (SELECT 2 EXCEPT SELECT 3)");
        assert_eq!(q, "SELECT 1 UNION (SELECT 2 EXCEPT SELECT 3)");
        let q = roundtrip("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3");
        assert_eq!(q, "(SELECT 1 UNION ALL SELECT 2) UNION ALL SELECT 3");
    }

    #[test]
    fn print_string_escapes() {
        assert_eq!(roundtrip("SELECT 'it''s'"), "SELECT 'it''s'");
    }

    #[test]
    fn print_order_limit() {
        assert_eq!(
            roundtrip("select a from t order by a desc, b limit 3 offset 1"),
            "SELECT a FROM t ORDER BY a DESC, b LIMIT 3 OFFSET 1"
        );
    }

    #[test]
    fn print_between_like_in() {
        roundtrip("SELECT x BETWEEN 1 AND 2 AND y");
        roundtrip("SELECT a NOT IN (1, 2, 3)");
        roundtrip("SELECT name LIKE 'a%' OR name NOT LIKE '%b'");
        roundtrip("SELECT x IS NOT NULL");
    }

    #[test]
    fn print_transactions_and_drop() {
        assert_eq!(roundtrip("begin transaction"), "BEGIN");
        assert_eq!(
            roundtrip("drop table if exists t"),
            "DROP TABLE IF EXISTS t"
        );
    }

    #[test]
    fn print_update() {
        assert_eq!(
            roundtrip("update t set a = a + 1 where id = 2"),
            "UPDATE t SET a = a + 1 WHERE id = 2"
        );
    }

    #[test]
    fn print_join_tree() {
        assert_eq!(
            roundtrip("select * from a join b on a.x = b.x left join c on b.y = c.y"),
            "SELECT * FROM a INNER JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y"
        );
    }

    #[test]
    fn print_qualified_wildcard_and_distinct() {
        assert_eq!(
            roundtrip("select distinct t.* from t"),
            "SELECT DISTINCT t.* FROM t"
        );
        assert_eq!(
            roundtrip("select count(distinct x) from t"),
            "SELECT count(DISTINCT x) FROM t"
        );
    }
}
