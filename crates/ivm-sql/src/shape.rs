//! Statement shapes: the literal-lifted form a plan cache keys on.
//!
//! Two lookups that differ only in the values they compare against plan
//! identically, so [`lift_literals`] replaces those values with
//! [`Expr::Param`] slots and hands them back; the printed result is the
//! same text for every such statement. What is lifted: a literal that is
//! an operand of a comparison (`=`, `<>`, `<`, `<=`, `>`, `>=`) whose
//! other operand is not a literal too, a member
//! of an `IN` list, or a `BETWEEN` bound, inside a WHERE, ON or HAVING
//! clause — of the statement, its CTEs, derived tables, set-operation
//! branches and the bodies of its `IN (SELECT …)` subqueries (planned
//! with the statement, their `$n` bound with its own). Everything else
//! stays verbatim: what the planner reads as a constant (ORDER BY /
//! GROUP BY ordinals, LIMIT / OFFSET, LIKE patterns), what can name or
//! type an output (the SELECT list, GROUP BY), literals inside an
//! expression the optimizer may fold (arithmetic, unary minus, function
//! calls, casts, a comparison of two literals), and NULL (it has no
//! type).

use crate::ast::{BinaryOp, Expr, Literal, Query, SelectItem, SetExpr, TableRef};

/// Lift `query`'s comparison literals (see the module doc) into
/// [`Expr::Param`] slots numbered in walk order, and return them by
/// slot. `None` when the query already holds a `$n` placeholder: nothing
/// supplies its value, and it would alias a lifted slot — the query is
/// then partly rewritten and only fit to be dropped.
pub fn lift_literals(query: &mut Query) -> Option<Vec<Literal>> {
    let mut lifter = Lifter::default();
    lifter.query(query, true);
    (!lifter.placeholder).then_some(lifter.lifted)
}

#[derive(Default)]
struct Lifter {
    lifted: Vec<Literal>,
    placeholder: bool,
}

impl Lifter {
    /// Walk every expression of `q`; `lift` says whether its predicates
    /// give up their literals.
    fn query(&mut self, q: &mut Query, lift: bool) {
        for cte in &mut q.ctes {
            self.query(&mut cte.query, lift);
        }
        self.body(&mut q.body, lift);
        for ob in &mut q.order_by {
            self.expr(&mut ob.expr, false);
        }
        for e in q.limit.iter_mut().chain(&mut q.offset) {
            self.expr(e, false);
        }
    }

    fn body(&mut self, body: &mut SetExpr, lift: bool) {
        match body {
            SetExpr::Select(s) => {
                for item in &mut s.projection {
                    if let SelectItem::Expr { expr, .. } = item {
                        self.expr(expr, false);
                    }
                }
                for t in &mut s.from {
                    self.table(t, lift);
                }
                for e in s.selection.iter_mut().chain(&mut s.having) {
                    self.expr(e, lift);
                }
                for e in &mut s.group_by {
                    self.expr(e, false);
                }
            }
            SetExpr::SetOp { left, right, .. } => {
                self.body(left, lift);
                self.body(right, lift);
            }
        }
    }

    fn table(&mut self, t: &mut TableRef, lift: bool) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Subquery { query, .. } => self.query(query, lift),
            TableRef::Join {
                left,
                right,
                constraint,
                ..
            } => {
                self.table(left, lift);
                self.table(right, lift);
                if let Some(on) = constraint {
                    self.expr(on, lift);
                }
            }
        }
    }

    /// Only the arms that decide lifting are spelled out; every other
    /// node passes `lift` on to its children.
    fn expr(&mut self, e: &mut Expr, lift: bool) {
        match e {
            Expr::Param(_) => self.placeholder = true,
            Expr::Binary { left, op, right }
                if lift
                    && !matches!((&**left, &**right), (Expr::Literal(_), Expr::Literal(_)))
                    && matches!(
                        op,
                        BinaryOp::Eq
                            | BinaryOp::NotEq
                            | BinaryOp::Lt
                            | BinaryOp::LtEq
                            | BinaryOp::Gt
                            | BinaryOp::GtEq
                    ) =>
            {
                self.operand(left);
                self.operand(right);
            }
            Expr::InList { expr, list, .. } if lift => {
                self.expr(expr, lift);
                list.iter_mut().for_each(|item| self.operand(item));
            }
            Expr::Between {
                expr, low, high, ..
            } if lift => {
                self.expr(expr, lift);
                self.operand(low);
                self.operand(high);
            }
            Expr::InSubquery { expr, query, .. } => {
                self.expr(expr, lift);
                self.query(query, lift);
            }
            _ => e.children_mut(|c| self.expr(c, lift)),
        }
    }

    /// An operand of a lifting predicate: a non-NULL literal becomes the
    /// next slot.
    fn operand(&mut self, e: &mut Expr) {
        match e {
            Expr::Literal(lit) if *lit != Literal::Null => {
                self.lifted.push(std::mem::replace(lit, Literal::Null));
                *e = Expr::Param(self.lifted.len() - 1);
            }
            _ => self.expr(e, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::{parse_statement, print_query, Dialect};

    fn lift(sql: &str) -> Option<(String, Vec<Literal>)> {
        let Statement::Query(mut q) = parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}");
        };
        let lifted = lift_literals(&mut q)?;
        Some((print_query(&q, Dialect::DuckDb), lifted))
    }

    #[test]
    fn comparison_operands_lift_and_the_rest_stays() {
        let (text, lifted) = lift(
            "SELECT v + 1, 'x' FROM t WHERE k = 'g1' AND v BETWEEN 2 AND 3.5 \
             AND v IN (4, 5) AND w + 6 > 7 AND s LIKE 'a%' AND n = NULL \
             GROUP BY 1 HAVING COUNT(*) >= 8 ORDER BY 2 LIMIT 9 OFFSET 10",
        )
        .unwrap();
        assert_eq!(
            text,
            "SELECT v + 1, 'x' FROM t WHERE k = $1 AND v BETWEEN $2 AND $3 \
             AND v IN ($4, $5) AND w + 6 > $6 AND s LIKE 'a%' AND n = NULL \
             GROUP BY 1 HAVING count(*) >= $7 ORDER BY 2 LIMIT 9 OFFSET 10"
        );
        // The shape text parses back to the lifted tree.
        let Statement::Query(reparsed) = parse_statement(&text).unwrap() else {
            panic!("not a query");
        };
        assert_eq!(print_query(&reparsed, Dialect::DuckDb), text);
        let n = |s: &str| Literal::Number(s.to_string());
        assert_eq!(
            lifted,
            vec![
                Literal::String("g1".into()),
                n("2"),
                n("3.5"),
                n("4"),
                n("5"),
                n("7"),
                n("8"),
            ]
        );
    }

    #[test]
    fn on_clauses_branches_and_derived_tables_lift() {
        let (a, _) = lift(
            "SELECT * FROM a JOIN b ON a.x = b.x AND b.y = 1 WHERE a.z = 'p' \
             UNION ALL SELECT * FROM (SELECT * FROM c WHERE q < 2) AS d",
        )
        .unwrap();
        let (b, lifted) = lift(
            "SELECT * FROM a JOIN b ON a.x = b.x AND b.y = 7 WHERE a.z = 'q' \
             UNION ALL SELECT * FROM (SELECT * FROM c WHERE q < 9) AS d",
        )
        .unwrap();
        assert_eq!(a, b, "one shape");
        assert_eq!(lifted.len(), 3);
        // An IN subquery's body is planned with its statement: it lifts
        // too, in walk order. A comparison of two literals folds.
        let (text, lifted) =
            lift("SELECT * FROM t WHERE k IN (SELECT k FROM u WHERE v = 1 AND 1 = 1) AND w = 2")
                .unwrap();
        assert!(
            text.contains("v = $1 AND 1 = 1") && text.contains("w = $2"),
            "{text}"
        );
        assert_eq!(lifted.len(), 2);
    }

    #[test]
    fn comparisons_under_other_nodes_lift_in_predicates_only() {
        let (text, lifted) = lift(
            "SELECT CASE WHEN a = 1 THEN 2 END, f(b = 3) FROM t \
             WHERE CASE WHEN a = 4 THEN b < 5 ELSE c > 6 END \
             AND COALESCE(d = 7, e <> 8) AND CAST(g = 9 AS VARCHAR) LIKE 'y%' \
             AND NOT i = 10 AND (j >= 11) IS NULL",
        )
        .unwrap();
        assert_eq!(
            text,
            "SELECT CASE WHEN a = 1 THEN 2 END, f(b = 3) FROM t \
             WHERE CASE WHEN a = $1 THEN b < $2 ELSE c > $3 END \
             AND coalesce(d = $4, e <> $5) AND CAST(g = $6 AS VARCHAR) LIKE 'y%' \
             AND NOT i = $7 AND (j >= $8) IS NULL"
        );
        let n = |s: &str| Literal::Number(s.to_string());
        assert_eq!(
            lifted,
            ["4", "5", "6", "7", "8", "9", "10", "11"].map(n).to_vec()
        );
    }

    #[test]
    fn written_placeholders_refuse_lifting() {
        assert!(lift("SELECT * FROM t WHERE k = $1").is_none());
        assert!(lift("SELECT $1 FROM t WHERE k = 'x'").is_none());
        assert!(lift("SELECT * FROM t WHERE k IN (SELECT $2 FROM u)").is_none());
        assert!(lift("SELECT * FROM t ORDER BY $1").is_none());
    }
}
