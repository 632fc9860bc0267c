//! Rule-based logical optimizer.
//!
//! Mirrors the role of DuckDB's optimizer in Figure 1: the OpenIVM rewrite
//! runs against an optimized logical plan. Rules are deliberately classic:
//! constant folding, filter pushdown, and redundant-operator removal.

mod rules;

pub(crate) use rules::{bind_params, push_scan_predicates};

use crate::planner::LogicalPlan;

/// Optimize a logical plan (fixpoint over the rule set, bounded).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let mut plan = plan;
    // Two passes are enough for the current rules; keep a small bound so a
    // misbehaving rule can't loop forever.
    for _ in 0..4 {
        let before = plan.clone();
        plan = rules::fold_constants(plan);
        plan = rules::remove_trivial_filters(plan);
        plan = rules::push_down_filters(plan);
        if plan == before {
            break;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::planner::plan_query;
    use crate::schema::{Column, Schema};
    use crate::storage::Table;
    use crate::types::DataType;
    use ivm_sql::ast::Statement;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Integer),
                Column::new("b", DataType::Integer),
            ]),
            vec![],
        ))
        .unwrap();
        c.create_table(Table::new(
            "u",
            Schema::new(vec![Column::new("a", DataType::Integer)]),
            vec![],
        ))
        .unwrap();
        c
    }

    fn plan(sql: &str) -> LogicalPlan {
        let c = catalog();
        let q = match ivm_sql::parse_statement(sql).unwrap() {
            Statement::Query(q) => q,
            _ => unreachable!(),
        };
        optimize(plan_query(&q, &c).unwrap())
    }

    #[test]
    fn true_filter_removed() {
        let p = plan("SELECT a FROM t WHERE 1 = 1");
        assert!(
            !p.explain().contains("Filter"),
            "tautological filter should be removed:\n{}",
            p.explain()
        );
    }

    #[test]
    fn constant_folded() {
        let p = plan("SELECT a + (1 + 2) FROM t");
        // The projection expression should contain a folded literal 3.
        match &p {
            LogicalPlan::Project { exprs, .. } => match &exprs[0] {
                crate::expr::BoundExpr::Binary { right, .. } => {
                    assert_eq!(
                        **right,
                        crate::expr::BoundExpr::Literal(crate::value::Value::Integer(3))
                    );
                }
                other => panic!("unexpected expr {other:?}"),
            },
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn filter_pushed_below_project() {
        // Filter over a derived table's output column pushes through the
        // subquery projection down to the scan.
        let p = plan("SELECT * FROM (SELECT a FROM t) AS s WHERE s.a > 0");
        let explain = p.explain();
        let filter_pos = explain.find("Filter").expect("filter kept");
        let project_pos = explain.find("Project").expect("project kept");
        assert!(
            filter_pos > project_pos,
            "filter should sit below the projection:\n{explain}"
        );
    }

    #[test]
    fn contradiction_becomes_empty_filter() {
        // WHERE FALSE stays as a filter (executors short-circuit on it); it
        // must not be dropped.
        let p = plan("SELECT a FROM t WHERE 1 = 2");
        assert!(p.explain().contains("Filter"));
    }

    #[test]
    fn optimizer_is_idempotent() {
        let p = plan("SELECT a, b FROM t WHERE a > 1 AND 2 = 2");
        let again = optimize(p.clone());
        assert_eq!(p, again);
    }
}
