//! Rule-based logical optimizer.
//!
//! Mirrors the role of DuckDB's optimizer in Figure 1: the OpenIVM rewrite
//! runs against an optimized logical plan. Rules are deliberately classic:
//! constant folding, filter pushdown, and redundant-operator removal.

mod rules;

pub(crate) use rules::{bind_params, fill_expr, push_scan_predicates};

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
    use std::collections::HashSet;
    use std::sync::Arc;

    use crate::catalog::Catalog;
    use crate::expr::{AggExpr, AggFunc, BoundExpr};
    use crate::planner::{lower, plan_query, PhysicalPlan, SortKey};
    use crate::schema::{Column, Schema};
    use crate::storage::Table;
    use crate::types::DataType;
    use crate::value::Value;
    use ivm_sql::ast::{BinaryOp, JoinKind, Statement};

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

    /// One expression for every position: `c + (1 + 2) IN (subquery 0)
    /// AND c = $0` holds a constant to fold, a subquery to fill in and a
    /// parameter to bind.
    fn probe(c: usize) -> BoundExpr {
        let int = |v| Box::new(BoundExpr::Literal(Value::Integer(v)));
        let column = Box::new(BoundExpr::Column {
            index: c,
            ty: Some(DataType::Integer),
            name: "c".into(),
        });
        let sub = BoundExpr::InSubquery {
            expr: Box::new(BoundExpr::Binary {
                op: BinaryOp::Plus,
                left: column.clone(),
                right: Box::new(BoundExpr::Binary {
                    op: BinaryOp::Plus,
                    left: int(1),
                    right: int(2),
                }),
            }),
            subquery: 0,
            negated: false,
        };
        let param = BoundExpr::Binary {
            op: BinaryOp::Eq,
            left: column,
            right: Box::new(BoundExpr::Param {
                slot: 0,
                ty: DataType::Integer,
            }),
        };
        BoundExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(sub),
            right: Box::new(param),
        }
    }

    /// Expression nodes of the whole physical plan for which `pred` holds.
    fn count(plan: &PhysicalPlan, pred: &impl Fn(&BoundExpr) -> bool) -> usize {
        let mut n = 0;
        for e in plan.exprs() {
            e.visit(&mut |node| n += usize::from(pred(node)));
        }
        n + plan.inputs().map(|i| count(i, pred)).sum::<usize>()
    }

    #[test]
    fn walkers_reach_every_expression_position() {
        let c = catalog();
        let t = plan("SELECT a, b FROM t");
        let u = plan("SELECT a FROM u");
        let join = LogicalPlan::Join {
            schema: Schema::new([t.schema().columns.clone(), u.schema().columns.clone()].concat()),
            left: Box::new(t),
            right: Box::new(u),
            kind: JoinKind::Inner,
            on: Some(probe(2)),
        };
        let filter = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: probe(1),
        };
        let aggregate = LogicalPlan::Aggregate {
            input: Box::new(filter),
            group: vec![probe(0)],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: Some(probe(1)),
                distinct: false,
                name: "n".into(),
            }],
            schema: Schema::new(vec![
                Column::new("g", DataType::Boolean),
                Column::new("n", DataType::Integer),
            ]),
        };
        let project = LogicalPlan::Project {
            input: Box::new(aggregate),
            exprs: vec![probe(0)],
            schema: Schema::new(vec![Column::new("p", DataType::Boolean)]),
        };
        let sorted = LogicalPlan::Sort {
            input: Box::new(project),
            keys: vec![SortKey {
                expr: probe(0),
                desc: false,
            }],
        };
        // Filter, join condition, group key, aggregate argument,
        // projection, sort key: each folds, then takes its parameter and
        // its subquery's set in the one instantiation pass.
        const POSITIONS: usize = 6;

        let mut physical = lower(&rules::fold_constants(sorted), &c).unwrap();
        let folded = |e: &BoundExpr| *e == BoundExpr::Literal(Value::Integer(3));
        assert_eq!(
            count(&physical, &folded),
            POSITIONS,
            "{}",
            physical.explain()
        );

        let set = (Arc::new(HashSet::from([Value::Integer(10)])), false);
        bind_params(&mut physical, &[Value::Integer(7)], &[set], &c);
        let bound = |e: &BoundExpr| *e == BoundExpr::Literal(Value::Integer(7));
        assert_eq!(count(&physical, &bound), POSITIONS);
        let sets = |e: &BoundExpr| matches!(e, BoundExpr::InSet { .. });
        assert_eq!(count(&physical, &sets), POSITIONS);
        let open =
            |e: &BoundExpr| matches!(e, BoundExpr::Param { .. } | BoundExpr::InSubquery { .. });
        assert_eq!(count(&physical, &open), 0, "{}", physical.explain());
    }

    #[test]
    fn optimizer_is_idempotent() {
        let p = plan("SELECT a, b FROM t WHERE a > 1 AND 2 = 2");
        let again = optimize(p.clone());
        assert_eq!(p, again);
    }
}
