//! Individual optimizer rules.

use ivm_sql::ast::BinaryOp;

use std::sync::Arc;

use crate::catalog::Catalog;
use crate::expr::{flatten_and, BoundExpr, SubquerySet};
use crate::planner::physical::PhysicalPlan;
use crate::planner::LogicalPlan;
use crate::schema::Schema;
use crate::types::DataType;
use crate::value::Value;

/// Fold constant sub-expressions throughout the plan, subquery bodies
/// included.
pub(crate) fn fold_constants(mut plan: LogicalPlan) -> LogicalPlan {
    fn fold(plan: &mut LogicalPlan) {
        plan.exprs_mut().for_each(fold_expr);
        plan.inputs_mut().for_each(fold);
    }
    fold(&mut plan);
    plan
}

/// Remove filters whose predicate folded to literal TRUE.
pub(crate) fn remove_trivial_filters(plan: LogicalPlan) -> LogicalPlan {
    transform_up(plan, &|node| match node {
        LogicalPlan::Filter {
            input,
            predicate: BoundExpr::Literal(Value::Boolean(true)),
        } => *input,
        other => other,
    })
}

/// Push filters through projections and into join inputs when every
/// referenced column comes from one side.
pub(crate) fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    transform_up(plan, &|node| {
        let LogicalPlan::Filter { input, predicate } = node else {
            return node;
        };
        match *input {
            // Filter(Project(x)) → Project(Filter'(x)) when the predicate
            // only references pass-through columns (plain column refs).
            LogicalPlan::Project {
                input: pinput,
                exprs,
                schema,
            } => {
                let mut cols = Vec::new();
                predicate.referenced_columns(&mut cols);
                let all_passthrough = cols
                    .iter()
                    .all(|&c| matches!(exprs.get(c), Some(BoundExpr::Column { .. })));
                if all_passthrough {
                    let mut pushed = predicate.clone();
                    pushed.remap_columns(&|c| match &exprs[c] {
                        BoundExpr::Column { index, .. } => *index,
                        _ => unreachable!("checked passthrough"),
                    });
                    LogicalPlan::Project {
                        input: Box::new(LogicalPlan::Filter {
                            input: pinput,
                            predicate: pushed,
                        }),
                        exprs,
                        schema,
                    }
                } else {
                    LogicalPlan::Filter {
                        input: Box::new(LogicalPlan::Project {
                            input: pinput,
                            exprs,
                            schema,
                        }),
                        predicate,
                    }
                }
            }
            // Filter(InnerJoin(l, r)) → push single-side conjuncts down.
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                schema,
            } if kind == ivm_sql::ast::JoinKind::Inner => {
                let lwidth = left.schema().len();
                let mut conjuncts = Vec::new();
                flatten_and(&predicate, &mut conjuncts);
                let mut left_preds = Vec::new();
                let mut right_preds = Vec::new();
                let mut keep = Vec::new();
                for c in conjuncts {
                    let mut cols = Vec::new();
                    c.referenced_columns(&mut cols);
                    if !cols.is_empty() && cols.iter().all(|&i| i < lwidth) {
                        left_preds.push(c);
                    } else if !cols.is_empty() && cols.iter().all(|&i| i >= lwidth) {
                        let mut shifted = c.clone();
                        shifted.remap_columns(&|i| i - lwidth);
                        right_preds.push(shifted);
                    } else {
                        keep.push(c);
                    }
                }
                let new_left = wrap_filter(*left, left_preds);
                let new_right = wrap_filter(*right, right_preds);
                let joined = LogicalPlan::Join {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    kind,
                    on,
                    schema,
                };
                wrap_filter(joined, keep)
            }
            other => LogicalPlan::Filter {
                input: Box::new(other),
                predicate,
            },
        }
    })
}

/// Physical rule: fold `Filter` nodes sitting directly on a `TableScan`
/// into the scan itself, so storage evaluates the predicate per chunk
/// (and can answer an equality on the table's key through its ART
/// index). Runs after lowering, over the whole physical tree.
pub(crate) fn push_scan_predicates(plan: PhysicalPlan, catalog: &Catalog) -> PhysicalPlan {
    transform_physical_up(plan, &|node| {
        let PhysicalPlan::Filter { input, predicate } = node else {
            return node;
        };
        match *input {
            PhysicalPlan::TableScan {
                table,
                schema,
                predicate: existing,
                ..
            } => {
                let merged = match existing {
                    Some(e) => BoundExpr::Binary {
                        op: BinaryOp::And,
                        left: Box::new(e),
                        right: Box::new(predicate),
                    },
                    None => predicate,
                };
                let index_eq = index_equality_keys(&merged, &schema, key_of(catalog, &table));
                PhysicalPlan::TableScan {
                    table,
                    schema,
                    predicate: Some(merged),
                    index_eq,
                }
            }
            other => PhysicalPlan::Filter {
                input: Box::new(other),
                predicate,
            },
        }
    })
}

/// Fill a plan template in, in place — the one instantiation pass. Every
/// [`BoundExpr::Param`] becomes its value in `values`; every
/// [`BoundExpr::InSubquery`] whose body has run (its index is below
/// `sets.len()`) becomes an [`BoundExpr::InSet`] over that body's rows;
/// and each filtered scan re-derives its index keys, so a `key = $n`
/// conjunct is a point read once `$n` has a value.
pub(crate) fn bind_params(
    plan: &mut PhysicalPlan,
    values: &[Value],
    sets: &[SubquerySet],
    catalog: &Catalog,
) {
    for e in plan.exprs_mut() {
        fill_expr(e, values, sets);
    }
    if let PhysicalPlan::TableScan {
        table,
        schema,
        predicate: Some(predicate),
        index_eq,
    } = plan
    {
        *index_eq = index_equality_keys(predicate, schema, key_of(catalog, table));
    }
    for input in plan.inputs_mut() {
        bind_params(input, values, sets, catalog);
    }
}

/// [`bind_params`] for one expression.
pub(crate) fn fill_expr(e: &mut BoundExpr, values: &[Value], sets: &[SubquerySet]) {
    e.visit_mut(&mut |e| match e {
        BoundExpr::Param { slot, .. } => {
            let value = values
                .get(*slot)
                .expect("a template's slots were bound from these values' types");
            *e = BoundExpr::Literal(value.clone());
        }
        BoundExpr::InSubquery {
            expr,
            subquery,
            negated,
        } if *subquery < sets.len() => {
            let (set, has_null) = &sets[*subquery];
            *e = BoundExpr::InSet {
                expr: Box::new(std::mem::replace(expr, BoundExpr::Literal(Value::Null))),
                set: Arc::clone(set),
                has_null: *has_null,
                negated: *negated,
            };
        }
        _ => {}
    });
}

/// The key columns of `table`'s primary-key index (none without one).
fn key_of<'c>(catalog: &'c Catalog, table: &str) -> &'c [usize] {
    match catalog.table(table).map(|t| t.pk_index()) {
        Ok(Some(pk)) => &pk.columns,
        _ => &[],
    }
}

/// The `column = literal` conjuncts that fix every column of `key`, one
/// per key column in key order, or none when any key column is left
/// open — only then can the index answer with a point read. The literal
/// must match the column's declared type exactly; DOUBLE columns are
/// excluded because they may physically store INTEGER values whose
/// index encoding differs from an equal DOUBLE literal.
fn index_equality_keys(
    predicate: &BoundExpr,
    schema: &Schema,
    key: &[usize],
) -> Vec<(usize, Value)> {
    let mut eq = Vec::new();
    // The AND tree's conjuncts, leftmost first.
    let mut pending = vec![predicate];
    while let Some(c) = pending.pop() {
        let BoundExpr::Binary { op, left, right } = c else {
            continue;
        };
        let (index, lit) = match (op, left.as_ref(), right.as_ref()) {
            (BinaryOp::And, ..) => {
                pending.extend([right.as_ref(), left.as_ref()]);
                continue;
            }
            (BinaryOp::Eq, BoundExpr::Column { index, .. }, BoundExpr::Literal(v))
            | (BinaryOp::Eq, BoundExpr::Literal(v), BoundExpr::Column { index, .. }) => (*index, v),
            _ => continue,
        };
        let Some(col) = schema.columns.get(index) else {
            continue;
        };
        if col.ty == DataType::Double || lit.data_type() != Some(col.ty) {
            continue;
        }
        eq.push((index, lit.clone()));
    }
    key.iter()
        .map(|k| eq.iter().find(|(i, _)| i == k).cloned())
        .collect::<Option<_>>()
        .unwrap_or_default()
}

/// Bottom-up transformation over a physical plan.
fn transform_physical_up(
    mut plan: PhysicalPlan,
    f: &impl Fn(PhysicalPlan) -> PhysicalPlan,
) -> PhysicalPlan {
    for input in plan.inputs_mut() {
        *input = transform_physical_up(std::mem::replace(input, PhysicalPlan::Dual), f);
    }
    f(plan)
}

fn wrap_filter(plan: LogicalPlan, preds: Vec<BoundExpr>) -> LogicalPlan {
    match preds.into_iter().reduce(|l, r| BoundExpr::Binary {
        op: BinaryOp::And,
        left: Box::new(l),
        right: Box::new(r),
    }) {
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        },
        None => plan,
    }
}

/// Bottom-up plan transformation.
fn transform_up(mut plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    for input in plan.inputs_mut() {
        let placeholder = LogicalPlan::Dual {
            schema: Schema::new(Vec::new()),
        };
        *input = transform_up(std::mem::replace(input, placeholder), f);
    }
    f(plan)
}

/// Fold constant sub-expressions, children first. Folding is
/// best-effort: any evaluation error (overflow, bad cast) leaves the
/// expression unfolded so the runtime reports it in context.
fn fold_expr(e: &mut BoundExpr) {
    e.children_mut(fold_expr);
    // Fold this node if it became constant (subqueries excluded).
    if !matches!(e, BoundExpr::Literal(_)) && e.is_constant() {
        if let Ok(v) = e.eval(&[]) {
            *e = BoundExpr::Literal(v);
        }
    }
}
