//! Query binder: turns an AST [`Query`] into a [`LogicalPlan`].

use ivm_sql::ast::{Expr, JoinKind, Literal, Query, Select, SelectItem, SetExpr, SetOp, TableRef};
use ivm_sql::{print_expr, Dialect};

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{bind::bind_expr_with, AggExpr, AggFunc, BindColumn, BoundExpr, Scope};
use crate::planner::{LogicalPlan, SetOpKind, SortKey};
use crate::schema::{Column, Schema};
use crate::types::DataType;

/// Plan a query against the catalog.
pub fn plan_query(query: &Query, catalog: &Catalog) -> Result<LogicalPlan, EngineError> {
    plan_template(query, catalog, &[])
}

/// Plan a query whose [`Expr::Param`] slots have the types in `params`
/// (see [`ivm_sql::lift_literals`]): the plan holds
/// [`BoundExpr::Param`]s in their place. The bodies of its
/// `IN (SELECT …)` subqueries ride at the root, in a
/// [`LogicalPlan::Subqueries`] node.
pub(crate) fn plan_template(
    query: &Query,
    catalog: &Catalog,
    params: &[DataType],
) -> Result<LogicalPlan, EngineError> {
    let mut binder = QueryBinder::new(catalog, params);
    let (plan, _) = binder.plan_query(query)?;
    if binder.subqueries.is_empty() {
        return Ok(plan);
    }
    Ok(LogicalPlan::Subqueries {
        input: Box::new(plan),
        subqueries: binder.subqueries,
    })
}

/// A planned relation plus its binder scope; plain SELECTs also expose the
/// pre-projection pair so ORDER BY can sort on input columns.
type PlannedSelect = (LogicalPlan, Scope, Option<(LogicalPlan, Scope)>);

/// The binder of one statement: what its expressions may reference
/// beyond their scope.
pub(crate) struct QueryBinder<'a> {
    catalog: &'a Catalog,
    /// Types of the statement's parameter slots.
    pub(crate) params: &'a [DataType],
    /// CTE environment: name → planned body (cloned per reference).
    ctes: Vec<(String, LogicalPlan)>,
    /// The statement's `IN (SELECT …)` bodies, in the order planning
    /// finished them: a body's own subqueries come before it.
    pub(crate) subqueries: Vec<LogicalPlan>,
}

impl<'a> QueryBinder<'a> {
    /// A binder for one statement over `catalog`.
    pub(crate) fn new(catalog: &'a Catalog, params: &'a [DataType]) -> QueryBinder<'a> {
        QueryBinder {
            catalog,
            params,
            ctes: Vec::new(),
            subqueries: Vec::new(),
        }
    }

    /// Plan the body of an `IN (SELECT …)` into the statement's subquery
    /// list; its index there.
    pub(crate) fn plan_subquery(&mut self, query: &Query) -> Result<usize, EngineError> {
        let (plan, _) = self.plan_query(query)?;
        if plan.schema().len() != 1 {
            return Err(EngineError::bind(format!(
                "IN subquery must return one column, got {}",
                plan.schema().len()
            )));
        }
        self.subqueries.push(plan);
        Ok(self.subqueries.len() - 1)
    }

    fn plan_query(&mut self, query: &Query) -> Result<(LogicalPlan, Scope), EngineError> {
        let cte_base = self.ctes.len();
        for cte in &query.ctes {
            let (plan, _) = self.plan_query(&cte.query)?;
            self.ctes.push((cte.name.normalized().to_string(), plan));
        }
        let result = self.plan_query_body(query);
        self.ctes.truncate(cte_base);
        result
    }

    fn plan_query_body(&mut self, query: &Query) -> Result<(LogicalPlan, Scope), EngineError> {
        let (mut plan, out_scope, pre_scope) = self.plan_set_expr(&query.body)?;

        if !query.order_by.is_empty() {
            plan = self.plan_order_by(plan, &out_scope, pre_scope.as_ref(), query)?;
        }
        if query.limit.is_some() || query.offset.is_some() {
            let limit = match &query.limit {
                Some(e) => Some(const_usize(e, "LIMIT")?),
                None => None,
            };
            let offset = match &query.offset {
                Some(e) => const_usize(e, "OFFSET")?,
                None => 0,
            };
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit,
                offset,
            };
        }
        Ok((plan, out_scope))
    }

    /// Plan a set expression. Returns the plan, its output scope, and — for
    /// plain non-aggregate SELECTs — the pre-projection scope usable by
    /// ORDER BY over input columns.
    fn plan_set_expr(&mut self, body: &SetExpr) -> Result<PlannedSelect, EngineError> {
        match body {
            SetExpr::Select(s) => self.plan_select(s),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let (lp, lscope, _) = self.plan_set_expr(left)?;
                let (rp, rscope, _) = self.plan_set_expr(right)?;
                if lp.schema().len() != rp.schema().len() {
                    return Err(EngineError::bind(format!(
                        "set operation column-count mismatch: {} vs {}",
                        lp.schema().len(),
                        rp.schema().len()
                    )));
                }
                let kind = match op {
                    SetOp::Union => SetOpKind::Union,
                    SetOp::Except => SetOpKind::Except,
                    SetOp::Intersect => SetOpKind::Intersect,
                };
                // Output schema: names from the left, types promoted.
                let columns = lp
                    .schema()
                    .columns
                    .iter()
                    .zip(&rp.schema().columns)
                    .map(|(l, r)| Column::new(l.name.clone(), promote_or(l.ty, r.ty)))
                    .collect();
                let schema = Schema::new(columns);
                let scope = Scope {
                    columns: lscope
                        .columns
                        .into_iter()
                        .zip(rscope.columns)
                        .map(|(l, _)| BindColumn {
                            qualifier: None,
                            ..l
                        })
                        .collect(),
                };
                let plan = LogicalPlan::SetOp {
                    op: kind,
                    all: *all,
                    left: Box::new(lp),
                    right: Box::new(rp),
                    schema,
                };
                Ok((plan, scope, None))
            }
        }
    }

    fn plan_select(&mut self, select: &Select) -> Result<PlannedSelect, EngineError> {
        // FROM clause: comma lists become cross joins.
        let (mut plan, scope) = if select.from.is_empty() {
            (
                LogicalPlan::Dual {
                    schema: Schema::default(),
                },
                Scope::empty(),
            )
        } else {
            let mut iter = select.from.iter();
            let (mut plan, mut scope) = self.plan_table_ref(iter.next().expect("non-empty"))?;
            for tref in iter {
                let (rp, rscope) = self.plan_table_ref(tref)?;
                let schema = concat_schemas(plan.schema(), rp.schema());
                plan = LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(rp),
                    kind: JoinKind::Cross,
                    on: None,
                    schema,
                };
                scope = scope.join(rscope);
            }
            (plan, scope)
        };

        // WHERE.
        if let Some(pred) = &select.selection {
            let predicate = bind_expr_with(pred, &scope, Some(self))?;
            check_boolean(&predicate, "WHERE")?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        let is_aggregate = !select.group_by.is_empty()
            || select.having.is_some()
            || select.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            });

        if is_aggregate {
            let (plan, out_scope) = self.plan_aggregate_select(select, plan, &scope)?;
            let plan = if select.distinct {
                LogicalPlan::Distinct {
                    input: Box::new(plan),
                }
            } else {
                plan
            };
            return Ok((plan, out_scope, None));
        }

        // Plain projection.
        let pre = (plan.clone(), scope.clone());
        let items = self.expand_projection(&select.projection, &scope)?;
        let mut exprs = Vec::with_capacity(items.len());
        let mut columns = Vec::with_capacity(items.len());
        let mut out_cols = Vec::with_capacity(items.len());
        for (expr_ast, name) in items {
            let bound = bind_expr_with(&expr_ast, &scope, Some(self))?;
            columns.push(Column::new(
                name.clone(),
                bound.ty().unwrap_or(DataType::Varchar),
            ));
            out_cols.push(BindColumn {
                qualifier: None,
                name,
                ty: bound.ty(),
            });
            exprs.push(bound);
        }
        let mut plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            schema: Schema::new(columns),
        };
        if select.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        Ok((plan, Scope { columns: out_cols }, Some(pre)))
    }

    /// Expand wildcards into (expression, output name) pairs.
    fn expand_projection(
        &self,
        projection: &[SelectItem],
        scope: &Scope,
    ) -> Result<Vec<(Expr, String)>, EngineError> {
        let mut out = Vec::new();
        for item in projection {
            match item {
                SelectItem::Wildcard => {
                    if scope.columns.is_empty() {
                        return Err(EngineError::bind("SELECT * with no FROM clause"));
                    }
                    for col in &scope.columns {
                        out.push((column_expr(col), col.name.clone()));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let qn = q.normalized();
                    let matched: Vec<_> = scope
                        .columns
                        .iter()
                        .filter(|c| c.qualifier.as_deref() == Some(qn))
                        .collect();
                    if matched.is_empty() {
                        return Err(EngineError::bind(format!(
                            "unknown relation {qn} in {qn}.*"
                        )));
                    }
                    for col in matched {
                        out.push((column_expr(col), col.name.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = match alias {
                        Some(a) => a.normalized().to_string(),
                        None => default_name(expr),
                    };
                    out.push((expr.clone(), name));
                }
            }
        }
        Ok(out)
    }

    fn plan_table_ref(&mut self, tref: &TableRef) -> Result<(LogicalPlan, Scope), EngineError> {
        match tref {
            TableRef::Table { name, alias } => {
                let tname = name.normalized().to_string();
                let qualifier = alias
                    .as_ref()
                    .map(|a| a.normalized().to_string())
                    .unwrap_or_else(|| tname.clone());
                // CTEs shadow catalog objects; later CTEs shadow earlier.
                if let Some((_, plan)) = self.ctes.iter().rev().find(|(n, _)| *n == tname) {
                    let plan = plan.clone();
                    let scope = Scope::of(&qualifier, plan.schema());
                    return Ok((plan, scope));
                }
                if let Some(view) = self.catalog.view(&tname) {
                    let view = view.clone();
                    let (plan, _) = self.plan_query(&view)?;
                    let scope = Scope::of(&qualifier, plan.schema());
                    return Ok((plan, scope));
                }
                let table = self.catalog.table(&tname)?;
                let schema = table.schema.clone();
                let scope = Scope::of(&qualifier, &schema);
                Ok((
                    LogicalPlan::Scan {
                        table: tname,
                        schema,
                    },
                    scope,
                ))
            }
            TableRef::Subquery { query, alias } => {
                let (plan, _) = self.plan_query(query)?;
                let scope = Scope::of(alias.normalized(), plan.schema());
                Ok((plan, scope))
            }
            TableRef::Join {
                left,
                right,
                kind,
                constraint,
            } => {
                let (lp, lscope) = self.plan_table_ref(left)?;
                let (rp, rscope) = self.plan_table_ref(right)?;
                let scope = lscope.join(rscope);
                let on = match constraint {
                    Some(c) => {
                        let bound = bind_expr_with(c, &scope, Some(self))?;
                        check_boolean(&bound, "JOIN ON")?;
                        Some(bound)
                    }
                    None => None,
                };
                if *kind != JoinKind::Cross && on.is_none() {
                    return Err(EngineError::bind("non-cross join requires ON"));
                }
                let schema = concat_schemas(lp.schema(), rp.schema());
                Ok((
                    LogicalPlan::Join {
                        left: Box::new(lp),
                        right: Box::new(rp),
                        kind: *kind,
                        on,
                        schema,
                    },
                    scope,
                ))
            }
        }
    }

    /// Plan a SELECT with grouping/aggregation.
    fn plan_aggregate_select(
        &mut self,
        select: &Select,
        input: LogicalPlan,
        scope: &Scope,
    ) -> Result<(LogicalPlan, Scope), EngineError> {
        let items = self.expand_projection(&select.projection, scope)?;

        // Resolve GROUP BY items: ordinals and projection aliases first.
        let mut group_asts: Vec<Expr> = Vec::with_capacity(select.group_by.len());
        for g in &select.group_by {
            let resolved = match g {
                Expr::Literal(Literal::Number(n)) => {
                    let idx: usize = n
                        .parse()
                        .map_err(|_| EngineError::bind(format!("invalid GROUP BY ordinal {n}")))?;
                    if idx == 0 || idx > items.len() {
                        return Err(EngineError::bind(format!(
                            "GROUP BY ordinal {idx} out of range"
                        )));
                    }
                    items[idx - 1].0.clone()
                }
                Expr::Column(c) if c.table.is_none() => {
                    // A bare name may be a projection alias; otherwise bind
                    // it as an input column below.
                    let name = c.column.normalized();
                    if scope.resolve(None, name).is_err() {
                        match items.iter().find(|(_, n)| n == name) {
                            Some((e, _)) => e.clone(),
                            None => g.clone(),
                        }
                    } else {
                        g.clone()
                    }
                }
                other => other.clone(),
            };
            if contains_aggregate(&resolved) {
                return Err(EngineError::bind(
                    "aggregate functions are not allowed in GROUP BY",
                ));
            }
            group_asts.push(resolved);
        }

        // Collect aggregate calls from projection and HAVING.
        let mut agg_asts: Vec<Expr> = Vec::new();
        for (e, _) in &items {
            collect_aggregates(e, &mut agg_asts)?;
        }
        if let Some(h) = &select.having {
            collect_aggregates(h, &mut agg_asts)?;
        }

        // Bind group keys and aggregates against the input scope.
        let mut group_bound = Vec::with_capacity(group_asts.len());
        let mut columns = Vec::new();
        for g in &group_asts {
            let b = bind_expr_with(g, scope, Some(self))?;
            let name = default_name(g);
            columns.push(Column::new(name, b.ty().unwrap_or(DataType::Varchar)));
            group_bound.push(b);
        }
        let mut aggs = Vec::with_capacity(agg_asts.len());
        for a in &agg_asts {
            let Expr::Function {
                name,
                args,
                distinct,
                star,
            } = a
            else {
                unreachable!("collect_aggregates only gathers calls")
            };
            let func = AggFunc::lookup(name.normalized()).expect("checked aggregate");
            let arg = if *star {
                None
            } else {
                if args.len() != 1 {
                    return Err(EngineError::bind(format!(
                        "aggregate {} expects one argument",
                        func.name()
                    )));
                }
                let bound = bind_expr_with(&args[0], scope, Some(self))?;
                if matches!(func, AggFunc::Sum | AggFunc::Avg) {
                    if let Some(t) = bound.ty() {
                        if !t.is_numeric() {
                            return Err(EngineError::bind(format!(
                                "{}({t}) is not defined",
                                func.name()
                            )));
                        }
                    }
                }
                Some(bound)
            };
            let agg = AggExpr {
                func,
                arg,
                distinct: *distinct,
                name: default_name(a),
            };
            columns.push(Column::new(
                agg.name.clone(),
                agg.ty().unwrap_or(DataType::Varchar),
            ));
            aggs.push(agg);
        }

        let agg_schema = Schema::new(columns);
        let agg_plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: group_bound,
            aggs,
            schema: agg_schema.clone(),
        };

        // Placeholder scope: #c0..#cN map to the aggregate output columns.
        let placeholder_scope = Scope {
            columns: agg_schema
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| BindColumn {
                    qualifier: None,
                    name: format!("#c{i}"),
                    ty: Some(c.ty),
                })
                .collect(),
        };
        let rewrite = |e: &Expr| -> Expr {
            let mut e = e.clone();
            replace_agg_subtrees(&mut e, &group_asts, &agg_asts, scope);
            e
        };

        // HAVING → Filter above the aggregate.
        let mut plan = agg_plan;
        if let Some(h) = &select.having {
            let replaced = rewrite(h);
            let bound = bind_in_agg(&replaced, &placeholder_scope, self)?;
            check_boolean(&bound, "HAVING")?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: bound,
            };
        }

        // Final projection over the aggregate output.
        let mut exprs = Vec::with_capacity(items.len());
        let mut out_columns = Vec::with_capacity(items.len());
        let mut out_scope_cols = Vec::with_capacity(items.len());
        for (e, name) in &items {
            let replaced = rewrite(e);
            let bound = bind_in_agg(&replaced, &placeholder_scope, self)?;
            out_columns.push(Column::new(
                name.clone(),
                bound.ty().unwrap_or(DataType::Varchar),
            ));
            out_scope_cols.push(BindColumn {
                qualifier: None,
                name: name.clone(),
                ty: bound.ty(),
            });
            exprs.push(bound);
        }
        let plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            schema: Schema::new(out_columns),
        };
        Ok((
            plan,
            Scope {
                columns: out_scope_cols,
            },
        ))
    }

    fn plan_order_by(
        &mut self,
        plan: LogicalPlan,
        out_scope: &Scope,
        pre: Option<&(LogicalPlan, Scope)>,
        query: &Query,
    ) -> Result<LogicalPlan, EngineError> {
        // First attempt: bind all keys over the output scope (plus ordinals).
        // A failed attempt leaves no subquery behind.
        let mut keys = Vec::with_capacity(query.order_by.len());
        let mut output_ok = true;
        let subqueries = self.subqueries.len();
        for ob in &query.order_by {
            let bound = match &ob.expr {
                Expr::Literal(Literal::Number(n)) => {
                    let idx: usize = n
                        .parse()
                        .map_err(|_| EngineError::bind(format!("invalid ORDER BY ordinal {n}")))?;
                    if idx == 0 || idx > out_scope.columns.len() {
                        return Err(EngineError::bind(format!(
                            "ORDER BY ordinal {idx} out of range"
                        )));
                    }
                    Ok(BoundExpr::Column {
                        index: idx - 1,
                        ty: out_scope.columns[idx - 1].ty,
                        name: out_scope.columns[idx - 1].name.clone(),
                    })
                }
                e => bind_expr_with(e, out_scope, Some(self)),
            };
            match bound {
                Ok(b) => keys.push(SortKey {
                    expr: b,
                    desc: ob.desc,
                }),
                Err(_) => {
                    output_ok = false;
                    self.subqueries.truncate(subqueries);
                    break;
                }
            }
        }
        if output_ok {
            return Ok(LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            });
        }
        // Second attempt (plain selects only): sort below the projection on
        // input columns; the order-preserving Project keeps the ordering.
        let Some((pre_plan, pre_scope)) = pre else {
            return Err(EngineError::bind(
                "ORDER BY expression is not in the select list",
            ));
        };
        let mut keys = Vec::with_capacity(query.order_by.len());
        for ob in &query.order_by {
            let b = bind_expr_with(&ob.expr, pre_scope, Some(self))?;
            keys.push(SortKey {
                expr: b,
                desc: ob.desc,
            });
        }
        // Rebuild: pre_plan → Sort → (original projection layers).
        // The outer plan was Project/Distinct over pre_plan; re-plan by
        // grafting: we know `plan` contains pre_plan as its descendant, so
        // splice the sort underneath the projection chain.
        fn splice(plan: LogicalPlan, target: &LogicalPlan, keys: Vec<SortKey>) -> LogicalPlan {
            match plan {
                LogicalPlan::Project {
                    input,
                    exprs,
                    schema,
                } => {
                    if *input == *target {
                        LogicalPlan::Project {
                            input: Box::new(LogicalPlan::Sort { input, keys }),
                            exprs,
                            schema,
                        }
                    } else {
                        LogicalPlan::Project {
                            input: Box::new(splice(*input, target, keys)),
                            exprs,
                            schema,
                        }
                    }
                }
                LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                    input: Box::new(splice(*input, target, keys)),
                },
                other => other,
            }
        }
        Ok(splice(plan, pre_plan, keys))
    }
}

fn concat_schemas(l: &Schema, r: &Schema) -> Schema {
    let mut columns = l.columns.clone();
    columns.extend(r.columns.clone());
    Schema::new(columns)
}

fn promote_or(l: DataType, r: DataType) -> DataType {
    DataType::promote(l, r).unwrap_or(l)
}

fn check_boolean(e: &BoundExpr, clause: &str) -> Result<(), EngineError> {
    if let Some(t) = e.ty() {
        if t != DataType::Boolean {
            return Err(EngineError::bind(format!(
                "{clause} predicate must be BOOLEAN, got {t}"
            )));
        }
    }
    Ok(())
}

fn const_usize(e: &Expr, clause: &str) -> Result<usize, EngineError> {
    if let Expr::Literal(Literal::Number(n)) = e {
        if let Ok(v) = n.parse::<usize>() {
            return Ok(v);
        }
    }
    Err(EngineError::bind(format!(
        "{clause} must be a non-negative integer literal"
    )))
}

fn column_expr(col: &BindColumn) -> Expr {
    match &col.qualifier {
        Some(q) => Expr::qcol(q.clone(), col.name.clone()),
        None => Expr::col(col.name.clone()),
    }
}

/// Output name for an unaliased projection item.
fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.column.normalized().to_string(),
        Expr::Function { name, .. } => name.normalized().to_string(),
        other => print_expr(other, Dialect::DuckDb).to_lowercase(),
    }
}

/// Whether an expression contains an aggregate function call.
pub(crate) fn contains_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |node| {
        if let Expr::Function { name, .. } = node {
            if AggFunc::is_aggregate_name(name.normalized()) {
                found = true;
            }
        }
    });
    found
}

/// Collect top-level aggregate calls; rejects nested aggregates.
fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) -> Result<(), EngineError> {
    if let Expr::Function { name, args, .. } = e {
        if AggFunc::is_aggregate_name(name.normalized()) {
            if args.iter().any(contains_aggregate) {
                return Err(EngineError::bind("nested aggregate functions"));
            }
            if !out.contains(e) {
                out.push(e.clone());
            }
            return Ok(());
        }
    }
    let mut result = Ok(());
    e.children(|c| {
        if result.is_ok() {
            result = collect_aggregates(c, out);
        }
    });
    result
}

/// Replace group-by expressions and aggregate calls, in place, with
/// placeholder columns `#c{i}` over the aggregate output.
fn replace_agg_subtrees(e: &mut Expr, group_asts: &[Expr], agg_asts: &[Expr], input_scope: &Scope) {
    let slot = group_asts
        .iter()
        .position(|g| e == g || columns_equivalent(e, g, input_scope))
        .or_else(|| {
            let j = agg_asts.iter().position(|a| e == a)?;
            Some(group_asts.len() + j)
        });
    match slot {
        Some(i) => *e = Expr::col(format!("#c{i}")),
        None => e.children_mut(|c| replace_agg_subtrees(c, group_asts, agg_asts, input_scope)),
    }
}

/// Two column references are equivalent when they resolve to the same input
/// position (handles `t.a` in GROUP BY vs bare `a` in the projection).
fn columns_equivalent(a: &Expr, b: &Expr, scope: &Scope) -> bool {
    let (Expr::Column(ca), Expr::Column(cb)) = (a, b) else {
        return false;
    };
    let ra = scope.resolve(
        ca.table.as_ref().map(|t| t.normalized()),
        ca.column.normalized(),
    );
    let rb = scope.resolve(
        cb.table.as_ref().map(|t| t.normalized()),
        cb.column.normalized(),
    );
    matches!((ra, rb), (Ok(x), Ok(y)) if x == y)
}

/// Bind a rewritten (placeholder-bearing) expression, translating unknown
/// column errors into the standard GROUP BY diagnostic.
fn bind_in_agg(
    e: &Expr,
    placeholder_scope: &Scope,
    binder: &mut QueryBinder<'_>,
) -> Result<BoundExpr, EngineError> {
    bind_expr_with(e, placeholder_scope, Some(binder)).map_err(|err| {
        if err.message().starts_with("unknown column") {
            EngineError::bind(format!(
                "{} — expression must appear in GROUP BY or inside an aggregate",
                err.message().replace("#c", "output ")
            ))
        } else {
            err
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Table;
    use ivm_sql::ast::Statement;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Integer),
                Column::new("b", DataType::Varchar),
            ]),
            vec![],
        ))
        .unwrap();
        c.create_table(Table::new(
            "u",
            Schema::new(vec![
                Column::new("a", DataType::Integer),
                Column::new("c", DataType::Double),
            ]),
            vec![],
        ))
        .unwrap();
        c
    }

    fn plan(sql: &str) -> Result<LogicalPlan, EngineError> {
        let c = catalog();
        let Statement::Query(q) = ivm_sql::parse_statement(sql).unwrap() else {
            unreachable!()
        };
        plan_query(&q, &c)
    }

    #[test]
    fn scan_project_shape() {
        let p = plan("SELECT a, b FROM t").unwrap();
        let LogicalPlan::Project { input, schema, .. } = &p else {
            panic!("expected projection, got {p:?}")
        };
        assert!(matches!(**input, LogicalPlan::Scan { .. }));
        assert_eq!(schema.names(), vec!["a", "b"]);
    }

    #[test]
    fn aggregate_shape_and_output_names() {
        let p = plan("SELECT b, SUM(a) AS total FROM t GROUP BY b").unwrap();
        let LogicalPlan::Project { input, schema, .. } = &p else {
            panic!()
        };
        assert!(matches!(**input, LogicalPlan::Aggregate { .. }));
        assert_eq!(schema.names(), vec!["b", "total"]);
        assert_eq!(schema.types(), vec![DataType::Varchar, DataType::Integer]);
    }

    #[test]
    fn wildcard_expansion_order() {
        let p = plan("SELECT * FROM t, u").unwrap();
        assert_eq!(p.schema().names(), vec!["a", "b", "a", "c"]);
        let p = plan("SELECT u.* FROM t, u").unwrap();
        assert_eq!(p.schema().names(), vec!["a", "c"]);
    }

    #[test]
    fn ambiguity_and_unknowns_error() {
        assert!(plan("SELECT a FROM t, u").is_err(), "ambiguous a");
        assert!(plan("SELECT zz FROM t").is_err(), "unknown column");
        assert!(plan("SELECT t.a FROM u").is_err(), "unknown qualifier");
        assert!(plan("SELECT * FROM missing").is_err(), "unknown table");
    }

    #[test]
    fn group_by_violations_detected() {
        assert!(plan("SELECT a, SUM(a) FROM t GROUP BY b").is_err());
        assert!(
            plan("SELECT SUM(SUM(a)) FROM t GROUP BY b").is_err(),
            "nested agg"
        );
        assert!(plan("SELECT b FROM t GROUP BY 9").is_err(), "bad ordinal");
    }

    #[test]
    fn having_binds_aggregates() {
        let p = plan("SELECT b FROM t GROUP BY b HAVING SUM(a) > 3").unwrap();
        // Filter sits between Project and Aggregate.
        let LogicalPlan::Project { input, .. } = &p else {
            panic!()
        };
        assert!(matches!(**input, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn order_by_alias_ordinal_and_input_column() {
        assert!(plan("SELECT a AS x FROM t ORDER BY x").is_ok());
        assert!(plan("SELECT a FROM t ORDER BY 1").is_ok());
        // ORDER BY an input column not in the projection (sorts pre-project).
        assert!(plan("SELECT a FROM t ORDER BY b").is_ok());
        assert!(plan("SELECT a FROM t ORDER BY 5").is_err());
    }

    #[test]
    fn in_subquery_bodies_ride_at_the_root() {
        // Inner bodies come before the outer ones that read them.
        let p = plan(
            "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE a IN (SELECT a FROM t)) \
             AND b IN (SELECT b FROM t)",
        )
        .unwrap();
        let LogicalPlan::Subqueries { input, subqueries } = &p else {
            panic!("{}", p.explain())
        };
        let bodies: Vec<String> = subqueries.iter().map(LogicalPlan::explain).collect();
        assert_eq!(
            bodies,
            [
                "Project [a]\n  Scan t\n",
                "Project [a]\n  Filter\n    Scan u\n",
                "Project [b]\n  Scan t\n",
            ]
        );
        let LogicalPlan::Project { input, .. } = &**input else {
            panic!("{}", p.explain())
        };
        let LogicalPlan::Filter {
            input: scan,
            predicate: BoundExpr::Binary { left, right, .. },
        } = &**input
        else {
            panic!("{}", p.explain())
        };
        assert!(matches!(&**scan, LogicalPlan::Scan { table, .. } if table == "t"));
        assert!(matches!(**left, BoundExpr::InSubquery { subquery: 1, .. }));
        assert!(matches!(**right, BoundExpr::InSubquery { subquery: 2, .. }));
        let LogicalPlan::Filter { predicate, .. } = subqueries[1].inputs().next().unwrap() else {
            panic!("{}", p.explain())
        };
        assert!(matches!(
            predicate,
            BoundExpr::InSubquery { subquery: 0, .. }
        ));
        // A plan without subqueries has no such root.
        assert!(matches!(
            plan("SELECT a FROM t").unwrap(),
            LogicalPlan::Project { .. }
        ));
    }

    #[test]
    fn set_op_arity_mismatch() {
        assert!(plan("SELECT a, b FROM t UNION SELECT a FROM u").is_err());
        let p = plan("SELECT a FROM t UNION ALL SELECT a FROM u").unwrap();
        assert!(matches!(p, LogicalPlan::SetOp { all: true, .. }));
    }

    #[test]
    fn explain_renders_tree() {
        let p = plan("SELECT b, COUNT(*) FROM t WHERE a > 0 GROUP BY b").unwrap();
        let e = p.explain();
        assert!(e.contains("Project"));
        assert!(e.contains("Aggregate"));
        assert!(e.contains("Scan t"));
    }

    #[test]
    fn where_must_be_boolean() {
        assert!(plan("SELECT a FROM t WHERE a + 1").is_err());
        assert!(plan("SELECT a FROM t WHERE b").is_err());
    }

    #[test]
    fn limit_requires_constants() {
        assert!(plan("SELECT a FROM t LIMIT 3").is_ok());
        assert!(plan("SELECT a FROM t LIMIT a").is_err());
    }
}
