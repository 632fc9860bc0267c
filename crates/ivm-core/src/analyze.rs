//! View-query analysis: classification and feature validation.
//!
//! The compiler "takes in input a database schema and view definition" (§1);
//! this module checks the view against the supported IVM subset and
//! extracts everything later stages need (group key, aggregates, base
//! tables). The paper's prototype supports single-table projections,
//! filters, grouping, SUM and COUNT, with MIN/MAX and JOIN "in progress";
//! we implement those extensions too, with documented restrictions.

use ivm_engine::expr::{AggFunc, BoundExpr};
use ivm_engine::optimizer::optimize;
use ivm_engine::planner::{plan_query, LogicalPlan};
use ivm_engine::{Catalog, DataType};
use ivm_sql::ast::{JoinKind, Query, SetExpr};

use crate::error::IvmError;

/// The class of a supported view query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewClass {
    /// `SELECT proj FROM T [WHERE …]` — maintained as a Z-set with a
    /// hidden weight column.
    SimpleProjection,
    /// `SELECT keys, aggs FROM T [WHERE …] GROUP BY keys`.
    GroupAggregate,
    /// Projection over an INNER equi-join of two tables (extension).
    JoinProjection,
    /// Aggregation over an INNER equi-join of two tables (extension).
    JoinAggregate,
}

impl ViewClass {
    /// Stable name stored in metadata tables.
    pub fn name(&self) -> &'static str {
        match self {
            ViewClass::SimpleProjection => "simple_projection",
            ViewClass::GroupAggregate => "group_aggregate",
            ViewClass::JoinProjection => "join_projection",
            ViewClass::JoinAggregate => "join_aggregate",
        }
    }
}

/// Where a visible view column comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputSource {
    /// The i-th GROUP BY key.
    Group(usize),
    /// The i-th aggregate.
    Agg(usize),
    /// The i-th projection expression (simple/join-projection views).
    Plain(usize),
}

/// One visible column of the materialized view.
#[derive(Debug, Clone)]
pub struct OutputCol {
    /// Column name in the view table.
    pub name: String,
    /// Column type.
    pub ty: DataType,
    /// Provenance.
    pub source: OutputSource,
}

/// One aggregate of the view.
#[derive(Debug, Clone)]
pub struct AggInfo {
    /// The aggregate function.
    pub func: AggFunc,
    /// Visible output column name.
    pub name: String,
    /// Visible output type.
    pub ty: DataType,
}

/// Everything later compiler stages need to know about a view.
#[derive(Debug, Clone)]
pub struct ViewAnalysis {
    /// View (and materialized table) name.
    pub view_name: String,
    /// Query class.
    pub class: ViewClass,
    /// Optimized logical plan of the defining query.
    pub plan: LogicalPlan,
    /// Base tables scanned (1 or 2).
    pub base_tables: Vec<String>,
    /// Visible output columns in projection order.
    pub output: Vec<OutputCol>,
    /// Aggregates (empty for projection views).
    pub aggs: Vec<AggInfo>,
    /// Number of GROUP BY keys in the aggregate (0 for projection views).
    pub group_arity: usize,
}

impl ViewAnalysis {
    /// Whether the view contains MIN or MAX (needs the recompute path).
    pub fn has_min_max(&self) -> bool {
        self.aggs
            .iter()
            .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max))
    }

    /// Whether the view contains AVG (needs hidden sum/count columns).
    pub fn has_avg(&self) -> bool {
        self.aggs.iter().any(|a| a.func == AggFunc::Avg)
    }

    /// Names of the view's key columns: group keys for aggregates, every
    /// visible column for projection views.
    pub fn key_columns(&self) -> Vec<String> {
        match self.class {
            ViewClass::GroupAggregate | ViewClass::JoinAggregate => self
                .output
                .iter()
                .filter(|c| matches!(c.source, OutputSource::Group(_)))
                .map(|c| c.name.clone())
                .collect(),
            _ => self.output.iter().map(|c| c.name.clone()).collect(),
        }
    }

    /// Visible group-key columns in group-index order (aggregate views).
    pub fn group_columns(&self) -> Vec<&OutputCol> {
        let mut cols: Vec<&OutputCol> = self
            .output
            .iter()
            .filter(|c| matches!(c.source, OutputSource::Group(_)))
            .collect();
        cols.sort_by_key(|c| match c.source {
            OutputSource::Group(i) => i,
            _ => usize::MAX,
        });
        cols
    }
}

/// Analyze a `CREATE MATERIALIZED VIEW` body.
pub fn analyze_view(
    view_name: &str,
    query: &Query,
    catalog: &Catalog,
) -> Result<ViewAnalysis, IvmError> {
    // AST-level restrictions first (clearer diagnostics than plan shapes).
    if !query.ctes.is_empty() {
        return Err(IvmError::unsupported("WITH clauses in view definitions"));
    }
    if !query.order_by.is_empty() || query.limit.is_some() || query.offset.is_some() {
        return Err(IvmError::unsupported(
            "ORDER BY / LIMIT in view definitions",
        ));
    }
    let SetExpr::Select(select) = &query.body else {
        return Err(IvmError::unsupported("set operations in view definitions"));
    };
    if select.distinct {
        return Err(IvmError::unsupported("SELECT DISTINCT view definitions"));
    }
    if select.having.is_some() {
        return Err(IvmError::unsupported("HAVING in view definitions"));
    }

    let plan = optimize(plan_query(query, catalog).map_err(|e| IvmError::Engine(e.to_string()))?);

    if let LogicalPlan::Subqueries { .. } = plan {
        return Err(IvmError::unsupported("subqueries in view expressions"));
    }
    // Peel the top projection.
    let LogicalPlan::Project {
        input,
        exprs,
        schema,
    } = &plan
    else {
        return Err(IvmError::unsupported("view must be a SELECT projection"));
    };

    // Duplicate output names would collide in the materialized table.
    {
        let mut names = schema.names();
        names.sort();
        names.dedup();
        if names.len() != schema.len() {
            return Err(IvmError::unsupported(
                "duplicate output column names; add AS aliases",
            ));
        }
    }

    let (agg_node, source) = match input.as_ref() {
        LogicalPlan::Aggregate {
            input: agg_input,
            group,
            aggs,
            ..
        } => (Some((group, aggs)), agg_input.as_ref()),
        other => (None, other),
    };

    let base_tables = validate_source(source)?;
    let join_view = base_tables.len() == 2;

    match agg_node {
        None => {
            // Simple / join projection.
            let output = schema
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| OutputCol {
                    name: c.name.clone(),
                    ty: c.ty,
                    source: OutputSource::Plain(i),
                })
                .collect();
            Ok(ViewAnalysis {
                view_name: view_name.to_string(),
                class: if join_view {
                    ViewClass::JoinProjection
                } else {
                    ViewClass::SimpleProjection
                },
                plan: plan.clone(),
                base_tables,
                output,
                aggs: Vec::new(),
                group_arity: 0,
            })
        }
        Some((group, aggs)) => {
            if group.is_empty() {
                return Err(IvmError::unsupported(
                    "global aggregates (no GROUP BY) — add a grouping key",
                ));
            }
            // The projection above an aggregate must be pure column refs so
            // the view table layout mirrors the aggregate output.
            let mut output = Vec::with_capacity(exprs.len());
            let mut agg_infos: Vec<Option<AggInfo>> = vec![None; aggs.len()];
            for (expr, col) in exprs.iter().zip(&schema.columns) {
                let BoundExpr::Column { index, .. } = expr else {
                    return Err(IvmError::unsupported(
                        "expressions over aggregate results in the projection",
                    ));
                };
                let source = if *index < group.len() {
                    OutputSource::Group(*index)
                } else {
                    let agg_idx = *index - group.len();
                    agg_infos[agg_idx] = Some(AggInfo {
                        func: aggs[agg_idx].func,
                        name: col.name.clone(),
                        ty: col.ty,
                    });
                    OutputSource::Agg(agg_idx)
                };
                output.push(OutputCol {
                    name: col.name.clone(),
                    ty: col.ty,
                    source,
                });
            }
            // Every group key must be projected (it forms the upsert key).
            for gi in 0..group.len() {
                if !output.iter().any(|c| c.source == OutputSource::Group(gi)) {
                    return Err(IvmError::unsupported(
                        "every GROUP BY key must appear in the SELECT list",
                    ));
                }
            }
            let mut infos = Vec::with_capacity(aggs.len());
            for (i, (info, agg)) in agg_infos.into_iter().zip(aggs).enumerate() {
                let info = info.ok_or_else(|| {
                    IvmError::unsupported(format!("aggregate #{i} is computed but not projected"))
                })?;
                if agg.distinct {
                    return Err(IvmError::unsupported(
                        "DISTINCT aggregates cannot be maintained incrementally",
                    ));
                }
                infos.push(info);
            }
            let has_min_max = infos
                .iter()
                .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max));
            if has_min_max {
                if join_view {
                    return Err(IvmError::unsupported(
                        "MIN/MAX over join views (recompute path needs a single table)",
                    ));
                }
                if group.len() != 1 {
                    return Err(IvmError::unsupported(
                        "MIN/MAX views require exactly one GROUP BY key",
                    ));
                }
            }
            Ok(ViewAnalysis {
                view_name: view_name.to_string(),
                class: if join_view {
                    ViewClass::JoinAggregate
                } else {
                    ViewClass::GroupAggregate
                },
                plan: plan.clone(),
                base_tables,
                output,
                aggs: infos,
                group_arity: group.len(),
            })
        }
    }
}

/// Validate the source subplan: scans, filters, and at most one INNER
/// equi-join between two distinct tables.
fn validate_source(plan: &LogicalPlan) -> Result<Vec<String>, IvmError> {
    fn walk(
        plan: &LogicalPlan,
        tables: &mut Vec<String>,
        joins: &mut usize,
    ) -> Result<(), IvmError> {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                if tables.contains(table) {
                    return Err(IvmError::unsupported("self-joins in view definitions"));
                }
                tables.push(table.clone());
                Ok(())
            }
            LogicalPlan::Filter { input, .. } => walk(input, tables, joins),
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                ..
            } => {
                if *kind != JoinKind::Inner {
                    return Err(IvmError::unsupported(format!(
                        "{} joins in view definitions (INNER only)",
                        kind.as_str()
                    )));
                }
                if on.is_none() {
                    return Err(IvmError::unsupported(
                        "joins without ON in view definitions",
                    ));
                }
                *joins += 1;
                walk(left, tables, joins)?;
                walk(right, tables, joins)
            }
            LogicalPlan::Dual { .. } => Err(IvmError::unsupported("views without a FROM clause")),
            other => Err(IvmError::unsupported(format!(
                "operator {:?} in view definitions",
                std::mem::discriminant(other)
            ))),
        }
    }
    let mut tables = Vec::new();
    let mut joins = 0usize;
    walk(plan, &mut tables, &mut joins)?;
    if tables.is_empty() {
        return Err(IvmError::unsupported("views must read at least one table"));
    }
    if tables.len() > 2 || joins > 1 {
        return Err(IvmError::unsupported(
            "views over more than two tables (one join)",
        ));
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_engine::Database;
    use ivm_sql::ast::Statement;

    fn catalog() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
            .unwrap();
        db.execute("CREATE TABLE orders (id INTEGER, cust INTEGER, amount INTEGER)")
            .unwrap();
        db.execute("CREATE TABLE customers (id INTEGER, name VARCHAR)")
            .unwrap();
        db
    }

    fn analyze(sql: &str) -> Result<ViewAnalysis, IvmError> {
        let db = catalog();
        let q = match ivm_sql::parse_statement(sql).unwrap() {
            Statement::Query(q) => q,
            _ => unreachable!(),
        };
        analyze_view("v", &q, db.catalog())
    }

    #[test]
    fn paper_listing_1_classifies_as_group_aggregate() {
        let a = analyze(
            "SELECT group_index, SUM(group_value) AS total_value \
             FROM groups GROUP BY group_index",
        )
        .unwrap();
        assert_eq!(a.class, ViewClass::GroupAggregate);
        assert_eq!(a.base_tables, vec!["groups"]);
        assert_eq!(a.key_columns(), vec!["group_index"]);
        assert_eq!(a.aggs.len(), 1);
        assert_eq!(a.aggs[0].func, AggFunc::Sum);
        assert_eq!(a.aggs[0].name, "total_value");
    }

    #[test]
    fn simple_projection() {
        let a = analyze(
            "SELECT group_index, group_value * 2 AS doubled FROM groups \
                         WHERE group_value > 0",
        )
        .unwrap();
        assert_eq!(a.class, ViewClass::SimpleProjection);
        assert_eq!(a.key_columns(), vec!["group_index", "doubled"]);
        assert!(a.aggs.is_empty());
    }

    #[test]
    fn join_views() {
        let a = analyze(
            "SELECT customers.name, orders.amount FROM orders \
             INNER JOIN customers ON orders.cust = customers.id",
        )
        .unwrap();
        assert_eq!(a.class, ViewClass::JoinProjection);
        assert_eq!(a.base_tables.len(), 2);
        let a = analyze(
            "SELECT customers.name, SUM(orders.amount) AS total FROM orders \
             INNER JOIN customers ON orders.cust = customers.id \
             GROUP BY customers.name",
        )
        .unwrap();
        assert_eq!(a.class, ViewClass::JoinAggregate);
    }

    #[test]
    fn min_max_restrictions() {
        let a =
            analyze("SELECT group_index, MIN(group_value) AS lo FROM groups GROUP BY group_index")
                .unwrap();
        assert!(a.has_min_max());
        // Two group keys: rejected.
        assert!(analyze(
            "SELECT group_index, group_value, MIN(group_value) AS lo \
             FROM groups GROUP BY group_index, group_value"
        )
        .is_err());
        // MIN over a join: rejected.
        assert!(analyze(
            "SELECT customers.name, MIN(orders.amount) AS lo FROM orders \
             JOIN customers ON orders.cust = customers.id GROUP BY customers.name"
        )
        .is_err());
    }

    #[test]
    fn rejected_features() {
        assert!(analyze("SELECT DISTINCT group_index FROM groups").is_err());
        assert!(analyze("SELECT group_index FROM groups ORDER BY group_index").is_err());
        assert!(analyze("SELECT group_index FROM groups LIMIT 1").is_err());
        assert!(
            analyze("SELECT group_index FROM groups UNION SELECT group_index FROM groups").is_err()
        );
        assert!(analyze(
            "SELECT group_index, SUM(group_value) AS t FROM groups \
             GROUP BY group_index HAVING SUM(group_value) > 1"
        )
        .is_err());
        assert!(
            analyze("SELECT SUM(group_value) AS t FROM groups").is_err(),
            "global agg"
        );
        assert!(analyze(
            "SELECT group_index, SUM(DISTINCT group_value) AS t FROM groups GROUP BY group_index"
        )
        .is_err());
        assert!(analyze("SELECT 1 AS one").is_err(), "no FROM");
        assert!(
            analyze(
                "SELECT a.group_index FROM groups a JOIN groups b ON a.group_index = b.group_index"
            )
            .is_err(),
            "self join"
        );
        assert!(
            analyze(
                "SELECT group_index, SUM(group_value) + 1 AS t FROM groups GROUP BY group_index"
            )
            .is_err(),
            "expression over aggregate"
        );
        assert!(
            analyze(
                "SELECT customers.name FROM orders LEFT JOIN customers \
             ON orders.cust = customers.id"
            )
            .is_err(),
            "outer join"
        );
    }

    #[test]
    fn avg_detected() {
        let a = analyze(
            "SELECT group_index, AVG(group_value) AS mean FROM groups GROUP BY group_index",
        )
        .unwrap();
        assert!(a.has_avg());
        assert_eq!(a.aggs[0].ty, DataType::Double);
    }

    #[test]
    fn duplicate_output_names_rejected() {
        assert!(analyze("SELECT group_index, group_index FROM groups").is_err());
    }
}
