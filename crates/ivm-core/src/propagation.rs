//! Propagation-script generation: the four post-processing steps of §2.
//!
//! 1. Insertion in ΔV of the tuples resulting from querying ΔT.
//! 2. Insertion or update in V of the newly-inserted tuples in ΔV.
//! 3. Deletion of the invalid rows in V (zero Z-set weight).
//! 4. Deletion from ΔT and ΔV after applying the changes.
//!
//! Step 2's emission "can drastically change depending on the input query"
//! and the chosen [`UpsertStrategy`]: a `LEFT JOIN` upsert (Listing 2), a
//! UNION-and-regroup, or a FULL OUTER JOIN through a staging table.

use ivm_engine::expr::AggFunc;
use ivm_sql::ast::{
    Assignment, ConflictAction, Cte, Delete, Expr, Insert, InsertSource, OnConflict, Query, Select,
    SelectItem, SetExpr, Statement, TableRef,
};
use ivm_sql::{print_statement, Dialect, Ident};

use crate::analyze::{ViewAnalysis, ViewClass};
use crate::error::IvmError;
use crate::flags::{IvmFlags, UpsertStrategy};
use crate::names::{self, COUNT_COL, MULTIPLICITY_COL};
use crate::rewrite::{build_delta_query, build_full_query, delta_view_layout, view_table_layout};

/// One statement of the maintenance script.
#[derive(Debug, Clone)]
pub struct PropagationStep {
    /// Which of the paper's steps this belongs to (1–4).
    pub step: u8,
    /// Human description (emitted as a `--` comment when enabled).
    pub description: String,
    /// The SQL statement (no trailing `;`).
    pub sql: String,
}

/// The full maintenance script for one view.
#[derive(Debug, Clone)]
pub struct PropagationScript {
    /// Ordered statements.
    pub steps: Vec<PropagationStep>,
}

impl PropagationScript {
    /// Just the SQL statements, in order.
    pub fn statements(&self) -> Vec<String> {
        self.steps.iter().map(|s| s.sql.clone()).collect()
    }

    /// The script as one `;`-separated text, optionally commented — this is
    /// what gets stored for "future inspection and usage without having to
    /// start DuckDB".
    pub fn to_sql(&self, comments: bool) -> String {
        let mut out = String::new();
        for s in &self.steps {
            if comments {
                out.push_str(&format!("-- Step {}: {}\n", s.step, s.description));
            }
            out.push_str(&s.sql);
            out.push_str(";\n");
        }
        out
    }
}

fn fcall(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Function {
        name: Ident::new(name),
        args,
        distinct: false,
        star: false,
    }
}

fn coalesce0(e: Expr) -> Expr {
    fcall("coalesce", vec![e, Expr::int(0)])
}

/// `CASE WHEN <mult> = FALSE THEN -<value> ELSE <value> END` — the paper's
/// sign adjustment (Listing 2, line 8).
fn signed(mult: Expr, value: Expr) -> Expr {
    Expr::Case {
        operand: None,
        branches: vec![(
            mult.eq(Expr::boolean(false)),
            Expr::Unary {
                op: ivm_sql::ast::UnaryOp::Minus,
                expr: Box::new(value.clone()),
            },
        )],
        else_result: Some(Box::new(value)),
    }
}

/// `SUM(CASE WHEN m = FALSE THEN -c ELSE c END) AS name`.
fn signed_sum(mult: Expr, value: Expr) -> Expr {
    fcall("sum", vec![signed(mult, value)])
}

/// `MIN/MAX(CASE WHEN m THEN c END)` — insertion-path extremum candidate.
fn inserted_extremum(func: &str, mult: Expr, value: Expr) -> Expr {
    fcall(
        func,
        vec![Expr::Case {
            operand: None,
            branches: vec![(mult, value)],
            else_result: None,
        }],
    )
}

fn conjoin_eq(left_qual: &str, right_qual: &str, cols: &[String]) -> Expr {
    cols.iter()
        .map(|c| Expr::qcol(left_qual, c.clone()).eq(Expr::qcol(right_qual, c.clone())))
        .reduce(|l, r| l.and(r))
        .expect("at least one key column")
}

fn select_query(select: Select, ctes: Vec<Cte>) -> Query {
    Query {
        ctes,
        body: SetExpr::Select(Box::new(select)),
        order_by: vec![],
        limit: None,
        offset: None,
    }
}

fn insert_stmt(table: &str, source: Query) -> Statement {
    Statement::Insert(Insert {
        table: Ident::new(table),
        columns: vec![],
        source: InsertSource::Query(Box::new(source)),
        or_replace: false,
        on_conflict: None,
    })
}

/// Dialect-aware upsert: `INSERT OR REPLACE` for DuckDB, `ON CONFLICT …
/// DO UPDATE` for PostgreSQL (the Coral-style dialect fork).
fn upsert_stmt(
    table: &str,
    source: Query,
    key_cols: &[String],
    all_cols: &[String],
    dialect: Dialect,
) -> Statement {
    if dialect.supports_insert_or_replace() {
        Statement::Insert(Insert {
            table: Ident::new(table),
            columns: vec![],
            source: InsertSource::Query(Box::new(source)),
            or_replace: true,
            on_conflict: None,
        })
    } else {
        let assignments = all_cols
            .iter()
            .filter(|c| !key_cols.contains(c))
            .map(|c| Assignment {
                column: Ident::new(c.clone()),
                value: Expr::qcol("excluded", c.clone()),
            })
            .collect();
        Statement::Insert(Insert {
            table: Ident::new(table),
            columns: vec![],
            source: InsertSource::Query(Box::new(source)),
            or_replace: false,
            on_conflict: Some(OnConflict {
                target: key_cols.iter().map(|c| Ident::new(c.clone())).collect(),
                action: ConflictAction::DoUpdate(assignments),
            }),
        })
    }
}

fn delete_stmt(table: &str, selection: Option<Expr>) -> Statement {
    Statement::Delete(Delete {
        table: Ident::new(table),
        selection,
    })
}

/// Generate the full propagation script for a view, using the strategy in
/// the flags.
pub fn generate_propagation(
    analysis: &ViewAnalysis,
    flags: &IvmFlags,
) -> Result<PropagationScript, IvmError> {
    let dialect = flags.dialect;
    let view = analysis.view_name.clone();
    let delta_view = names::delta(&view);
    let mut steps = Vec::new();

    // ---- Step 1: ΔT → ΔV through the DBSP-rewritten query.
    let delta_query = build_delta_query(analysis)?;
    steps.push(PropagationStep {
        step: 1,
        description: format!("propagate base-table deltas into {delta_view}"),
        sql: print_statement(&insert_stmt(&delta_view, delta_query), dialect),
    });

    // ---- Step 2: fold ΔV into V.
    match flags.upsert_strategy {
        UpsertStrategy::LeftJoinUpsert => {
            let (source, key_cols, all_cols) = left_join_merge_query(analysis, false)?;
            steps.push(PropagationStep {
                step: 2,
                description: format!("upsert merged groups into {view} (LEFT JOIN strategy)"),
                sql: print_statement(
                    &upsert_stmt(&view, source, &key_cols, &all_cols, dialect),
                    dialect,
                ),
            });
        }
        UpsertStrategy::UnionRegroup => {
            let stmts = union_regroup_statements(analysis)?;
            for (desc, stmt) in stmts {
                steps.push(PropagationStep {
                    step: 2,
                    description: desc,
                    sql: print_statement(&stmt, dialect),
                });
            }
        }
        UpsertStrategy::FullOuterJoin => {
            let stage = names::stage(&view);
            steps.push(PropagationStep {
                step: 2,
                description: format!("clear staging table {stage}"),
                sql: print_statement(&delete_stmt(&stage, None), dialect),
            });
            let (source, _, _) = left_join_merge_query(analysis, true)?;
            steps.push(PropagationStep {
                step: 2,
                description: "merge V and ΔV through a FULL OUTER JOIN".to_string(),
                sql: print_statement(&insert_stmt(&stage, source), dialect),
            });
            steps.push(PropagationStep {
                step: 2,
                description: format!("swap {view} contents from the staging table"),
                sql: print_statement(&delete_stmt(&view, None), dialect),
            });
            let cols: Vec<String> = view_table_layout(analysis)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            let select = Select::new(
                cols.iter()
                    .map(|c| SelectItem::expr(Expr::col(c.clone())))
                    .collect(),
            );
            let mut select = select;
            select.from = vec![TableRef::table(stage.clone())];
            select.selection = Some(Expr::Binary {
                left: Box::new(Expr::col(COUNT_COL)),
                op: ivm_sql::ast::BinaryOp::NotEq,
                right: Box::new(Expr::int(0)),
            });
            steps.push(PropagationStep {
                step: 2,
                description: "reload live rows".to_string(),
                sql: print_statement(&insert_stmt(&view, select_query(select, vec![])), dialect),
            });
        }
    }

    // ---- Step 2b: MIN/MAX dirty-group recomputation from the base table.
    if analysis.has_min_max() {
        let key = analysis.key_columns()[0].clone();
        let dirty = dirty_groups_query(&delta_view, &key);
        steps.push(PropagationStep {
            step: 2,
            description: "drop groups touched by deletions (MIN/MAX recompute)".to_string(),
            sql: print_statement(
                &delete_stmt(
                    &view,
                    Some(Expr::InSubquery {
                        expr: Box::new(Expr::col(key.clone())),
                        query: Box::new(dirty.clone()),
                        negated: false,
                    }),
                ),
                dialect,
            ),
        });
        let recompute = build_full_query(analysis, Some(dirty))?;
        steps.push(PropagationStep {
            step: 2,
            description: "recompute dirty groups from the base table".to_string(),
            sql: print_statement(&insert_stmt(&view, recompute), dialect),
        });
    }

    // ---- Step 3: delete invalid rows (zero weight).
    steps.push(PropagationStep {
        step: 3,
        description: format!("delete rows of {view} whose Z-set weight reached zero"),
        sql: print_statement(
            &delete_stmt(&view, Some(Expr::col(COUNT_COL).eq(Expr::int(0)))),
            dialect,
        ),
    });

    // ---- Step 4: drain the consumed deltas.
    steps.push(PropagationStep {
        step: 4,
        description: format!("drain {delta_view}"),
        sql: print_statement(&delete_stmt(&delta_view, None), dialect),
    });
    for t in &analysis.base_tables {
        let dt = names::delta(t);
        steps.push(PropagationStep {
            step: 4,
            description: format!("drain {dt}"),
            sql: print_statement(&delete_stmt(&dt, None), dialect),
        });
    }

    Ok(PropagationScript { steps })
}

/// `SELECT DISTINCT <key> FROM ΔV WHERE multiplicity = FALSE`.
fn dirty_groups_query(delta_view: &str, key: &str) -> Query {
    let mut select = Select::new(vec![SelectItem::expr(Expr::col(key))]);
    select.distinct = true;
    select.from = vec![TableRef::table(delta_view)];
    select.selection = Some(Expr::col(MULTIPLICITY_COL).eq(Expr::boolean(false)));
    select_query(select, vec![])
}

/// Build the Step-2 merge query shared by the LEFT JOIN and FULL OUTER JOIN
/// strategies. Returns `(query, key_columns, all_columns)`.
///
/// The shape follows Listing 2: a CTE (`ivm_cte`) collapses ΔV per key with
/// sign-adjusted sums, then joins against the view table; each output
/// column merges the old and new partial states.
fn left_join_merge_query(
    analysis: &ViewAnalysis,
    full_outer: bool,
) -> Result<(Query, Vec<String>, Vec<String>), IvmError> {
    let view = analysis.view_name.clone();
    let delta_view = names::delta(&view);
    let key_cols = analysis.key_columns();
    let layout = view_table_layout(analysis);
    let all_cols: Vec<String> = layout.iter().map(|(n, _)| n.clone()).collect();
    let is_aggregate = matches!(
        analysis.class,
        ViewClass::GroupAggregate | ViewClass::JoinAggregate
    );

    // --- CTE body over ΔV.
    let mult = || Expr::col(MULTIPLICITY_COL);
    let mut cte_proj: Vec<SelectItem> = Vec::new();
    for k in &key_cols {
        cte_proj.push(SelectItem::expr(Expr::col(k.clone())));
    }
    if is_aggregate {
        for (i, agg) in analysis.aggs.iter().enumerate() {
            match agg.func {
                AggFunc::Sum | AggFunc::Count => cte_proj.push(SelectItem::aliased(
                    signed_sum(mult(), Expr::col(agg.name.clone())),
                    agg.name.clone(),
                )),
                AggFunc::Avg => {
                    cte_proj.push(SelectItem::aliased(
                        signed_sum(mult(), Expr::col(names::hidden_sum(i))),
                        names::hidden_sum(i),
                    ));
                    cte_proj.push(SelectItem::aliased(
                        signed_sum(mult(), Expr::col(names::hidden_cnt(i))),
                        names::hidden_cnt(i),
                    ));
                }
                AggFunc::Min => cte_proj.push(SelectItem::aliased(
                    inserted_extremum("min", mult(), Expr::col(agg.name.clone())),
                    agg.name.clone(),
                )),
                AggFunc::Max => cte_proj.push(SelectItem::aliased(
                    inserted_extremum("max", mult(), Expr::col(agg.name.clone())),
                    agg.name.clone(),
                )),
            }
        }
        cte_proj.push(SelectItem::aliased(
            signed_sum(mult(), Expr::col(COUNT_COL)),
            COUNT_COL,
        ));
    } else {
        // Projection views: the weight is the signed row count.
        cte_proj.push(SelectItem::aliased(
            fcall(
                "sum",
                vec![Expr::Case {
                    operand: None,
                    branches: vec![(mult().eq(Expr::boolean(false)), Expr::int(-1))],
                    else_result: Some(Box::new(Expr::int(1))),
                }],
            ),
            COUNT_COL,
        ));
    }
    let mut cte_select = Select::new(cte_proj);
    cte_select.from = vec![TableRef::table(delta_view.clone())];
    cte_select.group_by = key_cols.iter().map(|k| Expr::col(k.clone())).collect();
    let cte = Cte {
        name: Ident::new("ivm_cte"),
        query: Box::new(select_query(cte_select, vec![])),
    };

    // --- Outer merge select. Like Listing 2, the CTE is aliased with the
    // delta view's name; the view table keeps its own name.
    let d = delta_view.clone();
    let v = view.clone();
    let dcol = |c: &str| Expr::qcol(d.clone(), c.to_string());
    let vcol = |c: &str| Expr::qcol(v.clone(), c.to_string());

    let mut out_proj: Vec<SelectItem> = Vec::new();
    for (name, _ty) in &layout {
        if key_cols.contains(name) {
            let e = if full_outer {
                fcall("coalesce", vec![dcol(name), vcol(name)])
            } else {
                dcol(name)
            };
            out_proj.push(SelectItem::aliased(e, name.clone()));
            continue;
        }
        if name == COUNT_COL {
            out_proj.push(SelectItem::aliased(
                Expr::Binary {
                    left: Box::new(coalesce0(vcol(name))),
                    op: ivm_sql::ast::BinaryOp::Plus,
                    right: Box::new(coalesce0(dcol(name))),
                },
                name.clone(),
            ));
            continue;
        }
        // Aggregate / hidden columns.
        let agg = analysis.aggs.iter().enumerate().find(|(i, a)| {
            a.name == *name || names::hidden_sum(*i) == *name || names::hidden_cnt(*i) == *name
        });
        let expr = match agg {
            Some((i, info)) => match info.func {
                AggFunc::Sum | AggFunc::Count => Expr::Binary {
                    left: Box::new(coalesce0(vcol(name))),
                    op: ivm_sql::ast::BinaryOp::Plus,
                    right: Box::new(coalesce0(dcol(name))),
                },
                AggFunc::Avg if info.name == *name => {
                    // Visible AVG column: recomputed from merged hidden
                    // sum/count.
                    let sum_n = names::hidden_sum(i);
                    let cnt_n = names::hidden_cnt(i);
                    let merged_sum = Expr::Binary {
                        left: Box::new(coalesce0(vcol(&sum_n))),
                        op: ivm_sql::ast::BinaryOp::Plus,
                        right: Box::new(coalesce0(dcol(&sum_n))),
                    };
                    let merged_cnt = Expr::Binary {
                        left: Box::new(coalesce0(vcol(&cnt_n))),
                        op: ivm_sql::ast::BinaryOp::Plus,
                        right: Box::new(coalesce0(dcol(&cnt_n))),
                    };
                    Expr::Case {
                        operand: None,
                        branches: vec![(
                            merged_cnt.clone().eq(Expr::int(0)),
                            Expr::Literal(ivm_sql::ast::Literal::Null),
                        )],
                        else_result: Some(Box::new(Expr::Binary {
                            left: Box::new(merged_sum),
                            op: ivm_sql::ast::BinaryOp::Divide,
                            right: Box::new(merged_cnt),
                        })),
                    }
                }
                AggFunc::Avg => Expr::Binary {
                    // Hidden sum/count columns merge additively.
                    left: Box::new(coalesce0(vcol(name))),
                    op: ivm_sql::ast::BinaryOp::Plus,
                    right: Box::new(coalesce0(dcol(name))),
                },
                AggFunc::Min => fcall("least", vec![vcol(name), dcol(name)]),
                AggFunc::Max => fcall("greatest", vec![vcol(name), dcol(name)]),
            },
            None => {
                // Projection-view visible column.
                if full_outer {
                    fcall("coalesce", vec![dcol(name), vcol(name)])
                } else {
                    dcol(name)
                }
            }
        };
        out_proj.push(SelectItem::aliased(expr, name.clone()));
    }

    let join_kind = if full_outer {
        ivm_sql::ast::JoinKind::Full
    } else {
        ivm_sql::ast::JoinKind::Left
    };
    let mut outer = Select::new(out_proj);
    outer.from = vec![TableRef::Join {
        // `FROM ivm_cte AS delta_<view> LEFT JOIN <view> ON …` — Listing 2
        // re-uses the delta name as the CTE alias.
        left: Box::new(TableRef::aliased("ivm_cte", d.clone())),
        right: Box::new(TableRef::table(v.clone())),
        kind: join_kind,
        constraint: Some(conjoin_eq(&v, &d, &key_cols)),
    }];

    Ok((select_query(outer, vec![cte]), key_cols, all_cols))
}

/// Step-2 statements for the UNION-and-regroup strategy (aggregate views
/// only): fold the live view into ΔV with positive multiplicity, truncate,
/// and re-aggregate everything.
fn union_regroup_statements(analysis: &ViewAnalysis) -> Result<Vec<(String, Statement)>, IvmError> {
    let is_aggregate = matches!(
        analysis.class,
        ViewClass::GroupAggregate | ViewClass::JoinAggregate
    );
    if !is_aggregate {
        return Err(IvmError::unsupported(
            "the union_regroup strategy applies to aggregate views",
        ));
    }
    let view = analysis.view_name.clone();
    let delta_view = names::delta(&view);
    let key_cols = analysis.key_columns();

    // Fold V into ΔV (identity mapping by name; multiplicity TRUE).
    let delta_layout = delta_view_layout(analysis);
    let fold_proj: Vec<SelectItem> = delta_layout
        .iter()
        .map(|(name, _)| {
            if name == MULTIPLICITY_COL {
                SelectItem::aliased(Expr::boolean(true), MULTIPLICITY_COL)
            } else {
                SelectItem::expr(Expr::col(name.clone()))
            }
        })
        .collect();
    let mut fold = Select::new(fold_proj);
    fold.from = vec![TableRef::table(view.clone())];
    let fold_stmt = insert_stmt(&delta_view, select_query(fold, vec![]));

    // Re-aggregate ΔV into V.
    let mult = || Expr::col(MULTIPLICITY_COL);
    let mut proj: Vec<SelectItem> = Vec::new();
    for (name, _) in view_table_layout(analysis) {
        if key_cols.contains(&name) {
            proj.push(SelectItem::expr(Expr::col(name.clone())));
            continue;
        }
        if name == COUNT_COL {
            proj.push(SelectItem::aliased(
                signed_sum(mult(), Expr::col(COUNT_COL)),
                COUNT_COL,
            ));
            continue;
        }
        let agg = analysis.aggs.iter().enumerate().find(|(i, a)| {
            a.name == name || names::hidden_sum(*i) == name || names::hidden_cnt(*i) == name
        });
        let expr = match agg {
            Some((i, info)) => match info.func {
                AggFunc::Sum | AggFunc::Count => signed_sum(mult(), Expr::col(name.clone())),
                AggFunc::Avg if info.name == name => {
                    let s = signed_sum(mult(), Expr::col(names::hidden_sum(i)));
                    let c = signed_sum(mult(), Expr::col(names::hidden_cnt(i)));
                    Expr::Case {
                        operand: None,
                        branches: vec![(
                            c.clone().eq(Expr::int(0)),
                            Expr::Literal(ivm_sql::ast::Literal::Null),
                        )],
                        else_result: Some(Box::new(Expr::Binary {
                            left: Box::new(s),
                            op: ivm_sql::ast::BinaryOp::Divide,
                            right: Box::new(c),
                        })),
                    }
                }
                AggFunc::Avg => signed_sum(mult(), Expr::col(name.clone())),
                AggFunc::Min => inserted_extremum("min", mult(), Expr::col(name.clone())),
                AggFunc::Max => inserted_extremum("max", mult(), Expr::col(name.clone())),
            },
            None => Expr::col(name.clone()),
        };
        proj.push(SelectItem::aliased(expr, name));
    }
    let mut regroup = Select::new(proj);
    regroup.from = vec![TableRef::table(delta_view.clone())];
    regroup.group_by = key_cols.iter().map(|k| Expr::col(k.clone())).collect();
    let regroup_stmt = insert_stmt(&view, select_query(regroup, vec![]));

    Ok(vec![
        (
            format!("fold current {view} into {delta_view} (UNION regroup)"),
            fold_stmt,
        ),
        (format!("truncate {view}"), delete_stmt(&view, None)),
        (
            format!("re-aggregate {delta_view} into {view}"),
            regroup_stmt,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_view;
    use ivm_engine::Database;
    use ivm_sql::ast::Statement as Stmt;

    fn analysis(view_sql: &str) -> ViewAnalysis {
        let mut db = Database::new();
        db.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
            .unwrap();
        let q = match ivm_sql::parse_statement(view_sql).unwrap() {
            Stmt::Query(q) => q,
            _ => unreachable!(),
        };
        analyze_view("query_groups", &q, db.catalog()).unwrap()
    }

    const LISTING_1: &str = "SELECT group_index, SUM(group_value) AS total_value \
                             FROM groups GROUP BY group_index";

    #[test]
    fn listing_2_shape_left_join() {
        let script =
            generate_propagation(&analysis(LISTING_1), &IvmFlags::paper_defaults()).unwrap();
        let sql = script.to_sql(false);
        // Listing 2's landmarks, in order.
        let landmarks = [
            "INSERT INTO delta_query_groups",
            "GROUP BY delta_groups.group_index, delta_groups._duckdb_ivm_multiplicity",
            "INSERT OR REPLACE INTO query_groups",
            "WITH ivm_cte AS",
            "CASE WHEN _duckdb_ivm_multiplicity = FALSE THEN -total_value ELSE total_value END",
            "LEFT JOIN query_groups ON query_groups.group_index = delta_query_groups.group_index",
            "DELETE FROM query_groups WHERE _ivm_count = 0",
            "DELETE FROM delta_query_groups",
            "DELETE FROM delta_groups",
        ];
        let mut pos = 0;
        for l in landmarks {
            let at = sql[pos..]
                .find(l)
                .unwrap_or_else(|| panic!("missing {l:?} after byte {pos} in:\n{sql}"));
            pos += at;
        }
    }

    #[test]
    fn postgres_dialect_uses_on_conflict() {
        let script = generate_propagation(&analysis(LISTING_1), &IvmFlags::for_postgres()).unwrap();
        let sql = script.to_sql(false);
        assert!(!sql.contains("INSERT OR REPLACE"), "{sql}");
        assert!(
            sql.contains("ON CONFLICT (group_index) DO UPDATE SET total_value = excluded.total_value, _ivm_count = excluded._ivm_count"),
            "{sql}"
        );
    }

    #[test]
    fn union_regroup_has_fold_truncate_regroup() {
        let flags = IvmFlags {
            upsert_strategy: UpsertStrategy::UnionRegroup,
            ..IvmFlags::paper_defaults()
        };
        let script = generate_propagation(&analysis(LISTING_1), &flags).unwrap();
        let sql = script.to_sql(false);
        assert!(
            sql.contains(
                "INSERT INTO delta_query_groups SELECT group_index, total_value, _ivm_count, TRUE"
            ),
            "{sql}"
        );
        assert!(sql.contains("DELETE FROM query_groups;"), "{sql}");
        assert!(
            sql.contains("INSERT INTO query_groups SELECT group_index, sum(CASE"),
            "{sql}"
        );
    }

    #[test]
    fn full_outer_join_uses_stage() {
        let flags = IvmFlags {
            upsert_strategy: UpsertStrategy::FullOuterJoin,
            ..IvmFlags::paper_defaults()
        };
        let script = generate_propagation(&analysis(LISTING_1), &flags).unwrap();
        let sql = script.to_sql(false);
        assert!(sql.contains("DELETE FROM _ivm_stage_query_groups"), "{sql}");
        assert!(sql.contains("FULL JOIN query_groups"), "{sql}");
        assert!(
            sql.contains("coalesce(delta_query_groups.group_index, query_groups.group_index)"),
            "{sql}"
        );
        assert!(sql.contains("WHERE _ivm_count <> 0"), "{sql}");
    }

    #[test]
    fn min_max_adds_recompute_steps() {
        let a =
            analysis("SELECT group_index, MIN(group_value) AS lo FROM groups GROUP BY group_index");
        let script = generate_propagation(&a, &IvmFlags::paper_defaults()).unwrap();
        let sql = script.to_sql(false);
        assert!(
            sql.contains("DELETE FROM query_groups WHERE group_index IN (SELECT DISTINCT group_index FROM delta_query_groups WHERE _duckdb_ivm_multiplicity = FALSE)"),
            "{sql}"
        );
        assert!(sql.contains("min(groups.group_value) AS lo"), "{sql}");
    }

    #[test]
    fn simple_view_counts_rows() {
        let a = analysis("SELECT group_index FROM groups WHERE group_value > 0");
        let script = generate_propagation(&a, &IvmFlags::paper_defaults()).unwrap();
        let sql = script.to_sql(false);
        assert!(
            sql.contains(
                "sum(CASE WHEN _duckdb_ivm_multiplicity = FALSE THEN -1 ELSE 1 END) AS _ivm_count"
            ),
            "{sql}"
        );
    }

    #[test]
    fn comments_render_step_numbers() {
        let script =
            generate_propagation(&analysis(LISTING_1), &IvmFlags::paper_defaults()).unwrap();
        let sql = script.to_sql(true);
        assert!(sql.contains("-- Step 1:"));
        assert!(sql.contains("-- Step 4:"));
    }

    #[test]
    fn statements_parse_back() {
        for flags in [
            IvmFlags::paper_defaults(),
            IvmFlags::for_postgres(),
            IvmFlags {
                upsert_strategy: UpsertStrategy::UnionRegroup,
                ..IvmFlags::paper_defaults()
            },
            IvmFlags {
                upsert_strategy: UpsertStrategy::FullOuterJoin,
                ..IvmFlags::paper_defaults()
            },
        ] {
            let script = generate_propagation(&analysis(LISTING_1), &flags).unwrap();
            for stmt in script.statements() {
                ivm_sql::parse_statement(&stmt)
                    .unwrap_or_else(|e| panic!("generated SQL does not re-parse: {e}\n{stmt}"));
            }
        }
    }
}
