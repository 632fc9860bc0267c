//! Name resolution: AST expressions → [`BoundExpr`].

use ivm_sql::ast::{BinaryOp, Expr, Literal};

use crate::error::EngineError;
use crate::expr::{BoundExpr, ScalarFunc};
use crate::planner::QueryBinder;
use crate::schema::Schema;
use crate::types::DataType;
use crate::value::Value;

/// One column visible to the binder.
#[derive(Debug, Clone)]
pub struct BindColumn {
    /// Table name or alias the column is reachable through.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Static type, when known.
    pub ty: Option<DataType>,
}

/// The set of columns visible while binding an expression: the
/// concatenated outputs of the FROM-clause relations.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Visible columns in input-row order.
    pub columns: Vec<BindColumn>,
}

impl Scope {
    /// Empty scope (constant expressions only).
    pub fn empty() -> Scope {
        Scope::default()
    }

    /// The columns of `schema`, each reachable through `qualifier`.
    pub fn of(qualifier: &str, schema: &Schema) -> Scope {
        let columns = schema.columns.iter().map(|c| BindColumn {
            qualifier: Some(qualifier.to_string()),
            name: c.name.clone(),
            ty: Some(c.ty),
        });
        Scope {
            columns: columns.collect(),
        }
    }

    /// Concatenate two scopes (join output order: left then right).
    pub fn join(mut self, right: Scope) -> Scope {
        self.columns.extend(right.columns);
        self
    }

    /// Resolve a possibly-qualified name to a column position.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, EngineError> {
        let mut found = None;
        for (i, col) in self.columns.iter().enumerate() {
            let qual_ok = match qualifier {
                None => true,
                Some(q) => col.qualifier.as_deref() == Some(q),
            };
            if qual_ok && col.name == name {
                if found.is_some() {
                    return Err(EngineError::bind(format!("ambiguous column name {name}")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| match qualifier {
            Some(q) => EngineError::bind(format!("unknown column {q}.{name}")),
            None => EngineError::bind(format!("unknown column {name}")),
        })
    }
}

/// Bind an AST expression against a scope, without subquery support.
/// Aggregate calls are rejected — the planner extracts them first.
pub fn bind_expr(expr: &Expr, scope: &Scope) -> Result<BoundExpr, EngineError> {
    bind_expr_with(expr, scope, None)
}

/// Bind an AST expression against a scope. `binder`, the statement's,
/// plans each uncorrelated `IN (subquery)` body into its subquery list
/// and types the [`Expr::Param`] slots a plan template takes; without it
/// both are rejected.
pub(crate) fn bind_expr_with(
    expr: &Expr,
    scope: &Scope,
    mut binder: Option<&mut QueryBinder<'_>>,
) -> Result<BoundExpr, EngineError> {
    match expr {
        Expr::Literal(lit) => Ok(BoundExpr::Literal(bind_literal(lit)?)),
        Expr::Param(slot) => match binder.and_then(|b| b.params.get(*slot)) {
            Some(ty) => Ok(BoundExpr::Param {
                slot: *slot,
                ty: *ty,
            }),
            None => Err(EngineError::bind(format!(
                "no value for parameter ${}",
                slot + 1
            ))),
        },
        Expr::Column(c) => {
            let qualifier = c.table.as_ref().map(|t| t.normalized().to_string());
            let index = scope.resolve(qualifier.as_deref(), c.column.normalized())?;
            Ok(BoundExpr::Column {
                index,
                ty: scope.columns[index].ty,
                name: c.column.normalized().to_string(),
            })
        }
        Expr::Binary { left, op, right } => {
            let l = bind_expr_with(left, scope, binder.as_deref_mut())?;
            let r = bind_expr_with(right, scope, binder.as_deref_mut())?;
            check_binary_types(*op, &l, &r)?;
            Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(l),
                right: Box::new(r),
            })
        }
        Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind_expr_with(expr, scope, binder.as_deref_mut())?),
        }),
        Expr::Function {
            name,
            args,
            distinct,
            star,
        } => {
            let fname = name.normalized();
            if crate::expr::AggFunc::is_aggregate_name(fname) {
                return Err(EngineError::bind(format!(
                    "aggregate function {fname} is not allowed here"
                )));
            }
            if *star || *distinct {
                return Err(EngineError::bind(format!(
                    "invalid use of * or DISTINCT in scalar function {fname}"
                )));
            }
            let func = ScalarFunc::lookup(fname)
                .ok_or_else(|| EngineError::bind(format!("unknown function {fname}")))?;
            let bound: Vec<BoundExpr> = args
                .iter()
                .map(|a| bind_expr_with(a, scope, binder.as_deref_mut()))
                .collect::<Result<_, _>>()?;
            let (min, max) = func.arity();
            if bound.len() < min || bound.len() > max {
                return Err(EngineError::bind(format!(
                    "function {fname} expects {min}..{} arguments, got {}",
                    if max == usize::MAX {
                        "N".to_string()
                    } else {
                        max.to_string()
                    },
                    bound.len()
                )));
            }
            Ok(BoundExpr::ScalarFn { func, args: bound })
        }
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            // Desugar `CASE x WHEN v …` into `CASE WHEN x = v …`.
            let mut bound_branches = Vec::with_capacity(branches.len());
            for (when, then) in branches {
                let when_bound = match operand {
                    Some(op) => {
                        let l = bind_expr_with(op, scope, binder.as_deref_mut())?;
                        let r = bind_expr_with(when, scope, binder.as_deref_mut())?;
                        BoundExpr::Binary {
                            op: BinaryOp::Eq,
                            left: Box::new(l),
                            right: Box::new(r),
                        }
                    }
                    None => bind_expr_with(when, scope, binder.as_deref_mut())?,
                };
                bound_branches.push((
                    when_bound,
                    bind_expr_with(then, scope, binder.as_deref_mut())?,
                ));
            }
            let else_bound = match else_result {
                Some(e) => Some(Box::new(bind_expr_with(e, scope, binder.as_deref_mut())?)),
                None => None,
            };
            Ok(BoundExpr::Case {
                branches: bound_branches,
                else_result: else_bound,
            })
        }
        Expr::Cast { expr, ty } => Ok(BoundExpr::Cast {
            expr: Box::new(bind_expr_with(expr, scope, binder.as_deref_mut())?),
            ty: DataType::from(*ty),
        }),
        Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
            expr: Box::new(bind_expr_with(expr, scope, binder.as_deref_mut())?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(BoundExpr::InList {
            expr: Box::new(bind_expr_with(expr, scope, binder.as_deref_mut())?),
            list: list
                .iter()
                .map(|e| bind_expr_with(e, scope, binder.as_deref_mut()))
                .collect::<Result<_, _>>()?,
            negated: *negated,
        }),
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let Some(binder) = binder else {
                return Err(EngineError::unsupported(
                    "IN (subquery) is not allowed in this context",
                ));
            };
            let subquery = binder.plan_subquery(query)?;
            Ok(BoundExpr::InSubquery {
                expr: Box::new(bind_expr_with(expr, scope, Some(binder))?),
                subquery,
                negated: *negated,
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // Desugar into conjunction of comparisons.
            let e = bind_expr_with(expr, scope, binder.as_deref_mut())?;
            let lo = bind_expr_with(low, scope, binder.as_deref_mut())?;
            let hi = bind_expr_with(high, scope, binder.as_deref_mut())?;
            let ge = BoundExpr::Binary {
                op: BinaryOp::GtEq,
                left: Box::new(e.clone()),
                right: Box::new(lo),
            };
            let le = BoundExpr::Binary {
                op: BinaryOp::LtEq,
                left: Box::new(e),
                right: Box::new(hi),
            };
            let both = BoundExpr::Binary {
                op: BinaryOp::And,
                left: Box::new(ge),
                right: Box::new(le),
            };
            Ok(if *negated {
                BoundExpr::Unary {
                    op: ivm_sql::ast::UnaryOp::Not,
                    expr: Box::new(both),
                }
            } else {
                both
            })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(BoundExpr::Like {
            expr: Box::new(bind_expr_with(expr, scope, binder.as_deref_mut())?),
            pattern: Box::new(bind_expr_with(pattern, scope, binder)?),
            negated: *negated,
        }),
    }
}

/// Parse a literal into a runtime value. Integer lexemes that fit i64 stay
/// INTEGER; everything else numeric becomes DOUBLE.
pub fn bind_literal(lit: &Literal) -> Result<Value, EngineError> {
    Ok(match lit {
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Boolean(*b),
        Literal::String(s) => Value::Varchar(s.clone()),
        Literal::Number(n) => {
            if !n.contains(['.', 'e', 'E']) {
                if let Ok(i) = n.parse::<i64>() {
                    return Ok(Value::Integer(i));
                }
            }
            let d: f64 = n
                .parse()
                .map_err(|_| EngineError::bind(format!("invalid numeric literal {n}")))?;
            Value::Double(d)
        }
    })
}

/// Bind-time sanity checks for binary operators (best effort: unknown types
/// pass through and are re-checked at runtime).
fn check_binary_types(op: BinaryOp, l: &BoundExpr, r: &BoundExpr) -> Result<(), EngineError> {
    let (Some(lt), Some(rt)) = (l.ty(), r.ty()) else {
        return Ok(());
    };
    let ok = match op {
        BinaryOp::And | BinaryOp::Or => lt == DataType::Boolean && rt == DataType::Boolean,
        BinaryOp::Plus
        | BinaryOp::Minus
        | BinaryOp::Multiply
        | BinaryOp::Divide
        | BinaryOp::Modulo => {
            (lt.is_numeric() && rt.is_numeric())
                || (lt == DataType::Date && rt == DataType::Integer)
                || (lt == DataType::Integer && rt == DataType::Date)
        }
        BinaryOp::Concat => true,
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => lt == rt || (lt.is_numeric() && rt.is_numeric()),
    };
    if ok {
        Ok(())
    } else {
        Err(EngineError::bind(format!(
            "operator {} not defined for {lt} and {rt}",
            op.as_str()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_sql::ast::{SelectItem, SetExpr, Statement};
    use ivm_sql::parse_statement;

    fn parse_expr(sql: &str) -> Expr {
        match parse_statement(&format!("SELECT {sql}")).unwrap() {
            Statement::Query(q) => match q.body {
                SetExpr::Select(s) => match s.projection.into_iter().next().unwrap() {
                    SelectItem::Expr { expr, .. } => expr,
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    fn scope() -> Scope {
        Scope {
            columns: vec![
                BindColumn {
                    qualifier: Some("t".into()),
                    name: "a".into(),
                    ty: Some(DataType::Integer),
                },
                BindColumn {
                    qualifier: Some("t".into()),
                    name: "b".into(),
                    ty: Some(DataType::Varchar),
                },
                BindColumn {
                    qualifier: Some("u".into()),
                    name: "a".into(),
                    ty: Some(DataType::Double),
                },
            ],
        }
    }

    #[test]
    fn resolve_qualified_and_ambiguous() {
        let s = scope();
        assert_eq!(s.resolve(Some("t"), "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("u"), "a").unwrap(), 2);
        assert_eq!(s.resolve(None, "b").unwrap(), 1);
        assert!(s.resolve(None, "a").is_err(), "ambiguous");
        assert!(s.resolve(None, "zz").is_err(), "unknown");
        assert!(s.resolve(Some("x"), "a").is_err(), "unknown qualifier");
    }

    #[test]
    fn bind_column_types() {
        let b = bind_expr(&parse_expr("t.a + 1"), &scope()).unwrap();
        assert_eq!(b.ty(), Some(DataType::Integer));
        let b = bind_expr(&parse_expr("u.a + 1"), &scope()).unwrap();
        assert_eq!(b.ty(), Some(DataType::Double));
    }

    #[test]
    fn between_desugars() {
        let b = bind_expr(&parse_expr("t.a BETWEEN 1 AND 5"), &scope()).unwrap();
        assert!(matches!(
            b,
            BoundExpr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn operand_case_desugars() {
        let b = bind_expr(&parse_expr("CASE t.b WHEN 'x' THEN 1 ELSE 0 END"), &scope()).unwrap();
        match b {
            BoundExpr::Case { branches, .. } => {
                assert!(matches!(
                    branches[0].0,
                    BoundExpr::Binary {
                        op: BinaryOp::Eq,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregates_rejected() {
        assert!(bind_expr(&parse_expr("SUM(t.a)"), &scope()).is_err());
    }

    #[test]
    fn unknown_function_rejected() {
        assert!(bind_expr(&parse_expr("frobnicate(t.a)"), &scope()).is_err());
    }

    #[test]
    fn type_errors_detected() {
        assert!(bind_expr(&parse_expr("t.b + 1"), &scope()).is_err());
        assert!(bind_expr(&parse_expr("t.a AND TRUE"), &scope()).is_err());
        assert!(bind_expr(&parse_expr("t.a = t.b"), &scope()).is_err());
    }

    #[test]
    fn literals() {
        assert_eq!(
            bind_literal(&Literal::Number("42".into())).unwrap(),
            Value::Integer(42)
        );
        assert_eq!(
            bind_literal(&Literal::Number("2.5".into())).unwrap(),
            Value::Double(2.5)
        );
        assert_eq!(
            bind_literal(&Literal::Number("1e3".into())).unwrap(),
            Value::Double(1000.0)
        );
        // Over-large integers fall back to double.
        assert_eq!(
            bind_literal(&Literal::Number("99999999999999999999".into())).unwrap(),
            Value::Double(1e20)
        );
    }

    #[test]
    fn arity_enforced() {
        assert!(bind_expr(&parse_expr("abs(1, 2)"), &scope()).is_err());
        assert!(bind_expr(&parse_expr("coalesce()"), &Scope::empty()).is_err());
    }
}
