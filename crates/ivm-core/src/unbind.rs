//! Lowering bound (index-based) expressions back to named AST expressions.
//!
//! The OpenIVM rewrite operates on the engine's logical plan, whose
//! expressions reference columns by position. To emit SQL we substitute
//! each position with a (usually qualified) column reference supplied by
//! the surrounding DuckAST frame.

use ivm_engine::expr::{BoundExpr, ScalarFunc};
use ivm_engine::{DataType, Value};
use ivm_sql::ast::{Expr, Literal, TypeName};
use ivm_sql::Ident;

use crate::error::IvmError;

/// Rebuild an AST expression from a bound expression, mapping column index
/// `i` to `cols[i]`.
pub fn unbind(expr: &BoundExpr, cols: &[Expr]) -> Result<Expr, IvmError> {
    Ok(match expr {
        BoundExpr::Literal(v) => Expr::Literal(unbind_value(v)),
        BoundExpr::Param { slot, .. } => Expr::Param(*slot),
        BoundExpr::Column { index, .. } => cols
            .get(*index)
            .cloned()
            .ok_or_else(|| IvmError::Engine(format!("column {index} out of range in unbind")))?,
        BoundExpr::Binary { op, left, right } => Expr::Binary {
            left: Box::new(unbind(left, cols)?),
            op: *op,
            right: Box::new(unbind(right, cols)?),
        },
        BoundExpr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(unbind(expr, cols)?),
        },
        BoundExpr::Case {
            branches,
            else_result,
        } => Expr::Case {
            operand: None,
            branches: branches
                .iter()
                .map(|(w, t)| Ok((unbind(w, cols)?, unbind(t, cols)?)))
                .collect::<Result<_, IvmError>>()?,
            else_result: match else_result {
                Some(e) => Some(Box::new(unbind(e, cols)?)),
                None => None,
            },
        },
        BoundExpr::Cast { expr, ty } => Expr::Cast {
            expr: Box::new(unbind(expr, cols)?),
            ty: type_name(*ty),
        },
        BoundExpr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(unbind(expr, cols)?),
            negated: *negated,
        },
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(unbind(expr, cols)?),
            list: list
                .iter()
                .map(|e| unbind(e, cols))
                .collect::<Result<_, _>>()?,
            negated: *negated,
        },
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(unbind(expr, cols)?),
            pattern: Box::new(unbind(pattern, cols)?),
            negated: *negated,
        },
        BoundExpr::ScalarFn { func, args } => Expr::Function {
            name: Ident::new(scalar_name(*func)),
            args: args
                .iter()
                .map(|e| unbind(e, cols))
                .collect::<Result<_, _>>()?,
            distinct: false,
            star: false,
        },
        // A view's plan carries its subquery bodies at the root, and
        // `analyze` refuses such a view before expressions are unbound;
        // an `InSet` exists only in an instantiated physical plan.
        BoundExpr::InSubquery { .. } | BoundExpr::InSet { .. } => {
            return Err(IvmError::unsupported("subqueries in view expressions"));
        }
    })
}

fn unbind_value(v: &Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Boolean(b) => Literal::Boolean(*b),
        Value::Integer(i) => Literal::Number(i.to_string()),
        Value::Double(d) => {
            // Keep a decimal point so the literal re-binds as DOUBLE.
            let s = format!("{d}");
            if s.contains(['.', 'e', 'E', 'n', 'i']) {
                Literal::Number(s)
            } else {
                Literal::Number(format!("{s}.0"))
            }
        }
        Value::Varchar(s) => Literal::String(s.clone()),
        Value::Date(d) => Literal::String(ivm_engine::value::format_date(*d)),
    }
}

fn type_name(t: DataType) -> TypeName {
    t.into()
}

fn scalar_name(f: ScalarFunc) -> &'static str {
    f.name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_sql::ast::BinaryOp;
    use ivm_sql::{print_expr, Dialect};

    #[test]
    fn unbind_round_trips_named_sql() {
        // (c0 > 5) AND coalesce(c1, 0) = 0, with c0 → t.a, c1 → t.b
        let bound = BoundExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(BoundExpr::Binary {
                op: BinaryOp::Gt,
                left: Box::new(BoundExpr::Column {
                    index: 0,
                    ty: None,
                    name: "a".into(),
                }),
                right: Box::new(BoundExpr::Literal(Value::Integer(5))),
            }),
            right: Box::new(BoundExpr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(BoundExpr::ScalarFn {
                    func: ScalarFunc::Coalesce,
                    args: vec![
                        BoundExpr::Column {
                            index: 1,
                            ty: None,
                            name: "b".into(),
                        },
                        BoundExpr::Literal(Value::Integer(0)),
                    ],
                }),
                right: Box::new(BoundExpr::Literal(Value::Integer(0))),
            }),
        };
        let cols = vec![Expr::qcol("t", "a"), Expr::qcol("t", "b")];
        let ast = unbind(&bound, &cols).unwrap();
        assert_eq!(
            print_expr(&ast, Dialect::DuckDb),
            "t.a > 5 AND coalesce(t.b, 0) = 0"
        );
    }

    #[test]
    fn doubles_keep_decimal_point() {
        let b = BoundExpr::Literal(Value::Double(2.0));
        let ast = unbind(&b, &[]).unwrap();
        assert_eq!(print_expr(&ast, Dialect::DuckDb), "2.0");
    }

    #[test]
    fn out_of_range_column_errors() {
        let b = BoundExpr::Column {
            index: 3,
            ty: None,
            name: "x".into(),
        };
        assert!(unbind(&b, &[]).is_err());
    }
}
