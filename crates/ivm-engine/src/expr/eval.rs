//! Expression evaluation with SQL NULL semantics.

use ivm_sql::ast::{BinaryOp, UnaryOp};

use crate::error::EngineError;
use crate::expr::{BoundExpr, ScalarFunc};
use crate::types::DataType;
use crate::value::{Tuple, Value};

impl BoundExpr {
    /// Evaluate against one input row.
    ///
    /// Generic over [`Tuple`] so rows inside a columnar batch evaluate
    /// in place, without being gathered into a `Vec<Value>` first.
    pub fn eval<R: Tuple + ?Sized>(&self, row: &R) -> Result<Value, EngineError> {
        match self {
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Param { slot, .. } => Err(EngineError::execution(format!(
                "parameter ${} has no value",
                slot + 1
            ))),
            BoundExpr::Column { index, .. } => row.col(*index).cloned().ok_or_else(|| {
                EngineError::execution(format!("column index {index} out of range"))
            }),
            BoundExpr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Boolean(b) => Ok(Value::Boolean(!b)),
                        other => Err(EngineError::execution(format!("NOT applied to {other}"))),
                    },
                    UnaryOp::Minus => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Integer(i) => i
                            .checked_neg()
                            .map(Value::Integer)
                            .ok_or_else(|| EngineError::execution("integer overflow in negation")),
                        Value::Double(d) => Ok(Value::Double(-d)),
                        other => Err(EngineError::execution(format!("- applied to {other}"))),
                    },
                    UnaryOp::Plus => Ok(v),
                }
            }
            BoundExpr::Case {
                branches,
                else_result,
            } => {
                for (when, then) in branches {
                    if when.eval(row)?.as_bool() == Some(true) {
                        return then.eval(row);
                    }
                }
                match else_result {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::Cast { expr, ty } => expr.eval(row)?.cast(*ty),
            BoundExpr::IsNull { expr, negated } => {
                let isnull = expr.eval(row)?.is_null();
                Ok(Value::Boolean(isnull != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let probe = expr.eval(row)?;
                if probe.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for candidate in list {
                    let v = candidate.eval(row)?;
                    if v.is_null() {
                        saw_null = true;
                    } else if sql_equal(&probe, &v)? {
                        return Ok(Value::Boolean(!negated));
                    }
                }
                // SQL three-valued IN: no match but NULL present → NULL.
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Boolean(*negated))
                }
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let s = expr.eval(row)?;
                let p = pattern.eval(row)?;
                match (s, p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Varchar(s), Value::Varchar(p)) => {
                        Ok(Value::Boolean(like_match(&s, &p) != *negated))
                    }
                    (a, b) => Err(EngineError::execution(format!(
                        "LIKE applied to {a} and {b}"
                    ))),
                }
            }
            BoundExpr::ScalarFn { func, args } => eval_scalar_fn(*func, args, row),
            BoundExpr::InSubquery { .. } => Err(EngineError::execution(
                "IN (subquery) must be instantiated before evaluation",
            )),
            BoundExpr::InSet {
                expr,
                set,
                has_null,
                negated,
            } => {
                let probe = expr.eval(row)?;
                if probe.is_null() {
                    return Ok(Value::Null);
                }
                if set.contains(&probe) {
                    Ok(Value::Boolean(!negated))
                } else if *has_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Boolean(*negated))
                }
            }
        }
    }
}

fn eval_binary<R: Tuple + ?Sized>(
    op: BinaryOp,
    left: &BoundExpr,
    right: &BoundExpr,
    row: &R,
) -> Result<Value, EngineError> {
    // AND/OR get Kleene logic (must not early-evaluate NULL as false).
    match op {
        BinaryOp::And => {
            let l = left.eval(row)?;
            if l.as_bool() == Some(false) {
                return Ok(Value::Boolean(false));
            }
            let r = right.eval(row)?;
            return Ok(match (l.as_bool(), r.as_bool()) {
                (_, Some(false)) => Value::Boolean(false),
                (Some(true), Some(true)) => Value::Boolean(true),
                _ => Value::Null,
            });
        }
        BinaryOp::Or => {
            let l = left.eval(row)?;
            if l.as_bool() == Some(true) {
                return Ok(Value::Boolean(true));
            }
            let r = right.eval(row)?;
            return Ok(match (l.as_bool(), r.as_bool()) {
                (_, Some(true)) => Value::Boolean(true),
                (Some(false), Some(false)) => Value::Boolean(false),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    let l = left.eval(row)?;
    let r = right.eval(row)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinaryOp::Eq => Ok(Value::Boolean(sql_equal(&l, &r)?)),
        BinaryOp::NotEq => Ok(Value::Boolean(!sql_equal(&l, &r)?)),
        BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
            let ord = sql_compare(&l, &r)?;
            Ok(Value::Boolean(match op {
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::LtEq => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::GtEq => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        BinaryOp::Concat => {
            let ls = l.cast(DataType::Varchar)?;
            let rs = r.cast(DataType::Varchar)?;
            Ok(Value::Varchar(format!(
                "{}{}",
                ls.as_str().unwrap_or_default(),
                rs.as_str().unwrap_or_default()
            )))
        }
        BinaryOp::Plus
        | BinaryOp::Minus
        | BinaryOp::Multiply
        | BinaryOp::Divide
        | BinaryOp::Modulo => eval_arith(op, &l, &r),
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

pub(crate) fn eval_arith(op: BinaryOp, l: &Value, r: &Value) -> Result<Value, EngineError> {
    // DATE ± INTEGER arithmetic.
    if let (Value::Date(d), Value::Integer(i)) = (l, r) {
        return match op {
            BinaryOp::Plus => Ok(Value::Date(d + *i as i32)),
            BinaryOp::Minus => Ok(Value::Date(d - *i as i32)),
            _ => Err(EngineError::execution("unsupported DATE arithmetic")),
        };
    }
    if let (Value::Integer(i), Value::Date(d)) = (l, r) {
        return match op {
            BinaryOp::Plus => Ok(Value::Date(d + *i as i32)),
            _ => Err(EngineError::execution("unsupported DATE arithmetic")),
        };
    }
    match (l, r) {
        (Value::Integer(a), Value::Integer(b)) => {
            let (a, b) = (*a, *b);
            let out = match op {
                BinaryOp::Plus => a.checked_add(b),
                BinaryOp::Minus => a.checked_sub(b),
                BinaryOp::Multiply => a.checked_mul(b),
                BinaryOp::Divide => {
                    if b == 0 {
                        return Err(EngineError::execution("division by zero"));
                    }
                    a.checked_div(b)
                }
                BinaryOp::Modulo => {
                    if b == 0 {
                        return Err(EngineError::execution("modulo by zero"));
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Integer)
                .ok_or_else(|| EngineError::execution("integer overflow"))
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(EngineError::execution(format!(
                    "arithmetic on non-numeric values {l} and {r}"
                )));
            };
            let out = match op {
                BinaryOp::Plus => a + b,
                BinaryOp::Minus => a - b,
                BinaryOp::Multiply => a * b,
                BinaryOp::Divide => {
                    if b == 0.0 {
                        return Err(EngineError::execution("division by zero"));
                    }
                    a / b
                }
                BinaryOp::Modulo => {
                    if b == 0.0 {
                        return Err(EngineError::execution("modulo by zero"));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Double(out))
        }
    }
}

/// SQL equality for non-NULL operands.
pub(crate) fn sql_equal(l: &Value, r: &Value) -> Result<bool, EngineError> {
    Ok(sql_compare(l, r)?.is_eq())
}

/// SQL ordering for non-NULL operands of compatible types.
pub(crate) fn sql_compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering, EngineError> {
    let compatible = match (l.data_type(), r.data_type()) {
        (Some(a), Some(b)) => a == b || (a.is_numeric() && b.is_numeric()),
        _ => true,
    };
    if !compatible {
        return Err(EngineError::execution(format!(
            "cannot compare {l} with {r}"
        )));
    }
    Ok(l.total_cmp(r))
}

fn eval_scalar_fn<R: Tuple + ?Sized>(
    func: ScalarFunc,
    args: &[BoundExpr],
    row: &R,
) -> Result<Value, EngineError> {
    match func {
        ScalarFunc::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::NullIf => {
            let a = args[0].eval(row)?;
            let b = args[1].eval(row)?;
            if !a.is_null() && !b.is_null() && sql_equal(&a, &b)? {
                Ok(Value::Null)
            } else {
                Ok(a)
            }
        }
        ScalarFunc::Abs => match args[0].eval(row)? {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => i
                .checked_abs()
                .map(Value::Integer)
                .ok_or_else(|| EngineError::execution("integer overflow in abs")),
            Value::Double(d) => Ok(Value::Double(d.abs())),
            other => Err(EngineError::execution(format!("abs applied to {other}"))),
        },
        ScalarFunc::Lower | ScalarFunc::Upper => match args[0].eval(row)? {
            Value::Null => Ok(Value::Null),
            Value::Varchar(s) => Ok(Value::Varchar(if func == ScalarFunc::Lower {
                s.to_lowercase()
            } else {
                s.to_uppercase()
            })),
            other => Err(EngineError::execution(format!(
                "{} applied to {other}",
                func.name()
            ))),
        },
        ScalarFunc::Length => match args[0].eval(row)? {
            Value::Null => Ok(Value::Null),
            Value::Varchar(s) => Ok(Value::Integer(s.chars().count() as i64)),
            other => Err(EngineError::execution(format!("length applied to {other}"))),
        },
        ScalarFunc::Round | ScalarFunc::Floor | ScalarFunc::Ceil => {
            let v = args[0].eval(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let d = v
                .as_f64()
                .ok_or_else(|| EngineError::execution(format!("{} applied to {v}", func.name())))?;
            Ok(Value::Double(match func {
                ScalarFunc::Round => d.round(),
                ScalarFunc::Floor => d.floor(),
                ScalarFunc::Ceil => d.ceil(),
                _ => unreachable!(),
            }))
        }
        ScalarFunc::Greatest | ScalarFunc::Least => {
            let mut best: Option<Value> = None;
            for a in args {
                let v = a.eval(row)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(cur) => {
                        let keep_new = if func == ScalarFunc::Greatest {
                            sql_compare(&v, &cur)?.is_gt()
                        } else {
                            sql_compare(&v, &cur)?.is_lt()
                        };
                        if keep_new {
                            v
                        } else {
                            cur
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        ScalarFunc::Left | ScalarFunc::Right => {
            let s = args[0].eval(row)?;
            let n = args[1].eval(row)?;
            match (s, n) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Varchar(s), Value::Integer(n)) => {
                    let n = n.max(0) as usize;
                    let chars: Vec<char> = s.chars().collect();
                    let out: String = if func == ScalarFunc::Left {
                        chars.iter().take(n).collect()
                    } else {
                        chars.iter().skip(chars.len().saturating_sub(n)).collect()
                    };
                    Ok(Value::Varchar(out))
                }
                (a, b) => Err(EngineError::execution(format!(
                    "{} applied to {a} and {b}",
                    func.name()
                ))),
            }
        }
        ScalarFunc::Concat => {
            let mut out = String::new();
            for a in args {
                let v = a.eval(row)?;
                if v.is_null() {
                    continue;
                }
                let s = v.cast(DataType::Varchar)?;
                out.push_str(s.as_str().unwrap_or_default());
            }
            Ok(Value::Varchar(out))
        }
    }
}

/// SQL LIKE matching: `%` matches any run, `_` matches one character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=s.len()).any(|skip| rec(&s[skip..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn null() -> BoundExpr {
        BoundExpr::Literal(Value::Null)
    }

    fn bin(op: BinaryOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn ev(e: &BoundExpr) -> Value {
        e.eval(&[]).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            ev(&bin(BinaryOp::Plus, lit(2i64), lit(3i64))),
            Value::Integer(5)
        );
        assert_eq!(
            ev(&bin(BinaryOp::Multiply, lit(2.5), lit(2i64))),
            Value::Double(5.0)
        );
        assert_eq!(
            ev(&bin(BinaryOp::Divide, lit(7i64), lit(2i64))),
            Value::Integer(3)
        );
        assert_eq!(
            ev(&bin(BinaryOp::Modulo, lit(7i64), lit(2i64))),
            Value::Integer(1)
        );
        assert!(bin(BinaryOp::Divide, lit(1i64), lit(0i64))
            .eval(&[])
            .is_err());
        assert!(bin(BinaryOp::Plus, lit(i64::MAX), lit(1i64))
            .eval(&[])
            .is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(ev(&bin(BinaryOp::Plus, null(), lit(1i64))), Value::Null);
        assert_eq!(ev(&bin(BinaryOp::Eq, null(), null())), Value::Null);
        assert_eq!(ev(&bin(BinaryOp::Lt, lit(1i64), null())), Value::Null);
    }

    #[test]
    fn kleene_and_or() {
        let t = || lit(true);
        let f = || lit(false);
        assert_eq!(ev(&bin(BinaryOp::And, f(), null())), Value::Boolean(false));
        assert_eq!(ev(&bin(BinaryOp::And, null(), f())), Value::Boolean(false));
        assert_eq!(ev(&bin(BinaryOp::And, t(), null())), Value::Null);
        assert_eq!(ev(&bin(BinaryOp::Or, t(), null())), Value::Boolean(true));
        assert_eq!(ev(&bin(BinaryOp::Or, null(), t())), Value::Boolean(true));
        assert_eq!(ev(&bin(BinaryOp::Or, f(), null())), Value::Null);
    }

    #[test]
    fn comparisons_cross_numeric() {
        assert_eq!(
            ev(&bin(BinaryOp::Eq, lit(2i64), lit(2.0))),
            Value::Boolean(true)
        );
        assert_eq!(
            ev(&bin(BinaryOp::Lt, lit(2i64), lit(2.5))),
            Value::Boolean(true)
        );
        assert!(bin(BinaryOp::Eq, lit(1i64), lit("x")).eval(&[]).is_err());
    }

    #[test]
    fn case_evaluation() {
        // The paper's multiplicity pattern:
        // CASE WHEN m = FALSE THEN -v ELSE v END
        let m = BoundExpr::Column {
            index: 0,
            ty: Some(DataType::Boolean),
            name: "m".into(),
        };
        let v = BoundExpr::Column {
            index: 1,
            ty: Some(DataType::Integer),
            name: "v".into(),
        };
        let e = BoundExpr::Case {
            branches: vec![(
                bin(BinaryOp::Eq, m, lit(false)),
                BoundExpr::Unary {
                    op: UnaryOp::Minus,
                    expr: Box::new(v.clone()),
                },
            )],
            else_result: Some(Box::new(v)),
        };
        assert_eq!(
            e.eval(&[Value::Boolean(false), Value::Integer(3)]).unwrap(),
            Value::Integer(-3)
        );
        assert_eq!(
            e.eval(&[Value::Boolean(true), Value::Integer(3)]).unwrap(),
            Value::Integer(3)
        );
    }

    #[test]
    fn case_no_match_no_else_is_null() {
        let e = BoundExpr::Case {
            branches: vec![(lit(false), lit(1i64))],
            else_result: None,
        };
        assert_eq!(ev(&e), Value::Null);
    }

    #[test]
    fn in_list_three_valued() {
        let e = BoundExpr::InList {
            expr: Box::new(lit(1i64)),
            list: vec![lit(2i64), null()],
            negated: false,
        };
        assert_eq!(ev(&e), Value::Null, "no match with NULL present is NULL");
        let e = BoundExpr::InList {
            expr: Box::new(lit(2i64)),
            list: vec![lit(2i64), null()],
            negated: false,
        };
        assert_eq!(ev(&e), Value::Boolean(true));
    }

    #[test]
    fn coalesce_and_nullif() {
        let e = BoundExpr::ScalarFn {
            func: ScalarFunc::Coalesce,
            args: vec![null(), lit(0i64)],
        };
        assert_eq!(ev(&e), Value::Integer(0));
        let e = BoundExpr::ScalarFn {
            func: ScalarFunc::NullIf,
            args: vec![lit(1i64), lit(1i64)],
        };
        assert_eq!(ev(&e), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("apple", "a%"));
        assert!(like_match("apple", "%le"));
        assert!(like_match("apple", "a__le"));
        assert!(like_match("apple", "%"));
        assert!(!like_match("apple", "b%"));
        assert!(!like_match("apple", "a_le"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn concat_and_strings() {
        assert_eq!(
            ev(&bin(BinaryOp::Concat, lit("a"), lit(1i64))),
            Value::Varchar("a1".into())
        );
        let e = BoundExpr::ScalarFn {
            func: ScalarFunc::Concat,
            args: vec![lit("a"), null(), lit("b")],
        };
        assert_eq!(ev(&e), Value::Varchar("ab".into()));
    }

    #[test]
    fn date_arithmetic() {
        let d = BoundExpr::Literal(Value::Date(10));
        assert_eq!(
            ev(&bin(BinaryOp::Plus, d.clone(), lit(5i64))),
            Value::Date(15)
        );
        assert_eq!(ev(&bin(BinaryOp::Minus, d, lit(5i64))), Value::Date(5));
    }

    #[test]
    fn greatest_least_skip_nulls() {
        let e = BoundExpr::ScalarFn {
            func: ScalarFunc::Greatest,
            args: vec![lit(1i64), null(), lit(3i64)],
        };
        assert_eq!(ev(&e), Value::Integer(3));
        let e = BoundExpr::ScalarFn {
            func: ScalarFunc::Least,
            args: vec![null(), null()],
        };
        assert_eq!(ev(&e), Value::Null);
    }
}
