//! Scalar expression AST.

use std::fmt;

use crate::ident::Ident;

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum Expr {
    /// A literal constant.
    Literal(Literal),
    /// A parameter: slot `n` (0-based), spelled `$1`, `$2`, … in SQL — a
    /// value supplied when the statement runs. [`crate::lift_literals`]
    /// makes these from literals; nothing supplies a value for one a
    /// client wrote.
    Param(usize),
    /// A (possibly qualified) column reference, e.g. `t.total_value`.
    Column(ColumnRef),
    /// Binary operation, e.g. `a + b`, `x AND y`.
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Unary operation, e.g. `-x`, `NOT p`.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Function call: scalar (`COALESCE`, `ABS`, …) or aggregate
    /// (`SUM`, `COUNT`, …). `COUNT(*)` is a call with `star == true`.
    Function {
        name: Ident,
        args: Vec<Expr>,
        distinct: bool,
        star: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_result: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast { expr: Box<Expr>, ty: TypeName },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)` — uncorrelated subquery membership.
    /// OpenIVM's MIN/MAX maintenance emits this to recompute dirty groups.
    InSubquery {
        expr: Box<Expr>,
        query: Box<crate::ast::Query>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    ///
    /// Parentheses are not represented: the parser encodes grouping in the
    /// tree shape and the printer re-derives parentheses from operator
    /// precedence, so `parse(print(ast)) == ast` for every tree.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef {
            table: None,
            column: Ident::new(name),
        })
    }

    /// Convenience constructor for a qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef {
            table: Some(Ident::new(table)),
            column: Ident::new(name),
        })
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Number(v.to_string()))
    }

    /// Convenience constructor for a string literal.
    pub fn string(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::String(v.into()))
    }

    /// Convenience constructor for a boolean literal.
    pub fn boolean(v: bool) -> Expr {
        Expr::Literal(Literal::Boolean(v))
    }

    /// Build `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::Eq,
            right: Box::new(other),
        }
    }

    /// Build `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::And,
            right: Box::new(other),
        }
    }

    /// Call `f` on each direct child, left to right as printed. An
    /// `IN (SELECT …)`'s probe is a child; its query is a scope of its
    /// own and is not entered.
    pub fn children(&self, mut f: impl FnMut(&Expr)) {
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
            Expr::Binary { left, right, .. }
            | Expr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Function { args, .. } => args.iter().for_each(f),
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                if let Some(op) = operand {
                    f(op);
                }
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                if let Some(e) = else_result {
                    f(e);
                }
            }
        }
    }

    /// [`children`](Self::children), mutably.
    pub fn children_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
            Expr::Binary { left, right, .. }
            | Expr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Function { args, .. } => args.iter_mut().for_each(f),
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                if let Some(op) = operand {
                    f(op);
                }
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                if let Some(e) = else_result {
                    f(e);
                }
            }
        }
    }

    /// Walk the expression tree, invoking `f` on every node (pre-order).
    /// An `IN (SELECT …)`'s query is not entered.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.children(|c| c.visit(f));
    }

    /// True when the expression contains a call to any of the given
    /// (upper-case) function names.
    pub fn contains_function(&self, names: &[&str]) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if names.contains(&name.normalized().to_ascii_uppercase().as_str()) {
                    found = true;
                }
            }
        });
        found
    }
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Optional table or alias qualifier.
    pub table: Option<Ident>,
    /// Column name.
    pub column: Ident,
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Literal constants. Numbers keep their lexeme so the AST stays `Eq`/`Hash`;
/// the engine interprets them as `INTEGER` or `DOUBLE` at bind time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// SQL NULL.
    Null,
    /// TRUE or FALSE.
    Boolean(bool),
    /// Verbatim numeric lexeme, e.g. `"42"` or `"1.5e-2"`.
    Number(String),
    /// A string literal.
    String(String),
}

/// Binary operators, from lowest to highest precedence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `OR`.
    Or,
    /// `AND`.
    And,
    /// `=`.
    Eq,
    /// `<>` / `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `||` string concatenation.
    Concat,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Multiply,
    /// `/`.
    Divide,
    /// `%`.
    Modulo,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Concat => "||",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
        }
    }

    /// Parser precedence (higher binds tighter).
    pub fn precedence(&self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Concat => 5,
            BinaryOp::Plus | BinaryOp::Minus => 6,
            BinaryOp::Multiply | BinaryOp::Divide | BinaryOp::Modulo => 7,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// `-`.
    Minus,
    /// `+`.
    Plus,
}

impl UnaryOp {
    /// SQL spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            UnaryOp::Not => "NOT",
            UnaryOp::Minus => "-",
            UnaryOp::Plus => "+",
        }
    }
}

/// Type names appearing in DDL and `CAST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeName {
    /// `BOOLEAN`.
    Boolean,
    /// `INTEGER` / `BIGINT`.
    Integer,
    /// `DOUBLE` / `FLOAT` / `REAL`.
    Double,
    /// `VARCHAR` / `TEXT`.
    Varchar,
    /// `DATE`.
    Date,
}

impl TypeName {
    /// Canonical SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            TypeName::Boolean => "BOOLEAN",
            TypeName::Integer => "INTEGER",
            TypeName::Double => "DOUBLE",
            TypeName::Varchar => "VARCHAR",
            TypeName::Date => "DATE",
        }
    }
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let e = Expr::col("a")
            .eq(Expr::int(1))
            .and(Expr::qcol("t", "b").eq(Expr::string("x")));
        match &e {
            Expr::Binary {
                op: BinaryOp::And, ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn visit_reaches_all_nodes() {
        // Every variant, with a literal under every child position (so a
        // position either walk skips loses one). The subquery's 99 is in
        // a scope of its own: not a node.
        let sql = "SELECT CASE -(a * 1) WHEN CAST(2 AS INTEGER) THEN f(3, $1) BETWEEN 4 AND 5 \
                   ELSE 6 IN (7, d) END IS NULL \
                   AND (8 LIKE '9' OR 10 IN (SELECT 99) OR h = 11 + 12)";
        let crate::ast::Statement::Query(q) = crate::parse_statement(sql).unwrap() else {
            unreachable!()
        };
        let crate::ast::SetExpr::Select(s) = q.body else {
            unreachable!()
        };
        let Some(crate::ast::SelectItem::Expr { mut expr, .. }) = s.projection.into_iter().next()
        else {
            unreachable!()
        };
        let (mut nodes, mut literals) = (0, 0);
        expr.visit(&mut |e| {
            nodes += 1;
            literals += usize::from(matches!(e, Expr::Literal(_)));
        });
        assert_eq!((nodes, literals), (31, 12));

        // `children_mut` reaches the same literals: rewrite each into a slot.
        fn rewrite(e: &mut Expr, slots: &mut usize) {
            if let Expr::Literal(_) = e {
                *e = Expr::Param(*slots);
                *slots += 1;
            }
            e.children_mut(|c| rewrite(c, slots));
        }
        let mut slots = 0;
        rewrite(&mut expr, &mut slots);
        assert_eq!(slots, literals);
        let mut left = 0;
        expr.visit(&mut |e| left += usize::from(matches!(e, Expr::Literal(_))));
        assert_eq!(left, 0);
        assert!(
            crate::print_expr(&expr, crate::Dialect::DuckDb).contains("IN (SELECT 99)"),
            "the subquery is not entered"
        );
    }

    #[test]
    fn contains_function_detects_aggregates() {
        let e = Expr::Function {
            name: Ident::new("sum"),
            args: vec![Expr::col("x")],
            distinct: false,
            star: false,
        };
        assert!(e.contains_function(&["SUM", "COUNT"]));
        assert!(!e.contains_function(&["MIN"]));
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinaryOp::Multiply.precedence() > BinaryOp::Plus.precedence());
        assert!(BinaryOp::Plus.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::Eq.precedence() > BinaryOp::And.precedence());
        assert!(BinaryOp::And.precedence() > BinaryOp::Or.precedence());
    }
}
