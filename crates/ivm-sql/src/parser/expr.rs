//! Expression parsing with precedence climbing.

use crate::ast::{BinaryOp, ColumnRef, Expr, Literal, TypeName, UnaryOp};
use crate::error::SqlError;
use crate::ident::Ident;
use crate::parser::Parser;
use crate::token::{Keyword, TokenKind};

/// Precedence of prefix NOT: between OR/AND and the comparison operators.
const NOT_PREC: u8 = 3;

impl Parser {
    /// Parse a full scalar expression.
    pub(crate) fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.parse_subexpr(0)
    }

    fn parse_subexpr(&mut self, min_prec: u8) -> Result<Expr, SqlError> {
        let mut lhs = self.parse_prefix()?;
        while let Some(prec) = self.infix_precedence() {
            if prec <= min_prec {
                break;
            }
            lhs = self.parse_infix(lhs, prec)?;
        }
        Ok(lhs)
    }

    /// Precedence of the operator at the cursor, if it can continue an
    /// expression.
    fn infix_precedence(&self) -> Option<u8> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Or) => Some(BinaryOp::Or.precedence()),
            TokenKind::Keyword(Keyword::And) => Some(BinaryOp::And.precedence()),
            TokenKind::Keyword(Keyword::Is) => Some(4),
            TokenKind::Keyword(Keyword::In)
            | TokenKind::Keyword(Keyword::Between)
            | TokenKind::Keyword(Keyword::Like) => Some(4),
            // `NOT IN`, `NOT BETWEEN`, `NOT LIKE`
            TokenKind::Keyword(Keyword::Not)
                if matches!(
                    self.peek_ahead(1),
                    TokenKind::Keyword(Keyword::In)
                        | TokenKind::Keyword(Keyword::Between)
                        | TokenKind::Keyword(Keyword::Like)
                ) =>
            {
                Some(4)
            }
            TokenKind::Eq
            | TokenKind::NotEq
            | TokenKind::Lt
            | TokenKind::LtEq
            | TokenKind::Gt
            | TokenKind::GtEq => Some(4),
            TokenKind::StringConcat => Some(BinaryOp::Concat.precedence()),
            TokenKind::Plus | TokenKind::Minus => Some(BinaryOp::Plus.precedence()),
            TokenKind::Star | TokenKind::Slash | TokenKind::Percent => {
                Some(BinaryOp::Multiply.precedence())
            }
            _ => None,
        }
    }

    fn parse_infix(&mut self, lhs: Expr, prec: u8) -> Result<Expr, SqlError> {
        // Handle the keyword-flavoured postfix/infix forms first.
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = if self.check_kw(Keyword::Not)
            && matches!(
                self.peek_ahead(1),
                TokenKind::Keyword(Keyword::In)
                    | TokenKind::Keyword(Keyword::Between)
                    | TokenKind::Keyword(Keyword::Like)
            ) {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw(Keyword::In) {
            self.expect_token(&TokenKind::LParen)?;
            if self.check_kw(Keyword::Select) || self.check_kw(Keyword::With) {
                let query = self.parse_query()?;
                self.expect_token(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(lhs),
                    query: Box::new(query),
                    negated,
                });
            }
            let list = self.parse_comma_separated(|p| p.parse_expr())?;
            self.expect_token(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw(Keyword::Between) {
            // BETWEEN bounds bind tighter than comparisons (and AND): a
            // bound containing `=`/`<`/… must be parenthesised.
            let low = self.parse_subexpr(4)?;
            self.expect_kw(Keyword::And)?;
            let high = self.parse_subexpr(4)?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw(Keyword::Like) {
            let pattern = self.parse_subexpr(4)?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }

        let op = match self.advance() {
            TokenKind::Keyword(Keyword::Or) => BinaryOp::Or,
            TokenKind::Keyword(Keyword::And) => BinaryOp::And,
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            TokenKind::StringConcat => BinaryOp::Concat,
            TokenKind::Plus => BinaryOp::Plus,
            TokenKind::Minus => BinaryOp::Minus,
            TokenKind::Star => BinaryOp::Multiply,
            TokenKind::Slash => BinaryOp::Divide,
            TokenKind::Percent => BinaryOp::Modulo,
            other => {
                return Err(SqlError::parse(
                    format!("`{other}` is not an infix operator"),
                    self.offset(),
                ))
            }
        };
        let rhs = self.parse_subexpr(prec)?;
        Ok(Expr::Binary {
            left: Box::new(lhs),
            op,
            right: Box::new(rhs),
        })
    }

    fn parse_prefix(&mut self) -> Result<Expr, SqlError> {
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Not) => {
                self.advance();
                let expr = self.parse_subexpr(NOT_PREC)?;
                Ok(Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(expr),
                })
            }
            TokenKind::Minus => {
                self.advance();
                let expr = self.parse_subexpr(8)?;
                Ok(Expr::Unary {
                    op: UnaryOp::Minus,
                    expr: Box::new(expr),
                })
            }
            TokenKind::Plus => {
                self.advance();
                let expr = self.parse_subexpr(8)?;
                Ok(Expr::Unary {
                    op: UnaryOp::Plus,
                    expr: Box::new(expr),
                })
            }
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::Literal(Literal::Number(n)))
            }
            TokenKind::String(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            TokenKind::Placeholder(n) => {
                self.advance();
                Ok(Expr::Param(n - 1))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Literal::Boolean(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Literal::Boolean(false)))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            TokenKind::Keyword(Keyword::Case) => self.parse_case(),
            TokenKind::Keyword(Keyword::Cast) => self.parse_cast(),
            TokenKind::LParen => {
                // Grouping parens are dropped: the tree shape preserves them.
                self.advance();
                let inner = self.parse_expr()?;
                self.expect_token(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(_)
            | TokenKind::QuotedIdent(_)
            | TokenKind::Keyword(
                Keyword::Key
                | Keyword::Date
                | Keyword::Text
                | Keyword::Index
                | Keyword::Replace
                | Keyword::Excluded
                | Keyword::Conflict
                | Keyword::Left
                | Keyword::Right,
            ) => self.parse_ident_led(),
            _ => Err(self.unexpected("expression")),
        }
    }

    /// Parse something starting with an identifier: a function call, or a
    /// (possibly qualified) column reference.
    fn parse_ident_led(&mut self) -> Result<Expr, SqlError> {
        // LEFT/RIGHT are reserved join keywords but also scalar functions;
        // allow them only in call position.
        let first = match self.peek().clone() {
            TokenKind::Keyword(kw @ (Keyword::Left | Keyword::Right))
                if matches!(self.peek_ahead(1), TokenKind::LParen) =>
            {
                self.advance();
                Ident::new(kw.as_str().to_lowercase())
            }
            _ => self.parse_ident()?,
        };
        if self.check_token(&TokenKind::LParen) {
            self.advance();
            let distinct = self.eat_kw(Keyword::Distinct);
            if self.eat_token(&TokenKind::Star) {
                self.expect_token(&TokenKind::RParen)?;
                return Ok(Expr::Function {
                    name: first,
                    args: vec![],
                    distinct,
                    star: true,
                });
            }
            let args = if self.check_token(&TokenKind::RParen) {
                vec![]
            } else {
                self.parse_comma_separated(|p| p.parse_expr())?
            };
            self.expect_token(&TokenKind::RParen)?;
            return Ok(Expr::Function {
                name: first,
                args,
                distinct,
                star: false,
            });
        }
        if self.check_token(&TokenKind::Dot) && !matches!(self.peek_ahead(1), TokenKind::Star) {
            self.advance();
            let column = self.parse_ident()?;
            return Ok(Expr::Column(ColumnRef {
                table: Some(first),
                column,
            }));
        }
        Ok(Expr::Column(ColumnRef {
            table: None,
            column: first,
        }))
    }

    fn parse_case(&mut self) -> Result<Expr, SqlError> {
        self.expect_kw(Keyword::Case)?;
        let operand = if self.check_kw(Keyword::When) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw(Keyword::When) {
            let when = self.parse_expr()?;
            self.expect_kw(Keyword::Then)?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_result = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw(Keyword::End)?;
        Ok(Expr::Case {
            operand,
            branches,
            else_result,
        })
    }

    fn parse_cast(&mut self) -> Result<Expr, SqlError> {
        self.expect_kw(Keyword::Cast)?;
        self.expect_token(&TokenKind::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_kw(Keyword::As)?;
        let ty = self.parse_type_name()?;
        self.expect_token(&TokenKind::RParen)?;
        Ok(Expr::Cast {
            expr: Box::new(expr),
            ty,
        })
    }

    /// Parse a type name in DDL or CAST position.
    pub(crate) fn parse_type_name(&mut self) -> Result<TypeName, SqlError> {
        let ty = match self.peek() {
            TokenKind::Keyword(Keyword::Boolean) => TypeName::Boolean,
            TokenKind::Keyword(Keyword::Int)
            | TokenKind::Keyword(Keyword::Integer)
            | TokenKind::Keyword(Keyword::Bigint) => TypeName::Integer,
            TokenKind::Keyword(Keyword::Double) => {
                self.advance();
                // Optional `PRECISION`.
                self.eat_kw(Keyword::Precision);
                return Ok(TypeName::Double);
            }
            TokenKind::Keyword(Keyword::Float) | TokenKind::Keyword(Keyword::Real) => {
                TypeName::Double
            }
            TokenKind::Keyword(Keyword::Varchar) | TokenKind::Keyword(Keyword::Text) => {
                self.advance();
                // Optional length, e.g. VARCHAR(20) — accepted and ignored.
                if self.eat_token(&TokenKind::LParen) {
                    match self.advance() {
                        TokenKind::Number(_) => {}
                        _ => return Err(self.unexpected("length")),
                    }
                    self.expect_token(&TokenKind::RParen)?;
                }
                return Ok(TypeName::Varchar);
            }
            TokenKind::Keyword(Keyword::Date) => TypeName::Date,
            _ => return Err(self.unexpected("type name")),
        };
        self.advance();
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse_statement;

    fn expr(sql: &str) -> Expr {
        let stmt = parse_statement(&format!("SELECT {sql}")).unwrap();
        match stmt {
            Statement::Query(q) => match q.body {
                crate::ast::SetExpr::Select(s) => match s.projection.into_iter().next().unwrap() {
                    crate::ast::SelectItem::Expr { expr, .. } => expr,
                    other => panic!("unexpected projection {other:?}"),
                },
                other => panic!("unexpected body {other:?}"),
            },
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        assert_eq!(
            expr("1 + 2 * 3"),
            Expr::Binary {
                left: Box::new(Expr::int(1)),
                op: BinaryOp::Plus,
                right: Box::new(Expr::Binary {
                    left: Box::new(Expr::int(2)),
                    op: BinaryOp::Multiply,
                    right: Box::new(Expr::int(3)),
                }),
            }
        );
    }

    #[test]
    fn and_or_precedence() {
        // a OR b AND c  ==  a OR (b AND c)
        let e = expr("a OR b AND c");
        match e {
            Expr::Binary {
                op: BinaryOp::Or,
                right,
                ..
            } => {
                assert!(matches!(
                    *right,
                    Expr::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn not_precedence() {
        // NOT a = b  ==  NOT (a = b)
        let e = expr("NOT a = b");
        match e {
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                assert!(matches!(
                    *expr,
                    Expr::Binary {
                        op: BinaryOp::Eq,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_with_operand_and_else() {
        let e = expr("CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' ELSE 'c' END");
        match e {
            Expr::Case {
                operand: Some(_),
                branches,
                else_result: Some(_),
            } => {
                assert_eq!(branches.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn searched_case_without_else() {
        let e = expr("CASE WHEN m = FALSE THEN -v ELSE v END");
        match e {
            Expr::Case {
                operand: None,
                branches,
                else_result: Some(_),
            } => {
                assert_eq!(branches.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_calls() {
        assert_eq!(
            expr("SUM(x)"),
            Expr::Function {
                name: Ident::new("sum"),
                args: vec![Expr::col("x")],
                distinct: false,
                star: false
            }
        );
        assert_eq!(
            expr("COUNT(*)"),
            Expr::Function {
                name: Ident::new("count"),
                args: vec![],
                distinct: false,
                star: true
            }
        );
        assert_eq!(
            expr("COUNT(DISTINCT x)"),
            Expr::Function {
                name: Ident::new("count"),
                args: vec![Expr::col("x")],
                distinct: true,
                star: false
            }
        );
        assert_eq!(
            expr("COALESCE(a, 0)"),
            Expr::Function {
                name: Ident::new("coalesce"),
                args: vec![Expr::col("a"), Expr::int(0)],
                distinct: false,
                star: false
            }
        );
    }

    #[test]
    fn qualified_columns() {
        assert_eq!(expr("t.c"), Expr::qcol("t", "c"));
        assert_eq!(
            expr("\"T\".\"C\""),
            Expr::Column(ColumnRef {
                table: Some(Ident::quoted("T")),
                column: Ident::quoted("C"),
            })
        );
    }

    #[test]
    fn is_null_and_in_and_between_and_like() {
        assert!(matches!(
            expr("x IS NULL"),
            Expr::IsNull { negated: false, .. }
        ));
        assert!(matches!(
            expr("x IS NOT NULL"),
            Expr::IsNull { negated: true, .. }
        ));
        assert!(matches!(
            expr("x IN (1, 2)"),
            Expr::InList { negated: false, .. }
        ));
        assert!(matches!(
            expr("x NOT IN (1)"),
            Expr::InList { negated: true, .. }
        ));
        assert!(matches!(
            expr("x BETWEEN 1 AND 2"),
            Expr::Between { negated: false, .. }
        ));
        assert!(matches!(
            expr("x NOT BETWEEN 1 AND 2"),
            Expr::Between { negated: true, .. }
        ));
        assert!(matches!(
            expr("x LIKE 'a%'"),
            Expr::Like { negated: false, .. }
        ));
        assert!(matches!(
            expr("x NOT LIKE 'a%'"),
            Expr::Like { negated: true, .. }
        ));
    }

    #[test]
    fn between_and_binds_to_between() {
        // The AND after BETWEEN belongs to BETWEEN, outer AND still works.
        let e = expr("x BETWEEN 1 AND 2 AND y");
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn cast_parses() {
        assert_eq!(
            expr("CAST(x AS DOUBLE PRECISION)"),
            Expr::Cast {
                expr: Box::new(Expr::col("x")),
                ty: TypeName::Double
            }
        );
        assert_eq!(
            expr("CAST(x AS VARCHAR(10))"),
            Expr::Cast {
                expr: Box::new(Expr::col("x")),
                ty: TypeName::Varchar
            }
        );
    }

    #[test]
    fn parens_shape_the_tree() {
        assert_eq!(
            expr("(1 + 2) * 3"),
            Expr::Binary {
                left: Box::new(Expr::Binary {
                    left: Box::new(Expr::int(1)),
                    op: BinaryOp::Plus,
                    right: Box::new(Expr::int(2)),
                }),
                op: BinaryOp::Multiply,
                right: Box::new(Expr::int(3)),
            }
        );
    }

    #[test]
    fn unary_minus_tighter_than_mul() {
        // -x * y parses as (-x) * y
        let e = expr("-x * y");
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Multiply,
                ..
            }
        ));
    }

    #[test]
    fn concat_operator() {
        let e = expr("a || b || c");
        // Left-associative chain.
        match e {
            Expr::Binary {
                op: BinaryOp::Concat,
                left,
                ..
            } => {
                assert!(matches!(
                    *left,
                    Expr::Binary {
                        op: BinaryOp::Concat,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
