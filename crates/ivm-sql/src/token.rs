//! Token definitions for the SQL lexer.

use std::fmt;

/// A single lexical token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind.
    pub kind: TokenKind,
    /// Byte offset of the token start in the original SQL text.
    pub offset: usize,
}

/// The kind of a lexical token.
///
/// Keywords are lexed as [`TokenKind::Keyword`] holding the canonical
/// upper-case spelling; identifiers keep their original spelling (quoted
/// identifiers preserve case, unquoted ones are case-folded at parse time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// A recognised SQL keyword, canonicalised to upper case.
    Keyword(Keyword),
    /// An unquoted identifier (original spelling preserved).
    Ident(String),
    /// A `"double quoted"` identifier.
    QuotedIdent(String),
    /// A numeric literal; the lexeme is kept verbatim so the AST stays `Eq`.
    Number(String),
    /// A `'single quoted'` string literal with `''` escapes resolved.
    String(String),
    /// A `$n` placeholder (`n` ≥ 1, as written).
    Placeholder(usize),
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `||`
    StringConcat,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// End of input sentinel.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{}", k.as_str()),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::QuotedIdent(s) => write!(f, "\"{s}\""),
            TokenKind::Number(s) => write!(f, "{s}"),
            TokenKind::String(s) => write!(f, "'{s}'"),
            TokenKind::Placeholder(n) => write!(f, "${n}"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::NotEq => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::LtEq => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::GtEq => write!(f, ">="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::StringConcat => write!(f, "||"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

macro_rules! keywords {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Every keyword recognised by the lexer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Keyword {
            $($variant),+
        }

        impl Keyword {
            /// Canonical upper-case spelling.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text),+
                }
            }

            /// Soft keywords may appear as plain identifiers (the parser
            /// accepts them in identifier position), so the printer never
            /// needs to quote them.
            pub fn is_soft(&self) -> bool {
                matches!(
                    self,
                    Keyword::Key
                        | Keyword::Date
                        | Keyword::Text
                        | Keyword::Index
                        | Keyword::Replace
                        | Keyword::Excluded
                        | Keyword::Conflict
                )
            }

            /// Look up an identifier-like lexeme; returns `None` when the
            /// word is not a keyword.
            pub fn lookup(word: &str) -> Option<Keyword> {
                // Keyword sets are small; an upper-cased linear probe through
                // a match is fast and keeps the list in one place.
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    $($text => Some(Keyword::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

keywords! {
    All => "ALL",
    And => "AND",
    As => "AS",
    Asc => "ASC",
    Begin => "BEGIN",
    Between => "BETWEEN",
    Bigint => "BIGINT",
    Boolean => "BOOLEAN",
    By => "BY",
    Case => "CASE",
    Cast => "CAST",
    Commit => "COMMIT",
    Conflict => "CONFLICT",
    Create => "CREATE",
    Cross => "CROSS",
    Date => "DATE",
    Delete => "DELETE",
    Desc => "DESC",
    Distinct => "DISTINCT",
    Do => "DO",
    Double => "DOUBLE",
    Drop => "DROP",
    Else => "ELSE",
    End => "END",
    Except => "EXCEPT",
    Excluded => "EXCLUDED",
    Exists => "EXISTS",
    Explain => "EXPLAIN",
    False => "FALSE",
    Float => "FLOAT",
    From => "FROM",
    Full => "FULL",
    Group => "GROUP",
    Having => "HAVING",
    If => "IF",
    In => "IN",
    Index => "INDEX",
    Inner => "INNER",
    Insert => "INSERT",
    Int => "INT",
    Integer => "INTEGER",
    Intersect => "INTERSECT",
    Into => "INTO",
    Is => "IS",
    Join => "JOIN",
    Key => "KEY",
    Left => "LEFT",
    Like => "LIKE",
    Limit => "LIMIT",
    Materialized => "MATERIALIZED",
    Not => "NOT",
    Nothing => "NOTHING",
    Null => "NULL",
    Offset => "OFFSET",
    On => "ON",
    Or => "OR",
    Order => "ORDER",
    Outer => "OUTER",
    Precision => "PRECISION",
    Primary => "PRIMARY",
    Real => "REAL",
    Replace => "REPLACE",
    Right => "RIGHT",
    Rollback => "ROLLBACK",
    Select => "SELECT",
    Set => "SET",
    Table => "TABLE",
    Text => "TEXT",
    Then => "THEN",
    Transaction => "TRANSACTION",
    True => "TRUE",
    Union => "UNION",
    Unique => "UNIQUE",
    Update => "UPDATE",
    Values => "VALUES",
    Varchar => "VARCHAR",
    View => "VIEW",
    When => "WHEN",
    Where => "WHERE",
    With => "WITH",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::lookup("select"), Some(Keyword::Select));
        assert_eq!(Keyword::lookup("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::lookup("SELECT"), Some(Keyword::Select));
        assert_eq!(Keyword::lookup("selects"), None);
    }

    #[test]
    fn keyword_as_str_round_trips() {
        for kw in [Keyword::Materialized, Keyword::Union, Keyword::Replace] {
            assert_eq!(Keyword::lookup(kw.as_str()), Some(kw));
        }
    }

    #[test]
    fn token_display() {
        assert_eq!(TokenKind::NotEq.to_string(), "<>");
        assert_eq!(TokenKind::Keyword(Keyword::Select).to_string(), "SELECT");
        assert_eq!(TokenKind::String("a'b".into()).to_string(), "'a'b'");
    }
}
