//! A hand-written SQL tokenizer.
//!
//! The lexer is deliberately simple: it produces the full token vector up
//! front (SQL statements are short relative to the data they touch), keeps
//! byte offsets for error reporting, and resolves `''` / `""` escapes.

use crate::error::SqlError;
use crate::token::{Keyword, Token, TokenKind};

/// Tokenize `sql` into a vector of tokens terminated by [`TokenKind::Eof`].
pub fn tokenize(sql: &str) -> Result<Vec<Token>, SqlError> {
    Lexer::new(sql).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            out: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, SqlError> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let b = self.bytes[self.pos];
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'-' if self.peek(1) == Some(b'-') => self.skip_line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.skip_block_comment(start)?,
                b'\'' => self.lex_string(start)?,
                b'"' => self.lex_quoted_ident(start)?,
                b'0'..=b'9' => self.lex_number(start),
                b'.' if self.peek(1).is_some_and(|c| c.is_ascii_digit()) => self.lex_number(start),
                b'$' => self.lex_placeholder(start)?,
                _ if b == b'_' || (b as char).is_ascii_alphabetic() => self.lex_word(start),
                _ => self.lex_operator(start)?,
            }
        }
        self.out.push(Token {
            kind: TokenKind::Eof,
            offset: self.src.len(),
        });
        Ok(self.out)
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, offset: usize) {
        self.out.push(Token { kind, offset });
    }

    fn skip_line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn skip_block_comment(&mut self, start: usize) -> Result<(), SqlError> {
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                self.pos += 2;
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            } else if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                self.pos += 2;
                depth += 1;
            } else {
                self.pos += 1;
            }
        }
        Err(SqlError::lex("unterminated block comment", start))
    }

    fn lex_string(&mut self, start: usize) -> Result<(), SqlError> {
        self.pos += 1; // opening quote
        let mut value = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(SqlError::lex("unterminated string literal", start)),
                Some(b'\'') => {
                    if self.peek(1) == Some(b'\'') {
                        value.push('\'');
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                Some(_) => {
                    // Advance one full UTF-8 character.
                    let ch = self.src[self.pos..].chars().next().expect("in-bounds char");
                    value.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
        self.push(TokenKind::String(value), start);
        Ok(())
    }

    fn lex_quoted_ident(&mut self, start: usize) -> Result<(), SqlError> {
        self.pos += 1;
        let mut value = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(SqlError::lex("unterminated quoted identifier", start)),
                Some(b'"') => {
                    if self.peek(1) == Some(b'"') {
                        value.push('"');
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                Some(_) => {
                    let ch = self.src[self.pos..].chars().next().expect("in-bounds char");
                    value.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
        self.push(TokenKind::QuotedIdent(value), start);
        Ok(())
    }

    fn lex_number(&mut self, start: usize) {
        let mut seen_dot = false;
        let mut seen_exp = false;
        while let Some(b) = self.bytes.get(self.pos).copied() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !seen_dot && !seen_exp => {
                    seen_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E' if !seen_exp => {
                    // Only treat as exponent when followed by digit or sign+digit.
                    let next = self.peek(1);
                    let next2 = self.peek(2);
                    let is_exp = match next {
                        Some(b'+') | Some(b'-') => next2.is_some_and(|c| c.is_ascii_digit()),
                        Some(c) => c.is_ascii_digit(),
                        None => false,
                    };
                    if !is_exp {
                        break;
                    }
                    seen_exp = true;
                    self.pos += 1;
                    if matches!(self.bytes.get(self.pos), Some(b'+') | Some(b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let lexeme = &self.src[start..self.pos];
        self.push(TokenKind::Number(lexeme.to_string()), start);
    }

    /// `$n`: a placeholder numbered from 1.
    fn lex_placeholder(&mut self, start: usize) -> Result<(), SqlError> {
        self.pos += 1;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        match self.src[start + 1..self.pos].parse::<usize>() {
            Ok(n) if n >= 1 => {
                self.push(TokenKind::Placeholder(n), start);
                Ok(())
            }
            _ => Err(SqlError::lex("placeholders are $1, $2, …", start)),
        }
    }

    fn lex_word(&mut self, start: usize) {
        while let Some(b) = self.bytes.get(self.pos).copied() {
            if b == b'_' || (b as char).is_ascii_alphanumeric() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let word = &self.src[start..self.pos];
        match Keyword::lookup(word) {
            Some(kw) => self.push(TokenKind::Keyword(kw), start),
            None => self.push(TokenKind::Ident(word.to_string()), start),
        }
    }

    fn lex_operator(&mut self, start: usize) -> Result<(), SqlError> {
        let b = self.bytes[self.pos];
        let (kind, len) = match b {
            b'=' => (TokenKind::Eq, 1),
            b'<' => match self.peek(1) {
                Some(b'=') => (TokenKind::LtEq, 2),
                Some(b'>') => (TokenKind::NotEq, 2),
                _ => (TokenKind::Lt, 1),
            },
            b'>' => match self.peek(1) {
                Some(b'=') => (TokenKind::GtEq, 2),
                _ => (TokenKind::Gt, 1),
            },
            b'!' if self.peek(1) == Some(b'=') => (TokenKind::NotEq, 2),
            b'+' => (TokenKind::Plus, 1),
            b'-' => (TokenKind::Minus, 1),
            b'*' => (TokenKind::Star, 1),
            b'/' => (TokenKind::Slash, 1),
            b'%' => (TokenKind::Percent, 1),
            b'|' if self.peek(1) == Some(b'|') => (TokenKind::StringConcat, 2),
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b',' => (TokenKind::Comma, 1),
            b'.' => (TokenKind::Dot, 1),
            b';' => (TokenKind::Semicolon, 1),
            _ => {
                return Err(SqlError::lex(
                    format!(
                        "unexpected character {:?}",
                        self.src[start..].chars().next().unwrap()
                    ),
                    start,
                ))
            }
        };
        self.pos += len;
        self.push(kind, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Keyword as K;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_simple_select() {
        assert_eq!(
            kinds("SELECT a FROM t;"),
            vec![
                TokenKind::Keyword(K::Select),
                TokenKind::Ident("a".into()),
                TokenKind::Keyword(K::From),
                TokenKind::Ident("t".into()),
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("1 2.5 .5 1e3 1.5e-2 2E+10"),
            vec![
                TokenKind::Number("1".into()),
                TokenKind::Number("2.5".into()),
                TokenKind::Number(".5".into()),
                TokenKind::Number("1e3".into()),
                TokenKind::Number("1.5e-2".into()),
                TokenKind::Number("2E+10".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn number_followed_by_ident_is_two_tokens() {
        // `1e` is not an exponent; it lexes as number then identifier.
        assert_eq!(
            kinds("1e"),
            vec![
                TokenKind::Number("1".into()),
                TokenKind::Ident("e".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_strings_with_escapes() {
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::String("it's".into()), TokenKind::Eof]
        );
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn lex_quoted_identifiers() {
        assert_eq!(
            kinds(r#""My ""Table""""#),
            vec![
                TokenKind::QuotedIdent("My \"Table\"".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("a <> b != c <= >= || . ,"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::NotEq,
                TokenKind::Ident("b".into()),
                TokenKind::NotEq,
                TokenKind::Ident("c".into()),
                TokenKind::LtEq,
                TokenKind::GtEq,
                TokenKind::StringConcat,
                TokenKind::Dot,
                TokenKind::Comma,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("SELECT -- a comment\n 1 /* block /* nested */ */ + 2"),
            vec![
                TokenKind::Keyword(K::Select),
                TokenKind::Number("1".into()),
                TokenKind::Plus,
                TokenKind::Number("2".into()),
                TokenKind::Eof,
            ]
        );
        assert!(tokenize("/* unterminated").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(
            kinds("'héllo ☃'"),
            vec![TokenKind::String("héllo ☃".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_placeholders() {
        assert_eq!(
            kinds("$1 = $12"),
            vec![
                TokenKind::Placeholder(1),
                TokenKind::Eq,
                TokenKind::Placeholder(12),
                TokenKind::Eof
            ]
        );
        for bad in ["$", "$0", "$x", "$99999999999999999999999"] {
            assert!(tokenize(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unexpected_character_errors() {
        let err = tokenize("SELECT @").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn offsets_point_at_token_starts() {
        let toks = tokenize("SELECT foo").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }
}
