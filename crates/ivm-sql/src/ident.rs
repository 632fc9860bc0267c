//! SQL identifiers with case-folding semantics.

use std::fmt;

/// A SQL identifier.
///
/// Unquoted identifiers compare case-insensitively (they are normalized to
/// lower case, mirroring PostgreSQL/DuckDB); quoted identifiers preserve
/// their exact spelling. Equality and hashing use the normalized form so
/// `FOO`, `foo`, and `"foo"` are the same identifier while `"Foo"` is not.
#[derive(Debug, Clone)]
pub struct Ident {
    value: String,
}

impl Ident {
    /// An unquoted identifier; normalized to lower case.
    pub fn new(value: impl Into<String>) -> Self {
        let v: String = value.into();
        Ident {
            value: v.to_lowercase(),
        }
    }

    /// A quoted identifier; spelling preserved verbatim.
    pub fn quoted(value: impl Into<String>) -> Self {
        Ident {
            value: value.into(),
        }
    }

    /// The normalized name used for catalog lookups.
    pub fn normalized(&self) -> &str {
        &self.value
    }

    /// True when the identifier can be printed without quoting: it is a
    /// lower-case word that does not collide with a keyword.
    pub fn needs_quoting(&self) -> bool {
        if self.value.is_empty() {
            return true;
        }
        let mut chars = self.value.chars();
        let first = chars.next().expect("non-empty");
        if !(first == '_' || first.is_ascii_lowercase()) {
            return true;
        }
        if !chars.all(|c| c == '_' || c.is_ascii_lowercase() || c.is_ascii_digit()) {
            return true;
        }
        match crate::token::Keyword::lookup(&self.value) {
            Some(kw) => !kw.is_soft(),
            None => false,
        }
    }
}

impl PartialEq for Ident {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl Eq for Ident {}

impl std::hash::Hash for Ident {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.value.hash(state);
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.needs_quoting() {
            write!(f, "\"{}\"", self.value.replace('"', "\"\""))
        } else {
            f.write_str(&self.value)
        }
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unquoted_idents_fold_case() {
        assert_eq!(Ident::new("FOO"), Ident::new("foo"));
        assert_eq!(Ident::new("FOO").normalized(), "foo");
    }

    #[test]
    fn quoted_idents_preserve_case() {
        assert_ne!(Ident::quoted("Foo"), Ident::new("foo"));
        assert_eq!(Ident::quoted("foo"), Ident::new("foo"));
    }

    #[test]
    fn display_quotes_when_needed() {
        assert_eq!(Ident::new("simple_name").to_string(), "simple_name");
        assert_eq!(Ident::quoted("Mixed Case").to_string(), "\"Mixed Case\"");
        // Keywords must be quoted to survive a round trip.
        assert_eq!(Ident::new("select").to_string(), "\"select\"");
        // Embedded quotes double up.
        assert_eq!(Ident::quoted("a\"b").to_string(), "\"a\"\"b\"");
    }
}
