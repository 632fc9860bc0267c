//! The benchmark's one JSON writer. Every document the bench prints goes
//! through [`Json::render`], so escaping and the no-NaN rule live here.

/// A JSON value. Objects keep insertion order, so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Exact counts (never routed through `f64`).
    Int(i64),
    /// Measurements. Non-finite values render as `null`: JSON has no NaN.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn count(n: usize) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// A field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a document this module rendered (the suite reads the reports of
/// the child processes it runs). Accepts standard JSON.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.skip_space();
    if p.at != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let matches = self.bytes[self.at..].starts_with(literal.as_bytes());
        if matches {
            self.at += literal.len();
        }
        matches
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    /// The items between `open` (already seen) and `close`, comma-separated.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            self.skip_space();
            if self.bytes.get(self.at) == Some(&close) {
                self.at += 1;
                return Ok(out);
            }
            if !out.is_empty() && !self.eat(",") {
                return Err(self.error("expected a comma"));
            }
            out.push(item(self)?);
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.items(b']', Self::value).map(Json::Arr)
    }

    fn object(&mut self) -> Result<Json, String> {
        let field = |p: &mut Self| {
            p.skip_space();
            let key = p.string()?;
            p.skip_space();
            if !p.eat(":") {
                return Err(p.error("expected a colon"));
            }
            Ok((key, p.value()?))
        };
        self.items(b'}', field).map(Json::Obj)
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let byte = *self
                .bytes
                .get(self.at)
                .ok_or_else(|| self.error("open string"))?;
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|_| self.error("bad UTF-8")),
                b'\\' => {
                    let escape = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.error("open escape"))?;
                    self.at += 1;
                    let c = match escape {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            code
                        }
                        other => other as char,
                    };
                    out.extend(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                other => out.push(other),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or_default();
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("expected a value"))
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let j = Json::str("a\"b\\c\nd\te\u{1}f");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
    }

    #[test]
    fn what_the_writer_renders_the_parser_reads_back() {
        let doc = Json::obj(vec![
            (
                "text",
                Json::str("tab\there \"quoted\" back\\slash \u{1} é"),
            ),
            ("count", Json::Int(-42)),
            ("value", Json::Num(0.000125)),
            ("big", Json::Num(1.5e300)),
            ("none", Json::Null),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
            ("empty", Json::obj(vec![("list", Json::Arr(vec![]))])),
        ]);
        let back = parse(&doc.render()).expect("valid");
        assert_eq!(back, doc);
        assert_eq!(back.get("value").and_then(Json::as_f64), Some(0.000125));
        assert_eq!(back.get("count").and_then(Json::as_f64), Some(-42.0));
        assert!(back.get("text").and_then(Json::as_str).is_some());
        assert_eq!(back.get("missing"), None);
        for bad in ["", "{", "[1 2]", "{\"a\" 1}", "\"open", "nul", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let j = Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(1.5),
        ]);
        assert_eq!(j.render(), "[null, null, 1.5]");
    }

    #[test]
    fn numbers_keep_all_their_digits_and_counts_stay_exact() {
        assert_eq!(Json::Num(1.2034567891).render(), "1.2034567891");
        assert_eq!(
            Json::Int(9_007_199_254_740_993).render(),
            "9007199254740993"
        );
    }

    #[test]
    fn objects_keep_insertion_order_and_nest() {
        let j = Json::obj(vec![
            ("z", Json::Int(1)),
            (
                "a",
                Json::obj(vec![("k", Json::Bool(true)), ("n", Json::Null)]),
            ),
        ]);
        assert_eq!(j.render(), "{\"z\": 1, \"a\": {\"k\": true, \"n\": null}}");
    }
}
