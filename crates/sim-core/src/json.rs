//! A small JSON reader (RFC 8259 grammar, no external dependencies).
//!
//! [`parse`] turns a document into a [`Value`] tree; the typed `*_at`
//! accessors walk it with errors that name the missing key. It backs
//! [`trace::validate_json`](crate::trace::validate_json) and every
//! committed benchmark report's validator. Numbers keep their literal
//! text, so integers convert to `u64` exactly at any magnitude.

/// One parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Number(String),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string member `key`.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Value::String(s)) => Ok(s),
            _ => Err(format!("expected a string member {key:?}")),
        }
    }

    /// The numeric member `key`, as an `f64`.
    pub fn f64_at(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Value::Number(n)) => n.parse().map_err(|_| format!("{key:?} is not an f64")),
            _ => Err(format!("expected a numeric member {key:?}")),
        }
    }

    /// The numeric member `key`, as a `u64` (a non-negative integer
    /// literal).
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Value::Number(n)) => n.parse().map_err(|_| format!("{key:?} is not a u64")),
            _ => Err(format!("expected a numeric member {key:?}")),
        }
    }

    /// The array member `key`.
    pub fn array_at(&self, key: &str) -> Result<&[Value], String> {
        match self.get(key) {
            Some(Value::Array(items)) => Ok(items),
            _ => Err(format!("expected an array member {key:?}")),
        }
    }
}

/// Parses `s` as a single JSON value. Errors carry the byte offset of the
/// first problem. Leading zeros in numbers are tolerated; a `\u` escape
/// naming a surrogate decodes to U+FFFD.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { s, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected '\"' at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        // Start of the current run of unescaped bytes; runs end at ASCII
        // '"' or '\\', so every slice falls on a UTF-8 boundary.
        let mut run = self.pos;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    out.push_str(&self.s[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.s[run..self.pos]);
                    self.pos += 1;
                    let decoded = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                            let Some(hex) = hex else {
                                return Err(format!("bad \\u escape at byte {}", self.pos + 1));
                            };
                            self.pos += 4;
                            u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .unwrap_or('\u{FFFD}')
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(decoded);
                    self.pos += 1;
                    run = self.pos;
                }
                0x00..=0x1F => return Err(format!("raw control char at byte {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("expected fraction digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected exponent digits at byte {}", self.pos));
            }
        }
        Ok(Value::Number(self.s[start..self.pos].to_string()))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_value_tree() {
        let v = parse(r#"{"a": [1, -2.5e3, true, null], "s": "q\"\u0041\n", "n": {}}"#).unwrap();
        let a = v.array_at("a").unwrap();
        assert_eq!(a[0], Value::Number("1".into()));
        assert_eq!(a[1], Value::Number("-2.5e3".into()));
        assert_eq!(a[2], Value::Bool(true));
        assert_eq!(a[3], Value::Null);
        assert_eq!(v.str_at("s").unwrap(), "q\"A\n");
        assert_eq!(v.get("n"), Some(&Value::Object(Vec::new())));
    }

    #[test]
    fn typed_accessors_name_the_key() {
        let v = parse(r#"{"big": 1099511627776, "f": 0.25, "neg": -1, "s": "x"}"#).unwrap();
        assert_eq!(v.u64_at("big").unwrap(), 1 << 40);
        assert_eq!(v.f64_at("f").unwrap(), 0.25);
        assert!(v.u64_at("f").is_err(), "a fraction is not a u64");
        assert!(v.u64_at("neg").is_err());
        let err = v.f64_at("missing").unwrap_err();
        assert!(err.contains("\"missing\""), "{err}");
        assert!(v.array_at("s").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{1:2}",
            "\"a\\q\"",
            "\"\\u12\"",
            "1 2",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
        // A truncated report is not a document.
        assert!(parse("{\"schema\": \"x\", \"rows\": [{\"id\": 1}").is_err());
    }

    #[test]
    fn keeps_raw_utf8_and_decodes_surrogates_lossily() {
        assert_eq!(
            parse("\"µs → ns\"").unwrap(),
            Value::String("µs → ns".into())
        );
        assert_eq!(
            parse("\"\\ud83d\"").unwrap(),
            Value::String("\u{FFFD}".into())
        );
    }
}
