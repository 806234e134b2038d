//! A minimal JSON reader.
//!
//! The build environment is fully offline, so the trace exporters are
//! schema-checked with this small recursive-descent parser instead of an
//! external JSON crate. It accepts standard JSON (RFC 8259). The
//! simulation service also parses its network requests with it, so
//! nesting is capped at [`MAX_DEPTH`]: a deeper document is an `Err`,
//! not a stack overflow.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.bump()?;
        if got != b {
            return Err(format!(
                "expected `{}` at byte {}, got `{}`",
                b as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.string()?)),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
        }
    }

    /// Parses one array or object with `inner`, one level deeper.
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
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
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Value::Array(items)),
                c => return Err(format!("expected `,` or `]`, got `{}`", c as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Value::Object(map)),
                c => return Err(format!("expected `,` or `}}`, got `{}`", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "non-UTF8 \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        self.pos += 4;
                        // Surrogate pairs are not produced by our exporters;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    c => return Err(format!("bad escape `\\{}`", c as char)),
                },
                c if c < 0x20 => return Err("raw control character in string".into()),
                c if c < 0x80 => out.push(c as char),
                c => {
                    // Multi-byte UTF-8: copy the remaining continuation bytes.
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err("invalid UTF-8 lead byte".into()),
                    };
                    let start = self.pos - 1;
                    if start + len > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".into());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| "invalid UTF-8 sequence")?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"s":"x\ny","t":true,"n":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("s").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("t"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("n"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(1_000_000)).expect_err("too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let err = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let doc = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut v = &parse(&doc).expect("at the limit");
        for _ in 1..MAX_DEPTH {
            v = &v.as_array().expect("array")[0];
        }
        assert_eq!(v.as_array(), Some(&[Value::Number(1.0)][..]));
        let over = format!("[{doc}]");
        assert!(parse(&over).is_err(), "one past the limit");
        let objects =
            format!("{}{{}}{}", "{\"a\":".repeat(MAX_DEPTH - 1), "}".repeat(MAX_DEPTH - 1));
        assert!(parse(&objects).is_ok(), "objects at the limit");
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let v = parse(r#""café — ünïcode""#).unwrap();
        assert_eq!(v.as_str(), Some("café — ünïcode"));
    }
}
