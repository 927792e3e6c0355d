//! A minimal flat-JSON reader for the service's line protocol.
//!
//! Requests on the wire are single-line JSON objects whose values are
//! strings, unsigned integers, or arrays of unsigned integers — the
//! full shape the protocol needs and nothing more. The workspace has
//! no JSON dependency (every emitter hand-rolls its output), so the
//! service hand-rolls its *reader* too, and keeps it total: any
//! malformed line becomes an `Err` with a position, never a panic.

/// A decoded protocol value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JsonValue {
    /// A string (escapes decoded).
    Str(String),
    /// An unsigned integer. The protocol has no fractional or negative
    /// quantities: thread ids, fuel, words, and codes are all `u64`.
    Num(u64),
    /// An array of unsigned integers (procedure arguments).
    Arr(Vec<u64>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one flat JSON object into `(key, value)` pairs, preserving
/// the order keys appear on the wire. Duplicate keys are allowed;
/// [`get`] returns the last, matching the common JSON convention.
///
/// # Errors
///
/// Fails with a byte position and description on any malformed input,
/// including trailing garbage after the closing brace.
pub fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            out.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(p.err("expected `,` or `}`")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after object"));
    }
    Ok(out)
}

/// The last value bound to `key`, if any.
pub fn get<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.next() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.number()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => break,
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
                Ok(JsonValue::Arr(items))
            }
            Some(b'0'..=b'9') => Ok(JsonValue::Num(self.number()?)),
            _ => Err(self.err("expected a string, number, or array")),
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a digit"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .parse()
            .map_err(|_| self.err("number out of range"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?);
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(b) => {
                    // Re-assemble the UTF-8 sequence this byte starts.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("bad UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let f = parse_object(
            r#"{"op": "submit", "tenant": "a", "args": [1, 2, 3], "fuel": 500, "empty": []}"#,
        )
        .unwrap();
        assert_eq!(get(&f, "op").unwrap().as_str(), Some("submit"));
        assert_eq!(get(&f, "tenant").unwrap().as_str(), Some("a"));
        assert_eq!(get(&f, "args"), Some(&JsonValue::Arr(vec![1, 2, 3])));
        assert_eq!(get(&f, "fuel").unwrap().as_num(), Some(500));
        assert_eq!(get(&f, "empty"), Some(&JsonValue::Arr(vec![])));
        assert_eq!(get(&f, "missing"), None);
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a \"quoted\" line\nwith\ttabs \\ and unicode: π";
        let wire = format!("{{\"s\": \"{}\"}}", cmm_obs::json_escape(original));
        let f = parse_object(&wire).unwrap();
        assert_eq!(get(&f, "s").unwrap().as_str(), Some(original));
        // Standard \uXXXX escapes decode too.
        let f = parse_object(r#"{"s": "Aé"}"#).unwrap();
        assert_eq!(get(&f, "s").unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn malformed_lines_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "{]",
            r#"{"a"}"#,
            r#"{"a": }"#,
            r#"{"a": -1}"#,
            r#"{"a": 1.5}"#,
            r#"{"a": [1,]}"#,
            r#"{"a": ["x"]}"#,
            r#"{"a": 1} trailing"#,
            r#"{"a": "unterminated}"#,
            r#"{"a": "\q"}"#,
            "{\"a\": 99999999999999999999999}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted: {bad}");
        }
    }
}
