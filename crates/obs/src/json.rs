//! JSON string escaping, shared by every hand-rolled JSON writer in the
//! workspace: Chrome traces, batch reports and serve responses.

use std::fmt::Write as _;

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslashes and control characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_backslashes_and_control_characters_are_escaped() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\r\t\u{1}π"), "\\r\\t\\u0001π");
    }
}
