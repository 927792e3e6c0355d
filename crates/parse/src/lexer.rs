//! The C-- lexer.
//!
//! Comments are C-style (`/* ... */`, non-nesting) and line comments
//! (`// ...`). Identifiers may contain letters, digits, `_`, `$`, and `.`
//! (after the first character), and may begin with `%` or `%%` for
//! primitive names. Integer literals are decimal or hexadecimal
//! (`0x...`), optionally suffixed `::bitsN`; float literals have a decimal
//! point and an optional `::floatN` suffix (default `float64`).
//!
//! The lexer walks the source's bytes. Identifiers and string literals
//! are slices of the source, so lexing allocates only the token vector.
//! Positions still count characters: a UTF-8 continuation byte moves no
//! column, and any Unicode whitespace character separates tokens.

use crate::error::ParseError;
use crate::token::{Pos, Tok, Token};

/// Lexes a complete source text into tokens (ending with [`Tok::Eof`]).
///
/// # Errors
///
/// Returns a [`ParseError`] for unterminated comments or strings, bad
/// escapes, malformed numbers, or characters outside the language.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        at: 0,
        pos: Pos::start(),
    }
    .run()
}

/// The text a string literal's raw source slice stands for. The lexer
/// has already checked every escape.
pub fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('n') => '\n',
            Some('t') => '\t',
            Some('0') => '\0',
            Some(c) => c, // `"` or `\`
            None => unreachable!("the lexer rejects a trailing backslash"),
        });
    }
    out
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread byte (always on a character
    /// boundary between tokens).
    at: usize,
    pos: Pos,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.at + 1).copied()
    }

    /// The character starting at the next byte.
    fn peek_char(&self) -> Option<char> {
        self.src[self.at..].chars().next()
    }

    /// Consumes one byte. A newline starts a new line; every other byte
    /// that begins a character moves one column.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        if b == b'\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.pos.col += 1;
        }
        Some(b)
    }

    /// Consumes one whole character.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        for _ in 0..c.len_utf8() {
            self.bump();
        }
        Some(c)
    }

    /// Consumes bytes while `keep` holds; returns the slice consumed.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.at;
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &self.src[start..self.at]
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, msg)
    }

    fn run(mut self) -> Result<Vec<Token<'a>>, ParseError> {
        let mut out = Vec::with_capacity(self.bytes.len() / 4 + 1);
        loop {
            self.skip_trivia()?;
            let pos = self.pos;
            let Some(c) = self.peek() else {
                out.push(Token { tok: Tok::Eof, pos });
                return Ok(out);
            };
            let tok = match c {
                b'(' => self.single(Tok::LParen),
                b')' => self.single(Tok::RParen),
                b'{' => self.single(Tok::LBrace),
                b'}' => self.single(Tok::RBrace),
                b'[' => self.single(Tok::LBracket),
                b']' => self.single(Tok::RBracket),
                b',' => self.single(Tok::Comma),
                b';' => self.single(Tok::Semi),
                b':' => self.single(Tok::Colon),
                b'+' => self.single(Tok::Plus),
                b'-' => self.single(Tok::Minus),
                b'*' => self.single(Tok::Star),
                b'/' => self.single(Tok::Slash),
                b'&' => self.single(Tok::Amp),
                b'|' => self.single(Tok::Pipe),
                b'^' => self.single(Tok::Caret),
                b'~' => self.single(Tok::Tilde),
                b'=' => self.one_or_two(b'=', Tok::Assign, Tok::EqEq),
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::NotEq
                    } else {
                        return Err(self.error("expected `!=`"));
                    }
                }
                b'<' => {
                    self.bump();
                    match self.peek() {
                        Some(b'=') => self.single(Tok::Le),
                        Some(b'<') => self.single(Tok::Shl),
                        _ => Tok::Lt,
                    }
                }
                b'>' => {
                    self.bump();
                    match self.peek() {
                        Some(b'=') => self.single(Tok::Ge),
                        Some(b'>') => self.single(Tok::Shr),
                        _ => Tok::Gt,
                    }
                }
                b'"' => self.string()?,
                b'%' => self.percent(),
                c if c.is_ascii_digit() => self.number()?,
                c if is_ident_start(c) => Tok::Ident(self.take_while(is_ident_continue)),
                _ => {
                    let other = self.peek_char().expect("not at the end");
                    return Err(self.error(format!("unexpected character {other:?}")));
                }
            };
            out.push(Token { tok, pos });
        }
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii() && (b as char).is_whitespace() => {
                    self.bump();
                }
                Some(b) if !b.is_ascii() && self.peek_char().is_some_and(char::is_whitespace) => {
                    self.bump_char();
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => return Err(ParseError::new(start, "unterminated comment")),
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    self.take_while(|b| b != b'\n');
                }
                _ => return Ok(()),
            }
        }
    }

    fn single(&mut self, tok: Tok<'a>) -> Tok<'a> {
        self.bump();
        tok
    }

    fn one_or_two(&mut self, second: u8, one: Tok<'a>, two: Tok<'a>) -> Tok<'a> {
        self.bump();
        if self.peek() == Some(second) {
            self.bump();
            two
        } else {
            one
        }
    }

    /// A string literal: its text between the quotes, escapes checked
    /// but not yet applied (see [`unescape`]).
    fn string(&mut self) -> Result<Tok<'a>, ParseError> {
        let start = self.pos;
        self.bump(); // opening quote
        let from = self.at;
        loop {
            match self.bump() {
                Some(b'"') => return Ok(Tok::Str(&self.src[from..self.at - 1])),
                Some(b'\\') => match self.peek() {
                    Some(b'n' | b't' | b'0' | b'"' | b'\\') => {
                        self.bump();
                    }
                    _ => {
                        let other = self.bump_char();
                        return Err(self.error(format!("bad string escape {other:?}")));
                    }
                },
                Some(_) => {}
                None => return Err(ParseError::new(start, "unterminated string literal")),
            }
        }
    }

    /// `%` begins either the modulus operator or a primitive name like
    /// `%divu` / `%%divu`. A `%%` that no name follows is two moduli:
    /// only the first `%` is consumed here.
    fn percent(&mut self) -> Tok<'a> {
        let start = self.at;
        let name_at = if self.peek2() == Some(b'%') { 2 } else { 1 };
        if !self
            .bytes
            .get(self.at + name_at)
            .is_some_and(|&b| is_ident_start(b))
        {
            return self.single(Tok::Percent);
        }
        for _ in 0..name_at {
            self.bump();
        }
        self.take_while(is_ident_continue);
        Tok::Ident(&self.src[start..self.at])
    }

    fn number(&mut self) -> Result<Tok<'a>, ParseError> {
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x' | b'X')) {
            self.bump();
            self.bump();
            let digits = self.take_while(|b| b.is_ascii_hexdigit() || b == b'_');
            let v = digits_value(digits, 16)
                .ok_or_else(|| self.error("malformed hexadecimal literal"))?;
            return Ok(match self.suffix()? {
                Some(("bits", w)) => Tok::Int(v, Some(w)),
                Some(("float", _)) => return Err(self.error("hex literal with float suffix")),
                _ => Tok::Int(v, None),
            });
        }
        let start = self.at;
        let digits = self.take_while(|b| b.is_ascii_digit() || b == b'_');
        let is_float =
            self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit());
        if is_float {
            self.bump();
            self.take_while(|b| b.is_ascii_digit());
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.bump();
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.bump();
                }
                self.take_while(|b| b.is_ascii_digit());
            }
            let text = &self.src[start..self.at];
            let v: Option<f64> = if text.contains('_') {
                text.replace('_', "").parse().ok()
            } else {
                text.parse().ok()
            };
            let v = v.ok_or_else(|| self.error("malformed float literal"))?;
            let width = match self.suffix()? {
                Some(("float", w)) => w,
                Some(_) => return Err(self.error("float literal with bits suffix")),
                None => 64,
            };
            return Ok(Tok::Float(v, width));
        }
        let v = digits_value(digits, 10).ok_or_else(|| self.error("malformed integer literal"))?;
        Ok(match self.suffix()? {
            Some(("bits", w)) => Tok::Int(v, Some(w)),
            Some(("float", w)) => Tok::Float(v as f64, w),
            _ => Tok::Int(v, None),
        })
    }

    /// Parses an optional `::bitsN` / `::floatN` suffix.
    fn suffix(&mut self) -> Result<Option<(&'static str, u32)>, ParseError> {
        if self.peek() != Some(b':') || self.peek2() != Some(b':') {
            return Ok(None);
        }
        self.bump();
        self.bump();
        let name = self.take_while(|b| b.is_ascii_alphanumeric());
        if let Some(rest) = name.strip_prefix("bits") {
            let w: u32 = rest.parse().map_err(|_| self.error("bad bits suffix"))?;
            if ![8, 16, 32, 64].contains(&w) {
                return Err(self.error(format!("unsupported width bits{w}")));
            }
            Ok(Some(("bits", w)))
        } else if let Some(rest) = name.strip_prefix("float") {
            let w: u32 = rest.parse().map_err(|_| self.error("bad float suffix"))?;
            if ![32, 64].contains(&w) {
                return Err(self.error(format!("unsupported width float{w}")));
            }
            Ok(Some(("float", w)))
        } else {
            Err(self.error(format!("unknown literal suffix ::{name}")))
        }
    }
}

/// The value of digits in `radix` with `_` separators skipped: `None`
/// if there are no digits or the value overflows 64 bits.
fn digits_value(digits: &str, radix: u32) -> Option<u64> {
    let mut v: Option<u64> = None;
    for c in digits.chars().filter(|&c| c != '_') {
        let d = u64::from(c.to_digit(radix)?);
        v = Some(
            v.unwrap_or(0)
                .checked_mul(u64::from(radix))?
                .checked_add(d)?,
        );
    }
    v
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b'$'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'$' || c == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_punctuation_and_operators() {
        assert_eq!(
            toks("( ) { } [ ] , ; : = == != < <= > >= << >> + - * / % & | ^ ~"),
            vec![
                Tok::LParen,
                Tok::RParen,
                Tok::LBrace,
                Tok::RBrace,
                Tok::LBracket,
                Tok::RBracket,
                Tok::Comma,
                Tok::Semi,
                Tok::Colon,
                Tok::Assign,
                Tok::EqEq,
                Tok::NotEq,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Shl,
                Tok::Shr,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
                Tok::Amp,
                Tok::Pipe,
                Tok::Caret,
                Tok::Tilde,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42, None), Tok::Eof]);
        assert_eq!(toks("0xff"), vec![Tok::Int(255, None), Tok::Eof]);
        assert_eq!(toks("0xFF_ff"), vec![Tok::Int(0xffff, None), Tok::Eof]);
        assert_eq!(toks("1_000"), vec![Tok::Int(1000, None), Tok::Eof]);
        assert_eq!(toks("7::bits8"), vec![Tok::Int(7, Some(8)), Tok::Eof]);
        assert_eq!(toks("3::float32"), vec![Tok::Float(3.0, 32), Tok::Eof]);
        assert_eq!(toks("1.5"), vec![Tok::Float(1.5, 64), Tok::Eof]);
        assert_eq!(toks("1_0.5"), vec![Tok::Float(10.5, 64), Tok::Eof]);
        assert_eq!(toks("1.5::float32"), vec![Tok::Float(1.5, 32), Tok::Eof]);
        assert_eq!(toks("2.5e2"), vec![Tok::Float(250.0, 64), Tok::Eof]);
        assert_eq!(toks("2.5E-1"), vec![Tok::Float(0.25, 64), Tok::Eof]);
        assert_eq!(
            toks("18446744073709551615"),
            vec![Tok::Int(u64::MAX, None), Tok::Eof]
        );
    }

    #[test]
    fn lexes_primitive_names() {
        assert_eq!(toks("%divu"), vec![Tok::Ident("%divu"), Tok::Eof]);
        assert_eq!(toks("%%divu"), vec![Tok::Ident("%%divu"), Tok::Eof]);
        assert_eq!(
            toks("a % b"),
            vec![Tok::Ident("a"), Tok::Percent, Tok::Ident("b"), Tok::Eof]
        );
        assert_eq!(
            toks("a %%3"),
            vec![
                Tok::Ident("a"),
                Tok::Percent,
                Tok::Percent,
                Tok::Int(3, None),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            toks(r#""off board""#),
            vec![Tok::Str("off board"), Tok::Eof]
        );
        assert_eq!(toks(r#""a\nb\"c""#), vec![Tok::Str(r#"a\nb\"c"#), Tok::Eof]);
        assert_eq!(unescape(r#"a\nb\"c\\\t\0"#), "a\nb\"c\\\t\0");
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            toks("a /* comment \n more */ b // line\nc"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Ident("c"), Tok::Eof]
        );
    }

    #[test]
    fn tracks_positions() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn ident_chars() {
        assert_eq!(toks("sp2_help"), vec![Tok::Ident("sp2_help"), Tok::Eof]);
        assert_eq!(toks("str$0"), vec![Tok::Ident("str$0"), Tok::Eof]);
    }
}
