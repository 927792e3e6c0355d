//! Tokens and source positions.

use crate::lexer::unescape;
use std::fmt;

/// A position in the source text (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    /// The start of the text.
    pub fn start() -> Pos {
        Pos { line: 1, col: 1 }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One lexical token. Identifiers and string literals borrow their
/// text from the source.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Tok<'a> {
    /// An identifier or keyword (keywords are distinguished by the
    /// parser, since most C-- keywords are contextual). Includes
    /// primitive names beginning with `%` or `%%`.
    Ident(&'a str),
    /// An integer literal (value, and whether it carried a `::bitsN`
    /// suffix).
    Int(u64, Option<u32>),
    /// A float literal with its `::floatN` width (suffix required to
    /// distinguish from two integers separated by `.`... in practice the
    /// lexer accepts `1.5` and defaults to `float64`).
    Float(f64, u32),
    /// A string literal: the source text between its quotes, escapes
    /// checked but not applied ([`crate::lexer::unescape`] applies
    /// them).
    Str(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%` (the modulus operator; primitive names like `%divu` lex as
    /// `Ident`).
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v, None) => write!(f, "{v}"),
            Tok::Int(v, Some(w)) => write!(f, "{v}::bits{w}"),
            Tok::Float(v, w) => write!(f, "{v}::float{w}"),
            Tok::Str(raw) => write!(f, "{:?}", unescape(raw)),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Shl => write!(f, "`<<`"),
            Tok::Shr => write!(f, "`>>`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Percent => write!(f, "`%`"),
            Tok::Amp => write!(f, "`&`"),
            Tok::Pipe => write!(f, "`|`"),
            Tok::Caret => write!(f, "`^`"),
            Tok::Tilde => write!(f, "`~`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token<'a> {
    /// The token itself.
    pub tok: Tok<'a>,
    /// Where it starts.
    pub pos: Pos,
}
