//! MiniM3 parser (hand-written, recursive descent).

use crate::ast::{M3Expr, M3Handler, M3Op, M3Proc, M3Program, M3Stmt};
use std::fmt;

/// A MiniM3 syntax error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct M3ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the source.
    pub at: usize,
}

impl fmt::Display for M3ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "minim3 syntax error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for M3ParseError {}

/// How deeply a program may nest: expressions (parentheses and call
/// arguments) and statements (`if`, `while` and `try` blocks and
/// `else if` chains) each count once per level. Lowering and every
/// later stage walk that nesting recursively; lowering a `try` costs
/// the most stack per level, and 64 nested `try` blocks lower, build,
/// optimize, compile and run on every engine within 1 MiB of stack in
/// a debug build, half of a default thread's.
pub const MAX_DEPTH: usize = 64;

/// Parses a MiniM3 program.
///
/// # Errors
///
/// Returns the first syntax error.
pub fn parse_minim3(src: &str) -> Result<M3Program, M3ParseError> {
    let mut p = P {
        toks: tokenize(src),
        at: 0,
        depth: 0,
    };
    let mut prog = M3Program::default();
    while !p.done() {
        if p.eat_kw("exception") {
            prog.exceptions.push(p.ident()?);
            while p.eat(",") {
                prog.exceptions.push(p.ident()?);
            }
            p.expect(";")?;
        } else if p.eat_kw("proc") {
            prog.procs.push(p.proc()?);
        } else {
            return Err(p.error("expected `exception` or `proc`"));
        }
    }
    Ok(prog)
}

#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    text: &'a str,
    at: usize,
}

fn tokenize(src: &str) -> Vec<Tok<'_>> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        if c.is_ascii_alphabetic() || c == '_' {
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
        } else if c.is_ascii_digit() {
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
        } else if (matches!(c, '=' | '!' | '<' | '>') && bytes.get(i + 1) == Some(&b'='))
            || (c == '=' && bytes.get(i + 1) == Some(&b'>'))
        {
            i += 2;
        } else {
            // Advance over the whole (possibly multi-byte) character so
            // the slice below stays on a char boundary: unknown input
            // becomes an unrecognized token the parser rejects with a
            // normal error, never a panic.
            i += src[i..].chars().next().map_or(1, char::len_utf8);
        }
        toks.push(Tok {
            text: &src[start..i],
            at: start,
        });
    }
    toks
}

struct P<'a> {
    toks: Vec<Tok<'a>>,
    at: usize,
    /// Current nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> P<'a> {
    fn done(&self) -> bool {
        self.at >= self.toks.len()
    }

    fn peek(&self) -> &'a str {
        self.toks.get(self.at).map_or("", |t| t.text)
    }

    fn bump(&mut self) -> String {
        let t = self.peek().to_string();
        self.at += 1;
        t
    }

    /// Enters one level of nesting; an error ends the parse, so only
    /// the success paths leave.
    fn enter(&mut self) -> Result<(), M3ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.peek() == s {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, s: &str) -> bool {
        self.eat(s)
    }

    fn expect(&mut self, s: &str) -> Result<(), M3ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{s}`, found `{}`", self.peek())))
        }
    }

    fn error(&self, msg: impl Into<String>) -> M3ParseError {
        M3ParseError {
            message: msg.into(),
            at: self.toks.get(self.at).map(|t| t.at).unwrap_or(usize::MAX),
        }
    }

    fn ident(&mut self) -> Result<String, M3ParseError> {
        let t = self.peek();
        if t.chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected an identifier, found `{t}`")))
        }
    }

    fn proc(&mut self) -> Result<M3Proc, M3ParseError> {
        let name = self.ident()?;
        self.expect("(")?;
        let mut params = Vec::new();
        if !self.eat(")") {
            loop {
                params.push(self.ident()?);
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")")?;
        }
        self.expect("{")?;
        let mut locals = Vec::new();
        let body = self.block_items(&mut locals)?;
        Ok(M3Proc {
            name,
            params,
            locals,
            body,
        })
    }

    /// Parses statements up to and including `}`.
    fn block_items(&mut self, locals: &mut Vec<String>) -> Result<Vec<M3Stmt>, M3ParseError> {
        let mut out = Vec::new();
        while !self.eat("}") {
            if self.done() {
                return Err(self.error("unexpected end of input in a block"));
            }
            if self.eat_kw("var") {
                locals.push(self.ident()?);
                while self.eat(",") {
                    locals.push(self.ident()?);
                }
                self.expect(";")?;
                continue;
            }
            out.push(self.stmt(locals)?);
        }
        Ok(out)
    }

    fn block(&mut self, locals: &mut Vec<String>) -> Result<Vec<M3Stmt>, M3ParseError> {
        self.expect("{")?;
        self.block_items(locals)
    }

    fn stmt(&mut self, locals: &mut Vec<String>) -> Result<M3Stmt, M3ParseError> {
        self.enter()?;
        let s = if self.eat_kw("if") {
            self.if_stmt(locals)?
        } else if self.eat_kw("while") {
            let cond = self.expr()?;
            M3Stmt::While(cond, self.block(locals)?)
        } else if self.eat_kw("try") {
            self.try_stmt(locals)?
        } else {
            self.flat_stmt()?
        };
        self.depth -= 1;
        Ok(s)
    }

    /// The rest of an `if` statement after its keyword. Statements that
    /// hold blocks are parsed apart from [`P::flat_stmt`], so each level
    /// of nested blocks keeps only small frames on the stack.
    fn if_stmt(&mut self, locals: &mut Vec<String>) -> Result<M3Stmt, M3ParseError> {
        let cond = self.expr()?;
        let then_ = self.block(locals)?;
        let else_ = if self.eat_kw("else") {
            if self.peek() == "if" {
                vec![self.stmt(locals)?]
            } else {
                self.block(locals)?
            }
        } else {
            Vec::new()
        };
        Ok(M3Stmt::If(cond, then_, else_))
    }

    /// The rest of a `try` statement after its keyword.
    fn try_stmt(&mut self, locals: &mut Vec<String>) -> Result<M3Stmt, M3ParseError> {
        let body = self.block(locals)?;
        self.expect("except")?;
        self.expect("{")?;
        let mut handlers = Vec::new();
        while !self.eat("}") {
            let exception = self.ident()?;
            let binds = if self.eat("(") {
                let b = self.ident()?;
                self.expect(")")?;
                if !locals.contains(&b) {
                    locals.push(b.clone());
                }
                Some(b)
            } else {
                None
            };
            self.expect("=>")?;
            let hbody = self.block(locals)?;
            handlers.push(M3Handler {
                exception,
                binds,
                body: hbody,
            });
        }
        Ok(M3Stmt::Try { body, handlers })
    }

    /// A statement that holds no block.
    fn flat_stmt(&mut self) -> Result<M3Stmt, M3ParseError> {
        if self.eat_kw("return") {
            let e = self.expr()?;
            self.expect(";")?;
            return Ok(M3Stmt::Return(e));
        }
        if self.eat_kw("raise") {
            let exc = self.ident()?;
            let value = if self.eat("(") {
                let e = self.expr()?;
                self.expect(")")?;
                Some(e)
            } else {
                None
            };
            self.expect(";")?;
            return Ok(M3Stmt::Raise(exc, value));
        }
        // Assignment or call.
        let name = self.ident()?;
        if self.eat("=") {
            // `x = f(...)` is a call statement; anything else is an
            // assignment.
            if self.peek_is_call() {
                let callee = self.ident()?;
                let args = self.args()?;
                self.expect(";")?;
                return Ok(M3Stmt::Call {
                    dst: Some(name),
                    callee,
                    args,
                });
            }
            let e = self.expr()?;
            self.expect(";")?;
            return Ok(M3Stmt::Assign(name, e));
        }
        if self.peek() == "(" {
            let args = self.args()?;
            self.expect(";")?;
            return Ok(M3Stmt::Call {
                dst: None,
                callee: name,
                args,
            });
        }
        Err(self.error(format!("expected a statement after `{name}`")))
    }

    fn peek_is_call(&self) -> bool {
        let ident = self
            .toks
            .get(self.at)
            .map(|t| {
                t.text
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_alphabetic() || c == '_')
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        ident && self.toks.get(self.at + 1).is_some_and(|t| t.text == "(")
    }

    fn args(&mut self) -> Result<Vec<M3Expr>, M3ParseError> {
        self.expect("(")?;
        let mut args = Vec::new();
        if !self.eat(")") {
            loop {
                args.push(self.expr()?);
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")")?;
        }
        Ok(args)
    }

    fn expr(&mut self) -> Result<M3Expr, M3ParseError> {
        self.enter()?;
        let e = self.comparison()?;
        self.depth -= 1;
        Ok(e)
    }

    fn comparison(&mut self) -> Result<M3Expr, M3ParseError> {
        let lhs = self.arith()?;
        let op = match self.peek() {
            "==" => M3Op::Eq,
            "!=" => M3Op::Ne,
            "<" => M3Op::Lt,
            "<=" => M3Op::Le,
            ">" => M3Op::Gt,
            ">=" => M3Op::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.arith()?;
        Ok(M3Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn arith(&mut self) -> Result<M3Expr, M3ParseError> {
        let mut e = self.term()?;
        loop {
            let op = match self.peek() {
                "+" => M3Op::Add,
                "-" => M3Op::Sub,
                _ => return Ok(e),
            };
            self.bump();
            e = M3Expr::Bin(op, Box::new(e), Box::new(self.term()?));
        }
    }

    fn term(&mut self) -> Result<M3Expr, M3ParseError> {
        let mut e = self.atom()?;
        loop {
            let op = match self.peek() {
                "*" => M3Op::Mul,
                "/" => M3Op::Div,
                "%" => M3Op::Mod,
                _ => return Ok(e),
            };
            self.bump();
            e = M3Expr::Bin(op, Box::new(e), Box::new(self.atom()?));
        }
    }

    fn atom(&mut self) -> Result<M3Expr, M3ParseError> {
        if self.eat("(") {
            let e = self.expr()?;
            self.expect(")")?;
            return Ok(e);
        }
        let t = self.peek();
        if t.chars()
            .next()
            .map(|c| c.is_ascii_digit())
            .unwrap_or(false)
        {
            self.bump();
            let v: u32 = t
                .parse()
                .map_err(|_| self.error("integer literal overflows 32 bits"))?;
            return Ok(M3Expr::Num(v));
        }
        Ok(M3Expr::Var(self.ident()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_game_example() {
        let p = parse_minim3(
            r#"
            exception BadMove, NoMoreTiles;
            proc tryAMove(player, seed) {
                var t, moves;
                moves = 0;
                try {
                    t = getMove(player, seed);
                    makeMove(t);
                } except {
                    BadMove(why) => { moves = why; }
                    NoMoreTiles => { moves = 0 - 1; }
                }
                moves = moves + 1;
                return moves;
            }
            proc getMove(p, s) { if s > 10 { raise BadMove(s); } return s; }
            proc makeMove(t) { return t; }
            proc main(s) { var r; r = tryAMove(1, s); return r; }
            "#,
        )
        .unwrap();
        assert_eq!(p.exceptions, vec!["BadMove", "NoMoreTiles"]);
        assert_eq!(p.procs.len(), 4);
        let t = p.proc("tryAMove").unwrap();
        assert!(t.locals.contains(&"why".to_string()));
        match &t.body[1] {
            M3Stmt::Try { handlers, .. } => {
                assert_eq!(handlers.len(), 2);
                assert_eq!(handlers[0].binds.as_deref(), Some("why"));
                assert_eq!(handlers[1].binds, None);
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn distinguishes_calls_from_assignments() {
        let p = parse_minim3(
            "proc f(x) { var a; a = x + 1; a = g(a); g(a); return a; } proc g(y) { return y; }",
        )
        .unwrap();
        let f = p.proc("f").unwrap();
        assert!(matches!(f.body[0], M3Stmt::Assign(..)));
        assert!(matches!(f.body[1], M3Stmt::Call { dst: Some(_), .. }));
        assert!(matches!(f.body[2], M3Stmt::Call { dst: None, .. }));
    }

    #[test]
    fn while_and_precedence() {
        let p = parse_minim3(
            "proc f(n) { var s; s = 0; while n > 0 { s = s + n * 2; n = n - 1; } return s; }",
        )
        .unwrap();
        let f = p.proc("f").unwrap();
        match &f.body[1] {
            M3Stmt::While(cond, body) => {
                assert!(matches!(cond, M3Expr::Bin(M3Op::Gt, ..)));
                assert_eq!(body.len(), 2);
                // s + n * 2 parses as s + (n * 2)
                match &body[0] {
                    M3Stmt::Assign(_, M3Expr::Bin(M3Op::Add, _, rhs)) => {
                        assert!(matches!(**rhs, M3Expr::Bin(M3Op::Mul, ..)));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn errors_have_positions() {
        let e = parse_minim3("proc f( { }").unwrap_err();
        assert!(e.message.contains("expected"));
    }

    #[test]
    fn multibyte_input_is_an_error_not_a_panic() {
        let e = parse_minim3("proc f(x) { return x λ 1; }").unwrap_err();
        assert!(e.message.contains("expected"));
        assert!(parse_minim3("λλλ").is_err());
    }
}
