//! The recursive-descent parser.

use crate::error::ParseError;
use crate::lexer::{lex, unescape};
use crate::token::{Pos, Tok, Token};
use cmm_ir::{
    Annotations, BinOp, BodyItem, DataBlock, DataItem, Decl, Expr, GlobalReg, Lit, Lvalue, Module,
    Name, Proc, Stmt, Ty, UnOp, Width,
};
use std::collections::HashMap;

/// Parses a complete C-- module.
///
/// String literals appearing in expression position are hoisted into
/// anonymous `data` blocks named `str$0`, `str$1`, ... which are appended
/// to the module.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its position.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut p = Parser::new(src)?;
    let mut m = Module::new();
    while !p.at(&Tok::Eof) {
        let d = p.decl()?;
        m.decls.push(d);
    }
    for b in p.hoisted.drain(..) {
        m.decls.push(Decl::Data(b));
    }
    Ok(m)
}

/// Parses a single procedure definition.
///
/// # Errors
///
/// Fails on syntax errors, if the source does not contain exactly a
/// procedure, or if the procedure uses string literals (which require
/// module-level hoisting; use [`parse_module`]).
pub fn parse_proc(src: &str) -> Result<Proc, ParseError> {
    let mut p = Parser::new(src)?;
    let d = p.decl()?;
    if !p.at(&Tok::Eof) {
        return Err(p.err("expected end of input after procedure"));
    }
    if !p.hoisted.is_empty() {
        return Err(p.err("string literals require parse_module"));
    }
    match d {
        Decl::Proc(proc) => Ok(proc),
        _ => Err(ParseError::new(
            Pos::start(),
            "expected a procedure definition",
        )),
    }
}

/// Parses a single expression.
///
/// # Errors
///
/// Fails on syntax errors or string literals.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    if !p.at(&Tok::Eof) {
        return Err(p.err("expected end of input after expression"));
    }
    if !p.hoisted.is_empty() {
        return Err(p.err("string literals require parse_module"));
    }
    Ok(e)
}

/// How deeply a source may nest: expressions (parentheses, unary
/// operators, operands of primitives and memory accesses), statements
/// (`if` blocks and `else if` chains) and negated data literals all
/// count, each level once. Every later stage (CFG build, the
/// optimizer, code generation, the engines and `Drop`) walks that
/// nesting recursively; a source nested 128 levels deep runs through
/// all of them within 1 MiB of stack in a debug build, half of a
/// default thread's.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    toks: Vec<Token<'a>>,
    at: usize,
    hoisted: Vec<DataBlock>,
    /// Current nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
    /// One `Name` per distinct identifier of the source, shared by
    /// every occurrence.
    names: HashMap<&'a str, Name>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>, ParseError> {
        let toks = lex(src)?;
        Ok(Parser {
            // Sized from the token count, so that it seldom grows.
            names: HashMap::with_capacity(toks.len() / 8),
            toks,
            at: 0,
            hoisted: Vec::new(),
            depth: 0,
        })
    }

    /// The source's one `Name` for an identifier.
    fn name(&mut self, s: &'a str) -> Name {
        self.names.entry(s).or_insert_with(|| Name::from(s)).clone()
    }

    fn peek(&self) -> Tok<'a> {
        self.toks[self.at].tok
    }

    fn peek2(&self) -> Tok<'a> {
        self.toks[(self.at + 1).min(self.toks.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.at].pos
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.peek();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == *t
    }

    /// Enters one level of nesting; [`Parser::leave`] undoes it. An
    /// error ends the parse, so only the success paths leave.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t} {what}, found {}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos(), msg)
    }

    /// True if the current token is the given contextual keyword.
    fn at_kw(&self, kw: &str) -> bool {
        self.peek() == Tok::Ident(kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Name, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(self.name(s))
            }
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    fn name_list(&mut self) -> Result<Vec<Name>, ParseError> {
        let mut out = vec![self.ident("a name")?];
        while self.eat(&Tok::Comma) {
            out.push(self.ident("a name")?);
        }
        Ok(out)
    }

    /// The current token as a type name, without consuming it.
    fn peek_ty(&self) -> Option<Ty> {
        match self.peek() {
            Tok::Ident(s) => Ty::parse_name(s),
            _ => None,
        }
    }

    fn ty(&mut self) -> Result<Ty, ParseError> {
        match self.peek_ty() {
            Some(ty) => {
                self.bump();
                Ok(ty)
            }
            None => Err(self.err(format!("expected a type, found {}", self.peek()))),
        }
    }

    // ----- declarations -----

    fn decl(&mut self) -> Result<Decl, ParseError> {
        if self.eat_kw("import") {
            let ns = self.name_list()?;
            self.expect(&Tok::Semi, "after import")?;
            return Ok(Decl::Import(ns));
        }
        if self.at_kw("export") {
            // `export` may introduce an export list, an exported data
            // block, or an exported procedure.
            if let Tok::Ident(next) = self.peek2() {
                if next == "data" {
                    self.bump();
                    self.bump();
                    let mut b = self.data_block()?;
                    b.exported = true;
                    return Ok(Decl::Data(b));
                }
            }
            // Lookahead: export NAME ( → exported procedure.
            let is_proc = matches!(self.peek2(), Tok::Ident(_))
                && self
                    .toks
                    .get(self.at + 2)
                    .is_some_and(|t| t.tok == Tok::LParen);
            self.bump();
            if is_proc {
                let mut p = self.proc()?;
                p.exported = true;
                return Ok(Decl::Proc(p));
            }
            let ns = self.name_list()?;
            self.expect(&Tok::Semi, "after export")?;
            return Ok(Decl::Export(ns));
        }
        if self.eat_kw("register") {
            let ty = self.ty()?;
            let name = self.ident("a register name")?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.lit(ty)?)
            } else {
                None
            };
            self.expect(&Tok::Semi, "after register declaration")?;
            return Ok(Decl::Register(GlobalReg { name, ty, init }));
        }
        if self.eat_kw("data") {
            return Ok(Decl::Data(self.data_block()?));
        }
        if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == Tok::LParen {
            return Ok(Decl::Proc(self.proc()?));
        }
        Err(self.err(format!("expected a declaration, found {}", self.peek())))
    }

    fn lit(&mut self, ty: Ty) -> Result<Lit, ParseError> {
        match self.bump() {
            Tok::Int(v, None) => match ty {
                Ty::Bits(w) => Ok(Lit::bits(w, v)),
                Ty::Float(_) => Err(self.err("integer literal for float type")),
            },
            Tok::Int(v, Some(w)) => {
                let w = Width::from_bits(w).ok_or_else(|| self.err("bad width"))?;
                Ok(Lit::bits(w, v))
            }
            Tok::Float(v, 32) => Ok(Lit::f32(v as f32)),
            Tok::Float(v, _) => Ok(Lit::f64(v)),
            Tok::Minus => {
                self.enter()?;
                let l = self.lit(ty)?;
                self.leave();
                match l.ty {
                    Ty::Bits(w) => Ok(Lit::bits(w, l.bits.wrapping_neg())),
                    Ty::Float(_) => Ok(Lit::f64(-l.as_f64())),
                }
            }
            other => Err(self.err(format!("expected a literal, found {other}"))),
        }
    }

    fn data_block(&mut self) -> Result<DataBlock, ParseError> {
        let name = self.ident("a data block name")?;
        self.expect(&Tok::LBrace, "to open data block")?;
        let mut items = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.eat_kw("sym") {
                items.push(DataItem::SymRef(self.ident("a symbol name")?));
                self.expect(&Tok::Semi, "after data item")?;
            } else if self.eat_kw("space") {
                match self.bump() {
                    Tok::Int(n, _) => items.push(DataItem::Space(n)),
                    other => return Err(self.err(format!("expected a size, found {other}"))),
                }
                self.expect(&Tok::Semi, "after data item")?;
            } else if self.eat_kw("string") {
                match self.bump() {
                    Tok::Str(raw) => items.push(DataItem::Str(unescape(raw))),
                    other => return Err(self.err(format!("expected a string, found {other}"))),
                }
                self.expect(&Tok::Semi, "after data item")?;
            } else if self.peek_ty().is_some() {
                let ty = self.ty()?;
                let mut lits = vec![self.lit(ty)?];
                while self.eat(&Tok::Comma) {
                    lits.push(self.lit(ty)?);
                }
                self.expect(&Tok::Semi, "after data item")?;
                items.push(DataItem::Words(ty, lits));
            } else {
                return Err(self.err(format!("expected a data item, found {}", self.peek())));
            }
        }
        Ok(DataBlock::new(name, items))
    }

    fn proc(&mut self) -> Result<Proc, ParseError> {
        let name = self.ident("a procedure name")?;
        self.expect(&Tok::LParen, "to open formals")?;
        let mut proc = Proc::new(name);
        if !self.at(&Tok::RParen) {
            loop {
                let ty = self.ty()?;
                let n = self.ident("a parameter name")?;
                proc.formals.push((n, ty));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "to close formals")?;
        self.expect(&Tok::LBrace, "to open procedure body")?;
        let (body, locals) = self.body()?;
        proc.body = body;
        proc.locals = locals;
        Ok(proc)
    }

    // ----- statements -----

    /// Parses body items up to and including the closing `}`.
    ///
    /// Local declarations (`bits32 s, p;`) may appear anywhere in the
    /// sequence; they are collected and returned separately.
    #[allow(clippy::type_complexity)]
    fn body(&mut self) -> Result<(Vec<BodyItem>, Vec<(Name, Ty)>), ParseError> {
        let mut items = Vec::new();
        let mut locals = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.at(&Tok::Eof) {
                return Err(self.err("unexpected end of input inside a body"));
            }
            self.body_item(&mut items, &mut locals)?;
        }
        Ok((items, locals))
    }

    fn body_item(
        &mut self,
        items: &mut Vec<BodyItem>,
        locals: &mut Vec<(Name, Ty)>,
    ) -> Result<(), ParseError> {
        self.enter()?;
        if self.eat_kw("if") {
            let stmt = self.if_stmt(locals)?;
            items.push(BodyItem::Stmt(stmt));
        } else {
            self.flat_item(items, locals)?;
        }
        self.leave();
        Ok(())
    }

    /// The rest of an `if` statement after its keyword. Kept apart from
    /// [`Parser::flat_item`] so that each level of nested blocks holds
    /// only this small frame on the stack.
    fn if_stmt(&mut self, locals: &mut Vec<(Name, Ty)>) -> Result<Stmt, ParseError> {
        let cond = self.expr()?;
        self.expect(&Tok::LBrace, "to open the then-branch")?;
        let (then_, mut ls) = self.body()?;
        locals.append(&mut ls);
        let else_ = if self.eat_kw("else") {
            if self.at_kw("if") {
                // `else if` chains.
                let mut chain = Vec::new();
                self.body_item(&mut chain, locals)?;
                chain
            } else {
                self.expect(&Tok::LBrace, "to open the else-branch")?;
                let (e, mut ls) = self.body()?;
                locals.append(&mut ls);
                e
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then_, else_ })
    }

    /// A body item other than `if`: one that holds no nested block.
    fn flat_item(
        &mut self,
        items: &mut Vec<BodyItem>,
        locals: &mut Vec<(Name, Ty)>,
    ) -> Result<(), ParseError> {
        // Local declaration: TYPE NAME (not TYPE `[`).
        if self.peek_ty().is_some() && matches!(self.peek2(), Tok::Ident(_)) {
            let ty = self.ty()?;
            for n in self.name_list()? {
                locals.push((n, ty));
            }
            self.expect(&Tok::Semi, "after local declaration")?;
            return Ok(());
        }
        if self.eat_kw("goto") {
            let target = self.ident("a label")?;
            self.expect(&Tok::Semi, "after goto")?;
            items.push(BodyItem::Stmt(Stmt::Goto { target }));
            return Ok(());
        }
        if self.eat_kw("jump") {
            let callee = self.callee()?;
            let args = self.paren_exprs()?;
            self.expect(&Tok::Semi, "after jump")?;
            items.push(BodyItem::Stmt(Stmt::Jump { callee, args }));
            return Ok(());
        }
        if self.eat_kw("return") {
            let alt = if self.eat(&Tok::Lt) {
                let index = self.small_int()?;
                self.expect(&Tok::Slash, "in return <i/n>")?;
                let count = self.small_int()?;
                self.expect(&Tok::Gt, "in return <i/n>")?;
                Some(cmm_ir::AltReturn { index, count })
            } else {
                None
            };
            let args = if self.at(&Tok::LParen) {
                self.paren_exprs()?
            } else {
                Vec::new()
            };
            self.expect(&Tok::Semi, "after return")?;
            items.push(BodyItem::Stmt(Stmt::Return { alt, args }));
            return Ok(());
        }
        if self.at_kw("cut") {
            self.bump();
            self.expect_kw("to")?;
            let cont = self.callee()?;
            let args = self.paren_exprs()?;
            let anns = self.annotations()?;
            self.expect(&Tok::Semi, "after cut to")?;
            items.push(BodyItem::Stmt(Stmt::CutTo { cont, args, anns }));
            return Ok(());
        }
        if self.at_kw("yield") && self.peek2() == Tok::LParen {
            self.bump();
            let args = self.paren_exprs()?;
            let anns = self.annotations()?;
            self.expect(&Tok::Semi, "after yield")?;
            items.push(BodyItem::Stmt(Stmt::Yield { args, anns }));
            return Ok(());
        }
        if self.eat_kw("continuation") {
            let name = self.ident("a continuation name")?;
            self.expect(&Tok::LParen, "to open continuation parameters")?;
            let params = if self.at(&Tok::RParen) {
                Vec::new()
            } else {
                self.name_list()?
            };
            self.expect(&Tok::RParen, "to close continuation parameters")?;
            self.expect(&Tok::Colon, "after continuation header")?;
            items.push(BodyItem::Continuation { name, params });
            return Ok(());
        }
        // Label: NAME `:`
        if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == Tok::Colon {
            let l = self.ident("a label")?;
            self.bump(); // colon
            items.push(BodyItem::Label(l));
            return Ok(());
        }
        // Call without results: NAME `(` or computed callee.
        if matches!(self.peek(), Tok::Ident(s) if Ty::parse_name(s).is_none())
            && self.peek2() == Tok::LParen
        {
            let callee = self.callee()?;
            let args = self.paren_exprs()?;
            let anns = self.annotations()?;
            self.expect(&Tok::Semi, "after call")?;
            items.push(BodyItem::Stmt(Stmt::Call {
                results: Vec::new(),
                callee,
                args,
                anns,
            }));
            return Ok(());
        }
        // Assignment or call-with-results. The first target may turn out
        // to be a computed callee (`bits32[t](u);`).
        let first_lv = self.lvalue()?;
        if let Lvalue::Mem(ty, addr) = &first_lv {
            if self.at(&Tok::LParen) {
                let callee = Expr::Mem(*ty, Box::new(addr.clone()));
                let args = self.paren_exprs()?;
                let anns = self.annotations()?;
                self.expect(&Tok::Semi, "after call")?;
                items.push(BodyItem::Stmt(Stmt::Call {
                    results: Vec::new(),
                    callee,
                    args,
                    anns,
                }));
                return Ok(());
            }
        }
        let mut lhs = vec![first_lv];
        while self.eat(&Tok::Comma) {
            lhs.push(self.lvalue()?);
        }
        self.expect(&Tok::Assign, "in assignment")?;
        // A checked primitive (`%%divu`) takes the form of a call.
        if matches!(self.peek(), Tok::Ident(s) if s.starts_with("%%"))
            && self.peek2() == Tok::LParen
        {
            let callee = Expr::Name(self.ident("a primitive")?);
            let mut results = Vec::with_capacity(lhs.len());
            for l in lhs {
                match l {
                    Lvalue::Var(n) => results.push(n),
                    Lvalue::Mem(..) => {
                        return Err(self.err("call results must be assigned to variables"));
                    }
                }
            }
            let args = self.paren_exprs()?;
            let anns = self.annotations()?;
            self.expect(&Tok::Semi, "after call")?;
            items.push(BodyItem::Stmt(Stmt::Call {
                results,
                callee,
                args,
                anns,
            }));
            return Ok(());
        }
        let first = self.expr()?;
        if self.at(&Tok::LParen) {
            // Call with results: all targets must be plain variables.
            let mut results = Vec::with_capacity(lhs.len());
            for l in lhs {
                match l {
                    Lvalue::Var(n) => results.push(n),
                    Lvalue::Mem(..) => {
                        return Err(self.err("call results must be assigned to variables"));
                    }
                }
            }
            let args = self.paren_exprs()?;
            let anns = self.annotations()?;
            self.expect(&Tok::Semi, "after call")?;
            items.push(BodyItem::Stmt(Stmt::Call {
                results,
                callee: first,
                args,
                anns,
            }));
            return Ok(());
        }
        let mut rhs = vec![first];
        while self.eat(&Tok::Comma) {
            rhs.push(self.expr()?);
        }
        if lhs.len() != rhs.len() {
            return Err(self.err(format!(
                "parallel assignment arity mismatch: {} targets, {} values",
                lhs.len(),
                rhs.len()
            )));
        }
        self.expect(&Tok::Semi, "after assignment")?;
        items.push(BodyItem::Stmt(Stmt::Assign { lhs, rhs }));
        Ok(())
    }

    fn small_int(&mut self) -> Result<u32, ParseError> {
        match self.bump() {
            Tok::Int(v, _) if v <= u64::from(u32::MAX) => Ok(v as u32),
            other => Err(self.err(format!("expected a small integer, found {other}"))),
        }
    }

    fn lvalue(&mut self) -> Result<Lvalue, ParseError> {
        if let Some(ty) = self.peek_ty() {
            if self.peek2() == Tok::LBracket {
                self.bump();
                self.bump();
                let addr = self.expr()?;
                self.expect(&Tok::RBracket, "to close memory reference")?;
                return Ok(Lvalue::Mem(ty, addr));
            }
        }
        Ok(Lvalue::Var(self.ident("an assignment target")?))
    }

    /// A callee: a plain name, or a parenthesized computed expression, or
    /// a memory load `ty[e]`.
    fn callee(&mut self) -> Result<Expr, ParseError> {
        if let Some(ty) = self.peek_ty() {
            if self.peek2() == Tok::LBracket {
                self.bump();
                self.bump();
                let addr = self.expr()?;
                self.expect(&Tok::RBracket, "to close memory reference")?;
                return Ok(Expr::Mem(ty, Box::new(addr)));
            }
        }
        if self.at(&Tok::LParen) {
            self.bump();
            let e = self.expr()?;
            self.expect(&Tok::RParen, "to close computed callee")?;
            return Ok(e);
        }
        Ok(Expr::Name(self.ident("a callee")?))
    }

    fn paren_exprs(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(&Tok::LParen, "to open arguments")?;
        let mut out = Vec::new();
        if !self.at(&Tok::RParen) {
            out.push(self.expr()?);
            while self.eat(&Tok::Comma) {
                out.push(self.expr()?);
            }
        }
        self.expect(&Tok::RParen, "to close arguments")?;
        Ok(out)
    }

    fn annotations(&mut self) -> Result<Annotations, ParseError> {
        let mut a = Annotations::none();
        while self.eat_kw("also") {
            if self.eat_kw("cuts") {
                self.expect_kw("to")?;
                a.cuts_to.extend(self.name_list()?);
            } else if self.eat_kw("unwinds") {
                self.expect_kw("to")?;
                a.unwinds_to.extend(self.name_list()?);
            } else if self.eat_kw("returns") {
                self.expect_kw("to")?;
                a.returns_to.extend(self.name_list()?);
            } else if self.eat_kw("aborts") {
                a.aborts = true;
            } else if self.eat_kw("descriptor") {
                a.descriptors.extend(self.name_list()?);
            } else {
                return Err(self.err(format!(
                    "expected `cuts`, `unwinds`, `returns`, `aborts`, or `descriptor` after `also`, found {}",
                    self.peek()
                )));
            }
        }
        Ok(a)
    }

    // ----- expressions -----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary(0)
    }

    /// Precedence climbing over the left-associative infix operators:
    /// parses operands and the operators that bind at least as tightly
    /// as `min` (see [`infix`]).
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut e = self.unary()?;
        while let Some((op, prec)) = infix(self.peek()) {
            if prec < min {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            e = Expr::binary(op, e, rhs);
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let e = if self.eat(&Tok::Minus) {
            Expr::unary(UnOp::Neg, self.unary()?)
        } else if self.eat(&Tok::Tilde) {
            Expr::unary(UnOp::Com, self.unary()?)
        } else {
            self.primary()?
        };
        self.leave();
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Int(v, None) => {
                self.bump();
                Ok(Expr::Lit(Lit::bits(Width::W32, v)))
            }
            Tok::Int(v, Some(w)) => {
                self.bump();
                let w = Width::from_bits(w).expect("lexer validated width");
                Ok(Expr::Lit(Lit::bits(w, v)))
            }
            Tok::Float(v, 32) => {
                self.bump();
                Ok(Expr::Lit(Lit::f32(v as f32)))
            }
            Tok::Float(v, _) => {
                self.bump();
                Ok(Expr::Lit(Lit::f64(v)))
            }
            Tok::Str(raw) => {
                self.bump();
                let name = Name::from(format!("str${}", self.hoisted.len()));
                self.hoisted.push(DataBlock::new(
                    name.clone(),
                    vec![DataItem::Str(unescape(raw))],
                ));
                Ok(Expr::Name(name))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "to close parenthesized expression")?;
                Ok(e)
            }
            Tok::Ident(s) => {
                // Typed memory access: TYPE `[` expr `]`.
                if let Some(ty) = Ty::parse_name(s) {
                    self.bump();
                    self.expect(&Tok::LBracket, "after type in memory access")?;
                    let addr = self.expr()?;
                    self.expect(&Tok::RBracket, "to close memory access")?;
                    return Ok(Expr::Mem(ty, Box::new(addr)));
                }
                // Primitive application: `%op(args)`.
                if s.starts_with("%%") {
                    return Err(self.err(format!(
                        "checked primitive `{s}` takes the form of a call statement, not an expression"
                    )));
                }
                if s.starts_with('%') {
                    self.bump();
                    let args = self.paren_exprs()?;
                    return self.primitive(s, args);
                }
                self.bump();
                Ok(Expr::Name(self.name(s)))
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }

    fn primitive(&self, name: &str, args: Vec<Expr>) -> Result<Expr, ParseError> {
        let unary = |args: Vec<Expr>, op: UnOp, this: &Self| -> Result<Expr, ParseError> {
            let [a]: [Expr; 1] = args
                .try_into()
                .map_err(|_| this.err(format!("`{name}` takes 1 argument")))?;
            Ok(Expr::unary(op, a))
        };
        let binary = |args: Vec<Expr>, op: BinOp, this: &Self| -> Result<Expr, ParseError> {
            let [a, b]: [Expr; 2] = args
                .try_into()
                .map_err(|_| this.err(format!("`{name}` takes 2 arguments")))?;
            Ok(Expr::binary(op, a, b))
        };
        if let Some(rest) = name.strip_prefix("%zx") {
            let w = rest.parse().ok().and_then(Width::from_bits);
            if let Some(w) = w {
                return unary(args, UnOp::Zx(w), self);
            }
        }
        if let Some(rest) = name.strip_prefix("%sx") {
            let w = rest.parse().ok().and_then(Width::from_bits);
            if let Some(w) = w {
                return unary(args, UnOp::Sx(w), self);
            }
        }
        if let Some(rest) = name.strip_prefix("%lo") {
            let w = rest.parse().ok().and_then(Width::from_bits);
            if let Some(w) = w {
                return unary(args, UnOp::Lo(w), self);
            }
        }
        match name {
            "%neg" => unary(args, UnOp::Neg, self),
            "%com" => unary(args, UnOp::Com, self),
            "%fneg" => unary(args, UnOp::FNeg, self),
            "%add" => binary(args, BinOp::Add, self),
            "%sub" => binary(args, BinOp::Sub, self),
            "%mul" => binary(args, BinOp::Mul, self),
            "%divu" => binary(args, BinOp::DivU, self),
            "%modu" => binary(args, BinOp::ModU, self),
            "%divs" => binary(args, BinOp::DivS, self),
            "%mods" => binary(args, BinOp::ModS, self),
            "%and" => binary(args, BinOp::And, self),
            "%or" => binary(args, BinOp::Or, self),
            "%xor" => binary(args, BinOp::Xor, self),
            "%shl" => binary(args, BinOp::Shl, self),
            "%shru" => binary(args, BinOp::ShrU, self),
            "%shrs" => binary(args, BinOp::ShrS, self),
            "%lts" => binary(args, BinOp::LtS, self),
            "%les" => binary(args, BinOp::LeS, self),
            "%gts" => binary(args, BinOp::GtS, self),
            "%ges" => binary(args, BinOp::GeS, self),
            "%fadd" => binary(args, BinOp::FAdd, self),
            "%fsub" => binary(args, BinOp::FSub, self),
            "%fmul" => binary(args, BinOp::FMul, self),
            "%fdiv" => binary(args, BinOp::FDiv, self),
            "%feq" => binary(args, BinOp::FEq, self),
            "%flt" => binary(args, BinOp::FLt, self),
            "%fle" => binary(args, BinOp::FLe, self),
            other => Err(self.err(format!("unknown primitive `{other}`"))),
        }
    }
}

/// An infix operator and its precedence, loosest first: `|`, `^`,
/// `&`, equality, unsigned comparison, shifts, additive,
/// multiplicative.
fn infix(t: Tok) -> Option<(BinOp, u8)> {
    Some(match t {
        Tok::Pipe => (BinOp::Or, 0),
        Tok::Caret => (BinOp::Xor, 1),
        Tok::Amp => (BinOp::And, 2),
        Tok::EqEq => (BinOp::Eq, 3),
        Tok::NotEq => (BinOp::Ne, 3),
        Tok::Lt => (BinOp::LtU, 4),
        Tok::Le => (BinOp::LeU, 4),
        Tok::Gt => (BinOp::GtU, 4),
        Tok::Ge => (BinOp::GeU, 4),
        Tok::Shl => (BinOp::Shl, 5),
        Tok::Shr => (BinOp::ShrU, 5),
        Tok::Plus => (BinOp::Add, 6),
        Tok::Minus => (BinOp::Sub, 6),
        Tok::Star => (BinOp::Mul, 7),
        Tok::Slash => (BinOp::DivU, 7),
        Tok::Percent => (BinOp::ModU, 7),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_occurrence_of_an_identifier_shares_one_name() {
        let m = parse_module("f(bits32 n) { bits32 s; s = n + n; return (s); }").unwrap();
        let p = m.proc("f").unwrap();
        let BodyItem::Stmt(Stmt::Assign { lhs, rhs }) = &p.body[0] else {
            panic!("first statement is `s = n + n`")
        };
        let at = |n: &Name| n.as_str().as_ptr();
        let (Lvalue::Var(s), Expr::Binary(_, a, b)) = (&lhs[0], &rhs[0]) else {
            panic!("`s = n + n` is a variable assignment of a sum")
        };
        let (Expr::Name(a), Expr::Name(b)) = (&**a, &**b) else {
            panic!("both operands are names")
        };
        assert_eq!(at(a), at(&p.formals[0].0));
        assert_eq!(at(b), at(&p.formals[0].0));
        assert_eq!(at(s), at(&p.locals[0].0));
    }

    #[test]
    fn parses_figure1_sp1() {
        let m = parse_module(
            r#"
            /* Ordinary recursion */
            export sp1;
            sp1(bits32 n) {
                bits32 s, p;
                if n == 1 {
                    return (1, 1);
                } else {
                    s, p = sp1(n - 1);
                    return (s + n, p * n);
                }
            }
            "#,
        )
        .unwrap();
        let p = m.proc("sp1").unwrap();
        assert_eq!(p.formals, vec![(Name::from("n"), Ty::B32)]);
        assert_eq!(p.locals.len(), 2);
        match &p.body[0] {
            BodyItem::Stmt(Stmt::If { then_, else_, .. }) => {
                assert_eq!(then_.len(), 1);
                assert_eq!(else_.len(), 2);
                match &else_[0] {
                    BodyItem::Stmt(Stmt::Call { results, .. }) => assert_eq!(results.len(), 2),
                    other => panic!("expected call, got {other:?}"),
                }
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure1_sp2_tail_calls() {
        let m = parse_module(
            r#"
            export sp2;
            sp2(bits32 n) { jump sp2_help(n, 1, 1); }
            sp2_help(bits32 n, bits32 s, bits32 p) {
                if n == 1 { return (s, p); }
                else { jump sp2_help(n - 1, s + n, p * n); }
            }
            "#,
        )
        .unwrap();
        assert_eq!(m.procs().count(), 2);
        match &m.proc("sp2").unwrap().body[0] {
            BodyItem::Stmt(Stmt::Jump { args, .. }) => assert_eq!(args.len(), 3),
            other => panic!("expected jump, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure1_sp3_loop() {
        let m = parse_module(
            r#"
            export sp3;
            sp3(bits32 n) {
                bits32 s, p;
                s = 1; p = 1;
              loop:
                if n == 1 { return (s, p); }
                else { s = s + n; p = p * n; n = n - 1; goto loop; }
            }
            "#,
        )
        .unwrap();
        let p = m.proc("sp3").unwrap();
        assert_eq!(p.labels(), vec![Name::from("loop")]);
    }

    #[test]
    fn parses_continuations_and_annotations() {
        let p = parse_proc(
            r#"
            f(bits32 x) {
                bits32 y; float64 w;
                r = g(x, k) also cuts to k also aborts;
                return;
                continuation k(x):
                return (x);
            }
            "#,
        );
        // `r` is undeclared but parsing is name-resolution-free.
        let p = p.unwrap();
        assert_eq!(p.continuations().len(), 1);
        match &p.body[0] {
            BodyItem::Stmt(Stmt::Call { anns, .. }) => {
                assert_eq!(anns.cuts_to, vec![Name::from("k")]);
                assert!(anns.aborts);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn parses_full_annotation_set() {
        let p = parse_proc(
            "f() { r = g(x) also cuts to k1 also unwinds to k2, k3 also returns to k4 also aborts also descriptor d0; return; }",
        )
        .unwrap();
        match &p.body[0] {
            BodyItem::Stmt(Stmt::Call { anns, .. }) => {
                assert_eq!(anns.cuts_to.len(), 1);
                assert_eq!(anns.unwinds_to.len(), 2);
                assert_eq!(anns.returns_to.len(), 1);
                assert!(anns.aborts);
                assert_eq!(anns.descriptors, vec![Name::from("d0")]);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn parses_abnormal_returns() {
        let p = parse_proc("f() { return <0/2> (p, q); }").unwrap();
        match &p.body[0] {
            BodyItem::Stmt(Stmt::Return { alt: Some(a), args }) => {
                assert_eq!((a.index, a.count), (0, 2));
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parses_cut_to_and_yield() {
        let p = parse_proc(
            "f() { bits32 k1; cut to k1(tag, arg) also cuts to k; yield(5) also unwinds to k also aborts; }",
        )
        .unwrap();
        match &p.body[0] {
            BodyItem::Stmt(Stmt::CutTo { args, anns, .. }) => {
                assert_eq!(args.len(), 2);
                assert_eq!(anns.cuts_to.len(), 1);
            }
            other => panic!("expected cut to, got {other:?}"),
        }
        match &p.body[1] {
            BodyItem::Stmt(Stmt::Yield { args, anns }) => {
                assert_eq!(args.len(), 1);
                assert_eq!(anns.unwinds_to.len(), 1);
                assert!(anns.aborts);
            }
            other => panic!("expected yield, got {other:?}"),
        }
    }

    #[test]
    fn parses_memory_access_and_stores() {
        let p = parse_proc("f() { bits32 x, y; bits32[x] = bits32[y] + 1; }").unwrap();
        match &p.body[0] {
            BodyItem::Stmt(Stmt::Assign { lhs, rhs }) => {
                assert!(matches!(lhs[0], Lvalue::Mem(Ty::B32, _)));
                assert!(rhs[0].reads_memory());
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_computed_callee() {
        let p = parse_proc("f() { bits32 t; t(s); bits32[t](u); }").unwrap();
        match &p.body[0] {
            BodyItem::Stmt(Stmt::Call { callee, .. }) => assert_eq!(callee, &Expr::var("t")),
            other => panic!("expected call, got {other:?}"),
        }
        match &p.body[1] {
            BodyItem::Stmt(Stmt::Call { callee, .. }) => assert!(callee.reads_memory()),
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn hoists_string_literals() {
        let m = parse_module(r#"f() { t("off board"); return; }"#).unwrap();
        let block = m.data_block("str$0").unwrap();
        assert_eq!(block.items, vec![DataItem::Str("off board".into())]);
    }

    #[test]
    fn parses_registers_and_data() {
        let m = parse_module(
            r#"
            register bits32 exn_top;
            register bits32 limit = 100;
            data exn_desc {
                bits32 1, 2, 3;
                sym handler;
                space 8;
                string "BadMove";
            }
            "#,
        )
        .unwrap();
        assert_eq!(m.registers().count(), 2);
        let d = m.data_block("exn_desc").unwrap();
        assert_eq!(d.items.len(), 4);
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("a + b * c == d").unwrap();
        assert_eq!(
            e,
            Expr::eq(
                Expr::add(Expr::var("a"), Expr::mul(Expr::var("b"), Expr::var("c"))),
                Expr::var("d")
            )
        );
        let e = parse_expr("(next + 1) % t").unwrap();
        assert_eq!(
            e,
            Expr::binary(
                BinOp::ModU,
                Expr::add(Expr::var("next"), Expr::b32(1)),
                Expr::var("t")
            )
        );
    }

    #[test]
    fn parses_prefix_primitives() {
        assert_eq!(
            parse_expr("%divs(a, b)").unwrap(),
            Expr::binary(BinOp::DivS, Expr::var("a"), Expr::var("b"))
        );
        assert_eq!(
            parse_expr("%neg(x)").unwrap(),
            Expr::unary(UnOp::Neg, Expr::var("x"))
        );
        assert_eq!(
            parse_expr("%zx32(bits8[p])").unwrap(),
            Expr::unary(UnOp::Zx(Width::W32), Expr::mem(Ty::B8, Expr::var("p")))
        );
    }

    #[test]
    fn rejects_checked_primitive_in_expression() {
        assert!(parse_expr("%%divu(a, b)").is_err());
    }

    #[test]
    fn checked_primitive_call_statement() {
        let p = parse_proc("f() { bits32 r; r = %%divu(a, b) also unwinds to k; }").unwrap();
        match &p.body[0] {
            BodyItem::Stmt(Stmt::Call { callee, .. }) => {
                assert_eq!(callee, &Expr::var("%%divu"));
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_module("f() { return }").unwrap_err();
        assert_eq!(e.pos.line, 1);
        assert!(e.message.contains("return"), "{}", e.message);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        assert!(parse_proc("f() { bits32 x, y; x, y = 1; }").is_err());
    }

    #[test]
    fn else_if_chains() {
        let p = parse_proc(
            "f(bits32 x) { if x == 1 { return (1); } else if x == 2 { return (2); } else { return (3); } }",
        )
        .unwrap();
        match &p.body[0] {
            BodyItem::Stmt(Stmt::If { else_, .. }) => {
                assert!(matches!(&else_[0], BodyItem::Stmt(Stmt::If { .. })));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }
}
