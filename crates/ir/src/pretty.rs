//! Pretty-printing of IR to concrete C-- syntax.
//!
//! The printer regenerates syntax in the style of the paper's figures; its
//! output is accepted by the parser in `cmm-parse`, so
//! `parse ∘ pretty = id` (up to formatting). Operands of infix operators
//! are parenthesized whenever they are not primary expressions, which keeps
//! the grammar unambiguous without a precedence table in the printer.

use crate::expr::{Expr, Lit};
use crate::module::{DataItem, Decl, Module};
use crate::name::Name;
use crate::proc::{BodyItem, Proc};
use crate::stmt::{Annotations, Lvalue, Stmt};
use crate::ty::{Ty, Width};
use std::fmt::Write as _;

/// Pretty-prints a module.
pub fn module_to_string(m: &Module) -> String {
    let mut p = Printer::new();
    for d in &m.decls {
        p.decl(d);
    }
    p.out
}

/// Pretty-prints a single procedure.
pub fn proc_to_string(proc: &Proc) -> String {
    let mut p = Printer::new();
    p.proc(proc);
    p.out
}

/// Pretty-prints an expression.
pub fn expr_to_string(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e);
    s
}

/// Pretty-prints a statement (single line where possible).
pub fn stmt_to_string(s: &Stmt) -> String {
    let mut p = Printer::new();
    p.stmt(s);
    p.out.trim_end().to_string()
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Printer {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn decl(&mut self, d: &Decl) {
        match d {
            Decl::Proc(p) => self.proc(p),
            Decl::Data(b) => {
                let kw = if b.exported { "export data" } else { "data" };
                self.line(&format!("{kw} {} {{", b.name));
                self.indent += 1;
                for item in &b.items {
                    match item {
                        DataItem::Words(ty, lits) => {
                            let vals: Vec<String> = lits.iter().map(lit_str).collect();
                            self.line(&format!("{ty} {};", vals.join(", ")));
                        }
                        DataItem::SymRef(n) => self.line(&format!("sym {n};")),
                        DataItem::Space(n) => self.line(&format!("space {n};")),
                        DataItem::Str(s) => self.line(&format!("string {};", quote(s))),
                    }
                }
                self.indent -= 1;
                self.line("}");
            }
            Decl::Register(r) => match &r.init {
                Some(init) => self.line(&format!(
                    "register {} {} = {};",
                    r.ty,
                    r.name,
                    lit_str(init)
                )),
                None => self.line(&format!("register {} {};", r.ty, r.name)),
            },
            Decl::Import(ns) => self.line(&format!("import {};", comma_names(ns))),
            Decl::Export(ns) => self.line(&format!("export {};", comma_names(ns))),
        }
    }

    fn proc(&mut self, p: &Proc) {
        let formals: Vec<String> = p
            .formals
            .iter()
            .map(|(n, ty)| format!("{ty} {n}"))
            .collect();
        let kw = if p.exported { "export " } else { "" };
        self.line(&format!("{kw}{}({}) {{", p.name, formals.join(", ")));
        self.indent += 1;
        // Group locals by type for compact declarations.
        let mut by_ty: Vec<(Ty, Vec<Name>)> = Vec::new();
        for (n, ty) in &p.locals {
            match by_ty.iter_mut().find(|(t, _)| t == ty) {
                Some((_, ns)) => ns.push(n.clone()),
                None => by_ty.push((*ty, vec![n.clone()])),
            }
        }
        for (ty, ns) in by_ty {
            self.line(&format!("{ty} {};", comma_names(&ns)));
        }
        self.body(&p.body);
        self.indent -= 1;
        self.line("}");
    }

    fn body(&mut self, items: &[BodyItem]) {
        for item in items {
            match item {
                BodyItem::Stmt(s) => self.stmt(s),
                BodyItem::Label(l) => {
                    // Labels print flush with statements (the paper
                    // outdents them; either parses identically).
                    self.line(&format!("{l}:"));
                }
                BodyItem::Continuation { name, params } => {
                    self.line(&format!("continuation {name}({}):", comma_names(params)));
                }
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { lhs, rhs } => {
                let l: Vec<String> = lhs.iter().map(lvalue_str).collect();
                let r: Vec<String> = rhs.iter().map(expr_to_string).collect();
                self.line(&format!("{} = {};", l.join(", "), r.join(", ")));
            }
            Stmt::If { cond, then_, else_ } => {
                self.line(&format!("if {} {{", expr_to_string(cond)));
                self.indent += 1;
                self.body(then_);
                self.indent -= 1;
                if else_.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    self.body(else_);
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::Goto { target } => self.line(&format!("goto {target};")),
            Stmt::Call {
                results,
                callee,
                args,
                anns,
            } => {
                let mut line = String::new();
                if !results.is_empty() {
                    let _ = write!(line, "{} = ", comma_names(results));
                }
                let _ = write!(line, "{}({})", callee_str(callee), comma_exprs(args));
                line.push_str(&anns_str(anns));
                line.push(';');
                self.line(&line);
            }
            Stmt::Jump { callee, args } => {
                self.line(&format!(
                    "jump {}({});",
                    callee_str(callee),
                    comma_exprs(args)
                ));
            }
            Stmt::Return { alt, args } => match alt {
                Some(a) => self.line(&format!(
                    "return <{}/{}> ({});",
                    a.index,
                    a.count,
                    comma_exprs(args)
                )),
                None => {
                    if args.is_empty() {
                        self.line("return;");
                    } else {
                        self.line(&format!("return ({});", comma_exprs(args)));
                    }
                }
            },
            Stmt::CutTo { cont, args, anns } => {
                self.line(&format!(
                    "cut to {}({}){};",
                    callee_str(cont),
                    comma_exprs(args),
                    anns_str(anns)
                ));
            }
            Stmt::Yield { args, anns } => {
                self.line(&format!("yield({}){};", comma_exprs(args), anns_str(anns)));
            }
        }
    }
}

fn lvalue_str(l: &Lvalue) -> String {
    match l {
        Lvalue::Var(n) => n.to_string(),
        Lvalue::Mem(ty, a) => format!("{ty}[{}]", expr_to_string(a)),
    }
}

fn callee_str(e: &Expr) -> String {
    match e {
        Expr::Name(n) => n.to_string(),
        other => format!("({})", expr_to_string(other)),
    }
}

fn anns_str(a: &Annotations) -> String {
    let mut s = String::new();
    if !a.cuts_to.is_empty() {
        let _ = write!(s, " also cuts to {}", comma_names(&a.cuts_to));
    }
    if !a.unwinds_to.is_empty() {
        let _ = write!(s, " also unwinds to {}", comma_names(&a.unwinds_to));
    }
    if !a.returns_to.is_empty() {
        let _ = write!(s, " also returns to {}", comma_names(&a.returns_to));
    }
    if a.aborts {
        s.push_str(" also aborts");
    }
    if !a.descriptors.is_empty() {
        let _ = write!(s, " also descriptor {}", comma_names(&a.descriptors));
    }
    s
}

fn comma_names(ns: &[Name]) -> String {
    ns.iter()
        .map(Name::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

fn comma_exprs(es: &[Expr]) -> String {
    es.iter().map(expr_to_string).collect::<Vec<_>>().join(", ")
}

fn lit_str(l: &Lit) -> String {
    match l.ty {
        Ty::Bits(Width::W32) => format!("{}", l.bits),
        Ty::Bits(w) => format!("{}::bits{}", l.bits, w.bits()),
        Ty::Float(w) => format!("{:?}::float{}", l.as_f64(), w.bits()),
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn is_primary(e: &Expr) -> bool {
    matches!(e, Expr::Lit(_) | Expr::Name(_) | Expr::Mem(..))
}

fn write_operand(out: &mut String, e: &Expr) {
    if is_primary(e) {
        write_expr(out, e);
    } else {
        out.push('(');
        write_expr(out, e);
        out.push(')');
    }
}

fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Lit(l) => out.push_str(&lit_str(l)),
        Expr::Name(n) => out.push_str(n.as_str()),
        Expr::Mem(ty, a) => {
            let _ = write!(out, "{ty}[");
            write_expr(out, a);
            out.push(']');
        }
        Expr::Unary(op, a) => {
            let _ = write!(out, "{}(", op.name());
            write_expr(out, a);
            out.push(')');
        }
        Expr::Binary(op, a, b) => {
            if op.is_infix() {
                write_operand(out, a);
                let _ = write!(out, " {} ", op.symbol());
                write_operand(out, b);
            } else {
                let _ = write!(out, "{}(", op.symbol());
                write_expr(out, a);
                out.push_str(", ");
                write_expr(out, b);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn expr_printing() {
        let e = Expr::add(Expr::var("s"), Expr::var("n"));
        assert_eq!(expr_to_string(&e), "s + n");
        let nested = Expr::mul(Expr::add(Expr::var("a"), Expr::b32(1)), Expr::var("b"));
        assert_eq!(expr_to_string(&nested), "(a + 1) * b");
        let mem = Expr::mem32(Expr::add(Expr::var("p"), Expr::b32(4)));
        assert_eq!(expr_to_string(&mem), "bits32[p + 4]");
        let prefix = Expr::binary(BinOp::DivS, Expr::var("a"), Expr::var("b"));
        assert_eq!(expr_to_string(&prefix), "%divs(a, b)");
    }

    #[test]
    fn literal_printing() {
        assert_eq!(lit_str(&Lit::b32(42)), "42");
        assert_eq!(lit_str(&Lit::bits(Width::W8, 255)), "255::bits8");
        assert_eq!(lit_str(&Lit::f64(1.5)), "1.5::float64");
    }

    #[test]
    fn return_forms() {
        assert_eq!(stmt_to_string(&Stmt::return_([])), "return;");
        assert_eq!(
            stmt_to_string(&Stmt::Return {
                alt: Some(crate::stmt::AltReturn { index: 0, count: 2 }),
                args: vec![Expr::var("p")]
            }),
            "return <0/2> (p);"
        );
    }

    #[test]
    fn string_quoting() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
