//! Static well-formedness checks for C-- modules.
//!
//! The paper leaves many properties to the front end: "a continuation can
//! be declared only inside a procedure" whose "formal parameters" must be
//! variables of the enclosing procedure (§4.1); the names in `also`
//! annotations "are always names of continuations declared in the same
//! procedure as the call site" (§4.4); an invalid program is an unchecked
//! run-time error. This module checks those properties *statically*, so
//! tools that synthesize IR (front ends, the `cmm-difftest` program
//! generator) can validate their output before handing it to the
//! translator or a substrate.
//!
//! [`verify_module`] returns a list of human-readable violations; an empty
//! list means the module is well formed. The checks are purely syntactic —
//! no control-flow or type reconstruction — so a well-formed module can
//! still go wrong at run time (e.g. by cutting to a dead continuation).

use crate::expr::{BinOp, Expr};
use crate::module::{DataItem, Decl, Module};
use crate::name::Name;
use crate::proc::{BodyItem, Proc};
use crate::stmt::{Annotations, Lvalue, Stmt};
use std::collections::BTreeSet;

/// Checks every procedure and data block of a module.
///
/// Returns one message per violation; an empty vector means the module is
/// well formed.
pub fn verify_module(m: &Module) -> Vec<String> {
    let mut errors = Vec::new();
    let mut globals: BTreeSet<&str> = BTreeSet::new();
    let mut toplevel: BTreeSet<&str> = BTreeSet::new();

    for d in &m.decls {
        let name = match d {
            Decl::Proc(p) => Some(p.name.as_str()),
            Decl::Data(b) => Some(b.name.as_str()),
            Decl::Register(r) => Some(r.name.as_str()),
            Decl::Import(_) | Decl::Export(_) => None,
        };
        if let Some(n) = name {
            if !toplevel.insert(n) {
                errors.push(format!("duplicate top-level name `{n}`"));
            }
        }
        match d {
            Decl::Register(r) => {
                globals.insert(r.name.as_str());
            }
            Decl::Import(ns) => globals.extend(ns.iter().map(Name::as_str)),
            _ => {}
        }
    }
    globals.extend(m.procs().map(|p| p.name.as_str()));
    globals.extend(m.data_blocks().map(|b| b.name.as_str()));

    for b in m.data_blocks() {
        for item in &b.items {
            if let DataItem::SymRef(n) = item {
                if !globals.contains(n.as_str()) {
                    errors.push(format!("data `{}`: sym ref to unknown name `{n}`", b.name));
                }
            }
        }
    }
    for p in m.procs() {
        verify_proc(p, &globals, &mut errors);
    }
    errors
}

/// Checks a single procedure against a set of known global names
/// (procedures, data blocks, registers, imports).
pub fn verify_proc(p: &Proc, globals: &BTreeSet<&str>, errors: &mut Vec<String>) {
    let at = |msg: String| format!("proc `{}`: {msg}", p.name);

    // Variable declarations are unique.
    let mut vars: BTreeSet<&str> = BTreeSet::new();
    for (n, _) in p.all_vars() {
        if !vars.insert(n.as_str()) {
            errors.push(at(format!("variable `{n}` declared twice")));
        }
    }

    // Labels and continuations are unique code points.
    let labels: Vec<Name> = p.labels();
    let conts: Vec<(Name, Vec<Name>)> = p.continuations();
    let mut points: BTreeSet<&str> = BTreeSet::new();
    for l in &labels {
        if !points.insert(l.as_str()) {
            errors.push(at(format!("label `{l}` defined twice")));
        }
    }
    for (k, params) in &conts {
        if !points.insert(k.as_str()) {
            errors.push(at(format!(
                "continuation `{k}` clashes with another label or continuation"
            )));
        }
        // "The parameters are not binding instances; they must be declared
        // local variables of the enclosing procedure."
        for v in params {
            if !vars.contains(v.as_str()) {
                errors.push(at(format!(
                    "continuation `{k}` parameter `{v}` is not a declared variable"
                )));
            }
        }
    }

    let cont_names: BTreeSet<&str> = conts.iter().map(|(k, _)| k.as_str()).collect();
    let label_names: BTreeSet<&str> = labels.iter().map(Name::as_str).collect();
    let cx = ProcCx {
        proc: p,
        vars,
        cont_names,
        label_names,
        globals,
    };
    cx.items(&p.body, errors);
}

struct ProcCx<'a> {
    proc: &'a Proc,
    vars: BTreeSet<&'a str>,
    cont_names: BTreeSet<&'a str>,
    label_names: BTreeSet<&'a str>,
    globals: &'a BTreeSet<&'a str>,
}

impl ProcCx<'_> {
    fn at(&self, msg: String) -> String {
        format!("proc `{}`: {msg}", self.proc.name)
    }

    /// A name in expression position may denote a variable, a continuation
    /// value, or a global (procedure, data block, register, import).
    fn known(&self, n: &Name) -> bool {
        self.vars.contains(n.as_str())
            || self.cont_names.contains(n.as_str())
            || self.globals.contains(n.as_str())
    }

    fn expr(&self, e: &Expr, errors: &mut Vec<String>) {
        e.visit_names(&mut |n| {
            if !self.known(n) {
                errors.push(self.at(format!("unknown name `{n}` in expression")));
            }
        });
    }

    fn var_target(&self, n: &Name, what: &str, errors: &mut Vec<String>) {
        if !self.vars.contains(n.as_str()) && !self.globals.contains(n.as_str()) {
            errors.push(self.at(format!("{what} `{n}` is not a declared variable")));
        }
    }

    fn anns(&self, anns: &Annotations, errors: &mut Vec<String>) {
        // "The names appearing in annotations are always names of
        // continuations declared in the same procedure as the call site."
        for k in anns.continuations() {
            if !self.cont_names.contains(k.as_str()) {
                errors.push(self.at(format!(
                    "annotation names `{k}`, which is not a continuation of this procedure"
                )));
            }
        }
        for d in &anns.descriptors {
            if !self.globals.contains(d.as_str()) {
                errors.push(self.at(format!("descriptor `{d}` is not a known data block")));
            }
        }
    }

    fn items(&self, items: &[BodyItem], errors: &mut Vec<String>) {
        for item in items {
            match item {
                BodyItem::Stmt(s) => self.stmt(s, errors),
                BodyItem::Label(_) | BodyItem::Continuation { .. } => {}
            }
        }
    }

    fn stmt(&self, s: &Stmt, errors: &mut Vec<String>) {
        match s {
            Stmt::Assign { lhs, rhs } => {
                if lhs.len() != rhs.len() {
                    errors.push(self.at(format!(
                        "parallel assignment of {} targets from {} expressions",
                        lhs.len(),
                        rhs.len()
                    )));
                }
                for l in lhs {
                    match l {
                        Lvalue::Var(n) => self.var_target(n, "assignment target", errors),
                        Lvalue::Mem(_, a) => self.expr(a, errors),
                    }
                }
                for e in rhs {
                    self.expr(e, errors);
                }
            }
            Stmt::If { cond, then_, else_ } => {
                self.expr(cond, errors);
                self.items(then_, errors);
                self.items(else_, errors);
            }
            Stmt::Goto { target } => {
                if !self.label_names.contains(target.as_str())
                    && !self.cont_names.contains(target.as_str())
                {
                    errors.push(self.at(format!("goto to unknown label `{target}`")));
                }
            }
            Stmt::Call {
                results,
                callee,
                args,
                anns,
            } => {
                for r in results {
                    self.var_target(r, "call result", errors);
                }
                match callee {
                    // `%%`-names are the slow-but-solid checked primitives
                    // (§4.3), which "take the form of procedure calls".
                    Expr::Name(n) if n.as_str().starts_with("%%") => {
                        if BinOp::checked_primitive(n.as_str()).is_none() {
                            errors.push(self.at(format!("unknown checked primitive `{n}`")));
                        } else if args.len() != 2 || results.len() != 1 {
                            errors.push(self.at(format!(
                                "checked primitive `{n}` takes 2 arguments and 1 result"
                            )));
                        }
                    }
                    e => self.expr(e, errors),
                }
                for a in args {
                    self.expr(a, errors);
                }
                self.anns(anns, errors);
            }
            Stmt::Jump { callee, args } => {
                self.expr(callee, errors);
                for a in args {
                    self.expr(a, errors);
                }
            }
            Stmt::Return { alt, args } => {
                if let Some(alt) = alt {
                    if alt.index > alt.count {
                        errors.push(self.at(format!(
                            "return <{}/{}> index exceeds alternate count",
                            alt.index, alt.count
                        )));
                    }
                }
                for a in args {
                    self.expr(a, errors);
                }
            }
            Stmt::CutTo { cont, args, anns } => {
                self.expr(cont, errors);
                for a in args {
                    self.expr(a, errors);
                }
                self.anns(anns, errors);
            }
            Stmt::Yield { args, anns } => {
                for a in args {
                    self.expr(a, errors);
                }
                self.anns(anns, errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::Ty;

    fn verify_src_ok(p: Proc) -> Vec<String> {
        let mut m = Module::new();
        m.push_proc(p);
        verify_module(&m)
    }

    #[test]
    fn rejects_unknown_names_and_targets() {
        let mut p = Proc::new("f");
        p.body
            .push(BodyItem::Stmt(Stmt::assign("x", Expr::var("y"))));
        p.body.push(BodyItem::Stmt(Stmt::Goto {
            target: Name::from("nowhere"),
        }));
        let errors = verify_src_ok(p);
        assert!(errors.iter().any(|e| e.contains("`x`")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("`y`")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("nowhere")), "{errors:?}");
    }

    #[test]
    fn rejects_annotation_to_missing_continuation() {
        let mut p = Proc::new("f");
        p.locals.push((Name::from("r"), Ty::B32));
        p.body.push(BodyItem::Stmt(Stmt::Call {
            results: vec![Name::from("r")],
            callee: Expr::var("f"),
            args: vec![],
            anns: Annotations::cuts_to(["k"]),
        }));
        let errors = verify_src_ok(p);
        assert!(
            errors.iter().any(|e| e.contains("not a continuation")),
            "{errors:?}"
        );
    }

    #[test]
    fn rejects_continuation_param_not_declared() {
        let mut p = Proc::new("f");
        p.body.push(BodyItem::Continuation {
            name: Name::from("k"),
            params: vec![Name::from("ghost")],
        });
        let errors = verify_src_ok(p);
        assert!(errors.iter().any(|e| e.contains("ghost")), "{errors:?}");
    }

    #[test]
    fn rejects_bad_checked_primitive() {
        let mut p = Proc::new("f");
        p.locals.push((Name::from("r"), Ty::B32));
        p.body.push(BodyItem::Stmt(Stmt::Call {
            results: vec![Name::from("r")],
            callee: Expr::var("%%frobnicate"),
            args: vec![Expr::b32(1), Expr::b32(2)],
            anns: Annotations::none(),
        }));
        let errors = verify_src_ok(p);
        assert!(
            errors.iter().any(|e| e.contains("%%frobnicate")),
            "{errors:?}"
        );
    }

    #[test]
    fn rejects_arity_mismatch_and_duplicates() {
        let mut m = Module::new();
        let mut p = Proc::new("f");
        p.locals.push((Name::from("x"), Ty::B32));
        p.locals.push((Name::from("x"), Ty::B32));
        p.body.push(BodyItem::Stmt(Stmt::Assign {
            lhs: vec![Lvalue::var("x")],
            rhs: vec![Expr::b32(1), Expr::b32(2)],
        }));
        m.push_proc(p);
        m.push_proc(Proc::new("f"));
        let errors = verify_module(&m);
        assert!(
            errors.iter().any(|e| e.contains("declared twice")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("parallel assignment")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("duplicate top-level")),
            "{errors:?}"
        );
    }
}
