//! Continuation-passing-style lowering (the fourth technique).
//!
//! "In continuation-passing style, the potential exception handlers are
//! represented by an exception continuation. Generated code raises an
//! exception by making a tail call to this continuation" (§2) — the
//! Standard ML of New Jersey technique. C-- "supports continuation-
//! passing style through fully general tail calls" (§2); this lowering
//! uses nothing else:
//!
//! * every MiniM3 procedure `f(p...)` becomes a C-- procedure
//!   `f(p..., retk, exnk)` taking heap-allocated *return* and *handler*
//!   closures;
//! * `return e` is `jump bits32[retk](retk, e)`;
//! * `raise E(v)` is `jump bits32[exnk](exnk, tag, v)`;
//! * a call splits the enclosing procedure: the rest becomes a fresh
//!   continuation procedure whose closure (code pointer + captured
//!   variables + retk + exnk) is allocated from a bump allocator in the
//!   global register `hp`;
//! * `try` allocates a handler closure and threads it as `exnk` through
//!   the protected body.
//!
//! Control flow that crosses a split (the code after an `if`, a loop, or
//! a `try`) is routed through *state procedures* that receive the live
//! variables directly; the `Finish` value threaded through the
//! lowering says where a statement sequence goes when it falls off the
//! end.
//!
//! Handler environments are captured at `try` entry (value semantics, as
//! in a functional language); raising an exception and entering the
//! scope of a handler are both constant-time, and the per-call closure
//! allocation is the technique's standing cost — exactly the trade-off
//! profile SML/NJ accepts.

use super::{lower_expr, tag_block, LowerError, ENTRY};
use crate::ast::{M3Handler, M3Program, M3Stmt};
use cmm_ir::{
    Annotations, BodyItem, DataBlock, DataItem, Expr, GlobalReg, Module, Name, Proc, Stmt, Ty,
};

/// The bump-allocator register for continuation closures.
pub const HP: &str = "hp";
/// The closure heap data block.
pub const HEAP: &str = "cps$heap";

/// Lowers a program in CPS.
pub fn lower(prog: &M3Program, module: &mut Module) -> Result<(), LowerError> {
    module.push_register(GlobalReg {
        name: Name::from(HP),
        ty: Ty::B32,
        init: None,
    });
    module.push_data(DataBlock::new(HEAP, vec![DataItem::Space(1 << 22)]));
    let mut cps = Cps {
        out: Vec::new(),
        counter: 0,
    };
    for p in &prog.procs {
        cps.lower_proc(p);
    }
    for p in cps.out.drain(..) {
        module.push_proc(p);
    }
    entry_wrapper(prog, module);
    Ok(())
}

fn entry_wrapper(prog: &M3Program, module: &mut Module) {
    let main = prog.proc("main").expect("validated");
    let mut p = Proc::new(ENTRY);
    p.exported = true;
    for param in &main.params {
        p.formals.push((Name::from(param.as_str()), Ty::B32));
    }
    for l in ["$r", "$s", "$rk", "$xk"] {
        p.locals.push((Name::from(l), Ty::B32));
    }
    let mut b: Vec<BodyItem> = vec![
        Stmt::assign(HP, Expr::var(HEAP)).into(),
        Stmt::assign("$rk", Expr::var(HP)).into(),
        Stmt::assign(HP, Expr::add(Expr::var(HP), Expr::b32(8))).into(),
        Stmt::store(Ty::B32, Expr::var("$rk"), Expr::var("m3$done")).into(),
        Stmt::assign("$xk", Expr::var(HP)).into(),
        Stmt::assign(HP, Expr::add(Expr::var(HP), Expr::b32(8))).into(),
        Stmt::store(Ty::B32, Expr::var("$xk"), Expr::var("m3$uncaught")).into(),
    ];
    let mut args: Vec<Expr> = main.params.iter().map(|n| Expr::var(n.as_str())).collect();
    args.push(Expr::var("$rk"));
    args.push(Expr::var("$xk"));
    b.push(
        Stmt::Call {
            results: vec![Name::from("$s"), Name::from("$r")],
            callee: Expr::var("main"),
            args,
            anns: Annotations::none(),
        }
        .into(),
    );
    b.push(Stmt::return_([Expr::var("$s"), Expr::var("$r")]).into());
    p.body = b;
    module.push_proc(p);

    // The root closures: a normal result and an uncaught exception both
    // plain-return two values to m3$entry's call site.
    let mut done = Proc::new("m3$done");
    done.formals = vec![(Name::from("$env"), Ty::B32), (Name::from("$v"), Ty::B32)];
    done.body = vec![Stmt::return_([Expr::b32(0), Expr::var("$v")]).into()];
    module.push_proc(done);
    let mut unc = Proc::new("m3$uncaught");
    unc.formals = vec![
        (Name::from("$env"), Ty::B32),
        (Name::from("$tag"), Ty::B32),
        (Name::from("$val"), Ty::B32),
    ];
    unc.body = vec![Stmt::return_([Expr::b32(1), Expr::var("$tag")]).into()];
    module.push_proc(unc);
}

/// Lowering context for one source procedure (shared by all the C--
/// procedures it splits into).
#[derive(Clone)]
struct Ctx {
    /// The source procedure's variables, in closure-layout order.
    vars: Vec<Name>,
    /// The variable currently holding the handler closure.
    cur_exnk: Name,
}

impl Ctx {
    fn closure_words(&self) -> u32 {
        1 + self.vars.len() as u32 + 2
    }

    fn var_slot(&self, i: usize) -> u32 {
        4 * (1 + i as u32)
    }

    fn retk_slot(&self) -> u32 {
        4 * (1 + self.vars.len() as u32)
    }

    fn exnk_slot(&self) -> u32 {
        4 * (2 + self.vars.len() as u32)
    }
}

/// Where a statement sequence goes when it falls off the end.
#[derive(Clone)]
enum Finish {
    /// End of the source procedure: return 0 through `retk`.
    Return0,
    /// Jump to a state procedure with the current handler.
    Join(String),
    /// End of a `try` body: recover the *outer* handler from the current
    /// handler closure and jump to the join.
    JoinOuter(String),
}

/// A C-- procedure being emitted.
struct Em {
    proc: Proc,
    items: Vec<BodyItem>,
}

impl Em {
    fn new(name: &str, formals: &[Name]) -> Em {
        let mut proc = Proc::new(name);
        for f in formals {
            proc.formals.push((f.clone(), Ty::B32));
        }
        Em {
            proc,
            items: Vec::new(),
        }
    }

    fn local(&mut self, n: &Name) {
        if self.proc.var_ty(n).is_none() {
            self.proc.locals.push((n.clone(), Ty::B32));
        }
    }

    fn push(&mut self, s: Stmt) {
        self.items.push(s.into());
    }

    fn finish(mut self) -> Proc {
        self.proc.body = self.items;
        self.proc
    }
}

struct Cps {
    out: Vec<Proc>,
    counter: usize,
}

impl Cps {
    fn fresh(&mut self, base: &str, hint: &str) -> String {
        self.counter += 1;
        format!("{base}${hint}{}", self.counter)
    }

    fn lower_proc(&mut self, p: &crate::ast::M3Proc) {
        let mut vars: Vec<Name> = p.params.iter().map(|s| Name::from(s.as_str())).collect();
        for l in &p.locals {
            let n = Name::from(l.as_str());
            if !vars.contains(&n) {
                vars.push(n);
            }
        }
        let mut ctx = Ctx {
            vars: vars.clone(),
            cur_exnk: Name::from("exnk"),
        };
        let mut formals: Vec<Name> = p.params.iter().map(|s| Name::from(s.as_str())).collect();
        formals.push(Name::from("retk"));
        formals.push(Name::from("exnk"));
        let mut em = Em::new(&p.name, &formals);
        for v in &vars {
            em.local(v);
        }
        // Locals are zero until assigned: closures capture the whole
        // variable set, so every variable must be defined.
        for l in &p.locals {
            let n = Name::from(l.as_str());
            if !p.params.iter().any(|q| q == l) {
                em.push(Stmt::assign(n, Expr::b32(0)));
            }
        }
        self.seq_close(&mut em, &mut ctx, &p.name, &p.body, &Finish::Return0);
        self.out.push(em.finish());
    }

    fn emit_return(&mut self, em: &mut Em, e: Expr) {
        em.push(Stmt::Jump {
            callee: Expr::mem32(Expr::var("retk")),
            args: vec![Expr::var("retk"), e],
        });
    }

    fn emit_raise(&mut self, em: &mut Em, ctx: &Ctx, tag: Expr, val: Expr) {
        em.push(Stmt::Jump {
            callee: Expr::mem32(Expr::Name(ctx.cur_exnk.clone())),
            args: vec![Expr::Name(ctx.cur_exnk.clone()), tag, val],
        });
    }

    fn apply_finish(&mut self, em: &mut Em, ctx: &Ctx, finish: &Finish) {
        match finish {
            Finish::Return0 => self.emit_return(em, Expr::b32(0)),
            Finish::Join(j) => {
                self.jump_state(em, ctx, j, Expr::Name(ctx.cur_exnk.clone()));
            }
            Finish::JoinOuter(j) => {
                let outer = Name::from("$outer");
                em.local(&outer);
                em.push(Stmt::assign(
                    outer.clone(),
                    Expr::mem32(Expr::add(
                        Expr::Name(ctx.cur_exnk.clone()),
                        Expr::b32(ctx.exnk_slot()),
                    )),
                ));
                self.jump_state(em, ctx, j, Expr::Name(outer));
            }
        }
    }

    /// Lowers a sequence and guarantees the control flow is closed: if
    /// the statements fall through, `finish` is applied.
    fn seq_close(
        &mut self,
        em: &mut Em,
        ctx: &mut Ctx,
        base: &str,
        stmts: &[M3Stmt],
        finish: &Finish,
    ) {
        if !self.seq(em, ctx, base, stmts, finish) {
            self.apply_finish(em, ctx, finish);
        }
    }

    /// Allocates a closure `[code][vars][retk][exnk_cur]` into `dst`.
    fn emit_closure(&mut self, em: &mut Em, ctx: &Ctx, code: &str, dst: &Name) {
        em.local(dst);
        em.push(Stmt::assign(dst.clone(), Expr::var(HP)));
        em.push(Stmt::assign(
            HP,
            Expr::add(Expr::var(HP), Expr::b32(4 * ctx.closure_words())),
        ));
        em.push(Stmt::store(
            Ty::B32,
            Expr::Name(dst.clone()),
            Expr::var(code),
        ));
        for (i, v) in ctx.vars.iter().enumerate() {
            em.push(Stmt::store(
                Ty::B32,
                Expr::add(Expr::Name(dst.clone()), Expr::b32(ctx.var_slot(i))),
                Expr::Name(v.clone()),
            ));
        }
        em.push(Stmt::store(
            Ty::B32,
            Expr::add(Expr::Name(dst.clone()), Expr::b32(ctx.retk_slot())),
            Expr::var("retk"),
        ));
        em.push(Stmt::store(
            Ty::B32,
            Expr::add(Expr::Name(dst.clone()), Expr::b32(ctx.exnk_slot())),
            Expr::Name(ctx.cur_exnk.clone()),
        ));
    }

    /// Starts a closure-entry procedure (`extra` are its parameters
    /// after `$env`) that reloads the captured state.
    fn closure_entry(&mut self, name: &str, ctx: &Ctx, extra: &[Name]) -> Em {
        let mut formals = vec![Name::from("$env")];
        formals.extend(extra.iter().cloned());
        let mut em = Em::new(name, &formals);
        for (i, v) in ctx.vars.iter().enumerate() {
            em.local(v);
            em.push(Stmt::assign(
                v.clone(),
                Expr::mem32(Expr::add(Expr::var("$env"), Expr::b32(ctx.var_slot(i)))),
            ));
        }
        for (slot, n) in [(ctx.retk_slot(), "retk"), (ctx.exnk_slot(), "exnk")] {
            em.local(&Name::from(n));
            em.push(Stmt::assign(
                n,
                Expr::mem32(Expr::add(Expr::var("$env"), Expr::b32(slot))),
            ));
        }
        em
    }

    /// Starts a join/loop procedure taking the live state directly.
    fn state_proc(&mut self, name: &str, ctx: &Ctx) -> Em {
        let mut formals = ctx.vars.clone();
        formals.push(Name::from("retk"));
        formals.push(Name::from("exnk"));
        Em::new(name, &formals)
    }

    /// `jump` to a state procedure with the current variables and the
    /// given handler closure.
    fn jump_state(&mut self, em: &mut Em, ctx: &Ctx, target: &str, exnk: Expr) {
        let mut args: Vec<Expr> = ctx.vars.iter().map(|v| Expr::Name(v.clone())).collect();
        args.push(Expr::var("retk"));
        args.push(exnk);
        em.push(Stmt::Jump {
            callee: Expr::var(target),
            args,
        });
    }

    /// Lowers a statement sequence; returns true if control cannot fall
    /// through. Whenever the lowering splits into a new procedure, the
    /// rest of the sequence is closed with `finish` there.
    fn seq(
        &mut self,
        em: &mut Em,
        ctx: &mut Ctx,
        base: &str,
        stmts: &[M3Stmt],
        finish: &Finish,
    ) -> bool {
        let mut i = 0;
        while i < stmts.len() {
            match &stmts[i] {
                M3Stmt::Assign(x, e) => {
                    em.local(&Name::from(x.as_str()));
                    em.push(Stmt::assign(x.as_str(), lower_expr(e)));
                }
                M3Stmt::Return(e) => {
                    let v = lower_expr(e);
                    self.emit_return(em, v);
                    return true;
                }
                M3Stmt::Raise(exc, v) => {
                    let tag = Expr::var(tag_block(exc));
                    let val = v.as_ref().map(lower_expr).unwrap_or(Expr::b32(0));
                    self.emit_raise(em, ctx, tag, val);
                    return true;
                }
                M3Stmt::Call { dst, callee, args } => {
                    let kname = self.fresh(base, "k");
                    let c = Name::from("$c");
                    self.emit_closure(em, ctx, &kname, &c);
                    let mut cargs: Vec<Expr> = args.iter().map(lower_expr).collect();
                    cargs.push(Expr::Name(c));
                    cargs.push(Expr::Name(ctx.cur_exnk.clone()));
                    em.push(Stmt::Jump {
                        callee: Expr::var(callee.as_str()),
                        args: cargs,
                    });
                    // The rest of the sequence becomes the continuation.
                    let mut em2 = self.closure_entry(&kname, ctx, &[Name::from("$res")]);
                    if let Some(d) = dst {
                        em2.local(&Name::from(d.as_str()));
                        em2.push(Stmt::assign(d.as_str(), Expr::var("$res")));
                    }
                    let mut ctx2 = ctx.clone();
                    ctx2.cur_exnk = Name::from("exnk");
                    self.seq_close(&mut em2, &mut ctx2, base, &stmts[i + 1..], finish);
                    self.out.push(em2.finish());
                    return true;
                }
                M3Stmt::If(c, a, b) => {
                    if !needs_split(a) && !needs_split(b) {
                        let mut saved = Vec::new();
                        std::mem::swap(&mut em.items, &mut saved);
                        let term_a = self.seq(em, ctx, base, a, finish);
                        let ta = std::mem::take(&mut em.items);
                        let term_b = self.seq(em, ctx, base, b, finish);
                        let tb = std::mem::take(&mut em.items);
                        em.items = saved;
                        em.items.push(
                            Stmt::If {
                                cond: lower_expr(c),
                                then_: ta,
                                else_: tb,
                            }
                            .into(),
                        );
                        if term_a && term_b {
                            return true;
                        }
                    } else {
                        // Split: both arms jump to a join procedure that
                        // carries the live state, and the join continues
                        // the sequence.
                        let jname = self.fresh(base, "j");
                        let join = Finish::Join(jname.clone());
                        let mut saved = Vec::new();
                        std::mem::swap(&mut em.items, &mut saved);
                        let mut actx = ctx.clone();
                        self.seq_close(em, &mut actx, base, a, &join);
                        let ta = std::mem::take(&mut em.items);
                        let mut bctx = ctx.clone();
                        self.seq_close(em, &mut bctx, base, b, &join);
                        let tb = std::mem::take(&mut em.items);
                        em.items = saved;
                        em.items.push(
                            Stmt::If {
                                cond: lower_expr(c),
                                then_: ta,
                                else_: tb,
                            }
                            .into(),
                        );
                        let mut jem = self.state_proc(&jname, ctx);
                        let mut jctx = ctx.clone();
                        jctx.cur_exnk = Name::from("exnk");
                        self.seq_close(&mut jem, &mut jctx, base, &stmts[i + 1..], finish);
                        self.out.push(jem.finish());
                        return true;
                    }
                }
                M3Stmt::While(c, body) => {
                    if !needs_split(body) {
                        let head = Name::from(self.fresh(base, "l"));
                        let done = Name::from(self.fresh(base, "ld"));
                        em.items.push(BodyItem::Label(head.clone()));
                        let mut saved = Vec::new();
                        std::mem::swap(&mut em.items, &mut saved);
                        let term = self.seq(em, ctx, base, body, finish);
                        if !term {
                            em.push(Stmt::Goto {
                                target: head.clone(),
                            });
                        }
                        let b = std::mem::take(&mut em.items);
                        em.items = saved;
                        em.items.push(
                            Stmt::If {
                                cond: lower_expr(c),
                                then_: b,
                                else_: vec![Stmt::Goto {
                                    target: done.clone(),
                                }
                                .into()],
                            }
                            .into(),
                        );
                        em.items.push(BodyItem::Label(done));
                    } else {
                        // Loop procedure + after procedure.
                        let lname = self.fresh(base, "loop");
                        let aname = self.fresh(base, "after");
                        self.jump_state(em, ctx, &lname, Expr::Name(ctx.cur_exnk.clone()));
                        // loop(vars, retk, exnk):
                        //   if c { body ... jump loop } else { jump after }
                        let mut lem = self.state_proc(&lname, ctx);
                        let mut lctx = ctx.clone();
                        lctx.cur_exnk = Name::from("exnk");
                        let mut bctx = lctx.clone();
                        self.seq_close(
                            &mut lem,
                            &mut bctx,
                            base,
                            body,
                            &Finish::Join(lname.clone()),
                        );
                        let tb = std::mem::take(&mut lem.items);
                        let mut ectx = lctx.clone();
                        self.apply_finish(&mut lem, &ectx, &Finish::Join(aname.clone()));
                        let eb = std::mem::take(&mut lem.items);
                        let _ = &mut ectx;
                        lem.items.push(
                            Stmt::If {
                                cond: lower_expr(c),
                                then_: tb,
                                else_: eb,
                            }
                            .into(),
                        );
                        self.out.push(lem.finish());
                        // after(vars, retk, exnk): the rest.
                        let mut aem = self.state_proc(&aname, ctx);
                        let mut actx = ctx.clone();
                        actx.cur_exnk = Name::from("exnk");
                        self.seq_close(&mut aem, &mut actx, base, &stmts[i + 1..], finish);
                        self.out.push(aem.finish());
                        return true;
                    }
                }
                M3Stmt::Try { body, handlers } => {
                    self.lower_try(em, ctx, base, body, handlers, &stmts[i + 1..], finish);
                    return true;
                }
            }
            i += 1;
        }
        false
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_try(
        &mut self,
        em: &mut Em,
        ctx: &mut Ctx,
        base: &str,
        body: &[M3Stmt],
        handlers: &[M3Handler],
        rest: &[M3Stmt],
        finish: &Finish,
    ) {
        let hname = self.fresh(base, "h");
        let jname = self.fresh(base, "j");
        // Allocate the handler closure (captures the current state and
        // the *outer* handler).
        let hc = Name::from("$hc");
        self.emit_closure(em, ctx, &hname, &hc);
        let inner = Name::from(format!("$exnk{}", self.counter));
        em.local(&inner);
        em.push(Stmt::assign(inner.clone(), Expr::Name(hc)));
        // Protected body with exnk = the handler closure; normal
        // completion recovers the outer handler and joins.
        let mut bctx = ctx.clone();
        bctx.cur_exnk = inner;
        self.seq_close(em, &mut bctx, base, body, &Finish::JoinOuter(jname.clone()));
        // The handler procedure: dispatch by tag. It reloads the outer
        // handler as `exnk`, so handler bodies raise to the outer scope.
        let mut hem = self.closure_entry(&hname, ctx, &[Name::from("$tag"), Name::from("$val")]);
        let mut hctx = ctx.clone();
        hctx.cur_exnk = Name::from("exnk");
        let mut else_items: Vec<BodyItem> = {
            let mut tmp = Em::new("$scratch", &[]);
            self.emit_raise(&mut tmp, &hctx, Expr::var("$tag"), Expr::var("$val"));
            tmp.items
        };
        for h in handlers.iter().rev() {
            let mut arm_em = Em::new("$scratch", &[]);
            if let Some(x) = &h.binds {
                hem.local(&Name::from(x.as_str()));
                arm_em.push(Stmt::assign(x.as_str(), Expr::var("$val")));
            }
            let mut actx = hctx.clone();
            self.seq_close(
                &mut arm_em,
                &mut actx,
                base,
                &h.body,
                &Finish::Join(jname.clone()),
            );
            // Locals created while lowering the arm belong to the
            // handler procedure.
            for (n, ty) in arm_em.proc.locals.clone() {
                if hem.proc.var_ty(&n).is_none() {
                    hem.proc.locals.push((n, ty));
                }
            }
            let cond = Expr::eq(Expr::var("$tag"), Expr::var(tag_block(&h.exception)));
            else_items = vec![Stmt::If {
                cond,
                then_: arm_em.items,
                else_: else_items,
            }
            .into()];
        }
        hem.items.append(&mut else_items);
        self.out.push(hem.finish());
        // The join: the code after the try.
        let mut jem = self.state_proc(&jname, ctx);
        let mut jctx = ctx.clone();
        jctx.cur_exnk = Name::from("exnk");
        self.seq_close(&mut jem, &mut jctx, base, rest, finish);
        self.out.push(jem.finish());
    }
}

fn needs_split(stmts: &[M3Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        M3Stmt::Call { .. } | M3Stmt::Try { .. } => true,
        M3Stmt::If(_, a, b) => needs_split(a) || needs_split(b),
        M3Stmt::While(_, b) => needs_split(b),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{compile_minim3, Strategy};

    const SRC: &str = r#"
        exception E;
        proc g(x) { if x > 3 { raise E(x); } return x; }
        proc main(x) {
            var r;
            try { r = g(x); } except { E(v) => { r = v + 1; } }
            return r;
        }
    "#;

    #[test]
    fn every_source_proc_gains_retk_and_exnk() {
        let m = compile_minim3(SRC, Strategy::Cps).unwrap();
        for name in ["g", "main"] {
            let p = m.proc(name).unwrap();
            let formals: Vec<&str> = p.formals.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(&formals[formals.len() - 2..], &["retk", "exnk"], "{name}");
        }
    }

    #[test]
    fn splits_generate_continuation_procs() {
        let m = compile_minim3(SRC, Strategy::Cps).unwrap();
        // main contains a call inside a try: expect a return-continuation
        // proc (main$k...), a handler proc (main$h...), and a join
        // (main$j...).
        for prefix in ["main$k", "main$h", "main$j"] {
            assert!(
                m.procs().any(|p| p.name.as_str().starts_with(prefix)),
                "missing {prefix}* in {:?}",
                m.procs().map(|p| p.name.clone()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn returns_and_raises_are_jumps() {
        let m = compile_minim3(SRC, Strategy::Cps).unwrap();
        let g = m.proc("g").unwrap();
        let text = cmm_ir::pretty::proc_to_string(g);
        assert!(text.contains("jump (bits32[retk])(retk,"), "{text}");
        assert!(text.contains("jump (bits32[exnk])(exnk,"), "{text}");
        // No plain returns, no cut to, no yield in CPS-generated code.
        assert!(!text.contains("cut to"), "{text}");
        assert!(!text.contains("yield"), "{text}");
    }

    #[test]
    fn vm_argument_registers_suffice_for_the_workloads() {
        // The simulated target passes at most 8 values in registers; the
        // CPS state procedures take |vars| + retk + exnk.
        for src in [
            SRC,
            crate::workloads::GAME,
            crate::workloads::RAISE_FREQUENCY,
            crate::workloads::NO_RAISE,
            crate::workloads::NESTED,
            crate::workloads::HANDLER_USES_LOCALS,
        ] {
            let m = compile_minim3(src, Strategy::Cps).unwrap();
            for p in m.procs() {
                assert!(
                    p.formals.len() <= 8,
                    "{} takes {} parameters; the VM convention allows 8",
                    p.name,
                    p.formals.len()
                );
            }
        }
    }

    #[test]
    fn heap_register_and_block_emitted() {
        let m = compile_minim3(SRC, Strategy::Cps).unwrap();
        assert!(m.registers().any(|r| r.name == HP));
        assert!(m.data_block(HEAP).is_some());
        assert!(m.proc("m3$done").is_some());
        assert!(m.proc("m3$uncaught").is_some());
    }
}
