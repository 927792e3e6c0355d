//! Sparse constant propagation and folding over the SSA overlay.
//!
//! A definition is `Const` when its right-hand side folds to a literal
//! given the lattice values of its operands; φs join their arguments.
//! After the fixpoint, constant uses are rewritten to literals,
//! expressions are folded, and branches on constants are simplified.
//!
//! Folding never introduces or removes failure: an expression that could
//! fail (`%divu` with an unknown or zero divisor) is left in place, so a
//! program that would go wrong still goes wrong — the optimizer
//! preserves even the "unspecified" behaviours our semantics refines
//! into explicit `Wrong` states.
//!
//! The rewrite leaves alone, without copying, every expression that
//! neither uses a constant-valued definition nor has a literal operand:
//! substitution and folding could not change it.

use crate::analyses::Analyses;
use crate::ssa::{DefId, Ssa};
use cmm_cfg::{Graph, Node, NodeId};
use cmm_ir::{BinOp, Expr, Lit, Lvalue, Ty, Width};
use std::cell::Cell;

/// The constant lattice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Lat {
    /// No information yet (optimistic).
    Top,
    /// Known constant.
    Const(Width, u64),
    /// Not a constant.
    Bottom,
}

fn join(a: Lat, b: Lat) -> Lat {
    match (a, b) {
        (Lat::Top, x) | (x, Lat::Top) => x,
        (Lat::Const(w1, v1), Lat::Const(w2, v2)) if w1 == w2 && v1 == v2 => a,
        _ => Lat::Bottom,
    }
}

/// Runs constant propagation and folding; returns the number of
/// expressions rewritten.
pub fn constprop(g: &mut Graph, an: &mut Analyses) -> usize {
    let ssa = an.ssa(g);
    let values = solve(g, &ssa, an.rpo());

    // Rewrite: substitute constant uses, then fold. A node's use row
    // lists its names in the order the rewrite meets them, so each
    // expression takes the next entries of the row.
    let mut changed = 0;
    let mut folded_branch = false;
    let mut rewritten = Vec::new();
    for &id in an.rpo() {
        let mut row = ssa.uses_at(id);
        let before = changed;
        let node = g.node_mut(id);
        match node {
            Node::Assign { rhs, lhs, .. } => {
                if let Some(new) = rewrite(rhs, &mut row, &values) {
                    *rhs = new;
                    changed += 1;
                }
                if let Lvalue::Mem(_, a) = lhs {
                    if let Some(new) = rewrite(a, &mut row, &values) {
                        *a = new;
                        changed += 1;
                    }
                }
            }
            Node::CopyOut { exprs, .. } => {
                for e in exprs {
                    if let Some(new) = rewrite(e, &mut row, &values) {
                        *e = new;
                        changed += 1;
                    }
                }
            }
            Node::Branch { cond, t, f } => {
                let new = rewrite(cond, &mut row, &values);
                if let Expr::Lit(l) = new.as_ref().unwrap_or(cond) {
                    // Branch on a constant: become a skip to the taken arm.
                    let taken = if l.bits != 0 { *t } else { *f };
                    *node = Node::CopyIn {
                        vars: vec![],
                        next: taken,
                    };
                    changed += 1;
                    folded_branch = true;
                } else if let Some(new) = new {
                    *cond = new;
                    changed += 1;
                }
            }
            _ => {}
        }
        if changed > before {
            rewritten.push(id);
        }
    }
    if folded_branch {
        an.rerouted(g, &rewritten);
    } else if changed > 0 {
        an.rewrote(g, &rewritten);
    }
    changed
}

/// The lattice value of a use row entry.
fn value_of(values: &[Lat], &(_, def): &(u32, DefId)) -> Lat {
    Ssa::reaching(def).map_or(Lat::Bottom, |d| values[d]) // untracked
}

/// The rewrite of `e`, whose names are the first entries of `row`, if
/// it differs from `e`; moves `row` past those entries. An expression
/// that uses no constant and that folding could not change is left
/// alone without being copied.
fn rewrite(e: &Expr, row: &mut &[(u32, DefId)], values: &[Lat]) -> Option<Expr> {
    let mut names = 0;
    e.visit_names(&mut |_| names += 1);
    let (own, rest) = row.split_at(names);
    *row = rest;
    let consts = own
        .iter()
        .any(|u| matches!(value_of(values, u), Lat::Const(..)));
    if !consts && !may_fold(e) {
        return None;
    }
    let next = Cell::new(0);
    let new = fold(&e.substitute(&|_| {
        let u = &own[next.get()];
        next.set(next.get() + 1);
        match value_of(values, u) {
            Lat::Const(w, v) => Some(Expr::Lit(Lit::bits(w, v))),
            _ => None,
        }
    }));
    (new != *e).then_some(new)
}

/// True if [`fold`] could change `e`: some operator has only literal
/// operands, or is one of the identities `x + 0`, `0 + x`, `x - 0`,
/// `x * 1` and `1 * x`.
fn may_fold(e: &Expr) -> bool {
    let lit = |x: &Expr| matches!(x, Expr::Lit(_));
    let bits = |x: &Expr, v: u64| matches!(x, Expr::Lit(l) if l.bits == v && l.ty.is_bits());
    match e {
        Expr::Lit(_) | Expr::Name(_) => false,
        Expr::Mem(_, a) => may_fold(a),
        Expr::Unary(_, a) => lit(a) || may_fold(a),
        Expr::Binary(op, a, b) => {
            (lit(a) && lit(b))
                || match op {
                    BinOp::Add => bits(a, 0) || bits(b, 0),
                    BinOp::Sub => bits(b, 0),
                    BinOp::Mul => bits(a, 1) || bits(b, 1),
                    _ => false,
                }
                || may_fold(a)
                || may_fold(b)
        }
    }
}

/// Fixpoint over SSA definitions: the lattice value of each, indexed
/// by definition.
fn solve(g: &Graph, ssa: &Ssa, rpo: &[NodeId]) -> Vec<Lat> {
    let mut values = vec![Lat::Top; ssa.sites.len()];
    // Simple round-robin iteration; the lattice has height 2 so this
    // converges quickly even without a worklist.
    let mut changed = true;
    while changed {
        changed = false;
        for &id in rpo {
            // φ defs at this node.
            for phi in ssa.phis_at(id) {
                let args = ssa.args(phi);
                let v = if args.is_empty() {
                    Lat::Bottom
                } else {
                    args.iter().fold(Lat::Top, |v, &(_, d)| join(v, values[d]))
                };
                if values[phi.def] != v {
                    values[phi.def] = v;
                    changed = true;
                }
            }
            // Ordinary defs: an `Assign` defines its variable, whose
            // value its right-hand side's names (the first entries of
            // the use row) decide; `CopyIn` and `Entry` have unknown
            // inputs.
            for &(_, d) in ssa.defs_at(id) {
                let v = match g.node(id) {
                    Node::Assign {
                        lhs: Lvalue::Var(_),
                        rhs,
                        ..
                    } => eval_lat(rhs, &mut ssa.uses_at(id).iter(), &values),
                    _ => Lat::Bottom,
                };
                if values[d] != v {
                    values[d] = v;
                    changed = true;
                }
            }
        }
    }
    values
}

/// The lattice value of `e`, whose names take the next entries of
/// `row` in order.
fn eval_lat(e: &Expr, row: &mut std::slice::Iter<(u32, DefId)>, values: &[Lat]) -> Lat {
    match e {
        Expr::Lit(l) => match l.ty {
            Ty::Bits(w) => Lat::Const(w, l.bits),
            Ty::Float(fw) => Lat::Const(
                if fw == cmm_ir::FWidth::F32 {
                    Width::W32
                } else {
                    Width::W64
                },
                l.bits,
            ),
        },
        Expr::Name(_) => value_of(values, row.next().expect("one row entry per name")),
        Expr::Mem(_, a) => {
            eval_lat(a, row, values); // passes the address's names
            Lat::Bottom
        }
        Expr::Unary(op, a) => match eval_lat(a, row, values) {
            Lat::Top => Lat::Top,
            Lat::Const(w, v) => {
                let (r, rw) = op.eval(w, v);
                Lat::Const(rw, r)
            }
            Lat::Bottom => Lat::Bottom,
        },
        Expr::Binary(op, a, b) => {
            let (la, lb) = (eval_lat(a, row, values), eval_lat(b, row, values));
            match (la, lb) {
                (Lat::Top, _) | (_, Lat::Top) => Lat::Top,
                (Lat::Const(wa, va), Lat::Const(wb, vb)) => {
                    let shiftish = matches!(
                        op,
                        cmm_ir::BinOp::Shl | cmm_ir::BinOp::ShrU | cmm_ir::BinOp::ShrS
                    );
                    if wa != wb && !shiftish {
                        return Lat::Bottom;
                    }
                    match op.eval(wa, va, vb) {
                        Ok((r, rw)) => Lat::Const(rw, r),
                        Err(_) => Lat::Bottom, // would fail: do not fold
                    }
                }
                _ => Lat::Bottom,
            }
        }
    }
}

/// Bottom-up constant folding of an expression. Never folds an
/// application that would fail.
pub fn fold(e: &Expr) -> Expr {
    match e {
        Expr::Lit(_) | Expr::Name(_) => e.clone(),
        Expr::Mem(ty, a) => Expr::Mem(*ty, Box::new(fold(a))),
        Expr::Unary(op, a) => {
            let fa = fold(a);
            if let Expr::Lit(l) = &fa {
                if let Ty::Bits(w) = l.ty {
                    let (r, rw) = op.eval(w, l.bits);
                    return Expr::Lit(Lit::bits(rw, r));
                }
            }
            Expr::Unary(*op, Box::new(fa))
        }
        Expr::Binary(op, a, b) => {
            let (fa, fb) = (fold(a), fold(b));
            if let (Expr::Lit(la), Expr::Lit(lb)) = (&fa, &fb) {
                if let (Ty::Bits(wa), Ty::Bits(wb)) = (la.ty, lb.ty) {
                    let shiftish = matches!(
                        op,
                        cmm_ir::BinOp::Shl | cmm_ir::BinOp::ShrU | cmm_ir::BinOp::ShrS
                    );
                    if wa == wb || shiftish {
                        if let Ok((r, rw)) = op.eval(wa, la.bits, lb.bits) {
                            return Expr::Lit(Lit::bits(rw, r));
                        }
                    }
                }
            }
            // Algebraic identities that cannot change failure behaviour.
            match (op, &fa, &fb) {
                (cmm_ir::BinOp::Add, x, Expr::Lit(l)) | (cmm_ir::BinOp::Add, Expr::Lit(l), x)
                    if l.bits == 0 && l.ty.is_bits() =>
                {
                    return x.clone();
                }
                (cmm_ir::BinOp::Sub, x, Expr::Lit(l)) if l.bits == 0 && l.ty.is_bits() => {
                    return x.clone();
                }
                (cmm_ir::BinOp::Mul, x, Expr::Lit(l)) | (cmm_ir::BinOp::Mul, Expr::Lit(l), x)
                    if l.bits == 1 && l.ty.is_bits() =>
                {
                    return x.clone();
                }
                _ => {}
            }
            Expr::Binary(*op, Box::new(fa), Box::new(fb))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn graph(src: &str) -> Graph {
        build_program(&parse_module(src).unwrap())
            .unwrap()
            .proc("f")
            .unwrap()
            .clone()
    }

    fn constprop(g: &mut Graph) -> usize {
        let mut an = Analyses::new(g);
        super::constprop(g, &mut an)
    }

    fn assigns_of(g: &Graph) -> Vec<Expr> {
        g.reverse_postorder()
            .into_iter()
            .filter_map(|id| match g.node(id) {
                Node::Assign { rhs, .. } => Some(rhs.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn propagates_through_straight_line_code() {
        let mut g = graph("f() { bits32 a, b, c; a = 2; b = a + 3; c = b * a; return (c); }");
        constprop(&mut g);
        let rhs = assigns_of(&g);
        assert!(rhs.contains(&Expr::b32(5)), "{rhs:?}");
        assert!(rhs.contains(&Expr::b32(10)), "{rhs:?}");
    }

    #[test]
    fn folds_branches_on_constants() {
        let mut g =
            graph("f() { bits32 a; a = 1; if a == 1 { return (10); } else { return (20); } }");
        constprop(&mut g);
        assert!(
            !g.reverse_postorder()
                .into_iter()
                .any(|id| matches!(g.node(id), Node::Branch { .. })),
            "branch should be folded away"
        );
    }

    #[test]
    fn joins_at_phi_points() {
        // s is 1 on both arms: propagates; t differs: does not.
        let mut g = graph(
            r#"
            f(bits32 n) {
                bits32 s, t, r;
                if n == 0 { s = 1; t = 1; } else { s = 1; t = 2; }
                r = s + t;
                return (r);
            }
            "#,
        );
        constprop(&mut g);
        let rhs = assigns_of(&g);
        // r = s + t becomes r = 1 + t (s known), not fully constant.
        assert!(
            rhs.iter().any(|e| matches!(
                e,
                Expr::Binary(cmm_ir::BinOp::Add, a, _) if matches!(**a, Expr::Lit(_))
            ) || matches!(e, Expr::Binary(cmm_ir::BinOp::Add, _, b) if matches!(**b, Expr::Lit(_)))),
            "{rhs:?}"
        );
    }

    #[test]
    fn never_folds_failing_division() {
        let mut g = graph("f() { bits32 a; a = 1 / 0; return (a); }");
        constprop(&mut g);
        let rhs = assigns_of(&g);
        assert!(
            rhs.iter()
                .any(|e| matches!(e, Expr::Binary(cmm_ir::BinOp::DivU, ..))),
            "division by zero must not be folded away: {rhs:?}"
        );
    }

    #[test]
    fn does_not_propagate_globals() {
        let p = build_program(
            &parse_module(
                r#"
                register bits32 gr = 5;
                f() { bits32 a; a = gr + 1; return (a); }
                "#,
            )
            .unwrap(),
        )
        .unwrap();
        let mut g = p.proc("f").unwrap().clone();
        constprop(&mut g);
        let rhs = assigns_of(&g);
        assert!(
            rhs.iter().any(|e| matches!(e, Expr::Binary(..))),
            "global register value must not be assumed: {rhs:?}"
        );
    }

    #[test]
    fn constant_reaches_exception_continuation() {
        // x is constant on both the normal and the exceptional path.
        let mut g = graph(
            r#"
            f() {
                bits32 x, r, d;
                x = 7;
                r = g() also cuts to k;
                return (x);
                continuation k(d):
                return (x + d);
            }
            g() { return (0); }
            "#,
        );
        constprop(&mut g);
        // The use of x in the continuation's return folds to 7 + d.
        let copyouts: Vec<Expr> = g
            .reverse_postorder()
            .into_iter()
            .filter_map(|id| match g.node(id) {
                Node::CopyOut { exprs, .. } => exprs.first().cloned(),
                _ => None,
            })
            .collect();
        assert!(
            copyouts.iter().any(|e| matches!(
                e,
                Expr::Binary(cmm_ir::BinOp::Add, a, _) if **a == Expr::b32(7)
            )),
            "{copyouts:?}"
        );
    }

    #[test]
    fn fold_identities() {
        let x = Expr::var("x");
        assert_eq!(fold(&Expr::add(x.clone(), Expr::b32(0))), x);
        assert_eq!(fold(&Expr::mul(Expr::b32(1), x.clone())), x);
        assert_eq!(fold(&Expr::add(Expr::b32(2), Expr::b32(3))), Expr::b32(5));
    }
}
