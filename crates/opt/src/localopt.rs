//! Local copy propagation and value-numbering CSE.
//!
//! Both passes operate within *chains*: maximal straight-line node
//! sequences (each node has one successor which has one predecessor).
//! Within a chain the pass maintains
//!
//! * a copy environment `v ↦ w` built from `Assign v := w` nodes, and
//! * a table of available expressions `e ↦ v` built from `Assign v := e`,
//!
//! invalidating entries when an operand is redefined, and invalidating
//! all memory-dependent and non-local-dependent entries at `Call` nodes
//! (a callee may write memory and global registers). Each assignment
//! already scans every entry to invalidate, so each table is a vector
//! scanned in order rather than a hash map, and one pair serves every
//! chain of the graph. While both tables are empty no expression can
//! change, so none is copied or compared.

use crate::analyses::Analyses;
use crate::locals::Locals;
use cmm_cfg::{Graph, Node, NodeId};
use cmm_ir::{Expr, Lvalue, Name};

/// Runs both local passes; returns the number of rewrites.
pub fn localopt(g: &mut Graph, an: &mut Analyses) -> usize {
    let rpo = an.rpo();
    // Edges into each node from reachable nodes. The pass rewrites
    // expressions only, so these and the chains stay valid throughout.
    let mut preds = vec![0u32; g.nodes.len()];
    for &p in rpo {
        for s in g.node(p).succ_iter() {
            preds[s.index()] += 1;
        }
    }
    let mut in_chain = vec![false; g.nodes.len()];
    let mut chain = Vec::new();
    let mut rewritten = Vec::new();
    let mut st = LocalState::default();
    let mut changed = 0;
    for &start in rpo {
        if in_chain[start.index()] {
            continue;
        }
        // A maximal straight-line chain from its head: the entry, a
        // join, or a successor of a fork.
        chain.clear();
        chain.push(start);
        in_chain[start.index()] = true;
        let mut cur = start;
        loop {
            let mut succs = g.node(cur).succ_iter();
            let (Some(next), None) = (succs.next(), succs.next()) else {
                break;
            };
            if preds[next.index()] != 1 || in_chain[next.index()] {
                break;
            }
            chain.push(next);
            in_chain[next.index()] = true;
            cur = next;
        }
        changed += run_chain(g, &chain, an.locals(), &mut st, &mut rewritten);
    }
    if changed > 0 {
        an.rewrote(g, &rewritten);
    }
    changed
}

#[derive(Default)]
struct LocalState {
    /// Copy environment: `v` currently holds the same value as `w`.
    copies: Vec<(Name, Name)>,
    /// Available expressions: canonical rhs already held in a variable.
    avail: Vec<(Expr, Name)>,
}

/// True if `e` mentions the name `v`.
fn mentions(e: &Expr, v: &Name) -> bool {
    let mut hit = false;
    e.visit_names(&mut |n| hit |= n == v);
    hit
}

impl LocalState {
    /// What `v` is a copy of.
    fn copy(&self, v: &Name) -> Option<&Name> {
        self.copies.iter().find(|(c, _)| c == v).map(|(_, w)| w)
    }

    /// The variable holding the value of `e`.
    fn holder(&self, e: &Expr) -> Option<&Name> {
        self.avail.iter().find(|(x, _)| x == e).map(|(_, v)| v)
    }

    fn invalidate_var(&mut self, v: &Name) {
        self.copies.retain(|(c, w)| c != v && w != v);
        self.avail
            .retain(|(e, holder)| holder != v && !mentions(e, v));
    }

    fn invalidate_memory(&mut self) {
        self.avail.retain(|(e, _)| !e.reads_memory());
    }

    /// At a call, memory and every non-local name may change.
    fn invalidate_for_call(&mut self, locals: &Locals) {
        self.invalidate_memory();
        self.avail.retain(|(e, holder)| {
            let mut all_local = locals.contains(holder);
            e.visit_names(&mut |n| all_local &= locals.contains(n));
            all_local
        });
        self.copies
            .retain(|(v, w)| locals.contains(v) && locals.contains(w));
    }

    /// The rewrite of `e` by the copy environment, then by the
    /// available expressions, if it differs from `e`.
    fn rewrite(&self, e: &Expr) -> Option<Expr> {
        if self.copies.is_empty() {
            // Substitution would only copy `e`.
            if self.avail.is_empty() || matches!(e, Expr::Name(_) | Expr::Lit(_)) {
                return None;
            }
            return self.holder(e).map(|v| Expr::Name(v.clone()));
        }
        let copied = e.substitute(&|n| self.copy(n).cloned().map(Expr::Name));
        let new = match self.holder(&copied) {
            Some(v) if !matches!(copied, Expr::Name(_) | Expr::Lit(_)) => Expr::Name(v.clone()),
            _ => copied,
        };
        (new != *e).then_some(new)
    }
}

/// Rewrites `e` in place; returns 1 if it changed, else 0.
fn rewrite_in_place(e: &mut Expr, st: &LocalState) -> usize {
    match st.rewrite(e) {
        Some(new) => {
            *e = new;
            1
        }
        None => 0,
    }
}

/// Rewrites one chain; returns the number of rewrites and adds each
/// rewritten node to `rewritten`.
fn run_chain(
    g: &mut Graph,
    chain: &[NodeId],
    locals: &Locals,
    st: &mut LocalState,
    rewritten: &mut Vec<NodeId>,
) -> usize {
    st.copies.clear();
    st.avail.clear();
    let mut changed = 0;
    for &id in chain {
        let before = changed;
        match g.node_mut(id) {
            Node::Assign { lhs, rhs, .. } => {
                changed += rewrite_in_place(rhs, st);
                match lhs {
                    Lvalue::Var(v) => {
                        st.invalidate_var(v);
                        if !locals.contains(v) {
                            // Assigning a global register: a subsequent
                            // call could also write it, but within the
                            // chain segment up to the next call the copy
                            // is valid; keep tracking conservatively off.
                        } else {
                            match &*rhs {
                                // `invalidate_var` dropped every entry of
                                // `v`, and the rewrite left no right-hand
                                // side the table already holds, so each
                                // key is new. An expression that reads
                                // `v` itself names its old value, not
                                // what `v` now holds.
                                Expr::Name(w) if locals.contains(w) && w != v => {
                                    st.copies.push((v.clone(), w.clone()));
                                }
                                e if !matches!(e, Expr::Lit(_) | Expr::Name(_))
                                    && !e.can_fail()
                                    && !mentions(e, v) =>
                                {
                                    st.avail.push((e.clone(), v.clone()));
                                }
                                _ => {}
                            }
                        }
                    }
                    Lvalue::Mem(_, a) => {
                        changed += rewrite_in_place(a, st);
                        st.invalidate_memory();
                    }
                }
            }
            Node::CopyOut { exprs, .. } => {
                for e in exprs {
                    changed += rewrite_in_place(e, st);
                }
            }
            Node::Branch { cond, .. } => changed += rewrite_in_place(cond, st),
            Node::CutTo { cont, .. } => changed += rewrite_in_place(cont, st),
            Node::Jump { callee } => changed += rewrite_in_place(callee, st),
            Node::Call { callee, .. } => {
                changed += rewrite_in_place(callee, st);
                st.invalidate_for_call(locals);
            }
            Node::CopyIn { vars, .. } => {
                for v in vars.iter() {
                    st.invalidate_var(v);
                }
            }
            Node::Entry { .. } | Node::Exit { .. } | Node::CalleeSaves { .. } | Node::Yield => {}
        }
        if changed > before {
            rewritten.push(id);
        }
    }
    changed
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

    fn localopt(g: &mut Graph) -> usize {
        let mut an = Analyses::new(g);
        super::localopt(g, &mut an)
    }

    fn rhs_list(g: &Graph) -> Vec<Expr> {
        g.reverse_postorder()
            .into_iter()
            .filter_map(|id| match g.node(id) {
                Node::Assign { rhs, .. } => Some(rhs.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn copy_propagation_within_a_chain() {
        let mut g = graph("f(bits32 a) { bits32 b, c; b = a; c = b + 1; return (c); }");
        localopt(&mut g);
        let rhs = rhs_list(&g);
        assert!(
            rhs.contains(&Expr::add(Expr::var("a"), Expr::b32(1))),
            "b should be replaced by a: {rhs:?}"
        );
    }

    #[test]
    fn cse_reuses_computed_expressions() {
        let mut g =
            graph("f(bits32 a, bits32 b) { bits32 x, y; x = a + b; y = a + b; return (x, y); }");
        localopt(&mut g);
        let rhs = rhs_list(&g);
        assert!(
            rhs.contains(&Expr::var("x")),
            "y = a + b should become y = x: {rhs:?}"
        );
    }

    #[test]
    fn copies_invalidated_by_redefinition() {
        let mut g = graph("f(bits32 a) { bits32 b, c; b = a; a = 0; c = b + 1; return (c); }");
        localopt(&mut g);
        let rhs = rhs_list(&g);
        assert!(
            rhs.contains(&Expr::add(Expr::var("b"), Expr::b32(1))),
            "b must not be replaced by the redefined a: {rhs:?}"
        );
    }

    #[test]
    fn memory_expressions_invalidated_by_stores() {
        let mut g = graph(
            "f(bits32 p) { bits32 x, y; x = bits32[p]; bits32[p] = 0; y = bits32[p]; return (x, y); }",
        );
        localopt(&mut g);
        let rhs = rhs_list(&g);
        // y must reload, not reuse x.
        assert!(
            rhs.iter().filter(|e| e.reads_memory()).count() >= 2,
            "store must kill the available load: {rhs:?}"
        );
    }

    #[test]
    fn calls_invalidate_memory_and_globals() {
        let p = build_program(
            &parse_module(
                r#"
                register bits32 gr;
                f(bits32 p) {
                    bits32 x, y, u, v;
                    x = bits32[p];
                    u = gr;
                    g();
                    y = bits32[p];
                    v = gr;
                    return (x, y, u, v);
                }
                g() { gr = 1; return; }
                "#,
            )
            .unwrap(),
        )
        .unwrap();
        let mut g = p.proc("f").unwrap().clone();
        localopt(&mut g);
        let rhs = rhs_list(&g);
        assert!(rhs.iter().filter(|e| e.reads_memory()).count() >= 2);
        assert!(
            rhs.iter().filter(|e| **e == Expr::var("gr")).count() >= 2,
            "global register must be reloaded after the call: {rhs:?}"
        );
    }

    #[test]
    fn failing_expressions_not_subject_to_cse() {
        let mut g =
            graph("f(bits32 a, bits32 b) { bits32 x, y; x = a / b; y = a / b; return (x, y); }");
        localopt(&mut g);
        let rhs = rhs_list(&g);
        assert_eq!(
            rhs.iter()
                .filter(|e| matches!(e, Expr::Binary(cmm_ir::BinOp::DivU, ..)))
                .count(),
            2,
            "possibly-failing division is recomputed, not reused: {rhs:?}"
        );
    }

    #[test]
    fn an_assignment_that_reads_its_target_makes_nothing_available() {
        // After `x = x + 1`, `x + 1` is one more than x holds.
        let mut g =
            graph("f(bits32 a) { bits32 x, y; x = bits32[a]; x = x + 1; y = x + 1; return (y); }");
        localopt(&mut g);
        let rhs = rhs_list(&g);
        assert_eq!(
            rhs.iter()
                .filter(|e| **e == Expr::add(Expr::var("x"), Expr::b32(1)))
                .count(),
            2,
            "y = x + 1 must not become y = x: {rhs:?}"
        );
    }

    #[test]
    fn chains_split_at_joins() {
        // The join after the if has two predecessors; values computed in
        // one arm must not be reused after the join.
        let mut g = graph(
            r#"
            f(bits32 a, bits32 n) {
                bits32 x, y;
                if n == 0 { x = a + 1; } else { x = 2; }
                y = a + 1;
                return (x, y);
            }
            "#,
        );
        localopt(&mut g);
        let rhs = rhs_list(&g);
        assert_eq!(
            rhs.iter()
                .filter(|e| **e == Expr::add(Expr::var("a"), Expr::b32(1)))
                .count(),
            2,
            "a + 1 must be recomputed after the join: {rhs:?}"
        );
    }
}
