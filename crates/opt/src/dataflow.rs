//! The dataflow rules of Table 3.
//!
//! Each node's definitions, uses, copies, and kills, "in terms of
//! definitions, uses, copies, and kills", where `fv(e)` is the free
//! variables of `e`, "possibly including the variable `M`, which
//! represents memory".

use cmm_cfg::{Graph, Node, NodeId};
use cmm_ir::{Expr, Lvalue, Name};

/// A dataflow slot: a variable, the memory pseudo-variable `M`, or an
/// element of the argument-passing area `A`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Slot {
    /// A local variable (or global register) by name.
    Var(Name),
    /// The memory pseudo-variable `M` of Table 3.
    Mem,
    /// `A[i]`, an element of the argument-passing area (0-based here;
    /// the paper numbers from 1).
    Area(usize),
}

/// Dataflow facts for one node, per Table 3.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NodeFlow {
    /// Slots read by the node (before its definitions take effect).
    pub uses: Vec<Slot>,
    /// Slots written by the node on every outgoing edge.
    pub defs: Vec<Slot>,
    /// Copies performed by the node, as (destination, source) pairs —
    /// `CopyIn` and `CopyOut` are pure copies, which copy propagation
    /// may exploit.
    pub copies: Vec<(Slot, Slot)>,
    /// Per-edge definitions: `(target, slots)` — a `Call` defines
    /// `A[0..N)` along the edge to each continuation, where `N` is that
    /// continuation's parameter count.
    pub edge_defs: Vec<(NodeId, Vec<Slot>)>,
    /// Per-edge kills: along each `also cuts to` edge, "for each `v`
    /// that could be in `s` when the code is executed, kill `v`"
    /// (callee-saves registers are not restored by a cut).
    pub edge_kills: Vec<(NodeId, Vec<Name>)>,
}

fn fv(e: &Expr, out: &mut Vec<Slot>) {
    e.visit_names(&mut |n| out.push(Slot::Var(n.clone())));
    if e.reads_memory() {
        out.push(Slot::Mem);
    }
}

/// The parameter count of the continuation beginning at `node` (its
/// `CopyIn` arity), or 0.
fn cont_params(g: &Graph, node: NodeId) -> usize {
    match g.node(node) {
        Node::CopyIn { vars, .. } => vars.len(),
        _ => 0,
    }
}

/// Computes the Table 3 dataflow facts for one node.
///
/// `saves_at` is "the set of variables that could be in `s` when the code
/// is executed" at this node — pass the callee-saves set chosen by the
/// optimizer (empty for unoptimized code, where the direct translation
/// never populates `s`).
pub fn flow(g: &Graph, id: NodeId, saves_at: &[Name]) -> NodeFlow {
    let mut f = NodeFlow::default();
    match g.node(id) {
        // Entry: defines every variable (the environment is fresh) and
        // the incoming parameters A[0..N).
        Node::Entry { conts, .. } => {
            for (v, _) in &g.vars {
                f.defs.push(Slot::Var(v.clone()));
            }
            for (k, _) in conts {
                f.defs.push(Slot::Var(k.clone()));
            }
            for i in 0..g.arity {
                f.defs.push(Slot::Area(i));
            }
        }
        // Exit: uses M and the result values A[0..N).
        Node::Exit { .. } => {
            f.uses.push(Slot::Mem);
            // The number of results is not statically recorded at Exit;
            // conservatively, whatever a preceding CopyOut placed is
            // used. We expose this as a use of every area slot the
            // procedure ever fills; liveness treats Exit as a use of all
            // upstream CopyOut values through the straight-line chain.
            for i in 0..max_copyout_len(g) {
                f.uses.push(Slot::Area(i));
            }
        }
        // CopyIn pv: pv[i] = A[i].
        Node::CopyIn { vars, .. } => {
            for (i, v) in vars.iter().enumerate() {
                f.uses.push(Slot::Area(i));
                f.defs.push(Slot::Var(v.clone()));
                f.copies.push((Slot::Var(v.clone()), Slot::Area(i)));
            }
        }
        // CopyOut pe: A[i] = pe[i].
        Node::CopyOut { exprs, .. } => {
            for (i, e) in exprs.iter().enumerate() {
                fv(e, &mut f.uses);
                f.defs.push(Slot::Area(i));
                if let Expr::Name(n) = e {
                    f.copies.push((Slot::Area(i), Slot::Var(n.clone())));
                }
            }
        }
        // CalleeSaves: no effect on dataflow.
        Node::CalleeSaves { .. } => {}
        // Assign v e / Assign type[a] e.
        Node::Assign { lhs, rhs, .. } => {
            fv(rhs, &mut f.uses);
            match lhs {
                Lvalue::Var(v) => {
                    f.defs.push(Slot::Var(v.clone()));
                    if let Expr::Name(n) = rhs {
                        f.copies.push((Slot::Var(v.clone()), Slot::Var(n.clone())));
                    }
                }
                Lvalue::Mem(_, a) => {
                    fv(a, &mut f.uses);
                    f.defs.push(Slot::Mem);
                }
            }
        }
        // Branch π: uses fv(π).
        Node::Branch { cond, .. } => fv(cond, &mut f.uses),
        // Call: uses fv(e_f), uses and defines M, uses the outgoing
        // arguments A[0..N); defines A[0..N_k) along the edge to each
        // continuation; kills callee-saves along cut edges; if abort,
        // the results escape along the (implicit) exit edge.
        Node::Call { callee, bundle, .. } => {
            fv(callee, &mut f.uses);
            f.uses.push(Slot::Mem);
            f.defs.push(Slot::Mem);
            for i in 0..max_copyout_len(g) {
                f.uses.push(Slot::Area(i));
            }
            for &t in bundle.returns.iter().chain(bundle.unwinds.iter()) {
                let n = cont_params(g, t);
                f.edge_defs.push((t, (0..n).map(Slot::Area).collect()));
            }
            for &t in &bundle.cuts {
                let n = cont_params(g, t);
                f.edge_defs.push((t, (0..n).map(Slot::Area).collect()));
                f.edge_kills.push((t, saves_at.to_vec()));
            }
        }
        // Jump: uses fv(e_f), M, and the outgoing arguments.
        Node::Jump { callee } => {
            fv(callee, &mut f.uses);
            f.uses.push(Slot::Mem);
            for i in 0..max_copyout_len(g) {
                f.uses.push(Slot::Area(i));
            }
        }
        // CutTo: uses fv(e), M, and the outgoing arguments.
        Node::CutTo { cont, cuts } => {
            fv(cont, &mut f.uses);
            f.uses.push(Slot::Mem);
            for i in 0..max_copyout_len(g) {
                f.uses.push(Slot::Area(i));
            }
            for &t in cuts {
                let n = cont_params(g, t);
                f.edge_defs.push((t, (0..n).map(Slot::Area).collect()));
                f.edge_kills.push((t, saves_at.to_vec()));
            }
        }
        // Yield: "not in any optimized procedure."
        Node::Yield => {}
    }
    f
}

/// The largest `CopyOut` arity in the graph — a sound bound on how many
/// area slots can be live.
pub fn max_copyout_len(g: &Graph) -> usize {
    g.nodes
        .iter()
        .map(|n| match n {
            Node::CopyOut { exprs, .. } => exprs.len(),
            Node::CopyIn { vars, .. } => vars.len(),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
        .max(g.arity)
}

/// Calls `f` on every variable a node uses, in Table 3 order: exactly
/// the `Slot::Var` entries of `flow(g, id, &[]).uses`, without
/// building the node's full [`NodeFlow`]. This is what register-level
/// analyses (liveness, SSA) consume.
pub fn each_var_use(g: &Graph, id: NodeId, mut f: impl FnMut(&Name)) {
    match g.node(id) {
        Node::CopyOut { exprs, .. } => exprs.iter().for_each(|e| e.visit_names(&mut f)),
        Node::Assign { lhs, rhs, .. } => {
            rhs.visit_names(&mut f);
            if let Lvalue::Mem(_, a) = lhs {
                a.visit_names(&mut f);
            }
        }
        Node::Branch { cond, .. } => cond.visit_names(&mut f),
        Node::Call { callee, .. } | Node::Jump { callee } => callee.visit_names(&mut f),
        Node::CutTo { cont, .. } => cont.visit_names(&mut f),
        Node::Entry { .. }
        | Node::Exit { .. }
        | Node::CopyIn { .. }
        | Node::CalleeSaves { .. }
        | Node::Yield => {}
    }
}

/// Calls `f` on every variable a node defines: exactly the `Slot::Var`
/// entries of `flow(g, id, &[]).defs`, in order.
pub fn each_var_def(g: &Graph, id: NodeId, mut f: impl FnMut(&Name)) {
    match g.node(id) {
        Node::Entry { conts, .. } => {
            g.vars.iter().for_each(|(v, _)| f(v));
            conts.iter().for_each(|(k, _)| f(k));
        }
        Node::CopyIn { vars, .. } => vars.iter().for_each(f),
        Node::Assign {
            lhs: Lvalue::Var(v),
            ..
        } => f(v),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn graph(src: &str, name: &str) -> Graph {
        build_program(&parse_module(src).unwrap())
            .unwrap()
            .proc(name)
            .unwrap()
            .clone()
    }

    #[test]
    fn assign_uses_rhs_defines_lhs() {
        let g = graph("f(bits32 a) { bits32 b; b = a + 1; return (b); }", "f");
        let id = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Assign { .. }))
            .unwrap();
        let f = flow(&g, id, &[]);
        assert!(f.uses.contains(&Slot::Var(Name::from("a"))));
        assert!(f.defs.contains(&Slot::Var(Name::from("b"))));
    }

    #[test]
    fn memory_store_defines_m() {
        let g = graph("f(bits32 a) { bits32[a] = 1; return; }", "f");
        let id = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Assign { .. }))
            .unwrap();
        let f = flow(&g, id, &[]);
        assert!(f.defs.contains(&Slot::Mem));
        assert!(f.uses.contains(&Slot::Var(Name::from("a"))));
    }

    #[test]
    fn memory_load_uses_m() {
        let g = graph("f(bits32 a) { bits32 b; b = bits32[a]; return (b); }", "f");
        let id = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Assign { .. }))
            .unwrap();
        let f = flow(&g, id, &[]);
        assert!(f.uses.contains(&Slot::Mem));
    }

    #[test]
    fn copyin_records_copies_from_area() {
        let g = graph("f(bits32 a, bits32 b) { return (a, b); }", "f");
        let id = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::CopyIn { vars, .. } if vars.len() == 2))
            .unwrap();
        let f = flow(&g, id, &[]);
        assert_eq!(f.copies.len(), 2);
        assert_eq!(f.copies[0], (Slot::Var(Name::from("a")), Slot::Area(0)));
    }

    #[test]
    fn call_kills_callee_saves_along_cut_edges_only() {
        let g = graph(
            r#"
            f(bits32 y) {
                bits32 r;
                r = g(y) also cuts to k also unwinds to k;
                return (r);
                continuation k(r):
                return (r + y);
            }
            g(bits32 x) { return (x); }
            "#,
            "f",
        );
        let call = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Call { .. }))
            .unwrap();
        let saves = [Name::from("y")];
        let f = flow(&g, call, &saves);
        let k = g.continuation("k").unwrap();
        // Exactly one kill edge (the cut edge), carrying y.
        assert_eq!(f.edge_kills, vec![(k, vec![Name::from("y")])]);
        // A is defined along every continuation edge with the right arity.
        assert!(f
            .edge_defs
            .iter()
            .all(|(t, slots)| (*t != k) || slots.len() == 1));
        // With no callee-saves chosen, nothing is killed.
        assert!(flow(&g, call, &[]).edge_kills[0].1.is_empty());
    }

    #[test]
    fn var_projection_strips_m_and_area() {
        let g = graph(
            "f(bits32 a) { bits32 b; b = bits32[a + 4]; return (b); }",
            "f",
        );
        let id = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Assign { .. }))
            .unwrap();
        let (mut uses, mut defs) = (Vec::new(), Vec::new());
        each_var_use(&g, id, |v| uses.push(v.clone()));
        each_var_def(&g, id, |v| defs.push(v.clone()));
        assert_eq!(uses, vec![Name::from("a")]);
        assert_eq!(defs, vec![Name::from("b")]);
    }
}
