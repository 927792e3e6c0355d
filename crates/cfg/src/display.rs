//! Textual display of Abstract C-- graphs (used by `examples/ssa_figure6`
//! and for debugging).

use crate::graph::{Graph, NodeId};
use crate::node::Node;
use cmm_ir::pretty::expr_to_string;
use cmm_ir::Lvalue;
use std::fmt::Write as _;

/// Renders one node on one line.
pub fn node_to_string(g: &Graph, id: NodeId) -> String {
    let mut s = format!("{id}: ");
    match g.node(id) {
        Node::Entry { conts, next } => {
            let cs: Vec<String> = conts.iter().map(|(n, id)| format!("{n}={id}")).collect();
            let _ = write!(s, "Entry [{}] -> {next}", cs.join(", "));
        }
        Node::Exit { index, alternates } => {
            let _ = write!(s, "Exit <{index}/{alternates}>");
        }
        Node::CopyIn { vars, next } => {
            let vs: Vec<String> = vars.iter().map(ToString::to_string).collect();
            let _ = write!(s, "CopyIn [{}] -> {next}", vs.join(", "));
        }
        Node::CopyOut { exprs, next } => {
            let es: Vec<String> = exprs.iter().map(expr_to_string).collect();
            let _ = write!(s, "CopyOut [{}] -> {next}", es.join(", "));
        }
        Node::CalleeSaves { vars, next } => {
            let vs: Vec<String> = vars.iter().map(ToString::to_string).collect();
            let _ = write!(s, "CalleeSaves {{{}}} -> {next}", vs.join(", "));
        }
        Node::Assign { lhs, rhs, next } => {
            let l = match lhs {
                Lvalue::Var(v) => v.to_string(),
                Lvalue::Mem(ty, a) => format!("{ty}[{}]", expr_to_string(a)),
            };
            let _ = write!(s, "Assign {l} := {} -> {next}", expr_to_string(rhs));
        }
        Node::Branch { cond, t, f } => {
            let _ = write!(s, "Branch {} ? {t} : {f}", expr_to_string(cond));
        }
        Node::Call {
            callee,
            bundle,
            descriptors,
        } => {
            let rs: Vec<String> = bundle.returns.iter().map(ToString::to_string).collect();
            let us: Vec<String> = bundle.unwinds.iter().map(ToString::to_string).collect();
            let cs: Vec<String> = bundle.cuts.iter().map(ToString::to_string).collect();
            let _ = write!(
                s,
                "Call {} returns=[{}] unwinds=[{}] cuts=[{}] aborts={}",
                expr_to_string(callee),
                rs.join(", "),
                us.join(", "),
                cs.join(", "),
                bundle.aborts
            );
            if !descriptors.is_empty() {
                let ds: Vec<String> = descriptors.iter().map(ToString::to_string).collect();
                let _ = write!(s, " descriptors=[{}]", ds.join(", "));
            }
        }
        Node::Jump { callee } => {
            let _ = write!(s, "Jump {}", expr_to_string(callee));
        }
        Node::CutTo { cont, cuts } => {
            let cs: Vec<String> = cuts.iter().map(ToString::to_string).collect();
            let _ = write!(s, "CutTo {} cuts=[{}]", expr_to_string(cont), cs.join(", "));
        }
        Node::Yield => {
            let _ = write!(s, "Yield");
        }
    }
    s
}

/// Renders a whole graph, reachable nodes only, in reverse postorder.
pub fn graph_to_string(g: &Graph) -> String {
    let mut out = format!("graph {} (arity {}):\n", g.name, g.arity);
    for id in g.reverse_postorder() {
        let _ = writeln!(out, "  {}", node_to_string(g, id));
    }
    out
}

/// Renders a graph in Graphviz dot format.
pub fn graph_to_dot(g: &Graph) -> String {
    let mut out = String::from("digraph {\n  node [shape=box, fontname=monospace];\n");
    for id in g.reverse_postorder() {
        let label = node_to_string(g, id).replace('"', "\\\"");
        let _ = writeln!(out, "  {id} [label=\"{label}\"];");
        for s in g.node(id).succ_iter() {
            let _ = writeln!(out, "  {id} -> {s};");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_program;
    use cmm_parse::parse_module;

    #[test]
    fn renders_every_node_kind() {
        let m = parse_module(
            r#"
            f(bits32 x) {
                bits32 y, k1;
                y = g(x) also cuts to k also unwinds to k also aborts;
                if y == 0 { goto l; } else { bits32[x] = y; }
              l:
                cut to k1(y) also cuts to k;
                jump g(y);
                yield(1) also aborts;
                return (y);
                continuation k(y):
                return (y);
            }
            g(bits32 a) { return (a); }
            "#,
        )
        .unwrap();
        let p = build_program(&m).unwrap();
        let s = graph_to_string(p.proc("f").unwrap());
        for kind in [
            "Entry", "CopyIn", "CopyOut", "Assign", "Branch", "Call", "CutTo", "Exit",
        ] {
            assert!(s.contains(kind), "missing {kind} in:\n{s}");
        }
        let dot = graph_to_dot(p.proc("f").unwrap());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
    }
}
