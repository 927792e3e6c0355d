//! Dead-code elimination.
//!
//! Removes `Assign v := e` nodes where `v` is a local variable that is
//! dead after the node and `e` cannot fail. (An expression that could
//! fail is kept: the paper leaves failing `%`-primitives *unspecified*,
//! but our semantics refines "unspecified" to an observable `Wrong`
//! state, and the optimizer preserves observations.) Memory stores and
//! assignments to global registers are never removed.
//!
//! Thanks to the annotation edges, a variable whose only use is inside an
//! exception handler is *live* at every call that can reach the handler,
//! so its definition is correctly retained — with no special-casing here.

use crate::analyses::Analyses;
use crate::locals::UNTRACKED;
use cmm_cfg::{Graph, Node, NodeId};
use cmm_ir::Lvalue;

/// Runs dead-code elimination; returns the number of nodes removed.
///
/// Each round scans the order its liveness was computed over. A round
/// that removes nothing leaves that liveness in `an`, still valid.
pub fn dce(g: &mut Graph, an: &mut Analyses) -> usize {
    let mut removed_total = 0;
    loop {
        let (live, rpo, refs) = an.liveness(g);
        // Each dead node's successor; `None` for live nodes.
        let mut redirect: Vec<Option<NodeId>> = vec![None; g.nodes.len()];
        let mut removed = 0;
        for &id in rpo {
            if let Node::Assign {
                lhs: Lvalue::Var(_),
                rhs,
                next,
            } = g.node(id)
            {
                // The assigned variable, if the locals index tracks it.
                let &[v] = refs.defs(id) else {
                    unreachable!("an assignment defines one variable")
                };
                if v != UNTRACKED && !live.live_out(id).has(v as usize) && !rhs.can_fail() {
                    redirect[id.index()] = Some(*next);
                    removed += 1;
                }
            }
        }
        if removed == 0 {
            return removed_total;
        }
        removed_total += removed;
        // Bypass each dead node: redirect every edge into it to the
        // first live node after it. Each chain of dead nodes is walked
        // once, then every node on it points at the chain's end.
        for i in 0..redirect.len() {
            let Some(mut end) = redirect[i] else { continue };
            let mut hops = 0;
            while let Some(next) = redirect[end.index()] {
                end = next;
                hops += 1;
                debug_assert!(hops <= removed, "dead chain cycle");
            }
            let mut at = i;
            while let Some(next) = redirect[at].filter(|&n| n != end) {
                redirect[at] = Some(end);
                at = next.index();
            }
        }
        let resolve = |n: NodeId| redirect[n.index()].unwrap_or(n);
        for node in &mut g.nodes {
            node.map_succs(resolve);
        }
        g.entry = resolve(g.entry);
        an.bypassed(g, &redirect);
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

    fn dce(g: &mut Graph) -> usize {
        let mut an = Analyses::new(g);
        super::dce(g, &mut an)
    }

    fn live_assign_count(g: &Graph) -> usize {
        g.reverse_postorder()
            .into_iter()
            .filter(|&id| matches!(g.node(id), Node::Assign { .. }))
            .count()
    }

    #[test]
    fn removes_unused_assignments() {
        let mut g = graph("f(bits32 a) { bits32 b, c; b = a + 1; c = 5; return (a); }");
        let removed = dce(&mut g);
        assert_eq!(removed, 2);
        assert_eq!(live_assign_count(&g), 0);
    }

    #[test]
    fn removes_transitively_dead_chains() {
        let mut g = graph("f(bits32 a) { bits32 b, c; b = a + 1; c = b * 2; return (a); }");
        dce(&mut g);
        assert_eq!(live_assign_count(&g), 0);
    }

    #[test]
    fn keeps_possibly_failing_expressions() {
        let mut g = graph("f(bits32 a, bits32 b) { bits32 c; c = a / b; return (a); }");
        let removed = dce(&mut g);
        assert_eq!(removed, 0);
        assert_eq!(live_assign_count(&g), 1);
    }

    #[test]
    fn keeps_memory_stores() {
        let mut g = graph("f(bits32 p) { bits32[p] = 1; return; }");
        assert_eq!(dce(&mut g), 0);
    }

    #[test]
    fn keeps_global_register_assignments() {
        let p =
            build_program(&parse_module("register bits32 gr; f() { gr = 1; return; }").unwrap())
                .unwrap();
        let mut g = p.proc("f").unwrap().clone();
        assert_eq!(dce(&mut g), 0);
    }

    /// The §4.4 scenario: a variable used only by a handler must survive
    /// DCE when (and only when) the call carries the annotation edge.
    #[test]
    fn handler_only_variables_survive_with_annotation() {
        let with_edge = r#"
            f(bits32 x) {
                bits32 y, r, d;
                y = x * 2;
                r = g() also cuts to k;
                return (r);
                continuation k(d):
                return (y + d);
            }
            g() { return (0); }
        "#;
        let mut g = graph(with_edge);
        assert_eq!(dce(&mut g), 0, "y is reachable through the cuts-to edge");

        let without_edge = with_edge.replace(" also cuts to k", "");
        let mut g = graph(&without_edge);
        assert_eq!(dce(&mut g), 1, "without the edge, y = x * 2 is dead");
    }
}
