//! Callee-saves register promotion.
//!
//! §4.2: "Normally, we could keep y and w in callee-saves registers
//! across the call to g. But the stack-cutting technique cannot restore
//! the values of y and w before entering k. ... The callee-saves
//! registers must be considered killed by flow edges from the call to
//! any cut-to continuations."
//!
//! This pass inserts the `CalleeSaves` nodes that §5 reserves for
//! optimizers: before each call it selects the variables that are live
//! across the call **minus** those live into any `also cuts to`
//! continuation of the call, up to the number of callee-saves registers
//! the target provides. Variables reached only through `also unwinds to`
//! and `also returns to` edges are eligible, because every stack-walking
//! technique restores callee-saves registers (§4.2).
//!
//! The `cmm-vm` code generator maps the chosen set to real callee-saves
//! registers; everything else live across a call is spilled to the
//! frame.

use crate::analyses::Analyses;
use crate::locals::bits;
use cmm_cfg::{Graph, Node, NodeId};
use cmm_ir::Name;
use std::collections::BTreeSet;

/// Statistics from the promotion pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CalleeSavesStats {
    /// `CalleeSaves` nodes inserted.
    pub nodes_inserted: usize,
    /// Total variables promoted (summed over call sites).
    pub vars_promoted: usize,
    /// Variables that were live across some call but barred from
    /// promotion by a cut edge (the §4.2 penalty, made visible).
    pub vars_blocked_by_cuts: usize,
}

/// Promotes variables into callee-saves registers around calls.
///
/// `max_regs` is the number of callee-saves registers the target
/// provides. Returns statistics. The pass runs last: it adds nodes and
/// edges, so it takes the analyses it was handed (reusing whatever
/// liveness the earlier passes left valid) and ends their life.
pub fn promote_callee_saves(g: &mut Graph, mut an: Analyses, max_regs: usize) -> CalleeSavesStats {
    let (live, rpo, _) = an.liveness(g);
    let locals = live.locals();
    let mut stats = CalleeSavesStats::default();
    let calls: Vec<NodeId> = rpo
        .iter()
        .copied()
        .filter(|&id| matches!(g.node(id), Node::Call { .. }))
        .collect();

    // Each call's chosen set, computed before mutation. Rows are over
    // the locals index, so walking their bits visits names in name
    // order, and `take` keeps the first `max_regs` names.
    let mut across = vec![0u64; locals.words()];
    let mut barred = vec![0u64; locals.words()];
    let mut plan: Vec<(NodeId, BTreeSet<Name>)> = Vec::new();
    for id in &calls {
        let Node::Call { bundle, .. } = g.node(*id) else {
            unreachable!()
        };
        // Live across the call: live into any restored continuation.
        across.fill(0);
        for &t in bundle.returns.iter().chain(bundle.unwinds.iter()) {
            live.live_in(t).or_into(&mut across);
        }
        // Barred: live into any cut continuation (those edges kill
        // callee-saves registers).
        barred.fill(0);
        for &t in &bundle.cuts {
            live.live_in(t).or_into(&mut barred);
        }
        for (a, &b) in across.iter_mut().zip(&barred) {
            stats.vars_blocked_by_cuts += (*a & b).count_ones() as usize;
            *a &= !b; // now the eligible set
        }
        let chosen: BTreeSet<Name> = bits(&across)
            .take(max_regs)
            .map(|i| locals.name(i).clone())
            .collect();
        plan.push((*id, chosen));
    }

    // The `CalleeSaves` set stays in effect until the next `CalleeSaves`
    // node, so once any call stages a non-empty set, *every* call needs
    // its own set staged — a later call with a cut edge would otherwise
    // inherit a set chosen for a different site, and the cut (which
    // cannot restore callee-saves registers, §4.2) would lose those
    // variables. If nothing is promoted anywhere, keep the direct
    // translation untouched.
    if plan.iter().all(|(_, vars)| vars.is_empty()) {
        return stats;
    }

    // Insert a CalleeSaves node immediately before each call, then
    // redirect every edge into a call through its new node in one pass
    // over the original nodes.
    let original = g.nodes.len();
    let mut redirect: Vec<Option<NodeId>> = vec![None; original];
    for (call, vars) in plan {
        stats.nodes_inserted += 1;
        stats.vars_promoted += vars.len();
        redirect[call.index()] = Some(g.add(Node::CalleeSaves { vars, next: call }));
    }
    let resolve = |n: NodeId| redirect[n.index()].unwrap_or(n);
    for node in &mut g.nodes[..original] {
        node.map_succs(resolve);
    }
    g.entry = resolve(g.entry);
    stats
}

/// The callee-saves set in effect at each node (forward propagation of
/// `CalleeSaves` nodes; the direct translation has the empty set
/// everywhere): the set the Table 3 rules take as their `saves_at`
/// parameter. No pass calls it — the VM's register allocator reads the
/// `CalleeSaves` nodes directly — so it serves as the executable
/// statement of that parameter, checked by the unit test below.
pub fn saves_at(g: &Graph) -> Vec<BTreeSet<Name>> {
    let n = g.nodes.len();
    let mut at: Vec<Option<BTreeSet<Name>>> = vec![None; n];
    let order = g.reverse_postorder();
    at[g.entry.index()] = Some(BTreeSet::new());
    let mut changed = true;
    while changed {
        changed = false;
        for &id in &order {
            let Some(cur) = at[id.index()].clone() else {
                continue;
            };
            let out = match g.node(id) {
                Node::CalleeSaves { vars, .. } => vars.clone(),
                Node::Entry { .. } => BTreeSet::new(),
                _ => cur,
            };
            for s in g.node(id).succ_iter() {
                let slot = &mut at[s.index()];
                let merged = match slot {
                    None => out.clone(),
                    // Meet: intersection (a variable is only *known*
                    // callee-saved if it is on every path).
                    Some(prev) => prev.intersection(&out).cloned().collect(),
                };
                if slot.as_ref() != Some(&merged) {
                    *slot = Some(merged);
                    changed = true;
                }
            }
        }
    }
    at.into_iter().map(|s| s.unwrap_or_default()).collect()
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

    fn promote(g: &mut Graph, max_regs: usize) -> CalleeSavesStats {
        let an = Analyses::new(g);
        promote_callee_saves(g, an, max_regs)
    }

    /// The paper's f/g/k example from §4.1–4.2: y and w live across the
    /// call; with a cuts-to edge they may NOT be promoted.
    #[test]
    fn cut_edges_block_promotion() {
        let mut g = graph(
            r#"
            f(bits32 x, bits32 y) {
                bits32 r, w;
                w = x * x;
                r = g(x, k) also cuts to k;
                return (r + y + w);
                continuation k(r):
                return (r + y + w);    /* y, w needed in the handler */
            }
            g(bits32 a, bits32 kk) { return (a); }
            "#,
        );
        let stats = promote(&mut g, 8);
        assert_eq!(stats.vars_promoted, 0, "{stats:?}");
        assert!(stats.vars_blocked_by_cuts >= 2, "{stats:?}");
    }

    /// With unwinding instead of cutting, the same variables ARE
    /// promoted: "the unwinding technique allows callee-saves registers
    /// to be used at every call site, even if those values might be used
    /// in a continuation" (§4.2).
    #[test]
    fn unwind_edges_allow_promotion() {
        let mut g = graph(
            r#"
            f(bits32 x, bits32 y) {
                bits32 r, w;
                w = x * x;
                r = g(x) also unwinds to k;
                return (r + y + w);
                continuation k(r):
                return (r + y + w);
            }
            g(bits32 a) { return (a); }
            "#,
        );
        let stats = promote(&mut g, 8);
        assert!(stats.vars_promoted >= 2, "{stats:?}");
        assert_eq!(stats.vars_blocked_by_cuts, 0, "{stats:?}");
        assert!(g
            .ids()
            .any(|i| matches!(g.node(i), Node::CalleeSaves { .. })));
    }

    #[test]
    fn register_budget_caps_promotion() {
        let mut g = graph(
            r#"
            f(bits32 a, bits32 b, bits32 c, bits32 d) {
                bits32 r;
                r = g() also unwinds to k;
                return (r + a + b + c + d);
                continuation k(r):
                return (r);
            }
            g() { return (0); }
            "#,
        );
        let stats = promote(&mut g, 2);
        assert_eq!(stats.vars_promoted, 2);
    }

    #[test]
    fn saves_at_propagates_forward() {
        let mut g = graph(
            r#"
            f(bits32 y) {
                bits32 r;
                r = g() also unwinds to k;
                return (r + y);
                continuation k(r):
                return (y);
            }
            g() { return (0); }
            "#,
        );
        promote(&mut g, 4);
        let at = saves_at(&g);
        let call = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Call { .. }))
            .unwrap();
        assert!(
            at[call.index()].contains(&Name::from("y")),
            "y should be in the callee-saves set at the call: {:?}",
            at[call.index()]
        );
    }

    /// The inserted node must leave the semantics unchanged — run the
    /// machine before and after.
    #[test]
    fn promotion_preserves_behaviour() {
        let src = r#"
            f(bits32 x, bits32 y) {
                bits32 r, w;
                w = x * x;
                r = g(x) also unwinds to k;
                return (r + y + w);
                continuation k(r):
                return (r + y + w);
            }
            g(bits32 a) { return (a + 1); }
        "#;
        let prog = build_program(&parse_module(src).unwrap()).unwrap();
        let mut opt_prog = prog.clone();
        let mut g = opt_prog.procs.get("f").unwrap().clone();
        promote(&mut g, 4);
        opt_prog.procs.insert(g.name.clone(), g);

        let run = |p: &cmm_cfg::Program| {
            let mut m = cmm_sem::Machine::new(p);
            m.start("f", vec![cmm_sem::Value::b32(3), cmm_sem::Value::b32(10)])
                .unwrap();
            m.run(100_000)
        };
        assert_eq!(run(&prog), run(&opt_prog));
    }
}
