//! Backward variable liveness.
//!
//! The analysis is completely standard — which is the paper's point: the
//! `also` annotations became ordinary graph edges during translation, so
//! a variable used only in an exception handler (a continuation) is kept
//! live across the calls that can reach that handler, with **no special
//! cases for exceptions** in the analysis itself. (Compare Hennessy 1981
//! and the Drew–Gough–Ledermann register allocator, which had to treat
//! handlers specially or spill every shared variable to the stack.)

use crate::locals::{set_bit, Locals, Refs, VarSet, UNTRACKED};
use cmm_cfg::{Graph, NodeId};
use std::sync::Arc;

/// Per-node live-in and live-out sets, as bit rows over the graph's
/// locals index (untracked names — globals and symbols — are never
/// live here: no pass asks about them).
#[derive(Clone, Debug)]
pub struct Liveness {
    locals: Arc<Locals>,
    /// Live-in row of each node: `locals.words()` words per node id.
    live_in: Vec<u64>,
    /// Live-out row of each node, laid out the same way.
    live_out: Vec<u64>,
}

impl Liveness {
    /// Computes liveness for the reachable part of a graph.
    pub fn compute(g: &Graph) -> Liveness {
        let locals = Locals::of(g);
        let refs = Refs::of(g, &locals);
        Liveness::over(g, &Arc::new(locals), &refs, &g.reverse_postorder())
    }

    /// Computes liveness over the graph's locals index, its resolved
    /// uses and definitions, and the reverse postorder of its reachable
    /// nodes.
    pub(crate) fn over(g: &Graph, locals: &Arc<Locals>, refs: &Refs, rpo: &[NodeId]) -> Liveness {
        let n = g.nodes.len();
        let w = locals.words();
        // Per-node use (gen) and def (kill) rows and a flat successor
        // array, by position in `rpo`: the node at position k has
        // successors succ[succ_at[k]..succ_at[k + 1]].
        let m = rpo.len();
        let mut gen = vec![0u64; m * w];
        let mut kill = vec![0u64; m * w];
        let mut succ_at = Vec::with_capacity(m + 1);
        let mut succ: Vec<u32> = Vec::with_capacity(2 * m);
        for (k, &id) in rpo.iter().enumerate() {
            let row = k * w..(k + 1) * w;
            for &v in refs.uses(id).iter().filter(|&&v| v != UNTRACKED) {
                set_bit(&mut gen[row.clone()], v as usize);
            }
            for &v in refs.defs(id).iter().filter(|&&v| v != UNTRACKED) {
                set_bit(&mut kill[row.clone()], v as usize);
            }
            succ_at.push(succ.len() as u32);
            succ.extend(g.node(id).succ_iter().map(|s| s.0));
        }
        succ_at.push(succ.len() as u32);

        // Postorder converges fastest for a backward problem.
        let mut live_in = vec![0u64; n * w];
        let mut live_out = vec![0u64; n * w];
        let mut changed = true;
        while changed {
            changed = false;
            for (k, &id) in rpo.iter().enumerate().rev() {
                let i = id.index();
                let succs = &succ[succ_at[k] as usize..succ_at[k + 1] as usize];
                for j in 0..w {
                    let out = succs
                        .iter()
                        .fold(0, |acc, &s| acc | live_in[s as usize * w + j]);
                    let at = i * w + j;
                    let inn = gen[k * w + j] | (out & !kill[k * w + j]);
                    if out != live_out[at] || inn != live_in[at] {
                        live_out[at] = out;
                        live_in[at] = inn;
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            locals: Arc::clone(locals),
            live_in,
            live_out,
        }
    }

    /// The locals index the rows are over.
    pub fn locals(&self) -> &Locals {
        &self.locals
    }

    /// Variables live into a node.
    pub fn live_in(&self, id: NodeId) -> VarSet<'_> {
        self.row(&self.live_in, id)
    }

    /// Variables live out of a node.
    pub fn live_out(&self, id: NodeId) -> VarSet<'_> {
        self.row(&self.live_out, id)
    }

    fn row<'a>(&'a self, rows: &'a [u64], id: NodeId) -> VarSet<'a> {
        let w = self.locals.words();
        self.locals.set(&rows[id.index() * w..(id.index() + 1) * w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::{build_program, Node};
    use cmm_ir::Name;
    use cmm_parse::parse_module;

    fn graph(src: &str) -> Graph {
        build_program(&parse_module(src).unwrap())
            .unwrap()
            .proc("f")
            .unwrap()
            .clone()
    }

    /// The key property from §4.4: a variable mentioned only in an
    /// exception handler is live across the call that can reach it.
    #[test]
    fn handler_variables_live_across_annotated_calls() {
        let g = graph(
            r#"
            f(bits32 x, bits32 y) {
                bits32 r;
                r = g(x) also cuts to k;
                return (r);
                continuation k(r):
                return (r + y);      /* y used only in the handler */
            }
            g(bits32 a) { return (a); }
            "#,
        );
        let live = Liveness::compute(&g);
        let call = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Call { .. }))
            .unwrap();
        assert!(
            live.live_in(call).contains(&Name::from("y")),
            "y must be live at the call because of the cuts-to edge"
        );
    }

    /// Without the annotation edge there is nothing keeping the handler
    /// variable alive — the pessimistic alternative the paper criticizes
    /// is unnecessary.
    #[test]
    fn unannotated_call_does_not_keep_handler_vars_alive() {
        let g = graph(
            r#"
            f(bits32 x, bits32 y) {
                bits32 r;
                r = g(x);
                return (r);
                continuation k(r):
                return (r + y);
            }
            g(bits32 a) { return (a); }
            "#,
        );
        let live = Liveness::compute(&g);
        let call = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Call { .. }))
            .unwrap();
        assert!(
            !live.live_in(call).contains(&Name::from("y")),
            "y is not live at the call when no edge reaches the handler"
        );
    }

    #[test]
    fn straight_line_liveness() {
        let g = graph("f(bits32 a) { bits32 b, c; b = a + 1; c = b * 2; return (c); }");
        let live = Liveness::compute(&g);
        let assigns: Vec<_> = g
            .ids()
            .filter(|&i| matches!(g.node(i), Node::Assign { .. }))
            .collect();
        // After c = b*2, only c is live.
        let last = *assigns.iter().min_by_key(|i| i.index()).unwrap();
        // (node ids are allocated back-to-front by the builder, so the
        // smallest assign id is the last in control order — verify by
        // checking its rhs mentions b)
        let Node::Assign { rhs, .. } = g.node(last) else {
            unreachable!()
        };
        assert!(rhs.names().contains(&Name::from("b")));
        assert_eq!(
            live.live_out(last).iter().collect::<Vec<_>>(),
            vec![&Name::from("c")]
        );
    }

    #[test]
    fn loop_carried_variables_stay_live() {
        let g = graph(
            r#"
            f(bits32 n) {
                bits32 s;
                s = 0;
              loop:
                if n == 0 { return (s); } else { s = s + n; n = n - 1; goto loop; }
            }
            "#,
        );
        let live = Liveness::compute(&g);
        let branch = g
            .ids()
            .find(|&i| matches!(g.node(i), Node::Branch { .. }))
            .unwrap();
        assert!(live.live_in(branch).contains(&Name::from("s")));
        assert!(live.live_in(branch).contains(&Name::from("n")));
    }
}
