//! Dominator trees and dominance frontiers (Cooper–Harvey–Kennedy).
//!
//! Every table is a `Vec` indexed by node id; per-node lists (frontiers,
//! dominator-tree children, and the reachable predecessors they are
//! computed from) are flat arrays with one offset per node.

use cmm_cfg::{Graph, NodeId};

/// Marks an unreachable node in the id-indexed tables.
const NONE: u32 = u32::MAX;

/// Per-node lists in one flat array: node `i`'s list is
/// `items[at[i]..at[i + 1]]`.
#[derive(Clone, Debug)]
pub(crate) struct Lists<T> {
    at: Vec<u32>,
    pub(crate) items: Vec<T>,
}

impl<T> Default for Lists<T> {
    fn default() -> Lists<T> {
        Lists {
            at: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T: Copy> Lists<T> {
    /// Groups `(node, item)` pairs by node (each below `n`), keeping
    /// their order within each node.
    pub(crate) fn group(n: usize, pairs: &[(NodeId, T)]) -> Lists<T> {
        // Count each node's items at `at[k]`, sum so that `at[k]` is
        // the end of node `k`'s run, then place the items backwards:
        // each placement moves `at[k]` down to the run's start.
        let mut at = vec![0u32; n + 1];
        for &(k, _) in pairs {
            at[k.index()] += 1;
        }
        for i in 1..=n {
            at[i] += at[i - 1];
        }
        let mut items = Vec::with_capacity(pairs.len());
        if let Some(&(_, first)) = pairs.first() {
            items.resize(pairs.len(), first);
        }
        for &(k, v) in pairs.iter().rev() {
            at[k.index()] -= 1;
            items[at[k.index()] as usize] = v;
        }
        Lists { at, items }
    }

    /// The same lists with each item mapped.
    pub(crate) fn map<U>(self, f: impl FnMut(T) -> U) -> Lists<U> {
        Lists {
            at: self.at,
            items: self.items.into_iter().map(f).collect(),
        }
    }

    /// The positions in `items` of node `n`'s list.
    pub(crate) fn range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.at[n.index()] as usize..self.at[n.index() + 1] as usize
    }

    pub(crate) fn get(&self, n: NodeId) -> &[T] {
        &self.items[self.range(n)]
    }
}

/// Dominator information for the reachable part of a graph.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// Position of each node in the reverse postorder (`NONE` for
    /// unreachable nodes).
    rpo_index: Vec<u32>,
    /// Reachable predecessors of each node, one per edge, in arena
    /// order.
    preds: Lists<NodeId>,
    /// Immediate dominator of each node (the entry maps to itself;
    /// `NONE` for unreachable nodes).
    idom: Vec<u32>,
    /// Dominance frontier of each node.
    frontier: Lists<NodeId>,
    /// Children in the dominator tree, in reverse postorder.
    children: Lists<NodeId>,
}

impl Dominators {
    /// Computes dominators and dominance frontiers.
    pub fn compute(g: &Graph) -> Dominators {
        Dominators::over(g, &g.reverse_postorder())
    }

    /// Computes dominators and dominance frontiers from the reverse
    /// postorder of the graph's reachable nodes.
    pub(crate) fn over(g: &Graph, rpo: &[NodeId]) -> Dominators {
        let n = g.nodes.len();
        let mut rpo_index = vec![NONE; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i as u32;
        }
        // Predecessors restricted to reachable nodes, in arena order
        // (one entry per edge).
        let mut edges = Vec::with_capacity(2 * rpo.len());
        for p in g.ids().filter(|p| rpo_index[p.index()] != NONE) {
            edges.extend(g.node(p).succ_iter().map(|s| (s, p)));
        }
        let preds = Lists::group(n, &edges);

        let entry = g.entry;
        let mut idom = vec![NONE; n];
        idom[entry.index()] = entry.0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = NONE;
                for &p in preds.get(b) {
                    if idom[p.index()] != NONE {
                        new_idom = if new_idom == NONE {
                            p.0
                        } else {
                            intersect(&idom, &rpo_index, p.0, new_idom)
                        };
                    }
                }
                if new_idom != NONE && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }

        // Dominance frontiers: `(runner, join)` pairs in discovery
        // order, each join recorded once per runner.
        let mut pairs = Vec::with_capacity(2 * rpo.len());
        let mut last_join = vec![NONE; n];
        for &b in rpo {
            let ps = preds.get(b);
            if ps.len() >= 2 {
                for &p in ps {
                    let mut runner = p.0;
                    while runner != idom[b.index()] {
                        if last_join[runner as usize] != b.0 {
                            last_join[runner as usize] = b.0;
                            pairs.push((NodeId(runner), b));
                        }
                        runner = idom[runner as usize];
                    }
                }
            }
        }
        let frontier = Lists::group(n, &pairs);

        // Dominator-tree children.
        pairs.clear();
        pairs.extend(
            rpo.iter()
                .filter(|&&c| c != entry)
                .map(|&c| (NodeId(idom[c.index()]), c)),
        );
        let children = Lists::group(n, &pairs);

        Dominators {
            rpo_index,
            preds,
            idom,
            frontier,
            children,
        }
    }

    /// True if `n` is reachable from the entry.
    pub fn is_reachable(&self, n: NodeId) -> bool {
        self.rpo_index[n.index()] != NONE
    }

    /// The immediate dominator of a reachable node (the entry's is
    /// itself).
    pub fn idom(&self, n: NodeId) -> NodeId {
        debug_assert!(self.is_reachable(n), "{n} is unreachable");
        NodeId(self.idom[n.index()])
    }

    /// The reachable predecessors of a node, one per edge.
    pub(crate) fn preds(&self, n: NodeId) -> &[NodeId] {
        self.preds.get(n)
    }

    /// The dominance frontier of a node (empty if unreachable).
    pub fn frontier(&self, n: NodeId) -> &[NodeId] {
        self.frontier.get(n)
    }

    /// A node's children in the dominator tree, in reverse postorder.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        self.children.get(n)
    }

    /// True if `a` dominates `b` (both must be reachable).
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        let mut n = b;
        loop {
            if n == a {
                return true;
            }
            let up = self.idom(n);
            if up == n {
                return n == a;
            }
            n = up;
        }
    }
}

fn intersect(idom: &[u32], rpo_index: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while rpo_index[a as usize] > rpo_index[b as usize] {
            a = idom[a as usize];
        }
        while rpo_index[b as usize] > rpo_index[a as usize] {
            b = idom[b as usize];
        }
    }
    a
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

    #[test]
    fn entry_dominates_everything() {
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
        let d = Dominators::compute(&g);
        for n in g.reverse_postorder() {
            assert!(d.dominates(g.entry, n));
        }
    }

    #[test]
    fn join_points_have_frontiers() {
        let g = graph(
            r#"
            f(bits32 n) {
                bits32 s;
                if n == 0 { s = 1; } else { s = 2; }
                return (s);
            }
            "#,
        );
        let d = Dominators::compute(&g);
        // The branch node's frontier is empty (it dominates the join);
        // the two assignment arms have the join in their frontier.
        let branch = g
            .ids()
            .find(|&i| matches!(g.node(i), cmm_cfg::Node::Branch { .. }))
            .unwrap();
        let assigns: Vec<NodeId> = g
            .ids()
            .filter(|&i| matches!(g.node(i), cmm_cfg::Node::Assign { .. }))
            .filter(|&i| d.is_reachable(i))
            .collect();
        assert!(d.frontier(branch).is_empty());
        let mut joins: Vec<NodeId> = assigns
            .iter()
            .flat_map(|&a| d.frontier(a).to_vec())
            .collect();
        assert_eq!(joins.len(), 2, "each arm has the join in its frontier");
        assert_eq!(joins[0], joins[1], "both arms meet at the same join");
        joins.dedup();
        assert_eq!(joins.len(), 1);
    }

    #[test]
    fn idom_chain_reaches_entry() {
        let g = graph("f() { if 1 { return (1); } else { return (2); } }");
        let d = Dominators::compute(&g);
        for n in g.reverse_postorder() {
            let mut cur = n;
            let mut hops = 0;
            while cur != g.entry {
                cur = d.idom(cur);
                hops += 1;
                assert!(hops < 1000, "idom chain must terminate");
            }
        }
    }
}
