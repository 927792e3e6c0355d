//! Static single-assignment numbering (the paper's Figure 6).
//!
//! "The dataflow information is expressed as a static single-assignment
//! (SSA) numbering of the variables" (§6). The numbering here is an
//! *overlay*: the graph itself is untouched, and the overlay records, for
//! every variable use at every node, which definition reaches it, with
//! φ-definitions at join points. (The paper notes that the continuation
//! prologues chosen by the dispatcher "roughly correspond to φ-nodes in
//! SSA form", §4.2 footnote.)

use crate::analyses::Analyses;
use crate::dom::{Dominators, Lists};
use crate::locals::{Locals, Refs, Span, UNTRACKED};
use cmm_cfg::{Graph, NodeId};
use cmm_ir::Name;
use std::sync::Arc;

/// Index of a definition in [`Ssa::sites`].
pub type DefId = usize;

/// The reaching definition of a use that has none: an untracked name.
const NO_DEF: DefId = DefId::MAX;

/// Where a definition comes from. Variables are named by their position
/// in the graph's locals index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DefSite {
    /// An ordinary definition performed by a node (`Assign`, `CopyIn`,
    /// or the implicit all-variables definition at `Entry`).
    Node {
        /// The defining node.
        node: NodeId,
        /// The variable defined.
        local: usize,
    },
    /// A φ-definition at a join point.
    Phi {
        /// The join node.
        node: NodeId,
        /// The variable merged.
        local: usize,
    },
}

impl DefSite {
    /// The variable this definition defines.
    pub fn local(&self) -> usize {
        match self {
            DefSite::Node { local, .. } | DefSite::Phi { local, .. } => *local,
        }
    }

    /// The node the definition is attached to.
    pub fn node(&self) -> NodeId {
        match self {
            DefSite::Node { node, .. } | DefSite::Phi { node, .. } => *node,
        }
    }
}

/// A φ-function: `var.k = φ(pred₁: var.i, pred₂: var.j, ...)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Phi {
    /// The variable merged: its position in the locals index.
    pub local: usize,
    /// The definition this φ creates.
    pub def: DefId,
    /// Its arguments in [`Ssa::args`]' array.
    args: Span,
}

/// The SSA overlay for one graph. Variables are named by their
/// position in the graph's locals index ([`Ssa::var`] gives a
/// definition's name). Every table is a flat array sized before
/// renaming starts: per-node rows are spans of one array, and so are
/// each φ's arguments.
#[derive(Clone, Debug, Default)]
pub struct Ssa {
    locals: Arc<Locals>,
    /// All definition sites, in renaming order (φs first).
    pub sites: Vec<DefSite>,
    /// SSA version number of each definition (per variable, counted from
    /// 1 in renaming order).
    pub versions: Vec<u32>,
    /// Every φ-function, grouped by join node in node order, each
    /// node's in name order.
    phis: Lists<Phi>,
    /// `(pred, def)` arguments of every φ: room for one per reachable
    /// predecessor edge of its join.
    args: Vec<(NodeId, DefId)>,
    /// `(var, reaching def)` for each use at a node, one per entry of
    /// its [`Refs`] use row (`NO_DEF` for untracked names).
    uses: Vec<(u32, DefId)>,
    use_at: Vec<Span>,
    /// `(var, def)` for each tracked definition made at a node (not
    /// φs), per node in definition order.
    defs: Vec<(u32, DefId)>,
    def_at: Vec<Span>,
}

impl Ssa {
    /// Builds the SSA overlay for a graph.
    pub fn build(g: &Graph) -> Ssa {
        Analyses::new(g).ssa(g)
    }

    /// Builds the SSA overlay over the graph's locals index, its
    /// resolved uses and definitions, the reverse postorder of its
    /// reachable nodes and their dominators.
    pub(crate) fn over(
        g: &Graph,
        locals: &Arc<Locals>,
        refs: &Refs,
        rpo: &[NodeId],
        doms: &Dominators,
    ) -> Ssa {
        let (n, nv) = (g.nodes.len(), locals.len());

        // Definition sites per variable, in reverse postorder: variable
        // `v`'s are `def_nodes[def_at[v]..def_at[v + 1]]`. Count, sum
        // so that `def_at[v]` ends `v`'s run, then place backwards.
        let (mut uses_n, mut defs_n) = (0, 0);
        let mut def_at = vec![0u32; nv + 1];
        for &x in rpo {
            uses_n += refs.uses(x).len();
            for &v in refs.defs(x).iter().filter(|&&v| v != UNTRACKED) {
                def_at[v as usize] += 1;
                defs_n += 1;
            }
        }
        for v in 1..=nv {
            def_at[v] += def_at[v - 1];
        }
        let mut def_nodes = vec![NodeId(0); defs_n];
        for &x in rpo.iter().rev() {
            for &v in refs.defs(x).iter().rev().filter(|&&v| v != UNTRACKED) {
                def_at[v as usize] -= 1;
                def_nodes[def_at[v as usize] as usize] = x;
            }
        }

        // φ placement by iterated dominance frontier, one variable at a
        // time in index order, so that grouping the `(join, var)` pairs
        // by join keeps each join's variables in name order. `placed`
        // and `site` hold the variable a node was last marked for.
        let mut placed = vec![u32::MAX; n];
        let mut site = vec![u32::MAX; n];
        let mut pairs: Vec<(NodeId, (NodeId, u32))> = Vec::with_capacity(n);
        let mut work: Vec<NodeId> = Vec::with_capacity(n);
        for v in 0..nv as u32 {
            let sites = &def_nodes[def_at[v as usize] as usize..def_at[v as usize + 1] as usize];
            for x in sites {
                site[x.index()] = v;
            }
            work.extend_from_slice(sites);
            while let Some(x) = work.pop() {
                for &y in doms.frontier(x) {
                    if placed[y.index()] != v {
                        placed[y.index()] = v;
                        pairs.push((y, (y, v)));
                        if site[y.index()] != v {
                            work.push(y);
                        }
                    }
                }
            }
        }
        // φ defs come first, in node order, so a φ's definition is its
        // position; each has room for one argument per reachable
        // predecessor edge of its join. Renaming numbers them and fills
        // their arguments.
        let mut args_n = 0;
        let phis = Lists::group(n, &pairs).map(|(join, v)| {
            let args = Span::empty_at(args_n);
            args_n += doms.preds(join).len();
            (join, v as usize, args)
        });
        let sites_n = phis.items.len() + defs_n;
        let mut ssa = Ssa {
            locals: Arc::clone(locals),
            sites: Vec::with_capacity(sites_n),
            versions: Vec::with_capacity(sites_n),
            phis: Lists::default(),
            args: vec![(NodeId(0), NO_DEF); args_n],
            uses: Vec::with_capacity(uses_n),
            use_at: vec![Span::default(); n],
            defs: Vec::with_capacity(defs_n),
            def_at: vec![Span::default(); n],
        };
        ssa.phis = phis.map(|(node, local, args)| {
            ssa.sites.push(DefSite::Phi { node, local });
            ssa.versions.push(0); // assigned during renaming
            Phi {
                local,
                def: ssa.sites.len() - 1,
                args,
            }
        });

        // Renaming: iterative DFS over the dominator tree. `cur` is the
        // top of each variable's definition stack; `undo` logs what each
        // push replaced, so leaving a node restores its parent's view.
        let mut count = vec![0u32; nv];
        let mut cur = vec![NO_DEF; nv];
        let mut undo: Vec<(usize, DefId)> = Vec::with_capacity(sites_n);
        enum Action {
            Enter(NodeId),
            Leave(usize), // undo-log length at entry
        }
        let mut work = Vec::with_capacity(2 * rpo.len() + 1);
        work.push(Action::Enter(g.entry));
        while let Some(action) = work.pop() {
            let b = match action {
                Action::Enter(b) => b,
                Action::Leave(mark) => {
                    for (v, prev) in undo.drain(mark..).rev() {
                        cur[v] = prev;
                    }
                    continue;
                }
            };
            let mark = undo.len();
            // φ defs first.
            for phi in ssa.phis.get(b) {
                count[phi.local] += 1;
                ssa.versions[phi.def] = count[phi.local];
                undo.push((phi.local, cur[phi.local]));
                cur[phi.local] = phi.def;
            }
            // Uses see the state before the node's own defs.
            let start = ssa.uses.len();
            for &v in refs.uses(b) {
                let def = if v == UNTRACKED {
                    NO_DEF
                } else {
                    cur[v as usize]
                };
                ssa.uses.push((v, def));
            }
            ssa.use_at[b.index()] = Span::of(&ssa.uses, start);
            // Ordinary defs.
            let start = ssa.defs.len();
            for &v in refs.defs(b).iter().filter(|&&v| v != UNTRACKED) {
                let def = ssa.sites.len();
                ssa.sites.push(DefSite::Node {
                    node: b,
                    local: v as usize,
                });
                count[v as usize] += 1;
                ssa.versions.push(count[v as usize]);
                ssa.defs.push((v, def));
                undo.push((v as usize, cur[v as usize]));
                cur[v as usize] = def;
            }
            ssa.def_at[b.index()] = Span::of(&ssa.defs, start);
            // Fill φ arguments of CFG successors.
            for s in g.node(b).succ_iter() {
                let range = ssa.phis.range(s);
                for phi in &mut ssa.phis.items[range] {
                    if cur[phi.local] != NO_DEF {
                        phi.args.push(&mut ssa.args, (b, cur[phi.local]));
                    }
                }
            }
            work.push(Action::Leave(mark));
            work.extend(doms.children(b).iter().map(|&c| Action::Enter(c)));
        }
        ssa
    }

    /// Every φ-function, grouped by node.
    pub fn phis(&self) -> &[Phi] {
        &self.phis.items
    }

    /// The φ-functions at a node, in name order.
    pub fn phis_at(&self, n: NodeId) -> &[Phi] {
        self.phis.get(n)
    }

    /// One argument per reachable predecessor edge of a φ's join: which
    /// definition flows in along it.
    pub fn args(&self, phi: &Phi) -> &[(NodeId, DefId)] {
        phi.args.get(&self.args)
    }

    /// `(var, reaching def)` for each use at a node, in use order (a
    /// variable used twice appears twice), one per entry of the node's
    /// [`Refs`] use row: an untracked name has var [`UNTRACKED`] and no
    /// reaching definition.
    pub(crate) fn uses_at(&self, n: NodeId) -> &[(u32, DefId)] {
        self.use_at[n.index()].get(&self.uses)
    }

    /// The reaching definition of a use row entry, if it has one.
    pub(crate) fn reaching(def: DefId) -> Option<DefId> {
        (def != NO_DEF).then_some(def)
    }

    /// `(var, def)` for each tracked definition a node makes, in
    /// definition order.
    pub(crate) fn defs_at(&self, n: NodeId) -> &[(u32, DefId)] {
        self.def_at[n.index()].get(&self.defs)
    }

    /// The definition created *at* node `n` for the variable at
    /// position `v` (excluding φs): the last, if the node defines it
    /// more than once.
    fn node_def(&self, n: NodeId, v: u32) -> Option<DefId> {
        self.defs_at(n)
            .iter()
            .rev()
            .find(|&&(u, _)| u == v)
            .map(|&(_, d)| d)
    }

    /// The variable a definition defines.
    pub fn var(&self, d: DefId) -> &Name {
        self.locals.name(self.sites[d].local())
    }

    /// `var.version` display form of a definition.
    pub fn def_name(&self, d: DefId) -> String {
        format!("{}.{}", self.var(d), self.versions[d])
    }

    /// Checks the central SSA invariant: every use's reaching definition
    /// is at a node that dominates the use (φ arguments are checked
    /// against the corresponding predecessor). Returns offending pairs.
    pub fn verify(&self, g: &Graph) -> Vec<(NodeId, Name)> {
        let doms = Dominators::compute(g);
        let mut bad = Vec::new();
        for node in g.ids().filter(|&n| doms.is_reachable(n)) {
            for &(_, def) in self.uses_at(node) {
                if def != NO_DEF && !doms.dominates(self.sites[def].node(), node) {
                    bad.push((node, self.var(def).clone()));
                }
            }
        }
        for phi in self.phis() {
            for &(pred, def) in self.args(phi) {
                if !doms.dominates(self.sites[def].node(), pred) {
                    bad.push((pred, self.var(phi.def).clone()));
                }
            }
        }
        bad
    }
}

/// Renders the graph with SSA numbering, in the style of Figure 6.
pub fn ssa_to_string(g: &Graph, ssa: &Ssa) -> String {
    use std::fmt::Write as _;
    let mut out = format!("SSA for {}:\n", g.name);
    for id in g.reverse_postorder() {
        for phi in ssa.phis_at(id) {
            let args: Vec<String> = ssa
                .args(phi)
                .iter()
                .map(|&(p, d)| format!("{p}: {}", ssa.def_name(d)))
                .collect();
            let _ = writeln!(
                out,
                "  {id}: {} = phi({})",
                ssa.def_name(phi.def),
                args.join(", ")
            );
        }
        let mut line = format!("  {}", cmm_cfg::display::node_to_string(g, id));
        // Annotate uses and defs.
        let uses: Vec<String> = ssa
            .uses_at(id)
            .iter()
            .filter_map(|&(_, d)| Ssa::reaching(d).map(|d| ssa.def_name(d)))
            .collect();
        let defs: Vec<String> = ssa
            .defs_at(id)
            .iter()
            .filter_map(|&(v, _)| ssa.node_def(id, v).map(|d| ssa.def_name(d)))
            .collect();
        if !uses.is_empty() {
            line.push_str(&format!("  uses[{}]", uses.join(", ")));
        }
        if !defs.is_empty() {
            line.push_str(&format!("  defs[{}]", defs.join(", ")));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;
    use std::collections::BTreeSet;

    fn graph(src: &str) -> Graph {
        build_program(&parse_module(src).unwrap())
            .unwrap()
            .proc("f")
            .unwrap()
            .clone()
    }

    #[test]
    fn straight_line_has_no_phis() {
        let g = graph("f(bits32 a) { bits32 b; b = a + 1; b = b * 2; return (b); }");
        let ssa = Ssa::build(&g);
        assert!(ssa.phis().is_empty());
        assert!(ssa.verify(&g).is_empty());
        // b has two ordinary definitions with distinct versions.
        let b_defs: Vec<_> = ssa
            .sites
            .iter()
            .enumerate()
            .filter(|(i, s)| ssa.var(*i) == "b" && matches!(s, DefSite::Node { .. }))
            .collect();
        // Entry also defines b once; plus the two assignments.
        assert_eq!(b_defs.len(), 3);
    }

    #[test]
    fn diamond_gets_a_phi() {
        let g = graph(
            r#"
            f(bits32 n) {
                bits32 s;
                if n == 0 { s = 1; } else { s = 2; }
                return (s);
            }
            "#,
        );
        let ssa = Ssa::build(&g);
        let phi_count: usize = ssa.phis().iter().filter(|p| ssa.var(p.def) == "s").count();
        assert_eq!(phi_count, 1, "{}", ssa_to_string(&g, &ssa));
        let phi = ssa.phis().iter().find(|p| ssa.var(p.def) == "s").unwrap();
        assert_eq!(ssa.args(phi).len(), 2);
        assert!(ssa.verify(&g).is_empty());
    }

    #[test]
    fn loop_gets_phis_for_carried_vars() {
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
        let ssa = Ssa::build(&g);
        let phi_vars: BTreeSet<&Name> = ssa.phis().iter().map(|p| ssa.var(p.def)).collect();
        assert!(phi_vars.contains(&Name::from("s")));
        assert!(phi_vars.contains(&Name::from("n")));
        assert!(ssa.verify(&g).is_empty());
    }

    /// Exception edges participate in SSA: the continuation is a join of
    /// the normal path (fallthrough) and the exceptional edge from the
    /// call, exactly as in Figure 6 of the paper.
    #[test]
    fn exception_edges_create_joins() {
        let g = graph(
            r#"
            f(bits32 a) {
                bits32 b, c, d;
                b = a;
                c = a;
                b, c = g() also unwinds to k;
                c = b + c + a;
                return (c);
                continuation k(d):
                return (b + d);
            }
            g() { return (1, 2); }
            "#,
        );
        let ssa = Ssa::build(&g);
        assert!(ssa.verify(&g).is_empty(), "{}", ssa_to_string(&g, &ssa));
        // The use of b in the continuation must see a definition that
        // dominates the call (the SSA check above enforces it); print
        // form must contain a phi or direct version for b.
        let s = ssa_to_string(&g, &ssa);
        assert!(s.contains("phi") || s.contains("b."), "{s}");
    }

    #[test]
    fn versions_count_from_one() {
        let g = graph("f(bits32 a) { bits32 b; b = 1; b = 2; return (b); }");
        let ssa = Ssa::build(&g);
        let mut versions: Vec<u32> = ssa
            .sites
            .iter()
            .enumerate()
            .filter(|(i, _)| ssa.var(*i) == "b")
            .map(|(i, _)| ssa.versions[i])
            .collect();
        versions.sort_unstable();
        assert_eq!(versions, vec![1, 2, 3]);
    }
}
