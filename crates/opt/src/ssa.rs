//! Static single-assignment numbering (the paper's Figure 6).
//!
//! "The dataflow information is expressed as a static single-assignment
//! (SSA) numbering of the variables" (§6). The numbering here is an
//! *overlay*: the graph itself is untouched, and the overlay records, for
//! every variable use at every node, which definition reaches it, with
//! φ-definitions at join points. (The paper notes that the continuation
//! prologues chosen by the dispatcher "roughly correspond to φ-nodes in
//! SSA form", §4.2 footnote.)

use crate::dataflow::{each_var_def, each_var_use};
use crate::dom::Dominators;
use crate::locals::Locals;
use cmm_cfg::{Graph, NodeId};
use cmm_ir::Name;
use std::sync::Arc;

/// Index of a definition in [`Ssa::sites`].
pub type DefId = usize;

/// Where a definition comes from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DefSite {
    /// An ordinary definition performed by a node (`Assign`, `CopyIn`,
    /// or the implicit all-variables definition at `Entry`).
    Node {
        /// The defining node.
        node: NodeId,
        /// The variable defined.
        var: Name,
    },
    /// A φ-definition at a join point.
    Phi {
        /// The join node.
        node: NodeId,
        /// The variable merged.
        var: Name,
    },
}

impl DefSite {
    /// The variable this definition defines.
    pub fn var(&self) -> &Name {
        match self {
            DefSite::Node { var, .. } | DefSite::Phi { var, .. } => var,
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
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Phi {
    /// The variable merged.
    pub var: Name,
    /// Its position in the locals index.
    local: usize,
    /// The definition this φ creates.
    pub def: DefId,
    /// One argument per predecessor edge: which definition flows in.
    pub args: Vec<(NodeId, DefId)>,
}

/// A node's slice of a flat row array.
#[derive(Clone, Copy, Default, Debug)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn of<T>(rows: &[T], start: usize) -> Span {
        Span {
            start: start as u32,
            end: rows.len() as u32,
        }
    }

    fn get<T>(self, rows: &[T]) -> &[T] {
        &rows[self.start as usize..self.end as usize]
    }
}

/// The SSA overlay for one graph. Variables are named by their
/// position in the graph's locals index (`Ssa::locals`); uses of
/// names that are not tracked (globals, procedure and data names) are
/// absent.
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
    phis: Vec<Phi>,
    /// Node `i`'s φs are `phis[phi_at[i]..phi_at[i + 1]]`.
    phi_at: Vec<u32>,
    /// `(var, reaching def)` for each tracked use, per node in use
    /// order.
    uses: Vec<(usize, DefId)>,
    use_at: Vec<Span>,
    /// `(var, def)` for each tracked definition made at a node (not
    /// φs), per node in definition order.
    defs: Vec<(usize, DefId)>,
    def_at: Vec<Span>,
}

impl Ssa {
    /// Builds the SSA overlay for a graph.
    pub fn build(g: &Graph) -> Ssa {
        Ssa::over(g, &Arc::new(Locals::of(g)), &g.reverse_postorder())
    }

    /// Builds the SSA overlay over the graph's locals index and the
    /// reverse postorder of its reachable nodes.
    pub(crate) fn over(g: &Graph, locals: &Arc<Locals>, rpo: &[NodeId]) -> Ssa {
        let doms = Dominators::over(g, rpo);
        let (n, nv) = (g.nodes.len(), locals.len());

        // Definition sites per variable.
        let mut def_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); nv];
        for &x in rpo {
            each_var_def(g, x, |v| {
                if let Some(v) = locals.index(v) {
                    def_nodes[v].push(x);
                }
            });
        }

        // φ placement by iterated dominance frontier, one variable at a
        // time in index order, so each join's variables come out in name
        // order. `placed` and `site` hold the variable a node was last
        // marked for.
        let mut placed = vec![usize::MAX; n];
        let mut site = vec![usize::MAX; n];
        let mut phi_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut work: Vec<NodeId> = Vec::new();
        for (v, sites) in def_nodes.iter().enumerate() {
            for x in sites {
                site[x.index()] = v;
            }
            work.extend_from_slice(sites);
            while let Some(x) = work.pop() {
                for &y in doms.frontier(x) {
                    if placed[y.index()] != v {
                        placed[y.index()] = v;
                        phi_vars[y.index()].push(v);
                        if site[y.index()] != v {
                            work.push(y);
                        }
                    }
                }
            }
        }

        let mut ssa = Ssa {
            use_at: vec![Span::default(); n],
            def_at: vec![Span::default(); n],
            ..Ssa::default()
        };
        // Create φ defs up front, in node order (renaming fills their
        // arguments).
        for (x, vars) in phi_vars.iter().enumerate() {
            ssa.phi_at.push(ssa.phis.len() as u32);
            for &v in vars {
                let def = ssa.sites.len();
                let var = locals.name(v).clone();
                ssa.sites.push(DefSite::Phi {
                    node: NodeId(x as u32),
                    var: var.clone(),
                });
                ssa.versions.push(0); // assigned during renaming
                ssa.phis.push(Phi {
                    var,
                    local: v,
                    def,
                    args: Vec::new(),
                });
            }
        }
        ssa.phi_at.push(ssa.phis.len() as u32);

        // Renaming: iterative DFS over the dominator tree. `cur` is the
        // top of each variable's definition stack; `undo` logs what each
        // push replaced, so leaving a node restores its parent's view.
        const UNDEF: DefId = DefId::MAX;
        let mut count = vec![0u32; nv];
        let mut cur = vec![UNDEF; nv];
        let mut undo: Vec<(usize, DefId)> = Vec::new();
        enum Action {
            Enter(NodeId),
            Leave(usize), // undo-log length at entry
        }
        let mut work = vec![Action::Enter(g.entry)];
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
            for phi in &ssa.phis[ssa.phi_range(b)] {
                count[phi.local] += 1;
                ssa.versions[phi.def] = count[phi.local];
                undo.push((phi.local, cur[phi.local]));
                cur[phi.local] = phi.def;
            }
            // Uses see the state before the node's own defs.
            let start = ssa.uses.len();
            each_var_use(g, b, |v| {
                if let Some(v) = locals.index(v) {
                    if cur[v] != UNDEF {
                        ssa.uses.push((v, cur[v]));
                    }
                }
            });
            ssa.use_at[b.index()] = Span::of(&ssa.uses, start);
            // Ordinary defs.
            let start = ssa.defs.len();
            each_var_def(g, b, |name| {
                if let Some(v) = locals.index(name) {
                    let def = ssa.sites.len();
                    ssa.sites.push(DefSite::Node {
                        node: b,
                        var: name.clone(),
                    });
                    count[v] += 1;
                    ssa.versions.push(count[v]);
                    ssa.defs.push((v, def));
                    undo.push((v, cur[v]));
                    cur[v] = def;
                }
            });
            ssa.def_at[b.index()] = Span::of(&ssa.defs, start);
            // Fill φ arguments of CFG successors.
            for s in g.node(b).succ_iter() {
                if !doms.is_reachable(s) {
                    continue;
                }
                let range = ssa.phi_range(s);
                for phi in &mut ssa.phis[range] {
                    if cur[phi.local] != UNDEF {
                        phi.args.push((b, cur[phi.local]));
                    }
                }
            }
            work.push(Action::Leave(mark));
            work.extend(doms.children(b).iter().map(|&c| Action::Enter(c)));
        }
        ssa.locals = Arc::clone(locals);
        ssa
    }

    /// Every φ-function, grouped by node.
    pub fn phis(&self) -> &[Phi] {
        &self.phis
    }

    /// The φ-functions at a node, in name order.
    pub fn phis_at(&self, n: NodeId) -> &[Phi] {
        &self.phis[self.phi_range(n)]
    }

    fn phi_range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.phi_at[n.index()] as usize..self.phi_at[n.index() + 1] as usize
    }

    /// `(var, reaching def)` for each tracked use at a node, in use
    /// order (a variable used twice appears twice).
    pub(crate) fn uses_at(&self, n: NodeId) -> &[(usize, DefId)] {
        self.use_at[n.index()].get(&self.uses)
    }

    /// `(var, def)` for each tracked definition a node makes, in
    /// definition order.
    pub(crate) fn defs_at(&self, n: NodeId) -> &[(usize, DefId)] {
        self.def_at[n.index()].get(&self.defs)
    }

    /// The reaching definition for a use of `v` at node `n`, if tracked.
    pub fn reaching(&self, n: NodeId, v: &Name) -> Option<DefId> {
        let v = self.locals.index(v)?;
        self.uses_at(n)
            .iter()
            .find(|&&(u, _)| u == v)
            .map(|&(_, d)| d)
    }

    /// The definition created *at* node `n` for the variable at
    /// position `v` (excluding φs): the last, if the node defines it
    /// more than once.
    fn node_def(&self, n: NodeId, v: usize) -> Option<DefId> {
        self.defs_at(n)
            .iter()
            .rev()
            .find(|&&(u, _)| u == v)
            .map(|&(_, d)| d)
    }

    /// `var.version` display form of a definition.
    pub fn def_name(&self, d: DefId) -> String {
        format!("{}.{}", self.sites[d].var(), self.versions[d])
    }

    /// Checks the central SSA invariant: every use's reaching definition
    /// is at a node that dominates the use (φ arguments are checked
    /// against the corresponding predecessor). Returns offending pairs.
    pub fn verify(&self, g: &Graph) -> Vec<(NodeId, Name)> {
        let doms = Dominators::compute(g);
        let mut bad = Vec::new();
        for node in g.ids().filter(|&n| doms.is_reachable(n)) {
            for &(v, def) in self.uses_at(node) {
                if !doms.dominates(self.sites[def].node(), node) {
                    bad.push((node, self.locals.name(v).clone()));
                }
            }
        }
        for phi in &self.phis {
            for &(pred, def) in &phi.args {
                if !doms.dominates(self.sites[def].node(), pred) {
                    bad.push((pred, phi.var.clone()));
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
            let args: Vec<String> = phi
                .args
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
            .map(|&(_, d)| ssa.def_name(d))
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
            .filter(|(_, s)| s.var() == &Name::from("b") && matches!(s, DefSite::Node { .. }))
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
        let phi_count: usize = ssa.phis().iter().filter(|p| p.var == "s").count();
        assert_eq!(phi_count, 1, "{}", ssa_to_string(&g, &ssa));
        let phi = ssa.phis().iter().find(|p| p.var == "s").unwrap();
        assert_eq!(phi.args.len(), 2);
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
        let phi_vars: BTreeSet<&Name> = ssa.phis().iter().map(|p| &p.var).collect();
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
            .filter(|(_, s)| s.var() == &Name::from("b"))
            .map(|(i, _)| ssa.versions[i])
            .collect();
        versions.sort_unstable();
        assert_eq!(versions, vec![1, 2, 3]);
    }
}
