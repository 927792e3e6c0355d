//! Control-flow graphs and whole programs.

use crate::image::DataImage;
use crate::node::Node;
use cmm_ir::{GlobalReg, Name, ProcId, ProcNames, Ty};

/// An index into a graph's node arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The control-flow graph of one procedure.
#[derive(Clone, PartialEq, Debug)]
pub struct Graph {
    /// The procedure's name.
    pub name: Name,
    /// Node arena; [`NodeId`]s index into it.
    pub nodes: Vec<Node>,
    /// The entry node (a [`Node::Entry`], or [`Node::Yield`] for the
    /// run-time system's `yield` procedure).
    pub entry: NodeId,
    /// Number of formal parameters.
    pub arity: usize,
    /// Every variable of the procedure with its type: formals first, then
    /// locals, then compiler temporaries.
    pub vars: Vec<(Name, Ty)>,
}

impl Graph {
    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Appends a node, returning its id.
    pub fn add(&mut self, n: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(n);
        id
    }

    /// All node ids, in arena order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Predecessor lists for every node.
    pub fn preds(&self) -> Vec<Vec<NodeId>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for id in self.ids() {
            for s in self.node(id).succ_iter() {
                preds[s.index()].push(id);
            }
        }
        preds
    }

    /// Node ids reachable from the entry, in reverse postorder.
    pub fn reverse_postorder(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut post = Vec::with_capacity(self.nodes.len());
        // Iterative DFS to avoid recursion limits on long chains; each
        // frame holds its node's remaining successors.
        let mut stack = Vec::with_capacity(self.nodes.len());
        stack.push((self.entry, self.node(self.entry).succ_iter()));
        seen[self.entry.index()] = true;
        while let Some((id, succs)) = stack.last_mut() {
            if let Some(c) = succs.next() {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    stack.push((c, self.node(c).succ_iter()));
                }
            } else {
                post.push(*id);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// The type of a variable, if declared.
    pub fn var_ty(&self, n: &Name) -> Option<Ty> {
        self.vars.iter().find(|(v, _)| v == n).map(|&(_, ty)| ty)
    }

    /// Adds a compiler temporary with a fresh name based on `hint`.
    pub fn fresh_var(&mut self, hint: &str, ty: Ty) -> Name {
        let mut i = self.vars.len();
        loop {
            let name = Name::from(format!("${hint}{i}"));
            if self.var_ty(&name).is_none() {
                self.vars.push((name.clone(), ty));
                return name;
            }
            i += 1;
        }
    }

    /// The declared continuations of this procedure (from the entry
    /// node), in declaration order.
    pub fn continuations(&self) -> &[(Name, NodeId)] {
        match self.node(self.entry) {
            Node::Entry { conts, .. } => conts,
            _ => &[],
        }
    }

    /// Looks up a continuation's `CopyIn` node by name.
    pub fn continuation(&self, name: &str) -> Option<NodeId> {
        self.continuations()
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
    }
}

/// The procedures of a [`Program`], kept sorted by name. A procedure's
/// [`ProcId`] is its position here: both engine families are built
/// from one program, so they number its procedures alike, and the
/// numbering follows the names alone, not the order a module declared
/// them in or a map hashed them.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Procs(Vec<Graph>);

impl Procs {
    /// The id of the procedure named `name`.
    pub fn id<Q: AsRef<str> + ?Sized>(&self, name: &Q) -> Option<ProcId> {
        let name = name.as_ref();
        self.0
            .binary_search_by(|g| g.name.as_str().cmp(name))
            .ok()
            .map(|i| ProcId(i as u32))
    }

    /// The procedure named `name`.
    pub fn get<Q: AsRef<str> + ?Sized>(&self, name: &Q) -> Option<&Graph> {
        self.id(name).map(|id| &self[id])
    }

    /// Whether a procedure is named `name`.
    pub fn contains_key<Q: AsRef<str> + ?Sized>(&self, name: &Q) -> bool {
        self.id(name).is_some()
    }

    /// The procedure with id `id`, if the program has one.
    pub fn by_id(&self, id: ProcId) -> Option<&Graph> {
        self.0.get(id.index())
    }

    /// Adds `g` under its own name, returning the procedure it
    /// replaces. Adding a new name renumbers the procedures after it.
    pub fn insert(&mut self, g: Graph) -> Option<Graph> {
        match self.0.binary_search_by(|h| h.name.cmp(&g.name)) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i], g)),
            Err(i) => {
                self.0.insert(i, g);
                None
            }
        }
    }

    /// The number of procedures.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The names, in id order.
    pub fn keys(&self) -> impl Iterator<Item = &Name> {
        self.0.iter().map(|g| &g.name)
    }

    /// The procedures, in id order.
    pub fn values(&self) -> std::slice::Iter<'_, Graph> {
        self.0.iter()
    }

    /// The procedures, to rewrite in place. A rewrite keeps each
    /// procedure's name, which fixes its id.
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, Graph> {
        self.0.iter_mut()
    }

    /// `(name, procedure)` pairs, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Graph)> {
        self.0.iter().map(|g| (&g.name, g))
    }
}

impl std::ops::Index<ProcId> for Procs {
    type Output = Graph;

    fn index(&self, id: ProcId) -> &Graph {
        &self.0[id.index()]
    }
}

impl<'a> IntoIterator for &'a Procs {
    type Item = (&'a Name, &'a Graph);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, Graph>, fn(&Graph) -> (&Name, &Graph)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|g| (&g.name, g))
    }
}

/// A whole Abstract C-- program: the partial map *X* from names to
/// procedures (§5), plus linked static data.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// The procedures, including any synthesized checking procedures for
    /// fallible primitives and the `yield` procedure.
    pub procs: Procs,
    /// Global registers with their initial values.
    pub globals: Vec<GlobalReg>,
    /// The linked static-data image.
    pub image: DataImage,
}

impl Program {
    /// Looks up a procedure by name.
    pub fn proc(&self, name: &str) -> Option<&Graph> {
        self.procs.get(name)
    }

    /// The synthetic code address of a procedure (for storing code
    /// pointers in memory).
    pub fn proc_addr(&self, name: &str) -> Option<u64> {
        self.image.symbol(name)
    }

    /// The procedure whose synthetic code address is `addr`.
    pub fn proc_at(&self, addr: u64) -> Option<ProcId> {
        self.procs.id(self.image.code_symbol_at(addr)?)
    }
}

impl ProcNames for Program {
    fn proc_name(&self, id: ProcId) -> &str {
        self.procs.by_id(id).map_or("?", |g| g.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_ir::Expr;
    use std::collections::BTreeMap;

    fn linear_graph() -> Graph {
        // entry -> assign -> branch -> (exit | assign2 -> exit)
        let mut g = Graph {
            name: Name::from("t"),
            nodes: Vec::new(),
            entry: NodeId(0),
            arity: 0,
            vars: vec![(Name::from("x"), Ty::B32)],
        };
        let exit = NodeId(4);
        g.add(Node::Entry {
            conts: vec![],
            next: NodeId(1),
        }); // 0
        g.add(Node::Assign {
            lhs: cmm_ir::Lvalue::var("x"),
            rhs: Expr::b32(1),
            next: NodeId(2),
        }); // 1
        g.add(Node::Branch {
            cond: Expr::var("x"),
            t: exit,
            f: NodeId(3),
        }); // 2
        g.add(Node::Assign {
            lhs: cmm_ir::Lvalue::var("x"),
            rhs: Expr::b32(2),
            next: exit,
        }); // 3
        g.add(Node::Exit {
            index: 0,
            alternates: 0,
        }); // 4
        g
    }

    #[test]
    fn preds_are_inverse_of_succs() {
        let g = linear_graph();
        let preds = g.preds();
        assert_eq!(preds[4], vec![NodeId(2), NodeId(3)]);
        assert_eq!(preds[0], Vec::<NodeId>::new());
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let g = linear_graph();
        let rpo = g.reverse_postorder();
        assert_eq!(rpo[0], NodeId(0));
        assert_eq!(rpo.len(), 5);
        // Every node appears after all its dominating predecessors in
        // this acyclic graph.
        let pos: BTreeMap<_, _> = rpo.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        assert!(pos[&NodeId(1)] < pos[&NodeId(2)]);
        assert!(pos[&NodeId(2)] < pos[&NodeId(3)]);
    }

    #[test]
    fn fresh_var_avoids_collisions() {
        let mut g = linear_graph();
        let a = g.fresh_var("t", Ty::B32);
        let b = g.fresh_var("t", Ty::B32);
        assert_ne!(a, b);
        assert!(g.var_ty(&a).is_some());
    }
}
