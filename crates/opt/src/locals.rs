//! The locals index and bit rows over it.
//!
//! Every analysis in this crate works on one dense numbering of a
//! graph's tracked names: the declared variables (formals, locals,
//! temporaries) and the continuation names bound at `Entry`, sorted by
//! name, each identified by its position. Global registers and
//! top-level symbols are not tracked: globals may be redefined by any
//! call, so propagating them would be unsound.
//!
//! A set of locals is a bit row of `u64` words, bit `i` standing for
//! the `i`-th name. Because the index is sorted, walking a row's bits
//! in order visits the names in name order, so every consumer that
//! reads a row sees the order a `BTreeSet<Name>` would give.
//!
//! [`Refs`] resolves every variable a node uses or defines to its
//! position once, so that liveness, SSA and the passes read positions
//! instead of searching the index for each name.

use crate::dataflow::{each_var_def, each_var_use};
use cmm_cfg::{Graph, NodeId};
use cmm_ir::Name;

/// The sorted tracked names of one graph.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Locals {
    names: Vec<Name>,
}

impl Locals {
    /// The locals index of a graph.
    pub fn of(g: &Graph) -> Locals {
        let conts = g.continuations();
        let mut names = Vec::with_capacity(g.vars.len() + conts.len());
        names.extend(g.vars.iter().map(|(n, _)| n.clone()));
        names.extend(conts.iter().map(|(n, _)| n.clone()));
        names.sort_unstable();
        names.dedup();
        Locals { names }
    }

    /// Number of tracked names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the graph tracks no name.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The position of a tracked name, or `None` for globals and
    /// symbols.
    pub fn index(&self, v: &Name) -> Option<usize> {
        self.names.binary_search(v).ok()
    }

    /// True if `v` is tracked.
    pub(crate) fn contains(&self, v: &Name) -> bool {
        self.index(v).is_some()
    }

    /// The name at a position.
    pub(crate) fn name(&self, i: usize) -> &Name {
        &self.names[i]
    }

    /// The position of `v` as a row entry: [`UNTRACKED`] for globals
    /// and symbols.
    fn entry(&self, v: &Name) -> u32 {
        self.index(v).map_or(UNTRACKED, |i| i as u32)
    }

    /// Words in one bit row over this index.
    pub fn words(&self) -> usize {
        self.names.len().div_ceil(64)
    }

    /// Views a bit row of [`Locals::words`] words as a set of names.
    pub fn set<'a>(&'a self, bits: &'a [u64]) -> VarSet<'a> {
        VarSet { locals: self, bits }
    }
}

/// The [`Refs`] entry of a name the locals index does not track.
pub const UNTRACKED: u32 = u32::MAX;

/// A node's slice of a flat row array.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The span from `start` to the current end of `rows`.
    pub(crate) fn of<T>(rows: &[T], start: usize) -> Span {
        Span {
            start: start as u32,
            end: rows.len() as u32,
        }
    }

    /// An empty span starting at `start`.
    pub(crate) fn empty_at(start: usize) -> Span {
        Span {
            start: start as u32,
            end: start as u32,
        }
    }

    pub(crate) fn get<T>(self, rows: &[T]) -> &[T] {
        &rows[self.start as usize..self.end as usize]
    }

    /// Puts `item` just past the span's end in `rows`, which has room
    /// for it there, and takes it in.
    pub(crate) fn push<T>(&mut self, rows: &mut [T], item: T) {
        rows[self.end as usize] = item;
        self.end += 1;
    }
}

/// Every node's variable uses and definitions as positions in the
/// locals index: entry `i` of a node's use row is the `i`-th
/// `Slot::Var` use of Table 3 (`each_var_use`), and likewise for
/// definitions, with [`UNTRACKED`] for names the index does not track.
/// Each row is a slice of one flat array per kind.
#[derive(Clone, Debug, Default)]
pub struct Refs {
    uses: Vec<u32>,
    use_at: Vec<Span>,
    defs: Vec<u32>,
    def_at: Vec<Span>,
}

impl Refs {
    /// Resolves every node of a graph through its locals index.
    pub fn of(g: &Graph, locals: &Locals) -> Refs {
        let n = g.nodes.len();
        let mut refs = Refs {
            uses: Vec::with_capacity(2 * n),
            use_at: vec![Span::default(); n],
            defs: Vec::with_capacity(n + locals.len()),
            def_at: vec![Span::default(); n],
        };
        for id in g.ids() {
            refs.resolve_uses(g, locals, id);
            let start = refs.defs.len();
            each_var_def(g, id, |v| refs.defs.push(locals.entry(v)));
            refs.def_at[id.index()] = Span::of(&refs.defs, start);
        }
        refs
    }

    /// The variables node `n` uses, in Table 3 order.
    pub fn uses(&self, n: NodeId) -> &[u32] {
        self.use_at[n.index()].get(&self.uses)
    }

    /// The variables node `n` defines, in Table 3 order.
    pub fn defs(&self, n: NodeId) -> &[u32] {
        self.def_at[n.index()].get(&self.defs)
    }

    /// Resolves the uses of node `n`, as a new row at the end of the
    /// array. A pass that rewrites a node's expressions resolves its
    /// uses again; no rewrite changes what a node defines.
    pub(crate) fn resolve_uses(&mut self, g: &Graph, locals: &Locals, n: NodeId) {
        let start = self.uses.len();
        each_var_use(g, n, |v| self.uses.push(locals.entry(v)));
        self.use_at[n.index()] = Span::of(&self.uses, start);
    }
}

/// Sets bit `i` of a row.
pub(crate) fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// Tests bit `i` of a row.
pub(crate) fn has_bit(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1 << (i % 64)) != 0
}

/// The set bits of a row, in increasing order.
pub(crate) fn bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

/// A bit row read through its locals index.
#[derive(Clone, Copy, Debug)]
pub struct VarSet<'a> {
    locals: &'a Locals,
    bits: &'a [u64],
}

impl<'a> VarSet<'a> {
    /// True if `v` is in the set (never for an untracked name).
    pub fn contains(&self, v: &Name) -> bool {
        self.locals.index(v).is_some_and(|i| self.has(i))
    }

    /// True if the name at position `i` is in the set.
    pub fn has(&self, i: usize) -> bool {
        has_bit(self.bits, i)
    }

    /// The names in the set, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Name> + 'a {
        let locals = self.locals;
        bits(self.bits).map(move |i| locals.name(i))
    }

    /// Adds every member to `row`.
    pub fn or_into(&self, row: &mut [u64]) {
        for (r, &w) in row.iter_mut().zip(self.bits) {
            *r |= w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_walk_in_order_across_words() {
        let mut row = vec![0u64; 3];
        for i in [130, 0, 63, 64, 1] {
            set_bit(&mut row, i);
        }
        assert_eq!(bits(&row).collect::<Vec<_>>(), vec![0, 1, 63, 64, 130]);
        assert!(has_bit(&row, 64) && !has_bit(&row, 65));
    }

    #[test]
    fn reresolved_rows_follow_the_rewrite() {
        let mut g = cmm_cfg::build_program(
            &cmm_parse::parse_module("f(bits32 a, bits32 b) { bits32 c; c = a + b; return (c); }")
                .unwrap(),
        )
        .unwrap()
        .proc("f")
        .unwrap()
        .clone();
        let locals = Locals::of(&g);
        let mut refs = Refs::of(&g, &locals);
        let assign = g
            .ids()
            .find(|&i| matches!(g.node(i), cmm_cfg::Node::Assign { .. }))
            .unwrap();
        assert_eq!(refs.uses(assign), &[0, 1]);
        assert_eq!(refs.defs(assign), &[2]);
        let cmm_cfg::Node::Assign { rhs, .. } = g.node_mut(assign) else {
            unreachable!()
        };
        *rhs = cmm_ir::Expr::var("b");
        refs.resolve_uses(&g, &locals, assign);
        assert_eq!(refs.uses(assign), &[1]);
        let cmm_cfg::Node::Assign { rhs, .. } = g.node_mut(assign) else {
            unreachable!()
        };
        *rhs = cmm_ir::Expr::add(cmm_ir::Expr::var("gr"), cmm_ir::Expr::var("c"));
        refs.resolve_uses(&g, &locals, assign);
        assert_eq!(refs.uses(assign), &[UNTRACKED, 2]);
        assert_eq!(refs.defs(assign), &[2]);
    }

    #[test]
    fn index_order_is_name_order() {
        let g = cmm_cfg::build_program(
            &cmm_parse::parse_module(
                "f(bits32 v2) { bits32 v10, v1; v1 = v2; v10 = v1; return (v10); }",
            )
            .unwrap(),
        )
        .unwrap()
        .proc("f")
        .unwrap()
        .clone();
        let locals = Locals::of(&g);
        let names: Vec<&str> = (0..locals.len()).map(|i| locals.name(i).as_str()).collect();
        assert_eq!(names, vec!["v1", "v10", "v2"]);
        assert_eq!(locals.index(&Name::from("v2")), Some(2));
        assert_eq!(locals.index(&Name::from("f")), None);
    }
}
