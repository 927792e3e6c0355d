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

use cmm_cfg::Graph;
use cmm_ir::Name;

/// The sorted tracked names of one graph.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Locals {
    names: Vec<Name>,
}

impl Locals {
    /// The locals index of a graph.
    pub(crate) fn of(g: &Graph) -> Locals {
        let mut names: Vec<Name> = g.vars.iter().map(|(n, _)| n.clone()).collect();
        names.extend(g.continuations().iter().map(|(n, _)| n.clone()));
        names.sort_unstable();
        names.dedup();
        Locals { names }
    }

    /// Number of tracked names.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The position of a tracked name, or `None` for globals and
    /// symbols.
    pub(crate) fn index(&self, v: &Name) -> Option<usize> {
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

    /// Words in one bit row over this index.
    pub fn words(&self) -> usize {
        self.names.len().div_ceil(64)
    }

    /// Views a bit row of [`Locals::words`] words as a set of names.
    pub fn set<'a>(&'a self, bits: &'a [u64]) -> VarSet<'a> {
        VarSet { locals: self, bits }
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
        self.locals.index(v).is_some_and(|i| has_bit(self.bits, i))
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
