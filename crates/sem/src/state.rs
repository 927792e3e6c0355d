//! Machine-state components: node references, environments, frames and
//! the continuation-encoding table.

use crate::value::Value;
use cmm_cfg::{Bundle, Graph, Node, NodeId};
use cmm_ir::Name;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A reference to one node of one procedure's graph, by name: how
/// continuation values, `Wrong` payloads and captured states name a
/// point of control.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct NodeRef {
    /// Which procedure.
    pub proc: Name,
    /// Which node within that procedure's graph.
    pub node: NodeId,
}

impl NodeRef {
    /// Creates a node reference.
    pub fn new(proc: impl Into<Name>, node: NodeId) -> NodeRef {
        NodeRef {
            proc: proc.into(),
            node,
        }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.proc, self.node)
    }
}

/// A local environment ρ, or the global-register table: a partial
/// function from names to values. The bindings sit in one vector sorted
/// by name, so a lookup hashes no name, a capture reads them out in
/// order, and an activation's few bindings cost one small allocation
/// (an ordered tree map would allocate an eleven-slot node for each).
#[derive(Clone, Debug, Default)]
pub struct Env(Vec<(Name, Value)>);

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(Vec::new())
    }

    /// The position of `n`, or where it would go. An activation binds a
    /// handful of names, so a scan that stops at the first name not
    /// below `n` beats a binary search.
    fn find(&self, n: &str) -> Result<usize, usize> {
        for (i, (k, _)) in self.0.iter().enumerate() {
            match k.as_str().cmp(n) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(i),
                Ordering::Greater => return Err(i),
            }
        }
        Err(self.0.len())
    }

    /// The value bound to `n`.
    pub fn get(&self, n: &str) -> Option<&Value> {
        self.find(n).ok().map(|i| &self.0[i].1)
    }

    /// The value bound to `n`, to overwrite.
    pub fn get_mut(&mut self, n: &str) -> Option<&mut Value> {
        self.find(n).ok().map(|i| &mut self.0[i].1)
    }

    /// `ρ[n ⟵ v]`, cloning the name only when `n` is not bound yet.
    pub fn bind(&mut self, n: &Name, v: Value) {
        match self.find(n.as_str()) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (n.clone(), v)),
        }
    }

    /// Removes the binding of `n`, if any.
    pub fn remove(&mut self, n: &str) {
        if let Ok(i) = self.find(n) {
            self.0.remove(i);
        }
    }

    /// Removes every binding.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The bindings, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Value)> {
        self.0.iter().map(|(n, v)| (n, v))
    }
}

impl FromIterator<(Name, Value)> for Env {
    /// Binds each pair in turn, so a later binding of a name wins.
    fn from_iter<I: IntoIterator<Item = (Name, Value)>>(it: I) -> Env {
        let mut env = Env::new();
        for (n, v) in it {
            env.bind(&n, v);
        }
        env
    }
}

/// One activation frame of the stack σ.
///
/// A call from procedure `P` pushes a frame recording `P`'s suspended
/// state: "the continuation bundle is saved on the stack, because the
/// callee, not the caller, determines what is executed after the call"
/// (§5.2). The frame saves the bundle as the call site it belongs to
/// ([`Frame::bundle`]). The representation of an activation "is likely
/// to include copies of all callee-saves registers and a pointer to an
/// activation record on the real call stack" (§3.3) — here, the whole
/// environment `rho` plus the callee-saves set `saves`.
#[derive(Clone, Debug)]
pub struct Frame<'p> {
    /// The graph of the procedure whose activation this frame is.
    pub graph: &'p Graph,
    /// The `Call` node at which the activation is suspended.
    pub call_site: NodeId,
    /// The suspended local environment ρ'.
    pub rho: Env,
    /// The suspended callee-saves set s'.
    pub saves: BTreeSet<Name>,
    /// The unique id of the suspended activation.
    pub uid: u64,
}

impl<'p> Frame<'p> {
    /// The procedure whose activation this frame is.
    pub fn proc(&self) -> &'p Name {
        &self.graph.name
    }

    /// The continuation bundle `(kp_r, kp_u, kp_c, abort)` of the call
    /// site; its node ids refer to [`Frame::graph`].
    pub fn bundle(&self) -> &'p Bundle {
        call_bundle(self.graph, self.call_site)
            .expect("frames are pushed and restored only at Call nodes")
    }

    /// The `NodeRef` of the suspended call site.
    pub fn site(&self) -> NodeRef {
        NodeRef {
            proc: self.graph.name.clone(),
            node: self.call_site,
        }
    }
}

/// The continuation bundle of the `Call` node at `call_site` in `g`.
///
/// # Errors
///
/// Names the call site if it is out of bounds or not a `Call` node.
pub(crate) fn call_bundle(g: &Graph, call_site: NodeId) -> Result<&Bundle, String> {
    match g.nodes.get(call_site.index()) {
        Some(Node::Call { bundle, .. }) => Ok(bundle),
        Some(n) => Err(format!(
            "call site {}:{call_site} is a {} node, not a Call",
            g.name,
            n.kind_name()
        )),
        None => Err(format!("call site {}:{call_site} out of bounds", g.name)),
    }
}

/// Where continuation values live when flattened to bits (stored to
/// memory or mixed into arithmetic). §5.4: "one possible implementation
/// is to allocate two words in the current activation record, and to
/// represent `Cont (p, u)` as a pointer to this pair"; we model the
/// pointer with a synthetic address range and a side table.
pub(crate) const CONT_BASE: u64 = 0x9000_0000;

/// The continuation-flattening side table shared by both machines: the
/// `i`-th continuation flattened is encoded as `CONT_BASE + 8 i`, in
/// allocation order, and an index finds a continuation already in the
/// table without scanning it.
#[derive(Clone, Debug, Default)]
pub(crate) struct ContTable {
    /// The interned continuations, in allocation order.
    entries: Vec<(NodeRef, u64)>,
    /// Position in `entries` of each continuation (its first one, should
    /// a restored table repeat an entry).
    index: BTreeMap<(NodeRef, u64), usize>,
}

impl ContTable {
    /// The encoding of `Cont (p, u)`, interning it on first use.
    pub(crate) fn encode(&mut self, p: NodeRef, u: u64) -> u64 {
        let next = self.entries.len();
        let i = *self.index.entry((p, u)).or_insert_with_key(|k| {
            self.entries.push(k.clone());
            next
        });
        CONT_BASE + (i as u64) * 8
    }

    /// The continuation an encoding stands for, if it is one.
    pub(crate) fn decode(&self, bits: u64) -> Option<(NodeRef, u64)> {
        if bits >= CONT_BASE && (bits - CONT_BASE).is_multiple_of(8) {
            self.entries.get(((bits - CONT_BASE) / 8) as usize).cloned()
        } else {
            None
        }
    }

    /// The interned continuations, in allocation order.
    pub(crate) fn entries(&self) -> &[(NodeRef, u64)] {
        &self.entries
    }

    /// Replaces the table with `entries` (a captured one) and rebuilds
    /// the index.
    pub(crate) fn restore(&mut self, entries: &[(NodeRef, u64)]) {
        self.clear();
        self.entries.extend_from_slice(entries);
        for (i, e) in entries.iter().enumerate() {
            self.index.entry(e.clone()).or_insert(i);
        }
    }

    /// Empties the table, keeping the entries' capacity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noderef_display() {
        let r = NodeRef::new("f", NodeId(3));
        assert_eq!(r.to_string(), "f:n3");
    }
}
