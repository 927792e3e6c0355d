//! Portable suspended-state capture for the abstract-machine family.
//!
//! A [`SemState`] is the paper's seven-component machine state (§5.2)
//! — control, ρ, callee-saves set, uid, memory, argument area, stack —
//! plus the bookkeeping a resumption needs (uid counter, continuation
//! encodings, status, step count), written entirely in *name space*:
//! environments are sorted `(name, value)` pairs, callee-saves sets are
//! sorted name lists, control is a `(procedure, node)` pair, and values
//! name procedures as text ([`StateValue`]). Nothing in it refers to
//! slot numbers, procedure ids, program pointers, or any other
//! engine-private representation, so a state captured from the
//! reference [`Machine`](crate::Machine) restores into the pre-resolved
//! [`ResolvedMachine`](crate::ResolvedMachine) and vice versa — the
//! cross-engine resume invariant the snapshot-equivalence oracle
//! checks.
//!
//! Two invariants matter for the serialized form:
//!
//! * **Canonical ordering.** Every map-backed component is emitted
//!   sorted (environments and globals by name, memory by address), so
//!   capturing the same machine state twice yields equal values and —
//!   one layer up in `cmm-snap` — byte-identical encodings.
//! * **Resumable points only.** A state is captured only while the
//!   machine is [`Suspended`](crate::Status::Suspended) (at a `Yield`)
//!   or [`OutOfFuel`](crate::Status::OutOfFuel) (at a fuel-slice
//!   boundary); these are exactly the points where the front-end
//!   run-time system may own the thread, and the only statuses a
//!   restore will accept.
//!
//! What is *not* captured: the program itself (a restore validates the
//! state against the program the new machine was built over — `cmm-snap`
//! additionally carries a source digest), the trace sink (a resumed
//! machine starts with a fresh sink; its clock continues from the
//! restored `steps`), and the resource governor (pure configuration,
//! installed on each machine as it is built).

use crate::state::{proc_name, NamedNode, NodeRef};
use crate::value::Value;
use cmm_cfg::{Graph, Node, NodeId, Program};
use cmm_ir::{Name, Width};

/// A [`Value`] in name space: a code pointer or a continuation names
/// its procedure as text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StateValue {
    /// `Bits_n k`.
    Bits(Width, u64),
    /// `Code p`, by the procedure's name.
    Code(Name),
    /// `Cont (p, u)`, by the node and the activation uid.
    Cont(NamedNode, u64),
}

impl StateValue {
    /// `v` with its procedure named from `prog`.
    pub fn of(v: &Value, prog: &Program) -> StateValue {
        match v {
            Value::Bits(w, b) => StateValue::Bits(*w, *b),
            Value::Code(id) => StateValue::Code(proc_name(prog, *id)),
            Value::Cont(r, u) => StateValue::Cont(r.named(prog), *u),
        }
    }

    /// The value this stands for in `prog`, whose procedure (and node)
    /// must exist there.
    pub(crate) fn value(&self, prog: &Program) -> Result<Value, String> {
        Ok(match self {
            StateValue::Bits(w, b) => Value::Bits(*w, *b),
            StateValue::Code(n) => Value::Code(
                prog.procs
                    .id(n)
                    .ok_or_else(|| format!("code value: no procedure `{n}`"))?,
            ),
            StateValue::Cont(n, u) => Value::Cont(n.resolve(prog, "continuation value")?.0, *u),
        })
    }
}

impl NamedNode {
    /// The node this names in `prog`, with its procedure's graph:
    /// restore validation, shared by both engines. Names `what` in the
    /// message if the procedure does not exist or `node` is out of
    /// bounds.
    pub(crate) fn resolve<'q>(
        &self,
        prog: &'q Program,
        what: &str,
    ) -> Result<(NodeRef, &'q Graph), String> {
        let proc = &self.proc;
        let id = prog
            .procs
            .id(proc)
            .ok_or_else(|| format!("{what}: no procedure `{proc}`"))?;
        let g = &prog.procs[id];
        if self.node.index() >= g.nodes.len() {
            return Err(format!(
                "{what}: node {} out of bounds for `{proc}` ({} nodes)",
                self.node,
                g.nodes.len()
            ));
        }
        Ok((
            NodeRef {
                proc: id,
                node: self.node,
            },
            g,
        ))
    }
}

/// The name `g` gives the local variable or continuation `n`: the
/// program's own `Name`, which a restored environment binds. Every name
/// an activation can bind is a declared variable, a continuation, or a
/// `CopyIn` or `CalleeSaves` name (the pre-resolved engine's slot
/// universe).
pub(crate) fn local_name<'p>(g: &'p Graph, n: &str) -> Option<&'p Name> {
    let declared = g.vars.iter().map(|(v, _)| v);
    let conts = g.continuations().iter().map(|(k, _)| k);
    declared.chain(conts).find(|v| *v == n).or_else(|| {
        g.nodes.iter().find_map(|node| match node {
            Node::CopyIn { vars, .. } => vars.iter().find(|v| *v == n),
            Node::CalleeSaves { vars, .. } => vars.iter().find(|v| *v == n),
            _ => None,
        })
    })
}

/// The status a captured state was suspended in — the two resumable
/// points of the machine's lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapStatus {
    /// Control is at a `Yield` node; the run-time system has the
    /// machine.
    Suspended,
    /// `run` exhausted its fuel mid-execution; the next `run` call
    /// continues.
    OutOfFuel,
}

/// One suspended activation frame, in name space. The continuation
/// bundle is *not* captured: it is a pure function of the call site
/// (`proc`'s graph node at `call_site` is the `Call` that pushed this
/// frame), so a restore re-derives it — and rejects states whose call
/// sites are not `Call` nodes.
#[derive(Clone, PartialEq, Debug)]
pub struct FrameState {
    /// The procedure whose activation this frame is.
    pub proc: Name,
    /// The `Call` node at which the activation is suspended.
    pub call_site: NodeId,
    /// The suspended environment ρ', sorted by name.
    pub rho: Vec<(Name, StateValue)>,
    /// The suspended callee-saves set, sorted.
    pub saves: Vec<Name>,
    /// The unique id of the suspended activation.
    pub uid: u64,
}

/// The full suspended state of an abstract machine, portable across
/// both engines of the family. See the module documentation.
#[derive(Clone, PartialEq, Debug)]
pub struct SemState {
    /// The procedure the control component points into.
    pub proc: Name,
    /// The current node within that procedure's graph.
    pub node: NodeId,
    /// The local environment ρ, sorted by name.
    pub rho: Vec<(Name, StateValue)>,
    /// The callee-saves set, sorted.
    pub saves: Vec<Name>,
    /// The unique id of the current activation.
    pub uid: u64,
    /// Memory as sorted `(address, byte)` pairs, zero bytes elided.
    pub mem: Vec<(u64, u8)>,
    /// The argument-passing area (also the `yield` arguments while
    /// suspended).
    pub area: Vec<StateValue>,
    /// The activation stack, bottom first.
    pub stack: Vec<FrameState>,
    /// Global registers, sorted by name.
    pub globals: Vec<(Name, StateValue)>,
    /// The next unique activation id to allocate.
    pub next_uid: u64,
    /// The continuation-flattening side table, in allocation order
    /// (index `i` is the encoding at `CONT_BASE + 8 i`).
    pub cont_encodings: Vec<(NamedNode, u64)>,
    /// The status the machine was captured in.
    pub status: SnapStatus,
    /// Transitions taken so far (the machine's trace clock).
    pub steps: u64,
}

/// Sorts an iterator of owned `(name, value)` bindings into the
/// canonical capture order.
pub(crate) fn sorted_bindings(
    it: impl Iterator<Item = (Name, StateValue)>,
) -> Vec<(Name, StateValue)> {
    let mut v: Vec<(Name, StateValue)> = it.collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}
