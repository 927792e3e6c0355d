//! Portable suspended-state capture for the abstract-machine family.
//!
//! A [`SemState`] is the paper's seven-component machine state (§5.2)
//! — control, ρ, callee-saves set, uid, memory, argument area, stack —
//! plus the bookkeeping a resumption needs (uid counter, continuation
//! encodings, status, step count), written entirely in *name space*:
//! environments are sorted `(name, value)` pairs, callee-saves sets are
//! sorted name lists, and control is a `(procedure, node)` pair. Nothing
//! in it refers to slot numbers, program pointers, or any other
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

use crate::state::NodeRef;
use crate::value::Value;
use cmm_cfg::NodeId;
use cmm_ir::Name;

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
    pub rho: Vec<(Name, Value)>,
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
    pub rho: Vec<(Name, Value)>,
    /// The callee-saves set, sorted.
    pub saves: Vec<Name>,
    /// The unique id of the current activation.
    pub uid: u64,
    /// Memory as sorted `(address, byte)` pairs, zero bytes elided.
    pub mem: Vec<(u64, u8)>,
    /// The argument-passing area (also the `yield` arguments while
    /// suspended).
    pub area: Vec<Value>,
    /// The activation stack, bottom first.
    pub stack: Vec<FrameState>,
    /// Global registers, sorted by name.
    pub globals: Vec<(Name, Value)>,
    /// The next unique activation id to allocate.
    pub next_uid: u64,
    /// The continuation-flattening side table, in allocation order
    /// (index `i` is the encoding at `CONT_BASE + 8 i`).
    pub cont_encodings: Vec<(NodeRef, u64)>,
    /// The status the machine was captured in.
    pub status: SnapStatus,
    /// Transitions taken so far (the machine's trace clock).
    pub steps: u64,
}

/// Sorts an iterator of owned `(name, value)` bindings into the
/// canonical capture order.
pub(crate) fn sorted_bindings(it: impl Iterator<Item = (Name, Value)>) -> Vec<(Name, Value)> {
    let mut v: Vec<(Name, Value)> = it.collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}
