//! A reusable execution arena for the abstract-machine engines.
//!
//! Both abstract machines allocate a handful of heap containers per
//! run: the byte-map memory, the activation stack, the global-register
//! table, the continuation-encoding table. A batch worker that runs
//! thousands of jobs pays the allocator (and the drop glue) for each of
//! them unless something banks the capacity between runs. [`SemArena`]
//! is that bank: `Machine` and `ResolvedMachine` offer `with_sink_in`
//! constructors that draw their containers from an arena and
//! `recycle_into` to give the (cleared) containers back.
//!
//! The arena carries **no observable state**: every container is
//! cleared on recycle, so a machine built from an arena starts from
//! exactly the state a fresh one would. Clearing keeps capacity —
//! that retained capacity is the entire point — and capacity is not
//! observable in any oracle (the governor's footprint figures count
//! live entries, not reserved slots). The engine-equivalence suite
//! locks the fresh-vs-recycled equality in.
//!
//! It banks only what survives a run. Both machines' `start` and
//! `restore` replace the environment and the stack-data area
//! wholesale, so those two are never banked.

use crate::resolved::RFrame;
use crate::state::{Frame, NodeRef};
use crate::value::Value;
use cmm_ir::Name;
use std::collections::HashMap;

/// Banked heap containers for both abstract-machine engines. See the
/// module docs for the reuse contract.
#[derive(Debug, Default)]
pub struct SemArena {
    /// Byte-map memory, shared by both machines (only one runs at a
    /// time per arena).
    pub(crate) mem: HashMap<u64, u8>,
    /// Reference machine: the activation stack.
    pub(crate) stack: Vec<Frame>,
    /// Reference machine: the global-register table.
    pub(crate) globals: HashMap<Name, Value>,
    /// Reference machine: the continuation-encoding table.
    pub(crate) cont_encodings: Vec<(NodeRef, u64)>,
    /// Resolved machine: the callee-save slot list.
    pub(crate) r_saves: Vec<u32>,
    /// Resolved machine: the activation stack.
    pub(crate) r_stack: Vec<RFrame>,
    /// Resolved machine: the indexed global-register table.
    pub(crate) r_globals: Vec<Value>,
    /// Resolved machine: the continuation-encoding table.
    pub(crate) r_cont_encodings: Vec<(NodeRef, u64)>,
}

impl SemArena {
    /// An empty arena.
    pub fn new() -> SemArena {
        SemArena::default()
    }
}
