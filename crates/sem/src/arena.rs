//! A reusable execution arena for the abstract-machine engines.
//!
//! Both abstract machines allocate a handful of heap containers per
//! run: the byte-map memory, the global-register table, the
//! continuation-encoding table and, in the pre-resolved machine, the
//! activation stack and one slot vector and callee-save list per live
//! activation. A batch worker that runs thousands of jobs pays the
//! allocator (and the drop glue) for each of them unless something
//! banks the capacity between runs. [`SemArena`] is that bank:
//! `Machine` and `ResolvedMachine` offer `with_sink_in` constructors
//! that draw their containers from an arena and `recycle_into` to give
//! the (cleared) containers back.
//!
//! The arena carries **no observable state**: every container is
//! cleared on recycle, so a machine built from an arena starts from
//! exactly the state a fresh one would. Clearing keeps capacity —
//! that retained capacity is the entire point — and capacity is not
//! observable in any oracle. The engine-equivalence suite locks the
//! fresh-vs-recycled equality in.
//!
//! The reference machine's frames borrow the program they run, so its
//! stack, and the environments its frames hold, are not banked.

use crate::resolved::{Locals, RFrame};
use crate::state::{ContTable, Env};
use crate::value::Value;
use std::collections::HashMap;

/// Banked heap containers for both abstract-machine engines. See the
/// module docs for the reuse contract.
#[derive(Debug, Default)]
pub struct SemArena {
    /// Byte-map memory, shared by both machines (only one runs at a
    /// time per arena).
    pub(crate) mem: HashMap<u64, u8>,
    /// The continuation-encoding table, shared by both machines.
    pub(crate) conts: ContTable,
    /// Reference machine: the global-register table.
    pub(crate) globals: Env,
    /// Resolved machine: the activation stack.
    pub(crate) r_stack: Vec<RFrame>,
    /// Resolved machine: the indexed global-register table.
    pub(crate) r_globals: Vec<Value>,
    /// Resolved machine: cleared slot vectors and callee-save lists, one
    /// pair for each activation the deepest run so far held at once.
    pub(crate) r_spare: Vec<Locals>,
}

impl SemArena {
    /// An empty arena.
    pub fn new() -> SemArena {
        SemArena::default()
    }
}
