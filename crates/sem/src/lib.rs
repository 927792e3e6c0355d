//! # cmm-sem — the operational semantics of Abstract C--
//!
//! This crate implements, rule for rule, the formal operational semantics
//! of §5.2 of the paper. The mutable state of the C-- abstract machine
//! has seven components:
//!
//! 1. the **control** `p`, the current node (here the current
//!    procedure's graph and a node of it; [`NodeRef`] names one);
//! 2. the **local environment** `ρ`, mapping names to values;
//! 3. a set `s` of the variables of `ρ` stored in callee-saves registers;
//! 4. a unique integer **uid**, "used to enforce the restriction against
//!    using dead continuations";
//! 5. a **memory** `M`;
//! 6. an **argument-passing area** `A`, a list of values;
//! 7. a **stack** `σ` of activation frames, each holding a continuation
//!    bundle, a local environment, a callee-saves set, a uid, and the
//!    rest of the stack.
//!
//! Values take the three forms of §5.1: `Bits_n k`, `Code p`, and
//! `Cont (p, u)`.
//!
//! The machine "makes transitions until it reaches a state in which no
//! transitions are possible. If, in that state, the control is `Exit 0 0`
//! and the stack is empty, we say the program has terminated normally;
//! otherwise it has **gone wrong**" — the [`Wrong`] type enumerates the
//! ways.
//!
//! The `Yield` rules are deliberately under-specified in the paper; they
//! delimit what any front-end run-time system may do. Here, reaching a
//! `Yield` node suspends the [`Machine`] ([`Status::Suspended`]), and the
//! permitted transitions are exposed as the `rts_*` methods — exactly
//! the operations the run-time interface of `cmm-rt` (the paper's
//! Table 1) is built from:
//!
//! * pop a frame whose call site `also aborts` ([`Machine::rts_pop_frame`]);
//! * resume at a return or unwind continuation of the topmost frame,
//!   *restoring* callee-saves registers ([`Machine::rts_resume`]);
//! * resume at a cut continuation *without* restoring callee-saves;
//! * cut the stack directly to a continuation value
//!   ([`Machine::rts_cut_to`]);
//! * read and write memory and global registers while suspended.
//!
//! # Example
//!
//! ```
//! use cmm_sem::{Machine, Status, Value};
//!
//! let m = cmm_parse::parse_module(
//!     "sp1(bits32 n) {
//!         bits32 s, p;
//!         if n == 1 { return (1, 1); }
//!         else { s, p = sp1(n - 1); return (s + n, p * n); }
//!      }",
//! ).unwrap();
//! let prog = cmm_cfg::build_program(&m).unwrap();
//! let mut mach = Machine::new(&prog);
//! mach.start("sp1", vec![Value::b32(5)]).unwrap();
//! match mach.run(1_000_000) {
//!     Status::Terminated(vals) => {
//!         assert_eq!(vals, vec![Value::b32(15), Value::b32(120)]);
//!     }
//!     other => panic!("unexpected status {other:?}"),
//! }
//! ```

pub mod arena;
pub mod engine;
pub mod machine;
pub mod resolved;
pub mod snapshot;
pub mod state;
pub mod value;
pub mod wrong;

pub use arena::SemArena;
pub use engine::SemEngine;
pub use machine::{Machine, RtsTarget, Status};
pub use resolved::{ResolvedMachine, ResolvedProgram};
pub use snapshot::{FrameState, SemState, SnapStatus};
pub use state::{Frame, NodeRef};
pub use value::Value;
pub use wrong::Wrong;
