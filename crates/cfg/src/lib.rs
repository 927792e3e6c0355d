//! # cmm-cfg — Abstract C--
//!
//! "We regard a C-- program as the textual description of a control-flow
//! graph, or rather, of a set of named control-flow graphs, one for each
//! procedure" (§3.2). This crate defines **Abstract C--** (§5): the
//! control-flow-graph language that "resembles the flowgraph
//! representations used in optimizing compilers", with the node kinds of
//! the paper's Table 2:
//!
//! | Node | Meaning |
//! |---|---|
//! | `Entry`       | unique entry; binds the procedure's continuations |
//! | `Exit j n`    | return to continuation `j` of `n` alternates |
//! | `CopyIn`      | move values from the argument-passing area `A` into variables |
//! | `CopyOut`     | move expression values into `A` |
//! | `CalleeSaves` | change the set of variables held in callee-saves registers |
//! | `Assign`      | assignment to a variable or to memory |
//! | `Branch`      | conditional branch |
//! | `Call`        | call, with a *continuation bundle* `(kp_r, kp_u, kp_c, abort)` |
//! | `Jump`        | tail call |
//! | `CutTo`       | cut the stack to a continuation |
//! | `Yield`       | execute a procedure in the run-time system |
//!
//! [`build::build_program`] implements the §5.3 translation from C--
//! source (the `cmm-ir` AST) into Abstract C--, including the synthesis of
//! checking procedures for the `%%divu`-style fallible primitives of §4.3.
//! It is also the one well-formedness check, whose guarantees every
//! back end relies on.
//!
//! A [`Program`] is the partial map *X* from names to procedures of §5,
//! together with a linked [`image::DataImage`] of the module's static data
//! and synthetic code addresses for procedures (so code pointers can be
//! stored in and fetched from memory).

pub mod build;
pub mod display;
pub mod graph;
pub mod image;
pub mod node;

pub use build::{build_program, BuildError};
pub use graph::{Graph, NodeId, Program};
pub use image::DataImage;
pub use node::{Bundle, Node};

/// The distinguished name of the run-time system's `yield` procedure.
///
/// Per §3.3, "the C-- thread initiates the interaction by calling the
/// special C-- procedure `yield`". In a [`Program`], this name maps to a
/// graph consisting of a single [`Node::Yield`].
pub const YIELD: &str = "yield";
