//! # cmm-opt — dataflow analysis and optimization of Abstract C--
//!
//! §6 of the paper: "Table 3 gives rules for adding dataflow information
//! to a C-- procedure, in terms of definitions, uses, copies, and kills.
//! This information is enough to enable standard optimizations like
//! common-subexpression elimination, partial-redundancy elimination,
//! constant propagation, copy propagation, dead-code elimination, code
//! motion, etc. The optimizer can perform all the usual rearrangements,
//! provided it respects the dataflow and it doesn't insert code after
//! `Exit`, `Jump`, `CutTo`, or the abort part of a continuation bundle."
//!
//! The crate provides:
//!
//! * [`dataflow`] — the Table 3 rules, verbatim, over *slots* (variables,
//!   the memory pseudo-variable `M`, and the elements of the
//!   argument-passing area `A`), and allocation-free visitors over their
//!   variable uses and definitions, which the analyses read;
//! * [`locals`] — the sorted locals index every analysis numbers
//!   variables by, and sets of locals as `u64` bit rows over it;
//! * [`liveness`] — classical backward liveness over the graph, which is
//!   correct in the presence of exceptions *because* the annotation edges
//!   are ordinary edges of the graph (this is the paper's central claim
//!   about optimization);
//! * [`dom`] — dominator trees and dominance frontiers;
//! * [`analyses`] — the locals index, reverse postorder and liveness
//!   one graph's passes share, each rebuilt only when a pass changed
//!   what it was built from;
//! * [`ssa`] — static single-assignment numbering as an overlay on the
//!   graph (the form of the paper's Figure 6);
//! * passes — sparse constant propagation and folding ([`constprop`]),
//!   local copy propagation and value-numbering CSE ([`localopt`]),
//!   dead-code elimination ([`dce`]), and callee-saves register
//!   promotion ([`callee_saves`]), which respects the rule that "the
//!   callee-saves registers must be considered killed by flow edges from
//!   the call to any cut-to continuations" (§4.2);
//! * [`pipeline`] — the standard pass ordering.
//!
//! All passes are *semantics-preserving*: the property tests in
//! `tests/optimizer_soundness.rs` run the `cmm-sem` abstract machine on
//! random programs before and after optimization and require identical
//! observable results.

pub mod analyses;
pub mod callee_saves;
pub mod constprop;
pub mod dataflow;
pub mod dce;
pub mod dom;
pub mod liveness;
pub mod localopt;
pub mod locals;
pub mod pipeline;
pub mod ssa;

pub use analyses::Analyses;
pub use dataflow::{flow, NodeFlow, Slot};
pub use dom::Dominators;
pub use liveness::Liveness;
pub use locals::{Locals, VarSet};
pub use pipeline::{optimize_graph, optimize_program, OptOptions, OptStats};
pub use ssa::Ssa;
