//! # cmm-ir — abstract syntax for the C-- compiler-target language
//!
//! This crate defines the abstract syntax of C-- as described in
//! *"A single intermediate language that supports multiple implementations
//! of exceptions"* (Ramsey & Peyton Jones, PLDI 2000), §3–§4:
//!
//! * an extremely modest type system: words and floats of various sizes
//!   ([`Ty`]);
//! * pure, side-effect-free expressions ([`Expr`]) — effects occur only as
//!   the result of assignments or calls;
//! * statements ([`Stmt`]) including parallel assignment, conditionals,
//!   gotos, calls, tail calls (`jump`), multiple and *abnormal* returns
//!   (`return <i/n>`), and the stack-cutting primitive `cut to`;
//! * **weak continuations** ([`BodyItem::Continuation`]) — "a bit like a
//!   label with parameters" — which model exception handlers;
//! * **call-site annotations** ([`Annotations`]) — `also cuts to`,
//!   `also unwinds to`, `also returns to`, `also aborts` — which tell both
//!   the optimizer and the run-time system exactly which exceptional
//!   control transfers can take place.
//!
//! The crate also provides a pretty-printer ([`pretty`]) that regenerates
//! concrete syntax in the style of the paper's figures, so IR values can be
//! round-tripped through the parser in `cmm-parse`.
//!
//! # Example
//!
//! Front ends build IR with the [`Stmt`] and [`Expr`] constructors, as
//! the MiniM3 lowering does:
//!
//! ```
//! use cmm_ir::{pretty::proc_to_string, BodyItem, Expr, Name, Proc, Stmt, Ty};
//!
//! let mut f = Proc::new("f");
//! f.formals.push((Name::from("n"), Ty::B32));
//! let n_plus_1 = Expr::add(Expr::var("n"), Expr::b32(1));
//! f.body.push(BodyItem::Stmt(Stmt::return_([n_plus_1])));
//! assert_eq!(proc_to_string(&f).lines().next(), Some("f(bits32 n) {"));
//! ```

pub mod expr;
pub mod module;
pub mod name;
pub mod pretty;
pub mod proc;
pub mod stmt;
pub mod ty;

pub use expr::{BinOp, Expr, Lit, UnOp};
pub use module::{DataBlock, DataItem, Decl, GlobalReg, Module};
pub use name::Name;
pub use proc::{BodyItem, Proc};
pub use stmt::{AltReturn, Annotations, Lvalue, Stmt};
pub use ty::{FWidth, Ty, Width};
