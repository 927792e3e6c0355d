//! # cmm-frontend — source-language front ends over C--
//!
//! The paper's thesis is that one intermediate language can support the
//! exception policy of *any* source language, implemented by *any* of the
//! four known techniques. This crate is the demonstration: **MiniM3**, a
//! Modula-3-flavoured source language with `try`/`except`/`raise`
//! (Appendix A's running example), compiled to C-- by four interchangeable
//! strategies — plus a `setjmp`/`longjmp`-style fifth for the §2 cost
//! comparison:
//!
//! | [`Strategy`] | Paper technique | Mechanism used |
//! |---|---|---|
//! | `RuntimeUnwind` | run-time stack unwinding (Figs 8/9) | `also unwinds to` + descriptors + the Table 1 interface, dispatched by [`dispatch`] |
//! | `Cutting` | stack cutting (Fig 10) | a dynamic handler stack of continuations + `cut to` |
//! | `NativeUnwind` | native-code stack unwinding | one abnormal return continuation per call (`also returns to` + `return <0/1>`), compiled with the branch-table method |
//! | `Cps` | continuation-passing style | whole-program CPS: heap-allocated return/handler closures + `jump` |
//! | `Sjlj(arch)` | `setjmp`/`longjmp` (§2) | stack cutting that additionally saves an `arch`-sized `jmp_buf` at every scope entry |
//!
//! All strategies produce observably equivalent programs (the
//! cross-strategy integration tests enforce it); they differ exactly in
//! the cost trade-offs of Figure 2, which `cmm-bench` measures.
//!
//! The front-end **run-time system** for `RuntimeUnwind` — the paper's
//! Figure 9 dispatcher, originally C — is ported to safe Rust in
//! [`dispatch`], written once over the Table 1 trait and so running on
//! every engine. [`engine`] holds the one constructor that builds a
//! thread of any engine.
//!
//! # Example
//!
//! ```
//! use cmm_frontend::{compile_minim3, run_sem, Strategy};
//!
//! let src = r#"
//!     exception Overflow;
//!     proc add(a, b) {
//!         if a > 1000 { raise Overflow(a); }
//!         return a + b;
//!     }
//!     proc main(x) {
//!         var r;
//!         try { r = add(x, 10); } except {
//!             Overflow(v) => { r = 0 - 1; }
//!         }
//!         return r;
//!     }
//! "#;
//! for strategy in [Strategy::RuntimeUnwind, Strategy::Cutting,
//!                  Strategy::NativeUnwind, Strategy::Cps] {
//!     let module = compile_minim3(src, strategy)?;
//!     assert_eq!(run_sem(&module, strategy, &[5])?, 15);
//!     assert_eq!(run_sem(&module, strategy, &[2000])?, 0xffff_ffff);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod dispatch;
pub mod driver;
pub mod engine;
pub mod lower;
pub mod parse;
pub mod workloads;

pub use driver::{
    run_sem, run_sem_traced, run_thread, run_vm, run_vm_on, run_vm_traced, run_vm_with, M3Error,
};
pub use engine::{vm_machine, with_engine, Arenas, Code, Setup};
pub use lower::{compile_minim3, compile_program, LowerError, Strategy};
pub use parse::parse_minim3;

/// The yield code MiniM3's run-time-unwinding strategy uses to request
/// exception dispatch (`yield(M3_EXCEPTION, tag, value)`).
pub const M3_EXCEPTION: u64 = 300;
