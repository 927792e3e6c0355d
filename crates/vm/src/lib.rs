//! # cmm-vm — a simulated native target for C--
//!
//! The paper's cost arguments (§2, §4.2, Figures 2–4, Appendix A) are
//! about *generated machine code*: instruction counts at call sites,
//! register save/restore traffic, constant-time stack cutting versus
//! linear-time stack walking. This crate provides the substrate those
//! arguments run on: a deterministic 32-bit RISC-style machine with an
//! exact cost model, plus a code generator from Abstract C--.
//!
//! The substitution (documented in `DESIGN.md`): the paper measured on
//! SPARC/Alpha/Pentium hardware; we measure on this simulator. The
//! *shapes* the paper cares about are preserved exactly:
//!
//! * **stack cutting** compiles to a constant-length sequence that
//!   "saves 2 pointers" — a continuation value is the address of a
//!   2-word `(pc, sp)` pair in the activation record (§5.4);
//! * **the branch-table method** (Figures 3/4) compiles
//!   `also returns to` call sites with a table of unconditional branches
//!   after the call instruction; a normal return is `jr ra+n` (zero
//!   dynamic overhead), an abnormal return `<i/n>` is `jr ra+i` into the
//!   table — a branch to a branch;
//! * **run-time stack unwinding** walks frames one at a time through the
//!   unwind tables the code generator deposits ([`frame::ProcMeta`]),
//!   restoring callee-saves registers as it goes;
//! * **callee-saves interaction** (§4.2): variables promoted by
//!   `cmm-opt`'s `CalleeSaves` nodes live in callee-saves registers;
//!   variables live into `also cuts to` continuations are barred from
//!   promotion and become frame-resident, paying a load/store per access
//!   — the exact penalty the paper describes;
//! * **setjmp/longjmp cost** (§2): [`arch::ArchProfile`] records the
//!   `jmp_buf` size of each architecture the paper quotes (Pentium 6,
//!   SPARC 19, Alpha 84 words, versus 2 for the native cutter).
//!
//! The [`machine::VmMachine`] counts instructions, loads, stores,
//! branches, and calls. The integration tests cross-check the VM against
//! the `cmm-sem` abstract machine on the same programs: both must
//! produce identical results.
//!
//! The machine runs in one of three tiers, all over the same state: `vm`
//! steps the assembled [`isa::Inst`] array ([`VmMachine::step`]), and
//! `vm-decoded` and `vm-fused` run one loop over a [`DecodedCode`]
//! stream — plain slots from [`DecodedCode::decode`], or with windows
//! formed by the fusion pass ([`DecodedCode::fuse`]). The stream names
//! its tier, so a machine reports it without inspecting the code.

pub mod arch;
pub mod codegen;
pub mod decode;
pub mod disasm;
pub mod frame;
pub mod fuse;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod runtime;
pub mod snapshot;

pub use arch::ArchProfile;
pub use codegen::{compile, CodegenError, VmProgram};
pub use decode::{DInst, DOp, DecodedCode};
pub use fuse::FusedCode;
pub use isa::{Inst, Reg};
pub use machine::{check_arity, Cost, VmArena, VmMachine, VmStatus};
pub use runtime::VmThread;
pub use snapshot::{VmSnapStatus, VmState};
