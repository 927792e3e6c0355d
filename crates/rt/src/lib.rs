//! # cmm-rt — the C-- run-time interface (the paper's Table 1)
//!
//! "The main service provided by the C-- run-time interface is to present
//! the state of a suspended C-- computation ('thread') as a stack of
//! abstract activations. Operations are provided to walk down the stack;
//! to get information from an activation; to make a particular activation
//! become the topmost one; and to change the resumption point of the
//! topmost activation" (§3.3).
//!
//! | Operation | Here |
//! |---|---|
//! | `Resume(t)`              | [`Thread::resume`] |
//! | `FirstActivation(t,&a)`  | [`Thread::first_activation`] |
//! | `NextActivation(&a)`     | [`Thread::next_activation`] |
//! | `SetActivation(t,a)`     | [`Thread::set_activation`] |
//! | `SetUnwindCont(t,n)`     | [`Thread::set_unwind_cont`] |
//! | `SetCutToCont(t,k)`      | [`Thread::set_cut_to_cont`] |
//! | `FindContParam(t,n)`     | [`Thread::find_cont_param`] |
//! | `GetDescriptor(a,n)`     | [`Thread::get_descriptor`] |
//!
//! A front-end run-time system (such as the Modula-3 exception
//! dispatchers of Appendix A, reimplemented in `cmm-frontend`) interacts
//! with a suspended thread only through this interface; "different front
//! ends may interoperate with the same C-- run-time system."
//!
//! [`Thread`] also implements the engine-neutral [`chaos::Table1`]
//! trait, as `cmm_vm::VmThread` does for the simulated target, so a
//! run-time system written against the trait runs on every engine.
//!
//! The interface is implemented entirely in terms of the `rts_*`
//! transitions that `cmm-sem` permits while a machine is suspended at a
//! `Yield` node, so every dispatch a front end performs is — by
//! construction — a behaviour allowed by the paper's formal semantics.
//!
//! # Example: a minimal unwinding dispatch
//!
//! ```
//! use cmm_rt::Thread;
//! use cmm_sem::{Status, Value};
//!
//! let m = cmm_parse::parse_module(r#"
//!     f() {
//!         bits32 r;
//!         r = g() also unwinds to k;
//!         return (0);
//!         continuation k(r):
//!         return (r);
//!     }
//!     g() { yield(7) also aborts; return (0); }
//! "#).unwrap();
//! let prog = cmm_cfg::build_program(&m).unwrap();
//! let mut t = Thread::new(&prog);
//! t.start("f", vec![]).unwrap();
//! assert_eq!(t.run(100_000), Status::Suspended);
//!
//! // The dispatcher: walk to the activation that can handle the
//! // exception, select its first unwind continuation, pass a value.
//! let code = t.yield_code().unwrap();
//! let mut a = t.first_activation().unwrap();
//! t.next_activation(&mut a);             // skip g's activation
//! t.set_activation(&a).unwrap();
//! t.set_unwind_cont(0).unwrap();
//! *t.find_cont_param(0).unwrap() = Value::b32(code as u32 * 6);
//! t.resume().unwrap();
//! assert_eq!(t.run(100_000), Status::Terminated(vec![Value::b32(42)]));
//! ```

pub mod thread;

pub use cmm_chaos as chaos;
pub use thread::{Activation, Thread};
