//! The MiniM3 exception dispatcher — the paper's Figure 9, ported from C
//! to Rust, over the Table 1 run-time interface.
//!
//! ```text
//! void dispatcher() {
//!     activation a;
//!     pop_exn_info(&exn_tag, &arg);
//!     FirstActivation(tb, &a);
//!     for (;;) {
//!         struct exn_descriptor *d = ...a...;
//!         if (d) {
//!             for (i = 0; i < d->handler_count; i++)
//!                 if (d->handlers[i].exn_tag == exn_tag) {
//!                     SetActivation(tb, &a);
//!                     SetUnwindCont(tb, d->handlers[i].cont_num);
//!                     if (d->handlers[i].takes_arg) {
//!                         void **result = FindContParam(tb, 0);
//!                         *result = arg;
//!                     }
//!                     return;
//!                 }
//!         }
//!         if (!NextActivation(&a)) abort();  /* unhandled */
//!     }
//! }
//! ```
//!
//! The descriptor layout interpreted here is the one `cmm-frontend`
//! deposits: `[handler_count][(exn_tag, cont_num, takes_arg) * count]`,
//! all 32-bit words, with `exn_tag` a pointer to the exception's tag
//! block.
//!
//! The dispatcher is written once, over the [`Table1`] trait, and runs
//! unchanged on the abstract machines (`cmm-rt`) and on the simulated
//! target (`cmm-vm`), demonstrating that "different front ends may
//! interoperate with the same C-- run-time system" and vice versa.

use cmm_rt::chaos::Table1;

/// The outcome of one dispatch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Dispatch {
    /// A handler was selected and the thread resumed.
    Handled,
    /// No activation handles the exception; `tag` identifies it.
    Unhandled {
        /// The exception's tag (the address of its tag block).
        tag: u64,
    },
}

/// [`dispatch`] under the names it had while each engine family had a
/// dispatcher of its own.
pub use self::dispatch as dispatch_sem;
/// See [`dispatch_sem`].
pub use self::dispatch as dispatch_vm;

/// Dispatches the pending `yield(M3_EXCEPTION, tag, value)` on a thread
/// of any engine.
///
/// # Errors
///
/// Returns a message if the thread has no activations or a Table 1
/// operation is rejected.
pub fn dispatch<T: Table1 + ?Sized>(t: &mut T) -> Result<Dispatch, String> {
    let tag = t.yield_arg(1);
    let value = t.yield_arg(2);
    if !t.first_activation() {
        return Err("thread has no activations".into());
    }
    loop {
        if let Some(d) = t.get_descriptor(0) {
            let count = u64::from(t.read_u32(d));
            for i in 0..count {
                let entry = d + 4 + i * 12;
                let exn_tag = u64::from(t.read_u32(entry));
                let cont_num = t.read_u32(entry + 4) as usize;
                let takes_arg = t.read_u32(entry + 8) != 0;
                if exn_tag == tag {
                    t.set_activation()?;
                    t.set_unwind_cont(cont_num)?;
                    if takes_arg && !t.set_cont_param(0, value) {
                        return Err("missing parameter slot".into());
                    }
                    t.resume()?;
                    return Ok(Dispatch::Handled);
                }
            }
        }
        if !t.next_activation() {
            return Ok(Dispatch::Unhandled { tag });
        }
    }
}
