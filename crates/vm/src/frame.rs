//! Frame layouts and the tables the back end deposits for the run-time
//! system.
//!
//! §2: run-time stack unwinding "restores the values of callee-saves
//! registers as it unwinds the stack, typically by interpreting tables
//! deposited by the backend". [`ProcMeta`] and [`CallSiteMeta`] are those
//! tables.

use cmm_ir::Name;
use std::collections::BTreeMap;

/// Where a C-- variable lives in generated code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Loc {
    /// A caller-saves register (variable not live across any call).
    CallerReg(u8),
    /// A callee-saves register (variable promoted by a `CalleeSaves`
    /// node; preserved by callees and restored by stack walking, but
    /// killed by stack cutting).
    CalleeReg(u8),
    /// A slot in the activation record, as a byte offset from the frame
    /// base (variables live across calls that may cut, or register-file
    /// overflow).
    Frame(u32),
}

/// Per-procedure layout and unwind table.
#[derive(Clone, Debug)]
pub struct ProcMeta {
    /// The procedure's name.
    pub name: Name,
    /// Entry instruction index.
    pub entry: u32,
    /// One past the last instruction of the procedure.
    pub end: u32,
    /// Frame size in bytes.
    pub frame_bytes: u32,
    /// Byte offset of the saved return address.
    pub ra_offset: u32,
    /// Saved callee-saves registers: (register, byte offset).
    pub saved_callee: Vec<(u8, u32)>,
    /// Continuation slots: (name, byte offset of the 2-word (pc, sp)
    /// pair).
    pub cont_slots: Vec<(Name, u32)>,
    /// Where each variable lives.
    pub var_locs: BTreeMap<Name, Loc>,
    /// Number of formal parameters.
    pub arity: usize,
}

impl ProcMeta {
    /// True if `pc` lies within this procedure's code.
    pub fn contains(&self, pc: u32) -> bool {
        pc >= self.entry && pc < self.end
    }
}

/// Per-call-site unwind information, keyed by the return address the
/// call leaves in the link register (which is also the base of the
/// branch table, if any).
#[derive(Clone, Debug, Default)]
pub struct CallSiteMeta {
    /// Index of the containing procedure in `VmProgram::proc_meta`.
    pub proc: usize,
    /// Number of `also returns to` alternates (= branch-table length).
    pub alternates: u32,
    /// Code addresses of the `also unwinds to` continuations, in
    /// annotation order (the order `SetUnwindCont` indexes).
    pub unwind_pcs: Vec<u32>,
    /// Parameter counts of the unwind continuations.
    pub unwind_params: Vec<usize>,
    /// Whether the call site is annotated `also aborts`.
    pub aborts: bool,
    /// Image addresses of the `also descriptor` data blocks.
    pub descriptors: Vec<u32>,
    /// Results the normal return delivers (parameter count of the
    /// normal-return point).
    pub normal_params: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_meta_contains() {
        let m = ProcMeta {
            name: Name::from("f"),
            entry: 10,
            end: 20,
            frame_bytes: 16,
            ra_offset: 12,
            saved_callee: vec![],
            cont_slots: vec![],
            var_locs: BTreeMap::new(),
            arity: 0,
        };
        assert!(m.contains(10));
        assert!(m.contains(19));
        assert!(!m.contains(20));
        assert!(!m.contains(9));
    }
}
