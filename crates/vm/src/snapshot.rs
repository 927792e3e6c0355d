//! Portable suspended-state capture for the VM family.
//!
//! A [`VmState`] is everything that distinguishes one suspended
//! [`VmMachine`] from another built over the same
//! [`VmProgram`](crate::VmProgram): the register file, the program
//! counter, the cost counters, the expected-results count of the
//! in-flight activation, and memory (sorted, zero bytes elided — the
//! canonical form [`Memory::snapshot`](crate::mem::Memory::snapshot)
//! produces). The *execution tier* is deliberately **not** part of the
//! state: the stepped, pre-decoded, and fused engines all run over this
//! same machine state, so a snapshot taken under one tier resumes under
//! any other — the cross-tier resume invariant the snapshot-equivalence
//! oracle checks.
//!
//! As in the sem family, only resumable points are captured: a machine
//! suspended at a `SysYield` trap or stopped at a fuel-slice boundary.
//! The compiled program, the trace sink, and the resource governor are
//! not captured (see `cmm_sem::snapshot` for the rationale; it is the
//! same here).

use crate::isa::regs;
use crate::machine::{check_arity, Cost, VmMachine, VmStatus};
use cmm_obs::TraceSink;

/// The status a captured VM state was suspended in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmSnapStatus {
    /// Trapped into the front-end run-time system at a `SysYield`.
    Suspended,
    /// `run` exhausted its fuel; the next `run` call continues.
    OutOfFuel,
}

/// The full suspended state of a VM-family machine, portable across
/// the stepped, pre-decoded, and fused tiers. See the module
/// documentation.
#[derive(Clone, PartialEq, Debug)]
pub struct VmState {
    /// The register file.
    pub regs: [u64; regs::NUM_REGS],
    /// The program counter (an index into the compiled code).
    pub pc: u32,
    /// Accumulated costs (the machine's trace clock).
    pub cost: Cost,
    /// Result values the suspended activation's caller expects.
    pub expected_results: u64,
    /// Memory as sorted `(address, byte)` pairs, zero bytes elided.
    pub mem: Vec<(u32, u8)>,
    /// The status the machine was captured in.
    pub status: VmSnapStatus,
}

impl<'p, S: TraceSink> VmMachine<'p, S> {
    /// Captures the machine's suspended state as a portable
    /// [`VmState`]. All three tiers capture the identical state at
    /// matching execution points (they share this machine).
    ///
    /// # Errors
    ///
    /// Fails (with a description) unless the machine is suspended at a
    /// `SysYield` or out of fuel.
    pub fn capture(&self) -> Result<VmState, String> {
        let status = match &self.status {
            VmStatus::Suspended => VmSnapStatus::Suspended,
            VmStatus::OutOfFuel => VmSnapStatus::OutOfFuel,
            other => return Err(format!("not at a resumable point (status {other:?})")),
        };
        Ok(VmState {
            regs: self.regs,
            pc: self.pc,
            cost: self.cost,
            expected_results: self.expected_results as u64,
            mem: self.mem.snapshot(),
            status,
        })
    }

    /// Restores a captured state into this machine, replacing its
    /// registers, pc, costs, and whole memory. The state may come from
    /// any tier of the family; this machine keeps its own tier, sink,
    /// and governor (with the usual caveat that a governor's
    /// mapped-bytes cap sees the restored — nonzero-elided — memory
    /// shape, so snapshots compose with governors only for fuel
    /// slicing).
    ///
    /// # Errors
    ///
    /// Fails if the pc is outside the compiled code or the expected
    /// result count exceeds the calling convention
    /// ([`check_arity`]); the machine is
    /// unchanged on error.
    pub fn restore(&mut self, st: &VmState) -> Result<(), String> {
        if st.pc as usize >= self.program.code.len() {
            return Err(format!(
                "pc {} out of range (program has {} instructions)",
                st.pc,
                self.program.code.len()
            ));
        }
        let expected = usize::try_from(st.expected_results)
            .map_err(|_| format!("expected_results {} out of range", st.expected_results))?;
        check_arity(0, expected)?;
        self.regs = st.regs;
        self.pc = st.pc;
        self.cost = st.cost;
        self.expected_results = expected;
        self.mem.recycle();
        for &(a, b) in &st.mem {
            self.mem.write_u8(a, b);
        }
        self.status = match st.status {
            VmSnapStatus::Suspended => VmStatus::Suspended,
            VmSnapStatus::OutOfFuel => VmStatus::OutOfFuel,
        };
        Ok(())
    }
}
