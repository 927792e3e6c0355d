//! The simulated instruction set.
//!
//! A RISC-flavoured 32-bit machine: a large register file, byte-addressed
//! little-endian memory, and one instruction per line of generated code.
//! Return addresses are instruction indices held in a link register, so
//! `Jr { rs, off }` directly expresses both ordinary returns (`jr ra+0`)
//! and the branch-table returns of Figures 3/4 (`jr ra+i`).

use cmm_ir::{BinOp, UnOp, Width};

/// A register number.
pub type Reg = u8;

/// Register conventions (a calling convention private to the C--
/// implementation, as §4.2 puts it).
pub mod regs {
    use super::Reg;

    /// Always zero.
    pub const ZERO: Reg = 0;
    /// Scratch registers for expression evaluation (caller-saved, never
    /// live across nodes).
    pub const SCRATCH0: Reg = 1;
    /// Number of scratch registers.
    pub const NUM_SCRATCH: u8 = 7;
    /// First argument/result register.
    pub const ARG0: Reg = 8;
    /// Number of argument/result registers.
    pub const NUM_ARGS: u8 = 8;
    /// First caller-saves allocatable register.
    pub const CALLER0: Reg = 16;
    /// Number of caller-saves allocatable registers.
    pub const NUM_CALLER: u8 = 8;
    /// First callee-saves allocatable register.
    pub const CALLEE0: Reg = 24;
    /// Number of callee-saves allocatable registers.
    pub const NUM_CALLEE: u8 = 8;
    /// Stack pointer.
    pub const SP: Reg = 32;
    /// Link (return-address) register.
    pub const RA: Reg = 33;
    /// First register for global C-- registers (`register bits32 ...`).
    pub const GLOBAL0: Reg = 34;
    /// Total register-file size.
    pub const NUM_REGS: usize = 64;
}

/// One machine instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// Stop the machine (only at the halt vector).
    Halt,
    /// `rd ← imm` (32-bit immediate).
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: u32,
    },
    /// `rd ← rs + imm` (address arithmetic; 32-bit wrapping).
    Addi {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
        /// Signed immediate.
        imm: i32,
    },
    /// `rd ← rs`.
    Mov {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// `rd ← ra ⊕ rb` at the given width.
    Bin {
        /// Operator.
        op: BinOp,
        /// Operand width.
        w: Width,
        /// Destination.
        rd: Reg,
        /// Left operand.
        ra: Reg,
        /// Right operand.
        rb: Reg,
    },
    /// `rd ← op ra` at the given width.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand width.
        w: Width,
        /// Destination.
        rd: Reg,
        /// Operand.
        ra: Reg,
    },
    /// `rd ← memw[rb + off]`.
    Load {
        /// Access width.
        w: Width,
        /// Destination.
        rd: Reg,
        /// Base register.
        rb: Reg,
        /// Byte offset.
        off: i32,
    },
    /// `memw[rb + off] ← rs`.
    Store {
        /// Access width.
        w: Width,
        /// Value to store.
        rs: Reg,
        /// Base register.
        rb: Reg,
        /// Byte offset.
        off: i32,
    },
    /// Branch to `target` if `rs` is zero.
    Bz {
        /// Condition register.
        rs: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional jump.
    Jmp {
        /// Target instruction index.
        target: u32,
    },
    /// `pc ← rs + off` — register-indirect jump; the form of every
    /// return, including branch-table returns.
    Jr {
        /// Register holding an instruction index (or an image code
        /// address, which the machine translates).
        rs: Reg,
        /// Slot offset in instructions.
        off: i32,
    },
    /// Direct call: `ra ← pc + 1; pc ← target`.
    Call {
        /// Target instruction index.
        target: u32,
    },
    /// Indirect call through a register (image code addresses are
    /// translated).
    CallR {
        /// Register holding the target.
        rs: Reg,
    },
    /// Trap into the front-end run-time system (the compiled form of a
    /// call to `yield` reaching its suspension point).
    SysYield,
}

impl Inst {
    /// True for control-transfer instructions (the cost model counts
    /// them as branches).
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::Bz { .. }
                | Inst::Jmp { .. }
                | Inst::Jr { .. }
                | Inst::Call { .. }
                | Inst::CallR { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventions_do_not_overlap() {
        let ranges = [
            (regs::SCRATCH0, regs::NUM_SCRATCH),
            (regs::ARG0, regs::NUM_ARGS),
            (regs::CALLER0, regs::NUM_CALLER),
            (regs::CALLEE0, regs::NUM_CALLEE),
        ];
        for (i, &(s1, n1)) in ranges.iter().enumerate() {
            for &(s2, n2) in &ranges[i + 1..] {
                assert!(
                    s1 + n1 <= s2 || s2 + n2 <= s1,
                    "overlap: {s1}+{n1} vs {s2}+{n2}"
                );
            }
        }
        assert!((regs::SP as usize) < regs::NUM_REGS);
    }

    #[test]
    fn branch_classification() {
        assert!(Inst::Jmp { target: 0 }.is_branch());
        assert!(Inst::Jr {
            rs: regs::RA,
            off: 2
        }
        .is_branch());
        assert!(!Inst::Li { rd: 1, imm: 0 }.is_branch());
    }
}
