//! The fast VM tiers' instruction stream and its one step loop.
//!
//! [`DecodedCode`] is a one-time lowering of the assembled [`Inst`]
//! stream into a dense array of fixed-size [`DInst`] words whose opcode
//! is one flat enum: the hot match becomes a single jump, the common
//! infallible 32-bit operators get their own opcodes (no nested
//! `BinOp`/`Width` dispatch, no `Result` plumbing), and the branch/cost
//! classification is folded into the opcode itself instead of being a
//! second match per retired instruction.
//!
//! [`DecodedCode::decode`] emits plain slots only (window length 1).
//! The fusion pass ([`crate::fuse`]) then overwrites the heads of short
//! instruction sequences with *window* opcodes that retire the whole
//! sequence in one dispatch. Both are the same type, run by the same
//! loop (`VmMachine::run_code`): `vm-decoded` is that loop over a stream
//! with no windows, `vm-fused` the same loop over a fused one. The
//! stream names its tier in [`DecodedCode::tier`].
//!
//! The lowering is index-preserving: `insts[pc]` decodes `code[pc]`, so
//! every pc-derived structure — branch-table return offsets (`jr ra+i`),
//! `call_sites` keyed by return address, `code_map`, `proc_at_pc` — is
//! valid unchanged under every tier, and the front-end run-time system
//! (`VmThread`) never needs to know which tier is driving. Rare or
//! fallible forms (`%divu` and friends, width-polymorphic unaries) keep
//! a `*Slow` opcode that re-reads the original instruction at the same
//! index, so their exact error strings and semantics are inherited from
//! the one canonical implementation rather than duplicated.

use crate::codegen::VmProgram;
use crate::isa::{regs, Inst};
use crate::machine::{name_at, Cost, VmMachine, VmStatus};
use cmm_chaos::EngineId;
use cmm_ir::expr::sign_extend;
use cmm_ir::{BinOp, Width};
use cmm_obs::{Event, TraceSink};

/// A flat opcode: one variant per plain execution path, then one per
/// fused window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum DOp {
    /// Stop the machine (only meaningful at the halt vector).
    Halt,
    /// `a ← imm`.
    Li,
    /// `a ← b + imm` (32-bit wrapping, zero-extended).
    Addi,
    /// `a ← b`.
    Mov,
    /// `a ← b + c` at 32 bits.
    Add32,
    /// `a ← b - c` at 32 bits.
    Sub32,
    /// `a ← b * c` at 32 bits.
    Mul32,
    /// `a ← b & c` at 32 bits.
    And32,
    /// `a ← b | c` at 32 bits.
    Or32,
    /// `a ← b ^ c` at 32 bits.
    Xor32,
    /// `a ← (b == c)` on 32-bit operands.
    Eq32,
    /// `a ← (b != c)` on 32-bit operands.
    Ne32,
    /// `a ← (b < c)` unsigned, 32-bit operands.
    LtU32,
    /// `a ← (b <= c)` unsigned, 32-bit operands.
    LeU32,
    /// `a ← (b > c)` unsigned, 32-bit operands.
    GtU32,
    /// `a ← (b >= c)` unsigned, 32-bit operands.
    GeU32,
    /// `a ← (b < c)` signed, 32-bit operands.
    LtS32,
    /// `a ← (b <= c)` signed, 32-bit operands.
    LeS32,
    /// `a ← (b > c)` signed, 32-bit operands.
    GtS32,
    /// `a ← (b >= c)` signed, 32-bit operands.
    GeS32,
    /// Any other `Inst::Bin`: re-read the original instruction.
    BinSlow,
    /// Any `Inst::Un`: re-read the original instruction.
    UnSlow,
    /// `a ← mem8[b + imm]`.
    Load8,
    /// `a ← mem16[b + imm]`.
    Load16,
    /// `a ← mem32[b + imm]`.
    Load32,
    /// `a ← mem64[b + imm]`.
    Load64,
    /// `mem8[b + imm] ← a`.
    Store8,
    /// `mem16[b + imm] ← a`.
    Store16,
    /// `mem32[b + imm] ← a`.
    Store32,
    /// `mem64[b + imm] ← a`.
    Store64,
    /// Branch to `imm` if `a` is zero.
    Bz,
    /// Unconditional jump to `imm`.
    Jmp,
    /// `pc ← a + imm` (register-indirect; code addresses translated).
    Jr,
    /// Direct call: `ra ← pc + 1; pc ← imm`.
    Call,
    /// Indirect call through register `a`.
    CallR,
    /// Trap into the front-end run-time system.
    SysYield,
    // --- fused windows ---
    //
    // Each retires `n > 1` original instructions in one dispatch. Only
    // the fusion pass forms them; `decode` never does.
    /// Fused 32-bit compare (`sel`) + `bz`: `a ← cmp(b, c); if a == 0
    /// goto imm2`. Window length 2.
    CmpBz,
    /// Fused `li c, imm` + 32-bit compare (`sel`, right operand `c`) +
    /// `bz a, imm2`. Window length 3.
    LiCmpBz,
    /// Fused ALU op (`sel` ∈ li/addi/mov/fast-bin32) + `jmp imm2`.
    /// Window length 2.
    AluJmp,
    /// Fused `addi a, b, imm` + `st32 c, imm2(d)` (most often the frame
    /// push `addi sp, sp, -frame; st32 ra, off(sp)`, where `d = a`; the
    /// store base may be any register). Window length 2.
    AddiStore32,
    /// Fused `mov a, b` + `call imm2` (argument shuffle feeding a
    /// direct call). Window length 2.
    MovCall,
    /// Fused return epilogue: `ld32 a, imm(b); addi b, b, imm2;
    /// jr a+d` (in the generated code `b` = sp, `a` = ra, `d` the
    /// branch-table row). Window length 3.
    RetJr,
    /// Fused stack cut: `ld32 a, 0(b); ld32 sp, 4(b); jr a+0` — the
    /// §5.4 "restores 2 pointers" sequence. Window length 3.
    CutJr,
    // --- generic straight-line pairs ---
    //
    // Two adjacent independent ALU / 32-bit memory operations packed
    // into one dispatch. Slots execute strictly in order over the
    // original registers, so operand aliasing between the two halves
    // behaves exactly as on the plain stream. All are window length 2.
    /// `mov a, b; mov c, d`.
    MovMov,
    /// `mov a, b; li c, imm2`.
    MovLi,
    /// `mov a, b; ld32 c, imm2(d)`.
    MovLoad32,
    /// `li a, imm; mov c, d`.
    LiMov,
    /// `li a, imm; st32 c, imm2(d)`.
    LiStore32,
    /// `li a, imm; bin32 d, b, c` (`sel` names the 32-bit binary op).
    LiBin32,
    /// `ld32 a, imm(b); mov c, d`.
    Load32Mov,
    /// `ld32 a, imm(b); ld32 c, imm2(d)`.
    Load32Load32,
    /// `ld32 a, imm(b); st32 c, imm2(d)`.
    Load32Store32,
    /// `st32 a, imm(b); mov c, d`.
    Store32Mov,
    /// `st32 a, imm(b); li c, imm2`.
    Store32Li,
    /// `st32 a, imm(b); st32 c, imm2(d)`.
    Store32Store32,
    /// `bin32 a, b, c (sel); st32 a, imm2(d)` — compute then store the
    /// result (store value must be the ALU destination).
    Bin32Store32,
    /// `bin32 a, b, c (sel); mov d, a` — compute then copy the result
    /// (move source must be the ALU destination).
    Bin32Mov,
    /// `mov a, b; addi c, d, imm2`.
    MovAddi,
    /// `st32 a, imm(b); ld32 c, imm2(d)`.
    Store32Load32,
    /// `addi a, b, imm; jr c + d` — frame pop feeding an indirect jump
    /// (the jump offset must fit `d`'s byte).
    AddiJr,
    // Wider windows (length 3 to 5). Extra register operands beyond
    // `a`–`d` are packed into the immediate words, one byte per
    // register, little-endian.
    /// `mov a, b; mov c, d; mov imm[0], imm[1]` — a run of three moves.
    Mov3,
    /// `mov a, b; mov c, d; mov imm[0], imm[1]; mov imm2[0], imm2[1]` —
    /// a run of four moves.
    Mov4,
    /// `ld32 a, imm(b); li c, imm2; bin32 d, a, c` (`sel` names the
    /// 32-bit binary op; its operands must be the two just-defined
    /// registers, in order).
    Load32LiBin32,
    /// `mov a, b; mov c, d; call imm2` — argument shuffle feeding a
    /// call.
    MovMovCall,
    /// `ld32 a, imm(b); mov c, d; call imm2` — reload plus argument
    /// shuffle feeding a call.
    Load32MovCall,
    /// A run of `n` moves (`5 ≤ n ≤ 255`), register pairs held in the
    /// [`DecodedCode::mov_runs`] side table starting at index `imm`
    /// (destination in the low byte, source in the high byte). The long
    /// continuation argument shuffles CPS lowering produces.
    MovRun,
    /// `li a, imm; bin32 d, b, c; mov imm2[0], d` — compute into a
    /// temporary and copy the result home. The move source must be the
    /// ALU destination. Window length 3.
    LiBin32Mov,
    /// As [`DOp::LiBin32Mov`] plus a trailing `jmp` — the counted-loop
    /// tail `x = x op k; goto head`. The move destination packs into
    /// the top byte of `imm2`, above the 24-bit jump target. Window
    /// length 4.
    LiBin32MovJmp,
    /// `ld32 a, lo16(imm)(b); ld32 c, hi16(imm)(d); cmp e, a, c;
    /// bz e, imm2[0..24]` — the counted-loop header: reload the counter
    /// and the bound, compare, exit if done. The compare destination
    /// packs into the top byte of `imm2`, above the 24-bit branch
    /// target. Window length 4.
    Load32Load32CmpBz,
    /// The whole `slot op= k; goto head` loop back-edge:
    /// `ld32 a, lo16(imm)(b); li c, imm2[3]; bin32 d, a, c;
    /// st32 d, hi16(imm)(b); jmp imm2[0..24]`. Both offsets must fit
    /// sixteen bits, the literal one byte, the target twenty-four, and
    /// the store must write the ALU result back through the load's base
    /// register. Window length 5.
    Load32LiBin32Store32Jmp,
    /// The two-argument reload-and-shuffle call:
    /// `ld32 a, lo16(imm)(b); mov imm2[2], a; ld32 c, hi16(imm)(d);
    /// mov imm2[3], c; call imm2[0..16]`. Each move must copy the
    /// just-loaded register; offsets and the call target must fit
    /// sixteen bits. Window length 5.
    Load32MovLoad32MovCall,
    /// `bin32 a, b, c (sel); li d, imm2` — compute, then materialise an
    /// independent constant. Window length 2.
    Bin32Li,
    /// `ld32 a, lo16(imm)(b); addi c, d, imm2; jmp hi16(imm)` — reload,
    /// adjust a pointer, and take the block's unconditional exit.
    /// Window length 3.
    Load32AddiJmp,
    /// A run of `2 ≤ rows ≤ 51` consecutive record write-out steps
    /// (each the five-instruction write row of [`FieldStep`]), rows
    /// held in the [`DecodedCode::field_runs`] side table starting at
    /// index `imm`. The CPS record build emits one step per saved live
    /// variable; the whole build retires in one dispatch. Window length
    /// `5 * rows`.
    WriteRun,
    /// A run of `2 ≤ rows ≤ 63` consecutive record read-in steps (each
    /// the four-instruction read row of [`FieldStep`]), rows held in
    /// the [`DecodedCode::field_runs`] side table starting at index
    /// `imm`. The continuation entry restores every saved live
    /// variable; the whole restore retires in one dispatch. Window
    /// length `4 * rows`.
    ReadRun,
    /// `mov a, b; bin32 d, c, imm[0]; mov imm2[0], d` — shuffle an
    /// argument, compute into a temporary, copy the result home. The
    /// move source must be the ALU destination. Window length 3.
    MovBin32Mov,
}

/// One instruction word: flat opcode, the selecting plain opcode for
/// polymorphic windows (`sel`), four register/row operands, the window
/// length `n`, and two immediates. Sixteen bytes.
#[derive(Clone, Copy, Debug)]
pub struct DInst {
    /// The opcode: plain, or a window head.
    pub op: DOp,
    /// For polymorphic windows ([`DOp::CmpBz`]/[`DOp::AluJmp`]/…): the
    /// plain opcode of the selected operation. For plain slots: the
    /// slot's own opcode.
    pub sel: DOp,
    /// First operand (destination, or stored/tested source).
    pub a: u8,
    /// Second operand (source/base register).
    pub b: u8,
    /// Third operand (second source, or stored value register).
    pub c: u8,
    /// Fourth operand ([`DOp::RetJr`]: the `jr` offset / branch-table
    /// row).
    pub d: u8,
    /// Window length: how many original instructions this word retires
    /// (1 for plain slots).
    pub n: u8,
    /// First immediate: value, byte offset, or target instruction index.
    pub imm: u32,
    /// Second immediate (window target, or second offset).
    pub imm2: u32,
}

/// One row of a [`DOp::WriteRun`] or [`DOp::ReadRun`] window: the
/// pre-decoded operands of one record-field step. For a write row the
/// fields name `st32 a, off1(b); mov a, c; ld32 e, off2(d); li g, k;
/// bin32(op) h, e, g`; for a read row `li a, k; bin32(op) d, b, c;
/// ld32 e, off1(d); mov g, e`.
#[derive(Clone, Copy, Debug)]
pub struct FieldStep {
    /// The row's 32-bit binary opcode (the field-pointer arithmetic).
    pub op: DOp,
    /// First register operand (see the per-kind layout above).
    pub a: u8,
    /// Second register operand.
    pub b: u8,
    /// Third register operand.
    pub c: u8,
    /// Fourth register operand.
    pub d: u8,
    /// Fifth register operand (the loaded register).
    pub e: u8,
    /// Sixth register operand (write: the `li` destination; read: the
    /// move destination).
    pub g: u8,
    /// Seventh register operand (write: the ALU destination; unused
    /// for read rows).
    pub h: u8,
    /// First byte offset.
    pub off1: u32,
    /// Second byte offset (write rows only).
    pub off2: u32,
    /// The literal.
    pub k: u32,
}

/// The instruction stream of a whole [`VmProgram`] for the fast VM
/// tiers. Index-preserving: `insts[pc]` corresponds to `code[pc]`, and
/// every interior slot of a fused window keeps its plain opcode.
#[derive(Clone, Debug)]
pub struct DecodedCode {
    /// The dense instruction array, index-aligned with the source code.
    pub insts: Vec<DInst>,
    /// Register pairs for [`DOp::MovRun`] windows (destination in the
    /// low byte, source in the high byte), in execution order.
    pub mov_runs: Vec<u16>,
    /// Rows for [`DOp::WriteRun`] and [`DOp::ReadRun`] windows, in
    /// execution order.
    pub field_runs: Vec<FieldStep>,
    /// The tier this stream was built for: [`EngineId::VmDecoded`] by
    /// [`DecodedCode::decode`], [`EngineId::VmFused`] by the fusion
    /// pass, whether or not it formed a window.
    pub tier: EngineId,
}

fn load_op(w: Width) -> DOp {
    match w {
        Width::W8 => DOp::Load8,
        Width::W16 => DOp::Load16,
        Width::W32 => DOp::Load32,
        Width::W64 => DOp::Load64,
    }
}

fn store_op(w: Width) -> DOp {
    match w {
        Width::W8 => DOp::Store8,
        Width::W16 => DOp::Store16,
        Width::W32 => DOp::Store32,
        Width::W64 => DOp::Store64,
    }
}

/// The specialized opcode for an infallible 32-bit binary operator, if
/// one exists.
fn bin32_op(op: BinOp) -> Option<DOp> {
    Some(match op {
        BinOp::Add => DOp::Add32,
        BinOp::Sub => DOp::Sub32,
        BinOp::Mul => DOp::Mul32,
        BinOp::And => DOp::And32,
        BinOp::Or => DOp::Or32,
        BinOp::Xor => DOp::Xor32,
        BinOp::Eq => DOp::Eq32,
        BinOp::Ne => DOp::Ne32,
        BinOp::LtU => DOp::LtU32,
        BinOp::LeU => DOp::LeU32,
        BinOp::GtU => DOp::GtU32,
        BinOp::GeU => DOp::GeU32,
        BinOp::LtS => DOp::LtS32,
        BinOp::LeS => DOp::LeS32,
        BinOp::GtS => DOp::GtS32,
        BinOp::GeS => DOp::GeS32,
        _ => return None,
    })
}

impl DecodedCode {
    /// Lowers the whole instruction stream into plain slots. Pure
    /// function of the program; runs once per execution engine, not per
    /// step.
    pub fn decode(program: &VmProgram) -> DecodedCode {
        DecodedCode {
            insts: program.code.iter().map(decode_inst).collect(),
            mov_runs: Vec::new(),
            field_runs: Vec::new(),
            tier: EngineId::VmDecoded,
        }
    }
}

fn decode_inst(inst: &Inst) -> DInst {
    let d = |op, a, b, c, imm| DInst {
        op,
        sel: op,
        a,
        b,
        c,
        d: 0,
        n: 1,
        imm,
        imm2: 0,
    };
    match *inst {
        Inst::Halt => d(DOp::Halt, 0, 0, 0, 0),
        Inst::Li { rd, imm } => d(DOp::Li, rd, 0, 0, imm),
        Inst::Addi { rd, rs, imm } => d(DOp::Addi, rd, rs, 0, imm as u32),
        Inst::Mov { rd, rs } => d(DOp::Mov, rd, rs, 0, 0),
        Inst::Bin { op, w, rd, ra, rb } => match (w, bin32_op(op)) {
            (Width::W32, Some(fast)) => d(fast, rd, ra, rb, 0),
            _ => d(DOp::BinSlow, rd, ra, rb, 0),
        },
        Inst::Un {
            op: _,
            w: _,
            rd,
            ra,
        } => d(DOp::UnSlow, rd, ra, 0, 0),
        Inst::Load { w, rd, rb, off } => d(load_op(w), rd, rb, 0, off as u32),
        Inst::Store { w, rs, rb, off } => d(store_op(w), rs, rb, 0, off as u32),
        Inst::Bz { rs, target } => d(DOp::Bz, rs, 0, 0, target),
        Inst::Jmp { target } => d(DOp::Jmp, 0, 0, 0, target),
        Inst::Jr { rs, off } => d(DOp::Jr, rs, 0, 0, off as u32),
        Inst::Call { target } => d(DOp::Call, 0, 0, 0, target),
        Inst::CallR { rs } => d(DOp::CallR, rs, 0, 0, 0),
        Inst::SysYield => d(DOp::SysYield, 0, 0, 0, 0),
    }
}

const M32: u64 = 0xffff_ffff;

fn s32(v: u64) -> i64 {
    sign_extend(v, Width::W32)
}

/// One 32-bit binary ALU step for the run-window row helpers (the
/// opcode domain of the fusion pass's `is_bin32`).
fn bin32_eval(op: DOp, x: u64, y: u64) -> u64 {
    match op {
        DOp::Add32 => x.wrapping_add(y) & M32,
        DOp::Sub32 => x.wrapping_sub(y) & M32,
        DOp::Mul32 => x.wrapping_mul(y) & M32,
        DOp::And32 => x & y & M32,
        DOp::Or32 => (x | y) & M32,
        DOp::Xor32 => (x ^ y) & M32,
        DOp::Eq32 => u64::from(x & M32 == y & M32),
        DOp::Ne32 => u64::from(x & M32 != y & M32),
        DOp::LtU32 => u64::from(x & M32 < y & M32),
        DOp::LeU32 => u64::from(x & M32 <= y & M32),
        DOp::GtU32 => u64::from(x & M32 > y & M32),
        DOp::GeU32 => u64::from(x & M32 >= y & M32),
        DOp::LtS32 => u64::from(s32(x) < s32(y)),
        DOp::LeS32 => u64::from(s32(x) <= s32(y)),
        DOp::GtS32 => u64::from(s32(x) > s32(y)),
        DOp::GeS32 => u64::from(s32(x) >= s32(y)),
        _ => unreachable!("run rows only select 32-bit binary opcodes"),
    }
}

impl<S: TraceSink> VmMachine<'_, S> {
    /// Executes the rows of a [`DOp::WriteRun`] window. `base` is the
    /// cost at the window head (head dispatch already charged); the
    /// caller charges the rows' totals arithmetically on success, so
    /// the hot dispatch loop never leaks `cost`'s address into this
    /// call. Returns `false` (with pc/cost/status flushed to the
    /// plain-stream trip point) if a governor trip ended the slice at
    /// one of the rows' stores. Kept out of line so the dispatch loop's
    /// hot arms stay compact.
    #[inline(never)]
    fn write_run_rows(&mut self, steps: &[FieldStep], mut base: Cost, pc: u32) -> bool {
        const RM: usize = crate::isa::regs::NUM_REGS - 1;
        for (i, s) in steps.iter().enumerate() {
            let addr = (self.regs[s.b as usize & RM] as u32).wrapping_add(s.off1);
            self.mem
                .write_wide(Width::W32, addr, self.regs[s.a as usize & RM]);
            if let Some(g) = self.governor {
                let bytes = self.mem.mapped_bytes();
                if let Some(trip) = g.check_memory(bytes) {
                    // Row i's store is the (5i + 1)-th instruction of
                    // the window; reconstruct the plain-stream
                    // observation at that point.
                    base.instructions += 5 * i as u64;
                    base.stores += i as u64 + 1;
                    base.loads += i as u64;
                    self.pc = pc + 5 * i as u32;
                    self.cost = base;
                    self.trip_limit(trip, bytes as u64);
                    return false;
                }
            }
            self.regs[s.a as usize & RM] = self.regs[s.c as usize & RM];
            let addr2 = (self.regs[s.d as usize & RM] as u32).wrapping_add(s.off2);
            self.regs[s.e as usize & RM] = self.mem.read_wide(Width::W32, addr2);
            self.regs[s.g as usize & RM] = u64::from(s.k);
            self.regs[s.h as usize & RM] = bin32_eval(
                s.op,
                self.regs[s.e as usize & RM],
                self.regs[s.g as usize & RM],
            );
        }
        true
    }

    /// Executes the rows of a [`DOp::ReadRun`] window. No governed
    /// transitions occur inside (loads never trip the governor), so
    /// the caller charges all cost arithmetically and this never ends
    /// the slice. Kept out of line so the dispatch loop's hot arms
    /// stay compact.
    #[inline(never)]
    fn read_run_rows(&mut self, steps: &[FieldStep]) {
        const RM: usize = crate::isa::regs::NUM_REGS - 1;
        for s in steps {
            self.regs[s.a as usize & RM] = u64::from(s.k);
            self.regs[s.d as usize & RM] = bin32_eval(
                s.op,
                self.regs[s.b as usize & RM],
                self.regs[s.c as usize & RM],
            );
            let addr = (self.regs[s.d as usize & RM] as u32).wrapping_add(s.off1);
            self.regs[s.e as usize & RM] = self.mem.read_wide(Width::W32, addr);
            self.regs[s.g as usize & RM] = self.regs[s.e as usize & RM];
        }
    }

    /// Runs up to `fuel` instructions over `code`, decoded or fused.
    /// Exactly the semantics (status transitions, costs, error strings,
    /// trace events, governor trips) of the reference
    /// [`VmMachine::run`]/`step` loop, with the program counter and
    /// cost counters held in locals, one flat match per dispatch, and a
    /// whole window retired per dispatch where the fusion pass formed
    /// one. Costs are charged per original instruction; an exit inside
    /// a window names the original instruction that caused it.
    pub(crate) fn run_code(&mut self, code: &DecodedCode, fuel: u64) -> VmStatus {
        if matches!(self.status, VmStatus::OutOfFuel) {
            self.status = VmStatus::Running;
        }
        if !matches!(self.status, VmStatus::Running) {
            return self.status.clone();
        }
        let prog = self.program;
        let insts = code.insts.as_slice();
        let mut pc = self.pc;
        let mut cost = self.cost;
        // Register operands come from the assembler, which only emits
        // indices below NUM_REGS (= 64, a power of two): masking is a
        // no-op that lets the compiler drop the bounds checks on the
        // register file.
        const RM: usize = crate::isa::regs::NUM_REGS - 1;
        macro_rules! r {
            ($i:expr) => {
                self.regs[$i as usize & RM]
            };
        }
        // Every exit must flush the pc of the *original* instruction
        // that caused it (mid-window exits name the interior pc, so the
        // flushed state is the plain stream's) and the cost.
        macro_rules! flush {
            ($at:expr, $status:expr) => {{
                self.pc = $at;
                self.cost = cost;
                self.status = $status;
                return self.status.clone();
            }};
        }
        // Governor checks at the same transition points as `step`:
        // mapped-page bytes after a store, the stack floor at a call.
        macro_rules! govern_mem {
            ($at:expr) => {
                if let Some(g) = self.governor {
                    let bytes = self.mem.mapped_bytes();
                    if let Some(trip) = g.check_memory(bytes) {
                        self.pc = $at;
                        self.cost = cost;
                        self.trip_limit(trip, bytes as u64);
                        return self.status.clone();
                    }
                }
            };
        }
        macro_rules! govern_sp {
            ($at:expr) => {
                if let Some(g) = self.governor {
                    let sp = self.regs[regs::SP as usize];
                    if let Some(trip) = g.check_sp(sp) {
                        self.pc = $at;
                        self.cost = cost;
                        self.trip_limit(trip, sp);
                        return self.status.clone();
                    }
                }
            };
        }
        // One ALU step for the polymorphic windows, selected by the
        // plain opcode recorded in `sel`.
        macro_rules! alu {
            ($sel:expr, $a:expr, $b:expr, $c:expr, $imm:expr) => {
                match $sel {
                    DOp::Li => r!($a) = u64::from($imm),
                    DOp::Addi => {
                        let v = (r!($b) as u32).wrapping_add($imm);
                        r!($a) = u64::from(v);
                    }
                    DOp::Mov => r!($a) = r!($b),
                    DOp::Add32 => r!($a) = r!($b).wrapping_add(r!($c)) & M32,
                    DOp::Sub32 => r!($a) = r!($b).wrapping_sub(r!($c)) & M32,
                    DOp::Mul32 => r!($a) = r!($b).wrapping_mul(r!($c)) & M32,
                    DOp::And32 => r!($a) = r!($b) & r!($c) & M32,
                    DOp::Or32 => r!($a) = (r!($b) | r!($c)) & M32,
                    DOp::Xor32 => r!($a) = (r!($b) ^ r!($c)) & M32,
                    DOp::Eq32 => r!($a) = u64::from(r!($b) & M32 == r!($c) & M32),
                    DOp::Ne32 => r!($a) = u64::from(r!($b) & M32 != r!($c) & M32),
                    DOp::LtU32 => r!($a) = u64::from(r!($b) & M32 < r!($c) & M32),
                    DOp::LeU32 => r!($a) = u64::from(r!($b) & M32 <= r!($c) & M32),
                    DOp::GtU32 => r!($a) = u64::from(r!($b) & M32 > r!($c) & M32),
                    DOp::GeU32 => r!($a) = u64::from(r!($b) & M32 >= r!($c) & M32),
                    DOp::LtS32 => r!($a) = u64::from(s32(r!($b)) < s32(r!($c))),
                    DOp::LeS32 => r!($a) = u64::from(s32(r!($b)) <= s32(r!($c))),
                    DOp::GtS32 => r!($a) = u64::from(s32(r!($b)) > s32(r!($c))),
                    DOp::GeS32 => r!($a) = u64::from(s32(r!($b)) >= s32(r!($c))),
                    _ => unreachable!("fusion only selects ALU opcodes"),
                }
            };
        }
        let mut remaining = fuel;
        while remaining > 0 {
            // Each arm reads the fields it uses where it uses them.
            // Copying all nine out up front kept them live across the
            // match and pushed the cost counters out of registers, which
            // made a plain dispatch about 1.5 times as slow.
            let Some(i) = insts.get(pc as usize) else {
                flush!(pc, VmStatus::Error(format!("pc {pc} out of range")));
            };
            // Every dispatch pays for its first instruction here;
            // window arms claim the rest of their window with `win!`
            // before any effect.
            remaining -= 1;
            cost.instructions += 1;
            let mut next = pc + 1;
            // Claims the remaining `w - 1` fuel of a `w`-wide window.
            // If the slice ends inside the window, gives back the head
            // charge and finishes the slice on the reference `step`, one
            // original instruction at a time, so partial-window state is
            // exactly the plain stream's. Charging the interior slots'
            // `cost.instructions` is left to the arm, so governor trips
            // observe the same cost the plain stream would at the same
            // transition.
            macro_rules! win {
                ($w:expr) => {{
                    win!($w, jump);
                    next = pc + $w;
                }};
                // Arms that always transfer control skip the
                // fall-through `next` assignment.
                ($w:expr, jump) => {{
                    if remaining < $w - 1 {
                        cost.instructions -= 1;
                        self.pc = pc;
                        self.cost = cost;
                        return self.run_steps(remaining + 1);
                    }
                    remaining -= $w - 1;
                }};
            }
            match i.op {
                // --- plain slots (window length 1) ---
                DOp::Halt => {
                    if pc == 0 {
                        let results = (0..self.expected_results)
                            .map(|k| self.regs[regs::ARG0 as usize + k])
                            .collect();
                        flush!(pc, VmStatus::Halted(results));
                    }
                    flush!(
                        pc,
                        VmStatus::Error(format!("abnormal top-level return (pc {pc})"))
                    );
                }
                DOp::Li => r!(i.a) = u64::from(i.imm),
                DOp::Addi => {
                    let v = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = u64::from(v);
                }
                DOp::Mov => r!(i.a) = r!(i.b),
                DOp::Add32 => r!(i.a) = r!(i.b).wrapping_add(r!(i.c)) & M32,
                DOp::Sub32 => r!(i.a) = r!(i.b).wrapping_sub(r!(i.c)) & M32,
                DOp::Mul32 => r!(i.a) = r!(i.b).wrapping_mul(r!(i.c)) & M32,
                DOp::And32 => r!(i.a) = r!(i.b) & r!(i.c) & M32,
                DOp::Or32 => r!(i.a) = (r!(i.b) | r!(i.c)) & M32,
                DOp::Xor32 => r!(i.a) = (r!(i.b) ^ r!(i.c)) & M32,
                DOp::Eq32 => r!(i.a) = u64::from(r!(i.b) & M32 == r!(i.c) & M32),
                DOp::Ne32 => r!(i.a) = u64::from(r!(i.b) & M32 != r!(i.c) & M32),
                DOp::LtU32 => r!(i.a) = u64::from(r!(i.b) & M32 < r!(i.c) & M32),
                DOp::LeU32 => r!(i.a) = u64::from(r!(i.b) & M32 <= r!(i.c) & M32),
                DOp::GtU32 => r!(i.a) = u64::from(r!(i.b) & M32 > r!(i.c) & M32),
                DOp::GeU32 => r!(i.a) = u64::from(r!(i.b) & M32 >= r!(i.c) & M32),
                DOp::LtS32 => r!(i.a) = u64::from(s32(r!(i.b)) < s32(r!(i.c))),
                DOp::LeS32 => r!(i.a) = u64::from(s32(r!(i.b)) <= s32(r!(i.c))),
                DOp::GtS32 => r!(i.a) = u64::from(s32(r!(i.b)) > s32(r!(i.c))),
                DOp::GeS32 => r!(i.a) = u64::from(s32(r!(i.b)) >= s32(r!(i.c))),
                DOp::BinSlow => {
                    // Rare/fallible operator: defer to the canonical
                    // evaluator on the original instruction word.
                    let Inst::Bin { op, w, rd, ra, rb } = prog.code[pc as usize] else {
                        unreachable!("decode preserved instruction indices");
                    };
                    match op.eval(w, r!(ra), r!(rb)) {
                        Ok((v, _)) => r!(rd) = v,
                        Err(e) => flush!(
                            pc,
                            VmStatus::Error(format!("fault at pc {pc}{}: {e}", prog.locate(pc)))
                        ),
                    }
                }
                DOp::UnSlow => {
                    let Inst::Un { op, w, rd, ra } = prog.code[pc as usize] else {
                        unreachable!("decode preserved instruction indices");
                    };
                    let (v, _) = op.eval(w, r!(ra));
                    r!(rd) = v;
                }
                DOp::Load8 => {
                    cost.loads += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W8, addr);
                }
                DOp::Load16 => {
                    cost.loads += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W16, addr);
                }
                DOp::Load32 => {
                    cost.loads += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                }
                DOp::Load64 => {
                    cost.loads += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W64, addr);
                }
                DOp::Store8 => {
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    self.mem.write_wide(Width::W8, addr, r!(i.a));
                    govern_mem!(pc);
                }
                DOp::Store16 => {
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    self.mem.write_wide(Width::W16, addr, r!(i.a));
                    govern_mem!(pc);
                }
                DOp::Store32 => {
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    self.mem.write_wide(Width::W32, addr, r!(i.a));
                    govern_mem!(pc);
                }
                DOp::Store64 => {
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    self.mem.write_wide(Width::W64, addr, r!(i.a));
                    govern_mem!(pc);
                }
                DOp::Bz => {
                    cost.branches += 1;
                    if r!(i.a) == 0 {
                        next = i.imm;
                    }
                }
                DOp::Jmp => {
                    cost.branches += 1;
                    if S::ENABLED {
                        self.emit_jmp_site(cost.total(), pc, i.imm);
                    }
                    next = i.imm;
                }
                DOp::Jr => {
                    cost.branches += 1;
                    match self.code_target(r!(i.a)) {
                        Ok(base) => {
                            next = base.wrapping_add(i.imm);
                            if S::ENABLED {
                                self.emit_jr_site(cost.total(), pc, next);
                            }
                        }
                        Err(e) => {
                            flush!(pc, VmStatus::Error(format!("{e}{}", prog.locate(pc))))
                        }
                    }
                }
                DOp::Call => {
                    cost.branches += 1;
                    cost.calls += 1;
                    govern_sp!(pc);
                    if S::ENABLED {
                        let e = Event::Call {
                            caller: name_at(prog, pc),
                            callee: name_at(prog, i.imm),
                        };
                        self.sink.event(cost.total(), e);
                    }
                    self.regs[regs::RA as usize] = u64::from(pc + 1);
                    next = i.imm;
                }
                DOp::CallR => {
                    cost.branches += 1;
                    cost.calls += 1;
                    govern_sp!(pc);
                    match self.code_target(r!(i.a)) {
                        Ok(t) => {
                            if S::ENABLED {
                                let e = Event::Call {
                                    caller: name_at(prog, pc),
                                    callee: name_at(prog, t),
                                };
                                self.sink.event(cost.total(), e);
                            }
                            self.regs[regs::RA as usize] = u64::from(pc + 1);
                            next = t;
                        }
                        Err(e) => {
                            flush!(pc, VmStatus::Error(format!("{e}{}", prog.locate(pc))))
                        }
                    }
                }
                DOp::SysYield => {
                    if S::ENABLED {
                        let e = Event::Yield {
                            code: self.regs[regs::ARG0 as usize],
                        };
                        self.sink.event(cost.total(), e);
                    }
                    flush!(pc + 1, VmStatus::Suspended);
                }
                // --- fused windows ---
                DOp::CmpBz => {
                    win!(2);
                    cost.instructions += 1;
                    cost.branches += 1;
                    alu!(i.sel, i.a, i.b, i.c, i.imm);
                    if r!(i.a) == 0 {
                        next = i.imm2;
                    }
                }
                DOp::LiCmpBz => {
                    win!(3);
                    cost.instructions += 2;
                    cost.branches += 1;
                    r!(i.c) = u64::from(i.imm);
                    alu!(i.sel, i.a, i.b, i.c, 0u32);
                    if r!(i.a) == 0 {
                        next = i.imm2;
                    }
                }
                DOp::AluJmp => {
                    win!(2, jump);
                    cost.instructions += 1;
                    cost.branches += 1;
                    alu!(i.sel, i.a, i.b, i.c, i.imm);
                    if S::ENABLED {
                        self.emit_jmp_site(cost.total(), pc + 1, i.imm2);
                    }
                    next = i.imm2;
                }
                DOp::AddiStore32 => {
                    win!(2);
                    cost.instructions += 1;
                    cost.stores += 1;
                    let v = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = u64::from(v);
                    let addr = (r!(i.d) as u32).wrapping_add(i.imm2);
                    self.mem.write_wide(Width::W32, addr, r!(i.c));
                    govern_mem!(pc + 1);
                }
                DOp::MovCall => {
                    win!(2, jump);
                    cost.instructions += 1;
                    r!(i.a) = r!(i.b);
                    cost.branches += 1;
                    cost.calls += 1;
                    govern_sp!(pc + 1);
                    if S::ENABLED {
                        let e = Event::Call {
                            caller: name_at(prog, pc + 1),
                            callee: name_at(prog, i.imm2),
                        };
                        self.sink.event(cost.total(), e);
                    }
                    self.regs[regs::RA as usize] = u64::from(pc + 2);
                    next = i.imm2;
                }
                DOp::RetJr => {
                    win!(3, jump);
                    cost.instructions += 2;
                    cost.loads += 1;
                    cost.branches += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    let v = (r!(i.b) as u32).wrapping_add(i.imm2);
                    r!(i.b) = u64::from(v);
                    match self.code_target(r!(i.a)) {
                        Ok(base) => {
                            next = base.wrapping_add(u32::from(i.d));
                            if S::ENABLED {
                                self.emit_jr_site(cost.total(), pc + 2, next);
                            }
                        }
                        Err(e) => flush!(
                            pc + 2,
                            VmStatus::Error(format!("{e}{}", prog.locate(pc + 2)))
                        ),
                    }
                }
                DOp::CutJr => {
                    win!(3, jump);
                    cost.instructions += 2;
                    cost.loads += 2;
                    cost.branches += 1;
                    let base = r!(i.b) as u32;
                    r!(i.a) = self.mem.read_wide(Width::W32, base);
                    let base2 = (r!(i.b) as u32).wrapping_add(4);
                    self.regs[regs::SP as usize] = self.mem.read_wide(Width::W32, base2);
                    match self.code_target(r!(i.a)) {
                        Ok(t) => {
                            next = t;
                            if S::ENABLED {
                                self.emit_jr_site(cost.total(), pc + 2, next);
                            }
                        }
                        Err(e) => flush!(
                            pc + 2,
                            VmStatus::Error(format!("{e}{}", prog.locate(pc + 2)))
                        ),
                    }
                }
                DOp::MovMov => {
                    win!(2);
                    cost.instructions += 1;
                    r!(i.a) = r!(i.b);
                    r!(i.c) = r!(i.d);
                }
                DOp::MovLi => {
                    win!(2);
                    cost.instructions += 1;
                    r!(i.a) = r!(i.b);
                    r!(i.c) = u64::from(i.imm2);
                }
                DOp::MovLoad32 => {
                    win!(2);
                    cost.instructions += 1;
                    cost.loads += 1;
                    r!(i.a) = r!(i.b);
                    let addr = (r!(i.d) as u32).wrapping_add(i.imm2);
                    r!(i.c) = self.mem.read_wide(Width::W32, addr);
                }
                DOp::LiMov => {
                    win!(2);
                    cost.instructions += 1;
                    r!(i.a) = u64::from(i.imm);
                    r!(i.c) = r!(i.d);
                }
                DOp::LiStore32 => {
                    win!(2);
                    cost.instructions += 1;
                    cost.stores += 1;
                    r!(i.a) = u64::from(i.imm);
                    let addr = (r!(i.d) as u32).wrapping_add(i.imm2);
                    self.mem.write_wide(Width::W32, addr, r!(i.c));
                    govern_mem!(pc + 1);
                }
                DOp::LiBin32 => {
                    win!(2);
                    cost.instructions += 1;
                    r!(i.a) = u64::from(i.imm);
                    alu!(i.sel, i.d, i.b, i.c, 0u32);
                }
                DOp::Load32Mov => {
                    win!(2);
                    cost.instructions += 1;
                    cost.loads += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    r!(i.c) = r!(i.d);
                }
                DOp::Load32Load32 => {
                    win!(2);
                    cost.instructions += 1;
                    cost.loads += 2;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    let addr2 = (r!(i.d) as u32).wrapping_add(i.imm2);
                    r!(i.c) = self.mem.read_wide(Width::W32, addr2);
                }
                DOp::Load32Store32 => {
                    win!(2);
                    cost.instructions += 1;
                    cost.loads += 1;
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    let addr2 = (r!(i.d) as u32).wrapping_add(i.imm2);
                    self.mem.write_wide(Width::W32, addr2, r!(i.c));
                    govern_mem!(pc + 1);
                }
                DOp::Store32Mov => {
                    win!(2);
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    self.mem.write_wide(Width::W32, addr, r!(i.a));
                    govern_mem!(pc);
                    cost.instructions += 1;
                    r!(i.c) = r!(i.d);
                }
                DOp::Store32Li => {
                    win!(2);
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    self.mem.write_wide(Width::W32, addr, r!(i.a));
                    govern_mem!(pc);
                    cost.instructions += 1;
                    r!(i.c) = u64::from(i.imm2);
                }
                DOp::Store32Store32 => {
                    win!(2);
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    self.mem.write_wide(Width::W32, addr, r!(i.a));
                    govern_mem!(pc);
                    cost.instructions += 1;
                    cost.stores += 1;
                    let addr2 = (r!(i.d) as u32).wrapping_add(i.imm2);
                    self.mem.write_wide(Width::W32, addr2, r!(i.c));
                    govern_mem!(pc + 1);
                }
                DOp::Bin32Store32 => {
                    win!(2);
                    cost.instructions += 1;
                    cost.stores += 1;
                    alu!(i.sel, i.a, i.b, i.c, 0u32);
                    let addr = (r!(i.d) as u32).wrapping_add(i.imm2);
                    self.mem.write_wide(Width::W32, addr, r!(i.a));
                    govern_mem!(pc + 1);
                }
                DOp::Bin32Mov => {
                    win!(2);
                    cost.instructions += 1;
                    alu!(i.sel, i.a, i.b, i.c, 0u32);
                    r!(i.d) = r!(i.a);
                }
                DOp::MovAddi => {
                    win!(2);
                    cost.instructions += 1;
                    r!(i.a) = r!(i.b);
                    let v = (r!(i.d) as u32).wrapping_add(i.imm2);
                    r!(i.c) = u64::from(v);
                }
                DOp::Store32Load32 => {
                    win!(2);
                    cost.stores += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    self.mem.write_wide(Width::W32, addr, r!(i.a));
                    govern_mem!(pc);
                    cost.instructions += 1;
                    cost.loads += 1;
                    let addr2 = (r!(i.d) as u32).wrapping_add(i.imm2);
                    r!(i.c) = self.mem.read_wide(Width::W32, addr2);
                }
                DOp::AddiJr => {
                    win!(2, jump);
                    cost.instructions += 1;
                    cost.branches += 1;
                    let v = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = u64::from(v);
                    match self.code_target(r!(i.c)) {
                        Ok(base) => {
                            next = base.wrapping_add(u32::from(i.d));
                            if S::ENABLED {
                                self.emit_jr_site(cost.total(), pc + 1, next);
                            }
                        }
                        Err(e) => flush!(
                            pc + 1,
                            VmStatus::Error(format!("{e}{}", prog.locate(pc + 1)))
                        ),
                    }
                }
                DOp::Mov3 => {
                    win!(3);
                    cost.instructions += 2;
                    r!(i.a) = r!(i.b);
                    r!(i.c) = r!(i.d);
                    r!(i.imm as u8) = r!((i.imm >> 8) as u8);
                }
                DOp::Mov4 => {
                    win!(4);
                    cost.instructions += 3;
                    r!(i.a) = r!(i.b);
                    r!(i.c) = r!(i.d);
                    r!(i.imm as u8) = r!((i.imm >> 8) as u8);
                    r!(i.imm2 as u8) = r!((i.imm2 >> 8) as u8);
                }
                DOp::Load32LiBin32 => {
                    win!(3);
                    cost.instructions += 2;
                    cost.loads += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    r!(i.c) = u64::from(i.imm2);
                    alu!(i.sel, i.d, i.a, i.c, 0u32);
                }
                DOp::MovMovCall => {
                    win!(3, jump);
                    cost.instructions += 2;
                    r!(i.a) = r!(i.b);
                    r!(i.c) = r!(i.d);
                    cost.branches += 1;
                    cost.calls += 1;
                    govern_sp!(pc + 2);
                    if S::ENABLED {
                        let e = Event::Call {
                            caller: name_at(prog, pc + 2),
                            callee: name_at(prog, i.imm2),
                        };
                        self.sink.event(cost.total(), e);
                    }
                    self.regs[regs::RA as usize] = u64::from(pc + 3);
                    next = i.imm2;
                }
                DOp::Load32MovCall => {
                    win!(3, jump);
                    cost.instructions += 2;
                    cost.loads += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    r!(i.c) = r!(i.d);
                    cost.branches += 1;
                    cost.calls += 1;
                    govern_sp!(pc + 2);
                    if S::ENABLED {
                        let e = Event::Call {
                            caller: name_at(prog, pc + 2),
                            callee: name_at(prog, i.imm2),
                        };
                        self.sink.event(cost.total(), e);
                    }
                    self.regs[regs::RA as usize] = u64::from(pc + 3);
                    next = i.imm2;
                }
                DOp::MovRun => {
                    win!(u64::from(i.n), jump);
                    cost.instructions += u64::from(i.n) - 1;
                    next = pc + u32::from(i.n);
                    let base = i.imm as usize;
                    for &pair in &code.mov_runs[base..base + usize::from(i.n)] {
                        r!(pair as u8) = r!((pair >> 8) as u8);
                    }
                }
                DOp::LiBin32Mov => {
                    win!(3);
                    cost.instructions += 2;
                    r!(i.a) = u64::from(i.imm);
                    alu!(i.sel, i.d, i.b, i.c, 0u32);
                    r!(i.imm2 as u8) = r!(i.d);
                }
                DOp::LiBin32MovJmp => {
                    win!(4, jump);
                    cost.instructions += 3;
                    cost.branches += 1;
                    r!(i.a) = u64::from(i.imm);
                    alu!(i.sel, i.d, i.b, i.c, 0u32);
                    r!((i.imm2 >> 24) as u8) = r!(i.d);
                    let target = i.imm2 & 0xff_ffff;
                    if S::ENABLED {
                        self.emit_jmp_site(cost.total(), pc + 3, target);
                    }
                    next = target;
                }
                DOp::Load32Load32CmpBz => {
                    win!(4, jump);
                    cost.instructions += 3;
                    cost.loads += 2;
                    cost.branches += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm & 0xffff);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    let addr2 = (r!(i.d) as u32).wrapping_add(i.imm >> 16);
                    r!(i.c) = self.mem.read_wide(Width::W32, addr2);
                    let e = (i.imm2 >> 24) as u8;
                    alu!(i.sel, e, i.a, i.c, 0u32);
                    next = if r!(e) == 0 {
                        i.imm2 & 0xff_ffff
                    } else {
                        pc + 4
                    };
                }
                DOp::Load32LiBin32Store32Jmp => {
                    win!(5, jump);
                    cost.instructions += 3;
                    cost.loads += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm & 0xffff);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    r!(i.c) = u64::from(i.imm2 >> 24);
                    alu!(i.sel, i.d, i.a, i.c, 0u32);
                    cost.stores += 1;
                    let saddr = (r!(i.b) as u32).wrapping_add(i.imm >> 16);
                    self.mem.write_wide(Width::W32, saddr, r!(i.d));
                    govern_mem!(pc + 3);
                    cost.instructions += 1;
                    cost.branches += 1;
                    let target = i.imm2 & 0xff_ffff;
                    if S::ENABLED {
                        self.emit_jmp_site(cost.total(), pc + 4, target);
                    }
                    next = target;
                }
                DOp::Load32MovLoad32MovCall => {
                    win!(5, jump);
                    cost.instructions += 4;
                    cost.loads += 2;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm & 0xffff);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    r!((i.imm2 >> 16) as u8) = r!(i.a);
                    let addr2 = (r!(i.d) as u32).wrapping_add(i.imm >> 16);
                    r!(i.c) = self.mem.read_wide(Width::W32, addr2);
                    r!((i.imm2 >> 24) as u8) = r!(i.c);
                    cost.branches += 1;
                    cost.calls += 1;
                    govern_sp!(pc + 4);
                    let target = i.imm2 & 0xffff;
                    if S::ENABLED {
                        let e = Event::Call {
                            caller: name_at(prog, pc + 4),
                            callee: name_at(prog, target),
                        };
                        self.sink.event(cost.total(), e);
                    }
                    self.regs[regs::RA as usize] = u64::from(pc + 5);
                    next = target;
                }
                DOp::Bin32Li => {
                    win!(2);
                    cost.instructions += 1;
                    alu!(i.sel, i.a, i.b, i.c, 0u32);
                    r!(i.d) = u64::from(i.imm2);
                }
                DOp::Load32AddiJmp => {
                    win!(3, jump);
                    cost.instructions += 2;
                    cost.loads += 1;
                    cost.branches += 1;
                    let addr = (r!(i.b) as u32).wrapping_add(i.imm & 0xffff);
                    r!(i.a) = self.mem.read_wide(Width::W32, addr);
                    let v = (r!(i.d) as u32).wrapping_add(i.imm2);
                    r!(i.c) = u64::from(v);
                    let target = i.imm >> 16;
                    if S::ENABLED {
                        self.emit_jmp_site(cost.total(), pc + 2, target);
                    }
                    next = target;
                }
                DOp::WriteRun => {
                    win!(u64::from(i.n), jump);
                    next = pc + u32::from(i.n);
                    let rows = u64::from(i.d);
                    let steps = &code.field_runs[i.imm as usize..][..usize::from(i.d)];
                    if !self.write_run_rows(steps, cost, pc) {
                        return self.status.clone();
                    }
                    cost.instructions += 5 * rows - 1;
                    cost.stores += rows;
                    cost.loads += rows;
                }
                DOp::ReadRun => {
                    win!(u64::from(i.n), jump);
                    cost.instructions += u64::from(i.n) - 1;
                    cost.loads += u64::from(i.d);
                    next = pc + u32::from(i.n);
                    self.read_run_rows(&code.field_runs[i.imm as usize..][..usize::from(i.d)]);
                }
                DOp::MovBin32Mov => {
                    win!(3);
                    cost.instructions += 2;
                    r!(i.a) = r!(i.b);
                    let e = i.imm as u8;
                    alu!(i.sel, i.d, i.c, e, 0u32);
                    r!(i.imm2 as u8) = r!(i.d);
                }
            }
            pc = next;
        }
        self.pc = pc;
        self.cost = cost;
        self.status = VmStatus::OutOfFuel;
        self.status.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn program(src: &str) -> VmProgram {
        compile(&build_program(&parse_module(src).unwrap()).unwrap()).unwrap()
    }

    /// The lowering is index-preserving and total, and forms no window.
    #[test]
    fn decode_is_index_aligned() {
        let vp = program("f(bits32 n) { bits32 s; s = n + 1; return (s); }");
        let d = DecodedCode::decode(&vp);
        assert_eq!(d.insts.len(), vp.code.len());
        assert_eq!(d.tier, EngineId::VmDecoded);
        for (i, inst) in vp.code.iter().enumerate() {
            let di = d.insts[i];
            assert_eq!((di.n, di.sel), (1, di.op));
            match inst {
                Inst::Jmp { target } => assert_eq!((di.op, di.imm), (DOp::Jmp, *target)),
                Inst::Call { target } => assert_eq!((di.op, di.imm), (DOp::Call, *target)),
                Inst::SysYield => assert_eq!(di.op, DOp::SysYield),
                _ => {}
            }
        }
    }

    /// The instruction word stays sixteen bytes, so a cache line holds
    /// four.
    #[test]
    fn an_instruction_word_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<DInst>(), 16);
    }

    /// Both engines retire identical instruction streams: same result,
    /// same pc, same cost breakdown.
    #[test]
    fn decoded_run_matches_step_loop_exactly() {
        let src = r#"
            f(bits32 n) {
                bits32 s, p;
                if n == 1 { return (1, 1); }
                else { s, p = f(n - 1); return (s + n, p * n); }
            }
        "#;
        let vp = program(src);
        let mut old = VmMachine::new(&vp);
        let mut new = VmMachine::new_decoded(&vp);
        old.start("f", &[10], 2);
        new.start("f", &[10], 2);
        assert_eq!(old.run(1_000_000), new.run(1_000_000));
        assert_eq!(old.pc, new.pc);
        assert_eq!(old.cost, new.cost);
        assert_eq!(old.regs, new.regs);
    }

    /// Fuel exhaustion and resumption agree step-for-step.
    #[test]
    fn decoded_fuel_boundary_matches() {
        let src = "f(bits32 n) { bits32 s; s = 0; loop: if n == 0 { return (s); } else { s = s + n; n = n - 1; goto loop; } }";
        let vp = program(src);
        for fuel in [1u64, 3, 7, 50] {
            let mut old = VmMachine::new(&vp);
            let mut new = VmMachine::new_decoded(&vp);
            old.start("f", &[100], 1);
            new.start("f", &[100], 1);
            loop {
                let a = old.run(fuel);
                let b = new.run(fuel);
                assert_eq!(a, b, "fuel slice {fuel}");
                assert_eq!((old.pc, old.cost), (new.pc, new.cost));
                if !matches!(a, VmStatus::OutOfFuel) {
                    break;
                }
            }
        }
    }

    /// Fault reporting (strings included) is inherited, not duplicated.
    #[test]
    fn decoded_faults_match_old_engine() {
        let vp = program("f(bits32 a, bits32 b) { return (a / b); }");
        let mut old = VmMachine::new(&vp);
        let mut new = VmMachine::new_decoded(&vp);
        old.start("f", &[1, 0], 1);
        new.start("f", &[1, 0], 1);
        assert_eq!(old.run(10_000), new.run(10_000));
        assert!(matches!(new.status(), VmStatus::Error(e) if e.contains("division by zero")));
    }

    const DEEP: &str = r#"
        f(bits32 n) {
            bits32 r;
            if n == 0 { return (0); }
            else { r = f(n - 1); return (r + 1); }
        }
    "#;

    /// Runs `f(1000)` governed on both engines and asserts they trip at
    /// the same transition with the same cost breakdown.
    fn both_governed(src: &str, g: cmm_chaos::ResourceGovernor) -> VmStatus {
        let vp = program(src);
        let mut old = VmMachine::new(&vp);
        let mut new = VmMachine::new_decoded(&vp);
        old.set_governor(g);
        new.set_governor(g);
        old.start("f", &[1000], 1);
        new.start("f", &[1000], 1);
        let a = old.run(100_000_000);
        let b = new.run(100_000_000);
        assert_eq!(a, b, "governed status diverged");
        assert_eq!(
            (old.pc, old.cost),
            (new.pc, new.cost),
            "governed trip point diverged"
        );
        b
    }

    #[test]
    fn governor_stack_floor_trips_identically_on_both_engines() {
        // Find the floor empirically: run once ungoverned, note how far
        // SP descends, then set a floor strictly inside that range.
        let vp = program(DEEP);
        let mut probe = VmMachine::new(&vp);
        let sp0 = probe.reg(regs::SP);
        probe.start("f", &[1000], 1);
        let mut min_sp = sp0;
        while matches!(probe.status(), VmStatus::Running) {
            probe.step();
            min_sp = min_sp.min(probe.reg(regs::SP));
        }
        assert!(matches!(probe.status(), VmStatus::Halted(_)));
        let floor = (sp0 + min_sp) / 2;
        let g = cmm_chaos::ResourceGovernor {
            stack_floor: Some(floor),
            ..cmm_chaos::ResourceGovernor::unlimited()
        };
        match both_governed(DEEP, g) {
            VmStatus::Error(e) => assert!(e.contains("stack-depth"), "unexpected error {e:?}"),
            other => panic!("expected a stack-floor trip, got {other:?}"),
        }
    }

    #[test]
    fn governor_memory_limit_trips_identically_on_both_engines() {
        // Each store lands on a fresh page, so mapped bytes climb by a
        // page per iteration until the cap trips.
        let src = r#"
            data base { bits32 0; }
            f(bits32 n) {
                bits32 i;
                i = 0;
              loop:
                if i == n { return (i); }
                else { bits32[base + i * 4096] = i; i = i + 1; goto loop; }
            }
        "#;
        let g = cmm_chaos::ResourceGovernor {
            max_memory_bytes: Some(16 * 4096),
            ..cmm_chaos::ResourceGovernor::unlimited()
        };
        match both_governed(src, g) {
            VmStatus::Error(e) => assert!(e.contains("memory"), "unexpected error {e:?}"),
            other => panic!("expected a memory trip, got {other:?}"),
        }
    }

    #[test]
    fn governor_fuel_slice_clips_each_run_call() {
        let g = cmm_chaos::ResourceGovernor {
            fuel_slice: Some(10),
            ..cmm_chaos::ResourceGovernor::unlimited()
        };
        assert_eq!(both_governed(DEEP, g), VmStatus::OutOfFuel);
    }
}
