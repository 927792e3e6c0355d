//! The fusion pass: `vm-fused`'s stream.
//!
//! [`DecodedCode::fuse`] (also reachable as [`FusedCode::fuse`]) is a
//! linear, index-preserving pass over a decoded stream. It recognizes
//! the short instruction sequences the profiler attributes most
//! dispatch cost to — compare-and-branch, constant-compare-and-branch,
//! assign-then-jump, the call/return epilogue (`ld32 ra; addi sp;
//! jr ra+i`), the two-load stack cut, the frame-push store, the
//! argument-shuffle call, and the record build and restore of CPS
//! lowering — and overwrites the head of each with a window opcode of
//! the one [`DOp`] enum. The result is still a [`DecodedCode`], run by
//! the same loop as a plain stream (`VmMachine::run_code`); only its
//! [`DecodedCode::tier`] says `vm-fused`.
//!
//! Four invariants keep the tier honest:
//!
//! * **Index preservation.** `insts[pc]` still corresponds to
//!   `code[pc]`; a window head carries its window length `n`, and every
//!   *interior* slot of a window keeps its plain opcode. A transfer
//!   that lands mid-window (possible only when the pass missed an entry
//!   point — see below) therefore executes the plain tail of the window
//!   one instruction at a time, bit-identically to the plain stream.
//! * **Entry-point suppression.** A window is only formed when none of
//!   its interior pcs can be entered directly: branch targets, call
//!   return addresses (`pc+1` of every call/yield), branch-table rows
//!   (`site..=site+alternates`), unwind continuation pcs, procedure
//!   entries, image code addresses, and continuation entries all
//!   suppress fusion across them. Heads may be entry points.
//! * **Per-instruction accounting.** Execution inside a window is
//!   strictly sequential over the original operand registers, so
//!   operand aliasing (e.g. a `li` feeding the compare it fuses with,
//!   or a cut loading over its own base register) behaves exactly as
//!   on the plain stream. Costs are charged per *original* instruction
//!   (a window of length `n` charges `n` instructions plus the same
//!   load/store/branch/call breakdown), trace events fire with the same
//!   payloads at the same cost-clock stamps, and the resource governor
//!   is consulted at the same transitions (mapped-byte check after the
//!   store of a fused frame push, stack-floor check at the call of a
//!   fused argument shuffle).
//! * **Fuel boundaries.** If the remaining fuel cannot cover a whole
//!   window, the loop finishes the slice on the reference
//!   [`VmMachine::step`], one original instruction at a time, so
//!   fuel-boundary behaviour (N−1/N/N+1) is inherited rather than
//!   re-implemented.
//!
//! Every window opcode forms on a committed program (the
//! `every_window_opcode_forms_on_a_committed_program` test), so a new
//! pattern comes with a program that forms it.
//!
//! [`VmMachine::step`]: crate::machine::VmMachine::step

use crate::codegen::VmProgram;
use crate::decode::{DInst, DOp, DecodedCode, FieldStep};
use crate::isa::{regs, Inst};
use cmm_chaos::EngineId;
use std::sync::Arc;

/// The fused stream's type: a [`DecodedCode`] whose
/// [`DecodedCode::tier`] is `vm-fused`. The name stays because the
/// repository benchmark builds `vm-fused` through [`FusedCode::fuse`].
pub type FusedCode = DecodedCode;

fn is_cmp32(op: DOp) -> bool {
    matches!(
        op,
        DOp::Eq32
            | DOp::Ne32
            | DOp::LtU32
            | DOp::LeU32
            | DOp::GtU32
            | DOp::GeU32
            | DOp::LtS32
            | DOp::LeS32
            | DOp::GtS32
            | DOp::GeS32
    )
}

fn is_alu(op: DOp) -> bool {
    matches!(
        op,
        DOp::Li
            | DOp::Addi
            | DOp::Mov
            | DOp::Add32
            | DOp::Sub32
            | DOp::Mul32
            | DOp::And32
            | DOp::Or32
            | DOp::Xor32
    ) || is_cmp32(op)
}

/// The fast 32-bit binary ops (arithmetic, bitwise, compares) — the
/// `sel` domain of the [`DOp::LiBin32`]/[`DOp::Bin32Store32`]/
/// [`DOp::Bin32Mov`] fusions and of the record-step rows.
fn is_bin32(op: DOp) -> bool {
    matches!(
        op,
        DOp::Add32 | DOp::Sub32 | DOp::Mul32 | DOp::And32 | DOp::Or32 | DOp::Xor32
    ) || is_cmp32(op)
}

/// Every pc that control can enter other than by falling through from
/// `pc - 1`: direct branch/jump/call targets, the return address after
/// every call and yield, branch-table rows and unwind continuations of
/// every call site, procedure entries, image code addresses, and
/// continuation entries. Fused windows must not contain one of these in
/// an interior slot.
fn entry_points(program: &VmProgram, n: usize) -> Vec<bool> {
    let mut entry = vec![false; n];
    let mut mark = |pc: u32| {
        if let Some(slot) = entry.get_mut(pc as usize) {
            *slot = true;
        }
    };
    // The halt vector (pcs 0..8) is entered by return-to-top.
    for pc in 0..8u32 {
        mark(pc);
    }
    for (pc, inst) in program.code.iter().enumerate() {
        match *inst {
            Inst::Bz { target, .. } | Inst::Jmp { target } => mark(target),
            Inst::Call { target } => {
                mark(target);
                mark(pc as u32 + 1);
            }
            Inst::CallR { .. } | Inst::SysYield => mark(pc as u32 + 1),
            _ => {}
        }
    }
    for (&site, meta) in &program.call_sites {
        // The branch table: a normal return lands at `site`, an
        // abnormal return `<i/n>` at `site + i`.
        for row in 0..=meta.alternates {
            mark(site + row);
        }
        for &pc in &meta.unwind_pcs {
            mark(pc);
        }
    }
    for &pc in program.entries.values() {
        mark(pc);
    }
    for &pc in program.code_map.values() {
        mark(pc);
    }
    for &pc in program.cont_params.keys() {
        mark(pc);
    }
    entry
}

/// Window heads the greedy pass must always reach with exact
/// alignment: patterns that pre-resolve an indirect or looping
/// transfer (the stack cut, the return epilogue, the frame-pop jump,
/// the counted-loop header and back-edge, the reload-and-shuffle
/// call). A prepass marks these heads and the main pass refuses to
/// let any earlier window straddle one, so a cheap straight-line pair
/// formed two slots upstream can never shear the high-value window
/// off its head.
const fn is_anchor(op: DOp) -> bool {
    matches!(
        op,
        DOp::CutJr
            | DOp::RetJr
            | DOp::AddiJr
            | DOp::LiBin32MovJmp
            | DOp::Load32Load32CmpBz
            | DOp::Load32LiBin32Store32Jmp
            | DOp::Load32MovLoad32MovCall
    )
}

/// Does the record write-out step head at `pc`? (`st32; mov; ld32;
/// li; bin32`, with the move overwriting the store's value register
/// and the ALU consuming the two just-defined registers: a write row
/// of [`FieldStep`].)
fn write_step_at(d: &[DInst], pc: usize) -> bool {
    pc + 4 < d.len() && {
        let (i0, i1, i2, i3, i4) = (d[pc], d[pc + 1], d[pc + 2], d[pc + 3], d[pc + 4]);
        i0.op == DOp::Store32
            && i1.op == DOp::Mov
            && i1.a == i0.a
            && i2.op == DOp::Load32
            && i3.op == DOp::Li
            && is_bin32(i4.op)
            && i4.b == i2.a
            && i4.c == i3.a
    }
}

fn write_step(d: &[DInst], pc: usize) -> FieldStep {
    let (i0, i1, i2, i3, i4) = (d[pc], d[pc + 1], d[pc + 2], d[pc + 3], d[pc + 4]);
    FieldStep {
        op: i4.op,
        a: i0.a,
        b: i0.b,
        c: i1.b,
        d: i2.b,
        e: i2.a,
        g: i3.a,
        h: i4.a,
        off1: i0.imm,
        off2: i2.imm,
        k: i3.imm,
    }
}

/// Does the record read-in step head at `pc`? (`li; bin32; ld32; mov`,
/// loading through the ALU destination and copying the loaded
/// register: a read row of [`FieldStep`].)
fn read_step_at(d: &[DInst], pc: usize) -> bool {
    pc + 3 < d.len() && {
        let (i0, i1, i2, i3) = (d[pc], d[pc + 1], d[pc + 2], d[pc + 3]);
        i0.op == DOp::Li
            && is_bin32(i1.op)
            && i2.op == DOp::Load32
            && i2.b == i1.a
            && i3.op == DOp::Mov
            && i3.b == i2.a
    }
}

fn read_step(d: &[DInst], pc: usize) -> FieldStep {
    let (i0, i1, i2, i3) = (d[pc], d[pc + 1], d[pc + 2], d[pc + 3]);
    FieldStep {
        op: i1.op,
        a: i0.a,
        b: i1.b,
        c: i1.c,
        d: i1.a,
        e: i2.a,
        g: i3.a,
        h: 0,
        off1: i2.imm,
        off2: 0,
        k: i0.imm,
    }
}

/// Attempts to fuse a window starting at `pc`. Interior slots must not
/// be entry points or protected anchor heads (heads may be either).
/// Longest patterns win.
fn try_fuse(d: &[DInst], entry: &[bool], protect: &[bool], pc: usize) -> Option<DInst> {
    let clear = |len: usize| (pc + 1..pc + len).all(|i| !entry[i] && !protect[i]);
    let f = |op, sel, a, b, c, dd, n, imm, imm2| {
        Some(DInst {
            op,
            sel,
            a,
            b,
            c,
            d: dd,
            n,
            imm,
            imm2,
        })
    };
    let i0 = d[pc];
    // --- 5-instruction windows ---
    if pc + 4 < d.len() && clear(5) {
        let (i1, i2, i3, i4) = (d[pc + 1], d[pc + 2], d[pc + 3], d[pc + 4]);
        // ld32 a, off(b); li c, k; bin32 d, a, c; st32 d, off2(b);
        // jmp t — the whole `slot op= k; goto head` loop back-edge.
        if i0.op == DOp::Load32
            && i1.op == DOp::Li
            && is_bin32(i2.op)
            && i2.b == i0.a
            && i2.c == i1.a
            && i3.op == DOp::Store32
            && i3.a == i2.a
            && i3.b == i0.b
            && i4.op == DOp::Jmp
            && i0.imm <= 0xffff
            && i3.imm <= 0xffff
            && i1.imm <= 0xff
            && i4.imm <= 0xff_ffff
        {
            return f(
                DOp::Load32LiBin32Store32Jmp,
                i2.op,
                i0.a,
                i0.b,
                i1.a,
                i2.a,
                5,
                i0.imm | i3.imm << 16,
                i4.imm | i1.imm << 24,
            );
        }
        // ld32 a, off(b); mov e, a; ld32 c, off2(d); mov g, c; call t —
        // the two-argument reload-and-shuffle call.
        if i0.op == DOp::Load32
            && i1.op == DOp::Mov
            && i1.b == i0.a
            && i2.op == DOp::Load32
            && i3.op == DOp::Mov
            && i3.b == i2.a
            && i4.op == DOp::Call
            && i0.imm <= 0xffff
            && i2.imm <= 0xffff
            && i4.imm <= 0xffff
        {
            return f(
                DOp::Load32MovLoad32MovCall,
                DOp::Call,
                i0.a,
                i0.b,
                i2.a,
                i2.b,
                5,
                i0.imm | i2.imm << 16,
                i4.imm | u32::from(i1.a) << 16 | u32::from(i3.a) << 24,
            );
        }
    }
    // --- 4-instruction windows ---
    if pc + 3 < d.len() && clear(4) {
        let (i1, i2, i3) = (d[pc + 1], d[pc + 2], d[pc + 3]);
        // A run of four moves (continuation argument shuffles).
        if [i0.op, i1.op, i2.op, i3.op] == [DOp::Mov; 4] {
            return f(
                DOp::Mov4,
                DOp::Mov,
                i0.a,
                i0.b,
                i1.a,
                i1.b,
                4,
                u32::from(i2.a) | u32::from(i2.b) << 8,
                u32::from(i3.a) | u32::from(i3.b) << 8,
            );
        }
        // li a, k; bin32 d, b, c; mov e, d; jmp t — the counted-loop
        // tail `x = x op k; goto head`.
        if i0.op == DOp::Li
            && is_bin32(i1.op)
            && i2.op == DOp::Mov
            && i2.b == i1.a
            && i3.op == DOp::Jmp
            && i3.imm <= 0xff_ffff
        {
            return f(
                DOp::LiBin32MovJmp,
                i1.op,
                i0.a,
                i1.b,
                i1.c,
                i1.a,
                4,
                i0.imm,
                i3.imm | u32::from(i2.a) << 24,
            );
        }
        // ld32 a, off(b); ld32 c, off2(d); cmp e, a, c; bz e, t — the
        // counted-loop header.
        if i0.op == DOp::Load32
            && i1.op == DOp::Load32
            && is_cmp32(i2.op)
            && i2.b == i0.a
            && i2.c == i1.a
            && i3.op == DOp::Bz
            && i3.a == i2.a
            && i0.imm <= 0xffff
            && i1.imm <= 0xffff
            && i3.imm <= 0xff_ffff
        {
            return f(
                DOp::Load32Load32CmpBz,
                i2.op,
                i0.a,
                i0.b,
                i1.a,
                i1.b,
                4,
                i0.imm | i1.imm << 16,
                i3.imm | u32::from(i2.a) << 24,
            );
        }
    }
    // --- 3-instruction windows ---
    if pc + 2 < d.len() && clear(3) {
        let (i1, i2) = (d[pc + 1], d[pc + 2]);
        // Return epilogue: ld32 a, imm(b); addi b, b, imm2; jr a+d.
        if i0.op == DOp::Load32
            && i1.op == DOp::Addi
            && i1.a == i0.b
            && i1.b == i0.b
            && i2.op == DOp::Jr
            && i2.a == i0.a
            && i2.imm <= u32::from(u8::MAX)
        {
            return f(
                DOp::RetJr,
                DOp::Jr,
                i0.a,
                i0.b,
                0,
                i2.imm as u8,
                3,
                i0.imm,
                i1.imm,
            );
        }
        // Stack cut: ld32 a, 0(b); ld32 sp, 4(b); jr a+0.
        if i0.op == DOp::Load32
            && i0.imm == 0
            && i1.op == DOp::Load32
            && i1.a == regs::SP
            && i1.b == i0.b
            && i1.imm == 4
            && i2.op == DOp::Jr
            && i2.a == i0.a
            && i2.imm == 0
        {
            return f(DOp::CutJr, DOp::Jr, i0.a, i0.b, 0, 0, 3, 0, 0);
        }
        // ld32 a, off(b); addi c, d, imm2; jmp t — reload, pointer
        // adjust, block exit.
        if i0.op == DOp::Load32
            && i1.op == DOp::Addi
            && i2.op == DOp::Jmp
            && i0.imm <= 0xffff
            && i2.imm <= 0xffff
        {
            return f(
                DOp::Load32AddiJmp,
                DOp::Addi,
                i0.a,
                i0.b,
                i1.a,
                i1.b,
                3,
                i0.imm | i2.imm << 16,
                i1.imm,
            );
        }
        // li c, imm; cmp a, b, c; bz a.
        if i0.op == DOp::Li && is_cmp32(i1.op) && i1.c == i0.a && i2.op == DOp::Bz && i2.a == i1.a {
            return f(DOp::LiCmpBz, i1.op, i1.a, i1.b, i0.a, 0, 3, i0.imm, i2.imm);
        }
        // A run of three moves.
        if [i0.op, i1.op, i2.op] == [DOp::Mov; 3] {
            return f(
                DOp::Mov3,
                DOp::Mov,
                i0.a,
                i0.b,
                i1.a,
                i1.b,
                3,
                u32::from(i2.a) | u32::from(i2.b) << 8,
                0,
            );
        }
        // mov a, b; mov c, d; call imm2 (argument shuffle feeding a call).
        if i0.op == DOp::Mov && i1.op == DOp::Mov && i2.op == DOp::Call {
            return f(
                DOp::MovMovCall,
                DOp::Call,
                i0.a,
                i0.b,
                i1.a,
                i1.b,
                3,
                0,
                i2.imm,
            );
        }
        // ld32 a, imm(b); mov c, d; call imm2.
        if i0.op == DOp::Load32 && i1.op == DOp::Mov && i2.op == DOp::Call {
            return f(
                DOp::Load32MovCall,
                DOp::Call,
                i0.a,
                i0.b,
                i1.a,
                i1.b,
                3,
                i0.imm,
                i2.imm,
            );
        }
        // ld32 a, imm(b); li c, imm2; bin32 d, a, c — load and constant
        // feeding a binary op, the `x op= k` stack-slot idiom.
        if i0.op == DOp::Load32
            && i1.op == DOp::Li
            && is_bin32(i2.op)
            && i2.b == i0.a
            && i2.c == i1.a
        {
            return f(
                DOp::Load32LiBin32,
                i2.op,
                i0.a,
                i0.b,
                i1.a,
                i2.a,
                3,
                i0.imm,
                i1.imm,
            );
        }
        // li a, imm; bin32 d, b, c; mov e, d — compute into a temporary
        // and copy the result home.
        if i0.op == DOp::Li && is_bin32(i1.op) && i2.op == DOp::Mov && i2.b == i1.a {
            return f(
                DOp::LiBin32Mov,
                i1.op,
                i0.a,
                i1.b,
                i1.c,
                i1.a,
                3,
                i0.imm,
                u32::from(i2.a),
            );
        }
        // mov a, b; bin32 d, c, e; mov g, d — shuffle an argument,
        // compute into a temporary, copy the result home.
        if i0.op == DOp::Mov && is_bin32(i1.op) && i2.op == DOp::Mov && i2.b == i1.a {
            return f(
                DOp::MovBin32Mov,
                i1.op,
                i0.a,
                i0.b,
                i1.b,
                i1.a,
                3,
                u32::from(i1.c),
                u32::from(i2.a),
            );
        }
    }
    // --- 2-instruction windows ---
    if pc + 1 < d.len() && clear(2) {
        let i1 = d[pc + 1];
        // cmp a, b, c; bz a.
        if is_cmp32(i0.op) && i1.op == DOp::Bz && i1.a == i0.a {
            return f(DOp::CmpBz, i0.op, i0.a, i0.b, i0.c, 0, 2, 0, i1.imm);
        }
        // alu; jmp (the Assign;Branch tail of a basic block).
        if is_alu(i0.op) && i1.op == DOp::Jmp {
            return f(DOp::AluJmp, i0.op, i0.a, i0.b, i0.c, 0, 2, i0.imm, i1.imm);
        }
        // addi a, b, imm; st32 c, imm2(d) (frame push when d = a).
        if i0.op == DOp::Addi && i1.op == DOp::Store32 {
            return f(
                DOp::AddiStore32,
                DOp::Store32,
                i0.a,
                i0.b,
                i1.a,
                i1.b,
                2,
                i0.imm,
                i1.imm,
            );
        }
        // addi a, b, imm; jr c + d (frame pop feeding an indirect jump).
        if i0.op == DOp::Addi && i1.op == DOp::Jr && i1.imm <= u32::from(u8::MAX) {
            return f(
                DOp::AddiJr,
                DOp::Jr,
                i0.a,
                i0.b,
                i1.a,
                i1.imm as u8,
                2,
                i0.imm,
                0,
            );
        }
        // mov a, b; call imm2 (argument shuffle feeding a call).
        if i0.op == DOp::Mov && i1.op == DOp::Call {
            return f(DOp::MovCall, DOp::Call, i0.a, i0.b, 0, 0, 2, 0, i1.imm);
        }
        // Generic straight-line pairs: two adjacent independent ALU /
        // 32-bit memory operations. None of these overlap the specific
        // patterns above (their second slots are branches, calls, or
        // jumps), so ordering within this match is immaterial.
        match (i0.op, i1.op) {
            (DOp::Mov, DOp::Mov) => {
                return f(DOp::MovMov, DOp::Mov, i0.a, i0.b, i1.a, i1.b, 2, 0, 0)
            }
            (DOp::Mov, DOp::Li) => {
                return f(DOp::MovLi, DOp::Li, i0.a, i0.b, i1.a, 0, 2, 0, i1.imm)
            }
            (DOp::Mov, DOp::Load32) => {
                return f(
                    DOp::MovLoad32,
                    DOp::Load32,
                    i0.a,
                    i0.b,
                    i1.a,
                    i1.b,
                    2,
                    0,
                    i1.imm,
                )
            }
            (DOp::Li, DOp::Mov) => {
                return f(DOp::LiMov, DOp::Mov, i0.a, 0, i1.a, i1.b, 2, i0.imm, 0)
            }
            (DOp::Li, DOp::Store32) => {
                return f(
                    DOp::LiStore32,
                    DOp::Store32,
                    i0.a,
                    0,
                    i1.a,
                    i1.b,
                    2,
                    i0.imm,
                    i1.imm,
                )
            }
            (DOp::Li, op1) if is_bin32(op1) => {
                return f(DOp::LiBin32, op1, i0.a, i1.b, i1.c, i1.a, 2, i0.imm, 0)
            }
            (DOp::Load32, DOp::Mov) => {
                return f(
                    DOp::Load32Mov,
                    DOp::Mov,
                    i0.a,
                    i0.b,
                    i1.a,
                    i1.b,
                    2,
                    i0.imm,
                    0,
                )
            }
            (DOp::Load32, DOp::Load32) => {
                return f(
                    DOp::Load32Load32,
                    DOp::Load32,
                    i0.a,
                    i0.b,
                    i1.a,
                    i1.b,
                    2,
                    i0.imm,
                    i1.imm,
                )
            }
            (DOp::Load32, DOp::Store32) => {
                return f(
                    DOp::Load32Store32,
                    DOp::Store32,
                    i0.a,
                    i0.b,
                    i1.a,
                    i1.b,
                    2,
                    i0.imm,
                    i1.imm,
                )
            }
            (DOp::Store32, DOp::Mov) => {
                return f(
                    DOp::Store32Mov,
                    DOp::Mov,
                    i0.a,
                    i0.b,
                    i1.a,
                    i1.b,
                    2,
                    i0.imm,
                    0,
                )
            }
            (DOp::Store32, DOp::Li) => {
                return f(
                    DOp::Store32Li,
                    DOp::Li,
                    i0.a,
                    i0.b,
                    i1.a,
                    0,
                    2,
                    i0.imm,
                    i1.imm,
                )
            }
            (DOp::Store32, DOp::Store32) => {
                return f(
                    DOp::Store32Store32,
                    DOp::Store32,
                    i0.a,
                    i0.b,
                    i1.a,
                    i1.b,
                    2,
                    i0.imm,
                    i1.imm,
                )
            }
            (op0, DOp::Store32) if is_bin32(op0) && i1.a == i0.a => {
                return f(DOp::Bin32Store32, op0, i0.a, i0.b, i0.c, i1.b, 2, 0, i1.imm)
            }
            (op0, DOp::Mov) if is_bin32(op0) && i1.b == i0.a => {
                return f(DOp::Bin32Mov, op0, i0.a, i0.b, i0.c, i1.a, 2, 0, 0)
            }
            (op0, DOp::Li) if is_bin32(op0) => {
                return f(DOp::Bin32Li, op0, i0.a, i0.b, i0.c, i1.a, 2, 0, i1.imm)
            }
            (DOp::Mov, DOp::Addi) => {
                return f(
                    DOp::MovAddi,
                    DOp::Addi,
                    i0.a,
                    i0.b,
                    i1.a,
                    i1.b,
                    2,
                    0,
                    i1.imm,
                )
            }
            (DOp::Store32, DOp::Load32) => {
                return f(
                    DOp::Store32Load32,
                    DOp::Load32,
                    i0.a,
                    i0.b,
                    i1.a,
                    i1.b,
                    2,
                    i0.imm,
                    i1.imm,
                )
            }
            _ => {}
        }
    }
    None
}

impl DecodedCode {
    /// Runs the fusion pass over a decoded stream. Pure function of the
    /// program; `plain` must come from [`DecodedCode::decode`] on this
    /// same `program`. The pass rewrites heads in place, so a `plain`
    /// nothing else holds is reused rather than copied.
    pub fn fuse(program: &VmProgram, plain: Arc<DecodedCode>) -> DecodedCode {
        debug_assert_eq!(plain.tier, EngineId::VmDecoded, "fuse takes a plain stream");
        let mut code = Arc::unwrap_or_clone(plain);
        code.tier = EngineId::VmFused;
        let entry = entry_points(program, code.insts.len());
        // Every read below is at or after the slot the pass stands on,
        // and every write is to that slot just before the pass moves
        // past it, so heads are rewritten in place.
        let d = &mut code.insts;
        // Prepass: mark the heads of anchor windows (pre-resolved
        // transfers — see `is_anchor`) so the greedy pass below cannot
        // shear one off its head with a cheaper window formed a slot or
        // two upstream. Overlapping anchor candidates resolve
        // leftmost-first, matching the greedy scan.
        let mut protect = vec![false; d.len()];
        {
            let free = vec![false; d.len()];
            let mut pc = 0usize;
            while pc < d.len() {
                match try_fuse(d, &entry, &free, pc) {
                    Some(fi) if is_anchor(fi.op) => {
                        protect[pc] = true;
                        pc += fi.n as usize;
                    }
                    _ => pc += 1,
                }
            }
        }
        let mut pc = 0usize;
        while pc < d.len() {
            // A run of five or more moves with no interior entry point
            // collapses into one side-table-backed window; shorter runs
            // fall through to the fixed-width patterns.
            let run = d[pc..]
                .iter()
                .enumerate()
                .take(usize::from(u8::MAX))
                .take_while(|&(i, di)| di.op == DOp::Mov && (i == 0 || !entry[pc + i]))
                .count();
            if run >= 5 {
                let base = code.mov_runs.len() as u32;
                code.mov_runs.extend(
                    d[pc..pc + run]
                        .iter()
                        .map(|di| u16::from(di.a) | u16::from(di.b) << 8),
                );
                d[pc] = window(DOp::MovRun, DOp::Mov, 0, run as u8, base);
                pc += run;
                continue;
            }
            // Runs of the record write-out / read-in step: two or more
            // consecutive repetitions (the CPS record build and the
            // continuation-entry restore emit one per saved live
            // variable) collapse into one side-table-backed window.
            let clear_to = |end: usize| (pc + 1..end).all(|i| !entry[i] && !protect[i]);
            let mut wrows = 0usize;
            while wrows < 51 && write_step_at(d, pc + 5 * wrows) && clear_to(pc + 5 * (wrows + 1)) {
                wrows += 1;
            }
            if wrows >= 2 {
                let base = code.field_runs.len() as u32;
                code.field_runs
                    .extend((0..wrows).map(|i| write_step(d, pc + 5 * i)));
                d[pc] = window(
                    DOp::WriteRun,
                    DOp::Store32,
                    wrows as u8,
                    (5 * wrows) as u8,
                    base,
                );
                pc += 5 * wrows;
                continue;
            }
            let mut rrows = 0usize;
            while rrows < 63 && read_step_at(d, pc + 4 * rrows) && clear_to(pc + 4 * (rrows + 1)) {
                rrows += 1;
            }
            if rrows >= 2 {
                let base = code.field_runs.len() as u32;
                code.field_runs
                    .extend((0..rrows).map(|i| read_step(d, pc + 4 * i)));
                d[pc] = window(DOp::ReadRun, DOp::Li, rrows as u8, (4 * rrows) as u8, base);
                pc += 4 * rrows;
                continue;
            }
            if let Some(fi) = try_fuse(d, &entry, &protect, pc) {
                d[pc] = fi;
                pc += fi.n as usize;
            } else {
                pc += 1;
            }
        }
        code
    }

    /// Number of fused window heads (length > 1) in the stream.
    pub fn fused_heads(&self) -> usize {
        self.insts.iter().filter(|i| i.n > 1).count()
    }
}

/// The head of a side-table-backed run window: `rows` rows (or none,
/// for a move run) starting at side-table index `base`, `n` wide.
fn window(op: DOp, sel: DOp, rows: u8, n: u8, base: u32) -> DInst {
    DInst {
        op,
        sel,
        a: 0,
        b: 0,
        c: 0,
        d: rows,
        n,
        imm: base,
        imm2: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use crate::machine::{VmMachine, VmStatus};
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn program(src: &str) -> VmProgram {
        compile(&build_program(&parse_module(src).unwrap()).unwrap()).unwrap()
    }

    fn fuse_of(vp: &VmProgram) -> FusedCode {
        FusedCode::fuse(vp, Arc::new(DecodedCode::decode(vp)))
    }

    const RECURSIVE: &str = r#"
        f(bits32 n) {
            bits32 s, p;
            if n == 1 { return (1, 1); }
            else { s, p = f(n - 1); return (s + n, p * n); }
        }
    "#;

    const LOOPY: &str = "f(bits32 n) { bits32 s; s = 0; loop: if n == 0 { return (s); } else { s = s + n; n = n - 1; goto loop; } }";

    /// The fusion pass is index-preserving: same length, and interior
    /// slots of every window keep their plain opcode.
    #[test]
    fn fuse_is_index_aligned_and_interiors_stay_plain() {
        let vp = program(RECURSIVE);
        let plain = DecodedCode::decode(&vp);
        let fu = fuse_of(&vp);
        assert_eq!(fu.insts.len(), vp.code.len());
        assert_eq!(fu.tier, EngineId::VmFused);
        let mut pc = 0usize;
        while pc < fu.insts.len() {
            let fi = fu.insts[pc];
            let n = fi.n as usize;
            for k in 1..n {
                let interior = fu.insts[pc + k];
                assert_eq!(interior.n, 1, "interior slot at {} must stay plain", pc + k);
                assert_eq!(interior.op, plain.insts[pc + k].op);
            }
            pc += n;
        }
    }

    /// Fusion actually fires on call/return-heavy code: the epilogue
    /// and compare-and-branch patterns are present in Figure-1-style
    /// programs.
    #[test]
    fn fusion_finds_windows_in_recursive_code() {
        let vp = program(RECURSIVE);
        let fu = fuse_of(&vp);
        assert!(
            fu.fused_heads() > 0,
            "expected fused windows in:\n{}",
            crate::disasm::disassemble(&vp)
        );
        assert!(
            fu.insts.iter().any(|i| i.op == DOp::RetJr),
            "expected a fused return epilogue"
        );
    }

    /// All three engines retire identical streams: same result, same
    /// pc, same cost breakdown, same registers.
    #[test]
    fn fused_run_matches_both_other_engines_exactly() {
        for src in [RECURSIVE, LOOPY] {
            let vp = program(src);
            let mut old = VmMachine::new(&vp);
            let mut dec = VmMachine::new_decoded(&vp);
            let mut fus = VmMachine::new_fused(&vp);
            old.start("f", &[10], 1);
            dec.start("f", &[10], 1);
            fus.start("f", &[10], 1);
            let a = old.run(1_000_000);
            let b = dec.run(1_000_000);
            let c = fus.run(1_000_000);
            assert_eq!(a, c);
            assert_eq!(b, c);
            assert_eq!(old.pc, fus.pc);
            assert_eq!(old.cost, fus.cost);
            assert_eq!(old.regs, fus.regs);
        }
    }

    /// Fuel exhaustion and resumption agree step-for-step with the
    /// decoded engine, including slices that end inside a window.
    #[test]
    fn fused_fuel_boundary_matches() {
        let vp = program(LOOPY);
        for fuel in [1u64, 2, 3, 5, 7, 50] {
            let mut dec = VmMachine::new_decoded(&vp);
            let mut fus = VmMachine::new_fused(&vp);
            dec.start("f", &[100], 1);
            fus.start("f", &[100], 1);
            loop {
                let a = dec.run(fuel);
                let b = fus.run(fuel);
                assert_eq!(a, b, "fuel slice {fuel}");
                assert_eq!((dec.pc, dec.cost), (fus.pc, fus.cost), "fuel slice {fuel}");
                assert_eq!(dec.regs, fus.regs, "fuel slice {fuel}");
                if !matches!(a, VmStatus::OutOfFuel) {
                    break;
                }
            }
        }
    }

    /// Fault reporting (strings included) is inherited, not duplicated.
    #[test]
    fn fused_faults_match_decoded_engine() {
        let vp = program("f(bits32 a, bits32 b) { return (a / b); }");
        let mut dec = VmMachine::new_decoded(&vp);
        let mut fus = VmMachine::new_fused(&vp);
        dec.start("f", &[1, 0], 1);
        fus.start("f", &[1, 0], 1);
        assert_eq!(dec.run(10_000), fus.run(10_000));
        assert!(matches!(fus.status(), VmStatus::Error(e) if e.contains("division by zero")));
    }

    const DEEP: &str = r#"
        f(bits32 n) {
            bits32 r;
            if n == 0 { return (0); }
            else { r = f(n - 1); return (r + 1); }
        }
    "#;

    /// Runs governed on decoded and fused engines and asserts they trip
    /// at the same transition with the same cost breakdown.
    fn both_governed(src: &str, g: cmm_chaos::ResourceGovernor) -> VmStatus {
        let vp = program(src);
        let mut dec = VmMachine::new_decoded(&vp);
        let mut fus = VmMachine::new_fused(&vp);
        dec.set_governor(g);
        fus.set_governor(g);
        dec.start("f", &[1000], 1);
        fus.start("f", &[1000], 1);
        let a = dec.run(100_000_000);
        let b = fus.run(100_000_000);
        assert_eq!(a, b, "governed status diverged");
        assert_eq!(
            (dec.pc, dec.cost),
            (fus.pc, fus.cost),
            "governed trip point diverged"
        );
        b
    }

    #[test]
    fn governor_stack_floor_trips_identically_on_fused_engine() {
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
    fn governor_memory_limit_trips_identically_on_fused_engine() {
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
    fn governor_fuel_slice_clips_each_run_call_on_fused_engine() {
        let g = cmm_chaos::ResourceGovernor {
            fuel_slice: Some(10),
            ..cmm_chaos::ResourceGovernor::unlimited()
        };
        assert_eq!(both_governed(DEEP, g), VmStatus::OutOfFuel);
    }

    /// Branch targets are never interior to a window: every entered pc
    /// is either a head or a plain slot.
    #[test]
    fn branch_targets_never_land_inside_a_window() {
        for src in [RECURSIVE, LOOPY, DEEP] {
            let vp = program(src);
            let fu = fuse_of(&vp);
            let entry = entry_points(&vp, fu.insts.len());
            let mut pc = 0usize;
            while pc < fu.insts.len() {
                let n = fu.insts[pc].n as usize;
                for k in 1..n {
                    assert!(
                        !entry[pc + k],
                        "entry point at {} is interior to the window at {pc}",
                        pc + k
                    );
                }
                pc += n;
            }
        }
    }
}
