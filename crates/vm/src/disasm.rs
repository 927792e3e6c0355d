//! Disassembly of generated code (for `cmm dump-vm` and debugging).

use crate::codegen::VmProgram;
use crate::isa::{regs, Inst, Reg};
use std::fmt::Write as _;

fn reg_name(r: Reg) -> String {
    match r {
        regs::ZERO => "zero".into(),
        regs::SP => "sp".into(),
        regs::RA => "ra".into(),
        r if (regs::SCRATCH0..regs::SCRATCH0 + regs::NUM_SCRATCH).contains(&r) => {
            format!("t{}", r - regs::SCRATCH0)
        }
        r if (regs::ARG0..regs::ARG0 + regs::NUM_ARGS).contains(&r) => {
            format!("a{}", r - regs::ARG0)
        }
        r if (regs::CALLER0..regs::CALLER0 + regs::NUM_CALLER).contains(&r) => {
            format!("v{}", r - regs::CALLER0)
        }
        r if (regs::CALLEE0..regs::CALLEE0 + regs::NUM_CALLEE).contains(&r) => {
            format!("s{}", r - regs::CALLEE0)
        }
        r if r >= regs::GLOBAL0 => format!("g{}", r - regs::GLOBAL0),
        r => format!("r{r}"),
    }
}

/// Renders one instruction.
pub fn inst_to_string(i: &Inst) -> String {
    match i {
        Inst::Halt => "halt".into(),
        Inst::Li { rd, imm } => format!("li    {}, {imm:#x}", reg_name(*rd)),
        Inst::Addi { rd, rs, imm } => {
            format!("addi  {}, {}, {imm}", reg_name(*rd), reg_name(*rs))
        }
        Inst::Mov { rd, rs } => format!("mov   {}, {}", reg_name(*rd), reg_name(*rs)),
        Inst::Bin { op, w, rd, ra, rb } => format!(
            "{:<5} {}, {}, {}    ; bits{}",
            format!("{op:?}").to_lowercase(),
            reg_name(*rd),
            reg_name(*ra),
            reg_name(*rb),
            w.bits()
        ),
        Inst::Un { op, w, rd, ra } => format!(
            "{:<5} {}, {}    ; bits{}",
            format!("{op:?}").to_lowercase(),
            reg_name(*rd),
            reg_name(*ra),
            w.bits()
        ),
        Inst::Load { w, rd, rb, off } => {
            format!(
                "ld{}  {}, {off}({})",
                w.bits(),
                reg_name(*rd),
                reg_name(*rb)
            )
        }
        Inst::Store { w, rs, rb, off } => {
            format!(
                "st{}  {}, {off}({})",
                w.bits(),
                reg_name(*rs),
                reg_name(*rb)
            )
        }
        Inst::Bz { rs, target } => format!("bz    {}, {target}", reg_name(*rs)),
        Inst::Jmp { target } => format!("jmp   {target}"),
        Inst::Jr { rs, off } => format!("jr    {}+{off}", reg_name(*rs)),
        Inst::Call { target } => format!("call  {target}"),
        Inst::CallR { rs } => format!("callr {}", reg_name(*rs)),
        Inst::SysYield => "sys.yield".into(),
    }
}

/// Disassembles a whole program, with procedure headers, branch-table
/// markers, and frame-layout comments.
pub fn disassemble(p: &VmProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; halt vector at 0..8; {} instructions total\n",
        p.code.len()
    );
    for meta in &p.proc_meta {
        let _ = writeln!(
            out,
            "{}:    ; frame {} bytes, ra at +{}, {} callee-saves, {} continuation pairs",
            meta.name,
            meta.frame_bytes,
            meta.ra_offset,
            meta.saved_callee.len(),
            meta.cont_slots.len()
        );
        for pc in meta.entry..meta.end {
            let site = p.call_sites.get(&pc);
            let _ = writeln!(out, "  {pc:>5}: {}", inst_to_string(&p.code[pc as usize]));
            if let Some(site) = site {
                let _ = writeln!(
                    out,
                    "         ; call site: {} alternates, {} unwind conts, aborts={}",
                    site.alternates,
                    site.unwind_pcs.len(),
                    site.aborts
                );
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    #[test]
    fn disassembles_every_instruction_kind() {
        let src = r#"
            f(bits32 x) {
                bits32 r, t;
                bits8 b;
                b = %lo8(x);
                bits32[x] = x + 1;
                t = bits32[x];
                r = g(t) also returns to k also unwinds to k2;
                if r == 0 { jump g(r); }
                cut to kv(r) also cuts to k2;
                return (r);
                continuation k(r):
                return (r);
                continuation k2(r):
                yield(1) also aborts;
                return (r);
            }
            g(bits32 a) { bits32 kv; return <1/1> (a); }
        "#;
        // kv is undeclared in f — declare it to build.
        let src = src.replace("bits32 r, t;", "bits32 r, t, kv;");
        let prog = build_program(&parse_module(&src).unwrap()).unwrap();
        let vp = crate::codegen::compile(&prog).unwrap();
        let asm = disassemble(&vp);
        for needle in [
            "li",
            "mov",
            "call",
            "jr",
            "bz",
            "jmp",
            "sys.yield",
            "st",
            "ld",
            "f:",
            "g:",
        ] {
            assert!(asm.contains(needle), "missing `{needle}` in:\n{asm}");
        }
        assert!(asm.contains("call site"));
    }
}
