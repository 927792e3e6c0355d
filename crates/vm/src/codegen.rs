//! Code generation from Abstract C-- to the simulated target.
//!
//! One pass per procedure: classify variables into registers or frame
//! slots (driven by the optimizer's `CalleeSaves` nodes and by which
//! continuations calls can cut to, per §4.2), lay out the frame, then
//! linearize the graph. Call sites annotated `also returns to` get the
//! branch-table method of Figures 3/4; `cut to` compiles to the
//! constant-time 2-word sequence of §5.4; per-procedure and per-call-site
//! tables are deposited for the run-time system's stack walker.

use crate::frame::{CallSiteMeta, Loc, ProcMeta};
use crate::isa::{regs, Inst, Reg};
use cmm_cfg::{Bundle, DataImage, Graph, Node, NodeId, Program, YIELD};
use cmm_ir::{Expr, FWidth, Lvalue, Name, Ty, Width};
use cmm_opt::Liveness;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Errors the code generator can report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodegenError {
    /// More arguments or results than argument registers.
    TooManyValues {
        /// The procedure.
        proc: Name,
        /// How many were needed.
        needed: usize,
    },
    /// Expression too deep for the scratch registers.
    ExprTooDeep(Name),
    /// More global registers than the machine provides.
    TooManyGlobals,
    /// A 64-bit literal that does not fit an immediate.
    LiteralTooWide(Name),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::TooManyValues { proc, needed } => write!(
                f,
                "procedure `{proc}` passes {needed} values; the calling convention provides {}",
                regs::NUM_ARGS
            ),
            CodegenError::ExprTooDeep(p) => {
                write!(
                    f,
                    "procedure `{p}`: expression exceeds the scratch registers"
                )
            }
            CodegenError::TooManyGlobals => write!(f, "too many global registers"),
            CodegenError::LiteralTooWide(p) => {
                write!(
                    f,
                    "procedure `{p}`: 64-bit literal does not fit an immediate"
                )
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// An exception-relevant control transfer the code generator deposited
/// at a specific instruction, keyed by that instruction's pc in
/// [`VmProgram::trace_sites`]. The executing engines consult the table
/// only when a trace sink is live, so tagging costs nothing otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceSite {
    /// The `jr ra+index` of a `return <index/alternates>`.
    Ret {
        /// The chosen branch-table arm.
        index: u32,
        /// The call site's alternate count claimed by the return.
        alternates: u32,
    },
    /// The terminal transfer of a `jump` (a tail call).
    TailCall,
    /// The `jr` of the constant-time `cut to` sequence (§5.4).
    Cut,
}

/// A compiled program: code, tables, and layout.
#[derive(Clone, Debug)]
pub struct VmProgram {
    /// The instruction stream. Index 0 is the halt vector.
    pub code: Vec<Inst>,
    /// Per-procedure layout and unwind tables.
    pub proc_meta: Vec<ProcMeta>,
    /// Entry pc of each procedure.
    pub entries: BTreeMap<Name, u32>,
    /// Call-site tables, keyed by return address (= branch-table base).
    pub call_sites: HashMap<u32, CallSiteMeta>,
    /// Image code address → entry pc (for code pointers stored in data).
    pub code_map: HashMap<u32, u32>,
    /// Global C-- registers and the machine registers holding them.
    pub globals: Vec<(Name, Reg, u64)>,
    /// The static-data image (loaded into memory at startup).
    pub image: DataImage,
    /// Initial stack pointer.
    pub stack_top: u32,
    /// Exception-relevant transfer instructions, keyed by pc.
    pub trace_sites: HashMap<u32, TraceSite>,
    /// Source map: first pc of each emitted graph node, sorted by pc
    /// (emission order is monotone). [`VmProgram::node_at_pc`] recovers
    /// the node — and hence the source statement — behind any pc.
    pub node_map: Vec<(u32, NodeId)>,
    /// Parameter count of each materialized continuation, keyed by the
    /// continuation's entry pc (the pc stored in its `(pc, sp)` pair).
    pub cont_params: HashMap<u32, usize>,
}

impl VmProgram {
    /// The procedure whose code contains `pc`, if any.
    pub fn proc_at_pc(&self, pc: u32) -> Option<&ProcMeta> {
        // `proc_meta` is sorted by entry pc (procedures are emitted
        // back to back after the halt vector), so the owner — if any —
        // is the last procedure whose entry is at or below `pc`.
        let i = self.proc_meta.partition_point(|m| m.entry <= pc);
        self.proc_meta[..i].last().filter(|m| m.contains(pc))
    }

    /// Number of instructions generated for a procedure.
    pub fn proc_len(&self, name: &str) -> Option<u32> {
        self.proc_meta
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.end - m.entry)
    }

    /// The graph node whose code contains `pc`, with its procedure: the
    /// source statement behind a machine fault or trace event. `None`
    /// for pcs outside generated node code (halt vector, prologues, the
    /// yield stub).
    pub fn node_at_pc(&self, pc: u32) -> Option<(&ProcMeta, NodeId)> {
        let meta = self.proc_at_pc(pc)?;
        let i = self.node_map.partition_point(|&(p, _)| p <= pc);
        let &(p, node) = self.node_map[..i].last()?;
        (p >= meta.entry).then_some((meta, node))
    }

    /// A ` (proc:node)` source-location suffix for fault messages, in
    /// the same `f:n12` form the abstract machine's `Wrong` errors use;
    /// empty when `pc` has no source node.
    pub fn locate(&self, pc: u32) -> String {
        match self.node_at_pc(pc) {
            Some((m, n)) => format!(" ({}:{})", m.name, n),
            None => String::new(),
        }
    }
}

/// Compiles a whole Abstract C-- program.
///
/// # Errors
///
/// Returns a [`CodegenError`] if the program exceeds the machine's
/// conventions (argument registers, scratch depth, global registers).
pub fn compile(prog: &Program) -> Result<VmProgram, CodegenError> {
    // The first 8 instructions are the halt vector: a normal top-level
    // return lands on pc 0; an abnormal top-level `return <i/n>` lands
    // on pc i (an error the machine reports).
    let mut out = VmProgram {
        code: vec![Inst::Halt; 8],
        proc_meta: Vec::new(),
        entries: BTreeMap::new(),
        call_sites: HashMap::new(),
        code_map: HashMap::new(),
        globals: Vec::new(),
        image: prog.image.clone(),
        stack_top: 0x0800_0000,
        trace_sites: HashMap::new(),
        node_map: Vec::new(),
        cont_params: HashMap::new(),
    };
    // Global registers.
    for (i, g) in prog.globals.iter().enumerate() {
        let reg = regs::GLOBAL0 as usize + i;
        if reg >= regs::NUM_REGS {
            return Err(CodegenError::TooManyGlobals);
        }
        out.globals.push((
            g.name.clone(),
            reg as Reg,
            g.init.map(|l| l.bits).unwrap_or(0),
        ));
    }
    let global_regs: HashMap<Name, Reg> = out
        .globals
        .iter()
        .map(|(n, r, _)| (n.clone(), *r))
        .collect();

    let mut call_fixups: Vec<(u32, Name)> = Vec::new();
    for (name, g) in &prog.procs {
        let entry = out.code.len() as u32;
        out.entries.insert(name.clone(), entry);
        if name == YIELD {
            gen_yield(&mut out, entry);
            continue;
        }
        let pg = ProcGen::new(prog, g, &global_regs, out.proc_meta.len());
        pg.run(&mut out, &mut call_fixups)?;
    }
    // Patch cross-procedure calls and jumps.
    for (at, target) in call_fixups {
        let pc = out.entries[&target];
        match &mut out.code[at as usize] {
            Inst::Call { target } | Inst::Jmp { target } => *target = pc,
            other => unreachable!("call fixup at non-call {other:?}"),
        }
    }
    // Image code addresses → entries.
    for (addr, name) in &prog.image.code_syms {
        if let Some(&e) = out.entries.get(name) {
            out.code_map.insert(*addr as u32, e);
        }
    }
    Ok(out)
}

/// The `yield` stub: save ra, trap to the run-time system, and (if the
/// run-time system resumes normally) return.
fn gen_yield(out: &mut VmProgram, entry: u32) {
    let frame = 8u32;
    out.code.push(Inst::Addi {
        rd: regs::SP,
        rs: regs::SP,
        imm: -(frame as i32),
    });
    out.code.push(Inst::Store {
        w: Width::W32,
        rs: regs::RA,
        rb: regs::SP,
        off: 0,
    });
    out.code.push(Inst::SysYield);
    out.code.push(Inst::Load {
        w: Width::W32,
        rd: regs::RA,
        rb: regs::SP,
        off: 0,
    });
    out.code.push(Inst::Addi {
        rd: regs::SP,
        rs: regs::SP,
        imm: frame as i32,
    });
    out.code.push(Inst::Jr {
        rs: regs::RA,
        off: 0,
    });
    out.proc_meta.push(ProcMeta {
        name: Name::from(YIELD),
        entry,
        end: out.code.len() as u32,
        frame_bytes: frame,
        ra_offset: 0,
        saved_callee: vec![],
        cont_slots: vec![],
        var_locs: HashMap::new(),
        arity: 1,
    });
}

struct ProcGen<'a> {
    prog: &'a Program,
    g: &'a Graph,
    global_regs: &'a HashMap<Name, Reg>,
    meta_index: usize,
    var_locs: HashMap<Name, Loc>,
    var_widths: HashMap<Name, Width>,
    cont_slots: Vec<(Name, u32)>,
    cont_slot_of: HashMap<NodeId, u32>,
    saved_callee: Vec<(Reg, u32)>,
    frame_bytes: u32,
    ra_offset: u32,
    emitted: HashMap<NodeId, u32>,
    node_fixups: Vec<(u32, NodeId)>,
    cont_pc_fixups: Vec<(u32, NodeId)>,
    site_fixups: Vec<(u32, Vec<NodeId>)>, // call-site key -> unwind cont nodes
    pending: Vec<NodeId>,
}

impl<'a> ProcGen<'a> {
    fn new(
        prog: &'a Program,
        g: &'a Graph,
        global_regs: &'a HashMap<Name, Reg>,
        meta_index: usize,
    ) -> ProcGen<'a> {
        ProcGen {
            prog,
            g,
            global_regs,
            meta_index,
            var_locs: HashMap::new(),
            var_widths: HashMap::new(),
            cont_slots: Vec::new(),
            cont_slot_of: HashMap::new(),
            saved_callee: Vec::new(),
            frame_bytes: 0,
            ra_offset: 0,
            emitted: HashMap::new(),
            node_fixups: Vec::new(),
            cont_pc_fixups: Vec::new(),
            site_fixups: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Continuation names used as values in some expression (those need
    /// a materialized `(pc, sp)` pair in the frame).
    fn value_continuations(&self) -> BTreeSet<Name> {
        let cont_names: BTreeSet<Name> = self
            .g
            .continuations()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let mut used = BTreeSet::new();
        let mut visit = |e: &Expr| {
            e.visit_names(&mut |n| {
                if cont_names.contains(n) {
                    used.insert(n.clone());
                }
            });
        };
        // Only reachable nodes count: the optimizer can strand a call
        // site that took a continuation's value without pruning the node
        // from the arena, and a slot for such a use would fix up against
        // a body that is never emitted.
        let reachable = self.g.reachable();
        for id in self.g.ids().filter(|id| reachable[id.index()]) {
            match self.g.node(id) {
                Node::Assign { lhs, rhs, .. } => {
                    visit(rhs);
                    if let Lvalue::Mem(_, a) = lhs {
                        visit(a);
                    }
                }
                Node::Branch { cond, .. } => visit(cond),
                Node::CopyOut { exprs, .. } => exprs.iter().for_each(&mut visit),
                Node::Call { callee, .. } => visit(callee),
                Node::Jump { callee } => visit(callee),
                Node::CutTo { cont, .. } => visit(cont),
                _ => {}
            }
        }
        used
    }

    /// Variable classification, per §4.2: promoted variables get
    /// callee-saves registers; variables live across calls but not
    /// promoted (including everything live into a cut continuation) get
    /// frame slots; everything else gets caller-saves registers.
    fn allocate(&mut self) {
        let live = Liveness::compute(self.g);
        let mut promoted: BTreeSet<Name> = BTreeSet::new();
        let mut across = vec![0u64; live.locals().words()];
        for id in self.g.reverse_postorder() {
            match self.g.node(id) {
                Node::CalleeSaves { vars, .. } => promoted.extend(vars.iter().cloned()),
                Node::Call { bundle, .. } => {
                    for t in bundle.targets() {
                        live.live_in(t).or_into(&mut across);
                    }
                }
                _ => {}
            }
        }
        let across = live.locals().set(&across);
        let mut callee_next = 0u8;
        let mut caller_next = 0u8;
        let mut frame_vars: Vec<Name> = Vec::new();
        for (v, ty) in &self.g.vars {
            self.var_widths.insert(v.clone(), width_of(*ty));
            let loc = if promoted.contains(v) && callee_next < regs::NUM_CALLEE {
                let r = regs::CALLEE0 + callee_next;
                callee_next += 1;
                Loc::CalleeReg(r)
            } else if !across.contains(v) && caller_next < regs::NUM_CALLER {
                let r = regs::CALLER0 + caller_next;
                caller_next += 1;
                Loc::CallerReg(r)
            } else {
                frame_vars.push(v.clone());
                Loc::Frame(0) // offset assigned below
            };
            self.var_locs.insert(v.clone(), loc);
        }
        // Frame layout: continuation pairs, saved callee regs, frame
        // vars, saved ra. A continuation needs a materialized (pc, sp)
        // pair only if its name is used as a *value* somewhere in the
        // procedure — continuations reached purely through annotations
        // (branch tables, unwind tables) cost nothing at run time, which
        // is the "zero overhead to enter the scope of a handler" half of
        // the §4.2 trade-off.
        let value_conts = self.value_continuations();
        let mut off = 0u32;
        for (name, node) in self.g.continuations() {
            if !value_conts.contains(name) {
                continue;
            }
            self.cont_slots.push((name.clone(), off));
            self.cont_slot_of.insert(*node, off);
            off += 8;
        }
        for i in 0..callee_next {
            self.saved_callee.push((regs::CALLEE0 + i, off));
            off += 4;
        }
        for v in frame_vars {
            self.var_locs.insert(v, Loc::Frame(off));
            off += 8;
        }
        self.ra_offset = off;
        off += 4;
        self.frame_bytes = (off + 7) & !7;
    }

    fn run(
        mut self,
        out: &mut VmProgram,
        call_fixups: &mut Vec<(u32, Name)>,
    ) -> Result<(), CodegenError> {
        self.allocate();
        let entry_pc = out.code.len() as u32;
        self.prologue(out);
        // A continuation whose (pc, sp) pair is materialized can be
        // entered through `SetCutToCont` even when no surviving call
        // site names it in an annotation, so its body must be emitted.
        self.pending.extend(self.cont_slot_of.keys().copied());
        // Emit the body starting at the entry node's successor.
        let Node::Entry { next, .. } = self.g.node(self.g.entry) else {
            unreachable!("procedure graphs start with Entry");
        };
        self.emit_chain(out, *next, call_fixups)?;
        while let Some(n) = self.pending.pop() {
            if !self.emitted.contains_key(&n) {
                self.emit_chain(out, n, call_fixups)?;
            }
        }
        // Patch intra-procedure fixups.
        for (at, node) in std::mem::take(&mut self.node_fixups) {
            let pc = self.emitted[&node];
            match &mut out.code[at as usize] {
                Inst::Bz { target, .. } | Inst::Jmp { target } | Inst::Call { target } => {
                    *target = pc
                }
                other => unreachable!("node fixup at {other:?}"),
            }
        }
        for (at, node) in std::mem::take(&mut self.cont_pc_fixups) {
            let pc = self.emitted[&node];
            match &mut out.code[at as usize] {
                Inst::Li { imm, .. } => *imm = pc,
                other => unreachable!("cont fixup at {other:?}"),
            }
            // The pc stored in the continuation's (pc, sp) pair keys its
            // parameter count, so SetCutToCont can stage exactly the
            // slots the continuation expects.
            let params = match self.g.node(node) {
                Node::CopyIn { vars, .. } => vars.len(),
                _ => 0,
            };
            out.cont_params.insert(pc, params);
        }
        for (site, nodes) in std::mem::take(&mut self.site_fixups) {
            let pcs: Vec<u32> = nodes.iter().map(|n| self.emitted[n]).collect();
            out.call_sites
                .get_mut(&site)
                .expect("site registered")
                .unwind_pcs = pcs;
        }
        out.proc_meta.push(ProcMeta {
            name: self.g.name.clone(),
            entry: entry_pc,
            end: out.code.len() as u32,
            frame_bytes: self.frame_bytes,
            ra_offset: self.ra_offset,
            saved_callee: self.saved_callee.clone(),
            cont_slots: self.cont_slots.clone(),
            var_locs: self.var_locs.clone(),
            arity: self.g.arity,
        });
        Ok(())
    }

    fn prologue(&mut self, out: &mut VmProgram) {
        out.code.push(Inst::Addi {
            rd: regs::SP,
            rs: regs::SP,
            imm: -(self.frame_bytes as i32),
        });
        out.code.push(Inst::Store {
            w: Width::W32,
            rs: regs::RA,
            rb: regs::SP,
            off: self.ra_offset as i32,
        });
        for &(reg, off) in &self.saved_callee {
            out.code.push(Inst::Store {
                w: Width::W32,
                rs: reg,
                rb: regs::SP,
                off: off as i32,
            });
        }
        // Initialize continuation (pc, sp) pairs — "2 pointers" (§2) —
        // for the continuations whose values are actually taken.
        let mut slots: Vec<(NodeId, u32)> =
            self.cont_slot_of.iter().map(|(&n, &o)| (n, o)).collect();
        slots.sort_by_key(|&(_, o)| o);
        for (node, off) in slots {
            let li_at = out.code.len() as u32;
            out.code.push(Inst::Li {
                rd: regs::SCRATCH0,
                imm: 0,
            });
            self.cont_pc_fixups.push((li_at, node));
            out.code.push(Inst::Store {
                w: Width::W32,
                rs: regs::SCRATCH0,
                rb: regs::SP,
                off: off as i32,
            });
            out.code.push(Inst::Store {
                w: Width::W32,
                rs: regs::SP,
                rb: regs::SP,
                off: off as i32 + 4,
            });
        }
    }

    fn epilogue(&self, out: &mut VmProgram) {
        for &(reg, off) in &self.saved_callee {
            out.code.push(Inst::Load {
                w: Width::W32,
                rd: reg,
                rb: regs::SP,
                off: off as i32,
            });
        }
        out.code.push(Inst::Load {
            w: Width::W32,
            rd: regs::RA,
            rb: regs::SP,
            off: self.ra_offset as i32,
        });
        out.code.push(Inst::Addi {
            rd: regs::SP,
            rs: regs::SP,
            imm: self.frame_bytes as i32,
        });
    }

    fn emit_chain(
        &mut self,
        out: &mut VmProgram,
        start: NodeId,
        call_fixups: &mut Vec<(u32, Name)>,
    ) -> Result<(), CodegenError> {
        let g = self.g;
        let mut cur = start;
        loop {
            if let Some(&pc) = self.emitted.get(&cur) {
                out.code.push(Inst::Jmp { target: pc });
                return Ok(());
            }
            self.emitted.insert(cur, out.code.len() as u32);
            out.node_map.push((out.code.len() as u32, cur));
            match g.node(cur) {
                Node::Entry { .. } => unreachable!("entry emitted via prologue"),
                Node::CopyIn { vars, next } => {
                    if vars.len() > regs::NUM_ARGS as usize {
                        return Err(CodegenError::TooManyValues {
                            proc: self.g.name.clone(),
                            needed: vars.len(),
                        });
                    }
                    for (i, v) in vars.iter().enumerate() {
                        self.store_var(out, v, regs::ARG0 + i as u8);
                    }
                    cur = *next;
                }
                Node::CopyOut { exprs, next } => {
                    if exprs.len() > regs::NUM_ARGS as usize {
                        return Err(CodegenError::TooManyValues {
                            proc: self.g.name.clone(),
                            needed: exprs.len(),
                        });
                    }
                    for (i, e) in exprs.iter().enumerate() {
                        let r = self.eval(out, e, 0)?;
                        out.code.push(Inst::Mov {
                            rd: regs::ARG0 + i as u8,
                            rs: r,
                        });
                    }
                    cur = *next;
                }
                Node::CalleeSaves { next, .. } => {
                    // Allocation already honoured the set; no code.
                    cur = *next;
                }
                Node::Assign { lhs, rhs, next } => {
                    match lhs {
                        Lvalue::Var(v) => {
                            let r = self.eval(out, rhs, 0)?;
                            self.store_var(out, v, r);
                        }
                        Lvalue::Mem(ty, a) => {
                            let rv = self.eval(out, rhs, 0)?;
                            // Keep the value safe in scratch 0's slot;
                            // evaluate the address above it.
                            let rv = if rv == regs::SCRATCH0 {
                                rv
                            } else {
                                out.code.push(Inst::Mov {
                                    rd: regs::SCRATCH0,
                                    rs: rv,
                                });
                                regs::SCRATCH0
                            };
                            let ra_ = self.eval(out, a, 1)?;
                            out.code.push(Inst::Store {
                                w: width_of(*ty),
                                rs: rv,
                                rb: ra_,
                                off: 0,
                            });
                        }
                    }
                    cur = *next;
                }
                Node::Branch { cond, t, f } => {
                    let r = self.eval(out, cond, 0)?;
                    let at = out.code.len() as u32;
                    out.code.push(Inst::Bz { rs: r, target: 0 });
                    self.node_fixups.push((at, *f));
                    self.pending.push(*f);
                    cur = *t;
                }
                Node::Call {
                    callee,
                    bundle,
                    descriptors,
                } => {
                    self.emit_call(out, callee, bundle, descriptors, call_fixups)?;
                    // Fall through to the normal return point, which
                    // lands exactly at ra + alternates.
                    cur = bundle.normal_return();
                }
                Node::Jump { callee } => {
                    // Evaluate the target before deallocating the frame.
                    let target = match callee {
                        Expr::Name(n) if self.prog.procs.contains_key(n) => None,
                        e => Some(self.eval(out, e, 5)?),
                    };
                    self.epilogue(out);
                    let at = out.code.len() as u32;
                    out.trace_sites.insert(at, TraceSite::TailCall);
                    match target {
                        None => {
                            let Expr::Name(n) = callee else {
                                unreachable!()
                            };
                            out.code.push(Inst::Jmp { target: 0 });
                            call_fixups.push((at, n.clone()));
                        }
                        Some(r) => out.code.push(Inst::Jr { rs: r, off: 0 }),
                    }
                    return Ok(());
                }
                Node::Exit { index, alternates } => {
                    self.epilogue(out);
                    out.trace_sites.insert(
                        out.code.len() as u32,
                        TraceSite::Ret {
                            index: *index,
                            alternates: *alternates,
                        },
                    );
                    out.code.push(Inst::Jr {
                        rs: regs::RA,
                        off: *index as i32,
                    });
                    return Ok(());
                }
                Node::CutTo { cont, .. } => {
                    // Constant time: load (pc, sp) and go.
                    let r = self.eval(out, cont, 0)?;
                    out.code.push(Inst::Load {
                        w: Width::W32,
                        rd: regs::SCRATCH0 + 1,
                        rb: r,
                        off: 0,
                    });
                    out.code.push(Inst::Load {
                        w: Width::W32,
                        rd: regs::SP,
                        rb: r,
                        off: 4,
                    });
                    out.trace_sites
                        .insert(out.code.len() as u32, TraceSite::Cut);
                    out.code.push(Inst::Jr {
                        rs: regs::SCRATCH0 + 1,
                        off: 0,
                    });
                    return Ok(());
                }
                Node::Yield => unreachable!("yield stub generated separately"),
            }
        }
    }

    fn emit_call(
        &mut self,
        out: &mut VmProgram,
        callee: &Expr,
        bundle: &Bundle,
        descriptors: &[Name],
        call_fixups: &mut Vec<(u32, Name)>,
    ) -> Result<(), CodegenError> {
        match callee {
            Expr::Name(n) if self.prog.procs.contains_key(n) => {
                let at = out.code.len() as u32;
                out.code.push(Inst::Call { target: 0 });
                call_fixups.push((at, n.clone()));
            }
            e => {
                let r = self.eval(out, e, 0)?;
                out.code.push(Inst::CallR { rs: r });
            }
        }
        let site = out.code.len() as u32; // the return address
                                          // Branch table for `also returns to` (Figures 3/4).
        let alternates = bundle.alternates();
        for &alt in &bundle.returns[..alternates as usize] {
            let at = out.code.len() as u32;
            out.code.push(Inst::Jmp { target: 0 });
            self.node_fixups.push((at, alt));
            self.pending.push(alt);
        }
        // Make sure exceptional continuations get code.
        for &t in bundle.unwinds.iter().chain(bundle.cuts.iter()) {
            self.pending.push(t);
        }
        // Deposit the call-site table.
        let meta = CallSiteMeta {
            proc: self.meta_index,
            alternates,
            unwind_pcs: Vec::new(), // patched later
            unwind_params: bundle
                .unwinds
                .iter()
                .map(|&t| match self.g.node(t) {
                    Node::CopyIn { vars, .. } => vars.len(),
                    _ => 0,
                })
                .collect(),
            aborts: bundle.aborts,
            descriptors: descriptors
                .iter()
                .filter_map(|d| self.prog.image.symbol(d.as_str()).map(|a| a as u32))
                .collect(),
            normal_params: match self.g.node(bundle.normal_return()) {
                Node::CopyIn { vars, .. } => vars.len(),
                _ => 0,
            },
        };
        out.call_sites.insert(site, meta);
        self.site_fixups.push((site, bundle.unwinds.clone()));
        Ok(())
    }

    fn store_var(&mut self, out: &mut VmProgram, v: &Name, from: Reg) {
        match self.var_locs.get(v) {
            Some(Loc::CallerReg(r)) | Some(Loc::CalleeReg(r)) => {
                out.code.push(Inst::Mov { rd: *r, rs: from });
            }
            Some(Loc::Frame(off)) => {
                let w = self.var_widths.get(v).copied().unwrap_or(Width::W32);
                out.code.push(Inst::Store {
                    w,
                    rs: from,
                    rb: regs::SP,
                    off: *off as i32,
                });
            }
            None => {
                // A global register.
                let r = self.global_regs[v];
                out.code.push(Inst::Mov { rd: r, rs: from });
            }
        }
    }

    /// Evaluates an expression, returning the register holding the
    /// result (a home register for simple variable reads, otherwise a
    /// scratch register at depth `sidx`).
    fn eval(&mut self, out: &mut VmProgram, e: &Expr, sidx: u8) -> Result<Reg, CodegenError> {
        if sidx >= regs::NUM_SCRATCH {
            return Err(CodegenError::ExprTooDeep(self.g.name.clone()));
        }
        let dst = regs::SCRATCH0 + sidx;
        match e {
            Expr::Lit(l) => {
                if l.bits > u64::from(u32::MAX) {
                    return Err(CodegenError::LiteralTooWide(self.g.name.clone()));
                }
                out.code.push(Inst::Li {
                    rd: dst,
                    imm: l.bits as u32,
                });
                Ok(dst)
            }
            Expr::Name(n) => {
                match self.var_locs.get(n) {
                    Some(Loc::CallerReg(r)) | Some(Loc::CalleeReg(r)) => return Ok(*r),
                    Some(Loc::Frame(off)) => {
                        let w = self.var_widths.get(n).copied().unwrap_or(Width::W32);
                        out.code.push(Inst::Load {
                            w,
                            rd: dst,
                            rb: regs::SP,
                            off: *off as i32,
                        });
                        return Ok(dst);
                    }
                    None => {}
                }
                if let Some(r) = self.global_regs.get(n) {
                    return Ok(*r);
                }
                // A continuation bound at entry: its value is the
                // address of the (pc, sp) pair in this frame.
                if let Some(&node) = self
                    .g
                    .continuations()
                    .iter()
                    .find(|(cn, _)| cn == n)
                    .map(|(_, id)| id)
                {
                    let off = self.cont_slot_of[&node];
                    out.code.push(Inst::Addi {
                        rd: dst,
                        rs: regs::SP,
                        imm: off as i32,
                    });
                    return Ok(dst);
                }
                // A procedure or data symbol: a link-time constant.
                let addr = self
                    .prog
                    .image
                    .symbol(n.as_str())
                    .expect("build_program validated all names");
                out.code.push(Inst::Li {
                    rd: dst,
                    imm: addr as u32,
                });
                Ok(dst)
            }
            Expr::Mem(ty, a) => {
                let r = self.eval(out, a, sidx)?;
                out.code.push(Inst::Load {
                    w: width_of(*ty),
                    rd: dst,
                    rb: r,
                    off: 0,
                });
                Ok(dst)
            }
            Expr::Unary(op, a) => {
                let w = self.infer_width(a);
                let r = self.eval(out, a, sidx)?;
                out.code.push(Inst::Un {
                    op: *op,
                    w,
                    rd: dst,
                    ra: r,
                });
                Ok(dst)
            }
            Expr::Binary(op, a, b) => {
                let w = self.infer_width(a);
                // If the left operand landed in our scratch register it
                // stays safe: the right subtree evaluates at sidx + 1.
                let ra_ = self.eval(out, a, sidx)?;
                let rb = self.eval(out, b, sidx + 1)?;
                out.code.push(Inst::Bin {
                    op: *op,
                    w,
                    rd: dst,
                    ra: ra_,
                    rb,
                });
                Ok(dst)
            }
        }
    }

    /// Static width inference (the source is width-consistent; the
    /// abstract machine checks dynamically).
    fn infer_width(&self, e: &Expr) -> Width {
        match e {
            Expr::Lit(l) => width_of(l.ty),
            Expr::Name(n) => self.var_widths.get(n).copied().unwrap_or(Width::W32),
            Expr::Mem(ty, _) => width_of(*ty),
            Expr::Unary(op, a) => op.eval(self.infer_width(a), 0).1,
            Expr::Binary(op, a, _) => {
                if op.is_comparison() {
                    Width::W32
                } else {
                    self.infer_width(a)
                }
            }
        }
    }
}

fn width_of(ty: Ty) -> Width {
    match ty {
        Ty::Bits(w) => w,
        Ty::Float(FWidth::F32) => Width::W32,
        Ty::Float(FWidth::F64) => Width::W64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn compile_src(src: &str) -> VmProgram {
        compile(&build_program(&parse_module(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn generates_code_for_figure1() {
        let vp = compile_src(
            r#"
            sp1(bits32 n) {
                bits32 s, p;
                if n == 1 { return (1, 1); }
                else { s, p = sp1(n - 1); return (s + n, p * n); }
            }
            "#,
        );
        assert!(vp.entries.contains_key("sp1"));
        assert!(vp.proc_len("sp1").unwrap() > 10);
        assert_eq!(vp.code[0], Inst::Halt);
        assert!(
            vp.entries["sp1"] >= 8,
            "halt vector occupies the first 8 slots"
        );
    }

    #[test]
    fn branch_table_immediately_follows_call() {
        let vp = compile_src(
            r#"
            f() {
                bits32 r;
                r = g() also returns to k0, k1;
                return (r);
                continuation k0(r):
                return (r + 1);
                continuation k1(r):
                return (r + 2);
            }
            g() { return <2/2> (5); }
            "#,
        );
        // Find the call to g in f and check two Jmp slots follow it.
        let f = vp.proc_meta.iter().find(|m| m.name == "f").unwrap();
        let call_at = (f.entry..f.end)
            .find(|&pc| matches!(vp.code[pc as usize], Inst::Call { .. }))
            .expect("call in f");
        assert!(matches!(vp.code[call_at as usize + 1], Inst::Jmp { .. }));
        assert!(matches!(vp.code[call_at as usize + 2], Inst::Jmp { .. }));
        let site = vp.call_sites.get(&(call_at + 1)).expect("call site table");
        assert_eq!(site.alternates, 2);
    }

    #[test]
    fn cut_to_is_constant_length() {
        let vp = compile_src(
            r#"
            f() {
                bits32 r;
                r = g(k) also cuts to k;
                return (r);
                continuation k(r):
                return (r);
            }
            g(bits32 kk) { cut to kk(1); return (0); }
            "#,
        );
        let g = vp.proc_meta.iter().find(|m| m.name == "g").unwrap();
        // The cut sequence: eval cont (arg reg move aside) + 2 loads + jr.
        let cut_jrs = (g.entry..g.end)
            .filter(|&pc| matches!(vp.code[pc as usize], Inst::Jr { .. }))
            .count();
        assert!(cut_jrs >= 1);
        // The continuation slots cost exactly 2 stores in f's prologue
        // (the "2 pointers" of §2), beyond ra/callee saves.
        let f = vp.proc_meta.iter().find(|m| m.name == "f").unwrap();
        assert_eq!(f.cont_slots.len(), 1);
    }

    #[test]
    fn unwind_tables_deposited() {
        let vp = compile_src(
            r#"
            f() {
                bits32 r;
                r = g() also unwinds to k also descriptor d;
                return (r);
                continuation k(r):
                return (r);
            }
            g() { yield(1) also aborts; return (0); }
            data d { bits32 42; }
            "#,
        );
        let site = vp
            .call_sites
            .values()
            .find(|s| !s.unwind_pcs.is_empty())
            .expect("annotated call site");
        assert_eq!(site.unwind_pcs.len(), 1);
        assert_eq!(site.unwind_params, vec![1]);
        assert_eq!(site.descriptors.len(), 1);
    }

    #[test]
    fn globals_get_registers() {
        let vp = compile_src("register bits32 exn_top = 7; f() { exn_top = exn_top + 1; return; }");
        assert_eq!(vp.globals.len(), 1);
        assert_eq!(vp.globals[0].2, 7);
    }
}
