//! The simulated machine: executor and cost model.

use crate::codegen::{TraceSite, VmProgram};
use crate::decode::DecodedCode;
use crate::isa::{regs, Inst};
use crate::mem::Memory;
use cmm_chaos::{EngineId, ResourceGovernor};
use cmm_ir::ProcId;
use cmm_obs::{Event, NopSink, TraceSink};
use std::sync::Arc;

/// Synthetic image code addresses start here (see `cmm_cfg::DataImage`).
const CODE_BASE: u32 = 0x4000_0000;

/// Execution status.
#[derive(Clone, PartialEq, Debug)]
pub enum VmStatus {
    /// Not started.
    Idle,
    /// Executing generated code.
    Running,
    /// Trapped into the front-end run-time system (`SysYield`).
    Suspended,
    /// Returned to the halt vector; holds the result values.
    Halted(Vec<u64>),
    /// The machine faulted (failing primitive, abnormal top-level
    /// return, bad indirect target).
    Error(String),
    /// Fuel exhausted; `run` again to continue.
    OutOfFuel,
}

/// The exact cost model: every retired instruction is counted, and
/// memory traffic and control transfers are broken out.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Cost {
    /// Instructions retired.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Control transfers (branches, jumps, calls, returns).
    pub branches: u64,
    /// Calls executed.
    pub calls: u64,
    /// Instruction-equivalents charged by the (Rust-implemented)
    /// front-end run-time system for stack walking and dispatch.
    pub runtime_instructions: u64,
}

impl Cost {
    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &Cost) -> Cost {
        Cost {
            instructions: self.instructions - earlier.instructions,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            branches: self.branches - earlier.branches,
            calls: self.calls - earlier.calls,
            runtime_instructions: self.runtime_instructions - earlier.runtime_instructions,
        }
    }

    /// Total work: generated instructions plus run-time-system
    /// instruction equivalents.
    pub fn total(&self) -> u64 {
        self.instructions + self.runtime_instructions
    }
}

/// The simulated machine.
///
/// Generic over a [`TraceSink`]; the default [`NopSink`] has
/// `ENABLED = false`, so every emission site below folds away and the
/// untraced machine is bit-identical to the pre-observability one.
#[derive(Clone, Debug)]
pub struct VmMachine<'p, S: TraceSink = NopSink> {
    /// The compiled program.
    pub program: &'p VmProgram,
    /// The register file.
    pub regs: [u64; regs::NUM_REGS],
    /// Memory.
    pub mem: Memory,
    /// The program counter.
    pub pc: u32,
    /// Accumulated costs.
    pub cost: Cost,
    pub(crate) status: VmStatus,
    pub(crate) expected_results: usize,
    /// When present, `run` executes over this stream, decoded or fused
    /// (see [`crate::decode`]), instead of stepping the original `Inst`
    /// array. Shared so cloning a machine shares the lowering.
    decoded: Option<Arc<DecodedCode>>,
    /// The `cmm-chaos` resource governor: its fuel slice clips each
    /// `run` call.
    governor: ResourceGovernor,
    pub(crate) sink: S,
}

impl<'p> VmMachine<'p> {
    /// Creates a machine with memory loaded from the program's data
    /// image and global registers initialized.
    pub fn new(program: &'p VmProgram) -> VmMachine<'p> {
        VmMachine::with_sink(program, NopSink)
    }

    /// Creates a machine that executes via the pre-decoded engine: the
    /// instruction stream is lowered once (see [`crate::decode`]) and
    /// `run` dispatches over the dense form. Observable behaviour is
    /// identical to [`VmMachine::new`]; only the step loop differs.
    pub fn new_decoded(program: &'p VmProgram) -> VmMachine<'p> {
        VmMachine::with_sink_decoded(program, NopSink)
    }

    /// [`VmMachine::new_decoded`] over an *already built* stream,
    /// decoded or fused, e.g. one memoized by `cmm-pool`'s compilation
    /// cache: the caller pays the lowering once and every machine after
    /// that shares it. `decoded` must come from [`DecodedCode::decode`]
    /// (and perhaps [`DecodedCode::fuse`]) on this same `program`.
    pub fn new_shared_decoded(program: &'p VmProgram, decoded: Arc<DecodedCode>) -> VmMachine<'p> {
        VmMachine::with_sink_shared_decoded(program, decoded, NopSink)
    }

    /// Creates a machine that executes via the fused stream: the
    /// instruction stream is decoded and then fused once (see
    /// [`crate::fuse`]) and `run` dispatches whole windows. Observable
    /// behaviour is identical to [`VmMachine::new`]; only the step loop
    /// differs.
    pub fn new_fused(program: &'p VmProgram) -> VmMachine<'p> {
        VmMachine::with_sink_fused(program, NopSink)
    }
}

/// A reusable execution arena: the heap structures a machine allocates
/// per run (today: [`Memory`] and its page pool), banked by one batch
/// worker and threaded through consecutive jobs so the hot run phase
/// stops paying the allocator per job.
///
/// The arena carries **no observable state**: a machine built `_in` an
/// arena starts from exactly the state a fresh one would (the recycled
/// memory reads all-zero and reports zero mapped bytes before the image
/// loads), so arena reuse is invisible to every oracle — the
/// engine-equivalence suite locks this in.
#[derive(Debug, Default)]
pub struct VmArena {
    /// `None` until a machine is recycled into the arena, so drawing
    /// from an empty arena allocates one memory, not a placeholder too.
    mem: Option<Memory>,
}

impl VmArena {
    /// An empty arena.
    pub fn new() -> VmArena {
        VmArena::default()
    }
}

/// Checks argument and result counts against the calling convention:
/// both travel in the [`regs::NUM_ARGS`] value registers, so no call
/// can carry more of either. Every surface that starts or resumes a
/// thread — [`VmMachine::start`], [`VmMachine::restore`], the execution
/// service and batch manifests — refuses larger counts with this one
/// message, so both engine families answer alike.
///
/// # Errors
///
/// Names the count that does not fit.
pub fn check_arity(args: usize, results: usize) -> Result<(), String> {
    let max = regs::NUM_ARGS as usize;
    for (n, what) in [(args, "arguments"), (results, "results")] {
        if n > max {
            return Err(format!(
                "{n} {what} exceed the calling convention's {max} value registers"
            ));
        }
    }
    Ok(())
}

/// The procedure owning `pc`, [`ProcId::NONE`] outside every
/// procedure's code (shared by both step loops so their event payloads
/// cannot drift).
pub(crate) fn proc_at(program: &VmProgram, pc: u32) -> ProcId {
    program.proc_id_at(pc).unwrap_or(ProcId::NONE)
}

impl<'p, S: TraceSink> VmMachine<'p, S> {
    /// Creates a machine emitting trace events into `sink` (see
    /// [`VmMachine::new`] for the machine-state initialization).
    pub fn with_sink(program: &'p VmProgram, sink: S) -> VmMachine<'p, S> {
        VmMachine::with_sink_in(program, sink, &mut VmArena::new())
    }

    /// [`VmMachine::with_sink`] drawing the machine's heap structures
    /// from `arena` instead of the allocator. The machine starts from
    /// exactly the state a fresh one would; reclaim the allocations
    /// afterwards with [`VmMachine::recycle_into`].
    pub fn with_sink_in(program: &'p VmProgram, sink: S, arena: &mut VmArena) -> VmMachine<'p, S> {
        let mut mem = arena.mem.take().unwrap_or_default();
        // Already recycled on reclaim; recycling again is free and
        // keeps the draw correct whatever the arena was handed.
        mem.recycle();
        for (&a, &b) in &program.image.bytes {
            mem.write_u8(a as u32, b);
        }
        let mut regs_file = [0u64; regs::NUM_REGS];
        for (_, reg, init) in &program.globals {
            regs_file[*reg as usize] = *init;
        }
        regs_file[regs::SP as usize] = u64::from(program.stack_top);
        VmMachine {
            program,
            regs: regs_file,
            mem,
            pc: 0,
            cost: Cost::default(),
            status: VmStatus::Idle,
            expected_results: 0,
            decoded: None,
            governor: ResourceGovernor::unlimited(),
            sink,
        }
    }

    /// Installs a `cmm-chaos` resource governor: `fuel_slice` clips
    /// each `run` call's fuel.
    pub fn set_governor(&mut self, g: ResourceGovernor) {
        self.governor = g;
    }

    /// Creates a pre-decoded machine emitting trace events into `sink`
    /// (see [`VmMachine::new_decoded`]).
    pub fn with_sink_decoded(program: &'p VmProgram, sink: S) -> VmMachine<'p, S> {
        let mut m = VmMachine::with_sink(program, sink);
        m.decoded = Some(Arc::new(DecodedCode::decode(program)));
        m
    }

    /// Creates a tracing machine over a shared, already built stream,
    /// decoded or fused (see [`VmMachine::new_shared_decoded`]).
    pub fn with_sink_shared_decoded(
        program: &'p VmProgram,
        decoded: Arc<DecodedCode>,
        sink: S,
    ) -> VmMachine<'p, S> {
        let mut m = VmMachine::with_sink(program, sink);
        m.decoded = Some(decoded);
        m
    }

    /// [`VmMachine::with_sink_shared_decoded`] drawing the machine's
    /// heap structures from `arena` (see [`VmMachine::with_sink_in`]).
    pub fn with_sink_shared_decoded_in(
        program: &'p VmProgram,
        decoded: Arc<DecodedCode>,
        sink: S,
        arena: &mut VmArena,
    ) -> VmMachine<'p, S> {
        let mut m = VmMachine::with_sink_in(program, sink, arena);
        m.decoded = Some(decoded);
        m
    }

    /// Creates a fused machine emitting trace events into `sink` (see
    /// [`VmMachine::new_fused`]).
    pub fn with_sink_fused(program: &'p VmProgram, sink: S) -> VmMachine<'p, S> {
        let plain = Arc::new(DecodedCode::decode(program));
        let fused = Arc::new(DecodedCode::fuse(program, plain));
        VmMachine::with_sink_shared_decoded(program, fused, sink)
    }

    /// Consumes the machine and banks its heap allocations in `arena`
    /// for the next [`VmMachine::with_sink_in`]. The arena ends up
    /// observationally empty (the memory is recycled on the spot), so
    /// nothing from this run can leak into the next.
    pub fn recycle_into(mut self, arena: &mut VmArena) {
        self.mem.recycle();
        arena.mem = Some(self.mem);
    }

    /// The trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the machine, returning the sink (and its recording).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Emits a trace event stamped with the cost-model clock. Compiles
    /// to nothing for the default `NopSink`.
    #[inline]
    pub(crate) fn emit(&mut self, e: Event) {
        if S::ENABLED {
            self.sink.event(self.cost.total(), e);
        }
    }

    /// Emits the event deposited at a `jr` instruction, if any (shared
    /// by both step loops so the payloads cannot drift). `now` is the
    /// emitting loop's cost clock and `next` the resolved target pc.
    #[inline]
    pub(crate) fn emit_jr_site(&mut self, now: u64, pc: u32, next: u32) {
        let Some(&site) = self.program.trace_sites.get(&pc) else {
            return;
        };
        let e = match site {
            TraceSite::Ret { index, alternates } => Event::Return {
                proc: proc_at(self.program, pc),
                index,
                alternates,
            },
            TraceSite::TailCall => Event::TailCall {
                caller: proc_at(self.program, pc),
                callee: proc_at(self.program, next),
            },
            TraceSite::Cut => Event::CutTo {
                proc: proc_at(self.program, pc),
                target: proc_at(self.program, next),
                killed_saves: 0,
            },
        };
        self.sink.event(now, e);
    }

    /// Emits the tail-call event deposited at a direct `jmp`, if any
    /// (the only site kind the code generator tags on a `jmp`).
    #[inline]
    pub(crate) fn emit_jmp_site(&mut self, now: u64, pc: u32, target: u32) {
        if self.program.trace_sites.get(&pc) == Some(&TraceSite::TailCall) {
            let e = Event::TailCall {
                caller: proc_at(self.program, pc),
                callee: proc_at(self.program, target),
            };
            self.sink.event(now, e);
        }
    }

    /// The tier this machine runs: `vm` when it steps the original
    /// instructions, else the tier its stream names.
    pub fn tier(&self) -> EngineId {
        self.decoded.as_ref().map_or(EngineId::Vm, |d| d.tier)
    }

    /// Current status.
    pub fn status(&self) -> &VmStatus {
        &self.status
    }

    /// Begins execution of a procedure. `args` go to the argument
    /// registers; on return to the halt vector, `expected_results`
    /// values are collected from them.
    ///
    /// A procedure that does not exist (programs are normally linked
    /// before execution), or more arguments or results than the
    /// calling convention carries ([`check_arity`]), leaves the machine
    /// in [`VmStatus::Error`].
    pub fn start(&mut self, proc: &str, args: &[u64], expected_results: usize) {
        let Some(&entry) = self.program.entries.get(proc) else {
            self.status = VmStatus::Error(format!("no such procedure `{proc}`"));
            return;
        };
        if let Err(e) = check_arity(args.len(), expected_results) {
            self.status = VmStatus::Error(e);
            return;
        }
        for (i, &a) in args.iter().enumerate() {
            self.regs[regs::ARG0 as usize + i] = a;
        }
        self.regs[regs::RA as usize] = 0;
        self.pc = entry;
        self.expected_results = expected_results;
        self.status = VmStatus::Running;
    }

    /// Reads a register.
    pub fn reg(&self, r: u8) -> u64 {
        self.regs[r as usize]
    }

    /// The values passed to `yield` (while suspended): the argument
    /// registers.
    pub fn yield_args(&self, n: usize) -> Vec<u64> {
        (0..n).map(|i| self.reg(regs::ARG0 + i as u8)).collect()
    }

    /// Translates a code value (an instruction index, or an image code
    /// address from a `sym` table or procedure-name constant).
    pub fn code_target(&self, v: u64) -> Result<u32, String> {
        let v32 = v as u32;
        if v32 >= CODE_BASE {
            self.program
                .code_map
                .get(&v32)
                .copied()
                .ok_or_else(|| format!("bad code address {v32:#x}"))
        } else {
            Ok(v32)
        }
    }

    /// Marks the machine runnable again after the run-time system has
    /// applied a resumption (crate-internal protocol with `VmThread`).
    pub fn force_running(&mut self) {
        self.status = VmStatus::Running;
    }

    /// Runs up to `fuel` instructions, clipped to the governor's slice.
    pub fn run(&mut self, fuel: u64) -> VmStatus {
        let fuel = self.governor.slice(fuel);
        if let Some(decoded) = &self.decoded {
            let decoded = Arc::clone(decoded);
            return self.run_code(&decoded, fuel);
        }
        self.run_steps(fuel)
    }

    /// Runs up to `fuel` instructions through [`VmMachine::step`]: the
    /// stepped tier's loop, and where the fast loop finishes a slice
    /// that ends inside a fused window.
    #[inline(never)]
    pub(crate) fn run_steps(&mut self, fuel: u64) -> VmStatus {
        if matches!(self.status, VmStatus::OutOfFuel) {
            self.status = VmStatus::Running;
        }
        for _ in 0..fuel {
            if !matches!(self.status, VmStatus::Running) {
                return self.status.clone();
            }
            self.step();
        }
        if matches!(self.status, VmStatus::Running) {
            self.status = VmStatus::OutOfFuel;
        }
        self.status.clone()
    }

    /// Executes one instruction.
    pub fn step(&mut self) {
        if !matches!(self.status, VmStatus::Running) {
            return;
        }
        let Some(inst) = self.program.code.get(self.pc as usize) else {
            self.status = VmStatus::Error(format!("pc {} out of range", self.pc));
            return;
        };
        self.cost.instructions += 1;
        if inst.is_branch() {
            self.cost.branches += 1;
        }
        let mut next = self.pc + 1;
        match *inst {
            Inst::Halt => {
                if self.pc == 0 {
                    let results = (0..self.expected_results)
                        .map(|i| self.regs[regs::ARG0 as usize + i])
                        .collect();
                    self.status = VmStatus::Halted(results);
                } else {
                    self.status =
                        VmStatus::Error(format!("abnormal top-level return (pc {})", self.pc));
                }
                return;
            }
            Inst::Li { rd, imm } => self.regs[rd as usize] = u64::from(imm),
            Inst::Addi { rd, rs, imm } => {
                let v = (self.regs[rs as usize] as u32).wrapping_add(imm as u32);
                self.regs[rd as usize] = u64::from(v);
            }
            Inst::Mov { rd, rs } => self.regs[rd as usize] = self.regs[rs as usize],
            Inst::Bin { op, w, rd, ra, rb } => {
                match op.eval(w, self.regs[ra as usize], self.regs[rb as usize]) {
                    Ok((v, _)) => self.regs[rd as usize] = v,
                    Err(e) => {
                        self.status = VmStatus::Error(format!(
                            "fault at pc {}{}: {e}",
                            self.pc,
                            self.program.locate(self.pc)
                        ));
                        return;
                    }
                }
            }
            Inst::Un { op, w, rd, ra } => {
                let (v, _) = op.eval(w, self.regs[ra as usize]);
                self.regs[rd as usize] = v;
            }
            Inst::Load { w, rd, rb, off } => {
                self.cost.loads += 1;
                let addr = (self.regs[rb as usize] as u32).wrapping_add(off as u32);
                self.regs[rd as usize] = self.mem.read(w, addr);
            }
            Inst::Store { w, rs, rb, off } => {
                self.cost.stores += 1;
                let addr = (self.regs[rb as usize] as u32).wrapping_add(off as u32);
                self.mem.write(w, addr, self.regs[rs as usize]);
            }
            Inst::Bz { rs, target } => {
                if self.regs[rs as usize] == 0 {
                    next = target;
                }
            }
            Inst::Jmp { target } => {
                if S::ENABLED {
                    self.emit_jmp_site(self.cost.total(), self.pc, target);
                }
                next = target;
            }
            Inst::Jr { rs, off } => match self.code_target(self.regs[rs as usize]) {
                Ok(base) => {
                    next = base.wrapping_add(off as u32);
                    if S::ENABLED {
                        self.emit_jr_site(self.cost.total(), self.pc, next);
                    }
                }
                Err(e) => {
                    self.status = VmStatus::Error(format!("{e}{}", self.program.locate(self.pc)));
                    return;
                }
            },
            Inst::Call { target } => {
                self.cost.calls += 1;
                if S::ENABLED {
                    self.emit(Event::Call {
                        caller: proc_at(self.program, self.pc),
                        callee: proc_at(self.program, target),
                    });
                }
                self.regs[regs::RA as usize] = u64::from(self.pc + 1);
                next = target;
            }
            Inst::CallR { rs } => {
                self.cost.calls += 1;
                match self.code_target(self.regs[rs as usize]) {
                    Ok(t) => {
                        if S::ENABLED {
                            self.emit(Event::Call {
                                caller: proc_at(self.program, self.pc),
                                callee: proc_at(self.program, t),
                            });
                        }
                        self.regs[regs::RA as usize] = u64::from(self.pc + 1);
                        next = t;
                    }
                    Err(e) => {
                        self.status =
                            VmStatus::Error(format!("{e}{}", self.program.locate(self.pc)));
                        return;
                    }
                }
            }
            Inst::SysYield => {
                if S::ENABLED {
                    let code = self.regs[regs::ARG0 as usize];
                    self.emit(Event::Yield { code });
                }
                // Leave pc at the instruction *after* the trap so a plain
                // resume continues with the stub's epilogue.
                self.pc += 1;
                self.status = VmStatus::Suspended;
                return;
            }
        }
        self.pc = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn compile_src(src: &str) -> VmProgram {
        compile(&build_program(&parse_module(src).unwrap()).unwrap()).unwrap()
    }

    fn run(src: &str, proc: &str, args: &[u64], results: usize) -> VmStatus {
        let vp = compile_src(src);
        let mut m = VmMachine::new(&vp);
        m.start(proc, args, results);
        m.run(100_000_000)
    }

    const FIGURE1: &str = r#"
        sp1(bits32 n) {
            bits32 s, p;
            if n == 1 { return (1, 1); }
            else { s, p = sp1(n - 1); return (s + n, p * n); }
        }
        sp2(bits32 n) { jump sp2_help(n, 1, 1); }
        sp2_help(bits32 n, bits32 s, bits32 p) {
            if n == 1 { return (s, p); }
            else { jump sp2_help(n - 1, s + n, p * n); }
        }
        sp3(bits32 n) {
            bits32 s, p;
            s = 1; p = 1;
          loop:
            if n == 1 { return (s, p); }
            else { s = s + n; p = p * n; n = n - 1; goto loop; }
        }
    "#;

    #[test]
    fn figure1_on_the_vm() {
        for proc in ["sp1", "sp2", "sp3"] {
            assert_eq!(
                run(FIGURE1, proc, &[10], 2),
                VmStatus::Halted(vec![55, 3628800]),
                "procedure {proc}"
            );
        }
    }

    #[test]
    fn tail_calls_run_in_constant_stack() {
        let vp = compile_src(FIGURE1);
        let mut m = VmMachine::new(&vp);
        let sp0 = m.reg(regs::SP);
        m.start("sp2", &[100_000], 2);
        let mut min_sp = sp0;
        while matches!(m.status(), VmStatus::Running) {
            m.step();
            min_sp = min_sp.min(m.reg(regs::SP));
        }
        assert!(matches!(m.status(), VmStatus::Halted(_)));
        assert!(sp0 - min_sp < 256, "tail calls must not grow the stack");
    }

    #[test]
    fn memory_and_globals() {
        let status = run(
            r#"
            register bits32 counter = 5;
            data cell { bits32 7; }
            f() {
                bits32 x;
                counter = counter + 1;
                x = bits32[cell];
                bits32[cell] = x + counter;
                return (bits32[cell]);
            }
            "#,
            "f",
            &[],
            1,
        );
        assert_eq!(status, VmStatus::Halted(vec![13]));
    }

    #[test]
    fn cut_to_on_the_vm() {
        let status = run(
            r#"
            f() {
                bits32 r;
                r = mid(k) also cuts to k;
                return (0);
                continuation k(r):
                return (r + 1);
            }
            mid(bits32 kk) {
                bits32 r;
                r = g(kk) also aborts;
                return (r);
            }
            g(bits32 kk) { cut to kk(41); return (0); }
            "#,
            "f",
            &[],
            1,
        );
        assert_eq!(status, VmStatus::Halted(vec![42]));
    }

    #[test]
    fn abnormal_return_via_branch_table() {
        let src = r#"
            f(bits32 x) {
                bits32 r;
                r = g(x) also returns to kbad;
                return (r);
                continuation kbad(r):
                return (r + 1000);
            }
            g(bits32 x) {
                if x == 1 { return <0/1> (5); }
                else { return <1/1> (6); }
            }
        "#;
        assert_eq!(run(src, "f", &[1], 1), VmStatus::Halted(vec![1005]));
        assert_eq!(run(src, "f", &[0], 1), VmStatus::Halted(vec![6]));
    }

    #[test]
    fn branch_table_normal_return_costs_nothing_extra() {
        // The same program with and without an alternate return: the
        // normal path differs only by the jr offset, not by any
        // executed test instruction.
        let plain = r#"
            f(bits32 x) { bits32 r; r = g(x); return (r); }
            g(bits32 x) { return (x); }
        "#;
        let table = r#"
            f(bits32 x) {
                bits32 r;
                r = g(x) also returns to kbad;
                return (r);
                continuation kbad(r):
                return (0);
            }
            g(bits32 x) { return <1/1> (x); }
        "#;
        let cost = |src: &str| {
            let vp = compile_src(src);
            let mut m = VmMachine::new(&vp);
            m.start("f", &[3], 1);
            assert_eq!(m.run(10_000), VmStatus::Halted(vec![3]));
            m.cost
        };
        assert_eq!(cost(plain).instructions, cost(table).instructions);
    }

    #[test]
    fn divide_fault_is_reported() {
        let status = run("f(bits32 a, bits32 b) { return (a / b); }", "f", &[1, 0], 1);
        assert!(
            matches!(status, VmStatus::Error(ref e) if e.contains("zero")),
            "{status:?}"
        );
    }

    #[test]
    fn yield_suspends_with_args() {
        let vp = compile_src("f() { yield(9, 4) also aborts; return (0); }");
        let mut m = VmMachine::new(&vp);
        m.start("f", &[], 1);
        assert_eq!(m.run(10_000), VmStatus::Suspended);
        assert_eq!(m.yield_args(2), vec![9, 4]);
    }

    #[test]
    fn strings_and_code_pointers_in_memory() {
        let status = run(
            r#"
            data table { sym helper; }
            f(bits32 x) {
                bits32 t, r;
                t = bits32[table];
                r = t(x) ;
                return (r);
            }
            helper(bits32 a) { return (a * 3); }
            "#,
            "f",
            &[5],
            1,
        );
        assert_eq!(status, VmStatus::Halted(vec![15]));
    }

    #[test]
    fn oversized_arities_are_refused() {
        let vp = compile_src(FIGURE1);
        let mut m = VmMachine::new(&vp);
        m.start("sp1", &[1; 9], 2);
        assert!(
            matches!(m.status(), VmStatus::Error(e) if e.contains("9 arguments exceed")),
            "{:?}",
            m.status()
        );
        for results in [9, 100, 1 << 40] {
            let mut m = VmMachine::new_fused(&vp);
            m.start("sp1", &[10], results);
            let status = m.run(10_000);
            assert!(
                matches!(status, VmStatus::Error(ref e) if e.contains("results exceed")),
                "{status:?}"
            );
        }
        // The boundary still runs.
        let mut m = VmMachine::new(&vp);
        m.start("sp1", &[1; 8], 8);
        assert!(matches!(m.run(10_000), VmStatus::Halted(v) if v.len() == 8));

        // A captured state is refused on restore the same way.
        let vp = compile_src("f() { yield(9, 4) also aborts; return (0); }");
        let mut m = VmMachine::new(&vp);
        m.start("f", &[], 1);
        assert_eq!(m.run(10_000), VmStatus::Suspended);
        let mut st = m.capture().unwrap();
        st.expected_results = 1 << 40;
        let mut other = VmMachine::new(&vp);
        let err = other.restore(&st).unwrap_err();
        assert!(err.contains("results exceed"), "{err}");
        assert_eq!(other.status(), &VmStatus::Idle, "unchanged on error");
        st.expected_results = 8;
        assert_eq!(other.restore(&st), Ok(()));
    }

    #[test]
    fn checked_primitive_on_the_vm() {
        let src = "f(bits32 a, bits32 b) { bits32 r; r = %%divu(a, b) also aborts; return (r); }";
        assert_eq!(run(src, "f", &[42, 6], 1), VmStatus::Halted(vec![7]));
        // Division by zero suspends in yield with the DIVZERO code.
        let vp = compile_src(src);
        let mut m = VmMachine::new(&vp);
        m.start("f", &[1, 0], 1);
        assert_eq!(m.run(10_000), VmStatus::Suspended);
        assert_eq!(m.yield_args(1), vec![1]);
    }
}
