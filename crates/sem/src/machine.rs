//! The abstract machine: every transition rule of §5.2.

use crate::snapshot::{FrameState, SemState, SnapStatus};
use crate::state::{call_bundle, ContTable, Env, Frame, NodeRef};
use crate::value::Value;
use crate::wrong::Wrong;
use cmm_cfg::{Graph, Node, NodeId, Program};
use cmm_chaos::ResourceGovernor;
use cmm_ir::{BinOp, Expr, FWidth, Lit, Lvalue, Name, Ty, Width};
use cmm_obs::{Event, NopSink, TraceSink};
use std::collections::{BTreeSet, HashMap};
use std::sync::LazyLock;

/// The execution status of a [`Machine`].
#[derive(Clone, PartialEq, Debug)]
pub enum Status {
    /// Not started yet.
    Idle,
    /// Transitions remain possible.
    Running,
    /// Control is at a `Yield` node: the front-end run-time system has
    /// the machine (§3.3). Use the `rts_*` methods, then the machine is
    /// `Running` again.
    Suspended,
    /// Terminated normally (`Exit 0 0` with an empty stack); holds the
    /// returned values.
    Terminated(Vec<Value>),
    /// The program went wrong.
    Wrong(Wrong),
    /// `run` exhausted its fuel; call `run` again to continue.
    OutOfFuel,
}

/// Which continuation of the topmost frame's bundle the run-time system
/// resumes at (the §5.2 `Yield` transitions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RtsTarget {
    /// `kp_r[i]`: a return continuation (callee-saves restored). The
    /// normal return point is the *last* index.
    Return(usize),
    /// `kp_u[i]`: an `also unwinds to` continuation (callee-saves
    /// restored); the index is the `n` of `SetUnwindCont(t, n)`.
    Unwind(usize),
    /// `kp_c[i]`: an `also cuts to` continuation (callee-saves **not**
    /// restored).
    Cut(usize),
}

/// The control component before the first `start` or `restore`: an
/// empty procedure named `""`, which no transition reads because the
/// machine is not `Running` yet.
static IDLE: LazyLock<Graph> = LazyLock::new(|| Graph {
    name: Name::from(""),
    nodes: Vec::new(),
    entry: NodeId(0),
    arity: 0,
    vars: Vec::new(),
});

/// The C-- abstract machine: one thread of §5.2, together with its
/// memory, global registers, and stack.
///
/// The control component is the current procedure's graph and a node
/// in it, and every frame holds its procedure's graph, so the program's
/// procedure map is consulted only to evaluate a procedure name and to
/// enter a `Code` value.
///
/// The machine is generic over a [`TraceSink`]; the default
/// [`NopSink`] compiles every emission away (guarded by
/// `S::ENABLED`), so untraced machines pay nothing.
#[derive(Clone, Debug)]
pub struct Machine<'p, S: TraceSink = NopSink> {
    prog: &'p Program,
    graph: &'p Graph,
    node: NodeId,
    rho: Env,
    saves: BTreeSet<Name>,
    uid: u64,
    mem: HashMap<u64, u8>,
    area: Vec<Value>,
    stack: Vec<Frame<'p>>,
    globals: Env,
    next_uid: u64,
    conts: ContTable,
    status: Status,
    /// Number of transitions taken so far (for cost measurements).
    pub steps: u64,
    governor: ResourceGovernor,
    sink: S,
}

impl<'p> Machine<'p> {
    /// Creates a machine over a program, with memory initialized from the
    /// program's data image and global registers from their declarations.
    pub fn new(prog: &'p Program) -> Machine<'p> {
        Machine::with_sink(prog, NopSink)
    }
}

impl<'p, S: TraceSink> Machine<'p, S> {
    /// [`Machine::new`] with an explicit trace sink.
    pub fn with_sink(prog: &'p Program, sink: S) -> Machine<'p, S> {
        Machine::with_sink_in(prog, sink, &mut crate::arena::SemArena::new())
    }

    /// [`Machine::with_sink`] drawing the machine's heap containers
    /// from `arena` instead of the allocator. The machine starts from
    /// exactly the state a fresh one would; reclaim the allocations
    /// afterwards with [`Machine::recycle_into`].
    pub fn with_sink_in(
        prog: &'p Program,
        sink: S,
        arena: &mut crate::arena::SemArena,
    ) -> Machine<'p, S> {
        let mut mem = std::mem::take(&mut arena.mem);
        mem.clear();
        mem.extend(prog.image.bytes.iter().map(|(&a, &b)| (a, b)));
        let mut globals = std::mem::take(&mut arena.globals);
        globals.clear();
        for g in &prog.globals {
            let v = g.init.map(|l| l.bits).unwrap_or(0);
            globals.bind(&g.name, Value::Bits(width_of(g.ty), v));
        }
        let mut conts = std::mem::take(&mut arena.conts);
        conts.clear();
        Machine {
            prog,
            graph: &IDLE,
            node: NodeId(0),
            rho: Env::new(),
            saves: BTreeSet::new(),
            uid: 0,
            mem,
            area: Vec::new(),
            stack: Vec::new(),
            globals,
            next_uid: 1,
            conts,
            status: Status::Idle,
            steps: 0,
            governor: ResourceGovernor::unlimited(),
            sink,
        }
    }

    /// Consumes the machine and banks its heap containers (cleared) in
    /// `arena` for the next [`Machine::with_sink_in`]. Nothing from
    /// this run can leak into the next: every container is emptied
    /// here, and capacity is not observable state.
    pub fn recycle_into(self, arena: &mut crate::arena::SemArena) {
        let Machine {
            mut mem,
            mut globals,
            mut conts,
            ..
        } = self;
        mem.clear();
        globals.clear();
        conts.clear();
        arena.mem = mem;
        arena.globals = globals;
        arena.conts = conts;
    }

    /// Installs a resource governor: `run`'s fuel is clipped to the
    /// governor's per-resume slice.
    pub fn set_governor(&mut self, g: ResourceGovernor) {
        self.governor = g;
    }

    /// The trace sink (to read back recorded events or counters).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the machine, returning its sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Emits a trace event at the current step count. Callers must
    /// guard payload construction with `S::ENABLED` themselves.
    #[inline]
    pub(crate) fn emit(&mut self, e: Event) {
        if S::ENABLED {
            self.sink.event(self.steps, e);
        }
    }

    /// The program this machine executes.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// The current status.
    pub fn status(&self) -> &Status {
        &self.status
    }

    /// Begins execution of the named procedure with the given arguments.
    ///
    /// Memory and global registers persist across `start` calls on the
    /// same machine, so a sequence of entry points shares state.
    ///
    /// # Errors
    ///
    /// Fails if the procedure does not exist or the machine is suspended
    /// in the run-time system.
    pub fn start(&mut self, proc: &str, args: Vec<Value>) -> Result<(), Wrong> {
        if matches!(self.status, Status::Suspended) {
            return Err(Wrong::NotRunnable);
        }
        let g = self
            .prog
            .proc(proc)
            .ok_or_else(|| Wrong::NoSuchProc(NodeRef::new(proc, NodeId(0)), Name::from(proc)))?;
        self.graph = g;
        self.node = g.entry;
        self.rho.clear();
        self.saves.clear();
        self.uid = self.fresh_uid();
        self.area = args;
        self.stack.clear();
        self.status = Status::Running;
        Ok(())
    }

    fn fresh_uid(&mut self) -> u64 {
        let u = self.next_uid;
        self.next_uid += 1;
        u
    }

    /// Runs up to `fuel` transitions, clipped to the governor's
    /// per-resume slice; returns the resulting status.
    pub fn run(&mut self, fuel: u64) -> Status {
        let fuel = self.governor.slice(fuel);
        if matches!(self.status, Status::OutOfFuel) {
            self.status = Status::Running;
        }
        for _ in 0..fuel {
            if !matches!(self.status, Status::Running) {
                return self.status.clone();
            }
            self.step();
        }
        if matches!(self.status, Status::Running) {
            self.status = Status::OutOfFuel;
        }
        self.status.clone()
    }

    /// Takes a single transition. No-op unless the status is `Running`.
    pub fn step(&mut self) {
        if !matches!(self.status, Status::Running) {
            return;
        }
        self.steps += 1;
        if let Err(w) = self.transition() {
            self.status = Status::Wrong(w);
        }
    }

    /// The control component as a [`NodeRef`].
    fn here(&self) -> NodeRef {
        NodeRef {
            proc: self.graph.name.clone(),
            node: self.node,
        }
    }

    fn transition(&mut self) -> Result<(), Wrong> {
        // `g` borrows from `prog` (lifetime 'p), not from `self`, so the
        // node can be inspected while `self` is mutated.
        let g: &'p Graph = self.graph;
        let node: &'p Node = g.node(self.node);
        match node {
            // Entry kk p: ρ := addConts(∅, kk, uid); s := ∅.
            Node::Entry { conts, next } => {
                self.rho.clear();
                for (name, id) in conts {
                    let k = Value::Cont(NodeRef::new(&g.name, *id), self.uid);
                    self.rho.bind(name, k);
                }
                self.saves.clear();
                if S::ENABLED && !conts.is_empty() {
                    self.emit(Event::ContCapture {
                        proc: g.name.clone(),
                        uid: self.uid,
                        conts: conts.len() as u32,
                    });
                }
                self.node = *next;
                Ok(())
            }
            // Exit j n: pop an activation and return to kp_r[j].
            Node::Exit { index, alternates } => {
                let Some(frame) = self.stack.pop() else {
                    if *index == 0 && *alternates == 0 {
                        if S::ENABLED {
                            self.emit(Event::Return {
                                proc: g.name.clone(),
                                index: *index,
                                alternates: *alternates,
                            });
                        }
                        self.status = Status::Terminated(self.area.clone());
                        return Ok(());
                    }
                    return Err(Wrong::AbnormalTopLevelExit(self.here()));
                };
                let bundle = frame.bundle();
                if bundle.alternates() != *alternates || *index > *alternates {
                    self.stack.push(frame);
                    return Err(Wrong::ReturnArityMismatch {
                        at: self.here(),
                        claimed: *alternates,
                        actual: bundle.alternates(),
                    });
                }
                if S::ENABLED {
                    self.emit(Event::Return {
                        proc: g.name.clone(),
                        index: *index,
                        alternates: *alternates,
                    });
                }
                self.graph = frame.graph;
                self.node = bundle.returns[*index as usize];
                self.rho = frame.rho;
                self.saves = frame.saves;
                self.uid = frame.uid;
                Ok(())
            }
            // CopyIn pv p: ρ[pv ⟵ A]; A := nil.
            Node::CopyIn { vars, next } => {
                if self.area.len() < vars.len() {
                    return Err(Wrong::TooFewValues(self.here()));
                }
                for (v, val) in vars.iter().zip(self.area.drain(..)) {
                    self.rho.bind(v, val);
                }
                self.node = *next;
                Ok(())
            }
            // CopyOut pe p: A := E[[pe]]ρM.
            Node::CopyOut { exprs, next } => {
                self.area.clear();
                for e in exprs {
                    let v = self.eval(e)?;
                    self.area.push(v);
                }
                self.node = *next;
                Ok(())
            }
            // CalleeSaves s' p: s := s'.
            Node::CalleeSaves { vars, next } => {
                if self.saves != *vars {
                    self.saves.clone_from(vars);
                }
                self.node = *next;
                Ok(())
            }
            // Assign l e p.
            Node::Assign { lhs, rhs, next } => {
                let v = self.eval(rhs)?;
                match lhs {
                    Lvalue::Var(n) => self.write_var(n, v)?,
                    Lvalue::Mem(ty, a) => {
                        let addr = self.eval_bits(a)?.1;
                        let bits = self.flatten(v)?;
                        self.store(*ty, addr, bits);
                    }
                }
                self.node = *next;
                Ok(())
            }
            // Branch π pt pf.
            Node::Branch { cond, t, f } => {
                let (_, v) = self.eval_bits(cond)?;
                self.node = if v != 0 { *t } else { *f };
                Ok(())
            }
            // Call e_f Γ: push an activation; fresh uid. The frame keeps
            // the call site, whose node holds the bundle Γ.
            Node::Call { callee, .. } => {
                let target = self.resolve_code(callee)?;
                if S::ENABLED {
                    self.emit(Event::Call {
                        caller: g.name.clone(),
                        callee: target.clone(),
                    });
                }
                let frame = Frame {
                    graph: g,
                    call_site: self.node,
                    rho: std::mem::take(&mut self.rho),
                    saves: std::mem::take(&mut self.saves),
                    uid: self.uid,
                };
                self.stack.push(frame);
                self.enter(&target)
            }
            // Jump e_f: the continuation bundle is already on the stack.
            Node::Jump { callee } => {
                let target = self.resolve_code(callee)?;
                if S::ENABLED {
                    self.emit(Event::TailCall {
                        caller: g.name.clone(),
                        callee: target.clone(),
                    });
                }
                self.rho.clear();
                self.saves.clear();
                self.enter(&target)
            }
            // CutTo e.
            Node::CutTo { cont, cuts } => {
                let v = self.eval(cont)?;
                let (target, tuid) = self
                    .decode_cont(&v)
                    .ok_or_else(|| Wrong::DeadContinuation(self.here()))?;
                if tuid == self.uid && target.proc == g.name {
                    // Cut within the current activation: requires an
                    // `also cuts to` annotation on the `cut to` itself.
                    if !cuts.contains(&target.node) {
                        return Err(Wrong::CutNotAnnotated(self.here()));
                    }
                    let killed = std::mem::take(&mut self.saves);
                    for s in &killed {
                        self.rho.remove(s.as_str());
                    }
                    if S::ENABLED {
                        self.emit(Event::CutTo {
                            proc: g.name.clone(),
                            target: target.proc.clone(),
                            killed_saves: killed.len() as u32,
                        });
                    }
                    self.node = target.node;
                    return Ok(());
                }
                let cutter = if S::ENABLED {
                    Some((g.name.clone(), target.proc.clone()))
                } else {
                    None
                };
                let killed = self.cut_stack(target, tuid)?;
                if S::ENABLED {
                    if let Some((proc, target)) = cutter {
                        self.emit(Event::CutTo {
                            proc,
                            target,
                            killed_saves: killed,
                        });
                    }
                }
                Ok(())
            }
            // Yield: execution passes to the front-end run-time system.
            Node::Yield => {
                if S::ENABLED {
                    let code = self.area.first().and_then(Value::bits).unwrap_or(0);
                    self.emit(Event::Yield { code });
                }
                self.status = Status::Suspended;
                Ok(())
            }
        }
    }

    /// The stack-truncating loop shared by the `CutTo` node and the
    /// run-time interface's `SetCutToCont` (§5.2's CutTo rules).
    /// Returns the number of callee-saves the cut killed in the target
    /// frame.
    fn cut_stack(&mut self, target: NodeRef, tuid: u64) -> Result<u32, Wrong> {
        loop {
            let Some(top) = self.stack.last() else {
                return Err(Wrong::DeadContinuation(self.here()));
            };
            if top.uid == tuid {
                if *top.proc() != target.proc || !top.bundle().cuts.contains(&target.node) {
                    return Err(Wrong::CutNotAnnotated(self.here()));
                }
                let mut frame = self.stack.pop().expect("frame checked above");
                // "cut to does not restore values stored in callee-saves
                // registers; we model this behaviour by removing them
                // from the saved environment ρ'."
                let killed = frame.saves.len() as u32;
                for s in &frame.saves {
                    frame.rho.remove(s.as_str());
                }
                self.graph = frame.graph;
                self.node = target.node;
                self.rho = frame.rho;
                self.saves = BTreeSet::new();
                self.uid = frame.uid;
                return Ok(killed);
            }
            if !top.bundle().aborts {
                return Err(Wrong::NotAbortable(top.site()));
            }
            let dead = self.stack.pop().expect("frame checked above");
            if S::ENABLED {
                self.emit(Event::ContDeath {
                    proc: dead.proc().clone(),
                    uid: dead.uid,
                });
            }
        }
    }

    fn enter(&mut self, proc: &Name) -> Result<(), Wrong> {
        let g = self
            .prog
            .proc(proc.as_str())
            .ok_or_else(|| Wrong::NoSuchProc(self.here(), proc.clone()))?;
        self.graph = g;
        self.node = g.entry;
        self.uid = self.fresh_uid();
        Ok(())
    }

    fn resolve_code(&mut self, callee: &Expr) -> Result<Name, Wrong> {
        match self.eval(callee)? {
            Value::Code(n) => Ok(n),
            Value::Bits(_, addr) => self
                .prog
                .proc_at(addr)
                .cloned()
                .ok_or_else(|| Wrong::NotCode(self.here())),
            Value::Cont(..) => Err(Wrong::NotCode(self.here())),
        }
    }

    fn write_var(&mut self, n: &Name, v: Value) -> Result<(), Wrong> {
        if self.graph.var_ty(n).is_some() {
            self.rho.bind(n, v);
            Ok(())
        } else if let Some(slot) = self.globals.get_mut(n.as_str()) {
            *slot = v;
            Ok(())
        } else {
            Err(Wrong::UnboundName(self.here(), n.clone()))
        }
    }

    // ----- expression evaluation (the function E of §5.1) -----

    /// Evaluates a pure expression in the current environment.
    ///
    /// # Errors
    ///
    /// Returns [`Wrong`] for unbound names and failing fast primitives
    /// (whose behaviour "is unspecified" — going wrong is a permitted
    /// refinement).
    pub fn eval(&mut self, e: &Expr) -> Result<Value, Wrong> {
        match e {
            Expr::Lit(l) => Ok(lit_value(*l)),
            Expr::Name(n) => self.lookup(n),
            Expr::Mem(ty, a) => {
                let addr = self.eval_bits(a)?.1;
                Ok(self.load(*ty, addr))
            }
            Expr::Unary(op, a) => {
                let (w, bits) = self.eval_bits(a)?;
                let (r, rw) = op.eval(w, bits);
                Ok(Value::Bits(rw, r))
            }
            Expr::Binary(op, a, b) => {
                let (wa, va) = self.eval_bits(a)?;
                let (wb, vb) = self.eval_bits(b)?;
                let shiftish = matches!(op, BinOp::Shl | BinOp::ShrU | BinOp::ShrS);
                if wa != wb && !shiftish {
                    return Err(Wrong::WidthMismatch(self.here()));
                }
                let (r, rw) = op
                    .eval(wa, va, vb)
                    .map_err(|e| Wrong::OpFailed(self.here(), e))?;
                Ok(Value::Bits(rw, r))
            }
        }
    }

    fn eval_bits(&mut self, e: &Expr) -> Result<(Width, u64), Wrong> {
        let v = self.eval(e)?;
        match v {
            Value::Bits(w, b) => Ok((w, b)),
            other => {
                let bits = self.flatten(other)?;
                Ok((Width::W32, bits))
            }
        }
    }

    fn lookup(&mut self, n: &Name) -> Result<Value, Wrong> {
        if let Some(v) = self.rho.get(n.as_str()) {
            return Ok(v.clone());
        }
        if let Some(v) = self.globals.get(n.as_str()) {
            return Ok(v.clone());
        }
        if self.prog.procs.contains_key(n) {
            return Ok(Value::Code(n.clone()));
        }
        if let Some(addr) = self.prog.image.symbol(n.as_str()) {
            // A data-block name denotes the immutable address of the
            // block (§3.1). (Procedure names were handled above.)
            return Ok(Value::Bits(Width::W32, addr));
        }
        Err(Wrong::UnboundName(self.here(), n.clone()))
    }

    /// Converts a value to raw bits: `Code` becomes its synthetic code
    /// address; `Cont` is interned in the side table (§5.4's
    /// pointer-to-pair representation).
    fn flatten(&mut self, v: Value) -> Result<u64, Wrong> {
        match v {
            Value::Bits(_, b) => Ok(b),
            Value::Code(n) => self
                .prog
                .proc_addr(n.as_str())
                .ok_or_else(|| Wrong::NoSuchProc(self.here(), n)),
            Value::Cont(p, u) => Ok(self.conts.encode(p, u)),
        }
    }

    /// Recovers a continuation from a `Cont` value or its flattened
    /// encoding.
    pub fn decode_cont(&self, v: &Value) -> Option<(NodeRef, u64)> {
        match v {
            Value::Cont(p, u) => Some((p.clone(), *u)),
            Value::Bits(_, b) => self.conts.decode(*b),
            Value::Code(_) => None,
        }
    }

    // ----- memory -----

    /// Loads a typed value from memory (native little-endian byte order;
    /// unmapped bytes read as zero).
    pub fn load(&self, ty: Ty, addr: u64) -> Value {
        Value::Bits(width_of(ty), load_bits(&self.mem, ty, addr))
    }

    /// Stores bits to memory with the width of `ty`.
    pub fn store(&mut self, ty: Ty, addr: u64, bits: u64) {
        store_bits(&mut self.mem, ty, addr, bits);
    }

    /// The whole memory as sorted `(address, byte)` pairs, zero bytes
    /// elided — a canonical form for cross-engine equivalence checks.
    pub fn mem_snapshot(&self) -> Vec<(u64, u8)> {
        mem_snapshot(&self.mem)
    }

    /// Reads a global register.
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    // ----- the run-time system's window on a suspended thread -----

    /// The values passed to `yield` (available while suspended).
    pub fn yield_args(&self) -> &[Value] {
        &self.area
    }

    /// The activation stack, bottom first. While suspended in `yield`,
    /// the *last* frame is the activation that called `yield` (the
    /// "currently executing" activation of `FirstActivation`).
    pub fn stack(&self) -> &[Frame<'p>] {
        &self.stack
    }

    /// The activation `i` frames down from the top (0 = topmost).
    pub fn activation(&self, i: usize) -> Option<&Frame<'p>> {
        let len = self.stack.len();
        if i < len {
            Some(&self.stack[len - 1 - i])
        } else {
            None
        }
    }

    /// Discards the topmost activation. Permitted only "if the suspended
    /// procedure has an `also aborts` annotation" (§5.2).
    ///
    /// # Errors
    ///
    /// Fails if the machine is not suspended, the stack is empty, or the
    /// topmost frame's call site lacks `also aborts`.
    pub fn rts_pop_frame(&mut self) -> Result<(), Wrong> {
        self.require_suspended()?;
        let Some(top) = self.stack.last() else {
            return Err(Wrong::RtsViolation("no activation to discard".into()));
        };
        if !top.bundle().aborts {
            return Err(Wrong::NotAbortable(top.site()));
        }
        let dead = self.stack.pop().expect("frame checked above");
        if S::ENABLED {
            self.emit(Event::ContDeath {
                proc: dead.proc().clone(),
                uid: dead.uid,
            });
        }
        Ok(())
    }

    /// Resumes the suspended thread at a continuation of the topmost
    /// frame's bundle, passing `args` as the continuation's parameters.
    ///
    /// `Return` and `Unwind` targets restore callee-saves registers (the
    /// environment is restored in full); `Cut` targets do not (the saved
    /// variables are removed, per the `also cuts to` Yield rule).
    ///
    /// # Errors
    ///
    /// Fails if the machine is not suspended, the index is out of range,
    /// or `args` does not match the parameter count of the target
    /// continuation.
    pub fn rts_resume(&mut self, target: RtsTarget, args: Vec<Value>) -> Result<(), Wrong> {
        self.require_suspended()?;
        let Some(top) = self.stack.last() else {
            return Err(Wrong::RtsViolation("no activation to resume".into()));
        };
        let bundle = top.bundle();
        let (node, restore) = match target {
            RtsTarget::Return(i) => (bundle.returns.get(i).copied(), true),
            RtsTarget::Unwind(i) => (bundle.unwinds.get(i).copied(), true),
            RtsTarget::Cut(i) => (bundle.cuts.get(i).copied(), false),
        };
        let Some(node) = node else {
            return Err(Wrong::RtsViolation(format!(
                "{target:?} not present in the bundle"
            )));
        };
        // "There must be exactly as many parameters as P' expects."
        check_param_count(copy_in_arity(top.graph, node), args.len())?;
        let mut frame = self.stack.pop().expect("frame checked above");
        if !restore {
            for s in &frame.saves {
                frame.rho.remove(s.as_str());
            }
            frame.saves.clear();
        }
        self.graph = frame.graph;
        self.node = node;
        self.rho = frame.rho;
        self.saves = frame.saves;
        self.uid = frame.uid;
        self.area = args;
        self.status = Status::Running;
        Ok(())
    }

    /// Cuts the stack to a continuation value, duplicating the effect of
    /// the `cut to` primitive from inside the run-time system
    /// (`SetCutToCont`, §4.2).
    ///
    /// # Errors
    ///
    /// Fails if the machine is not suspended, the value is not a live
    /// continuation, an intervening activation lacks `also aborts`, or
    /// the target call site lacks the `also cuts to` annotation.
    pub fn rts_cut_to(&mut self, cont: &Value, args: Vec<Value>) -> Result<(), Wrong> {
        self.require_suspended()?;
        let (target, tuid) = self
            .decode_cont(cont)
            .ok_or_else(|| Wrong::DeadContinuation(self.here()))?;
        check_param_count(self.cont_param_count(&target.proc, target.node), args.len())?;
        // Try the cut on a scratch copy of the control state so a failed
        // cut leaves the suspension intact.
        let saved_stack = self.stack.clone();
        match self.cut_stack(target, tuid) {
            Ok(_) => {
                self.area = args;
                self.status = Status::Running;
                Ok(())
            }
            Err(w) => {
                self.stack = saved_stack;
                Err(w)
            }
        }
    }

    /// Number of parameters the continuation at `node` expects, if it is
    /// a `CopyIn` node.
    pub fn cont_param_count(&self, proc: &Name, node: NodeId) -> Option<usize> {
        copy_in_arity(self.prog.proc(proc.as_str())?, node)
    }

    fn require_suspended(&self) -> Result<(), Wrong> {
        if matches!(self.status, Status::Suspended) {
            Ok(())
        } else {
            Err(Wrong::RtsViolation(
                "machine is not suspended in yield".into(),
            ))
        }
    }

    /// Reads a NUL-terminated string from memory (for diagnostics and
    /// front-end run-time systems).
    pub fn read_cstr(&self, addr: u64) -> String {
        let mut out = String::new();
        let mut a = addr;
        loop {
            let b = *self.mem.get(&a).unwrap_or(&0);
            if b == 0 || out.len() > 4096 {
                return out;
            }
            out.push(b as char);
            a += 1;
        }
    }
}

/// Parameter count of the continuation at `node` of `g`, if it is a
/// `CopyIn` node.
fn copy_in_arity(g: &Graph, node: NodeId) -> Option<usize> {
    match g.node(node) {
        Node::CopyIn { vars, .. } => Some(vars.len()),
        _ => None,
    }
}

/// "There must be exactly as many parameters as P' expects" (§5.2), for
/// a resumption passing `got` values to a continuation expecting
/// `expected` (`None`: not a `CopyIn` node, so nothing to check).
pub(crate) fn check_param_count(expected: Option<usize>, got: usize) -> Result<(), Wrong> {
    match expected {
        Some(expected) if expected != got => Err(Wrong::RtsViolation(format!(
            "continuation expects {expected} parameters, got {got}"
        ))),
        _ => Ok(()),
    }
}

pub(crate) fn width_of(ty: Ty) -> Width {
    match ty {
        Ty::Bits(w) => w,
        Ty::Float(FWidth::F32) => Width::W32,
        Ty::Float(FWidth::F64) => Width::W64,
    }
}

pub(crate) fn lit_value(l: Lit) -> Value {
    Value::Bits(width_of(l.ty), l.bits)
}

/// Reads `ty.bytes()` little-endian bytes at `addr` (unmapped bytes
/// read as zero).
pub(crate) fn load_bits(mem: &HashMap<u64, u8>, ty: Ty, addr: u64) -> u64 {
    let mut v = 0u64;
    for i in 0..ty.bytes() {
        v |= u64::from(*mem.get(&(addr + i)).unwrap_or(&0)) << (8 * i);
    }
    v
}

/// Writes the low `ty.bytes()` bytes of `bits` little-endian at `addr`.
pub(crate) fn store_bits(mem: &mut HashMap<u64, u8>, ty: Ty, addr: u64, bits: u64) {
    for i in 0..ty.bytes() {
        mem.insert(addr + i, ((bits >> (8 * i)) & 0xff) as u8);
    }
}

/// Memory as sorted `(address, byte)` pairs, zero bytes elided.
pub(crate) fn mem_snapshot(mem: &HashMap<u64, u8>) -> Vec<(u64, u8)> {
    let mut v: Vec<(u64, u8)> = mem
        .iter()
        .filter(|&(_, &b)| b != 0)
        .map(|(&a, &b)| (a, b))
        .collect();
    v.sort_unstable();
    v
}

// ----- snapshot capture and restore -----

impl<'p, S: TraceSink> Machine<'p, S> {
    /// Captures the machine's full suspended state in portable name
    /// space (see [`crate::snapshot`]): environments and globals come
    /// out sorted by name (the order they are kept in), memory as its
    /// canonical nonzero form, so the same machine state always
    /// captures to the same value.
    ///
    /// # Errors
    ///
    /// Returns a message unless the machine is at one of the two
    /// resumable points — suspended at a `Yield` or stopped at a fuel
    /// boundary.
    pub fn capture(&self) -> Result<SemState, String> {
        let status = match &self.status {
            Status::Suspended => SnapStatus::Suspended,
            Status::OutOfFuel => SnapStatus::OutOfFuel,
            other => return Err(format!("not at a resumable point (status {other:?})")),
        };
        let pairs = |m: &Env| -> Vec<(Name, Value)> {
            m.iter().map(|(n, v)| (n.clone(), v.clone())).collect()
        };
        Ok(SemState {
            proc: self.graph.name.clone(),
            node: self.node,
            rho: pairs(&self.rho),
            saves: self.saves.iter().cloned().collect(),
            uid: self.uid,
            mem: self.mem_snapshot(),
            area: self.area.clone(),
            stack: self
                .stack
                .iter()
                .map(|f| FrameState {
                    proc: f.proc().clone(),
                    call_site: f.call_site,
                    rho: pairs(&f.rho),
                    saves: f.saves.iter().cloned().collect(),
                    uid: f.uid,
                })
                .collect(),
            globals: pairs(&self.globals),
            next_uid: self.next_uid,
            cont_encodings: self.conts.entries().to_vec(),
            status,
            steps: self.steps,
        })
    }

    /// Restores a captured state into this machine, which should be
    /// freshly constructed over the same program the state was captured
    /// from (`cmm-snap` verifies the source digest; this method
    /// re-validates the state structurally). Frame bundles are not part
    /// of the state — each comes from its call site's `Call` node, so a
    /// state cannot smuggle in a bundle the program never had.
    ///
    /// Explicitly-written zero bytes are not distinguishable from
    /// untouched memory after a restore (the canonical memory form
    /// elides them).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first component that does not fit
    /// the program: unknown procedure, node out of bounds, a call site
    /// that is not a `Call`, or a continuation encoding outside the
    /// program. The machine is unchanged on error.
    pub fn restore(&mut self, st: &SemState) -> Result<(), String> {
        let graph = check_ref(self.prog, &st.proc, st.node, "control")?;
        for (i, ce) in st.cont_encodings.iter().enumerate() {
            check_ref(
                self.prog,
                &ce.0.proc,
                ce.0.node,
                &format!("cont-encoding {i}"),
            )?;
        }
        let mut stack = Vec::with_capacity(st.stack.len());
        for (i, f) in st.stack.iter().enumerate() {
            let graph = call_site_graph(self.prog, &f.proc, f.call_site)
                .map_err(|e| format!("frame {i}: {e}"))?;
            stack.push(Frame {
                graph,
                call_site: f.call_site,
                rho: f.rho.iter().cloned().collect(),
                saves: f.saves.iter().cloned().collect(),
                uid: f.uid,
            });
        }
        self.graph = graph;
        self.node = st.node;
        self.rho = st.rho.iter().cloned().collect();
        self.saves = st.saves.iter().cloned().collect();
        self.uid = st.uid;
        self.mem = st.mem.iter().copied().collect();
        self.area = st.area.clone();
        self.stack = stack;
        self.globals = st.globals.iter().cloned().collect();
        self.next_uid = st.next_uid;
        self.conts.restore(&st.cont_encodings);
        self.status = match st.status {
            SnapStatus::Suspended => Status::Suspended,
            SnapStatus::OutOfFuel => Status::OutOfFuel,
        };
        self.steps = st.steps;
        Ok(())
    }
}

/// Checks that `proc` exists in `prog` and `node` indexes its graph
/// (restore validation, shared with the pre-resolved engine); returns
/// the graph.
pub(crate) fn check_ref<'q>(
    prog: &'q Program,
    proc: &Name,
    node: NodeId,
    what: &str,
) -> Result<&'q Graph, String> {
    let g = prog
        .procs
        .get(proc)
        .ok_or_else(|| format!("{what}: no procedure `{proc}`"))?;
    if node.index() >= g.nodes.len() {
        return Err(format!(
            "{what}: node {node} out of bounds for `{proc}` ({} nodes)",
            g.nodes.len()
        ));
    }
    Ok(g)
}

/// The graph of a restored frame's procedure, checked to have a `Call`
/// node at the frame's call site (the node that holds its bundle).
pub(crate) fn call_site_graph<'q>(
    prog: &'q Program,
    proc: &Name,
    call_site: NodeId,
) -> Result<&'q Graph, String> {
    let g = prog
        .procs
        .get(proc)
        .ok_or_else(|| format!("no procedure `{proc}`"))?;
    call_bundle(g, call_site)?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn prog(src: &str) -> Program {
        build_program(&parse_module(src).unwrap()).unwrap()
    }

    fn run_proc(p: &Program, name: &str, args: Vec<Value>) -> Status {
        let mut m = Machine::new(p);
        m.start(name, args).unwrap();
        m.run(10_000_000)
    }

    fn expect_values(s: Status) -> Vec<Value> {
        match s {
            Status::Terminated(vs) => vs,
            other => panic!("program did not terminate normally: {other:?}"),
        }
    }

    const FIGURE1: &str = r#"
        export sp1; export sp2; export sp3;
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
    fn figure1_all_three_agree() {
        let p = prog(FIGURE1);
        for proc in ["sp1", "sp2", "sp3"] {
            let vals = expect_values(run_proc(&p, proc, vec![Value::b32(10)]));
            assert_eq!(
                vals,
                vec![Value::b32(55), Value::b32(3628800)],
                "procedure {proc}"
            );
        }
    }

    #[test]
    fn tail_calls_do_not_grow_the_stack() {
        let p = prog(FIGURE1);
        let mut m = Machine::new(&p);
        m.start("sp2", vec![Value::b32(100_000)]).unwrap();
        let mut max_depth = 0;
        while matches!(m.status(), Status::Running) {
            m.step();
            max_depth = max_depth.max(m.stack().len());
        }
        assert!(matches!(m.status(), Status::Terminated(_)));
        assert_eq!(max_depth, 0, "jump must deallocate the caller's activation");
    }

    #[test]
    fn recursion_grows_the_stack() {
        let p = prog(FIGURE1);
        let mut m = Machine::new(&p);
        m.start("sp1", vec![Value::b32(50)]).unwrap();
        let mut max_depth = 0;
        while matches!(m.status(), Status::Running) {
            m.step();
            max_depth = max_depth.max(m.stack().len());
        }
        assert_eq!(max_depth, 49);
    }

    #[test]
    fn memory_loads_and_stores() {
        let p = prog(
            r#"
            data cell { bits32 7; }
            f() {
                bits32 x;
                x = bits32[cell];
                bits32[cell] = x + 1;
                return (bits32[cell]);
            }
            "#,
        );
        let vals = expect_values(run_proc(&p, "f", vec![]));
        assert_eq!(vals, vec![Value::b32(8)]);
    }

    #[test]
    fn global_registers_persist_across_calls() {
        let p = prog(
            r#"
            register bits32 counter = 10;
            bump() { counter = counter + 1; return (counter); }
            "#,
        );
        let mut m = Machine::new(&p);
        m.start("bump", vec![]).unwrap();
        assert_eq!(expect_values(m.run(1000)), vec![Value::b32(11)]);
        m.start("bump", vec![]).unwrap();
        assert_eq!(expect_values(m.run(1000)), vec![Value::b32(12)]);
    }

    #[test]
    fn cut_to_transfers_across_activations() {
        // f passes continuation k to g; g cuts to it.
        let p = prog(
            r#"
            f() {
                bits32 r;
                r = g(k) also cuts to k;
                return (0);
                continuation k(r):
                return (r);
            }
            g(bits32 kk) {
                cut to kk(42);
                return (0);
            }
            "#,
        );
        let vals = expect_values(run_proc(&p, "f", vec![]));
        assert_eq!(vals, vec![Value::b32(42)]);
    }

    #[test]
    fn cut_to_pops_intermediate_aborting_frames() {
        let p = prog(
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
            g(bits32 kk) {
                cut to kk(10);
                return (0);
            }
            "#,
        );
        let vals = expect_values(run_proc(&p, "f", vec![]));
        assert_eq!(vals, vec![Value::b32(11)]);
    }

    #[test]
    fn cut_past_non_aborting_frame_goes_wrong() {
        let p = prog(
            r#"
            f() {
                bits32 r;
                r = mid(k) also cuts to k;
                return (0);
                continuation k(r):
                return (r);
            }
            mid(bits32 kk) {
                bits32 r;
                r = g(kk);    /* no also aborts */
                return (r);
            }
            g(bits32 kk) { cut to kk(10); return (0); }
            "#,
        );
        match run_proc(&p, "f", vec![]) {
            Status::Wrong(Wrong::NotAbortable(_)) => {}
            other => panic!("expected NotAbortable, got {other:?}"),
        }
    }

    #[test]
    fn cut_without_cuts_to_annotation_goes_wrong() {
        let p = prog(
            r#"
            f() {
                bits32 r;
                r = g(k);     /* call site lacks `also cuts to k` */
                return (0);
                continuation k(r):
                return (r);
            }
            g(bits32 kk) { cut to kk(1); return (0); }
            "#,
        );
        match run_proc(&p, "f", vec![]) {
            Status::Wrong(Wrong::CutNotAnnotated(_)) => {}
            other => panic!("expected CutNotAnnotated, got {other:?}"),
        }
    }

    #[test]
    fn dead_continuation_goes_wrong() {
        // f returns its continuation; caller tries to cut to it after
        // f's activation has died.
        let p = prog(
            r#"
            main() {
                bits32 kk;
                kk = f();
                jump g(kk);
            }
            f() {
                bits32 x;
                return (k);
                continuation k(x):
                return (0);
            }
            g(bits32 kk) { cut to kk(5); return (0); }
            "#,
        );
        match run_proc(&p, "main", vec![]) {
            Status::Wrong(Wrong::DeadContinuation(_)) => {}
            other => panic!("expected DeadContinuation, got {other:?}"),
        }
    }

    #[test]
    fn cut_to_same_procedure_with_annotation() {
        let p = prog(
            r#"
            f() {
                bits32 r, kv;
                kv = k;
                cut to kv(9) also cuts to k;
                return (0);
                continuation k(r):
                return (r);
            }
            "#,
        );
        let vals = expect_values(run_proc(&p, "f", vec![]));
        assert_eq!(vals, vec![Value::b32(9)]);
    }

    #[test]
    fn continuation_value_survives_memory_round_trip() {
        // Figure 10 stores continuations on a dynamic exception stack.
        let p = prog(
            r#"
            data slot { bits32 0; }
            f() {
                bits32 r;
                bits32[slot] = k;
                r = g() also cuts to k;
                return (0);
                continuation k(r):
                return (r + 100);
            }
            g() {
                bits32 kk;
                kk = bits32[slot];
                cut to kk(1);
                return (0);
            }
            "#,
        );
        let vals = expect_values(run_proc(&p, "f", vec![]));
        assert_eq!(vals, vec![Value::b32(101)]);
    }

    #[test]
    fn fast_divide_by_zero_goes_wrong() {
        let p = prog("f(bits32 a, bits32 b) { return (a / b); }");
        match run_proc(&p, "f", vec![Value::b32(1), Value::b32(0)]) {
            Status::Wrong(Wrong::OpFailed(..)) => {}
            other => panic!("expected OpFailed, got {other:?}"),
        }
        let vals = expect_values(run_proc(&p, "f", vec![Value::b32(7), Value::b32(2)]));
        assert_eq!(vals, vec![Value::b32(3)]);
    }

    #[test]
    fn checked_divide_suspends_in_yield() {
        let p =
            prog("f(bits32 a, bits32 b) { bits32 r; r = %%divu(a, b) also aborts; return (r); }");
        // Failure: suspended with DIVZERO code.
        let mut m = Machine::new(&p);
        m.start("f", vec![Value::b32(1), Value::b32(0)]).unwrap();
        assert_eq!(m.run(100_000), Status::Suspended);
        assert_eq!(m.yield_args(), &[Value::b32(1)]); // yield_codes::DIVZERO
                                                      // Success: returns quotient without yielding.
        let vals = expect_values(run_proc(&p, "f", vec![Value::b32(42), Value::b32(6)]));
        assert_eq!(vals, vec![Value::b32(7)]);
    }

    #[test]
    fn rts_resume_unwind_restores_environment() {
        // g yields; the runtime unwinds to k with parameter 77. The
        // local y (set before the call) must still be visible in k.
        let p = prog(
            r#"
            f() {
                bits32 y, r;
                y = 5;
                r = g() also unwinds to k;
                return (0);
                continuation k(r):
                return (r + y);
            }
            g() { yield(9) also aborts; return (0); }
            "#,
        );
        let mut m = Machine::new(&p);
        m.start("f", vec![]).unwrap();
        assert_eq!(m.run(100_000), Status::Suspended);
        assert_eq!(m.yield_args(), &[Value::b32(9)]);
        // Pop g's activation (aborts), then unwind to k of f.
        m.rts_pop_frame().unwrap();
        m.rts_resume(RtsTarget::Unwind(0), vec![Value::b32(77)])
            .unwrap();
        assert_eq!(expect_values(m.run(100_000)), vec![Value::b32(82)]);
    }

    #[test]
    fn rts_pop_requires_aborts() {
        let p = prog(
            r#"
            f() { bits32 r; r = g() also unwinds to k; return (0);
                  continuation k(r): return (r); }
            g() { yield(1); return (0); }   /* yield call not abortable */
            "#,
        );
        let mut m = Machine::new(&p);
        m.start("f", vec![]).unwrap();
        assert_eq!(m.run(100_000), Status::Suspended);
        assert!(matches!(m.rts_pop_frame(), Err(Wrong::NotAbortable(_))));
    }

    #[test]
    fn rts_resume_checks_parameter_count() {
        let p = prog(
            r#"
            f() { bits32 r; r = g() also unwinds to k; return (0);
                  continuation k(r): return (r); }
            g() { yield(1) also aborts; return (0); }
            "#,
        );
        let mut m = Machine::new(&p);
        m.start("f", vec![]).unwrap();
        m.run(100_000);
        m.rts_pop_frame().unwrap();
        assert!(m.rts_resume(RtsTarget::Unwind(0), vec![]).is_err());
        // Correct arity succeeds.
        m.rts_resume(RtsTarget::Unwind(0), vec![Value::b32(3)])
            .unwrap();
        assert_eq!(expect_values(m.run(100_000)), vec![Value::b32(3)]);
    }

    #[test]
    fn rts_resume_normal_return() {
        let p = prog(
            r#"
            f() { bits32 r; r = g(); return (r); }
            g() { yield(1); return (0); }
            "#,
        );
        let mut m = Machine::new(&p);
        m.start("f", vec![]).unwrap();
        m.run(100_000);
        // Resume g's yield call at its normal return (index = last).
        m.rts_resume(RtsTarget::Return(0), vec![]).unwrap();
        assert_eq!(expect_values(m.run(100_000)), vec![Value::b32(0)]);
    }

    #[test]
    fn abnormal_return_selects_alternate_continuation() {
        let p = prog(
            r#"
            f() {
                bits32 r;
                r = g(1) also returns to kbad;
                return (r);
                continuation kbad(r):
                return (r + 1000);
            }
            g(bits32 x) {
                if x == 1 { return <0/1> (5); }
                else { return <1/1> (6); }
            }
            "#,
        );
        let vals = expect_values(run_proc(&p, "f", vec![]));
        assert_eq!(vals, vec![Value::b32(1005)]);
        let p2 = prog(
            r#"
            f() {
                bits32 r;
                r = g(0) also returns to kbad;
                return (r);
                continuation kbad(r):
                return (r + 1000);
            }
            g(bits32 x) {
                if x == 1 { return <0/1> (5); }
                else { return <1/1> (6); }
            }
            "#,
        );
        let vals = expect_values(run_proc(&p2, "f", vec![]));
        assert_eq!(vals, vec![Value::b32(6)]);
    }

    #[test]
    fn return_arity_mismatch_goes_wrong() {
        let p = prog(
            r#"
            f() { bits32 r; r = g(); return (r); }
            g() { return <0/2> (5); }
            "#,
        );
        match run_proc(&p, "f", vec![]) {
            Status::Wrong(Wrong::ReturnArityMismatch {
                claimed: 2,
                actual: 0,
                ..
            }) => {}
            other => panic!("expected arity mismatch, got {other:?}"),
        }
    }

    #[test]
    fn parallel_assignment_swaps() {
        let p = prog("f(bits32 a, bits32 b) { a, b = b, a; return (a, b); }");
        let vals = expect_values(run_proc(&p, "f", vec![Value::b32(1), Value::b32(2)]));
        assert_eq!(vals, vec![Value::b32(2), Value::b32(1)]);
    }

    #[test]
    fn out_of_fuel_is_resumable() {
        let p = prog("f() { loop: goto loop; }");
        let mut m = Machine::new(&p);
        m.start("f", vec![]).unwrap();
        assert_eq!(m.run(100), Status::OutOfFuel);
        assert_eq!(m.run(100), Status::OutOfFuel);
    }

    #[test]
    fn strings_are_addressable() {
        let p = prog(r#"f() { return (msg); } data msg { string "hi"; }"#);
        let mut m = Machine::new(&p);
        m.start("f", vec![]).unwrap();
        let vals = expect_values(m.run(1000));
        let addr = vals[0].bits().unwrap();
        assert_eq!(m.read_cstr(addr), "hi");
    }

    #[test]
    fn signed_arithmetic_via_primitives() {
        let p = prog("f(bits32 a, bits32 b) { return (%divs(a, b), %lts(a, b)); }");
        // -10 / 3 = -3; -10 < 3 signed.
        let vals = expect_values(run_proc(
            &p,
            "f",
            vec![Value::b32(0xffff_fff6), Value::b32(3)],
        ));
        assert_eq!(vals, vec![Value::b32(0xffff_fffd), Value::b32(1)]);
    }

    #[test]
    fn width_mismatch_goes_wrong() {
        let p = prog("f(bits32 a) { bits8 b; b = %lo8(a); return (a + b); }");
        match run_proc(&p, "f", vec![Value::b32(1)]) {
            Status::Wrong(Wrong::WidthMismatch(_)) => {}
            other => panic!("expected WidthMismatch, got {other:?}"),
        }
    }
}
