//! The pre-resolved execution engine: §5.2 with the name resolution
//! hoisted out of the step loop.
//!
//! The reference [`Machine`](crate::Machine) interprets the CFG
//! directly. Its control holds the current procedure's graph, but every
//! variable access still compares [`Name`]s along a sorted list, every
//! assignment scans the procedure's declared variables, every call
//! evaluates its callee to a `Code` name and looks the procedure up by
//! it, and every activation builds its environment map node by node.
//! [`ResolvedProgram`] performs that work once per program instead of
//! once per step:
//!
//! * each procedure's statement stream is flattened into an
//!   index-aligned `RNode` arena (node ids are preserved, so every
//!   [`NodeRef`] the engine reports — in `Wrong` values, continuation
//!   values, activation sites — is identical to the reference
//!   machine's);
//! * the environment ρ becomes an indexed frame: every name that can
//!   ever be bound locally (declared variables, continuation names)
//!   gets a slot computed at resolve time, and `ρ(x)` is a vector
//!   index instead of a map search;
//! * names in expressions are resolved to a slot, a global-register
//!   index, and a prebuilt fallback constant (procedure address or
//!   data-block address), tried in exactly the reference machine's
//!   `ρ → globals → procs → image` order, so shadowing and
//!   unbound-name behaviour are preserved bit for bit;
//! * call targets that can only ever denote a procedure are resolved
//!   to a procedure index at resolve time.
//!
//! In steady state a transition allocates nothing. Operands evaluate
//! as `(Width, u64)` pairs and become a [`Value`] only where one is
//! stored. `CopyOut` and `CopyIn` reuse the argument area. A finished
//! activation's slot vector and callee-save list are cleared and kept
//! for the next call, and a [`SemArena`](crate::SemArena) banks them
//! across a worker's jobs.
//!
//! [`ResolvedMachine`] is observationally equal to the reference
//! machine — same [`Status`] (including `Wrong` payloads), same
//! memory, same continuation encodings, same `steps` count — which the
//! difftest oracle suite and `tests/engine_equivalence.rs` enforce
//! over generated programs.

use crate::machine::{
    call_site_graph, check_param_count, check_ref, load_bits, mem_snapshot, store_bits, width_of,
    RtsTarget, Status,
};
use crate::snapshot::{sorted_bindings, FrameState, SemState, SnapStatus};
use crate::state::{ContTable, NodeRef};
use crate::value::Value;
use crate::wrong::Wrong;
use cmm_cfg::{Bundle, Graph, Node, NodeId, Program};
use cmm_chaos::{LimitTrip, ResourceGovernor};
use cmm_ir::{BinOp, Expr, Lvalue, Name, Ty, UnOp, Width};
use cmm_obs::{Event, NopSink, TraceSink};
use std::collections::HashMap;
use std::sync::Arc;

/// A slot index into a procedure's indexed frame.
type Slot = u32;

/// Where an assignment to a bare name lands, decided at resolve time
/// with the reference machine's `write_var` rules.
#[derive(Clone, Debug)]
enum Target {
    /// A declared local variable.
    Slot(Slot),
    /// A global register.
    Global(u32),
    /// Neither — goes wrong with `UnboundName` if ever executed.
    Unbound(Name),
}

/// A pre-resolved name occurrence: the lookup chain of the reference
/// machine (`ρ → globals → procs → image symbols`) with each stage
/// resolved to an index or a prebuilt value.
#[derive(Clone, Debug)]
struct RName {
    /// The original name (for `UnboundName` and `Value::Code`).
    name: Name,
    /// Slot in the current frame, if the name can be bound locally.
    slot: Option<Slot>,
    /// Global-register index, if a global of this name exists.
    global: Option<u32>,
    /// Prebuilt procedure/data-address value, if any.
    fallback: Option<Value>,
}

/// A pre-resolved expression.
#[derive(Clone, Debug)]
enum RExpr {
    /// A literal's width and bits.
    Lit(Width, u64),
    /// A name occurrence.
    Name(RName),
    /// A typed memory load.
    Mem(Ty, Box<RExpr>),
    /// A unary operator.
    Un(UnOp, Box<RExpr>),
    /// A binary operator; the flag marks shift operators, whose widths
    /// need not agree.
    Bin(BinOp, bool, Box<RExpr>, Box<RExpr>),
}

/// A pre-resolved call target.
#[derive(Clone, Debug)]
enum RCallee {
    /// A name that can only denote this procedure (not shadowable by a
    /// local or global).
    Direct(usize),
    /// Anything else: evaluate, then resolve as the reference machine
    /// does.
    Dynamic(RExpr),
}

/// A pre-resolved CFG node, index-aligned with the source graph.
#[derive(Clone, Debug)]
enum RNode {
    /// Bind this procedure's continuations into a fresh frame.
    Entry {
        /// `(slot, continuation node)` pairs.
        conts: Vec<(Slot, NodeId)>,
        /// Successor.
        next: NodeId,
    },
    /// Pop an activation and return to `kp_r[index]`.
    Exit {
        /// Which return continuation.
        index: u32,
        /// Claimed number of alternate returns.
        alternates: u32,
    },
    /// Move the areal values into slots.
    CopyIn {
        /// Destination slots, in parameter order.
        slots: Vec<Slot>,
        /// Successor.
        next: NodeId,
    },
    /// Evaluate into the area.
    CopyOut {
        /// The expressions, in order.
        exprs: Vec<RExpr>,
        /// Successor.
        next: NodeId,
    },
    /// Replace the callee-saves set.
    CalleeSaves {
        /// The promoted slots.
        slots: Vec<Slot>,
        /// Successor.
        next: NodeId,
    },
    /// Assignment to a bare name.
    AssignVar {
        /// Destination.
        target: Target,
        /// Right-hand side.
        rhs: RExpr,
        /// Successor.
        next: NodeId,
    },
    /// Assignment through memory.
    AssignMem {
        /// Access type.
        ty: Ty,
        /// Address expression.
        addr: RExpr,
        /// Right-hand side.
        rhs: RExpr,
        /// Successor.
        next: NodeId,
    },
    /// Two-way branch.
    Branch {
        /// Condition.
        cond: RExpr,
        /// True successor.
        t: NodeId,
        /// False successor.
        f: NodeId,
    },
    /// Procedure call.
    Call {
        /// Target.
        callee: RCallee,
        /// The call site's continuation bundle.
        bundle: Bundle,
    },
    /// Tail call.
    Jump {
        /// Target.
        callee: RCallee,
    },
    /// `cut to`.
    CutTo {
        /// The continuation expression.
        cont: RExpr,
        /// `also cuts to` annotations on the `cut to` itself.
        cuts: Vec<NodeId>,
    },
    /// Suspend into the front-end run-time system.
    Yield,
}

/// One procedure, pre-resolved.
#[derive(Debug)]
struct RProc {
    /// The procedure's name (for `NodeRef`s and continuation values).
    name: Name,
    /// Entry node.
    entry: NodeId,
    /// Frame size in slots.
    nslots: usize,
    /// The name each slot stands for, indexed by slot — the inverse of
    /// the resolver's `slot_of`, kept for snapshot capture/restore
    /// (which speaks name space so states port across engines).
    slot_names: Vec<Name>,
    /// The flattened statement stream, index-aligned with the source
    /// graph's nodes.
    nodes: Vec<RNode>,
}

/// A whole program, pre-resolved. Create once, then run any number of
/// [`ResolvedMachine`]s over it. The tables own what they index (the
/// program sits behind an `Arc`), so they can be shared and cached
/// like any other compiled artifact.
#[derive(Debug)]
pub struct ResolvedProgram {
    prog: Arc<Program>,
    /// One per procedure, in the program's (name) order.
    procs: Vec<RProc>,
    globals_init: Vec<(Name, Value)>,
    globals_idx: HashMap<Name, u32>,
}

impl ResolvedProgram {
    /// Pre-resolves a copy of `prog`. A caller that already shares the
    /// program uses [`ResolvedProgram::new_shared`] and skips the copy.
    pub fn new(prog: &Program) -> ResolvedProgram {
        ResolvedProgram::new_shared(Arc::new(prog.clone()))
    }

    /// Pre-resolves a shared program: one pass over every node of
    /// every procedure.
    pub fn new_shared(prog: Arc<Program>) -> ResolvedProgram {
        let mut globals_init = Vec::new();
        let mut globals_idx = HashMap::new();
        for g in &prog.globals {
            let w = width_of(g.ty);
            let v = g.init.map(|l| l.bits).unwrap_or(0);
            globals_idx.insert(g.name.clone(), globals_init.len() as u32);
            globals_init.push((g.name.clone(), Value::Bits(w, v)));
        }
        let mut rp = ResolvedProgram {
            prog: Arc::clone(&prog),
            procs: Vec::with_capacity(prog.procs.len()),
            globals_init,
            globals_idx,
        };
        let names: Vec<&Name> = prog.procs.keys().collect();
        for g in prog.procs.values() {
            let resolver = Resolver::new(&rp, &names, g);
            rp.procs.push(resolver.resolve());
        }
        rp
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    fn idx_of(&self, name: &str) -> Option<usize> {
        self.procs
            .binary_search_by(|p| p.name.as_str().cmp(name))
            .ok()
    }

    /// A frame's continuation bundle, found from its `(proc,
    /// call_site)` pair.
    fn bundle(&self, frame: &RFrame) -> &Bundle {
        match &self.procs[frame.proc].nodes[frame.call_site.index()] {
            RNode::Call { bundle, .. } => bundle,
            _ => unreachable!("frames are pushed and restored only at Call nodes"),
        }
    }
}

impl RProc {
    /// Parameter count of the continuation at `node`, if it is a
    /// `CopyIn` node.
    fn copy_in_arity(&self, node: NodeId) -> Option<usize> {
        match &self.nodes[node.index()] {
            RNode::CopyIn { slots, .. } => Some(slots.len()),
            _ => None,
        }
    }
}

/// Per-procedure resolution state.
struct Resolver<'r> {
    rp: &'r ResolvedProgram,
    /// Every procedure name, in the program's order (the order of
    /// `rp.procs` once it is built).
    names: &'r [&'r Name],
    g: &'r Graph,
    slot_of: HashMap<Name, Slot>,
}

impl<'r> Resolver<'r> {
    fn new(rp: &'r ResolvedProgram, names: &'r [&'r Name], g: &'r Graph) -> Resolver<'r> {
        // The slot universe: every name that can ever be bound in ρ.
        // Bindings enter only through `Entry` (continuation names),
        // `CopyIn` (parameters), and `Assign` to a declared variable,
        // so declared variables plus all `Entry`/`CopyIn` names cover
        // it.
        let mut slot_of = HashMap::new();
        let add = |n: &Name, slot_of: &mut HashMap<Name, Slot>| {
            let next = slot_of.len() as Slot;
            slot_of.entry(n.clone()).or_insert(next);
        };
        for (n, _) in &g.vars {
            add(n, &mut slot_of);
        }
        for node in &g.nodes {
            match node {
                Node::Entry { conts, .. } => {
                    for (n, _) in conts {
                        add(n, &mut slot_of);
                    }
                }
                Node::CopyIn { vars, .. } => {
                    for n in vars {
                        add(n, &mut slot_of);
                    }
                }
                Node::CalleeSaves { vars, .. } => {
                    for n in vars {
                        add(n, &mut slot_of);
                    }
                }
                _ => {}
            }
        }
        Resolver {
            rp,
            names,
            g,
            slot_of,
        }
    }

    fn resolve(self) -> RProc {
        let nodes = self.g.nodes.iter().map(|n| self.node(n)).collect();
        let mut slot_names = vec![Name::from(""); self.slot_of.len()];
        for (n, &s) in &self.slot_of {
            slot_names[s as usize] = n.clone();
        }
        RProc {
            name: self.g.name.clone(),
            entry: self.g.entry,
            nslots: self.slot_of.len(),
            slot_names,
            nodes,
        }
    }

    fn slot(&self, n: &Name) -> Slot {
        self.slot_of[n]
    }

    fn node(&self, node: &Node) -> RNode {
        match node {
            Node::Entry { conts, next } => RNode::Entry {
                conts: conts.iter().map(|(n, id)| (self.slot(n), *id)).collect(),
                next: *next,
            },
            Node::Exit { index, alternates } => RNode::Exit {
                index: *index,
                alternates: *alternates,
            },
            Node::CopyIn { vars, next } => RNode::CopyIn {
                slots: vars.iter().map(|n| self.slot(n)).collect(),
                next: *next,
            },
            Node::CopyOut { exprs, next } => RNode::CopyOut {
                exprs: exprs.iter().map(|e| self.expr(e)).collect(),
                next: *next,
            },
            Node::CalleeSaves { vars, next } => RNode::CalleeSaves {
                slots: vars.iter().map(|n| self.slot(n)).collect(),
                next: *next,
            },
            Node::Assign { lhs, rhs, next } => match lhs {
                Lvalue::Var(n) => RNode::AssignVar {
                    target: self.target(n),
                    rhs: self.expr(rhs),
                    next: *next,
                },
                Lvalue::Mem(ty, a) => RNode::AssignMem {
                    ty: *ty,
                    addr: self.expr(a),
                    rhs: self.expr(rhs),
                    next: *next,
                },
            },
            Node::Branch { cond, t, f } => RNode::Branch {
                cond: self.expr(cond),
                t: *t,
                f: *f,
            },
            Node::Call { callee, bundle, .. } => RNode::Call {
                callee: self.callee(callee),
                bundle: bundle.clone(),
            },
            Node::Jump { callee } => RNode::Jump {
                callee: self.callee(callee),
            },
            Node::CutTo { cont, cuts } => RNode::CutTo {
                cont: self.expr(cont),
                cuts: cuts.clone(),
            },
            Node::Yield => RNode::Yield,
        }
    }

    /// `write_var`'s decision, taken at resolve time: declared variable,
    /// else global, else unbound.
    fn target(&self, n: &Name) -> Target {
        if self.g.var_ty(n).is_some() {
            Target::Slot(self.slot(n))
        } else if let Some(&g) = self.rp.globals_idx.get(n) {
            Target::Global(g)
        } else {
            Target::Unbound(n.clone())
        }
    }

    fn name(&self, n: &Name) -> RName {
        let fallback = if self.rp.prog.procs.contains_key(n) {
            Some(Value::Code(n.clone()))
        } else {
            self.rp
                .prog
                .image
                .symbol(n.as_str())
                .map(|addr| Value::Bits(Width::W32, addr))
        };
        RName {
            name: n.clone(),
            slot: self.slot_of.get(n).copied(),
            global: self.rp.globals_idx.get(n).copied(),
            fallback,
        }
    }

    fn expr(&self, e: &Expr) -> RExpr {
        match e {
            Expr::Lit(l) => RExpr::Lit(width_of(l.ty), l.bits),
            Expr::Name(n) => RExpr::Name(self.name(n)),
            Expr::Mem(ty, a) => RExpr::Mem(*ty, Box::new(self.expr(a))),
            Expr::Unary(op, a) => RExpr::Un(*op, Box::new(self.expr(a))),
            Expr::Binary(op, a, b) => {
                let shiftish = matches!(op, BinOp::Shl | BinOp::ShrU | BinOp::ShrS);
                RExpr::Bin(
                    *op,
                    shiftish,
                    Box::new(self.expr(a)),
                    Box::new(self.expr(b)),
                )
            }
        }
    }

    fn callee(&self, e: &Expr) -> RCallee {
        // A bare name resolves directly iff nothing can ever shadow it:
        // not in the slot universe, not a global, and a procedure.
        if let Expr::Name(n) = e {
            if !self.slot_of.contains_key(n) && !self.rp.globals_idx.contains_key(n) {
                if let Ok(idx) = self.names.binary_search(&n) {
                    return RCallee::Direct(idx);
                }
            }
        }
        RCallee::Dynamic(self.expr(e))
    }
}

/// An activation's indexed environment and callee-save list.
pub(crate) type Locals = (Vec<Option<Value>>, Vec<Slot>);

/// One activation frame: the suspended indexed environment. The call
/// site's bundle is looked up from `(proc, call_site)`.
#[derive(Clone, Debug)]
pub(crate) struct RFrame {
    proc: usize,
    call_site: NodeId,
    rho: Vec<Option<Value>>,
    saves: Vec<Slot>,
    uid: u64,
}

/// The pre-resolved abstract machine. Observationally equal to
/// [`Machine`](crate::Machine); see the module documentation.
///
/// Generic over a [`TraceSink`] exactly like the reference machine,
/// with identical emission points and payloads, so traced runs compare
/// event-for-event.
#[derive(Clone, Debug)]
pub struct ResolvedMachine<'p, S: TraceSink = NopSink> {
    rp: &'p ResolvedProgram,
    cur_proc: usize,
    cur_node: NodeId,
    rho: Vec<Option<Value>>,
    saves: Vec<Slot>,
    uid: u64,
    mem: HashMap<u64, u8>,
    area: Vec<Value>,
    stack: Vec<RFrame>,
    globals: Vec<Value>,
    next_uid: u64,
    conts: ContTable,
    /// Cleared slot vectors and callee-save lists of finished
    /// activations, for the next calls to reuse.
    spare: Vec<Locals>,
    status: Status,
    /// Number of transitions taken so far (for cost measurements).
    pub steps: u64,
    governor: Option<ResourceGovernor>,
    sink: S,
}

impl<'p> ResolvedMachine<'p> {
    /// Creates a machine over a pre-resolved program, with memory from
    /// the data image and global registers from their declarations.
    pub fn new(rp: &'p ResolvedProgram) -> ResolvedMachine<'p> {
        ResolvedMachine::with_sink(rp, NopSink)
    }
}

impl<'p, S: TraceSink> ResolvedMachine<'p, S> {
    /// [`ResolvedMachine::new`] with an explicit trace sink.
    pub fn with_sink(rp: &'p ResolvedProgram, sink: S) -> ResolvedMachine<'p, S> {
        ResolvedMachine::with_sink_in(rp, sink, &mut crate::arena::SemArena::new())
    }

    /// [`ResolvedMachine::with_sink`] drawing the machine's heap
    /// containers from `arena` instead of the allocator. The machine
    /// starts from exactly the state a fresh one would; reclaim the
    /// allocations afterwards with [`ResolvedMachine::recycle_into`].
    pub fn with_sink_in(
        rp: &'p ResolvedProgram,
        sink: S,
        arena: &mut crate::arena::SemArena,
    ) -> ResolvedMachine<'p, S> {
        let mut mem = std::mem::take(&mut arena.mem);
        mem.clear();
        mem.extend(rp.prog.image.bytes.iter().map(|(&a, &b)| (a, b)));
        let mut globals = std::mem::take(&mut arena.r_globals);
        globals.clear();
        globals.extend(rp.globals_init.iter().map(|(_, v)| v.clone()));
        let mut stack = std::mem::take(&mut arena.r_stack);
        stack.clear();
        let mut conts = std::mem::take(&mut arena.conts);
        conts.clear();
        let mut spare = std::mem::take(&mut arena.r_spare);
        let (rho, saves) = spare.pop().unwrap_or_default();
        ResolvedMachine {
            rp,
            cur_proc: 0,
            cur_node: NodeId(0),
            rho,
            saves,
            uid: 0,
            mem,
            area: Vec::new(),
            stack,
            globals,
            next_uid: 1,
            conts,
            spare,
            status: Status::Idle,
            steps: 0,
            governor: None,
            sink,
        }
    }

    /// Consumes the machine and banks its heap containers (cleared) in
    /// `arena` for the next [`ResolvedMachine::with_sink_in`].
    pub fn recycle_into(mut self, arena: &mut crate::arena::SemArena) {
        let rho = std::mem::take(&mut self.rho);
        let saves = std::mem::take(&mut self.saves);
        self.park((rho, saves));
        while let Some(f) = self.stack.pop() {
            self.park((f.rho, f.saves));
        }
        let ResolvedMachine {
            mut mem,
            stack,
            mut globals,
            mut conts,
            spare,
            ..
        } = self;
        mem.clear();
        globals.clear();
        conts.clear();
        arena.mem = mem;
        arena.r_stack = stack;
        arena.r_globals = globals;
        arena.conts = conts;
        arena.r_spare = spare;
    }

    /// Clears a finished activation's slot vector and callee-save list
    /// and keeps them for the next call.
    fn park(&mut self, (mut rho, mut saves): Locals) {
        rho.clear();
        saves.clear();
        self.spare.push((rho, saves));
    }

    /// Installs a resource governor (see
    /// [`Machine::set_governor`](crate::Machine::set_governor)): checks
    /// sit at exactly the reference machine's transitions, preserving
    /// observational equality for governed pairs.
    pub fn set_governor(&mut self, g: ResourceGovernor) {
        self.governor = Some(g);
    }

    /// The installed governor, if any.
    pub fn governor(&self) -> Option<&ResourceGovernor> {
        self.governor.as_ref()
    }

    /// Emits the chaos event for a limit trip (when tracing) and builds
    /// the `Wrong` that reports it.
    #[cold]
    fn limit_wrong(&mut self, trip: LimitTrip, observed: u64) -> Wrong {
        if S::ENABLED {
            self.emit(Event::Chaos {
                what: format!("limit {trip}"),
            });
        }
        Wrong::LimitTripped {
            limit: trip.to_string(),
            observed,
        }
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

    /// The current status.
    pub fn status(&self) -> &Status {
        &self.status
    }

    fn fresh_uid(&mut self) -> u64 {
        let u = self.next_uid;
        self.next_uid += 1;
        u
    }

    fn proc(&self) -> &'p RProc {
        &self.rp.procs[self.cur_proc]
    }

    fn here(&self) -> NodeRef {
        NodeRef {
            proc: self.rp.procs[self.cur_proc].name.clone(),
            node: self.cur_node,
        }
    }

    /// Begins execution of the named procedure (see
    /// [`Machine::start`](crate::Machine::start)).
    ///
    /// # Errors
    ///
    /// Fails if the procedure does not exist or the machine is
    /// suspended in the run-time system.
    pub fn start(&mut self, proc: &str, args: Vec<Value>) -> Result<(), Wrong> {
        if matches!(self.status, Status::Suspended) {
            return Err(Wrong::NotRunnable);
        }
        let idx = self
            .rp
            .idx_of(proc)
            .ok_or_else(|| Wrong::NoSuchProc(NodeRef::new(proc, NodeId(0)), Name::from(proc)))?;
        self.cur_proc = idx;
        self.cur_node = self.rp.procs[idx].entry;
        self.rho.clear();
        self.saves.clear();
        self.uid = self.fresh_uid();
        self.area = args;
        self.stack.clear();
        self.status = Status::Running;
        Ok(())
    }

    /// Runs up to `fuel` transitions; returns the resulting status.
    /// A governed machine additionally clips `fuel` to the governor's
    /// per-resume slice.
    pub fn run(&mut self, fuel: u64) -> Status {
        let fuel = match &self.governor {
            Some(g) => g.slice(fuel),
            None => fuel,
        };
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

    fn transition(&mut self) -> Result<(), Wrong> {
        let p = self.proc();
        let node = &p.nodes[self.cur_node.index()];
        match node {
            RNode::Entry { conts, next } => {
                self.rho.clear();
                self.rho.resize(p.nslots, None);
                for &(slot, id) in conts {
                    self.rho[slot as usize] = Some(Value::Cont(
                        NodeRef {
                            proc: p.name.clone(),
                            node: id,
                        },
                        self.uid,
                    ));
                }
                self.saves.clear();
                if S::ENABLED && !conts.is_empty() {
                    self.emit(Event::ContCapture {
                        proc: p.name.clone(),
                        uid: self.uid,
                        conts: conts.len() as u32,
                    });
                }
                self.cur_node = *next;
                Ok(())
            }
            RNode::Exit { index, alternates } => {
                let Some(frame) = self.stack.pop() else {
                    if *index == 0 && *alternates == 0 {
                        if S::ENABLED {
                            self.emit(Event::Return {
                                proc: p.name.clone(),
                                index: *index,
                                alternates: *alternates,
                            });
                        }
                        self.status = Status::Terminated(self.area.clone());
                        return Ok(());
                    }
                    return Err(Wrong::AbnormalTopLevelExit(self.here()));
                };
                let bundle = self.rp.bundle(&frame);
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
                        proc: p.name.clone(),
                        index: *index,
                        alternates: *alternates,
                    });
                }
                self.cur_proc = frame.proc;
                self.cur_node = bundle.returns[*index as usize];
                self.uid = frame.uid;
                self.switch_to((frame.rho, frame.saves));
                Ok(())
            }
            RNode::CopyIn { slots, next } => {
                if self.area.len() < slots.len() {
                    return Err(Wrong::TooFewValues(self.here()));
                }
                for (&slot, val) in slots.iter().zip(self.area.drain(..)) {
                    self.rho[slot as usize] = Some(val);
                }
                self.cur_node = *next;
                Ok(())
            }
            RNode::CopyOut { exprs, next } => {
                self.area.clear();
                for e in exprs {
                    let v = self.eval(e)?;
                    self.area.push(v);
                }
                self.cur_node = *next;
                Ok(())
            }
            RNode::CalleeSaves { slots, next } => {
                self.saves.clear();
                self.saves.extend_from_slice(slots);
                self.cur_node = *next;
                Ok(())
            }
            RNode::AssignVar { target, rhs, next } => {
                let v = self.eval(rhs)?;
                match target {
                    Target::Slot(s) => self.rho[*s as usize] = Some(v),
                    Target::Global(g) => self.globals[*g as usize] = v,
                    Target::Unbound(n) => return Err(Wrong::UnboundName(self.here(), n.clone())),
                }
                self.cur_node = *next;
                Ok(())
            }
            RNode::AssignMem {
                ty,
                addr,
                rhs,
                next,
            } => {
                let v = self.eval(rhs)?;
                let a = self.eval_bits(addr)?.1;
                let bits = self.flatten(v)?;
                self.store(*ty, a, bits);
                if let Some(g) = self.governor {
                    let bytes = self.mem.len();
                    if let Some(trip) = g.check_memory(bytes) {
                        return Err(self.limit_wrong(trip, bytes as u64));
                    }
                }
                self.cur_node = *next;
                Ok(())
            }
            RNode::Branch { cond, t, f } => {
                let (_, v) = self.eval_bits(cond)?;
                self.cur_node = if v != 0 { *t } else { *f };
                Ok(())
            }
            RNode::Call { callee, .. } => {
                let target = self.resolve_code(callee)?;
                if let Some(g) = self.governor {
                    let depth = self.stack.len() + 1;
                    if let Some(trip) = g.check_depth(depth) {
                        return Err(self.limit_wrong(trip, depth as u64));
                    }
                }
                if S::ENABLED {
                    let callee_name = match &target {
                        Ok(idx) => self.rp.procs[*idx].name.clone(),
                        Err(n) => n.clone(),
                    };
                    self.emit(Event::Call {
                        caller: p.name.clone(),
                        callee: callee_name,
                    });
                }
                let (rho, saves) = self.spare.pop().unwrap_or_default();
                let frame = RFrame {
                    proc: self.cur_proc,
                    call_site: self.cur_node,
                    rho: std::mem::replace(&mut self.rho, rho),
                    saves: std::mem::replace(&mut self.saves, saves),
                    uid: self.uid,
                };
                self.stack.push(frame);
                self.enter(target)
            }
            RNode::Jump { callee } => {
                let target = self.resolve_code(callee)?;
                if S::ENABLED {
                    let callee_name = match &target {
                        Ok(idx) => self.rp.procs[*idx].name.clone(),
                        Err(n) => n.clone(),
                    };
                    self.emit(Event::TailCall {
                        caller: p.name.clone(),
                        callee: callee_name,
                    });
                }
                self.rho.clear();
                self.saves.clear();
                self.enter(target)
            }
            RNode::CutTo { cont, cuts } => {
                let v = self.eval(cont)?;
                let (target, tuid) = self
                    .decode_cont(&v)
                    .ok_or_else(|| Wrong::DeadContinuation(self.here()))?;
                if tuid == self.uid && target.proc == p.name {
                    if !cuts.contains(&target.node) {
                        return Err(Wrong::CutNotAnnotated(self.here()));
                    }
                    for &s in &self.saves {
                        self.rho[s as usize] = None;
                    }
                    let killed = self.saves.len() as u32;
                    self.saves.clear();
                    if S::ENABLED {
                        self.emit(Event::CutTo {
                            proc: p.name.clone(),
                            target: target.proc.clone(),
                            killed_saves: killed,
                        });
                    }
                    self.cur_node = target.node;
                    return Ok(());
                }
                let cutter = if S::ENABLED {
                    Some((p.name.clone(), target.proc.clone()))
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
            RNode::Yield => {
                if S::ENABLED {
                    let code = self.area.first().and_then(Value::bits).unwrap_or(0);
                    self.emit(Event::Yield { code });
                }
                self.status = Status::Suspended;
                Ok(())
            }
        }
    }

    /// Makes `locals` the current activation's environment and
    /// callee-save list, keeping the replaced ones for the next call.
    fn switch_to(&mut self, (rho, saves): Locals) {
        let done = (
            std::mem::replace(&mut self.rho, rho),
            std::mem::replace(&mut self.saves, saves),
        );
        self.park(done);
    }

    /// The stack-truncating loop shared by `CutTo` and `rts_cut_to`.
    /// Returns the number of callee-saves the cut killed in the target
    /// frame.
    fn cut_stack(&mut self, target: NodeRef, tuid: u64) -> Result<u32, Wrong> {
        loop {
            let Some(top) = self.stack.last() else {
                return Err(Wrong::DeadContinuation(self.here()));
            };
            if top.uid == tuid {
                if self.rp.procs[top.proc].name != target.proc
                    || !self.rp.bundle(top).cuts.contains(&target.node)
                {
                    return Err(Wrong::CutNotAnnotated(self.here()));
                }
                let mut frame = self.stack.pop().expect("frame checked above");
                let killed = frame.saves.len() as u32;
                for &s in &frame.saves {
                    frame.rho[s as usize] = None;
                }
                frame.saves.clear();
                self.cur_proc = frame.proc;
                self.cur_node = target.node;
                self.uid = frame.uid;
                self.switch_to((frame.rho, frame.saves));
                return Ok(killed);
            }
            if !self.rp.bundle(top).aborts {
                return Err(Wrong::NotAbortable(self.site_of(top)));
            }
            let dead = self.stack.pop().expect("frame checked above");
            if S::ENABLED {
                self.emit(Event::ContDeath {
                    proc: self.rp.procs[dead.proc].name.clone(),
                    uid: dead.uid,
                });
            }
            self.park((dead.rho, dead.saves));
        }
    }

    fn site_of(&self, frame: &RFrame) -> NodeRef {
        NodeRef {
            proc: self.rp.procs[frame.proc].name.clone(),
            node: frame.call_site,
        }
    }

    fn enter(&mut self, target: Result<usize, Name>) -> Result<(), Wrong> {
        let idx = match target {
            Ok(idx) => idx,
            Err(name) => return Err(Wrong::NoSuchProc(self.here(), name)),
        };
        self.cur_proc = idx;
        self.cur_node = self.rp.procs[idx].entry;
        self.uid = self.fresh_uid();
        Ok(())
    }

    /// Resolves a call target. `Ok(Ok(idx))` is a live procedure;
    /// `Ok(Err(name))` is a `Code` value naming a missing procedure
    /// (which, as in the reference machine, goes wrong only in `enter`,
    /// *after* a `Call` has pushed its frame).
    #[allow(clippy::type_complexity)]
    fn resolve_code(&mut self, callee: &RCallee) -> Result<Result<usize, Name>, Wrong> {
        match callee {
            RCallee::Direct(idx) => Ok(Ok(*idx)),
            RCallee::Dynamic(e) => match self.eval(e)? {
                Value::Code(n) => Ok(self.rp.idx_of(n.as_str()).ok_or(n)),
                Value::Bits(_, addr) => {
                    let name = self
                        .rp
                        .program()
                        .proc_at(addr)
                        .ok_or_else(|| Wrong::NotCode(self.here()))?;
                    Ok(Ok(self
                        .rp
                        .idx_of(name.as_str())
                        .expect("proc_at returns live procs")))
                }
                Value::Cont(..) => Err(Wrong::NotCode(self.here())),
            },
        }
    }

    // ----- expression evaluation -----

    /// Evaluates an expression to a value: [`Self::eval_bits`] for
    /// everything but a bare name, which may denote code or a
    /// continuation.
    fn eval(&mut self, e: &RExpr) -> Result<Value, Wrong> {
        match e {
            RExpr::Name(n) => self.lookup(n).cloned(),
            _ => self.eval_bits(e).map(|(w, b)| Value::Bits(w, b)),
        }
    }

    /// Evaluates an expression to a width and bits, flattening a `Code`
    /// or `Cont` name to its encoding.
    fn eval_bits(&mut self, e: &RExpr) -> Result<(Width, u64), Wrong> {
        match e {
            RExpr::Lit(w, b) => Ok((*w, *b)),
            RExpr::Name(n) => match self.lookup(n)? {
                Value::Bits(w, b) => Ok((*w, *b)),
                v => {
                    let v = v.clone();
                    Ok((Width::W32, self.flatten(v)?))
                }
            },
            RExpr::Mem(ty, a) => {
                let addr = self.eval_bits(a)?.1;
                Ok((width_of(*ty), load_bits(&self.mem, *ty, addr)))
            }
            RExpr::Un(op, a) => {
                let (w, bits) = self.eval_bits(a)?;
                let (r, rw) = op.eval(w, bits);
                Ok((rw, r))
            }
            RExpr::Bin(op, shiftish, a, b) => {
                let (wa, va) = self.eval_bits(a)?;
                let (wb, vb) = self.eval_bits(b)?;
                if wa != wb && !*shiftish {
                    return Err(Wrong::WidthMismatch(self.here()));
                }
                let (r, rw) = op
                    .eval(wa, va, vb)
                    .map_err(|e| Wrong::OpFailed(self.here(), e))?;
                Ok((rw, r))
            }
        }
    }

    fn lookup<'a>(&'a self, n: &'a RName) -> Result<&'a Value, Wrong> {
        if let Some(s) = n.slot {
            if let Some(Some(v)) = self.rho.get(s as usize) {
                return Ok(v);
            }
        }
        if let Some(g) = n.global {
            return Ok(&self.globals[g as usize]);
        }
        n.fallback
            .as_ref()
            .ok_or_else(|| Wrong::UnboundName(self.here(), n.name.clone()))
    }

    fn flatten(&mut self, v: Value) -> Result<u64, Wrong> {
        match v {
            Value::Bits(_, b) => Ok(b),
            Value::Code(n) => self
                .rp
                .program()
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

    /// Loads a typed value from memory.
    pub fn load(&self, ty: Ty, addr: u64) -> Value {
        Value::Bits(width_of(ty), load_bits(&self.mem, ty, addr))
    }

    /// Stores bits to memory with the width of `ty`.
    pub fn store(&mut self, ty: Ty, addr: u64, bits: u64) {
        store_bits(&mut self.mem, ty, addr, bits);
    }

    /// The whole memory as sorted `(address, byte)` pairs, zero bytes
    /// elided.
    pub fn mem_snapshot(&self) -> Vec<(u64, u8)> {
        mem_snapshot(&self.mem)
    }

    // ----- the run-time system's window on a suspended thread -----

    /// The values passed to `yield` (available while suspended).
    pub fn yield_args(&self) -> &[Value] {
        &self.area
    }

    /// Number of live activations.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The call site of the activation `i` frames down from the top.
    pub fn activation_site(&self, i: usize) -> Option<NodeRef> {
        let len = self.stack.len();
        if i < len {
            Some(self.site_of(&self.stack[len - 1 - i]))
        } else {
            None
        }
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

    /// Discards the topmost activation (requires `also aborts`).
    ///
    /// # Errors
    ///
    /// As [`Machine::rts_pop_frame`](crate::Machine::rts_pop_frame).
    pub fn rts_pop_frame(&mut self) -> Result<(), Wrong> {
        self.require_suspended()?;
        let Some(top) = self.stack.last() else {
            return Err(Wrong::RtsViolation("no activation to discard".into()));
        };
        if !self.rp.bundle(top).aborts {
            return Err(Wrong::NotAbortable(self.site_of(top)));
        }
        let dead = self.stack.pop().expect("frame checked above");
        if S::ENABLED {
            self.emit(Event::ContDeath {
                proc: self.rp.procs[dead.proc].name.clone(),
                uid: dead.uid,
            });
        }
        self.park((dead.rho, dead.saves));
        Ok(())
    }

    /// Resumes at a continuation of the topmost frame's bundle.
    ///
    /// # Errors
    ///
    /// As [`Machine::rts_resume`](crate::Machine::rts_resume).
    pub fn rts_resume(&mut self, target: RtsTarget, args: Vec<Value>) -> Result<(), Wrong> {
        self.require_suspended()?;
        let Some(top) = self.stack.last() else {
            return Err(Wrong::RtsViolation("no activation to resume".into()));
        };
        let bundle = self.rp.bundle(top);
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
        check_param_count(self.rp.procs[top.proc].copy_in_arity(node), args.len())?;
        let mut frame = self.stack.pop().expect("frame checked above");
        if !restore {
            for &s in &frame.saves {
                frame.rho[s as usize] = None;
            }
            frame.saves.clear();
        }
        self.cur_proc = frame.proc;
        self.cur_node = node;
        self.uid = frame.uid;
        self.switch_to((frame.rho, frame.saves));
        self.area = args;
        self.status = Status::Running;
        Ok(())
    }

    /// Cuts the stack to a continuation value from the run-time system.
    ///
    /// # Errors
    ///
    /// As [`Machine::rts_cut_to`](crate::Machine::rts_cut_to).
    pub fn rts_cut_to(&mut self, cont: &Value, args: Vec<Value>) -> Result<(), Wrong> {
        self.require_suspended()?;
        let (target, tuid) = self
            .decode_cont(cont)
            .ok_or_else(|| Wrong::DeadContinuation(self.here()))?;
        check_param_count(self.cont_param_count(&target.proc, target.node), args.len())?;
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

    /// Number of parameters the continuation at `node` expects, if it
    /// is a `CopyIn` node.
    pub fn cont_param_count(&self, proc: &Name, node: NodeId) -> Option<usize> {
        self.rp.procs[self.rp.idx_of(proc.as_str())?].copy_in_arity(node)
    }

    // ----- snapshot capture and restore -----

    /// Captures the machine's suspended state in the same portable name
    /// space as [`Machine::capture`](crate::Machine::capture): slots
    /// are translated back to the names they stand for, so at matching
    /// execution points both engines capture *equal* [`SemState`]s and
    /// a state captured here restores into the reference machine (and
    /// vice versa).
    ///
    /// # Errors
    ///
    /// As [`Machine::capture`](crate::Machine::capture).
    pub fn capture(&self) -> Result<SemState, String> {
        let status = match &self.status {
            Status::Suspended => SnapStatus::Suspended,
            Status::OutOfFuel => SnapStatus::OutOfFuel,
            other => return Err(format!("not at a resumable point (status {other:?})")),
        };
        let env = |p: &RProc, rho: &[Option<Value>]| {
            sorted_bindings(
                rho.iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.as_ref().map(|v| (p.slot_names[i].clone(), v.clone()))),
            )
        };
        let names = |p: &RProc, slots: &[Slot]| {
            let mut v: Vec<Name> = slots
                .iter()
                .map(|&s| p.slot_names[s as usize].clone())
                .collect();
            v.sort();
            v
        };
        let p = &self.rp.procs[self.cur_proc];
        Ok(SemState {
            proc: p.name.clone(),
            node: self.cur_node,
            rho: env(p, &self.rho),
            saves: names(p, &self.saves),
            uid: self.uid,
            mem: self.mem_snapshot(),
            area: self.area.clone(),
            stack: self
                .stack
                .iter()
                .map(|f| {
                    let fp = &self.rp.procs[f.proc];
                    FrameState {
                        proc: fp.name.clone(),
                        call_site: f.call_site,
                        rho: env(fp, &f.rho),
                        saves: names(fp, &f.saves),
                        uid: f.uid,
                    }
                })
                .collect(),
            globals: sorted_bindings(
                self.rp
                    .globals_init
                    .iter()
                    .map(|(n, _)| n.clone())
                    .zip(self.globals.iter().cloned()),
            ),
            next_uid: self.next_uid,
            cont_encodings: self.conts.entries().to_vec(),
            status,
            steps: self.steps,
        })
    }

    /// Restores a captured state, translating names back into this
    /// engine's slot space. The state may come from either engine of
    /// the family; validation mirrors
    /// [`Machine::restore`](crate::Machine::restore), with the extra
    /// check that every restored binding names a variable of its
    /// procedure's slot universe.
    ///
    /// # Errors
    ///
    /// As [`Machine::restore`](crate::Machine::restore). The machine is
    /// unchanged on error.
    pub fn restore(&mut self, st: &SemState) -> Result<(), String> {
        let prog = self.rp.program();
        check_ref(prog, &st.proc, st.node, "control")?;
        for (i, ce) in st.cont_encodings.iter().enumerate() {
            check_ref(prog, &ce.0.proc, ce.0.node, &format!("cont-encoding {i}"))?;
        }
        let rp = self.rp;
        let cur = rp
            .idx_of(st.proc.as_str())
            .expect("checked by check_ref above");
        let spare = self.spare.pop().unwrap_or_default();
        let locals = resolve_locals(&rp.procs[cur], &st.rho, &st.saves, "", spare)?;
        let mut stack = Vec::with_capacity(st.stack.len());
        for (i, f) in st.stack.iter().enumerate() {
            call_site_graph(prog, &f.proc, f.call_site).map_err(|e| format!("frame {i}: {e}"))?;
            let fi = rp
                .idx_of(f.proc.as_str())
                .expect("call_site_graph found the procedure");
            let spare = self.spare.pop().unwrap_or_default();
            let (rho, saves) = resolve_locals(
                &rp.procs[fi],
                &f.rho,
                &f.saves,
                &format!("frame {i} "),
                spare,
            )?;
            stack.push(RFrame {
                proc: fi,
                call_site: f.call_site,
                rho,
                saves,
                uid: f.uid,
            });
        }
        let mut globals: Vec<Value> = self
            .rp
            .globals_init
            .iter()
            .map(|(_, v)| v.clone())
            .collect();
        for (n, v) in &st.globals {
            let g = self
                .rp
                .globals_idx
                .get(n)
                .ok_or_else(|| format!("global `{n}` is not declared by the program"))?;
            globals[*g as usize] = v.clone();
        }
        for f in std::mem::replace(&mut self.stack, stack) {
            self.park((f.rho, f.saves));
        }
        self.switch_to(locals);
        self.cur_proc = cur;
        self.cur_node = st.node;
        self.uid = st.uid;
        self.mem = st.mem.iter().copied().collect();
        self.area = st.area.clone();
        self.globals = globals;
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

/// Translates one captured activation's environment and callee-saves
/// set into `p`'s slots, filling the vectors of `locals`. `frame` names
/// the activation in error messages (`""` for the current one).
fn resolve_locals(
    p: &RProc,
    rho_pairs: &[(Name, Value)],
    save_names: &[Name],
    frame: &str,
    (mut rho, mut saves): Locals,
) -> Result<Locals, String> {
    let slot = |n: &Name, what: &str| {
        p.slot_names
            .iter()
            .position(|m| m == n)
            .ok_or_else(|| format!("{frame}{what}: `{n}` is not a variable of `{}`", p.name))
    };
    rho.clear();
    rho.resize(p.nslots, None);
    for (n, v) in rho_pairs {
        rho[slot(n, "environment")?] = Some(v.clone());
    }
    saves.clear();
    for n in save_names {
        saves.push(slot(n, "callee-saves")? as Slot);
    }
    Ok((rho, saves))
}

impl<'p, S: TraceSink> crate::engine::SemEngine<'p> for ResolvedMachine<'p, S> {
    const ENGINE: cmm_chaos::EngineId = cmm_chaos::EngineId::SemResolved;

    fn program(&self) -> &'p Program {
        self.rp.program()
    }

    fn status(&self) -> &Status {
        ResolvedMachine::status(self)
    }

    fn start(&mut self, proc: &str, args: Vec<Value>) -> Result<(), Wrong> {
        ResolvedMachine::start(self, proc, args)
    }

    fn run(&mut self, fuel: u64) -> Status {
        ResolvedMachine::run(self, fuel)
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn yield_args(&self) -> &[Value] {
        ResolvedMachine::yield_args(self)
    }

    fn depth(&self) -> usize {
        ResolvedMachine::depth(self)
    }

    fn activation_site(&self, i: usize) -> Option<NodeRef> {
        ResolvedMachine::activation_site(self, i)
    }

    fn rts_pop_frame(&mut self) -> Result<(), Wrong> {
        ResolvedMachine::rts_pop_frame(self)
    }

    fn rts_resume(&mut self, target: RtsTarget, args: Vec<Value>) -> Result<(), Wrong> {
        ResolvedMachine::rts_resume(self, target, args)
    }

    fn rts_cut_to(&mut self, cont: &Value, args: Vec<Value>) -> Result<(), Wrong> {
        ResolvedMachine::rts_cut_to(self, cont, args)
    }

    fn decode_cont(&self, v: &Value) -> Option<(NodeRef, u64)> {
        ResolvedMachine::decode_cont(self, v)
    }

    fn cont_param_count(&self, proc: &Name, node: NodeId) -> Option<usize> {
        ResolvedMachine::cont_param_count(self, proc, node)
    }

    fn load(&self, ty: Ty, addr: u64) -> Value {
        ResolvedMachine::load(self, ty, addr)
    }

    fn mem_snapshot(&self) -> Vec<(u64, u8)> {
        ResolvedMachine::mem_snapshot(self)
    }

    fn capture(&self) -> Result<SemState, String> {
        ResolvedMachine::capture(self)
    }

    fn restore(&mut self, st: &SemState) -> Result<(), String> {
        ResolvedMachine::restore(self, st)
    }

    fn trace_enabled(&self) -> bool {
        S::ENABLED
    }

    fn trace(&mut self, e: Event) {
        self.emit(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CONT_BASE;
    use crate::{Machine, SemEngine};
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn prog(src: &str) -> Program {
        build_program(&parse_module(src).unwrap()).unwrap()
    }

    /// Runs a source program to completion on both engines and asserts
    /// identical status, step count, and memory.
    fn both(src: &str, proc: &str, args: Vec<Value>) -> Status {
        let p = prog(src);
        let rp = ResolvedProgram::new(&p);
        let mut old = Machine::new(&p);
        let mut new = ResolvedMachine::new(&rp);
        let so = old.start(proc, args.clone()).err();
        let sn = new.start(proc, args).err();
        assert_eq!(so, sn);
        if so.is_some() {
            return Status::Idle;
        }
        let a = old.run(1_000_000);
        let b = new.run(1_000_000);
        assert_eq!(a, b, "status diverged");
        assert_eq!(old.steps, new.steps, "step counts diverged");
        assert_eq!(old.mem_snapshot(), new.mem_snapshot(), "memory diverged");
        b
    }

    #[test]
    fn figure1_matches_reference() {
        let src = r#"
            sp1(bits32 n) {
                bits32 s, p;
                if n == 1 { return (1, 1); }
                else { s, p = sp1(n - 1); return (s + n, p * n); }
            }
        "#;
        let s = both(src, "sp1", vec![Value::b32(10)]);
        assert_eq!(
            s,
            Status::Terminated(vec![Value::b32(55), Value::b32(3628800)])
        );
    }

    #[test]
    fn cut_to_matches_reference() {
        let src = r#"
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
            g(bits32 kk) { cut to kk(10); return (0); }
        "#;
        assert_eq!(
            both(src, "f", vec![]),
            Status::Terminated(vec![Value::b32(11)])
        );
    }

    #[test]
    fn wrong_payloads_match_reference() {
        // Every `Wrong` constructor carries a NodeRef; the resolved
        // engine must produce the identical payload.
        for (src, args) in [
            // Use before definition: UnboundName.
            ("f() { bits32 x; return (x); }", vec![]),
            // Call site lacks `also cuts to`: CutNotAnnotated.
            ("f() { bits32 r; r = g(k); return (0); continuation k(r): return (r); } g(bits32 kk) { cut to kk(1); return (0); }", vec![]),
            // Claimed alternates disagree with the bundle: ReturnArityMismatch.
            ("f() { bits32 r; r = g(); return (r); } g() { return <0/2> (5); }", vec![]),
            // bits8 + bits32: WidthMismatch.
            ("f(bits32 a) { bits8 b; b = %lo8(a); return (a + b); }", vec![Value::b32(1)]),
        ] {
            let s = both(src, "f", args);
            assert!(matches!(s, Status::Wrong(_)), "{src}: {s:?}");
        }
    }

    #[test]
    fn continuation_encodings_match_reference() {
        // Continuations stored to memory intern identically, so the
        // final memory (and any arithmetic on the encodings) agrees.
        let src = r#"
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
        "#;
        assert_eq!(
            both(src, "f", vec![]),
            Status::Terminated(vec![Value::b32(101)])
        );
    }

    #[test]
    fn globals_and_memory_match_reference() {
        let src = r#"
            register bits32 counter = 5;
            data cell { bits32 7; }
            f() {
                bits32 x;
                counter = counter + 1;
                x = bits32[cell];
                bits32[cell] = x + counter;
                return (bits32[cell]);
            }
        "#;
        assert_eq!(
            both(src, "f", vec![]),
            Status::Terminated(vec![Value::b32(13)])
        );
    }

    #[test]
    fn missing_proc_matches_reference() {
        assert_eq!(both("f() { return (0); }", "nope", vec![]), Status::Idle);
    }

    #[test]
    fn rts_walk_and_unwind_match_reference() {
        let src = r#"
            f() {
                bits32 y, r;
                y = 5;
                r = g() also unwinds to k;
                return (0);
                continuation k(r):
                return (r + y);
            }
            g() { yield(9) also aborts; return (0); }
        "#;
        let p = prog(src);
        let rp = ResolvedProgram::new(&p);
        let mut old = Machine::new(&p);
        let mut new = ResolvedMachine::new(&rp);
        old.start("f", vec![]).unwrap();
        new.start("f", vec![]).unwrap();
        assert_eq!(old.run(100_000), Status::Suspended);
        assert_eq!(new.run(100_000), Status::Suspended);
        assert_eq!(old.yield_args(), new.yield_args());
        // Identical walk order.
        let walk_old: Vec<_> = (0..old.stack().len())
            .map(|i| old.activation(i).unwrap().site())
            .collect();
        let walk_new: Vec<_> = (0..new.depth())
            .map(|i| new.activation_site(i).unwrap())
            .collect();
        assert_eq!(walk_old, walk_new);
        // Identical resumption behaviour.
        old.rts_pop_frame().unwrap();
        new.rts_pop_frame().unwrap();
        old.rts_resume(RtsTarget::Unwind(0), vec![Value::b32(77)])
            .unwrap();
        new.rts_resume(RtsTarget::Unwind(0), vec![Value::b32(77)])
            .unwrap();
        assert_eq!(old.run(100_000), new.run(100_000));
        assert_eq!(*new.status(), Status::Terminated(vec![Value::b32(82)]));
    }

    const DEEP: &str = r#"
        f(bits32 n) {
            bits32 r;
            if n == 0 { return (0); }
            else { r = f(n - 1); return (r + 1); }
        }
    "#;

    /// Runs `f(1000)` on both engines under one governor and asserts
    /// they trip the same limit at the same transition.
    fn both_governed(src: &str, g: ResourceGovernor) -> Status {
        let p = prog(src);
        let rp = ResolvedProgram::new(&p);
        let mut old = Machine::new(&p);
        let mut new = ResolvedMachine::new(&rp);
        old.set_governor(g);
        new.set_governor(g);
        old.start("f", vec![Value::b32(1000)]).unwrap();
        new.start("f", vec![Value::b32(1000)]).unwrap();
        let a = old.run(1_000_000);
        let b = new.run(1_000_000);
        assert_eq!(a, b, "governed status diverged");
        assert_eq!(old.steps, new.steps, "governed step counts diverged");
        b
    }

    #[test]
    fn governor_depth_limit_trips_identically_on_both_engines() {
        let g = ResourceGovernor {
            max_depth: Some(40),
            ..ResourceGovernor::unlimited()
        };
        match both_governed(DEEP, g) {
            Status::Wrong(Wrong::LimitTripped { limit, observed }) => {
                assert_eq!(limit, "stack-depth");
                assert!(observed > 40);
            }
            other => panic!("expected a depth trip, got {other:?}"),
        }
    }

    #[test]
    fn governor_memory_limit_trips_identically_on_both_engines() {
        let src = r#"
            data base { bits32 0; }
            f(bits32 n) {
                bits32 i;
                i = 0;
              loop:
                if i == n { return (i); }
                else { bits32[base + i * 4] = i; i = i + 1; goto loop; }
            }
        "#;
        let g = ResourceGovernor {
            max_memory_bytes: Some(64),
            ..ResourceGovernor::unlimited()
        };
        match both_governed(src, g) {
            Status::Wrong(Wrong::LimitTripped { limit, observed }) => {
                assert_eq!(limit, "memory");
                assert!(observed > 64);
            }
            other => panic!("expected a memory trip, got {other:?}"),
        }
    }

    #[test]
    fn governor_fuel_slice_clips_each_run_call() {
        let g = ResourceGovernor {
            fuel_slice: Some(10),
            ..ResourceGovernor::unlimited()
        };
        assert_eq!(both_governed(DEEP, g), Status::OutOfFuel);
    }

    /// Flattens one continuation, captures, restores (on either engine)
    /// and flattens it again: the restored table must give it its old
    /// encoding instead of a new entry.
    fn reflatten_after_restore<'p>(mut from: impl SemEngine<'p>, mut into: impl SemEngine<'p>) {
        from.start("f", vec![]).unwrap();
        assert_eq!(from.run(10), Status::OutOfFuel);
        let st = from.capture().unwrap();
        assert_eq!(st.cont_encodings.len(), 1);
        into.restore(&st).unwrap();
        assert_eq!(into.run(50), Status::OutOfFuel);
        assert_eq!(into.capture().unwrap().cont_encodings, st.cont_encodings);
        let addr = into.program().image.symbol("slot").unwrap();
        assert_eq!(into.load(Ty::B32, addr).bits(), Some(CONT_BASE));
    }

    #[test]
    fn restored_cont_table_keeps_encodings() {
        let p = prog(
            r#"
            data slot { bits32 0; }
            f() {
                bits32 r;
              loop:
                bits32[slot] = k;
                goto loop;
                continuation k(r):
                return (r);
            }
            "#,
        );
        let rp = ResolvedProgram::new(&p);
        reflatten_after_restore(Machine::new(&p), Machine::new(&p));
        reflatten_after_restore(Machine::new(&p), ResolvedMachine::new(&rp));
        reflatten_after_restore(ResolvedMachine::new(&rp), Machine::new(&p));
        reflatten_after_restore(ResolvedMachine::new(&rp), ResolvedMachine::new(&rp));
    }
}
