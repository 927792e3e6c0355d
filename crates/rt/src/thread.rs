//! Threads and activation handles.

use cmm_cfg::{Bundle, Graph, Node, Program};
use cmm_chaos::{ChaosOp, EngineId, FaultPlan, InjectedFault, Stop, Table1};
use cmm_ir::{Name, Ty};
use cmm_obs::{Event, ResumeKind, RtsOp};
use cmm_sem::{
    Frame, Machine, ResolvedMachine, ResolvedProgram, RtsTarget, SemEngine, SemState, Status,
    Value, Wrong,
};
use std::any::Any;
use std::marker::PhantomData;

/// An activation handle: a cursor over the stack of abstract activations
/// of a suspended thread.
///
/// Handles are obtained from [`Thread::first_activation`] and advanced
/// with [`Thread::next_activation`]; they are invalidated by
/// [`Thread::resume`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Activation {
    /// Frames from the top of the stack (0 = the activation that called
    /// into the run-time system).
    index: usize,
}

impl Activation {
    /// Position from the top of the stack.
    pub fn depth(&self) -> usize {
        self.index
    }
}

/// What `Resume` should do, staged by the `Set*` calls.
#[derive(Clone, Debug)]
enum Pending {
    /// `SetActivation` (+ optional `SetUnwindCont`): unwind so the
    /// selected activation is topmost, then resume there.
    Activation {
        pops: usize,
        target: Option<RtsTarget>,
        params: Vec<Value>,
    },
    /// `SetCutToCont`: cut the stack to a continuation value.
    CutTo { cont: Value, params: Vec<Value> },
}

/// A suspended or running C-- computation, manipulated through the
/// run-time interface of Table 1.
///
/// The thread is generic over the execution engine: the reference
/// abstract machine ([`Machine`], the default) or the pre-resolved
/// engine ([`ResolvedMachine`]). Table 1 is implemented entirely in
/// terms of the [`SemEngine`] trait, so a front-end run-time system
/// works unchanged over either.
#[derive(Debug)]
pub struct Thread<'p, M: SemEngine<'p> = Machine<'p>> {
    machine: M,
    pending: Option<Pending>,
    chaos: Option<Box<FaultPlan>>,
    /// The activation handle the [`Table1`] walk ops move.
    cursor: Option<Activation>,
    _marker: PhantomData<&'p ()>,
}

impl<'p> Thread<'p> {
    /// Creates a thread over a program, run by the reference machine.
    pub fn new(prog: &'p Program) -> Thread<'p> {
        Thread::over(Machine::new(prog))
    }
}

impl<'p> Thread<'p, ResolvedMachine<'p>> {
    /// Creates a thread run by the pre-resolved engine.
    pub fn new_resolved(rp: &'p ResolvedProgram) -> Thread<'p, ResolvedMachine<'p>> {
        Thread::over(ResolvedMachine::new(rp))
    }
}

impl<'p> Thread<'p, Machine<'p>> {
    /// The frame behind an activation handle (for inspection; specific
    /// to the reference machine, which exposes its frames directly).
    pub fn frame(&self, a: &Activation) -> Option<&Frame<'p>> {
        self.machine.activation(a.index)
    }
}

impl<'p, M: SemEngine<'p>> Thread<'p, M> {
    /// Creates a thread over an already-constructed engine.
    pub fn over(machine: M) -> Thread<'p, M> {
        Thread {
            machine,
            pending: None,
            chaos: None,
            cursor: None,
            _marker: PhantomData,
        }
    }

    /// Installs a `cmm-chaos` fault plan: each Table 1 operation consults
    /// the plan before doing any real work, and a scheduled fault makes
    /// the operation fail (return `None`/`false`, or
    /// [`Wrong::ChaosFault`]) without touching the thread.
    pub fn set_chaos(&mut self, plan: FaultPlan) {
        self.chaos = Some(Box::new(plan));
    }

    /// The installed fault plan, if any (its log records every fault
    /// actually injected so far).
    pub fn chaos(&self) -> Option<&FaultPlan> {
        self.chaos.as_deref()
    }

    /// Consults the fault plan for `op`. On a scheduled fault, records a
    /// `chaos` trace event and returns the fault for the caller to turn
    /// into the op's failure mode.
    fn trip(&mut self, op: ChaosOp) -> Option<InjectedFault> {
        let fault = self.chaos.as_mut()?.trip(op)?;
        if self.machine.trace_enabled() {
            self.machine.trace(Event::Chaos {
                what: format!("fault {fault}"),
            });
        }
        Some(fault)
    }

    /// Starts executing the named procedure (see [`Machine::start`]).
    ///
    /// # Errors
    ///
    /// Fails if the procedure does not exist.
    pub fn start(&mut self, proc: &str, args: Vec<Value>) -> Result<(), Wrong> {
        self.machine.start(proc, args)
    }

    /// Runs generated code for up to `fuel` transitions.
    pub fn run(&mut self, fuel: u64) -> Status {
        self.machine.run(fuel)
    }

    /// The underlying execution engine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Consumes the thread, returning the engine (used to recover a
    /// trace sink after a run).
    pub fn into_machine(self) -> M {
        self.machine
    }

    /// The values passed to `yield`, valid while suspended.
    pub fn yield_args(&self) -> &[Value] {
        self.machine.yield_args()
    }

    /// The first `yield` argument as an integer — conventionally the
    /// request or exception code.
    pub fn yield_code(&self) -> Option<u64> {
        self.machine.yield_args().first().and_then(Value::bits)
    }

    /// The graph, continuation bundle, and descriptors of the call site
    /// where activation `index` is suspended. Every frame below a
    /// suspension is stopped at a `Call` node, and its bundle is the
    /// node's bundle, so this recovers exactly what the frame holds.
    fn call_site(&self, index: usize) -> Option<(&'p Graph, &'p Bundle, &'p [Name])> {
        let site = self.machine.activation_site(index)?;
        let g = self.machine.program().proc(site.proc.as_str())?;
        let Node::Call {
            bundle,
            descriptors,
            ..
        } = g.node(site.node)
        else {
            return None;
        };
        Some((g, bundle, descriptors))
    }

    // ----- Table 1 -----

    /// `FirstActivation(t, &a)`: "sets `a` to the 'currently executing'
    /// activation of thread `t`" — the activation that called into the
    /// run-time system.
    ///
    /// Returns `None` if the thread is not suspended or has no
    /// activations.
    pub fn first_activation(&mut self) -> Option<Activation> {
        if self.trip(ChaosOp::FirstActivation).is_some() {
            return None;
        }
        let found = matches!(self.machine.status(), Status::Suspended) && self.machine.depth() > 0;
        if self.machine.trace_enabled() {
            let proc = if found {
                self.machine.activation_site(0).map(|s| s.proc)
            } else {
                None
            };
            self.machine
                .trace(Event::Rts(RtsOp::FirstActivation { proc }));
        }
        if found {
            Some(Activation { index: 0 })
        } else {
            None
        }
    }

    /// `NextActivation(&a)`: "mutates `a` to point to the activation to
    /// which `a` will return (normally `a`'s caller)". Returns `false`
    /// at the bottom of the stack (the paper's dispatcher treats that as
    /// an unhandled exception).
    pub fn next_activation(&mut self, a: &mut Activation) -> bool {
        if self.trip(ChaosOp::NextActivation).is_some() {
            return false;
        }
        let moved = if a.index + 1 < self.machine.depth() {
            a.index += 1;
            true
        } else {
            false
        };
        if self.machine.trace_enabled() {
            let proc = if moved {
                self.machine.activation_site(a.index).map(|s| s.proc)
            } else {
                None
            };
            self.machine
                .trace(Event::Rts(RtsOp::NextActivation { moved, proc }));
        }
        moved
    }

    /// The procedure of the activation behind a handle (for inspection
    /// and diagnostics).
    pub fn activation_proc(&self, a: &Activation) -> Option<Name> {
        self.machine.activation_site(a.index).map(|s| s.proc)
    }

    /// `GetDescriptor(a, n)`: "returns a pointer to the n'th descriptor
    /// associated with activation `a`" — here, the address of the data
    /// block named by the n'th `also descriptor` annotation at the call
    /// site where the activation is suspended.
    pub fn get_descriptor(&mut self, a: &Activation, n: usize) -> Option<u64> {
        if self.trip(ChaosOp::GetDescriptor).is_some() {
            return None;
        }
        let addr = (|| {
            let (_, _, descriptors) = self.call_site(a.index)?;
            let name = descriptors.get(n)?;
            self.machine.program().image.symbol(name.as_str())
        })();
        if self.machine.trace_enabled() {
            self.machine.trace(Event::Rts(RtsOp::GetDescriptor {
                index: n as u32,
                found: addr.is_some(),
            }));
        }
        addr
    }

    /// `SetActivation(t, a)`: "arranges for thread `t` to resume
    /// execution with activation `a`". Activations above `a` will be
    /// discarded when the thread resumes; each must be suspended at a
    /// call site annotated `also aborts`.
    ///
    /// Unless a subsequent [`Thread::set_unwind_cont`] selects an unwind
    /// continuation, the thread resumes at the call site's *normal
    /// return* point.
    ///
    /// # Errors
    ///
    /// Fails if the thread is not suspended.
    pub fn set_activation(&mut self, a: &Activation) -> Result<(), Wrong> {
        if let Some(fault) = self.trip(ChaosOp::SetActivation) {
            return Err(chaos_wrong(fault));
        }
        let r = self.set_activation_inner(a);
        if self.machine.trace_enabled() {
            self.machine
                .trace(Event::Rts(RtsOp::SetActivation { ok: r.is_ok() }));
        }
        r
    }

    fn set_activation_inner(&mut self, a: &Activation) -> Result<(), Wrong> {
        self.require_suspended()?;
        if self.machine.activation_site(a.index).is_none() {
            return Err(Wrong::RtsViolation("stale activation handle".into()));
        }
        let count = match self.call_site(a.index) {
            Some((g, bundle, _)) => copyin_len(g, bundle.normal_return()),
            None => 0,
        };
        self.pending = Some(Pending::Activation {
            pops: a.index,
            target: None,
            params: vec![Value::Bits(cmm_ir::Width::W32, 0); count],
        });
        Ok(())
    }

    /// `SetUnwindCont(t, n)`: "arranges for thread `t` to resume
    /// execution by unwinding to the n'th continuation of the activation
    /// with which it is set to resume" — the n'th name in the call
    /// site's `also unwinds to` annotation, counting from zero.
    ///
    /// # Errors
    ///
    /// Fails if no activation has been selected with
    /// [`Thread::set_activation`], or the call site has fewer than `n+1`
    /// unwind continuations.
    pub fn set_unwind_cont(&mut self, n: usize) -> Result<(), Wrong> {
        if let Some(fault) = self.trip(ChaosOp::SetUnwindCont) {
            return Err(chaos_wrong(fault));
        }
        let r = self.set_unwind_cont_inner(n);
        if self.machine.trace_enabled() {
            self.machine.trace(Event::Rts(RtsOp::SetUnwindCont {
                index: n as u32,
                ok: r.is_ok(),
            }));
        }
        r
    }

    fn set_unwind_cont_inner(&mut self, n: usize) -> Result<(), Wrong> {
        let Some(Pending::Activation { pops, .. }) = self.pending.as_ref() else {
            return Err(Wrong::RtsViolation(
                "SetUnwindCont before SetActivation".into(),
            ));
        };
        let pops = *pops;
        let site = self
            .machine
            .activation_site(pops)
            .ok_or_else(|| Wrong::RtsViolation("stale activation handle".into()))?;
        let (g, bundle, _) = self
            .call_site(pops)
            .ok_or_else(|| Wrong::NoSuchProc(site.clone(), site.proc.clone()))?;
        let Some(&node) = bundle.unwinds.get(n) else {
            return Err(Wrong::RtsViolation(format!(
                "call site has {} unwind continuations; {n} requested",
                bundle.unwinds.len()
            )));
        };
        let count = copyin_len(g, node);
        let Some(Pending::Activation { target, params, .. }) = self.pending.as_mut() else {
            unreachable!("pending checked above");
        };
        *target = Some(RtsTarget::Unwind(n));
        *params = vec![Value::Bits(cmm_ir::Width::W32, 0); count];
        Ok(())
    }

    /// `SetCutToCont(t, k)`: "arranges for thread `t` to resume
    /// execution by cutting the stack to continuation `k`". `k` is a
    /// continuation value (typically fetched from memory or passed to
    /// `yield`).
    ///
    /// # Errors
    ///
    /// Fails if the thread is not suspended or `k` is not a live
    /// continuation value.
    pub fn set_cut_to_cont(&mut self, k: Value) -> Result<(), Wrong> {
        if let Some(fault) = self.trip(ChaosOp::SetCutToCont) {
            return Err(chaos_wrong(fault));
        }
        let r = self.set_cut_to_cont_inner(k);
        if self.machine.trace_enabled() {
            self.machine.trace(Event::Rts(RtsOp::SetCutToCont {
                target: r.as_ref().ok().cloned().flatten(),
            }));
        }
        r.map(|_| ())
    }

    fn set_cut_to_cont_inner(&mut self, k: Value) -> Result<Option<Name>, Wrong> {
        self.require_suspended()?;
        let (target, _) = self
            .machine
            .decode_cont(&k)
            .ok_or_else(|| Wrong::RtsViolation("SetCutToCont: not a continuation".into()))?;
        let count = self
            .machine
            .cont_param_count(&target.proc, target.node)
            .unwrap_or(0);
        let target_proc = target.proc;
        self.pending = Some(Pending::CutTo {
            cont: k,
            params: vec![Value::Bits(cmm_ir::Width::W32, 0); count],
        });
        Ok(Some(target_proc))
    }

    /// `FindContParam(t, n)`: "returns a pointer to the location in
    /// which the n'th parameter of the currently-set continuation will
    /// be returned to thread `t`". Write the parameter value through the
    /// returned reference before calling [`Thread::resume`].
    pub fn find_cont_param(&mut self, n: usize) -> Option<&mut Value> {
        if self.trip(ChaosOp::FindContParam).is_some() {
            return None;
        }
        let found = match self.pending.as_ref() {
            Some(Pending::Activation { params, .. }) | Some(Pending::CutTo { params, .. }) => {
                n < params.len()
            }
            None => false,
        };
        if self.machine.trace_enabled() {
            self.machine.trace(Event::Rts(RtsOp::FindContParam {
                index: n as u32,
                found,
            }));
        }
        match self.pending.as_mut()? {
            Pending::Activation { params, .. } | Pending::CutTo { params, .. } => params.get_mut(n),
        }
    }

    /// `Resume(t)`: applies the staged resumption and returns control to
    /// generated code (the thread's status becomes `Running`; call
    /// [`Thread::run`] to continue executing).
    ///
    /// # Errors
    ///
    /// Fails if nothing was staged, if an activation being discarded is
    /// not abortable, or if the continuation is dead or unannotated. On
    /// error the suspension is left intact where possible.
    pub fn resume(&mut self) -> Result<(), Wrong> {
        if let Some(fault) = self.trip(ChaosOp::Resume) {
            return Err(chaos_wrong(fault));
        }
        let kind = match &self.pending {
            Some(Pending::CutTo { .. }) => ResumeKind::Cut,
            Some(Pending::Activation {
                target: Some(RtsTarget::Unwind(_)),
                ..
            }) => ResumeKind::Unwind,
            Some(Pending::Activation {
                target: Some(RtsTarget::Cut(_)),
                ..
            }) => ResumeKind::Cut,
            _ => ResumeKind::Normal,
        };
        let r = self.resume_inner();
        if self.machine.trace_enabled() {
            self.machine.trace(Event::Rts(RtsOp::Resume {
                kind,
                ok: r.is_ok(),
            }));
        }
        r
    }

    fn resume_inner(&mut self) -> Result<(), Wrong> {
        let pending = self
            .pending
            .take()
            .ok_or_else(|| Wrong::RtsViolation("Resume with no resumption set".into()))?;
        match pending {
            Pending::Activation {
                pops,
                target,
                params,
            } => {
                for _ in 0..pops {
                    self.machine.rts_pop_frame()?;
                }
                match target {
                    Some(t) => self.machine.rts_resume(t, params),
                    None => {
                        // Resume at the normal return point: the last
                        // entry of kp_r.
                        let (_, bundle, _) = self
                            .call_site(0)
                            .ok_or_else(|| Wrong::RtsViolation("empty stack".into()))?;
                        let normal = bundle.returns.len().checked_sub(1).ok_or_else(|| {
                            Wrong::RtsViolation("call site has no return continuation".into())
                        })?;
                        self.machine.rts_resume(RtsTarget::Return(normal), params)
                    }
                }
            }
            Pending::CutTo { cont, params } => self.machine.rts_cut_to(&cont, params),
        }
    }

    fn require_suspended(&self) -> Result<(), Wrong> {
        if matches!(self.machine.status(), Status::Suspended) {
            Ok(())
        } else {
            Err(Wrong::RtsViolation("thread is not suspended".into()))
        }
    }

    // ----- conveniences for front-end run-time systems -----

    /// Reads a 32-bit word from memory.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.machine.load(Ty::B32, addr).bits().unwrap_or(0) as u32
    }
}

/// Table 1 over words: the handle lives in the thread's cursor, and
/// words are `bits32` values.
impl<'p, M: SemEngine<'p>> Table1 for Thread<'p, M> {
    fn engine(&self) -> EngineId {
        M::ENGINE
    }

    fn start(&mut self, entry: &str, args: &[u64], _results: usize) -> Result<(), String> {
        let args = args.iter().map(|&a| Value::b32(a as u32)).collect();
        Thread::start(self, entry, args).map_err(|w| w.to_string())
    }

    fn run(&mut self, fuel: u64) -> Stop {
        match Thread::run(self, fuel) {
            Status::Terminated(vals) => {
                Stop::Halted(vals.iter().map(|v| v.bits().unwrap_or(u64::MAX)).collect())
            }
            Status::Suspended => Stop::Suspended,
            Status::OutOfFuel => Stop::OutOfFuel,
            Status::Wrong(w) => Stop::Wrong(w.to_string()),
            other => Stop::Other(format!("{other:?}")),
        }
    }

    fn fuel_spent(&self) -> u64 {
        self.machine.steps()
    }

    fn work(&self) -> u64 {
        self.machine.steps()
    }

    fn yield_arg(&self, i: usize) -> u64 {
        self.yield_args().get(i).and_then(Value::bits).unwrap_or(0)
    }

    fn read_u32(&self, addr: u64) -> u32 {
        Thread::read_u32(self, addr)
    }

    fn first_activation(&mut self) -> bool {
        self.cursor = Thread::first_activation(self);
        self.cursor.is_some()
    }

    fn next_activation(&mut self) -> bool {
        let Some(mut a) = self.cursor else {
            return false;
        };
        let moved = Thread::next_activation(self, &mut a);
        self.cursor = Some(a);
        moved
    }

    fn get_descriptor(&mut self, n: usize) -> Option<u64> {
        let a = self.cursor?;
        Thread::get_descriptor(self, &a, n)
    }

    fn set_activation(&mut self) -> Result<(), String> {
        let a = self.cursor.ok_or("no activation selected")?;
        Thread::set_activation(self, &a).map_err(|w| w.to_string())
    }

    fn set_unwind_cont(&mut self, n: usize) -> Result<(), String> {
        Thread::set_unwind_cont(self, n).map_err(|w| w.to_string())
    }

    fn set_cut_to_cont(&mut self, k: u64) -> Result<(), String> {
        Thread::set_cut_to_cont(self, Value::b64(k)).map_err(|w| w.to_string())
    }

    fn set_cont_param(&mut self, n: usize, word: u64) -> bool {
        match Thread::find_cont_param(self, n) {
            Some(p) => {
                *p = Value::b32(word as u32);
                true
            }
            None => false,
        }
    }

    fn resume(&mut self) -> Result<(), String> {
        Thread::resume(self).map_err(|w| w.to_string())
    }

    fn capture(&self) -> Result<Box<dyn Any>, String> {
        Ok(Box::new(self.machine.capture()?))
    }

    fn restore(&mut self, state: &dyn Any) -> Result<(), String> {
        let st = state
            .downcast_ref::<SemState>()
            .ok_or("a sem-family engine cannot restore a VM state")?;
        self.machine.restore(st)
    }

    fn set_chaos(&mut self, plan: FaultPlan) {
        Thread::set_chaos(self, plan);
    }

    fn chaos(&self) -> Option<&FaultPlan> {
        Thread::chaos(self)
    }

    fn deep_state(&self) -> (Vec<(u64, u8)>, Vec<u64>) {
        (self.machine.mem_snapshot(), vec![self.machine.steps()])
    }
}

fn chaos_wrong(fault: InjectedFault) -> Wrong {
    Wrong::ChaosFault {
        op: fault.op.name().into(),
        invocation: fault.invocation,
    }
}

fn copyin_len(g: &Graph, node: cmm_cfg::NodeId) -> usize {
    match g.node(node) {
        Node::CopyIn { vars, .. } => vars.len(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;

    fn prog(src: &str) -> Program {
        build_program(&parse_module(src).unwrap()).unwrap()
    }

    const NEST: &str = r#"
        f() {
            bits32 r;
            r = mid() also unwinds to k1, k2 also descriptor d_f;
            return (0);
            continuation k1(r):
            return (r + 1);
            continuation k2(r):
            return (r + 2);
        }
        mid() {
            bits32 r;
            r = g() also aborts also descriptor d_mid;
            return (r);
        }
        g() { yield(9) also aborts; return (0); }
        data d_f   { bits32 111; }
        data d_mid { bits32 222; }
    "#;

    #[test]
    fn walk_get_descriptors_and_unwind() {
        let p = prog(NEST);
        let mut t = Thread::new(&p);
        t.start("f", vec![]).unwrap();
        assert_eq!(t.run(100_000), Status::Suspended);
        assert_eq!(t.yield_code(), Some(9));

        // Walk the stack: the "currently executing" activation is g
        // (suspended at its call to yield), then mid, then f.
        let mut a = t.first_activation().unwrap();
        assert_eq!(t.frame(&a).unwrap().proc().as_str(), "g");
        assert_eq!(t.get_descriptor(&a, 0), None);

        assert!(t.next_activation(&mut a));
        assert_eq!(t.frame(&a).unwrap().proc().as_str(), "mid");
        let d_mid = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.read_u32(d_mid), 222);

        assert!(t.next_activation(&mut a));
        assert_eq!(t.frame(&a).unwrap().proc().as_str(), "f");
        let d_f = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.read_u32(d_f), 111);
        assert!(!t.next_activation(&mut a), "f is the bottom activation");

        // Unwind to f's second continuation with parameter 40.
        t.set_activation(&a).unwrap();
        t.set_unwind_cont(1).unwrap();
        *t.find_cont_param(0).unwrap() = Value::b32(40);
        t.resume().unwrap();
        assert_eq!(t.run(100_000), Status::Terminated(vec![Value::b32(42)]));
    }

    #[test]
    fn resolved_engine_drives_the_same_dispatch() {
        // The identical Table 1 exchange over the pre-resolved engine.
        let p = prog(NEST);
        let rp = ResolvedProgram::new(&p);
        let mut t = Thread::new_resolved(&rp);
        t.start("f", vec![]).unwrap();
        assert_eq!(t.run(100_000), Status::Suspended);
        assert_eq!(t.yield_code(), Some(9));

        let mut a = t.first_activation().unwrap();
        assert_eq!(t.activation_proc(&a).unwrap().as_str(), "g");
        assert!(t.next_activation(&mut a));
        assert_eq!(t.activation_proc(&a).unwrap().as_str(), "mid");
        let d = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.read_u32(d), 222);
        assert!(t.next_activation(&mut a));
        let d = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.read_u32(d), 111);
        assert!(!t.next_activation(&mut a));

        t.set_activation(&a).unwrap();
        t.set_unwind_cont(1).unwrap();
        *t.find_cont_param(0).unwrap() = Value::b32(40);
        t.resume().unwrap();
        assert_eq!(t.run(100_000), Status::Terminated(vec![Value::b32(42)]));
    }

    #[test]
    fn set_activation_alone_resumes_normal_return() {
        let p = prog(
            r#"
            f() { bits32 r; r = g(); return (r); }
            g() { bits32 r; r = h(); return (r + 1); }
            h() { yield(1) also aborts; return (5); }
            "#,
        );
        let mut t = Thread::new(&p);
        t.start("f", vec![]).unwrap();
        t.run(100_000);
        // Discard h's activation (its yield call aborts) and resume g at
        // the normal return point of the call to h, supplying the
        // "result" 10.
        let mut a = t.first_activation().unwrap();
        assert_eq!(t.frame(&a).unwrap().proc().as_str(), "h");
        assert!(t.next_activation(&mut a));
        assert_eq!(t.frame(&a).unwrap().proc().as_str(), "g");
        t.set_activation(&a).unwrap();
        *t.find_cont_param(0).unwrap() = Value::b32(10);
        t.resume().unwrap();
        assert_eq!(t.run(100_000), Status::Terminated(vec![Value::b32(11)]));
    }

    #[test]
    fn set_cut_to_cont_cuts_the_stack() {
        // The continuation is passed down as a yield argument.
        let p = prog(
            r#"
            f() {
                bits32 r;
                r = mid(k) also cuts to k;
                return (0);
                continuation k(r):
                return (r * 2);
            }
            mid(bits32 kk) {
                bits32 r;
                r = g(kk) also aborts;
                return (r);
            }
            g(bits32 kk) { yield(1, kk) also aborts; return (0); }
            "#,
        );
        let mut t = Thread::new(&p);
        t.start("f", vec![]).unwrap();
        assert_eq!(t.run(100_000), Status::Suspended);
        let k = t.yield_args()[1].clone();
        t.set_cut_to_cont(k).unwrap();
        *t.find_cont_param(0).unwrap() = Value::b32(21);
        t.resume().unwrap();
        assert_eq!(t.run(100_000), Status::Terminated(vec![Value::b32(42)]));
    }

    #[test]
    fn resume_without_setup_fails() {
        let p = prog("f() { yield(1); return; }");
        let mut t = Thread::new(&p);
        t.start("f", vec![]).unwrap();
        t.run(100_000);
        assert!(t.resume().is_err());
    }

    #[test]
    fn unwind_cont_out_of_range_fails() {
        let p = prog(
            r#"
            f() { bits32 r; r = g() also unwinds to k; return (0);
                  continuation k(r): return (r); }
            g() { yield(1) also aborts; return (0); }
            "#,
        );
        let mut t = Thread::new(&p);
        t.start("f", vec![]).unwrap();
        t.run(100_000);
        let mut a = t.first_activation().unwrap();
        t.next_activation(&mut a);
        t.set_activation(&a).unwrap();
        assert!(t.set_unwind_cont(5).is_err());
        assert!(t.set_unwind_cont(0).is_ok());
    }

    #[test]
    fn first_activation_requires_suspension() {
        let p = prog("f() { return; }");
        let mut t = Thread::new(&p);
        assert!(t.first_activation().is_none());
    }

    #[test]
    fn descriptors_missing_returns_none() {
        let p = prog(
            r#"
            f() { bits32 r; r = g(); return (r); }
            g() { yield(1); return (0); }
            "#,
        );
        let mut t = Thread::new(&p);
        t.start("f", vec![]).unwrap();
        t.run(100_000);
        let a = t.first_activation().unwrap();
        assert_eq!(t.get_descriptor(&a, 0), None);
    }

    #[test]
    fn chaos_faults_option_ops_to_none() {
        let p = prog(NEST);
        let mut t = Thread::new(&p);
        t.set_chaos(FaultPlan::failing(ChaosOp::FirstActivation, 1));
        t.start("f", vec![]).unwrap();
        assert_eq!(t.run(100_000), Status::Suspended);
        assert!(t.first_activation().is_none(), "fault masks the walk root");
        let log = t.chaos().unwrap().log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].op, ChaosOp::FirstActivation);
        assert_eq!(log[0].invocation, 1);
        // The schedule trips once; the op works again afterwards.
        assert!(t.first_activation().is_some());
    }

    #[test]
    fn chaos_faults_result_ops_to_chaos_wrong() {
        let p = prog(NEST);
        let mut t = Thread::new(&p);
        t.set_chaos(FaultPlan::failing(ChaosOp::SetUnwindCont, 1));
        t.start("f", vec![]).unwrap();
        assert_eq!(t.run(100_000), Status::Suspended);
        let mut a = t.first_activation().unwrap();
        while t.next_activation(&mut a) {}
        t.set_activation(&a).unwrap();
        match t.set_unwind_cont(1) {
            Err(Wrong::ChaosFault { op, invocation }) => {
                assert_eq!(op, "set-unwind-cont");
                assert_eq!(invocation, 1);
            }
            other => panic!("expected an injected fault, got {other:?}"),
        }
        // Recoverable: retry the op, finish the unwind normally.
        t.set_unwind_cont(1).unwrap();
        *t.find_cont_param(0).unwrap() = Value::b32(40);
        t.resume().unwrap();
        assert_eq!(t.run(100_000), Status::Terminated(vec![Value::b32(42)]));
    }

    #[test]
    fn chaos_counts_invocations_per_op() {
        let p = prog(NEST);
        let mut t = Thread::new(&p);
        t.set_chaos(FaultPlan::failing(ChaosOp::NextActivation, 2));
        t.start("f", vec![]).unwrap();
        assert_eq!(t.run(100_000), Status::Suspended);
        let mut a = t.first_activation().unwrap();
        assert!(t.next_activation(&mut a), "invocation 1 is clean");
        assert!(!t.next_activation(&mut a), "invocation 2 is the fault");
        assert!(t.next_activation(&mut a), "invocation 3 is clean again");
        assert_eq!(t.chaos().unwrap().log().len(), 1);
    }

    #[test]
    fn chaos_schedule_is_identical_over_the_resolved_engine() {
        // The same plan, installed on both sem engines, injects at the
        // same dispatch point and leaves the same log.
        fn drive<'p, M: SemEngine<'p>>(mut t: Thread<'p, M>) -> Vec<InjectedFault> {
            t.set_chaos(FaultPlan::seeded(7));
            t.start("f", vec![]).unwrap();
            assert_eq!(t.run(100_000), Status::Suspended);
            if let Some(mut a) = t.first_activation() {
                while t.next_activation(&mut a) {}
                let _ = t.set_activation(&a);
                let _ = t.set_unwind_cont(0);
                if let Some(p0) = t.find_cont_param(0) {
                    *p0 = Value::b32(1);
                }
                let _ = t.resume();
            }
            t.chaos().unwrap().log().to_vec()
        }
        let p = prog(NEST);
        let rp = ResolvedProgram::new(&p);
        let plain = drive(Thread::new(&p));
        let resolved = drive(Thread::new_resolved(&rp));
        assert_eq!(plain, resolved);
        assert!(!plain.is_empty(), "seed 7 should fire at least once");
    }
}
