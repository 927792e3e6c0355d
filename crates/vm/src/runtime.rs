//! The run-time interface over the simulated machine.
//!
//! This is the VM-level counterpart of `cmm-rt`: the same Table 1
//! operations (and the same [`Table1`] trait impl), implemented the way
//! a real C-- run-time system would be — by *interpreting the tables
//! deposited by the back end* (§2):
//! per-procedure frame layouts for walking and callee-saves restoration,
//! and per-call-site tables for `also unwinds to` continuations,
//! `also aborts`, and descriptors.
//!
//! Because the walker runs in Rust rather than in simulated code, each
//! operation charges a documented instruction-equivalent cost to the
//! machine ([`costs`]), so benches measure the interpretive overhead the
//! paper attributes to run-time stack unwinding.

use crate::codegen::VmProgram;
use crate::frame::CallSiteMeta;
use crate::isa::regs;
use crate::machine::{VmMachine, VmStatus};
use crate::snapshot::VmState;
use cmm_chaos::{ChaosOp, EngineId, FaultPlan, InjectedFault, Stop, Table1};
use cmm_ir::Name;
use cmm_obs::{Event, NopSink, ResumeKind, RtsOp, TraceSink};
use std::any::Any;

/// Instruction-equivalent charges for the interpretive dispatcher.
pub mod costs {
    /// `FirstActivation`: locate the yield frame and read the caller's
    /// return address.
    pub const FIRST_ACTIVATION: u64 = 10;
    /// `NextActivation`: table lookup, frame-size add, saved-ra load,
    /// plus one load per callee-saves register restored.
    pub const NEXT_ACTIVATION: u64 = 12;
    /// Per callee-saves register restored during a walk step.
    pub const RESTORE_REG: u64 = 1;
    /// `GetDescriptor`: table lookup and bounds check.
    pub const GET_DESCRIPTOR: u64 = 5;
    /// `SetActivation`/`SetUnwindCont`/`FindContParam`/`Resume`
    /// combined bookkeeping.
    pub const RESUME: u64 = 12;
    /// `SetCutToCont` + `Resume`: the two loads of the (pc, sp) pair
    /// plus bookkeeping.
    pub const CUT_RESUME: u64 = 8;
}

/// An activation handle over the simulated stack.
#[derive(Clone, Debug)]
pub struct VmActivation {
    /// The return address identifying the call site where the
    /// activation is suspended (the key into the call-site tables).
    pub site: u32,
    /// The activation's frame base (its `sp` while executing).
    pub base: u32,
    /// Register view with callee-saves restored up to this activation.
    pub ctx: Vec<u64>,
    /// Whether every activation walked over so far may be discarded
    /// (all suspended at `also aborts` call sites).
    pub discard_ok: bool,
}

#[derive(Clone, Debug)]
enum VmPending {
    Activation {
        act: VmActivation,
        unwind: Option<usize>,
        params: Vec<u64>,
    },
    Cut {
        k: u32,
        params: Vec<u64>,
    },
}

/// A thread of simulated execution plus the run-time interface.
///
/// Generic over a [`TraceSink`] like the machine it drives: each
/// Table 1 operation below emits one [`RtsOp`] event into the machine's
/// sink, with payloads mirroring `cmm-rt`'s `Thread` exactly so the
/// cross-engine exception projection compares equal.
#[derive(Debug)]
pub struct VmThread<'p, S: TraceSink = NopSink> {
    /// The machine.
    pub machine: VmMachine<'p, S>,
    pending: Option<VmPending>,
    chaos: Option<Box<FaultPlan>>,
    /// The activation handle the [`Table1`] walk ops move.
    cursor: Option<VmActivation>,
}

impl<'p> VmThread<'p> {
    /// Creates a thread over a compiled program.
    pub fn new(program: &'p VmProgram) -> VmThread<'p> {
        VmThread::with_sink(program, NopSink)
    }

    /// Creates a thread whose machine runs the pre-decoded stream (see
    /// [`crate::decode`]). The runtime interface is tier-agnostic: it
    /// reads registers, memory, and pc, all of which every tier
    /// maintains identically.
    pub fn new_decoded(program: &'p VmProgram) -> VmThread<'p> {
        VmThread::with_sink_decoded(program, NopSink)
    }

    /// Creates a thread whose machine runs the fused stream (see
    /// [`crate::fuse`]). The runtime interface is tier-agnostic.
    pub fn new_fused(program: &'p VmProgram) -> VmThread<'p> {
        VmThread::with_sink_fused(program, NopSink)
    }
}

impl<'p, S: TraceSink> VmThread<'p, S> {
    /// Creates a thread over an already-constructed machine.
    pub fn over(machine: VmMachine<'p, S>) -> VmThread<'p, S> {
        VmThread {
            machine,
            pending: None,
            chaos: None,
            cursor: None,
        }
    }

    /// Creates a tracing thread (see [`VmThread::new`]).
    pub fn with_sink(program: &'p VmProgram, sink: S) -> VmThread<'p, S> {
        VmThread::over(VmMachine::with_sink(program, sink))
    }

    /// Creates a tracing thread over the pre-decoded engine (see
    /// [`VmThread::new_decoded`]).
    pub fn with_sink_decoded(program: &'p VmProgram, sink: S) -> VmThread<'p, S> {
        VmThread::over(VmMachine::with_sink_decoded(program, sink))
    }

    /// Creates a tracing thread over a shared, already built stream,
    /// decoded or fused (see [`VmMachine::new_shared_decoded`]): the
    /// lowering is paid once — e.g. by `cmm-pool`'s compilation cache —
    /// and every thread after that reuses it.
    pub fn with_sink_shared_decoded(
        program: &'p VmProgram,
        decoded: std::sync::Arc<crate::decode::DecodedCode>,
        sink: S,
    ) -> VmThread<'p, S> {
        VmThread::over(VmMachine::with_sink_shared_decoded(program, decoded, sink))
    }

    /// Creates a tracing thread over the fused engine (see
    /// [`VmThread::new_fused`]).
    pub fn with_sink_fused(program: &'p VmProgram, sink: S) -> VmThread<'p, S> {
        VmThread::over(VmMachine::with_sink_fused(program, sink))
    }

    /// [`VmThread::with_sink_shared_decoded`] under the name the
    /// repository benchmark calls for `vm-fused`.
    pub fn with_sink_shared_fused(
        program: &'p VmProgram,
        fused: std::sync::Arc<crate::decode::DecodedCode>,
        sink: S,
    ) -> VmThread<'p, S> {
        VmThread::with_sink_shared_decoded(program, fused, sink)
    }

    /// [`VmThread::with_sink`] with the machine's heap structures drawn
    /// from `arena` (see [`VmMachine::with_sink_in`]).
    pub fn with_sink_in(
        program: &'p VmProgram,
        sink: S,
        arena: &mut crate::machine::VmArena,
    ) -> VmThread<'p, S> {
        VmThread::over(VmMachine::with_sink_in(program, sink, arena))
    }

    /// [`VmThread::with_sink_shared_decoded`] with the machine's heap
    /// structures drawn from `arena` (see [`VmMachine::with_sink_in`]).
    pub fn with_sink_shared_decoded_in(
        program: &'p VmProgram,
        decoded: std::sync::Arc<crate::decode::DecodedCode>,
        sink: S,
        arena: &mut crate::machine::VmArena,
    ) -> VmThread<'p, S> {
        VmThread::over(VmMachine::with_sink_shared_decoded_in(
            program, decoded, sink, arena,
        ))
    }

    /// Consumes the thread, returning its machine — e.g. to bank the
    /// machine's allocations via [`VmMachine::recycle_into`] once the
    /// run is over.
    pub fn into_machine(self) -> VmMachine<'p, S> {
        self.machine
    }

    /// Installs a `cmm-chaos` fault plan; each Table 1 operation
    /// consults it before doing any real work, exactly like `cmm-rt`'s
    /// `Thread`, so both families fail at the same schedule points.
    pub fn set_chaos(&mut self, plan: FaultPlan) {
        self.chaos = Some(Box::new(plan));
    }

    /// The installed fault plan, if any.
    pub fn chaos(&self) -> Option<&FaultPlan> {
        self.chaos.as_deref()
    }

    /// Consults the fault plan for `op`, emitting a `chaos` trace event
    /// when a scheduled fault trips.
    fn trip(&mut self, op: ChaosOp) -> Option<InjectedFault> {
        let fault = self.chaos.as_mut()?.trip(op)?;
        if S::ENABLED {
            self.machine.emit(Event::Chaos {
                what: format!("fault {fault}"),
            });
        }
        Some(fault)
    }

    /// The procedure owning a call-site key, for event payloads.
    fn site_proc(&self, site: u32) -> Option<Name> {
        self.site_meta(site)
            .map(|s| self.program().proc_meta[s.proc].name.clone())
    }

    /// Starts a procedure (see [`VmMachine::start`]).
    pub fn start(&mut self, proc: &str, args: &[u64], expected_results: usize) {
        self.machine.start(proc, args, expected_results);
    }

    /// Runs generated code.
    pub fn run(&mut self, fuel: u64) -> VmStatus {
        self.machine.run(fuel)
    }

    fn program(&self) -> &'p VmProgram {
        self.machine.program
    }

    fn site_meta(&self, site: u32) -> Option<&'p CallSiteMeta> {
        self.program().call_sites.get(&site)
    }

    /// `FirstActivation`: the activation that called into the run-time
    /// system. `None` unless suspended.
    pub fn first_activation(&mut self) -> Option<VmActivation> {
        if self.trip(ChaosOp::FirstActivation).is_some() {
            return None;
        }
        let r = self.first_activation_inner();
        if S::ENABLED {
            let proc = r.as_ref().and_then(|a| self.site_proc(a.site));
            self.machine
                .emit(Event::Rts(RtsOp::FirstActivation { proc }));
        }
        r
    }

    fn first_activation_inner(&mut self) -> Option<VmActivation> {
        if !matches!(self.machine.status(), VmStatus::Suspended) {
            return None;
        }
        self.machine.cost.runtime_instructions += costs::FIRST_ACTIVATION;
        // pc is inside the yield stub; its frame holds the caller's ra.
        let stub = self
            .program()
            .proc_at_pc(self.machine.pc.saturating_sub(1))?;
        let sp = self.machine.reg(regs::SP) as u32;
        let site = self.machine.mem.read32(sp + stub.ra_offset);
        let base = sp + stub.frame_bytes;
        Some(VmActivation {
            site,
            base,
            ctx: self.machine.regs.to_vec(),
            discard_ok: true,
        })
    }

    /// `NextActivation`: move to the caller, restoring its callee-saves
    /// registers into the context. Returns `false` at the stack bottom.
    pub fn next_activation(&mut self, a: &mut VmActivation) -> bool {
        if self.trip(ChaosOp::NextActivation).is_some() {
            return false;
        }
        let moved = self.next_activation_inner(a);
        if S::ENABLED {
            let proc = if moved { self.site_proc(a.site) } else { None };
            self.machine
                .emit(Event::Rts(RtsOp::NextActivation { moved, proc }));
        }
        moved
    }

    fn next_activation_inner(&mut self, a: &mut VmActivation) -> bool {
        self.machine.cost.runtime_instructions += costs::NEXT_ACTIVATION;
        let Some(site) = self.site_meta(a.site) else {
            return false;
        };
        let meta = &self.program().proc_meta[site.proc];
        let ra_next = self.machine.mem.read32(a.base + meta.ra_offset);
        if ra_next < 8 {
            return false; // halt vector: bottom of the stack
        }
        // Leaving this activation: it can only be discarded if its call
        // site aborts.
        a.discard_ok &= site.aborts;
        for &(reg, off) in &meta.saved_callee {
            self.machine.cost.runtime_instructions += costs::RESTORE_REG;
            a.ctx[reg as usize] = u64::from(self.machine.mem.read32(a.base + off));
        }
        a.base += meta.frame_bytes;
        a.site = ra_next;
        true
    }

    /// `GetDescriptor(a, n)`: the address of the n'th descriptor block
    /// attached to the activation's call site.
    pub fn get_descriptor(&mut self, a: &VmActivation, n: usize) -> Option<u32> {
        if self.trip(ChaosOp::GetDescriptor).is_some() {
            return None;
        }
        self.machine.cost.runtime_instructions += costs::GET_DESCRIPTOR;
        let addr = self
            .site_meta(a.site)
            .and_then(|s| s.descriptors.get(n).copied());
        if S::ENABLED {
            self.machine.emit(Event::Rts(RtsOp::GetDescriptor {
                index: n as u32,
                found: addr.is_some(),
            }));
        }
        addr
    }

    /// `SetActivation`: stage resumption with this activation topmost.
    ///
    /// # Errors
    ///
    /// Fails if the thread is not suspended or an activation being
    /// discarded is not suspended at an `also aborts` call site.
    pub fn set_activation(&mut self, a: &VmActivation) -> Result<(), String> {
        if let Some(fault) = self.trip(ChaosOp::SetActivation) {
            return Err(chaos_err(fault));
        }
        let r = self.set_activation_inner(a);
        if S::ENABLED {
            self.machine
                .emit(Event::Rts(RtsOp::SetActivation { ok: r.is_ok() }));
        }
        r
    }

    fn set_activation_inner(&mut self, a: &VmActivation) -> Result<(), String> {
        if !matches!(self.machine.status(), VmStatus::Suspended) {
            return Err("thread is not suspended".into());
        }
        if !a.discard_ok {
            return Err("an activation being discarded has no `also aborts` annotation".into());
        }
        let n = self.site_meta(a.site).map(|s| s.normal_params).unwrap_or(0);
        self.pending = Some(VmPending::Activation {
            act: a.clone(),
            unwind: None,
            params: vec![0; n],
        });
        Ok(())
    }

    /// `SetUnwindCont(t, n)`: resume by unwinding to the n'th
    /// `also unwinds to` continuation of the staged activation.
    ///
    /// # Errors
    ///
    /// Fails without a staged activation or with an out-of-range index.
    pub fn set_unwind_cont(&mut self, n: usize) -> Result<(), String> {
        if let Some(fault) = self.trip(ChaosOp::SetUnwindCont) {
            return Err(chaos_err(fault));
        }
        let r = self.set_unwind_cont_inner(n);
        if S::ENABLED {
            self.machine.emit(Event::Rts(RtsOp::SetUnwindCont {
                index: n as u32,
                ok: r.is_ok(),
            }));
        }
        r
    }

    fn set_unwind_cont_inner(&mut self, n: usize) -> Result<(), String> {
        let Some(VmPending::Activation { act, .. }) = self.pending.as_ref() else {
            return Err("SetUnwindCont before SetActivation".into());
        };
        let site = self
            .program()
            .call_sites
            .get(&act.site)
            .ok_or_else(|| "unknown call site".to_string())?;
        if n >= site.unwind_pcs.len() {
            return Err(format!(
                "call site has {} unwind continuations; {n} requested",
                site.unwind_pcs.len()
            ));
        }
        let count = site.unwind_params[n];
        let Some(VmPending::Activation { unwind, params, .. }) = self.pending.as_mut() else {
            unreachable!("pending checked above");
        };
        *unwind = Some(n);
        *params = vec![0; count];
        Ok(())
    }

    /// `SetCutToCont(t, k)`: resume by cutting the stack to the
    /// continuation value `k` (the address of its `(pc, sp)` pair).
    ///
    /// # Errors
    ///
    /// Fails if the thread is not suspended or `k` is not a
    /// continuation: the pc of its pair is not one code generation
    /// stored as a continuation value. A refusal leaves the suspension
    /// as it was.
    pub fn set_cut_to_cont(&mut self, k: u32) -> Result<(), String> {
        if let Some(fault) = self.trip(ChaosOp::SetCutToCont) {
            return Err(chaos_err(fault));
        }
        let r = self.set_cut_to_cont_inner(k);
        if S::ENABLED {
            self.machine.emit(Event::Rts(RtsOp::SetCutToCont {
                target: r.as_ref().ok().cloned().flatten(),
            }));
        }
        r.map(|_| ())
    }

    fn set_cut_to_cont_inner(&mut self, k: u32) -> Result<Option<Name>, String> {
        if !matches!(self.machine.status(), VmStatus::Suspended) {
            return Err("thread is not suspended".into());
        }
        // The pc half of the (pc, sp) pair identifies the continuation:
        // it keys the back end's parameter-count table and lies within
        // the owning procedure's code.
        let pc = self.machine.mem.read32(k);
        let Some(&count) = self.program().cont_params.get(&pc) else {
            return Err("SetCutToCont: not a continuation".into());
        };
        let target = self.program().proc_at_pc(pc).map(|m| m.name.clone());
        self.pending = Some(VmPending::Cut {
            k,
            params: vec![0; count],
        });
        Ok(target)
    }

    /// `FindContParam(t, n)`: where to put the n'th parameter of the
    /// staged continuation.
    pub fn find_cont_param(&mut self, n: usize) -> Option<&mut u64> {
        if self.trip(ChaosOp::FindContParam).is_some() {
            return None;
        }
        if S::ENABLED {
            let found = match self.pending.as_ref() {
                Some(VmPending::Activation { params, .. })
                | Some(VmPending::Cut { params, .. }) => n < params.len(),
                None => false,
            };
            self.machine.emit(Event::Rts(RtsOp::FindContParam {
                index: n as u32,
                found,
            }));
        }
        match self.pending.as_mut()? {
            VmPending::Activation { params, .. } | VmPending::Cut { params, .. } => {
                params.get_mut(n)
            }
        }
    }

    /// `Resume`: apply the staged resumption; the machine is `Running`
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Fails if nothing was staged.
    pub fn resume(&mut self) -> Result<(), String> {
        if let Some(fault) = self.trip(ChaosOp::Resume) {
            return Err(chaos_err(fault));
        }
        let kind = match &self.pending {
            Some(VmPending::Cut { .. }) => ResumeKind::Cut,
            Some(VmPending::Activation {
                unwind: Some(_), ..
            }) => ResumeKind::Unwind,
            _ => ResumeKind::Normal,
        };
        let r = self.resume_inner();
        if S::ENABLED {
            self.machine.emit(Event::Rts(RtsOp::Resume {
                kind,
                ok: r.is_ok(),
            }));
        }
        r
    }

    fn resume_inner(&mut self) -> Result<(), String> {
        let pending = self
            .pending
            .take()
            .ok_or_else(|| "Resume with nothing staged".to_string())?;
        match pending {
            VmPending::Activation {
                act,
                unwind,
                params,
            } => {
                self.machine.cost.runtime_instructions += costs::RESUME;
                let site = self
                    .program()
                    .call_sites
                    .get(&act.site)
                    .ok_or_else(|| "unknown call site".to_string())?;
                let pc = match unwind {
                    Some(n) => site.unwind_pcs[n],
                    None => act.site + site.alternates, // normal return point
                };
                self.machine.regs.copy_from_slice(&act.ctx);
                self.machine.regs[regs::SP as usize] = u64::from(act.base);
                for (i, &p) in params.iter().enumerate() {
                    self.machine.regs[regs::ARG0 as usize + i] = p;
                }
                self.machine.pc = pc;
                self.machine.force_running();
                Ok(())
            }
            VmPending::Cut { k, params } => {
                self.machine.cost.runtime_instructions += costs::CUT_RESUME;
                let pc = self.machine.mem.read32(k);
                let sp = self.machine.mem.read32(k + 4);
                // A cut does not restore callee-saves registers.
                self.machine.regs[regs::SP as usize] = u64::from(sp);
                for (i, &p) in params.iter().enumerate() {
                    self.machine.regs[regs::ARG0 as usize + i] = p;
                }
                self.machine.pc = pc;
                self.machine.force_running();
                Ok(())
            }
        }
    }
}

/// Table 1 over words: the handle lives in the thread's cursor.
impl<S: TraceSink> Table1 for VmThread<'_, S> {
    fn engine(&self) -> EngineId {
        self.machine.tier()
    }

    fn start(&mut self, entry: &str, args: &[u64], results: usize) -> Result<(), String> {
        VmThread::start(self, entry, args, results);
        Ok(())
    }

    fn run(&mut self, fuel: u64) -> Stop {
        match VmThread::run(self, fuel) {
            VmStatus::Halted(vals) => Stop::Halted(vals),
            VmStatus::Suspended => Stop::Suspended,
            VmStatus::OutOfFuel => Stop::OutOfFuel,
            VmStatus::Error(e) => Stop::Wrong(e),
            other => Stop::Other(format!("{other:?}")),
        }
    }

    fn fuel_spent(&self) -> u64 {
        self.machine.cost.instructions
    }

    fn work(&self) -> u64 {
        self.machine.cost.total()
    }

    fn yield_arg(&self, i: usize) -> u64 {
        self.machine.reg(regs::ARG0 + i as u8)
    }

    fn read_u32(&self, addr: u64) -> u32 {
        self.machine.mem.read32(addr as u32)
    }

    fn first_activation(&mut self) -> bool {
        self.cursor = VmThread::first_activation(self);
        self.cursor.is_some()
    }

    fn next_activation(&mut self) -> bool {
        let Some(mut a) = self.cursor.take() else {
            return false;
        };
        let moved = VmThread::next_activation(self, &mut a);
        self.cursor = Some(a);
        moved
    }

    fn get_descriptor(&mut self, n: usize) -> Option<u64> {
        let a = self.cursor.take()?;
        let d = VmThread::get_descriptor(self, &a, n);
        self.cursor = Some(a);
        d.map(u64::from)
    }

    fn set_activation(&mut self) -> Result<(), String> {
        let a = self.cursor.take().ok_or("no activation selected")?;
        let r = VmThread::set_activation(self, &a);
        self.cursor = Some(a);
        r
    }

    fn set_unwind_cont(&mut self, n: usize) -> Result<(), String> {
        VmThread::set_unwind_cont(self, n)
    }

    fn set_cut_to_cont(&mut self, k: u64) -> Result<(), String> {
        let k = u32::try_from(k).map_err(|_| "SetCutToCont: not a continuation")?;
        VmThread::set_cut_to_cont(self, k)
    }

    fn set_cont_param(&mut self, n: usize, word: u64) -> bool {
        match VmThread::find_cont_param(self, n) {
            Some(p) => {
                *p = word;
                true
            }
            None => false,
        }
    }

    fn resume(&mut self) -> Result<(), String> {
        VmThread::resume(self)
    }

    fn capture(&self) -> Result<Box<dyn Any>, String> {
        Ok(Box::new(self.machine.capture()?))
    }

    fn restore(&mut self, state: &dyn Any) -> Result<(), String> {
        let st = state
            .downcast_ref::<VmState>()
            .ok_or("a VM-family engine cannot restore a sem state")?;
        self.machine.restore(st)
    }

    fn set_chaos(&mut self, plan: FaultPlan) {
        VmThread::set_chaos(self, plan);
    }

    fn chaos(&self) -> Option<&FaultPlan> {
        VmThread::chaos(self)
    }

    fn deep_state(&self) -> (Vec<(u64, u8)>, Vec<u64>) {
        let c = &self.machine.cost;
        let mem = self.machine.mem.snapshot();
        let mut words = vec![
            c.instructions,
            c.loads,
            c.stores,
            c.branches,
            c.calls,
            c.runtime_instructions,
        ];
        words.extend_from_slice(&self.machine.regs);
        (
            mem.into_iter().map(|(a, b)| (u64::from(a), b)).collect(),
            words,
        )
    }
}

/// The same wording as `Wrong::ChaosFault`'s display, so outcome
/// comparisons across engine families line up textually too.
fn chaos_err(fault: InjectedFault) -> String {
    format!(
        "chaos: injected fault in {} at invocation {}",
        fault.op.name(),
        fault.invocation
    )
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
    fn walk_and_unwind_on_the_vm() {
        let vp = compile_src(NEST);
        let mut t = VmThread::new(&vp);
        t.start("f", &[], 1);
        assert_eq!(t.run(100_000), VmStatus::Suspended);
        assert_eq!(t.machine.yield_args(1), vec![9]);

        let mut a = t.first_activation().unwrap();
        // a = g's activation (the yield caller): no descriptors.
        assert_eq!(t.get_descriptor(&a, 0), None);
        assert!(t.next_activation(&mut a)); // mid
        let d = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.machine.mem.read32(d), 222);
        assert!(t.next_activation(&mut a)); // f
        let d = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.machine.mem.read32(d), 111);
        assert!(!t.next_activation(&mut a), "f is the bottom activation");

        t.set_activation(&a).unwrap();
        t.set_unwind_cont(1).unwrap();
        *t.find_cont_param(0).unwrap() = 40;
        t.resume().unwrap();
        assert_eq!(t.run(100_000), VmStatus::Halted(vec![42]));
    }

    #[test]
    fn unwinding_restores_callee_saves_registers() {
        // y is promoted to a callee-saves register by the optimizer;
        // the unwinding walk must restore it before entering k.
        let src = r#"
            f(bits32 x) {
                bits32 y, r, d;
                y = x * 7;
                r = g() also unwinds to k;
                return (r + y);
                continuation k(d):
                return (y + d);
            }
            g() { yield(1) also aborts; return (0); }
        "#;
        let mut prog = build_program(&parse_module(src).unwrap()).unwrap();
        cmm_opt::optimize_program(&mut prog, &cmm_opt::OptOptions::default());
        let vp = compile(&prog).unwrap();
        // Confirm y actually lives in a callee-saves register.
        let f_meta = vp.proc_meta.iter().find(|m| m.name == "f").unwrap();
        assert!(
            f_meta
                .var_locs
                .values()
                .any(|l| matches!(l, crate::frame::Loc::CalleeReg(_))),
            "optimizer should promote y: {:?}",
            f_meta.var_locs
        );
        let mut t = VmThread::new(&vp);
        t.start("f", &[6], 1);
        assert_eq!(t.run(100_000), VmStatus::Suspended);
        let mut a = t.first_activation().unwrap();
        assert!(t.next_activation(&mut a)); // f
        t.set_activation(&a).unwrap();
        t.set_unwind_cont(0).unwrap();
        *t.find_cont_param(0).unwrap() = 8;
        t.resume().unwrap();
        assert_eq!(t.run(100_000), VmStatus::Halted(vec![50])); // 6*7 + 8
    }

    #[test]
    fn set_cut_to_cont_on_the_vm() {
        let src = r#"
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
        "#;
        let vp = compile_src(src);
        let mut t = VmThread::new(&vp);
        t.start("f", &[], 1);
        assert_eq!(t.run(100_000), VmStatus::Suspended);
        let k = t.machine.yield_args(2)[1] as u32;
        t.set_cut_to_cont(k).unwrap();
        *t.find_cont_param(0).unwrap() = 21;
        t.resume().unwrap();
        assert_eq!(t.run(100_000), VmStatus::Halted(vec![42]));
    }

    #[test]
    fn discard_requires_aborts() {
        let src = r#"
            f() { bits32 r; r = g() also unwinds to k; return (0);
                  continuation k(r): return (r); }
            g() { yield(1); return (0); }   /* not abortable */
        "#;
        let vp = compile_src(src);
        let mut t = VmThread::new(&vp);
        t.start("f", &[], 1);
        t.run(100_000);
        let mut a = t.first_activation().unwrap();
        assert!(t.next_activation(&mut a));
        assert!(t.set_activation(&a).is_err());
    }

    #[test]
    fn resume_normal_return() {
        let src = r#"
            f() { bits32 r; r = g(); return (r + 1); }
            g() { yield(1); return (0); }
        "#;
        let vp = compile_src(src);
        let mut t = VmThread::new(&vp);
        t.start("f", &[], 1);
        assert_eq!(t.run(100_000), VmStatus::Suspended);
        // Plain resume: continue the yield stub's epilogue and let g
        // return normally.
        let a = t.first_activation().unwrap();
        t.set_activation(&a).unwrap();
        t.resume().unwrap();
        assert_eq!(t.run(100_000), VmStatus::Halted(vec![1]));
    }

    #[test]
    fn walking_charges_runtime_cost() {
        let vp = compile_src(NEST);
        let mut t = VmThread::new(&vp);
        t.start("f", &[], 1);
        t.run(100_000);
        let before = t.machine.cost.runtime_instructions;
        let mut a = t.first_activation().unwrap();
        while t.next_activation(&mut a) {}
        assert!(t.machine.cost.runtime_instructions > before + costs::NEXT_ACTIVATION);
    }

    #[test]
    fn chaos_faults_option_ops_to_none_on_the_vm() {
        let vp = compile_src(NEST);
        let mut t = VmThread::new(&vp);
        t.set_chaos(FaultPlan::failing(ChaosOp::FirstActivation, 1));
        t.start("f", &[], 1);
        assert_eq!(t.run(100_000), VmStatus::Suspended);
        assert!(t.first_activation().is_none(), "fault masks the walk root");
        let log = t.chaos().unwrap().log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].op, ChaosOp::FirstActivation);
        // Trips once; the op works again afterwards.
        assert!(t.first_activation().is_some());
    }

    #[test]
    fn chaos_faults_result_ops_with_the_sem_fault_wording() {
        let vp = compile_src(NEST);
        let mut t = VmThread::new(&vp);
        t.set_chaos(FaultPlan::failing(ChaosOp::SetUnwindCont, 1));
        t.start("f", &[], 1);
        assert_eq!(t.run(100_000), VmStatus::Suspended);
        let mut a = t.first_activation().unwrap();
        while t.next_activation(&mut a) {}
        t.set_activation(&a).unwrap();
        let err = t.set_unwind_cont(1).unwrap_err();
        // Must match `Wrong::ChaosFault`'s display so the two engine
        // families produce textually identical outcomes in difftest.
        assert_eq!(
            err,
            "chaos: injected fault in set-unwind-cont at invocation 1"
        );
        // Recoverable: retry, then finish the unwind normally.
        t.set_unwind_cont(1).unwrap();
        *t.find_cont_param(0).unwrap() = 40;
        t.resume().unwrap();
        assert_eq!(t.run(100_000), VmStatus::Halted(vec![42]));
    }

    #[test]
    fn chaos_schedule_is_identical_over_the_decoded_engine() {
        fn drive(mut t: VmThread<'_>) -> Vec<cmm_chaos::InjectedFault> {
            t.set_chaos(FaultPlan::seeded(7));
            t.start("f", &[], 1);
            assert_eq!(t.run(100_000), VmStatus::Suspended);
            if let Some(mut a) = t.first_activation() {
                while t.next_activation(&mut a) {}
                let _ = t.set_activation(&a);
                let _ = t.set_unwind_cont(0);
                if let Some(p0) = t.find_cont_param(0) {
                    *p0 = 1;
                }
                let _ = t.resume();
            }
            t.chaos().unwrap().log().to_vec()
        }
        let vp = compile_src(NEST);
        let stepped = drive(VmThread::new(&vp));
        let decoded = drive(VmThread::new_decoded(&vp));
        let fused = drive(VmThread::new_fused(&vp));
        assert_eq!(stepped, decoded);
        assert_eq!(stepped, fused);
        assert!(!stepped.is_empty(), "seed 7 should fire at least once");
    }
}
