//! The execution-engine interface shared by the reference abstract
//! machine ([`Machine`]) and the pre-resolved engine
//! ([`crate::resolved::ResolvedMachine`]).
//!
//! The front-end run-time system (Table 1, implemented in `cmm-rt`)
//! needs a small window on a thread: start/run it, inspect the
//! suspended activation stack, and apply resumptions. Everything in
//! that window is engine-independent — an activation is identified by
//! its `(procedure, call site)` pair and a continuation by a
//! [`NodeRef`] — so the run-time system is written once against this
//! trait and works unchanged over either step loop.

use crate::machine::{Machine, RtsTarget, Status};
use crate::snapshot::SemState;
use crate::state::NodeRef;
use crate::value::Value;
use crate::wrong::Wrong;
use cmm_cfg::{NodeId, Program};
use cmm_chaos::EngineId;
use cmm_ir::{ProcId, Ty};
use cmm_obs::{Event, TraceSink};

/// One thread of C-- execution, as seen by the front-end run-time
/// system. See the module documentation.
pub trait SemEngine<'p> {
    /// Which engine this is.
    const ENGINE: EngineId;

    /// The program being executed.
    fn program(&self) -> &'p Program;

    /// The current status.
    fn status(&self) -> &Status;

    /// Begins execution of the named procedure (memory and globals
    /// persist across starts).
    ///
    /// # Errors
    ///
    /// Fails if the procedure does not exist or the engine is suspended.
    fn start(&mut self, proc: &str, args: Vec<Value>) -> Result<(), Wrong>;

    /// Runs up to `fuel` transitions.
    fn run(&mut self, fuel: u64) -> Status;

    /// Transitions taken so far.
    fn steps(&self) -> u64;

    /// The values passed to `yield` (valid while suspended).
    fn yield_args(&self) -> &[Value];

    /// Number of live activations.
    fn depth(&self) -> usize;

    /// The call site of the activation `i` frames down from the top
    /// (0 = the activation that called into the run-time system).
    fn activation_site(&self, i: usize) -> Option<NodeRef>;

    /// Discards the topmost activation (requires `also aborts`).
    ///
    /// # Errors
    ///
    /// Fails if not suspended, the stack is empty, or the topmost call
    /// site lacks `also aborts`.
    fn rts_pop_frame(&mut self) -> Result<(), Wrong>;

    /// Resumes at a continuation of the topmost frame's bundle.
    ///
    /// # Errors
    ///
    /// Fails if not suspended, the target is absent from the bundle, or
    /// the argument count does not match the continuation's parameters.
    fn rts_resume(&mut self, target: RtsTarget, args: Vec<Value>) -> Result<(), Wrong>;

    /// Cuts the stack to a continuation value.
    ///
    /// # Errors
    ///
    /// Fails if not suspended, the continuation is dead, an intervening
    /// activation lacks `also aborts`, or the target call site lacks
    /// `also cuts to`.
    fn rts_cut_to(&mut self, cont: &Value, args: Vec<Value>) -> Result<(), Wrong>;

    /// Recovers a continuation from a value or its flattened encoding.
    fn decode_cont(&self, v: &Value) -> Option<(NodeRef, u64)>;

    /// Parameter count of the continuation at `node`, if it is a
    /// `CopyIn` node.
    fn cont_param_count(&self, proc: ProcId, node: NodeId) -> Option<usize>;

    /// Loads a typed value from memory.
    fn load(&self, ty: Ty, addr: u64) -> Value;

    /// The whole memory as sorted `(address, byte)` pairs, zero bytes
    /// elided — a canonical form for cross-engine equivalence checks.
    fn mem_snapshot(&self) -> Vec<(u64, u8)>;

    /// Captures the suspended state as a portable [`SemState`] (see
    /// [`crate::snapshot`]). Both engines capture equal states at
    /// matching execution points.
    ///
    /// # Errors
    ///
    /// Fails (with a description) unless the engine is suspended or out
    /// of fuel.
    fn capture(&self) -> Result<SemState, String>;

    /// Restores a captured state, which may come from either engine of
    /// the family. The engine is unchanged on error.
    ///
    /// # Errors
    ///
    /// Fails if the state does not validate against this engine's
    /// program.
    fn restore(&mut self, st: &SemState) -> Result<(), String>;

    /// Whether the engine's trace sink is live. Layers above the engine
    /// (the Table 1 run-time system) guard event construction with
    /// this, exactly as the engine guards with `S::ENABLED` — for the
    /// default `NopSink` instantiation it is a constant `false` and the
    /// emission code folds away.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Emits an event into the engine's sink at its current clock.
    /// No-op when tracing is off.
    fn trace(&mut self, _e: Event) {}
}

impl<'p, S: TraceSink> SemEngine<'p> for Machine<'p, S> {
    const ENGINE: EngineId = EngineId::Sem;

    fn program(&self) -> &'p Program {
        Machine::program(self)
    }

    fn status(&self) -> &Status {
        Machine::status(self)
    }

    fn start(&mut self, proc: &str, args: Vec<Value>) -> Result<(), Wrong> {
        Machine::start(self, proc, args)
    }

    fn run(&mut self, fuel: u64) -> Status {
        Machine::run(self, fuel)
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn yield_args(&self) -> &[Value] {
        Machine::yield_args(self)
    }

    fn depth(&self) -> usize {
        self.stack().len()
    }

    fn activation_site(&self, i: usize) -> Option<NodeRef> {
        self.activation(i).map(|f| f.site())
    }

    fn rts_pop_frame(&mut self) -> Result<(), Wrong> {
        Machine::rts_pop_frame(self)
    }

    fn rts_resume(&mut self, target: RtsTarget, args: Vec<Value>) -> Result<(), Wrong> {
        Machine::rts_resume(self, target, args)
    }

    fn rts_cut_to(&mut self, cont: &Value, args: Vec<Value>) -> Result<(), Wrong> {
        Machine::rts_cut_to(self, cont, args)
    }

    fn decode_cont(&self, v: &Value) -> Option<(NodeRef, u64)> {
        Machine::decode_cont(self, v)
    }

    fn cont_param_count(&self, proc: ProcId, node: NodeId) -> Option<usize> {
        Machine::cont_param_count(self, proc, node)
    }

    fn load(&self, ty: Ty, addr: u64) -> Value {
        Machine::load(self, ty, addr)
    }

    fn mem_snapshot(&self) -> Vec<(u64, u8)> {
        Machine::mem_snapshot(self)
    }

    fn capture(&self) -> Result<SemState, String> {
        Machine::capture(self)
    }

    fn restore(&mut self, st: &SemState) -> Result<(), String> {
        Machine::restore(self, st)
    }

    fn trace_enabled(&self) -> bool {
        S::ENABLED
    }

    fn trace(&mut self, e: Event) {
        self.emit(e);
    }
}
