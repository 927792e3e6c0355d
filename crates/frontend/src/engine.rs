//! The one engine constructor: builds a thread of any [`EngineId`] over
//! compiled code and hands it to the caller as a [`Table1`] thread.
//!
//! Every layer that runs C-- code — the MiniM3 drivers here, the batch
//! runner, the execution service, the difftest oracles, the CLI — goes
//! through [`with_engine`], so adding an engine means one arm here, one
//! [`EngineId`] variant and one [`Table1`] impl.

use cmm_cfg::{DataImage, Program};
use cmm_ir::{Name, ProcNames};
use cmm_obs::TraceSink;
use cmm_rt::chaos::{EngineId, FaultPlan, ResourceGovernor, Table1};
use cmm_rt::Thread;
use cmm_sem::{Machine, ResolvedMachine, ResolvedProgram, SemArena, SemEngine};
use cmm_vm::{DecodedCode, VmArena, VmMachine, VmProgram, VmThread};
use std::sync::Arc;

/// The compiled code an engine runs: its family's program plus the
/// derived forms the caller already holds (a cache hit).
/// [`with_engine`] derives whatever else the engine needs.
#[derive(Clone, Default)]
pub struct Code<'a> {
    /// The CFG program the abstract machines run.
    pub program: Option<&'a Program>,
    /// Resolved tables for `sem-resolved`.
    pub resolved: Option<&'a ResolvedProgram>,
    /// The target program the VM tiers run.
    pub vm: Option<&'a VmProgram>,
    /// A shared instruction stream for the fast VM tiers: decoded for
    /// `vm-decoded`, fused for `vm-fused`.
    pub stream: Option<Arc<DecodedCode>>,
}

impl<'a> Code<'a> {
    /// The abstract machines' code.
    pub fn sem(program: &'a Program) -> Code<'a> {
        Code {
            program: Some(program),
            ..Code::default()
        }
    }

    /// The simulated target's code.
    pub fn vm(vm: &'a VmProgram) -> Code<'a> {
        Code {
            vm: Some(vm),
            ..Code::default()
        }
    }

    /// The program's data image (symbols included), from whichever
    /// program the code holds.
    pub fn image(&self) -> Option<&'a DataImage> {
        let program = self.program.or(self.resolved.map(|rp| rp.program()));
        program.map(|p| &p.image).or(self.vm.map(|vp| &vp.image))
    }

    /// The procedure-id table of whichever program the code holds, to
    /// name the procedures of a trace or post-mortem. Every program
    /// built from one source numbers its procedures alike.
    pub fn names(&self) -> &'a dyn ProcNames {
        let program = self.program.or(self.resolved.map(|rp| rp.program()));
        match (program, self.vm) {
            (Some(p), _) => p,
            (None, Some(vp)) => vp,
            (None, None) => {
                static NONE: Vec<Name> = Vec::new();
                &NONE
            }
        }
    }
}

/// Reusable machine allocations, one arena per family. A batch worker
/// threads one through consecutive jobs; arenas bank capacity only,
/// never observable state.
#[derive(Default)]
pub struct Arenas {
    /// The abstract machines' arena.
    pub sem: SemArena,
    /// The simulated target's arena.
    pub vm: VmArena,
}

/// How to set a thread up before it runs.
#[derive(Default)]
pub struct Setup<'a> {
    /// The fuel slice every `run` call on the machine is clipped to.
    pub governor: ResourceGovernor,
    /// A fault plan for the Table 1 ops.
    pub chaos: Option<FaultPlan>,
    /// Draw the machine from (and return it to) these arenas.
    pub arenas: Option<&'a mut Arenas>,
}

/// Builds a thread of `engine` over `code`, recording into `sink`, and
/// runs `f` on it. Pass `&mut sink` to keep the recording once the
/// thread is gone.
///
/// # Errors
///
/// Fails if `code` lacks the program `engine`'s family runs.
pub fn with_engine<'p, S: TraceSink, R>(
    engine: EngineId,
    code: &Code<'p>,
    sink: S,
    setup: Setup<'_>,
    f: impl FnOnce(&mut dyn Table1) -> R,
) -> Result<R, String> {
    let Setup {
        governor,
        chaos,
        arenas,
    } = setup;
    let missing = || format!("no compiled code for engine `{}`", engine.name());
    match engine {
        EngineId::Sem => {
            let program = code.program.ok_or_else(missing)?;
            let mut own = SemArena::new();
            let recycle = arenas.is_some();
            let arena = arenas.map_or(&mut own, |a| &mut a.sem);
            let mut m = Machine::with_sink_in(program, sink, arena);
            m.set_governor(governor);
            let (r, m) = run_sem(m, chaos, f);
            if recycle {
                m.recycle_into(arena);
            }
            Ok(r)
        }
        EngineId::SemResolved => {
            let built;
            let rp = match (code.resolved, code.program) {
                (Some(rp), _) => rp,
                (None, Some(program)) => {
                    built = ResolvedProgram::new(program);
                    &built
                }
                (None, None) => return Err(missing()),
            };
            let mut own = SemArena::new();
            let recycle = arenas.is_some();
            let arena = arenas.map_or(&mut own, |a| &mut a.sem);
            let mut m = ResolvedMachine::with_sink_in(rp, sink, arena);
            m.set_governor(governor);
            let (r, m) = run_sem(m, chaos, f);
            if recycle {
                m.recycle_into(arena);
            }
            Ok(r)
        }
        EngineId::Vm | EngineId::VmDecoded | EngineId::VmFused => {
            let mut own = VmArena::new();
            let recycle = arenas.is_some();
            let arena = arenas.map_or(&mut own, |a| &mut a.vm);
            let mut t = VmThread::over(vm_machine(engine, code, sink, arena)?);
            t.machine.set_governor(governor);
            if let Some(plan) = chaos {
                t.set_chaos(plan);
            }
            let r = f(&mut t);
            if recycle {
                t.into_machine().recycle_into(arena);
            }
            Ok(r)
        }
    }
}

/// The machine of one simulated-target tier over `code`, reusing its
/// shared lowerings when present: the VM half of [`with_engine`], for
/// callers that read the machine's full cost vector.
///
/// # Errors
///
/// Fails if `code` has no target program.
pub fn vm_machine<'p, S: TraceSink>(
    engine: EngineId,
    code: &Code<'p>,
    sink: S,
    arena: &mut VmArena,
) -> Result<VmMachine<'p, S>, String> {
    let vp = code
        .vm
        .ok_or_else(|| format!("no compiled code for engine `{}`", engine.name()))?;
    Ok(match engine {
        EngineId::VmDecoded | EngineId::VmFused => {
            let stream = code.stream.clone().unwrap_or_else(|| {
                let decoded = Arc::new(DecodedCode::decode(vp));
                match engine {
                    EngineId::VmFused => Arc::new(DecodedCode::fuse(vp, decoded)),
                    _ => decoded,
                }
            });
            debug_assert_eq!(stream.tier, engine, "a stream runs only its own tier");
            VmMachine::with_sink_shared_decoded_in(vp, stream, sink, arena)
        }
        EngineId::Vm => VmMachine::with_sink_in(vp, sink, arena),
        EngineId::Sem | EngineId::SemResolved => {
            return Err(format!(
                "engine `{}` is not a simulated-target tier",
                engine.name()
            ))
        }
    })
}

/// Wraps an abstract machine in a thread, runs `f`, and hands the
/// machine back for recycling.
fn run_sem<'p, M: SemEngine<'p>, R>(
    machine: M,
    chaos: Option<FaultPlan>,
    f: impl FnOnce(&mut dyn Table1) -> R,
) -> (R, M) {
    let mut t = Thread::over(machine);
    if let Some(plan) = chaos {
        t.set_chaos(plan);
    }
    let r = f(&mut t);
    (r, t.into_machine())
}
