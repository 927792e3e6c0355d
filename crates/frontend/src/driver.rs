//! Drivers: compile, link, and run MiniM3 programs on any engine, with
//! the front-end run-time system in the loop.
//!
//! The engines are observationally equal (enforced by the difftest
//! equivalence suite), so which one a driver picks is purely a speed
//! decision. Every driver builds its thread with [`with_engine`] (or
//! its VM half, when the caller wants the full cost vector) and runs it
//! with [`run_thread`].

use crate::dispatch::{dispatch, Dispatch};
use crate::engine::{vm_machine, with_engine, Code, Setup};
use crate::lower::{Strategy, ENTRY};
use crate::M3_EXCEPTION;
use cmm_cfg::{build_program, Program};
use cmm_ir::Module;
use cmm_obs::{NopSink, RecordingSink, TraceSink};
use cmm_opt::{optimize_program, OptOptions};
use cmm_rt::chaos::{EngineId, Stop, Table1};
use cmm_vm::{compile, Cost, VmArena, VmProgram, VmThread};
use std::fmt;

/// An error from compiling or running a MiniM3 program.
#[derive(Clone, PartialEq, Debug)]
pub enum M3Error {
    /// Front-end error (syntax or semantic).
    Lower(String),
    /// The generated C-- failed to translate (a front-end bug).
    Build(String),
    /// Code generation for the VM failed.
    Codegen(String),
    /// An exception propagated out of `main`.
    Uncaught {
        /// The exception's name, recovered from its tag block.
        exception: String,
    },
    /// The abstract machine went wrong or the VM faulted.
    Fault(String),
    /// The program ran too long.
    OutOfFuel,
}

impl fmt::Display for M3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            M3Error::Lower(m) => write!(f, "front-end error: {m}"),
            M3Error::Build(m) => write!(f, "C-- translation error: {m}"),
            M3Error::Codegen(m) => write!(f, "code generation error: {m}"),
            M3Error::Uncaught { exception } => write!(f, "uncaught exception {exception}"),
            M3Error::Fault(m) => write!(f, "run-time fault: {m}"),
            M3Error::OutOfFuel => write!(f, "program ran out of fuel"),
        }
    }
}

impl std::error::Error for M3Error {}

const FUEL: u64 = 500_000_000;

/// Recovers an exception's source name from its tag (the address of its
/// `exn$NAME` block).
fn exception_name(image: &cmm_cfg::DataImage, tag: u64) -> String {
    image
        .symbols
        .iter()
        .find(|(n, &a)| a == tag && n.as_str().starts_with("exn$"))
        .map(|(n, _)| n.as_str()["exn$".len()..].to_string())
        .unwrap_or_else(|| format!("<tag {tag:#x}>"))
}

/// Runs a compiled MiniM3 module on the abstract machine (`cmm-sem`),
/// with the Figure 9 dispatcher as the front-end run-time system.
/// Returns `main`'s value.
///
/// # Errors
///
/// Returns [`M3Error::Uncaught`] if an exception escapes `main`, and
/// [`M3Error::Fault`] if the program goes wrong.
pub fn run_sem(module: &Module, strategy: Strategy, args: &[u32]) -> Result<u32, M3Error> {
    run_sem_program(&sem_program(module)?, strategy, args, NopSink)
}

/// A traced driver run: compilation errors in the outer `Result`, the
/// run's outcome paired with its recording in the inner.
pub type Traced<T> = Result<(Result<T, M3Error>, RecordingSink), M3Error>;

/// [`run_sem`] with a recording sink in the loop: alongside the run's
/// outcome it returns the exception-flow event stream, including the
/// Table 1 operations the Figure 9 dispatcher issued. The recording
/// keeps events up to its default cap and counts the rest in `dropped`,
/// so the stream is complete only when `dropped` is zero. It is
/// returned even when the run fails — a failing run's trace is usually
/// the interesting one.
///
/// # Errors
///
/// Only compilation failures abort the trace; run-time failures are in
/// the inner `Result`.
pub fn run_sem_traced(module: &Module, strategy: Strategy, args: &[u32]) -> Traced<u32> {
    let prog = sem_program(module)?;
    let mut rec = RecordingSink::default();
    let r = run_sem_program(&prog, strategy, args, &mut rec);
    Ok((r, rec))
}

fn sem_program(module: &Module) -> Result<Program, M3Error> {
    build_program(module).map_err(|e| M3Error::Build(e.to_string()))
}

fn run_sem_program<S: TraceSink>(
    prog: &Program,
    strategy: Strategy,
    args: &[u32],
    sink: S,
) -> Result<u32, M3Error> {
    with_engine(
        EngineId::Sem,
        &Code::sem(prog),
        sink,
        Setup::default(),
        |t| run_thread(t, &prog.image, strategy, args),
    )
    .map_err(M3Error::Fault)?
}

/// Runs a compiled MiniM3 module on the simulated target (`cmm-vm`)
/// after optimization, returning `main`'s value and the exact cost.
///
/// # Errors
///
/// As [`run_sem`], plus code-generation errors.
pub fn run_vm(module: &Module, strategy: Strategy, args: &[u32]) -> Result<(u32, Cost), M3Error> {
    run_vm_on(module, strategy, args, &OptOptions::default(), EngineId::Vm)
}

/// [`run_vm`] with explicit optimization options (used by the benches to
/// compare optimization levels).
///
/// # Errors
///
/// As [`run_vm`].
pub fn run_vm_with(
    module: &Module,
    strategy: Strategy,
    args: &[u32],
    opts: &OptOptions,
) -> Result<(u32, Cost), M3Error> {
    run_vm_on(module, strategy, args, opts, EngineId::Vm)
}

/// [`run_vm_with`] on any simulated-target tier (`vm`, `vm-decoded`,
/// `vm-fused`).
///
/// # Errors
///
/// As [`run_vm`]; a sem-family `engine` is a fault.
pub fn run_vm_on(
    module: &Module,
    strategy: Strategy,
    args: &[u32],
    opts: &OptOptions,
    engine: EngineId,
) -> Result<(u32, Cost), M3Error> {
    run_vm_program(&vm_program(module, opts)?, strategy, args, engine, NopSink)
}

/// [`run_vm_on`] with a recording sink in the loop; the counterpart of
/// [`run_sem_traced`] on the simulated target. Timestamps are cost-model
/// totals rather than transition counts.
///
/// # Errors
///
/// As [`run_sem_traced`].
pub fn run_vm_traced(
    module: &Module,
    strategy: Strategy,
    args: &[u32],
    opts: &OptOptions,
    engine: EngineId,
) -> Traced<(u32, Cost)> {
    let vp = vm_program(module, opts)?;
    let mut rec = RecordingSink::default();
    let r = run_vm_program(&vp, strategy, args, engine, &mut rec);
    Ok((r, rec))
}

fn vm_program(module: &Module, opts: &OptOptions) -> Result<VmProgram, M3Error> {
    let mut prog = sem_program(module)?;
    optimize_program(&mut prog, opts);
    compile(&prog).map_err(|e| M3Error::Codegen(e.to_string()))
}

fn run_vm_program<S: TraceSink>(
    vp: &VmProgram,
    strategy: Strategy,
    args: &[u32],
    engine: EngineId,
    sink: S,
) -> Result<(u32, Cost), M3Error> {
    let m = vm_machine(engine, &Code::vm(vp), sink, &mut VmArena::new());
    let mut t = VmThread::over(m.map_err(M3Error::Fault)?);
    let v = run_thread(&mut t, &vp.image, strategy, args)?;
    Ok((v, t.machine.cost))
}

/// The run/dispatch loop, engine-independent: drives an already
/// constructed thread (any engine, any sink) with the Figure 9
/// dispatcher in the loop. Public so callers holding cached artifacts —
/// e.g. `cmm-pool`'s batch executor — can run them without recompiling.
///
/// # Errors
///
/// As [`run_sem`].
pub fn run_thread<T: Table1 + ?Sized>(
    t: &mut T,
    image: &cmm_cfg::DataImage,
    strategy: Strategy,
    args: &[u32],
) -> Result<u32, M3Error> {
    let args: Vec<u64> = args.iter().map(|&a| u64::from(a)).collect();
    t.start(ENTRY, &args, 2).map_err(M3Error::Fault)?;
    loop {
        match t.run(FUEL) {
            Stop::Halted(vals) => {
                let status = vals.first().copied().unwrap_or(0);
                let value = vals.get(1).copied().unwrap_or(0) as u32;
                if status == 0 {
                    return Ok(value);
                }
                return Err(M3Error::Uncaught {
                    exception: exception_name(image, u64::from(value)),
                });
            }
            Stop::Suspended => {
                let code = t.yield_arg(0);
                if code == M3_EXCEPTION && matches!(strategy, Strategy::RuntimeUnwind) {
                    match dispatch(t).map_err(M3Error::Fault)? {
                        Dispatch::Handled => continue,
                        Dispatch::Unhandled { tag } => {
                            return Err(M3Error::Uncaught {
                                exception: exception_name(image, tag),
                            });
                        }
                    }
                }
                return Err(M3Error::Fault(format!("unexpected yield (code {code})")));
            }
            Stop::Wrong(e) => return Err(M3Error::Fault(e)),
            Stop::OutOfFuel => return Err(M3Error::OutOfFuel),
            Stop::Other(s) => return Err(M3Error::Fault(format!("unexpected status {s}"))),
        }
    }
}
