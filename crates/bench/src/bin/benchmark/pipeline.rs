//! One `cmm run` / `cmm m3` invocation: compile from source, run once
//! on one engine, check the result. Every call into a layer is wrapped
//! in a span named after it.

use crate::programs::{Expect, Input, Source};
use crate::trace::{count, span};
use cmm_cfg::{build_program, Program};
use cmm_difftest::oracle::{Limits, Obs, Outcome};
use cmm_frontend::dispatch::{dispatch_sem, dispatch_vm, Dispatch};
use cmm_frontend::lower::ENTRY;
use cmm_frontend::{compile_program, parse_minim3, Strategy, M3_EXCEPTION};
use cmm_obs::NopSink;
use cmm_opt::{optimize_program, OptOptions};
use cmm_parse::parse_module;
use cmm_pool::EngineKind;
use cmm_rt::Thread;
use cmm_sem::{ResolvedProgram, SemEngine, Status, Value};
use cmm_serve::service::dispatcher_fill;
use cmm_vm::{compile, DecodedCode, FusedCode, VmProgram, VmStatus, VmThread};
use std::sync::Arc;

/// The five engines, in tier order.
pub const ENGINES: [EngineKind; 5] = [
    EngineKind::Sem,
    EngineKind::SemResolved,
    EngineKind::Vm,
    EngineKind::VmDecoded,
    EngineKind::VmFused,
];

/// Fuel per `run` of a MiniM3 program, as `cmm m3` grants it.
const M3_FUEL: u64 = 500_000_000;

/// The span and count names of an engine's execution layer.
pub fn exec_layer(e: EngineKind) -> (&'static str, &'static str) {
    match e {
        EngineKind::Sem => ("exec.sem", "exec.sem.sim_insts"),
        EngineKind::SemResolved => ("exec.sem-resolved", "exec.sem-resolved.sim_insts"),
        EngineKind::Vm => ("exec.vm", "exec.vm.sim_insts"),
        EngineKind::VmDecoded => ("exec.vm-decoded", "exec.vm-decoded.sim_insts"),
        EngineKind::VmFused => ("exec.vm-fused", "exec.vm-fused.sim_insts"),
    }
}

/// What a run produced, in the reference's terms.
type Got = Result<Expect, String>;

/// Compiles `input` from source, runs it once on `engine` and checks
/// the result against the reference.
pub fn run_input(input: &Input, engine: EngineKind) -> Result<(), String> {
    let got = compile_and_run(input, engine)?;
    if got == input.expect {
        Ok(())
    } else {
        Err(format!(
            "{} on {}: got {got:?}, want {:?}",
            input.name,
            engine.label(),
            input.expect
        ))
    }
}

fn compile_and_run(input: &Input, engine: EngineKind) -> Got {
    let module = match &*input.source {
        Source::Cmm(src) => {
            count("parse.bytes", src.len() as u64);
            span("parse", || parse_module(src)).map_err(|e| e.to_string())?
        }
        Source::M3 { src, strategy } => {
            let ast = span("frontend", || parse_minim3(src)).map_err(|e| e.to_string())?;
            span("frontend", || compile_program(&ast, *strategy)).map_err(|e| e.to_string())?
        }
    };
    let mut prog = span("cfg", || build_program(&module)).map_err(|e| e.to_string())?;
    count("cfg.nodes", nodes(&prog));
    span("opt", || {
        optimize_program(&mut prog, &OptOptions::default())
    });
    count("opt.nodes_out", nodes(&prog));
    let strategy = match &*input.source {
        Source::Cmm(_) => None,
        Source::M3 { strategy, .. } => Some(*strategy),
    };
    let (exec, sim) = exec_layer(engine);
    match engine {
        EngineKind::Sem => {
            let mut t = span(exec, || Thread::new(&prog));
            let got = drive_sem(&mut t, exec, strategy, input);
            count(sim, t.machine().steps());
            got
        }
        EngineKind::SemResolved => {
            let rp = span("sem.resolve", || ResolvedProgram::new(&prog));
            let mut t = span(exec, || Thread::new_resolved(&rp));
            let got = drive_sem(&mut t, exec, strategy, input);
            count(sim, t.machine().steps());
            got
        }
        EngineKind::Vm | EngineKind::VmDecoded | EngineKind::VmFused => {
            let vp = span("vm.codegen", || compile(&prog)).map_err(|e| e.to_string())?;
            count("vm.codegen.insts", vp.code.len() as u64);
            let mut t = vm_thread(&vp, engine);
            let got = drive_vm(&mut t, exec, strategy, input);
            count(sim, t.machine.cost.total());
            got
        }
    }
}

fn nodes(prog: &Program) -> u64 {
    prog.procs.values().map(|g| g.nodes.len() as u64).sum()
}

/// Builds the VM thread for one tier, timing the decode and fuse
/// lowerings as their own layers.
fn vm_thread(vp: &VmProgram, engine: EngineKind) -> VmThread<'_> {
    let (exec, _) = exec_layer(engine);
    if engine == EngineKind::Vm {
        return span(exec, || VmThread::new(vp));
    }
    let decoded = Arc::new(span("vm.decode", || DecodedCode::decode(vp)));
    if engine == EngineKind::VmDecoded {
        return span(exec, || {
            VmThread::with_sink_shared_decoded(vp, decoded, NopSink)
        });
    }
    let fused = span("vm.fuse", || FusedCode::fuse(vp, decoded));
    count("vm.fuse.heads", fused.fused_heads() as u64);
    let fused = Arc::new(fused);
    span(exec, || {
        VmThread::with_sink_shared_fused(vp, fused, NopSink)
    })
}

/// Runs an abstract-machine thread to completion. C-- yields are
/// serviced with the fixed Table 1 policy the references use; MiniM3
/// exception yields with the Figure 9 dispatcher.
fn drive_sem<'p, M: SemEngine<'p>>(
    t: &mut Thread<'p, M>,
    exec: &'static str,
    strategy: Option<Strategy>,
    input: &Input,
) -> Got {
    let args: Vec<Value> = input.args.iter().map(|&a| Value::b32(a)).collect();
    let Some(strategy) = strategy else {
        return Ok(Expect::Obs(cmm_sem_obs(t, exec, args, &input.limits)));
    };
    t.start(ENTRY, args).map_err(|e| e.to_string())?;
    loop {
        match span(exec, || t.run(M3_FUEL)) {
            Status::Terminated(vals) => {
                let status = vals.first().and_then(Value::bits).unwrap_or(0);
                let value = vals.get(1).and_then(Value::bits).unwrap_or(0) as u32;
                return m3_result(status, value);
            }
            Status::Suspended => {
                let code = t.yield_code().unwrap_or(0);
                if code != M3_EXCEPTION || strategy != Strategy::RuntimeUnwind {
                    return Err(format!("unexpected yield (code {code})"));
                }
                count("rt.dispatch.calls", 1);
                match span("rt.dispatch", || dispatch_sem(t))? {
                    Dispatch::Handled => {}
                    Dispatch::Unhandled { tag } => return Err(format!("uncaught tag {tag:#x}")),
                }
            }
            other => return Err(format!("run ended {other:?}")),
        }
    }
}

fn m3_result(status: u64, value: u32) -> Got {
    if status == 0 {
        Ok(Expect::Value(value))
    } else {
        Err(format!("uncaught exception, tag {value:#x}"))
    }
}

/// The C-- drive loop on the abstract machine: `observe_sem`'s policy
/// (hop once toward the caller, unwind on odd codes, fill every
/// continuation parameter), with each step in its own span.
fn cmm_sem_obs<'p, M: SemEngine<'p>>(
    t: &mut Thread<'p, M>,
    exec: &'static str,
    args: Vec<Value>,
    limits: &Limits,
) -> Obs {
    let mut yields = Vec::new();
    let end = |outcome, yields: Vec<u64>| Obs { outcome, yields };
    if t.start("f", args).is_err() {
        return end(Outcome::Wrong, yields);
    }
    loop {
        match span(exec, || t.run(limits.sem_fuel)) {
            Status::Terminated(vals) => {
                let bits = vals.iter().map(|v| v.bits().unwrap_or(u64::MAX)).collect();
                return end(Outcome::Halt(bits), yields);
            }
            Status::Wrong(_) => return end(Outcome::Wrong, yields),
            Status::OutOfFuel => return end(Outcome::Fuel, yields),
            Status::Suspended => {
                if yields.len() >= limits.max_yields {
                    return end(Outcome::Fuel, yields);
                }
                let code = t.yield_code().unwrap_or(0);
                yields.push(code);
                count("rt.dispatch.calls", 1);
                let ok = span("rt.dispatch", || {
                    let Some(mut a) = t.first_activation() else {
                        return false;
                    };
                    let _ = t.next_activation(&mut a);
                    if t.set_activation(&a).is_err() {
                        return false;
                    }
                    if code % 2 == 1 {
                        let _ = t.set_unwind_cont(0);
                    }
                    let v = Value::b32(dispatcher_fill(code));
                    let mut n = 0;
                    while let Some(p) = t.find_cont_param(n) {
                        *p = v.clone();
                        n += 1;
                    }
                    t.resume().is_ok()
                });
                if !ok {
                    return end(Outcome::RtsError, yields);
                }
            }
            _ => return end(Outcome::RtsError, yields),
        }
    }
}

/// [`drive_sem`] on the simulated target.
fn drive_vm(
    t: &mut VmThread<'_>,
    exec: &'static str,
    strategy: Option<Strategy>,
    input: &Input,
) -> Got {
    let args: Vec<u64> = input.args.iter().map(|&a| u64::from(a)).collect();
    let Some(strategy) = strategy else {
        return Ok(Expect::Obs(cmm_vm_obs(t, exec, &args, &input.limits)));
    };
    t.start(ENTRY, &args, 2);
    loop {
        match span(exec, || t.run(M3_FUEL)) {
            VmStatus::Halted(vals) => {
                let status = vals.first().copied().unwrap_or(0);
                let value = vals.get(1).copied().unwrap_or(0) as u32;
                return m3_result(status, value);
            }
            VmStatus::Suspended => {
                let code = t.machine.yield_args(1)[0];
                if code != M3_EXCEPTION || strategy != Strategy::RuntimeUnwind {
                    return Err(format!("unexpected yield (code {code})"));
                }
                count("rt.dispatch.calls", 1);
                match span("rt.dispatch", || dispatch_vm(t))? {
                    Dispatch::Handled => {}
                    Dispatch::Unhandled { tag } => return Err(format!("uncaught tag {tag:#x}")),
                }
            }
            other => return Err(format!("run ended {other:?}")),
        }
    }
}

/// [`cmm_sem_obs`] on the simulated target (`observe_vm`'s policy).
fn cmm_vm_obs(t: &mut VmThread<'_>, exec: &'static str, args: &[u64], limits: &Limits) -> Obs {
    let mut yields = Vec::new();
    let end = |outcome, yields: Vec<u64>| Obs { outcome, yields };
    t.start("f", args, 1);
    loop {
        match span(exec, || t.run(limits.vm_fuel)) {
            VmStatus::Halted(vals) => return end(Outcome::Halt(vals), yields),
            VmStatus::Error(_) => return end(Outcome::Wrong, yields),
            VmStatus::OutOfFuel => return end(Outcome::Fuel, yields),
            VmStatus::Suspended => {
                if yields.len() >= limits.max_yields {
                    return end(Outcome::Fuel, yields);
                }
                let code = t.machine.yield_args(1)[0];
                yields.push(code);
                count("rt.dispatch.calls", 1);
                let ok = span("rt.dispatch", || {
                    let Some(mut a) = t.first_activation() else {
                        return false;
                    };
                    let _ = t.next_activation(&mut a);
                    if t.set_activation(&a).is_err() {
                        return false;
                    }
                    if code % 2 == 1 {
                        let _ = t.set_unwind_cont(0);
                    }
                    let v = u64::from(dispatcher_fill(code));
                    let mut n = 0;
                    while let Some(p) = t.find_cont_param(n) {
                        *p = v;
                        n += 1;
                    }
                    t.resume().is_ok()
                });
                if !ok {
                    return end(Outcome::RtsError, yields);
                }
            }
            _ => return end(Outcome::RtsError, yields),
        }
    }
}
