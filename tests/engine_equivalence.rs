//! Engine-equivalence suite: the pre-resolved `cmm-sem` engine and the
//! pre-decoded and fused `cmm-vm` engines are run in **lockstep** with
//! their reference step loops over programs from the `cmm-difftest`
//! generator,
//! comparing not just final results but every intermediate Table 1
//! observation:
//!
//! * the yield code and full argument vector at each suspension;
//! * the `NextActivation` walk order (the procedure of every activation
//!   from `FirstActivation` to the stack bottom);
//! * the values `FindContParam` exposes before the dispatcher fills
//!   them;
//! * the final status and a canonical snapshot of final memory.
//!
//! This is a property sweep in the proptest style — deterministic
//! cases drawn from the generator's `(seed, index)` space, so any
//! failure names the exact case to replay — without an external
//! property-testing dependency.

use cmm_cfg::Program;
use cmm_difftest::case_for;
use cmm_rt::Thread;
use cmm_sem::{ResolvedProgram, SemEngine, Status, Value};
use cmm_vm::{VmProgram, VmStatus, VmThread};

const SWEEP: u64 = 120;
const SEM_FUEL: u64 = 2_000_000;
const VM_FUEL: u64 = 20_000_000;
const MAX_YIELDS: usize = 64;

fn build(src: &str) -> Program {
    let module = cmm_parse::parse_module(src).expect("program parses");
    cmm_cfg::build_program(&module).expect("program builds")
}

/// The deterministic parameter value for yield code `code` (the same
/// policy as `cmm-difftest`'s dispatcher).
fn fill(code: u64) -> u32 {
    (code.wrapping_mul(13).wrapping_add(7) & 0xfff) as u32
}

/// What one suspension of the abstract machine looks like through the
/// Table 1 interface.
#[derive(PartialEq, Debug)]
struct SemSuspension {
    yield_args: Vec<Value>,
    depth: usize,
    /// Procedure names along the `FirstActivation`/`NextActivation`
    /// walk, innermost first.
    walk: Vec<String>,
    /// `FindContParam` values of the resumed continuation, before the
    /// dispatcher overwrites them.
    cont_params: Vec<Value>,
}

/// How a lockstep sem run ended.
#[derive(PartialEq, Debug)]
enum SemEnd {
    Status(Status),
    RtsError(String),
    YieldBound,
}

/// Runs one engine under the dispatcher policy, recording every
/// suspension and the final state.
fn drive_sem<'p, M: SemEngine<'p>>(
    t: &mut Thread<'p, M>,
    args: (u32, u32),
) -> (Vec<SemSuspension>, SemEnd, Vec<(u64, u8)>) {
    let mut suspensions = Vec::new();
    let end = 'run: {
        if let Err(w) = t.start("f", vec![Value::b32(args.0), Value::b32(args.1)]) {
            break 'run SemEnd::Status(Status::Wrong(w));
        }
        loop {
            match t.run(SEM_FUEL) {
                Status::Suspended => {
                    if suspensions.len() >= MAX_YIELDS {
                        break 'run SemEnd::YieldBound;
                    }
                    let code = t.yield_code().unwrap_or(0);
                    let yield_args = t.yield_args().to_vec();
                    let depth = t.machine().depth();
                    let mut walk = Vec::new();
                    if let Some(mut a) = t.first_activation() {
                        loop {
                            walk.push(
                                t.activation_proc(&a)
                                    .map(|n| n.to_string())
                                    .unwrap_or_default(),
                            );
                            if !t.next_activation(&mut a) {
                                break;
                            }
                        }
                    }
                    let Some(mut a) = t.first_activation() else {
                        break 'run SemEnd::RtsError("no first activation".into());
                    };
                    let _ = t.next_activation(&mut a);
                    if let Err(w) = t.set_activation(&a) {
                        break 'run SemEnd::RtsError(w.to_string());
                    }
                    if code % 2 == 1 {
                        let _ = t.set_unwind_cont(0);
                    }
                    let mut cont_params = Vec::new();
                    let mut n = 0;
                    while let Some(p) = t.find_cont_param(n) {
                        cont_params.push(p.clone());
                        *p = Value::b32(fill(code));
                        n += 1;
                    }
                    suspensions.push(SemSuspension {
                        yield_args,
                        depth,
                        walk,
                        cont_params,
                    });
                    if let Err(w) = t.resume() {
                        break 'run SemEnd::RtsError(w.to_string());
                    }
                }
                done => break 'run SemEnd::Status(done),
            }
        }
    };
    (suspensions, end, t.machine().mem_snapshot())
}

/// One suspension of the simulated machine through its run-time
/// interface.
#[derive(PartialEq, Debug)]
struct VmSuspension {
    yield_args: Vec<u64>,
    /// Length of the activation walk and each activation's first
    /// descriptor (or `None`).
    walk: Vec<Option<u32>>,
    cont_params: Vec<u64>,
}

#[derive(PartialEq, Debug)]
enum VmEnd {
    Status(VmStatus),
    RtsError(String),
    YieldBound,
}

fn drive_vm<S: cmm_obs::TraceSink>(
    t: &mut VmThread<'_, S>,
    args: (u32, u32),
) -> (Vec<VmSuspension>, VmEnd, Vec<(u32, u8)>) {
    let mut suspensions = Vec::new();
    let end = 'run: {
        t.start("f", &[u64::from(args.0), u64::from(args.1)], 1);
        loop {
            match t.run(VM_FUEL) {
                VmStatus::Suspended => {
                    if suspensions.len() >= MAX_YIELDS {
                        break 'run VmEnd::YieldBound;
                    }
                    let yield_args = t.machine.yield_args(4);
                    let code = yield_args[0];
                    let mut walk = Vec::new();
                    if let Some(mut a) = t.first_activation() {
                        loop {
                            walk.push(t.get_descriptor(&a, 0));
                            if !t.next_activation(&mut a) {
                                break;
                            }
                        }
                    }
                    let Some(mut a) = t.first_activation() else {
                        break 'run VmEnd::RtsError("no first activation".into());
                    };
                    let _ = t.next_activation(&mut a);
                    if let Err(e) = t.set_activation(&a) {
                        break 'run VmEnd::RtsError(e);
                    }
                    if code % 2 == 1 {
                        let _ = t.set_unwind_cont(0);
                    }
                    let mut cont_params = Vec::new();
                    let mut n = 0;
                    while let Some(p) = t.find_cont_param(n) {
                        cont_params.push(*p);
                        *p = u64::from(fill(code));
                        n += 1;
                    }
                    suspensions.push(VmSuspension {
                        yield_args,
                        walk,
                        cont_params,
                    });
                    if let Err(e) = t.resume() {
                        break 'run VmEnd::RtsError(e);
                    }
                }
                done => break 'run VmEnd::Status(done),
            }
        }
    };
    (suspensions, end, t.machine.mem.snapshot())
}

/// The reference and pre-resolved abstract machines make identical
/// Table 1 observations — yield arguments, activation walks, cont
/// parameter values — and end with identical status and memory, across
/// the generator sweep.
#[test]
fn sem_engines_make_identical_observations() {
    for index in 0..SWEEP {
        let case = case_for(0, index);
        let prog = build(&case.render());
        let rp = ResolvedProgram::new(&prog);
        let reference = drive_sem(&mut Thread::new(&prog), case.args);
        let resolved = drive_sem(&mut Thread::new_resolved(&rp), case.args);
        assert_eq!(
            resolved,
            reference,
            "case {index} diverged:\n{}",
            case.render()
        );
    }
}

/// The reference, pre-decoded, and fused simulated machines agree on
/// `VmStatus`, yield sequences, activation walks, cont parameters, and
/// final memory across the generator sweep.
#[test]
fn vm_engines_make_identical_observations() {
    for index in 0..SWEEP {
        let case = case_for(0, index);
        let prog = build(&case.render());
        let vp: VmProgram = match cmm_vm::compile(&prog) {
            Ok(vp) => vp,
            Err(e) => panic!("case {index} failed to compile: {e}"),
        };
        let reference = drive_vm(&mut VmThread::new(&vp), case.args);
        let decoded = drive_vm(&mut VmThread::new_decoded(&vp), case.args);
        assert_eq!(
            decoded,
            reference,
            "case {index} diverged (decoded):\n{}",
            case.render()
        );
        let fused = drive_vm(&mut VmThread::new_fused(&vp), case.args);
        assert_eq!(
            fused,
            reference,
            "case {index} diverged (fused):\n{}",
            case.render()
        );
    }
}

/// Fusion is observationally invisible: across a multi-seed generator
/// sweep, the fused engine makes the decoded engine's exact Table 1
/// observations, charges the decoded engine's exact cost-model totals,
/// and emits the decoded engine's exact trace-event stream — timestamps
/// included, since fused superinstructions charge their decoded
/// constituents' costs before any observable transition. A seeded
/// `(seed, index)` sweep in the proptest style, with no external
/// property-testing dependency; shrunk counterexamples from this
/// family's history are replayed below and recorded in
/// `engine_equivalence.proptest-regressions`.
#[test]
fn fusion_is_observationally_invisible() {
    use cmm_obs::RecordingSink;
    for seed in [1u64, 2, 3] {
        for index in 0..40 {
            let case = case_for(seed, index);
            let prog = build(&case.render());
            let vp: VmProgram = match cmm_vm::compile(&prog) {
                Ok(vp) => vp,
                Err(e) => panic!("seed {seed} case {index} failed to compile: {e}"),
            };
            let mut dec = VmThread::with_sink_decoded(&vp, RecordingSink::default());
            let mut fus = VmThread::with_sink_fused(&vp, RecordingSink::default());
            let reference = drive_vm(&mut dec, case.args);
            let fused = drive_vm(&mut fus, case.args);
            assert_eq!(
                fused,
                reference,
                "seed {seed} case {index} diverged:\n{}",
                case.render()
            );
            assert_eq!(
                fus.machine.cost,
                dec.machine.cost,
                "seed {seed} case {index}: fused cost diverged:\n{}",
                case.render()
            );
            let want = dec.into_machine().into_sink().events;
            let got = fus.into_machine().into_sink().events;
            if got != want {
                let i = want
                    .iter()
                    .zip(&got)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| want.len().min(got.len()));
                panic!(
                    "seed {seed} case {index}: trace diverged at event {i}: {:?} vs {:?}\n{}",
                    want.get(i),
                    got.get(i),
                    case.render()
                );
            }
        }
    }
}

/// Replays the shrunk counterexample recorded in
/// `engine_equivalence.proptest-regressions`: a straight-line chain
/// long enough to fuse into wide windows, run at **every** fuel budget
/// from 1 to completion. Fuel exhaustion inside a window must delegate
/// the partial window to the decoded loop, so status, cost, and pc
/// agree with the decoded engine at every boundary — the fused tier's
/// one observable temptation to run ahead of its budget.
#[test]
fn regression_fuel_exhaustion_mid_window() {
    let src = r#"
        f(bits32 a, bits32 b) {
            bits32 c, d;
            c = (a + 1) & 65535;
            d = (c * 3) + b;
            c = (d + c) & 65535;
            d = (c * 5) + a;
            c = (d + c) & 65535;
            return (c + d);
        }
    "#;
    let prog = build(src);
    let vp: VmProgram = cmm_vm::compile(&prog).expect("compiles");
    // The shape must actually fuse, or the regression tests nothing.
    let plain = std::sync::Arc::new(cmm_vm::DecodedCode::decode(&vp));
    let fused_code = cmm_vm::FusedCode::fuse(&vp, plain);
    assert!(
        fused_code.insts.iter().any(|i| i.n > 1),
        "expected at least one fused window"
    );
    let total = {
        let mut m = cmm_vm::VmMachine::new_decoded(&vp);
        m.start("f", &[9, 4], 1);
        assert!(matches!(m.run(1_000_000), VmStatus::Halted(_)));
        m.cost.instructions
    };
    for fuel in 1..=total {
        let mut dec = cmm_vm::VmMachine::new_decoded(&vp);
        dec.start("f", &[9, 4], 1);
        let ds = dec.run(fuel);
        let mut fus = cmm_vm::VmMachine::new_fused(&vp);
        fus.start("f", &[9, 4], 1);
        let fs = fus.run(fuel);
        assert_eq!(fs, ds, "fuel {fuel}: status diverged");
        assert_eq!(fus.cost, dec.cost, "fuel {fuel}: cost diverged");
        assert_eq!(fus.pc, dec.pc, "fuel {fuel}: pc diverged");
    }
}

/// Replays the shrunk counterexample recorded in
/// `engine_equivalence.proptest-regressions`: a `cut to` lands on a
/// continuation whose body sits mid-stream between two otherwise
/// fusable instruction runs. The continuation entry must stay a window
/// boundary — a window absorbing it would teleport the cut into the
/// middle of a superinstruction.
#[test]
fn regression_cut_into_fusable_tail() {
    let src = r#"
        g0(bits32 x, bits32 kk) {
            if x > 9 { cut to kk(x - 1); } else { return (x + 1); }
        }
        f(bits32 a, bits32 b) {
            bits32 c, d, t;
            c = (a + 3) & 65535;
            d = (c * 7) + b;
            t = g0(15, kc) also cuts to kc also aborts;
            c = (c + t) & 65535;
            d = (d + c) * 3;
            return (c + d);
            continuation kc(t):
            c = (c + 100) & 65535;
            d = (d + c) * 5;
            return (c + (d + t));
        }
    "#;
    let prog = build(src);
    let vp: VmProgram = cmm_vm::compile(&prog).expect("compiles");
    let reference = drive_vm(&mut VmThread::new_decoded(&vp), (15, 4));
    let fused = drive_vm(&mut VmThread::new_fused(&vp), (15, 4));
    assert_eq!(fused, reference);
    let stepped = drive_vm(&mut VmThread::new(&vp), (15, 4));
    assert_eq!(fused, stepped);
}

/// A handcrafted nest makes the walk-order observation legible: a yield
/// three frames deep walks `h`, `g`, `f` on both engines, and the
/// dispatcher policy (discard the yielder, resume in `g`) produces the
/// same result.
#[test]
fn nested_walk_order_is_identical_and_correct() {
    let src = r#"
        h(bits32 x) {
            yield(3) also aborts;
            return (x + 1);
        }
        g(bits32 x) {
            bits32 r;
            r = h(x) also aborts;
            return (r + 1);
        }
        f(bits32 a, bits32 b) {
            bits32 r;
            r = g(a) also aborts;
            return (r + b);
        }
    "#;
    let prog = build(src);
    let rp = ResolvedProgram::new(&prog);
    let reference = drive_sem(&mut Thread::new(&prog), (100, 7));
    let resolved = drive_sem(&mut Thread::new_resolved(&rp), (100, 7));
    assert_eq!(resolved, reference);
    let (suspensions, end, _) = reference;
    assert_eq!(suspensions.len(), 1);
    assert_eq!(suspensions[0].walk, vec!["h", "g", "f"]);
    // fill(3) = 46: g returns 47, f returns 47 + 7.
    assert_eq!(
        end,
        SemEnd::Status(Status::Terminated(vec![Value::b32(54)]))
    );
}

/// Machines built from **recycled execution arenas** are observationally
/// fresh: the whole generator sweep runs every engine twice — once on a
/// fresh machine, once drawing its heap containers from a single arena
/// that every prior case in the sweep already ran through — and the two
/// runs must make deeply equal Table 1 observations (suspensions, final
/// status, final memory). One sem arena is deliberately shared between
/// the reference and pre-resolved machines, and one vm arena across all
/// vm cases, so any state leaking through `recycle_into` would cross
/// both case and engine boundaries and diverge loudly.
#[test]
fn recycled_arenas_make_identical_observations() {
    use cmm_obs::NopSink;
    use cmm_sem::{Machine, ResolvedMachine, SemArena};
    use cmm_vm::VmArena;
    use std::sync::Arc;

    let mut sem_arena = SemArena::new();
    let mut vm_arena = VmArena::new();
    for index in 0..SWEEP {
        let case = case_for(0, index);
        let prog = build(&case.render());
        let rp = ResolvedProgram::new(&prog);

        let fresh = drive_sem(&mut Thread::new(&prog), case.args);
        let mut t = Thread::over(Machine::with_sink_in(&prog, NopSink, &mut sem_arena));
        let recycled = drive_sem(&mut t, case.args);
        t.into_machine().recycle_into(&mut sem_arena);
        assert_eq!(
            recycled,
            fresh,
            "case {index}: recycled reference-sem arena diverged:\n{}",
            case.render()
        );

        let fresh = drive_sem(&mut Thread::new_resolved(&rp), case.args);
        let mut t = Thread::over(ResolvedMachine::with_sink_in(&rp, NopSink, &mut sem_arena));
        let recycled = drive_sem(&mut t, case.args);
        t.into_machine().recycle_into(&mut sem_arena);
        assert_eq!(
            recycled,
            fresh,
            "case {index}: recycled resolved-sem arena diverged:\n{}",
            case.render()
        );

        let vp: VmProgram = match cmm_vm::compile(&prog) {
            Ok(vp) => vp,
            Err(e) => panic!("case {index} failed to compile: {e}"),
        };
        let fresh = drive_vm(&mut VmThread::new(&vp), case.args);
        let mut t = VmThread::with_sink_in(&vp, NopSink, &mut vm_arena);
        let recycled = drive_vm(&mut t, case.args);
        t.into_machine().recycle_into(&mut vm_arena);
        assert_eq!(
            recycled,
            fresh,
            "case {index}: recycled vm arena diverged:\n{}",
            case.render()
        );

        let fresh = drive_vm(&mut VmThread::new_fused(&vp), case.args);
        let plain = Arc::new(cmm_vm::DecodedCode::decode(&vp));
        let stream = Arc::new(cmm_vm::FusedCode::fuse(&vp, plain));
        let mut t = VmThread::with_sink_shared_decoded_in(&vp, stream, NopSink, &mut vm_arena);
        let recycled = drive_vm(&mut t, case.args);
        t.into_machine().recycle_into(&mut vm_arena);
        assert_eq!(
            recycled,
            fresh,
            "case {index}: recycled fused vm arena diverged:\n{}",
            case.render()
        );
    }
}
