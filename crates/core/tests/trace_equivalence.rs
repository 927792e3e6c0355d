//! The exception-event projection — the engine-independent stream of
//! calls, returns, cuts, yields, and Table 1 operations — must be
//! identical across all five engines: the abstract machine, its
//! pre-resolved variant, the simulated target, its pre-decoded step
//! loop, and the fused superinstruction tier. Timestamps differ (steps vs cost units) and the abstract
//! machine additionally reports continuation capture/death, but the
//! projection drops both, so equality is exact.

use cmm_core::chaos::EngineId;
use cmm_core::obs::{first_divergence, projection, EventCounts, RecordingSink, TimedEvent};
use cmm_core::sem::{Machine, ResolvedMachine, ResolvedProgram, Status, Value};
use cmm_core::{cfg, frontend, opt, parse, rt, vm};
use cmm_difftest::{case_for, observe_traced, Limits, Outcome};

const FUEL: u64 = 50_000_000;

/// Runs `proc(args)` to completion on one engine of a raw C-- program,
/// returning the recorded events. The paper's figure workloads never
/// suspend, so no dispatcher policy is needed.
fn run_engine(src: &str, engine: &str, proc: &str, args: &[u64]) -> Vec<TimedEvent> {
    let rec = record_engine(src, engine, proc, args);
    assert_eq!(rec.dropped, 0, "{engine}: the trace hit its cap");
    rec.events
}

fn record_engine(src: &str, engine: &str, proc: &str, args: &[u64]) -> RecordingSink {
    let module = parse::parse_module(src).expect("workload parses");
    let prog = cfg::build_program(&module).expect("workload builds");
    let sem_args: Vec<Value> = args.iter().map(|&a| Value::b32(a as u32)).collect();
    match engine {
        "sem" => {
            let mut t = rt::Thread::over(Machine::with_sink(&prog, RecordingSink::default()));
            t.start(proc, sem_args).expect("starts");
            let s = t.run(FUEL);
            assert!(matches!(s, Status::Terminated(_)), "{engine}: {s:?}");
            t.into_machine().into_sink()
        }
        "sem-resolved" => {
            let rp = ResolvedProgram::new(&prog);
            let mut t = rt::Thread::over(ResolvedMachine::with_sink(&rp, RecordingSink::default()));
            t.start(proc, sem_args).expect("starts");
            let s = t.run(FUEL);
            assert!(matches!(s, Status::Terminated(_)), "{engine}: {s:?}");
            t.into_machine().into_sink()
        }
        "vm" | "vm-decoded" | "vm-fused" => {
            let vp = vm::compile(&prog).expect("workload compiles");
            let mut t = if engine == "vm-fused" {
                vm::VmThread::with_sink_fused(&vp, RecordingSink::default())
            } else if engine == "vm-decoded" {
                vm::VmThread::with_sink_decoded(&vp, RecordingSink::default())
            } else {
                vm::VmThread::with_sink(&vp, RecordingSink::default())
            };
            t.start(proc, args, 1);
            let s = t.run(FUEL);
            assert!(matches!(s, vm::VmStatus::Halted(_)), "{engine}: {s:?}");
            t.machine.into_sink()
        }
        other => panic!("unknown engine {other}"),
    }
}

fn example(file: &str) -> String {
    let path = format!("{}/../../examples/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn figure_workloads_project_identically_across_all_engines() {
    for (file, arg) in [
        ("fig34_plain.cmm", 20u64),
        ("fig34_table.cmm", 20),
        ("sec42_cuts.cmm", 8),
        ("sec42_unwinds.cmm", 8),
    ] {
        let src = example(file);
        let want = projection(&run_engine(&src, "sem", "f", &[arg]));
        assert!(!want.is_empty(), "{file}: empty projection");
        for engine in ["sem-resolved", "vm", "vm-decoded", "vm-fused"] {
            let got = projection(&run_engine(&src, engine, "f", &[arg]));
            if let Err((i, a, b)) = first_divergence(&want, &got) {
                panic!("{file} sem vs {engine}, event {i}: `{a}` vs `{b}`");
            }
        }
    }
}

#[test]
fn fig34_dispatch_counts_match_hand_counts() {
    // f(20) makes exactly 20 calls into g plus 21 returns (20 from g,
    // one from f); the branch-table variant's `return <1/1>` is the
    // normal arm, so neither workload takes an abnormal return.
    for file in ["fig34_plain.cmm", "fig34_table.cmm"] {
        let src = example(file);
        for engine in ["sem", "sem-resolved", "vm", "vm-decoded", "vm-fused"] {
            let c = EventCounts::of(&run_engine(&src, engine, "f", &[20]));
            assert_eq!(c.calls, 20, "{file} {engine}");
            assert_eq!(c.returns, 21, "{file} {engine}");
            assert_eq!(c.abnormal_returns, 0, "{file} {engine}");
            assert_eq!(c.cuts, 0, "{file} {engine}");
        }
    }
}

#[test]
fn generated_sweep_projects_identically() {
    // Wrong-outcome cases are skipped: the engines agree such runs are
    // wrong but may fault at different trace granularity.
    let limits = Limits::default();
    let mut compared = 0;
    for seed in 0..40u64 {
        let case = case_for(seed, 0);
        let src = case.render();
        let (ro, _, ref_events) = observe_traced(&src, "reference", case.args, &limits).unwrap();
        if matches!(ro.outcome, Outcome::Wrong) {
            continue;
        }
        let want = projection(&ref_events);
        for oracle in ["sem-resolved", "vm", "vm-decoded", "vm-fused"] {
            let (_, _, events) = observe_traced(&src, oracle, case.args, &limits).unwrap();
            if let Err((i, a, b)) = first_divergence(&want, &projection(&events)) {
                panic!("seed {seed} reference vs {oracle}, event {i}: `{a}` vs `{b}`\n{src}");
            }
        }
        // The optimized pipeline is a different program, so it gets its
        // own reference: the abstract machine over the same passes.
        let (oo, _, o_events) = observe_traced(&src, "sem+O2", case.args, &limits).unwrap();
        if !matches!(oo.outcome, Outcome::Wrong) {
            let owant = projection(&o_events);
            for oracle in ["vm+O2", "vm-decoded+O2", "vm-fused+O2"] {
                let (_, _, events) = observe_traced(&src, oracle, case.args, &limits).unwrap();
                if let Err((i, a, b)) = first_divergence(&owant, &projection(&events)) {
                    panic!("seed {seed} sem+O2 vs {oracle}, event {i}: `{a}` vs `{b}`\n{src}");
                }
            }
        }
        compared += 1;
    }
    assert!(
        compared >= 10,
        "only {compared} of 40 seeds were comparable"
    );
}

#[test]
fn minim3_strategies_project_identically_across_substrates() {
    // End to end through the driver: the Figure 9 dispatcher's Table 1
    // traffic must look the same whether the program runs on the
    // abstract machine or either simulated-target step loop. The
    // abstract machine runs the unoptimized program, so the VM is held
    // to the same options.
    let opts = opt::OptOptions::none();
    let game = frontend::workloads::GAME;
    for strategy in frontend::Strategy::CORE {
        let module = frontend::compile_minim3(game, strategy).expect("game compiles");
        for arg in [3u32, 50] {
            let label = format!("game({arg}) {}", strategy.label());
            let (r, sem) = frontend::run_sem_traced(&module, strategy, &[arg]).expect("runs");
            r.expect("sem run succeeds");
            assert_eq!(sem.dropped, 0, "{label}: the sem trace hit its cap");
            let want = projection(&sem.events);
            assert!(!want.is_empty(), "{label}: empty projection");
            for engine in [EngineId::Vm, EngineId::VmDecoded, EngineId::VmFused] {
                let (r, rec) = frontend::run_vm_traced(&module, strategy, &[arg], &opts, engine)
                    .expect("runs");
                r.expect("vm run succeeds");
                assert_eq!(rec.dropped, 0, "{label}: the trace hit its cap");
                if let Err((i, a, b)) = first_divergence(&want, &projection(&rec.events)) {
                    panic!(
                        "{label} sem vs {}, event {i}: `{a}` vs `{b}`",
                        engine.label()
                    );
                }
            }
        }
    }
}
