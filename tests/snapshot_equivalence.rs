//! The headline snapshot-equivalence wall: a run to completion must
//! deeply equal a run that is snapshotted at **every** resumable
//! boundary, serialized with `cmm-snap`, and resumed — for every one of
//! the five engines, with cross-engine restores inside each family,
//! with and without an injected fault schedule.
//!
//! Most of the machinery lives in `cmm_difftest::run_source_snap` (the
//! oracle behind `cmm fuzz --snap`): its sem run alternates the
//! reference machine with the pre-resolved machine at each boundary,
//! and its VM run rotates stepped → decoded → fused, so one oracle call
//! exercises all five engines and the cross-tier resume path. The tests
//! here aim that oracle at the paper workloads and a generated
//! population, and additionally pin each engine *individually* with a
//! hand-rolled snapshot/resume cycle, so a divergence report names the
//! engine rather than the family. Two more pin that a VM blob stays
//! valid across compiles of its source, as `cmm resume` needs: the code
//! layout may depend on the program alone.

use cmm_chaos::{schedule_seed, Family, FaultPlan};
use cmm_difftest::oracle::{observe_sem_chaos, Limits};
use cmm_difftest::{generate, run_source_snap, Rng, SNAP_SLICE};
use cmm_pool::SourceKey;
use cmm_sem::{Machine, ResolvedMachine, ResolvedProgram, Status, Value};
use cmm_snap::{EngineId, MachineState, SnapMeta, Snapshot};
use cmm_vm::{VmMachine, VmStatus};

/// The Figures 3/4 and §4.2 workloads, reshaped to the oracle's fixed
/// `f(a, b)` entry convention: `a` drives the loop, `b` seeds the
/// accumulator so both arguments are live.
fn paper_workloads() -> Vec<(&'static str, String)> {
    let fig34 = |table: bool| {
        let call = if table {
            "r = g(n) also returns to kexn;"
        } else {
            "r = g(n);"
        };
        let ret = if table {
            "return <1/1> (x);"
        } else {
            "return (x);"
        };
        let cont = if table {
            "continuation kexn(r):\n            return (0 - 1);"
        } else {
            ""
        };
        format!(
            r#"
            f(bits32 n, bits32 seed) {{
                bits32 acc, r;
                acc = seed;
              loop:
                if n == 0 {{ return (acc); }} else {{
                    {call}
                    acc = acc + r;
                    n = n - 1;
                    goto loop;
                }}
                {cont}
            }}
            g(bits32 x) {{ {ret} }}
            "#
        )
    };
    let sec42 = |cuts: bool| {
        let ann = if cuts {
            "also cuts to k"
        } else {
            "also unwinds to k"
        };
        format!(
            r#"
            f(bits32 n, bits32 seed) {{
                bits32 acc, x, y, w, r;
                acc = seed;
              loop:
                if n == 0 {{ return (acc); }} else {{
                    y = n * 3;
                    w = n + 7;
                    r = g(n, k) {ann};
                    acc = acc + r + y + w;
                    n = n - 1;
                    goto loop;
                }}
                continuation k(r):
                return (r + y + w);
            }}
            g(bits32 a, bits32 kk) {{
                return (a);
            }}
            "#
        )
    };
    vec![
        ("fig34_plain", fig34(false)),
        ("fig34_table", fig34(true)),
        ("sec42_cuts", sec42(true)),
        ("sec42_unwinds", sec42(false)),
    ]
}

/// Every paper workload survives snapshot-at-every-boundary at several
/// slice densities, including a slice of 1 (a boundary at literally
/// every transition).
#[test]
fn paper_workloads_agree_at_every_boundary() {
    let limits = Limits::default();
    for (name, src) in paper_workloads() {
        for slice in [1, 7, SNAP_SLICE] {
            let stats = run_source_snap(&src, (20, 3), &limits, slice, None)
                .unwrap_or_else(|f| panic!("{name} diverged at slice {slice}: {f}"));
            assert!(
                stats.snapshots > 0,
                "{name}: slice {slice} never crossed a boundary — the check is vacuous"
            );
            assert!(stats.bytes > 0, "{name}: snapshots recorded but no bytes?");
        }
    }
}

/// A workload whose dispatch exchange is long enough for seeded fault
/// schedules to actually fire: each of the three iterations yields, and
/// the servicing policy walks several Table 1 operations per
/// suspension.
const YIELDING_SRC: &str = r#"
    f(bits32 a, bits32 b) {
        bits32 r, i;
        r = a + b;
        i = 3;
      loop:
        if i == 0 { return (r); } else {
            r = mid(r + i) also unwinds to k;
            i = i - 1;
            goto loop;
        }
        continuation k(r):
        return (r + 1);
    }
    mid(bits32 x) {
        bits32 r;
        r = g(x) also unwinds to ku;
        return (r);
        continuation ku(r):
        return (r + 100);
    }
    g(bits32 x) { yield(x | 1) also aborts; return (x); }
"#;

/// Workloads under seeded fault schedules: the fault-plan state rides
/// inside the snapshot, so an interrupted schedule must resume
/// mid-flight and the sliced run's injected-fault log must match the
/// straight run's exactly. The paper workloads never yield (no dispatch
/// exchange, nothing to inject into), so a yielding workload joins the
/// sweep and must actually fire at least one fault.
#[test]
fn paper_workloads_agree_under_chaos() {
    let limits = Limits::default();
    let mut workloads = paper_workloads();
    workloads.push(("yielding", YIELDING_SRC.to_string()));
    let mut fired = false;
    for (name, src) in &workloads {
        for seed in 0..3u64 {
            let plan = FaultPlan::seeded(schedule_seed(seed, 0));
            run_source_snap(src, (20, 3), &limits, SNAP_SLICE, Some(&plan))
                .unwrap_or_else(|f| panic!("{name} diverged under chaos seed {seed}: {f}"));
            let m = cmm_parse::parse_module(src).unwrap();
            let p = cmm_cfg::build_program(&m).unwrap();
            let (_, _, log) = observe_sem_chaos(&p, (20, 3), &limits, &plan);
            fired |= !log.is_empty();
        }
    }
    assert!(
        fired,
        "no schedule injected a fault — the chaos leg is vacuous"
    );
}

/// A generated population through the full oracle — the same sweep
/// `cmm fuzz --snap` runs, kept here so the wall fails even if the fuzz
/// smoke is skipped.
#[test]
fn generated_population_agrees() {
    let limits = Limits::default();
    let mut snapped = 0u64;
    for seed in 100..130 {
        let case = generate(&mut Rng::new(seed));
        match run_source_snap(&case.render(), case.args, &limits, SNAP_SLICE, None) {
            Ok(stats) => snapped += stats.snapshots,
            Err(f) => panic!("seed {seed} failed: {f}\n{}", case.render()),
        }
    }
    assert!(snapped > 0, "no generated case ever crossed a boundary");
}

// ----- per-engine pinning -----

/// A source whose straight run needs a known moderate amount of fuel,
/// for the hand-rolled per-engine cycles below.
const LOOP_SRC: &str = r#"
    f(bits32 n, bits32 seed) {
        bits32 acc;
        acc = seed;
      loop:
        if n == 0 { return (acc); }
        else { acc = acc + n; n = n - 1; goto loop; }
    }
"#;

const LOOP_ARGS: (u32, u32) = (100, 7);
const LOOP_SUM: u64 = 100 * 101 / 2 + 7;

fn envelope(engine: EngineId, fuel_remaining: u64, state: MachineState) -> Snapshot {
    Snapshot {
        engine,
        digest: SourceKey::cmm(LOOP_SRC, false, engine.family()).digest(),
        meta: SnapMeta {
            entry: "f".into(),
            args: vec![u64::from(LOOP_ARGS.0), u64::from(LOOP_ARGS.1)],
            fuel_remaining,
            yields_done: 0,
            opt: false,
        },
        governor: None,
        chaos: None,
        state,
    }
}

/// Encode → decode → byte-identity check, as every consumer must.
fn wire_cycle(snap: &Snapshot) -> Snapshot {
    let bytes = snap.encode();
    let decoded = Snapshot::decode(&bytes).expect("decode own encoding");
    assert_eq!(&decoded, snap, "decoded snapshot differs from captured");
    assert_eq!(decoded.encode(), bytes, "re-encode is not byte-identical");
    decoded
}

/// Both sem engines individually: interrupt mid-loop, serialize, resume
/// in a fresh machine of the same engine, and land on the straight
/// run's results and exact step count.
#[test]
fn sem_engines_snapshot_and_resume_individually() {
    let m = cmm_parse::parse_module(LOOP_SRC).unwrap();
    let p = cmm_cfg::build_program(&m).unwrap();
    let rp = ResolvedProgram::new(&p);
    let args = vec![Value::b32(LOOP_ARGS.0), Value::b32(LOOP_ARGS.1)];

    // Straight reference run: results and total steps to match.
    let mut straight = Machine::new(&p);
    straight.start("f", args.clone()).unwrap();
    let Status::Terminated(want) = straight.run(1 << 20) else {
        panic!("straight run did not terminate");
    };
    let want_steps = straight.steps;

    for engine in [EngineId::Sem, EngineId::SemResolved] {
        // Run CUT transitions, capture, serialize, resume fresh.
        const CUT: u64 = 57;
        let (state, steps_at_cut) = match engine {
            EngineId::Sem => {
                let mut m = Machine::new(&p);
                m.start("f", args.clone()).unwrap();
                assert!(matches!(m.run(CUT), Status::OutOfFuel));
                (m.capture().unwrap(), m.steps)
            }
            _ => {
                let mut m = ResolvedMachine::new(&rp);
                m.start("f", args.clone()).unwrap();
                assert!(matches!(m.run(CUT), Status::OutOfFuel));
                (m.capture().unwrap(), m.steps)
            }
        };
        assert_eq!(steps_at_cut, CUT, "{engine:?}: fuel accounting drifted");
        let decoded = wire_cycle(&envelope(engine, 0, MachineState::Sem(state)));
        let MachineState::Sem(st) = &decoded.state else {
            panic!("sem snapshot decoded to a VM state");
        };
        let (got, steps) = match engine {
            EngineId::Sem => {
                let mut m = Machine::new(&p);
                m.restore(st).unwrap();
                let Status::Terminated(v) = m.run(1 << 20) else {
                    panic!("{engine:?}: resumed run did not terminate");
                };
                (v, m.steps)
            }
            _ => {
                let mut m = ResolvedMachine::new(&rp);
                m.restore(st).unwrap();
                let Status::Terminated(v) = m.run(1 << 20) else {
                    panic!("{engine:?}: resumed run did not terminate");
                };
                (v, m.steps)
            }
        };
        assert_eq!(got, want, "{engine:?}: resumed results differ");
        assert_eq!(steps, want_steps, "{engine:?}: resumed step count differs");
        assert_eq!(got, vec![Value::b32(LOOP_SUM as u32)]);
    }
}

/// All three VM tiers individually, and every cross-tier pair: a
/// snapshot captured on tier A resumes on tier B with bit-identical
/// results and cost vector (the tiers share `VmMachine` state, so the
/// blob is tier-portable by construction — this pins that it stays so).
#[test]
fn vm_tiers_snapshot_and_resume_across_every_pair() {
    let m = cmm_parse::parse_module(LOOP_SRC).unwrap();
    let p = cmm_cfg::build_program(&m).unwrap();
    let vp = cmm_vm::compile(&p).unwrap();
    let fresh = |e: EngineId| -> VmMachine<'_> {
        match e {
            EngineId::Vm => VmMachine::new(&vp),
            EngineId::VmDecoded => VmMachine::new_decoded(&vp),
            EngineId::VmFused => VmMachine::new_fused(&vp),
            _ => unreachable!("sem engine in VM tier list"),
        }
    };
    let tiers = [EngineId::Vm, EngineId::VmDecoded, EngineId::VmFused];
    let args = [u64::from(LOOP_ARGS.0), u64::from(LOOP_ARGS.1)];

    // Straight run on the stepped tier: the cost vector every resumed
    // run must land on exactly.
    let mut straight = fresh(EngineId::Vm);
    straight.start("f", &args, 1);
    let VmStatus::Halted(want) = straight.run(1 << 24) else {
        panic!("straight run did not halt");
    };
    let want_cost = straight.cost;
    assert_eq!(want, vec![LOOP_SUM]);

    for from in tiers {
        const CUT: u64 = 93;
        let mut a = fresh(from);
        a.start("f", &args, 1);
        assert!(matches!(a.run(CUT), VmStatus::OutOfFuel));
        assert_eq!(
            a.cost.instructions, CUT,
            "{from:?}: fuel accounting drifted"
        );
        let state = a.capture().unwrap();
        let decoded = wire_cycle(&envelope(from, 0, MachineState::Vm(state)));
        let MachineState::Vm(st) = &decoded.state else {
            panic!("VM snapshot decoded to a sem state");
        };
        for to in tiers {
            let mut b = fresh(to);
            b.restore(st).unwrap();
            let VmStatus::Halted(got) = b.run(1 << 24) else {
                panic!("{from:?}->{to:?}: resumed run did not halt");
            };
            assert_eq!(got, want, "{from:?}->{to:?}: resumed results differ");
            assert_eq!(b.cost, want_cost, "{from:?}->{to:?}: resumed cost differs");
        }
    }
}

/// The layout probe of the corpus: `k1` and `k2` are used only as the
/// values of `cut to` statements, so no call annotation reaches them
/// and only code generation's worklist order decides where their bodies
/// go.
fn layout_probe(optimize: bool) -> cmm_cfg::Program {
    let src = include_str!("../corpus/vm-layout-self-cut.cmm");
    let mut p = cmm_cfg::build_program(&cmm_parse::parse_module(src).unwrap()).unwrap();
    if optimize {
        cmm_opt::optimize_program(&mut p, &cmm_opt::OptOptions::default());
    }
    p
}

/// VM code is a function of the program alone: every compile of the
/// probe lays its code out the same way.
#[test]
fn vm_code_layout_is_the_same_on_every_compile() {
    for optimize in [false, true] {
        let p = layout_probe(optimize);
        let first = cmm_vm::compile(&p).unwrap();
        for i in 1..16 {
            let again = cmm_vm::compile(&p).unwrap();
            assert_eq!(
                again.code, first.code,
                "compile {i} (optimized: {optimize}) laid the probe out differently"
            );
        }
    }
}

/// What `cmm resume` does: a VM snapshot captured on one compile, after
/// the prologue stored both continuations' (pc, sp) pairs, restores
/// into other compiles of the same source and ends as the straight run
/// does (`k1`, so 100).
#[test]
fn vm_snapshot_resumes_on_another_compile() {
    for optimize in [false, true] {
        let p = layout_probe(optimize);
        let vp = cmm_vm::compile(&p).unwrap();
        let mut a = VmMachine::new(&vp);
        a.start("f", &[0, 0], 1);
        assert!(matches!(a.run(30), VmStatus::OutOfFuel));
        let state = a.capture().unwrap();
        for i in 1..16 {
            let other = cmm_vm::compile(&p).unwrap();
            let mut b = VmMachine::new(&other);
            b.restore(&state).unwrap();
            assert_eq!(
                b.run(1 << 20),
                VmStatus::Halted(vec![100]),
                "compile {i} (optimized: {optimize}) resumed into the wrong continuation"
            );
        }
    }
}

/// The user-facing resume guard: a snapshot of one program must refuse
/// to resume over a different program (or the same program at a
/// different optimization level), structurally and before any state is
/// touched.
#[test]
fn resume_refuses_a_different_program() {
    let snap = envelope(
        EngineId::Sem,
        0,
        MachineState::Sem({
            let m = cmm_parse::parse_module(LOOP_SRC).unwrap();
            let p = cmm_cfg::build_program(&m).unwrap();
            let mut m = Machine::new(&p);
            m.start("f", vec![Value::b32(3), Value::b32(0)]).unwrap();
            assert!(matches!(m.run(2), Status::OutOfFuel));
            m.capture().unwrap()
        }),
    );
    let decoded = wire_cycle(&snap);
    decoded
        .check_digest(SourceKey::cmm(LOOP_SRC, false, Family::Sem).digest())
        .expect("same source must pass the digest check");
    let err = decoded
        .check_digest(SourceKey::cmm("f() { return (1); }", false, Family::Sem).digest())
        .expect_err("different source must fail the digest check");
    assert!(
        err.to_string().contains("different program"),
        "digest error should say what went wrong, got: {err}"
    );
    let err = decoded
        .check_digest(SourceKey::cmm(LOOP_SRC, true, Family::Sem).digest())
        .expect_err("different opt level must fail the digest check");
    assert!(err.to_string().contains("different program"));
}

/// `EngineId::ALL` is the ground truth the CLI and pool parse against;
/// the wall above must actually have covered every member.
#[test]
fn the_wall_covers_every_engine() {
    let covered = [
        EngineId::Sem,
        EngineId::SemResolved,
        EngineId::Vm,
        EngineId::VmDecoded,
        EngineId::VmFused,
    ];
    assert_eq!(
        covered,
        EngineId::ALL,
        "a sixth engine appeared — extend the wall"
    );
    for e in EngineId::ALL {
        assert_eq!(EngineId::parse(e.name()), Ok(e), "name/parse round-trip");
    }
}
