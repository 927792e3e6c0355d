//! Snapshots at the exact fuel boundary: for each paper workload we
//! find the minimal completing fuel N empirically, then drive every
//! engine at budgets N−1, N, and N+1.
//!
//! * At N−1 the machine is interrupted one transition short of
//!   completion — the latest possible snapshot point. The captured
//!   state must survive the full wire cycle (encode → decode →
//!   byte-identity) and a resumed fresh machine must finish in
//!   **exactly one** more transition with the straight run's results.
//! * At N and N+1 the run completes, so there is no boundary to
//!   snapshot — `capture` on a terminated machine must refuse rather
//!   than serialize a meaningless state.
//!
//! This pins the same transition `fuel_boundary.rs` pins for plain
//! runs, now through the snapshot machinery: fuel accounting across
//! capture/restore is exact, not merely close.

use cmm_cfg::{build_program, Program};
use cmm_pool::SourceKey;
use cmm_sem::{Machine, ResolvedMachine, ResolvedProgram, Status, Value};
use cmm_snap::{EngineId, MachineState, SnapMeta, Snapshot};
use cmm_vm::{VmMachine, VmProgram, VmStatus};

/// The Figures 3/4 loop (plain and branch-table variants) and the §4.2
/// callee-saves workload (cut and unwind variants), as in
/// `fuel_boundary.rs`.
fn workloads() -> Vec<(&'static str, String, u64)> {
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
            f(bits32 n) {{
                bits32 acc, r;
                acc = 0;
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
            f(bits32 n) {{
                bits32 acc, x, y, w, r;
                acc = 0;
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
        ("fig34_plain", fig34(false), 40),
        ("fig34_table", fig34(true), 40),
        ("sec42_cuts", sec42(true), 25),
        ("sec42_unwinds", sec42(false), 25),
    ]
}

fn prog(src: &str) -> Program {
    build_program(&cmm_parse::parse_module(src).unwrap()).unwrap()
}

/// Smallest fuel at which `probe` reports a completed status.
fn minimal_fuel(mut probe: impl FnMut(u64) -> bool) -> u64 {
    let mut hi = 1u64;
    while !probe(hi) {
        hi *= 2;
        assert!(hi < 1 << 32, "workload never completes");
    }
    let mut lo = 1u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Wrap a captured state in a full envelope and put it through the
/// wire: encode → decode → equality → re-encode byte identity.
fn wire_cycle(src: &str, engine: EngineId, n: u64, state: MachineState) -> Snapshot {
    let snap = Snapshot {
        engine,
        digest: SourceKey::cmm(src, false, engine.family()).digest(),
        meta: SnapMeta {
            entry: "f".into(),
            args: vec![n],
            fuel_remaining: 1,
            yields_done: 0,
            opt: false,
        },
        governor: None,
        chaos: None,
        state,
    };
    let bytes = snap.encode();
    let decoded = Snapshot::decode(&bytes).expect("decode own encoding");
    assert_eq!(decoded, snap, "decoded snapshot differs from captured");
    assert_eq!(decoded.encode(), bytes, "re-encode not byte-identical");
    decoded
}

#[test]
fn sem_engines_snapshot_exactly_at_the_boundary() {
    for (name, src, n) in workloads() {
        let p = prog(&src);
        let rp = ResolvedProgram::new(&p);
        let args = vec![Value::b32(n as u32)];

        let straight = |fuel: u64| -> Status {
            let mut m = Machine::new(&p);
            m.start("f", args.clone()).unwrap();
            m.run(fuel)
        };
        let fuel = minimal_fuel(|f| !matches!(straight(f), Status::OutOfFuel));
        let Status::Terminated(want) = straight(fuel) else {
            panic!("{name}: straight run did not terminate at minimal fuel");
        };

        for engine in [EngineId::Sem, EngineId::SemResolved] {
            // N−1: interrupted one transition short; snapshot + resume
            // completes in exactly one more transition.
            let state = match engine {
                EngineId::Sem => {
                    let mut m = Machine::new(&p);
                    m.start("f", args.clone()).unwrap();
                    assert!(matches!(m.run(fuel - 1), Status::OutOfFuel));
                    m.capture().unwrap()
                }
                _ => {
                    let mut m = ResolvedMachine::new(&rp);
                    m.start("f", args.clone()).unwrap();
                    assert!(matches!(m.run(fuel - 1), Status::OutOfFuel));
                    m.capture().unwrap()
                }
            };
            let decoded = wire_cycle(&src, engine, n, MachineState::Sem(state));
            let MachineState::Sem(st) = &decoded.state else {
                panic!("sem snapshot decoded to a VM state");
            };
            let (status, steps) = match engine {
                EngineId::Sem => {
                    let mut m = Machine::new(&p);
                    m.restore(st).unwrap();
                    (m.run(1), m.steps)
                }
                _ => {
                    let mut m = ResolvedMachine::new(&rp);
                    m.restore(st).unwrap();
                    (m.run(1), m.steps)
                }
            };
            assert_eq!(
                status,
                Status::Terminated(want.clone()),
                "{name}/{engine:?}: one transition of resumed fuel must finish"
            );
            assert_eq!(steps, fuel, "{name}/{engine:?}: total steps drifted");

            // N and N+1: the run completes, so there is no resumable
            // boundary left — capture must refuse.
            for f in [fuel, fuel + 1] {
                let refused = match engine {
                    EngineId::Sem => {
                        let mut m = Machine::new(&p);
                        m.start("f", args.clone()).unwrap();
                        assert!(!matches!(m.run(f), Status::OutOfFuel));
                        m.capture().is_err()
                    }
                    _ => {
                        let mut m = ResolvedMachine::new(&rp);
                        m.start("f", args.clone()).unwrap();
                        assert!(!matches!(m.run(f), Status::OutOfFuel));
                        m.capture().is_err()
                    }
                };
                assert!(
                    refused,
                    "{name}/{engine:?}: capturing a terminated machine at fuel {f} must refuse"
                );
            }
        }
    }
}

#[test]
fn vm_tiers_snapshot_exactly_at_the_boundary() {
    for (name, src, n) in workloads() {
        let vp: VmProgram = cmm_vm::compile(&prog(&src)).unwrap();
        let fresh = |e: EngineId| -> VmMachine<'_> {
            match e {
                EngineId::Vm => VmMachine::new(&vp),
                EngineId::VmDecoded => VmMachine::new_decoded(&vp),
                EngineId::VmFused => VmMachine::new_fused(&vp),
                _ => unreachable!(),
            }
        };

        let straight = |fuel: u64| -> VmStatus {
            let mut m = fresh(EngineId::Vm);
            m.start("f", &[n], 1);
            m.run(fuel)
        };
        let fuel = minimal_fuel(|f| !matches!(straight(f), VmStatus::OutOfFuel));
        let VmStatus::Halted(want) = straight(fuel) else {
            panic!("{name}: straight run did not halt at minimal fuel");
        };
        let want_cost = {
            let mut m = fresh(EngineId::Vm);
            m.start("f", &[n], 1);
            m.run(fuel);
            m.cost
        };

        for engine in [EngineId::Vm, EngineId::VmDecoded, EngineId::VmFused] {
            let mut m = fresh(engine);
            m.start("f", &[n], 1);
            assert!(matches!(m.run(fuel - 1), VmStatus::OutOfFuel));
            assert_eq!(
                m.cost.instructions,
                fuel - 1,
                "{name}/{engine:?}: interrupted instruction count drifted"
            );
            let state = m.capture().unwrap();
            let decoded = wire_cycle(&src, engine, n, MachineState::Vm(state));
            let MachineState::Vm(st) = &decoded.state else {
                panic!("VM snapshot decoded to a sem state");
            };
            // Resume on the same tier with exactly one instruction of
            // fuel: it must halt with the straight run's results and
            // bit-identical total cost.
            let mut r = fresh(engine);
            r.restore(st).unwrap();
            assert_eq!(
                r.run(1),
                VmStatus::Halted(want.clone()),
                "{name}/{engine:?}: one instruction of resumed fuel must finish"
            );
            assert_eq!(r.cost, want_cost, "{name}/{engine:?}: total cost drifted");

            // Completed machines have no boundary left to capture.
            for f in [fuel, fuel + 1] {
                let mut m = fresh(engine);
                m.start("f", &[n], 1);
                assert!(!matches!(m.run(f), VmStatus::OutOfFuel));
                assert!(
                    m.capture().is_err(),
                    "{name}/{engine:?}: capturing a halted machine at fuel {f} must refuse"
                );
            }
        }
    }
}
