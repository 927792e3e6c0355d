//! Fuel-boundary equivalence: within each engine family, both engines
//! must report the *same* status at every fuel level — including the
//! edge where the budget runs out one transition short of completion.
//!
//! For each paper-figure workload we find the minimal completing fuel N
//! empirically, then compare the engines at N−1, N, and N+1. This pins
//! the exact transition at which `OutOfFuel` is reported, which is also
//! the transition the chaos governor's `fuel_slice` clips to.

use cmm_cfg::{build_program, Program};
use cmm_sem::{Machine, ResolvedMachine, ResolvedProgram, Status, Value};
use cmm_vm::{VmMachine, VmProgram, VmStatus};

/// The Figures 3/4 loop of always-normal calls (plain and branch-table
/// variants) and the §4.2 callee-saves workload (cut and unwind
/// variants) — the four workloads the benchmark trajectory tracks.
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

#[test]
fn sem_engines_agree_at_every_fuel_boundary() {
    for (name, src, n) in workloads() {
        let p = prog(&src);
        let rp = ResolvedProgram::new(&p);
        let run_ref = |fuel: u64| -> Status {
            let mut m = Machine::new(&p);
            m.start("f", vec![Value::b32(n as u32)]).unwrap();
            m.run(fuel)
        };
        let run_res = |fuel: u64| -> Status {
            let mut m = ResolvedMachine::new(&rp);
            m.start("f", vec![Value::b32(n as u32)]).unwrap();
            m.run(fuel)
        };
        let fuel = minimal_fuel(|f| !matches!(run_ref(f), Status::OutOfFuel));
        assert!(fuel > 1, "{name}: completes implausibly fast");
        for f in [fuel - 1, fuel, fuel + 1] {
            let a = run_ref(f);
            let b = run_res(f);
            assert_eq!(a, b, "{name}: sem engines diverge at fuel {f}");
            let complete = f >= fuel;
            assert_eq!(
                !matches!(a, Status::OutOfFuel),
                complete,
                "{name}: wrong completion at fuel {f}"
            );
        }
    }
}

#[test]
fn vm_engines_agree_at_every_fuel_boundary() {
    for (name, src, n) in workloads() {
        let vp: VmProgram = cmm_vm::compile(&prog(&src)).unwrap();
        let run_step = |fuel: u64| -> VmStatus {
            let mut m = VmMachine::new(&vp);
            m.start("f", &[n], 1);
            m.run(fuel)
        };
        let decoded_at = |fuel: u64| -> VmStatus {
            let mut m = VmMachine::new_decoded(&vp);
            m.start("f", &[n], 1);
            m.run(fuel)
        };
        let fused_at = |fuel: u64| -> VmStatus {
            let mut m = VmMachine::new_fused(&vp);
            m.start("f", &[n], 1);
            m.run(fuel)
        };
        let fuel = minimal_fuel(|f| !matches!(run_step(f), VmStatus::OutOfFuel));
        assert!(fuel > 1, "{name}: completes implausibly fast");
        for f in [fuel - 1, fuel, fuel + 1] {
            let a = run_step(f);
            let b = decoded_at(f);
            assert_eq!(a, b, "{name}: vm engines diverge at fuel {f}");
            let c = fused_at(f);
            assert_eq!(a, c, "{name}: fused engine diverges at fuel {f}");
            let complete = f >= fuel;
            assert_eq!(
                !matches!(a, VmStatus::OutOfFuel),
                complete,
                "{name}: wrong completion at fuel {f}"
            );
        }
    }
}

/// The fused engine's fuel accounting is exact at **every** budget, not
/// just the completion edge: a window head reached with less fuel than
/// the window needs must retire the head alone and go on over plain
/// slots rather than run ahead, so status, cost, and pc match the
/// decoded engine at all budgets from 1 to completion.
#[test]
fn fused_engine_matches_decoded_at_every_fuel_level() {
    for (name, src, n) in workloads() {
        let vp: VmProgram = cmm_vm::compile(&prog(&src)).unwrap();
        let total = {
            let mut m = VmMachine::new_decoded(&vp);
            m.start("f", &[n], 1);
            assert!(
                !matches!(m.run(1 << 24), VmStatus::OutOfFuel),
                "{name}: never completes"
            );
            m.cost.instructions
        };
        for fuel in 1..=total {
            let mut dec = VmMachine::new_decoded(&vp);
            dec.start("f", &[n], 1);
            let a = dec.run(fuel);
            let mut fus = VmMachine::new_fused(&vp);
            fus.start("f", &[n], 1);
            let b = fus.run(fuel);
            assert_eq!(a, b, "{name}: status diverges at fuel {fuel}");
            assert_eq!(fus.cost, dec.cost, "{name}: cost diverges at fuel {fuel}");
            assert_eq!(fus.pc, dec.pc, "{name}: pc diverges at fuel {fuel}");
        }
    }
}

/// The governor's fuel slice reproduces the same boundary: a slice of
/// N−1 cannot complete in one `run` call no matter how much fuel the
/// caller grants.
#[test]
fn governor_fuel_slice_respects_the_boundary() {
    let (_, src, n) = workloads().remove(0);
    let p = prog(&src);
    let run_with = |fuel: u64, slice: Option<u64>| -> Status {
        let mut m = Machine::new(&p);
        if let Some(s) = slice {
            m.set_governor(cmm_chaos::ResourceGovernor {
                fuel_slice: Some(s),
                ..cmm_chaos::ResourceGovernor::unlimited()
            });
        }
        m.start("f", vec![Value::b32(n as u32)]).unwrap();
        m.run(fuel)
    };
    let fuel = minimal_fuel(|f| !matches!(run_with(f, None), Status::OutOfFuel));
    assert_eq!(run_with(u64::MAX, Some(fuel - 1)), Status::OutOfFuel);
    assert!(!matches!(run_with(u64::MAX, Some(fuel)), Status::OutOfFuel));
}
