//! Integration tests for the Table 1 run-time interface across both of
//! its implementations (`cmm-rt` over the abstract machine, and the
//! VM-level tables in `cmm-vm`): the same dispatch logic must work over
//! either, because "different front ends may interoperate with the same
//! C-- run-time system".

use cmm_core::chaos::{EngineId, Stop};
use cmm_core::frontend::{with_engine, Code, Setup};
use cmm_core::obs::NopSink;
use cmm_core::rt::Thread;
use cmm_core::sem::{Status, Value};
use cmm_core::vm::{compile, VmStatus, VmThread};

const NEST: &str = r#"
    f(bits32 x) {
        bits32 r;
        r = mid(x) also unwinds to ksmall, kbig also descriptor d_f;
        return (r);
        continuation ksmall(r):
        return (r + 1);
        continuation kbig(r):
        return (r + 2);
    }
    mid(bits32 x) {
        bits32 r;
        r = g(x) also aborts also descriptor d_mid;
        return (r);
    }
    g(bits32 x) {
        yield(42, x) also aborts;
        return (0);
    }
    data d_f   { bits32 2; sym ksel; }
    data d_mid { bits32 1; }
    data ksel  { string "which continuation to use"; }
"#;

fn program() -> cmm_cfg::Program {
    cmm_cfg::build_program(&cmm_parse::parse_module(NEST).unwrap()).unwrap()
}

/// A toy "front-end run-time system": picks an unwind continuation
/// based on the yielded value.
#[test]
fn full_walk_and_dispatch_on_the_abstract_machine() {
    let prog = program();
    for (x, expected) in [(3u32, 4u32), (100, 102)] {
        let mut t = Thread::new(&prog);
        t.start("f", vec![Value::b32(x)]).unwrap();
        assert_eq!(t.run(100_000), Status::Suspended);
        assert_eq!(t.yield_code(), Some(42));
        let v = t.yield_args()[1].bits().unwrap() as u32;

        let mut a = t.first_activation().unwrap();
        // Walk: g -> mid -> f, checking descriptors along the way.
        assert_eq!(t.frame(&a).unwrap().proc().as_str(), "g");
        assert!(t.next_activation(&mut a));
        assert_eq!(t.frame(&a).unwrap().proc().as_str(), "mid");
        let d = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.read_u32(d), 1);
        assert!(t.next_activation(&mut a));
        assert_eq!(t.frame(&a).unwrap().proc().as_str(), "f");
        let d = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.read_u32(d), 2);
        assert!(!t.next_activation(&mut a));

        t.set_activation(&a).unwrap();
        t.set_unwind_cont(if v < 10 { 0 } else { 1 }).unwrap();
        *t.find_cont_param(0).unwrap() = Value::b32(v);
        t.resume().unwrap();
        assert_eq!(
            t.run(100_000),
            Status::Terminated(vec![Value::b32(expected)])
        );
    }
}

#[test]
fn full_walk_and_dispatch_on_the_vm() {
    let prog = program();
    let vp = compile(&prog).unwrap();
    for (x, expected) in [(3u64, 4u64), (100, 102)] {
        let mut t = VmThread::new(&vp);
        t.start("f", &[x], 1);
        assert_eq!(t.run(1_000_000), VmStatus::Suspended);
        let args = t.machine.yield_args(2);
        assert_eq!(args[0], 42);
        let v = args[1];

        let mut a = t.first_activation().unwrap();
        assert_eq!(t.get_descriptor(&a, 0), None); // g has no descriptor
        assert!(t.next_activation(&mut a)); // mid
        let d = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.machine.mem.read32(d), 1);
        assert!(t.next_activation(&mut a)); // f
        let d = t.get_descriptor(&a, 0).unwrap();
        assert_eq!(t.machine.mem.read32(d), 2);
        assert!(!t.next_activation(&mut a));

        t.set_activation(&a).unwrap();
        t.set_unwind_cont(if v < 10 { 0 } else { 1 }).unwrap();
        *t.find_cont_param(0).unwrap() = v;
        t.resume().unwrap();
        assert_eq!(t.run(1_000_000), VmStatus::Halted(vec![expected]));
    }
}

/// SetCutToCont: the run-time system cuts to a continuation value it
/// received via the yield.
#[test]
fn set_cut_to_cont_agrees_across_implementations() {
    let src = r#"
        f() {
            bits32 r;
            r = mid(k) also cuts to k;
            return (0);
            continuation k(r):
            return (r * 3);
        }
        mid(bits32 kk) {
            bits32 r;
            r = g(kk) also aborts;
            return (r);
        }
        g(bits32 kk) {
            yield(1, kk) also aborts;
            return (0);
        }
    "#;
    let prog = cmm_cfg::build_program(&cmm_parse::parse_module(src).unwrap()).unwrap();

    // Abstract machine.
    let mut t = Thread::new(&prog);
    t.start("f", vec![]).unwrap();
    assert_eq!(t.run(100_000), Status::Suspended);
    let k = t.yield_args()[1].clone();
    t.set_cut_to_cont(k).unwrap();
    *t.find_cont_param(0).unwrap() = Value::b32(14);
    t.resume().unwrap();
    assert_eq!(t.run(100_000), Status::Terminated(vec![Value::b32(42)]));

    // Simulated target.
    let vp = compile(&prog).unwrap();
    let mut t = VmThread::new(&vp);
    t.start("f", &[], 1);
    assert_eq!(t.run(1_000_000), VmStatus::Suspended);
    let k = t.machine.yield_args(2)[1] as u32;
    t.set_cut_to_cont(k).unwrap();
    *t.find_cont_param(0).unwrap() = 14;
    t.resume().unwrap();
    assert_eq!(t.run(1_000_000), VmStatus::Halted(vec![42]));
}

/// The protocol is enforced: discarding a non-abortable activation is
/// rejected by both implementations.
#[test]
fn abort_annotations_are_enforced() {
    let src = r#"
        f() { bits32 r; r = g() also unwinds to k; return (0);
              continuation k(r): return (r); }
        g() { yield(1); return (0); }   /* no also aborts */
    "#;
    let prog = cmm_cfg::build_program(&cmm_parse::parse_module(src).unwrap()).unwrap();

    let mut t = Thread::new(&prog);
    t.start("f", vec![]).unwrap();
    t.run(100_000);
    let mut a = t.first_activation().unwrap();
    assert!(t.next_activation(&mut a));
    t.set_activation(&a).unwrap();
    t.set_unwind_cont(0).unwrap();
    *t.find_cont_param(0).unwrap() = Value::b32(1);
    assert!(t.resume().is_err(), "discarding g's frame must be rejected");

    let vp = compile(&prog).unwrap();
    let mut t = VmThread::new(&vp);
    t.start("f", &[], 1);
    t.run(1_000_000);
    let mut a = t.first_activation().unwrap();
    assert!(t.next_activation(&mut a));
    assert!(
        t.set_activation(&a).is_err(),
        "discarding g's frame must be rejected"
    );
}

/// The walk-and-unwind exchange above, through the engine-neutral
/// `Table1` trait on all five engines the one constructor builds:
/// values cross as machine words and the handle lives in the thread.
#[test]
fn the_table1_trait_dispatches_identically_on_every_engine() {
    let prog = program();
    let vp = compile(&prog).unwrap();
    let code = Code {
        program: Some(&prog),
        vm: Some(&vp),
        ..Code::default()
    };
    for engine in EngineId::ALL {
        for (x, expected) in [(3u64, 4u64), (100, 102)] {
            let end = with_engine(engine, &code, NopSink, Setup::default(), |t| {
                t.start("f", &[x], 1).unwrap();
                assert_eq!(t.run(1_000_000), Stop::Suspended);
                assert_eq!(t.yield_arg(0), 42);
                let v = t.yield_arg(1);
                assert!(t.first_activation());
                assert_eq!(t.get_descriptor(0), None, "g has no descriptor");
                assert!(t.next_activation()); // mid
                let d = t.get_descriptor(0).unwrap();
                assert_eq!(t.read_u32(d), 1);
                assert!(t.next_activation()); // f
                let d = t.get_descriptor(0).unwrap();
                assert_eq!(t.read_u32(d), 2);
                assert!(!t.next_activation());
                t.set_activation().unwrap();
                t.set_unwind_cont(if v < 10 { 0 } else { 1 }).unwrap();
                assert!(t.set_cont_param(0, v));
                assert!(!t.set_cont_param(1, v), "k takes one parameter");
                t.resume().unwrap();
                t.run(1_000_000)
            })
            .unwrap();
            assert_eq!(end, Stop::Halted(vec![expected]), "{}", engine.name());
        }
    }
}

/// `SetCutToCont` through the trait: the run-time system reads a
/// continuation the program stored to memory — a word on every engine
/// (the abstract machines store its flattened encoding) — and cuts to
/// it.
#[test]
fn the_table1_trait_cuts_to_a_stored_continuation_on_every_engine() {
    let src = r#"
        f() {
            bits32 r;
            bits32[cell] = k;
            r = g() also cuts to k;
            return (0);
            continuation k(r):
            return (r * 3);
        }
        g() { yield(1, cell) also aborts; return (0); }
        data cell { bits32 0; }
    "#;
    let prog = cmm_cfg::build_program(&cmm_parse::parse_module(src).unwrap()).unwrap();
    let vp = compile(&prog).unwrap();
    let code = Code {
        program: Some(&prog),
        vm: Some(&vp),
        ..Code::default()
    };
    for engine in EngineId::ALL {
        let end = with_engine(engine, &code, NopSink, Setup::default(), |t| {
            t.start("f", &[], 1).unwrap();
            assert_eq!(t.run(1_000_000), Stop::Suspended);
            let k = u64::from(t.read_u32(t.yield_arg(1)));
            // A word that is not a continuation is refused, and the
            // refusal leaves the thread suspended as it was.
            for bogus in [12345, (1 << 32) | k] {
                let name = engine.name();
                assert!(t.set_cut_to_cont(bogus).is_err(), "{name} took {bogus:#x}");
                assert!(t.capture().is_ok(), "{name} left its suspension");
            }
            t.set_cut_to_cont(k).unwrap();
            assert!(t.set_cont_param(0, 14));
            t.resume().unwrap();
            t.run(1_000_000)
        })
        .unwrap();
        assert_eq!(end, Stop::Halted(vec![42]), "{}", engine.name());
    }
}
