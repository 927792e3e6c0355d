//! Golden tests for the paper's figures: the exact programs of
//! Figures 1, 5/6, and the Appendix A shapes, run end to end.

use cmm_core::sem::{Machine, Status, Value};
use cmm_core::Compiler;
use cmm_opt::ssa::{ssa_to_string, Ssa};

const FIGURE_1: &str = r#"
    /* Ordinary recursion */
    export sp1;
    sp1(bits32 n) {
        bits32 s, p;
        if n == 1 {
            return (1, 1);
        } else {
            s, p = sp1(n - 1);
            return (s + n, p * n);
        }
    }

    /* Tail recursion */
    export sp2;
    sp2(bits32 n) {
        jump sp2_help(n, 1, 1);
    }
    sp2_help(bits32 n, bits32 s, bits32 p) {
        if n == 1 {
            return (s, p);
        } else {
            jump sp2_help(n - 1, s + n, p * n);
        }
    }

    /* Loops */
    export sp3;
    sp3(bits32 n) {
        bits32 s, p;
        s = 1; p = 1;
      loop:
        if n == 1 {
            return (s, p);
        } else {
            s = s + n;
            p = p * n;
            n = n - 1;
            goto loop;
        }
    }
"#;

#[test]
fn figure1_sum_and_product() {
    let c = Compiler::new().source(FIGURE_1).unwrap();
    for proc in ["sp1", "sp2", "sp3"] {
        for n in [1u32, 2, 5, 12] {
            let expect_sum: u32 = (1..=n).sum();
            let expect_prod: u32 = (1..=n).product();
            let vals = c.interpret(proc, vec![Value::b32(n)]).unwrap();
            assert_eq!(
                vals,
                vec![Value::b32(expect_sum), Value::b32(expect_prod)],
                "{proc}({n}) on the abstract machine"
            );
            let (vm, _) = c.execute(proc, &[u64::from(n)], 2).unwrap();
            assert_eq!(
                vm,
                vec![u64::from(expect_sum), u64::from(expect_prod)],
                "{proc}({n}) on the simulated target"
            );
        }
    }
}

#[test]
fn figure1_unoptimized_matches_optimized() {
    let plain = Compiler::new()
        .options(cmm_opt::OptOptions::none())
        .source(FIGURE_1)
        .unwrap();
    let opt = Compiler::new().source(FIGURE_1).unwrap();
    for proc in ["sp1", "sp2", "sp3"] {
        assert_eq!(
            plain.interpret(proc, vec![Value::b32(9)]).unwrap(),
            opt.interpret(proc, vec![Value::b32(9)]).unwrap()
        );
    }
}

/// Figure 5's example procedure and its Figure 6 SSA form.
const FIGURE_5: &str = r#"
    f(bits32 a) {
        bits32 b, c, d;
        b = a;
        c = a;
        b, c = g() also unwinds to k;
        c = b + c + a;
        return (c);
        continuation k(d):
        return (b + d);
    }
    g() { return (1, 2); }
"#;

#[test]
fn figure6_ssa_numbering() {
    let prog = cmm_cfg::build_program(&cmm_parse::parse_module(FIGURE_5).unwrap()).unwrap();
    let g = prog.proc("f").unwrap();
    let ssa = Ssa::build(g);
    assert!(ssa.verify(g).is_empty());
    let rendered = ssa_to_string(g, &ssa);
    // The figure's essence: b and c each have multiple SSA versions
    // (the parameters copied in, the assignments, the call results).
    for needle in ["b.1", "b.2", "c.1", "c.2"] {
        assert!(
            rendered.contains(needle),
            "missing {needle} in:\n{rendered}"
        );
    }
    // The continuation is reachable only through the call's unwind
    // edge, and its use of b resolves to a version that dominates the
    // call — checked by verify() above.
    let normal = c_runs_figure5(&prog);
    assert_eq!(normal, vec![Value::b32(1 + 2 + 7)]);
}

fn c_runs_figure5(prog: &cmm_cfg::Program) -> Vec<Value> {
    let mut m = Machine::new(prog);
    m.start("f", vec![Value::b32(7)]).unwrap();
    match m.run(100_000) {
        Status::Terminated(vals) => vals,
        other => panic!("figure 5 did not terminate: {other:?}"),
    }
}

/// The paper's §4.1 example shape: passing a continuation to a callee
/// that cuts to it.
const SECTION_4_1: &str = r#"
        f(bits32 x) {
            bits32 y, r;
            float64 w;
            y = x + 1;
            r = g(x, k) also cuts to k;
            return (r);
            continuation k(x):
            return (x + y);
        }
        g(bits32 x, bits32 kk) {
            if x > 10 { cut to kk(100); }
            return (x);
        }
    "#;

#[test]
fn section41_cut_example() {
    let c = Compiler::new().source(SECTION_4_1).unwrap();
    assert_eq!(
        c.interpret("f", vec![Value::b32(3)]).unwrap(),
        vec![Value::b32(3)]
    );
    assert_eq!(
        c.interpret("f", vec![Value::b32(20)]).unwrap(),
        vec![Value::b32(121)]
    );
    let (vm, _) = c.execute("f", &[20], 1).unwrap();
    assert_eq!(vm, vec![121]);
}

/// Figure 10's shape in raw C--: a dynamic exception stack of
/// continuations with `cut to` dispatch.
const FIGURE_10: &str = r#"
        register bits32 exn_top;
        data exn_stack { space 256; }
        data BadMove { string "BadMove"; }
        data Other   { string "Other"; }

        raise_exn(bits32 tag, bits32 val) {
            bits32 k1;
            k1 = bits32[exn_top];
            exn_top = exn_top - 4;
            cut to k1(tag, val);
            return (0);
        }

        tryAMove(bits32 n) {
            bits32 t, exn_tag, arg;
            exn_top = exn_top + 4;
            bits32[exn_top] = k;
            t = mayRaise(n) also cuts to k also aborts;
            exn_top = exn_top - 4;
            return (t);
            continuation k(exn_tag, arg):
            if exn_tag == BadMove {
                return (arg + 1000);
            } else {
                return (7777);
            }
        }

        mayRaise(bits32 n) {
            bits32 r;
            if n > 10 {
                r = raise_exn(BadMove, n) also aborts;
            }
            return (n);
        }

        main(bits32 n) {
            bits32 r;
            exn_top = exn_stack;
            r = tryAMove(n) also aborts;
            return (r);
        }
    "#;

#[test]
fn figure10_shape_in_raw_cmm() {
    let c = Compiler::new().source(FIGURE_10).unwrap();
    assert_eq!(
        c.interpret("main", vec![Value::b32(5)]).unwrap(),
        vec![Value::b32(5)]
    );
    assert_eq!(
        c.interpret("main", vec![Value::b32(50)]).unwrap(),
        vec![Value::b32(1050)]
    );
    let (vm, _) = c.execute("main", &[50], 1).unwrap();
    assert_eq!(vm, vec![1050]);
}

/// Pretty-print ∘ re-parse is the identity (up to AST equality) on
/// every figure program above — the same round-trip invariant
/// `cmm-difftest` enforces on each generated case.
#[test]
fn figure_programs_round_trip_through_the_pretty_printer() {
    let figures = [
        ("figure 1", FIGURE_1),
        ("figure 5", FIGURE_5),
        ("section 4.1", SECTION_4_1),
        ("figure 10", FIGURE_10),
    ];
    for (name, src) in figures {
        let module = cmm_parse::parse_module(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Err(e) = cmm_cfg::build_program(&module) {
            panic!("{name}: build_program rejects the figure: {e}");
        }
        let printed = cmm_ir::pretty::module_to_string(&module);
        let reparsed = cmm_parse::parse_module(&printed)
            .unwrap_or_else(|e| panic!("{name}: pretty output does not re-parse: {e}\n{printed}"));
        assert_eq!(
            reparsed, module,
            "{name}: round trip changed the AST\n{printed}"
        );
    }
}
