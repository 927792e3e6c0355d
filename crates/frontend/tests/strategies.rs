//! Cross-strategy equivalence: the same MiniM3 programs must produce the
//! same observable results under all four implementation techniques (and
//! the sjlj variant), on both execution substrates.
//!
//! This is the paper's central claim made executable: the four
//! techniques are interchangeable *policies* over one intermediate
//! language.

use cmm_frontend::workloads::*;
use cmm_frontend::{compile_minim3, run_sem, run_vm, M3Error, Strategy};
use cmm_vm::arch;

fn all_strategies() -> Vec<Strategy> {
    let mut v = Strategy::CORE.to_vec();
    v.push(Strategy::Sjlj(arch::PENTIUM_LINUX));
    v
}

fn check_everywhere(src: &str, args: &[u32], expected: u32) {
    for strategy in all_strategies() {
        let module = compile_minim3(src, strategy)
            .unwrap_or_else(|e| panic!("{strategy}: lower error: {e}"));
        let sem = run_sem(&module, strategy, args)
            .unwrap_or_else(|e| panic!("{strategy}/sem args {args:?}: {e}"));
        assert_eq!(sem, expected, "{strategy}/sem args {args:?}");
        let (vm, _) = run_vm(&module, strategy, args)
            .unwrap_or_else(|e| panic!("{strategy}/vm args {args:?}: {e}"));
        assert_eq!(vm, expected, "{strategy}/vm args {args:?}");
    }
}

#[test]
fn game_example_all_strategies() {
    for (seed, expected) in GAME_CASES {
        check_everywhere(GAME, &[seed], expected);
    }
}

#[test]
fn nested_handlers_and_rethrow() {
    for (which, expected) in NESTED_CASES {
        check_everywhere(NESTED, &[which], expected);
    }
}

#[test]
fn deep_raise_is_caught_at_the_top() {
    check_everywhere(&deep_raise(true), &[25], 43);
}

#[test]
fn deep_raise_without_handler_is_uncaught() {
    for strategy in all_strategies() {
        let module = compile_minim3(&deep_raise(false), strategy).unwrap();
        match run_sem(&module, strategy, &[10]) {
            Err(M3Error::Uncaught { exception }) => assert_eq!(exception, "Deep", "{strategy}"),
            other => panic!("{strategy}: expected uncaught, got {other:?}"),
        }
        match run_vm(&module, strategy, &[10]) {
            Err(M3Error::Uncaught { exception }) => assert_eq!(exception, "Deep", "{strategy}"),
            other => panic!("{strategy}: expected uncaught, got {other:?}"),
        }
    }
}

#[test]
fn raise_frequency_sweep() {
    for (n, m) in [(12, 0), (12, 1), (12, 3), (12, 11)] {
        check_everywhere(RAISE_FREQUENCY, &[n, m], raise_frequency_expected(n, m));
    }
}

#[test]
fn no_raise_workload() {
    check_everywhere(NO_RAISE, &[10], no_raise_expected(10));
}

#[test]
fn handler_uses_enclosing_locals() {
    for x in [2, 10] {
        check_everywhere(HANDLER_USES_LOCALS, &[x], handler_uses_locals_expected(x));
    }
}

#[test]
fn variables_may_share_a_procedure_or_lowering_name() {
    // MiniM3 resolves callees among procedures only; the lowering renames
    // what C-- would read as a procedure, register or CPS formal.
    let src = r#"
        exception E;
        proc sq(x) { return x * x; }
        proc exnk(x) { return x + 1; }
        proc main(n) {
            var sq, hp;
            sq = sq(n);
            hp = exnk(sq);
            try { raise E(hp); } except { E(exnk) => { sq = exnk + 1; } }
            return sq;
        }
    "#;
    check_everywhere(src, &[3], 11);
    let src = "proc sq(x) { return x * x; } proc main(n) { var sq; sq = n; return sq; }";
    check_everywhere(src, &[4], 4);
    let src =
        "proc main(exn_top) { var retk, yield; retk = exn_top + 1; yield = retk; return yield; }";
    check_everywhere(src, &[4], 5);
    check_everywhere("proc main(main) { return main + 1; }", &[4], 5);
}

#[test]
fn plain_computation_without_exceptions() {
    let src = r#"
        proc fib(n) {
            var a, b, t, i;
            a = 0; b = 1; i = 0;
            while i < n { t = a + b; a = b; b = t; i = i + 1; }
            return a;
        }
        proc main(n) { var r; r = fib(n); return r; }
    "#;
    check_everywhere(src, &[10], 55);
    check_everywhere(src, &[1], 1);
    check_everywhere(src, &[0], 0);
}

#[test]
fn handler_body_can_raise_to_outer_scope() {
    let src = r#"
        exception A, B;
        proc f(x) { if x == 1 { raise A(5); } return x; }
        proc main(x) {
            var r;
            try {
                try {
                    r = f(x);
                } except {
                    A(v) => { raise B(v + 1); }
                }
            } except {
                B(v) => { r = v + 100; }
                A(v) => { r = 0; }
            }
            return r;
        }
    "#;
    check_everywhere(src, &[1], 106);
    check_everywhere(src, &[7], 7);
}

#[test]
fn raise_in_loop_reuses_scope() {
    // Handler scope entered and exited dynamically many times.
    let src = r#"
        exception E;
        proc maybe(i) { if i % 3 == 0 { raise E(i); } return i; }
        proc main(n) {
            var i, acc, r;
            i = 1; acc = 0;
            while i <= n {
                try { r = maybe(i); acc = acc + r; }
                except { E(v) => { acc = acc + 100 + v; } }
                i = i + 1;
            }
            return acc;
        }
    "#;
    // i=1..6: 1+2+(100+3)+4+5+(100+6) = 221
    check_everywhere(src, &[6], 221);
}
