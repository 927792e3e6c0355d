//! Both recursive-descent parsers bound how deeply a source nests.
//!
//! A source at the limit must survive everything downstream on a
//! thread with the default 2 MiB stack: CFG build, the optimizer, code
//! generation, all five engines and `Drop`. One level deeper is a
//! positioned parse error, and so is a source far deeper, which would
//! otherwise overflow the stack of whichever thread compiles it. In
//! `cmm serve` that thread is shared, so the last test submits such a
//! source beside another tenant's program.

use cmm_chaos::{EngineId, Family};
use cmm_difftest::oracle::{run_source, Limits};
use cmm_frontend::driver::run_thread;
use cmm_frontend::engine::{with_engine, Code, Setup};
use cmm_frontend::{compile_minim3, Strategy};
use cmm_obs::NopSink;
use cmm_parse::parser::MAX_DEPTH;
use cmm_serve::{ServeConfig, Service, SubmitReq, ThreadState};

/// The default stack of a spawned thread.
const DEFAULT_STACK: usize = 2 << 20;

/// Runs `f` on a fresh thread with the default stack size.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(DEFAULT_STACK)
        .spawn(f)
        .expect("spawn a test thread")
        .join()
        .expect("the thread finishes without overflowing its stack")
}

/// C-- procedures `f(a, b)` whose deepest point nests exactly `depth`
/// levels, one per shape: a chain of unary minuses, parentheses around
/// a left-nested sum, nested primitive applications, nested `if`
/// blocks and an `else if` chain. In each, the `return` statement is
/// one level and its outermost expression another.
fn cmm_shapes(depth: usize) -> Vec<(&'static str, String)> {
    let k = depth - 2;
    let minus = format!("f(bits32 a, bits32 b) {{ return ({}a); }}", "- ".repeat(k));
    let parens = format!(
        "f(bits32 a, bits32 b) {{ return ({}a{}); }}",
        "(".repeat(k),
        " + 1)".repeat(k)
    );
    let ifs = format!(
        "f(bits32 a, bits32 b) {{ {} return (a); {} return (b); }}",
        "if a == 0 { ".repeat(k),
        "} ".repeat(k)
    );
    let prims = format!(
        "f(bits32 a, bits32 b) {{ return ({}a{}); }}",
        "%com(".repeat(k),
        ")".repeat(k)
    );
    let mut chain = String::from("f(bits32 a, bits32 b) { ");
    for i in 0..k {
        chain.push_str(&format!("if a == {i} {{ return ({i}); }} else "));
    }
    chain.push_str("{ return (b); } }");
    vec![
        ("unary minus", minus),
        ("parentheses", parens),
        ("primitives", prims),
        ("nested if", ifs),
        ("else-if chain", chain),
    ]
}

#[test]
fn cmm_sources_at_the_limit_run_everywhere_on_a_default_stack() {
    for (shape, src) in cmm_shapes(MAX_DEPTH) {
        on_default_stack(move || {
            for args in [(0, 7), (3, 7)] {
                if let Err(f) = run_source(&src, args, &Limits::default()) {
                    panic!("{shape} at depth {MAX_DEPTH}, args {args:?}: {f}");
                }
            }
        });
    }
}

#[test]
fn cmm_sources_past_the_limit_are_parse_errors() {
    let want = format!("nesting deeper than {MAX_DEPTH} levels");
    for depth in [MAX_DEPTH + 1, 100_000] {
        for (shape, src) in cmm_shapes(depth) {
            let want = want.clone();
            on_default_stack(move || {
                let e = cmm_parse::parse_module(&src).expect_err(shape);
                assert_eq!(e.message, want, "{shape} at depth {depth}");
                assert_eq!(e.pos.line, 1, "{shape} at depth {depth}");
            });
        }
    }
    // Negated data literals count too.
    let src = format!("data d {{ bits32 {}5; }}", "-".repeat(MAX_DEPTH));
    assert!(cmm_parse::parse_module(&src).is_ok());
    let src = format!("data d {{ bits32 {}5; }}", "-".repeat(MAX_DEPTH + 1));
    assert_eq!(cmm_parse::parse_module(&src).unwrap_err().message, want);
}

/// MiniM3 programs whose `main(x)` nests exactly `depth` levels, and
/// what `main(3)` returns: parentheses around a left-nested sum, nested
/// `if`, `while` and `try` blocks, and an `else if` chain. The `return`
/// statement is one level and its expression another.
fn m3_shapes(depth: usize) -> Vec<(&'static str, String, u32)> {
    let k = depth - 2;
    let parens = format!(
        "proc main(x) {{ return {}x{}; }}",
        "(".repeat(k),
        " + 1)".repeat(k)
    );
    let ifs = format!(
        "proc main(x) {{ {} return x; {} return 0; }}",
        "if x > 0 { ".repeat(k),
        "} ".repeat(k)
    );
    let whiles = format!(
        "proc main(x) {{ {} return x; {} return 0; }}",
        "while x > 0 { ".repeat(k),
        "} ".repeat(k)
    );
    let tries = format!(
        "exception E; proc main(x) {{ {} return x; {} return 0; }}",
        "try { ".repeat(k),
        "} except { E => { return 1; } } ".repeat(k)
    );
    let mut chain = String::from("proc main(x) { ");
    for i in 0..k {
        chain.push_str(&format!("if x == {} {{ return {i}; }} else ", i + 10));
    }
    chain.push_str("{ return x; } }");
    vec![
        ("parentheses", parens, 3 + k as u32),
        ("nested if", ifs, 3),
        ("nested while", whiles, 3),
        ("nested try", tries, 3),
        ("else-if chain", chain, 3),
    ]
}

/// Lowers `src` under each core strategy, builds, optimizes and
/// compiles it, then runs `main(3)` on all five engines, unoptimized
/// and optimized.
fn run_m3_everywhere(shape: &str, src: &str, want: u32) {
    for strategy in Strategy::CORE {
        let what = format!("{shape} under {strategy}");
        let module = compile_minim3(src, strategy).unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut prog = cmm_cfg::build_program(&module).unwrap_or_else(|e| panic!("{what}: {e}"));
        for optimize in [false, true] {
            if optimize {
                cmm_opt::optimize_program(&mut prog, &cmm_opt::OptOptions::default());
            }
            let vp = cmm_vm::compile(&prog).unwrap_or_else(|e| panic!("{what}: {e}"));
            for engine in EngineId::ALL {
                let code = match engine.family() {
                    Family::Sem => Code::sem(&prog),
                    Family::Vm => Code::vm(&vp),
                };
                let got = with_engine(engine, &code, NopSink, Setup::default(), |t| {
                    run_thread(t, &prog.image, strategy, &[3])
                });
                assert_eq!(
                    got,
                    Ok(Ok(want)),
                    "{what} on {} (optimized: {optimize})",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn minim3_programs_at_the_limit_run_everywhere_on_a_default_stack() {
    for (shape, src, want) in m3_shapes(cmm_frontend::parse::MAX_DEPTH) {
        on_default_stack(move || run_m3_everywhere(shape, &src, want));
    }
}

#[test]
fn minim3_programs_past_the_limit_are_parse_errors() {
    let limit = cmm_frontend::parse::MAX_DEPTH;
    for depth in [limit + 1, 10_000] {
        for (shape, src, _) in m3_shapes(depth) {
            on_default_stack(move || {
                let e = cmm_frontend::parse_minim3(&src).expect_err(shape);
                assert_eq!(
                    e.message,
                    format!("nesting deeper than {limit} levels"),
                    "{shape} at depth {depth}"
                );
            });
        }
    }
}

/// A source nested far past the limit fails its own thread with
/// `compile-error`; the other tenant's thread, compiled and run by the
/// same two workers, completes.
#[test]
fn a_too_deep_source_fails_only_its_own_serve_thread() {
    on_default_stack(|| {
        let deep = format!(
            "f(bits32 a, bits32 b) {{ return ({}a{}); }}",
            "(".repeat(100_000),
            ")".repeat(100_000)
        );
        let mut svc = Service::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let bad = svc
            .submit(SubmitReq {
                tenant: "deep".into(),
                source: deep,
                entry: "f".into(),
                args: vec![1, 2],
                results: 1,
                ..SubmitReq::default()
            })
            .unwrap();
        let good = svc
            .submit(SubmitReq {
                tenant: "fine".into(),
                source: "f(bits32 a, bits32 b) { return (a + b); }".into(),
                entry: "f".into(),
                args: vec![1, 2],
                results: 1,
                ..SubmitReq::default()
            })
            .unwrap();
        while !svc.idle() {
            svc.tick();
        }
        match svc.poll(bad).unwrap().state {
            ThreadState::Done { outcome } => assert_eq!(outcome, "compile-error"),
            other => panic!("expected a compile error, got {other:?}"),
        }
        match svc.poll(good).unwrap().state {
            ThreadState::Done { outcome } => assert_eq!(outcome, "halt [3]"),
            other => panic!("expected a halt, got {other:?}"),
        }
    });
}
