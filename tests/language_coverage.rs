//! Breadth tests for the C-- language surface: floats, every width,
//! every statement form, parser diagnostics, and pretty-printer
//! round-trips of the figure sources.

use cmm_core::sem::{Machine, Status, Value};
use cmm_core::Compiler;
use cmm_ir::pretty;
use cmm_parse::parse_module;

fn interp(src: &str, proc: &str, args: Vec<Value>) -> Vec<Value> {
    Compiler::new()
        .source(src)
        .unwrap()
        .interpret(proc, args)
        .unwrap()
}

#[test]
fn float_arithmetic() {
    let src = r#"
        f() {
            float64 a, b, c;
            a = 1.5;
            b = 2.25;
            c = %fadd(a, %fmul(b, 2.0));
            if %flt(c, 7.0) { return (%feq(c, 6.0)); }
            return (0);
        }
    "#;
    assert_eq!(interp(src, "f", vec![]), vec![Value::b32(1)]);
}

#[test]
fn float32_round_trip_through_memory() {
    let src = r#"
        data buf { space 8; }
        f() {
            float32 a;
            a = 0.5::float32;
            float32[buf] = %fmul(a, a);
            return (%feq(float32[buf], 0.25::float32));
        }
    "#;
    assert_eq!(interp(src, "f", vec![]), vec![Value::b32(1)]);
}

#[test]
fn every_integer_width() {
    let src = r#"
        data buf { space 16; }
        f(bits32 x) {
            bits8 a; bits16 b; bits64 c;
            a = %lo8(x);
            b = %lo16(x);
            c = %zx64(x);
            bits8[buf] = a;
            bits16[buf + 2] = b;
            bits64[buf + 8] = %add(c, c);
            return (%zx32(bits8[buf]), %zx32(bits16[buf + 2]), %lo32(bits64[buf + 8]));
        }
    "#;
    assert_eq!(
        interp(src, "f", vec![Value::b32(0x1234_5678)]),
        vec![
            Value::b32(0x78),
            Value::b32(0x5678),
            Value::b32(0x2468_ACF0)
        ]
    );
}

#[test]
fn signed_versus_unsigned_comparisons() {
    let src = r#"
        f(bits32 a, bits32 b) {
            return (a < b, %lts(a, b), a > b, %gts(a, b));
        }
    "#;
    // a = -1 (0xffffffff), b = 1: unsigned a > b, signed a < b.
    assert_eq!(
        interp(src, "f", vec![Value::b32(0xffff_ffff), Value::b32(1)]),
        vec![Value::b32(0), Value::b32(1), Value::b32(1), Value::b32(0)]
    );
}

#[test]
fn parser_diagnostics_are_positioned() {
    for (src, fragment) in [
        ("f() { return }", "return"),
        ("f() { x = ; }", "expression"),
        ("f(bits32) { }", "parameter"),
        ("f() { goto; }", "label"),
        ("f() { g(x) also flies to k; }", "also"),
        ("f() { cut k(); }", "`to`"),
        ("data d { bogus 3; }", "data item"),
    ] {
        let err = parse_module(src).unwrap_err();
        assert!(
            err.message.contains(fragment),
            "source {src:?}: message {:?} should mention {fragment:?}",
            err.message
        );
        assert!(err.pos.line >= 1 && err.pos.col >= 1);
    }
}

#[test]
fn figure_sources_round_trip_through_the_pretty_printer() {
    let figures = [
        include_str_fig1(),
        r#"
        register bits32 exn_top;
        data stackspace { space 64; }
        f(bits32 x) {
            bits32 y, t;
            exn_top = stackspace;
            bits32[exn_top] = k;
            y = g(x) also cuts to k also unwinds to k also aborts also descriptor d;
            return <0/0> (y);
            continuation k(t):
            cut to t(y) also cuts to k;
        }
        g(bits32 a) { yield(1, a) also aborts; jump f(a); }
        data d { bits32 1; sym f; string "desc"; }
        "#
        .to_string(),
    ];
    for src in figures {
        let m1 = parse_module(&src).unwrap();
        let printed = pretty::module_to_string(&m1);
        let m2 = parse_module(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(m1, m2, "round trip changed:\n{printed}");
        // And printing again is a fixpoint.
        assert_eq!(printed, pretty::module_to_string(&m2));
    }
}

fn include_str_fig1() -> String {
    r#"
    export sp1;
    sp1(bits32 n) {
        bits32 s, p;
        if n == 1 { return (1, 1); }
        else { s, p = sp1(n - 1); return (s + n, p * n); }
    }
    "#
    .to_string()
}

#[test]
fn hex_literals_and_width_suffixes() {
    let src = "f() { bits64 c; c = 0xff::bits64; return (%lo32(c << 8)); }";
    assert_eq!(interp(src, "f", vec![]), vec![Value::b32(0xff00)]);
}

#[test]
fn comments_and_whitespace_are_ignored() {
    let src = "/* header */ f( /* inline */ bits32 x) { // line\n return (x); }";
    assert_eq!(interp(src, "f", vec![Value::b32(5)]), vec![Value::b32(5)]);
}

#[test]
fn imports_are_declarative_only() {
    // An import may be declared, not used: `build_program` refuses a
    // body that names one (tests/well_formedness.rs).
    let src = "import external_thing; f() { return (1); }";
    assert_eq!(interp(src, "f", vec![]), vec![Value::b32(1)]);
}

#[test]
fn shift_out_of_range_goes_wrong() {
    let prog =
        cmm_cfg::build_program(&parse_module("f(bits32 a) { return (1 << a); }").unwrap()).unwrap();
    let mut m = Machine::new(&prog);
    m.start("f", vec![Value::b32(40)]).unwrap();
    assert!(matches!(m.run(1000), Status::Wrong(_)));
}

#[test]
fn checked_shift_yields_instead() {
    let src = "f(bits32 a) { bits32 r; r = %%shl(1, a) also aborts; return (r); }";
    let prog = cmm_cfg::build_program(&parse_module(src).unwrap()).unwrap();
    let mut m = Machine::new(&prog);
    m.start("f", vec![Value::b32(40)]).unwrap();
    assert_eq!(m.run(10_000), Status::Suspended);
    // In range: fine.
    let mut m = Machine::new(&prog);
    m.start("f", vec![Value::b32(4)]).unwrap();
    assert_eq!(m.run(10_000), Status::Terminated(vec![Value::b32(16)]));
}
