//! `cmm-ir`'s verifier and pretty-printer on modules parsed from
//! source text. They live here because `cmm-ir` cannot depend on the
//! parser.

use cmm_ir::pretty::proc_to_string;
use cmm_ir::verify_module;
use cmm_parse::parse_module;

#[test]
fn accepts_well_formed_procedure() {
    let m = parse_module("f(bits32 x) { return (x); }").expect("source parses");
    assert_eq!(verify_module(&m), Vec::<String>::new());
}

#[test]
fn parsed_figure_style_program_is_well_formed() {
    let src = r#"
        data d { bits32 1, 2; }
        f(bits32 x) {
            bits32 r, e;
            r = g(x, k) also cuts to k also unwinds to ku also descriptor d;
            return (r);
            continuation k(e):
            return (e + 1);
            continuation ku(e):
            return (e + 2);
        }
        g(bits32 x, bits32 kk) {
            if x == 0 { cut to kk(7); }
            return (x);
        }
    "#;
    let m = parse_module(src).expect("source parses");
    assert_eq!(verify_module(&m), Vec::<String>::new());
}

#[test]
fn proc_printing_includes_annotations() {
    let src = r#"
        f(bits32 x) {
            bits32 y;
            y = g(x) also cuts to k also aborts;
            return (y);
            continuation k(y):
            return (y);
        }
    "#;
    let m = parse_module(src).expect("source parses");
    let s = proc_to_string(m.proc("f").expect("f is defined"));
    assert!(s.contains("f(bits32 x) {"), "{s}");
    assert!(s.contains("y = g(x) also cuts to k also aborts;"), "{s}");
    assert!(s.contains("continuation k(y):"), "{s}");
}
