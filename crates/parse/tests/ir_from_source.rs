//! `cmm-ir`'s pretty-printer on modules parsed from source text. It
//! lives here because `cmm-ir` cannot depend on the parser.

use cmm_ir::pretty::proc_to_string;
use cmm_parse::parse_module;

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
