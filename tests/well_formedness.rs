//! `cmm_cfg::build_program` is the one well-formedness check, and the
//! back ends rely on it: a module it accepts must not make the VM code
//! generator or any of the five engines panic. A module that breaks a
//! static rule is refused with a `BuildError`, never left for a back
//! end to trip on.
//!
//! The matrix puts each kind of name in each position a name can take,
//! in one module template, and holds every module that parses to that
//! contract. The targeted tests pin the refusals that keep the engines
//! from disagreeing about a module none of them should run.

use cmm_core::chaos::EngineId;
use cmm_core::frontend::Code;
use cmm_core::ir::Module;
use cmm_core::obs::NopSink;
use cmm_difftest::oracle::{observe, Limits};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One of every kind of name the template declares, plus the reserved
/// names and an undeclared one.
const KINDS: [(&str, &str); 11] = [
    ("local", "loc"),
    ("formal", "n"),
    ("continuation", "k"),
    ("label", "lab"),
    ("procedure", "g"),
    ("data block", "dat"),
    ("global register", "greg"),
    ("import", "ext"),
    ("yield", "yield"),
    ("checked primitive", "%%divu"),
    ("undeclared", "nosuch"),
];

/// Every position a name can take; `$` stands for the name.
const POSITIONS: [(&str, &str); 14] = [
    ("operand", "r = $;"),
    ("assignment target", "$ = 3;"),
    ("store address", "bits32[$] = 3;"),
    ("condition", "if $ == 0 { r = 1; }"),
    ("callee", "r = $(n, m);"),
    ("argument", "r = g($);"),
    ("call result", "$ = g(n);"),
    ("jump callee", "jump $(n, m);"),
    ("return value", "return ($);"),
    ("cut target", "cut to $(n);"),
    ("yield argument", "yield($);"),
    ("cut annotation", "r = g(n) also cuts to $;"),
    ("descriptor", "r = g(n) also descriptor $;"),
    ("continuation parameter", "continuation c($):"),
];

fn module(stmt: &str) -> String {
    format!(
        "import ext;
register bits32 greg;
data dat {{ bits32 7; }}
g(bits32 a) {{ return (a); }}
f(bits32 n, bits32 m) {{
    bits32 loc, r;
    loc = n;
    r = 0;
    {stmt}
    r = g(loc) also cuts to k;
    return (r + m);
  lab:
    return (1);
  continuation k(loc):
    return (loc);
}}
"
    )
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// `Ok(false)` if `build_program` refuses `m`, `Ok(true)` if the
/// module compiles and runs on every engine, `Err` naming the first
/// stage that panicked or failed.
fn check(m: &Module) -> Result<bool, String> {
    let Ok(prog) = cmm_cfg::build_program(m) else {
        return Ok(false);
    };
    let vp = catch_unwind(|| cmm_vm::compile(&prog))
        .map_err(|e| format!("compile panicked: {}", panic_text(e)))?
        .map_err(|e| format!("compile failed: {e}"))?;
    let code = Code {
        program: Some(&prog),
        vm: Some(&vp),
        ..Code::default()
    };
    let limits = Limits::default();
    for engine in EngineId::ALL {
        catch_unwind(AssertUnwindSafe(|| {
            observe(engine, &code, (5, 2), &limits, None, NopSink)
        }))
        .map_err(|e| format!("{} panicked: {}", engine.name(), panic_text(e)))?;
    }
    Ok(true)
}

#[test]
fn every_accepted_module_compiles_and_runs_on_every_engine() {
    let mut failures = Vec::new();
    let mut accepted = Vec::new();
    for (kind, name) in KINDS {
        for (position, template) in POSITIONS {
            let src = module(&template.replace('$', name));
            let Ok(m) = cmm_parse::parse_module(&src) else {
                // The parser refuses a checked primitive as an expression.
                assert_eq!(kind, "checked primitive", "{position}:\n{src}");
                continue;
            };
            match check(&m) {
                Ok(true) => accepted.push((kind, position)),
                Ok(false) => {}
                Err(e) => failures.push(format!("{kind} as {position}: {e}")),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // An import is declared, never used; `yield` names no value; a
    // checked primitive is only ever a call's callee.
    for (kind, position) in &accepted {
        assert!(
            !["import", "yield", "undeclared", "label"].contains(kind),
            "{kind} accepted as {position}"
        );
        assert!(
            *kind != "checked primitive" || *position == "callee",
            "checked primitive accepted as {position}"
        );
    }
    assert!(accepted.contains(&("checked primitive", "callee")));
    for kind in ["procedure", "data block", "continuation"] {
        assert!(
            !accepted.contains(&(kind, "assignment target")),
            "{kind} accepted as an assignment target"
        );
    }
    for kind in ["local", "formal", "global register"] {
        assert!(accepted.contains(&(kind, "assignment target")), "{kind}");
    }
    assert!(accepted.contains(&("data block", "descriptor")));
    assert!(!accepted.contains(&("procedure", "descriptor")));
}

/// Modules the formal semantics and the VM tiers would run
/// differently: each is refused.
#[test]
fn modules_the_engines_disagreed_on_are_refused() {
    let refused = |src: &str| {
        let m = cmm_parse::parse_module(src).expect("source parses");
        cmm_cfg::build_program(&m).expect_err("build_program refuses it")
    };
    // One argument to a two-argument checked primitive.
    let e = refused("f(bits32 n) { bits32 r; r = %%divu(n); return (r); }");
    assert!(
        e.to_string().contains("takes 2 arguments and 1 result"),
        "{e}"
    );
    // An alternate index past the alternate count.
    let e = refused("f() { return <3/2> (1); }");
    assert!(e.to_string().contains("return <3/2>"), "{e}");
    // A descriptor that names no data block.
    let e = refused(
        "data dat { bits32 1; }
         f() { bits32 r; r = g() also descriptor nosuch, dat; return (r); }
         g() { return (0); }",
    );
    assert!(
        e.to_string().contains("`nosuch` is not a data block"),
        "{e}"
    );
}

/// A variable, label or continuation named like a procedure, data
/// block or global register: the sem engines read the procedure's own
/// name first and VM code generation the module's, so each is refused.
#[test]
fn procedure_scope_names_that_repeat_top_level_names_are_refused() {
    let probes = [
        // A call through a local named like a procedure.
        (
            "g(bits32 a) { return (a + 100); }
             f(bits32 n) { bits32 g, r; g = 0; r = g(n); return (r); }",
            "g",
        ),
        // A jump through the same local.
        (
            "g(bits32 a) { return (a + 100); }
             f(bits32 n) { bits32 g; g = 0; jump g(n); }",
            "g",
        ),
        // A continuation named like a global register.
        (
            "register bits32 k;
             f() {
                 bits32 r;
                 k = 7;
                 r = k;
                 if r == 7 { return (1); } else { return (2); }
               continuation k(r):
                 return (3);
             }",
            "k",
        ),
    ];
    for (src, shadowed) in probes {
        let m = cmm_parse::parse_module(src).expect("source parses");
        match cmm_cfg::build_program(&m) {
            Err(cmm_cfg::BuildError::ShadowsTopLevel { proc, name }) => {
                assert_eq!((proc.as_str(), name.as_str()), ("f", shadowed), "{src}");
            }
            other => panic!("expected a shadowing refusal, got {other:?}:\n{src}"),
        }
    }
}

/// What VM code generation cannot compile: a body that uses an
/// imported name, and an assignment to a procedure or data block.
#[test]
fn imported_names_and_assignments_to_symbols_are_refused() {
    for src in [
        "import ext; f() { return (ext); }",
        "f() { f = 3; }",
        "data dat { bits32 1; } f() { dat = 3; }",
    ] {
        let m = cmm_parse::parse_module(src).expect("source parses");
        assert!(cmm_cfg::build_program(&m).is_err(), "{src}");
    }
    // Declaring an import is still fine.
    let m = cmm_parse::parse_module("import ext; f() { return (1); }").unwrap();
    assert!(cmm_cfg::build_program(&m).is_ok());
}
