//! Lowering MiniM3 to C--, one module per strategy.

pub mod cps;
pub mod direct;

use crate::ast::{M3Expr, M3Op, M3Program, M3Stmt};
use crate::parse::parse_minim3;
use cmm_ir::{BinOp, DataBlock, DataItem, Expr, Module, Name};
use cmm_vm::ArchProfile;
use std::fmt;

/// Which of the paper's implementation techniques to compile with.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Strategy {
    /// Run-time stack unwinding (Figures 8/9): `also unwinds to`,
    /// descriptors, and a dispatcher in the front-end run-time system.
    RuntimeUnwind,
    /// Stack cutting (Figure 10): a dynamic handler stack of
    /// continuation values and `cut to`.
    Cutting,
    /// Native-code stack unwinding: one abnormal return continuation
    /// per call site, compiled with the branch-table method.
    NativeUnwind,
    /// Continuation-passing style: heap-allocated return and handler
    /// closures, raises and returns are `jump`s.
    Cps,
    /// `setjmp`/`longjmp` flavoured stack cutting: every scope entry
    /// saves an architecture-sized `jmp_buf` (§2).
    Sjlj(ArchProfile),
}

impl Strategy {
    /// The four core techniques (without the §2 sjlj variant).
    pub const CORE: [Strategy; 4] = [
        Strategy::RuntimeUnwind,
        Strategy::Cutting,
        Strategy::NativeUnwind,
        Strategy::Cps,
    ];

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            Strategy::RuntimeUnwind => "runtime-unwind".into(),
            Strategy::Cutting => "cutting".into(),
            Strategy::NativeUnwind => "native-unwind".into(),
            Strategy::Cps => "cps".into(),
            Strategy::Sjlj(a) => format!("sjlj({})", a.name),
        }
    }

    /// Parses a strategy name as the `cmm` CLI and batch manifests
    /// spell it.
    ///
    /// # Errors
    ///
    /// Fails on an unknown name.
    pub fn parse(s: &str) -> Result<Strategy, String> {
        Ok(match s {
            "runtime-unwind" => Strategy::RuntimeUnwind,
            "cutting" => Strategy::Cutting,
            "native-unwind" => Strategy::NativeUnwind,
            "cps" => Strategy::Cps,
            "sjlj-pentium" => Strategy::Sjlj(cmm_vm::arch::PENTIUM_LINUX),
            "sjlj-sparc" => Strategy::Sjlj(cmm_vm::arch::SPARC_SOLARIS),
            "sjlj-alpha" => Strategy::Sjlj(cmm_vm::arch::ALPHA_DIGITAL_UNIX),
            other => return Err(format!("unknown strategy `{other}`")),
        })
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A front-end compilation error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LowerError {
    /// MiniM3 syntax error.
    Parse(String),
    /// A call to an undefined procedure.
    UndefinedProc(String),
    /// A raise or handler names an undeclared exception.
    UndefinedException(String),
    /// No `main` procedure.
    NoMain,
    /// Wrong number of arguments at a call.
    ArityMismatch {
        /// The callee.
        callee: String,
        /// Arguments supplied.
        got: usize,
        /// Parameters declared.
        want: usize,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Parse(m) => write!(f, "{m}"),
            LowerError::UndefinedProc(p) => write!(f, "call to undefined procedure `{p}`"),
            LowerError::UndefinedException(e) => write!(f, "undeclared exception `{e}`"),
            LowerError::NoMain => write!(f, "program has no `main` procedure"),
            LowerError::ArityMismatch { callee, got, want } => {
                write!(f, "`{callee}` takes {want} arguments, {got} supplied")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// The name of the generated entry wrapper. It takes `main`'s arguments
/// and returns `(status, value)`: status 0 for a normal result, 1 for an
/// uncaught exception (whose tag is then in `value`).
pub const ENTRY: &str = "m3$entry";

/// The name of the data block whose address is exception `E`'s tag.
pub fn tag_block(exc: &str) -> Name {
    Name::from(format!("exn${exc}"))
}

/// Compiles MiniM3 source with the given strategy.
///
/// # Errors
///
/// Returns a [`LowerError`] for syntax or semantic errors.
pub fn compile_minim3(src: &str, strategy: Strategy) -> Result<Module, LowerError> {
    let prog = parse_minim3(src).map_err(|e| LowerError::Parse(e.to_string()))?;
    compile_program(&prog, strategy)
}

/// Compiles a parsed MiniM3 program.
///
/// # Errors
///
/// Returns a [`LowerError`] for semantic errors.
pub fn compile_program(prog: &M3Program, strategy: Strategy) -> Result<Module, LowerError> {
    validate(prog)?;
    let prog = &unshadow(prog);
    let mut module = Module::new();
    // Exception tags: one data block per exception; its address is the
    // tag, and its contents (the name) aid diagnostics.
    for exc in &prog.exceptions {
        module.push_data(DataBlock::new(
            tag_block(exc),
            vec![DataItem::Str(exc.clone())],
        ));
    }
    match strategy {
        Strategy::Cps => cps::lower(prog, &mut module)?,
        _ => direct::lower(prog, &mut module, strategy)?,
    }
    Ok(module)
}

fn validate(prog: &M3Program) -> Result<(), LowerError> {
    if prog.proc("main").is_none() {
        return Err(LowerError::NoMain);
    }
    let check_stmts = |stmts: &[M3Stmt]| -> Result<(), LowerError> {
        let mut stack: Vec<&M3Stmt> = stmts.iter().collect();
        while let Some(s) = stack.pop() {
            match s {
                M3Stmt::Call { callee, args, .. } => {
                    let Some(p) = prog.proc(callee) else {
                        return Err(LowerError::UndefinedProc(callee.clone()));
                    };
                    if p.params.len() != args.len() {
                        return Err(LowerError::ArityMismatch {
                            callee: callee.clone(),
                            got: args.len(),
                            want: p.params.len(),
                        });
                    }
                }
                M3Stmt::Raise(e, _) if !prog.exceptions.iter().any(|x| x == e) => {
                    return Err(LowerError::UndefinedException(e.clone()));
                }
                M3Stmt::If(_, a, b) => {
                    stack.extend(a.iter());
                    stack.extend(b.iter());
                }
                M3Stmt::While(_, b) => stack.extend(b.iter()),
                M3Stmt::Try { body, handlers } => {
                    stack.extend(body.iter());
                    for h in handlers {
                        if !prog.exceptions.iter().any(|x| x == &h.exception) {
                            return Err(LowerError::UndefinedException(h.exception.clone()));
                        }
                        stack.extend(h.body.iter());
                    }
                }
                _ => {}
            }
        }
        Ok(())
    };
    for p in &prog.procs {
        check_stmts(&p.body)?;
    }
    Ok(())
}

/// The names without a `$` that a lowering or C-- gives a meaning of
/// its own: the global registers `exn_top` (cutting, sjlj) and `hp`
/// (CPS), the closure formals every CPS procedure takes, and `yield`.
const LOWERING_NAMES: [&str; 5] = [direct::EXN_TOP, cps::HP, "retk", "exnk", cmm_cfg::YIELD];

/// Renames the identifiers C-- would take for another symbol. MiniM3
/// looks a callee up among procedures only, so a variable may share a
/// procedure's name, and any identifier may be one of
/// [`LOWERING_NAMES`]; but `build_program` refuses a formal or local
/// named like a procedure or register. Such a variable `x` becomes
/// `x$v`, and a procedure `f` named like one of [`LOWERING_NAMES`]
/// becomes `f$p`, at its definition and every call: no MiniM3
/// identifier contains `$`, and a lowering makes no name of either
/// form. A program without such a name comes back unchanged.
fn unshadow(prog: &M3Program) -> M3Program {
    let mut prog = prog.clone();
    let procs: Vec<String> = prog.procs.iter().map(|p| p.name.clone()).collect();
    let mut rename = |n: &mut String, callee: bool| {
        if LOWERING_NAMES.contains(&n.as_str()) || !callee && procs.contains(n) {
            n.push_str(if callee { "$p" } else { "$v" });
        }
    };
    for p in &mut prog.procs {
        rename(&mut p.name, true);
        for n in p.params.iter_mut().chain(&mut p.locals) {
            rename(n, false);
        }
        walk_names(&mut p.body, &mut rename);
    }
    prog
}

/// Calls `f` on every name in `stmts`, with `true` for a callee and
/// `false` for a variable.
fn walk_names(stmts: &mut [M3Stmt], f: &mut impl FnMut(&mut String, bool)) {
    fn expr(e: &mut M3Expr, f: &mut impl FnMut(&mut String, bool)) {
        match e {
            M3Expr::Num(_) => {}
            M3Expr::Var(n) => f(n, false),
            M3Expr::Bin(_, a, b) => {
                expr(a, f);
                expr(b, f);
            }
        }
    }
    for s in stmts {
        match s {
            M3Stmt::Assign(x, e) => {
                f(x, false);
                expr(e, f);
            }
            M3Stmt::Call { dst, callee, args } => {
                dst.iter_mut().for_each(|d| f(d, false));
                f(callee, true);
                args.iter_mut().for_each(|a| expr(a, f));
            }
            M3Stmt::If(c, a, b) => {
                expr(c, f);
                walk_names(a, f);
                walk_names(b, f);
            }
            M3Stmt::While(c, b) => {
                expr(c, f);
                walk_names(b, f);
            }
            M3Stmt::Return(e) | M3Stmt::Raise(_, Some(e)) => expr(e, f),
            M3Stmt::Raise(_, None) => {}
            M3Stmt::Try { body, handlers } => {
                walk_names(body, f);
                for h in handlers {
                    h.binds.iter_mut().for_each(|b| f(b, false));
                    walk_names(&mut h.body, f);
                }
            }
        }
    }
}

/// Compiles a pure MiniM3 expression to a C-- expression.
pub fn lower_expr(e: &M3Expr) -> Expr {
    match e {
        M3Expr::Num(v) => Expr::b32(*v),
        M3Expr::Var(n) => Expr::var(n.as_str()),
        M3Expr::Bin(op, a, b) => {
            let op = match op {
                M3Op::Add => BinOp::Add,
                M3Op::Sub => BinOp::Sub,
                M3Op::Mul => BinOp::Mul,
                M3Op::Div => BinOp::DivU,
                M3Op::Mod => BinOp::ModU,
                M3Op::Eq => BinOp::Eq,
                M3Op::Ne => BinOp::Ne,
                M3Op::Lt => BinOp::LtU,
                M3Op::Le => BinOp::LeU,
                M3Op::Gt => BinOp::GtU,
                M3Op::Ge => BinOp::GeU,
            };
            Expr::binary(op, lower_expr(a), lower_expr(b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_errors() {
        let no_main = parse_minim3("proc f(x) { return x; }").unwrap();
        assert_eq!(
            compile_program(&no_main, Strategy::Cutting).unwrap_err(),
            LowerError::NoMain
        );

        let bad_call = parse_minim3("proc main(x) { var r; r = nope(x); return r; }").unwrap();
        assert!(matches!(
            compile_program(&bad_call, Strategy::Cutting).unwrap_err(),
            LowerError::UndefinedProc(_)
        ));

        let bad_exc = parse_minim3("proc main(x) { raise Nope; }").unwrap();
        assert!(matches!(
            compile_program(&bad_exc, Strategy::Cutting).unwrap_err(),
            LowerError::UndefinedException(_)
        ));

        let bad_arity =
            parse_minim3("proc main(x) { var r; r = f(x, x); return r; } proc f(a) { return a; }")
                .unwrap();
        assert!(matches!(
            compile_program(&bad_arity, Strategy::Cutting).unwrap_err(),
            LowerError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn unshadow_renames_only_names_c_minus_minus_would_take() {
        let src = "proc hp(x) { return x; } \
                   proc main(n) { var hp, r; hp = n; r = hp(hp); r = hp + r; return r; }";
        let prog = parse_minim3(src).unwrap();
        let renamed = unshadow(&prog);
        assert_eq!(renamed.procs[0].name, "hp$p");
        let main = &renamed.procs[1];
        assert_eq!(main.params, ["n"]);
        assert_eq!(main.locals, ["hp$v", "r"]);
        let M3Stmt::Call { dst, callee, args } = &main.body[1] else {
            panic!("{:?}", main.body[1]);
        };
        assert_eq!((dst.as_deref(), callee.as_str()), (Some("r"), "hp$p"));
        assert_eq!(args, &[M3Expr::Var("hp$v".into())]);
        let plain = parse_minim3("proc main(n) { var r; r = n; return r; }").unwrap();
        assert_eq!(unshadow(&plain), plain);
    }

    #[test]
    fn tag_blocks_emitted() {
        let m =
            compile_minim3("exception E; proc main(x) { return x; }", Strategy::Cutting).unwrap();
        assert!(m.data_block("exn$E").is_some());
    }
}
