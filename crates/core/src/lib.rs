//! # cmm-core — the C-- system, end to end
//!
//! The facade over the whole reproduction of *"A single intermediate
//! language that supports multiple implementations of exceptions"*
//! (Ramsey & Peyton Jones, PLDI 2000):
//!
//! * [`ir`] — C-- abstract syntax (§3–§4);
//! * [`parse`] — concrete syntax;
//! * [`cfg`](mod@cfg) — Abstract C--: the control-flow-graph form of
//!   Table 2 and the §5.3 translation;
//! * [`sem`] — the §5.2 operational semantics (the abstract machine);
//! * [`rt`] — the Table 1 run-time interface;
//! * [`opt`] — Table 3 dataflow and the optimizer (§6);
//! * [`vm`] — the simulated native target: code generation, branch
//!   tables (Figs 3/4), constant-time `cut to`, unwind tables;
//! * [`obs`] — exception-flow tracing and the cost-model profiler
//!   behind `cmm trace` / `cmm profile`;
//! * [`frontend`] — MiniM3 and its four exception-implementation
//!   strategies (§2, Appendix A);
//! * [`pool`] — the batch-execution service behind `cmm batch`: a
//!   work-stealing job pool over a content-addressed compilation cache.
//!
//! [`Compiler`] packages the standard pipeline:
//!
//! ```
//! use cmm_core::Compiler;
//! use cmm_core::sem::Value;
//!
//! let compiler = Compiler::new().source(r#"
//!     sp3(bits32 n) {
//!         bits32 s, p;
//!         s = 1; p = 1;
//!       loop:
//!         if n == 1 { return (s, p); }
//!         else { s = s + n; p = p * n; n = n - 1; goto loop; }
//!     }
//! "#)?;
//!
//! // Run on the abstract machine (the formal semantics)...
//! let vals = compiler.interpret("sp3", vec![Value::b32(10)])?;
//! assert_eq!(vals, vec![Value::b32(55), Value::b32(3628800)]);
//!
//! // ...and on the simulated native target; results agree.
//! let (vals, cost) = compiler.execute("sp3", &[10], 2)?;
//! assert_eq!(vals, vec![55, 3628800]);
//! assert!(cost.instructions > 0);
//! # Ok::<(), cmm_core::Error>(())
//! ```

pub use cmm_cfg as cfg;
pub use cmm_chaos as chaos;
pub use cmm_frontend as frontend;
pub use cmm_ir as ir;
pub use cmm_obs as obs;
pub use cmm_opt as opt;
pub use cmm_parse as parse;
pub use cmm_pool as pool;
pub use cmm_rt as rt;
pub use cmm_sem as sem;
pub use cmm_serve as serve;
pub use cmm_snap as snap;
pub use cmm_vm as vm;

use cmm_cfg::{build_program, Program};
use cmm_ir::Module;
use cmm_opt::{optimize_program, OptOptions};
use cmm_sem::{Machine, Status, Value};
use cmm_vm::{compile, Cost, VmMachine, VmProgram, VmStatus};
use std::fmt;

/// Any error from the pipeline.
#[derive(Clone, PartialEq, Debug)]
pub enum Error {
    /// Concrete-syntax error.
    Parse(String),
    /// AST-to-Abstract-C-- translation error.
    Build(String),
    /// VM code-generation error.
    Codegen(String),
    /// The program went wrong at run time.
    Runtime(String),
    /// The program suspended in `yield` but no run-time system was
    /// provided (use `rt::Thread` / `vm::VmThread` directly for programs
    /// that need one).
    UnhandledYield,
    /// Fuel exhausted.
    OutOfFuel,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Build(m) => write!(f, "translation error: {m}"),
            Error::Codegen(m) => write!(f, "code generation error: {m}"),
            Error::Runtime(m) => write!(f, "runtime error: {m}"),
            Error::UnhandledYield => write!(f, "program yielded to a missing run-time system"),
            Error::OutOfFuel => write!(f, "out of fuel"),
        }
    }
}

impl std::error::Error for Error {}

/// The standard pipeline: parse → Abstract C-- → optimize → run.
#[derive(Clone, Debug)]
pub struct Compiler {
    opts: OptOptions,
    fuel: u64,
    module: Option<Module>,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler with default optimization options.
    pub fn new() -> Compiler {
        Compiler {
            opts: OptOptions::default(),
            fuel: 500_000_000,
            module: None,
        }
    }

    /// Sets the optimization options.
    pub fn options(mut self, opts: OptOptions) -> Compiler {
        self.opts = opts;
        self
    }

    /// Sets the execution fuel (transition/instruction budget).
    pub fn fuel(mut self, fuel: u64) -> Compiler {
        self.fuel = fuel;
        self
    }

    /// Parses C-- source.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on syntax errors.
    pub fn source(mut self, src: &str) -> Result<Compiler, Error> {
        let m = cmm_parse::parse_module(src).map_err(|e| Error::Parse(e.to_string()))?;
        self.module = Some(m);
        Ok(self)
    }

    /// Uses an already-built module (e.g. from a front end).
    pub fn module(mut self, m: Module) -> Compiler {
        self.module = Some(m);
        self
    }

    /// Translates and optimizes to Abstract C--.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Build`] on translation errors.
    pub fn program(&self) -> Result<Program, Error> {
        let m = self
            .module
            .as_ref()
            .ok_or_else(|| Error::Build("no module loaded".into()))?;
        let mut p = build_program(m).map_err(|e| Error::Build(e.to_string()))?;
        optimize_program(&mut p, &self.opts);
        Ok(p)
    }

    /// Compiles all the way to the simulated target.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Build`] or [`Error::Codegen`].
    pub fn vm_program(&self) -> Result<VmProgram, Error> {
        let p = self.program()?;
        compile(&p).map_err(|e| Error::Codegen(e.to_string()))
    }

    /// Runs a procedure on the abstract machine (the formal semantics of
    /// §5.2) and returns its results.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] if the program goes wrong;
    /// [`Error::UnhandledYield`] if it calls `yield` (programs that
    /// interact with a run-time system need `rt::Thread`).
    pub fn interpret(&self, proc: &str, args: Vec<Value>) -> Result<Vec<Value>, Error> {
        self.interpret_on(&self.program()?, proc, args)
    }

    /// [`Compiler::interpret`] over an already built [`Compiler::program`].
    ///
    /// # Errors
    ///
    /// As [`Compiler::interpret`].
    pub fn interpret_on(
        &self,
        p: &Program,
        proc: &str,
        args: Vec<Value>,
    ) -> Result<Vec<Value>, Error> {
        let mut m = Machine::new(p);
        m.start(proc, args)
            .map_err(|e| Error::Runtime(e.to_string()))?;
        match m.run(self.fuel) {
            Status::Terminated(vals) => Ok(vals),
            Status::Wrong(w) => Err(Error::Runtime(w.to_string())),
            Status::Suspended => Err(Error::UnhandledYield),
            Status::OutOfFuel => Err(Error::OutOfFuel),
            other => Err(Error::Runtime(format!("unexpected status {other:?}"))),
        }
    }

    /// Runs a procedure on the simulated target, returning
    /// `expected_results` values and the exact execution cost.
    ///
    /// # Errors
    ///
    /// As [`Compiler::interpret`], plus code-generation errors.
    pub fn execute(
        &self,
        proc: &str,
        args: &[u64],
        expected_results: usize,
    ) -> Result<(Vec<u64>, Cost), Error> {
        self.execute_on(&self.vm_program()?, proc, args, expected_results)
    }

    /// [`Compiler::execute`] over an already built
    /// [`Compiler::vm_program`].
    ///
    /// # Errors
    ///
    /// As [`Compiler::interpret`].
    pub fn execute_on(
        &self,
        vp: &VmProgram,
        proc: &str,
        args: &[u64],
        expected_results: usize,
    ) -> Result<(Vec<u64>, Cost), Error> {
        let mut m = VmMachine::new(vp);
        m.start(proc, args, expected_results);
        match m.run(self.fuel) {
            VmStatus::Halted(vals) => Ok((vals, m.cost)),
            VmStatus::Error(e) => Err(Error::Runtime(e)),
            VmStatus::Suspended => Err(Error::UnhandledYield),
            VmStatus::OutOfFuel => Err(Error::OutOfFuel),
            other => Err(Error::Runtime(format!("unexpected status {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SP1: &str = r#"
        sp1(bits32 n) {
            bits32 s, p;
            if n == 1 { return (1, 1); }
            else { s, p = sp1(n - 1); return (s + n, p * n); }
        }
    "#;

    #[test]
    fn pipeline_interpret_and_execute_agree() {
        let c = Compiler::new().source(SP1).unwrap();
        let sem = c.interpret("sp1", vec![Value::b32(7)]).unwrap();
        let (vm, _) = c.execute("sp1", &[7], 2).unwrap();
        let sem_bits: Vec<u64> = sem.iter().filter_map(Value::bits).collect();
        assert_eq!(sem_bits, vm);
    }

    #[test]
    fn optimization_levels_preserve_results() {
        let opt = Compiler::new().source(SP1).unwrap();
        let unopt = Compiler::new()
            .options(OptOptions::none())
            .source(SP1)
            .unwrap();
        assert_eq!(
            opt.interpret("sp1", vec![Value::b32(6)]).unwrap(),
            unopt.interpret("sp1", vec![Value::b32(6)]).unwrap()
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            Compiler::new().source("f( {"),
            Err(Error::Parse(_))
        ));
        let c = Compiler::new().source("f() { goto nowhere; }");
        assert!(matches!(c.unwrap().program(), Err(Error::Build(_))));
        let c = Compiler::new().source("f() { yield(1); return; }").unwrap();
        assert!(matches!(
            c.interpret("f", vec![]),
            Err(Error::UnhandledYield)
        ));
    }
}
