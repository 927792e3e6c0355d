//! MiniM3 abstract syntax.
//!
//! A deliberately small Modula-3 flavour: integer-valued procedures,
//! mutable local variables, structured control flow, and — the point of
//! the exercise — declared exceptions with `try`/`except` and `raise`.

/// A MiniM3 program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct M3Program {
    /// Declared exceptions, e.g. `exception BadMove;`.
    pub exceptions: Vec<String>,
    /// Procedures; execution starts at `main`.
    pub procs: Vec<M3Proc>,
}

impl M3Program {
    /// Finds a procedure by name.
    pub fn proc(&self, name: &str) -> Option<&M3Proc> {
        self.procs.iter().find(|p| p.name == name)
    }
}

/// A procedure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct M3Proc {
    /// Its name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Local variables (`var x, y;`), collected from the body.
    pub locals: Vec<String>,
    /// The body.
    pub body: Vec<M3Stmt>,
}

/// A statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum M3Stmt {
    /// `x = e;`
    Assign(String, M3Expr),
    /// `x = f(args);` or bare `f(args);` (`dst` empty).
    Call {
        /// Variable receiving the result, if any.
        dst: Option<String>,
        /// Callee procedure name.
        callee: String,
        /// Arguments.
        args: Vec<M3Expr>,
    },
    /// `if e { ... } else { ... }`
    If(M3Expr, Vec<M3Stmt>, Vec<M3Stmt>),
    /// `while e { ... }`
    While(M3Expr, Vec<M3Stmt>),
    /// `return e;`
    Return(M3Expr),
    /// `raise E(e);` (the value defaults to 0).
    Raise(String, Option<M3Expr>),
    /// `try { ... } except { E1(x) => { ... } E2 => { ... } }`
    Try {
        /// The protected body.
        body: Vec<M3Stmt>,
        /// The handlers, tried in order.
        handlers: Vec<M3Handler>,
    },
}

/// One `except` arm.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct M3Handler {
    /// The exception caught.
    pub exception: String,
    /// The variable bound to the exception's value, if any.
    pub binds: Option<String>,
    /// The handler body.
    pub body: Vec<M3Stmt>,
}

/// An expression (pure; calls are statements).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum M3Expr {
    /// An integer literal.
    Num(u32),
    /// A variable reference.
    Var(String),
    /// A binary operation.
    Bin(M3Op, Box<M3Expr>, Box<M3Expr>),
}

/// Binary operators (unsigned 32-bit semantics, like the C-- they
/// compile to).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum M3Op {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (fails on zero divisors, like `%divu`)
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}
