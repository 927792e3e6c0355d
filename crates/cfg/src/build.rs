//! Translation of C-- source into Abstract C-- (§5.3 of the paper).
//!
//! "To translate a continuation, create a `CopyIn` node naming the
//! parameters of the continuation, and whose successor is the statement
//! following the continuation. ... To translate a call, create a
//! `CopyOut` node that puts the values of the parameters in the
//! value-passing area, and the successor of which is a `Call` node. ...
//! The `Call` node's continuation bundle is computed from the `also`
//! annotations. ... Jumps and cuts are translated similarly."
//!
//! In addition, this module synthesizes the checking procedures for
//! fallible primitives (§4.3): a call to `%%divu` behaves exactly like a
//! call to the procedure
//!
//! ```text
//! %%divu(bits32 p, bits32 q) {
//!     if q == 0 { yield(DIVZERO) also aborts; }
//!     return (%divu(p, q));
//! }
//! ```

use crate::graph::{Graph, NodeId, Program};
use crate::image::DataImage;
use crate::node::{Bundle, Node};
use crate::YIELD;
use cmm_ir::{Annotations, BinOp, BodyItem, Expr, Lvalue, Module, Name, Proc, Stmt, Ty, Width};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Yield codes reserved by the implementation.
///
/// Front ends choose their own codes for their exceptions; the code for a
/// failed checked primitive is fixed here so any front-end run-time
/// system can recognize it.
pub mod yield_codes {
    /// A checked primitive failed (zero divisor, signed overflow, or
    /// out-of-range shift).
    pub const DIVZERO: u64 = 1;
    /// First code available for front-end use.
    pub const FIRST_USER: u64 = 256;
}

/// An error detected while translating a module to Abstract C--.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// An annotation names a continuation not declared in the procedure.
    UnknownContinuation {
        /// The procedure containing the bad annotation.
        proc: Name,
        /// The missing continuation name.
        cont: Name,
    },
    /// A `goto` targets a label that does not exist.
    UnknownLabel {
        /// The procedure containing the bad goto.
        proc: Name,
        /// The missing label.
        label: Name,
    },
    /// A name in an expression (a callee included) is not a variable or
    /// continuation of the procedure, nor a procedure, data block or
    /// global register of the module.
    UnknownName {
        /// The procedure mentioning the name.
        proc: Name,
        /// The unknown name.
        name: Name,
    },
    /// An assignment target is not a variable of the procedure or a
    /// global register, or a call result is not a variable of the
    /// procedure.
    NotAVariable {
        /// The procedure with the assignment.
        proc: Name,
        /// The name assigned to.
        name: Name,
    },
    /// Two variables, labels, or continuations share a name.
    DuplicateName {
        /// The procedure with the clash.
        proc: Name,
        /// The duplicated name.
        name: Name,
    },
    /// A variable, label or continuation takes a top-level name.
    ShadowsTopLevel {
        /// The procedure with the declaration.
        proc: Name,
        /// The name it declares.
        name: Name,
    },
    /// Two top-level declarations share a name.
    DuplicateSymbol(Name),
    /// A `sym` initializer refers to an undefined symbol.
    UndefinedSymbol(Name),
    /// A continuation parameter is not a declared variable of the
    /// enclosing procedure.
    UndeclaredContParam {
        /// The procedure.
        proc: Name,
        /// The continuation.
        cont: Name,
        /// The offending parameter.
        param: Name,
    },
    /// A declaration takes the reserved name `yield` or a `%` name.
    ReservedName(Name),
    /// An unknown `%%` primitive is called.
    UnknownPrimitive(Name),
    /// A `%%` primitive is called with other than 2 arguments and 1
    /// result.
    PrimitiveArity {
        /// The procedure with the call.
        proc: Name,
        /// The primitive.
        prim: Name,
    },
    /// A parallel assignment has more or fewer values than targets.
    AssignArity {
        /// The procedure with the assignment.
        proc: Name,
        /// Number of targets.
        targets: usize,
        /// Number of values.
        values: usize,
    },
    /// `return <i/n>` with `i > n`.
    ReturnIndex {
        /// The procedure with the return.
        proc: Name,
        /// The alternate index.
        index: u32,
        /// The alternate count.
        count: u32,
    },
    /// An `also descriptor` name is not a data block.
    NotADescriptor {
        /// The procedure with the annotation.
        proc: Name,
        /// The name.
        name: Name,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownContinuation { proc, cont } => {
                write!(f, "procedure `{proc}`: annotation names unknown continuation `{cont}`")
            }
            BuildError::UnknownLabel { proc, label } => {
                write!(f, "procedure `{proc}`: goto targets unknown label `{label}`")
            }
            BuildError::UnknownName { proc, name } => write!(
                f,
                "procedure `{proc}`: `{name}` is not a variable, continuation, procedure, data block or global register"
            ),
            BuildError::NotAVariable { proc, name } => {
                write!(f, "procedure `{proc}`: `{name}` is not a variable it can assign")
            }
            BuildError::DuplicateName { proc, name } => {
                write!(f, "procedure `{proc}`: duplicate name `{name}`")
            }
            BuildError::ShadowsTopLevel { proc, name } => {
                write!(f, "procedure `{proc}`: `{name}` is a top-level symbol")
            }
            BuildError::DuplicateSymbol(n) => write!(f, "duplicate top-level symbol `{n}`"),
            BuildError::UndefinedSymbol(n) => write!(f, "undefined symbol `{n}` in data block"),
            BuildError::UndeclaredContParam { proc, cont, param } => write!(
                f,
                "procedure `{proc}`: continuation `{cont}` parameter `{param}` is not a declared variable"
            ),
            BuildError::ReservedName(n) => write!(f, "`{n}` is a reserved name"),
            BuildError::UnknownPrimitive(n) => write!(f, "unknown checked primitive `{n}`"),
            BuildError::PrimitiveArity { proc, prim } => write!(
                f,
                "procedure `{proc}`: checked primitive `{prim}` takes 2 arguments and 1 result"
            ),
            BuildError::AssignArity {
                proc,
                targets,
                values,
            } => write!(
                f,
                "procedure `{proc}`: parallel assignment of {targets} targets from {values} values"
            ),
            BuildError::ReturnIndex { proc, index, count } => write!(
                f,
                "procedure `{proc}`: `return <{index}/{count}>` index exceeds the alternate count"
            ),
            BuildError::NotADescriptor { proc, name } => {
                write!(f, "procedure `{proc}`: descriptor `{name}` is not a data block")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// What a top-level name declares. Imports declare nothing a procedure
/// body may use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Top {
    Proc,
    Data,
    Register,
}

/// `yield` and the `%` names belong to the builder's own calls (the
/// run-time system and the checked primitives), so no declaration may
/// take one.
fn check_unreserved(n: &Name) -> Result<(), BuildError> {
    if n == YIELD || n.as_str().starts_with('%') {
        return Err(BuildError::ReservedName(n.clone()));
    }
    Ok(())
}

/// Translates a module into an Abstract C-- [`Program`].
///
/// This is the one well-formedness check. The back ends rely on it and
/// never re-check a name; dynamic mismatches (cutting to a value that
/// is not a continuation, a `return <i/n>` whose `n` differs from the
/// call site's) stay the unchecked run-time errors of §4. It checks
/// each name where the source statement uses it:
///
/// * an operand or callee is a variable or continuation of the
///   procedure, or a procedure, data block or global register of the
///   module; a known `%%` primitive may only be a call's callee, with
///   2 arguments and 1 result (§4.3);
/// * an assignment target is a variable or global register, and a call
///   result or continuation parameter (§4.1) a variable of the
///   procedure;
/// * an annotation names continuations of the procedure (§4.4) and
///   data blocks as descriptors;
/// * a parallel assignment has one value per target, and
///   `return <i/n>` has `i ≤ n`.
///
/// Top-level, variable, label and continuation names are unique, no
/// variable, label or continuation takes a top-level name, and none is
/// `yield` or a `%` name.
///
/// # Errors
///
/// Returns the first [`BuildError`] found.
pub fn build_program(module: &Module) -> Result<Program, BuildError> {
    let image = DataImage::link(module).map_err(BuildError::UndefinedSymbol)?;

    let mut top: BTreeMap<Name, Top> = BTreeMap::new();
    let decls = module
        .procs()
        .map(|p| (&p.name, Top::Proc))
        .chain(module.data_blocks().map(|b| (&b.name, Top::Data)))
        .chain(module.registers().map(|r| (&r.name, Top::Register)));
    for (n, kind) in decls {
        check_unreserved(n)?;
        if top.insert(n.clone(), kind).is_some() {
            return Err(BuildError::DuplicateSymbol(n.clone()));
        }
    }

    let mut program = Program {
        procs: BTreeMap::new(),
        globals: module.registers().cloned().collect(),
        image,
    };

    let mut used_prims: BTreeMap<Name, BinOp> = BTreeMap::new();
    for p in module.procs() {
        let g = GraphBuilder::new(p, &top)?.run(p, &mut used_prims)?;
        program.procs.insert(p.name.clone(), g);
    }

    // Synthesize the run-time system's yield procedure: a single Yield
    // node ("the range of X includes only nodes of the form Entry e p or
    // Yield", §5).
    let yield_graph = Graph {
        name: Name::from(YIELD),
        nodes: vec![Node::Yield],
        entry: NodeId(0),
        arity: 1,
        vars: Vec::new(),
    };
    program.procs.insert(Name::from(YIELD), yield_graph);

    // Synthesize checking procedures for the fallible primitives used.
    for (prim, op) in used_prims {
        let g = synthesize_checked(&prim, op);
        program.procs.insert(prim, g);
    }

    Ok(program)
}

/// Builds the checking procedure for a `%%` primitive (§4.3).
fn synthesize_checked(name: &Name, op: BinOp) -> Graph {
    let p = Name::from("p");
    let q = Name::from("q");
    let mut g = Graph {
        name: name.clone(),
        nodes: Vec::new(),
        entry: NodeId(0),
        arity: 2,
        vars: vec![(p.clone(), Ty::B32), (q.clone(), Ty::B32)],
    };
    // Failure condition, per operator.
    let min32 = Expr::b32(0x8000_0000);
    let neg1 = Expr::b32(0xffff_ffff);
    let fail = match op {
        BinOp::DivU | BinOp::ModU => Expr::eq(Expr::var(&q), Expr::b32(0)),
        BinOp::DivS => Expr::binary(
            BinOp::Or,
            Expr::eq(Expr::var(&q), Expr::b32(0)),
            Expr::binary(
                BinOp::And,
                Expr::eq(Expr::var(&p), min32),
                Expr::eq(Expr::var(&q), neg1),
            ),
        ),
        BinOp::ModS => Expr::eq(Expr::var(&q), Expr::b32(0)),
        BinOp::Shl | BinOp::ShrU | BinOp::ShrS => {
            Expr::binary(BinOp::GeU, Expr::var(&q), Expr::b32(Width::W32.bits()))
        }
        _ => Expr::b32(0),
    };
    // ok: CopyOut [op(p, q)] -> Exit 0/0
    let exit = g.add(Node::Exit {
        index: 0,
        alternates: 0,
    });
    let ok = g.add(Node::CopyOut {
        exprs: vec![Expr::binary(op, Expr::var(&p), Expr::var(&q))],
        next: exit,
    });
    // failure: CopyOut [DIVZERO] -> Call yield (aborts) -> CopyIn [] -> ok
    let resume = g.add(Node::CopyIn {
        vars: vec![],
        next: ok,
    });
    let call = g.add(Node::Call {
        callee: Expr::var(YIELD),
        bundle: Bundle {
            returns: vec![resume],
            unwinds: vec![],
            cuts: vec![],
            aborts: true,
        },
        descriptors: vec![],
    });
    let copyout = g.add(Node::CopyOut {
        exprs: vec![Expr::Lit(cmm_ir::Lit::b32(yield_codes::DIVZERO as u32))],
        next: call,
    });
    let branch = g.add(Node::Branch {
        cond: fail,
        t: copyout,
        f: ok,
    });
    let copyin = g.add(Node::CopyIn {
        vars: vec![p, q],
        next: branch,
    });
    let entry = g.add(Node::Entry {
        conts: vec![],
        next: copyin,
    });
    g.entry = entry;
    g
}

struct GraphBuilder<'a> {
    g: Graph,
    /// How many of `g.vars` the source declares (formals, then locals);
    /// the temporaries the translation adds follow them.
    declared: usize,
    labels: BTreeMap<Name, NodeId>,
    conts: BTreeMap<Name, NodeId>,
    cont_order: Vec<Name>,
    /// The procedure's variable, label and continuation names so far.
    declared_names: BTreeSet<Name>,
    top: &'a BTreeMap<Name, Top>,
}

impl<'a> GraphBuilder<'a> {
    fn new(p: &Proc, top: &'a BTreeMap<Name, Top>) -> Result<GraphBuilder<'a>, BuildError> {
        let mut b = GraphBuilder {
            g: Graph {
                name: p.name.clone(),
                nodes: Vec::new(),
                entry: NodeId(0),
                arity: p.formals.len(),
                vars: Vec::new(),
            },
            declared: p.formals.len() + p.locals.len(),
            labels: BTreeMap::new(),
            conts: BTreeMap::new(),
            cont_order: Vec::new(),
            declared_names: BTreeSet::new(),
            top,
        };
        for (n, ty) in p.formals.iter().chain(p.locals.iter()) {
            b.declare(p, n)?;
            b.g.vars.push((n.clone(), *ty));
        }
        // Pre-allocate placeholder nodes for every label and continuation
        // so that forward references resolve. Placeholders are patched to
        // CopyIn nodes during translation.
        b.prescan(p, &p.body)?;
        Ok(b)
    }

    /// Declares a variable, label or continuation of `p`. None may take
    /// a top-level name: the sem engines look a name up in the
    /// procedure first and VM code generation in the module first.
    fn declare(&mut self, p: &Proc, n: &Name) -> Result<(), BuildError> {
        check_unreserved(n)?;
        if self.top.contains_key(n) || !self.declared_names.insert(n.clone()) {
            let (proc, name) = (p.name.clone(), n.clone());
            return Err(if self.top.contains_key(n) {
                BuildError::ShadowsTopLevel { proc, name }
            } else {
                BuildError::DuplicateName { proc, name }
            });
        }
        Ok(())
    }

    fn prescan(&mut self, p: &Proc, items: &[BodyItem]) -> Result<(), BuildError> {
        for item in items {
            match item {
                BodyItem::Label(l) => {
                    self.declare(p, l)?;
                    let id = self.g.add(Node::Yield); // placeholder
                    self.labels.insert(l.clone(), id);
                }
                BodyItem::Continuation { name, params } => {
                    self.declare(p, name)?;
                    for param in params {
                        if !self.is_var(param) {
                            return Err(BuildError::UndeclaredContParam {
                                proc: p.name.clone(),
                                cont: name.clone(),
                                param: param.clone(),
                            });
                        }
                    }
                    let id = self.g.add(Node::Yield); // placeholder
                    self.conts.insert(name.clone(), id);
                    self.cont_order.push(name.clone());
                }
                BodyItem::Stmt(Stmt::If { then_, else_, .. }) => {
                    self.prescan(p, then_)?;
                    self.prescan(p, else_)?;
                }
                BodyItem::Stmt(_) => {}
            }
        }
        Ok(())
    }

    fn run(
        mut self,
        p: &Proc,
        used_prims: &mut BTreeMap<Name, BinOp>,
    ) -> Result<Graph, BuildError> {
        // Falling off the end of a body behaves as a plain `return;`.
        let implicit_return = self.g.add(Node::Exit {
            index: 0,
            alternates: 0,
        });
        let body_head = self.items(p, &p.body, implicit_return, used_prims)?;
        let formals: Vec<Name> = p.formals.iter().map(|(n, _)| n.clone()).collect();
        let copyin = self.g.add(Node::CopyIn {
            vars: formals,
            next: body_head,
        });
        let conts: Vec<(Name, NodeId)> = self
            .cont_order
            .iter()
            .map(|n| (n.clone(), self.conts[n]))
            .collect();
        let entry = self.g.add(Node::Entry {
            conts,
            next: copyin,
        });
        self.g.entry = entry;
        Ok(self.g)
    }

    /// A variable the source declares (not a translation temporary).
    fn is_var(&self, n: &Name) -> bool {
        self.g.vars[..self.declared].iter().any(|(v, _)| v == n)
    }

    /// Checks every name in an expression: a variable or continuation
    /// of this procedure, or a procedure, data block or global register
    /// of the module.
    fn check_expr(&self, p: &Proc, e: &Expr) -> Result<(), BuildError> {
        let mut bad = None;
        e.visit_names(&mut |n| {
            if bad.is_none()
                && !self.is_var(n)
                && !self.conts.contains_key(n)
                && !self.top.contains_key(n)
            {
                bad = Some(n.clone());
            }
        });
        match bad {
            Some(name) => Err(BuildError::UnknownName {
                proc: p.name.clone(),
                name,
            }),
            None => Ok(()),
        }
    }

    fn check_exprs(&self, p: &Proc, es: &[Expr]) -> Result<(), BuildError> {
        es.iter().try_for_each(|e| self.check_expr(p, e))
    }

    /// Checks a name assigned to: a variable of this procedure, or (for
    /// an assignment, `global` set) a global register.
    fn check_target(&self, p: &Proc, n: &Name, global: bool) -> Result<(), BuildError> {
        if self.is_var(n) || (global && self.top.get(n) == Some(&Top::Register)) {
            return Ok(());
        }
        Err(BuildError::NotAVariable {
            proc: p.name.clone(),
            name: n.clone(),
        })
    }

    /// Checks a statement's annotations: "the names appearing in
    /// annotations are always names of continuations declared in the
    /// same procedure as the call site" (§4.4), and each descriptor is
    /// a data block.
    fn check_anns(&self, p: &Proc, anns: &Annotations) -> Result<(), BuildError> {
        if let Some(k) = anns.continuations().find(|k| !self.conts.contains_key(*k)) {
            return Err(BuildError::UnknownContinuation {
                proc: p.name.clone(),
                cont: k.clone(),
            });
        }
        if let Some(d) = anns
            .descriptors
            .iter()
            .find(|d| self.top.get(*d) != Some(&Top::Data))
        {
            return Err(BuildError::NotADescriptor {
                proc: p.name.clone(),
                name: d.clone(),
            });
        }
        Ok(())
    }

    /// Translates a statement sequence, given the node that follows it.
    /// Returns the head node.
    fn items(
        &mut self,
        p: &Proc,
        items: &[BodyItem],
        follow: NodeId,
        used_prims: &mut BTreeMap<Name, BinOp>,
    ) -> Result<NodeId, BuildError> {
        let mut next = follow;
        for item in items.iter().rev() {
            next = self.item(p, item, next, used_prims)?;
        }
        Ok(next)
    }

    /// The nodes of continuations `check_anns` accepted.
    fn resolve_conts(&self, names: &[Name]) -> Vec<NodeId> {
        names.iter().map(|n| self.conts[n]).collect()
    }

    fn bundle(&self, anns: &Annotations, normal_return: NodeId) -> Bundle {
        let mut returns = self.resolve_conts(&anns.returns_to);
        returns.push(normal_return);
        Bundle {
            returns,
            unwinds: self.resolve_conts(&anns.unwinds_to),
            cuts: self.resolve_conts(&anns.cuts_to),
            aborts: anns.aborts,
        }
    }

    fn item(
        &mut self,
        p: &Proc,
        item: &BodyItem,
        next: NodeId,
        used_prims: &mut BTreeMap<Name, BinOp>,
    ) -> Result<NodeId, BuildError> {
        match item {
            BodyItem::Label(l) => {
                let id = self.labels[l];
                self.g.nodes[id.index()] = Node::CopyIn { vars: vec![], next };
                Ok(id)
            }
            BodyItem::Continuation { name, params } => {
                let id = self.conts[name];
                self.g.nodes[id.index()] = Node::CopyIn {
                    vars: params.clone(),
                    next,
                };
                Ok(id)
            }
            BodyItem::Stmt(s) => self.stmt(p, s, next, used_prims),
        }
    }

    fn stmt(
        &mut self,
        p: &Proc,
        s: &Stmt,
        next: NodeId,
        used_prims: &mut BTreeMap<Name, BinOp>,
    ) -> Result<NodeId, BuildError> {
        match s {
            Stmt::Assign { lhs, rhs } => {
                if lhs.len() != rhs.len() {
                    return Err(BuildError::AssignArity {
                        proc: p.name.clone(),
                        targets: lhs.len(),
                        values: rhs.len(),
                    });
                }
                for l in lhs {
                    match l {
                        Lvalue::Var(v) => self.check_target(p, v, true)?,
                        Lvalue::Mem(_, a) => self.check_expr(p, a)?,
                    }
                }
                self.check_exprs(p, rhs)?;
                Ok(self.assign(lhs, rhs, next))
            }
            Stmt::If { cond, then_, else_ } => {
                self.check_expr(p, cond)?;
                let t = self.items(p, then_, next, used_prims)?;
                let f = self.items(p, else_, next, used_prims)?;
                Ok(self.g.add(Node::Branch {
                    cond: cond.clone(),
                    t,
                    f,
                }))
            }
            Stmt::Goto { target } => {
                self.labels
                    .get(target)
                    .copied()
                    .ok_or_else(|| BuildError::UnknownLabel {
                        proc: p.name.clone(),
                        label: target.clone(),
                    })
            }
            Stmt::Call {
                results,
                callee,
                args,
                anns,
            } => {
                for r in results {
                    self.check_target(p, r, false)?;
                }
                match callee {
                    // `%%` names are the checked primitives, which "take
                    // the form of procedure calls" (§4.3).
                    Expr::Name(n) if n.is_checked_primitive() => {
                        let op = BinOp::checked_primitive(n.as_str())
                            .ok_or_else(|| BuildError::UnknownPrimitive(n.clone()))?;
                        if args.len() != 2 || results.len() != 1 {
                            return Err(BuildError::PrimitiveArity {
                                proc: p.name.clone(),
                                prim: n.clone(),
                            });
                        }
                        used_prims.insert(n.clone(), op);
                    }
                    _ => self.check_expr(p, callee)?,
                }
                self.check_exprs(p, args)?;
                self.check_anns(p, anns)?;
                let copyin = self.g.add(Node::CopyIn {
                    vars: results.clone(),
                    next,
                });
                let bundle = self.bundle(anns, copyin);
                let call = self.g.add(Node::Call {
                    callee: callee.clone(),
                    bundle,
                    descriptors: anns.descriptors.clone(),
                });
                Ok(self.g.add(Node::CopyOut {
                    exprs: args.clone(),
                    next: call,
                }))
            }
            Stmt::Jump { callee, args } => {
                self.check_expr(p, callee)?;
                self.check_exprs(p, args)?;
                let jump = self.g.add(Node::Jump {
                    callee: callee.clone(),
                });
                Ok(self.g.add(Node::CopyOut {
                    exprs: args.clone(),
                    next: jump,
                }))
            }
            Stmt::Return { alt, args } => {
                let (index, alternates) = match alt {
                    Some(a) => (a.index, a.count),
                    None => (0, 0),
                };
                if index > alternates {
                    return Err(BuildError::ReturnIndex {
                        proc: p.name.clone(),
                        index,
                        count: alternates,
                    });
                }
                self.check_exprs(p, args)?;
                let exit = self.g.add(Node::Exit { index, alternates });
                Ok(self.g.add(Node::CopyOut {
                    exprs: args.clone(),
                    next: exit,
                }))
            }
            Stmt::CutTo { cont, args, anns } => {
                self.check_expr(p, cont)?;
                self.check_exprs(p, args)?;
                self.check_anns(p, anns)?;
                let cut = self.g.add(Node::CutTo {
                    cont: cont.clone(),
                    cuts: self.resolve_conts(&anns.cuts_to),
                });
                Ok(self.g.add(Node::CopyOut {
                    exprs: args.clone(),
                    next: cut,
                }))
            }
            Stmt::Yield { args, anns } => {
                self.check_exprs(p, args)?;
                self.check_anns(p, anns)?;
                let copyin = self.g.add(Node::CopyIn { vars: vec![], next });
                let bundle = self.bundle(anns, copyin);
                let call = self.g.add(Node::Call {
                    callee: Expr::var(YIELD),
                    bundle,
                    descriptors: anns.descriptors.clone(),
                });
                Ok(self.g.add(Node::CopyOut {
                    exprs: args.clone(),
                    next: call,
                }))
            }
        }
    }

    /// Lowers a (possibly parallel) assignment to a chain of `Assign`
    /// nodes. Parallel assignments evaluate every right-hand side before
    /// writing any target, which the lowering realizes with fresh
    /// temporaries.
    fn assign(&mut self, lhs: &[Lvalue], rhs: &[Expr], next: NodeId) -> NodeId {
        if lhs.len() == 1 {
            return self.g.add(Node::Assign {
                lhs: lhs[0].clone(),
                rhs: rhs[0].clone(),
                next,
            });
        }
        let temps: Vec<Name> = lhs
            .iter()
            .map(|l| {
                let ty = match l {
                    Lvalue::Var(v) => self.g.var_ty(v).unwrap_or(Ty::B32),
                    Lvalue::Mem(ty, _) => *ty,
                };
                self.g.fresh_var("par", ty)
            })
            .collect();
        // Writes (backward): target_i = temp_i.
        let mut head = next;
        for (l, t) in lhs.iter().zip(&temps).rev() {
            head = self.g.add(Node::Assign {
                lhs: l.clone(),
                rhs: Expr::var(t),
                next: head,
            });
        }
        // Reads (backward): temp_i = rhs_i.
        for (t, e) in temps.iter().zip(rhs).rev() {
            head = self.g.add(Node::Assign {
                lhs: Lvalue::Var(t.clone()),
                rhs: e.clone(),
                next: head,
            });
        }
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_parse::parse_module;

    fn build(src: &str) -> Program {
        build_program(&parse_module(src).unwrap()).unwrap()
    }

    #[test]
    fn builds_figure1() {
        let p = build(
            r#"
            export sp1;
            sp1(bits32 n) {
                bits32 s, p;
                if n == 1 { return (1, 1); }
                else { s, p = sp1(n - 1); return (s + n, p * n); }
            }
            "#,
        );
        let g = p.proc("sp1").unwrap();
        assert!(matches!(g.node(g.entry), Node::Entry { .. }));
        // Entry -> CopyIn formals -> Branch.
        let Node::Entry { next, .. } = g.node(g.entry) else {
            unreachable!()
        };
        let Node::CopyIn { vars, next } = g.node(*next) else {
            panic!("expected CopyIn")
        };
        assert_eq!(vars.len(), 1);
        assert!(matches!(g.node(*next), Node::Branch { .. }));
        // yield procedure synthesized.
        assert!(p.proc(YIELD).is_some());
    }

    #[test]
    fn call_produces_copyout_call_copyin() {
        let p =
            build("f(bits32 x) { bits32 y; y = g(x); return (y); } g(bits32 a) { return (a); }");
        let g = p.proc("f").unwrap();
        let copyouts: Vec<_> = g
            .ids()
            .filter(|&id| matches!(g.node(id), Node::CopyOut { .. }))
            .collect();
        // One CopyOut for the call, one for the return.
        assert_eq!(copyouts.len(), 2);
        let call = g
            .ids()
            .find(|&id| matches!(g.node(id), Node::Call { .. }))
            .expect("has a call node");
        let Node::Call { bundle, .. } = g.node(call) else {
            unreachable!()
        };
        assert_eq!(bundle.returns.len(), 1);
        assert!(
            matches!(g.node(bundle.normal_return()), Node::CopyIn { vars, .. } if vars.len() == 1)
        );
    }

    #[test]
    fn continuations_bound_at_entry() {
        let p = build(
            r#"
            f(bits32 x) {
                bits32 y;
                y = g(x) also cuts to k also unwinds to k;
                return (y);
                continuation k(y):
                return (y);
            }
            g(bits32 a) { return (a); }
            "#,
        );
        let g = p.proc("f").unwrap();
        assert_eq!(g.continuations().len(), 1);
        let k = g.continuation("k").unwrap();
        assert!(matches!(g.node(k), Node::CopyIn { vars, .. } if vars.len() == 1));
        let call = g
            .ids()
            .find(|&id| matches!(g.node(id), Node::Call { .. }))
            .unwrap();
        let Node::Call { bundle, .. } = g.node(call) else {
            unreachable!()
        };
        assert_eq!(bundle.cuts, vec![k]);
        assert_eq!(bundle.unwinds, vec![k]);
    }

    #[test]
    fn goto_resolves_forward_and_backward() {
        let p = build(
            r#"
            f(bits32 n) {
                bits32 s;
                s = 0;
              loop:
                if n == 0 { goto done; } else { s = s + n; n = n - 1; goto loop; }
              done:
                return (s);
            }
            "#,
        );
        let g = p.proc("f").unwrap();
        // Both labels become CopyIn join points.
        let joins = g
            .ids()
            .filter(|&id| matches!(g.node(id), Node::CopyIn { vars, .. } if vars.is_empty()))
            .count();
        assert!(joins >= 2, "expected join nodes for labels, got {joins}");
    }

    #[test]
    fn parallel_assignment_uses_temporaries() {
        let p = build("f(bits32 a, bits32 b) { a, b = b, a; return (a, b); }");
        let g = p.proc("f").unwrap();
        assert!(g.vars.iter().any(|(n, _)| n.as_str().starts_with("$par")));
    }

    #[test]
    fn checked_primitive_synthesized() {
        let p =
            build("f(bits32 a, bits32 b) { bits32 r; r = %%divu(a, b) also aborts; return (r); }");
        let g = p.proc("%%divu").expect("checking procedure synthesized");
        assert_eq!(g.arity, 2);
        // It contains a call to yield with aborts set.
        let call = g
            .ids()
            .find(|&id| matches!(g.node(id), Node::Call { .. }))
            .unwrap();
        let Node::Call { bundle, callee, .. } = g.node(call) else {
            unreachable!()
        };
        assert_eq!(callee, &Expr::var(YIELD));
        assert!(bundle.aborts);
    }

    #[test]
    fn unknown_continuation_rejected() {
        for kind in ["cuts", "unwinds", "returns"] {
            let src = format!("f() {{ g() also {kind} to nowhere; }} g() {{ return; }}");
            let m = parse_module(&src).unwrap();
            assert_eq!(
                build_program(&m).unwrap_err(),
                BuildError::UnknownContinuation {
                    proc: Name::from("f"),
                    cont: Name::from("nowhere")
                },
                "also {kind} to"
            );
        }
    }

    #[test]
    fn unknown_label_rejected() {
        let m = parse_module("f() { goto nowhere; }").unwrap();
        assert!(matches!(
            build_program(&m).unwrap_err(),
            BuildError::UnknownLabel { .. }
        ));
    }

    #[test]
    fn unknown_name_rejected() {
        let m = parse_module("f() { bits32 x; x = undeclared + 1; }").unwrap();
        assert!(matches!(
            build_program(&m).unwrap_err(),
            BuildError::UnknownName { .. }
        ));
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let m = parse_module("f() { return; } f() { return; }").unwrap();
        assert!(matches!(
            build_program(&m).unwrap_err(),
            BuildError::DuplicateSymbol(_)
        ));
    }

    #[test]
    fn undeclared_cont_param_rejected() {
        let m = parse_module("f() { return; continuation k(zz): return; }").unwrap();
        assert!(matches!(
            build_program(&m).unwrap_err(),
            BuildError::UndeclaredContParam { .. }
        ));
    }

    #[test]
    fn cut_to_annotation_edges_recorded() {
        let p = build(
            r#"
            f(bits32 x) {
                bits32 k1;
                cut to k1(x) also cuts to k;
                continuation k(x):
                return (x);
            }
            "#,
        );
        let g = p.proc("f").unwrap();
        let cut = g
            .ids()
            .find(|&id| matches!(g.node(id), Node::CutTo { .. }))
            .unwrap();
        let Node::CutTo { cuts, .. } = g.node(cut) else {
            unreachable!()
        };
        assert_eq!(cuts.len(), 1);
    }

    #[test]
    fn global_registers_carried_through() {
        let p = build("register bits32 exn_top; f() { exn_top = exn_top + 4; return; }");
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].name, Name::from("exn_top"));
    }

    #[test]
    fn accepts_well_formed_procedure() {
        build("f(bits32 x) { return (x); }");
    }

    #[test]
    fn parsed_figure_style_program_is_well_formed() {
        build(
            r#"
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
            "#,
        );
    }

    fn module_of(procs: Vec<Proc>) -> Module {
        let mut m = Module::new();
        for p in procs {
            m.push_proc(p);
        }
        m
    }

    fn err(m: &Module) -> BuildError {
        build_program(m).unwrap_err()
    }

    #[test]
    fn rejects_unknown_names_and_targets() {
        let mut p = Proc::new("f");
        p.body
            .push(BodyItem::Stmt(Stmt::assign("x", Expr::var("y"))));
        p.body.push(BodyItem::Stmt(Stmt::Goto {
            target: Name::from("nowhere"),
        }));
        let f = Name::from("f");
        assert_eq!(
            err(&module_of(vec![p.clone()])),
            BuildError::UnknownLabel {
                proc: f.clone(),
                label: Name::from("nowhere")
            }
        );
        p.body.pop();
        assert_eq!(
            err(&module_of(vec![p.clone()])),
            BuildError::NotAVariable {
                proc: f.clone(),
                name: Name::from("x")
            }
        );
        p.locals.push((Name::from("x"), Ty::B32));
        assert_eq!(
            err(&module_of(vec![p])),
            BuildError::UnknownName {
                proc: f,
                name: Name::from("y")
            }
        );
    }

    #[test]
    fn rejects_annotation_to_missing_continuation() {
        let mut p = Proc::new("f");
        p.locals.push((Name::from("r"), Ty::B32));
        p.body.push(BodyItem::Stmt(Stmt::Call {
            results: vec![Name::from("r")],
            callee: Expr::var("f"),
            args: vec![],
            anns: Annotations::cuts_to(["k"]),
        }));
        assert_eq!(
            err(&module_of(vec![p])),
            BuildError::UnknownContinuation {
                proc: Name::from("f"),
                cont: Name::from("k")
            }
        );
    }

    #[test]
    fn rejects_continuation_param_not_declared() {
        let mut p = Proc::new("f");
        p.body.push(BodyItem::Continuation {
            name: Name::from("k"),
            params: vec![Name::from("ghost")],
        });
        assert_eq!(
            err(&module_of(vec![p])),
            BuildError::UndeclaredContParam {
                proc: Name::from("f"),
                cont: Name::from("k"),
                param: Name::from("ghost")
            }
        );
    }

    #[test]
    fn rejects_bad_checked_primitive() {
        let mut p = Proc::new("f");
        p.locals.push((Name::from("r"), Ty::B32));
        p.body.push(BodyItem::Stmt(Stmt::Call {
            results: vec![Name::from("r")],
            callee: Expr::var("%%frobnicate"),
            args: vec![Expr::b32(1), Expr::b32(2)],
            anns: Annotations::none(),
        }));
        assert_eq!(
            err(&module_of(vec![p])),
            BuildError::UnknownPrimitive(Name::from("%%frobnicate"))
        );
    }

    #[test]
    fn rejects_arity_mismatch_and_duplicates() {
        let mut p = Proc::new("f");
        p.locals.push((Name::from("x"), Ty::B32));
        p.locals.push((Name::from("x"), Ty::B32));
        p.body.push(BodyItem::Stmt(Stmt::Assign {
            lhs: vec![Lvalue::var("x")],
            rhs: vec![Expr::b32(1), Expr::b32(2)],
        }));
        let f = Name::from("f");
        assert_eq!(
            err(&module_of(vec![p.clone(), Proc::new("f")])),
            BuildError::DuplicateSymbol(f.clone())
        );
        assert_eq!(
            err(&module_of(vec![p.clone()])),
            BuildError::DuplicateName {
                proc: f.clone(),
                name: Name::from("x")
            }
        );
        p.locals.pop();
        assert_eq!(
            err(&module_of(vec![p])),
            BuildError::AssignArity {
                proc: f,
                targets: 1,
                values: 2
            }
        );
    }

    #[test]
    fn implicit_return_at_end_of_body() {
        let p = build("f() { bits32 x; x = 1; }");
        let g = p.proc("f").unwrap();
        assert!(g.ids().any(|id| matches!(
            g.node(id),
            Node::Exit {
                index: 0,
                alternates: 0
            }
        )));
    }
}
