//! C-- statements and call-site annotations.

use crate::expr::Expr;
use crate::name::Name;
use crate::ty::Ty;
use std::fmt;

/// The target of an assignment: a variable or a typed memory location.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Lvalue {
    /// A local variable or global register.
    Var(Name),
    /// A typed memory store target, `type[addr]`.
    Mem(Ty, Expr),
}

impl Lvalue {
    /// A variable target.
    pub fn var(n: impl Into<Name>) -> Lvalue {
        Lvalue::Var(n.into())
    }

    /// A `bits32` memory target.
    pub fn mem32(addr: Expr) -> Lvalue {
        Lvalue::Mem(Ty::B32, addr)
    }
}

/// Call-site annotations (§4.4 of the paper).
///
/// "The `also` annotations add extra flow edges, from the call site to the
/// specified continuations or to the exit node of the procedure (in the
/// case of `also aborts`). These edges express precisely the constraints
/// that exception handling imposes, but no more."
///
/// The names appearing in annotations are always names of continuations
/// declared in the same procedure as the call site.
///
/// `descriptors` models §3.3's facility for a front end to "associate with
/// each call site one or more arbitrary static data blocks, or
/// descriptors", retrievable at run time via `GetDescriptor`; the names
/// must name data blocks in the same module.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Annotations {
    /// `also cuts to k, ...` — the callee (or something it calls) may cut
    /// the stack directly to these continuations. Callee-saves registers
    /// are killed along these edges.
    pub cuts_to: Vec<Name>,
    /// `also unwinds to k, ...` — the run-time system may unwind the stack
    /// to these continuations (`SetUnwindCont(t, n)` selects the n'th).
    /// Callee-saves registers are restored along these edges.
    pub unwinds_to: Vec<Name>,
    /// `also returns to k, ...` — alternate (abnormal) return
    /// continuations, targeted by `return <i/n>`; the normal return point
    /// is always last.
    pub returns_to: Vec<Name>,
    /// `also aborts` — the activation containing the call may be
    /// discarded entirely (e.g. by unwinding or cutting past it).
    pub aborts: bool,
    /// `also descriptor d, ...` — static descriptor data blocks attached
    /// to this call site for the front-end run-time system.
    pub descriptors: Vec<Name>,
}

impl Annotations {
    /// Annotations with no exceptional edges at all.
    pub fn none() -> Annotations {
        Annotations::default()
    }

    /// True if no annotation is present.
    pub fn is_empty(&self) -> bool {
        self.cuts_to.is_empty()
            && self.unwinds_to.is_empty()
            && self.returns_to.is_empty()
            && !self.aborts
            && self.descriptors.is_empty()
    }

    /// `also cuts to` the given continuations.
    pub fn cuts_to<N: Into<Name>>(ks: impl IntoIterator<Item = N>) -> Annotations {
        Annotations {
            cuts_to: ks.into_iter().map(Into::into).collect(),
            ..Default::default()
        }
    }

    /// `also unwinds to` the given continuations.
    pub fn unwinds_to<N: Into<Name>>(ks: impl IntoIterator<Item = N>) -> Annotations {
        Annotations {
            unwinds_to: ks.into_iter().map(Into::into).collect(),
            ..Default::default()
        }
    }

    /// `also returns to` the given continuations.
    pub fn returns_to<N: Into<Name>>(ks: impl IntoIterator<Item = N>) -> Annotations {
        Annotations {
            returns_to: ks.into_iter().map(Into::into).collect(),
            ..Default::default()
        }
    }

    /// Adds `also aborts`.
    pub fn and_aborts(mut self) -> Annotations {
        self.aborts = true;
        self
    }

    /// Adds a descriptor data block.
    pub fn and_descriptor(mut self, d: impl Into<Name>) -> Annotations {
        self.descriptors.push(d.into());
        self
    }

    /// Every continuation named in any annotation, in
    /// cuts/unwinds/returns order.
    pub fn continuations(&self) -> impl Iterator<Item = &Name> {
        self.cuts_to
            .iter()
            .chain(self.unwinds_to.iter())
            .chain(self.returns_to.iter())
    }
}

/// An abnormal-return specification `return <index/count>`.
///
/// Per §4.2: "`return <0/2>(values)` tells C-- that the caller has two
/// abnormal return continuations (in addition to the normal return point),
/// and causes a return to the first (index 0) of these two." The normal
/// return continuation is always the last, so a normal return among `n`
/// alternates is written `return <n/n>`; an unannotated `return` is
/// equivalent to `return <0/0>`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AltReturn {
    /// Which continuation to return to; `index == count` is the normal
    /// return point.
    pub index: u32,
    /// How many *alternate* return continuations the call site declares
    /// with `also returns to`.
    pub count: u32,
}

impl AltReturn {
    /// The normal return among `count` alternates (`return <count/count>`).
    pub fn normal(count: u32) -> AltReturn {
        AltReturn {
            index: count,
            count,
        }
    }

    /// True if this denotes the normal return point.
    pub fn is_normal(self) -> bool {
        self.index == self.count
    }
}

impl fmt::Display for AltReturn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}/{}>", self.index, self.count)
    }
}

/// A C-- statement.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// Parallel assignment `x, type[a] = e1, e2;`. The right-hand sides
    /// are all evaluated before any target is written.
    Assign {
        /// Assignment targets.
        lhs: Vec<Lvalue>,
        /// Right-hand sides, one per target.
        rhs: Vec<Expr>,
    },
    /// `if cond { then } else { else_ }`. A zero or non-zero `bits` value
    /// of the condition selects the branch.
    If {
        /// The condition expression.
        cond: Expr,
        /// Statements executed when the condition is non-zero.
        then_: Vec<crate::proc::BodyItem>,
        /// Statements executed when the condition is zero.
        else_: Vec<crate::proc::BodyItem>,
    },
    /// `goto l;` — an intraprocedural jump to a label in the same
    /// procedure.
    Goto {
        /// The target label.
        target: Name,
    },
    /// A procedure call `r1, r2 = g(args) also ...;`.
    Call {
        /// Variables receiving the results of a normal return.
        results: Vec<Name>,
        /// The procedure to call (usually a name; may be computed).
        callee: Expr,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Exceptional-flow annotations.
        anns: Annotations,
    },
    /// A tail call `jump g(args);` — same semantics as call-then-return,
    /// but guaranteed to deallocate the caller's activation first.
    Jump {
        /// The procedure to tail-call.
        callee: Expr,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `return (args);` or the abnormal `return <i/n> (args);`.
    Return {
        /// Abnormal-return specification; `None` means `return <0/0>`.
        alt: Option<AltReturn>,
        /// Result expressions.
        args: Vec<Expr>,
    },
    /// `cut to k(args) also cuts to ...;` — transfer control to a
    /// continuation, truncating the stack to its activation, in constant
    /// time and without restoring callee-saves registers (§4.2).
    CutTo {
        /// The continuation value to cut to.
        cont: Expr,
        /// Argument expressions for the continuation's parameters.
        args: Vec<Expr>,
        /// `also cuts to` annotations naming possible targets in the
        /// *current* procedure (an unannotated `cut to` is considered
        /// simply to exit the current procedure).
        anns: Annotations,
    },
    /// `yield(args) also ...;` — a coroutine call into the front-end
    /// run-time system (§3.3), requesting a service such as exception
    /// dispatch. The run-time system may resume execution at the normal
    /// return point or at any continuation listed in the annotations,
    /// subject to the §5.2 `Yield` transition rules.
    Yield {
        /// Arguments made available to the run-time system (e.g. an
        /// exception code).
        args: Vec<Expr>,
        /// Exceptional-flow annotations, exactly as for a call.
        anns: Annotations,
    },
}

impl Stmt {
    /// Simple single assignment `v = e;`.
    pub fn assign(v: impl Into<Name>, e: Expr) -> Stmt {
        Stmt::Assign {
            lhs: vec![Lvalue::Var(v.into())],
            rhs: vec![e],
        }
    }

    /// Memory store `type[a] = e;`.
    pub fn store(ty: Ty, addr: Expr, e: Expr) -> Stmt {
        Stmt::Assign {
            lhs: vec![Lvalue::Mem(ty, addr)],
            rhs: vec![e],
        }
    }

    /// Plain `return (args);`.
    pub fn return_(args: impl IntoIterator<Item = Expr>) -> Stmt {
        Stmt::Return {
            alt: None,
            args: args.into_iter().collect(),
        }
    }

    /// A call with no annotations.
    pub fn call<N: Into<Name>>(
        results: impl IntoIterator<Item = N>,
        callee: impl Into<Name>,
        args: impl IntoIterator<Item = Expr>,
    ) -> Stmt {
        Stmt::Call {
            results: results.into_iter().map(Into::into).collect(),
            callee: Expr::Name(callee.into()),
            args: args.into_iter().collect(),
            anns: Annotations::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotations_builders_compose() {
        let mut a = Annotations::cuts_to(["k1"])
            .and_aborts()
            .and_descriptor("d0");
        a.unwinds_to = vec![Name::from("k2"), Name::from("k3")];
        a.returns_to = vec![Name::from("k4")];
        assert_eq!(a.cuts_to, vec![Name::from("k1")]);
        assert_eq!(a.unwinds_to.len(), 2);
        assert_eq!(a.returns_to, vec![Name::from("k4")]);
        assert!(a.aborts);
        assert_eq!(a.descriptors, vec![Name::from("d0")]);
        assert_eq!(a.continuations().count(), 4);
        assert!(!a.is_empty());
        assert!(Annotations::none().is_empty());
    }

    #[test]
    fn alt_return_normal() {
        assert!(AltReturn::normal(2).is_normal());
        assert!(!AltReturn { index: 0, count: 2 }.is_normal());
        assert_eq!(AltReturn { index: 0, count: 2 }.to_string(), "<0/2>");
    }

    #[test]
    fn stmt_helpers() {
        let s = Stmt::assign("x", Expr::b32(1));
        match s {
            Stmt::Assign { lhs, rhs } => {
                assert_eq!(lhs, vec![Lvalue::var("x")]);
                assert_eq!(rhs, vec![Expr::b32(1)]);
            }
            _ => panic!("expected assignment"),
        }
        match Stmt::return_([Expr::b32(1), Expr::b32(2)]) {
            Stmt::Return { alt: None, args } => assert_eq!(args.len(), 2),
            _ => panic!("expected return"),
        }
    }
}
