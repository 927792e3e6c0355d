//! Procedures and procedure bodies.

use crate::name::Name;
use crate::stmt::Stmt;
use crate::ty::Ty;

/// One item in a procedure body.
///
/// A body is a sequence of statements interspersed with labels and
/// continuation definitions. Per §4.1, "a continuation can be declared only
/// inside a procedure", and its "formal parameters" must be variables of
/// the enclosing procedure.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BodyItem {
    /// An ordinary statement.
    Stmt(Stmt),
    /// A label `l:` naming the next item; the target of `goto`.
    Label(Name),
    /// A continuation definition `continuation k(x, y):`.
    ///
    /// The parameters are *not* binding instances; they must be declared
    /// local variables of the enclosing procedure. Control falls into a
    /// continuation from above exactly as into a label.
    Continuation {
        /// The continuation's name; denotes a value of the native
        /// data-pointer type.
        name: Name,
        /// Variables of the enclosing procedure that receive the
        /// continuation's arguments.
        params: Vec<Name>,
    },
}

impl BodyItem {
    /// Wraps a statement.
    pub fn stmt(s: Stmt) -> BodyItem {
        BodyItem::Stmt(s)
    }
}

impl From<Stmt> for BodyItem {
    fn from(s: Stmt) -> BodyItem {
        BodyItem::Stmt(s)
    }
}

/// A C-- procedure.
///
/// Procedures are parameterized, may declare local variables, may return
/// multiple results, and may contain continuation definitions. Local and
/// global variables model machine registers: they have no addresses.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Proc {
    /// The procedure's name, which denotes an immutable value of the
    /// native code-pointer type.
    pub name: Name,
    /// Formal parameters with their types.
    pub formals: Vec<(Name, Ty)>,
    /// Declared local variables with their types (formals excluded).
    pub locals: Vec<(Name, Ty)>,
    /// The body: statements, labels, and continuation definitions.
    pub body: Vec<BodyItem>,
    /// Whether the procedure is exported from its module.
    pub exported: bool,
}

impl Proc {
    /// Creates an empty procedure with the given name.
    pub fn new(name: impl Into<Name>) -> Proc {
        Proc {
            name: name.into(),
            formals: Vec::new(),
            locals: Vec::new(),
            body: Vec::new(),
            exported: false,
        }
    }

    /// The type of a formal or local variable, if declared.
    pub fn var_ty(&self, n: &Name) -> Option<Ty> {
        self.formals
            .iter()
            .chain(self.locals.iter())
            .find(|(v, _)| v == n)
            .map(|&(_, ty)| ty)
    }

    /// All continuation definitions in the body, in order of appearance.
    pub fn continuations(&self) -> Vec<(Name, Vec<Name>)> {
        let mut out = Vec::new();
        collect_continuations(&self.body, &mut out);
        out
    }

    /// All labels in the body, in order of appearance.
    pub fn labels(&self) -> Vec<Name> {
        let mut out = Vec::new();
        collect_labels(&self.body, &mut out);
        out
    }
}

fn collect_continuations(items: &[BodyItem], out: &mut Vec<(Name, Vec<Name>)>) {
    for item in items {
        match item {
            BodyItem::Continuation { name, params } => out.push((name.clone(), params.clone())),
            BodyItem::Stmt(Stmt::If { then_, else_, .. }) => {
                collect_continuations(then_, out);
                collect_continuations(else_, out);
            }
            _ => {}
        }
    }
}

fn collect_labels(items: &[BodyItem], out: &mut Vec<Name>) {
    for item in items {
        match item {
            BodyItem::Label(l) => out.push(l.clone()),
            BodyItem::Stmt(Stmt::If { then_, else_, .. }) => {
                collect_labels(then_, out);
                collect_labels(else_, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn var_lookup_covers_formals_and_locals() {
        let mut p = Proc::new("f");
        p.formals.push((Name::from("x"), Ty::B32));
        p.locals.push((Name::from("w"), Ty::F64));
        assert_eq!(p.var_ty(&Name::from("x")), Some(Ty::B32));
        assert_eq!(p.var_ty(&Name::from("w")), Some(Ty::F64));
        assert_eq!(p.var_ty(&Name::from("zz")), None);
    }

    #[test]
    fn continuations_found_in_nested_blocks() {
        let mut p = Proc::new("f");
        p.body.push(BodyItem::Stmt(Stmt::If {
            cond: Expr::b32(1),
            then_: vec![BodyItem::Label(Name::from("inner"))],
            else_: vec![],
        }));
        p.body.push(BodyItem::Continuation {
            name: Name::from("k"),
            params: vec![Name::from("x")],
        });
        assert_eq!(
            p.continuations(),
            vec![(Name::from("k"), vec![Name::from("x")])]
        );
        assert_eq!(p.labels(), vec![Name::from("inner")]);
    }
}
