//! The node kinds of Abstract C-- (the paper's Table 2).

use crate::graph::NodeId;
use cmm_ir::{Expr, Lvalue, Name};
use std::collections::BTreeSet;

/// A continuation bundle: "the quadruple `(kp_r, kp_u, kp_c, abort)`"
/// saved on the stack at each call, which "encodes the possible outcomes
/// of a procedure call" (§5, Table 2).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Bundle {
    /// `kp_r`: the nodes for continuations listed in `also returns to`,
    /// **plus the node for normal returns, which is always last**.
    pub returns: Vec<NodeId>,
    /// `kp_u`: the nodes for continuations listed in `also unwinds to`,
    /// in annotation order (the order consulted by `SetUnwindCont(t, n)`).
    pub unwinds: Vec<NodeId>,
    /// `kp_c`: the nodes for continuations listed in `also cuts to`.
    pub cuts: Vec<NodeId>,
    /// `abort`: true iff the call site is annotated `also aborts`.
    pub aborts: bool,
}

impl Bundle {
    /// The normal-return node (the last element of `kp_r`).
    ///
    /// # Panics
    ///
    /// Panics if the bundle has no return continuations at all, which
    /// cannot happen for bundles constructed by the §5.3 translation.
    pub fn normal_return(&self) -> NodeId {
        *self.returns.last().expect("bundle has a normal return")
    }

    /// Number of *alternate* return continuations (`n` in `Exit j n`).
    pub fn alternates(&self) -> u32 {
        (self.returns.len() - 1) as u32
    }

    /// All nodes reachable through this bundle (for graph traversals).
    pub fn targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.returns
            .iter()
            .chain(self.unwinds.iter())
            .chain(self.cuts.iter())
            .copied()
    }
}

/// One node of an Abstract C-- control-flow graph (Table 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// The unique entry node of a procedure with continuations `conts`
    /// and first node `next`. Binds each continuation name to a
    /// continuation value for the current activation (fresh `uid`).
    Entry {
        /// The continuations declared in the procedure body: name and
        /// the `CopyIn` node representing each.
        conts: Vec<(Name, NodeId)>,
        /// The first node of the body.
        next: NodeId,
    },
    /// Normal exit: "a return to continuation `j`" where "the call site
    /// must have exactly `n` alternate return continuations tagged with
    /// `also returns to`". `index == alternates` is the normal return.
    Exit {
        /// `j`: which return continuation of the suspended call site.
        index: u32,
        /// `n`: how many alternates the call site must declare.
        alternates: u32,
    },
    /// Put results from a call, or parameters to a procedure or
    /// continuation, into `vars`, and continue with `next`. Empties the
    /// argument-passing area `A`.
    ///
    /// A `CopyIn` with no variables also serves as the join point for a
    /// label (it moves zero values and resets `A`, which is dead at every
    /// label).
    CopyIn {
        /// The variables to receive `A`'s values.
        vars: Vec<Name>,
        /// Successor node.
        next: NodeId,
    },
    /// Make the values of `exprs` the results of a call or the parameters
    /// to a procedure or continuation (fills `A`), and continue.
    CopyOut {
        /// The values to place in `A`.
        exprs: Vec<Expr>,
        /// Successor node.
        next: NodeId,
    },
    /// Make `vars` the set of variables held in callee-saves registers
    /// (by spilling or reloading), and continue. "CalleeSaves nodes are
    /// introduced only by optimizers; they are not part of the direct
    /// translation of any C-- program into Abstract C--."
    CalleeSaves {
        /// The new callee-saves variable set `s`.
        vars: BTreeSet<Name>,
        /// Successor node.
        next: NodeId,
    },
    /// Assign `rhs` to `lhs` (a variable or memory location), and
    /// continue.
    Assign {
        /// The target.
        lhs: Lvalue,
        /// The value.
        rhs: Expr,
        /// Successor node.
        next: NodeId,
    },
    /// Branch to `t` or `f` according to whether `cond` is non-zero.
    Branch {
        /// The condition.
        cond: Expr,
        /// Successor when non-zero.
        t: NodeId,
        /// Successor when zero.
        f: NodeId,
    },
    /// Call procedure `callee`, returning to one of the nodes in the
    /// continuation bundle. Arguments will already be in `A` (placed by a
    /// preceding `CopyOut`).
    Call {
        /// The procedure to call.
        callee: Expr,
        /// The continuation bundle `(kp_r, kp_u, kp_c, abort)`.
        bundle: Bundle,
        /// Descriptor data blocks attached to this call site (§3.3),
        /// retrievable via the run-time interface's `GetDescriptor`.
        descriptors: Vec<Name>,
    },
    /// Tail-call procedure `callee`. Exits the current procedure.
    Jump {
        /// The procedure to tail-call.
        callee: Expr,
    },
    /// Cut the stack to continuation `cont`. Exits the current procedure.
    CutTo {
        /// The continuation value to cut to.
        cont: Expr,
        /// Flow edges from an `also cuts to` annotation on the `cut to`
        /// statement itself: possible targets in the *same* procedure,
        /// needed by the optimizer (§4.4).
        cuts: Vec<NodeId>,
    },
    /// Execute a procedure in the run-time system (§5.2's
    /// under-specified transitions). Appears only as the body of the
    /// distinguished [`crate::YIELD`] procedure.
    Yield,
}

impl Node {
    /// Intra-graph successor edges, including the exceptional edges
    /// through call bundles and `cut to` annotations, in order
    /// (duplicates included), without allocating. This is the edge set
    /// used for reachability and for the Table 3 dataflow rules.
    pub fn succ_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let none: &[NodeId] = &[];
        let (fixed, lists) = match self {
            Node::Entry { next, .. }
            | Node::CopyIn { next, .. }
            | Node::CopyOut { next, .. }
            | Node::CalleeSaves { next, .. }
            | Node::Assign { next, .. } => ([Some(*next), None], [none; 3]),
            Node::Branch { t, f, .. } => ([Some(*t), Some(*f)], [none; 3]),
            Node::Call { bundle, .. } => (
                [None; 2],
                [&bundle.returns[..], &bundle.unwinds[..], &bundle.cuts[..]],
            ),
            Node::CutTo { cuts, .. } => ([None; 2], [&cuts[..], none, none]),
            Node::Exit { .. } | Node::Jump { .. } | Node::Yield => ([None; 2], [none; 3]),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(lists.into_iter().flatten().copied())
    }

    /// Rewrites every successor edge with `f` (used by graph editors).
    pub fn map_succs(&mut self, mut f: impl FnMut(NodeId) -> NodeId) {
        match self {
            Node::Entry { next, conts } => {
                *next = f(*next);
                for (_, n) in conts {
                    *n = f(*n);
                }
            }
            Node::CopyIn { next, .. }
            | Node::CopyOut { next, .. }
            | Node::CalleeSaves { next, .. }
            | Node::Assign { next, .. } => *next = f(*next),
            Node::Branch { t, f: fl, .. } => {
                *t = f(*t);
                *fl = f(*fl);
            }
            Node::Call { bundle, .. } => {
                for n in bundle
                    .returns
                    .iter_mut()
                    .chain(bundle.unwinds.iter_mut())
                    .chain(bundle.cuts.iter_mut())
                {
                    *n = f(*n);
                }
            }
            Node::CutTo { cuts, .. } => {
                for n in cuts {
                    *n = f(*n);
                }
            }
            Node::Exit { .. } | Node::Jump { .. } | Node::Yield => {}
        }
    }

    /// A short mnemonic for display.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Node::Entry { .. } => "Entry",
            Node::Exit { .. } => "Exit",
            Node::CopyIn { .. } => "CopyIn",
            Node::CopyOut { .. } => "CopyOut",
            Node::CalleeSaves { .. } => "CalleeSaves",
            Node::Assign { .. } => "Assign",
            Node::Branch { .. } => "Branch",
            Node::Call { .. } => "Call",
            Node::Jump { .. } => "Jump",
            Node::CutTo { .. } => "CutTo",
            Node::Yield => "Yield",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_normal_return_is_last() {
        let b = Bundle {
            returns: vec![NodeId(7), NodeId(8), NodeId(9)],
            unwinds: vec![NodeId(1)],
            cuts: vec![],
            aborts: true,
        };
        assert_eq!(b.normal_return(), NodeId(9));
        assert_eq!(b.alternates(), 2);
        assert_eq!(b.targets().count(), 4);
    }

    #[test]
    fn succs_cover_exceptional_edges() {
        let call = Node::Call {
            callee: Expr::var("g"),
            bundle: Bundle {
                returns: vec![NodeId(1)],
                unwinds: vec![NodeId(2), NodeId(3)],
                cuts: vec![NodeId(4)],
                aborts: false,
            },
            descriptors: vec![],
        };
        assert_eq!(
            call.succ_iter().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert!(Node::Yield.succ_iter().next().is_none());
        assert!(Node::Exit {
            index: 0,
            alternates: 0
        }
        .succ_iter()
        .next()
        .is_none());
    }

    #[test]
    fn map_succs_rewrites_all_edges() {
        let mut br = Node::Branch {
            cond: Expr::b32(1),
            t: NodeId(1),
            f: NodeId(2),
        };
        br.map_succs(|n| NodeId(n.0 + 10));
        assert_eq!(
            br.succ_iter().collect::<Vec<_>>(),
            vec![NodeId(11), NodeId(12)]
        );
    }
}
