//! The analyses the passes share on one graph.
//!
//! A pass reads some of the graph's analyses and may change what others
//! read; each analysis here is built once and handed to every pass
//! until a pass changes what it was built from:
//!
//! * the locals index, once per graph: no pass declares a variable or
//!   binds a continuation;
//! * each node's uses and definitions resolved through the index
//!   ([`Refs`]), once per graph: a pass that rewrites expressions
//!   resolves the uses of the nodes it rewrote again, and nothing
//!   changes what a node defines;
//! * the reverse postorder of the reachable nodes, read by dominators
//!   (and so SSA and constant propagation), liveness, dead-code
//!   elimination, `localopt`'s chains and callee-saves promotion. It is
//!   recomputed when constant propagation folds a branch. When
//!   dead-code elimination bypasses dead nodes it is filtered instead:
//!   each bypassed node has one successor, so a depth-first walk of the
//!   new graph visits every other node in the same order;
//! * dominators, kept while no pass changes an edge;
//! * liveness, kept while no pass changes the graph at all, so that a
//!   dead-code round that removes nothing leaves it to the next round,
//!   the next iteration and callee-saves promotion.
//!
//! VM code generation builds one `Analyses` per procedure for the
//! reverse postorder, the index and the liveness it allocates by.

use crate::dom::Dominators;
use crate::liveness::Liveness;
use crate::locals::{Locals, Refs};
use crate::ssa::Ssa;
use cmm_cfg::{Graph, NodeId};
use std::sync::Arc;

/// The shared analyses of one graph, valid for its current state.
#[derive(Debug)]
pub struct Analyses {
    locals: Arc<Locals>,
    refs: Refs,
    rpo: Vec<NodeId>,
    doms: Option<Dominators>,
    live: Option<Liveness>,
}

impl Analyses {
    /// The analyses of a graph before any pass runs.
    pub fn new(g: &Graph) -> Analyses {
        let locals = Locals::of(g);
        Analyses {
            refs: Refs::of(g, &locals),
            locals: Arc::new(locals),
            rpo: g.reverse_postorder(),
            doms: None,
            live: None,
        }
    }

    /// The locals index.
    pub fn locals(&self) -> &Arc<Locals> {
        &self.locals
    }

    /// The reverse postorder of the reachable nodes.
    pub(crate) fn rpo(&self) -> &[NodeId] {
        &self.rpo
    }

    /// Each node's uses and definitions as positions in the index.
    pub fn refs(&self) -> &Refs {
        &self.refs
    }

    /// The SSA overlay of the graph's current state, over the kept
    /// dominators.
    pub(crate) fn ssa(&mut self, g: &Graph) -> Ssa {
        let doms = self
            .doms
            .get_or_insert_with(|| Dominators::over(g, &self.rpo));
        Ssa::over(g, &self.locals, &self.refs, &self.rpo, doms)
    }

    /// Liveness of the graph's current state, the order it was computed
    /// over, and the resolved uses and definitions it was computed from.
    pub fn liveness(&mut self, g: &Graph) -> (&Liveness, &[NodeId], &Refs) {
        let live = self
            .live
            .get_or_insert_with(|| Liveness::over(g, &self.locals, &self.refs, &self.rpo));
        (live, &self.rpo, &self.refs)
    }

    /// A pass rewrote the expressions of `nodes` but changed no edge.
    pub(crate) fn rewrote(&mut self, g: &Graph, nodes: &[NodeId]) {
        for &n in nodes {
            self.refs.resolve_uses(g, &self.locals, n);
        }
        self.live = None;
    }

    /// A pass rewrote `nodes` and changed edges.
    pub(crate) fn rerouted(&mut self, g: &Graph, nodes: &[NodeId]) {
        self.rewrote(g, nodes);
        self.rpo = g.reverse_postorder();
        self.doms = None;
    }

    /// A pass bypassed the nodes `dead` marks, each of which had a
    /// single successor, redirecting every edge into one past it.
    pub(crate) fn bypassed(&mut self, g: &Graph, dead: &[Option<NodeId>]) {
        self.rpo.retain(|n| dead[n.index()].is_none());
        debug_assert_eq!(self.rpo, g.reverse_postorder());
        self.doms = None;
        self.live = None;
    }
}
