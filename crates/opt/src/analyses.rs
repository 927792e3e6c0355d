//! The analyses the passes share on one graph.
//!
//! A pass reads some of the graph's analyses and may change what others
//! read; each analysis here is built once and handed to every pass
//! until a pass changes what it was built from:
//!
//! * the locals index, once per graph: no pass declares a variable or
//!   binds a continuation;
//! * the reverse postorder of the reachable nodes, read by dominators
//!   (and so SSA and constant propagation), liveness, dead-code
//!   elimination, `localopt`'s chains and callee-saves promotion. It is
//!   recomputed when constant propagation folds a branch. When
//!   dead-code elimination bypasses dead nodes it is filtered instead:
//!   each bypassed node has one successor, so a depth-first walk of the
//!   new graph visits every other node in the same order;
//! * liveness, kept while no pass changes the graph at all, so that a
//!   dead-code round that removes nothing leaves it to the next round,
//!   the next iteration and callee-saves promotion.

use crate::liveness::Liveness;
use crate::locals::Locals;
use cmm_cfg::{Graph, NodeId};
use std::sync::Arc;

/// The shared analyses of one graph, valid for its current state.
#[derive(Debug)]
pub struct Analyses {
    locals: Arc<Locals>,
    rpo: Vec<NodeId>,
    live: Option<Liveness>,
}

impl Analyses {
    /// The analyses of a graph before any pass runs.
    pub fn new(g: &Graph) -> Analyses {
        Analyses {
            locals: Arc::new(Locals::of(g)),
            rpo: g.reverse_postorder(),
            live: None,
        }
    }

    /// The locals index.
    pub(crate) fn locals(&self) -> &Arc<Locals> {
        &self.locals
    }

    /// The reverse postorder of the reachable nodes.
    pub(crate) fn rpo(&self) -> &[NodeId] {
        &self.rpo
    }

    /// Liveness of the graph's current state, and the order it was
    /// computed over.
    pub(crate) fn liveness(&mut self, g: &Graph) -> (&Liveness, &[NodeId]) {
        if self.live.is_none() {
            self.live = Some(Liveness::over(g, &self.locals, &self.rpo));
        }
        (self.live.as_ref().expect("computed above"), &self.rpo)
    }

    /// A pass rewrote expressions but changed no edge.
    pub(crate) fn rewrote(&mut self) {
        self.live = None;
    }

    /// A pass changed edges.
    pub(crate) fn rerouted(&mut self, g: &Graph) {
        self.rpo = g.reverse_postorder();
        self.live = None;
    }

    /// A pass bypassed the nodes `dead` marks, each of which had a
    /// single successor, redirecting every edge into one past it.
    pub(crate) fn bypassed(&mut self, g: &Graph, dead: &[Option<NodeId>]) {
        self.rpo.retain(|n| dead[n.index()].is_none());
        debug_assert_eq!(self.rpo, g.reverse_postorder());
        self.live = None;
    }
}
