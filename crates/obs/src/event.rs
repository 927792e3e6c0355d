//! The structured event vocabulary shared by every engine.
//!
//! One event is emitted per *exception-relevant transition*: calls and
//! returns (normal and abnormal, with the chosen branch-table arm),
//! `cut to` transfers, continuation capture and death, suspensions, and
//! every Table 1 operation the front-end run-time system performs on a
//! suspended thread. Ordinary straight-line execution (assignments,
//! branches) emits nothing — cost shows up only in the timestamps
//! carried by [`TimedEvent`], which are the abstract machine's step
//! counter or the VM's cost-model total.
//!
//! Two engines over the same program must produce the same *exception
//! projection* (see [`projection`]) even though their private detail
//! differs: the abstract machine knows continuation uids and killed
//! callee-saves sets, while the VM knows neither; the VM counts cost in
//! model units, the semantics in transitions. The projection keeps
//! exactly the engine-independent part, and `tests/trace_equivalence.rs`
//! holds all five engines to it.

use cmm_ir::Name;

/// Which continuation class a `Resume` re-enters (§5.2's three `Yield`
/// rules).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResumeKind {
    /// The normal return point of the chosen activation.
    Normal,
    /// An `also unwinds to` continuation chosen by `SetUnwindCont`.
    Unwind,
    /// A continuation value chosen by `SetCutToCont` (callee-saves not
    /// restored).
    Cut,
}

impl ResumeKind {
    /// A short stable label (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            ResumeKind::Normal => "normal",
            ResumeKind::Unwind => "unwind",
            ResumeKind::Cut => "cut",
        }
    }
}

/// One Table 1 run-time-interface operation, as observed at the
/// dispatcher layer (`cmm-rt`'s `Thread` or `cmm-vm`'s `VmThread`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RtsOp {
    /// `FirstActivation`: the activation that called `yield`, if the
    /// thread is suspended with a non-empty stack.
    FirstActivation {
        /// The procedure of that activation.
        proc: Option<Name>,
    },
    /// `NextActivation`: one hop toward the caller.
    NextActivation {
        /// Whether the walk moved (false at the stack bottom).
        moved: bool,
        /// The procedure of the new activation, when it moved.
        proc: Option<Name>,
    },
    /// `SetActivation`: choose an activation to resume, discarding
    /// everything above it.
    SetActivation {
        /// Whether the choice was accepted.
        ok: bool,
    },
    /// `SetUnwindCont(n)`: choose the `n`-th `also unwinds to`
    /// continuation of the chosen activation.
    SetUnwindCont {
        /// The requested continuation index.
        index: u32,
        /// Whether the site has such a continuation.
        ok: bool,
    },
    /// `SetCutToCont(k)`: choose a continuation *value* to cut to.
    SetCutToCont {
        /// The procedure owning the continuation, when decodable.
        target: Option<Name>,
    },
    /// `FindContParam(n)`: locate the `n`-th parameter slot of the
    /// chosen continuation.
    FindContParam {
        /// The requested parameter index.
        index: u32,
        /// Whether such a parameter exists.
        found: bool,
    },
    /// `Resume`: re-enter the thread at the chosen continuation.
    Resume {
        /// Which continuation class is re-entered.
        kind: ResumeKind,
        /// Whether the resumption succeeded.
        ok: bool,
    },
    /// `GetDescriptor(n)`: read the `n`-th span descriptor of an
    /// activation's call site.
    GetDescriptor {
        /// The requested descriptor index.
        index: u32,
        /// Whether the site carries that many descriptors.
        found: bool,
    },
}

impl RtsOp {
    /// The Table 1 operation names, in [`RtsOp::index`] order.
    pub const NAMES: [&'static str; 8] = [
        "FirstActivation",
        "NextActivation",
        "SetActivation",
        "SetUnwindCont",
        "SetCutToCont",
        "FindContParam",
        "Resume",
        "GetDescriptor",
    ];

    /// The operation's position in [`RtsOp::NAMES`].
    pub fn index(&self) -> usize {
        match self {
            RtsOp::FirstActivation { .. } => 0,
            RtsOp::NextActivation { .. } => 1,
            RtsOp::SetActivation { .. } => 2,
            RtsOp::SetUnwindCont { .. } => 3,
            RtsOp::SetCutToCont { .. } => 4,
            RtsOp::FindContParam { .. } => 5,
            RtsOp::Resume { .. } => 6,
            RtsOp::GetDescriptor { .. } => 7,
        }
    }

    /// The Table 1 operation name.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// One exception-relevant transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// A `Call` node / `call` instruction transferred to `callee`.
    Call {
        /// The calling procedure.
        caller: Name,
        /// The procedure entered.
        callee: Name,
    },
    /// A `Jump` node / tail-call transfer: the caller's activation is
    /// replaced, not stacked.
    TailCall {
        /// The jumping procedure.
        caller: Name,
        /// The procedure entered.
        callee: Name,
    },
    /// A `return <index/alternates>`: `index == alternates` is the
    /// normal return, anything smaller an abnormal return through the
    /// Figure 3/4 branch table.
    Return {
        /// The returning procedure.
        proc: Name,
        /// The chosen branch-table arm.
        index: u32,
        /// The call site's alternate count.
        alternates: u32,
    },
    /// A `cut to` transfer (constant-time strategy).
    CutTo {
        /// The cutting procedure.
        proc: Name,
        /// The procedure owning the target continuation.
        target: Name,
        /// Callee-saves bindings killed by the cut (abstract machine
        /// only; the VM reports 0 — excluded from the projection).
        killed_saves: u32,
    },
    /// A procedure entry bound fresh continuation values (abstract
    /// machine only).
    ContCapture {
        /// The procedure whose continuations were captured.
        proc: Name,
        /// The activation uid baked into the continuation values.
        uid: u64,
        /// How many continuations were bound.
        conts: u32,
    },
    /// An activation holding captured continuations was discarded
    /// abnormally — its continuations are now dead (abstract machine
    /// only).
    ContDeath {
        /// The discarded activation's procedure.
        proc: Name,
        /// Its uid.
        uid: u64,
    },
    /// Control reached `yield`: the front-end run-time system takes
    /// over.
    Yield {
        /// The first `yield` argument (the service code).
        code: u64,
    },
    /// A Table 1 operation.
    Rts(RtsOp),
    /// A `cmm-chaos` intervention: an injected Table 1 fault.
    /// Instrumentation, not semantics — excluded from the projection.
    Chaos {
        /// What was injected, e.g. `"fault resume #2"`.
        what: String,
    },
}

impl Event {
    /// Whether this event is part of the engine-independent exception
    /// projection (see the module documentation).
    pub fn in_projection(&self) -> bool {
        !matches!(
            self,
            Event::ContCapture { .. } | Event::ContDeath { .. } | Event::Chaos { .. }
        )
    }

    /// A canonical one-line rendering. Projection-relevant fields only:
    /// engine-private detail (uids, killed callee-saves counts) is kept
    /// out so the same line compares equal across engines.
    pub fn render(&self) -> String {
        match self {
            Event::Call { caller, callee } => format!("call {caller} -> {callee}"),
            Event::TailCall { caller, callee } => format!("tail {caller} -> {callee}"),
            Event::Return {
                proc,
                index,
                alternates,
            } => format!("return {proc} <{index}/{alternates}>"),
            Event::CutTo { proc, target, .. } => format!("cut {proc} -> {target}"),
            Event::ContCapture { proc, conts, .. } => {
                format!("cont-capture {proc} ({conts})")
            }
            Event::ContDeath { proc, .. } => format!("cont-death {proc}"),
            Event::Yield { code } => format!("yield {code}"),
            Event::Rts(op) => match op {
                RtsOp::FirstActivation { proc } => match proc {
                    Some(p) => format!("rts FirstActivation -> {p}"),
                    None => "rts FirstActivation -> none".into(),
                },
                RtsOp::NextActivation { moved, proc } => match (moved, proc) {
                    (true, Some(p)) => format!("rts NextActivation -> {p}"),
                    _ => "rts NextActivation -> bottom".into(),
                },
                RtsOp::SetActivation { ok } => format!("rts SetActivation ok={ok}"),
                RtsOp::SetUnwindCont { index, ok } => {
                    format!("rts SetUnwindCont {index} ok={ok}")
                }
                RtsOp::SetCutToCont { target } => match target {
                    Some(p) => format!("rts SetCutToCont -> {p}"),
                    None => "rts SetCutToCont -> dead".into(),
                },
                RtsOp::FindContParam { index, found } => {
                    format!("rts FindContParam {index} found={found}")
                }
                RtsOp::Resume { kind, ok } => {
                    format!("rts Resume {} ok={ok}", kind.label())
                }
                RtsOp::GetDescriptor { index, found } => {
                    format!("rts GetDescriptor {index} found={found}")
                }
            },
            Event::Chaos { what } => format!("chaos {what}"),
        }
    }
}

/// An event with the emitting engine's timestamp: the abstract
/// machine's transition count or the VM's cost-model total at emission.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimedEvent {
    /// Engine time at emission.
    pub ts: u64,
    /// What happened.
    pub event: Event,
}

/// The engine-independent exception projection of an event stream:
/// the canonical rendering of every projection-relevant event, in
/// order, timestamps dropped. Two engines running the same program
/// under the same dispatcher policy must produce equal projections.
pub fn projection(events: &[TimedEvent]) -> Vec<String> {
    events
        .iter()
        .filter(|t| t.event.in_projection())
        .map(|t| t.event.render())
        .collect()
}

/// The first index at which two projections differ, if any: `Ok(())`
/// when equal, or `Err((index, left-line, right-line))` where a missing
/// line reads `"<end of stream>"`.
#[allow(clippy::type_complexity)]
pub fn first_divergence(a: &[String], b: &[String]) -> Result<(), (usize, String, String)> {
    let end = || "<end of stream>".to_string();
    for i in 0..a.len().max(b.len()) {
        let la = a.get(i);
        let lb = b.get(i);
        if la != lb {
            return Err((
                i,
                la.cloned().unwrap_or_else(end),
                lb.cloned().unwrap_or_else(end),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_drops_engine_private_events() {
        let events = vec![
            TimedEvent {
                ts: 0,
                event: Event::ContCapture {
                    proc: Name::from("f"),
                    uid: 1,
                    conts: 2,
                },
            },
            TimedEvent {
                ts: 1,
                event: Event::Yield { code: 9 },
            },
        ];
        assert_eq!(projection(&events), vec!["yield 9".to_string()]);
    }

    #[test]
    fn cut_rendering_hides_killed_saves() {
        let a = Event::CutTo {
            proc: Name::from("g"),
            target: Name::from("f"),
            killed_saves: 3,
        };
        let b = Event::CutTo {
            proc: Name::from("g"),
            target: Name::from("f"),
            killed_saves: 0,
        };
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn first_divergence_reports_position() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["x".to_string()];
        let (i, la, lb) = first_divergence(&a, &b).unwrap_err();
        assert_eq!((i, la.as_str(), lb.as_str()), (1, "y", "<end of stream>"));
        assert!(first_divergence(&a, &a).is_ok());
    }
}
