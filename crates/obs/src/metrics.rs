//! Aggregation of a recorded event stream into per-procedure metrics
//! and a [`Tally`], and the `cmm profile` text report.
//!
//! Cost is attributed by *timestamp deltas over a shadow call stack*:
//! `replay` runs the stream's transfer events (call, tail call,
//! return, cut, resume) against a stack of procedure frames, and the
//! engine time elapsed between consecutive events is charged to the
//! procedure on top. This recovers per-procedure self and inclusive
//! cost from the timestamps alone — no per-instruction events exist, so
//! tracing stays cheap even when recording. The Chrome export
//! ([`crate::chrome`]) draws its call tree from the same replay.
//!
//! The resumption bookkeeping mirrors the Table 1 dispatcher protocol:
//! a successful `Resume` at the activation chosen after `k` successful
//! `NextActivation` hops discards `k + 1` shadow frames (the `yield`
//! pseudo-procedure plus the activations walked past), and a cut-class
//! `Resume` truncates to the procedure named by the preceding
//! `SetCutToCont`. Programs that go wrong mid-flight simply leave
//! frames open; they are left at the final timestamp.

use crate::event::{Event, ResumeKind, RtsOp, TimedEvent};
use crate::tally::Tally;
use cmm_ir::{ProcId, ProcNames};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Power-of-two histogram buckets for per-invocation self cost.
pub const HIST_BUCKETS: usize = 17;

/// Metrics for one procedure.
#[derive(Clone, Debug, Default)]
pub struct ProcStats {
    /// Times entered (by call or tail call).
    pub entries: u64,
    /// Returns executed by this procedure.
    pub returns: u64,
    /// Of those, abnormal (branch-table arm below the normal one).
    pub abnormal_returns: u64,
    /// `cut to` transfers executed by this procedure.
    pub cuts_out: u64,
    /// Cuts that landed in a continuation of this procedure.
    pub cuts_in: u64,
    /// Engine time spent with this procedure on top of the shadow
    /// stack.
    pub self_cost: u64,
    /// Engine time spent with this procedure anywhere on the shadow
    /// stack (counted once per procedure per interval).
    pub total_cost: u64,
    /// Histogram of per-invocation self cost: bucket `i` counts
    /// invocations with self cost in `[2^(i-1), 2^i)` (bucket 0 is
    /// zero-cost invocations).
    pub hist: [u64; HIST_BUCKETS],
}

impl ProcStats {
    fn finish_invocation(&mut self, self_cost: u64) {
        let bucket = match self_cost {
            0 => 0,
            c => ((u64::BITS - c.leading_zeros()) as usize).min(HIST_BUCKETS - 1),
        };
        self.hist[bucket] += 1;
    }
}

/// The aggregated profile of one run.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-procedure metrics, keyed by procedure id.
    pub procs: BTreeMap<ProcId, ProcStats>,
    /// Whole-stream counts.
    pub tally: Tally,
    /// Total engine time covered by the stream (last timestamp minus
    /// first).
    pub total_cost: u64,
}

/// One step of a [`replay`], in stream order.
pub(crate) enum Step<'a> {
    /// An event, reported before the frames it enters or leaves, with
    /// the shadow stack it happened on (entry procedure first).
    Event(&'a TimedEvent, &'a [ProcId]),
    /// A frame entered at the given engine time.
    Enter(u64, ProcId),
    /// A frame left at the given engine time.
    Leave(u64, ProcId),
}

/// Replays a recorded stream onto a shadow call stack that starts with
/// `entry` (events alone cannot name it), reporting each event and
/// each frame entered and left; see the module documentation. Frames
/// still open at the end are left at the last event's time.
pub(crate) fn replay(entry: ProcId, events: &[TimedEvent], mut on: impl FnMut(Step<'_>)) {
    fn leave(stack: &mut Vec<ProcId>, on: &mut impl FnMut(Step<'_>), ts: u64) {
        if let Some(top) = stack.pop() {
            on(Step::Leave(ts, top));
        }
    }
    fn enter(stack: &mut Vec<ProcId>, on: &mut impl FnMut(Step<'_>), ts: u64, id: ProcId) {
        on(Step::Enter(ts, id));
        stack.push(id);
    }
    fn cut_to(stack: &mut Vec<ProcId>, on: &mut impl FnMut(Step<'_>), ts: u64, target: ProcId) {
        if stack.contains(&target) {
            while stack.last() != Some(&target) {
                leave(stack, on, ts);
            }
        } else {
            while !stack.is_empty() {
                leave(stack, on, ts);
            }
            enter(stack, on, ts, target);
        }
    }

    let mut ts = events.first().map_or(0, |t| t.ts);
    let mut stack = Vec::new();
    enter(&mut stack, &mut on, ts, entry);
    let mut hops: u64 = 0;
    let mut cut_target: Option<ProcId> = None;
    for t in events {
        ts = t.ts;
        on(Step::Event(t, &stack));
        match &t.event {
            Event::Call { callee, .. } => enter(&mut stack, &mut on, ts, *callee),
            Event::TailCall { callee, .. } => {
                leave(&mut stack, &mut on, ts);
                enter(&mut stack, &mut on, ts, *callee);
            }
            Event::Return { .. } => leave(&mut stack, &mut on, ts),
            Event::CutTo { target, .. } => cut_to(&mut stack, &mut on, ts, *target),
            Event::Rts(op) => match op {
                RtsOp::FirstActivation { .. } => hops = 0,
                RtsOp::NextActivation { moved: true, .. } => hops += 1,
                RtsOp::SetCutToCont { target } => cut_target = *target,
                RtsOp::Resume {
                    kind: ResumeKind::Cut,
                    ok: true,
                } => {
                    if let Some(target) = cut_target.take() {
                        cut_to(&mut stack, &mut on, ts, target);
                    }
                }
                RtsOp::Resume { ok: true, .. } => {
                    for _ in 0..=hops {
                        leave(&mut stack, &mut on, ts);
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
    while !stack.is_empty() {
        leave(&mut stack, &mut on, ts);
    }
}

impl Profile {
    /// Replays a recorded stream, attributing cost as described in the
    /// module documentation. `entry` is the procedure the run started
    /// in.
    pub fn build(entry: ProcId, events: &[TimedEvent]) -> Profile {
        let mut p = Profile::default();
        // Self cost of each open frame, parallel to the replay's stack.
        let mut open: Vec<u64> = Vec::new();
        // Both engine clocks start at zero, so the interval before the
        // first event belongs to the entry procedure.
        let mut prev_ts = 0u64;
        replay(entry, events, |step| match step {
            Step::Enter(_, id) => {
                p.procs.entry(id).or_default().entries += 1;
                open.push(0);
            }
            Step::Leave(_, id) => {
                let self_cost = open.pop().expect("a frame was entered");
                p.procs.entry(id).or_default().finish_invocation(self_cost);
            }
            Step::Event(t, stack) => {
                // Charge the elapsed interval to the current stack.
                let delta = t.ts.saturating_sub(prev_ts);
                prev_ts = t.ts;
                if delta > 0 {
                    if let (Some(top), Some(self_cost)) = (stack.last(), open.last_mut()) {
                        *self_cost += delta;
                        p.procs.entry(*top).or_default().self_cost += delta;
                    }
                    let mut seen: Vec<ProcId> = Vec::with_capacity(stack.len());
                    for &id in stack {
                        if !seen.contains(&id) {
                            seen.push(id);
                            p.procs.entry(id).or_default().total_cost += delta;
                        }
                    }
                }
                p.tally.record(&t.event);
                match &t.event {
                    Event::Return {
                        proc,
                        index,
                        alternates,
                    } => {
                        let st = p.procs.entry(*proc).or_default();
                        st.returns += 1;
                        if index < alternates {
                            st.abnormal_returns += 1;
                        }
                    }
                    Event::CutTo { proc, target, .. } => {
                        p.procs.entry(*proc).or_default().cuts_out += 1;
                        p.procs.entry(*target).or_default().cuts_in += 1;
                    }
                    _ => {}
                }
            }
        });
        p.total_cost = prev_ts;
        p
    }

    /// The `cmm profile` text report, naming procedures from `names`.
    pub fn report(&self, clock_label: &str, names: &(impl ProcNames + ?Sized)) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "total cost: {} {clock_label}", self.total_cost);
        let c = &self.tally;
        let _ = writeln!(
            out,
            "transfers: {} calls, {} tail calls, {} returns ({} abnormal), {} cuts, {} yields",
            c.calls, c.tail_calls, c.returns, c.abnormal_returns, c.cuts, c.yields
        );
        let _ = writeln!(out, "{}", c.strategies_line());
        if c.rts_ops() == 0 {
            let _ = writeln!(out, "runtime interface (Table 1): no calls");
        } else {
            let _ = writeln!(out, "runtime interface (Table 1):");
            let mut ops: Vec<(&str, u64)> = RtsOp::NAMES.into_iter().zip(c.rts).collect();
            ops.sort_unstable();
            for (name, n) in ops.into_iter().filter(|&(_, n)| n > 0) {
                let _ = writeln!(out, "  {name:<16} x{n}");
            }
        }
        let _ = writeln!(out, "per procedure:");
        let _ = writeln!(
            out,
            "  {:<20} {:>7} {:>7} {:>5} {:>5} {:>5} {:>10} {:>10}  cost-histogram",
            "name", "entries", "rets", "abn", "cut>", ">cut", "self", "total"
        );
        let mut rows: Vec<(&str, &ProcStats)> = self
            .procs
            .iter()
            .map(|(&id, st)| (names.proc_name(id), st))
            .collect();
        rows.sort_by(|a, b| b.1.self_cost.cmp(&a.1.self_cost).then(a.0.cmp(b.0)));
        for (name, st) in rows {
            let mut hist = String::new();
            for (i, n) in st.hist.iter().enumerate() {
                if *n > 0 {
                    if !hist.is_empty() {
                        hist.push(' ');
                    }
                    let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                    let _ = write!(hist, "{lo}+:{n}");
                }
            }
            let _ = writeln!(
                out,
                "  {:<20} {:>7} {:>7} {:>5} {:>5} {:>5} {:>10} {:>10}  {}",
                name,
                st.entries,
                st.returns,
                st.abnormal_returns,
                st.cuts_out,
                st.cuts_in,
                st.self_cost,
                st.total_cost,
                hist
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, event: Event) -> TimedEvent {
        TimedEvent { ts, event }
    }

    #[test]
    fn call_return_attributes_self_cost() {
        let (f, g) = (ProcId(0), ProcId(1));
        let events = vec![
            ev(
                2,
                Event::Call {
                    caller: f,
                    callee: g,
                },
            ),
            ev(
                7,
                Event::Return {
                    proc: g,
                    index: 0,
                    alternates: 0,
                },
            ),
            ev(
                10,
                Event::Return {
                    proc: f,
                    index: 0,
                    alternates: 0,
                },
            ),
        ];
        let p = Profile::build(f, &events);
        assert_eq!(p.procs[&g].self_cost, 5);
        assert_eq!(p.procs[&f].self_cost, 5);
        assert_eq!(p.procs[&f].total_cost, 10);
        assert_eq!(p.procs[&f].entries, 1);
        assert_eq!(p.procs[&g].entries, 1);
        assert_eq!(p.total_cost, 10);
    }

    #[test]
    fn cut_truncates_the_shadow_stack() {
        let (f, g) = (ProcId(0), ProcId(1));
        let events = vec![
            ev(
                1,
                Event::Call {
                    caller: f,
                    callee: g,
                },
            ),
            ev(
                4,
                Event::CutTo {
                    proc: g,
                    target: f,
                    killed_saves: 1,
                },
            ),
            ev(
                9,
                Event::Return {
                    proc: f,
                    index: 0,
                    alternates: 0,
                },
            ),
        ];
        let p = Profile::build(f, &events);
        assert_eq!(p.tally.mechanisms()[0], ("cut", 1));
        assert_eq!(p.procs[&g].cuts_out, 1);
        assert_eq!(p.procs[&f].cuts_in, 1);
        // After the cut, the remaining 5 units belong to f again.
        assert_eq!(p.procs[&f].self_cost, 1 + 5);
        assert_eq!(p.total_cost, 9);
    }

    #[test]
    fn report_is_renderable() {
        let p = Profile::build(ProcId(0), &[ev(0, Event::Yield { code: 3 })]);
        let r = p.report("steps", &[cmm_ir::Name::from("f")][..]);
        assert!(r.contains("per procedure"));
        assert!(r.contains("  f "), "{r}");
        assert!(r.contains("yields"));
    }

    #[test]
    fn replay_pops_walked_frames_and_truncates_to_a_cut_target() {
        // Ids in name order: f, g, h, yield.
        fn n(name: &str) -> ProcId {
            let names = ["f", "g", "h", "yield"];
            ProcId(names.iter().position(|&m| m == name).unwrap() as u32)
        }
        let call = |ts, caller: &str, callee: &str| {
            ev(
                ts,
                Event::Call {
                    caller: n(caller),
                    callee: n(callee),
                },
            )
        };
        let rts = |ts, op| ev(ts, Event::Rts(op));
        let resume = |ts, kind| rts(ts, RtsOp::Resume { kind, ok: true });
        let events = vec![
            call(1, "f", "g"),
            call(2, "g", "h"),
            call(3, "h", "yield"),
            rts(4, RtsOp::FirstActivation { proc: Some(n("h")) }),
            rts(
                4,
                RtsOp::NextActivation {
                    moved: true,
                    proc: Some(n("g")),
                },
            ),
            // One hop: `yield` and `h` go, `g` resumes.
            resume(5, ResumeKind::Unwind),
            call(6, "g", "yield"),
            rts(
                7,
                RtsOp::SetCutToCont {
                    target: Some(n("f")),
                },
            ),
            // A cut-class resume truncates to the target's frame.
            resume(8, ResumeKind::Cut),
            ev(
                9,
                Event::Return {
                    proc: n("f"),
                    index: 0,
                    alternates: 0,
                },
            ),
        ];
        let mut steps = Vec::new();
        let names = ["f", "g", "h", "yield"].map(cmm_ir::Name::from);
        let name = |id| names[..].proc_name(id).to_string();
        replay(n("f"), &events, |step| match step {
            Step::Enter(ts, id) => steps.push(format!("{ts}+{}", name(id))),
            Step::Leave(ts, id) => steps.push(format!("{ts}-{}", name(id))),
            Step::Event(..) => {}
        });
        assert_eq!(
            steps,
            [
                "1+f", "1+g", "2+h", "3+yield", "5-yield", "5-h", "6+yield", "8-yield", "8-g",
                "9-f"
            ]
        );
        let p = Profile::build(n("f"), &events);
        assert_eq!(p.procs[&n("yield")].entries, 2);
        assert_eq!(p.procs[&n("g")].self_cost, 1 + 1);
        assert_eq!(p.procs[&n("f")].self_cost, 1 + 1);
        assert_eq!(p.tally.mechanisms()[0], ("cut", 1));
    }
}
