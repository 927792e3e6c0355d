//! The one fold over an event stream: [`Tally`] classifies every
//! [`Event`] once, and every surface that reports a count reads it —
//! `cmm trace`'s summary line, the [`Profile`](crate::Profile), the
//! [`FlightRecorder`](crate::FlightRecorder)'s post-mortem, the batch
//! metrics registry and the trajectory's `dispatch` columns. There is
//! exactly one definition of what counts as, say, an unwind hop.

use crate::event::{Event, ResumeKind, RtsOp, TimedEvent};
use crate::sink::TraceSink;
use std::collections::BTreeMap;

/// Whole-stream counts: transfers, Table 1 ops by op, unwind hops,
/// successful resumes by class and chaos interventions. Constant
/// memory, so it doubles as the counting sink of benchmark runs.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Tally {
    /// `Call` transfers.
    pub calls: u64,
    /// `Jump` (tail-call) transfers.
    pub tail_calls: u64,
    /// All returns.
    pub returns: u64,
    /// Returns through a branch-table arm other than the normal one.
    pub abnormal_returns: u64,
    /// `cut to` transfers.
    pub cuts: u64,
    /// Suspensions into the run-time system.
    pub yields: u64,
    /// Continuation captures (abstract machine only).
    pub cont_captures: u64,
    /// Continuation deaths (abstract machine only).
    pub cont_deaths: u64,
    /// Table 1 operations, indexed per [`RtsOp::NAMES`].
    pub rts: [u64; RtsOp::NAMES.len()],
    /// Table 1 unwind-walk hops (successful `NextActivation`s).
    pub unwind_hops: u64,
    /// Successful normal-class resumptions.
    pub normal_resumes: u64,
    /// Successful unwind-class resumptions.
    pub unwind_resumes: u64,
    /// Successful cut-class resumptions.
    pub cut_resumes: u64,
    /// Chaos interventions by description with the invocation ordinal
    /// stripped: `"fault resume #2"` tallies under `"fault resume"`,
    /// `"limit stack-depth"` under itself. Bounded by the op/resource
    /// vocabulary, not the run length.
    pub chaos: BTreeMap<String, u64>,
}

impl Tally {
    /// Folds one event into the counts.
    pub fn record(&mut self, e: &Event) {
        match e {
            Event::Call { .. } => self.calls += 1,
            Event::TailCall { .. } => self.tail_calls += 1,
            Event::Return {
                index, alternates, ..
            } => {
                self.returns += 1;
                if index < alternates {
                    self.abnormal_returns += 1;
                }
            }
            Event::CutTo { .. } => self.cuts += 1,
            Event::ContCapture { .. } => self.cont_captures += 1,
            Event::ContDeath { .. } => self.cont_deaths += 1,
            Event::Yield { .. } => self.yields += 1,
            Event::Rts(op) => {
                self.rts[op.index()] += 1;
                match op {
                    RtsOp::NextActivation { moved: true, .. } => self.unwind_hops += 1,
                    RtsOp::Resume { kind, ok: true } => match kind {
                        ResumeKind::Normal => self.normal_resumes += 1,
                        ResumeKind::Unwind => self.unwind_resumes += 1,
                        ResumeKind::Cut => self.cut_resumes += 1,
                    },
                    _ => {}
                }
            }
            Event::Chaos { what } => {
                let key = match what.find(" #") {
                    Some(cut) => &what[..cut],
                    None => what.as_str(),
                };
                *self.chaos.entry(key.to_string()).or_default() += 1;
            }
        }
    }

    /// The counts of a recorded stream.
    pub fn of(events: &[TimedEvent]) -> Tally {
        let mut t = Tally::default();
        for e in events {
            t.record(&e.event);
        }
        t
    }

    /// Table 1 operations of every kind.
    pub fn rts_ops(&self) -> u64 {
        self.rts.iter().sum()
    }

    /// Chaos interventions of every kind.
    pub fn chaos_events(&self) -> u64 {
        self.chaos.values().sum()
    }

    /// Injected Table 1 faults (chaos `fault` events).
    pub fn chaos_faults(&self) -> u64 {
        self.chaos_with_prefix("fault ")
    }

    /// Resource-governor limit trips (chaos `limit` events).
    pub fn governor_trips(&self) -> u64 {
        self.chaos_with_prefix("limit ")
    }

    fn chaos_with_prefix(&self, prefix: &str) -> u64 {
        self.chaos
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, n)| n)
            .sum()
    }

    /// Events by kind, under the registry's `kind` labels.
    pub fn kinds(&self) -> [(&'static str, u64); 10] {
        [
            ("call", self.calls),
            ("tail-call", self.tail_calls),
            ("return", self.returns),
            ("abnormal-return", self.abnormal_returns),
            ("cut", self.cuts),
            ("yield", self.yields),
            ("rts-op", self.rts_ops()),
            ("cont-capture", self.cont_captures),
            ("cont-death", self.cont_deaths),
            ("chaos", self.chaos_events()),
        ]
    }

    /// How often each of the paper's exception-dispatch mechanisms
    /// fired, under the registry's `mech` labels: cuts count `cut to`
    /// transfers and cut-class resumptions alike.
    pub fn mechanisms(&self) -> [(&'static str, u64); 5] {
        [
            ("cut", self.cuts + self.cut_resumes),
            ("unwind-hop", self.unwind_hops),
            ("unwind-resume", self.unwind_resumes),
            ("abnormal-return", self.abnormal_returns),
            ("normal-resume", self.normal_resumes),
        ]
    }

    /// The `strategies:` line of the profile and the post-mortem.
    pub fn strategies_line(&self) -> String {
        format!(
            "strategies: cut x{}, unwind x{} ({} hops), abnormal-return x{}, normal-resume x{}",
            self.cuts + self.cut_resumes,
            self.unwind_resumes,
            self.unwind_hops,
            self.abnormal_returns,
            self.normal_resumes
        )
    }
}

impl TraceSink for Tally {
    const ENABLED: bool = true;

    #[inline]
    fn event(&mut self, _now: u64, e: Event) {
        self.record(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_ir::Name;

    #[test]
    fn returns_are_classified_by_their_arm() {
        let mut t = Tally::default();
        for index in [0, 1] {
            t.event(
                u64::from(index),
                Event::Return {
                    proc: Name::from("g"),
                    index,
                    alternates: 1,
                },
            );
        }
        assert_eq!(t.returns, 2);
        assert_eq!(t.abnormal_returns, 1);
        assert_eq!(t.mechanisms()[3], ("abnormal-return", 1));
    }

    #[test]
    fn table1_resumes_and_chaos_are_classified() {
        let mut t = Tally::default();
        let resume = |kind, ok| Event::Rts(RtsOp::Resume { kind, ok });
        t.record(&Event::Rts(RtsOp::NextActivation {
            moved: true,
            proc: Some(Name::from("f")),
        }));
        t.record(&Event::Rts(RtsOp::NextActivation {
            moved: false,
            proc: None,
        }));
        t.record(&resume(ResumeKind::Unwind, true));
        t.record(&resume(ResumeKind::Cut, true));
        t.record(&resume(ResumeKind::Normal, false));
        for what in ["fault resume #2", "fault resume #5", "limit stack-depth"] {
            t.record(&Event::Chaos { what: what.into() });
        }
        let resume_op = RtsOp::Resume {
            kind: ResumeKind::Normal,
            ok: true,
        };
        assert_eq!(t.rts[resume_op.index()], 3);
        assert_eq!(t.rts_ops(), 5);
        assert_eq!(t.unwind_hops, 1);
        assert_eq!(
            (t.unwind_resumes, t.cut_resumes, t.normal_resumes),
            (1, 1, 0)
        );
        assert_eq!(t.mechanisms()[0], ("cut", 1));
        assert_eq!(t.chaos["fault resume"], 2);
        assert_eq!((t.chaos_faults(), t.governor_trips()), (2, 1));
        assert_eq!(t.chaos_events(), 3);
    }
}
