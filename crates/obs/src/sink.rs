//! Trace sinks: where engines send their events.
//!
//! Every engine is generic over a sink type, defaulting to [`NopSink`].
//! The contract that makes tracing free when disabled is the associated
//! constant [`TraceSink::ENABLED`]: engines guard every emission —
//! *including payload construction* — with `if S::ENABLED { ... }`, so
//! monomorphizing with `NopSink` deletes the whole branch at compile
//! time. The perf trajectory's instruction counts (and its CI gate)
//! double as the zero-overhead guard: they are measured through the
//! default `NopSink` instantiation and must not move when the tracing
//! layer changes.

use crate::event::{Event, TimedEvent};

/// A consumer of trace events. See the module documentation for the
/// zero-cost contract.
pub trait TraceSink {
    /// Whether this sink wants events at all. Engines skip event
    /// construction entirely when this is `false`, so it must be a
    /// compile-time constant, not a runtime flag.
    const ENABLED: bool;

    /// Receives one event. `now` is the emitting engine's clock: the
    /// abstract machine's transition count or the VM's cost-model
    /// total.
    fn event(&mut self, now: u64, e: Event);
}

/// The default sink: compiled away entirely.
#[derive(Clone, Copy, Default, Debug)]
pub struct NopSink;

impl TraceSink for NopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _now: u64, _e: Event) {}
}

/// A borrowed sink: the engine records into the caller's sink, which
/// the caller still holds once the engine is gone.
impl<S: TraceSink> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn event(&mut self, now: u64, e: Event) {
        (**self).event(now, e);
    }
}

/// Records every event with its timestamp, up to a cap (a runaway
/// program cannot exhaust memory through its trace).
#[derive(Clone, Debug)]
pub struct RecordingSink {
    /// The recorded stream, in emission order.
    pub events: Vec<TimedEvent>,
    /// Maximum events retained.
    pub cap: usize,
    /// Events dropped after the cap was reached.
    pub dropped: u64,
}

impl RecordingSink {
    /// A sink retaining at most `cap` events.
    pub fn with_cap(cap: usize) -> RecordingSink {
        RecordingSink {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }
}

impl Default for RecordingSink {
    /// A generous default cap: plenty for any figure workload or
    /// difftest case, bounded for adversarial ones.
    fn default() -> RecordingSink {
        RecordingSink::with_cap(1_000_000)
    }
}

impl TraceSink for RecordingSink {
    const ENABLED: bool = true;

    fn event(&mut self, now: u64, e: Event) {
        if self.events.len() < self.cap {
            self.events.push(TimedEvent { ts: now, event: e });
        } else {
            self.dropped += 1;
        }
    }
}

/// Aggregate counters over an event stream — what the perf trajectory
/// records next to instruction counts.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct EventCounts {
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
    /// Table 1 operations.
    pub rts_ops: u64,
    /// Continuation captures (abstract machine only).
    pub cont_captures: u64,
    /// Continuation deaths (abstract machine only).
    pub cont_deaths: u64,
    /// Chaos interventions: injected Table 1 faults and governor limit
    /// trips (zero outside chaos runs).
    pub chaos_events: u64,
}

impl EventCounts {
    /// Folds one event into the counters.
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
            Event::Rts(_) => self.rts_ops += 1,
            Event::Chaos { .. } => self.chaos_events += 1,
        }
    }

    /// Counters for a recorded stream.
    pub fn of(events: &[TimedEvent]) -> EventCounts {
        let mut c = EventCounts::default();
        for t in events {
            c.record(&t.event);
        }
        c
    }
}

/// Counts events without retaining them: constant memory, suitable for
/// benchmark instrumentation runs.
#[derive(Clone, Copy, Default, Debug)]
pub struct CountingSink {
    /// The running totals.
    pub counts: EventCounts,
}

impl TraceSink for CountingSink {
    const ENABLED: bool = true;

    #[inline]
    fn event(&mut self, _now: u64, e: Event) {
        self.counts.record(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_ir::Name;

    #[test]
    fn recording_sink_caps_and_counts_drops() {
        let mut s = RecordingSink::with_cap(2);
        for i in 0..5 {
            s.event(i, Event::Yield { code: i });
        }
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.dropped, 3);
    }

    #[test]
    fn counts_classify_abnormal_returns() {
        let mut s = CountingSink::default();
        s.event(
            0,
            Event::Return {
                proc: Name::from("g"),
                index: 0,
                alternates: 1,
            },
        );
        s.event(
            1,
            Event::Return {
                proc: Name::from("g"),
                index: 1,
                alternates: 1,
            },
        );
        assert_eq!(s.counts.returns, 2);
        assert_eq!(s.counts.abnormal_returns, 1);
    }
}
