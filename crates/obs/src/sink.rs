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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_sink_caps_and_counts_drops() {
        let mut s = RecordingSink::with_cap(2);
        for i in 0..5 {
            s.event(i, Event::Yield { code: i });
        }
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.dropped, 3);
    }
}
