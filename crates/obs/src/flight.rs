//! The flight recorder: a bounded ring-buffer [`TraceSink`] that
//! retains the *last N* events of a run with fixed allocation, plus a
//! [`Tally`] over the whole stream.
//!
//! A batch service cannot afford a full
//! [`RecordingSink`](crate::sink::RecordingSink) per job — an
//! adversarial job emits millions of
//! events — but "job 17 ended Wrong" with nothing else is not
//! actionable either. The flight recorder is the middle ground: the
//! ring holds the final control transfers (the part of the stream a
//! post-mortem actually reads), while the tally covers the whole run in
//! constant memory. When a job ends in Wrong, a panic or an injected
//! chaos fault, [`FlightRecorder::dump`] renders the post-mortem
//! artifact.
//!
//! The batch layer lends the recorder to an engine as `&mut` inside
//! its panic boundary, so the recording survives even if the engine
//! panics out from under the sink.

use crate::event::{Event, RtsOp, TimedEvent};
use crate::sink::TraceSink;
use crate::tally::Tally;
use cmm_ir::ProcNames;
use std::fmt::Write as _;

/// A bounded last-N event recorder with whole-stream tallies. See the
/// module docs.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Ring capacity (fixed at construction; the ring never grows past
    /// it).
    cap: usize,
    ring: Vec<TimedEvent>,
    /// Next write slot once the ring is full (also the index of the
    /// oldest retained event).
    head: usize,
    /// Events ever observed (retained + overwritten).
    total: u64,
    /// Whole-stream counts.
    pub tally: Tally,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` events (`cap` is clamped to
    /// at least 1 so a dump always has the final event).
    pub fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            ring: Vec::with_capacity(cap),
            head: 0,
            total: 0,
            tally: Tally::default(),
        }
    }

    /// Folds one event in: the tally always, ring slot overwritten
    /// wraparound-style once full.
    pub fn record(&mut self, now: u64, e: Event) {
        self.total += 1;
        self.tally.record(&e);
        let t = TimedEvent { ts: now, event: e };
        if self.ring.len() < self.cap {
            self.ring.push(t);
        } else {
            self.ring[self.head] = t;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Events ever observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events that fell off the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.ring.len() < self.cap {
            out.extend_from_slice(&self.ring);
        } else {
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
        }
        out
    }

    /// The post-mortem text: a header, the whole-stream tallies, and
    /// the retained tail of the event stream, its procedures named from
    /// `names`.
    pub fn dump(&self, header: &str, names: &(impl ProcNames + ?Sized)) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== flight recorder post-mortem ===");
        let _ = writeln!(out, "{header}");
        let c = &self.tally;
        let _ = writeln!(
            out,
            "events: {} total ({} retained, {} dropped)",
            self.total,
            self.ring.len(),
            self.dropped()
        );
        let _ = writeln!(
            out,
            "counts: {} calls, {} tail calls, {} returns ({} abnormal), {} cuts, \
             {} yields, {} rts ops, {} chaos",
            c.calls,
            c.tail_calls,
            c.returns,
            c.abnormal_returns,
            c.cuts,
            c.yields,
            c.rts_ops(),
            c.chaos_events()
        );
        let _ = writeln!(out, "{}", c.strategies_line());
        if c.rts_ops() > 0 {
            let mut line = String::from("table1:");
            for (name, n) in RtsOp::NAMES.iter().zip(c.rts) {
                if n > 0 {
                    let _ = write!(line, " {name} x{n}");
                }
            }
            let _ = writeln!(out, "{line}");
        }
        for (op, n) in &c.chaos {
            let _ = writeln!(out, "chaos: fault {op} x{n}");
        }
        let _ = writeln!(out, "--- final {} event(s) ---", self.ring.len());
        for t in self.events() {
            let _ = writeln!(out, "{:>12}  {}", t.ts, t.event.render(names));
        }
        out
    }
}

impl TraceSink for FlightRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn event(&mut self, now: u64, e: Event) {
        self.record(now, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_ir::{Name, ProcId};

    fn yield_ev(code: u64) -> Event {
        Event::Yield { code }
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent_events() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.record(i, yield_ev(i));
        }
        assert_eq!(fr.total(), 10);
        assert_eq!(fr.dropped(), 6);
        let tail: Vec<u64> = fr.events().iter().map(|t| t.ts).collect();
        assert_eq!(tail, vec![6, 7, 8, 9]);
        // The tally covers the whole stream, not just the ring.
        assert_eq!(fr.tally.yields, 10);
    }

    #[test]
    fn ring_boundary_cases() {
        // Exactly at capacity: nothing dropped, order preserved.
        let mut fr = FlightRecorder::new(3);
        for i in 0..3u64 {
            fr.record(i, yield_ev(i));
        }
        assert_eq!(fr.dropped(), 0);
        assert_eq!(
            fr.events().iter().map(|t| t.ts).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // One past capacity: oldest gone.
        fr.record(3, yield_ev(3));
        assert_eq!(
            fr.events().iter().map(|t| t.ts).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Zero capacity clamps to one.
        let mut fr = FlightRecorder::new(0);
        fr.record(1, yield_ev(1));
        fr.record(2, yield_ev(2));
        assert_eq!(fr.events().len(), 1);
        assert_eq!(fr.events()[0].ts, 2);
    }

    #[test]
    fn dump_contains_header_tallies_and_tail() {
        let mut fr = FlightRecorder::new(2);
        fr.record(
            0,
            Event::Call {
                caller: ProcId(0),
                callee: ProcId(1),
            },
        );
        for i in 1..5u64 {
            fr.record(i, yield_ev(i));
        }
        let names = [Name::from("f"), Name::from("g")];
        let text = fr.dump("job 17 [vm] ended wrong", &names[..]);
        assert!(text.contains("job 17 [vm] ended wrong"));
        assert!(text.contains("5 total (2 retained, 3 dropped)"));
        assert!(text.contains("yield 4"), "{text}");
        assert!(!text.contains("yield 1"), "dropped event resurfaced");
    }

    #[test]
    fn a_lent_recorder_keeps_its_events_when_the_borrower_panics() {
        // An engine owns its sink by value; the batch lends it `&mut`.
        fn engine<S: TraceSink>(mut sink: S) {
            sink.event(1, yield_ev(1));
            panic!("engine died");
        }
        let mut fr = FlightRecorder::new(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine(&mut fr)));
        assert!(r.is_err());
        assert_eq!(fr.total(), 1);
        assert_eq!(fr.events()[0].event, yield_ev(1));
    }
}
