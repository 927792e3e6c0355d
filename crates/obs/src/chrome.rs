//! Chrome `trace_event` export (hand-rolled JSON — the workspace has no
//! external dependencies).
//!
//! A recorded stream becomes a JSON object loadable by `chrome://tracing`
//! or Perfetto: `B`/`E` duration events are the frames entered and left
//! by the shadow-stack replay the profiler uses (see
//! [`crate::metrics`]), and every exception-relevant transition — cuts,
//! yields, abnormal returns, Table 1 operations — additionally appears
//! as an instant event. Timestamps are the engine's virtual clock
//! (abstract-machine steps or VM cost units) reported as microseconds.

use crate::event::{Event, TimedEvent};
use crate::json::json_escape;
use crate::metrics::{replay, Step};
use cmm_ir::Name;
use std::fmt::Write as _;

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push_str(",\n");
        }
    }

    fn begin(&mut self, ts: u64, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"name\":\"{}\",\"cat\":\"call\",\"ph\":\"B\",\"ts\":{ts},\"pid\":1,\"tid\":1}}",
            json_escape(name)
        );
    }

    fn end(&mut self, ts: u64, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"name\":\"{}\",\"cat\":\"call\",\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":1}}",
            json_escape(name)
        );
    }

    fn instant(&mut self, ts: u64, name: &str, cat: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\"s\":\"t\",\"pid\":1,\"tid\":1}}",
            json_escape(name),
        );
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

/// Renders a recorded stream as Chrome `trace_event` JSON. `entry` is
/// the procedure the run started in.
pub fn chrome_trace_json(entry: &Name, events: &[TimedEvent]) -> String {
    let mut w = Writer::new();
    replay(entry, events, |step| match step {
        Step::Enter(ts, name) => w.begin(ts, name.as_str()),
        Step::Leave(ts, name) => w.end(ts, name.as_str()),
        Step::Event(t, _) => {
            let ts = t.ts;
            match &t.event {
                Event::Call { .. } | Event::TailCall { .. } => {}
                Event::Return {
                    proc,
                    index,
                    alternates,
                } => {
                    if index < alternates {
                        w.instant(
                            ts,
                            &format!("return <{index}/{alternates}> {proc}"),
                            "abret",
                        );
                    }
                }
                Event::CutTo { proc, target, .. } => {
                    w.instant(ts, &format!("cut {proc} -> {target}"), "cut");
                }
                Event::ContCapture { proc, conts, .. } => {
                    w.instant(ts, &format!("cont-capture {proc} x{conts}"), "cont");
                }
                Event::ContDeath { proc, .. } => {
                    w.instant(ts, &format!("cont-death {proc}"), "cont");
                }
                Event::Yield { code } => {
                    w.instant(ts, &format!("yield {code}"), "yield");
                }
                Event::Chaos { what } => {
                    w.instant(ts, &format!("chaos {what}"), "chaos");
                }
                Event::Rts(_) => w.instant(ts, &t.event.render(), "rts"),
            }
        }
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_balanced_json() {
        let f = Name::from("f");
        let g = Name::from("g");
        let events = vec![
            TimedEvent {
                ts: 1,
                event: Event::Call {
                    caller: f.clone(),
                    callee: g.clone(),
                },
            },
            TimedEvent {
                ts: 5,
                event: Event::Yield { code: 2 },
            },
        ];
        let json = chrome_trace_json(&f, &events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with('}'));
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "every B has an E:\n{json}");
        assert!(json.contains("yield 2"));
    }
}
