//! Chrome `trace_event` export (hand-rolled JSON — the workspace has no
//! external dependencies).
//!
//! A recorded stream becomes a JSON object loadable by `chrome://tracing`
//! or Perfetto: `B`/`E` duration events reconstruct the call tree from
//! the same shadow-stack replay the profiler uses (see
//! [`crate::metrics`]), and every exception-relevant transition — cuts,
//! yields, abnormal returns, Table 1 operations — additionally appears
//! as an instant event. Timestamps are the engine's virtual clock
//! (abstract-machine steps or VM cost units) reported as microseconds.

use crate::event::{Event, ResumeKind, RtsOp, TimedEvent};
use crate::json::json_escape;
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
    let start = events.first().map(|t| t.ts).unwrap_or(0);
    let mut stack: Vec<Name> = vec![entry.clone()];
    w.begin(start, entry.as_str());
    let mut hops: u64 = 0;
    let mut cut_target: Option<Name> = None;
    let mut last_ts = start;

    for t in events {
        let ts = t.ts;
        last_ts = ts;
        match &t.event {
            Event::Call { callee, .. } => {
                w.begin(ts, callee.as_str());
                stack.push(callee.clone());
            }
            Event::TailCall { callee, .. } => {
                if let Some(top) = stack.pop() {
                    w.end(ts, top.as_str());
                }
                w.begin(ts, callee.as_str());
                stack.push(callee.clone());
            }
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
                if let Some(top) = stack.pop() {
                    w.end(ts, top.as_str());
                }
            }
            Event::CutTo { proc, target, .. } => {
                w.instant(ts, &format!("cut {proc} -> {target}"), "cut");
                truncate(&mut w, &mut stack, ts, target);
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
            Event::Rts(op) => {
                w.instant(ts, &t.event.render(), "rts");
                match op {
                    RtsOp::FirstActivation { .. } => hops = 0,
                    RtsOp::NextActivation { moved: true, .. } => hops += 1,
                    RtsOp::SetCutToCont { target } => cut_target = target.clone(),
                    RtsOp::Resume { kind, ok: true } => match kind {
                        ResumeKind::Normal | ResumeKind::Unwind => {
                            for _ in 0..=hops {
                                if let Some(top) = stack.pop() {
                                    w.end(ts, top.as_str());
                                }
                            }
                        }
                        ResumeKind::Cut => {
                            if let Some(target) = cut_target.take() {
                                truncate(&mut w, &mut stack, ts, &target);
                            }
                        }
                    },
                    _ => {}
                }
            }
        }
    }

    while let Some(top) = stack.pop() {
        w.end(last_ts, top.as_str());
    }
    w.finish()
}

fn truncate(w: &mut Writer, stack: &mut Vec<Name>, ts: u64, target: &Name) {
    if stack.iter().any(|n| n == target) {
        while stack.last().is_some_and(|n| n != target) {
            let top = stack.pop().expect("guarded by is_some_and");
            w.end(ts, top.as_str());
        }
    } else {
        while let Some(top) = stack.pop() {
            w.end(ts, top.as_str());
        }
        w.begin(ts, target.as_str());
        stack.push(target.clone());
    }
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
