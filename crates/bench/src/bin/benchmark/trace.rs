//! Spans and counts recorded around the benchmark's calls into each
//! layer, kept in memory and turned into a per-layer self-time ledger
//! (and a Chrome `trace_event` file) when the traced run ends.
//!
//! Recording is per thread and off by default: an untraced [`span`]
//! costs one thread-local flag read, so the end-to-end run measures
//! the program, not the recorder. Every span the benchmark opens wraps
//! a call into a public function of one layer; nothing inside the
//! program is instrumented.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root span of one operation. Layer shares are taken against the
/// summed duration of these; a root's own self time is the benchmark's
/// bookkeeping (reference checks, loop control) and is reported as
/// `op`.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`parse`, `exec.vm-fused`, `serve.tick`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder was enabled.
    pub start: u64,
    /// End, ns since the recorder was enabled.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation or request the span belongs to.
    pub op: u64,
}

/// Everything one traced run recorded.
#[derive(Debug, Default)]
pub struct Recording {
    /// Spans in opening order.
    pub spans: Vec<Span>,
    /// Counts recorded at the same boundaries.
    pub counts: BTreeMap<&'static str, u64>,
}

struct Recorder {
    epoch: Instant,
    open: Vec<usize>,
    op: u64,
    rec: Recording,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn enable() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            open: Vec::new(),
            op: 0,
            rec: Recording::default(),
        })
    });
    ON.with(|on| on.set(true));
}

/// Stops recording on this thread and returns what was recorded.
pub fn disable() -> Recording {
    ON.with(|on| on.set(false));
    REC.with(|r| r.borrow_mut().take())
        .map(|r| r.rec)
        .unwrap_or_default()
}

/// Whether this thread is recording.
pub fn on() -> bool {
    ON.with(Cell::get)
}

/// Sets the operation id later spans belong to.
pub fn set_op(op: u64) {
    if on() {
        REC.with(|r| {
            if let Some(r) = r.borrow_mut().as_mut() {
                r.op = op;
            }
        });
    }
}

/// Adds `n` to the count `name`.
pub fn count(name: &'static str, n: u64) {
    if on() {
        REC.with(|r| {
            if let Some(r) = r.borrow_mut().as_mut() {
                *r.rec.counts.entry(name).or_default() += n;
            }
        });
    }
}

/// Closes its span when dropped, so a panicking call still ends the
/// span it opened.
struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(i) = self.0 else { return };
        REC.with(|r| {
            if let Some(r) = r.borrow_mut().as_mut() {
                let now = r.epoch.elapsed().as_nanos() as u64;
                r.rec.spans[i].end = now;
                r.open.pop();
            }
        });
    }
}

fn open(name: &'static str) -> Guard {
    if !on() {
        return Guard(None);
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(r) = r.as_mut() else {
            return Guard(None);
        };
        let start = r.epoch.elapsed().as_nanos() as u64;
        let i = r.rec.spans.len();
        r.rec.spans.push(Span {
            name,
            start,
            end: start,
            parent: r.open.last().copied(),
            op: r.op,
        });
        r.open.push(i);
        Guard(Some(i))
    })
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = open(name);
    f()
}

/// Per-layer totals of one recording.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Self time (span duration minus the time its children cover),
    /// ns, per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the [`OP`] roots: the base of every share.
    pub op_ns: u64,
    /// Durations of every span of each layer, ns (for per-call
    /// percentiles).
    pub durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Ledger {
    /// Builds the ledger of a recording.
    pub fn of(rec: &Recording) -> Ledger {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut l = Ledger::default();
        for (s, child) in rec.spans.iter().zip(child_ns) {
            let dur = s.end - s.start;
            *l.self_ns.entry(s.name).or_default() += dur.saturating_sub(child);
            l.durations.entry(s.name).or_default().push(dur);
            if s.parent.is_none() && s.name == OP {
                l.op_ns += dur;
            }
        }
        l
    }

    /// Self time of `layer`, ns.
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.self_ns.get(layer).copied().unwrap_or(0)
    }

    /// Self time of `layer` as a share of all op time, permille.
    pub fn share(&self, layer: &str) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        self.self_ns(layer) as f64 * 1000.0 / self.op_ns as f64
    }
}

/// Renders the spans as Chrome `trace_event` JSON (complete events,
/// microsecond timestamps), loadable in `chrome://tracing` or Perfetto.
pub fn chrome_json(rec: &Recording, workload: &str) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in rec.spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
            sp.name,
            sp.start as f64 / 1e3,
            (sp.end - sp.start) as f64 / 1e3,
            sp.op
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_shares_use_op_roots() {
        let rec = Recording {
            spans: vec![
                Span {
                    name: OP,
                    start: 0,
                    end: 100,
                    parent: None,
                    op: 0,
                },
                Span {
                    name: "parse",
                    start: 10,
                    end: 40,
                    parent: Some(0),
                    op: 0,
                },
                Span {
                    name: "exec.vm",
                    start: 40,
                    end: 90,
                    parent: Some(0),
                    op: 0,
                },
                Span {
                    name: "rt.dispatch",
                    start: 50,
                    end: 60,
                    parent: Some(2),
                    op: 0,
                },
                // Outside any op: counted for itself, not in the base.
                Span {
                    name: "snap.decode",
                    start: 100,
                    end: 130,
                    parent: None,
                    op: 0,
                },
            ],
            counts: BTreeMap::new(),
        };
        let l = Ledger::of(&rec);
        assert_eq!(l.op_ns, 100);
        assert_eq!(l.self_ns(OP), 20);
        assert_eq!(l.self_ns("parse"), 30);
        assert_eq!(l.self_ns("exec.vm"), 40);
        assert_eq!(l.self_ns("rt.dispatch"), 10);
        assert_eq!(l.self_ns("snap.decode"), 30);
        assert_eq!(l.share("exec.vm"), 400.0);
        assert!(chrome_json(&rec, "w").contains("\"name\":\"rt.dispatch\""));
    }

    #[test]
    fn spans_nest_and_close_on_unwind() {
        enable();
        span(OP, || {
            span("parse", || {});
            let r = std::panic::catch_unwind(|| span("exec.vm", || panic!("boom")));
            assert!(r.is_err());
            span("opt", || {});
        });
        let rec = disable();
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                (OP, None),
                ("parse", Some(0)),
                ("exec.vm", Some(0)),
                ("opt", Some(0))
            ]
        );
        assert!(!on());
    }
}
