//! What every workload shares: run sizes, the closed loop, and
//! the metric lines a run reports.

use crate::speed;
use crate::stats::{median, Histogram};
use crate::trace::{self, Ledger, Recording, OP};
use cmm_difftest::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "run_cold",
    "run_hot",
    "batch_mix",
    "serve_open",
    "serve_rotate",
];

/// How big a run is. [`Size::full`] is the benchmark; [`Size::tiny`]
/// the smoke tests.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Length of a slice of the window, seconds: an untraced run sets up
    /// once before every slice.
    pub setup_every_s: f64,
    /// Fewest ops in a traced closed-loop run, which makes whole passes
    /// over its inputs.
    pub traced_ops: usize,
    /// Generated C-- cases in `run_cold`.
    pub gen_cases: usize,
    /// Divisor applied to `run_hot` and `batch_mix` arguments.
    pub shrink: u32,
    /// Requests in a traced `serve_open` run.
    pub traced_requests: usize,
    /// Threads each of the 17 `serve_rotate` tenants submits per round.
    pub threads_per_tenant: usize,
}

impl Size {
    /// The benchmark proper, with a `seconds`-long window.
    pub fn full(seconds: f64) -> Size {
        Size {
            seconds,
            // Set-ups spread over the whole run: the first, in a fresh
            // process, runs slower than the rest, and set-ups bunched at
            // the start all met whatever state the host was in then.
            setup_every_s: 2.0,
            traced_ops: 240,
            gen_cases: 192,
            shrink: 1,
            traced_requests: 1400,
            threads_per_tenant: 64,
        }
    }

    /// A ~0.2 s run for the smoke tests.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            seconds: 0.2,
            setup_every_s: 0.1,
            traced_ops: 1,
            gen_cases: 8,
            shrink: 400,
            traced_requests: 40,
            threads_per_tenant: 2,
        }
    }

    /// How many slices the window is cut into, each after a set-up. A
    /// traced run sets up once and then runs a fixed amount of work.
    pub fn slices(&self, traced: bool) -> usize {
        if traced {
            1
        } else {
            (self.seconds / self.setup_every_s).ceil().max(1.0) as usize
        }
    }
}

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    pub metric: String,
    pub value: f64,
    pub unit: String,
}

/// Builds a [`Line`].
pub fn line(metric: impl Into<String>, value: f64, unit: &str) -> Line {
    Line {
        metric: metric.into(),
        value,
        unit: unit.to_string(),
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub lines: Vec<Line>,
    /// Operations checked (set-up passes included).
    pub attempted: u64,
    /// Operations whose output was wrong, errored, panicked or was
    /// refused.
    pub failed: u64,
    /// The traced run's spans, for the Chrome trace file.
    pub recording: Option<Recording>,
}

/// Latencies and outcomes of operations, over one or more stretches of
/// time. Closed loops time both on the reference clock ([`speed`]).
#[derive(Debug, Default)]
pub struct Window {
    latencies: Histogram,
    pub attempted: u64,
    pub failed: u64,
    elapsed_s: f64,
}

impl Window {
    /// Records an op that completed after `latency`.
    pub fn done(&mut self, latency: Duration) {
        self.latencies.record(latency.as_nanos() as u64);
    }

    /// Adds a stretch of time to the window's length.
    pub fn add_time(&mut self, stretch: Duration) {
        self.elapsed_s += stretch.as_secs_f64();
    }

    /// Counts one checked operation, reporting the first few failures.
    pub fn check(&mut self, what: impl FnOnce() -> String, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("benchmark: {}: {e}", what());
            }
        }
    }

    /// Operations completed per second of the window.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies.count() as f64 / self.elapsed_s
    }
}

/// Runs `op` under a root span with panics caught and reported as
/// failures.
pub fn guarded(id: u64, op: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    trace::set_op(id);
    trace::span(OP, || {
        catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        })
    })
}

/// When a closed loop stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many seconds (the op in flight completes).
    Seconds(f64),
    /// After this many full passes over the inputs.
    Passes(usize),
}

/// A closed loop with one client, adding to `w`: each pass visits every
/// input once, in a fresh seeded order; the next op starts when the
/// previous returns. Ops and the window are timed on the reference
/// clock; `Stop::Seconds` counts wall time.
pub fn closed_loop<T>(
    w: &mut Window,
    inputs: &[T],
    rng: &mut Rng,
    stop: Stop,
    name: impl Fn(&T) -> String,
    mut op: impl FnMut(&T) -> Result<(), String>,
) {
    let (t0, ref0) = (Instant::now(), speed::now());
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut pass = 0;
    'outer: loop {
        match stop {
            Stop::Passes(n) if pass == n => break,
            _ => {}
        }
        shuffle(&mut order, rng);
        for &i in &order {
            speed::poll();
            let t = speed::now();
            let r = guarded(w.attempted, || op(&inputs[i]));
            w.done(speed::now() - t);
            w.check(|| name(&inputs[i]), r);
            if let Stop::Seconds(s) = stop {
                if t0.elapsed().as_secs_f64() >= s {
                    break 'outer;
                }
            }
        }
        pass += 1;
    }
    w.add_time(speed::now() - ref0);
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Runs `setup` once, appending its duration on the reference clock, in
/// seconds, to `times`.
pub fn timed<T>(times: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    speed::poll();
    let t = speed::now();
    let product = setup();
    times.push((speed::now() - t).as_secs_f64());
    product
}

/// A closed-loop workload whose set-up is one pass over its inputs.
/// Untraced, every slice of the window follows a set-up; traced, one
/// set-up precedes whole passes with tracing on (the caller switches it
/// off). Returns the set-up durations and the window; the set-ups'
/// checks go to `report`.
pub fn closed_run<T>(
    inputs: &[T],
    rng: &mut Rng,
    size: &Size,
    traced: bool,
    report: &mut Report,
    name: impl Fn(&T) -> String,
    mut op: impl FnMut(&T) -> Result<(), String>,
) -> (Vec<f64>, Window) {
    let slices = size.slices(traced);
    let mut setups = Vec::new();
    let mut w = Window::default();
    for _ in 0..slices {
        let mut s = Window::default();
        timed(&mut setups, || {
            closed_loop(&mut s, inputs, rng, Stop::Passes(1), &name, &mut op)
        });
        report.attempted += s.attempted;
        report.failed += s.failed;
        let stop = if traced {
            trace::enable();
            Stop::Passes(size.traced_ops.div_ceil(inputs.len()))
        } else {
            Stop::Seconds(size.seconds / slices as f64)
        };
        closed_loop(&mut w, inputs, rng, stop, &name, &mut op);
    }
    report.attempted += w.attempted;
    report.failed += w.failed;
    (setups, w)
}

/// The end-to-end lines of an untraced run, every figure taken over the
/// whole window, and the host's median speed over the run.
pub fn end_to_end(prep_s: f64, setups: &[f64], w: &Window) -> Vec<Line> {
    let us = |p: f64| w.latencies.percentile(p) / 1e3;
    vec![
        line("prep_s", prep_s, "s"),
        line("setup_s", median(setups), "s"),
        line("setups", setups.len() as f64, "count"),
        line("ops_per_s", w.ops_per_s(), "ops/s"),
        line("op_p50_us", us(50.0), "us"),
        line("op_p99_us", us(99.0), "us"),
        line("samples", w.latencies.count() as f64, "count"),
        line("host_ns_per_step", speed::median_ns_per_step(), "ns"),
        line(
            "failed_ratio",
            w.failed as f64 / w.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Every layer the ledger reports self time and share for, whether or
/// not the workload reaches it (absent layers read 0).
pub const LAYERS: [&str; 21] = [
    "parse",
    "frontend",
    "cfg",
    "opt",
    "vm.codegen",
    "vm.decode",
    "vm.fuse",
    "sem.resolve",
    "exec.sem",
    "exec.sem-resolved",
    "exec.vm",
    "exec.vm-decoded",
    "exec.vm-fused",
    "rt.dispatch",
    "pool",
    "serve.submit",
    "serve.tick",
    "serve.awaiting",
    "serve.resume",
    "serve.poll",
    OP,
];

/// Counts recorded at layer boundaries, reported as-is (0 if unseen).
pub const COUNTS: [&str; 11] = [
    "parse.bytes",
    "cfg.nodes",
    "opt.nodes_out",
    "vm.codegen.insts",
    "vm.fuse.heads",
    "rt.dispatch.calls",
    "exec.sem.sim_insts",
    "exec.sem-resolved.sim_insts",
    "exec.vm.sim_insts",
    "exec.vm-decoded.sim_insts",
    "exec.vm-fused.sim_insts",
];

/// The per-layer lines of a traced run: self time and share of every
/// layer, the boundary counts, each engine's wall time per simulated
/// instruction, and the traced throughput `trace.overhead_pct` is
/// computed from.
pub fn ledger_lines(rec: &Recording, w: &Window) -> Vec<Line> {
    let l = Ledger::of(rec);
    let mut v = Vec::new();
    for layer in LAYERS {
        v.push(line(
            format!("{layer}.self_ms"),
            l.self_ns(layer) as f64 / 1e6,
            "ms",
        ));
        v.push(line(format!("{layer}.share"), l.share(layer), "permille"));
    }
    let get = |c: &str| rec.counts.get(c).copied().unwrap_or(0);
    for c in COUNTS {
        v.push(line(c, get(c) as f64, "count"));
    }
    for e in crate::pipeline::ENGINES {
        let (exec, sim) = crate::pipeline::exec_layer(e);
        let insts = get(sim);
        let ns = if insts == 0 {
            0.0
        } else {
            l.self_ns(exec) as f64 / insts as f64
        };
        v.push(line(format!("{exec}.ns_per_inst"), ns, "ns"));
    }
    v.push(line("trace.op_ms", l.op_ns as f64 / 1e6, "ms"));
    v.push(line("trace.ops_per_s", w.ops_per_s(), "ops/s"));
    v
}

/// Runs one workload in this process.
pub fn run(name: &str, seed: u64, size: &Size, traced: bool) -> Result<Report, String> {
    let mut report = match name {
        "run_cold" => crate::run::cold(seed, size, traced),
        "run_hot" => crate::run::hot(seed, size, traced),
        "batch_mix" => crate::batch::mix(seed, size, traced),
        "serve_open" => crate::serve::open(seed, size, traced),
        "serve_rotate" => crate::serve::rotate(seed, size, traced),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if traced {
        report
            .lines
            .push(line("trace.attempted", report.attempted as f64, "count"));
        report
            .lines
            .push(line("trace.failed", report.failed as f64, "count"));
    } else {
        report
            .lines
            .push(line("attempted", report.attempted as f64, "count"));
        report
            .lines
            .push(line("failed", report.failed as f64, "count"));
        report.lines.push(line("peak_rss_mb", peak_rss_mb()?, "MB"));
    }
    Ok(report)
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
