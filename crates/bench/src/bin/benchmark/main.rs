//! The repository benchmark: wall-clock `cmm run`, `cmm batch` and
//! `cmm serve` workloads, each checked against independent references,
//! with a separate traced run that splits op time by layer.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! benchmark compare A.txt... -- B.txt...
//! ```
//!
//! `BENCHMARK.json`'s command is invoked as
//! `--workload W --seed N --seconds S --trace 0|1`, so the window length
//! is an option and `--trace` takes an optional 0 or 1; a bare `--trace`
//! means 1.
//!
//! Each workload runs in a child process (this binary re-executing
//! itself), one after another, so peak memory and allocator state
//! belong to that workload. Ops, windows and set-ups are timed on a clock
//! that divides out the host's speed (`speed.rs`). Every figure is printed as
//! `workload metric value unit`; the same lines go to `--out`, and the
//! last line of standard output is one JSON object with the end-to-end
//! metrics (or, with `--trace`, the per-layer ones). See README.md.

mod batch;
mod compare;
mod pipeline;
mod programs;
mod run;
mod serve;
mod spec;
mod speed;
mod stats;
mod trace;
mod workload;

#[cfg(test)]
mod smoke;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workload::{Line, Size, WORKLOADS};

/// Default length of the timed window, seconds.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn usage() -> String {
    "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n\
     \x20      benchmark compare A.txt... -- B.txt...\n\
     workloads: run_cold run_hot batch_mix serve_open serve_rotate"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                a.workloads = if w == "all" {
                    a.workloads.clone()
                } else if WORKLOADS.contains(&w.as_str()) {
                    vec![w.clone()]
                } else {
                    return Err(format!("unknown workload `{w}`\n{}", usage()));
                };
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    Ok(a)
}

/// One child's figures.
struct ChildResult {
    lines: Vec<Line>,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in a child process and parses its lines.
fn spawn(workload: &str, a: &Args, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()]);
    if traced {
        cmd.arg("--traced");
        if let Some(out) = &a.out {
            cmd.args(["--spans", &format!("{out}.{workload}.trace.json")]);
        }
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} child failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut r = ChildResult {
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for l in text.lines() {
        let parts: Vec<&str> = l.split_whitespace().collect();
        let [m, v, u] = parts[..] else {
            return Err(format!("bad line from the {workload} child: `{l}`"));
        };
        let value: f64 = v.parse().map_err(|_| format!("bad value in `{l}`"))?;
        match m {
            "attempted" | "trace.attempted" => r.attempted += value as u64,
            "failed" | "trace.failed" => r.failed += value as u64,
            _ => {}
        }
        r.lines.push(workload::line(m, value, u));
    }
    Ok(r)
}

/// The child side: runs one workload in this process and prints its
/// lines as `metric value unit`.
fn child(argv: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut spans = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--child" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--traced" => traced = true,
            "--spans" => spans = Some(value()?),
            _ => return Err(format!("unknown child argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--child needs a workload")?;
    let report = workload::run(&workload, seed, &Size::full(seconds), traced)?;
    if let (Some(path), Some(rec)) = (spans, &report.recording) {
        std::fs::write(&path, trace::chrome_json(rec, &workload))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let mut s = String::new();
    for l in &report.lines {
        let _ = writeln!(s, "{} {} {}", l.metric, l.value, l.unit);
    }
    print!("{s}");
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--child") => child(&argv),
        Some("compare") => {
            let rest = &argv[1..];
            let split = rest.iter().position(|a| a == "--").unwrap_or(rest.len());
            let b = rest.get(split + 1..).unwrap_or(&[]);
            compare::compare(&rest[..split], b).map(|t| print!("{t}"))
        }
        Some("--help" | "-h") => {
            println!("{}", usage());
            Ok(())
        }
        _ => parse_args(&argv).and_then(|a| bench(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The parent side: every requested workload, untraced for the
/// end-to-end figures and, with `--trace`, once more traced for the
/// ledger.
fn bench(a: &Args) -> Result<(), String> {
    let mut rows: Vec<(String, Line)> = Vec::new();
    let mut json = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let single = a.workloads.len() == 1;
    for w in &a.workloads {
        let plain = spawn(w, a, false)?;
        attempted += plain.attempted;
        failed += plain.failed;
        let mut metrics: Vec<(String, f64, &str)> = Vec::new();
        if a.trace {
            let traced = spawn(w, a, true)?;
            attempted += traced.attempted;
            failed += traced.failed;
            let get = |r: &ChildResult, m: &str| {
                r.lines
                    .iter()
                    .find(|l| l.metric == m)
                    .map_or(f64::NAN, |l| l.value)
            };
            let overhead =
                (get(&plain, "ops_per_s") / get(&traced, "trace.ops_per_s") - 1.0) * 100.0;
            let mut lines = traced.lines;
            lines.push(workload::line("trace.overhead_pct", overhead, "%"));
            for (name, unit) in spec::PER_LAYER {
                let v = lines
                    .iter()
                    .find(|l| l.metric == name)
                    .map_or(0.0, |l| l.value);
                metrics.push((name.to_string(), v, unit));
            }
            rows.extend(plain.lines.into_iter().map(|l| (w.clone(), l)));
            rows.extend(lines.into_iter().map(|l| (w.clone(), l)));
        } else {
            for g in spec::END_TO_END {
                let v = plain.lines.iter().find(|l| l.metric == g.name);
                let v = v.ok_or(format!("{w} did not report {}", g.name))?.value;
                metrics.push((g.name.to_string(), v, g.unit));
            }
            rows.extend(plain.lines.into_iter().map(|l| (w.clone(), l)));
        }
        for (m, v, u) in metrics {
            let name = if single { m } else { format!("{w}.{m}") };
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(v)
            ));
        }
    }
    let mut text = String::new();
    for (w, l) in &rows {
        let _ = writeln!(text, "{w} {} {} {}", l.metric, l.value, l.unit);
    }
    if let Some(out) = &a.out {
        std::fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
    }
    print!("{text}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv).unwrap()
    }

    #[test]
    fn parses_the_benchmark_json_invocation() {
        let a = args("--workload run_hot --seed 7 --seconds 20 --trace 0");
        assert_eq!(a.workloads, ["run_hot"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, false));
        assert!(args("--workload serve_open --trace 1").trace);
        assert!(args("--trace --seed 2").trace);
        let all = args("");
        assert_eq!((all.workloads.len(), all.seed), (WORKLOADS.len(), 1));
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
    }
}
