//! `cmm` — the command-line driver.
//!
//! `cmm` with no arguments prints every subcommand's usage lines,
//! rendered from the flag table in `args.rs`, which also decides which
//! flags each subcommand and mode reads.
//!
//! `run` prints a procedure's results on both substrates (the formal
//! semantics and the simulated target) and the target's cost.
//! `dump-cfg` prints Abstract C-- (Table 2 nodes), `dump-ssa` the
//! Figure 6-style SSA numbering, and `dump-vm` the disassembled target
//! code. `m3` runs a MiniM3 program under a chosen strategy, and
//! `fuzz --replay DIR` re-runs checked-in reproducers.
//!
//! `batch` executes a manifest of jobs (see `cmm-pool`'s docs for the
//! format) on a caller-runs work queue, sharing compilations through the
//! content-addressed cache, and prints a JSON report. With
//! `--no-timing` the report is byte-identical for every `-j`, which CI
//! exploits; `--jobs N` likewise parallelizes `fuzz` without changing
//! a byte of its report or corpus. `--metrics-out` turns on the batch
//! metrics registry and writes its JSON to a file (the batch report
//! also gains a `metrics` section); `--postmortem-dir` additionally
//! writes each failed job's flight-recorder dump to
//! `DIR/job-<id>.txt`. Either flag runs the jobs through the flight
//! recorder sink; without them the engines run through `NopSink`
//! exactly as the perf trajectory measures.
//!
//! `metrics` is the observability view of the same runner: it executes
//! the manifest with the registry on and prints Prometheus text
//! exposition (or the registry JSON with `--json`), exiting zero even
//! when jobs fail — failures are part of what it reports.
//!
//! `serve` is the persistent multi-tenant execution service
//! (`cmm-serve`): `--listen` speaks the NDJSON session protocol over
//! TCP; `--selftest` runs the deterministic load generator on the
//! virtual cost-model clock and prints figures that are byte-identical
//! at every `-j` (wall-clock rates are printed separately and never
//! gated). `--events-out` writes the scheduler event log and
//! `--metrics-out` the deterministic metrics JSON, which CI compares
//! across worker counts.
//!
//! `--chaos` additionally runs every generated case under K seeded
//! Table 1 fault schedules (derived from `--fault-seed`), asserting the
//! reference semantics, pre-resolved semantics, VM, and pre-decoded VM
//! observe identical outcomes and injected-fault logs under each.
//!
//! Strategies: `runtime-unwind`, `cutting`, `native-unwind`, `cps`,
//! `sjlj-pentium`, `sjlj-sparc`, `sjlj-alpha`.
//!
//! `snap` runs a raw C-- program on one engine (`sem`, `sem-resolved`,
//! `vm`, `vm-decoded`, `vm-fused`; default `vm`) under the fixed
//! dispatcher policy and, if it is still running after `--at K` fuel
//! units, serializes the suspended machine to `--out` in the versioned
//! `cmm-snap` wire format. Without `--at` it simply runs to an end and
//! prints `outcome:` / `instructions:` lines. `resume` decodes such a
//! blob, picks the engine recorded in the snapshot (or `--engine`, any
//! tier of the same family — VM snapshots resume on any VM tier),
//! verifies the blob's program digest (source, build options, family)
//! against the given file, rebuilds the engine, restores the
//! state, and continues to an end, printing the same two lines — so a
//! snap-at-K-then-resume pair is byte-comparable against one straight
//! `cmm snap` run. `--snapshot-every F` on `run` and `batch` performs
//! a full capture → encode → decode → restore round-trip at every
//! F-fuel slice boundary (an in-process self-check that changes
//! nothing observable); `fuzz --snap` runs the snapshot-equivalence
//! oracle over every generated case.
//!
//! `trace` and `profile` run the program with a recording sink in the
//! engine: `trace` prints the exception-flow event log (and exports
//! Chrome `trace_event` JSON with `--out`, `-` for stdout), `profile`
//! aggregates it into per-procedure and per-strategy metrics with
//! cost-model attribution. Both take a `.cmm` file with an entry
//! procedure, or a `.m3` file with a strategy (entry `main` via the
//! MiniM3 driver). Suspensions of raw C-- programs are serviced by the
//! same fixed dispatcher policy the differential fuzzer uses, so a
//! trace of a fuzz case reproduces the oracle's run exactly.

#[path = "cmm/args.rs"]
mod args;

use args::Args;
use chaos::{Budget, End, EngineId, Family, Table1};
use cmm_core::sem::Value;
use cmm_core::{chaos, frontend, ir, obs, opt, pool, serve, snap, vm, Compiler};
use frontend::{with_engine, Code, Setup};
use std::process::ExitCode;

fn main() -> ExitCode {
    match utf8_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cmm: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The command line after the program name, refusing by position an
/// argument that is not UTF-8.
fn utf8_args() -> Result<Vec<String>, String> {
    std::env::args_os()
        .skip(1)
        .enumerate()
        .map(|(i, a)| {
            a.into_string()
                .map_err(|a| format!("argument {} is not UTF-8: {a:?}", i + 1))
        })
        .collect()
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let a = args::parse(argv)?;
    match a.cmd {
        "run" => run_program(&a),
        "snap" => snap_program(&a),
        "resume" => resume(&a),
        "dump-cfg" | "dump-ssa" => dump_graphs(&a),
        "dump-vm" => {
            let c = compiler(&read(&a.pos[0])?, opt::OptOptions::default())?;
            let vp = c.vm_program().map_err(|e| e.to_string())?;
            print!("{}", vm::disasm::disassemble(&vp));
            Ok(())
        }
        "m3" => run_m3(&a),
        "trace" | "profile" => trace(&a),
        "fuzz" => fuzz(&a),
        "batch" => batch(&a),
        "metrics" => metrics(&a),
        "serve" => serve(&a),
        other => unreachable!("`{other}` has a mode in the flag table but no handler"),
    }
}

/// The full optimizer pipeline, or none of it (`-O0`).
fn opt_options(optimize: bool) -> opt::OptOptions {
    if optimize {
        opt::OptOptions::default()
    } else {
        opt::OptOptions::none()
    }
}

fn run_program(a: &Args) -> Result<(), String> {
    let (file, proc) = (&a.pos[0], a.pos[1].as_str());
    let results = a.size("--results").unwrap_or(1);
    let opts = opt_options(!a.on("-O0"));
    let call_args = a.words64();
    let src = read(file)?;
    let c = compiler(&src, opts)?;
    let sem_args = a.words.iter().map(|&w| Value::b32(w)).collect();
    let prog = c.program().map_err(|e| e.to_string())?;
    let Some(every) = a.num("--snapshot-every") else {
        let sem = c
            .interpret_on(&prog, proc, sem_args)
            .map_err(|e| e.to_string())?;
        let vp = c.vm_program().map_err(|e| e.to_string())?;
        let (vm_vals, cost) = c
            .execute_on(&vp, proc, &call_args, results)
            .map_err(|e| e.to_string())?;
        print_run(
            &sem,
            &vm_vals,
            [cost.instructions, cost.loads, cost.stores, cost.branches],
        );
        return Ok(());
    };
    // The same two runs, each round-tripping its machine through
    // a snapshot at every interval boundary. The lines printed
    // come from these runs, so their results and the target's
    // whole cost vector must survive every round-trip; only the
    // semantics' typed values, which `Table1` reports as bare
    // words, come from a plain run that must agree.
    let checkpointed = |engine: EngineId, code: Code| {
        let cx = SnapCtx {
            every: Some(every),
            service: false,
            ..SnapCtx::new(engine, &src, proc, &call_args, opts)
        };
        with_engine(engine, &code, obs::NopSink, Setup::default(), |t| {
            t.start(proc, &call_args, results)
                .map_err(|w| format!("runtime error: {w}"))?;
            let (end, count, bytes) = snap_drive(t, &cx)?;
            Ok::<_, String>((end, t.deep_state().1, count, bytes))
        })?
    };
    let stopped = |engine: EngineId, end: End| match end {
        End::SuspensionBound => "program yielded to a missing run-time system".into(),
        end => end_text(engine, &end),
    };
    let (end, _, sem_count, sem_bytes) = checkpointed(EngineId::Sem, Code::sem(&prog))?;
    let End::Halted(sem_words) = end else {
        return Err(stopped(EngineId::Sem, end));
    };
    let sem = c
        .interpret_on(&prog, proc, sem_args)
        .map_err(|e| e.to_string())?;
    let want: Vec<u64> = sem.iter().map(|v| v.bits().unwrap_or(u64::MAX)).collect();
    if sem_words != want {
        return Err(format!(
            "sem: the checkpointed run diverged from the plain run: halt {sem_words:?}"
        ));
    }
    let vp = c.vm_program().map_err(|e| e.to_string())?;
    let (end, cost, vm_count, vm_bytes) = checkpointed(EngineId::Vm, Code::vm(&vp))?;
    let End::Halted(vm_vals) = end else {
        return Err(stopped(EngineId::Vm, end));
    };
    // The target's deep state leads with instructions, loads,
    // stores and branches.
    print_run(&sem, &vm_vals, [cost[0], cost[1], cost[2], cost[3]]);
    println!(
        "snapshots: semantics {sem_count} checkpoint(s) ({sem_bytes} bytes), \
         target {vm_count} checkpoint(s) ({vm_bytes} bytes)"
    );
    Ok(())
}

fn snap_program(a: &Args) -> Result<(), String> {
    let (file, proc) = (&a.pos[0], a.pos[1].as_str());
    let engine = EngineId::parse(a.text("--engine").unwrap_or("vm"))?;
    let fuel = a.num("--fuel").unwrap_or(TRACE_FUEL);
    let opts = opt_options(!a.on("-O0"));
    let call_args = a.words64();
    let src = read(file)?;
    let cx = SnapCtx {
        fuel,
        first_budget: fuel,
        at: a.num("--at"),
        out: a.text("--out").unwrap_or("cmm.snap"),
        ..SnapCtx::new(engine, &src, proc, &call_args, opts)
    };
    snap_session(&src, None, &cx, opts, a.size("--results").unwrap_or(1))
}

fn resume(a: &Args) -> Result<(), String> {
    let (snapfile, file) = (&a.pos[0], &a.pos[1]);
    let engine_override = a.text("--engine").map(EngineId::parse).transpose()?;
    let blob = std::fs::read(snapfile).map_err(|e| format!("{snapfile}: {e}"))?;
    let snapshot = snap::Snapshot::decode(&blob).map_err(|e| format!("{snapfile}: {e}"))?;
    let engine = engine_override.unwrap_or(snapshot.engine);
    // The family first: the digest covers the family too, and
    // a cross-family resume deserves the structured diagnostic
    // (both engines, both families, the blob digest).
    snapshot.check_engine(engine)?;
    let src = read(file)?;
    let (meta, opts) = (&snapshot.meta, opt_options(snapshot.meta.opt));
    let cx = SnapCtx {
        fuel: a.num("--fuel").unwrap_or(TRACE_FUEL),
        first_budget: meta.fuel_remaining,
        yields: meta.yields_done,
        ..SnapCtx::new(engine, &src, &meta.entry, &meta.args, opts)
    };
    snapshot
        .check_digest(cx.digest)
        .map_err(|e| format!("{snapfile}: {e} (is `{file}` the snapshotted source?)"))?;
    snap_session(&src, Some(&snapshot), &cx, opts, 1)
}

fn dump_graphs(a: &Args) -> Result<(), String> {
    let (file, only) = (&a.pos[0], a.pos.get(1).map(String::as_str));
    let ssa = a.cmd == "dump-ssa";
    let c = compiler(&read(file)?, opt::OptOptions::default())?;
    let prog = c.program().map_err(|e| e.to_string())?;
    let mut shown = false;
    for (name, g) in &prog.procs {
        if only.is_some_and(|o| name != o) || (ssa && name == cmm_core::cfg::YIELD) {
            continue;
        }
        shown = true;
        if ssa {
            let numbering = opt::Ssa::build(g);
            print!("{}", opt::ssa::ssa_to_string(g, &numbering));
        } else {
            print!("{}", cmm_core::cfg::display::graph_to_string(g));
        }
    }
    match only {
        Some(o) if !shown => Err(format!("{file}: no procedure `{o}`")),
        _ => Ok(()),
    }
}

fn run_m3(a: &Args) -> Result<(), String> {
    let file = &a.pos[0];
    let strategy = frontend::Strategy::parse(&a.pos[1])?;
    let src = read(file)?;
    let module = frontend::compile_minim3(&src, strategy).map_err(|e| e.to_string())?;
    let sem = frontend::run_sem(&module, strategy, &a.words).map_err(|e| e.to_string())?;
    let (vm_val, cost) =
        frontend::run_vm(&module, strategy, &a.words).map_err(|e| e.to_string())?;
    assert_eq!(sem, vm_val, "substrates disagree — please report a bug");
    println!("result:    {vm_val}");
    println!(
        "cost:      {} instructions (+{} run-time system), {} loads, {} stores",
        cost.instructions, cost.runtime_instructions, cost.loads, cost.stores
    );
    Ok(())
}

fn trace(a: &Args) -> Result<(), String> {
    let (file, entry) = (&a.pos[0], &a.pos[1]);
    let engine = match (a.on("--sem"), a.on("--decoded"), a.on("--fused")) {
        (true, ..) => EngineId::Sem,
        (_, true, _) => EngineId::VmDecoded,
        (.., true) => EngineId::VmFused,
        _ => EngineId::Vm,
    };
    let opts = opt_options(!a.on("-O0"));
    let run = if file.ends_with(".m3") {
        trace_m3(file, entry, &a.words, &opts, engine)?
    } else {
        let results = a.size("--results").unwrap_or(1);
        trace_cmm(file, entry, &a.words64(), results, opts, engine)?
    };
    if a.cmd == "profile" {
        let p = obs::Profile::build(&run.entry, &run.events);
        println!("{file}: {} ({} events)", run.outcome, run.events.len());
        if let Some(note) = run.truncation() {
            println!("{note}");
        }
        print!("{}", p.report(run.clock));
        return Ok(());
    }
    let out = a.text("--out");
    if out != Some("-") {
        for t in &run.events {
            println!("{:>12}  {}", t.ts, t.event.render());
        }
        let c = obs::Tally::of(&run.events);
        println!(
            "{file}: {} — {} events ({} calls, {} returns [{} abnormal], \
             {} cuts, {} yields, {} rts ops)",
            run.outcome,
            run.events.len(),
            c.calls,
            c.returns,
            c.abnormal_returns,
            c.cuts,
            c.yields,
            c.rts_ops()
        );
    }
    if let Some(note) = run.truncation() {
        // `--out -` leaves stdout to the Chrome JSON.
        if out == Some("-") {
            eprintln!("{note}");
        } else {
            println!("{note}");
        }
    }
    match out {
        Some("-") => print!("{}", obs::chrome_trace_json(&run.entry, &run.events)),
        Some(path) => {
            let json = obs::chrome_trace_json(&run.entry, &run.events);
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            println!("chrome trace written to {path}");
        }
        None => {}
    }
    Ok(())
}

fn fuzz(a: &Args) -> Result<(), String> {
    let defaults = cmm_difftest::FuzzConfig::default();
    if let Some(dir) = a.text("--replay") {
        let report = cmm_difftest::replay_corpus(dir.as_ref(), &defaults.limits)
            .map_err(|e| format!("{dir}: {e}"))?;
        for f in &report.failures {
            eprintln!("reproducer {} diverges: {}", f.path.display(), f.failure);
        }
        println!(
            "fuzz replay: {} reproducer(s) from {dir}: {} failure(s)",
            report.files_run,
            report.failures.len()
        );
        return if report.ok() {
            Ok(())
        } else {
            Err("corpus replay found divergence".into())
        };
    }
    let cfg = cmm_difftest::FuzzConfig {
        cases: a.size("--cases").unwrap_or(defaults.cases),
        seed: a.num("--seed").unwrap_or(defaults.seed),
        shrink: a.on("--shrink"),
        corpus_dir: a.text("--corpus").map(Into::into),
        chaos: a.on("--chaos"),
        fault_seed: a.num("--fault-seed").unwrap_or(defaults.fault_seed),
        schedules: a.num("--schedules").unwrap_or(defaults.schedules),
        snap: a.on("--snap"),
        snap_slice: a.num("--snap-slice").unwrap_or(defaults.snap_slice),
        jobs: a.size("--jobs").unwrap_or(defaults.jobs),
        ..defaults
    };
    let report = cmm_difftest::run_fuzz(&cfg);
    for f in &report.failures {
        eprintln!("case {} (seed {}): {}", f.index, cfg.seed, f.failure);
        let shown = f.shrunk.as_ref().unwrap_or(&f.case);
        eprintln!(
            "--- {} program ---",
            if f.shrunk.is_some() {
                "shrunk"
            } else {
                "failing"
            }
        );
        eprint!("{}", shown.render());
        if let Some(p) = &f.corpus_path {
            eprintln!("reproducer written to {}", p.display());
        }
        if let Some(p) = &f.events_path {
            eprintln!("divergence event logs written to {}", p.display());
        }
    }
    println!(
        "fuzz: {} cases, seed {}: {} failure(s)",
        report.cases_run,
        cfg.seed,
        report.failures.len()
    );
    if report.ok() {
        Ok(())
    } else {
        Err("differential fuzzing found divergence".into())
    }
}

/// Runs `batch`'s or `metrics`' manifest, refusing one with no jobs, on
/// a fresh cache of `--cache-bytes` at `-j`, with the registry on if
/// `metrics`.
fn run_manifest(
    a: &Args,
    metrics: bool,
) -> Result<(pool::BatchReport, pool::PipelineCache), String> {
    let manifest = &a.pos[0];
    let specs = pool::load_manifest(manifest.as_ref())?;
    if specs.is_empty() {
        return Err(format!("{manifest}: no jobs"));
    }
    let cache = pool::PipelineCache::new(match a.num("--cache-bytes") {
        Some(max_bytes) => pool::CacheConfig { max_bytes },
        None => pool::CacheConfig::default(),
    });
    let config = pool::BatchConfig {
        workers: a.size("--jobs").unwrap_or(1),
        metrics,
        snapshot_every: a.num("--snapshot-every"),
    };
    Ok((pool::run_batch(&specs, &cache, &config), cache))
}

fn batch(a: &Args) -> Result<(), String> {
    let timing = !a.on("--no-timing");
    let metrics_out = a.text("--metrics-out");
    let postmortem_dir = a.text("--postmortem-dir");
    let (report, cache) = run_manifest(a, metrics_out.is_some() || postmortem_dir.is_some())?;
    let json = report.to_json(timing);
    match a.text("--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        }
        None => print!("{json}"),
    }
    if let Some(path) = metrics_out {
        let reg = report.registry.as_ref().expect("metrics enabled");
        let mut m = reg.to_json(timing);
        m.push('\n');
        std::fs::write(path, &m).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(dir) = postmortem_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for pm in &report.postmortems {
            let path = format!("{dir}/job-{}.txt", pm.job_id);
            std::fs::write(&path, &pm.text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "batch: post-mortem for job {} ({} [{}] {}) written to {path}",
                pm.job_id, pm.name, pm.engine, pm.outcome
            );
        }
    }
    eprintln!(
        "batch: {} job(s) at -j{}, cache {}",
        report.jobs.len(),
        a.size("--jobs").unwrap_or(1),
        cache.snapshot()
    );
    // A failing job (compile error, panic, `wrong` verdict,
    // checkpoint failure or run-time error) must fail the
    // batch loudly, naming the culprit — not just sit inside
    // the JSON.
    let failing = report.failing_jobs();
    if failing.is_empty() {
        return Ok(());
    }
    for j in &failing {
        eprintln!(
            "batch: job {} failed: {} [{}] entry={} args={:?}: {}{}{}",
            j.id,
            j.name,
            j.engine,
            j.entry,
            j.args,
            j.outcome,
            if j.detail.is_empty() { "" } else { ": " },
            j.detail
        );
    }
    Err(format!(
        "{} job(s) failed (compile error, panic, wrong, snapshot or run-time error)",
        failing.len()
    ))
}

fn metrics(a: &Args) -> Result<(), String> {
    let (report, _) = run_manifest(a, true)?;
    let reg = report.registry.as_ref().expect("metrics enabled");
    let timing = !a.on("--no-timing");
    if a.on("--json") {
        println!("{}", reg.to_json(timing));
    } else {
        print!("{}", reg.to_prometheus(timing));
    }
    // The observability viewer reports failures instead of
    // failing on them: a fleet dashboard scraping this output
    // wants the counters, not a dead scrape target.
    for pm in &report.postmortems {
        eprintln!(
            "metrics: job {} `{}` [{}] ended {}",
            pm.job_id, pm.name, pm.engine, pm.outcome
        );
    }
    Ok(())
}

fn serve(a: &Args) -> Result<(), String> {
    let config = serve::ServeConfig {
        quantum: a.num("--quantum").unwrap_or(2_000),
        ..serve::load_config(a.size("--jobs").unwrap_or(1))
    };
    if let Some(addr) = a.text("--listen") {
        let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        println!("serving on {local}");
        return serve::serve_on(listener, serve::Service::new(config)).map_err(|e| e.to_string());
    }
    let profile = serve::LoadProfile {
        tenants: a.size("--tenants").unwrap_or(17),
        threads_per_tenant: a.size("--threads").unwrap_or(64),
        quanta: a.num("--quanta").unwrap_or(0),
        seed: a.num("--seed").unwrap_or(0xC0FFEE),
    };
    let (svc, report) = serve::run_load(config, &profile);
    // Deterministic figures first (byte-identical at every
    // -j), wall-clock rates last, clearly separated.
    println!(
        "threads:          {} submitted, {} completed, {} yields serviced",
        report.threads, report.completed, report.yields
    );
    println!(
        "scheduler:        {} quanta, {} migrations, parked high water {}",
        report.quanta, report.migrations, report.parked_high_water
    );
    println!(
        "virtual:          {} ns, {} responses/s",
        report.virtual_ns, report.virtual_rps
    );
    println!(
        "queue wait vns:   p50 {} p99 {}",
        report.queue_wait_p50, report.queue_wait_p99
    );
    println!(
        "turnaround vns:   p50 {} p99 {}",
        report.turnaround_p50, report.turnaround_p99
    );
    println!("event digest:     {:#018x}", report.event_digest);
    println!(
        "wall (not gated): {} ms, {} responses/s",
        report.wall_ns / 1_000_000,
        report.wall_rps
    );
    if let Some(path) = a.text("--events-out") {
        std::fs::write(path, svc.events_text()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = a.text("--metrics-out") {
        let reg = svc.registry().expect("selftest mounts metrics");
        std::fs::write(path, reg.to_json(false)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// One traced run, ready for `trace` rendering or `profile`
/// aggregation.
struct TraceRun {
    entry: ir::Name,
    clock: &'static str,
    outcome: String,
    events: Vec<obs::TimedEvent>,
    /// Events past the recording's cap, missing from `events`.
    dropped: u64,
}

impl TraceRun {
    /// What a reader of a truncated trace must be told: every count
    /// printed from it covers only the recorded prefix.
    fn truncation(&self) -> Option<String> {
        (self.dropped > 0).then(|| {
            format!(
                "trace truncated: the first {} events were recorded and {} more were dropped; \
                 counts cover the recorded events only",
                self.events.len(),
                self.dropped
            )
        })
    }
}

const TRACE_FUEL: u64 = 500_000_000;
const TRACE_MAX_YIELDS: u64 = 1024;

/// The clock a recorded trace is timed by.
fn clock(engine: EngineId) -> &'static str {
    match engine.family() {
        Family::Sem => "steps",
        Family::Vm => "cost units",
    }
}

/// Traces a MiniM3 program end to end through the driver (dispatcher
/// included), on the chosen engine.
fn trace_m3(
    file: &str,
    strat: &str,
    args: &[u32],
    opts: &opt::OptOptions,
    engine: EngineId,
) -> Result<TraceRun, String> {
    let strategy = frontend::Strategy::parse(strat)?;
    let src = read(file)?;
    let module = frontend::compile_minim3(&src, strategy).map_err(|e| e.to_string())?;
    let (r, rec) = match engine.family() {
        Family::Sem => {
            frontend::run_sem_traced(&module, strategy, args).map_err(|e| e.to_string())?
        }
        Family::Vm => {
            let (r, rec) = frontend::run_vm_traced(&module, strategy, args, opts, engine)
                .map_err(|e| e.to_string())?;
            (r.map(|(v, _)| v), rec)
        }
    };
    let outcome = match r {
        Ok(v) => format!("result {v}"),
        Err(e) => e.to_string(),
    };
    Ok(TraceRun {
        entry: ir::Name::from(frontend::lower::ENTRY),
        clock: clock(engine),
        outcome,
        events: rec.events,
        dropped: rec.dropped,
    })
}

/// Traces a raw C-- program on the chosen engine, servicing
/// suspensions with the fixed dispatcher policy (see
/// [`chaos::service_yield`]), so a trace of a fuzz case reproduces the
/// oracle's run exactly.
fn trace_cmm(
    file: &str,
    proc: &str,
    args: &[u64],
    results: usize,
    opts: opt::OptOptions,
    engine: EngineId,
) -> Result<TraceRun, String> {
    let c = compiler(&read(file)?, opts)?;
    let (prog, vp) = compile_for(&c, engine)?;
    let code = Code {
        program: prog.as_ref(),
        vm: vp.as_ref(),
        ..Code::default()
    };
    let mut rec = obs::RecordingSink::default();
    let outcome = with_engine(engine, &code, &mut rec, Setup::default(), |t| {
        if let Err(w) = t.start(proc, args, results) {
            return format!("wrong: {w}");
        }
        let budget = Budget::new(TRACE_FUEL, TRACE_MAX_YIELDS);
        match chaos::drive(t, budget, &mut Vec::new(), |_, _, _| Ok(())) {
            Ok(end) => end_text(engine, &end),
            Err(e) => e,
        }
    })?;
    Ok(TraceRun {
        entry: ir::Name::from(proc),
        clock: clock(engine),
        outcome,
        events: rec.events,
        dropped: rec.dropped,
    })
}

/// How a drive ended, as `trace`, `profile` and `snap` report it.
fn end_text(engine: EngineId, end: &End) -> String {
    match end {
        End::Halted(words) => format!("halt {words:?}"),
        End::Wrong(e) => match engine.family() {
            Family::Sem => format!("wrong: {e}"),
            Family::Vm => format!("fault: {e}"),
        },
        End::OutOfFuel => "out of fuel".into(),
        End::SuspensionBound => "suspension bound reached".into(),
        End::RtsError(e) => format!("rts error: {e}"),
        End::Unexpected(s) => format!("unexpected status {s}"),
        End::Paused { .. } => "paused".into(),
    }
}

/// Prints `cmm run`'s three result lines: the semantics' values, the
/// target's words, and the target's instructions, loads, stores and
/// branches.
fn print_run(sem: &[Value], target: &[u64], cost: [u64; 4]) {
    let [instructions, loads, stores, branches] = cost;
    println!("semantics: {sem:?}");
    println!("target:    {target:?}");
    println!(
        "cost:      {instructions} instructions, {loads} loads, {stores} stores, {branches} branches"
    );
}

/// Shared parameters of the snapshot drive behind `cmm snap`,
/// `cmm resume`, and `cmm run --snapshot-every`.
struct SnapCtx<'a> {
    engine: EngineId,
    digest: snap::Digest,
    entry: &'a str,
    args: &'a [u64],
    opt: bool,
    /// Per-segment fuel budget for segments after the first.
    fuel: u64,
    /// The current segment's remaining budget at loop entry
    /// (`meta.fuel_remaining` on resume, `fuel` on a fresh start).
    first_budget: u64,
    /// Fuel from now until the capture point; `None` never captures.
    at: Option<u64>,
    /// Self-round-trip checkpoint interval (`--snapshot-every`).
    every: Option<u64>,
    /// Yields already serviced (nonzero when resuming).
    yields: u64,
    /// Service suspensions with the fixed dispatcher policy; when
    /// false the first suspension ends the run with
    /// [`End::SuspensionBound`], like plain `cmm run`.
    service: bool,
    /// Snapshot output path (used only when `at` fires).
    out: &'a str,
}

impl<'a> SnapCtx<'a> {
    /// A fresh run of `entry(args)` over `src` on `engine`.
    fn new(
        engine: EngineId,
        src: &str,
        entry: &'a str,
        args: &'a [u64],
        opts: opt::OptOptions,
    ) -> SnapCtx<'a> {
        let opt = opts != opt::OptOptions::none();
        SnapCtx {
            engine,
            digest: pool::SourceKey::cmm(src, opt, engine.family()).digest(),
            entry,
            args,
            opt,
            fuel: TRACE_FUEL,
            first_budget: TRACE_FUEL,
            at: None,
            every: None,
            yields: 0,
            service: true,
            out: "",
        }
    }

    /// Encodes `t`'s state under this run's identity metadata.
    fn encode(&self, t: &dyn Table1, budget: u64, yields: u64) -> Result<Vec<u8>, String> {
        let meta = snap::SnapMeta {
            entry: self.entry.to_string(),
            args: self.args.to_vec(),
            fuel_remaining: budget,
            yields_done: yields,
            opt: self.opt,
        };
        Ok(snap::Snapshot::capture(t, self.digest, meta, None)?.encode())
    }
}

/// Drives a started or restored thread in fuel slices under the fixed
/// dispatcher policy: self-round-trips at every `--snapshot-every`
/// boundary and, when the `--at` point fires, writes the snapshot to
/// `cx.out` and returns [`End::Paused`]. Returns the end plus the
/// checkpoint (count, bytes) totals — for a paused run, the written
/// blob's size. Fuel accounting is exact, so the sliced run's outcome
/// matches the unsliced one.
fn snap_drive(t: &mut dyn Table1, cx: &SnapCtx) -> Result<(End, u64, u64), String> {
    let budget = Budget {
        left: cx.first_budget,
        every: cx.every,
        pause_after: cx.at,
        max_yields: if cx.service {
            TRACE_MAX_YIELDS.saturating_sub(cx.yields)
        } else {
            0
        },
        ..Budget::new(cx.fuel, 0)
    };
    let (mut count, mut total) = (0u64, 0u64);
    let mut yields = Vec::new();
    let end = chaos::drive(t, budget, &mut yields, |t, left, done| {
        let bytes = cx.encode(t, left, cx.yields + done)?;
        let decoded = snap::Snapshot::decode(&bytes).map_err(|e| e.to_string())?;
        decoded.state.restore_into(t)?;
        count += 1;
        total += bytes.len() as u64;
        Ok(())
    })?;
    if let End::Paused { left } = end {
        let bytes = cx.encode(t, left, cx.yields + yields.len() as u64)?;
        std::fs::write(cx.out, &bytes).map_err(|e| format!("{}: {e}", cx.out))?;
        total = bytes.len() as u64;
    }
    Ok((end, count, total))
}

/// Builds the engine `cx` names over `src`, optionally restores a
/// decoded snapshot into it, runs the drive, and prints the end in a
/// stable format: `outcome:` + `instructions:` lines on a finished
/// run (byte-comparable between a straight run and a snap-then-resume
/// pair), or a one-line report of the written snapshot.
fn snap_session(
    src: &str,
    restore: Option<&snap::Snapshot>,
    cx: &SnapCtx,
    opts: opt::OptOptions,
    results: usize,
) -> Result<(), String> {
    let c = compiler(src, opts)?;
    let (prog, vp) = compile_for(&c, cx.engine)?;
    let code = Code {
        program: prog.as_ref(),
        vm: vp.as_ref(),
        ..Code::default()
    };
    let report = with_engine(cx.engine, &code, obs::NopSink, Setup::default(), |t| {
        match restore {
            Some(s) => s.restore_into(t)?,
            None => t
                .start(cx.entry, cx.args, results)
                .map_err(|w| format!("wrong: {w}"))?,
        }
        Ok::<_, String>(match snap_drive(t, cx)? {
            (End::Paused { .. }, _, bytes) => format!(
                "snapshot written to {} ({bytes} bytes, engine {})",
                cx.out,
                cx.engine.name()
            ),
            (end, _, _) => format!(
                "outcome: {}\ninstructions: {}",
                end_text(cx.engine, &end),
                t.work()
            ),
        })
    })??;
    println!("{report}");
    Ok(())
}

/// The CFG and target programs, as far as they were compiled.
type Compiled = (Option<cmm_core::cfg::Program>, Option<vm::VmProgram>);

/// Compiles what `engine`'s family runs: the CFG for the abstract
/// machines, target code for the VM tiers.
fn compile_for(c: &Compiler, engine: EngineId) -> Result<Compiled, String> {
    Ok(match engine.family() {
        Family::Sem => (Some(c.program().map_err(|e| e.to_string())?), None),
        Family::Vm => (None, Some(c.vm_program().map_err(|e| e.to_string())?)),
    })
}

fn read(file: &str) -> Result<String, String> {
    std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))
}

fn compiler(src: &str, opts: opt::OptOptions) -> Result<Compiler, String> {
    let c = Compiler::new().source(src).map_err(|e| e.to_string())?;
    Ok(c.options(opts))
}
