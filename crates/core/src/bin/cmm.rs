//! `cmm` — the command-line driver.
//!
//! ```text
//! cmm run <file.cmm> <proc> [args...] [--results N] [-O0] [--snapshot-every F]
//! cmm dump-cfg <file.cmm> [proc]      # Abstract C-- (Table 2 nodes)
//! cmm dump-ssa <file.cmm> [proc]      # Figure 6-style SSA numbering
//! cmm dump-vm <file.cmm>              # disassembled simulated target
//! cmm m3 <file.m3> <strategy> [args...]   # MiniM3 with a chosen strategy
//! cmm trace <file> <proc|strategy> [args...] [--sem] [--decoded|--fused] [-O0]
//!           [--results N] [--out F]
//! cmm profile <file> <proc|strategy> [args...] [--sem] [--decoded|--fused] [-O0]
//!             [--results N]
//! cmm snap <file.cmm> <proc> [args...] [--engine E] [--at K] [--fuel F]
//!          [--results N] [-O0] [--out FILE]
//! cmm resume <snapshot> <file.cmm> [--engine E] [--fuel F]
//! cmm fuzz [--cases N] [--seed S] [--shrink] [--corpus DIR] [--jobs N]
//!          [--chaos] [--fault-seed S] [--schedules K] [--snap] [--snap-slice F]
//! cmm fuzz --replay DIR               # re-run checked-in reproducers
//! cmm batch <manifest> [-j N] [--out F] [--no-timing] [--cache-bytes B]
//!           [--metrics-out F] [--postmortem-dir DIR] [--snapshot-every F]
//! cmm metrics <manifest> [-j N] [--json] [--no-timing] [--cache-bytes B]
//! cmm serve --listen ADDR [-j N] [--quantum F]
//! cmm serve --selftest [--tenants N] [--threads N] [--quanta N] [--seed S]
//!           [-j N] [--quantum F] [--metrics-out F] [--events-out F]
//! ```
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

use chaos::{Budget, End, EngineId, Family, Table1};
use cmm_core::sem::Value;
use cmm_core::{chaos, frontend, ir, obs, opt, pool, serve, snap, vm, Compiler};
use frontend::{with_engine, Code, Setup};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cmm: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut args = args.into_iter();
    let cmd = args.next().ok_or_else(usage)?;
    match cmd.as_str() {
        "run" => {
            let file = args.next().ok_or_else(usage)?;
            let proc = args.next().ok_or_else(usage)?;
            let rest: Vec<String> = args.collect();
            let mut results = 1usize;
            let mut opts = opt::OptOptions::default();
            let mut every: Option<u64> = None;
            let mut call_args: Vec<u64> = Vec::new();
            let mut it = rest.into_iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--results" => {
                        results = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--results needs a number")?;
                    }
                    "-O0" => opts = opt::OptOptions::none(),
                    // Fuel intervals are u64 like every fuel budget in
                    // the system; parse the full width so a large
                    // interval is honored, not truncated.
                    "--snapshot-every" => {
                        every = Some(
                            it.next()
                                .and_then(|v| v.parse::<u64>().ok())
                                .filter(|&n| n >= 1)
                                .ok_or("--snapshot-every needs a number >= 1")?,
                        );
                    }
                    // Arguments are machine words (bits32). Parsing as
                    // u32 up front rejects oversized values instead of
                    // letting the semantics see a truncated word while
                    // the target sees the full u64.
                    v => call_args.push(
                        v.parse::<u32>()
                            .map(u64::from)
                            .map_err(|_| format!("bad argument `{v}`"))?,
                    ),
                }
            }
            let src = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            let c = Compiler::new()
                .source(&src)
                .map_err(|e| e.to_string())?
                .options(opts);
            let sem_args = call_args.iter().map(|&a| Value::b32(a as u32)).collect();
            let prog = c.program().map_err(|e| e.to_string())?;
            let Some(every) = every else {
                let sem = c
                    .interpret_on(&prog, &proc, sem_args)
                    .map_err(|e| e.to_string())?;
                let vp = c.vm_program().map_err(|e| e.to_string())?;
                let (vm_vals, cost) = c
                    .execute_on(&vp, &proc, &call_args, results)
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
                    ..SnapCtx::new(engine, &src, &proc, &call_args, opts)
                };
                with_engine(engine, &code, obs::NopSink, Setup::default(), |t| {
                    t.start(&proc, &call_args, results)
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
                .interpret_on(&prog, &proc, sem_args)
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
        "snap" => {
            let file = args.next().ok_or_else(usage)?;
            let proc = args.next().ok_or_else(usage)?;
            let mut engine = EngineId::Vm;
            let mut fuel = TRACE_FUEL;
            let mut at: Option<u64> = None;
            let mut out = "cmm.snap".to_string();
            let mut results = 1usize;
            let mut opts = opt::OptOptions::default();
            let mut call_args: Vec<u64> = Vec::new();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--engine" => {
                        engine = EngineId::parse(&args.next().ok_or("--engine needs a name")?)?;
                    }
                    "--fuel" => {
                        fuel = args
                            .next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--fuel needs a number >= 1")?;
                    }
                    "--at" => {
                        at = Some(
                            args.next()
                                .and_then(|v| v.parse::<u64>().ok())
                                .ok_or("--at needs a number")?,
                        );
                    }
                    "--out" => out = args.next().ok_or("--out needs a path")?,
                    "--results" => {
                        results = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--results needs a number")?;
                    }
                    "-O0" => opts = opt::OptOptions::none(),
                    v => call_args.push(
                        v.parse::<u32>()
                            .map(u64::from)
                            .map_err(|_| format!("bad argument `{v}`"))?,
                    ),
                }
            }
            let src = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            let cx = SnapCtx {
                fuel,
                first_budget: fuel,
                at,
                out: &out,
                ..SnapCtx::new(engine, &src, &proc, &call_args, opts)
            };
            snap_session(&src, None, &cx, opts, results)
        }
        "resume" => {
            let snapfile = args.next().ok_or_else(usage)?;
            let file = args.next().ok_or_else(usage)?;
            let mut engine_override: Option<EngineId> = None;
            let mut fuel = TRACE_FUEL;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--engine" => {
                        engine_override = Some(EngineId::parse(
                            &args.next().ok_or("--engine needs a name")?,
                        )?);
                    }
                    "--fuel" => {
                        fuel = args
                            .next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--fuel needs a number >= 1")?;
                    }
                    other => return Err(format!("unknown resume option `{other}`")),
                }
            }
            let blob = std::fs::read(&snapfile).map_err(|e| format!("{snapfile}: {e}"))?;
            let snapshot = snap::Snapshot::decode(&blob).map_err(|e| format!("{snapfile}: {e}"))?;
            let engine = engine_override.unwrap_or(snapshot.engine);
            // The family first: the digest covers the family too, and
            // a cross-family resume deserves the structured diagnostic
            // (both engines, both families, the blob digest).
            snapshot.check_engine(engine)?;
            let src = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            let key = pool::SourceKey::cmm(&src, snapshot.meta.opt, engine.family());
            snapshot
                .check_digest(key.digest())
                .map_err(|e| format!("{snapfile}: {e} (is `{file}` the snapshotted source?)"))?;
            let opts = if snapshot.meta.opt {
                opt::OptOptions::default()
            } else {
                opt::OptOptions::none()
            };
            let cx = SnapCtx {
                engine,
                digest: snapshot.digest,
                entry: &snapshot.meta.entry,
                args: &snapshot.meta.args,
                opt: snapshot.meta.opt,
                fuel,
                first_budget: snapshot.meta.fuel_remaining,
                at: None,
                every: None,
                yields: snapshot.meta.yields_done,
                service: true,
                out: "",
            };
            snap_session(&src, Some(&snapshot), &cx, opts, 1)
        }
        "dump-cfg" | "dump-ssa" => {
            let file = args.next().ok_or_else(usage)?;
            let only = args.next();
            no_more_args(&cmd, args)?;
            let prog = compiler(&file)?.program().map_err(|e| e.to_string())?;
            let mut shown = false;
            for (name, g) in &prog.procs {
                if only.as_deref().is_some_and(|o| name != o)
                    || (cmd == "dump-ssa" && name == cmm_core::cfg::YIELD)
                {
                    continue;
                }
                shown = true;
                if cmd == "dump-cfg" {
                    print!("{}", cmm_core::cfg::display::graph_to_string(g));
                } else {
                    let ssa = opt::Ssa::build(g);
                    print!("{}", opt::ssa::ssa_to_string(g, &ssa));
                }
            }
            match only {
                Some(o) if !shown => Err(format!("{file}: no procedure `{o}`")),
                _ => Ok(()),
            }
        }
        "dump-vm" => {
            let file = args.next().ok_or_else(usage)?;
            no_more_args(&cmd, args)?;
            let vp = compiler(&file)?.vm_program().map_err(|e| e.to_string())?;
            print!("{}", vm::disasm::disassemble(&vp));
            Ok(())
        }
        "m3" => {
            let file = args.next().ok_or_else(usage)?;
            let strat = args.next().ok_or_else(usage)?;
            let strategy = frontend::Strategy::parse(&strat)?;
            let call_args: Vec<u32> = args
                .map(|v| v.parse().map_err(|_| format!("bad argument `{v}`")))
                .collect::<Result<_, _>>()?;
            let src = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            let module = frontend::compile_minim3(&src, strategy).map_err(|e| e.to_string())?;
            let sem =
                frontend::run_sem(&module, strategy, &call_args).map_err(|e| e.to_string())?;
            let (vm_val, cost) =
                frontend::run_vm(&module, strategy, &call_args).map_err(|e| e.to_string())?;
            assert_eq!(sem, vm_val, "substrates disagree — please report a bug");
            println!("result:    {vm_val}");
            println!(
                "cost:      {} instructions (+{} run-time system), {} loads, {} stores",
                cost.instructions, cost.runtime_instructions, cost.loads, cost.stores
            );
            Ok(())
        }
        "trace" | "profile" => {
            let file = args.next().ok_or_else(usage)?;
            let entry_arg = args.next().ok_or_else(usage)?;
            let mut use_sem = false;
            let mut tier = EngineId::Vm;
            let mut opts = opt::OptOptions::default();
            let mut out: Option<String> = None;
            let mut results = 1usize;
            let mut call_args: Vec<u64> = Vec::new();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--sem" => use_sem = true,
                    "--decoded" => tier = EngineId::VmDecoded,
                    "--fused" => tier = EngineId::VmFused,
                    "-O0" => opts = opt::OptOptions::none(),
                    "--out" => out = Some(args.next().ok_or("--out needs a path")?),
                    "--results" => {
                        results = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--results needs a number")?;
                    }
                    v => call_args.push(
                        v.parse::<u32>()
                            .map(u64::from)
                            .map_err(|_| format!("bad argument `{v}`"))?,
                    ),
                }
            }
            if cmd == "profile" && out.is_some() {
                return Err(
                    "profile writes no file; use `cmm trace --out` for a Chrome trace".into(),
                );
            }
            let engine = if use_sem { EngineId::Sem } else { tier };
            let run = if file.ends_with(".m3") {
                trace_m3(&file, &entry_arg, &call_args, &opts, engine)?
            } else {
                trace_cmm(&file, &entry_arg, &call_args, results, opts, engine)?
            };
            if cmd == "profile" {
                let p = obs::Profile::build(&run.entry, &run.events);
                println!("{file}: {} ({} events)", run.outcome, run.events.len());
                if let Some(note) = run.truncation() {
                    println!("{note}");
                }
                print!("{}", p.report(run.clock));
                return Ok(());
            }
            if out.as_deref() != Some("-") {
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
                if out.as_deref() == Some("-") {
                    eprintln!("{note}");
                } else {
                    println!("{note}");
                }
            }
            match out.as_deref() {
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
        "fuzz" => {
            let mut cfg = cmm_difftest::FuzzConfig {
                shrink: false,
                ..Default::default()
            };
            let mut replay_dir: Option<String> = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--replay" => {
                        replay_dir = Some(args.next().ok_or("--replay needs a directory")?);
                    }
                    "--cases" => {
                        cfg.cases = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--cases needs a number")?;
                    }
                    "--seed" => {
                        cfg.seed = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--seed needs a number")?;
                    }
                    "--shrink" => cfg.shrink = true,
                    "--corpus" => {
                        cfg.corpus_dir =
                            Some(args.next().ok_or("--corpus needs a directory")?.into());
                    }
                    "--chaos" => cfg.chaos = true,
                    "--fault-seed" => {
                        cfg.fault_seed = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--fault-seed needs a number")?;
                    }
                    "--schedules" => {
                        cfg.schedules = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--schedules needs a number")?;
                    }
                    "--jobs" | "-j" => {
                        cfg.jobs = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--jobs needs a number >= 1")?;
                    }
                    "--snap" => cfg.snap = true,
                    "--snap-slice" => {
                        cfg.snap_slice = args
                            .next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--snap-slice needs a number >= 1")?;
                    }
                    other => return Err(format!("unknown fuzz option `{other}`")),
                }
            }
            if let Some(dir) = replay_dir {
                let report = cmm_difftest::replay_corpus(dir.as_ref(), &cfg.limits)
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
        "batch" => {
            let manifest = args.next().ok_or_else(usage)?;
            let mut jobs = 1usize;
            let mut out: Option<String> = None;
            let mut timing = true;
            let mut cache_bytes: Option<u64> = None;
            let mut metrics_out: Option<String> = None;
            let mut postmortem_dir: Option<String> = None;
            let mut snapshot_every: Option<u64> = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--jobs" | "-j" => {
                        jobs = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--jobs needs a number >= 1")?;
                    }
                    "--out" => out = Some(args.next().ok_or("--out needs a path")?),
                    "--no-timing" => timing = false,
                    "--cache-bytes" => {
                        cache_bytes = Some(
                            args.next()
                                .and_then(|v| v.parse().ok())
                                .ok_or("--cache-bytes needs a number")?,
                        );
                    }
                    "--metrics-out" => {
                        metrics_out = Some(args.next().ok_or("--metrics-out needs a path")?);
                    }
                    "--postmortem-dir" => {
                        postmortem_dir =
                            Some(args.next().ok_or("--postmortem-dir needs a directory")?);
                    }
                    "--snapshot-every" => {
                        snapshot_every = Some(
                            args.next()
                                .and_then(|v| v.parse::<u64>().ok())
                                .filter(|&n| n >= 1)
                                .ok_or("--snapshot-every needs a number >= 1")?,
                        );
                    }
                    other => return Err(format!("unknown batch option `{other}`")),
                }
            }
            let specs = pool::load_manifest(manifest.as_ref())?;
            if specs.is_empty() {
                return Err(format!("{manifest}: no jobs"));
            }
            let cache = pool::PipelineCache::new(match cache_bytes {
                Some(max_bytes) => pool::CacheConfig { max_bytes },
                None => pool::CacheConfig::default(),
            });
            let report = pool::run_batch(
                &specs,
                &cache,
                &pool::BatchConfig {
                    workers: jobs,
                    metrics: metrics_out.is_some() || postmortem_dir.is_some(),
                    snapshot_every,
                    ..Default::default()
                },
            );
            let json = report.to_json(timing);
            match out.as_deref() {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
                }
                None => print!("{json}"),
            }
            if let Some(path) = &metrics_out {
                let reg = report.registry.as_ref().expect("metrics enabled");
                let mut m = reg.to_json(timing);
                m.push('\n');
                std::fs::write(path, &m).map_err(|e| format!("{path}: {e}"))?;
            }
            if let Some(dir) = &postmortem_dir {
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
                "batch: {} job(s) at -j{jobs}, cache {}",
                report.jobs.len(),
                cache.snapshot()
            );
            // A failing job (compile error, panic, `wrong` verdict,
            // checkpoint failure or run-time error) must fail the
            // batch loudly, naming the culprit — not just sit inside
            // the JSON.
            let failing = report.failing_jobs();
            if failing.is_empty() {
                Ok(())
            } else {
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
        }
        "metrics" => {
            let manifest = args.next().ok_or_else(usage)?;
            let mut jobs = 1usize;
            let mut json = false;
            let mut timing = true;
            let mut cache_bytes: Option<u64> = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--jobs" | "-j" => {
                        jobs = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--jobs needs a number >= 1")?;
                    }
                    "--json" => json = true,
                    "--no-timing" => timing = false,
                    "--cache-bytes" => {
                        cache_bytes = Some(
                            args.next()
                                .and_then(|v| v.parse().ok())
                                .ok_or("--cache-bytes needs a number")?,
                        );
                    }
                    other => return Err(format!("unknown metrics option `{other}`")),
                }
            }
            let specs = pool::load_manifest(manifest.as_ref())?;
            if specs.is_empty() {
                return Err(format!("{manifest}: no jobs"));
            }
            let cache = pool::PipelineCache::new(match cache_bytes {
                Some(max_bytes) => pool::CacheConfig { max_bytes },
                None => pool::CacheConfig::default(),
            });
            let report = pool::run_batch(
                &specs,
                &cache,
                &pool::BatchConfig {
                    workers: jobs,
                    metrics: true,
                    ..Default::default()
                },
            );
            let reg = report.registry.as_ref().expect("metrics enabled");
            if json {
                println!("{}", reg.to_json(timing));
            } else {
                print!("{}", reg.to_prometheus());
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
        "serve" => {
            let mut listen: Option<String> = None;
            let mut selftest = false;
            let mut workers = 1usize;
            let mut quantum = 2_000u64;
            let mut tenants = 17usize;
            let mut threads = 64usize;
            let mut quanta = 0u64;
            let mut seed = 0xC0FFEEu64;
            let mut metrics_out: Option<String> = None;
            let mut events_out: Option<String> = None;
            // The first flag given that only the self-test reads.
            let mut selftest_flag: Option<String> = None;
            while let Some(a) = args.next() {
                if matches!(
                    a.as_str(),
                    "--tenants"
                        | "--threads"
                        | "--quanta"
                        | "--seed"
                        | "--metrics-out"
                        | "--events-out"
                ) {
                    selftest_flag.get_or_insert_with(|| a.clone());
                }
                match a.as_str() {
                    "--listen" => listen = Some(args.next().ok_or("--listen needs an address")?),
                    "--selftest" => selftest = true,
                    "--jobs" | "-j" => {
                        workers = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--jobs needs a number >= 1")?;
                    }
                    "--quantum" => {
                        quantum = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--quantum needs a number >= 1")?;
                    }
                    "--tenants" => {
                        tenants = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--tenants needs a number >= 1")?;
                    }
                    "--threads" => {
                        threads = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--threads needs a number >= 1")?;
                    }
                    "--quanta" => {
                        quanta = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--quanta needs a number")?;
                    }
                    "--seed" => {
                        seed = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--seed needs a number")?;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(args.next().ok_or("--metrics-out needs a path")?)
                    }
                    "--events-out" => {
                        events_out = Some(args.next().ok_or("--events-out needs a path")?)
                    }
                    other => return Err(format!("unknown serve option `{other}`")),
                }
            }
            if listen.is_some() {
                if selftest {
                    return Err("serve: --listen and --selftest cannot be combined".into());
                }
                if let Some(flag) = selftest_flag {
                    return Err(format!("serve: {flag} applies to --selftest, not --listen"));
                }
            }
            let config = serve::ServeConfig {
                quantum,
                ..serve::load_config(workers)
            };
            if selftest {
                let profile = serve::LoadProfile {
                    tenants,
                    threads_per_tenant: threads,
                    quanta,
                    seed,
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
                if let Some(path) = &events_out {
                    std::fs::write(path, svc.events_text()).map_err(|e| format!("{path}: {e}"))?;
                }
                if let Some(path) = &metrics_out {
                    let reg = svc.registry().expect("selftest mounts metrics");
                    std::fs::write(path, reg.to_json(false)).map_err(|e| format!("{path}: {e}"))?;
                }
                return Ok(());
            }
            let addr = listen.ok_or_else(usage)?;
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            println!("serving on {local}");
            serve::serve_on(listener, serve::Service::new(config)).map_err(|e| e.to_string())
        }
        _ => Err(usage()),
    }
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
    args: &[u64],
    opts: &opt::OptOptions,
    engine: EngineId,
) -> Result<TraceRun, String> {
    let strategy = frontend::Strategy::parse(strat)?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let module = frontend::compile_minim3(&src, strategy).map_err(|e| e.to_string())?;
    // MiniM3 arguments are 32-bit; reject rather than silently truncate.
    let args32: Vec<u32> = args
        .iter()
        .map(|&a| u32::try_from(a).map_err(|_| format!("argument {a} out of range for MiniM3")))
        .collect::<Result<_, _>>()?;
    let (r, rec) = match engine.family() {
        Family::Sem => {
            frontend::run_sem_traced(&module, strategy, &args32).map_err(|e| e.to_string())?
        }
        Family::Vm => {
            let (r, rec) = frontend::run_vm_traced(&module, strategy, &args32, opts, engine)
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
    let c = compiler(file)?.options(opts);
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
    let c = Compiler::new()
        .source(src)
        .map_err(|e| e.to_string())?
        .options(opts);
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

/// Refuses an argument a command would otherwise ignore.
fn no_more_args(cmd: &str, mut args: impl Iterator<Item = String>) -> Result<(), String> {
    match args.next() {
        Some(a) => Err(format!("{cmd}: unexpected argument `{a}`")),
        None => Ok(()),
    }
}

fn compiler(file: &str) -> Result<Compiler, String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    Compiler::new().source(&src).map_err(|e| e.to_string())
}

fn usage() -> String {
    "usage: cmm run <file> <proc> [args..] [--results N] [-O0] [--snapshot-every F]\n\
     \x20      cmm dump-cfg <file> [proc]\n\
     \x20      cmm dump-ssa <file> [proc]\n\
     \x20      cmm dump-vm <file>\n\
     \x20      cmm m3 <file> <strategy> [args..]\n\
     \x20      cmm trace <file> <proc|strategy> [args..] [--sem] [--decoded|--fused] [-O0]\n\
     \x20                [--results N] [--out F]\n\
     \x20      cmm profile <file> <proc|strategy> [args..] [--sem] [--decoded|--fused] [-O0]\n\
     \x20                  [--results N]\n\
     \x20      cmm snap <file> <proc> [args..] [--engine E] [--at K] [--fuel F]\n\
     \x20               [--results N] [-O0] [--out FILE]\n\
     \x20      cmm resume <snapshot> <file> [--engine E] [--fuel F]\n\
     \x20      cmm fuzz [--cases N] [--seed S] [--shrink] [--corpus DIR] [--jobs N]\n\
     \x20               [--chaos] [--fault-seed S] [--schedules K] [--snap] [--snap-slice F]\n\
     \x20      cmm fuzz --replay DIR\n\
     \x20      cmm batch <manifest> [-j N] [--out F] [--no-timing] [--cache-bytes B]\n\
     \x20                [--metrics-out F] [--postmortem-dir DIR] [--snapshot-every F]\n\
     \x20      cmm metrics <manifest> [-j N] [--json] [--no-timing] [--cache-bytes B]\n\
     \x20      cmm serve --listen ADDR [-j N] [--quantum F]\n\
     \x20      cmm serve --selftest [--tenants N] [--threads N] [--quanta N] [--seed S]\n\
     \x20                [-j N] [--quantum F] [--metrics-out F] [--events-out F]"
        .into()
}
