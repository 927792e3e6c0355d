//! The benchmark trajectory: every paper workload run under **every**
//! execution engine of each substrate — the reference step loops, the
//! pre-resolved abstract machine, and the VM's fast loop over a decoded
//! and over a fused stream — emitting one machine-readable JSON document
//! (`BENCH_trajectory.json`).
//!
//! Every figure in it is deterministic, so CI regenerates the document
//! and `cmp`s it against the committed one:
//!
//! * **Simulated instruction counts** (`instructions`) come from the
//!   `cmm-vm` cost model. They are identical across engines (asserted
//!   on every run) and across machines.
//! * **Dispatch-event counts** (`dispatch`) come from a separate
//!   [`Tally`]-instrumented run per workload, so the instruction
//!   counts — measured through the zero-cost `NopSink` — stay
//!   bit-identical whether or not anyone reads the events. Every engine
//!   is instrumented and asserted to agree.
//! * The chaos, pool, snapshot and serve sections are pure functions of
//!   their seeds and manifests, with rates on virtual cost-model clocks.
//!
//! Wall-clock time is the repository benchmark's job (`BENCHMARK.json`).
//! The JSON is hand-rolled: the workspace deliberately has no external
//! dependencies.

use cmm_cfg::build_program;
use cmm_chaos::EngineId;
use cmm_frontend::workloads::{deep_raise, NO_RAISE, RAISE_FREQUENCY};
use cmm_frontend::{compile_minim3, run_vm, run_vm_on, run_vm_traced, Strategy};
use cmm_ir::Module;
use cmm_obs::{Tally, TraceSink};
use cmm_opt::{optimize_program, OptOptions};
use cmm_parse::parse_module;
use cmm_vm::{compile, VmMachine, VmProgram, VmStatus};
use std::fmt::Write as _;

/// One measured workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Stable workload name.
    pub name: String,
    /// Deterministic simulated work (instructions + run-time-system
    /// equivalents), identical under every engine.
    pub instructions: u64,
    /// The workload's result, as a sanity anchor.
    pub result: u64,
    /// Exception-dispatch event counts from an instrumented run,
    /// identical under every engine (asserted on every run).
    pub dispatch: Tally,
}

fn compile_cmm(src: &str) -> VmProgram {
    let mut prog =
        build_program(&parse_module(src).expect("workload parses")).expect("workload builds");
    optimize_program(&mut prog, &OptOptions::default());
    compile(&prog).expect("workload compiles")
}

fn run_to_halt<S: TraceSink>(
    m: &mut VmMachine<'_, S>,
    proc: &str,
    args: &[u64],
    results: usize,
) -> Vec<u64> {
    m.start(proc, args, results);
    match m.run(500_000_000) {
        VmStatus::Halted(vals) => vals,
        other => panic!("workload did not halt: {other:?}"),
    }
}

/// Measures a compiled workload on the simulated target under all
/// three VM tiers. `results` is the entry's result arity; a two-result
/// entry follows the MiniM3 `(status, value)` convention and the status
/// is asserted zero.
fn measure_program(
    name: &str,
    vp: &VmProgram,
    proc: &str,
    args: &[u64],
    results: usize,
) -> Measurement {
    let pick = |vals: &[u64]| -> u64 {
        if results == 2 {
            let status = vals.first().copied().unwrap_or(1);
            assert_eq!(status, 0, "{name}: entry returned a nonzero status");
            vals.get(1).copied().unwrap_or(0)
        } else {
            vals.first().copied().unwrap_or(0)
        }
    };

    // Correctness anchor + deterministic work, all three engines. A
    // halted run leaves the stack balanced and `start` resets the entry
    // state, so every machine must give the same result when rerun.
    let mut observed = Vec::new();
    for (engine, mut m) in [
        ("vm", VmMachine::new(vp)),
        ("vm-decoded", VmMachine::new_decoded(vp)),
        ("vm-fused", VmMachine::new_fused(vp)),
    ] {
        let result = pick(&run_to_halt(&mut m, proc, args, results));
        let instructions = m.cost.total();
        let again = pick(&run_to_halt(&mut m, proc, args, results));
        assert_eq!(
            result, again,
            "{name}: {engine} workload is not restartable"
        );
        observed.push((engine, result, instructions));
    }
    let (_, result, instructions) = observed[0];
    for &(engine, r, work) in &observed[1..] {
        assert_eq!(result, r, "{name}: {engine} disagrees on the result");
        assert_eq!(
            instructions, work,
            "{name}: {engine} disagrees on simulated work"
        );
    }

    // Dispatch counts: a separate counting-sink run per engine, so the
    // NopSink instruction counts above stay untouched.
    let mut c = VmMachine::with_sink(vp, Tally::default());
    run_to_halt(&mut c, proc, args, results);
    let dispatch = c.into_sink();
    let mut cd = VmMachine::with_sink_decoded(vp, Tally::default());
    run_to_halt(&mut cd, proc, args, results);
    assert_eq!(
        dispatch,
        cd.into_sink(),
        "{name}: vm-decoded disagrees on dispatch events"
    );
    let mut cf = VmMachine::with_sink_fused(vp, Tally::default());
    run_to_halt(&mut cf, proc, args, results);
    assert_eq!(
        dispatch,
        cf.into_sink(),
        "{name}: vm-fused disagrees on dispatch events"
    );
    Measurement {
        name: name.to_string(),
        instructions,
        result,
        dispatch,
    }
}

/// Measures a raw C-- workload.
fn measure_cmm(name: &str, src: &str, proc: &str, args: &[u64]) -> Measurement {
    measure_program(name, &compile_cmm(src), proc, args, 1)
}

/// Measures a MiniM3 workload whose entry is driven directly on the
/// machine: the module is lowered and compiled once, exactly as
/// [`measure_cmm`] does. Only strategies whose lowered programs never
/// suspend qualify — the run-time-unwinding dispatcher lives outside
/// the machine.
fn measure_m3_hot(name: &str, src: &str, strategy: Strategy, args: &[u64]) -> Measurement {
    let module = compile_minim3(src, strategy).expect("workload compiles");
    let mut prog = build_program(&module).expect("workload builds");
    optimize_program(&mut prog, &OptOptions::default());
    let vp = compile(&prog).expect("workload compiles");
    measure_program(name, &vp, cmm_frontend::lower::ENTRY, args, 2)
}

/// Measures a MiniM3 workload end to end (compile + run + front-end
/// run-time system) through the driver entry points.
fn measure_m3(name: &str, module: &Module, strategy: Strategy, args: &[u32]) -> Measurement {
    let opts = OptOptions::default();
    let run_on = |engine| run_vm_on(module, strategy, args, &opts, engine).expect("workload runs");
    let (result, cost) = run_vm(module, strategy, args).expect("workload runs");
    let (dresult, dcost) = run_on(EngineId::VmDecoded);
    assert_eq!(result, dresult, "{name}: engines disagree on the result");
    assert_eq!(
        cost.total(),
        dcost.total(),
        "{name}: engines disagree on simulated work"
    );
    let (fresult, fcost) = run_on(EngineId::VmFused);
    assert_eq!(result, fresult, "{name}: vm-fused disagrees on the result");
    assert_eq!(
        cost.total(),
        fcost.total(),
        "{name}: vm-fused disagrees on simulated work"
    );

    // Dispatch counts via separately traced runs, every engine.
    let traced = |engine: EngineId| {
        let (r, rec) = run_vm_traced(module, strategy, args, &opts, engine).expect("workload runs");
        r.expect("workload runs");
        assert_eq!(rec.dropped, 0, "{name}: the trace hit its cap");
        Tally::of(&rec.events)
    };
    let dispatch = traced(EngineId::Vm);
    for engine in [EngineId::VmDecoded, EngineId::VmFused] {
        assert_eq!(
            dispatch,
            traced(engine),
            "{name}: {} disagrees on dispatch events",
            engine.label()
        );
    }
    Measurement {
        name: name.to_string(),
        instructions: cost.total(),
        result: u64::from(result),
        dispatch,
    }
}

/// The Figures 3/4 loop of always-normal calls, scaled up so execution
/// dominates; `table` adds one alternate return continuation per call
/// (the branch-table method).
fn fig34_src(table: bool) -> String {
    let call = if table {
        "r = g(n) also returns to kexn;"
    } else {
        "r = g(n);"
    };
    let ret = if table {
        "return <1/1> (x);"
    } else {
        "return (x);"
    };
    let cont = if table {
        "continuation kexn(r):\n            return (0 - 1);"
    } else {
        ""
    };
    format!(
        r#"
        f(bits32 n) {{
            bits32 acc, r;
            acc = 0;
          loop:
            if n == 0 {{ return (acc); }} else {{
                {call}
                acc = acc + r;
                n = n - 1;
                goto loop;
            }}
            {cont}
        }}
        g(bits32 x) {{ {ret} }}
        "#
    )
}

/// The §4.2 callee-saves workload: locals live across a call annotated
/// with either a cut edge or an unwind edge.
fn sec42_src(cuts: bool) -> String {
    let ann = if cuts {
        "also cuts to k"
    } else {
        "also unwinds to k"
    };
    format!(
        r#"
        f(bits32 n) {{
            bits32 acc, x, y, w, r;
            acc = 0;
          loop:
            if n == 0 {{ return (acc); }} else {{
                y = n * 3;
                w = n + 7;
                r = g(n, k) {ann};
                acc = acc + r + y + w;
                n = n - 1;
                goto loop;
            }}
            continuation k(r):
            return (r + y + w);
        }}
        g(bits32 a, bits32 kk) {{
            return (a);
        }}
        "#
    )
}

/// Runs the full trajectory: the paper's C-- workloads under the raw
/// simulated machine, plus each MiniM3 strategy on the Figure 7 game —
/// seed 3 is the normal case, seed 50 raises `BadMove` out of
/// `getMove` — and the Figure 2 / §2 scope-entry workloads.
pub fn run_trajectory() -> Vec<Measurement> {
    // Raw C-- workloads.
    let mut out = vec![
        measure_cmm("fig34_plain", &fig34_src(false), "f", &[2000]),
        measure_cmm("fig34_table", &fig34_src(true), "f", &[2000]),
        measure_cmm("sec42_cuts", &sec42_src(true), "f", &[400]),
        measure_cmm("sec42_unwinds", &sec42_src(false), "f", &[400]),
    ];

    // MiniM3 end-to-end workloads.
    let game = cmm_frontend::workloads::GAME;
    for strategy in Strategy::CORE {
        let module = compile_minim3(game, strategy).expect("game compiles");
        out.push(measure_m3(
            &format!("game_normal_{}", strategy.label()),
            &module,
            strategy,
            &[3],
        ));
        out.push(measure_m3(
            &format!("game_raise_{}", strategy.label()),
            &module,
            strategy,
            &[50],
        ));
    }
    // Figure 2's deep raise (100 frames) under the interpretive
    // unwinder — the dispatch-heaviest workload.
    let module = compile_minim3(&deep_raise(true), Strategy::RuntimeUnwind).expect("compiles");
    out.push(measure_m3(
        "fig2_deep_raise_runtime-unwind",
        &module,
        Strategy::RuntimeUnwind,
        &[100],
    ));
    // §2's scope-entry cost under the sjlj strategy.
    let module =
        compile_minim3(NO_RAISE, Strategy::Sjlj(cmm_vm::arch::PENTIUM_LINUX)).expect("compiles");
    out.push(measure_m3(
        "sec2_no_raise_sjlj-pentium",
        &module,
        Strategy::Sjlj(cmm_vm::arch::PENTIUM_LINUX),
        &[200],
    ));
    // The MiniM3 loop workloads, lowered once per non-suspending
    // strategy and driven directly on the machine.
    for strategy in [Strategy::Cps, Strategy::Cutting, Strategy::NativeUnwind] {
        out.push(measure_m3_hot(
            &format!("hot_raise_frequency_{}", strategy.label()),
            RAISE_FREQUENCY,
            strategy,
            &[300, 10],
        ));
        out.push(measure_m3_hot(
            &format!("hot_no_raise_{}", strategy.label()),
            NO_RAISE,
            strategy,
            &[400],
        ));
    }
    out
}

/// Outcome histogram of a seeded chaos sweep: generated difftest cases
/// run under seeded Table 1 fault schedules, with every (case,
/// schedule) outcome tallied. Engines agree on each outcome by
/// construction (the chaos sweep in `cmm-difftest` asserts it), so one
/// reference observation per pair suffices; the figures are
/// deterministic functions of `(case seed, fault seed)` and land in the
/// trajectory JSON as a bit-reproducible record of the fault model's
/// coverage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosHistogram {
    /// Generated cases swept.
    pub cases: u64,
    /// Base seed for case generation.
    pub case_seed: u64,
    /// Base seed for the fault schedules.
    pub fault_seed: u64,
    /// Schedules per case.
    pub schedules: u64,
    /// (case, schedule) pairs ending in normal termination.
    pub halt: u64,
    /// Pairs ending wrong (program fault or injected dispatch fault).
    pub wrong: u64,
    /// Pairs where a Table 1 operation failed during dispatch.
    pub rts_error: u64,
    /// Pairs cut off by fuel or the suspension bound.
    pub fuel: u64,
    /// Total faults injected across all pairs.
    pub faults_injected: u64,
    /// Pairs whose schedule never fired (the happy path re-covered).
    pub quiet: u64,
}

/// Runs the chaos sweep histogram over `cases` generated cases.
pub fn run_chaos_histogram(
    cases: u64,
    case_seed: u64,
    fault_seed: u64,
    schedules: u64,
) -> ChaosHistogram {
    use cmm_difftest::oracle::{observe_sem_chaos, Limits, Outcome, CHAOS_HORIZON};
    let limits = Limits::default();
    let mut h = ChaosHistogram {
        cases,
        case_seed,
        fault_seed,
        schedules,
        ..ChaosHistogram::default()
    };
    for index in 0..cases {
        let case = cmm_difftest::case_for(case_seed, index);
        let prog = build_program(&parse_module(&case.render()).expect("generated cases parse"))
            .expect("generated cases build");
        for k in 0..schedules {
            let plan = cmm_chaos::FaultPlan::seeded(
                cmm_chaos::schedule_seed(fault_seed, k),
                CHAOS_HORIZON,
            );
            let (obs, _, log) = observe_sem_chaos(&prog, case.args, &limits, &plan);
            match obs.outcome {
                Outcome::Halt(_) => h.halt += 1,
                Outcome::Wrong => h.wrong += 1,
                Outcome::RtsError => h.rts_error += 1,
                Outcome::Fuel => h.fuel += 1,
            }
            h.faults_injected += log.len() as u64;
            if log.is_empty() {
                h.quiet += 1;
            }
        }
    }
    h
}

/// One worker count's scaling figures for the `cmm-pool` batch service.
///
/// The clock is virtual: every job's cost is its simulated instruction
/// count (one cost unit = one virtual nanosecond), and the batch's
/// virtual makespan is the deterministic list schedule of those costs
/// over `workers` lanes ([`virtual_makespan`]). Virtual rates are a pure
/// function of the job list, so they are bit-identical across machines.
#[derive(Clone, Debug)]
pub struct PoolRate {
    /// Worker count (`-j`).
    pub workers: usize,
    /// Jobs per virtual second under the deterministic cost-model clock.
    pub virtual_jobs_per_sec: u64,
    /// Virtual speedup over the `-j1` row, in permille.
    pub speedup_permille: u64,
    /// Virtual speedup divided by worker count, in permille.
    pub efficiency_permille: u64,
}

/// Throughput of the `cmm-pool` batch service over a fixed manifest of
/// paper workloads, at several worker counts.
///
/// The cache hit rate and the batch report bytes are deterministic:
/// every run here asserts the timing-stripped report is byte-identical
/// across worker counts, the same property CI checks through the CLI.
#[derive(Clone, Debug)]
pub struct PoolThroughput {
    /// Jobs per batch run.
    pub jobs: u64,
    /// What the deterministic clock counts (documentation string,
    /// embedded in the JSON so readers of the committed file know the
    /// scaling rows are simulated, not wall time).
    pub clock: &'static str,
    /// Total simulated cost of the whole batch (sum of per-job
    /// instruction counts), in cost units.
    pub total_cost: u64,
    /// Compilation-cache hit rate over one run, in permille
    /// (scheduling-independent: identical at every worker count).
    pub hit_rate_permille: u64,
    /// One row per measured worker count.
    pub rates: Vec<PoolRate>,
}

/// The batch manifest measured by [`run_pool_throughput`]: every raw
/// C-- workload on all five engines plus the Figure 2 deep raise under
/// two strategies on both substrates, replicated [`POOL_REPLICAS`]
/// times with staggered arguments so per-job costs are heterogeneous
/// (a realistic load-balancing problem, not `n` copies of one cost).
/// Replicas share sources, so the cache's single-flight dedup carries
/// most of the compilation load.
pub const POOL_REPLICAS: u32 = 8;

fn pool_specs() -> Vec<cmm_pool::JobSpec> {
    use cmm_pool::{JobSpec, SourceLang};
    let engines = EngineId::ALL;
    let mut specs = Vec::new();
    for rep in 0..POOL_REPLICAS {
        for (name, src) in [
            ("fig34_plain", fig34_src(false)),
            ("fig34_table", fig34_src(true)),
            ("sec42_cuts", sec42_src(true)),
            ("sec42_unwinds", sec42_src(false)),
        ] {
            for engine in engines {
                specs.push(JobSpec {
                    name: name.to_string(),
                    lang: SourceLang::Cmm,
                    source: src.clone(),
                    entry: "f".to_string(),
                    args: vec![100 + 25 * rep],
                    results: 1,
                    engine,
                    opts: OptOptions::default(),
                    fuel: 20_000_000,
                    max_yields: 64,
                    chaos: None,
                });
            }
        }
        let deep = deep_raise(true);
        for strategy in [Strategy::RuntimeUnwind, Strategy::Cutting] {
            for engine in [EngineId::Sem, EngineId::Vm] {
                specs.push(JobSpec {
                    name: "fig2_deep_raise".to_string(),
                    lang: SourceLang::MiniM3(strategy),
                    source: deep.clone(),
                    entry: "main".to_string(),
                    args: vec![30 + 5 * rep],
                    results: 1,
                    engine,
                    opts: OptOptions::default(),
                    fuel: 20_000_000,
                    max_yields: 64,
                    chaos: None,
                });
            }
        }
    }
    specs
}

/// Checkpoint totals of one `--snapshot-every` batch over the same
/// manifest [`run_pool_throughput`] measures, so checkpointing cost is
/// visible over time.
///
/// All five fields are deterministic (the blob digest folds every
/// job's checkpoint stream in submission order), and the producing run
/// asserts the checkpointed batch report is byte-identical at `-j1`
/// and `-j4` — the same contract as the scaling rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotFigures {
    /// Fuel-slice interval between checkpoints (`--snapshot-every`).
    pub every: u64,
    /// Jobs that crossed at least one slice boundary.
    pub jobs_checkpointed: u64,
    /// Snapshots captured (and round-tripped) across the batch.
    pub count: u64,
    /// Total encoded blob bytes.
    pub bytes: u64,
    /// FNV fold of every job's checkpoint-stream digest, in submission
    /// order — scheduling-independent, identical at every `-j`.
    pub digest: u64,
}

/// The checkpoint interval the committed trajectory uses. Small enough
/// that every C-- workload in the manifest crosses several boundaries;
/// the MiniM3 jobs ride along uncheckpointed (their interpreter owns
/// the inner machine).
pub const SNAPSHOT_EVERY: u64 = 1024;

/// Runs the pool manifest once per worker count in `[1, 4]` with
/// checkpointing at every `every` fuel units, asserting the stripped
/// reports are byte-identical, and aggregates the snapshot totals.
/// Any `snap-error` outcome (a checkpoint round-trip that changed
/// machine state) is a hard failure here — the difftest oracle owns
/// diagnosis; the trajectory only refuses to commit figures over it.
pub fn run_snapshot_figures(every: u64) -> SnapshotFigures {
    use cmm_pool::{run_batch, BatchConfig, PipelineCache};
    let specs = pool_specs();
    let mut reference: Option<String> = None;
    let mut figures = SnapshotFigures {
        every,
        jobs_checkpointed: 0,
        count: 0,
        bytes: 0,
        digest: cmm_snap::FOLD_INIT,
    };
    for workers in [1usize, 4] {
        let cache = PipelineCache::default();
        let report = run_batch(
            &specs,
            &cache,
            &BatchConfig {
                workers,
                snapshot_every: Some(every),
                ..BatchConfig::default()
            },
        );
        let stripped = report.to_json(false);
        match &reference {
            None => {
                for j in &report.jobs {
                    assert!(
                        j.outcome != "snap-error",
                        "job {} ({}) failed its checkpoint round-trip: {}",
                        j.id,
                        j.name,
                        j.detail
                    );
                    // MiniM3 jobs carry no snapshot row: the language
                    // interpreter owns the inner machine, so the batch
                    // driver has no boundary to checkpoint at.
                    let Some(snap) = j.snap else { continue };
                    if snap.count > 0 {
                        figures.jobs_checkpointed += 1;
                    }
                    figures.count += snap.count;
                    figures.bytes += snap.bytes;
                    figures.digest =
                        cmm_snap::fold_digest(figures.digest, &snap.digest.to_le_bytes());
                }
                reference = Some(stripped);
            }
            Some(r) => assert_eq!(
                r, &stripped,
                "checkpointed batch reports must be byte-identical at every -j"
            ),
        }
    }
    figures
}

// The deterministic list schedule lives in `cmm-pool` now (the serve
// scheduler's virtual clock is built on it too); re-exported here for
// the existing bench callers.
pub use cmm_pool::virtual_makespan;

/// What the virtual clock counts, embedded verbatim in the JSON.
pub const POOL_CLOCK: &str = "virtual: 1 instruction = 1ns, deterministic list schedule";

/// Measures batch scaling at each worker count, each over a fresh
/// cache, asserting along the way that the timing-stripped report is
/// byte-identical across counts. Rates come from the report's per-job
/// instruction counts.
pub fn run_pool_throughput(worker_counts: &[usize]) -> PoolThroughput {
    use cmm_pool::{run_batch, BatchConfig, PipelineCache};
    let specs = pool_specs();
    let mut reference: Option<String> = None;
    let mut hit_rate_permille = 0;
    let mut costs: Vec<u64> = Vec::new();
    for &workers in worker_counts {
        let cache = PipelineCache::default();
        let report = run_batch(
            &specs,
            &cache,
            &BatchConfig {
                workers,
                ..BatchConfig::default()
            },
        );
        let stripped = report.to_json(false);
        match &reference {
            None => {
                let snap = report.cache;
                hit_rate_permille = (snap.hits * 1000)
                    .checked_div(snap.hits + snap.misses)
                    .unwrap_or(0);
                assert!(hit_rate_permille > 0, "batch run must share compilations");
                costs = report.jobs.iter().map(|j| j.instructions).collect();
                for (job, &c) in report.jobs.iter().zip(&costs) {
                    assert!(c > 0, "job {} ({}) has no simulated cost", job.id, job.name);
                }
                reference = Some(stripped);
            }
            Some(r) => assert_eq!(
                r, &stripped,
                "batch reports must be byte-identical at every -j"
            ),
        }
    }
    let total_cost: u64 = costs.iter().sum();
    let base_makespan = virtual_makespan(&costs, worker_counts.first().copied().unwrap_or(1));
    let rates = worker_counts
        .iter()
        .map(|&workers| {
            let makespan = virtual_makespan(&costs, workers);
            let speedup_permille = base_makespan * 1000 / makespan;
            PoolRate {
                workers,
                virtual_jobs_per_sec: (costs.len() as u128 * 1_000_000_000 / u128::from(makespan))
                    as u64,
                speedup_permille,
                efficiency_permille: speedup_permille / workers as u64,
            }
        })
        .collect();
    PoolThroughput {
        jobs: specs.len() as u64,
        clock: POOL_CLOCK,
        total_cost,
        hit_rate_permille,
        rates,
    }
}

/// What the serve scheduler's clock counts, embedded verbatim in the
/// JSON.
pub const SERVE_CLOCK: &str = "virtual: cost-model ns over fixed lanes, deterministic at every -j";

/// Figures from one acceptance-scale run of the execution service's
/// deterministic load generator (`cmm serve --selftest`). Every field
/// is a pure function of the load profile: the scheduler runs on the
/// virtual cost-model clock over a fixed lane count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeFigures {
    /// The clock contract, embedded verbatim.
    pub clock: &'static str,
    /// Tenants in the load profile.
    pub tenants: u64,
    /// Service threads submitted.
    pub threads: u64,
    /// Virtual scheduling lanes (what the clock divides work over).
    pub lanes: u64,
    /// Preemption quantum (fuel per slice).
    pub quantum: u64,
    /// Threads that ran to completion.
    pub completed: u64,
    /// Yield responses delivered to tenants.
    pub yields: u64,
    /// Cross-tier snapshot migrations.
    pub migrations: u64,
    /// Most threads ever parked as blobs at once.
    pub parked_high_water: u64,
    /// Virtual duration of the whole run.
    pub virtual_ns: u64,
    /// Tenant-visible responses per virtual second.
    pub virtual_rps: u64,
    /// Queue-wait quantiles on the virtual clock.
    pub queue_wait_p50: u64,
    /// 99th percentile queue wait.
    pub queue_wait_p99: u64,
    /// Submit-to-finish quantiles on the virtual clock.
    pub turnaround_p50: u64,
    /// 99th percentile turnaround.
    pub turnaround_p99: u64,
    /// FNV fold of the scheduler event log.
    pub event_digest: u64,
}

/// Runs the acceptance load (17 tenants × 64 threads, all five engine
/// tiers, rotation migration, seeded chaos) through the service at
/// `-j1` and `-j8`, asserting the scheduler event logs are
/// byte-identical, the parked population peaks at ≥ 1000 blobs, and at
/// least one thread crossed an engine tier — then reports the virtual
/// figures.
pub fn run_serve_figures() -> ServeFigures {
    use cmm_serve::{acceptance_profile, load_config, run_load};
    let profile = acceptance_profile();
    let (svc1, r1) = run_load(load_config(1), &profile);
    let (svc8, r8) = run_load(load_config(8), &profile);
    assert_eq!(
        svc1.events_text(),
        svc8.events_text(),
        "serve event logs must be byte-identical at every -j"
    );
    assert_eq!(r1.event_digest, r8.event_digest);
    assert_eq!(r1.completed, r1.threads, "every service thread must finish");
    assert!(
        r1.parked_high_water >= 1000,
        "the acceptance load must park >= 1000 threads at once, saw {}",
        r1.parked_high_water
    );
    assert!(r1.migrations >= 1, "rotation must migrate across tiers");
    let config = load_config(8);
    ServeFigures {
        clock: SERVE_CLOCK,
        tenants: profile.tenants as u64,
        threads: r1.threads,
        lanes: cmm_serve::service::LANES as u64,
        quantum: config.quantum,
        completed: r1.completed,
        yields: r1.yields,
        migrations: r1.migrations,
        parked_high_water: r1.parked_high_water,
        virtual_ns: r1.virtual_ns,
        virtual_rps: r1.virtual_rps,
        queue_wait_p50: r1.queue_wait_p50,
        queue_wait_p99: r1.queue_wait_p99,
        turnaround_p50: r1.turnaround_p50,
        turnaround_p99: r1.turnaround_p99,
        event_digest: r1.event_digest,
    }
}

/// Renders the trajectory as JSON, in a stable field order.
pub fn to_json(
    measurements: &[Measurement],
    chaos: &ChaosHistogram,
    pool: &PoolThroughput,
    snap: &SnapshotFigures,
    serve: &ServeFigures,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(
        s,
        "  \"note\": \"every figure is deterministic; CI regenerates this file and requires it byte-identical (cmp)\","
    );
    s.push_str("  \"workloads\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let c = &m.dispatch;
        let _ = write!(
            s,
            "    {{ \"name\": \"{}\", \"instructions\": {}, \"result\": {}, \
             \"dispatch\": {{ \"calls\": {}, \"tail_calls\": {}, \"returns\": {}, \
             \"abnormal_returns\": {}, \"cuts\": {}, \"yields\": {}, \"rts_ops\": {} }} }}",
            m.name,
            m.instructions,
            m.result,
            c.calls,
            c.tail_calls,
            c.returns,
            c.abnormal_returns,
            c.cuts,
            c.yields,
            c.rts_ops(),
        );
        s.push_str(if i + 1 < measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"chaos\": {{ \"cases\": {}, \"case_seed\": {}, \"fault_seed\": {}, \
         \"schedules\": {}, \"outcomes\": {{ \"halt\": {}, \"wrong\": {}, \
         \"rts_error\": {}, \"fuel\": {} }}, \"faults_injected\": {}, \"quiet\": {} }},",
        chaos.cases,
        chaos.case_seed,
        chaos.fault_seed,
        chaos.schedules,
        chaos.halt,
        chaos.wrong,
        chaos.rts_error,
        chaos.fuel,
        chaos.faults_injected,
        chaos.quiet
    );
    let rates: Vec<String> = pool
        .rates
        .iter()
        .map(|r| {
            format!(
                "{{ \"workers\": {}, \"virtual_jobs_per_sec\": {}, \
                 \"speedup_permille\": {}, \"efficiency_permille\": {} }}",
                r.workers, r.virtual_jobs_per_sec, r.speedup_permille, r.efficiency_permille
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "  \"pool\": {{ \"jobs\": {}, \"clock\": \"{}\", \"total_cost\": {}, \
         \"hit_rate_permille\": {}, \"throughput\": [\n    {}\n  ] }},",
        pool.jobs,
        pool.clock,
        pool.total_cost,
        pool.hit_rate_permille,
        rates.join(",\n    ")
    );
    let _ = writeln!(
        s,
        "  \"snapshots\": {{ \"every\": {}, \"jobs_checkpointed\": {}, \"count\": {}, \
         \"bytes\": {}, \"blob_digest\": \"{:#018x}\" }},",
        snap.every, snap.jobs_checkpointed, snap.count, snap.bytes, snap.digest
    );
    let _ = writeln!(
        s,
        "  \"serve\": {{ \"clock\": \"{}\", \"tenants\": {}, \"threads\": {}, \"lanes\": {}, \
         \"quantum\": {}, \"completed\": {}, \"yields\": {}, \"migrations\": {}, \
         \"parked_high_water\": {}, \"virtual_ns\": {}, \"virtual_rps\": {}, \
         \"queue_wait_p50\": {}, \"queue_wait_p99\": {}, \"turnaround_p50\": {}, \
         \"turnaround_p99\": {}, \"event_digest\": \"{:#018x}\" }}",
        serve.clock,
        serve.tenants,
        serve.threads,
        serve.lanes,
        serve.quantum,
        serve.completed,
        serve.yields,
        serve.migrations,
        serve.parked_high_water,
        serve.virtual_ns,
        serve.virtual_rps,
        serve.queue_wait_p50,
        serve.queue_wait_p99,
        serve.turnaround_p50,
        serve.turnaround_p99,
        serve.event_digest
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_makespan_is_deterministic_and_monotone() {
        // Hand-checkable list schedule: lanes fill least-loaded-first
        // in submission order, ties to the lowest lane index.
        assert_eq!(virtual_makespan(&[4, 3, 3, 2, 2], 1), 14);
        assert_eq!(virtual_makespan(&[4, 3, 3, 2, 2], 2), 8);
        assert_eq!(virtual_makespan(&[4, 3, 3, 2, 2], 3), 5);
        // Zero-cost jobs still occupy a schedule slot.
        assert_eq!(virtual_makespan(&[0, 0], 1), 2);
        assert_eq!(virtual_makespan(&[], 4), 1);
        // Makespan never increases with more lanes, on a cost list
        // shaped like the real manifest (heterogeneous, many jobs).
        let costs: Vec<u64> = (0..200).map(|i| 100 + (i * 37) % 900).collect();
        let mut last = u64::MAX;
        for workers in 1..=16 {
            let m = virtual_makespan(&costs, workers);
            assert!(m <= last, "-j{workers} made the schedule worse");
            last = m;
        }
    }

    #[test]
    fn pool_scaling_is_monotone_with_real_parallel_headroom() {
        // The full acceptance run: the committed trajectory's scaling
        // rows must be monotone non-decreasing in virtual jobs/sec
        // through -j8, with -j4 at least twice -j1. The virtual clock
        // is deterministic, so a failure here is a real scheduling or
        // cost-model regression, not machine noise. The run also
        // asserts internally that the stripped batch report is
        // byte-identical across all four worker counts.
        let p = run_pool_throughput(&[1, 2, 4, 8]);
        assert!(p.jobs >= 160, "the manifest should be large: {}", p.jobs);
        assert!(p.hit_rate_permille > 0);
        assert!(p.total_cost > 0);
        assert_eq!(p.rates.len(), 4);
        for pair in p.rates.windows(2) {
            assert!(
                pair[1].virtual_jobs_per_sec >= pair[0].virtual_jobs_per_sec,
                "-j{} is slower than -j{} on the virtual clock",
                pair[1].workers,
                pair[0].workers
            );
        }
        let j1 = &p.rates[0];
        let j4 = &p.rates[2];
        assert_eq!((j1.workers, j4.workers), (1, 4));
        assert!(
            j4.virtual_jobs_per_sec >= 2 * j1.virtual_jobs_per_sec,
            "-j4 must be at least 2x -j1: {} vs {}",
            j4.virtual_jobs_per_sec,
            j1.virtual_jobs_per_sec
        );
        assert_eq!(j1.speedup_permille, 1000);
        for r in &p.rates {
            assert!(
                r.efficiency_permille <= 1000,
                "-j{} claims superlinear speedup",
                r.workers
            );
        }
    }

    #[test]
    fn snapshot_figures_are_reproducible_and_non_vacuous() {
        // Two fresh checkpointed runs of the trajectory manifest land
        // on identical totals (each run also asserts -j1 == -j4
        // internally), and the committed interval is small enough that
        // checkpointing actually happens.
        let a = run_snapshot_figures(SNAPSHOT_EVERY);
        let b = run_snapshot_figures(SNAPSHOT_EVERY);
        assert_eq!(
            a, b,
            "snapshot figures must be a pure function of the manifest"
        );
        assert!(a.jobs_checkpointed > 0, "no job ever crossed a boundary");
        assert!(a.count > 0 && a.bytes > 0);
        assert_ne!(a.digest, cmm_snap::FOLD_INIT, "digest never folded a blob");
    }

    #[test]
    fn chaos_histogram_is_reproducible_and_non_vacuous() {
        let a = run_chaos_histogram(10, 0, 0, 3);
        let b = run_chaos_histogram(10, 0, 0, 3);
        assert_eq!(a, b, "histogram must be a pure function of its seeds");
        assert_eq!(a.halt + a.wrong + a.rts_error + a.fuel, 30);
        assert!(
            a.faults_injected > 0,
            "a 10x3 sweep should inject at least one fault"
        );
    }

    #[test]
    fn instruction_counts_agree_across_engines_on_every_workload() {
        // measure_program / measure_m3 assert old == decoded == fused
        // internally; one iteration of the full trajectory is the test.
        let ms = run_trajectory();
        assert!(ms.len() >= 18);
        for m in &ms {
            assert!(m.instructions > 0, "{} did no work", m.name);
        }
        // The fused hot rows made it in, for every non-suspending
        // strategy.
        for label in ["cps", "cutting", "native-unwind"] {
            for prefix in ["hot_raise_frequency", "hot_no_raise"] {
                let name = format!("{prefix}_{label}");
                assert!(
                    ms.iter().any(|m| m.name == name),
                    "hot row `{name}` missing"
                );
            }
        }
    }

    #[test]
    fn dispatch_counts_match_hand_counted_figures() {
        // The Figures 3/4 loop makes exactly `n` calls into `g` plus one
        // top-level return of `f`; no abnormal arm is ever taken. The
        // Figure 2 deep raise walks depth + 1 frames: every Table 1 op
        // of that walk shows up in `rts_ops`.
        let ms = run_trajectory();
        let get = |name: &str| {
            ms.iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("workload `{name}` missing"))
        };
        for name in ["fig34_plain", "fig34_table"] {
            let m = get(name);
            assert_eq!(m.dispatch.calls, 2000, "{name}");
            assert_eq!(m.dispatch.returns, 2001, "{name}");
            assert_eq!(m.dispatch.abnormal_returns, 0, "{name}");
            assert_eq!(m.dispatch.cuts, 0, "{name}");
        }
        let deep = get("fig2_deep_raise_runtime-unwind");
        assert!(deep.dispatch.yields > 0, "deep raise never suspended");
        assert!(
            deep.dispatch.rts_ops() > 0,
            "deep raise used no Table 1 ops"
        );
        // The sjlj strategy transfers to handlers with `cut to`; no-raise
        // runs never cut, while the interpretive unwinder's raise does
        // resume through the RTS.
        assert_eq!(get("sec2_no_raise_sjlj-pentium").dispatch.cuts, 0);
    }
}
