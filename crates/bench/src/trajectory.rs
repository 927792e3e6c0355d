//! The benchmark trajectory: every paper workload run under **every**
//! execution engine of each substrate — the reference step loops, the
//! pre-decoded/pre-resolved fast paths, and the fused superinstruction
//! tier — emitting one machine-readable JSON document
//! (`BENCH_trajectory.json`).
//!
//! Two kinds of numbers appear:
//!
//! * **Simulated instruction counts** (`instructions`) come from the
//!   `cmm-vm` cost model. They are deterministic, identical across
//!   engines (asserted on every run), and identical across machines —
//!   the CI regression gate compares them against the committed
//!   baseline.
//! * **Wall times** (`*_ns_per_iter`, `speedup`) measure the host-level
//!   cost of the two engines on this machine. They are reported for the
//!   trajectory but never gated: they vary with hardware.
//! * **Dispatch-event counts** (`dispatch`) come from a separate
//!   [`CountingSink`]-instrumented run per workload, so the gated
//!   instruction counts — measured through the zero-cost `NopSink` —
//!   stay bit-identical whether or not anyone reads the events. Both
//!   engines are instrumented and asserted to agree.
//!
//! The JSON is hand-rolled (the workspace deliberately has no external
//! dependencies); [`parse_baseline`] reads back exactly the subset the
//! gate needs.

use cmm_cfg::build_program;
use cmm_chaos::EngineId;
use cmm_frontend::workloads::{deep_raise, NO_RAISE, RAISE_FREQUENCY};
use cmm_frontend::{compile_minim3, run_vm, run_vm_on, run_vm_traced, Strategy};
use cmm_ir::Module;
use cmm_obs::{CountingSink, EventCounts, TraceSink};
use cmm_opt::{optimize_program, OptOptions};
use cmm_parse::parse_module;
use cmm_vm::{compile, VmMachine, VmProgram, VmStatus};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Stable workload name (the regression-gate key).
    pub name: String,
    /// Deterministic simulated work (instructions + run-time-system
    /// equivalents), identical under both engines.
    pub instructions: u64,
    /// The workload's result, as a sanity anchor.
    pub result: u64,
    /// Mean wall time per iteration under the reference engine.
    pub old_ns_per_iter: u64,
    /// Mean wall time per iteration under the pre-decoded engine.
    pub decoded_ns_per_iter: u64,
    /// Mean wall time per iteration under the fused engine.
    pub fused_ns_per_iter: u64,
    /// Exception-dispatch event counts from an instrumented run,
    /// identical under every engine (asserted on every run).
    pub dispatch: EventCounts,
}

impl Measurement {
    /// Reference wall time over decoded wall time.
    pub fn speedup(&self) -> f64 {
        if self.decoded_ns_per_iter == 0 {
            return 1.0;
        }
        self.old_ns_per_iter as f64 / self.decoded_ns_per_iter as f64
    }

    /// Decoded wall time over fused wall time — what the fused tier
    /// buys over the already-fast pre-decoded engine. Reported, never
    /// gated.
    pub fn fused_speedup(&self) -> f64 {
        if self.fused_ns_per_iter == 0 {
            return 1.0;
        }
        self.decoded_ns_per_iter as f64 / self.fused_ns_per_iter as f64
    }

    /// True when the fused tier ran *slower* than the pre-decoded one
    /// on this machine. Reported, never gated — wall-clock noise can
    /// flip it — but surfacing it per row makes a persistent tier
    /// regression visible at a glance in baseline diffs.
    pub fn fused_regression(&self) -> bool {
        self.fused_speedup() < 1.0
    }
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

/// Measures a compiled workload on the simulated target: the decoded
/// and fused streams are built once and shared (`VmMachine` clones
/// share them), so the timing loop isolates the three step loops.
/// `results` is the entry's result arity; a two-result entry follows
/// the MiniM3 `(status, value)` convention and the status is asserted
/// zero.
fn measure_program(
    name: &str,
    vp: &VmProgram,
    proc: &str,
    args: &[u64],
    results: usize,
    iters: u64,
) -> Measurement {
    let old_template = VmMachine::new(vp);
    let decoded_template = VmMachine::new_decoded(vp);
    let fused_template = VmMachine::new_fused(vp);
    let pick = |vals: &[u64]| -> u64 {
        if results == 2 {
            let status = vals.first().copied().unwrap_or(1);
            assert_eq!(status, 0, "{name}: entry returned a nonzero status");
            vals.get(1).copied().unwrap_or(0)
        } else {
            vals.first().copied().unwrap_or(0)
        }
    };

    // Correctness anchor + deterministic work, all three engines.
    let mut m = old_template.clone();
    let result = pick(&run_to_halt(&mut m, proc, args, results));
    let instructions = m.cost.total();
    for (engine, template) in [
        ("vm-decoded", &decoded_template),
        ("vm-fused", &fused_template),
    ] {
        let mut e = template.clone();
        let r = pick(&run_to_halt(&mut e, proc, args, results));
        assert_eq!(result, r, "{name}: {engine} disagrees on the result");
        assert_eq!(
            instructions,
            e.cost.total(),
            "{name}: {engine} disagrees on simulated work"
        );
    }

    // Dispatch counts: a separate counting-sink run per engine, so the
    // gated NopSink instruction counts above stay untouched.
    let mut c = VmMachine::with_sink(vp, CountingSink::default());
    run_to_halt(&mut c, proc, args, results);
    let dispatch = c.into_sink().counts;
    let mut cd = VmMachine::with_sink_decoded(vp, CountingSink::default());
    run_to_halt(&mut cd, proc, args, results);
    assert_eq!(
        dispatch,
        cd.into_sink().counts,
        "{name}: vm-decoded disagrees on dispatch events"
    );
    let mut cf = VmMachine::with_sink_fused(vp, CountingSink::default());
    run_to_halt(&mut cf, proc, args, results);
    assert_eq!(
        dispatch,
        cf.into_sink().counts,
        "{name}: vm-fused disagrees on dispatch events"
    );

    // The workloads are restartable: a halted run leaves the stack
    // balanced and `start` resets the entry state, so the timed loops
    // reuse one machine per engine and measure the step loop alone.
    // Engines are timed in interleaved rounds and the best round is
    // kept, so frequency ramps and scheduler noise don't land on one
    // engine's column.
    let mut machines: Vec<VmMachine<'_>> = [&old_template, &decoded_template, &fused_template]
        .into_iter()
        .map(|t| {
            let mut m = t.clone();
            let r1 = pick(&run_to_halt(&mut m, proc, args, results));
            let r2 = pick(&run_to_halt(&mut m, proc, args, results));
            assert_eq!(r1, r2, "{name}: workload is not restartable");
            m
        })
        .collect();
    const ROUNDS: u64 = 4;
    let per_round = (iters / ROUNDS).max(1);
    let mut best = [u64::MAX; 3];
    for _ in 0..ROUNDS {
        for (slot, m) in machines.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..per_round {
                run_to_halt(m, proc, args, results);
            }
            best[slot] = best[slot].min((t0.elapsed().as_nanos() / u128::from(per_round)) as u64);
        }
    }
    let [old_ns_per_iter, decoded_ns_per_iter, fused_ns_per_iter] = best;
    Measurement {
        name: name.to_string(),
        instructions,
        result,
        old_ns_per_iter,
        decoded_ns_per_iter,
        fused_ns_per_iter,
        dispatch,
    }
}

/// Measures a raw C-- workload as an isolated step loop.
fn measure_cmm(name: &str, src: &str, proc: &str, args: &[u64], iters: u64) -> Measurement {
    measure_program(name, &compile_cmm(src), proc, args, 1, iters)
}

/// Measures a MiniM3 workload as an isolated step loop: the module is
/// lowered and compiled once, then the entry is driven directly on
/// shared machine templates (exactly as [`measure_cmm`] does). Only
/// strategies whose lowered programs never suspend qualify — the
/// run-time-unwinding dispatcher lives outside the machine. These rows
/// are where the fused tier's speedup over the decoded engine is
/// visible: [`measure_m3`]'s end-to-end rows pay a full compile per
/// iteration, which swamps the step loop.
fn measure_m3_hot(
    name: &str,
    src: &str,
    strategy: Strategy,
    args: &[u64],
    iters: u64,
) -> Measurement {
    let module = compile_minim3(src, strategy).expect("workload compiles");
    let mut prog = build_program(&module).expect("workload builds");
    optimize_program(&mut prog, &OptOptions::default());
    let vp = compile(&prog).expect("workload compiles");
    measure_program(name, &vp, cmm_frontend::lower::ENTRY, args, 2, iters)
}

/// Measures a MiniM3 workload end to end (compile + run + front-end
/// run-time system) under the two driver entry points. Both engines pay
/// the same compilation cost, so speedups here are diluted relative to
/// [`measure_cmm`]'s isolated step loops.
fn measure_m3(
    name: &str,
    module: &Module,
    strategy: Strategy,
    args: &[u32],
    iters: u64,
) -> Measurement {
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
    let (r, events) =
        run_vm_traced(module, strategy, args, &opts, EngineId::Vm).expect("workload runs");
    r.expect("workload runs");
    let dispatch = EventCounts::of(&events);
    for engine in [EngineId::VmDecoded, EngineId::VmFused] {
        let (r, devents) =
            run_vm_traced(module, strategy, args, &opts, engine).expect("workload runs");
        r.expect("workload runs");
        assert_eq!(
            dispatch,
            EventCounts::of(&devents),
            "{name}: {} disagrees on dispatch events",
            engine.label()
        );
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = run_vm(module, strategy, args).expect("workload runs");
    }
    let old_ns_per_iter = (t0.elapsed().as_nanos() / u128::from(iters.max(1))) as u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = run_on(EngineId::VmDecoded);
    }
    let decoded_ns_per_iter = (t0.elapsed().as_nanos() / u128::from(iters.max(1))) as u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = run_on(EngineId::VmFused);
    }
    let fused_ns_per_iter = (t0.elapsed().as_nanos() / u128::from(iters.max(1))) as u64;
    Measurement {
        name: name.to_string(),
        instructions: cost.total(),
        result: u64::from(result),
        old_ns_per_iter,
        decoded_ns_per_iter,
        fused_ns_per_iter,
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
pub fn run_trajectory(iters: u64) -> Vec<Measurement> {
    // Raw C-- workloads: isolated step-loop comparison.
    let mut out = vec![
        measure_cmm("fig34_plain", &fig34_src(false), "f", &[2000], iters),
        measure_cmm("fig34_table", &fig34_src(true), "f", &[2000], iters),
        measure_cmm("sec42_cuts", &sec42_src(true), "f", &[400], iters),
        measure_cmm("sec42_unwinds", &sec42_src(false), "f", &[400], iters),
    ];

    // MiniM3 end-to-end workloads. Fewer iterations: each pays a full
    // compile.
    let m3_iters = (iters / 8).max(1);
    let game = cmm_frontend::workloads::GAME;
    for strategy in Strategy::CORE {
        let module = compile_minim3(game, strategy).expect("game compiles");
        out.push(measure_m3(
            &format!("game_normal_{}", strategy.label()),
            &module,
            strategy,
            &[3],
            m3_iters,
        ));
        out.push(measure_m3(
            &format!("game_raise_{}", strategy.label()),
            &module,
            strategy,
            &[50],
            m3_iters,
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
        m3_iters,
    ));
    // §2's scope-entry cost under the sjlj strategy.
    let module =
        compile_minim3(NO_RAISE, Strategy::Sjlj(cmm_vm::arch::PENTIUM_LINUX)).expect("compiles");
    out.push(measure_m3(
        "sec2_no_raise_sjlj-pentium",
        &module,
        Strategy::Sjlj(cmm_vm::arch::PENTIUM_LINUX),
        &[200],
        m3_iters,
    ));
    // Fused-tier hot rows: the MiniM3 loop workloads, lowered once per
    // strategy and timed as isolated step loops (compile excluded).
    // These are where the game rows' compile cost hid the step-loop
    // difference, and they carry the committed fused-vs-decoded
    // comparison.
    for strategy in [Strategy::Cps, Strategy::Cutting, Strategy::NativeUnwind] {
        out.push(measure_m3_hot(
            &format!("hot_raise_frequency_{}", strategy.label()),
            RAISE_FREQUENCY,
            strategy,
            &[300, 10],
            iters,
        ));
        out.push(measure_m3_hot(
            &format!("hot_no_raise_{}", strategy.label()),
            NO_RAISE,
            strategy,
            &[400],
            iters,
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
/// Two clocks per row. The **virtual** clock is the deterministic one:
/// every job's cost is its simulated instruction count (one cost unit =
/// one virtual nanosecond), and the batch's virtual makespan is the
/// deterministic list schedule of those costs over `workers` lanes
/// ([`virtual_makespan`]). Virtual rates are a pure function of the job
/// list, so they are bit-identical across machines — the committed
/// trajectory's scaling curve is this clock. The **wall** clock is the
/// usual host-level figure: reported alongside, never gated, and on a
/// one-core container it shows no speedup at all (which is exactly why
/// it cannot be the committed curve).
#[derive(Clone, Debug)]
pub struct PoolRate {
    /// Worker count (`-j`).
    pub workers: usize,
    /// Jobs per virtual second under the deterministic cost-model clock.
    pub virtual_jobs_per_sec: u64,
    /// Jobs per wall second on this machine (never gated).
    pub wall_jobs_per_sec: u64,
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
    /// embedded in the JSON so readers of the committed baseline know
    /// the scaling rows are simulated, not wall time).
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
/// manifest [`run_pool_throughput`] measures. Reported in the committed
/// trajectory so checkpointing cost is visible over time, but — like
/// wall-clock throughput — **never gated**: the section carries no
/// `"name":` key, so [`parse_baseline`] cannot mistake it for a
/// workload row and `--tolerance 0` cannot see it.
///
/// All five fields are deterministic (the blob digest folds every
/// job's checkpoint stream in submission order), and the producing run
/// asserts the checkpointed batch report is byte-identical at `-j1`
/// and `-j4` — the same honesty contract as the scaling rows.
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
                queue_cap: 256,
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
pub const POOL_CLOCK: &str = "virtual: 1 instruction = 1ns, deterministic list schedule; \
     wall rates reported alongside, never gated";

/// Measures batch scaling at each worker count, each over a fresh
/// cache, asserting along the way that the timing-stripped report is
/// byte-identical across counts. Virtual rates come from the report's
/// per-job instruction counts (deterministic); wall rates come from
/// timing the same runs (informational).
pub fn run_pool_throughput(worker_counts: &[usize]) -> PoolThroughput {
    use cmm_pool::{run_batch, BatchConfig, PipelineCache};
    let specs = pool_specs();
    let mut rates = Vec::new();
    let mut reference: Option<String> = None;
    let mut hit_rate_permille = 0;
    let mut costs: Vec<u64> = Vec::new();
    for &workers in worker_counts {
        let cache = PipelineCache::default();
        let t0 = Instant::now();
        let report = run_batch(
            &specs,
            &cache,
            &BatchConfig {
                workers,
                queue_cap: 256,
                ..BatchConfig::default()
            },
        );
        let elapsed = t0.elapsed().as_nanos().max(1);
        let wall_jobs_per_sec = (specs.len() as u128 * 1_000_000_000 / elapsed) as u64;
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
        rates.push((workers, wall_jobs_per_sec));
    }
    let total_cost: u64 = costs.iter().sum();
    let base_makespan = virtual_makespan(&costs, worker_counts.first().copied().unwrap_or(1));
    let rates = rates
        .into_iter()
        .map(|(workers, wall_jobs_per_sec)| {
            let makespan = virtual_makespan(&costs, workers);
            let speedup_permille = base_makespan * 1000 / makespan;
            PoolRate {
                workers,
                virtual_jobs_per_sec: (costs.len() as u128 * 1_000_000_000 / u128::from(makespan))
                    as u64,
                wall_jobs_per_sec,
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
pub const SERVE_CLOCK: &str =
    "virtual: cost-model ns over fixed lanes, deterministic at every -j; \
     wall rates reported alongside, never gated";

/// Figures from one acceptance-scale run of the execution service's
/// deterministic load generator (`cmm serve --selftest`). Everything
/// except `wall_rps` is a pure function of the load profile — the
/// scheduler runs on the virtual cost-model clock over a fixed lane
/// count — so those fields are gated **exactly** by
/// [`check_serve_baseline`]; `wall_rps` rides along and is never
/// gated. The section carries no `"name":` key, so [`parse_baseline`]
/// cannot mistake it for a workload row either.
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
    /// Wall responses per second — informational, **never gated**.
    pub wall_rps: u64,
}

impl ServeFigures {
    /// Every field the baseline gate compares exactly, in emission
    /// order. `wall_rps` is deliberately absent.
    pub fn gated_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tenants", self.tenants),
            ("threads", self.threads),
            ("lanes", self.lanes),
            ("quantum", self.quantum),
            ("completed", self.completed),
            ("yields", self.yields),
            ("migrations", self.migrations),
            ("parked_high_water", self.parked_high_water),
            ("virtual_ns", self.virtual_ns),
            ("virtual_rps", self.virtual_rps),
            ("queue_wait_p50", self.queue_wait_p50),
            ("queue_wait_p99", self.queue_wait_p99),
            ("turnaround_p50", self.turnaround_p50),
            ("turnaround_p99", self.turnaround_p99),
            ("event_digest", self.event_digest),
        ]
    }
}

/// Runs the acceptance load (17 tenants × 64 threads, all five engine
/// tiers, rotation migration, seeded chaos) through the service at
/// `-j1` and `-j8`, asserting the scheduler event logs are
/// byte-identical, the parked population peaks at ≥ 1000 blobs, and at
/// least one thread crossed an engine tier — then reports the virtual
/// figures (plus the `-j8` wall rate, never gated).
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
        lanes: config.lanes as u64,
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
        wall_rps: r8.wall_rps,
    }
}

/// Renders the trajectory as JSON. Field order is stable:
/// [`parse_baseline`] relies on `name` preceding `instructions`. The
/// chaos and pool sections deliberately avoid `"name":` keys so the
/// baseline parser never mistakes them for workload entries — which is
/// what keeps wall-clock throughput out of the `--tolerance 0` gate.
pub fn to_json(
    iters: u64,
    measurements: &[Measurement],
    chaos: &ChaosHistogram,
    pool: &PoolThroughput,
    snap: &SnapshotFigures,
    serve: &ServeFigures,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"iters\": {iters},");
    let _ = writeln!(
        s,
        "  \"note\": \"instructions are deterministic and gated in CI; wall times are per-machine\","
    );
    s.push_str("  \"workloads\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let c = &m.dispatch;
        let _ = write!(
            s,
            "    {{ \"name\": \"{}\", \"instructions\": {}, \"result\": {}, \
             \"dispatch\": {{ \"calls\": {}, \"tail_calls\": {}, \"returns\": {}, \
             \"abnormal_returns\": {}, \"cuts\": {}, \"yields\": {}, \"rts_ops\": {} }}, \
             \"old_ns_per_iter\": {}, \"decoded_ns_per_iter\": {}, \
             \"fused_ns_per_iter\": {}, \"speedup\": {:.2}, \"fused_speedup\": {:.2}, \
             \"fused_regression\": {} }}",
            m.name,
            m.instructions,
            m.result,
            c.calls,
            c.tail_calls,
            c.returns,
            c.abnormal_returns,
            c.cuts,
            c.yields,
            c.rts_ops,
            m.old_ns_per_iter,
            m.decoded_ns_per_iter,
            m.fused_ns_per_iter,
            m.speedup(),
            m.fused_speedup(),
            m.fused_regression()
        );
        s.push_str(if i + 1 < measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    // Summary of fused-tier regressions: bare name strings, so the
    // baseline parser (which needs `"name": "` on the line) never
    // mistakes this never-gated list for workload entries.
    let regressed: Vec<String> = measurements
        .iter()
        .filter(|m| m.fused_regression())
        .map(|m| format!("\"{}\"", m.name))
        .collect();
    let _ = writeln!(s, "  \"fused_regressions\": [{}],", regressed.join(", "));
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
                "{{ \"workers\": {}, \"virtual_jobs_per_sec\": {}, \"wall_jobs_per_sec\": {}, \
                 \"speedup_permille\": {}, \"efficiency_permille\": {} }}",
                r.workers,
                r.virtual_jobs_per_sec,
                r.wall_jobs_per_sec,
                r.speedup_permille,
                r.efficiency_permille
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
    // Checkpointing totals from a `--snapshot-every` run of the same
    // manifest: reported for trend-watching, never gated (no `"name":`
    // key, so the baseline parser skips the whole line).
    let _ = writeln!(
        s,
        "  \"snapshots\": {{ \"every\": {}, \"jobs_checkpointed\": {}, \"count\": {}, \
         \"bytes\": {}, \"blob_digest\": \"{:#018x}\" }},",
        snap.every, snap.jobs_checkpointed, snap.count, snap.bytes, snap.digest
    );
    // The execution-service figures. One line, no `"name":` key; every
    // field except `wall_rps` is deterministic and gated exactly by
    // `check_serve_baseline`.
    let _ = writeln!(
        s,
        "  \"serve\": {{ \"clock\": \"{}\", \"tenants\": {}, \"threads\": {}, \"lanes\": {}, \
         \"quantum\": {}, \"completed\": {}, \"yields\": {}, \"migrations\": {}, \
         \"parked_high_water\": {}, \"virtual_ns\": {}, \"virtual_rps\": {}, \
         \"queue_wait_p50\": {}, \"queue_wait_p99\": {}, \"turnaround_p50\": {}, \
         \"turnaround_p99\": {}, \"event_digest\": \"{:#018x}\", \"wall_rps\": {} }}",
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
        serve.event_digest,
        serve.wall_rps
    );
    s.push_str("}\n");
    s
}

/// Extracts `(name, instructions)` pairs from a trajectory JSON
/// document (the committed baseline). Only the subset the regression
/// gate needs is read; the parser relies on the stable field order
/// [`to_json`] emits.
pub fn parse_baseline(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + "\"name\": \"".len()..];
        let Some(end) = rest.find('"') else { continue };
        let name = rest[..end].to_string();
        let Some(ipos) = rest.find("\"instructions\": ") else {
            continue;
        };
        let irest = &rest[ipos + "\"instructions\": ".len()..];
        let digits: String = irest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(n) = digits.parse() {
            out.push((name, n));
        }
    }
    out
}

/// Extracts one `"key": value` pair from the serve baseline line —
/// `value` is either a bare integer or a quoted `"0x…"` hex digest.
fn serve_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(hex) = rest.strip_prefix("\"0x") {
        let digits: String = hex.chars().take_while(char::is_ascii_hexdigit).collect();
        return u64::from_str_radix(&digits, 16).ok();
    }
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The serve gate: every deterministic field of the committed `serve`
/// section must match the current run **exactly** — these are virtual
/// cost-model figures over a fixed load profile, so any drift is a
/// behavior change, not noise. `wall_rps` is not compared (and a
/// baseline predating the section is itself a violation: the gate
/// never silently waves the service through).
pub fn check_serve_baseline(baseline_text: &str, serve: &ServeFigures) -> Vec<String> {
    let Some(line) = baseline_text.lines().find(|l| l.contains("\"serve\": {")) else {
        return vec!["baseline has no `serve` section (regenerate it with --out)".into()];
    };
    let mut violations = Vec::new();
    for (key, current) in serve.gated_fields() {
        match serve_field(line, key) {
            None => violations.push(format!("baseline `serve` section lacks `{key}`")),
            Some(base) if base != current => violations.push(format!(
                "serve `{key}` changed: {current} vs baseline {base} \
                 (deterministic serve fields are gated exactly)"
            )),
            Some(_) => {}
        }
    }
    violations
}

/// The CI regression gate: every baseline workload must still exist and
/// must not have grown its deterministic instruction count by more than
/// `tolerance` (e.g. `0.25` for 25%). Returns the list of violations.
pub fn check_against_baseline(
    baseline: &[(String, u64)],
    current: &[Measurement],
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, base) in baseline {
        let Some(m) = current.iter().find(|m| &m.name == name) else {
            violations.push(format!("workload `{name}` disappeared from the trajectory"));
            continue;
        };
        let limit = (*base as f64 * (1.0 + tolerance)).floor() as u64;
        if m.instructions > limit {
            violations.push(format!(
                "workload `{name}` regressed: {} instructions vs baseline {} (limit {})",
                m.instructions, base, limit
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(workers: usize, virt: u64, wall: u64, speedup_permille: u64) -> PoolRate {
        PoolRate {
            workers,
            virtual_jobs_per_sec: virt,
            wall_jobs_per_sec: wall,
            speedup_permille,
            efficiency_permille: speedup_permille / workers as u64,
        }
    }

    fn snap_fixture() -> SnapshotFigures {
        SnapshotFigures {
            every: 1024,
            jobs_checkpointed: 160,
            count: 777,
            bytes: 65536,
            digest: 0xdead_beef_cafe_f00d,
        }
    }

    fn serve_fixture() -> ServeFigures {
        ServeFigures {
            clock: SERVE_CLOCK,
            tenants: 17,
            threads: 1088,
            lanes: 8,
            quantum: 2000,
            completed: 1088,
            yields: 4242,
            migrations: 512,
            parked_high_water: 1040,
            virtual_ns: 9_876_543,
            virtual_rps: 538_000,
            queue_wait_p50: 100,
            queue_wait_p99: 4000,
            turnaround_p50: 200_000,
            turnaround_p99: 900_000,
            event_digest: 0x1234_5678_9abc_def0,
            wall_rps: 31_337,
        }
    }

    #[test]
    fn json_round_trips_the_gated_subset() {
        let ms = vec![
            Measurement {
                name: "a".into(),
                instructions: 123,
                result: 7,
                old_ns_per_iter: 10,
                decoded_ns_per_iter: 5,
                fused_ns_per_iter: 4,
                dispatch: EventCounts::default(),
            },
            Measurement {
                name: "b".into(),
                instructions: 456,
                result: 8,
                old_ns_per_iter: 0,
                decoded_ns_per_iter: 0,
                fused_ns_per_iter: 0,
                dispatch: EventCounts::default(),
            },
        ];
        let chaos = ChaosHistogram {
            cases: 40,
            schedules: 5,
            halt: 150,
            wrong: 30,
            rts_error: 15,
            fuel: 5,
            faults_injected: 60,
            quiet: 120,
            ..ChaosHistogram::default()
        };
        let pool = PoolThroughput {
            jobs: 20,
            clock: POOL_CLOCK,
            total_cost: 5000,
            hit_rate_permille: 400,
            rates: vec![rate(1, 111, 91, 1000), rate(4, 333, 89, 3000)],
        };
        let json = to_json(3, &ms, &chaos, &pool, &snap_fixture(), &serve_fixture());
        let parsed = parse_baseline(&json);
        // The chaos, pool, and snapshot sections must not leak into
        // the gated workload list.
        assert_eq!(parsed, vec![("a".into(), 123), ("b".into(), 456)]);
        assert!(json.contains("\"faults_injected\": 60"), "{json}");
        assert!(json.contains("\"virtual_jobs_per_sec\": 111"), "{json}");
        assert!(json.contains("\"wall_jobs_per_sec\": 91"), "{json}");
        assert!(json.contains("\"jobs_checkpointed\": 160"), "{json}");
        assert!(
            json.contains("\"blob_digest\": \"0xdeadbeefcafef00d\""),
            "{json}"
        );
    }

    #[test]
    fn throughput_is_reported_but_never_gated() {
        // The honesty property behind `--tolerance 0`: perturbing a
        // wall-clock throughput figure in the committed baseline must
        // not move the gate, while perturbing a deterministic
        // instruction count must trip it.
        let ms = vec![Measurement {
            name: "a".into(),
            instructions: 123,
            result: 7,
            old_ns_per_iter: 10,
            decoded_ns_per_iter: 5,
            fused_ns_per_iter: 4,
            dispatch: EventCounts::default(),
        }];
        let pool = PoolThroughput {
            jobs: 20,
            clock: POOL_CLOCK,
            total_cost: 5000,
            hit_rate_permille: 400,
            rates: vec![rate(1, 111, 91, 1000), rate(4, 333, 89, 3000)],
        };
        let json = to_json(
            3,
            &ms,
            &ChaosHistogram::default(),
            &pool,
            &snap_fixture(),
            &serve_fixture(),
        );

        // Every wall-clock, scaling, and checkpointing figure
        // perturbed: the gated subset is unchanged, so a
        // zero-tolerance check still passes. This is the honesty
        // property for the scaling rows, the fused tier's timing
        // fields, and the snapshot row — none of them can move the
        // gate.
        for field in [
            "\"virtual_jobs_per_sec\": 111",
            "\"wall_jobs_per_sec\": 91",
            "\"speedup_permille\": 3000",
            "\"efficiency_permille\": 750",
            "\"total_cost\": 5000",
            "\"old_ns_per_iter\": 10",
            "\"decoded_ns_per_iter\": 5",
            "\"fused_ns_per_iter\": 4",
            "\"speedup\": 2.00",
            "\"fused_speedup\": 1.25",
            "\"fused_regression\": false",
            "\"every\": 1024",
            "\"jobs_checkpointed\": 160",
            "\"count\": 777",
            "\"bytes\": 65536",
            "\"blob_digest\": \"0xdeadbeefcafef00d\"",
        ] {
            let bumped = field.rsplit_once(' ').expect("field has a value").0;
            let faster = json.replace(field, &format!("{bumped} 999999"));
            assert_ne!(json, faster, "the perturbation must actually hit: {field}");
            assert_eq!(parse_baseline(&json), parse_baseline(&faster));
            assert!(check_against_baseline(&parse_baseline(&faster), &ms, 0.0).is_empty());
        }

        // One instruction shaved off the baseline: current (123) now
        // exceeds baseline (122) and zero tolerance must flag it.
        let tighter = json.replace("\"instructions\": 123", "\"instructions\": 122");
        let v = check_against_baseline(&parse_baseline(&tighter), &ms, 0.0);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn every_serve_field_is_gated_individually_and_wall_rps_is_not() {
        // The serve honesty property: perturbing ANY deterministic
        // serve field in the committed baseline trips the gate on its
        // own, while the wall-clock rate can drift freely — and a
        // baseline predating the section is itself a violation.
        let serve = serve_fixture();
        let pool = PoolThroughput {
            jobs: 1,
            clock: POOL_CLOCK,
            total_cost: 1,
            hit_rate_permille: 0,
            rates: Vec::new(),
        };
        let json = to_json(
            1,
            &[],
            &ChaosHistogram::default(),
            &pool,
            &snap_fixture(),
            &serve,
        );
        assert!(check_serve_baseline(&json, &serve).is_empty());
        // The section must stay invisible to the workload-row parser.
        assert!(parse_baseline(&json).is_empty());

        for (key, value) in serve.gated_fields() {
            let (pat, bumped) = if key == "event_digest" {
                (
                    format!("\"{key}\": \"{value:#018x}\""),
                    format!("\"{key}\": \"{:#018x}\"", value + 1),
                )
            } else {
                (
                    format!("\"{key}\": {value}"),
                    format!("\"{key}\": {}", value + 1),
                )
            };
            let perturbed = json.replace(&pat, &bumped);
            assert_ne!(json, perturbed, "perturbation must hit: {pat}");
            let v = check_serve_baseline(&perturbed, &serve);
            assert_eq!(v.len(), 1, "{key} perturbation not caught: {v:?}");
            assert!(v[0].contains(key), "{key}: {v:?}");
        }

        // wall_rps is never gated.
        let faster = json.replace(
            &format!("\"wall_rps\": {}", serve.wall_rps),
            "\"wall_rps\": 999999999",
        );
        assert_ne!(json, faster, "the wall perturbation must hit");
        assert!(check_serve_baseline(&faster, &serve).is_empty());

        // A serve-less baseline is a violation, not a silent pass.
        let stripped: String = json
            .lines()
            .filter(|l| !l.contains("\"serve\": {"))
            .collect::<Vec<_>>()
            .join("\n");
        let v = check_serve_baseline(&stripped, &serve);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no `serve` section"), "{v:?}");
    }

    #[test]
    fn fused_regressions_are_flagged_per_row_and_summarized() {
        // One healthy row, one where the fused tier lost to decoded.
        let mk = |name: &str, decoded: u64, fused: u64| Measurement {
            name: name.into(),
            instructions: 10,
            result: 0,
            old_ns_per_iter: 20,
            decoded_ns_per_iter: decoded,
            fused_ns_per_iter: fused,
            dispatch: EventCounts::default(),
        };
        let good = mk("good", 5, 4);
        let bad = mk("bad", 4, 5);
        assert!(!good.fused_regression());
        assert!(bad.fused_regression());
        // Zero fused time means "tier not measured", never a regression.
        assert!(!mk("unmeasured", 5, 0).fused_regression());

        let ms = vec![good, bad];
        let pool = PoolThroughput {
            jobs: 1,
            clock: POOL_CLOCK,
            total_cost: 1,
            hit_rate_permille: 0,
            rates: Vec::new(),
        };
        let json = to_json(
            1,
            &ms,
            &ChaosHistogram::default(),
            &pool,
            &snap_fixture(),
            &serve_fixture(),
        );
        assert!(json.contains("\"fused_regression\": false"), "{json}");
        assert!(json.contains("\"fused_regression\": true"), "{json}");
        assert!(json.contains("\"fused_regressions\": [\"bad\"],"), "{json}");
        // The summary line must stay invisible to the baseline parser:
        // only real workload rows carry `"name": ` + `"instructions": `.
        let parsed = parse_baseline(&json);
        assert_eq!(parsed, vec![("good".into(), 10), ("bad".into(), 10)]);
    }

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
    fn gate_flags_regressions_and_lost_workloads() {
        let current = vec![Measurement {
            name: "a".into(),
            instructions: 130,
            result: 0,
            old_ns_per_iter: 0,
            decoded_ns_per_iter: 0,
            fused_ns_per_iter: 0,
            dispatch: EventCounts::default(),
        }];
        // 130 <= 100 * 1.25 is false: regression.
        let v = check_against_baseline(&[("a".into(), 100)], &current, 0.25);
        assert_eq!(v.len(), 1, "{v:?}");
        // Within tolerance.
        assert!(check_against_baseline(&[("a".into(), 110)], &current, 0.25).is_empty());
        // Lost workload.
        let v = check_against_baseline(&[("gone".into(), 1)], &current, 0.25);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn instruction_counts_agree_across_engines_on_every_workload() {
        // measure_program / measure_m3 assert old == decoded == fused
        // internally; one iteration of the full trajectory is the test.
        let ms = run_trajectory(1);
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
        let ms = run_trajectory(1);
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
        assert!(deep.dispatch.rts_ops > 0, "deep raise used no Table 1 ops");
        // The sjlj strategy transfers to handlers with `cut to`; no-raise
        // runs never cut, while the interpretive unwinder's raise does
        // resume through the RTS.
        assert_eq!(get("sec2_no_raise_sjlj-pentium").dispatch.cuts, 0);
    }
}
