//! Batch execution: a manifest of jobs, compiled through the shared
//! [`PipelineCache`] and executed on the caller-runs work queue.
//!
//! # Manifest format
//!
//! One job line per entry; `#` starts a comment:
//!
//! ```text
//! # <source-file> <engine[,engine...]> [key=value ...]
//! fig34_plain.cmm  vm,vm-decoded  entry=f args=20
//! fig2_deep_raise.m3  sem  strategy=cutting args=5
//! ```
//!
//! The source language is chosen by extension (`.cmm` → C--, `.m3` →
//! MiniM3). Keys: `entry=` (C-- start procedure, default `f`),
//! `args=` (comma-separated `u32`s), `results=` (C-- result arity on
//! the simulated target, default 1), `strategy=` (MiniM3 lowering,
//! default `runtime-unwind`), `opt=full|none` (default `full`),
//! `fuel=` (per-run budget; defaults match difftest's limits),
//! `yields=` (suspension bound, default 64), and `chaos=SEED` (install
//! a seeded `cmm-chaos` [`FaultPlan`] on the job's thread, so the
//! manifest can exercise failure paths deliberately). A
//! comma-separated engine list expands to one job per engine — the
//! usual way a manifest earns cache hits, since all five engines share
//! per-family artifacts.
//!
//! # Determinism
//!
//! [`run_batch`] produces a report whose non-timing content is a pure
//! function of the job list: job records are keyed and ordered by
//! submission index, the dispatcher policy that services suspensions
//! is the fixed deterministic one difftest's oracles use, and the
//! cache counters are scheduling-independent by the single-flight
//! counting discipline (see [`crate::cache`]). Serializing with
//! `with_timing = false` therefore yields byte-identical output at
//! `-j1` and `-jN`; CI diffs exactly that.

use crate::cache::{EngineCode, PipelineCache, SourceId, SourceKey, SourceLang};
use crate::executor::{panic_text, run_jobs_metered, JobOutcome, PoolMeter};
use cmm_chaos::{drive, Budget, End, EngineId, Family, FaultPlan, ResourceGovernor, Table1};
use cmm_frontend::{run_thread, with_engine, Arenas, Setup, Strategy};
use cmm_ir::Name;
use cmm_obs::{
    json_escape, CacheSnapshot, FlightRecorder, MetricClass, MetricsRegistry, NopSink, RtsOp,
    Tally, TraceSink,
};
use cmm_opt::OptOptions;
use cmm_snap::{fold_digest, Digest, SnapMeta, Snapshot, FOLD_INIT};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Flight-recorder ring capacity (events retained per job) when
/// [`BatchConfig::metrics`] is on.
const FLIGHT_CAP: usize = 64;

/// One job: a source, an engine, and execution parameters.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name (the manifest's source path).
    pub name: String,
    /// Language / lowering.
    pub lang: SourceLang,
    /// Source text (loaded up front; execution never touches the
    /// filesystem).
    pub source: String,
    /// Start procedure (C-- only; MiniM3 always enters `main`).
    pub entry: String,
    /// Call arguments.
    pub args: Vec<u32>,
    /// Expected result arity on the simulated target (C-- only).
    pub results: usize,
    /// Execution engine.
    pub engine: EngineId,
    /// Optimization configuration (a cache-digest input).
    pub opts: OptOptions,
    /// Per-run fuel budget, enforced through the `cmm-chaos`
    /// [`ResourceGovernor`]'s fuel slice.
    pub fuel: u64,
    /// Suspensions serviced before the run is cut off.
    pub max_yields: usize,
    /// Chaos seed: install [`FaultPlan::seeded`] on the job's thread
    /// (difftest's wall). `None` runs clean.
    pub chaos: Option<u64>,
}

impl JobSpec {
    /// The cache key this job compiles under.
    pub fn source_key(&self) -> SourceKey {
        SourceKey {
            source: self.source.clone(),
            lang: self.lang.clone(),
            opts: self.opts,
            family: self.engine.family(),
        }
    }
}

/// Reads a manifest file, loading each referenced source relative to
/// the manifest's directory.
pub fn load_manifest(path: &Path) -> Result<Vec<JobSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let base = path.parent().unwrap_or_else(|| Path::new("."));
    parse_manifest(&text, &mut |rel| {
        let p = base.join(rel);
        std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))
    })
}

/// Parses manifest text; `read_source` maps a source path to its text
/// (injected so tests need no filesystem).
pub fn parse_manifest(
    text: &str,
    read_source: &mut dyn FnMut(&str) -> Result<String, String>,
) -> Result<Vec<JobSpec>, String> {
    let mut specs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("manifest line {}: {msg}", lineno + 1);
        let mut tokens = line.split_whitespace();
        let file = tokens.next().expect("non-empty line");
        let engines = tokens
            .next()
            .ok_or_else(|| at(format!("`{file}`: missing engine list")))?;
        let mut entry = "f".to_string();
        let mut args: Vec<u32> = Vec::new();
        let mut results = 1usize;
        let mut strategy = Strategy::RuntimeUnwind;
        let mut opts = OptOptions::default();
        let mut fuel: Option<u64> = None;
        let mut max_yields = 64usize;
        let mut chaos: Option<u64> = None;
        for tok in tokens {
            let Some((k, v)) = tok.split_once('=') else {
                return Err(at(format!("expected key=value, got `{tok}`")));
            };
            match k {
                "entry" => entry = v.to_string(),
                "args" => {
                    args = v
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse().map_err(|_| at(format!("bad argument `{s}`"))))
                        .collect::<Result<_, _>>()?;
                }
                "results" => {
                    results = v.parse().map_err(|_| at(format!("bad results `{v}`")))?;
                }
                "strategy" => strategy = Strategy::parse(v).map_err(&at)?,
                "opt" => {
                    opts = match v {
                        "full" => OptOptions::default(),
                        "none" => OptOptions::none(),
                        other => return Err(at(format!("bad opt level `{other}`"))),
                    };
                }
                "fuel" => fuel = Some(v.parse().map_err(|_| at(format!("bad fuel `{v}`")))?),
                "yields" => {
                    max_yields = v.parse().map_err(|_| at(format!("bad yields `{v}`")))?;
                }
                "chaos" => {
                    chaos = Some(v.parse().map_err(|_| at(format!("bad chaos seed `{v}`")))?);
                }
                other => return Err(at(format!("unknown key `{other}`"))),
            }
        }
        cmm_vm::check_arity(args.len(), results).map_err(&at)?;
        let lang = if file.ends_with(".cmm") {
            SourceLang::Cmm
        } else if file.ends_with(".m3") {
            SourceLang::MiniM3(strategy)
        } else {
            return Err(at(format!("`{file}`: expected a .cmm or .m3 source")));
        };
        let source = read_source(file)?;
        for eng in engines.split(',') {
            let engine = EngineId::parse(eng).map_err(&at)?;
            // Difftest's default limits, scaled to the engine family.
            let fuel = fuel.unwrap_or(match engine.family() {
                Family::Sem => 2_000_000,
                Family::Vm => 20_000_000,
            });
            specs.push(JobSpec {
                name: file.to_string(),
                lang: lang.clone(),
                source: source.clone(),
                entry: match lang {
                    SourceLang::Cmm => entry.clone(),
                    // The MiniM3 driver always enters `main`; report
                    // that rather than the (ignored) C-- default.
                    SourceLang::MiniM3(_) => "main".to_string(),
                },
                args: args.clone(),
                results,
                engine,
                opts,
                fuel,
                max_yields,
                chaos,
            });
        }
    }
    Ok(specs)
}

/// Batch-service configuration.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Worker threads (`1` = run inline).
    pub workers: usize,
    /// Build a [`MetricsRegistry`] for the batch: mount the cache and
    /// pool counters, run every job through a flight-recorder sink,
    /// write each job's figures into the registry after the run phase,
    /// and collect post-mortem dumps for failed jobs. Off (the default),
    /// every job runs through [`NopSink`] exactly as before — the whole
    /// layer compiles away.
    pub metrics: bool,
    /// Checkpoint every C-- job at this fuel-slice granularity
    /// (`cmm batch --snapshot-every N`): at each boundary the machine
    /// state is captured, encoded with `cmm-snap`, decoded, and
    /// restored in-process before execution continues. Outcomes,
    /// yields, and instruction counts are unchanged by construction —
    /// a divergence is reported as a `snap-error` job failure. The
    /// per-job snapshot count, encoded bytes, and running blob digest
    /// land in the report (deterministic at any `-j`). MiniM3 jobs run
    /// their own driver and are not checkpointed.
    pub snapshot_every: Option<u64>,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: 1,
            metrics: false,
            snapshot_every: None,
        }
    }
}

/// Checkpointing totals for one job ([`BatchConfig::snapshot_every`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnapSummary {
    /// Snapshot/restore cycles performed.
    pub count: u64,
    /// Total encoded snapshot bytes.
    pub bytes: u64,
    /// Running [`fold_digest`] over every encoded blob, in order — a
    /// deterministic fingerprint of the job's whole checkpoint stream.
    pub digest: u64,
}

impl Default for SnapSummary {
    fn default() -> SnapSummary {
        SnapSummary {
            count: 0,
            bytes: 0,
            digest: FOLD_INIT,
        }
    }
}

/// What one job reported.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobRecord {
    /// Submission index (report order).
    pub id: usize,
    /// Source path from the manifest.
    pub name: String,
    /// Engine label.
    pub engine: &'static str,
    /// Start procedure.
    pub entry: String,
    /// Call arguments.
    pub args: Vec<u32>,
    /// How the run ended (`halt [..]`, `result N`, `wrong`, `fuel`,
    /// `rts-error`, `error`, `compile-error`, `snap-error`, `panicked`).
    pub outcome: String,
    /// Engine-specific detail text (empty on clean halts).
    pub detail: String,
    /// Yield codes serviced, in order (C-- jobs).
    pub yields: Vec<u64>,
    /// Deterministic work count: the cost-model total (instructions +
    /// runtime-instruction equivalents) for vm-family jobs, the
    /// transition count for abstract-machine jobs. Zero only when the
    /// job never ran (compile errors, panics).
    pub instructions: u64,
    /// Checkpointing totals, when the batch ran with
    /// [`BatchConfig::snapshot_every`].
    pub snap: Option<SnapSummary>,
    /// Wall-clock nanoseconds (excluded from deterministic output).
    pub ns: u128,
}

/// A flight-recorder post-mortem for one failed job: the dump text of
/// the job's final events plus its whole-run tallies (see
/// [`cmm_obs::FlightRecorder::dump`]). Produced only under
/// [`BatchConfig::metrics`], for every job that ran and then failed as
/// [`BatchReport::failing_jobs`] counts failure (a group that did not
/// compile never ran, so it leaves nothing to dump), and for any job
/// that saw an injected chaos fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Postmortem {
    /// Submission index of the failed job.
    pub job_id: usize,
    /// Source path from the manifest.
    pub name: String,
    /// Engine label.
    pub engine: &'static str,
    /// The job's outcome string.
    pub outcome: String,
    /// The rendered post-mortem artifact.
    pub text: String,
}

/// The result of one [`run_batch`] call.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job records, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Cache-counter *delta* over this batch (resident bytes are the
    /// absolute post-batch estimate).
    pub cache: CacheSnapshot,
    /// The batch's metrics registry ([`BatchConfig::metrics`] only):
    /// cache shards, per-phase pool meters, and per-job engine /
    /// strategy / Table 1 / chaos figures. Serialized as the report's
    /// `metrics` section and exportable as Prometheus text.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Flight-recorder dumps for failed jobs, in submission order
    /// ([`BatchConfig::metrics`] only).
    pub postmortems: Vec<Postmortem>,
    /// Worker threads used (timing section only — `-j` must not
    /// change the deterministic output).
    pub workers: usize,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_ns: u128,
}

/// Runs every job, sharing compilations through `cache`.
///
/// Two phases: **(A)** one parallel compile per distinct cache digest
/// — these are the misses; **(B)** every job in parallel, fetching its
/// artifacts back out of the cache with one
/// [`PipelineCache::engine_code`] call — the hits. A batch over a fresh
/// cache therefore always reports a positive hit rate once any group
/// has a runnable job.
pub fn run_batch(specs: &[JobSpec], cache: &PipelineCache, config: &BatchConfig) -> BatchReport {
    let before = cache.snapshot();
    let t0 = Instant::now();

    // The metrics runtime, when asked for: the cache's shard counters
    // and both phases' pool meters become live registry views, and
    // `write_metrics` adds each job's engine/strategy/Table 1 figures.
    let registry = config.metrics.then(|| Arc::new(MetricsRegistry::new()));
    let compile_meter = PoolMeter::new();
    let run_meter = PoolMeter::new();
    if let Some(reg) = &registry {
        cache.mount_metrics(reg);
        compile_meter.mount(reg, "compile");
        run_meter.mount(reg, "run");
    }

    // Group jobs by cache digest. A group's deepest tier is the one
    // whose artifacts cover every job in it: the resolved tables are
    // built over the CFG, and the fused stream over the decoded one,
    // which is built over the target code (the tier order of
    // `EngineId`). Warming it alone keeps each artifact to one cache
    // lookup in this phase; a job whose artifact was not warmed builds
    // it in phase B instead.
    struct Group {
        id: SourceId,
        deepest: EngineId,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(specs.len());
    let mut by_digest = std::collections::HashMap::new();
    for spec in specs {
        let id = SourceId::new(spec.source_key());
        let g = *by_digest.entry(id.digest()).or_insert_with(|| {
            groups.push(Group {
                id,
                deepest: spec.engine,
            });
            groups.len() - 1
        });
        groups[g].deepest = groups[g].deepest.max(spec.engine);
        group_of.push(g);
    }

    // Phase A: compile each group once, in parallel.
    let compile_errs: Vec<Option<String>> = run_jobs_metered(
        config.workers,
        (0..groups.len()).collect(),
        |_| (),
        |(), _, g| {
            let grp = &groups[g];
            cache.engine_code(&grp.id, grp.deepest).err()
        },
        &compile_meter,
    )
    .into_iter()
    .map(|o| match o {
        JobOutcome::Done(err) => err,
        JobOutcome::Panicked(msg) => Some(format!("compiler panicked: {msg}")),
    })
    .collect();

    // Phase B: run every job in parallel against the warm cache. Each
    // worker owns one pair of execution arenas, reused job after job so
    // the hot phase stops paying the allocator; the executor rebuilds a
    // worker's arenas from scratch if one of its jobs panics, so a
    // half-mutated arena never reaches the next job. A traced job hands
    // back its tally; the registry is written from them afterwards.
    let outcomes = run_jobs_metered(
        config.workers,
        (0..specs.len()).collect(),
        |_| Arenas::default(),
        |arenas, _, i| {
            let spec = &specs[i];
            let started = Instant::now();
            let g = group_of[i];
            let (mut obs, tally, pm) = match &compile_errs[g] {
                Some(e) => (RunObs::failed("compile-error", e.clone()), None, None),
                None => run_one(i, spec, cache, &groups[g].id, arenas, config),
            };
            obs.ns = started.elapsed().as_nanos();
            (record(i, spec, obs), tally, pm)
        },
        &run_meter,
    );
    let mut jobs = Vec::with_capacity(specs.len());
    let mut tallies = Vec::with_capacity(specs.len());
    let mut postmortems = Vec::new();
    for (i, o) in outcomes.into_iter().enumerate() {
        let (rec, tally, pm) = match o {
            JobOutcome::Done(done) => done,
            JobOutcome::Panicked(msg) => {
                let rec = record(i, &specs[i], RunObs::failed("panicked", msg));
                (rec, None, None)
            }
        };
        jobs.push(rec);
        tallies.push(tally);
        postmortems.extend(pm);
    }
    if let Some(reg) = &registry {
        write_metrics(reg, specs, &jobs, &tallies);
    }

    let after = cache.snapshot();
    BatchReport {
        jobs,
        cache: CacheSnapshot {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            inflight_waits: after.inflight_waits - before.inflight_waits,
            resident_bytes: after.resident_bytes,
        },
        registry,
        postmortems,
        workers: config.workers,
        wall_ns: t0.elapsed().as_nanos(),
    }
}

/// The exception-technique label a job's figures are keyed by: the
/// MiniM3 lowering strategy, or `raw` for hand-written C--.
fn technique(spec: &JobSpec) -> &'static str {
    match &spec.lang {
        SourceLang::Cmm => "raw",
        SourceLang::MiniM3(s) => match s {
            Strategy::RuntimeUnwind => "runtime-unwind",
            Strategy::Cutting => "cutting",
            Strategy::NativeUnwind => "native-unwind",
            Strategy::Cps => "cps",
            Strategy::Sjlj(_) => "sjlj",
        },
    }
}

/// The outcome-class label (`halt`, `result`, `wrong`, …): the first
/// word of the outcome string, so `halt [0]` and `halt [7]` share a
/// counter.
fn outcome_class(outcome: &str) -> &str {
    outcome.split_whitespace().next().unwrap_or("empty")
}

/// Whether a job that ended in `outcome` failed: it did not compile,
/// panicked, went wrong, failed a checkpoint round-trip, or died in
/// the run-time system (`rts-error` for C--, `error` for MiniM3). The
/// one predicate behind both [`BatchReport::failing_jobs`] and the
/// post-mortems a traced job leaves.
fn failed(outcome: &str) -> bool {
    matches!(
        outcome_class(outcome),
        "compile-error" | "panicked" | "wrong" | "snap-error" | "rts-error" | "error"
    )
}

/// Writes the batch's figures into its registry. The jobs' figures are
/// summed per label set first, so each registry cell is looked up once
/// per batch, not once per job. The outcome tally, the deterministic
/// virtual-clock latency (the cost-model total, read as 1 instruction =
/// 1 virtual ns) and the checkpoint totals cover every job, compile
/// errors and panics included. A traced job's tally adds engine events
/// by kind, Table 1 ops, dispatch mechanisms and injected chaos faults,
/// keyed by its exception technique. Every key is registered even at
/// zero so the exported label set is a function of the job set, not of
/// which paths fired.
fn write_metrics(
    reg: &MetricsRegistry,
    specs: &[JobSpec],
    jobs: &[JobRecord],
    tallies: &[Option<Tally>],
) {
    let det = MetricClass::Deterministic;
    let mut outcomes: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut latencies: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut snaps: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut traced: BTreeMap<(&str, &str), Tally> = BTreeMap::new();
    for ((spec, rec), tally) in specs.iter().zip(jobs).zip(tallies) {
        let engine = spec.engine.label();
        *outcomes
            .entry((engine, outcome_class(&rec.outcome)))
            .or_default() += 1;
        latencies.entry(engine).or_default().push(rec.instructions);
        // Registered even when checkpointing is off.
        let snap = rec.snap.unwrap_or_default();
        let (count, bytes) = snaps.entry(engine).or_default();
        *count += snap.count;
        *bytes += snap.bytes;
        if let Some(t) = tally {
            traced
                .entry((engine, technique(spec)))
                .or_default()
                .merge(t);
        }
    }
    for ((engine, class), n) in outcomes {
        reg.counter(
            "cmm_jobs_total",
            &[("engine", engine), ("outcome", class)],
            "Batch jobs by engine and outcome class",
            det,
        )
        .add(n);
    }
    for (engine, latencies) in latencies {
        let h = reg.histogram(
            "cmm_job_virtual_ns",
            &[("engine", engine), ("phase", "run")],
            "Deterministic job latency on the virtual cost clock (1 instruction = 1 ns)",
            det,
        );
        for ns in latencies {
            h.observe(ns);
        }
    }
    for (engine, (count, bytes)) in snaps {
        reg.counter(
            "cmm_snapshots_total",
            &[("engine", engine)],
            "Machine-state snapshots taken at fuel-slice boundaries",
            det,
        )
        .add(count);
        reg.counter(
            "cmm_snapshot_bytes_total",
            &[("engine", engine)],
            "Encoded snapshot bytes across fuel-slice checkpoints",
            det,
        )
        .add(bytes);
    }
    let mut by_tech: BTreeMap<&str, Tally> = BTreeMap::new();
    for ((engine, tech), t) in &traced {
        for (kind, n) in t.kinds() {
            reg.counter(
                "cmm_engine_events_total",
                &[("engine", engine), ("kind", kind), ("technique", tech)],
                "Engine trace events by kind, engine, and exception technique",
                det,
            )
            .add(n);
        }
        for (op, n) in RtsOp::NAMES.into_iter().zip(t.rts) {
            reg.counter(
                "cmm_rts_ops_total",
                &[("engine", engine), ("op", op), ("technique", tech)],
                "Table 1 run-time-interface calls by op and exception technique",
                det,
            )
            .add(n);
        }
        by_tech.entry(tech).or_default().merge(t);
    }
    let mut total = Tally::default();
    for (tech, t) in &by_tech {
        for (mech, n) in t.mechanisms() {
            reg.counter(
                "cmm_strategy_dispatch_total",
                &[("mech", mech), ("technique", tech)],
                "Exception-dispatch mechanism uses by technique",
                det,
            )
            .add(n);
        }
        total.merge(t);
    }
    for (op, n) in total.chaos {
        reg.counter(
            "cmm_chaos_faults_total",
            &[("op", op)],
            "Injected Table 1 faults by operation",
            det,
        )
        .add(n);
    }
}

/// Runs one compiled job: through [`NopSink`] (identical
/// monomorphization to the pre-metrics service) unless the batch keeps
/// metrics, and otherwise through a [`FlightRecorder`] lent to the
/// engine inside the panic boundary, so the recording survives the
/// engine dying under it. A traced job returns its tally and, when it
/// failed, its post-mortem dump.
fn run_one(
    id: usize,
    spec: &JobSpec,
    cache: &PipelineCache,
    source: &SourceId,
    arenas: &mut Arenas,
    config: &BatchConfig,
) -> (RunObs, Option<Tally>, Option<Postmortem>) {
    let snap_every = config.snapshot_every;
    let cached = cache.engine_code(source, spec.engine);
    if !config.metrics {
        let obs = execute(spec, &cached, source, arenas, snap_every, NopSink);
        return (obs, None, None);
    }
    let mut flight = FlightRecorder::new(FLIGHT_CAP);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        execute(spec, &cached, source, arenas, snap_every, &mut flight)
    }));
    let obs = match caught {
        Ok(obs) => obs,
        Err(payload) => {
            // The executor never sees this panic, so take over its
            // context hygiene: the arenas may be half mutated.
            *arenas = Arenas::default();
            RunObs::failed("panicked", panic_text(payload.as_ref()))
        }
    };
    let dump = failed(&obs.outcome) || flight.tally.chaos_events() > 0;
    let pm = dump.then(|| {
        let header = format!(
            "job {id} `{}` [{} {}] outcome: {}{}{}",
            spec.name,
            spec.engine.label(),
            technique(spec),
            obs.outcome,
            if obs.detail.is_empty() { "" } else { " — " },
            obs.detail,
        );
        Postmortem {
            job_id: id,
            name: spec.name.clone(),
            engine: spec.engine.label(),
            outcome: obs.outcome.clone(),
            text: match &cached {
                Ok(c) => flight.dump(&header, c.code().names()),
                Err(_) => flight.dump(&header, &Vec::<Name>::new()),
            },
        }
    });
    (obs, Some(flight.tally), pm)
}

/// What a single execution observed (pre-record form).
struct RunObs {
    outcome: String,
    detail: String,
    yields: Vec<u64>,
    instructions: u64,
    snap: Option<SnapSummary>,
    ns: u128,
}

impl RunObs {
    fn failed(outcome: &str, detail: String) -> RunObs {
        RunObs {
            outcome: outcome.to_string(),
            detail,
            yields: Vec::new(),
            instructions: 0,
            snap: None,
            ns: 0,
        }
    }
}

fn record(id: usize, spec: &JobSpec, obs: RunObs) -> JobRecord {
    JobRecord {
        id,
        name: spec.name.clone(),
        engine: spec.engine.label(),
        entry: spec.entry.clone(),
        args: spec.args.clone(),
        outcome: obs.outcome,
        detail: obs.detail,
        yields: obs.yields,
        instructions: obs.instructions,
        snap: obs.snap,
        ns: obs.ns,
    }
}

/// The per-job resource governor: the `cmm-chaos` fuel slice is the
/// job's "timeout" (every `run` call is clipped to the job budget).
fn governor(spec: &JobSpec) -> ResourceGovernor {
    ResourceGovernor {
        fuel_slice: Some(spec.fuel),
    }
}

/// Runs one job on the code the warm cache holds for its group's
/// `source` identity (hashed once per batch), or reports the group's
/// compile error, drawing machine state from (and returning it to) the
/// worker's arenas. Generic over the sink:
/// the plain service passes [`NopSink`] and monomorphizes to exactly
/// the zero-cost instantiation the perf trajectory measures; the
/// metrics service lends a [`FlightRecorder`].
fn execute<S: TraceSink>(
    spec: &JobSpec,
    cached: &Result<EngineCode, String>,
    source: &SourceId,
    arenas: &mut Arenas,
    snap_every: Option<u64>,
    sink: S,
) -> RunObs {
    let cached = match cached {
        Ok(c) => c,
        Err(e) => return RunObs::failed("compile-error", e.clone()),
    };
    let code = cached.code();
    let image = code
        .image()
        .expect("engine_code holds the engine's program");
    let setup = Setup {
        governor: governor(spec),
        chaos: spec.chaos.map(FaultPlan::seeded),
        arenas: Some(arenas),
    };
    with_engine(spec.engine, &code, sink, setup, |t| {
        let mut obs = match &spec.lang {
            SourceLang::Cmm => drive_job(t, spec, source.digest(), snap_every),
            SourceLang::MiniM3(strategy) => match run_thread(t, image, *strategy, &spec.args) {
                Ok(v) => RunObs {
                    outcome: format!("result {v}"),
                    instructions: t.work(),
                    ..RunObs::failed("", String::new())
                },
                Err(e) => RunObs::failed("error", e.to_string()),
            },
        };
        // The work figure: the abstract machines report their
        // transitions on every end; the target reports its cost total
        // on the ends that retire generated code.
        if spec.engine.family() == Family::Sem {
            obs.instructions = t.work();
        }
        obs
    })
    .unwrap_or_else(|e| RunObs::failed("compile-error", e))
}

/// The snapshot metadata a batch checkpoint records.
fn snap_meta(spec: &JobSpec, budget: u64, yields_done: u64) -> SnapMeta {
    SnapMeta {
        entry: spec.entry.clone(),
        args: spec.args.iter().map(|&a| u64::from(a)).collect(),
        fuel_remaining: budget,
        yields_done,
        opt: spec.opts != OptOptions::none(),
    }
}

/// One in-process checkpoint: capture → encode → decode → restore into
/// the same machine. The blob carries `digest`, the job's program
/// identity. Totals land in `sum`.
fn checkpoint(
    t: &mut dyn Table1,
    spec: &JobSpec,
    digest: Digest,
    budget: u64,
    yields_done: u64,
    sum: &mut SnapSummary,
) -> Result<(), String> {
    let meta = snap_meta(spec, budget, yields_done);
    let bytes = Snapshot::capture(t, digest, meta, Some(governor(spec)))?.encode();
    let decoded = Snapshot::decode(&bytes).map_err(|e| e.to_string())?;
    decoded.state.restore_into(t)?;
    sum.count += 1;
    sum.bytes += bytes.len() as u64;
    sum.digest = fold_digest(sum.digest, &bytes);
    Ok(())
}

/// Drives a C-- job under the fixed dispatcher policy (see
/// [`cmm_chaos::drive`]).
///
/// With `snap_every = Some(n)` each inter-yield segment's budget is
/// granted `n` units at a time, checkpointing at every slice boundary;
/// fuel accounting is exact on every engine, so the job's outcome,
/// yields, and instruction count are identical to the unsliced run.
fn drive_job(
    t: &mut dyn Table1,
    spec: &JobSpec,
    digest: Digest,
    snap_every: Option<u64>,
) -> RunObs {
    let args: Vec<u64> = spec.args.iter().map(|&a| u64::from(a)).collect();
    if let Err(w) = t.start(&spec.entry, &args, spec.results) {
        return RunObs::failed("wrong", w);
    }
    let budget = Budget {
        every: snap_every,
        ..Budget::new(spec.fuel, spec.max_yields as u64)
    };
    let mut obs = RunObs::failed("", String::new());
    let mut sum = SnapSummary::default();
    let end = drive(t, budget, &mut obs.yields, |t, left, done| {
        checkpoint(t, spec, digest, left, done, &mut sum)
    });
    obs.snap = snap_every.map(|_| sum);
    let (outcome, detail, retired) = match end {
        Ok(End::Halted(words)) => (format!("halt {words:?}"), String::new(), true),
        Ok(End::Wrong(e)) => ("wrong".into(), e, true),
        Ok(End::OutOfFuel) => ("fuel".into(), "out of fuel".into(), true),
        Ok(End::SuspensionBound) => ("fuel".into(), "suspension bound".into(), true),
        Ok(End::RtsError(e)) => ("rts-error".into(), e, false),
        Ok(End::Unexpected(s)) => ("rts-error".into(), format!("unexpected status {s}"), false),
        Ok(End::Paused { .. }) => ("fuel".into(), "paused".into(), true),
        Err(e) => ("snap-error".into(), e, true),
    };
    obs.outcome = outcome;
    obs.detail = detail;
    if retired {
        obs.instructions = t.work();
    }
    obs
}

impl BatchReport {
    /// Job records that make the batch a failure: compile errors,
    /// panics, `wrong` verdicts, checkpoint failures and run-time
    /// errors — the outcomes for which a traced job leaves a
    /// post-mortem. The CLI exits non-zero and names each of these — a
    /// broken job must never hide inside an otherwise-green JSON
    /// report.
    pub fn failing_jobs(&self) -> Vec<&JobRecord> {
        self.jobs.iter().filter(|j| failed(&j.outcome)).collect()
    }

    /// Serializes the report. With `with_timing = false` every
    /// scheduling- or clock-dependent field is omitted (per-job `ns`,
    /// the `timing` section, the cache's in-flight waits and resident
    /// estimate), which makes the output a pure function of the job
    /// list: CI runs `-j1` and `-j4` and byte-compares.
    pub fn to_json(&self, with_timing: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"cmm-pool-batch-v1\",\n");
        let _ = writeln!(s, "  \"jobs\": [");
        for (i, j) in self.jobs.iter().enumerate() {
            let _ = write!(
                s,
                "    {{ \"id\": {}, \"source\": \"{}\", \"engine\": \"{}\", \"entry\": \"{}\", \
                 \"args\": {:?}, \"outcome\": \"{}\", \"detail\": \"{}\", \"yields\": {:?}, \
                 \"instructions\": {}",
                j.id,
                json_escape(&j.name),
                json_escape(j.engine),
                json_escape(&j.entry),
                j.args,
                json_escape(&j.outcome),
                json_escape(&j.detail),
                j.yields,
                j.instructions,
            );
            if let Some(snap) = &j.snap {
                let _ = write!(
                    s,
                    ", \"snapshots\": {}, \"snapshot_bytes\": {}, \"snapshot_digest\": \"{:#018x}\"",
                    snap.count, snap.bytes, snap.digest
                );
            }
            if with_timing {
                let _ = write!(s, ", \"ns\": {}", j.ns);
            }
            let _ = writeln!(s, " }}{}", if i + 1 < self.jobs.len() { "," } else { "" });
        }
        s.push_str("  ],\n");
        let c = &self.cache;
        // Permille, to keep floats out of gated output.
        let rate = (c.hits * 1000).checked_div(c.hits + c.misses).unwrap_or(0);
        let _ = write!(
            s,
            "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"hit_rate_permille\": {} }}",
            c.hits, c.misses, c.evictions, rate
        );
        if let Some(reg) = &self.registry {
            s.push_str(",\n  \"metrics\": ");
            // Reindent the registry's object to sit two levels deep.
            for (i, line) in reg.to_json(with_timing).lines().enumerate() {
                if i > 0 {
                    s.push_str("\n  ");
                }
                s.push_str(line);
            }
        }
        if with_timing {
            let _ = write!(
                s,
                ",\n  \"timing\": {{ \"workers\": {}, \"wall_ns\": {}, \
                 \"inflight_waits\": {}, \"resident_bytes\": {} }}",
                self.workers, self.wall_ns, c.inflight_waits, c.resident_bytes
            );
        }
        s.push_str("\n}\n");
        s
    }
}
