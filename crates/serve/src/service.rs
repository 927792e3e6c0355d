//! The execution service: thousands of suspended C-- threads
//! multiplexed over a bounded worker pool.
//!
//! # Model
//!
//! Tenants [`submit`](Service::submit) programs; each submission is a
//! *service thread* — not an OS thread but a C-- computation that the
//! scheduler advances in fuel-bounded slices (the **quantum**). A
//! thread that yields is parked: its machine state is captured as a
//! `cmm-snap` blob and the yield code is reported to the tenant, who
//! later [`resume`](Service::resume)s it with a reply word. A thread
//! whose quantum expires is parked the same way and goes straight back
//! on the run queue. Between slices a thread *is* its blob — which
//! makes work migration free: the next slice may run on any pool
//! worker and any engine tier of the blob's family (sem ↔
//! sem-resolved, vm ↔ vm-decoded ↔ vm-fused).
//!
//! # Determinism
//!
//! One [`tick`](Service::tick) dispatches a window of runnable threads
//! in queue order, executes their slices on the worker pool (results
//! come back in submission order regardless of worker count), and
//! folds the results back into the scheduler sequentially. Time is the
//! engines' virtual cost-model clock: the tick advances the service
//! clock by the deterministic list-schedule makespan of the slice
//! costs over the configured lanes. Everything observable — the event
//! log, outcomes, queue-wait and turnaround histograms, every
//! `Deterministic`-class metric — is therefore byte-identical at any
//! worker count; wall-clock time appears only in `Timing`-class
//! metrics.

use cmm_chaos::{service_yield, FaultPlan, FaultPlanState, ResourceGovernor, Stop, Table1};
use cmm_obs::{Counter, Gauge, Histogram, Metric, MetricClass, MetricsRegistry, NopSink};
use cmm_opt::OptOptions;
use cmm_pool::{
    run_jobs, virtual_makespan, with_engine, PipelineCache, PoolConfig, Setup, SourceKey,
    SourceLang,
};
use cmm_snap::{fold_digest, source_digest, EngineId, SnapMeta, Snapshot, FOLD_INIT};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Fault-schedule horizon for chaos-seeded threads — the same horizon
/// the batch runner and the difftest oracles use, so a serve thread
/// with `chaos = Some(s)` sees exactly the fault plan a batch job with
/// `chaos=s` would.
pub const CHAOS_HORIZON: u64 = 4;

/// The fixed dispatcher's continuation-parameter fill value — the
/// reply word the deterministic load generator (and any tenant that
/// wants to replay an oracle run) sends for yield code `code`.
pub use cmm_chaos::dispatcher_fill;

/// Arguments and replies are 32-bit machine words: the abstract
/// machines hold them as `bits32` values, so a wider word would reach
/// the two engine families differently.
fn check_word(what: &str, w: u64) -> Result<(), String> {
    if w > u64::from(u32::MAX) {
        return Err(format!(
            "{what} {w} does not fit a 32-bit machine word (max {})",
            u32::MAX
        ));
    }
    Ok(())
}

/// Which engine tier a parked thread's next slice runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrationPolicy {
    /// Every slice runs on the tier the thread was submitted with
    /// (explicit [`Service::set_engine`] calls still migrate it).
    Pinned,
    /// Each slice advances one tier through the blob's family — the
    /// adversarial schedule: every slice boundary is a migration.
    Rotate,
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing slices. `0`/`1` run inline. Workers
    /// change wall-clock time and **nothing else**: the virtual
    /// schedule is computed over [`lanes`](ServeConfig::lanes).
    pub workers: usize,
    /// Pool injector-queue bound.
    pub queue_cap: usize,
    /// Fuel granted per scheduling slice.
    pub quantum: u64,
    /// Virtual execution lanes the deterministic clock schedules over.
    /// This — not `workers` — is what the makespan advance uses, so
    /// the event log and every latency figure are byte-identical at
    /// any `-j`.
    pub lanes: usize,
    /// Max threads dispatched per tick; `0` means `4 × lanes`.
    pub window: usize,
    /// Per-tenant cap on live (not yet finished) threads; submissions
    /// over the cap are rejected.
    pub max_live_per_tenant: usize,
    /// Tier selection for parked threads.
    pub migration: MigrationPolicy,
    /// Mount the `cmm_serve_*` metrics in a registry.
    pub metrics: bool,
    /// Per-thread activation-stack depth cap (governor).
    pub max_depth: Option<usize>,
    /// Per-thread mapped-memory cap in bytes (governor).
    pub max_memory_bytes: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            queue_cap: 256,
            quantum: 2_000,
            lanes: 8,
            window: 0,
            max_live_per_tenant: 4_096,
            migration: MigrationPolicy::Pinned,
            metrics: false,
            max_depth: None,
            max_memory_bytes: None,
        }
    }
}

/// A tenant's submission.
#[derive(Clone, Debug)]
pub struct SubmitReq {
    /// Tenant identity (resource caps are per tenant).
    pub tenant: String,
    /// Display name for events and diagnostics.
    pub name: String,
    /// Raw C-- source. Compilation is shared through the service's
    /// [`PipelineCache`], keyed by content digest — tenants submitting
    /// the same program share one compilation.
    pub source: String,
    /// Entry procedure.
    pub entry: String,
    /// Entry arguments (machine words).
    pub args: Vec<u64>,
    /// Result count the entry returns.
    pub results: usize,
    /// Engine tier to start on.
    pub engine: EngineId,
    /// Total fuel budget across all slices.
    pub fuel: u64,
    /// Max yields serviced before the thread is cut off.
    pub max_yields: u64,
    /// Build with optimization.
    pub opt: bool,
    /// Chaos fault-schedule seed.
    pub chaos: Option<u64>,
}

impl Default for SubmitReq {
    fn default() -> SubmitReq {
        SubmitReq {
            tenant: "default".into(),
            name: "job".into(),
            source: String::new(),
            entry: "f".into(),
            args: Vec::new(),
            results: 1,
            engine: EngineId::Vm,
            fuel: 2_000_000,
            max_yields: 64,
            opt: true,
            chaos: None,
        }
    }
}

/// Where a service thread stands.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ThreadState {
    /// On the run queue (fresh, or parked with fuel to spend).
    Runnable,
    /// Parked at a yield; the tenant owes a [`Service::resume`].
    AwaitingTenant {
        /// The yield code reported to the tenant.
        code: u64,
    },
    /// Finished; the outcome string is final.
    Done {
        /// `halt [..]`, `wrong`, `fuel`, `rts-error`, `compile-error`,
        /// `snap-error`, or `panicked`.
        outcome: String,
    },
}

/// A point-in-time view of one thread, for `poll`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadView {
    /// Thread id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Submission name.
    pub name: String,
    /// Engine tier the next (or last) slice runs on.
    pub engine: EngineId,
    /// Scheduler state.
    pub state: ThreadState,
    /// Yield codes reported so far.
    pub yields: Vec<u64>,
    /// Virtual work done so far (cost-model instructions).
    pub instructions: u64,
    /// Fuel left of the total budget.
    pub fuel_remaining: u64,
    /// Scheduling slices run.
    pub slices: u64,
    /// Tier migrations this thread has crossed.
    pub migrations: u64,
}

/// Deterministic aggregate figures, maintained whether or not metrics
/// are mounted.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ServeStats {
    /// Threads accepted.
    pub submitted: u64,
    /// Threads finished (any outcome).
    pub completed: u64,
    /// Yield responses delivered to tenants.
    pub yields: u64,
    /// Tenant resumes applied.
    pub resumes: u64,
    /// Slices executed.
    pub slices: u64,
    /// Slices whose engine tier differed from the tier that captured
    /// the blob they resumed.
    pub migrations: u64,
    /// Threads currently parked as snapshot blobs.
    pub parked: u64,
    /// High-water mark of `parked`.
    pub parked_high_water: u64,
    /// Scheduling quanta run.
    pub quanta: u64,
    /// The virtual clock (ns; 1 instruction = 1 ns).
    pub vclock: u64,
    /// Total virtual work executed.
    pub instructions: u64,
}

/// What one [`Service::tick`] did.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TickReport {
    /// Threads dispatched this quantum.
    pub dispatched: usize,
    /// Threads that finished this quantum.
    pub completed: usize,
    /// Threads that yielded to their tenant this quantum.
    pub yielded: usize,
    /// Virtual nanoseconds the quantum took (list-schedule makespan).
    pub advance: u64,
}

struct ThreadRec {
    id: u64,
    tenant: String,
    name: String,
    source: String,
    entry: String,
    args: Vec<u64>,
    results: usize,
    /// Tier the next slice runs on.
    engine: EngineId,
    /// Tier that captured the current blob (migration detection).
    blob_engine: EngineId,
    opt: bool,
    chaos: Option<u64>,
    fuel: u64,
    max_yields: u64,
    state: ThreadState,
    blob: Option<Vec<u8>>,
    /// Reply word staged by `resume`, applied at the next slice.
    reply: Option<u64>,
    /// Virtual instant the thread became runnable (queue-wait basis).
    ready_vns: u64,
    /// Virtual instant the thread was submitted (turnaround basis).
    submit_vns: u64,
    yields: Vec<u64>,
    instructions: u64,
    slices: u64,
    migrations: u64,
    /// Chaos fault-plan state at completion (fault-log inspection).
    final_chaos: Option<FaultPlanState>,
}

/// `cmm_serve_*` registry handles. Label sets are registered up front
/// so the exported key set never depends on which outcomes a
/// particular run happened to produce.
struct Meters {
    requests: BTreeMap<&'static str, Counter>,
    threads: BTreeMap<&'static str, Counter>,
    slices: BTreeMap<&'static str, Counter>,
    yields: Counter,
    migrations: Counter,
    parked: Gauge,
    parked_high_water: Gauge,
    tick_wall_ns: Histogram,
}

const REQUEST_OPS: [&str; 5] = ["submit", "resume", "tick", "poll", "set-engine"];
const OUTCOMES: [&str; 7] = [
    "halt",
    "wrong",
    "fuel",
    "rts-error",
    "compile-error",
    "snap-error",
    "panicked",
];

impl Meters {
    fn mount(reg: &MetricsRegistry, queue_wait: &Histogram, turnaround: &Histogram) -> Meters {
        let requests = REQUEST_OPS
            .iter()
            .map(|&op| {
                let c = reg.counter(
                    "cmm_serve_requests_total",
                    &[("op", op)],
                    "Service requests by operation",
                    MetricClass::Deterministic,
                );
                (op, c)
            })
            .collect();
        let threads = OUTCOMES
            .iter()
            .map(|&o| {
                let c = reg.counter(
                    "cmm_serve_threads_total",
                    &[("outcome", o)],
                    "Finished service threads by outcome class",
                    MetricClass::Deterministic,
                );
                (o, c)
            })
            .collect();
        let slices = EngineId::ALL
            .iter()
            .map(|&e| {
                let c = reg.counter(
                    "cmm_serve_slices_total",
                    &[("engine", e.name())],
                    "Scheduling slices executed, by engine tier",
                    MetricClass::Deterministic,
                );
                (e.name(), c)
            })
            .collect();
        reg.mount(
            "cmm_serve_queue_wait_vns",
            &[],
            "Virtual ns runnable threads waited for a slice",
            MetricClass::Deterministic,
            Metric::Histogram(queue_wait.clone()),
        );
        reg.mount(
            "cmm_serve_turnaround_vns",
            &[],
            "Virtual ns from submission to completion",
            MetricClass::Deterministic,
            Metric::Histogram(turnaround.clone()),
        );
        Meters {
            requests,
            threads,
            slices,
            yields: reg.counter(
                "cmm_serve_yields_total",
                &[],
                "Yield responses delivered to tenants",
                MetricClass::Deterministic,
            ),
            migrations: reg.counter(
                "cmm_serve_migrations_total",
                &[],
                "Slices resumed on a different tier than captured their blob",
                MetricClass::Deterministic,
            ),
            parked: reg.gauge(
                "cmm_serve_parked_threads",
                &[],
                "Threads currently parked as snapshot blobs",
                MetricClass::Deterministic,
            ),
            parked_high_water: reg.gauge(
                "cmm_serve_parked_threads_high_water",
                &[],
                "High-water mark of parked threads",
                MetricClass::Deterministic,
            ),
            tick_wall_ns: reg.histogram(
                "cmm_serve_tick_wall_ns",
                &[],
                "Wall-clock ns per scheduling quantum",
                MetricClass::Timing,
            ),
        }
    }

    fn request(&self, op: &str) {
        if let Some(c) = self.requests.get(op) {
            c.inc();
        }
    }
}

/// The persistent execution service. See the module docs.
pub struct Service {
    config: ServeConfig,
    cache: PipelineCache,
    threads: BTreeMap<u64, ThreadRec>,
    run_queue: VecDeque<u64>,
    next_id: u64,
    stats: ServeStats,
    events: Vec<String>,
    /// Virtual ns runnable threads waited before their slice ran.
    queue_wait: Histogram,
    /// Virtual ns from submission to completion.
    turnaround: Histogram,
    registry: Option<MetricsRegistry>,
    meters: Option<Meters>,
}

impl Service {
    /// Creates a service. With `config.metrics` a [`MetricsRegistry`]
    /// is mounted (including the compilation cache's counters) and
    /// reachable through [`registry`](Service::registry).
    pub fn new(config: ServeConfig) -> Service {
        let cache = PipelineCache::default();
        let queue_wait = Histogram::new();
        let turnaround = Histogram::new();
        let (registry, meters) = if config.metrics {
            let reg = MetricsRegistry::new();
            cache.mount_metrics(&reg);
            let meters = Meters::mount(&reg, &queue_wait, &turnaround);
            (Some(reg), Some(meters))
        } else {
            (None, None)
        };
        Service {
            config,
            cache,
            threads: BTreeMap::new(),
            run_queue: VecDeque::new(),
            next_id: 0,
            stats: ServeStats::default(),
            events: Vec::new(),
            queue_wait,
            turnaround,
            registry,
            meters,
        }
    }

    /// The mounted metrics registry, when the service was created with
    /// `metrics: true`.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_ref()
    }

    /// Deterministic aggregate figures.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Queue-wait and turnaround quantiles, each as `(p50, p90, p99)`
    /// in virtual ns.
    pub fn latency_quantiles(&self) -> ((u64, u64, u64), (u64, u64, u64)) {
        (
            self.queue_wait.snapshot().p50_p90_p99(),
            self.turnaround.snapshot().p50_p90_p99(),
        )
    }

    /// The event log so far: one line per scheduling decision and
    /// tenant-visible response, in virtual-time order. Byte-identical
    /// at every worker count.
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// The event log as one newline-terminated string.
    pub fn events_text(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(e);
            s.push('\n');
        }
        s
    }

    /// FNV-1a fold over the event log — a compact deterministic
    /// fingerprint of the whole schedule.
    pub fn event_digest(&self) -> u64 {
        let mut h = FOLD_INIT;
        for e in &self.events {
            h = fold_digest(h, e.as_bytes());
            h = fold_digest(h, b"\n");
        }
        h
    }

    /// Live (not finished) threads owned by `tenant`.
    fn live_of(&self, tenant: &str) -> usize {
        self.threads
            .values()
            .filter(|r| r.tenant == tenant && !matches!(r.state, ThreadState::Done { .. }))
            .count()
    }

    /// Accepts a submission and queues its first slice.
    ///
    /// # Errors
    ///
    /// Rejects empty sources, zero fuel, arguments wider than 32 bits,
    /// and submissions over the tenant's live-thread cap. Compile
    /// errors are *not* detected here: compilation happens (once,
    /// cached) on the worker pool and surfaces as a `compile-error`
    /// outcome.
    pub fn submit(&mut self, req: SubmitReq) -> Result<u64, String> {
        if let Some(m) = &self.meters {
            m.request("submit");
        }
        if req.source.is_empty() {
            return Err("empty source".into());
        }
        if req.fuel == 0 {
            return Err("fuel must be >= 1".into());
        }
        for &a in &req.args {
            check_word("argument", a)?;
        }
        if self.live_of(&req.tenant) >= self.config.max_live_per_tenant {
            return Err(format!(
                "tenant `{}` is at its live-thread cap ({})",
                req.tenant, self.config.max_live_per_tenant
            ));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.events.push(format!(
            "submit t{id} tenant={} name={} engine={}",
            req.tenant,
            req.name,
            req.engine.name()
        ));
        let rec = ThreadRec {
            id,
            tenant: req.tenant,
            name: req.name,
            source: req.source,
            entry: req.entry,
            args: req.args,
            results: req.results,
            engine: req.engine,
            blob_engine: req.engine,
            opt: req.opt,
            chaos: req.chaos,
            fuel: req.fuel,
            max_yields: req.max_yields,
            state: ThreadState::Runnable,
            blob: None,
            reply: None,
            ready_vns: self.stats.vclock,
            submit_vns: self.stats.vclock,
            yields: Vec::new(),
            instructions: 0,
            slices: 0,
            migrations: 0,
            final_chaos: None,
        };
        self.threads.insert(id, rec);
        self.run_queue.push_back(id);
        self.stats.submitted += 1;
        Ok(id)
    }

    /// Answers a parked thread's yield with `reply` and requeues it.
    ///
    /// # Errors
    ///
    /// The thread must exist and be awaiting its tenant, and `reply`
    /// must fit a 32-bit machine word.
    pub fn resume(&mut self, id: u64, reply: u64) -> Result<(), String> {
        if let Some(m) = &self.meters {
            m.request("resume");
        }
        check_word("reply", reply)?;
        let vclock = self.stats.vclock;
        let rec = self
            .threads
            .get_mut(&id)
            .ok_or_else(|| format!("no thread t{id}"))?;
        match rec.state {
            ThreadState::AwaitingTenant { .. } => {}
            ThreadState::Runnable => return Err(format!("t{id} is not awaiting its tenant")),
            ThreadState::Done { .. } => return Err(format!("t{id} already finished")),
        }
        rec.state = ThreadState::Runnable;
        rec.reply = Some(reply);
        rec.ready_vns = vclock;
        self.run_queue.push_back(id);
        self.stats.resumes += 1;
        self.events.push(format!("resume t{id} reply={reply}"));
        Ok(())
    }

    /// Migrates a parked thread to another tier of its family; its
    /// next slice resumes the blob there.
    ///
    /// # Errors
    ///
    /// The thread must exist, must not be finished, and `engine` must
    /// be in the same family as the thread's current blob (the
    /// structured family-mismatch diagnostic names both engines, both
    /// families, and the blob digest).
    pub fn set_engine(&mut self, id: u64, engine: EngineId) -> Result<(), String> {
        if let Some(m) = &self.meters {
            m.request("set-engine");
        }
        let rec = self
            .threads
            .get_mut(&id)
            .ok_or_else(|| format!("no thread t{id}"))?;
        if matches!(rec.state, ThreadState::Done { .. }) {
            return Err(format!("t{id} already finished"));
        }
        if let Some(blob) = &rec.blob {
            let snapshot = Snapshot::decode(blob).map_err(|e| e.to_string())?;
            snapshot.check_engine(engine)?;
        } else if engine.family() != rec.engine.family() {
            // No blob yet: check against the submitted tier so a fresh
            // thread cannot be moved across families either.
            return Err(format!(
                "cannot move t{id} from {} (family {}) to `{}` (family {}): \
                 engine families differ",
                rec.engine.name(),
                rec.engine.family().name(),
                engine.name(),
                engine.family().name(),
            ));
        }
        rec.engine = engine;
        Ok(())
    }

    /// A point-in-time view of thread `id`.
    pub fn poll(&self, id: u64) -> Option<ThreadView> {
        if let Some(m) = &self.meters {
            m.request("poll");
        }
        let rec = self.threads.get(&id)?;
        Some(ThreadView {
            id: rec.id,
            tenant: rec.tenant.clone(),
            name: rec.name.clone(),
            engine: rec.engine,
            state: rec.state.clone(),
            yields: rec.yields.clone(),
            instructions: rec.instructions,
            fuel_remaining: rec.fuel,
            slices: rec.slices,
            migrations: rec.migrations,
        })
    }

    /// Threads currently awaiting their tenant, as `(id, yield code)`
    /// in id order.
    pub fn awaiting(&self) -> Vec<(u64, u64)> {
        self.threads
            .values()
            .filter_map(|r| match r.state {
                ThreadState::AwaitingTenant { code } => Some((r.id, code)),
                _ => None,
            })
            .collect()
    }

    /// The current parked blob of thread `id`, if it is parked.
    pub fn parked_blob(&self, id: u64) -> Option<&[u8]> {
        self.threads.get(&id)?.blob.as_deref()
    }

    /// The chaos fault-plan state a finished thread ended with.
    pub fn final_chaos(&self, id: u64) -> Option<&FaultPlanState> {
        self.threads.get(&id)?.final_chaos.as_ref()
    }

    /// True when nothing is runnable *and* no tenant reply is pending
    /// — every thread is finished.
    pub fn idle(&self) -> bool {
        self.run_queue.is_empty()
            && self
                .threads
                .values()
                .all(|r| matches!(r.state, ThreadState::Done { .. }))
    }

    /// Runs one scheduling quantum: dispatch up to a window of
    /// runnable threads, execute their slices on the worker pool, park
    /// or finish each, advance the virtual clock by the slice
    /// makespan.
    pub fn tick(&mut self) -> TickReport {
        if let Some(m) = &self.meters {
            m.request("tick");
        }
        let t0 = Instant::now();
        let window = if self.config.window == 0 {
            self.config.lanes.max(1) * 4
        } else {
            self.config.window
        };
        let mut jobs: Vec<SliceJob> = Vec::new();
        while jobs.len() < window {
            let Some(id) = self.run_queue.pop_front() else {
                break;
            };
            let policy = self.config.migration;
            let rec = self.threads.get_mut(&id).expect("queued thread exists");
            let target = match policy {
                MigrationPolicy::Pinned => rec.engine,
                MigrationPolicy::Rotate => rec.engine.next_tier(),
            };
            if rec.blob.is_some() && target != rec.blob_engine {
                rec.migrations += 1;
                self.stats.migrations += 1;
                if let Some(m) = &self.meters {
                    m.migrations.inc();
                }
                self.events.push(format!(
                    "migrate t{id} {}->{}",
                    rec.blob_engine.name(),
                    target.name()
                ));
            }
            rec.engine = target;
            rec.slices += 1;
            self.stats.slices += 1;
            if let Some(m) = &self.meters {
                if let Some(c) = m.slices.get(target.name()) {
                    c.inc();
                }
            }
            self.queue_wait
                .observe(self.stats.vclock.saturating_sub(rec.ready_vns));
            jobs.push(SliceJob {
                id,
                engine: target,
                source: rec.source.clone(),
                entry: rec.entry.clone(),
                args: rec.args.clone(),
                results: rec.results,
                opt: rec.opt,
                slice_fuel: self.config.quantum.min(rec.fuel).max(1),
                thread_fuel: rec.fuel,
                reply: rec.reply.take(),
                blob: rec.blob.take(),
                chaos: rec.chaos,
                yields_done: rec.yields.len() as u64,
                max_depth: self.config.max_depth,
                max_memory_bytes: self.config.max_memory_bytes,
            });
        }
        let dispatched = jobs.len();
        let mut report = TickReport {
            dispatched,
            ..TickReport::default()
        };
        if dispatched == 0 {
            return report;
        }
        let cache = &self.cache;
        let outcomes = run_jobs(
            &PoolConfig {
                workers: self.config.workers,
                queue_cap: self.config.queue_cap,
            },
            jobs,
            |_, job| {
                let r = run_slice(cache, &job);
                (job, r)
            },
        );
        let mut costs = Vec::with_capacity(dispatched);
        let ends: Vec<(u64, SliceResult)> = outcomes
            .into_iter()
            .map(|o| match o {
                cmm_pool::JobOutcome::Done((job, r)) => {
                    costs.push(r.used);
                    (job.id, r)
                }
                cmm_pool::JobOutcome::Panicked(msg) => {
                    costs.push(1);
                    (
                        u64::MAX,
                        SliceResult {
                            end: SliceEnd::Done {
                                outcome: "panicked".into(),
                                detail: msg,
                            },
                            used: 1,
                            chaos: None,
                        },
                    )
                } // A panicked closure loses its job; the id is
                  // recovered below from the dispatch order.
            })
            .collect();
        report.advance = virtual_makespan(&costs, self.config.lanes.max(1));
        let end_vns = self.stats.vclock + report.advance;
        for (id, r) in ends {
            if id == u64::MAX {
                // The slice panicked and took its job descriptor with
                // it; without an id there is nothing to park. The
                // executor isolates the panic; the count survives in
                // the `panicked` outcome counter.
                self.count_outcome("panicked");
                continue;
            }
            let rec = self.threads.get_mut(&id).expect("dispatched thread exists");
            rec.instructions += r.used;
            rec.fuel = rec.fuel.saturating_sub(r.used);
            self.stats.instructions += r.used;
            match r.end {
                SliceEnd::Yielded { code, blob } => {
                    if rec.yields.len() as u64 >= rec.max_yields {
                        rec.state = ThreadState::Done {
                            outcome: "fuel".into(),
                        };
                        rec.final_chaos = r.chaos;
                        rec.blob = None;
                        self.events.push(format!(
                            "done t{id} outcome=fuel detail=suspension-bound vclock={end_vns}"
                        ));
                        self.finish(id, "fuel", end_vns);
                        report.completed += 1;
                        continue;
                    }
                    rec.yields.push(code);
                    rec.blob = Some(blob);
                    rec.blob_engine = rec.engine;
                    rec.state = ThreadState::AwaitingTenant { code };
                    self.stats.yields += 1;
                    if let Some(m) = &self.meters {
                        m.yields.inc();
                    }
                    self.events.push(format!("yield t{id} code={code}"));
                    report.yielded += 1;
                }
                SliceEnd::Parked { blob } => {
                    if rec.fuel == 0 {
                        rec.state = ThreadState::Done {
                            outcome: "fuel".into(),
                        };
                        rec.final_chaos = r.chaos;
                        rec.blob = None;
                        self.events
                            .push(format!("done t{id} outcome=fuel vclock={end_vns}"));
                        self.finish(id, "fuel", end_vns);
                        report.completed += 1;
                    } else {
                        rec.blob = Some(blob);
                        rec.blob_engine = rec.engine;
                        rec.state = ThreadState::Runnable;
                        rec.ready_vns = end_vns;
                        self.run_queue.push_back(id);
                    }
                }
                SliceEnd::Done { outcome, detail } => {
                    let class = outcome_class(&outcome);
                    rec.final_chaos = r.chaos;
                    rec.blob = None;
                    rec.state = ThreadState::Done {
                        outcome: outcome.clone(),
                    };
                    let detail = if detail.is_empty() {
                        String::new()
                    } else {
                        format!(" detail={}", detail.replace([' ', '\n'], "-"))
                    };
                    self.events.push(format!(
                        "done t{id} outcome={outcome}{detail} vclock={end_vns}"
                    ));
                    self.finish(id, class, end_vns);
                    report.completed += 1;
                }
            }
        }
        self.stats.vclock = end_vns;
        self.stats.quanta += 1;
        let parked = self.threads.values().filter(|r| r.blob.is_some()).count() as u64;
        self.stats.parked = parked;
        self.stats.parked_high_water = self.stats.parked_high_water.max(parked);
        if let Some(m) = &self.meters {
            m.parked.set(parked);
            m.parked_high_water.set_max(parked);
            m.tick_wall_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        self.events.push(format!(
            "tick {} dispatched={dispatched} advance={} vclock={}",
            self.stats.quanta, report.advance, self.stats.vclock
        ));
        report
    }

    /// Completion bookkeeping shared by every terminal transition.
    fn finish(&mut self, id: u64, class: &str, end_vns: u64) {
        let rec = self.threads.get(&id).expect("finished thread exists");
        self.turnaround
            .observe(end_vns.saturating_sub(rec.submit_vns));
        self.stats.completed += 1;
        self.count_outcome(class);
    }

    fn count_outcome(&mut self, class: &str) {
        if let Some(m) = &self.meters {
            if let Some(c) = m.threads.get(class) {
                c.inc();
            }
        }
    }
}

/// Outcome class for the `cmm_serve_threads_total` labels.
fn outcome_class(outcome: &str) -> &'static str {
    if outcome.starts_with("halt") {
        return "halt";
    }
    for o in OUTCOMES {
        if o == outcome {
            return o;
        }
    }
    "rts-error"
}

/// Everything one slice needs, detached from the scheduler so slices
/// can run on pool workers.
struct SliceJob {
    id: u64,
    engine: EngineId,
    source: String,
    entry: String,
    args: Vec<u64>,
    results: usize,
    opt: bool,
    slice_fuel: u64,
    thread_fuel: u64,
    reply: Option<u64>,
    blob: Option<Vec<u8>>,
    chaos: Option<u64>,
    yields_done: u64,
    max_depth: Option<usize>,
    max_memory_bytes: Option<usize>,
}

enum SliceEnd {
    /// The thread hit a `yield`: parked at the suspension, code for
    /// the tenant.
    Yielded { code: u64, blob: Vec<u8> },
    /// The quantum expired mid-run: parked, straight back on the
    /// queue.
    Parked { blob: Vec<u8> },
    /// The thread is finished (any outcome, success or failure).
    Done { outcome: String, detail: String },
}

struct SliceResult {
    end: SliceEnd,
    /// Virtual instructions this slice consumed.
    used: u64,
    /// Fault-plan state at a terminal end (`Done`), for fault-log
    /// inspection; parked threads carry theirs inside the blob.
    chaos: Option<FaultPlanState>,
}

impl SliceJob {
    fn governor(&self) -> ResourceGovernor {
        ResourceGovernor {
            fuel_slice: Some(self.slice_fuel),
            max_depth: self.max_depth,
            max_memory_bytes: self.max_memory_bytes,
            ..ResourceGovernor::unlimited()
        }
    }

    fn key(&self) -> SourceKey {
        SourceKey {
            source: self.source.clone(),
            lang: SourceLang::Cmm,
            opts: self.opts(),
            family: self.engine.family(),
        }
    }

    fn opts(&self) -> OptOptions {
        if self.opt {
            OptOptions::default()
        } else {
            OptOptions::none()
        }
    }

    /// Parks thread `t` as a blob, `used` units into the slice.
    fn park(&self, t: &dyn Table1, used: u64) -> Result<Vec<u8>, String> {
        let meta = SnapMeta {
            entry: self.entry.clone(),
            args: self.args.clone(),
            fuel_remaining: self.thread_fuel.saturating_sub(used),
            yields_done: self.yields_done,
            opt: self.opt,
        };
        let digest = source_digest(&self.source, self.opt);
        Ok(Snapshot::capture(t, digest, meta, Some(self.governor()))?.encode())
    }
}

fn done(outcome: &str, detail: impl Into<String>, used: u64) -> SliceResult {
    SliceResult {
        end: SliceEnd::Done {
            outcome: outcome.into(),
            detail: detail.into(),
        },
        used,
        chaos: None,
    }
}

/// Runs one slice: build the engine `job.engine` names (compilations
/// shared through `cache`), restore the blob or start fresh, service a
/// pending tenant reply with the dispatcher, run up to the slice fuel,
/// and park or finish. Pure function of its inputs — the determinism
/// contract rests on this.
fn run_slice(cache: &PipelineCache, job: &SliceJob) -> SliceResult {
    let cached = match cache.engine_code(&job.key(), job.engine) {
        Ok(c) => c,
        Err(e) => return done("compile-error", e, 1),
    };
    let setup = Setup {
        governor: Some(job.governor()),
        ..Setup::default()
    };
    with_engine(job.engine, &cached.code(), NopSink, setup, |t| {
        slice(t, job)
    })
    .unwrap_or_else(|e| done("compile-error", e, 1))
}

fn slice(t: &mut dyn Table1, job: &SliceJob) -> SliceResult {
    // Restore the blob or start fresh.
    let mut at_yield = false;
    match &job.blob {
        Some(blob) => {
            let snapshot = match Snapshot::decode(blob) {
                Ok(s) => s,
                Err(e) => return done("snap-error", e.to_string(), 1),
            };
            if let Err(e) = snapshot.check_engine(job.engine) {
                return done("snap-error", e, 1);
            }
            at_yield = snapshot.state.at_yield();
            if let Err(e) = snapshot.restore_into(t) {
                return done("snap-error", e, 1);
            }
        }
        None => {
            if let Some(seed) = job.chaos {
                t.set_chaos(FaultPlan::seeded(seed, CHAOS_HORIZON));
            }
            if let Err(w) = t.start(&job.entry, &job.args, job.results) {
                return done("wrong", w, 1);
            }
        }
    }
    let before = t.fuel_spent();
    let used = |t: &dyn Table1| t.fuel_spent().saturating_sub(before).max(1);
    // A blob parked at a yield resumes through the dispatcher with the
    // tenant's staged reply.
    if at_yield {
        let Some(reply) = job.reply else {
            return done("rts-error", "parked at a yield without a pending reply", 1);
        };
        if let Err(e) = service_yield(t, t.yield_arg(0), reply) {
            return done("rts-error", e, used(t));
        }
    }
    let stop = t.run(job.slice_fuel);
    let u = used(t);
    let finish = |outcome: String, detail: String| SliceResult {
        end: SliceEnd::Done { outcome, detail },
        used: u,
        chaos: t.chaos().map(|p| p.state()),
    };
    match stop {
        Stop::Halted(words) => finish(format!("halt {words:?}"), String::new()),
        Stop::Wrong(e) => finish("wrong".into(), e),
        Stop::Other(s) => finish("rts-error".into(), format!("unexpected status {s}")),
        Stop::OutOfFuel | Stop::Suspended => {
            let code = t.yield_arg(0);
            let blob = match job.park(t, u) {
                Ok(blob) => blob,
                Err(e) => return done("snap-error", e, u),
            };
            let end = if stop == Stop::Suspended {
                SliceEnd::Yielded { code, blob }
            } else {
                SliceEnd::Parked { blob }
            };
            SliceResult {
                end,
                used: u,
                chaos: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP: &str = "f(bits32 n, bits32 a) {\n\
         bits32 s;\n\
         s = a;\n\
       loop:\n\
         if n == 0 { return (s); } else { s = s + n; n = n - 1; goto loop; }\n\
       }";

    fn submit_loop(svc: &mut Service, tenant: &str, engine: EngineId) -> u64 {
        svc.submit(SubmitReq {
            tenant: tenant.into(),
            name: "loop".into(),
            source: LOOP.into(),
            args: vec![50, 0],
            engine,
            ..SubmitReq::default()
        })
        .expect("submit accepted")
    }

    #[test]
    fn a_fresh_thread_runs_to_halt_across_quanta() {
        for engine in EngineId::ALL {
            let mut svc = Service::new(ServeConfig {
                quantum: 40,
                ..ServeConfig::default()
            });
            let id = submit_loop(&mut svc, "a", engine);
            let mut guard = 0;
            while !svc.idle() {
                svc.tick();
                guard += 1;
                assert!(guard < 200, "{} never finished", engine.name());
            }
            let v = svc.poll(id).unwrap();
            // Quantum boundaries parked and resumed the thread at
            // least once on the way (the default args run longer than
            // 40 fuel), and the sum is right.
            assert!(v.slices > 1, "{}: {:?}", engine.name(), v);
            assert_eq!(
                v.state,
                ThreadState::Done {
                    outcome: "halt [1275]".into()
                },
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn tenant_live_thread_cap_rejects_excess_submissions() {
        let mut svc = Service::new(ServeConfig {
            max_live_per_tenant: 2,
            ..ServeConfig::default()
        });
        submit_loop(&mut svc, "a", EngineId::Vm);
        submit_loop(&mut svc, "a", EngineId::Vm);
        let err = svc
            .submit(SubmitReq {
                tenant: "a".into(),
                source: LOOP.into(),
                ..SubmitReq::default()
            })
            .unwrap_err();
        assert!(err.contains("live-thread cap"), "{err}");
        // Another tenant is unaffected; a finished thread frees a slot.
        submit_loop(&mut svc, "b", EngineId::Vm);
        while !svc.idle() {
            svc.tick();
        }
        submit_loop(&mut svc, "a", EngineId::Vm);
    }

    #[test]
    fn resume_is_only_legal_while_awaiting() {
        let mut svc = Service::new(ServeConfig::default());
        let id = submit_loop(&mut svc, "a", EngineId::Vm);
        assert!(svc.resume(id, 0).is_err(), "runnable thread resumed");
        assert!(svc.resume(id + 1, 0).is_err(), "missing thread resumed");
        while !svc.idle() {
            svc.tick();
        }
        assert!(svc.resume(id, 0).is_err(), "finished thread resumed");
    }
}
