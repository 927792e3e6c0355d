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
//! costs over [`LANES`] fixed lanes. Everything observable — the event
//! log, outcomes, queue-wait and turnaround histograms, every
//! `Deterministic`-class metric — is therefore byte-identical at any
//! worker count; wall-clock time appears only in `Timing`-class
//! metrics.

use cmm_chaos::{service_yield, Family, FaultPlan, FaultPlanState, ResourceGovernor, Stop, Table1};
use cmm_obs::{Counter, Gauge, Histogram, Metric, MetricClass, MetricsRegistry, NopSink};
use cmm_pool::{
    helper_count, virtual_makespan, with_engine, Arenas, Crew, JobOutcome, PipelineCache, Setup,
    SourceId, SourceKey,
};
use cmm_snap::{fold_digest, EngineId, SnapMeta, Snapshot, FOLD_INIT};
use cmm_vm::check_arity;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

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

/// Virtual execution lanes the deterministic clock schedules over.
/// This — not [`ServeConfig::workers`] — is what a tick's makespan
/// advance uses, so the event log and every latency figure are
/// byte-identical at any `-j`.
pub const LANES: usize = 8;

/// Most threads one tick dispatches.
pub const WINDOW: usize = 4 * LANES;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing slices, the calling thread included;
    /// `0`/`1` run inline, and no more than a tick's [`WINDOW`] are
    /// started (see [`helper_count`]). Workers change wall-clock time
    /// and **nothing else**: the virtual schedule is computed over
    /// [`LANES`].
    pub workers: usize,
    /// Fuel granted per scheduling slice.
    pub quantum: u64,
    /// Per-tenant cap on live (not yet finished) threads; submissions
    /// over the cap are rejected.
    pub max_live_per_tenant: usize,
    /// Tier selection for parked threads.
    pub migration: MigrationPolicy,
    /// Mount the `cmm_serve_*` metrics in a registry.
    pub metrics: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            quantum: 2_000,
            max_live_per_tenant: 4_096,
            migration: MigrationPolicy::Pinned,
            metrics: false,
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

/// A program's identity — its compilation key and the digest that
/// both the cache and its threads' blobs carry — hashed once per
/// distinct program (source text, optimization, engine family) and
/// shared by every thread that runs it. A thread's family is fixed:
/// [`Service::set_engine`] refuses moves across families.
struct ProgramId {
    source: SourceId,
    opt: bool,
}

/// What a thread runs, fixed at submit and shared by every slice
/// through one `Arc`: dispatching a slice copies and hashes nothing.
struct Identity {
    program: Arc<ProgramId>,
    entry: String,
    args: Vec<u64>,
    results: usize,
    chaos: Option<u64>,
}

struct ThreadRec {
    tenant: String,
    name: String,
    ident: Arc<Identity>,
    /// Tier the next slice runs on.
    engine: EngineId,
    /// Tier that captured the current blob (migration detection).
    blob_engine: EngineId,
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
    /// Helpers that run slices beside the ticking thread, each on its
    /// own arenas for its whole life; the crew's slice function owns
    /// the compilation cache.
    crew: Crew<Arenas, SliceJob, SliceResult>,
    /// The ticking thread's arenas (capacity, never state).
    arenas: Arenas,
    /// Every thread ever submitted, indexed by id.
    threads: Vec<ThreadRec>,
    run_queue: VecDeque<u64>,
    /// Unfinished threads per tenant (the live-thread cap's count).
    live: HashMap<String, usize>,
    /// Program identities by source text, one per optimization and
    /// family the source was submitted with.
    programs: HashMap<String, Vec<Arc<ProgramId>>>,
    /// Threads awaiting their tenant: id → yield code.
    awaiting: BTreeMap<u64, u64>,
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
    /// reachable through [`registry`](Service::registry). With more
    /// than one worker, the helper threads start here and are joined
    /// when the service is dropped.
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
        let crew = Crew::new(
            helper_count(config.workers, WINDOW),
            |_| Arenas::default(),
            move |arenas, _, job: SliceJob| run_slice(&cache, &job, arenas),
        );
        Service {
            config,
            crew,
            arenas: Arenas::default(),
            threads: Vec::new(),
            run_queue: VecDeque::new(),
            live: HashMap::new(),
            programs: HashMap::new(),
            awaiting: BTreeMap::new(),
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

    fn rec(&self, id: u64) -> Option<&ThreadRec> {
        self.threads.get(usize::try_from(id).ok()?)
    }

    fn rec_mut(&mut self, id: u64) -> Option<&mut ThreadRec> {
        self.threads.get_mut(usize::try_from(id).ok()?)
    }

    /// Accepts a submission and queues its first slice.
    ///
    /// # Errors
    ///
    /// Rejects empty sources, zero fuel, more arguments or results
    /// than the calling convention carries, arguments wider than 32
    /// bits, and submissions over the tenant's live-thread cap.
    /// Compile errors are *not* detected here: compilation happens
    /// (once, cached) on the worker pool and surfaces as a
    /// `compile-error` outcome.
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
        check_arity(req.args.len(), req.results)?;
        for &a in &req.args {
            check_word("argument", a)?;
        }
        let live = self.live.get(&req.tenant).copied().unwrap_or(0);
        if live >= self.config.max_live_per_tenant {
            return Err(format!(
                "tenant `{}` is at its live-thread cap ({})",
                req.tenant, self.config.max_live_per_tenant
            ));
        }
        let id = self.threads.len() as u64;
        self.events.push(format!(
            "submit t{id} tenant={} name={} engine={}",
            req.tenant,
            req.name,
            req.engine.name()
        ));
        match self.live.get_mut(&req.tenant) {
            Some(n) => *n += 1,
            None => {
                self.live.insert(req.tenant.clone(), 1);
            }
        }
        let program = self.program_id(req.source, req.opt, req.engine.family());
        self.threads.push(ThreadRec {
            tenant: req.tenant,
            name: req.name,
            ident: Arc::new(Identity {
                program,
                entry: req.entry,
                args: req.args,
                results: req.results,
                chaos: req.chaos,
            }),
            engine: req.engine,
            blob_engine: req.engine,
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
        });
        self.run_queue.push_back(id);
        self.stats.submitted += 1;
        Ok(id)
    }

    /// The identity of `source` built with `opt` for `family`: looked
    /// up by the source text, and hashed only the first time the
    /// program is submitted.
    fn program_id(&mut self, source: String, opt: bool, family: Family) -> Arc<ProgramId> {
        let known = self.programs.get(&source).and_then(|ps| {
            ps.iter()
                .find(|p| p.opt == opt && p.source.key().family == family)
        });
        if let Some(p) = known {
            return Arc::clone(p);
        }
        let p = Arc::new(ProgramId {
            source: SourceId::new(SourceKey::cmm(&source, opt, family)),
            opt,
        });
        self.programs
            .entry(source)
            .or_default()
            .push(Arc::clone(&p));
        p
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
        let rec = self.rec_mut(id).ok_or_else(|| format!("no thread t{id}"))?;
        match rec.state {
            ThreadState::AwaitingTenant { .. } => {}
            ThreadState::Runnable => return Err(format!("t{id} is not awaiting its tenant")),
            ThreadState::Done { .. } => return Err(format!("t{id} already finished")),
        }
        rec.state = ThreadState::Runnable;
        rec.reply = Some(reply);
        rec.ready_vns = vclock;
        self.awaiting.remove(&id);
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
        let rec = self.rec_mut(id).ok_or_else(|| format!("no thread t{id}"))?;
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
        let rec = self.rec(id)?;
        Some(ThreadView {
            id,
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
        self.awaiting
            .iter()
            .map(|(&id, &code)| (id, code))
            .collect()
    }

    /// The current parked blob of thread `id`, if it is parked.
    pub fn parked_blob(&self, id: u64) -> Option<&[u8]> {
        self.rec(id)?.blob.as_deref()
    }

    /// The chaos fault-plan state a finished thread ended with.
    pub fn final_chaos(&self, id: u64) -> Option<&FaultPlanState> {
        self.rec(id)?.final_chaos.as_ref()
    }

    /// True when nothing is runnable *and* no tenant reply is pending
    /// — every thread is finished.
    pub fn idle(&self) -> bool {
        self.stats.completed == self.stats.submitted
    }

    /// Runs one scheduling quantum: dispatch up to a window of
    /// runnable threads, execute their slices on this thread and the
    /// crew's helpers, park or finish each, advance the virtual clock
    /// by the slice makespan.
    pub fn tick(&mut self) -> TickReport {
        if let Some(m) = &self.meters {
            m.request("tick");
        }
        let t0 = Instant::now();
        let jobs = self.dispatch();
        if jobs.is_empty() {
            return TickReport::default();
        }
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        let outcomes = self.crew.run(&mut self.arenas, jobs);
        let report = self.fold(&ids, outcomes);
        if let Some(m) = &self.meters {
            m.tick_wall_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        report
    }

    /// Takes up to a window of threads off the run queue and detaches
    /// their slices, logging each migration.
    fn dispatch(&mut self) -> Vec<SliceJob> {
        let mut jobs: Vec<SliceJob> = Vec::new();
        while jobs.len() < WINDOW {
            let Some(id) = self.run_queue.pop_front() else {
                break;
            };
            let rec = &mut self.threads[id as usize];
            let target = match self.config.migration {
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
            let blob = rec.blob.take();
            if blob.is_some() {
                self.stats.parked -= 1;
            }
            jobs.push(SliceJob {
                id,
                engine: target,
                ident: Arc::clone(&rec.ident),
                slice_fuel: self.config.quantum.min(rec.fuel).max(1),
                thread_fuel: rec.fuel,
                reply: rec.reply.take(),
                blob,
                yields_done: rec.yields.len() as u64,
            });
        }
        jobs
    }

    /// Folds a tick's slice outcomes back into the scheduler, in
    /// dispatch order: `ids[i]` is the thread whose slice produced
    /// `outcomes[i]` (the pool returns outcomes in submission order).
    /// A slice that panicked ends its thread as `panicked`.
    fn fold(&mut self, ids: &[u64], outcomes: Vec<JobOutcome<SliceResult>>) -> TickReport {
        let results: Vec<SliceResult> = outcomes
            .into_iter()
            .map(|o| match o {
                JobOutcome::Done(r) => r,
                JobOutcome::Panicked(msg) => done("panicked", msg, 1),
            })
            .collect();
        let costs: Vec<u64> = results.iter().map(|r| r.used).collect();
        let mut report = TickReport {
            dispatched: ids.len(),
            advance: virtual_makespan(&costs, LANES),
            ..TickReport::default()
        };
        let end_vns = self.stats.vclock + report.advance;
        for (&id, r) in ids.iter().zip(results) {
            let rec = &mut self.threads[id as usize];
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
                    self.stats.parked += 1;
                    self.awaiting.insert(id, code);
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
                        self.events
                            .push(format!("done t{id} outcome=fuel vclock={end_vns}"));
                        self.finish(id, "fuel", end_vns);
                        report.completed += 1;
                    } else {
                        rec.blob = Some(blob);
                        rec.blob_engine = rec.engine;
                        rec.state = ThreadState::Runnable;
                        rec.ready_vns = end_vns;
                        self.stats.parked += 1;
                        self.run_queue.push_back(id);
                    }
                }
                SliceEnd::Done { outcome, detail } => {
                    let class = outcome_class(&outcome);
                    rec.final_chaos = r.chaos;
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
        let parked = self.stats.parked;
        self.stats.parked_high_water = self.stats.parked_high_water.max(parked);
        if let Some(m) = &self.meters {
            m.parked.set(parked);
            m.parked_high_water.set_max(parked);
        }
        self.events.push(format!(
            "tick {} dispatched={} advance={} vclock={}",
            self.stats.quanta, report.dispatched, report.advance, self.stats.vclock
        ));
        report
    }

    /// Completion bookkeeping shared by every terminal transition.
    fn finish(&mut self, id: u64, class: &str, end_vns: u64) {
        let rec = &self.threads[id as usize];
        self.turnaround
            .observe(end_vns.saturating_sub(rec.submit_vns));
        self.stats.completed += 1;
        if let Some(n) = self.live.get_mut(&rec.tenant) {
            *n -= 1;
        }
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
/// can run on the crew's helpers.
struct SliceJob {
    id: u64,
    engine: EngineId,
    ident: Arc<Identity>,
    slice_fuel: u64,
    thread_fuel: u64,
    reply: Option<u64>,
    blob: Option<Vec<u8>>,
    yields_done: u64,
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
        }
    }

    /// Parks thread `t` as a blob, `used` units into the slice.
    fn park(&self, t: &dyn Table1, used: u64) -> Result<Vec<u8>, String> {
        let ident = &self.ident;
        let meta = SnapMeta {
            entry: ident.entry.clone(),
            args: ident.args.clone(),
            fuel_remaining: self.thread_fuel.saturating_sub(used),
            yields_done: self.yields_done,
            opt: ident.program.opt,
        };
        let digest = ident.program.source.digest();
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
/// shared through `cache`, machines drawn from `arenas`), restore the
/// blob or start fresh, service a pending tenant reply with the
/// dispatcher, run up to the slice fuel, and park or finish. Pure
/// function of its inputs — the determinism contract rests on this.
fn run_slice(cache: &PipelineCache, job: &SliceJob, arenas: &mut Arenas) -> SliceResult {
    let cached = match cache.engine_code(&job.ident.program.source, job.engine) {
        Ok(c) => c,
        Err(e) => return done("compile-error", e, 1),
    };
    let setup = Setup {
        governor: job.governor(),
        arenas: Some(arenas),
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
            let ident = &job.ident;
            if let Some(seed) = ident.chaos {
                t.set_chaos(FaultPlan::seeded(seed));
            }
            if let Err(w) = t.start(&ident.entry, &ident.args, ident.results) {
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
        // Both of `a`'s threads finished, so both slots are free again,
        // and the cap still holds once they are refilled.
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
    }

    #[test]
    fn oversized_arities_are_refused_at_submit() {
        let mut svc = Service::new(ServeConfig::default());
        for engine in EngineId::ALL {
            for (args, results) in [(9, 1), (0, 9), (0, 1 << 40)] {
                let err = svc
                    .submit(SubmitReq {
                        source: LOOP.into(),
                        args: vec![1; args],
                        results,
                        engine,
                        ..SubmitReq::default()
                    })
                    .unwrap_err();
                assert!(err.contains("value registers"), "{err}");
            }
        }
        assert_eq!(svc.stats().submitted, 0);
        assert!(svc.idle());
    }

    /// A slice that panics ends its thread: the outcome is paired with
    /// the dispatched id, the thread is `Done` as `panicked`, its
    /// tenant's slot frees and the service goes idle.
    #[test]
    fn a_panicked_slice_finishes_its_thread() {
        let mut svc = Service::new(ServeConfig {
            max_live_per_tenant: 1,
            metrics: true,
            quantum: 40,
            ..ServeConfig::default()
        });
        // A real slice runs beside the panicking one, so the outcomes
        // must be paired with the right ids.
        let other = submit_loop(&mut svc, "a", EngineId::Vm);
        let id = submit_loop(&mut svc, "b", EngineId::VmFused);
        let jobs = svc.dispatch();
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![other, id]);
        let ok = run_slice(&PipelineCache::default(), &jobs[0], &mut Arenas::default());
        let outcomes = vec![
            JobOutcome::Done(ok),
            JobOutcome::Panicked("slice exploded".into()),
        ];
        let report = svc.fold(&ids, outcomes);
        assert_eq!((report.dispatched, report.completed), (2, 1));
        assert_eq!(
            svc.poll(id).unwrap().state,
            ThreadState::Done {
                outcome: "panicked".into()
            }
        );
        assert_eq!(svc.poll(other).unwrap().state, ThreadState::Runnable);
        let done = format!("done t{id} outcome=panicked detail=slice-exploded vclock=");
        assert!(
            svc.events().iter().any(|e| e.starts_with(&done)),
            "{:?}",
            svc.events()
        );
        let panicked = svc.registry().unwrap().counter(
            "cmm_serve_threads_total",
            &[("outcome", "panicked")],
            "",
            MetricClass::Deterministic,
        );
        assert_eq!(panicked.get(), 1);
        // `b`'s slot is free again; `a`'s is still taken.
        submit_loop(&mut svc, "b", EngineId::Vm);
        let err = svc
            .submit(SubmitReq {
                tenant: "a".into(),
                source: LOOP.into(),
                ..SubmitReq::default()
            })
            .unwrap_err();
        assert!(err.contains("live-thread cap"), "{err}");
        // The live threads finish and the service goes idle.
        for _ in 0..200 {
            if svc.idle() {
                break;
            }
            svc.tick();
        }
        assert!(svc.idle());
        assert_eq!(svc.stats().completed, 3);
    }

    /// The scheduler's counters — parked blobs, the awaiting index,
    /// per-tenant live counts, `idle` — agree with a scan of every
    /// thread after every scheduling step, under both migration
    /// policies, inline and on two workers, chaos threads included.
    #[test]
    fn scheduler_counters_agree_with_a_scan() {
        use crate::loadgen::{load_config, small_profile, submit_load};
        fn check(svc: &Service, n: u64) {
            let views: Vec<ThreadView> = (0..n).map(|id| svc.poll(id).unwrap()).collect();
            let parked = (0..n).filter(|&id| svc.parked_blob(id).is_some()).count();
            assert_eq!(svc.stats().parked, parked as u64, "parked");
            let awaiting: Vec<(u64, u64)> = views
                .iter()
                .filter_map(|v| match v.state {
                    ThreadState::AwaitingTenant { code } => Some((v.id, code)),
                    _ => None,
                })
                .collect();
            assert_eq!(svc.awaiting(), awaiting, "awaiting");
            let done = |v: &ThreadView| matches!(v.state, ThreadState::Done { .. });
            assert_eq!(svc.idle(), views.iter().all(done), "idle");
            for (tenant, &live) in &svc.live {
                let scan = views.iter().filter(|v| &v.tenant == tenant && !done(v));
                assert_eq!(live, scan.count(), "live threads of {tenant}");
            }
        }
        for migration in [MigrationPolicy::Rotate, MigrationPolicy::Pinned] {
            for workers in [1, 2] {
                let mut svc = Service::new(ServeConfig {
                    migration,
                    ..load_config(workers)
                });
                let n = submit_load(&mut svc, &small_profile());
                check(&svc, n);
                let mut ticks = 0;
                loop {
                    let report = svc.tick();
                    check(&svc, n);
                    ticks += 1;
                    assert!(ticks < 10_000, "{migration:?} -j{workers} never drained");
                    if report.dispatched > 0 {
                        continue;
                    }
                    let awaiting = svc.awaiting();
                    if awaiting.is_empty() {
                        break;
                    }
                    for (id, code) in awaiting {
                        svc.resume(id, u64::from(dispatcher_fill(code))).unwrap();
                        check(&svc, n);
                    }
                }
                assert!(svc.idle(), "{migration:?} -j{workers}");
                assert!(svc.stats().parked_high_water > 0);
            }
        }
    }

    /// The crew holds one helper fewer than the workers asked for, and
    /// never more than a tick's window can use.
    #[test]
    fn the_crew_is_bounded_by_the_window() {
        for (workers, helpers) in [(0, 0), (1, 0), (2, 1), (1 << 20, 31)] {
            let svc = Service::new(ServeConfig {
                workers,
                ..ServeConfig::default()
            });
            assert_eq!(svc.crew.helpers(), helpers, "-j{workers}");
        }
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
