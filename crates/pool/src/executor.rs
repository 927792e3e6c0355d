//! A caller-runs work queue over `std::thread`, with two lifetimes.
//!
//! The core is one mutex-guarded FIFO that the calling thread drains
//! together with its helper threads, [`helper_count`] of them: one
//! fewer than the workers asked for, no more than the jobs can use,
//! and never more than [`MAX_WORKERS`]` − 1`. The caller runs jobs
//! instead of waiting for them; it sleeps only once the queue is empty
//! while helpers still hold jobs, and the last of them wakes it. A
//! worker hands each outcome back under the lock it takes its next job
//! with. A helper that cannot be spawned is simply not there: the
//! caller still runs every job, so a short pool is slower, never wrong.
//!
//! Both lifetimes queue a whole batch at once, through one submit
//! path, and the queue has no bound: the items are already in memory.
//!
//! * [`run_jobs`], [`run_jobs_ctx`] and [`run_jobs_metered`] use the
//!   queue for one call, over scoped helpers that may borrow the
//!   caller's data.
//! * A [`Crew`] keeps its helpers for its whole life: they sleep on a
//!   condvar between [`Crew::run`]s and are joined when the crew is
//!   dropped, so a long-lived caller hands each batch to threads that
//!   are already running.
//!
//! Each job runs under [`std::panic::catch_unwind`], so one panicking
//! job reports [`JobOutcome::Panicked`] without taking the pool (or
//! sibling jobs) down. Results are merged **by submission index**,
//! which is the root of the service's determinism guarantee: whatever
//! order workers finish in, `run_jobs` returns `out[i] = f(i, items[i])`
//! — byte-identical at `-j1` and `-jN` provided `f` is a function of
//! its arguments (the batch layer keeps wall-clock timing out of `f`).
//!
//! Every worker owns one long-lived **context** (the batch layer and
//! the serve scheduler pass execution arenas): built by `init(id)` —
//! the caller is worker `0`, helpers are `1..` — threaded through
//! every job that worker runs, and, because a panicking job may
//! abandon its context in an arbitrary intermediate state, discarded
//! and rebuilt fresh after any panic. Contexts must therefore never
//! carry state that later jobs *observe*; they are for reusing
//! allocations, not for sharing results. `init` itself must not panic.

use cmm_obs::{Counter, Histogram, Metric, MetricClass, MetricsRegistry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Builder, JoinHandle};
use std::time::Instant;

/// The most workers, the calling thread included, that one pool
/// runs: the largest `-j` any test or CI step passes. A fixed bound
/// rather than the host's core count keeps a `-j8` concurrency test at
/// eight threads on a small host.
pub const MAX_WORKERS: usize = 64;

/// Helper threads a pool starts beside the calling thread for `jobs`
/// jobs at `workers` workers: `min(workers, jobs, MAX_WORKERS) − 1`.
/// `0` and `1` workers both run inline.
pub fn helper_count(workers: usize, jobs: usize) -> usize {
    workers.min(jobs).min(MAX_WORKERS).saturating_sub(1)
}

/// Deterministic list schedule: jobs are placed in submission order on
/// the least-loaded of `workers` lanes (lowest index on ties) and the
/// makespan is the heaviest lane. This mirrors what the executor's
/// greedy work distribution converges to, and it is a pure function of
/// the cost list — no threads, no clocks. The benchmark trajectory's
/// virtual throughput rows and the serve scheduler's virtual clock are
/// both built on it.
pub fn virtual_makespan(costs: &[u64], workers: usize) -> u64 {
    let workers = workers.max(1);
    let mut lanes = vec![0u64; workers];
    for &cost in costs {
        let lightest = (0..workers)
            .min_by_key(|&i| lanes[i])
            .expect("at least one lane");
        lanes[lightest] += cost.max(1);
    }
    lanes.into_iter().max().unwrap_or(0).max(1)
}

/// How one job ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobOutcome<R> {
    /// The job returned a value.
    Done(R),
    /// The job panicked; the payload's display text.
    Panicked(String),
}

impl<R> JobOutcome<R> {
    /// The value, if the job completed.
    pub fn ok(self) -> Option<R> {
        match self {
            JobOutcome::Done(r) => Some(r),
            JobOutcome::Panicked(_) => None,
        }
    }
}

/// What one pool run did, mechanically.
#[derive(Clone, Copy, Default, Debug)]
pub struct PoolStats {
    /// Worker contexts discarded and rebuilt after a panicking job.
    pub ctx_rebuilds: u64,
}

/// The pool's counting substrate: every scheduling figure the executor
/// tracks, as registry handles. A caller that wants the figures in a
/// [`MetricsRegistry`] passes a mounted meter to [`run_jobs_metered`];
/// everyone else gets a throwaway meter and reads the final values
/// through [`PoolStats`] — one substrate, two views.
#[derive(Clone, Debug, Default)]
pub struct PoolMeter {
    /// Worker contexts discarded and rebuilt after a panicking job.
    pub ctx_rebuilds: Counter,
    /// Nanoseconds each job sat queued before a worker picked it up.
    pub queue_wait_ns: Histogram,
    /// Wall-clock nanoseconds each job spent executing.
    pub job_wall_ns: Histogram,
}

impl PoolMeter {
    /// A zeroed meter.
    pub fn new() -> PoolMeter {
        PoolMeter::default()
    }

    /// A [`PoolStats`] snapshot of the current values.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            ctx_rebuilds: self.ctx_rebuilds.get(),
        }
    }

    /// Mounts the meter's cells into `registry` as live views
    /// (`cmm_pool_*{phase="…"}`). Everything here is a scheduling
    /// artifact except `ctx_rebuilds`, which equals the number of
    /// panicking jobs — a function of the job set, not the schedule.
    pub fn mount(&self, registry: &MetricsRegistry, phase: &str) {
        let labels: [(&str, &str); 1] = [("phase", phase)];
        registry.mount(
            "cmm_pool_ctx_rebuilds_total",
            &labels,
            "Worker contexts rebuilt after a panicking job",
            MetricClass::Deterministic,
            Metric::Counter(self.ctx_rebuilds.clone()),
        );
        registry.mount(
            "cmm_pool_queue_wait_ns",
            &labels,
            "Nanoseconds jobs sat queued before pickup",
            MetricClass::Timing,
            Metric::Histogram(self.queue_wait_ns.clone()),
        );
        registry.mount(
            "cmm_pool_job_wall_ns",
            &labels,
            "Wall-clock nanoseconds jobs spent executing",
            MetricClass::Timing,
            Metric::Histogram(self.job_wall_ns.clone()),
        );
    }
}

/// A queued job: submission index, enqueue instant, item.
type Pending<T> = (usize, Instant, T);

/// The work queue the calling thread and its helpers drain together.
struct Queue<T, R> {
    state: Mutex<State<T, R>>,
    /// Signalled when jobs arrive or the queue closes; helpers sleep
    /// on it.
    work: Condvar,
    /// Signalled when the last busy helper finishes with the queue
    /// empty; the caller sleeps on it.
    dry: Condvar,
    meter: PoolMeter,
}

struct State<T, R> {
    jobs: VecDeque<Pending<T>>,
    /// Outcomes handed back so far, in completion order.
    done: Vec<(usize, JobOutcome<R>)>,
    /// Helpers running a job.
    busy: usize,
    /// No job will arrive again: helpers exit once the queue is empty.
    closed: bool,
}

impl<T, R> Queue<T, R> {
    fn new(meter: PoolMeter) -> Queue<T, R> {
        Queue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                done: Vec::new(),
                busy: 0,
                closed: false,
            }),
            work: Condvar::new(),
            dry: Condvar::new(),
            meter,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T, R>> {
        self.state.lock().expect("pool queue poisoned")
    }

    /// Queues a whole batch, its jobs indexed from 0. The caller wakes
    /// any helper that sleeps.
    fn submit(&self, items: Vec<T>) {
        let queued = Instant::now();
        let jobs = items.into_iter().enumerate();
        self.lock()
            .jobs
            .extend(jobs.map(|(i, item)| (i, queued, item)));
    }

    /// Closes the queue and wakes every sleeping helper so it can exit.
    fn close(&self) {
        // Only this flag is written: a poisoned guard is still sound.
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.work.notify_all();
    }

    /// Runs one job; a panic reports `Panicked` and rebuilds `ctx`.
    fn run_one<C>(
        &self,
        id: usize,
        ctx: &mut C,
        init: &dyn Fn(usize) -> C,
        f: &dyn Fn(&mut C, usize, T) -> R,
        (i, queued, item): Pending<T>,
    ) -> (usize, JobOutcome<R>) {
        self.meter
            .queue_wait_ns
            .observe(queued.elapsed().as_nanos() as u64);
        let started = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(ctx, i, item))) {
            Ok(r) => JobOutcome::Done(r),
            Err(payload) => {
                // The panic may have left the context half mutated;
                // start the next job from a fresh one.
                *ctx = init(id);
                self.meter.ctx_rebuilds.inc();
                JobOutcome::Panicked(panic_text(payload.as_ref()))
            }
        };
        self.meter
            .job_wall_ns
            .observe(started.elapsed().as_nanos() as u64);
        (i, outcome)
    }

    /// Worker `id`'s loop. Both kinds of worker run jobs until the
    /// queue is empty. A helper (`id > 0`) then sleeps until more
    /// arrive and returns once the queue closes; the caller (`id == 0`)
    /// sleeps until the helpers have handed back every outcome, then
    /// returns.
    fn work<C>(
        &self,
        id: usize,
        ctx: &mut C,
        init: &dyn Fn(usize) -> C,
        f: &dyn Fn(&mut C, usize, T) -> R,
    ) {
        let helper = id > 0;
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.busy += usize::from(helper);
                drop(state);
                let outcome = self.run_one(id, ctx, init, f, job);
                state = self.lock();
                state.done.push(outcome);
                if helper {
                    state.busy -= 1;
                    if state.busy == 0 && state.jobs.is_empty() {
                        self.dry.notify_one();
                    }
                }
            } else if helper && !state.closed {
                state = self.work.wait(state).expect("pool queue poisoned");
            } else if !helper && state.busy > 0 {
                state = self.dry.wait(state).expect("pool queue poisoned");
            } else {
                return;
            }
        }
    }

    /// Takes the `n` outcomes of a finished run, in submission order.
    fn outcomes(&self, n: usize) -> Vec<JobOutcome<R>> {
        let mut state = self.lock();
        assert_eq!(state.done.len(), n, "every job reports exactly once");
        state.done.sort_unstable_by_key(|&(i, _)| i);
        state.done.drain(..).map(|(_, o)| o).collect()
    }
}

/// Runs `f(index, item)` for every item and returns the outcomes in
/// submission order. See the module docs for the execution model.
pub fn run_jobs<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<JobOutcome<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_jobs_ctx(workers, items, |_| (), |(), i, item| f(i, item)).0
}

/// Runs `f(&mut ctx, index, item)` for every item, where each worker
/// owns one context built by `init(worker_id)` and reused across all
/// the jobs that worker runs (rebuilt fresh after a panicking job).
/// Returns the outcomes in submission order plus the run's
/// [`PoolStats`].
pub fn run_jobs_ctx<C, T, R, I, F>(
    workers: usize,
    items: Vec<T>,
    init: I,
    f: F,
) -> (Vec<JobOutcome<R>>, PoolStats)
where
    T: Send,
    R: Send,
    I: Fn(usize) -> C + Sync,
    F: Fn(&mut C, usize, T) -> R + Sync,
{
    let meter = PoolMeter::new();
    let out = run_jobs_metered(workers, items, init, f, &meter);
    let stats = meter.stats();
    (out, stats)
}

/// [`run_jobs_ctx`] with the caller's own [`PoolMeter`]: context
/// rebuilds, per-job queue-wait, and per-job wall latency land in the
/// meter's cells as the run progresses (live, if the meter is mounted
/// in a registry) instead of only in a final snapshot.
pub fn run_jobs_metered<C, T, R, I, F>(
    workers: usize,
    items: Vec<T>,
    init: I,
    f: F,
    meter: &PoolMeter,
) -> Vec<JobOutcome<R>>
where
    T: Send,
    R: Send,
    I: Fn(usize) -> C + Sync,
    F: Fn(&mut C, usize, T) -> R + Sync,
{
    let n = items.len();
    let queue = Queue::new(meter.clone());
    let mut ctx = init(0);
    // The whole batch is queued and the queue closed before any helper
    // starts, so a helper never sleeps: it runs jobs until none is left.
    queue.submit(items);
    queue.close();
    std::thread::scope(|scope| {
        for id in 1..=helper_count(workers, n) {
            let (queue, init, f) = (&queue, &init, &f);
            let helper = move || queue.work(id, &mut init(id), init, f);
            if Builder::new().spawn_scoped(scope, helper).is_err() {
                break;
            }
        }
        queue.work(0, &mut ctx, &init, &f);
    });
    queue.outcomes(n)
}

/// A context initializer, shared by a crew's threads.
type Init<C> = dyn Fn(usize) -> C + Send + Sync;
/// A job function, shared by a crew's threads.
type Job<C, T, R> = dyn Fn(&mut C, usize, T) -> R + Send + Sync;

/// The queue with helpers that outlive a run: they are spawned once,
/// sleep between [`run`](Crew::run)s, keep their contexts for their
/// whole life, and are joined when the crew is dropped. The job
/// function is fixed when the crew is built, so it owns what it needs
/// rather than borrowing it.
pub struct Crew<C, T, R> {
    queue: Arc<Queue<T, R>>,
    init: Arc<Init<C>>,
    f: Arc<Job<C, T, R>>,
    helpers: Vec<JoinHandle<()>>,
}

impl<C: 'static, T: Send + 'static, R: Send + 'static> Crew<C, T, R> {
    /// A crew of up to `helpers` helper threads, worker `id` holding
    /// the context `init(id)`. Spawning stops at the first failure;
    /// the crew is then smaller, and every run still completes.
    pub fn new(
        helpers: usize,
        init: impl Fn(usize) -> C + Send + Sync + 'static,
        f: impl Fn(&mut C, usize, T) -> R + Send + Sync + 'static,
    ) -> Crew<C, T, R> {
        let queue = Arc::new(Queue::new(PoolMeter::new()));
        let init: Arc<Init<C>> = Arc::new(init);
        let f: Arc<Job<C, T, R>> = Arc::new(f);
        let helpers = (1..=helpers)
            .map_while(|id| {
                let (queue, init, f) = (Arc::clone(&queue), Arc::clone(&init), Arc::clone(&f));
                let helper = move || queue.work(id, &mut init(id), &*init, &*f);
                Builder::new().spawn(helper).ok()
            })
            .collect();
        Crew {
            queue,
            init,
            f,
            helpers,
        }
    }

    /// Runs `f(ctx, index, item)` for every item on the caller and the
    /// helpers and returns the outcomes in submission order. `ctx` is
    /// the calling thread's context (worker `0`); a panicking job run
    /// here replaces it with `init(0)`.
    pub fn run(&self, ctx: &mut C, items: Vec<T>) -> Vec<JobOutcome<R>> {
        let n = items.len();
        self.queue.submit(items);
        if !self.helpers.is_empty() {
            self.queue.work.notify_all();
        }
        self.queue.work(0, ctx, &*self.init, &*self.f);
        self.queue.outcomes(n)
    }

    /// Helper threads running beside the caller.
    pub fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// Scheduling figures over every run so far.
    pub fn stats(&self) -> PoolStats {
        self.queue.meter.stats()
    }
}

impl<C, T, R> Drop for Crew<C, T, R> {
    fn drop(&mut self) {
        self.queue.close();
        for helper in self.helpers.drain(..) {
            // A helper's jobs run under `catch_unwind`, so it returns
            // normally; there is nothing to report from a destructor.
            let _ = helper.join();
        }
    }
}

/// Best-effort text of a panic payload (`&str` and `String` payloads;
/// anything else gets a placeholder).
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn helpers_are_capped_by_workers_jobs_and_max_workers() {
        assert_eq!(helper_count(100_000, 100_000), MAX_WORKERS - 1);
        assert_eq!(helper_count(1 << 20, 32), 31);
        assert_eq!(helper_count(8, 3), 2);
        assert_eq!(helper_count(0, 5), 0);
        assert_eq!(helper_count(1, 5), 0);
        assert_eq!(helper_count(4, 0), 0);
    }

    #[test]
    fn results_are_in_submission_order() {
        for workers in [1, 2, 4] {
            let items: Vec<u64> = (0..100).collect();
            let out = run_jobs(workers, items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let values: Vec<u64> = out.into_iter().map(|o| o.ok().unwrap()).collect();
            let expect: Vec<u64> = (0..100).map(|x| x * x).collect();
            assert_eq!(values, expect, "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let out = run_jobs(3, (0..20).collect::<Vec<u64>>(), |_, x| {
            if x == 7 {
                panic!("job {x} exploded");
            }
            x
        });
        for (i, o) in out.iter().enumerate() {
            if i == 7 {
                assert_eq!(*o, JobOutcome::Panicked("job 7 exploded".to_string()));
            } else {
                assert_eq!(*o, JobOutcome::Done(i as u64));
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_jobs(4, vec![(); 257], |_, ()| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn zero_items_and_zero_workers() {
        let out = run_jobs(0, Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn contexts_are_built_once_per_worker_and_reused() {
        let builds = AtomicUsize::new(0);
        let (out, stats) = run_jobs_ctx(
            2,
            (0..50u64).collect::<Vec<_>>(),
            |id| {
                builds.fetch_add(1, Ordering::Relaxed);
                (id, 0u64) // (worker id, per-context job tally)
            },
            |ctx, _, x| {
                ctx.1 += 1;
                x + 1
            },
        );
        assert_eq!(out.len(), 50);
        // At most one context per worker (a worker that never picked
        // up a job may still build its context — that's fine, but no
        // context is ever rebuilt without a panic).
        assert!(builds.load(Ordering::Relaxed) <= 2);
        assert_eq!(stats.ctx_rebuilds, 0);
    }

    #[test]
    fn a_panic_discards_the_worker_context() {
        // The context accumulates a tally; job 3 panics after bumping
        // it. The rebuild means job 4 onward sees a fresh tally, so
        // the panic's half-done mutation never leaks forward.
        let (out, stats) = run_jobs_ctx(
            1,
            (0..6u64).collect::<Vec<_>>(),
            |_| 0u64,
            |tally, i, _| {
                *tally += 1;
                if i == 3 {
                    panic!("job 3 exploded");
                }
                *tally
            },
        );
        assert_eq!(stats.ctx_rebuilds, 1);
        let values: Vec<_> = out
            .into_iter()
            .map(|o| match o {
                JobOutcome::Done(v) => Some(v),
                JobOutcome::Panicked(_) => None,
            })
            .collect();
        // Jobs 0..=2 see tallies 1,2,3; job 3 panics; jobs 4,5 restart
        // at 1,2 on the rebuilt context.
        assert_eq!(
            values,
            vec![Some(1), Some(2), Some(3), None, Some(1), Some(2)]
        );
    }
}
