//! `batch_mix`: one `run_batch` call per op on a fresh
//! `PipelineCache` with two workers, closed loop.
//!
//! Each batch is the trajectory's pool manifest shape — the four paper
//! C-- programs on all five engines, plus Figure 2's deep raise under
//! run-time unwinding and cutting on both substrates — at
//! [`REPLICAS`] seed-staggered replicas. Replicas share sources, so
//! compilation is shared through the cache's single flight while the
//! abstract-machine jobs carry most of the job time.

use crate::pipeline::ENGINES;
use crate::programs::{
    cmm_reference, fig34_obs, halt_string, long_limits, m3_reference, paper_cmm,
};
use crate::trace::{self, count, span};
use crate::workload::{closed_run, end_to_end, ledger_lines, line, Report, Size};
use cmm_difftest::Rng;
use cmm_frontend::workloads::deep_raise;
use cmm_frontend::Strategy;
use cmm_obs::{HistogramSnapshot, MetricClass, MetricsRegistry};
use cmm_opt::OptOptions;
use cmm_pool::{
    run_batch, BatchConfig, BatchReport, EngineKind, JobSpec, PipelineCache, SourceLang,
};
use std::collections::HashMap;
use std::time::Instant;

/// Replicas of the manifest per batch.
pub const REPLICAS: u32 = 4;

/// Worker threads per batch.
const WORKERS: usize = 2;

/// What one job must report.
struct Want {
    outcome: String,
    /// Yield codes, for C-- jobs (MiniM3 jobs report none).
    yields: Vec<u64>,
}

fn spec(name: &str, lang: SourceLang, source: &str, args: Vec<u32>, engine: EngineKind) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        entry: match lang {
            SourceLang::Cmm => "f".to_string(),
            SourceLang::MiniM3(_) => "main".to_string(),
        },
        lang,
        source: source.to_string(),
        args,
        results: 1,
        engine,
        opts: OptOptions::default(),
        fuel: 20_000_000,
        max_yields: 64,
        chaos: None,
    }
}

/// The batch and each job's reference. Arguments are staggered per
/// replica, with a seeded offset inside each step.
fn manifest(seed: u64, size: &Size) -> (Vec<JobSpec>, Vec<Want>) {
    let mut rng = Rng::new(seed ^ 0xba7c);
    let mut refs: HashMap<(String, Vec<u32>), Want> = HashMap::new();
    let mut specs = Vec::new();
    let mut wants = Vec::new();
    let deep = deep_raise(true);
    for rep in 0..REPLICAS {
        for (name, src) in paper_cmm() {
            let n = ((BATCH_N + BATCH_N_STEP * rep) / size.shrink).max(2)
                + rng.below(BATCH_N_STEP as usize) as u32;
            let want = refs.entry((name.to_string(), vec![n])).or_insert_with(|| {
                let obs = if name.starts_with("fig34") {
                    fig34_obs(n)
                } else {
                    cmm_reference(&src, &[n], &long_limits())
                };
                Want {
                    outcome: halt_string(&obs).unwrap_or_else(|| format!("{:?}", obs.outcome)),
                    yields: obs.yields,
                }
            });
            for engine in ENGINES {
                specs.push(spec(name, SourceLang::Cmm, &src, vec![n], engine));
                wants.push(Want {
                    outcome: want.outcome.clone(),
                    yields: want.yields.clone(),
                });
            }
        }
        for strategy in [Strategy::RuntimeUnwind, Strategy::Cutting] {
            let depth = ((BATCH_DEPTH + BATCH_DEPTH_STEP * rep) / size.shrink).max(2)
                + rng.below(BATCH_DEPTH_STEP as usize) as u32;
            let value = m3_reference(&deep, strategy, &[depth]);
            for engine in [EngineKind::Sem, EngineKind::Vm] {
                specs.push(spec(
                    "fig2_deep_raise",
                    SourceLang::MiniM3(strategy),
                    &deep,
                    vec![depth],
                    engine,
                ));
                wants.push(Want {
                    outcome: format!("result {value}"),
                    yields: Vec::new(),
                });
            }
        }
    }
    (specs, wants)
}

// Base arguments and per-replica steps: the paper loops' n and the deep
// raise's depth. Four times the trajectory's pool manifest, so a batch
// takes ~10 ms and a few-millisecond stall of the host moves its
// latency far less than it would a ~4 ms batch.
const BATCH_N: u32 = 400;
const BATCH_N_STEP: u32 = 100;
const BATCH_DEPTH: u32 = 120;
const BATCH_DEPTH_STEP: u32 = 20;

fn check(report: &BatchReport, wants: &[Want]) -> Result<(), String> {
    if report.jobs.len() != wants.len() {
        return Err(format!(
            "{} job records for {} jobs",
            report.jobs.len(),
            wants.len()
        ));
    }
    for (j, w) in report.jobs.iter().zip(wants) {
        if j.outcome != w.outcome || j.yields != w.yields {
            return Err(format!(
                "job {} ({} on {}): got `{}` yields {:?}, want `{}` yields {:?}",
                j.id, j.name, j.engine, j.outcome, j.yields, w.outcome, w.yields
            ));
        }
    }
    Ok(())
}

/// Pool figures summed over the traced batches.
#[derive(Default)]
struct PoolTotals {
    job_ns: HashMap<&'static str, u128>,
    busy_ns: u128,
    capacity_ns: u128,
    hits: u64,
    misses: u64,
    inflight_waits: u64,
    job_insts: u64,
    queue_wait: HashMap<&'static str, HistogramSnapshot>,
}

impl PoolTotals {
    fn add(&mut self, r: &BatchReport) {
        for j in &r.jobs {
            *self.job_ns.entry(j.engine).or_default() += j.ns;
            self.busy_ns += j.ns;
            self.job_insts += j.instructions;
        }
        self.capacity_ns += r.wall_ns * r.workers as u128;
        self.hits += r.cache.hits;
        self.misses += r.cache.misses;
        self.inflight_waits += r.cache.inflight_waits;
        if let Some(reg) = &r.registry {
            for phase in ["compile", "run"] {
                let s = queue_wait(reg, phase);
                self.queue_wait
                    .entry(phase)
                    .and_modify(|acc| {
                        acc.count += s.count;
                        acc.sum += s.sum;
                        for (a, b) in acc.buckets.iter_mut().zip(s.buckets) {
                            *a += b;
                        }
                    })
                    .or_insert(s);
            }
        }
    }

    fn lines(&self) -> Vec<crate::workload::Line> {
        let busy = self.busy_ns.max(1) as f64;
        let mut v = vec![
            line(
                "pool.batch.busy_ratio",
                self.busy_ns as f64 / self.capacity_ns.max(1) as f64,
                "ratio",
            ),
            line("pool.cache.hits", self.hits as f64, "count"),
            line("pool.cache.misses", self.misses as f64, "count"),
            line(
                "pool.cache.inflight_waits",
                self.inflight_waits as f64,
                "count",
            ),
            line("pool.job_insts", self.job_insts as f64, "count"),
        ];
        for e in ENGINES {
            let ns = self.job_ns.get(e.label()).copied().unwrap_or(0);
            v.push(line(
                format!("pool.job_ms.{}", e.label()),
                ns as f64 / 1e6,
                "ms",
            ));
            v.push(line(
                format!("pool.job_share.{}", e.label()),
                ns as f64 * 1000.0 / busy,
                "permille",
            ));
        }
        for phase in ["compile", "run"] {
            let p99 = self
                .queue_wait
                .get(phase)
                .map_or(0, |s| s.quantile(99, 100));
            v.push(line(
                format!("pool.queue_wait_p99_us.{phase}"),
                p99 as f64 / 1e3,
                "us",
            ));
        }
        v
    }
}

/// The batch's `cmm_pool_queue_wait_ns` histogram for `phase`.
fn queue_wait(reg: &MetricsRegistry, phase: &str) -> HistogramSnapshot {
    reg.histogram(
        "cmm_pool_queue_wait_ns",
        &[("phase", phase)],
        "Nanoseconds jobs sat queued before pickup",
        MetricClass::Timing,
    )
    .snapshot()
}

/// `batch_mix`.
pub fn mix(seed: u64, size: &Size, traced: bool) -> Report {
    let t = Instant::now();
    let (specs, wants) = manifest(seed, size);
    let prep_s = t.elapsed().as_secs_f64();
    let config = BatchConfig {
        workers: WORKERS,
        metrics: traced,
        ..BatchConfig::default()
    };
    let mut totals = PoolTotals::default();
    let mut op = |()| {
        let cache = PipelineCache::default();
        let report = span("pool", || run_batch(&specs, &cache, &config));
        if trace::on() {
            totals.add(&report);
            count("pool.batches", 1);
        }
        check(&report, &wants)
    };
    let mut rng = Rng::new(seed ^ 0x0bde);
    let mut report = Report::default();
    let name = |_: &()| "batch".to_string();
    // Set-up: a fresh cache and one batch over the distinct jobs.
    let (setups, w) = closed_run(&[()], &mut rng, size, traced, &mut report, name, |&u| op(u));
    if traced {
        let rec = trace::disable();
        report.lines = ledger_lines(&rec, &w);
        report.lines.extend(totals.lines());
        report.recording = Some(rec);
    } else {
        report.lines = end_to_end(prep_s, &setups, &w);
    }
    report
}
