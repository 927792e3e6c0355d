//! Cross-crate contract for the `cmm-metrics` runtime: the batch
//! service's metrics registry, threaded through the cache, the pool,
//! and every engine, with the layer's three load-bearing promises
//! asserted from the outside —
//!
//! * every `Deterministic`-class metric is **byte-identical** at every
//!   worker count (parallelism changes wall-clock time and nothing
//!   else, including in the observability plane),
//! * the log₂ latency histograms put every value in the right
//!   power-of-two bucket and bound quantile error by 2×, and
//! * a job that ends in an injected chaos fault produces a
//!   flight-recorder post-mortem whose ring wraps (drops old events)
//!   rather than grows.

use cmm_obs::registry::{bucket_index, bucket_upper};
use cmm_obs::Histogram;
use cmm_pool::{parse_manifest, run_batch, BatchConfig, PipelineCache};

const LOOP: &str = "f(bits32 n) {\n\
     bits32 acc;\n\
     acc = 0;\n\
   loop:\n\
     if n == 0 { return (acc); }\n\
     else { acc = acc + n; n = n - 1; goto loop; }\n\
   }";
const RAISE: &str = "exception E;\n\
   proc main(n) {\n\
     var r;\n\
     try { raise E(n); r = 0; } except { E(v) => { r = v + 1; } }\n\
     return r;\n\
   }";
/// A raise 70 frames below its handler: enough calls to wrap the
/// batch's 64-event flight-recorder ring before the dispatcher runs.
const DEEP: &str = "exception E;\n\
   proc down(n) {\n\
     var r;\n\
     if n == 0 { raise E(n); }\n\
     r = down(n - 1);\n\
     return r;\n\
   }\n\
   proc main(n) {\n\
     var r;\n\
     try { r = down(n); } except { E(v) => { r = v + 1; } }\n\
     return r;\n\
   }";

fn specs_from(manifest: &str) -> Vec<cmm_pool::JobSpec> {
    parse_manifest(manifest, &mut |file| match file {
        "loop.cmm" => Ok(LOOP.to_string()),
        "raise.m3" => Ok(RAISE.to_string()),
        "deep.m3" => Ok(DEEP.to_string()),
        other => Err(format!("unexpected source `{other}`")),
    })
    .expect("manifest parses")
}

/// The pool-service manifest, all five engines and both strategies,
/// with metrics on.
fn mixed_specs() -> Vec<cmm_pool::JobSpec> {
    specs_from(
        "loop.cmm  sem,sem-resolved,vm,vm-decoded,vm-fused  entry=f args=9\n\
         raise.m3  sem,vm  strategy=cutting args=5\n\
         raise.m3  vm  strategy=runtime-unwind args=5\n",
    )
}

#[test]
fn deterministic_metrics_are_byte_identical_at_every_worker_count() {
    let specs = mixed_specs();
    let mut metrics = Vec::new();
    let mut reports = Vec::new();
    for workers in [1, 2, 8] {
        let cache = PipelineCache::default();
        let report = run_batch(
            &specs,
            &cache,
            &BatchConfig {
                workers,
                metrics: true,
                ..BatchConfig::default()
            },
        );
        let reg = report.registry.as_ref().expect("metrics were requested");
        metrics.push(reg.to_json(false));
        reports.push(report.to_json(false));
    }
    assert_eq!(metrics[0], metrics[1], "-j1 vs -j2 metrics");
    assert_eq!(metrics[0], metrics[2], "-j1 vs -j8 metrics");
    assert_eq!(reports[0], reports[1], "-j1 vs -j2 report");
    assert_eq!(reports[0], reports[2], "-j1 vs -j8 report");

    // The deterministic export really covers every layer: engines,
    // Table 1, strategy dispatch, cache shards, jobs, and the virtual
    // per-phase latency histogram.
    for key in [
        "cmm_engine_events_total{engine='vm-fused',kind='call',technique='raw'}",
        "cmm_rts_ops_total{engine='vm',op='SetUnwindCont',technique='runtime-unwind'}",
        "cmm_strategy_dispatch_total{mech='unwind-hop',technique='runtime-unwind'}",
        "cmm_cache_hits_total{shard=",
        "cmm_jobs_total{engine='sem',outcome='halt'}",
        "\"cmm_job_virtual_ns{engine='vm',phase='run'}\": { \"count\":",
    ] {
        assert!(
            metrics[0].contains(key),
            "missing {key} in:\n{}",
            metrics[0]
        );
    }
    // And it excludes everything wall-clock: the timing-class pool
    // meters and cache gauges only appear in the timing export.
    for absent in ["cmm_pool_job_wall_ns", "cmm_pool_queue_wait_ns", "resident"] {
        assert!(
            !metrics[0].contains(absent),
            "{absent} leaked into the deterministic export"
        );
    }
    let with_timing = {
        let cache = PipelineCache::default();
        let report = run_batch(
            &specs,
            &cache,
            &BatchConfig {
                metrics: true,
                ..BatchConfig::default()
            },
        );
        report.registry.as_ref().unwrap().to_json(true)
    };
    assert!(with_timing.contains("cmm_pool_job_wall_ns"));
    assert!(with_timing.contains("cmm_cache_resident_bytes"));
}

#[test]
fn batch_report_embeds_the_metrics_section_and_nop_path_omits_it() {
    let specs = mixed_specs();
    let cache = PipelineCache::default();
    let on = run_batch(
        &specs,
        &cache,
        &BatchConfig {
            metrics: true,
            ..BatchConfig::default()
        },
    );
    let json = on.to_json(false);
    assert!(json.contains("\"metrics\": {"), "{json}");
    assert!(json.contains("cmm_jobs_total"), "{json}");

    // Metrics off: the NopSink path — no registry, no postmortems, no
    // metrics section, and the per-job deterministic figures are
    // unchanged (the zero-cost-disable property, observed end to end).
    let cache = PipelineCache::default();
    let off = run_batch(&specs, &cache, &BatchConfig::default());
    assert!(off.registry.is_none());
    assert!(off.postmortems.is_empty());
    assert!(!off.to_json(false).contains("\"metrics\""));
    let strip = |r: &cmm_pool::BatchReport| {
        r.jobs
            .iter()
            .map(|j| (j.id, j.outcome.clone(), j.instructions, j.yields.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&on), strip(&off), "tracing changed a job's figures");
}

#[test]
fn histogram_buckets_respect_power_of_two_boundaries() {
    // Bucket 0 is the exact-zero bucket; bucket i (1..=63) covers
    // [2^(i-1), 2^i - 1]; bucket 64 tops out at u64::MAX.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    for k in 1..63u32 {
        let p = 1u64 << k;
        assert_eq!(bucket_index(p - 1), k as usize, "2^{k}-1");
        assert_eq!(bucket_index(p), k as usize + 1, "2^{k}");
        assert_eq!(bucket_upper(k as usize), p - 1);
    }
    assert_eq!(bucket_index(u64::MAX), 64);
    assert_eq!(bucket_upper(64), u64::MAX);

    // Extremes round-trip through a real histogram.
    let h = Histogram::new();
    h.observe(0);
    h.observe(u64::MAX);
    let s = h.snapshot();
    assert_eq!(s.count, 2);
    assert_eq!(s.buckets[0], 1);
    assert_eq!(s.buckets[64], 1);

    // The quantile bound: a reported quantile is the upper edge of the
    // bucket holding the true rank, so it never underestimates and
    // never exceeds 2x the true value.
    for v in [1u64, 3, 7, 100, 700, 4096, 1_000_000, u64::MAX / 2] {
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(v);
        }
        let (p50, p90, p99) = h.snapshot().p50_p90_p99();
        for q in [p50, p90, p99] {
            assert!(q >= v, "quantile underestimates: {q} < {v}");
            assert!(q / 2 < v, "quantile error above 2x: {q} vs {v}");
        }
    }
}

#[test]
fn a_chaos_failed_job_writes_a_postmortem_with_its_final_events() {
    // Seed 4's fault plan trips `first-activation` within the batch
    // horizon on this workload (deterministic: the plan is a pure
    // function of the seed).
    let specs = specs_from("deep.m3 sem,vm strategy=runtime-unwind args=70 chaos=4\n");
    let mut dumps = Vec::new();
    for workers in [1, 2] {
        let cache = PipelineCache::default();
        let report = run_batch(
            &specs,
            &cache,
            &BatchConfig {
                workers,
                metrics: true,
                ..BatchConfig::default()
            },
        );
        assert_eq!(report.postmortems.len(), 2, "both engines faulted");
        for pm in &report.postmortems {
            assert_eq!(pm.outcome, "error");
            assert!(
                pm.text.contains("=== flight recorder post-mortem ==="),
                "{}",
                pm.text
            );
            assert!(
                pm.text.contains("chaos: fault first-activation x1"),
                "{}",
                pm.text
            );
            assert!(pm.text.contains("--- final 64 event(s) ---"), "{}", pm.text);
            assert!(
                pm.text.contains("chaos fault first-activation #1"),
                "{}",
                pm.text
            );
        }
        // The ring is bounded: the sem engine's run emits more events
        // than the ring holds, so the recorder wrapped and says so
        // instead of growing.
        let sem = &report.postmortems[0];
        assert_eq!(sem.engine, "sem");
        assert!(
            sem.text.contains("(64 retained, 12 dropped)"),
            "{}",
            sem.text
        );
        // The whole-stream tallies still cover the dropped prefix.
        assert!(sem.text.contains("events: 76 total"), "{}", sem.text);
        dumps.push(report.postmortems.clone());
        // The fault also lands in the registry.
        let reg = report.registry.as_ref().unwrap().to_json(false);
        assert!(
            reg.contains("\"cmm_chaos_faults_total{op='first-activation'}\": 2"),
            "{reg}"
        );
    }
    assert_eq!(dumps[0], dumps[1], "post-mortems differ across -j");
}

#[test]
fn a_quiet_chaos_seed_produces_no_postmortem() {
    // Seed 0 schedules no reachable fault on this workload: the jobs
    // succeed and nothing is dumped — post-mortems are for failures,
    // not for every traced job.
    let specs = specs_from("raise.m3 sem,vm strategy=runtime-unwind args=5 chaos=0\n");
    let cache = PipelineCache::default();
    let report = run_batch(
        &specs,
        &cache,
        &BatchConfig {
            metrics: true,
            ..BatchConfig::default()
        },
    );
    assert!(report.postmortems.is_empty());
    assert!(
        report.jobs.iter().all(|j| j.outcome == "result 6"),
        "{:?}",
        report.jobs
    );
}
