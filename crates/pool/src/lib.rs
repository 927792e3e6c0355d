//! # cmm-pool — parallel batch execution with a content-addressed
//! # compilation cache
//!
//! The workspace compiles one source through a fixed pipeline
//! (parse → CFG → optimize → VM codegen → pre-decode) and then runs it
//! on one of five engines. A service that executes *many* jobs — the
//! `cmm batch` subcommand, `cmm fuzz --jobs N`, the benchmark
//! trajectory's throughput workload — repeats that compilation work
//! per job unless something memoizes it. This crate is that something:
//!
//! * [`cache`] — a [`PipelineCache`]: every
//!   pipeline stage memoized under a content [`Digest`]
//!   of (source bytes, optimization config, engine family), with
//!   single-flight deduplication, LRU eviction under a byte budget,
//!   and scheduling-independent hit/miss counters exported through
//!   `cmm-obs`'s [`CacheStats`](cmm_obs::CacheStats).
//! * [`executor`] — one caller-runs work queue over plain
//!   `std::thread`, drained by the calling thread and at most
//!   [`MAX_WORKERS`]` − 1` helpers: scoped for one call or kept alive
//!   across calls as a [`Crew`], each queueing a whole batch at once;
//!   per-job panic isolation, results keyed by submission index so
//!   outputs are byte-identical at `-j1` and `-jN`.
//! * [`batch`] — the service tying both together: manifest parsing,
//!   per-job fuel budgets through the `cmm-chaos` resource governor,
//!   and a deterministic JSON report.
//!
//! Determinism is the design center, same as everywhere else in this
//! repository: parallelism must change wall-clock time and nothing
//! else. The difftest fuzzer trusts this (its `--jobs N` mode must
//! find byte-identical failures), and CI enforces it by diffing
//! `-j1` against `-j4` batch reports.

pub mod batch;
pub mod cache;
pub mod executor;

pub use batch::{
    load_manifest, parse_manifest, run_batch, BatchConfig, BatchReport, JobRecord, JobSpec,
    Postmortem, SnapSummary,
};
pub use cache::{
    Artifact, CacheConfig, EngineCode, PipelineCache, SourceId, SourceKey, SourceLang, Stage,
    SHARDS,
};
/// The engine a job runs on, under the name the batch API has always
/// used for it.
pub use cmm_chaos::EngineId as EngineKind;
pub use cmm_frontend::engine::{with_engine, Arenas, Code, Setup};
pub use cmm_snap::Digest;
pub use executor::{
    helper_count, run_jobs, run_jobs_ctx, run_jobs_metered, virtual_makespan, Crew, JobOutcome,
    PoolMeter, PoolStats, MAX_WORKERS,
};

#[cfg(test)]
mod tests {
    use super::cache::*;
    use cmm_chaos::Family;
    use cmm_opt::OptOptions;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    const TINY: &str = "f(bits32 a) { return (a + 1); }";

    fn key(source: &str, family: Family) -> SourceId {
        SourceId::new(SourceKey {
            source: source.to_string(),
            lang: SourceLang::Cmm,
            opts: OptOptions::default(),
            family,
        })
    }

    #[test]
    fn hits_misses_and_evictions_under_a_tiny_budget() {
        // Budget below any artifact estimate: every insertion
        // immediately evicts, so repeated requests never hit.
        let cache = PipelineCache::new(CacheConfig { max_bytes: 1 });
        let k = key(TINY, Family::Sem);
        cache.program(&k).expect("compiles");
        let snap = cache.snapshot();
        // Module + Program built, both evicted on insert.
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.hits, 0);
        assert_eq!(snap.evictions, 2);
        cache.program(&k).expect("compiles again");
        let snap = cache.snapshot();
        assert_eq!(snap.misses, 4, "nothing could be retained");
        assert_eq!(snap.evictions, 4);

        // The same work under an ample budget: second request is one
        // hit on the finished Program and rebuilds nothing.
        let cache = PipelineCache::new(CacheConfig::default());
        cache.program(&k).expect("compiles");
        cache.program(&k).expect("hits");
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.evictions), (1, 2, 0));
        assert!(snap.resident_bytes > 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let a = key(TINY, Family::Sem);
        let b = key("g(bits32 a) { return (a * 2); }", Family::Sem);
        // Budget sized from the real estimates: holds both Programs
        // and one Module, but not all four artifacts.
        let probe = PipelineCache::default();
        let pa = probe.program(&a).unwrap();
        let pb = probe.program(&b).unwrap();
        let prog_bytes =
            Artifact::Program(pa.clone()).cost_bytes() + Artifact::Program(pb.clone()).cost_bytes();
        let mod_bytes = probe.snapshot().resident_bytes - prog_bytes;
        let budget = prog_bytes + mod_bytes / 2;

        let cache = PipelineCache::new(CacheConfig { max_bytes: budget });
        cache.program(&a).unwrap();
        cache.program(&b).unwrap();
        assert!(cache.snapshot().evictions >= 1, "budget forces eviction");
        // `a`'s artifacts are older than `b`'s, so a re-request of
        // `b`'s program must still hit.
        let before = cache.snapshot();
        cache.program(&b).unwrap();
        let after = cache.snapshot();
        assert_eq!(after.hits, before.hits + 1, "b's program survived");
    }

    #[test]
    fn single_flight_dedups_concurrent_builds() {
        // Two threads request the same key at the same time; the build
        // counter proves only one compile ran, and the counters show
        // one miss + one hit regardless of which thread won.
        let cache = PipelineCache::default();
        let builds = AtomicUsize::new(0);
        let gate = Barrier::new(2);
        let digest = key(TINY, Family::Sem).digest();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    gate.wait();
                    let m = cache
                        .get_or_build(digest, Stage::Module, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Slow build: keep the flight open long
                            // enough that the loser actually waits.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            let m = cmm_parse::parse_module(TINY).map_err(|e| e.to_string())?;
                            Ok(Artifact::Module(std::sync::Arc::new(m)))
                        })
                        .expect("builds");
                    assert!(matches!(m, Artifact::Module(_)));
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one compile");
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
    }

    #[test]
    fn whitespace_only_changes_reuse_nothing() {
        // The digest hashes raw source bytes, deliberately: a
        // normalized (token-level) key would need a parse on the
        // lookup path and would serve artifacts for byte strings that
        // were never actually compiled — an aliasing risk the
        // difftest oracles could never observe. So two sources that
        // differ only in whitespace are distinct cache worlds.
        let a = key("f(bits32 a) { return (a + 1); }", Family::Sem);
        let b = key("f(bits32 a) {  return (a + 1); }", Family::Sem);
        assert_ne!(a.digest(), b.digest());

        let cache = PipelineCache::default();
        cache.program(&a).unwrap();
        let warm = cache.snapshot();
        cache.program(&b).unwrap();
        let snap = cache.snapshot();
        assert_eq!(snap.hits, warm.hits, "no artifact was reused");
        assert_eq!(snap.misses, warm.misses + 2, "full recompile");
    }

    #[test]
    fn digest_separates_config_and_family() {
        let base = key(TINY, Family::Sem);
        let vm = key(TINY, Family::Vm);
        let mut o0 = base.key().clone();
        o0.opts = OptOptions::none();
        assert_ne!(base.digest(), vm.digest());
        assert_ne!(base.digest(), o0.digest());
    }

    #[test]
    fn build_errors_are_reported_not_cached() {
        let cache = PipelineCache::default();
        let bad = key("f(bits32 a) { return (a +; }", Family::Sem);
        assert!(cache.program(&bad).is_err());
        assert!(cache.program(&bad).is_err(), "still an error");
        let snap = cache.snapshot();
        assert_eq!(snap.hits, 0, "errors never become artifacts");
    }
}
