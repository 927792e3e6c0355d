//! The `Resolved` cache stage: `sem-resolved`'s tables are a cached
//! artifact like the VM tiers' decoded and fused streams, built once
//! per source and fetched with one lookup.

use cmm_chaos::{EngineId, Family};
use cmm_opt::OptOptions;
use cmm_pool::{
    parse_manifest, run_batch, BatchConfig, PipelineCache, SourceId, SourceKey, SourceLang,
};
use std::sync::Barrier;

const LOOP: &str = "f(bits32 n) {\n\
     bits32 acc;\n\
     acc = 0;\n\
   loop:\n\
     if n == 0 { return (acc); }\n\
     else { acc = acc + n; n = n - 1; goto loop; }\n\
 }";

#[test]
fn concurrent_engine_code_builds_the_resolved_tables_once() {
    const THREADS: usize = 8;
    let cache = PipelineCache::default();
    let id = SourceId::new(SourceKey {
        source: LOOP.to_string(),
        lang: SourceLang::Cmm,
        opts: OptOptions::default(),
        family: Family::Sem,
    });
    let gate = Barrier::new(THREADS);
    let codes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    gate.wait();
                    cache
                        .engine_code(&id, EngineId::SemResolved)
                        .expect("compiles")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // One miss per stage (Module, Program, Resolved); every other
    // caller hits the Resolved entry, waiting on the flight if it
    // arrived during the build.
    let snap = cache.snapshot();
    assert_eq!((snap.misses, snap.hits), (3, THREADS as u64 - 1));
    let first = codes[0].code().resolved.expect("resolved tables");
    for code in &codes {
        let rp = code.code().resolved.expect("resolved tables");
        assert!(std::ptr::eq(first, rp), "every caller shares one build");
    }
    // A later fetch is one lookup, and the same handle.
    let again = cache.resolved(&id).unwrap();
    assert!(std::ptr::eq(first, &*again));
    assert_eq!(cache.snapshot().hits, THREADS as u64);
}

#[test]
fn a_sem_family_batch_fetches_each_job_with_one_lookup() {
    let manifest = "\
        loop.cmm  sem,sem-resolved  args=3\n\
        loop.cmm  sem,sem-resolved  args=7\n\
        loop.cmm  sem,sem-resolved  args=11\n";
    let specs = parse_manifest(manifest, &mut |_| Ok(LOOP.to_string())).unwrap();
    let cache = PipelineCache::default();
    let report = run_batch(&specs, &cache, &BatchConfig::default());
    // The group warms its deepest tier, `sem-resolved`: a miss for
    // each of Module, Program and Resolved. Each `sem` job then hits
    // Program and each `sem-resolved` job hits Resolved.
    assert_eq!((report.cache.misses, report.cache.hits), (3, 6));
    for pair in report.jobs.chunks(2) {
        assert_eq!(pair[0].engine, "sem");
        assert_eq!(pair[1].engine, "sem-resolved");
        assert_eq!(pair[0].outcome, pair[1].outcome);
        assert_eq!(pair[0].instructions, pair[1].instructions);
    }
    assert_eq!(report.jobs[2].outcome, "halt [28]");
}
