//! Cross-crate contract for the `cmm-pool` batch service: the manifest
//! the CLI and CI use, run in-process, with the subsystem's two load-
//! bearing promises asserted from the outside —
//!
//! * the timing-stripped batch report is **byte-identical** at every
//!   worker count (parallelism changes wall-clock time and nothing
//!   else), and
//! * a batch always finishes warm: every distinct compilation happens
//!   once (phase A) and every job then refetches it (phase B), so the
//!   cache hit rate is structurally nonzero.

use cmm_pool::{parse_manifest, run_batch, BatchConfig, PipelineCache};

/// A self-contained manifest in the committed format, over sources that
/// exercise both languages, all four engines, and a distinct pass
/// configuration (its own cache world).
fn specs() -> Vec<cmm_pool::JobSpec> {
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
    let manifest = "\
        loop.cmm  sem,sem-resolved,vm,vm-decoded  entry=f args=9\n\
        loop.cmm  vm  entry=f args=9 opt=none\n\
        raise.m3  sem,vm  strategy=cutting args=5\n\
        raise.m3  vm  strategy=runtime-unwind args=5\n";
    parse_manifest(manifest, &mut |file| match file {
        "loop.cmm" => Ok(LOOP.to_string()),
        "raise.m3" => Ok(RAISE.to_string()),
        other => Err(format!("unexpected source `{other}`")),
    })
    .expect("manifest parses")
}

#[test]
fn batch_reports_are_byte_identical_at_every_worker_count() {
    let specs = specs();
    let mut reports = Vec::new();
    for workers in [1, 2, 4] {
        let cache = PipelineCache::default();
        let report = run_batch(
            &specs,
            &cache,
            &BatchConfig {
                workers,
                ..BatchConfig::default()
            },
        );
        reports.push(report.to_json(false));
    }
    assert_eq!(reports[0], reports[1], "-j1 vs -j2");
    assert_eq!(reports[0], reports[2], "-j1 vs -j4");
    // The jobs actually ran: a C-- halt and both MiniM3 results.
    assert!(reports[0].contains("\"outcome\": \"halt [45]\""));
    assert!(reports[0].contains("\"outcome\": \"result 6\""));
}

#[test]
fn checkpointed_batches_are_deterministic_and_outcome_preserving() {
    // `--snapshot-every` slices each job's fuel budget and runs a full
    // capture → encode → decode → restore cycle at every boundary. Two
    // promises: the timing-stripped report (now carrying snapshot
    // counts, bytes, and blob digests) stays byte-identical at every
    // worker count, and the checkpointing changes *nothing* observable
    // about any job — outcome, yields, instruction count.
    let specs = specs();
    let plain = run_batch(&specs, &PipelineCache::default(), &BatchConfig::default());
    let mut snapped = Vec::new();
    for workers in [1, 2, 8] {
        let report = run_batch(
            &specs,
            &PipelineCache::default(),
            &BatchConfig {
                workers,
                snapshot_every: Some(16),
                ..BatchConfig::default()
            },
        );
        snapped.push(report);
    }
    let json: Vec<String> = snapped.iter().map(|r| r.to_json(false)).collect();
    assert_eq!(json[0], json[1], "-j1 vs -j2");
    assert_eq!(json[0], json[2], "-j1 vs -j8");
    assert!(json[0].contains("\"snapshots\": "), "{}", json[0]);
    for (p, s) in plain.jobs.iter().zip(&snapped[0].jobs) {
        assert_eq!(p.outcome, s.outcome, "job {} `{}`", p.id, p.name);
        assert_eq!(p.yields, s.yields, "job {} `{}`", p.id, p.name);
        assert_eq!(
            p.instructions, s.instructions,
            "job {} `{}`: checkpointing changed the work count",
            p.id, p.name
        );
        assert!(p.snap.is_none(), "plain runs carry no snapshot row");
    }
    let total: u64 = snapped[0]
        .jobs
        .iter()
        .filter_map(|j| j.snap)
        .map(|s| s.count)
        .sum();
    assert!(total > 0, "no job ever crossed a slice boundary at 16 fuel");
}

#[test]
fn a_batch_over_a_fresh_cache_still_finishes_warm() {
    let specs = specs();
    let cache = PipelineCache::default();
    let report = run_batch(
        &specs,
        &cache,
        &BatchConfig {
            workers: 4,
            ..BatchConfig::default()
        },
    );
    let snap = report.cache;
    assert!(snap.hits > 0, "phase B must refetch phase A's compiles");
    assert!(snap.misses > 0, "a fresh cache must actually compile");
    assert_eq!(snap.evictions, 0, "no budget pressure in this batch");
    // Counters are scheduling-independent: a -j1 run over its own
    // fresh cache lands on identical totals.
    let cache1 = PipelineCache::default();
    let report1 = run_batch(
        &specs,
        &cache1,
        &BatchConfig {
            workers: 1,
            ..BatchConfig::default()
        },
    );
    assert_eq!(report1.cache.hits, snap.hits);
    assert_eq!(report1.cache.misses, snap.misses);
}
