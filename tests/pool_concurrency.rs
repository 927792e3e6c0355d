//! Concurrency suite for the `cmm-pool` scaling work: the sharded
//! single-flight cache and the caller-runs executor (scoped runs and
//! the persistent [`Crew`]), attacked from the outside with racing
//! threads.
//!
//! The cache tests use **synthetic digests** (the cache keys on the
//! digest value, not the source), which buys two things: digests can be
//! aimed at specific shards (`Digest(n)` lands on shard `n % SHARDS`),
//! and every artifact can be the same tiny module so byte costs are
//! known exactly and LRU arithmetic is checkable by hand.
//!
//! Two properties carry the suite:
//!
//! * **Single-flight**: however many threads race `get_or_build` on a
//!   digest, exactly one build runs, and the hit/miss totals are a pure
//!   function of the request multiset — scheduling never shows up in
//!   the counters (eviction-free workloads).
//! * **Global LRU**: eviction order follows the global clock across
//!   shard boundaries, and the byte budget holds at quiescence no
//!   matter how many threads were inserting.

use cmm_pool::{
    run_jobs, run_jobs_ctx, Artifact, CacheConfig, Crew, Digest, JobOutcome, PipelineCache, Stage,
    SHARDS,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const TINY: &str = "f(bits32 a) { return (a + 1); }";

/// A ready-made artifact with a known, repeatable byte cost.
fn tiny_artifact() -> Artifact {
    let m = cmm_parse::parse_module(TINY).expect("tiny module parses");
    Artifact::Module(Arc::new(m))
}

fn tiny_cost() -> u64 {
    tiny_artifact().cost_bytes()
}

/// `THREADS` threads race `get_or_build` over `DIGESTS` overlapping
/// digests (every thread requests every digest, in a thread-dependent
/// order). Exactly one build per digest, and the totals are exact:
/// `DIGESTS` misses, `THREADS * DIGESTS - DIGESTS` hits, however the
/// scheduler interleaved them.
#[test]
fn racing_threads_compile_each_digest_exactly_once() {
    const THREADS: usize = 8;
    const DIGESTS: u64 = 24; // spans all 16 shards, some twice
    let cache = PipelineCache::default();
    let builds = AtomicUsize::new(0);
    let gate = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let builds = &builds;
            let gate = &gate;
            s.spawn(move || {
                gate.wait();
                for i in 0..DIGESTS {
                    // Each thread walks the digests from a different
                    // starting point so shard locks are contended from
                    // all sides at once.
                    let d = Digest(u128::from((i + t as u64) % DIGESTS));
                    let art = cache
                        .get_or_build(d, Stage::Module, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            Ok(tiny_artifact())
                        })
                        .expect("build succeeds");
                    assert!(matches!(art, Artifact::Module(_)));
                }
            });
        }
    });
    assert_eq!(builds.load(Ordering::Relaxed) as u64, DIGESTS);
    let snap = cache.snapshot();
    assert_eq!(snap.misses, DIGESTS, "one miss per digest");
    assert_eq!(snap.hits, (THREADS as u64) * DIGESTS - DIGESTS);
    assert_eq!(snap.evictions, 0, "default budget never evicts this");
    assert_eq!(snap.resident_bytes, DIGESTS * tiny_cost());
}

/// The per-shard split of the counters is a pure function of the
/// digests (shard = digest mod `SHARDS`), so two independent racing
/// runs of the same workload produce identical per-shard snapshots —
/// and the shards always sum to the aggregate.
#[test]
fn per_shard_stats_are_scheduling_independent_and_sum_to_the_aggregate() {
    const THREADS: usize = 6;
    const DIGESTS: u64 = 40;
    let run = || {
        let cache = PipelineCache::default();
        let gate = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cache = &cache;
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    for i in 0..DIGESTS {
                        let d = Digest(u128::from((i * 7 + t as u64 * 11) % DIGESTS));
                        cache
                            .get_or_build(d, Stage::Module, || Ok(tiny_artifact()))
                            .expect("build succeeds");
                    }
                });
            }
        });
        (cache.snapshot(), cache.shard_snapshots())
    };
    let (total_a, shards_a) = run();
    let (total_b, shards_b) = run();
    assert_eq!(shards_a.len(), SHARDS);

    // Scheduling independence: everything except `inflight_waits`
    // (which genuinely depends on who lost each race) is identical
    // across runs, shard by shard.
    for (i, (a, b)) in shards_a.iter().zip(&shards_b).enumerate() {
        assert_eq!((a.hits, a.misses), (b.hits, b.misses), "shard {i}");
        assert_eq!(a.evictions, b.evictions, "shard {i}");
        assert_eq!(a.resident_bytes, b.resident_bytes, "shard {i}");
    }

    // The shards sum to the aggregate exactly.
    let sum = |f: fn(&cmm_obs::CacheSnapshot) -> u64| shards_a.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.hits), total_a.hits);
    assert_eq!(sum(|s| s.misses), total_a.misses);
    assert_eq!(sum(|s| s.evictions), total_a.evictions);
    assert_eq!(sum(|s| s.inflight_waits), total_a.inflight_waits);
    assert_eq!(sum(|s| s.resident_bytes), total_a.resident_bytes);
    assert_eq!(total_a.misses, total_b.misses);
    assert_eq!(total_a.hits, total_b.hits);
}

/// Eviction follows the **global** LRU clock across shard boundaries.
/// Digests 1..=4 land on four different shards; with a budget of three
/// artifacts, refreshing digest 1 before inserting digest 4 must send
/// digest 2 — on another shard — out, and keep digest 1 in.
#[test]
fn lru_eviction_crosses_shard_boundaries_in_clock_order() {
    let cost = tiny_cost();
    let cache = PipelineCache::new(CacheConfig {
        max_bytes: 3 * cost,
    });
    let build = || Ok(tiny_artifact());
    let get = |n: u128| {
        cache
            .get_or_build(Digest(n), Stage::Module, build)
            .expect("build succeeds")
    };
    get(1);
    get(2);
    get(3); // full: 1, 2, 3 in clock order
    get(1); // refresh 1: now 2 is globally oldest
    get(4); // over budget: 2 must go, though it lives on its own shard
    let snap = cache.snapshot();
    assert_eq!(snap.evictions, 1);
    assert_eq!(snap.resident_bytes, 3 * cost);

    let before = cache.snapshot();
    get(1); // still resident: hit
    get(3); // still resident: hit
    let snap = cache.snapshot();
    assert_eq!(snap.hits, before.hits + 2, "1 and 3 survived");
    get(2); // evicted: rebuilt
    assert_eq!(cache.snapshot().misses, before.misses + 1, "2 was evicted");
}

/// Racing inserts against a tight byte budget: at quiescence the
/// resident estimate fits the budget, the counters balance (entries
/// in = entries out + entries resident), and the cache still serves
/// correct artifacts.
#[test]
fn byte_budget_holds_under_concurrent_insertion_pressure() {
    const THREADS: usize = 8;
    const DIGESTS: u64 = 32;
    const ROUNDS: u64 = 3;
    let cost = tiny_cost();
    let budget_entries = 5u64;
    let cache = PipelineCache::new(CacheConfig {
        max_bytes: budget_entries * cost,
    });
    let gate = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let gate = &gate;
            s.spawn(move || {
                gate.wait();
                for round in 0..ROUNDS {
                    for i in 0..DIGESTS {
                        let d = Digest(u128::from((i + t as u64 + round * 5) % DIGESTS));
                        cache
                            .get_or_build(d, Stage::Module, || Ok(tiny_artifact()))
                            .expect("build succeeds");
                    }
                }
            });
        }
    });
    let snap = cache.snapshot();
    assert!(
        snap.resident_bytes <= budget_entries * cost,
        "over budget at quiescence: {} > {}",
        snap.resident_bytes,
        budget_entries * cost
    );
    assert!(snap.evictions > 0, "32 digests through 5 slots must evict");
    // Each miss inserted one entry; each eviction removed one; what's
    // left is exactly the resident byte count.
    assert_eq!(
        (snap.misses - snap.evictions) * cost,
        snap.resident_bytes,
        "entry bookkeeping balances"
    );
    assert_eq!(
        snap.hits + snap.misses,
        (THREADS as u64) * ROUNDS * DIGESTS,
        "every request was counted exactly once"
    );
}

/// A panicking job at `-j8` is isolated: its slot reports `Panicked`
/// with the payload text, every other job completes normally, and the
/// worker that caught the panic rebuilt its context rather than
/// carrying a half-mutated one forward.
#[test]
fn a_panicking_job_at_j8_poisons_nothing_else() {
    const JOBS: usize = 200;
    const CULPRIT: usize = 77;
    let (outcomes, stats) = run_jobs_ctx(
        8,
        (0..JOBS).collect(),
        |_| 0u64, // per-worker tally, rebuilt after a panic
        |tally, _, n| {
            if n == CULPRIT {
                panic!("job {n} exploded");
            }
            *tally += 1;
            n * n
        },
    );
    assert_eq!(outcomes.len(), JOBS);
    for (i, o) in outcomes.iter().enumerate() {
        if i == CULPRIT {
            match o {
                JobOutcome::Panicked(msg) => {
                    assert!(msg.contains("job 77 exploded"), "unexpected payload: {msg}")
                }
                other => panic!("culprit slot holds {other:?}"),
            }
        } else {
            assert_eq!(o, &JobOutcome::Done(i * i), "job {i}");
        }
    }
    assert_eq!(stats.ctx_rebuilds, 1, "one panic, one context rebuild");
}

/// Result order equals submission order at every worker count: a
/// 200-job batch produces the same outcome vector at `-j1`, `-j3`, and
/// `-j8`, element for element.
#[test]
fn two_hundred_jobs_come_back_in_submission_order_at_every_j() {
    const JOBS: u64 = 200;
    let run = |workers: usize| {
        run_jobs(workers, (0..JOBS).collect(), |i, n| {
            assert_eq!(i as u64, n, "index/item pairing is preserved");
            n.wrapping_mul(2654435761) >> 7
        })
    };
    let j1 = run(1);
    let j3 = run(3);
    let j8 = run(8);
    assert_eq!(j1.len(), JOBS as usize);
    assert_eq!(j1, j3, "-j1 vs -j3");
    assert_eq!(j1, j8, "-j1 vs -j8");
}

/// The full stack under racing workers: jobs funnel through the real
/// executor into the real sharded cache, and single-flight still holds
/// — 64 jobs over 8 digests build each digest exactly once.
#[test]
fn executor_plus_cache_still_single_flights() {
    let cache = PipelineCache::default();
    let builds = AtomicUsize::new(0);
    let outcomes = run_jobs(8, (0..64u64).collect(), |_, n| {
        let art = cache
            .get_or_build(Digest(u128::from(n % 8)), Stage::Module, || {
                builds.fetch_add(1, Ordering::Relaxed);
                Ok(tiny_artifact())
            })
            .expect("build succeeds");
        matches!(art, Artifact::Module(_))
    });
    assert!(outcomes.iter().all(|o| o == &JobOutcome::Done(true)));
    assert_eq!(builds.load(Ordering::Relaxed), 8, "one build per digest");
    let snap = cache.snapshot();
    assert_eq!((snap.hits, snap.misses), (56, 8));
}

/// The job the crew tests share: a pure function of index and item.
fn mix(_: &mut (), i: usize, n: u64) -> u64 {
    n.wrapping_mul(2654435761) >> (i % 7)
}

/// A crew returns each run's outcomes in submission order, equal to
/// the scoped runner's, over a thousand consecutive runs on the same
/// helpers, at 0, 1 and 3 helpers.
#[test]
fn a_crew_matches_the_scoped_runner_run_after_run() {
    for helpers in [0, 1, 3] {
        let crew = Crew::new(helpers, |_| (), mix);
        assert_eq!(crew.helpers(), helpers);
        for run in 0..1000u64 {
            let items: Vec<u64> = (0..run % 40).map(|k| k * 31 + run).collect();
            let expect: Vec<_> = (items.iter().enumerate())
                .map(|(i, &n)| JobOutcome::Done(mix(&mut (), i, n)))
                .collect();
            let scoped = run_jobs_ctx(helpers + 1, items.clone(), |_| (), mix).0;
            assert_eq!(scoped, expect, "scoped run {run}, {helpers} helper(s)");
            assert_eq!(
                crew.run(&mut (), items),
                expect,
                "run {run}, {helpers} helper(s)"
            );
        }
    }
}

/// The calling thread runs jobs rather than only waiting for them: on
/// a crew with one helper, two jobs that each wait at a two-party
/// barrier both finish. Were the caller to wait, the lone helper would
/// block on the first job forever.
#[test]
fn the_calling_thread_works_beside_its_helpers() {
    let gate = Arc::new(Barrier::new(2));
    let crew = {
        let gate = Arc::clone(&gate);
        Crew::new(
            1,
            |_| (),
            move |(), i, ()| {
                gate.wait();
                i
            },
        )
    };
    for _ in 0..100 {
        let out = crew.run(&mut (), vec![(), ()]);
        assert_eq!(out, vec![JobOutcome::Done(0), JobOutcome::Done(1)]);
    }
}

/// A panicking job reports `Panicked` in its own slot and its worker's
/// context is rebuilt, and the crew still serves the next run: both of
/// its jobs meet at a two-party barrier, so both threads are alive.
#[test]
fn a_crew_survives_a_panicking_job() {
    const CULPRIT: u64 = 7;
    let gate = Arc::new(Barrier::new(2));
    let crew = {
        let gate = Arc::clone(&gate);
        Crew::new(
            1,
            |_| 0u64,
            move |tally: &mut u64, _, n: u64| {
                gate.wait();
                if n == CULPRIT {
                    panic!("job {n} exploded");
                }
                *tally += 1;
                n
            },
        )
    };
    let mut tally = 0;
    let out = crew.run(&mut tally, vec![1, CULPRIT]);
    assert_eq!(out[0], JobOutcome::Done(1));
    assert_eq!(out[1], JobOutcome::Panicked("job 7 exploded".into()));
    assert_eq!(crew.stats().ctx_rebuilds, 1, "one panic, one rebuild");
    let out = crew.run(&mut tally, vec![2, 3]);
    assert_eq!(out, vec![JobOutcome::Done(2), JobOutcome::Done(3)]);
    assert_eq!(crew.stats().ctx_rebuilds, 1);
}

/// Dropping a crew joins every helper. Each helper's context holds a
/// clone of a token; a run whose jobs meet at a barrier proves all
/// three helpers are up, and once the crew is dropped the test holds
/// the only reference again.
#[test]
fn dropping_a_crew_joins_every_helper() {
    let token = Arc::new(());
    let gate = Arc::new(Barrier::new(4));
    let crew = {
        let (token, gate) = (Arc::clone(&token), Arc::clone(&gate));
        Crew::new(
            3,
            move |_| Arc::clone(&token),
            move |_: &mut Arc<()>, i, ()| {
                gate.wait();
                i
            },
        )
    };
    let out = crew.run(&mut Arc::new(()), vec![(); 4]);
    assert_eq!(out.len(), 4);
    // The test, the crew's initializer and three helper contexts.
    assert_eq!(Arc::strong_count(&token), 5);
    drop(crew);
    assert_eq!(Arc::strong_count(&token), 1);
}
