//! Shared service counters: thread-safe metrics for long-lived
//! components that serve many executions (today: `cmm-pool`'s
//! content-addressed compilation cache).
//!
//! The trace-sink layer ([`crate::sink`]) observes *one* run from the
//! inside; these counters observe a *service* from the outside, across
//! many concurrent runs. They are built on the registry substrate
//! ([`crate::registry`]'s [`Counter`] and [`Gauge`] handles — plain
//! shared atomics, no locks, no feature gates) so a server can read
//! them at any time without perturbing the workers that update them,
//! and so the same cells can be mounted into a [`MetricsRegistry`] as
//! live views: there is one counting substrate, not a bespoke copy per
//! subsystem.

use crate::registry::{Counter, Gauge, Metric, MetricClass, MetricsRegistry};
use std::fmt;

/// Counters for a content-addressed artifact cache.
///
/// The counting discipline keeps the figures *scheduling-independent*:
/// a request satisfied by a ready artifact is a **hit**; a request that
/// arrives while another thread is already building the same artifact
/// waits for it and is counted as a hit *and* as an
/// **in-flight wait** (the single-flight channel); the one request that
/// actually builds is a **miss**. Per `(digest, stage)` there is thus
/// exactly one miss no matter how many threads race, so hit/miss totals
/// for a fixed job set are identical at `-j1` and `-jN` (evictions can
/// reorder under a tight byte budget; see `cmm-pool`'s docs).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Requests satisfied by a ready artifact (including single-flight
    /// waiters).
    pub hits: Counter,
    /// Requests that built the artifact.
    pub misses: Counter,
    /// Artifacts evicted to respect the byte budget.
    pub evictions: Counter,
    /// Hits that waited on another thread's in-flight build.
    pub inflight_waits: Counter,
    /// Estimated bytes currently resident.
    pub resident_bytes: Gauge,
}

impl CacheStats {
    /// A zeroed counter set.
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// An immutable copy of the current values.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            inflight_waits: self.inflight_waits.get(),
            resident_bytes: self.resident_bytes.get(),
        }
    }
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheSnapshot {
    /// See [`CacheStats::hits`].
    pub hits: u64,
    /// See [`CacheStats::misses`].
    pub misses: u64,
    /// See [`CacheStats::evictions`].
    pub evictions: u64,
    /// See [`CacheStats::inflight_waits`].
    pub inflight_waits: u64,
    /// See [`CacheStats::resident_bytes`].
    pub resident_bytes: u64,
}

impl CacheSnapshot {
    /// Hits over total requests, in `[0, 1]`; `0` before any request.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One [`CacheStats`] per shard of a lock-striped cache.
///
/// A sharded cache that funneled every hit through one shared counter
/// set would reintroduce the very cache-line contention the shards
/// remove, so each shard owns its counters and readers aggregate on
/// demand. The counting discipline is unchanged — single-flight keeps
/// per-key miss counts at exactly one — so the *aggregate* hit/miss
/// totals for a fixed job set stay scheduling-independent even though
/// the per-shard split depends only on the digest, not the schedule.
#[derive(Debug)]
pub struct ShardedCacheStats {
    shards: Vec<CacheStats>,
}

impl ShardedCacheStats {
    /// `n` zeroed shard counter sets.
    pub fn new(n: usize) -> ShardedCacheStats {
        ShardedCacheStats {
            shards: (0..n.max(1)).map(|_| CacheStats::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True only for a zero-shard set (never constructed by `new`).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The counter set of shard `i`.
    pub fn shard(&self, i: usize) -> &CacheStats {
        &self.shards[i]
    }

    /// Point-in-time copies of every shard's counters, in shard order.
    pub fn shard_snapshots(&self) -> Vec<CacheSnapshot> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// The cache-wide aggregate of every shard's counters. Every field
    /// sums, including `resident_bytes`: each shard accounts its own
    /// resident estimate, so the sum is the cache-wide figure.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut total = CacheSnapshot::default();
        for s in &self.shards {
            let snap = s.snapshot();
            total.hits += snap.hits;
            total.misses += snap.misses;
            total.evictions += snap.evictions;
            total.inflight_waits += snap.inflight_waits;
            total.resident_bytes += snap.resident_bytes;
        }
        total
    }

    /// Sum of the per-shard resident estimates — the figure a byte
    /// budget is enforced against, readable without any lock.
    pub fn resident_total(&self) -> u64 {
        self.shards.iter().map(|s| s.resident_bytes.get()).sum()
    }

    /// Mounts every shard's counters into `registry` as live views
    /// (`cmm_cache_*{shard="i"}`). Hits, misses, and evictions are
    /// deterministic under the single-flight counting discipline;
    /// in-flight waits and the resident estimate are scheduling
    /// artifacts and carry [`MetricClass::Timing`].
    pub fn mount(&self, registry: &MetricsRegistry) {
        for (i, s) in self.shards.iter().enumerate() {
            let shard = i.to_string();
            let labels: [(&str, &str); 1] = [("shard", shard.as_str())];
            let det = MetricClass::Deterministic;
            registry.mount(
                "cmm_cache_hits_total",
                &labels,
                "Cache requests satisfied by a ready artifact",
                det,
                Metric::Counter(s.hits.clone()),
            );
            registry.mount(
                "cmm_cache_misses_total",
                &labels,
                "Cache requests that built the artifact",
                det,
                Metric::Counter(s.misses.clone()),
            );
            registry.mount(
                "cmm_cache_evictions_total",
                &labels,
                "Artifacts evicted to respect the byte budget",
                det,
                Metric::Counter(s.evictions.clone()),
            );
            registry.mount(
                "cmm_cache_inflight_waits_total",
                &labels,
                "Hits that waited on another thread's in-flight build",
                MetricClass::Timing,
                Metric::Counter(s.inflight_waits.clone()),
            );
            registry.mount(
                "cmm_cache_resident_bytes",
                &labels,
                "Estimated bytes currently resident",
                MetricClass::Timing,
                Metric::Gauge(s.resident_bytes.clone()),
            );
        }
    }
}

impl fmt::Display for CacheSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit(s), {} miss(es), {} eviction(s), {} in-flight wait(s), \
             {} byte(s) resident ({:.0}% hit rate)",
            self.hits,
            self.misses,
            self.evictions,
            self.inflight_waits,
            self.resident_bytes,
            self.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_hit_rate() {
        let s = CacheStats::new();
        assert_eq!(s.snapshot().hit_rate(), 0.0);
        s.hits.add(3);
        s.misses.inc();
        let snap = s.snapshot();
        assert_eq!(snap.hits, 3);
        assert_eq!(snap.hit_rate(), 0.75);
        assert!(snap.to_string().contains("75% hit rate"), "{snap}");
    }

    #[test]
    fn sharded_stats_aggregate_across_shards() {
        let s = ShardedCacheStats::new(4);
        s.shard(0).hits.add(2);
        s.shard(3).hits.inc();
        s.shard(1).misses.inc();
        s.shard(2).resident_bytes.set(100);
        s.shard(3).resident_bytes.set(50);
        let total = s.snapshot();
        assert_eq!((total.hits, total.misses), (3, 1));
        assert_eq!(total.resident_bytes, 150);
        assert_eq!(s.resident_total(), 150);
        // The aggregate is exactly the fold of the per-shard snapshots.
        let folded: u64 = s.shard_snapshots().iter().map(|snap| snap.hits).sum();
        assert_eq!(folded, total.hits);
    }

    #[test]
    fn sharded_stats_never_have_zero_shards() {
        let s = ShardedCacheStats::new(0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let s = std::sync::Arc::new(CacheStats::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..100 {
                        s.hits.inc();
                    }
                });
            }
        });
        assert_eq!(s.snapshot().hits, 400);
    }

    #[test]
    fn mounted_shards_are_live_registry_views() {
        let s = ShardedCacheStats::new(2);
        let registry = MetricsRegistry::new();
        s.mount(&registry);
        // The registry exports the very cell the cache updates — no
        // copy, no absorb pass.
        s.shard(1).hits.add(5);
        let text = registry.to_prometheus(true);
        assert!(
            text.contains("cmm_cache_hits_total{shard=\"1\"} 5"),
            "{text}"
        );
        assert!(text.contains("cmm_cache_hits_total{shard=\"0\"} 0"));
        // Deterministic JSON keeps hit counts but strips the
        // timing-class resident estimate.
        s.shard(0).resident_bytes.set(77);
        let json = registry.to_json(false);
        assert!(json.contains("cmm_cache_hits_total{shard='1'}"));
        assert!(!json.contains("resident"), "{json}");
    }
}
