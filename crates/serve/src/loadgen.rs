//! A deterministic load generator for the service.
//!
//! The generator plays the tenants: it submits a fixed, seed-derived
//! mix of yield-heavy, exception-heavy, and compute-heavy programs
//! across all five engine tiers, then drives the scheduler with the
//! fixed dispatcher policy (reply word = [`dispatcher_fill`] of the
//! yield code). Everything it measures on the virtual clock — the
//! event digest, response counts, queue-wait and turnaround quantiles
//! — is a pure function of the profile, so the selftest can assert
//! byte-identical runs at `-j1` and `-j8` while still reporting
//! wall-clock rates on the side.
//!
//! The resume discipline is deliberately adversarial for the parked
//! population: tenants answer yields only once the run queue is dry,
//! so at the drain point every yield-heavy thread is parked as a
//! snapshot blob simultaneously — the "thousands of concurrent
//! suspended threads" shape the service exists for.

use crate::service::{dispatcher_fill, MigrationPolicy, ServeConfig, Service, SubmitReq};
use cmm_chaos::schedule_seed;
use cmm_snap::EngineId;
use std::time::Instant;

/// Yield-heavy: `b` dispatch exchanges through an `also unwinds to`
/// chain, the same shape as the snapshot-equivalence workload. The
/// yield code is always odd, so the fixed dispatcher unwinds `mid` to
/// `ku` every time.
const YIELD_SRC: &str = r#"
    f(bits32 a, bits32 b) {
        bits32 r, i;
        r = a + b;
        i = b;
      loop:
        if i == 0 { return (r); } else {
            r = mid(r + i) also unwinds to k;
            i = i - 1;
            goto loop;
        }
        continuation k(r):
        return (r + 1);
    }
    mid(bits32 x) {
        bits32 r;
        r = g(x) also unwinds to ku;
        return (r);
        continuation ku(r):
        return (r + 100);
    }
    g(bits32 x) { yield(x | 1) also aborts; return (x); }
"#;

/// Mixed: a 200-iteration compute spin between dispatch exchanges, so
/// the thread alternates quantum-expiry parks with yield parks — both
/// suspension kinds cross snapshot (and migration) boundaries.
const MIX_SRC: &str = r#"
    f(bits32 a, bits32 b) {
        bits32 r, i, j;
        r = a;
        i = b;
      outer:
        if i == 0 { return (r); } else { j = 200; goto spin; }
      spin:
        if j == 0 { goto hop; } else { r = (r + j) & 65535; j = j - 1; goto spin; }
      hop:
        r = mid(r + i) also unwinds to k;
        i = i - 1;
        goto outer;
        continuation k(r):
        return (r + 1);
    }
    mid(bits32 x) {
        bits32 r;
        r = g(x) also unwinds to ku;
        return (r);
        continuation ku(r):
        return (r + 100);
    }
    g(bits32 x) { yield(x | 1) also aborts; return (x); }
"#;

/// Compute-heavy: thousands of iterations, never yields — it only ever
/// parks on quantum expiry, exercising the preemption path and keeping
/// the run queue from draining instantly.
const LOOP_SRC: &str = r#"
    f(bits32 n, bits32 a) {
        bits32 s;
        s = a;
      loop:
        if n == 0 { return (s); } else { s = (s + n) & 65535; n = n - 1; goto loop; }
    }
"#;

/// The generated population: who submits how much.
#[derive(Clone, Copy, Debug)]
pub struct LoadProfile {
    /// Distinct tenants (round-robin over the population).
    pub tenants: usize,
    /// Threads each tenant submits.
    pub threads_per_tenant: usize,
    /// Scheduling-quanta safety cap; `0` means unbounded.
    pub quanta: u64,
    /// Seed for the chaos sub-schedules.
    pub seed: u64,
}

/// The acceptance-criteria profile: 17 tenants × 64 threads = 1088
/// concurrent service threads (margin over the required 1000, since
/// chaos-afflicted threads may die before the parked population
/// peaks).
pub fn acceptance_profile() -> LoadProfile {
    LoadProfile {
        tenants: 17,
        threads_per_tenant: 64,
        quanta: 0,
        seed: 0xC0FFEE,
    }
}

/// A small profile for unit tests: big enough to exercise every
/// source/engine pairing, small enough to run in a debug build.
pub fn small_profile() -> LoadProfile {
    LoadProfile {
        tenants: 4,
        threads_per_tenant: 10,
        quanta: 0,
        seed: 7,
    }
}

/// The serve configuration the selftest and the trajectory use:
/// rotate-on-every-slice migration (the adversarial schedule) over
/// `workers` workers.
pub fn load_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        quantum: 2_000,
        migration: MigrationPolicy::Rotate,
        metrics: true,
        ..ServeConfig::default()
    }
}

/// What a load run measured. Everything except the `wall_*` fields is
/// deterministic.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Threads submitted.
    pub threads: u64,
    /// Threads that finished.
    pub completed: u64,
    /// Yield responses delivered.
    pub yields: u64,
    /// Cross-tier migrations.
    pub migrations: u64,
    /// Most threads ever parked as blobs at once.
    pub parked_high_water: u64,
    /// Scheduling quanta run.
    pub quanta: u64,
    /// Virtual duration of the whole run (ns).
    pub virtual_ns: u64,
    /// Tenant-visible responses (yields + completions) per virtual
    /// second.
    pub virtual_rps: u64,
    /// Queue-wait quantiles, virtual ns.
    pub queue_wait_p50: u64,
    /// 99th percentile queue wait.
    pub queue_wait_p99: u64,
    /// Turnaround quantiles, virtual ns.
    pub turnaround_p50: u64,
    /// 99th percentile turnaround.
    pub turnaround_p99: u64,
    /// FNV-1a fold of the event log.
    pub event_digest: u64,
    /// Wall-clock duration (ns; informational, never gated).
    pub wall_ns: u64,
    /// Responses per wall second (informational, never gated).
    pub wall_rps: u64,
}

/// Submits the profile's population into `svc`, in thread order.
pub fn submit_load(svc: &mut Service, profile: &LoadProfile) -> u64 {
    let mut submitted = 0;
    for tenant in 0..profile.tenants {
        for slot in 0..profile.threads_per_tenant {
            let idx = tenant * profile.threads_per_tenant + slot;
            let engine = EngineId::ALL[idx % EngineId::ALL.len()];
            let chaos = if idx % 16 == 9 {
                Some(schedule_seed(profile.seed, idx as u64))
            } else {
                None
            };
            let (name, source, args) = match idx % 8 {
                0..=4 => (
                    "yield",
                    YIELD_SRC,
                    vec![(idx % 7) as u64, (8 + idx % 5) as u64],
                ),
                5 | 6 => ("mix", MIX_SRC, vec![(idx % 11) as u64, 6]),
                _ => (
                    "loop",
                    LOOP_SRC,
                    vec![(3_000 + (idx % 7) * 500) as u64, (idx % 13) as u64],
                ),
            };
            svc.submit(SubmitReq {
                tenant: format!("tenant-{tenant}"),
                name: name.into(),
                source: source.into(),
                entry: "f".into(),
                args,
                results: 1,
                engine,
                fuel: 500_000,
                max_yields: 64,
                opt: true,
                chaos,
            })
            .expect("load submission accepted");
            submitted += 1;
        }
    }
    submitted
}

/// Builds a service, submits the population, and drives it to
/// completion (or to the quanta cap): tick until the run queue is dry,
/// answer every pending yield with the dispatcher-fill reply, repeat.
pub fn run_load(config: ServeConfig, profile: &LoadProfile) -> (Service, LoadReport) {
    let t0 = Instant::now();
    let mut svc = Service::new(config);
    let threads = submit_load(&mut svc, profile);
    loop {
        if profile.quanta != 0 && svc.stats().quanta >= profile.quanta {
            break;
        }
        let report = svc.tick();
        if report.dispatched == 0 {
            let awaiting = svc.awaiting();
            if awaiting.is_empty() {
                break;
            }
            for (id, code) in awaiting {
                svc.resume(id, u64::from(dispatcher_fill(code)))
                    .expect("awaiting thread resumes");
            }
        }
    }
    let stats = svc.stats();
    let responses = stats.yields + stats.completed;
    let (queue_wait, turnaround) = svc.latency_quantiles();
    let wall_ns = t0.elapsed().as_nanos().max(1) as u64;
    let report = LoadReport {
        threads,
        completed: stats.completed,
        yields: stats.yields,
        migrations: stats.migrations,
        parked_high_water: stats.parked_high_water,
        quanta: stats.quanta,
        virtual_ns: stats.vclock.max(1),
        virtual_rps: responses.saturating_mul(1_000_000_000) / stats.vclock.max(1),
        queue_wait_p50: queue_wait.0,
        queue_wait_p99: queue_wait.2,
        turnaround_p50: turnaround.0,
        turnaround_p99: turnaround.2,
        event_digest: svc.event_digest(),
        wall_ns,
        wall_rps: responses.saturating_mul(1_000_000_000) / wall_ns,
    };
    (svc, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The small profile drives to completion and its deterministic
    /// figures are identical at 1 and 4 workers, and at a million,
    /// which asks for far more helpers than a tick's window can use.
    #[test]
    fn small_load_is_deterministic_across_worker_counts() {
        let profile = small_profile();
        let (svc1, r1) = run_load(load_config(1), &profile);
        for workers in [4, 1 << 20] {
            let (svc, r) = run_load(load_config(workers), &profile);
            assert_eq!(
                svc1.events(),
                svc.events(),
                "-j{workers}: event logs diverged"
            );
            assert_eq!(r1.event_digest, r.event_digest);
            assert_eq!(
                (r1.yields, r1.migrations, r1.virtual_ns, r1.quanta),
                (r.yields, r.migrations, r.virtual_ns, r.quanta),
            );
        }
        assert_eq!(r1.completed, r1.threads, "every thread finishes");
        assert!(r1.yields > 0, "yield-heavy threads actually yielded");
        assert!(r1.migrations > 0, "rotate policy actually migrated");
    }
}
