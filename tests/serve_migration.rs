//! Cross-tier work migration through the service (ISSUE 10,
//! satellite 2): a thread parked as a snapshot blob on one engine tier
//! must resume on any other tier of the same family with no observable
//! difference — same yield transcript, same outcome, same injected
//! fault log — and the blob itself must be byte-portable once both
//! runs are back on the same tier.
//!
//! The chaos variant pins the seed search down so the fault schedule
//! *straddles* the migration point: at least one fault fires before
//! the thread first parks and at least one more after it resumes on
//! the other tier, so equivalence is not vacuous.

use cmm_chaos::FaultPlanState;
use cmm_serve::{dispatcher_fill, MigrationPolicy, ServeConfig, Service, SubmitReq, ThreadState};
use cmm_snap::{EngineId, Snapshot};

/// The yield-chain workload: `b` dispatch exchanges through an
/// `also unwinds to` chain (the snapshot-equivalence shape), so every
/// park crosses an activation stack with live continuations.
const SRC: &str = r#"
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

/// Everything observable about one driven thread.
struct Driven {
    outcome: String,
    yields: Vec<u64>,
    migrations: u64,
    final_chaos: Option<FaultPlanState>,
    /// Parked blobs captured while awaiting the tenant, by yield
    /// ordinal (1-based).
    blobs: Vec<(usize, Vec<u8>)>,
}

/// Submits the workload on `from` and drives it to completion; with
/// `to`, migrates the thread at its `migrate_at`-th yield park. Large
/// quantum so every park is a yield park.
fn drive(from: EngineId, to: Option<(EngineId, usize)>, chaos: Option<u64>) -> Driven {
    let mut svc = Service::new(ServeConfig {
        workers: 2,
        quantum: 50_000,
        migration: MigrationPolicy::Pinned,
        ..ServeConfig::default()
    });
    let id = svc
        .submit(SubmitReq {
            tenant: "mig".into(),
            name: "straddle".into(),
            source: SRC.into(),
            entry: "f".into(),
            args: vec![7, 4],
            results: 1,
            engine: from,
            chaos,
            ..SubmitReq::default()
        })
        .unwrap();
    let mut seen = 0usize;
    let mut blobs = Vec::new();
    let outcome = loop {
        svc.tick();
        match svc.poll(id).expect("thread exists").state {
            ThreadState::AwaitingTenant { code } => {
                seen += 1;
                if let Some((target, migrate_at)) = to {
                    if seen == migrate_at {
                        svc.set_engine(id, target).expect("same-family move");
                    }
                }
                let blob = svc.parked_blob(id).expect("awaiting implies parked");
                blobs.push((seen, blob.to_vec()));
                svc.resume(id, u64::from(dispatcher_fill(code))).unwrap();
            }
            ThreadState::Done { outcome } => break outcome,
            ThreadState::Runnable => {}
        }
    };
    let view = svc.poll(id).unwrap();
    Driven {
        outcome,
        yields: view.yields,
        migrations: view.migrations,
        final_chaos: svc.final_chaos(id).cloned(),
        blobs,
    }
}

/// The tier pairs the acceptance criteria name, both directions.
fn family_pairs() -> Vec<(EngineId, EngineId)> {
    vec![
        (EngineId::VmDecoded, EngineId::VmFused),
        (EngineId::VmFused, EngineId::VmDecoded),
        (EngineId::Sem, EngineId::SemResolved),
        (EngineId::SemResolved, EngineId::Sem),
    ]
}

#[test]
fn a_migrated_thread_is_indistinguishable_from_a_pinned_one() {
    for (from, to) in family_pairs() {
        let pinned = drive(from, None, None);
        let migrated = drive(from, Some((to, 1)), None);
        let label = format!("{} -> {}", from.name(), to.name());
        assert!(migrated.migrations >= 1, "{label}: no migration recorded");
        assert_eq!(pinned.yields, migrated.yields, "{label}: yields");
        assert_eq!(pinned.outcome, migrated.outcome, "{label}: outcome");
        assert!(pinned.yields.len() >= 2, "{label}: migration not straddled");
        assert!(
            pinned.outcome.starts_with("halt ["),
            "{label}: {}",
            pinned.outcome
        );
    }
}

/// Once the migrated run is back on the destination tier, its parked
/// blob at the same yield ordinal is byte-identical to the blob of a
/// run pinned to that tier the whole way: the three VM tiers (and the
/// two sem machines) capture the identical portable state at matching
/// execution points, so the snapshot — digest included — carries no
/// trace of where the early slices ran.
#[test]
fn the_parked_blob_is_byte_portable_once_tiers_converge() {
    for (from, to) in [
        (EngineId::VmDecoded, EngineId::VmFused),
        (EngineId::Sem, EngineId::SemResolved),
    ] {
        let pinned = drive(to, None, None);
        let migrated = drive(from, Some((to, 1)), None);
        let label = format!("{} -> {}", from.name(), to.name());
        // Yield ordinal 2 is the first park taken on `to` in both runs.
        let pb = &pinned.blobs.iter().find(|(n, _)| *n == 2).unwrap().1;
        let mb = &migrated.blobs.iter().find(|(n, _)| *n == 2).unwrap().1;
        assert_eq!(pb, mb, "{label}: post-migration blobs diverge");
        let snap = Snapshot::decode(mb).unwrap();
        assert_eq!(snap.engine, to, "{label}: blob stamped with wrong tier");
        // And the ordinal-1 blobs differ only by the capturing tier:
        // re-stamping the engine makes them byte-equal too.
        let p1 = Snapshot::decode(&pinned.blobs[0].1).unwrap();
        let mut m1 = Snapshot::decode(&migrated.blobs[0].1).unwrap();
        assert_eq!(m1.engine, from, "{label}: first park ran on `from`");
        m1.engine = p1.engine;
        assert_eq!(p1.encode(), m1.encode(), "{label}: state not portable");
    }
}

#[test]
fn fault_logs_agree_under_a_chaos_schedule_that_straddles_the_migration() {
    for (from, to) in family_pairs() {
        let label = format!("{} -> {}", from.name(), to.name());
        // The chaos ops are the Table-1 dispatcher operations, so the
        // first faultable point is the resume after the first park.
        // Migrating at the *second* park therefore lets a schedule
        // straddle the move: find a seed with at least one fault
        // logged in the ordinal-2 blob (pre-migration) and at least
        // one more after it (the resume runs on the new tier).
        let mut found = None;
        for seed in 1..400u64 {
            let probe = drive(from, None, Some(seed));
            if probe.yields.len() < 2 {
                continue;
            }
            let at_park = Snapshot::decode(&probe.blobs[1].1)
                .unwrap()
                .chaos
                .map_or(0, |c| c.log.len());
            let final_len = probe.final_chaos.as_ref().map_or(0, |c| c.log.len());
            if at_park >= 1 && final_len > at_park {
                found = Some((seed, probe));
                break;
            }
        }
        let (seed, pinned) =
            found.unwrap_or_else(|| panic!("{label}: no straddling seed in range"));
        let migrated = drive(from, Some((to, 2)), Some(seed));
        assert!(migrated.migrations >= 1, "{label}: no migration recorded");
        assert_eq!(pinned.yields, migrated.yields, "{label}: yields");
        assert_eq!(pinned.outcome, migrated.outcome, "{label}: outcome");
        assert_eq!(
            pinned.final_chaos, migrated.final_chaos,
            "{label}: fault logs diverged across migration (seed {seed})"
        );
        let faults = migrated.final_chaos.as_ref().unwrap().log.len();
        assert!(faults >= 2, "{label}: vacuous chaos schedule");
    }
}

/// The serve path refuses a cross-family move with the same structured
/// diagnostic `cmm resume --engine` gives: both engines, both
/// families, and the blob digest.
#[test]
fn a_cross_family_move_is_refused_with_the_structured_diagnostic() {
    let mut svc = Service::new(ServeConfig {
        workers: 1,
        quantum: 50_000,
        migration: MigrationPolicy::Pinned,
        ..ServeConfig::default()
    });
    let id = svc
        .submit(SubmitReq {
            tenant: "mig".into(),
            source: SRC.into(),
            entry: "f".into(),
            args: vec![7, 4],
            results: 1,
            engine: EngineId::VmDecoded,
            ..SubmitReq::default()
        })
        .unwrap();
    // Fresh thread, no blob yet: refused on the submitted tier.
    let err = svc.set_engine(id, EngineId::Sem).unwrap_err();
    assert!(err.contains("engine families differ"), "{err}");
    assert!(err.contains("vm-decoded") && err.contains("sem"), "{err}");
    // Parked thread: refused on the blob, digest named.
    while svc.awaiting().is_empty() {
        svc.tick();
    }
    let digest = {
        let snap = Snapshot::decode(svc.parked_blob(id).unwrap()).unwrap();
        snap.digest.hex()
    };
    let err = svc.set_engine(id, EngineId::SemResolved).unwrap_err();
    assert!(err.contains("engine families differ"), "{err}");
    assert!(err.contains(&digest), "{err} should name digest {digest}");
    // The same-family move still succeeds afterwards.
    svc.set_engine(id, EngineId::VmFused).unwrap();
}
