//! The serve determinism wall (ISSUE 10, satellite 1): the execution
//! service schedules on the virtual cost-model clock over a fixed lane
//! count, so the scheduler event log, the deterministic metrics JSON,
//! and every non-wall figure of the load report must be byte-identical
//! no matter how many OS workers actually run the slices.
//!
//! Also here: the acceptance-scale run (≥ 1000 concurrently parked
//! threads over ≤ 8 workers with cross-tier migrations), a five-engine
//! agreement check through the service API, the per-tenant
//! resource-governor boundary, and the 32-bit word limit on arguments
//! and replies.

use cmm_serve::{
    acceptance_profile, dispatcher_fill, load_config, run_load, LoadProfile, LoadReport,
    MigrationPolicy, ServeConfig, Service, SubmitReq, ThreadState,
};
use cmm_snap::EngineId;

/// Everything in a [`LoadReport`] except the wall-clock rates, which
/// legitimately vary run to run.
fn deterministic_view(r: &LoadReport) -> Vec<(&'static str, u64)> {
    vec![
        ("threads", r.threads),
        ("completed", r.completed),
        ("yields", r.yields),
        ("migrations", r.migrations),
        ("parked_high_water", r.parked_high_water),
        ("quanta", r.quanta),
        ("virtual_ns", r.virtual_ns),
        ("virtual_rps", r.virtual_rps),
        ("queue_wait_p50", r.queue_wait_p50),
        ("queue_wait_p99", r.queue_wait_p99),
        ("turnaround_p50", r.turnaround_p50),
        ("turnaround_p99", r.turnaround_p99),
        ("event_digest", r.event_digest),
    ]
}

#[test]
fn the_event_log_and_metrics_are_byte_identical_across_worker_counts() {
    let profile = LoadProfile {
        tenants: 5,
        threads_per_tenant: 9,
        quanta: 0,
        seed: 41,
    };
    let runs: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&workers| {
            let (svc, report) = run_load(load_config(workers), &profile);
            let metrics = svc
                .registry()
                .expect("load_config turns metrics on")
                .to_json(false);
            (svc.events_text(), metrics, report)
        })
        .collect();
    let (ref events1, ref metrics1, ref report1) = runs[0];
    assert!(report1.completed == report1.threads, "all finish");
    assert!(report1.yields > 0, "the mix must exercise the yield path");
    assert!(report1.migrations > 0, "rotation must actually migrate");
    for (events, metrics, report) in &runs[1..] {
        assert_eq!(events1, events, "event logs diverged across -j");
        assert_eq!(metrics1, metrics, "deterministic metrics diverged");
        assert_eq!(deterministic_view(report1), deterministic_view(report));
    }
}

#[test]
fn a_thousand_parked_threads_ride_eight_workers_with_migrations() {
    let profile = acceptance_profile();
    assert!(profile.tenants * profile.threads_per_tenant >= 1000);
    let (svc, report) = run_load(load_config(8), &profile);
    assert_eq!(report.completed, report.threads);
    assert!(
        report.parked_high_water >= 1000,
        "expected >= 1000 concurrently parked threads, saw {}",
        report.parked_high_water
    );
    assert!(report.migrations >= 1, "no cross-tier migration happened");
    let stats = svc.stats();
    assert_eq!(stats.completed, report.completed);
    assert_eq!(stats.migrations, report.migrations);
    assert!(svc.idle(), "the drained service must report idle");
}

/// One yield-bearing program on all five engines: the sequence of yield
/// codes handed to the tenant and the final halt value must agree
/// everywhere, even though each engine counts cost differently.
#[test]
fn all_five_engines_agree_through_the_service_api() {
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
    let mut transcripts: Vec<(EngineId, Vec<u64>, String)> = Vec::new();
    for engine in EngineId::ALL {
        let mut svc = Service::new(ServeConfig {
            workers: 2,
            quantum: 5_000,
            migration: MigrationPolicy::Pinned,
            ..ServeConfig::default()
        });
        let id = svc
            .submit(SubmitReq {
                tenant: "agree".into(),
                name: "five".into(),
                source: SRC.into(),
                entry: "f".into(),
                args: vec![4, 10],
                results: 1,
                engine,
                ..SubmitReq::default()
            })
            .unwrap();
        let mut codes = Vec::new();
        let outcome = loop {
            svc.tick();
            match svc.poll(id).expect("thread exists").state {
                ThreadState::AwaitingTenant { code } => {
                    codes.push(code);
                    svc.resume(id, u64::from(dispatcher_fill(code))).unwrap();
                }
                ThreadState::Done { outcome } => break outcome,
                ThreadState::Runnable => {}
            }
        };
        transcripts.push((engine, codes, outcome));
    }
    let (_, ref codes0, ref outcome0) = transcripts[0];
    assert!(
        !codes0.is_empty(),
        "the program must yield at least once (outcome: {outcome0})"
    );
    assert!(outcome0.starts_with("halt ["), "unexpected: {outcome0}");
    for (engine, codes, outcome) in &transcripts[1..] {
        let name = engine.name();
        assert_eq!(codes0, codes, "yield transcript diverged on {name}");
        assert_eq!(outcome0, outcome, "outcome diverged on {name}");
    }
}

/// A tenant that exhausts its fuel budget is reported as such without
/// disturbing a well-behaved neighbour in the same tick.
#[test]
fn a_fuel_bankrupt_tenant_does_not_disturb_its_neighbour() {
    const SPIN: &str = r#"
        f(bits32 a, bits32 b) {
            bits32 i;
            i = 0;
          loop:
            if i == a { return (i); }
            i = i + 1;
            goto loop;
        }
    "#;
    let mut svc = Service::new(ServeConfig {
        workers: 2,
        quantum: 500,
        ..ServeConfig::default()
    });
    let broke = svc
        .submit(SubmitReq {
            tenant: "broke".into(),
            source: SPIN.into(),
            entry: "f".into(),
            args: vec![1_000_000, 0],
            results: 1,
            fuel: 2_000,
            ..SubmitReq::default()
        })
        .unwrap();
    let fine = svc
        .submit(SubmitReq {
            tenant: "fine".into(),
            source: SPIN.into(),
            entry: "f".into(),
            args: vec![50, 0],
            results: 1,
            ..SubmitReq::default()
        })
        .unwrap();
    while !svc.idle() {
        svc.tick();
    }
    match svc.poll(broke).unwrap().state {
        ThreadState::Done { outcome } => assert_eq!(outcome, "fuel"),
        other => panic!("expected a fuel verdict, got {other:?}"),
    }
    match svc.poll(fine).unwrap().state {
        ThreadState::Done { outcome } => assert_eq!(outcome, "halt [50]"),
        other => panic!("expected a halt, got {other:?}"),
    }
}

/// Arguments and replies are 32-bit machine words on every engine. A
/// wider word is refused up front — the abstract machines would
/// truncate it and the target keep it whole — and the widest word that
/// fits gets one answer everywhere.
#[test]
fn words_wider_than_32_bits_are_refused_on_every_engine() {
    const WIDE: &str = "f(bits64 n) { return (n + 1); }";
    const ECHO: &str = "f(bits32 n) { yield(n | 1) also aborts; return (n + 1); }";
    for engine in EngineId::ALL {
        let name = engine.name();
        let mut svc = Service::new(ServeConfig::default());
        let req = |source: &str, arg: u64| SubmitReq {
            source: source.into(),
            args: vec![arg],
            engine,
            ..SubmitReq::default()
        };
        let err = svc.submit(req(WIDE, 4_294_967_297)).unwrap_err();
        assert!(err.contains("32-bit"), "{name}: {err}");
        let id = svc.submit(req(ECHO, u64::from(u32::MAX))).unwrap();
        let outcome = loop {
            svc.tick();
            match svc.poll(id).expect("thread exists").state {
                ThreadState::AwaitingTenant { code } => {
                    assert_eq!(code, u64::from(u32::MAX), "{name}");
                    let err = svc.resume(id, 1 << 32).unwrap_err();
                    assert!(err.contains("32-bit"), "{name}: {err}");
                    svc.resume(id, u64::from(u32::MAX)).unwrap();
                }
                ThreadState::Done { outcome } => break outcome,
                ThreadState::Runnable => {}
            }
        };
        assert_eq!(outcome, "halt [0]", "{name}");
    }
}
