//! The checked-in corpus must replay clean, and the chaos regression
//! guard in it must not be vacuous: its seeded schedules have to inject
//! faults into the dispatch exchange, or the file guards nothing.

use cmm_difftest::oracle::{observe_sem_chaos, run_source_chaos, Limits};
use cmm_difftest::replay_corpus;
use std::path::Path;

fn corpus_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/difftest; the corpus lives at the
    // repository root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

#[test]
fn checked_in_corpus_replays_clean() {
    let report = replay_corpus(&corpus_dir(), &Limits::default()).unwrap();
    assert!(report.files_run >= 4, "corpus went missing?");
    if let Some(f) = report.failures.first() {
        panic!("{} fails replay: {}", f.path.display(), f.failure);
    }
}

#[test]
fn chaos_guard_reproducer_fires_faults() {
    let src = std::fs::read_to_string(corpus_dir().join("chaos-dispatch-faults.cmm")).unwrap();
    let limits = Limits::default();
    // The header says fault-seed 0, schedules 5; the sweep must pass...
    run_source_chaos(&src, (3, 4), &limits, 0, 5).unwrap();
    // ...and at least one of those schedules must actually inject.
    let m = cmm_parse::parse_module(&src).unwrap();
    let prog = cmm_cfg::build_program(&m).unwrap();
    let fired: usize = (0..5)
        .map(|k| {
            let plan = cmm_chaos::FaultPlan::seeded(cmm_chaos::schedule_seed(0, k));
            let (_, _, log) = observe_sem_chaos(&prog, (3, 4), &limits, &plan);
            log.len()
        })
        .sum();
    assert!(
        fired > 0,
        "no schedule injects a fault — the guard is vacuous"
    );
}

#[test]
fn snap_guard_reproducer_crosses_boundaries() {
    // The header says slice 16; the replay above already ran it through
    // the snapshot oracle, but the guard is vacuous unless that slice
    // actually produces snapshots on this workload.
    let src = std::fs::read_to_string(corpus_dir().join("snap-cross-engine-resume.cmm")).unwrap();
    let stats = cmm_difftest::run_source_snap(&src, (3, 4), &Limits::default(), 16, None).unwrap();
    assert!(
        stats.snapshots > 0,
        "slice 16 never crosses a boundary — the snap guard guards nothing"
    );
}
