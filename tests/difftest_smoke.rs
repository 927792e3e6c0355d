//! Bounded, deterministic smoke suite for the differential fuzzer.
//!
//! Full-scale runs (`cmm fuzz --cases 2000 --seed 0` and up) are for the
//! command line and CI; these tests keep a fixed, small case budget so
//! `cargo test` stays fast while still executing every stage of the
//! pipeline: generation, the pretty-print/re-parse round trip, the
//! `build_program` well-formedness post-condition, all oracles, the
//! minimizer, and the corpus writer.

use cmm_cfg::{Node, NodeId, Program};
use cmm_difftest::{
    case_for, observe_sem, observe_sem_resolved, observe_vm, observe_vm_decoded, run_fuzz,
    run_fuzz_with, Failure, FuzzConfig, Limits,
};

fn smoke_config(cases: usize) -> FuzzConfig {
    FuzzConfig {
        cases,
        seed: 0,
        shrink: true,
        ..FuzzConfig::default()
    }
}

/// The oracles agree on a fixed budget of generated programs.
#[test]
fn fuzz_smoke_all_oracles_agree() {
    let report = run_fuzz(&smoke_config(120));
    assert_eq!(report.cases_run, 120);
    assert!(
        report.ok(),
        "case {} failed: {}",
        report.failures[0].index,
        report.failures[0].failure
    );
}

/// The pre-resolved `cmm-sem` engine and the pre-decoded `cmm-vm`
/// engine agree with their reference step loops — on results, on
/// goes-wrong states, and on the full yield sequence — across 200
/// generated programs. This is the direct old-vs-new cross-check; the
/// full oracle matrix (per-pass, O2) runs in
/// [`fuzz_smoke_all_oracles_agree`].
#[test]
fn generated_programs_agree_across_engines() {
    let limits = Limits::default();
    let mut checked = 0;
    for index in 0..200u64 {
        let case = case_for(0, index);
        let module = cmm_parse::parse_module(&case.render()).expect("generated program parses");
        let prog = cmm_cfg::build_program(&module).expect("generated program builds");
        let (reference, ref_detail) = observe_sem(&prog, case.args, &limits);
        let (resolved, detail) = observe_sem_resolved(&prog, case.args, &limits);
        assert_eq!(
            resolved,
            reference,
            "case {index}: resolved sem engine diverged: reference {}, observed {}\n{}",
            reference.describe(&ref_detail),
            resolved.describe(&detail),
            case.render()
        );
        let vp = cmm_vm::compile(&prog).expect("generated program compiles");
        let (vm_ref, vm_ref_detail) = observe_vm(&vp, case.args, &limits);
        let (decoded, detail) = observe_vm_decoded(&vp, case.args, &limits);
        assert_eq!(
            decoded,
            vm_ref,
            "case {index}: decoded vm engine diverged: reference {}, observed {}\n{}",
            vm_ref.describe(&vm_ref_detail),
            decoded.describe(&detail),
            case.render()
        );
        checked += 1;
    }
    assert_eq!(checked, 200);
}

/// Case derivation is pure in (seed, index): re-running a slice of the
/// space reproduces it exactly.
#[test]
fn fuzz_is_deterministic() {
    for index in [0u64, 5, 63] {
        assert_eq!(case_for(0, index).render(), case_for(0, index).render());
    }
    assert_ne!(case_for(0, 1).render(), case_for(0, 2).render());
}

/// A deliberately broken "optimization" that forces every branch to its
/// true arm — a miscompilation the fuzzer must catch.
fn force_branches_true(p: &mut Program) {
    for g in p.procs.values_mut() {
        for i in 0..g.nodes.len() {
            let id = NodeId(i as u32);
            if let Node::Branch { t, .. } = g.node(id) {
                let t = *t;
                *g.node_mut(id) = Node::Branch {
                    cond: cmm_ir::Expr::b32(1),
                    t,
                    f: t,
                };
            }
        }
    }
}

/// The minimizer turns whatever case first exposes the bad pass into a
/// reproducer of at most 10 IR statements.
#[test]
fn injected_bad_pass_is_caught_and_shrunk_small() {
    let cfg = smoke_config(60);
    let report = run_fuzz_with(&cfg, &[("force-true", &force_branches_true)]);
    let failure = report
        .failures
        .first()
        .expect("the bad pass must be caught within 60 cases");
    assert!(
        matches!(failure.failure, Failure::Diverged { .. }),
        "{}",
        failure.failure
    );
    let shrunk = failure.shrunk.as_ref().expect("shrinking was enabled");
    assert!(
        shrunk.stmt_count() <= 10,
        "reproducer should be tiny, got {} statements:\n{}",
        shrunk.stmt_count(),
        shrunk.render()
    );
    // The shrunk case still exposes the bug on its own.
    let r =
        cmm_difftest::run_case_with(shrunk, &cfg.limits, &[("force-true", &force_branches_true)]);
    assert!(matches!(r, Err(Failure::Diverged { .. })));
}

/// Failing cases are written to the corpus directory as standalone,
/// parseable C-- files with a reproduction header.
#[test]
fn corpus_reproducers_are_written() {
    let dir = std::env::temp_dir().join("cmm-difftest-corpus-test");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FuzzConfig {
        corpus_dir: Some(dir.clone()),
        ..smoke_config(60)
    };
    let report = run_fuzz_with(&cfg, &[("force-true", &force_branches_true)]);
    let failure = report
        .failures
        .first()
        .expect("the bad pass must be caught");
    let path = failure.corpus_path.as_ref().expect("corpus path recorded");
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.starts_with("/* cmm-difftest reproducer"));
    assert!(text.contains("Reproduce with"));
    cmm_parse::parse_module(&text).expect("reproducer parses");
    let _ = std::fs::remove_dir_all(&dir);
}
