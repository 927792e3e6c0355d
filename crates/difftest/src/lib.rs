//! # cmm-difftest — differential fuzzing of the C-- substrates
//!
//! The repository implements the paper's intermediate language three
//! times over: a formal semantics (`cmm-sem`), an optimizer (`cmm-opt`),
//! and a simulated native target (`cmm-vm`), with the run-time interface
//! of Table 1 implemented over both executable substrates (`cmm-rt` and
//! `cmm-vm::runtime`). That redundancy is this crate's test oracle: any
//! program, however strange, must behave identically everywhere.
//!
//! The pipeline:
//!
//! 1. [`genprog`] generates structured random programs exercising the
//!    paper's exceptional-control-flow features — weak continuations,
//!    `cut to`, `also unwinds to` / `also returns to` / `also aborts`,
//!    tail calls, `yield`, and fallible/checked primitives — that are
//!    well formed by construction and terminate structurally;
//! 2. [`oracle`] builds each program with `cmm_cfg::build_program`, the
//!    one well-formedness check (a refusal is a generator bug), and runs
//!    it through the reference semantics, each optimization pass
//!    individually, the full pipeline, and the VM, comparing final
//!    results, "went wrong" states, and the sequence of yield codes
//!    serviced by a fixed deterministic run-time policy;
//! 3. [`shrink()`] delta-debugs any divergence down to a minimal
//!    reproducer, which [`run_fuzz`] writes to a corpus directory as a
//!    standalone `.cmm` file.
//!
//! Everything is reproducible from `(seed, index)`: see [`case_for`].

pub mod genprog;
pub mod oracle;
pub mod rng;
pub mod shrink;
pub mod snap_oracle;

pub use genprog::{generate, shrink_candidates, TestCase};
pub use oracle::{
    observe, observe_sem, observe_sem_chaos, observe_sem_resolved, observe_traced, observe_vm,
    observe_vm_decoded, observe_vm_fused, pass_variants, run_case, run_case_with, run_source,
    run_source_chaos, ExtraPass, Failure, Limits, Obs, Outcome,
};
pub use rng::Rng;
pub use shrink::shrink;
pub use snap_oracle::{run_source_snap, SnapStats, SNAP_SLICE};

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Configuration for a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Base seed; case `i` is derived from `(seed, i)` independently of
    /// the other cases.
    pub seed: u64,
    /// Minimize failing cases before reporting them.
    pub shrink: bool,
    /// Where to write reproducers for failing cases, if anywhere.
    pub corpus_dir: Option<PathBuf>,
    /// Per-oracle execution limits.
    pub limits: Limits,
    /// Maximum oracle evaluations the minimizer may spend per failure.
    pub shrink_budget: usize,
    /// Stop after this many failures.
    pub max_failures: usize,
    /// Additionally run each case under seeded Table 1 fault schedules
    /// (`cmm fuzz --chaos`), asserting all five engines observe the same
    /// outcomes and injected-fault logs.
    pub chaos: bool,
    /// Base seed for the fault schedules; schedule `k` of a case uses
    /// `schedule_seed(fault_seed, k)`.
    pub fault_seed: u64,
    /// Fault schedules per case when `chaos` is on.
    pub schedules: u64,
    /// Additionally run the snapshot-equivalence oracle on each case
    /// (`cmm fuzz --snap`): a straight run must deeply equal a run that
    /// is snapshotted, serialized, and restored into a different engine
    /// of the same family at every fuel-slice boundary — plain and
    /// under one seeded fault schedule.
    pub snap: bool,
    /// Fuel slice between snapshot boundaries when `snap` is on.
    pub snap_slice: u64,
    /// Worker threads for case checking (`cmm fuzz --jobs N`). `1`
    /// runs fully sequentially. Any value produces a bit-identical
    /// report: cases are *checked* in parallel on the `cmm-pool`
    /// executor, but failures are folded, shrunk, and written to the
    /// corpus in index order by the calling thread.
    pub jobs: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            cases: 1000,
            seed: 0,
            shrink: true,
            corpus_dir: None,
            limits: Limits::default(),
            shrink_budget: 4000,
            max_failures: 1,
            chaos: false,
            fault_seed: 0,
            schedules: 5,
            snap: false,
            snap_slice: snap_oracle::SNAP_SLICE,
            jobs: 1,
        }
    }
}

/// One failing case and what became of it.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// The case's index within the run.
    pub index: u64,
    /// The case as generated.
    pub case: TestCase,
    /// Why it failed.
    pub failure: Failure,
    /// The minimized case, when shrinking was enabled.
    pub shrunk: Option<TestCase>,
    /// Where the reproducer was written, when a corpus was configured.
    pub corpus_path: Option<PathBuf>,
    /// Where the divergence event-stream artifact was written, when the
    /// failure was a divergence and a corpus was configured.
    pub events_path: Option<PathBuf>,
}

/// The result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases_run: usize,
    /// Failures found (at most `max_failures`).
    pub failures: Vec<FailureReport>,
}

impl FuzzReport {
    /// Whether every case passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The test case for `(seed, index)`. Each index gets a decorrelated
/// generator stream, so a single failing case can be regenerated in
/// isolation without replaying the run.
pub fn case_for(seed: u64, index: u64) -> TestCase {
    let mut derive = Rng::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    generate(&mut derive.split())
}

/// Runs the fuzzer.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    run_fuzz_with(cfg, &[])
}

/// [`run_fuzz`] with extra injected passes (see [`oracle::run_case_with`]).
pub fn run_fuzz_with(cfg: &FuzzConfig, extra_passes: &[ExtraPass<'_>]) -> FuzzReport {
    let mut report = FuzzReport::default();
    // The full per-case check: the normal oracle stack, then (in chaos
    // mode) the cross-engine fault-schedule sweep.
    let check = |case: &TestCase| -> Result<(), Failure> {
        oracle::run_case_with(case, &cfg.limits, extra_passes)?;
        if cfg.chaos {
            oracle::run_source_chaos(
                &case.render(),
                case.args,
                &cfg.limits,
                cfg.fault_seed,
                cfg.schedules,
            )?;
        }
        if cfg.snap {
            let src = case.render();
            snap_oracle::run_source_snap(&src, case.args, &cfg.limits, cfg.snap_slice, None)?;
            let plan = cmm_chaos::FaultPlan::seeded(cmm_chaos::schedule_seed(cfg.fault_seed, 0));
            snap_oracle::run_source_snap(
                &src,
                case.args,
                &cfg.limits,
                cfg.snap_slice,
                Some(&plan),
            )?;
        }
        Ok(())
    };
    // Cases are *checked* in waves on the `cmm-pool` executor (inline
    // when `jobs <= 1`); everything order-sensitive — the `cases_run`
    // count, the `max_failures` cutoff, shrinking, corpus writes —
    // happens in this thread's index-ordered fold over each finished
    // wave, so the report is bit-identical for every `jobs` value. A
    // wave may check a few cases past the cutoff; their results are
    // discarded by the fold exactly as the sequential loop would never
    // have reached them.
    // Both sums saturate: `jobs` is a command-line number of any size.
    let wave = if cfg.jobs <= 1 {
        1
    } else {
        cfg.jobs.saturating_mul(8)
    };
    let total = cfg.cases as u64;
    let mut next = 0u64;
    'run: while next < total {
        let hi = next.saturating_add(wave as u64).min(total);
        let outcomes = cmm_pool::run_jobs(cfg.jobs, (next..hi).collect(), |_, i| {
            check(&case_for(cfg.seed, i))
        });
        for (k, outcome) in outcomes.into_iter().enumerate() {
            let index = next + k as u64;
            let case = case_for(cfg.seed, index);
            report.cases_run += 1;
            let result = match outcome {
                cmm_pool::JobOutcome::Done(r) => r,
                // Every oracle is individually panic-isolated, so a
                // panic escaping `check` itself is a harness bug;
                // report it in the oracle layer's vocabulary instead
                // of unwinding through the fuzz loop.
                cmm_pool::JobOutcome::Panicked(message) => Err(Failure::Panicked {
                    oracle: "harness".into(),
                    message,
                }),
            };
            let Err(failure) = result else {
                continue;
            };
            let shrunk = if cfg.shrink {
                // Only candidates reproducing the original classification
                // count: shrinking must not wander from, say, a panic to an
                // unrelated divergence.
                let class = failure.classify();
                Some(shrink::shrink(
                    &case,
                    &mut |c| check(c).is_err_and(|f| f.classify() == class),
                    cfg.shrink_budget,
                ))
            } else {
                None
            };
            let reported = shrunk.as_ref().unwrap_or(&case);
            let chaos = cfg.chaos.then_some((cfg.fault_seed, cfg.schedules));
            let snap = cfg.snap.then_some(cfg.snap_slice);
            let corpus_path = cfg.corpus_dir.as_deref().and_then(|dir| {
                write_reproducer(dir, cfg.seed, index, reported, &failure, chaos, snap).ok()
            });
            // Shrinking may move the divergence to a different oracle, so
            // the artifact names whichever oracle fails on the *reported*
            // case.
            let diverged_oracle =
                match oracle::run_source(&reported.render(), reported.args, &cfg.limits) {
                    Err(Failure::Diverged { oracle, .. }) => Some(oracle),
                    _ => match &failure {
                        Failure::Diverged { oracle, .. } => Some(oracle.clone()),
                        _ => None,
                    },
                };
            let events_path = match (cfg.corpus_dir.as_deref(), diverged_oracle) {
                (Some(dir), Some(oracle)) => write_divergence_events(
                    dir,
                    cfg.seed,
                    index,
                    &reported.render(),
                    reported.args,
                    &cfg.limits,
                    &oracle,
                )
                .ok(),
                _ => None,
            };
            report.failures.push(FailureReport {
                index,
                case,
                failure,
                shrunk,
                corpus_path,
                events_path,
            });
            if report.failures.len() >= cfg.max_failures {
                break 'run;
            }
        }
        next = hi;
    }
    report
}

/// Writes a standalone reproducer file `case-s<seed>-i<index>.cmm` into
/// `dir`, creating it if necessary. The header comment records the
/// failure and how to re-run the case; a chaos-sweep failure records its
/// `(fault_seed, schedules)` so [`replay_corpus`] re-runs the same fault
/// schedules, and a snapshot-oracle failure records its fuel slice so
/// replay re-runs the snapshot-equivalence check too.
#[allow(clippy::too_many_arguments)]
pub fn write_reproducer(
    dir: &Path,
    seed: u64,
    index: u64,
    case: &TestCase,
    failure: &Failure,
    chaos: Option<(u64, u64)>,
    snap: Option<u64>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("case-s{seed}-i{index}.cmm"));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "/* cmm-difftest reproducer (seed {seed}, case {index})"
    );
    let _ = writeln!(text, " *");
    for line in failure.to_string().lines() {
        let _ = writeln!(text, " * {line}");
    }
    let _ = writeln!(text, " *");
    let chaos_flags = match chaos {
        Some((fault_seed, schedules)) => {
            format!(" --chaos --fault-seed {fault_seed} --schedules {schedules}")
        }
        None => String::new(),
    };
    let snap_flags = match snap {
        Some(slice) => format!(" --snap --snap-slice {slice}"),
        None => String::new(),
    };
    let _ = writeln!(
        text,
        " * Reproduce with: cmm fuzz --seed {seed} --cases {} --shrink{chaos_flags}{snap_flags}",
        index + 1
    );
    let _ = writeln!(text, " * Entry point: f({}, {})", case.args.0, case.args.1);
    if let Some((fault_seed, schedules)) = chaos {
        let _ = writeln!(
            text,
            " * Chaos: fault-seed {fault_seed}, schedules {schedules}"
        );
    }
    if let Some(slice) = snap {
        let _ = writeln!(text, " * Snap: slice {slice}");
    }
    let _ = writeln!(text, " */");
    text.push_str(&case.render());
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Writes the divergence event-stream artifact
/// `case-s<seed>-i<index>.events.txt` next to the reproducer: the
/// reference oracle and the diverging oracle re-run with recording
/// sinks, the first diverging event of their exception projections, and
/// both full event logs. This is the observability counterpart of the
/// reproducer — the `.cmm` file says *what* to re-run, the `.events.txt`
/// says *where* the two substrates parted ways.
///
/// # Errors
///
/// Returns the I/O error if the directory or file cannot be written.
pub fn write_divergence_events(
    dir: &Path,
    seed: u64,
    index: u64,
    src: &str,
    args: (u32, u32),
    limits: &Limits,
    oracle_name: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("case-s{seed}-i{index}.events.txt"));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "cmm-difftest divergence events (seed {seed}, case {index}, oracle {oracle_name})"
    );
    let _ = writeln!(
        text,
        "replay: cmm fuzz --seed {seed} --cases {} --shrink",
        index + 1
    );
    let reference = oracle::observe_traced(src, "reference", args, limits);
    let observed = oracle::observe_traced(src, oracle_name, args, limits);
    match (&reference, &observed) {
        (Ok((_, _, re)), Ok((_, _, oe))) => {
            let rp = cmm_obs::projection(re);
            let op = cmm_obs::projection(oe);
            match cmm_obs::first_divergence(&rp, &op) {
                Ok(()) => {
                    let _ = writeln!(
                        text,
                        "exception projections agree; the divergence is in results or yields only"
                    );
                }
                Err((i, l, r)) => {
                    let _ = writeln!(text, "first diverging event, at projection index {i}:");
                    let _ = writeln!(text, "  reference:    {l}");
                    let _ = writeln!(text, "  {oracle_name}: {r}");
                }
            }
        }
        _ => {
            let _ = writeln!(text, "(one of the traced re-runs failed; logs follow)");
        }
    }
    for (label, run) in [("reference", &reference), (oracle_name, &observed)] {
        match run {
            Ok((obs, detail, events)) => {
                let _ = writeln!(text, "\n== {label}: {} ==", obs.describe(detail));
                for t in events {
                    let _ = writeln!(text, "{:>10}  {}", t.ts, t.event.render());
                }
            }
            Err(e) => {
                let _ = writeln!(text, "\n== {label}: re-trace failed: {e} ==");
            }
        }
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

/// One checked-in reproducer that diverged (or stopped parsing) on
/// replay.
#[derive(Clone, Debug)]
pub struct ReplayFailure {
    /// The corpus file.
    pub path: PathBuf,
    /// Why it failed.
    pub failure: Failure,
}

/// The result of replaying a corpus directory.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Corpus files replayed.
    pub files_run: usize,
    /// Files that no longer pass the oracle stack.
    pub failures: Vec<ReplayFailure>,
}

impl ReplayReport {
    /// Whether every corpus file still passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Replays every `.cmm` reproducer in `dir` (sorted by file name)
/// through the full oracle stack — reference semantics, every pass
/// variant, and both VM engines. Entry arguments are recovered from the
/// reproducer header written by [`write_reproducer`]
/// (`* Entry point: f(A, B)`), defaulting to `f(0, 0)` for hand-written
/// corpus files without one. A `* Chaos: fault-seed F, schedules K`
/// header additionally replays the case under the same K fault
/// schedules through all five engines. A `* Snap: slice N` header
/// additionally replays the case through the snapshot-equivalence
/// oracle at that fuel slice — plain, and (when a chaos header is also
/// present) under the first of its fault schedules.
///
/// A file that fails to parse is itself a failure: a stale corpus must
/// be loud, not silently skipped.
///
/// # Errors
///
/// Returns the I/O error if the directory or a file cannot be read.
pub fn replay_corpus(dir: &Path, limits: &Limits) -> std::io::Result<ReplayReport> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cmm"))
        .collect();
    files.sort();
    let mut report = ReplayReport::default();
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let args = entry_args(&text).unwrap_or((0, 0));
        report.files_run += 1;
        let replayed = oracle::run_source(&text, args, limits)
            .and_then(|()| match chaos_header(&text) {
                Some((fault_seed, schedules)) => {
                    oracle::run_source_chaos(&text, args, limits, fault_seed, schedules)
                }
                None => Ok(()),
            })
            .and_then(|()| match snap_header(&text) {
                Some(slice) => {
                    snap_oracle::run_source_snap(&text, args, limits, slice, None)?;
                    if let Some((fault_seed, _)) = chaos_header(&text) {
                        let plan =
                            cmm_chaos::FaultPlan::seeded(cmm_chaos::schedule_seed(fault_seed, 0));
                        snap_oracle::run_source_snap(&text, args, limits, slice, Some(&plan))?;
                    }
                    Ok(())
                }
                None => Ok(()),
            });
        if let Err(failure) = replayed {
            report.failures.push(ReplayFailure { path, failure });
        }
    }
    Ok(report)
}

/// Parses the `* Entry point: f(A, B)` header line of a reproducer.
fn entry_args(text: &str) -> Option<(u32, u32)> {
    let line = text.lines().find(|l| l.contains("Entry point: f("))?;
    let open = line.find("f(")? + 2;
    let close = line[open..].find(')')? + open;
    let mut parts = line[open..close].split(',');
    let a = parts.next()?.trim().parse().ok()?;
    let b = parts.next()?.trim().parse().ok()?;
    Some((a, b))
}

/// Parses the `* Snap: slice N` header line.
fn snap_header(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.contains("Snap: slice "))?;
    let rest = &line[line.find("slice ")? + "slice ".len()..];
    rest.trim().parse().ok()
}

/// Parses the `* Chaos: fault-seed F, schedules K` header line.
fn chaos_header(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.contains("Chaos: fault-seed "))?;
    let rest = &line[line.find("fault-seed ")? + "fault-seed ".len()..];
    let mut parts = rest.split(',');
    let fault_seed = parts.next()?.trim().parse().ok()?;
    let sched_part = parts.next()?.trim();
    let schedules = sched_part.strip_prefix("schedules ")?.trim().parse().ok()?;
    Some((fault_seed, schedules))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_derivation_is_stable_and_independent() {
        assert_eq!(case_for(0, 7), case_for(0, 7));
        assert_ne!(case_for(0, 7), case_for(0, 8));
        assert_ne!(case_for(0, 7), case_for(1, 7));
    }

    #[test]
    fn a_clean_run_reports_no_failures() {
        let cfg = FuzzConfig {
            cases: 25,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert_eq!(report.cases_run, 25);
        assert!(
            report.ok(),
            "{:?}",
            report.failures.first().map(|f| f.failure.to_string())
        );
    }

    #[test]
    fn entry_args_reads_the_reproducer_header() {
        assert_eq!(
            entry_args("/* x\n * Entry point: f(3, 41)\n */"),
            Some((3, 41))
        );
        assert_eq!(entry_args("f() { return (0); }"), None);
    }

    #[test]
    fn replay_accepts_a_passing_reproducer_and_rejects_a_stale_one() {
        let dir = std::env::temp_dir().join("cmm-difftest-replay-selftest");
        let _ = std::fs::remove_dir_all(&dir);
        let case = case_for(5, 2);
        let failure = Failure::Build("synthetic".into());
        write_reproducer(&dir, 5, 2, &case, &failure, None, None).unwrap();
        std::fs::write(dir.join("case-stale.cmm"), "not a program at all").unwrap();
        let report = replay_corpus(&dir, &Limits::default()).unwrap();
        assert_eq!(report.files_run, 2);
        assert_eq!(report.failures.len(), 1, "only the stale file fails");
        assert!(report.failures[0].path.ends_with("case-stale.cmm"));
        assert!(matches!(report.failures[0].failure, Failure::Parse(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn divergence_event_artifact_contains_both_logs() {
        let dir = std::env::temp_dir().join("cmm-difftest-events-selftest");
        let _ = std::fs::remove_dir_all(&dir);
        let case = case_for(1, 0);
        let src = case.render();
        let path =
            write_divergence_events(&dir, 1, 0, &src, case.args, &Limits::default(), "vm").unwrap();
        assert!(path.ends_with("case-s1-i0.events.txt"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("replay: cmm fuzz --seed 1"), "{text}");
        assert!(text.contains("== reference:"), "{text}");
        assert!(text.contains("== vm:"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reproducers_are_valid_cmm_with_a_header() {
        let dir = std::env::temp_dir().join("cmm-difftest-selftest");
        let _ = std::fs::remove_dir_all(&dir);
        let case = case_for(3, 1);
        let failure = Failure::Build("synthetic".into());
        let path = write_reproducer(&dir, 3, 1, &case, &failure, None, None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("/* cmm-difftest reproducer"));
        cmm_parse::parse_module(&text).expect("reproducer parses (comment included)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_header_round_trips() {
        assert_eq!(
            chaos_header("/* x\n * Chaos: fault-seed 7, schedules 3\n */"),
            Some((7, 3))
        );
        assert_eq!(chaos_header("/* no chaos here */"), None);
    }

    #[test]
    fn snap_header_round_trips() {
        let dir = std::env::temp_dir().join("cmm-difftest-snap-header-selftest");
        let _ = std::fs::remove_dir_all(&dir);
        let case = case_for(5, 2);
        let failure = Failure::Snapshot("synthetic".into());
        let path = write_reproducer(&dir, 5, 2, &case, &failure, None, Some(16)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("--snap --snap-slice 16"), "{text}");
        assert_eq!(snap_header(&text), Some(16));
        assert_eq!(snap_header("/* no snap here */"), None);
        // The replayed corpus must actually run the snapshot oracle.
        let report = replay_corpus(&dir, &Limits::default()).unwrap();
        assert!(report.ok(), "{:?}", report.failures);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrinking_preserves_the_failure_classification() {
        // Property (satellite of the chaos PR): the minimized case must
        // reproduce the *same classification* of failure as the case it
        // was shrunk from, for every failure in a sweep against a
        // deliberately broken pass.
        let force_true = |p: &mut cmm_cfg::Program| {
            for g in p.procs.values_mut() {
                for id in 0..g.nodes.len() {
                    let id = cmm_cfg::NodeId(id as u32);
                    if let cmm_cfg::Node::Branch { t, .. } = g.node(id) {
                        let t = *t;
                        *g.node_mut(id) = cmm_cfg::Node::Branch {
                            cond: cmm_ir::Expr::b32(1),
                            t,
                            f: t,
                        };
                    }
                }
            }
        };
        let cfg = FuzzConfig {
            cases: 80,
            shrink: true,
            shrink_budget: 400,
            max_failures: 3,
            ..FuzzConfig::default()
        };
        let passes: &[ExtraPass<'_>] = &[("force-true", &force_true)];
        let report = run_fuzz_with(&cfg, passes);
        assert!(
            !report.failures.is_empty(),
            "no case in 0..80 exposed the forced-branch pass"
        );
        for f in &report.failures {
            let shrunk = f.shrunk.as_ref().expect("shrinking was enabled");
            let refail = oracle::run_case_with(shrunk, &cfg.limits, passes)
                .expect_err("shrunk case must still fail");
            assert_eq!(
                refail.classify(),
                f.failure.classify(),
                "shrunk case slid from {} to {}",
                f.failure,
                refail
            );
        }
    }

    #[test]
    fn parallel_fuzzing_is_bit_identical_to_sequential() {
        // The --jobs satellite's contract: the report — cases run,
        // failure indices, failure text, shrunk reproducers, corpus
        // files — is a pure function of the config, not of the worker
        // count. Exercised against a deliberately broken pass so the
        // run actually finds, shrinks, and writes failures.
        let force_true = |p: &mut cmm_cfg::Program| {
            for g in p.procs.values_mut() {
                for id in 0..g.nodes.len() {
                    let id = cmm_cfg::NodeId(id as u32);
                    if let cmm_cfg::Node::Branch { t, .. } = g.node(id) {
                        let t = *t;
                        *g.node_mut(id) = cmm_cfg::Node::Branch {
                            cond: cmm_ir::Expr::b32(1),
                            t,
                            f: t,
                        };
                    }
                }
            }
        };
        let passes: &[ExtraPass<'_>] = &[("force-true", &force_true)];
        let corpus = |tag: &str| std::env::temp_dir().join(format!("cmm-difftest-jobs-{tag}"));
        let run = |jobs: usize, tag: &str| {
            let dir = corpus(tag);
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = FuzzConfig {
                cases: 60,
                shrink: true,
                shrink_budget: 200,
                max_failures: 2,
                corpus_dir: Some(dir.clone()),
                jobs,
                ..FuzzConfig::default()
            };
            let report = run_fuzz_with(&cfg, passes);
            let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
                .map(|rd| {
                    rd.filter_map(|e| e.ok())
                        .map(|e| {
                            (
                                e.file_name().to_string_lossy().into_owned(),
                                std::fs::read_to_string(e.path()).unwrap(),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            files.sort();
            let _ = std::fs::remove_dir_all(&dir);
            (report, files)
        };
        let (seq, seq_files) = run(1, "j1");
        let (par, par_files) = run(4, "j4");
        assert!(!seq.failures.is_empty(), "broken pass must be caught");
        assert_eq!(seq.cases_run, par.cases_run);
        assert_eq!(seq.failures.len(), par.failures.len());
        for (a, b) in seq.failures.iter().zip(&par.failures) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.case.render(), b.case.render());
            assert_eq!(a.failure.to_string(), b.failure.to_string());
            assert_eq!(
                a.shrunk.as_ref().map(|c| c.render()),
                b.shrunk.as_ref().map(|c| c.render())
            );
        }
        assert_eq!(seq_files, par_files, "corpus bytes differ across -j");
    }
}
