//! Multi-oracle differential execution.
//!
//! One generated program is run through every substrate the repository
//! implements:
//!
//! * the `cmm-sem` formal abstract machine on the **unoptimized** CFG —
//!   the reference oracle;
//! * `cmm-sem` again after each optimization pass *individually* and
//!   after the full pipeline (the per-pass oracles localize a
//!   miscompilation to the pass that introduced it);
//! * the `cmm-vm` simulated target, both unoptimized and fully
//!   optimized.
//!
//! Suspensions are driven by a fixed deterministic run-time-system
//! policy (see [`observe_sem`]) written once over the Table 1 trait
//! ([`cmm_chaos::Table1`]), so the *sequence of yield codes* is part of
//! the observation: the substrates must agree not only on final results
//! but on every interaction with the run-time system.
//!
//! Outcomes are compared coarsely for failing programs: the semantics
//! reports a structured [`cmm_sem::Wrong`] while the VM reports a fault
//! string, so "went wrong" states compare equal across substrates while
//! the detail text is kept for display.

use crate::genprog::TestCase;
use cmm_cfg::Program;
use cmm_chaos::Table1;
use cmm_chaos::{drive, schedule_seed, Budget, End, EngineId, Family, FaultPlan, InjectedFault};
use cmm_obs::{NopSink, RecordingSink, TimedEvent, TraceSink};
use cmm_opt::OptOptions;
use cmm_pool::{with_engine, Code, Setup};
use cmm_vm::VmProgram;
use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Execution limits shared by every oracle.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Transition budget per `run` of the abstract machine.
    pub sem_fuel: u64,
    /// Instruction budget per `run` of the simulated machine.
    pub vm_fuel: u64,
    /// Suspensions serviced before the run is cut off as [`Outcome::Fuel`].
    pub max_yields: usize,
}

impl Limits {
    /// The per-`run` budget of an engine family.
    pub fn fuel(&self, family: Family) -> u64 {
        match family {
            Family::Sem => self.sem_fuel,
            Family::Vm => self.vm_fuel,
        }
    }
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            sem_fuel: 2_000_000,
            vm_fuel: 20_000_000,
            max_yields: 64,
        }
    }
}

/// How an observed execution ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Normal termination with these result values.
    Halt(Vec<u64>),
    /// The program went wrong (semantics) or faulted (VM). Compared
    /// coarsely; the detail string lives outside the observation.
    Wrong,
    /// A Table 1 operation failed during dispatch (e.g. discarding a
    /// non-abortable activation).
    RtsError,
    /// Fuel or the suspension bound ran out.
    Fuel,
}

/// What an oracle observed: the final outcome plus the sequence of yield
/// codes serviced along the way.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Obs {
    /// How the run ended.
    pub outcome: Outcome,
    /// First `yield` argument of each suspension, in order.
    pub yields: Vec<u64>,
}

impl Obs {
    /// A display form including the substrate-specific detail text.
    pub fn describe(&self, detail: &str) -> String {
        let mut s = match &self.outcome {
            Outcome::Halt(vs) => format!("halt {vs:?}"),
            Outcome::Wrong => "wrong".to_string(),
            Outcome::RtsError => "rts-error".to_string(),
            Outcome::Fuel => "fuel".to_string(),
        };
        if !detail.is_empty() {
            let _ = write!(s, " ({detail})");
        }
        if !self.yields.is_empty() {
            let _ = write!(s, " after yields {:?}", self.yields);
        }
        s
    }
}

/// Runs `f(args)` on the formal semantics, servicing suspensions with
/// the fixed dispatcher policy. Returns the observation and a detail
/// string (empty unless something went wrong).
///
/// The policy ([`cmm_chaos::service_yield`]), executed identically by
/// every engine:
///
/// 1. record the yield code (the first `yield` argument);
/// 2. walk from the first activation one hop toward the caller (staying
///    on the first at the bottom of the stack);
/// 3. `SetActivation` there — discarding the yielder, which must be
///    suspended at an `also aborts` site;
/// 4. if the code is odd, try `SetUnwindCont(0)`, falling back to the
///    normal return point if the site has no unwind continuations
///    (`yield_codes::DIVZERO` is odd, so checked-primitive failures
///    take the unwind edge exactly when the call site is annotated);
/// 5. fill every continuation parameter with
///    [`cmm_chaos::dispatcher_fill`]`(code)`; `Resume`.
pub fn observe_sem(prog: &Program, args: (u32, u32), limits: &Limits) -> (Obs, String) {
    observe_plain(EngineId::Sem, &Code::sem(prog), args, limits)
}

/// [`observe_sem`] over the pre-resolved engine
/// ([`cmm_sem::ResolvedMachine`]) — the same policy, so its observation
/// must be identical to the reference oracle's.
pub fn observe_sem_resolved(prog: &Program, args: (u32, u32), limits: &Limits) -> (Obs, String) {
    observe_plain(EngineId::SemResolved, &Code::sem(prog), args, limits)
}

/// Runs `f(args)` on the simulated machine under the same dispatcher
/// policy as [`observe_sem`].
pub fn observe_vm(prog: &VmProgram, args: (u32, u32), limits: &Limits) -> (Obs, String) {
    observe_plain(EngineId::Vm, &Code::vm(prog), args, limits)
}

/// [`observe_vm`] over the pre-decoded engine ([`cmm_vm::DecodedCode`])
/// — the same policy, so its observation must be identical.
pub fn observe_vm_decoded(prog: &VmProgram, args: (u32, u32), limits: &Limits) -> (Obs, String) {
    observe_plain(EngineId::VmDecoded, &Code::vm(prog), args, limits)
}

/// [`observe_vm`] over the fused stream ([`cmm_vm::DecodedCode::fuse`])
/// — the same policy, so its observation must be identical.
pub fn observe_vm_fused(prog: &VmProgram, args: (u32, u32), limits: &Limits) -> (Obs, String) {
    observe_plain(EngineId::VmFused, &Code::vm(prog), args, limits)
}

/// [`observe_sem`] with a `cmm-chaos` fault plan installed on the
/// thread; additionally returns the log of faults actually injected.
pub fn observe_sem_chaos(
    prog: &Program,
    args: (u32, u32),
    limits: &Limits,
    plan: &FaultPlan,
) -> (Obs, String, Vec<InjectedFault>) {
    observe(
        EngineId::Sem,
        &Code::sem(prog),
        args,
        limits,
        Some(plan),
        NopSink,
    )
}

fn observe_plain(
    engine: EngineId,
    code: &Code<'_>,
    args: (u32, u32),
    limits: &Limits,
) -> (Obs, String) {
    let (o, d, _) = observe(engine, code, args, limits, None, NopSink);
    (o, d)
}

/// Runs `f(args)` on `engine` over `code` under the fixed dispatcher
/// policy, with an optional fault plan, recording into `sink`. Returns
/// the observation, its detail text, and the log of injected faults.
pub fn observe<S: TraceSink>(
    engine: EngineId,
    code: &Code<'_>,
    args: (u32, u32),
    limits: &Limits,
    plan: Option<&FaultPlan>,
    sink: S,
) -> (Obs, String, Vec<InjectedFault>) {
    let setup = Setup {
        chaos: plan.cloned(),
        ..Setup::default()
    };
    with_engine(engine, code, sink, setup, |t| {
        let (o, d) = observe_thread(t, args, limits);
        (o, d, fault_log(t))
    })
    .unwrap_or_else(|e| (obs(Outcome::RtsError, Vec::new()), e, Vec::new()))
}

fn obs(outcome: Outcome, yields: Vec<u64>) -> Obs {
    Obs { outcome, yields }
}

/// The faults injected into `t` so far.
pub(crate) fn fault_log(t: &dyn Table1) -> Vec<InjectedFault> {
    t.chaos().map(|p| p.log().to_vec()).unwrap_or_default()
}

/// The observation of `f(args)` on a built thread.
pub(crate) fn observe_thread(
    t: &mut dyn Table1,
    args: (u32, u32),
    limits: &Limits,
) -> (Obs, String) {
    if let Err(w) = t.start("f", &[u64::from(args.0), u64::from(args.1)], 1) {
        return (obs(Outcome::Wrong, Vec::new()), w);
    }
    let budget = Budget::new(limits.fuel(t.engine().family()), limits.max_yields as u64);
    let mut yields = Vec::new();
    let end = drive(t, budget, &mut yields, |_, _, _| Ok(())).unwrap_or_else(End::RtsError);
    let (outcome, detail) = end_outcome(end);
    (obs(outcome, yields), detail)
}

/// An observation's outcome and detail text for a drive's end.
fn end_outcome(end: End) -> (Outcome, String) {
    match end {
        End::Halted(words) => (Outcome::Halt(words), String::new()),
        End::Wrong(e) => (Outcome::Wrong, e),
        End::OutOfFuel => (Outcome::Fuel, "out of fuel".into()),
        End::SuspensionBound => (Outcome::Fuel, "suspension bound".into()),
        End::RtsError(e) => (Outcome::RtsError, e),
        End::Unexpected(s) => (Outcome::RtsError, format!("unexpected status {s}")),
        End::Paused { .. } => (Outcome::Fuel, "paused".into()),
    }
}

/// An observation plus the injected-fault log, described for reports.
pub(crate) fn describe_chaos(obs: &Obs, detail: &str, log: &[InjectedFault]) -> String {
    let mut s = obs.describe(detail);
    if !log.is_empty() {
        let faults: Vec<String> = log.iter().map(|f| f.to_string()).collect();
        let _ = write!(s, " faults [{}]", faults.join(", "));
    }
    s
}

/// Runs raw source under `schedules` seeded fault plans, asserting that
/// all five engines — reference semantics, pre-resolved semantics, VM,
/// pre-decoded VM, and fused VM — observe the *same* outcome, yield
/// sequence, and injected-fault log under each plan. Every oracle is
/// panic-isolated.
///
/// Schedule `k` uses `FaultPlan::seeded(schedule_seed(fault_seed, k))`,
/// so the whole sweep is bit-reproducible from `fault_seed`.
///
/// # Errors
///
/// As [`run_source`], plus [`Failure::Diverged`] with an oracle name of
/// the form `vm@chaos3` when engines disagree under schedule 3, and
/// [`Failure::Panicked`] if an engine panics instead of failing softly.
pub fn run_source_chaos(
    src: &str,
    args: (u32, u32),
    limits: &Limits,
    fault_seed: u64,
    schedules: u64,
) -> Result<(), Failure> {
    let module = cmm_parse::parse_module(src).map_err(|e| Failure::Parse(e.to_string()))?;
    let program = cmm_cfg::build_program(&module).map_err(|e| Failure::Build(e.to_string()))?;
    let vm_prog = cmm_vm::compile(&program).map_err(|e| Failure::Codegen(e.to_string()))?;
    let code = Code {
        program: Some(&program),
        vm: Some(&vm_prog),
        ..Code::default()
    };
    for k in 0..schedules {
        let plan = FaultPlan::seeded(schedule_seed(fault_seed, k));
        let run = |engine: EngineId| {
            guarded(&format!("{}@chaos{k}", engine.name()), || {
                observe(engine, &code, args, limits, Some(&plan), NopSink)
            })
        };
        let (reference, ref_detail, ref_log) = run(EngineId::Sem)?;
        let ref_desc = describe_chaos(&reference, &ref_detail, &ref_log);
        let compare =
            |name: &str, (o, d, log): (Obs, String, Vec<InjectedFault>)| -> Result<(), Failure> {
                if o == reference && log == ref_log {
                    Ok(())
                } else {
                    Err(Failure::Diverged {
                        oracle: format!("{name}@chaos{k}"),
                        reference: ref_desc.clone(),
                        observed: describe_chaos(&o, &d, &log),
                    })
                }
            };
        for engine in &EngineId::ALL[1..] {
            compare(engine.name(), run(*engine)?)?;
        }
    }
    Ok(())
}

/// Re-runs one named oracle over raw source with a recording sink in
/// the engine, returning the observation, its detail text, and the
/// recorded exception-flow event stream.
///
/// Oracle names are the ones [`run_source`] reports in
/// [`Failure::Diverged`] — `reference`, `sem-resolved`, `sem+<pass>`,
/// `vm`, `vm-decoded`, `vm-fused`, `vm+O2`, `vm-decoded+O2`,
/// `vm-fused+O2` — so a divergence can be replayed event-for-event.
/// Injected extra passes cannot be re-traced (their closures are gone
/// by reporting time).
///
/// # Errors
///
/// Returns a message if the source no longer compiles or the oracle
/// name is unknown.
pub fn observe_traced(
    src: &str,
    oracle: &str,
    args: (u32, u32),
    limits: &Limits,
) -> Result<(Obs, String, Vec<TimedEvent>), String> {
    let module = cmm_parse::parse_module(src).map_err(|e| e.to_string())?;
    let mut program = cmm_cfg::build_program(&module).map_err(|e| e.to_string())?;
    let unknown = || format!("oracle `{oracle}` cannot be re-traced");
    let (base, pass) = oracle.split_once('+').unwrap_or((oracle, ""));
    let engine = match base {
        "reference" if pass.is_empty() => EngineId::Sem,
        "reference" => return Err(unknown()),
        name => EngineId::parse(name).map_err(|_| unknown())?,
    };
    if !pass.is_empty() {
        // Per-pass oracles run the abstract machine; the target tiers
        // run only the full pipeline.
        let (_, opts) = pass_variants()
            .into_iter()
            .find(|(n, _)| *n == pass && (engine.family() == Family::Sem || *n == "O2"))
            .ok_or_else(unknown)?;
        cmm_opt::optimize_program(&mut program, &opts);
    }
    let vm_prog;
    let code = match engine.family() {
        Family::Sem => Code::sem(&program),
        Family::Vm => {
            vm_prog = cmm_vm::compile(&program).map_err(|e| e.to_string())?;
            Code::vm(&vm_prog)
        }
    };
    let mut rec = RecordingSink::default();
    let (o, d, _) = observe(engine, &code, args, limits, None, &mut rec);
    Ok((o, d, rec.events))
}

/// The optimization configurations the per-pass oracles run, each pass
/// individually and then the full pipeline.
pub fn pass_variants() -> Vec<(&'static str, OptOptions)> {
    vec![
        (
            "constprop",
            OptOptions {
                constprop: true,
                max_iters: 4,
                ..OptOptions::none()
            },
        ),
        (
            "localopt",
            OptOptions {
                localopt: true,
                max_iters: 4,
                ..OptOptions::none()
            },
        ),
        (
            "dce",
            OptOptions {
                dce: true,
                max_iters: 4,
                ..OptOptions::none()
            },
        ),
        (
            "callee-saves",
            OptOptions {
                callee_save_regs: 6,
                ..OptOptions::none()
            },
        ),
        ("O2", OptOptions::default()),
    ]
}

/// Why a test case failed.
#[derive(Clone, Debug)]
pub enum Failure {
    /// The rendered program did not parse (a generator bug).
    Parse(String),
    /// Pretty-printing then re-parsing did not reproduce the module.
    RoundTrip(String),
    /// CFG construction failed: `cmm_cfg::build_program` found the
    /// module ill formed (a generator bug).
    Build(String),
    /// VM code generation failed.
    Codegen(String),
    /// The snapshot layer itself failed: a suspended state could not be
    /// captured, a blob did not decode, a decoded blob did not re-encode
    /// byte-identically, or an engine rejected a restore. Always a
    /// `cmm-snap` (or capture/restore) bug.
    Snapshot(String),
    /// An oracle disagreed with the unoptimized-semantics reference.
    Diverged {
        /// Which oracle disagreed, e.g. `sem+dce` or `vm+O2`.
        oracle: String,
        /// The reference observation, described.
        reference: String,
        /// The divergent observation, described.
        observed: String,
    },
    /// An oracle panicked instead of reporting a recoverable status —
    /// always an engine bug. The panic is caught per oracle, so a
    /// crashing engine becomes a reported, shrinkable failure instead of
    /// killing the harness.
    Panicked {
        /// Which oracle panicked.
        oracle: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl Failure {
    /// A coarse classification, stable under shrinking: the minimizer
    /// only accepts candidates reproducing the original classification,
    /// so a shrunk reproducer demonstrates the *same kind* of bug.
    pub fn classify(&self) -> &'static str {
        match self {
            Failure::Parse(_) => "parse",
            Failure::RoundTrip(_) => "round-trip",
            Failure::Build(_) => "build",
            Failure::Codegen(_) => "codegen",
            Failure::Snapshot(_) => "snapshot",
            Failure::Diverged { .. } => "diverged",
            Failure::Panicked { .. } => "panicked",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Parse(e) => write!(f, "generated program does not parse: {e}"),
            Failure::RoundTrip(e) => write!(f, "pretty-print round trip failed: {e}"),
            Failure::Build(e) => write!(f, "CFG construction failed: {e}"),
            Failure::Codegen(e) => write!(f, "VM code generation failed: {e}"),
            Failure::Snapshot(e) => write!(f, "snapshot layer failed: {e}"),
            Failure::Diverged {
                oracle,
                reference,
                observed,
            } => {
                write!(
                    f,
                    "oracle {oracle} diverged: reference {reference}, observed {observed}"
                )
            }
            Failure::Panicked { oracle, message } => {
                write!(f, "oracle {oracle} panicked: {message}")
            }
        }
    }
}

/// Runs one oracle with panics isolated: a panicking engine is reported
/// as [`Failure::Panicked`] rather than unwinding through the harness.
pub(crate) fn guarded<T>(oracle: &str, f: impl FnOnce() -> T) -> Result<T, Failure> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let message = if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Failure::Panicked {
            oracle: oracle.to_string(),
            message,
        }
    })
}

fn diverged(oracle: String, reference: &Obs, ref_detail: &str, obs: &Obs, detail: &str) -> Failure {
    Failure::Diverged {
        oracle,
        reference: reference.describe(ref_detail),
        observed: obs.describe(detail),
    }
}

/// A named program transformation injected alongside the real passes
/// (used to test that the fuzzer catches miscompilation — see the
/// minimizer tests).
/// (`Sync` so `run_fuzz --jobs N` can evaluate cases on the `cmm-pool`
/// executor; closures capturing only shared state qualify unchanged.)
pub type ExtraPass<'a> = (&'a str, &'a (dyn Fn(&mut Program) + Sync));

/// Runs one case through every oracle; `Ok(())` means all agreed.
pub fn run_case(case: &TestCase, limits: &Limits) -> Result<(), Failure> {
    run_case_with(case, limits, &[])
}

/// [`run_case`] with extra injected passes, each checked like a real one.
pub fn run_case_with(
    case: &TestCase,
    limits: &Limits,
    extra_passes: &[ExtraPass<'_>],
) -> Result<(), Failure> {
    run_source_with(&case.render(), case.args, limits, extra_passes)
}

/// Runs raw C-- source through every oracle (the path corpus replay
/// takes: a checked-in reproducer is source text, not a generator
/// state).
///
/// # Errors
///
/// As [`run_case`].
pub fn run_source(src: &str, args: (u32, u32), limits: &Limits) -> Result<(), Failure> {
    run_source_with(src, args, limits, &[])
}

fn run_source_with(
    src: &str,
    case_args: (u32, u32),
    limits: &Limits,
    extra_passes: &[ExtraPass<'_>],
) -> Result<(), Failure> {
    let module = cmm_parse::parse_module(src).map_err(|e| Failure::Parse(e.to_string()))?;
    let printed = cmm_ir::pretty::module_to_string(&module);
    let reparsed = cmm_parse::parse_module(&printed)
        .map_err(|e| Failure::RoundTrip(format!("pretty output does not re-parse: {e}")))?;
    if reparsed != module {
        return Err(Failure::RoundTrip(
            "pretty output re-parses to a different module".into(),
        ));
    }
    let program = cmm_cfg::build_program(&module).map_err(|e| Failure::Build(e.to_string()))?;

    let (reference, ref_detail) =
        guarded("reference", || observe_sem(&program, case_args, limits))?;

    // The pre-resolved engine over the same unoptimized program: an
    // engine-equivalence oracle rather than a pass oracle.
    let (o, detail) = guarded("sem-resolved", || {
        observe_sem_resolved(&program, case_args, limits)
    })?;
    if o != reference {
        return Err(diverged(
            "sem-resolved".into(),
            &reference,
            &ref_detail,
            &o,
            &detail,
        ));
    }

    for (name, opts) in pass_variants() {
        let (o, detail) = guarded(&format!("sem+{name}"), || {
            let mut p = program.clone();
            cmm_opt::optimize_program(&mut p, &opts);
            observe_sem(&p, case_args, limits)
        })?;
        if o != reference {
            return Err(diverged(
                format!("sem+{name}"),
                &reference,
                &ref_detail,
                &o,
                &detail,
            ));
        }
    }

    for (name, pass) in extra_passes {
        let (o, detail) = guarded(&format!("sem+{name}"), || {
            let mut p = program.clone();
            pass(&mut p);
            observe_sem(&p, case_args, limits)
        })?;
        if o != reference {
            return Err(diverged(
                format!("sem+{name}"),
                &reference,
                &ref_detail,
                &o,
                &detail,
            ));
        }
    }

    // Every target tier, on the unoptimized program and then after -O2.
    let mut vp = cmm_vm::compile(&program).map_err(|e| Failure::Codegen(e.to_string()))?;
    for suffix in ["", "+O2"] {
        if !suffix.is_empty() {
            let mut p = program.clone();
            cmm_opt::optimize_program(&mut p, &OptOptions::default());
            vp = cmm_vm::compile(&p).map_err(|e| Failure::Codegen(format!("after O2: {e}")))?;
        }
        for engine in EngineId::ALL {
            if engine.family() != Family::Vm {
                continue;
            }
            let name = format!("{}{suffix}", engine.name());
            let (o, detail) = guarded(&name, || {
                observe_plain(engine, &Code::vm(&vp), case_args, limits)
            })?;
            if o != reference {
                return Err(diverged(name, &reference, &ref_detail, &o, &detail));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genprog::generate;
    use crate::rng::Rng;

    #[test]
    fn oracles_agree_on_generated_cases() {
        let limits = Limits::default();
        for seed in 0..40 {
            let case = generate(&mut Rng::new(seed));
            if let Err(f) = run_case(&case, &limits) {
                panic!("seed {seed} failed: {f}\n{}", case.render());
            }
        }
    }

    #[test]
    fn observations_include_yield_sequences() {
        // Some seed in a small range must suspend at least once; the two
        // substrates must agree on the whole sequence.
        let limits = Limits::default();
        let mut saw_yield = false;
        for seed in 0..60 {
            let case = generate(&mut Rng::new(seed));
            let src = case.render();
            let m = cmm_parse::parse_module(&src).unwrap();
            let prog = cmm_cfg::build_program(&m).unwrap();
            let (o, _) = observe_sem(&prog, case.args, &limits);
            saw_yield |= !o.yields.is_empty();
        }
        assert!(saw_yield, "no seed in 0..60 ever suspended");
    }

    #[test]
    fn traced_oracles_project_identically() {
        // The unoptimized engines run the same program, so their
        // exception-event projections must match event-for-event.
        // Wrong-outcome cases are skipped: the engines agree that such
        // runs are wrong but may fault at different trace granularity.
        let limits = Limits::default();
        let mut compared = 0;
        for seed in 0..25 {
            let case = generate(&mut Rng::new(seed));
            let src = case.render();
            let (ro, _, ref_events) =
                observe_traced(&src, "reference", case.args, &limits).unwrap();
            if matches!(ro.outcome, Outcome::Wrong) {
                continue;
            }
            let want = cmm_obs::projection(&ref_events);
            for oracle in ["sem-resolved", "vm", "vm-decoded", "vm-fused"] {
                let (_, _, events) = observe_traced(&src, oracle, case.args, &limits).unwrap();
                let got = cmm_obs::projection(&events);
                if let Err((i, a, b)) = cmm_obs::first_divergence(&want, &got) {
                    panic!("seed {seed} {oracle} event {i}: `{a}` vs `{b}`\n{src}");
                }
            }
            compared += 1;
        }
        assert!(compared > 0, "every seed in 0..25 went wrong");
    }

    #[test]
    fn injected_bad_pass_is_caught() {
        // A "pass" that forces every branch to its true arm is a
        // miscompilation the differential oracles must flag.
        let force_true = |p: &mut Program| {
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
        let limits = Limits::default();
        let caught = (0..60).any(|seed| {
            let case = generate(&mut Rng::new(seed));
            matches!(
                run_case_with(&case, &limits, &[("force-true", &force_true)]),
                Err(Failure::Diverged { .. })
            )
        });
        assert!(caught, "no seed in 0..60 exposed the forced-branch pass");
    }

    #[test]
    fn chaos_sweep_agrees_on_generated_cases() {
        let limits = Limits::default();
        for seed in 0..30 {
            let case = generate(&mut Rng::new(seed));
            if let Err(f) = run_source_chaos(&case.render(), case.args, &limits, seed, 3) {
                panic!("seed {seed} chaos sweep failed: {f}\n{}", case.render());
            }
        }
    }

    #[test]
    fn chaos_faults_actually_fire_on_yielding_cases() {
        // The sweep above is vacuous if no schedule ever trips; find a
        // (case, schedule) pair whose fault log is non-empty and check
        // all four engines observed the identical log.
        let limits = Limits::default();
        for seed in 0..60 {
            let case = generate(&mut Rng::new(seed));
            let src = case.render();
            let m = cmm_parse::parse_module(&src).unwrap();
            let prog = cmm_cfg::build_program(&m).unwrap();
            let vp = cmm_vm::compile(&prog).unwrap();
            for k in 0..5 {
                let plan = FaultPlan::seeded(schedule_seed(seed, k));
                let (o1, _, log) = observe_sem_chaos(&prog, case.args, &limits, &plan);
                if log.is_empty() {
                    continue;
                }
                let code = Code {
                    program: Some(&prog),
                    vm: Some(&vp),
                    ..Code::default()
                };
                let run = |e| observe(e, &code, case.args, &limits, Some(&plan), NopSink);
                let (o2, _, l2) = run(EngineId::SemResolved);
                let (o3, _, l3) = run(EngineId::Vm);
                let (o4, _, l4) = run(EngineId::VmDecoded);
                assert_eq!((&o1, &log), (&o2, &l2), "sem-resolved diverged\n{src}");
                assert_eq!((&o1, &log), (&o3, &l3), "vm diverged\n{src}");
                assert_eq!((&o1, &log), (&o4, &l4), "vm-decoded diverged\n{src}");
                return;
            }
        }
        panic!("no (seed, schedule) pair in 0..60 x 0..5 ever injected a fault");
    }

    #[test]
    fn chaos_observations_are_bit_reproducible() {
        // Same (case seed, fault seed) in, same observation out — twice.
        let limits = Limits::default();
        let case = generate(&mut Rng::new(11));
        let src = case.render();
        let m = cmm_parse::parse_module(&src).unwrap();
        let prog = cmm_cfg::build_program(&m).unwrap();
        let vp = cmm_vm::compile(&prog).unwrap();
        for k in 0..5 {
            let plan = FaultPlan::seeded(schedule_seed(99, k));
            assert_eq!(
                observe_sem_chaos(&prog, case.args, &limits, &plan),
                observe_sem_chaos(&prog, case.args, &limits, &plan),
            );
            assert_eq!(
                observe(
                    EngineId::Vm,
                    &Code::vm(&vp),
                    case.args,
                    &limits,
                    Some(&plan),
                    NopSink
                ),
                observe(
                    EngineId::Vm,
                    &Code::vm(&vp),
                    case.args,
                    &limits,
                    Some(&plan),
                    NopSink
                ),
            );
        }
    }

    #[test]
    fn panicking_pass_is_isolated_and_classified() {
        // A pass that panics outright must surface as a Panicked
        // failure naming the oracle, not abort the fuzzing run.
        let boom = |_: &mut Program| panic!("intentional test panic");
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let case = generate(&mut Rng::new(0));
        let result = run_case_with(&case, &Limits::default(), &[("boom", &boom)]);
        std::panic::set_hook(prev);
        match result {
            Err(f @ Failure::Panicked { .. }) => {
                assert_eq!(f.classify(), "panicked");
                assert!(f.to_string().contains("sem+boom"), "got: {f}");
                assert!(f.to_string().contains("intentional test panic"), "got: {f}");
            }
            other => panic!("expected a panicked failure, got {other:?}"),
        }
    }
}
