//! The snapshot-equivalence oracle: run-to-end must deeply equal
//! snapshot-at-every-boundary-plus-resume.
//!
//! For each engine family the oracle runs a program twice under the
//! standard dispatcher policy (see [`crate::oracle::observe_sem`]):
//!
//! * **straight** — each inter-yield segment gets its full fuel budget
//!   in one `run` call, exactly as the regular oracles drive;
//! * **sliced** — fuel is granted `slice` transitions at a time, and at
//!   *every* resumable boundary (each fuel-slice exhaustion and each
//!   suspension) the machine is captured, encoded with `cmm-snap`,
//!   decoded, byte-identity-rechecked, and restored into a **fresh
//!   machine of a different engine** of the same family: the sem run
//!   alternates reference ↔ pre-resolved, the VM run rotates
//!   stepped → decoded → fused. Chaos fault-plan state rides in the
//!   snapshot, so an interrupted fault schedule resumes mid-flight.
//!
//! The two runs must then agree on *everything observable*: outcome,
//! yield sequence, injected-fault log, the exception-event projection
//! (trace events accumulate across segments; the restored clock
//! continues, so the streams concatenate seamlessly), and the deep
//! final state — memory byte-for-byte, and the step count (sem) or the
//! full cost vector and register file (VM, bit-identical instruction
//! counts). Any disagreement is a [`Failure::Diverged`] naming a
//! `*-snap` oracle; any failure of the snapshot machinery itself
//! (capture refused, blob rejected, restore rejected, re-encode not
//! byte-identical) is a [`Failure::Snapshot`].

use crate::oracle::{
    describe_chaos, fault_log, guarded, observe_thread, Failure, Limits, Obs, Outcome,
};
use cmm_chaos::{dispatcher_fill, service_yield, EngineId, FaultPlan, InjectedFault, Stop, Table1};
use cmm_obs::{RecordingSink, TimedEvent};
use cmm_pool::{with_engine, Code, Setup, SourceKey};
use cmm_sem::ResolvedProgram;
use cmm_snap::{Digest, SnapMeta, Snapshot};

/// Default fuel slice between snapshot boundaries: small enough that
/// non-trivial programs cross many boundaries, large enough to keep the
/// oracle fast.
pub const SNAP_SLICE: u64 = 64;

/// What a snapshot-equivalence check did: how many snapshots were
/// taken (across both families) and their total encoded size.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SnapStats {
    /// Snapshot/restore cycles performed.
    pub snapshots: u64,
    /// Total encoded bytes across those snapshots.
    pub bytes: u64,
}

/// The deep final state of a run ([`Table1::deep_state`]).
type Final = (Vec<(u64, u8)>, Vec<u64>);

/// Everything one run of a family produces, for deep comparison.
struct RunOut {
    obs: Obs,
    detail: String,
    log: Vec<InjectedFault>,
    fin: Final,
    events: Vec<TimedEvent>,
}

fn snap_err(e: impl std::fmt::Display) -> Failure {
    Failure::Snapshot(e.to_string())
}

/// Encode → decode → re-encode one snapshot, checking byte identity,
/// envelope equality, and the digest. Returns the decoded snapshot.
fn cycle(snap: &Snapshot, stats: &mut SnapStats) -> Result<Snapshot, Failure> {
    let bytes = snap.encode();
    let decoded = Snapshot::decode(&bytes).map_err(|e| snap_err(format!("decode: {e}")))?;
    if &decoded != snap {
        return Err(snap_err(
            "decoded snapshot is not equal to the captured one",
        ));
    }
    if decoded.encode() != bytes {
        return Err(snap_err(
            "re-encoding a decoded snapshot is not byte-identical",
        ));
    }
    decoded.check_digest(snap.digest).map_err(snap_err)?;
    stats.snapshots += 1;
    stats.bytes += bytes.len() as u64;
    Ok(decoded)
}

fn meta(args: (u32, u32), budget: u64, yields_done: usize) -> SnapMeta {
    SnapMeta {
        entry: "f".into(),
        args: vec![u64::from(args.0), u64::from(args.1)],
        fuel_remaining: budget,
        yields_done: yields_done as u64,
        opt: false,
    }
}

/// The straight traced run: the regular policy loop, one full-budget
/// `run` per segment, on the family's first engine.
fn straight(
    engine: EngineId,
    code: &Code<'_>,
    args: (u32, u32),
    limits: &Limits,
    plan: Option<&FaultPlan>,
) -> Result<RunOut, Failure> {
    let mut rec = RecordingSink::default();
    let setup = Setup {
        chaos: plan.cloned(),
        ..Setup::default()
    };
    let mut out = with_engine(engine, code, &mut rec, setup, |t| {
        let (obs, detail) = observe_thread(t, args, limits);
        RunOut {
            obs,
            detail,
            log: fault_log(t),
            fin: t.deep_state(),
            events: Vec::new(),
        }
    })
    .map_err(snap_err)?;
    out.events = rec.events;
    Ok(out)
}

/// How one segment of a sliced run ended.
enum Segment {
    /// The run is over.
    Done(RunOut),
    /// Captured at a boundary; the flag says whether at a yield.
    Parked(Box<Snapshot>, bool),
}

/// Where a sliced run stands between segments.
struct Sliced<'a> {
    args: (u32, u32),
    limits: &'a Limits,
    slice: u64,
    digest: Digest,
    yields: Vec<u64>,
    budget: u64,
}

impl Sliced<'_> {
    /// Runs one segment on a fresh thread: restore the parked snapshot
    /// (servicing its yield) or start, run one slice, then finish or
    /// capture.
    fn segment(
        &mut self,
        t: &mut dyn Table1,
        parked: Option<(&Snapshot, bool)>,
        plan: Option<&FaultPlan>,
    ) -> Result<Segment, Failure> {
        let done = |t: &dyn Table1, outcome: Outcome, detail: String, yields: &[u64]| {
            Segment::Done(RunOut {
                obs: Obs {
                    outcome,
                    yields: yields.to_vec(),
                },
                detail,
                log: fault_log(t),
                fin: t.deep_state(),
                events: Vec::new(),
            })
        };
        match parked {
            None => {
                if let Some(p) = plan {
                    t.set_chaos(p.clone());
                }
                let args = [u64::from(self.args.0), u64::from(self.args.1)];
                if let Err(w) = t.start("f", &args, 1) {
                    return Ok(done(t, Outcome::Wrong, w, &self.yields));
                }
            }
            Some((snap, at_yield)) => {
                snap.restore_into(t)
                    .map_err(|e| snap_err(format!("restore into {}: {e}", t.engine().name())))?;
                if at_yield {
                    let code = t.yield_arg(0);
                    self.yields.push(code);
                    let fill = u64::from(dispatcher_fill(code));
                    if let Err(e) = service_yield(t, code, fill) {
                        return Ok(done(t, Outcome::RtsError, e, &self.yields));
                    }
                    self.budget = self.limits.fuel(t.engine().family());
                }
            }
        }
        let before = t.fuel_spent();
        let stop = t.run(self.slice.min(self.budget));
        self.budget = self
            .budget
            .saturating_sub(t.fuel_spent().saturating_sub(before));
        let (out, detail) = match stop {
            Stop::OutOfFuel if self.budget > 0 => {
                return self.park(t, false);
            }
            Stop::Suspended if self.yields.len() < self.limits.max_yields => {
                return self.park(t, true);
            }
            Stop::Halted(words) => (Outcome::Halt(words), String::new()),
            Stop::Wrong(e) => (Outcome::Wrong, e),
            Stop::OutOfFuel => (Outcome::Fuel, "out of fuel".into()),
            Stop::Suspended => (Outcome::Fuel, "suspension bound".into()),
            Stop::Other(s) => (Outcome::RtsError, format!("unexpected status {s}")),
        };
        Ok(done(t, out, detail, &self.yields))
    }

    fn park(&self, t: &dyn Table1, at_yield: bool) -> Result<Segment, Failure> {
        let m = meta(self.args, self.budget, self.yields.len());
        let snap = Snapshot::capture(t, self.digest, m, None).map_err(snap_err)?;
        Ok(Segment::Parked(Box::new(snap), at_yield))
    }
}

/// The sliced run: snapshot at every boundary, then restore into a
/// fresh thread of the family's next engine.
#[allow(clippy::too_many_arguments)] // one parameter per oracle knob
fn sliced(
    first: EngineId,
    code: &Code<'_>,
    args: (u32, u32),
    limits: &Limits,
    slice: u64,
    plan: Option<&FaultPlan>,
    digest: Digest,
    stats: &mut SnapStats,
) -> Result<RunOut, Failure> {
    let mut run = Sliced {
        args,
        limits,
        slice,
        digest,
        yields: Vec::new(),
        budget: limits.fuel(first.family()),
    };
    let mut rec = RecordingSink::default();
    let mut engine = first;
    let mut parked: Option<(Snapshot, bool)> = None;
    loop {
        let resume = parked.as_ref().map(|(s, y)| (s, *y));
        let seg = with_engine(engine, code, &mut rec, Setup::default(), |t| {
            run.segment(t, resume, plan)
        })
        .map_err(snap_err)??;
        match seg {
            Segment::Done(mut out) => {
                out.events = rec.events;
                return Ok(out);
            }
            Segment::Parked(snap, at_yield) => {
                parked = Some((cycle(&snap, stats)?, at_yield));
                engine = engine.next_tier();
            }
        }
    }
}

// ----- comparison and entry point -----

/// Compares a straight run against its sliced+snapshotted twin on
/// observation, fault log, exception projection, and deep final state.
fn compare(family: &str, straight: &RunOut, sliced: &RunOut) -> Result<(), Failure> {
    if sliced.obs != straight.obs || sliced.log != straight.log {
        return Err(Failure::Diverged {
            oracle: format!("{family}-snap"),
            reference: describe_chaos(&straight.obs, &straight.detail, &straight.log),
            observed: describe_chaos(&sliced.obs, &sliced.detail, &sliced.log),
        });
    }
    let want = cmm_obs::projection(&straight.events);
    let got = cmm_obs::projection(&sliced.events);
    if let Err((i, a, b)) = cmm_obs::first_divergence(&want, &got) {
        return Err(Failure::Diverged {
            oracle: format!("{family}-snap@projection"),
            reference: format!("event {i}: {a}"),
            observed: format!("event {i}: {b}"),
        });
    }
    if sliced.fin != straight.fin {
        return Err(Failure::Diverged {
            oracle: format!("{family}-snap@state"),
            reference: describe_final(&straight.fin),
            observed: describe_final(&sliced.fin),
        });
    }
    Ok(())
}

fn describe_final((mem, words): &Final) -> String {
    format!(
        "work {}, {} memory bytes, state words fnv {:#x}",
        words.first().copied().unwrap_or(0),
        mem.len(),
        words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    )
}

/// Runs the snapshot-equivalence oracle on raw C-- source: for both
/// engine families, the straight run and the
/// snapshot-at-every-boundary run (with cross-engine restores, under an
/// optional chaos fault plan) must agree on observation, fault log,
/// trace projection, and deep final state. See the module docs.
///
/// # Errors
///
/// [`Failure::Parse`]/[`Failure::Build`]/[`Failure::Codegen`] if the
/// source does not compile, [`Failure::Snapshot`] if the snapshot
/// machinery itself fails, [`Failure::Diverged`] (oracle `sem-snap`,
/// `vm-snap`, or a `@projection`/`@state` refinement) if the runs
/// disagree, [`Failure::Panicked`] if an engine panics.
pub fn run_source_snap(
    src: &str,
    args: (u32, u32),
    limits: &Limits,
    slice: u64,
    plan: Option<&FaultPlan>,
) -> Result<SnapStats, Failure> {
    if slice == 0 {
        return Err(Failure::Snapshot("slice must be positive".into()));
    }
    let module = cmm_parse::parse_module(src).map_err(|e| Failure::Parse(e.to_string()))?;
    let program = cmm_cfg::build_program(&module).map_err(|e| Failure::Build(e.to_string()))?;
    let vm_prog = cmm_vm::compile(&program).map_err(|e| Failure::Codegen(e.to_string()))?;
    let rp = ResolvedProgram::new(&program);
    let code = Code {
        program: Some(&program),
        resolved: Some(&rp),
        vm: Some(&vm_prog),
        ..Code::default()
    };
    let mut stats = SnapStats::default();
    for first in [EngineId::Sem, EngineId::Vm] {
        let family = first.family().name();
        let digest = SourceKey::cmm(src, false, first.family()).digest();
        let want = guarded(&format!("{family}-snap/straight"), || {
            straight(first, &code, args, limits, plan)
        })??;
        let got = guarded(&format!("{family}-snap/sliced"), || {
            sliced(first, &code, args, limits, slice, plan, digest, &mut stats)
        })??;
        compare(family, &want, &got)?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genprog::generate;
    use crate::oracle::CHAOS_HORIZON;
    use crate::rng::Rng;
    use cmm_chaos::schedule_seed;

    #[test]
    fn snapshot_equivalence_on_generated_cases() {
        let limits = Limits::default();
        let mut snapped = 0u64;
        for seed in 0..25 {
            let case = generate(&mut Rng::new(seed));
            match run_source_snap(&case.render(), case.args, &limits, SNAP_SLICE, None) {
                Ok(stats) => snapped += stats.snapshots,
                Err(f) => panic!("seed {seed} failed: {f}\n{}", case.render()),
            }
        }
        assert!(snapped > 0, "no case in 0..25 ever crossed a boundary");
    }

    #[test]
    fn snapshot_equivalence_under_chaos() {
        let limits = Limits::default();
        let mut faulted = false;
        for seed in 0..20 {
            let case = generate(&mut Rng::new(seed));
            let plan = FaultPlan::seeded(schedule_seed(seed, 0), CHAOS_HORIZON);
            match run_source_snap(&case.render(), case.args, &limits, SNAP_SLICE, Some(&plan)) {
                Ok(_) => {}
                Err(f) => panic!("seed {seed} chaos snap failed: {f}\n{}", case.render()),
            }
            // The sweep is vacuous unless some plan actually fires.
            let m = cmm_parse::parse_module(&case.render()).unwrap();
            let p = cmm_cfg::build_program(&m).unwrap();
            let (_, _, log) = crate::oracle::observe_sem_chaos(&p, case.args, &limits, &plan);
            faulted |= !log.is_empty();
        }
        assert!(faulted, "no seed in 0..20 ever injected a fault");
    }

    #[test]
    fn tiny_slices_agree_too() {
        // Boundary density maximized: a slice of 1 snapshots at every
        // single transition of a small case.
        let limits = Limits::default();
        let case = generate(&mut Rng::new(3));
        let stats = run_source_snap(&case.render(), case.args, &limits, 1, None)
            .unwrap_or_else(|f| panic!("slice=1 failed: {f}\n{}", case.render()));
        assert!(stats.snapshots > 0);
    }

    #[test]
    fn zero_slice_is_rejected() {
        assert!(matches!(
            run_source_snap("f() { return (0); }", (0, 0), &Limits::default(), 0, None),
            Err(Failure::Snapshot(_))
        ));
    }
}
