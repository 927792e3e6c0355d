//! # cmm-chaos — deterministic fault injection and fuel slicing
//!
//! The paper's Table 1 runtime interface is the one channel through
//! which a front-end run-time system manipulates a suspended thread.
//! This crate makes that channel *hostile on demand*: a [`FaultPlan`] is
//! a seeded, engine-independent schedule that makes any Table 1
//! operation fail at its Nth invocation, and a [`ResourceGovernor`]
//! clips the fuel of each `run` call to a slice, on top of the ordinary
//! fuel counter.
//!
//! Both pieces are deliberately dependency-free and engine-agnostic:
//! the *same* `FaultPlan` (same seed) installed on the `cmm-rt`
//! dispatcher and on the `cmm-vm` dispatcher trips the same operations
//! at the same invocation counts, so all five engines observe an
//! identical fault schedule and — if the engines are correct — fail
//! identically; and every engine counts fuel in its own transitions,
//! so within a family both engines of a pair stop at exactly the same
//! slice boundary.
//!
//! Every decision is a pure function of the seed: a chaos run is
//! bit-reproducible from `(case seed, fault seed)`.
//!
//! The crate also holds the engine-neutral Table 1 vocabulary the fault
//! plan is written against: the engine table ([`EngineId`], [`Family`])
//! and the [`Table1`] trait every engine implements (see [`engine`]).

use std::fmt;

pub mod engine;

pub use engine::{
    dispatcher_fill, drive, service_yield, Budget, End, EngineId, Family, Stop, Table1,
};

/// The Table 1 operations a [`FaultPlan`] can fail, plus `Run`
/// (fuel-slice interruption points are not faultable but share the
/// counter machinery).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ChaosOp {
    /// `FirstActivation(t, &a)`.
    FirstActivation,
    /// `NextActivation(&a)`.
    NextActivation,
    /// `GetDescriptor(a, n)`.
    GetDescriptor,
    /// `SetActivation(t, a)`.
    SetActivation,
    /// `SetUnwindCont(t, n)`.
    SetUnwindCont,
    /// `SetCutToCont(t, k)`.
    SetCutToCont,
    /// `FindContParam(t, n)`.
    FindContParam,
    /// `Resume(t)`.
    Resume,
}

/// All faultable operations, in schedule order.
pub const CHAOS_OPS: [ChaosOp; 8] = [
    ChaosOp::FirstActivation,
    ChaosOp::NextActivation,
    ChaosOp::GetDescriptor,
    ChaosOp::SetActivation,
    ChaosOp::SetUnwindCont,
    ChaosOp::SetCutToCont,
    ChaosOp::FindContParam,
    ChaosOp::Resume,
];

impl ChaosOp {
    /// Stable lower-case name (used in events, errors, and reproducer
    /// headers).
    pub fn name(self) -> &'static str {
        match self {
            ChaosOp::FirstActivation => "first-activation",
            ChaosOp::NextActivation => "next-activation",
            ChaosOp::GetDescriptor => "get-descriptor",
            ChaosOp::SetActivation => "set-activation",
            ChaosOp::SetUnwindCont => "set-unwind-cont",
            ChaosOp::SetCutToCont => "set-cut-to-cont",
            ChaosOp::FindContParam => "find-cont-param",
            ChaosOp::Resume => "resume",
        }
    }

    fn index(self) -> usize {
        CHAOS_OPS.iter().position(|&o| o == self).unwrap()
    }
}

impl fmt::Display for ChaosOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injected fault: operation plus the 1-based invocation at which
/// it tripped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InjectedFault {
    /// Which Table 1 operation failed.
    pub op: ChaosOp,
    /// The 1-based invocation count at which it failed.
    pub invocation: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} #{}", self.op, self.invocation)
    }
}

/// `splitmix64` — the workspace-standard seed mixer (also used by the
/// difftest case derivation), reimplemented here so the crate stays
/// dependency-free.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the fault seed for schedule `k` of a sweep rooted at `seed`.
/// Pure mixing, so sweeps are reproducible from `(seed, k)` alone.
pub fn schedule_seed(seed: u64, k: u64) -> u64 {
    let mut s = seed ^ k.wrapping_mul(0xd605_bbb5_8c8a_bc03);
    splitmix64(&mut s)
}

/// A deterministic fault schedule over the Table 1 operations.
///
/// Construction pre-commits, per operation, the invocation count at
/// which that operation fails (if any). Execution-side state is only
/// the per-operation invocation counters and the log of faults actually
/// injected, so installing *clones* of one plan on several engines
/// yields identical schedules on each.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Per-op: fail at this 1-based invocation (`None` = never).
    fail_at: [Option<u64>; CHAOS_OPS.len()],
    /// Per-op invocation counters.
    seen: [u64; CHAOS_OPS.len()],
    /// Every fault injected so far, in trip order.
    log: Vec<InjectedFault>,
}

/// Latest invocation (per Table 1 op) at which a seeded fault plan may
/// schedule its failure. Small, so most scheduled faults actually fire
/// within a dispatch exchange or two: the one horizon of difftest's
/// chaos oracles, `chaos=SEED` batch jobs and chaos-seeded serve
/// threads.
const CHAOS_HORIZON: u64 = 4;

impl FaultPlan {
    /// A plan that never injects anything (useful as a baseline).
    pub fn quiet() -> FaultPlan {
        FaultPlan {
            seed: 0,
            fail_at: [None; CHAOS_OPS.len()],
            seen: [0; CHAOS_OPS.len()],
            log: Vec::new(),
        }
    }

    /// Derives a schedule from a seed.
    ///
    /// Each operation independently gets a ~50% chance of a scheduled
    /// failure, at an invocation count drawn from `1..=CHAOS_HORIZON`
    /// (4). The small horizon biases faults toward the first few
    /// dispatches — where the interesting recovery paths are — while
    /// leaving many runs with late (never-reached) faults so the happy
    /// path stays covered.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut s = seed;
        let mut fail_at = [None; CHAOS_OPS.len()];
        for slot in &mut fail_at {
            let roll = splitmix64(&mut s);
            let nth = splitmix64(&mut s);
            if roll & 1 == 0 {
                *slot = Some(1 + nth % CHAOS_HORIZON);
            }
        }
        FaultPlan {
            seed,
            fail_at,
            seen: [0; CHAOS_OPS.len()],
            log: Vec::new(),
        }
    }

    /// A plan that fails exactly one operation at one invocation —
    /// handy for targeted experiments and unit tests.
    pub fn failing(op: ChaosOp, invocation: u64) -> FaultPlan {
        let mut plan = FaultPlan::quiet();
        plan.fail_at[op.index()] = Some(invocation.max(1));
        plan
    }

    /// Records one invocation of `op`; returns the fault to inject if
    /// this invocation is the scheduled one.
    pub fn trip(&mut self, op: ChaosOp) -> Option<InjectedFault> {
        let i = op.index();
        self.seen[i] += 1;
        if self.fail_at[i] == Some(self.seen[i]) {
            let fault = InjectedFault {
                op,
                invocation: self.seen[i],
            };
            self.log.push(fault);
            Some(fault)
        } else {
            None
        }
    }

    /// Every fault injected so far, in trip order.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// The scheduled failure invocation for `op`, if any.
    pub fn scheduled(&self, op: ChaosOp) -> Option<u64> {
        self.fail_at[op.index()]
    }

    /// How many times `op` has been invoked so far.
    pub fn invocations(&self, op: ChaosOp) -> u64 {
        self.seen[op.index()]
    }

    /// Exports the plan's full mid-run state — schedule, per-op
    /// invocation counters, and the injection log — so a checkpointed
    /// thread can park its fault plan alongside the machine state and
    /// pick up the schedule exactly where it left off.
    pub fn state(&self) -> FaultPlanState {
        FaultPlanState {
            seed: self.seed,
            fail_at: self.fail_at,
            seen: self.seen,
            log: self.log.clone(),
        }
    }

    /// Rebuilds a plan from exported state: the restored plan trips at
    /// exactly the invocations the original still had scheduled, and
    /// its log continues from the faults already injected.
    pub fn from_state(st: &FaultPlanState) -> FaultPlan {
        FaultPlan {
            seed: st.seed,
            fail_at: st.fail_at,
            seen: st.seen,
            log: st.log.clone(),
        }
    }

    /// A one-line rendering of the schedule (reproducer headers).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for op in CHAOS_OPS {
            if let Some(n) = self.scheduled(op) {
                parts.push(format!("{op}@{n}"));
            }
        }
        if parts.is_empty() {
            "no scheduled faults".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// The exported mid-run state of a [`FaultPlan`] (see
/// [`FaultPlan::state`]). All fields are public so a serializer can
/// write them without this crate growing a wire format of its own.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlanState {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Per-op scheduled failure invocation, in [`CHAOS_OPS`] order.
    pub fail_at: [Option<u64>; CHAOS_OPS.len()],
    /// Per-op invocation counters, in [`CHAOS_OPS`] order.
    pub seen: [u64; CHAOS_OPS.len()],
    /// Every fault injected so far, in trip order.
    pub log: Vec<InjectedFault>,
}

/// The one resource limit an engine enforces beyond the fuel counter:
/// a per-`run` fuel slice. Batch jobs and serve threads set it, and
/// snapshot blobs record it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResourceGovernor {
    /// Upper bound on the fuel any single `run` call may consume: the
    /// per-yield slice. `run(fuel)` becomes `run(min(fuel, slice))`.
    pub fuel_slice: Option<u64>,
}

impl ResourceGovernor {
    /// A governor with no slice: `run(fuel)` keeps all its fuel.
    pub fn unlimited() -> ResourceGovernor {
        ResourceGovernor::default()
    }

    /// The fuel actually granted for one `run` call.
    pub fn slice(&self, fuel: u64) -> u64 {
        match self.fuel_slice {
            Some(s) => fuel.min(s),
            None => fuel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        assert_eq!(a, b);
        // Essentially always differs across seeds.
        assert_ne!(
            FaultPlan::seeded(1).describe(),
            FaultPlan::seeded(2).describe()
        );
    }

    #[test]
    fn trips_exactly_once_at_the_scheduled_invocation() {
        let mut p = FaultPlan::quiet();
        p.fail_at[ChaosOp::Resume.index()] = Some(3);
        assert_eq!(p.trip(ChaosOp::Resume), None);
        assert_eq!(p.trip(ChaosOp::Resume), None);
        let f = p.trip(ChaosOp::Resume).expect("third invocation trips");
        assert_eq!((f.op, f.invocation), (ChaosOp::Resume, 3));
        assert_eq!(p.trip(ChaosOp::Resume), None);
        assert_eq!(p.log(), &[f]);
    }

    #[test]
    fn clones_replay_the_same_schedule() {
        let plan = FaultPlan::seeded(7);
        let mut a = plan.clone();
        let mut b = plan;
        for _ in 0..10 {
            for op in CHAOS_OPS {
                assert_eq!(a.trip(op), b.trip(op));
            }
        }
        assert_eq!(a.log(), b.log());
    }

    #[test]
    fn exported_state_continues_the_schedule() {
        // Trip partway, export, restore: the restored plan must be
        // indistinguishable from the original for the rest of the run.
        let mut p = FaultPlan::seeded(7);
        for op in CHAOS_OPS {
            p.trip(op);
        }
        let mut q = FaultPlan::from_state(&p.state());
        assert_eq!(p, q);
        for _ in 0..8 {
            for op in CHAOS_OPS {
                assert_eq!(p.trip(op), q.trip(op));
            }
        }
        assert_eq!(p.log(), q.log());
    }

    #[test]
    fn schedule_seeds_spread() {
        let s0 = schedule_seed(1, 0);
        let s1 = schedule_seed(1, 1);
        assert_ne!(s0, s1);
        assert_eq!(s0, schedule_seed(1, 0));
    }

    #[test]
    fn governor_checks() {
        let g = ResourceGovernor {
            fuel_slice: Some(10),
        };
        assert_eq!(g.slice(25), 10);
        assert_eq!(g.slice(3), 3);
        let u = ResourceGovernor::unlimited();
        assert_eq!(u.slice(25), 25);
    }

    #[test]
    fn describe_lists_scheduled_ops() {
        let mut p = FaultPlan::quiet();
        assert_eq!(p.describe(), "no scheduled faults");
        p.fail_at[ChaosOp::Resume.index()] = Some(2);
        p.fail_at[ChaosOp::FirstActivation.index()] = Some(1);
        assert_eq!(p.describe(), "first-activation@1, resume@2");
    }
}
