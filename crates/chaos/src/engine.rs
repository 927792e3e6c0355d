//! The engine vocabulary every layer shares: which engines exist
//! ([`EngineId`], [`Family`]), the Table 1 interface all of them
//! implement ([`Table1`]), and the drive loop that runs any of them
//! under the fixed dispatcher policy ([`drive`]).
//!
//! The paper's claim is that one run-time interface serves every
//! implementation. [`Table1`] is that interface as a trait: `cmm-rt`
//! implements it for the abstract machines, `cmm-vm` for the simulated
//! target, and every consumer — the difftest oracles, the batch runner,
//! the execution service, the CLI, the MiniM3 dispatcher — is written
//! once against it.

use crate::FaultPlan;
use std::any::Any;

/// One execution engine. The names are the workspace's canonical engine
/// names, used by `cmm batch` manifests, `cmm snap`, the service
/// protocol, and the difftest oracles.
///
/// Declaration order is tier order, and the derived `Ord` relies on it:
/// within a family a later tier runs on artifacts built over an earlier
/// tier's (vm-fused over vm-decoded over vm), so the batch runner warms
/// a group of jobs by compiling for its greatest engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EngineId {
    /// The reference abstract machine.
    Sem,
    /// The pre-resolved abstract machine.
    SemResolved,
    /// The simulated target, stepped over `Inst`.
    Vm,
    /// The simulated target's fast loop over the pre-decoded stream.
    VmDecoded,
    /// The same loop over the stream with fused windows.
    VmFused,
}

/// An engine family: engines of one family run the same compiled
/// artifacts and capture the same machine state, so a snapshot taken on
/// one resumes on any other.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Family {
    /// The abstract machines (reference and pre-resolved).
    Sem,
    /// The simulated target (all three tiers).
    Vm,
}

impl EngineId {
    /// All five engines, in tier order (also the snapshot tag order).
    pub const ALL: [EngineId; 5] = [
        EngineId::Sem,
        EngineId::SemResolved,
        EngineId::Vm,
        EngineId::VmDecoded,
        EngineId::VmFused,
    ];

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            EngineId::Sem => "sem",
            EngineId::SemResolved => "sem-resolved",
            EngineId::Vm => "vm",
            EngineId::VmDecoded => "vm-decoded",
            EngineId::VmFused => "vm-fused",
        }
    }

    /// The report label: the canonical name.
    pub fn label(self) -> &'static str {
        self.name()
    }

    /// Parses a canonical name.
    ///
    /// # Errors
    ///
    /// Fails with a message listing the valid names.
    pub fn parse(s: &str) -> Result<EngineId, String> {
        EngineId::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown engine `{s}` (expected sem, sem-resolved, vm, vm-decoded, vm-fused)"
                )
            })
    }

    /// The family the engine belongs to.
    pub fn family(self) -> Family {
        match self {
            EngineId::Sem | EngineId::SemResolved => Family::Sem,
            EngineId::Vm | EngineId::VmDecoded | EngineId::VmFused => Family::Vm,
        }
    }

    /// The next tier of the engine's family, in tier order, wrapping:
    /// sem ↔ sem-resolved, vm → vm-decoded → vm-fused → vm.
    pub fn next_tier(self) -> EngineId {
        let n = EngineId::ALL.len();
        let i = EngineId::ALL.iter().position(|&e| e == self).unwrap_or(0);
        (1..=n)
            .map(|k| EngineId::ALL[(i + k) % n])
            .find(|e| e.family() == self.family())
            .unwrap_or(self)
    }
}

impl Family {
    /// The family's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Sem => "sem",
            Family::Vm => "vm",
        }
    }
}

/// Where a [`Table1::run`] call stopped, in engine-neutral terms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stop {
    /// Normal termination with the result words (a non-bits value of
    /// the abstract machines reads as `u64::MAX`).
    Halted(Vec<u64>),
    /// At a `yield`: the run-time system has the thread.
    Suspended,
    /// The fuel grant ran out; `run` again to continue.
    OutOfFuel,
    /// The program went wrong (abstract machines) or faulted (target).
    Wrong(String),
    /// A status `run` does not return for a started thread (idle or
    /// running), as its debug text.
    Other(String),
}

/// A C-- thread of any engine, manipulated through the run-time
/// interface of the paper's Table 1.
///
/// Values cross the interface as machine words. The activation handle
/// `a` of `FirstActivation(t, &a)` lives inside the thread: the walk
/// ops move it and `GetDescriptor`/`SetActivation` read it. Errors are
/// the engine's own messages.
pub trait Table1 {
    /// The engine running the thread.
    fn engine(&self) -> EngineId;

    /// Starts `entry` with `args`; `results` is the result arity the
    /// simulated target collects (the abstract machines return however
    /// many values the procedure does).
    ///
    /// # Errors
    ///
    /// The abstract machines refuse a missing procedure here; the
    /// target reports it from the first `run`.
    fn start(&mut self, entry: &str, args: &[u64], results: usize) -> Result<(), String>;

    /// Runs up to `fuel` units: transitions on the abstract machines,
    /// retired instructions on the target.
    fn run(&mut self, fuel: u64) -> Stop;

    /// Fuel units spent so far (what `run` grants count against).
    fn fuel_spent(&self) -> u64;

    /// Deterministic work so far: transitions on the abstract machines,
    /// the cost-model total (instructions plus run-time-system charges)
    /// on the target.
    fn work(&self) -> u64;

    /// The `i`th `yield` argument as a word (0 when absent or not a
    /// word), valid while suspended.
    fn yield_arg(&self, i: usize) -> u64;

    /// Reads a 32-bit word of memory.
    fn read_u32(&self, addr: u64) -> u32;

    /// `FirstActivation(t, &a)`: points the handle at the activation
    /// that called into the run-time system. False unless suspended.
    fn first_activation(&mut self) -> bool;

    /// `NextActivation(&a)`: moves the handle to its caller. False at
    /// the bottom of the stack.
    fn next_activation(&mut self) -> bool;

    /// `GetDescriptor(a, n)`: the address of the handle's n'th
    /// descriptor.
    fn get_descriptor(&mut self, n: usize) -> Option<u64>;

    /// `SetActivation(t, a)`: resume with the handle's activation
    /// topmost, at its call site's normal return point.
    ///
    /// # Errors
    ///
    /// Fails if the thread is not suspended or an activation being
    /// discarded may not be.
    fn set_activation(&mut self) -> Result<(), String>;

    /// `SetUnwindCont(t, n)`: resume at the selected activation's n'th
    /// `also unwinds to` continuation instead.
    ///
    /// # Errors
    ///
    /// Fails without a selected activation or with `n` out of range.
    fn set_unwind_cont(&mut self, n: usize) -> Result<(), String>;

    /// `SetCutToCont(t, k)`: resume by cutting the stack to the
    /// continuation `k`, as the word it becomes when stored to memory
    /// (its `(pc, sp)` pair's address on the target, its flattened
    /// encoding on the abstract machines).
    ///
    /// # Errors
    ///
    /// Fails if the thread is not suspended or `k` is not a
    /// continuation.
    fn set_cut_to_cont(&mut self, k: u64) -> Result<(), String>;

    /// `FindContParam(t, n)`, then a store of `word` through the
    /// returned location. False if the staged continuation has no n'th
    /// parameter.
    fn set_cont_param(&mut self, n: usize, word: u64) -> bool;

    /// `Resume(t)`: applies the staged resumption.
    ///
    /// # Errors
    ///
    /// Fails if nothing was staged or the staged target is invalid.
    fn resume(&mut self) -> Result<(), String>;

    /// Captures the suspended (or out-of-fuel) machine state of the
    /// engine's family: `cmm_sem::SemState` or `cmm_vm::VmState`.
    ///
    /// # Errors
    ///
    /// Fails unless the thread is suspended or out of fuel.
    fn capture(&self) -> Result<Box<dyn Any>, String>;

    /// Restores a state captured on any engine of the same family.
    ///
    /// # Errors
    ///
    /// Fails on a state of the other family, or one that does not
    /// validate against this engine's program.
    fn restore(&mut self, state: &dyn Any) -> Result<(), String>;

    /// Installs a fault plan that every Table 1 op consults first.
    fn set_chaos(&mut self, plan: FaultPlan);

    /// The installed fault plan, if any.
    fn chaos(&self) -> Option<&FaultPlan>;

    /// The whole machine as plain data, for equivalence oracles: memory
    /// as sorted non-zero `(address, byte)` pairs, then the family's
    /// counters and registers as words.
    fn deep_state(&self) -> (Vec<(u64, u8)>, Vec<u64>);
}

/// The fixed dispatcher's continuation-parameter fill for yield code
/// `code`: the reply word the oracles, the batch runner, the CLI and
/// the service's load generator send.
pub fn dispatcher_fill(code: u64) -> u32 {
    (code.wrapping_mul(13).wrapping_add(7) & 0xfff) as u32
}

/// Services one suspension with the fixed dispatcher policy:
///
/// 1. walk from the first activation one hop toward the caller
///    (staying on the first at the bottom of the stack);
/// 2. `SetActivation` there — discarding the yielder, which must be
///    suspended at an `also aborts` site;
/// 3. if `code` is odd, try `SetUnwindCont(0)`, falling back to the
///    normal return point if the site has no unwind continuations;
/// 4. fill every continuation parameter with `reply`; `Resume`.
///
/// # Errors
///
/// The first Table 1 failure, as the engine reports it.
pub fn service_yield<T: Table1 + ?Sized>(t: &mut T, code: u64, reply: u64) -> Result<(), String> {
    if !t.first_activation() {
        return Err("no first activation".into());
    }
    let _ = t.next_activation();
    t.set_activation()?;
    if code % 2 == 1 {
        let _ = t.set_unwind_cont(0);
    }
    let mut n = 0;
    while t.set_cont_param(n, reply) {
        n += 1;
    }
    t.resume()
}

/// Fuel and yield limits for [`drive`].
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Fuel granted to each inter-yield segment.
    pub fuel: u64,
    /// Fuel left in the current segment (less than `fuel` when a
    /// snapshot resumes mid-segment).
    pub left: u64,
    /// Suspensions serviced before the run ends with
    /// [`End::SuspensionBound`].
    pub max_yields: u64,
    /// Run in slices of this many units, calling the boundary hook
    /// between them.
    pub every: Option<u64>,
    /// Pause once this many units have been spent from here on.
    pub pause_after: Option<u64>,
}

impl Budget {
    /// `fuel` per segment, at most `max_yields` suspensions, no slices.
    pub fn new(fuel: u64, max_yields: u64) -> Budget {
        Budget {
            fuel,
            left: fuel,
            max_yields,
            every: None,
            pause_after: None,
        }
    }
}

/// How a [`drive`] ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum End {
    /// Normal termination with the result words.
    Halted(Vec<u64>),
    /// The program went wrong, with the engine's message.
    Wrong(String),
    /// A segment spent its whole fuel budget.
    OutOfFuel,
    /// A suspension arrived after `max_yields` were serviced.
    SuspensionBound,
    /// A Table 1 op of the dispatcher policy failed.
    RtsError(String),
    /// `run` returned a status it should not have ([`Stop::Other`]).
    Unexpected(String),
    /// `pause_after` units were spent; `left` is the segment's
    /// remaining fuel.
    Paused {
        /// Fuel left in the current segment.
        left: u64,
    },
}

/// Runs a started thread to an end, servicing each suspension with
/// [`service_yield`] and [`dispatcher_fill`] and recording its code in
/// `yields` (which may already hold the codes of an earlier, resumed
/// part of the run).
///
/// With `budget.every = Some(n)` each segment's fuel is granted `n`
/// units at a time and `boundary(t, left, yields_done)` runs at every
/// slice boundary; fuel accounting is exact, so the end, the yields and
/// the work are those of the unsliced run.
///
/// # Errors
///
/// Whatever `boundary` fails with.
pub fn drive<T: Table1 + ?Sized>(
    t: &mut T,
    budget: Budget,
    yields: &mut Vec<u64>,
    mut boundary: impl FnMut(&mut T, u64, u64) -> Result<(), String>,
) -> Result<End, String> {
    let mut left = budget.left;
    let mut pause = budget.pause_after;
    loop {
        let stop = loop {
            if pause == Some(0) {
                return Ok(End::Paused { left });
            }
            let mut slice = left;
            if let Some(k) = pause {
                slice = slice.min(k);
            }
            if let Some(n) = budget.every {
                slice = slice.min(n.max(1));
            }
            let before = t.fuel_spent();
            let stop = t.run(slice);
            let used = t.fuel_spent().saturating_sub(before);
            left = left.saturating_sub(used);
            if let Some(k) = pause.as_mut() {
                *k = k.saturating_sub(used);
            }
            if stop == Stop::OutOfFuel && left > 0 {
                // A slice boundary, not real exhaustion.
                if pause != Some(0) && budget.every.is_some() {
                    boundary(t, left, yields.len() as u64)?;
                }
                continue;
            }
            break stop;
        };
        match stop {
            Stop::Halted(words) => return Ok(End::Halted(words)),
            Stop::Wrong(e) => return Ok(End::Wrong(e)),
            Stop::OutOfFuel => return Ok(End::OutOfFuel),
            Stop::Other(s) => return Ok(End::Unexpected(s)),
            Stop::Suspended => {
                if yields.len() as u64 >= budget.max_yields {
                    return Ok(End::SuspensionBound);
                }
                let code = t.yield_arg(0);
                yields.push(code);
                if let Err(e) = service_yield(t, code, u64::from(dispatcher_fill(code))) {
                    return Ok(End::RtsError(e));
                }
                left = budget.fuel;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_families_partition() {
        for e in EngineId::ALL {
            assert_eq!(EngineId::parse(e.name()), Ok(e));
        }
        assert!(EngineId::parse("warp").unwrap_err().contains("warp"));
        assert_eq!(EngineId::SemResolved.family(), Family::Sem);
        assert_eq!(EngineId::VmFused.family(), Family::Vm);
    }

    #[test]
    fn next_tier_cycles_within_the_family() {
        assert_eq!(EngineId::Sem.next_tier(), EngineId::SemResolved);
        assert_eq!(EngineId::SemResolved.next_tier(), EngineId::Sem);
        assert_eq!(EngineId::Vm.next_tier(), EngineId::VmDecoded);
        assert_eq!(EngineId::VmDecoded.next_tier(), EngineId::VmFused);
        assert_eq!(EngineId::VmFused.next_tier(), EngineId::Vm);
    }

    #[test]
    fn fill_is_the_fixed_policy() {
        assert_eq!(dispatcher_fill(0), 7);
        assert_eq!(dispatcher_fill(1), 20);
        assert_eq!(dispatcher_fill(315), (315 * 13 + 7) & 0xfff);
    }
}
