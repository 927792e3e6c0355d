//! # cmm-snap — serializable suspended machine state
//!
//! The paper's machine state is a clean seven-component value (§5.2),
//! which makes suspension points — `Yield` nodes, fuel-slice
//! exhaustion — natural snapshot boundaries. This crate defines the
//! **snapshot**: a versioned, deterministic byte encoding of a
//! suspended machine, for every engine family the workspace implements:
//!
//! * the **sem family** ([`cmm_sem::SemState`]) — the reference machine
//!   and the pre-resolved machine capture equal, name-space states, so
//!   a snapshot taken on either restores on either;
//! * the **VM family** ([`cmm_vm::VmState`]) — the stepped, pre-decoded,
//!   and fused tiers execute over the same machine state, so a snapshot
//!   taken under one tier resumes under any other.
//!
//! A [`Snapshot`] is the state plus the envelope a *resume in another
//! process* needs: which engine produced it, the [`Digest`] of the
//! program it was taken over (the same identity the compilation cache
//! keys its artifacts under), the drive-loop position (entry procedure,
//! arguments, remaining fuel, yields completed), and the
//! reproducibility baggage — the resource governor the run was driven
//! under, recorded for the reader (nothing reinstalls it on resume),
//! and the chaos fault-plan state, so an interrupted chaos run resumes
//! mid-schedule and injects exactly the faults the uninterrupted run
//! would.
//!
//! ## Format
//!
//! Byte layout (all integers little-endian):
//!
//! ```text
//! "cmmsnap\0"  magic, 8 bytes
//! version      u32 (currently 2)
//! engine       u8 (0 sem, 1 sem-resolved, 2 vm, 3 vm-decoded, 4 vm-fused)
//! digest       u128  the program's Digest: source bytes, language and
//!                    strategy, optimization options, engine family
//! meta         entry str · args vec<u64> · fuel_remaining u64 ·
//!              yields_done u64 · opt bool
//! governor     option of 4 optional limits: max-depth, max-memory and
//!              stack-floor, always absent, then the fuel slice
//! chaos        option of fault-plan state (seed, schedule, counters, log)
//! state        tagged payload: 0 = sem state, 1 = vm state
//! checksum     u64   word-at-a-time sum of every preceding byte
//! ```
//!
//! A string is a u32 byte length and UTF-8 bytes; a vector is a u32
//! count and its elements. The VM payload's register file is a u64 mask
//! of the nonzero registers (bit `i` for register `i`) followed by
//! their values in register order, so a zero register costs one bit;
//! the decoder refuses a masked register whose value is zero, so every
//! state still has exactly one encoding. For the same reason it refuses
//! a governor whose max-depth, max-memory or stack-floor slot is
//! present: no engine enforces those limits, so the encoder always
//! writes them absent. Memory travels as `(address, byte)` pairs, zero
//! bytes elided.
//!
//! The checksum folds in each little-endian 8-byte word with an xor, a
//! multiply by an odd constant and a rotate, then the zero-padded tail
//! and the body length, then a final avalanche. Each step is a
//! bijection of the running sum, so changing any one word of a blob
//! changes its sum. A blob of another version is refused as
//! [`SnapError::UnsupportedVersion`]; this build reads only its own.
//!
//! Encoding is deterministic: the state types are canonically sorted
//! (environments and globals by name, memory by address) before they
//! reach the wire, so equal states produce byte-identical blobs —
//! `encode ∘ decode ∘ encode = encode`, which the round-trip suite
//! asserts byte for byte.
//!
//! Decoding is **total**: corrupted, truncated, version-skewed, or
//! adversarial input yields a structured [`SnapError`], never a panic
//! and never an outsized allocation (length prefixes are validated
//! against the bytes actually remaining). The decoder checks the
//! trailing checksum before anything else, so random mutation is
//! overwhelmingly caught as [`SnapError::ChecksumMismatch`]; whatever
//! slips past must still parse field by field.
//!
//! What a snapshot does *not* contain: the program (the digest pins its
//! identity, family included; a restore validates the state against the
//! program the new machine was built over), the trace sink (a resumed
//! machine starts a fresh sink; its clock continues from the restored
//! step/cost counters), and the execution tier's derived code
//! (re-derived by the resuming machine — this is what makes cross-tier
//! resume work).

use cmm_chaos::{FaultPlan, FaultPlanState, InjectedFault, ResourceGovernor, Table1, CHAOS_OPS};
use cmm_ir::{Name, Width};
use cmm_sem::{FrameState, NodeRef, SemState, SnapStatus};
use cmm_vm::isa::regs::NUM_REGS;
use cmm_vm::{Cost, VmSnapStatus, VmState};

mod digest;
mod wire;

pub use digest::Digest;
pub use wire::SnapError;
use wire::{checksum, Dec, Enc};

/// The leading magic bytes.
pub const MAGIC: [u8; 8] = *b"cmmsnap\0";

/// The format version this build writes and reads.
pub const VERSION: u32 = 2;

pub use cmm_chaos::{EngineId, Family};

/// The governor slots ahead of the fuel slice that no engine enforces:
/// written absent, and refused by name when present.
const ABSENT_LIMITS: [&str; 3] = ["max-depth", "max-memory", "stack-floor"];

/// The wire tag of each engine (the `engine` byte of the format).
fn engine_tag(e: EngineId) -> u8 {
    match e {
        EngineId::Sem => 0,
        EngineId::SemResolved => 1,
        EngineId::Vm => 2,
        EngineId::VmDecoded => 3,
        EngineId::VmFused => 4,
    }
}

fn engine_from_tag(tag: u8) -> Result<EngineId, SnapError> {
    Ok(match tag {
        0 => EngineId::Sem,
        1 => EngineId::SemResolved,
        2 => EngineId::Vm,
        3 => EngineId::VmDecoded,
        4 => EngineId::VmFused,
        tag => {
            return Err(SnapError::BadTag {
                what: "engine",
                tag,
            })
        }
    })
}
/// Where the drive loop stood when the snapshot was taken — everything
/// a resume in another process needs besides the machine state itself.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapMeta {
    /// The entry procedure the run was started with.
    pub entry: String,
    /// Its arguments (as passed on the command line).
    pub args: Vec<u64>,
    /// Fuel left of the run's total budget.
    pub fuel_remaining: u64,
    /// Yields already serviced by the drive loop.
    pub yields_done: u64,
    /// Whether the program was built with optimization.
    pub opt: bool,
}

/// The engine-family state payload.
///
/// The variants' sizes differ, but a `Snapshot` is a rare, long-lived
/// value (one per checkpoint boundary), so boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Debug)]
pub enum MachineState {
    /// An abstract-machine state (either sem engine).
    Sem(SemState),
    /// A VM state (any tier).
    Vm(VmState),
}

impl MachineState {
    /// Captures a suspended (or out-of-fuel) thread of any engine.
    ///
    /// # Errors
    ///
    /// The engine's refusal to capture.
    pub fn capture<T: Table1 + ?Sized>(t: &T) -> Result<MachineState, String> {
        let st = t.capture()?;
        let st = match st.downcast::<SemState>() {
            Ok(st) => return Ok(MachineState::Sem(*st)),
            Err(st) => st,
        };
        st.downcast::<VmState>()
            .map(|st| MachineState::Vm(*st))
            .map_err(|_| "engine captured a state of no known family".to_string())
    }

    /// Whether the state was captured at a `yield` (rather than at a
    /// fuel-slice boundary).
    pub fn at_yield(&self) -> bool {
        match self {
            MachineState::Sem(st) => st.status == SnapStatus::Suspended,
            MachineState::Vm(st) => st.status == VmSnapStatus::Suspended,
        }
    }

    /// Restores the state into a thread of its family.
    ///
    /// # Errors
    ///
    /// The engine's refusal to restore (another family's state, or one
    /// that does not fit its program).
    pub fn restore_into<T: Table1 + ?Sized>(&self, t: &mut T) -> Result<(), String> {
        match self {
            MachineState::Sem(st) => t.restore(st),
            MachineState::Vm(st) => t.restore(st),
        }
    }
}

/// A complete snapshot: machine state plus resume envelope. See the
/// crate documentation for the byte format.
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    /// The engine that produced the snapshot (a resume may choose any
    /// engine of the same family).
    pub engine: EngineId,
    /// The [`Digest`] of the program the state runs over — the
    /// compilation cache's key for it, which covers the source bytes,
    /// language and strategy, optimization options and engine family.
    pub digest: Digest,
    /// Drive-loop position.
    pub meta: SnapMeta,
    /// The resource governor the run was driven under: recorded, but
    /// nothing reinstalls it on resume.
    pub governor: Option<ResourceGovernor>,
    /// Chaos fault-plan state: restoring it resumes the fault schedule
    /// mid-flight.
    pub chaos: Option<FaultPlanState>,
    /// The machine state.
    pub state: MachineState,
}

/// The starting value for [`fold_digest`] — the FNV-1a 64-bit offset
/// basis.
pub const FOLD_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Streaming FNV-1a fold: extends the running digest `h` with `bytes`.
/// Consumers use this to digest a *sequence* of snapshot blobs (e.g. a
/// batch run's checkpoints) into one deterministic fingerprint —
/// `fold_digest(fold_digest(FOLD_INIT, a), b)` is a pure function of
/// the concatenation `a ++ b`.
pub fn fold_digest(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Snapshot {
    /// Captures thread `t` under the given envelope: its engine, machine
    /// state and fault-plan state.
    ///
    /// # Errors
    ///
    /// The engine's refusal to capture.
    pub fn capture<T: Table1 + ?Sized>(
        t: &T,
        digest: Digest,
        meta: SnapMeta,
        governor: Option<ResourceGovernor>,
    ) -> Result<Snapshot, String> {
        Ok(Snapshot {
            engine: t.engine(),
            digest,
            meta,
            governor,
            chaos: t.chaos().map(|p| p.state()),
            state: MachineState::capture(t)?,
        })
    }

    /// Restores the machine state into `t` and reinstalls the fault
    /// plan where it left off.
    ///
    /// # Errors
    ///
    /// As [`MachineState::restore_into`].
    pub fn restore_into<T: Table1 + ?Sized>(&self, t: &mut T) -> Result<(), String> {
        self.state.restore_into(t)?;
        if let Some(ch) = &self.chaos {
            t.set_chaos(FaultPlan::from_state(ch));
        }
        Ok(())
    }

    /// Serializes the snapshot. Deterministic: equal snapshots produce
    /// byte-identical blobs.
    pub fn encode(&self) -> Vec<u8> {
        // Sized past the common blob (a few hundred bytes), so most
        // encodes allocate once instead of doubling their way up.
        let mut e = Enc {
            buf: Vec::with_capacity(512),
        };
        e.buf.extend_from_slice(&MAGIC);
        e.u32(VERSION);
        e.u8(engine_tag(self.engine));
        e.u128(self.digest.0);
        e.str(&self.meta.entry);
        e.len(self.meta.args.len());
        for &a in &self.meta.args {
            e.u64(a);
        }
        e.u64(self.meta.fuel_remaining);
        e.u64(self.meta.yields_done);
        e.bool(self.meta.opt);
        match &self.governor {
            None => e.u8(0),
            Some(g) => {
                e.u8(1);
                for _ in ABSENT_LIMITS {
                    e.opt_u64(None);
                }
                e.opt_u64(g.fuel_slice);
            }
        }
        match &self.chaos {
            None => e.u8(0),
            Some(c) => {
                e.u8(1);
                e.u64(c.seed);
                for i in 0..CHAOS_OPS.len() {
                    e.opt_u64(c.fail_at[i]);
                }
                for i in 0..CHAOS_OPS.len() {
                    e.u64(c.seen[i]);
                }
                e.len(c.log.len());
                for f in &c.log {
                    e.u8(CHAOS_OPS.iter().position(|&o| o == f.op).unwrap() as u8);
                    e.u64(f.invocation);
                }
            }
        }
        match &self.state {
            MachineState::Sem(st) => {
                e.u8(0);
                enc_sem_state(&mut e, st);
            }
            MachineState::Vm(st) => {
                e.u8(1);
                enc_vm_state(&mut e, st);
            }
        }
        let sum = checksum(&e.buf);
        e.u64(sum);
        e.buf
    }

    /// Deserializes a snapshot.
    ///
    /// # Errors
    ///
    /// Every malformation is a [`SnapError`]: bad magic, unsupported
    /// version, checksum mismatch (checked first — random corruption
    /// lands here), truncation, bad tags, trailing bytes. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapError::Truncated {
                need: MAGIC.len() + 4 + 8,
                have: bytes.len(),
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(tail.try_into().unwrap());
        if checksum(body) != sum {
            return Err(SnapError::ChecksumMismatch);
        }
        let mut d = Dec::new(&body[12..]);
        let engine = engine_from_tag(d.u8()?)?;
        let digest = Digest(d.u128()?);
        let entry = d.str("entry")?.to_owned();
        let nargs = d.len("args", 8)?;
        let mut args = Vec::with_capacity(nargs);
        for _ in 0..nargs {
            args.push(d.u64()?);
        }
        let fuel_remaining = d.u64()?;
        let yields_done = d.u64()?;
        let opt = d.bool("opt")?;
        let governor = if d.bool("governor")? {
            for what in ABSENT_LIMITS {
                if d.bool(what)? {
                    return Err(SnapError::BadTag { what, tag: 1 });
                }
            }
            Some(ResourceGovernor {
                fuel_slice: d.opt_u64("fuel-slice")?,
            })
        } else {
            None
        };
        let chaos = if d.bool("chaos")? {
            let seed = d.u64()?;
            let mut fail_at = [None; CHAOS_OPS.len()];
            for slot in &mut fail_at {
                *slot = d.opt_u64("fail-at")?;
            }
            let mut seen = [0u64; CHAOS_OPS.len()];
            for slot in &mut seen {
                *slot = d.u64()?;
            }
            let nlog = d.len("fault-log", 9)?;
            let mut log = Vec::with_capacity(nlog);
            for _ in 0..nlog {
                let tag = d.u8()?;
                let op = *CHAOS_OPS.get(tag as usize).ok_or(SnapError::BadTag {
                    what: "chaos-op",
                    tag,
                })?;
                let invocation = d.u64()?;
                log.push(InjectedFault { op, invocation });
            }
            Some(FaultPlanState {
                seed,
                fail_at,
                seen,
                log,
            })
        } else {
            None
        };
        let state = match d.u8()? {
            0 => MachineState::Sem(dec_sem_state(&mut d)?),
            1 => MachineState::Vm(dec_vm_state(&mut d)?),
            tag => return Err(SnapError::BadTag { what: "state", tag }),
        };
        d.finish()?;
        let family_ok = matches!(
            (&state, engine.family()),
            (MachineState::Sem(_), Family::Sem) | (MachineState::Vm(_), Family::Vm)
        );
        if !family_ok {
            return Err(SnapError::FamilyMismatch);
        }
        Ok(Snapshot {
            engine,
            digest,
            meta: SnapMeta {
                entry,
                args,
                fuel_remaining,
                yields_done,
                opt,
            },
            governor,
            chaos,
            state,
        })
    }

    /// Compares the embedded program digest against `digest`, the
    /// [`Digest`] of the program about to be restored into.
    ///
    /// # Errors
    ///
    /// [`SnapError::DigestMismatch`] if they differ.
    pub fn check_digest(&self, digest: Digest) -> Result<(), SnapError> {
        if self.digest != digest {
            return Err(SnapError::DigestMismatch);
        }
        Ok(())
    }

    /// Checks that `requested` can resume this snapshot: any engine of
    /// the snapshot's family may, any other engine may not.
    ///
    /// # Errors
    ///
    /// On a family mismatch, a structured message naming both engines,
    /// both families, and the blob's program digest — everything an
    /// operator needs to find the blob and pick a legal tier. Every
    /// resume surface (`cmm resume`, the execution service) reports
    /// this one message, so tooling can match on it.
    pub fn check_engine(&self, requested: EngineId) -> Result<(), String> {
        if requested.family() == self.engine.family() {
            return Ok(());
        }
        Err(format!(
            "cannot resume a {} snapshot (family {}, digest {}) on `{}` (family {}): \
             engine families differ",
            self.engine.name(),
            self.engine.family().name(),
            self.digest,
            requested.name(),
            requested.family().name(),
        ))
    }
}

// ----- sem-family payload -----

fn enc_value(e: &mut Enc, v: &cmm_sem::Value) {
    match v {
        cmm_sem::Value::Bits(w, bits) => {
            e.u8(0);
            e.u8(w.bits() as u8);
            e.u64(*bits);
        }
        cmm_sem::Value::Code(name) => {
            e.u8(1);
            e.str(name.as_str());
        }
        cmm_sem::Value::Cont(r, uid) => {
            e.u8(2);
            e.str(r.proc.as_str());
            e.u32(r.node.0);
            e.u64(*uid);
        }
    }
}

fn dec_value(d: &mut Dec) -> Result<cmm_sem::Value, SnapError> {
    Ok(match d.u8()? {
        0 => {
            let wb = d.u8()?;
            let w = Width::from_bits(wb as u32).ok_or(SnapError::BadTag {
                what: "width",
                tag: wb,
            })?;
            cmm_sem::Value::Bits(w, d.u64()?)
        }
        1 => cmm_sem::Value::Code(Name::from(d.str("code-name")?)),
        2 => {
            let proc = d.str("cont-proc")?;
            let node = d.u32()?;
            let uid = d.u64()?;
            cmm_sem::Value::Cont(NodeRef::new(proc, cmm_cfg::NodeId(node)), uid)
        }
        tag => return Err(SnapError::BadTag { what: "value", tag }),
    })
}

fn enc_bindings(e: &mut Enc, bs: &[(Name, cmm_sem::Value)]) {
    e.len(bs.len());
    for (n, v) in bs {
        e.str(n.as_str());
        enc_value(e, v);
    }
}

fn dec_bindings(d: &mut Dec) -> Result<Vec<(Name, cmm_sem::Value)>, SnapError> {
    let n = d.len("bindings", 6)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let name = Name::from(d.str("binding-name")?);
        v.push((name, dec_value(d)?));
    }
    Ok(v)
}

fn enc_names(e: &mut Enc, ns: &[Name]) {
    e.len(ns.len());
    for n in ns {
        e.str(n.as_str());
    }
}

fn dec_names(d: &mut Dec) -> Result<Vec<Name>, SnapError> {
    let n = d.len("names", 4)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(Name::from(d.str("name")?));
    }
    Ok(v)
}

fn enc_sem_state(e: &mut Enc, st: &SemState) {
    e.str(st.proc.as_str());
    e.u32(st.node.0);
    enc_bindings(e, &st.rho);
    enc_names(e, &st.saves);
    e.u64(st.uid);
    e.len(st.mem.len());
    for &(a, b) in &st.mem {
        e.u64(a);
        e.u8(b);
    }
    e.len(st.area.len());
    for v in &st.area {
        enc_value(e, v);
    }
    e.len(st.stack.len());
    for f in &st.stack {
        e.str(f.proc.as_str());
        e.u32(f.call_site.0);
        enc_bindings(e, &f.rho);
        enc_names(e, &f.saves);
        e.u64(f.uid);
    }
    enc_bindings(e, &st.globals);
    e.u64(st.next_uid);
    e.len(st.cont_encodings.len());
    for (r, uid) in &st.cont_encodings {
        e.str(r.proc.as_str());
        e.u32(r.node.0);
        e.u64(*uid);
    }
    e.u8(match st.status {
        SnapStatus::Suspended => 0,
        SnapStatus::OutOfFuel => 1,
    });
    e.u64(st.steps);
}

fn dec_sem_state(d: &mut Dec) -> Result<SemState, SnapError> {
    let proc = Name::from(d.str("proc")?);
    let node = cmm_cfg::NodeId(d.u32()?);
    let rho = dec_bindings(d)?;
    let saves = dec_names(d)?;
    let uid = d.u64()?;
    let nmem = d.len("memory", 9)?;
    let mut mem = Vec::with_capacity(nmem);
    for _ in 0..nmem {
        let a = d.u64()?;
        let b = d.u8()?;
        mem.push((a, b));
    }
    let narea = d.len("area", 2)?;
    let mut area = Vec::with_capacity(narea);
    for _ in 0..narea {
        area.push(dec_value(d)?);
    }
    let nstack = d.len("stack", 21)?;
    let mut stack = Vec::with_capacity(nstack);
    for _ in 0..nstack {
        let proc = Name::from(d.str("frame-proc")?);
        let call_site = cmm_cfg::NodeId(d.u32()?);
        let rho = dec_bindings(d)?;
        let saves = dec_names(d)?;
        let uid = d.u64()?;
        stack.push(FrameState {
            proc,
            call_site,
            rho,
            saves,
            uid,
        });
    }
    let globals = dec_bindings(d)?;
    let next_uid = d.u64()?;
    let ncont = d.len("cont-encodings", 16)?;
    let mut cont_encodings = Vec::with_capacity(ncont);
    for _ in 0..ncont {
        let proc = d.str("cont-proc")?;
        let node = cmm_cfg::NodeId(d.u32()?);
        let uid = d.u64()?;
        cont_encodings.push((NodeRef::new(proc, node), uid));
    }
    let status = match d.u8()? {
        0 => SnapStatus::Suspended,
        1 => SnapStatus::OutOfFuel,
        tag => {
            return Err(SnapError::BadTag {
                what: "sem-status",
                tag,
            })
        }
    };
    let steps = d.u64()?;
    Ok(SemState {
        proc,
        node,
        rho,
        saves,
        uid,
        mem,
        area,
        stack,
        globals,
        next_uid,
        cont_encodings,
        status,
        steps,
    })
}

// ----- VM-family payload -----

// The register mask is one u64: bit `i` set means register `i` is
// nonzero and its value follows.
const _: () = assert!(NUM_REGS == u64::BITS as usize);

fn enc_vm_state(e: &mut Enc, st: &VmState) {
    let mask = (0..NUM_REGS)
        .filter(|&i| st.regs[i] != 0)
        .fold(0u64, |m, i| m | (1 << i));
    e.u64(mask);
    for &r in st.regs.iter().filter(|&&r| r != 0) {
        e.u64(r);
    }
    e.u32(st.pc);
    e.u64(st.cost.instructions);
    e.u64(st.cost.loads);
    e.u64(st.cost.stores);
    e.u64(st.cost.branches);
    e.u64(st.cost.calls);
    e.u64(st.cost.runtime_instructions);
    e.u64(st.expected_results);
    e.len(st.mem.len());
    for &(a, b) in &st.mem {
        e.u32(a);
        e.u8(b);
    }
    e.u8(match st.status {
        VmSnapStatus::Suspended => 0,
        VmSnapStatus::OutOfFuel => 1,
    });
}

fn dec_vm_state(d: &mut Dec) -> Result<VmState, SnapError> {
    let mut regs = [0u64; NUM_REGS];
    let mut mask = d.u64()?;
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        regs[i] = d.u64()?;
        if regs[i] == 0 {
            return Err(SnapError::ZeroRegister(i));
        }
        mask &= mask - 1;
    }
    let pc = d.u32()?;
    let cost = Cost {
        instructions: d.u64()?,
        loads: d.u64()?,
        stores: d.u64()?,
        branches: d.u64()?,
        calls: d.u64()?,
        runtime_instructions: d.u64()?,
    };
    let expected_results = d.u64()?;
    let nmem = d.len("vm-memory", 5)?;
    let mut mem = Vec::with_capacity(nmem);
    for _ in 0..nmem {
        let a = d.u32()?;
        let b = d.u8()?;
        mem.push((a, b));
    }
    let status = match d.u8()? {
        0 => VmSnapStatus::Suspended,
        1 => VmSnapStatus::OutOfFuel,
        tag => {
            return Err(SnapError::BadTag {
                what: "vm-status",
                tag,
            })
        }
    };
    Ok(VmState {
        regs,
        pc,
        cost,
        expected_results,
        mem,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::NodeId;
    use cmm_sem::Value;

    /// A program digest over the parts `cmm-pool`'s `SourceKey::digest`
    /// hashes: source bytes, language, optimization options, family.
    fn program(src: &str, opt: bool, family: Family) -> Digest {
        let opts: &[u8] = if opt { b"default" } else { b"none" };
        Digest::of(&[src.as_bytes(), b"cmm", opts, family.name().as_bytes()])
    }

    fn sem_snapshot() -> Snapshot {
        let state = SemState {
            proc: Name::from("main"),
            node: NodeId(7),
            rho: vec![
                (
                    Name::from("k"),
                    Value::Cont(NodeRef::new("main", NodeId(3)), 2),
                ),
                (Name::from("p"), Value::Code(Name::from("helper"))),
                (Name::from("x"), Value::Bits(Width::W32, 41)),
            ],
            saves: vec![Name::from("x")],
            uid: 2,
            mem: vec![(0x1000, 1), (0x1001, 0xfe), (0x9000_0000, 7)],
            area: vec![Value::Bits(Width::W64, 9), Value::Bits(Width::W8, 1)],
            stack: vec![FrameState {
                proc: Name::from("caller"),
                call_site: NodeId(4),
                rho: vec![(Name::from("y"), Value::Bits(Width::W16, 3))],
                saves: vec![],
                uid: 1,
            }],
            globals: vec![(Name::from("g"), Value::Bits(Width::W32, 5))],
            next_uid: 3,
            cont_encodings: vec![(NodeRef::new("main", NodeId(3)), 2)],
            status: SnapStatus::Suspended,
            steps: 1234,
        };
        Snapshot {
            engine: EngineId::SemResolved,
            digest: program("proc main() {}", false, Family::Sem),
            meta: SnapMeta {
                entry: "main".into(),
                args: vec![1, 2, u64::MAX],
                fuel_remaining: 500,
                yields_done: 3,
                opt: false,
            },
            governor: Some(ResourceGovernor {
                fuel_slice: Some(128),
            }),
            chaos: Some(FaultPlanState {
                seed: 42,
                fail_at: {
                    let mut f = [None; CHAOS_OPS.len()];
                    f[0] = Some(3);
                    f[7] = Some(1);
                    f
                },
                seen: [1, 0, 2, 0, 0, 0, 0, 1],
                log: vec![InjectedFault {
                    op: CHAOS_OPS[7],
                    invocation: 1,
                }],
            }),
            state: MachineState::Sem(state),
        }
    }

    fn vm_snapshot() -> Snapshot {
        let mut regs = [0u64; NUM_REGS];
        regs[1] = 0xdead_beef;
        regs[63] = u64::MAX;
        Snapshot {
            engine: EngineId::VmFused,
            digest: program("module M;", true, Family::Vm),
            meta: SnapMeta {
                entry: "M_main".into(),
                args: vec![],
                fuel_remaining: 1,
                yields_done: 0,
                opt: true,
            },
            governor: None,
            chaos: None,
            state: MachineState::Vm(VmState {
                regs,
                pc: 17,
                cost: Cost {
                    instructions: 100,
                    loads: 10,
                    stores: 5,
                    branches: 20,
                    calls: 2,
                    runtime_instructions: 30,
                },
                expected_results: 1,
                mem: vec![(0x10, 0xff), (0x4000_0000, 1)],
                status: VmSnapStatus::OutOfFuel,
            }),
        }
    }

    /// serialize → deserialize → serialize is byte-identical, and the
    /// decoded value equals the original, for both families.
    #[test]
    fn round_trip_is_byte_identical() {
        for snap in [sem_snapshot(), vm_snapshot()] {
            let bytes = snap.encode();
            let decoded = Snapshot::decode(&bytes).unwrap();
            assert_eq!(decoded, snap);
            assert_eq!(decoded.encode(), bytes, "re-encoding diverged");
        }
    }

    /// Every truncation of a valid blob fails with a structured error.
    #[test]
    fn truncation_always_structured() {
        let bytes = sem_snapshot().encode();
        for n in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..n]).unwrap_err();
            match err {
                SnapError::Truncated { .. } | SnapError::ChecksumMismatch => {}
                other => panic!("truncation at {n} produced {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sem_snapshot().encode();
        bytes[0] ^= 0x20;
        assert_eq!(Snapshot::decode(&bytes).unwrap_err(), SnapError::BadMagic);

        let mut bytes = sem_snapshot().encode();
        bytes[8] = 99; // version field
        assert_eq!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapError::UnsupportedVersion(99)
        );
    }

    /// Every single-bit flip of a blob is refused by the first check
    /// that covers its position: the magic (bytes 0–7), the version
    /// (8–11), then the checksum, which covers every later byte and is
    /// itself covered (a flipped sum no longer matches).
    #[test]
    fn every_single_bit_flip_is_refused() {
        for base in [sem_snapshot().encode(), vm_snapshot().encode()] {
            for i in 0..base.len() {
                for bit in 0..8 {
                    let mut bytes = base.clone();
                    bytes[i] ^= 1 << bit;
                    let want = match i {
                        0..=7 => SnapError::BadMagic,
                        8..=11 => {
                            SnapError::UnsupportedVersion(VERSION ^ (1 << (8 * (i - 8) + bit)))
                        }
                        _ => SnapError::ChecksumMismatch,
                    };
                    assert_eq!(
                        Snapshot::decode(&bytes).unwrap_err(),
                        want,
                        "bit {bit} of byte {i}"
                    );
                }
            }
        }
    }

    /// A version-1 blob, as `cmm snap` wrote it before version 2, is
    /// refused by its version, and the message names both versions.
    #[test]
    fn a_version_1_blob_is_refused_by_name() {
        let v1 = include_bytes!("../tests/fixtures/fig34_plain.v1.snap");
        let err = Snapshot::decode(v1).unwrap_err();
        assert_eq!(err, SnapError::UnsupportedVersion(1));
        let text = err.to_string();
        assert!(
            text.contains("version 1") && text.contains("version 2"),
            "{text}"
        );
    }

    /// The register mask at both extremes: every register nonzero (a
    /// full mask and 64 values) and none (an empty mask, no values).
    #[test]
    fn full_and_empty_register_files_round_trip() {
        let mut sizes = Vec::new();
        for regs in [std::array::from_fn(|i| i as u64 + 1), [0; NUM_REGS]] {
            let mut snap = vm_snapshot();
            let MachineState::Vm(st) = &mut snap.state else {
                unreachable!()
            };
            st.regs = regs;
            let bytes = snap.encode();
            let decoded = Snapshot::decode(&bytes).unwrap();
            assert_eq!(decoded, snap);
            assert_eq!(decoded.encode(), bytes, "re-encoding diverged");
            sizes.push(bytes.len());
        }
        assert_eq!(sizes[0] - sizes[1], 8 * NUM_REGS);
    }

    /// A mask that names a zero register is refused. The blob is
    /// re-summed, so only the parser can catch it.
    #[test]
    fn a_masked_zero_register_is_refused() {
        let snap = vm_snapshot();
        let MachineState::Vm(st) = &snap.state else {
            unreachable!()
        };
        let mut payload = Enc::default();
        enc_vm_state(&mut payload, st);
        let bytes = snap.encode();
        let mut body = bytes[..bytes.len() - 8].to_vec();
        // The payload ends the body; its first value (r1's) follows
        // the 8-byte mask.
        let r1 = body.len() - payload.buf.len() + 8;
        body[r1..r1 + 8].fill(0);
        let sum = wire::checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&body).unwrap_err(),
            SnapError::ZeroRegister(1)
        );
    }

    /// The offset of a blob's governor presence byte: the envelope
    /// fields before it are magic, version, engine, digest and `meta`.
    fn governor_offset(meta: &SnapMeta) -> usize {
        8 + 4 + 1 + 16 + (4 + meta.entry.len()) + (4 + 8 * meta.args.len()) + 8 + 8 + 1
    }

    /// A governor that sets only the fuel slice, as batch jobs and serve
    /// threads record it, round-trips byte-identically and travels as
    /// three absent slots and the slice.
    #[test]
    fn a_fuel_slice_governor_round_trips() {
        let mut snap = vm_snapshot();
        snap.governor = Some(ResourceGovernor {
            fuel_slice: Some(4096),
        });
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.encode(), bytes, "re-encoding diverged");
        let off = governor_offset(&snap.meta);
        let mut want = vec![1, 0, 0, 0, 1];
        want.extend_from_slice(&4096u64.to_le_bytes());
        assert_eq!(bytes[off..off + want.len()], want[..]);
    }

    /// A blob that sets a max-depth, max-memory or stack-floor slot is
    /// refused with a tag error naming the slot. The blob is re-summed,
    /// so only the parser can catch it.
    #[test]
    fn a_present_absent_limit_slot_is_refused_by_name() {
        let snap = sem_snapshot();
        let bytes = snap.encode();
        let off = governor_offset(&snap.meta);
        for (k, slot) in ABSENT_LIMITS.into_iter().enumerate() {
            let mut body = bytes[..bytes.len() - 8].to_vec();
            let at = off + 1 + k;
            assert_eq!(body[at], 0, "{slot} slot written present");
            body[at] = 1;
            body.splice(at + 1..at + 1, 64u64.to_le_bytes());
            let sum = wire::checksum(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            let err = Snapshot::decode(&body).unwrap_err();
            assert_eq!(err, SnapError::BadTag { what: slot, tag: 1 });
            assert!(err.to_string().contains(slot), "{err}");
        }
    }

    /// A blob whose engine byte and state payload disagree is rejected
    /// even though its checksum is valid.
    #[test]
    fn family_mismatch_is_rejected() {
        let mut snap = sem_snapshot();
        snap.engine = EngineId::Vm;
        let bytes = snap.encode();
        assert_eq!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapError::FamilyMismatch
        );
    }

    #[test]
    fn digest_check() {
        let snap = sem_snapshot();
        assert!(snap
            .check_digest(program("proc main() {}", false, Family::Sem))
            .is_ok());
        assert_eq!(
            snap.check_digest(program("proc main() {}", true, Family::Sem)),
            Err(SnapError::DigestMismatch)
        );
        assert_eq!(
            snap.check_digest(program("proc other() {}", false, Family::Sem)),
            Err(SnapError::DigestMismatch)
        );
        assert_eq!(
            snap.check_digest(program("proc main() {}", false, Family::Vm)),
            Err(SnapError::DigestMismatch)
        );
    }

    /// A hostile length prefix cannot force an outsized allocation: a
    /// blob claiming 2^32−1 arguments (with a recomputed checksum, so
    /// only the parser can reject it) fails as truncated.
    #[test]
    fn huge_length_prefix_is_truncation() {
        let bytes = sem_snapshot().encode();
        let mut body = bytes[..bytes.len() - 8].to_vec();
        // The args length prefix sits after magic(8) + version(4) +
        // engine(1) + digest(16) + entry("main": 4+4).
        let off = 8 + 4 + 1 + 16 + 4 + 4;
        body[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = wire::checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        match Snapshot::decode(&body).unwrap_err() {
            SnapError::Truncated { .. } => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Decoder fuzz: thousands of random single/multi-byte mutations of
    /// valid snapshots decode to a structured error or a valid snapshot
    /// (when the mutation is semantically neutral it must re-encode
    /// cleanly) — never a panic, never an abort.
    #[test]
    fn mutation_fuzz_never_panics() {
        let mut rng = 0xc0ff_ee00_dead_beefu64;
        for base in [sem_snapshot().encode(), vm_snapshot().encode()] {
            for _ in 0..4000 {
                let mut bytes = base.clone();
                let nmut = 1 + (splitmix(&mut rng) % 4) as usize;
                for _ in 0..nmut {
                    let i = (splitmix(&mut rng) % bytes.len() as u64) as usize;
                    bytes[i] = splitmix(&mut rng) as u8;
                }
                // Half the time, also truncate.
                if splitmix(&mut rng).is_multiple_of(2) {
                    let n = (splitmix(&mut rng) % (bytes.len() as u64 + 1)) as usize;
                    bytes.truncate(n);
                }
                if let Ok(snap) = Snapshot::decode(&bytes) {
                    // Accepted blobs must round-trip to themselves.
                    assert_eq!(snap.encode(), bytes);
                }
            }
        }
    }
}
