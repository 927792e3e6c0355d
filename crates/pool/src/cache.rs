//! The content-addressed compilation cache.
//!
//! A [`PipelineCache`] memoizes every stage of the compilation
//! pipeline, keyed by `(`[`Digest`]`, `[`Stage`]`)`:
//!
//! | [`Stage`] | artifact | produced by |
//! |---|---|---|
//! | `Module`  | parsed or lowered AST | `cmm-parse` / `cmm-frontend` |
//! | `Program` | checked CFG after the configured optimization pipeline | `cmm-cfg` + `cmm-opt` |
//! | `Resolved` | `sem-resolved`'s tables, sharing the `Program` | `cmm-sem` resolve |
//! | `VmCode`  | compiled `VmProgram` | `cmm-vm` codegen |
//! | `Decoded` | pre-decoded instruction array | `cmm-vm` decode |
//! | `Fused`   | the decoded stream with fused windows | `cmm-vm` fuse |
//!
//! The digest covers the raw source bytes, the [`OptOptions`], and the
//! engine [`Family`]: the two abstract-machine engines
//! share one artifact chain, the three simulated-target engines another.
//! See [`Digest`] for why the source is hashed byte-exactly.
//!
//! **Sharding.** The map is lock-striped into [`SHARDS`] buckets keyed
//! by the digest's low bits, each with its own mutex, condvar, and
//! [`cmm_obs::CacheStats`] — so a batch's hot phase, where every job
//! refetches
//! its artifacts, never funnels through one lock or one contended
//! counter cache line. Every stage of one source lands in the same
//! shard (the key is the digest; the stage only subdivides it), which
//! keeps a source's artifact chain local to one stripe.
//!
//! **Single flight.** The first requester of a missing artifact
//! installs an in-flight marker and builds outside the lock; concurrent
//! requesters block on the shard's condvar until the artifact is ready.
//! Waiters count as *hits* (plus an `inflight_waits` tally), so per key
//! there is exactly one miss no matter how many threads race — hit/miss
//! totals for a fixed job set are scheduling-independent. The split of
//! those totals across shards is a pure function of the digests, so it
//! is scheduling-independent too.
//!
//! **Eviction.** Ready artifacts carry a byte estimate and a
//! last-touched stamp from a *global* logical clock (one atomic; bumped
//! on every touch); when the summed resident estimate exceeds
//! [`CacheConfig::max_bytes`], a single evictor (serialized by a gate
//! mutex so concurrent inserters do not over-evict) drops the globally
//! least-recently-used ready entries, whichever shard they live in —
//! sharding changes who holds which lock, not which entry is the LRU
//! victim. In-flight markers are never evicted, and the `Arc`s already
//! handed out keep their artifacts alive — eviction only forgets, it
//! cannot invalidate.

use cmm_cfg::Program;
use cmm_chaos::{EngineId, Family};
use cmm_frontend::Code;
use cmm_ir::Module;
use cmm_obs::{CacheSnapshot, ShardedCacheStats};
use cmm_opt::OptOptions;
use cmm_sem::ResolvedProgram;
use cmm_snap::Digest;
use cmm_vm::{DecodedCode, VmProgram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};

/// What language the source text is in, and how to lower it.
#[derive(Clone, PartialEq, Debug)]
pub enum SourceLang {
    /// A C-- module, parsed by `cmm-parse`.
    Cmm,
    /// A MiniM3 module, lowered by `cmm-frontend` with the given
    /// exception-implementation strategy.
    MiniM3(cmm_frontend::Strategy),
}

/// Everything that identifies a compilation: source text, language and
/// lowering strategy, optimization configuration, engine family.
#[derive(Clone, Debug)]
pub struct SourceKey {
    /// Raw source text (whitespace-sensitive by design).
    pub source: String,
    /// Language / lowering.
    pub lang: SourceLang,
    /// Optimization pipeline configuration.
    pub opts: OptOptions,
    /// Artifact chain: the abstract machines (`sem`, `sem-resolved`)
    /// execute the CFG [`Program`]; the simulated targets (`vm`,
    /// `vm-decoded`, `vm-fused`) execute [`VmProgram`] code. The family
    /// is a digest input, so the chains never alias.
    pub family: Family,
}

impl SourceKey {
    /// A C-- source built for `family`, optimized with the default
    /// pipeline or not at all — the two builds `cmm serve`, `cmm snap`
    /// and `cmm resume` offer.
    pub fn cmm(source: &str, opt: bool, family: Family) -> SourceKey {
        SourceKey {
            source: source.to_string(),
            lang: SourceLang::Cmm,
            opts: if opt {
                OptOptions::default()
            } else {
                OptOptions::none()
            },
            family,
        }
    }

    /// The cache digest: raw source bytes + language/strategy tag +
    /// rendered [`OptOptions`] + engine-family tag, length-prefixed.
    pub fn digest(&self) -> Digest {
        let lang = match &self.lang {
            SourceLang::Cmm => "cmm".to_string(),
            // Debug form includes the arch profile for Sjlj, which is
            // exactly the information the lowering consumes.
            SourceLang::MiniM3(s) => format!("m3:{s:?}"),
        };
        let o = &self.opts;
        let opts = format!(
            "constprop={} localopt={} dce={} callee_save_regs={} max_iters={}",
            o.constprop, o.localopt, o.dce, o.callee_save_regs, o.max_iters
        );
        Digest::of(&[
            self.source.as_bytes(),
            lang.as_bytes(),
            opts.as_bytes(),
            self.family.name().as_bytes(),
        ])
    }
}

/// A [`SourceKey`] with its cache [`Digest`], computed once by the
/// constructor. Every lookup for the key reuses the digest instead of
/// rehashing the source, and since the digest is only ever derived
/// from the key the two cannot disagree. Build one per source and keep
/// it for as long as the source is in use: a batch group, a service
/// thread.
#[derive(Clone, Debug)]
pub struct SourceId {
    key: SourceKey,
    digest: Digest,
}

impl SourceId {
    /// Hashes `key` once.
    pub fn new(key: SourceKey) -> SourceId {
        let digest = key.digest();
        SourceId { key, digest }
    }

    /// The key.
    pub fn key(&self) -> &SourceKey {
        &self.key
    }

    /// The key's digest.
    pub fn digest(&self) -> Digest {
        self.digest
    }
}

/// Pipeline stage of a cached artifact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// Parsed (and verified, for C--) AST.
    Module,
    /// Optimized CFG.
    Program,
    /// Pre-resolved tables (built over [`Stage::Program`]).
    Resolved,
    /// Compiled simulated-target code.
    VmCode,
    /// Pre-decoded instruction array.
    Decoded,
    /// The decoded stream with fused windows (built over
    /// [`Stage::Decoded`]).
    Fused,
}

/// A memoized artifact. All variants are cheap-to-clone `Arc`s.
#[derive(Clone)]
pub enum Artifact {
    /// [`Stage::Module`].
    Module(Arc<Module>),
    /// [`Stage::Program`].
    Program(Arc<Program>),
    /// [`Stage::Resolved`].
    Resolved(Arc<ResolvedProgram>),
    /// [`Stage::VmCode`].
    VmCode(Arc<VmProgram>),
    /// [`Stage::Decoded`].
    Decoded(Arc<DecodedCode>),
    /// [`Stage::Fused`]: the same stream type, with windows.
    Fused(Arc<DecodedCode>),
}

impl Artifact {
    /// Estimated resident size. A heuristic over node/instruction
    /// counts — the budget is a pressure valve, not an allocator
    /// ledger, so proportionality is what matters.
    pub fn cost_bytes(&self) -> u64 {
        match self {
            Artifact::Module(m) => {
                let items: usize = m.procs().map(|p| 2 + p.body.len()).sum();
                256 + 96 * (m.decls.len() + items) as u64
            }
            Artifact::Program(p) => {
                let nodes: usize = p.procs.values().map(|g| g.nodes.len() + g.vars.len()).sum();
                512 + 160 * nodes as u64 + 24 * p.image.bytes.len() as u64
            }
            // The tables share their program with the Program entry, so
            // only the resolved nodes are charged here.
            Artifact::Resolved(rp) => {
                let nodes: usize = rp.program().procs.values().map(|g| g.nodes.len()).sum();
                256 + 96 * nodes as u64
            }
            Artifact::VmCode(vp) => {
                512 + 32 * vp.code.len() as u64 + 24 * vp.image.bytes.len() as u64
            }
            Artifact::Decoded(d) => 64 + 48 * d.insts.len() as u64,
            // A heuristic like the rest, held fixed because batch
            // reports pin resident bytes.
            Artifact::Fused(f) => 64 + 16 * f.insts.len() as u64,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Key {
    digest: Digest,
    stage: Stage,
}

enum Slot {
    /// Another thread is building this artifact.
    InFlight,
    /// Ready to serve.
    Ready {
        artifact: Artifact,
        bytes: u64,
        last_use: u64,
    },
}

/// Number of lock stripes. A small power of two: enough that eight
/// workers rarely collide on a stripe, small enough that the global
/// eviction scan stays trivial.
pub const SHARDS: usize = 16;

/// One lock stripe: its slice of the map plus the condvar that
/// single-flight waiters in this stripe block on.
struct Shard {
    inner: Mutex<Inner>,
    ready: Condvar,
}

struct Inner {
    map: HashMap<Key, Slot>,
    /// Sum of `bytes` over this shard's ready slots.
    resident: u64,
}

/// Configuration for a [`PipelineCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Eviction threshold for the estimated resident bytes.
    pub max_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_bytes: 256 << 20,
        }
    }
}

/// A content-addressed, single-flight, LRU-bounded compilation cache,
/// lock-striped into [`SHARDS`] buckets by digest.
pub struct PipelineCache {
    shards: Vec<Shard>,
    /// Global logical clock for LRU stamps (bumped on every touch, in
    /// any shard) — what makes eviction order shard-independent.
    clock: AtomicU64,
    /// Serializes eviction passes so concurrent inserters do not race
    /// each other into over-evicting. An evictor holds at most one
    /// shard lock at a time while holding the gate, and no thread
    /// acquires the gate while holding a shard lock, so the gate
    /// introduces no lock-order cycle.
    evict_gate: Mutex<()>,
    config: CacheConfig,
    stats: ShardedCacheStats,
}

impl Default for PipelineCache {
    fn default() -> PipelineCache {
        PipelineCache::new(CacheConfig::default())
    }
}

impl PipelineCache {
    /// An empty cache with the given byte budget.
    pub fn new(config: CacheConfig) -> PipelineCache {
        PipelineCache {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    inner: Mutex::new(Inner {
                        map: HashMap::new(),
                        resident: 0,
                    }),
                    ready: Condvar::new(),
                })
                .collect(),
            clock: AtomicU64::new(0),
            evict_gate: Mutex::new(()),
            config,
            stats: ShardedCacheStats::new(SHARDS),
        }
    }

    /// The per-shard service counters (hits, misses, evictions, …).
    pub fn stats(&self) -> &ShardedCacheStats {
        &self.stats
    }

    /// A point-in-time copy of the counters, aggregated across shards.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.stats.snapshot()
    }

    /// Point-in-time copies of every shard's counters, in shard order.
    /// The split is a pure function of the digests in play, so for a
    /// fixed job set it is as scheduling-independent as the aggregate.
    pub fn shard_snapshots(&self) -> Vec<CacheSnapshot> {
        self.stats.shard_snapshots()
    }

    /// Mounts the per-shard counters into `registry` as live views
    /// (`cmm_cache_*{shard="i"}`); the registry then exports the very
    /// cells the cache updates, with no copy step.
    pub fn mount_metrics(&self, registry: &cmm_obs::MetricsRegistry) {
        self.stats.mount(registry);
    }

    /// Which stripe a digest lives in: its low bits. FNV-1a mixes the
    /// whole input into every output byte, so the low bits are well
    /// spread even across near-identical sources.
    fn shard_index(digest: Digest) -> usize {
        (digest.0 as usize) & (SHARDS - 1)
    }

    /// A fresh LRU stamp, strictly later than every stamp issued
    /// before it.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Relaxed) + 1
    }

    /// The single-flight memoization core: returns the ready artifact
    /// for `(digest, stage)`, building it with `build` on a miss.
    /// Concurrent requesters of the same key wait for the one builder.
    ///
    /// If the build fails the in-flight marker is removed and each
    /// waiter retries as a builder; a deterministic build error is
    /// therefore rediscovered (never cached), which keeps the error
    /// path simple and the counters monotone.
    pub fn get_or_build(
        &self,
        digest: Digest,
        stage: Stage,
        build: impl FnOnce() -> Result<Artifact, String>,
    ) -> Result<Artifact, String> {
        let key = Key { digest, stage };
        let idx = PipelineCache::shard_index(digest);
        let shard = &self.shards[idx];
        let stats = self.stats.shard(idx);
        let mut waited = false;
        let mut inner = shard.inner.lock().expect("cache poisoned");
        loop {
            match inner.map.get_mut(&key) {
                Some(Slot::Ready {
                    artifact, last_use, ..
                }) => {
                    *last_use = self.tick();
                    let art = artifact.clone();
                    stats.hits.inc();
                    if waited {
                        stats.inflight_waits.inc();
                    }
                    return Ok(art);
                }
                Some(Slot::InFlight) => {
                    waited = true;
                    inner = shard.ready.wait(inner).expect("cache poisoned");
                }
                None => {
                    inner.map.insert(key, Slot::InFlight);
                    stats.misses.inc();
                    break;
                }
            }
        }
        drop(inner);
        // Build outside the lock. A panic in `build` would strand the
        // in-flight marker and hang waiters, so clean up via a guard.
        let guard = FlightGuard { shard, key };
        let built = build();
        std::mem::forget(guard);
        let mut inner = shard.inner.lock().expect("cache poisoned");
        match built {
            Ok(artifact) => {
                let bytes = artifact.cost_bytes();
                let stamp = self.tick();
                inner.map.insert(
                    key,
                    Slot::Ready {
                        artifact: artifact.clone(),
                        bytes,
                        last_use: stamp,
                    },
                );
                inner.resident += bytes;
                stats.resident_bytes.set(inner.resident);
                drop(inner);
                shard.ready.notify_all();
                self.evict_over_budget();
                Ok(artifact)
            }
            Err(e) => {
                inner.map.remove(&key);
                drop(inner);
                shard.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Drops globally least-recently-used ready entries until the
    /// summed resident estimate fits the budget. In-flight markers are
    /// never touched. One evictor runs at a time (the gate); it scans
    /// all shards for the oldest stamp holding one shard lock at a
    /// time, then re-validates the victim under its shard's lock before
    /// removing it — a concurrent hit that refreshed the stamp in the
    /// gap forces a rescan instead of a wrong eviction. The scan is
    /// `O(entries)` per eviction — fine at the budgets a build service
    /// runs with, where eviction is the rare case.
    fn evict_over_budget(&self) {
        if self.stats.resident_total() <= self.config.max_bytes {
            return;
        }
        let _gate = self.evict_gate.lock().expect("evict gate poisoned");
        while self.stats.resident_total() > self.config.max_bytes {
            let mut victim: Option<(u64, usize, Key)> = None;
            for (idx, shard) in self.shards.iter().enumerate() {
                let inner = shard.inner.lock().expect("cache poisoned");
                for (k, s) in &inner.map {
                    if let Slot::Ready { last_use, .. } = s {
                        let cand = (*last_use, idx, *k);
                        if victim.is_none_or(|v| cand < v) {
                            victim = Some(cand);
                        }
                    }
                }
            }
            let Some((stamp, idx, key)) = victim else {
                break;
            };
            let shard = &self.shards[idx];
            let mut inner = shard.inner.lock().expect("cache poisoned");
            let still_oldest = matches!(
                inner.map.get(&key),
                Some(Slot::Ready { last_use, .. }) if *last_use == stamp
            );
            if still_oldest {
                if let Some(Slot::Ready { bytes, .. }) = inner.map.remove(&key) {
                    inner.resident -= bytes;
                    let stats = self.stats.shard(idx);
                    stats.resident_bytes.set(inner.resident);
                    stats.evictions.inc();
                }
            }
            // Touched or gone since the scan: loop and rescan.
        }
    }

    /// The parsed (C--) or lowered (MiniM3) [`Module`] for `id`.
    /// [`Self::program`]'s `build_program` is what checks it.
    pub fn module(&self, id: &SourceId) -> Result<Arc<Module>, String> {
        let key = id.key();
        let art = self.get_or_build(id.digest(), Stage::Module, || {
            let module = match &key.lang {
                SourceLang::Cmm => {
                    cmm_parse::parse_module(&key.source).map_err(|e| e.to_string())?
                }
                SourceLang::MiniM3(strategy) => {
                    cmm_frontend::compile_minim3(&key.source, *strategy)
                        .map_err(|e| e.to_string())?
                }
            };
            Ok(Artifact::Module(Arc::new(module)))
        })?;
        match art {
            Artifact::Module(m) => Ok(m),
            _ => unreachable!("stage key mismatch"),
        }
    }

    /// The optimized CFG [`Program`] for `id`.
    pub fn program(&self, id: &SourceId) -> Result<Arc<Program>, String> {
        let art = self.get_or_build(id.digest(), Stage::Program, || {
            let module = self.module(id)?;
            let mut prog = cmm_cfg::build_program(&module).map_err(|e| e.to_string())?;
            cmm_opt::optimize_program(&mut prog, &id.key().opts);
            Ok(Artifact::Program(Arc::new(prog)))
        })?;
        match art {
            Artifact::Program(p) => Ok(p),
            _ => unreachable!("stage key mismatch"),
        }
    }

    /// The pre-resolved tables for `id`. A hit is one lookup: the
    /// tables hold their [`Program`], so it is not fetched again.
    pub fn resolved(&self, id: &SourceId) -> Result<Arc<ResolvedProgram>, String> {
        let art = self.get_or_build(id.digest(), Stage::Resolved, || {
            let prog = self.program(id)?;
            Ok(Artifact::Resolved(Arc::new(ResolvedProgram::new_shared(
                prog,
            ))))
        })?;
        match art {
            Artifact::Resolved(rp) => Ok(rp),
            _ => unreachable!("stage key mismatch"),
        }
    }

    /// The compiled [`VmProgram`] for `id`.
    pub fn vm_code(&self, id: &SourceId) -> Result<Arc<VmProgram>, String> {
        let art = self.get_or_build(id.digest(), Stage::VmCode, || {
            let prog = self.program(id)?;
            let vp = cmm_vm::compile(&prog).map_err(|e| e.to_string())?;
            Ok(Artifact::VmCode(Arc::new(vp)))
        })?;
        match art {
            Artifact::VmCode(vp) => Ok(vp),
            _ => unreachable!("stage key mismatch"),
        }
    }

    /// The compiled program together with its pre-decoded instruction
    /// array.
    pub fn decoded(&self, id: &SourceId) -> Result<(Arc<VmProgram>, Arc<DecodedCode>), String> {
        let vp = self.vm_code(id)?;
        let art = self.get_or_build(id.digest(), Stage::Decoded, || {
            Ok(Artifact::Decoded(Arc::new(DecodedCode::decode(&vp))))
        })?;
        match art {
            Artifact::Decoded(d) => Ok((vp, d)),
            _ => unreachable!("stage key mismatch"),
        }
    }

    /// Everything `engine` runs `id`'s program from: the CFG for `sem`,
    /// the resolved tables for `sem-resolved`, the target code plus the
    /// tier's shared lowering for the VM tiers.
    ///
    /// # Errors
    ///
    /// The compile error of the first stage that failed.
    pub fn engine_code(&self, id: &SourceId, engine: EngineId) -> Result<EngineCode, String> {
        let mut code = EngineCode::default();
        match engine {
            EngineId::Sem => code.program = Some(self.program(id)?),
            EngineId::SemResolved => code.resolved = Some(self.resolved(id)?),
            EngineId::Vm => code.vm = Some(self.vm_code(id)?),
            EngineId::VmDecoded => {
                let (vp, decoded) = self.decoded(id)?;
                (code.vm, code.stream) = (Some(vp), Some(decoded));
            }
            EngineId::VmFused => {
                let (vp, fused) = self.fused(id)?;
                (code.vm, code.stream) = (Some(vp), Some(fused));
            }
        }
        Ok(code)
    }

    /// The compiled program together with its fused stream. Builds on
    /// [`PipelineCache::decoded`], so a batch wanting both pays for one
    /// decode.
    pub fn fused(&self, id: &SourceId) -> Result<(Arc<VmProgram>, Arc<DecodedCode>), String> {
        let (vp, dec) = self.decoded(id)?;
        let art = self.get_or_build(id.digest(), Stage::Fused, || {
            Ok(Artifact::Fused(Arc::new(DecodedCode::fuse(
                &vp,
                dec.clone(),
            ))))
        })?;
        match art {
            Artifact::Fused(f) => Ok((vp, f)),
            _ => unreachable!("stage key mismatch"),
        }
    }
}

/// Shared handles on the artifacts one engine runs (see
/// [`PipelineCache::engine_code`]).
#[derive(Clone, Default)]
pub struct EngineCode {
    program: Option<Arc<Program>>,
    resolved: Option<Arc<ResolvedProgram>>,
    vm: Option<Arc<VmProgram>>,
    stream: Option<Arc<DecodedCode>>,
}

impl EngineCode {
    /// The artifacts as the engine constructor's input.
    pub fn code(&self) -> Code<'_> {
        Code {
            program: self.program.as_deref(),
            resolved: self.resolved.as_deref(),
            vm: self.vm.as_deref(),
            stream: self.stream.clone(),
        }
    }
}

/// Removes the in-flight marker if the builder panics (forgotten on
/// the normal path).
struct FlightGuard<'c> {
    shard: &'c Shard,
    key: Key,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.shard.inner.lock() {
            inner.map.remove(&self.key);
        }
        self.shard.ready.notify_all();
    }
}
