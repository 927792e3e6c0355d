//! `serve_open` and `serve_rotate`: the persistent execution service
//! (`cmm-serve`), driven through its public calls as tenants would.
//!
//! Programs are the load generator's three shapes — yield chain,
//! compute plus yield, compute loop — with seeded arguments, and every
//! finished thread is checked against the formal semantics under the
//! same fixed dispatcher policy the tenants reply with.

use crate::programs::{cmm_reference, halt_string, LOOP_SRC, MIX_SRC, YIELD_SRC};
use crate::speed;
use crate::stats::percentile;
use crate::trace::{self, span, Ledger};
use crate::workload::{end_to_end, guarded, ledger_lines, line, timed, Line, Report, Size, Window};
use cmm_difftest::oracle::Limits;
use cmm_difftest::Rng;
use cmm_serve::service::dispatcher_fill;
use cmm_serve::{
    MigrationPolicy, ServeConfig, ServeStats, Service, SubmitReq, ThreadState, ThreadView,
};
use cmm_snap::{EngineId, Snapshot};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Tenants; requests and threads are assigned to them round-robin.
const TENANTS: usize = 17;

/// A request slower than this misses the `serve_open` latency limit.
const SLO: Duration = Duration::from_millis(25);

/// `serve_open`'s arrival rate, requests per second. Latency there is
/// dominated by the service scanning every thread it has ever run, a
/// table that grows by the rate each second. At 400/s the scan made the
/// percentiles swing with other tenants of a shared host by up to their
/// bound; at 200/s they swing by about half as much.
const RATE: f64 = 200.0;

/// Rounds in a traced `serve_rotate` run.
const TRACED_ROUNDS: usize = 2;

/// One distinct program with its reference.
struct Program {
    shape: &'static str,
    src: &'static str,
    args: Vec<u64>,
    outcome: String,
    yields: Vec<u64>,
}

/// One submission: who, on which engine, which program.
#[derive(Clone, Copy)]
struct Req {
    tenant: usize,
    engine: EngineId,
    prog: usize,
}

/// The distinct programs, drawn and checked once.
#[derive(Default)]
struct Programs {
    list: Vec<Program>,
    index: HashMap<(&'static str, Vec<u64>), usize>,
}

impl Programs {
    /// Draws a program of the load generator's `kind` (0..8: 5/8 yield
    /// chain, 2/8 compute plus yield, 1/8 compute loop).
    fn draw(&mut self, kind: usize, rng: &mut Rng) -> usize {
        let (shape, src, args) = match kind {
            0..=4 => (
                "yield",
                YIELD_SRC,
                vec![rng.below(7) as u64, 8 + rng.below(5) as u64],
            ),
            5 | 6 => ("mix", MIX_SRC, vec![rng.below(11) as u64, 6]),
            _ => (
                "loop",
                LOOP_SRC,
                vec![3_000 + rng.below(7) as u64 * 500, rng.below(13) as u64],
            ),
        };
        let list = &mut self.list;
        *self.index.entry((shape, args.clone())).or_insert_with(|| {
            let a: Vec<u32> = args.iter().map(|&x| x as u32).collect();
            let obs = cmm_reference(src, &a, &Limits::default());
            list.push(Program {
                shape,
                src,
                args,
                outcome: halt_string(&obs).unwrap_or_else(|| format!("{:?}", obs.outcome)),
                yields: obs.yields,
            });
            list.len() - 1
        })
    }

    fn submit(&self, svc: &mut Service, r: Req) -> Result<u64, String> {
        let p = &self.list[r.prog];
        span("serve.submit", || {
            svc.submit(SubmitReq {
                tenant: format!("tenant-{}", r.tenant),
                name: p.shape.to_string(),
                source: p.src.to_string(),
                entry: "f".to_string(),
                args: p.args.clone(),
                results: 1,
                engine: r.engine,
                fuel: 500_000,
                max_yields: 64,
                opt: true,
                chaos: None,
            })
        })
    }

    /// Checks a finished thread's view against its reference.
    fn verify(&self, id: u64, view: Option<ThreadView>, r: Req) -> Result<(), String> {
        let p = &self.list[r.prog];
        let view = view.ok_or(format!("t{id} vanished"))?;
        match view.state {
            ThreadState::Done { outcome } if outcome == p.outcome && view.yields == p.yields => {
                Ok(())
            }
            ThreadState::Done { outcome } => Err(format!(
                "t{id} ({} {:?} on {}): got `{outcome}` yields {:?}, want `{}` yields {:?}",
                p.shape,
                p.args,
                r.engine.name(),
                view.yields,
                p.outcome,
                p.yields
            )),
            state => Err(format!("t{id} lost by the scheduler in state {state:?}")),
        }
    }

    /// The warm-up population: one thread per distinct program drawn,
    /// ordered by shape with engines taken in turn, so a shape with five
    /// or more programs is compiled for every engine. Nearly every
    /// program the draw allows is drawn at full size, which keeps the
    /// set-up's work the same under every seed.
    fn warm(&self) -> Vec<Req> {
        let mut order: Vec<usize> = (0..self.list.len()).collect();
        order.sort_by_key(|&i| (self.list[i].shape, &self.list[i].args));
        order
            .into_iter()
            .enumerate()
            .map(|(i, prog)| Req {
                tenant: i % TENANTS,
                engine: EngineId::ALL[i % EngineId::ALL.len()],
                prog,
            })
            .collect()
    }
}

/// Times `Snapshot::decode` and `encode` on real parked blobs.
#[derive(Default)]
struct SnapReplay {
    blobs: u64,
    bytes: u64,
    decode_ns: u64,
    encode_ns: u64,
}

impl SnapReplay {
    fn replay(&mut self, svc: &Service, ids: &[u64]) {
        if !trace::on() {
            return;
        }
        for &id in ids {
            let Some(blob) = svc.parked_blob(id) else {
                continue;
            };
            let t = Instant::now();
            let snap = span("snap.decode", || Snapshot::decode(blob));
            self.decode_ns += t.elapsed().as_nanos() as u64;
            if let Ok(s) = snap {
                let t = Instant::now();
                let bytes = span("snap.encode", || s.encode());
                self.encode_ns += t.elapsed().as_nanos() as u64;
                std::hint::black_box(bytes);
            }
            self.blobs += 1;
            self.bytes += blob.len() as u64;
        }
    }

    fn lines(&self) -> Vec<Line> {
        let per = |ns: u64| ns as f64 / self.blobs.max(1) as f64;
        vec![
            line("snap.decode.ns_per_blob", per(self.decode_ns), "ns"),
            line("snap.encode.ns_per_blob", per(self.encode_ns), "ns"),
            line("snap.blob_bytes", per(self.bytes), "bytes"),
            line("snap.blobs", self.blobs as f64, "count"),
        ]
    }
}

/// Drives a closed round to completion: every thread submitted at
/// once, ticks until the run queue is dry, then every tenant hears its
/// response — a yield, answered with the dispatcher's reply word, or a
/// finished thread, checked. A response's latency runs from the
/// tenant's submit or resume to that drain point, on the reference
/// clock.
fn closed_round(
    svc: &mut Service,
    progs: &Programs,
    reqs: &[Req],
    w: &mut Window,
    snap: &mut SnapReplay,
) {
    let mut live: HashMap<u64, (Req, Duration)> = HashMap::new();
    let r = guarded(0, || {
        for &r in reqs {
            match progs.submit(svc, r) {
                Ok(id) => {
                    live.insert(id, (r, speed::now()));
                }
                Err(e) => w.check(|| "submit".into(), Err(e)),
            }
        }
        Ok(())
    });
    if let Err(e) = r {
        w.check(|| "round submit".into(), Err(e));
    }
    let mut tick_no = 1;
    while !live.is_empty() {
        speed::poll();
        let mut resumed = Vec::new();
        let r = guarded(tick_no, || {
            if span("serve.tick", || svc.tick()).dispatched > 0 {
                return Ok(());
            }
            let now = speed::now();
            let awaiting = span("serve.awaiting", || svc.awaiting());
            let parked: HashSet<u64> = awaiting.iter().map(|&(id, _)| id).collect();
            let mut gone = Vec::new();
            for (&id, &(r, at)) in &live {
                if parked.contains(&id) {
                    continue;
                }
                w.done(now - at);
                let view = span("serve.poll", || svc.poll(id));
                w.check(|| format!("t{id}"), progs.verify(id, view, r));
                gone.push(id);
            }
            for id in gone {
                live.remove(&id);
            }
            for (id, code) in awaiting {
                let Some(entry) = live.get_mut(&id) else {
                    continue;
                };
                w.done(now - entry.1);
                let r = span("serve.resume", || {
                    svc.resume(id, u64::from(dispatcher_fill(code)))
                });
                entry.1 = speed::now();
                if let Err(e) = r {
                    w.check(|| format!("resume t{id}"), Err(e));
                    live.remove(&id);
                } else {
                    resumed.push(id);
                }
            }
            Ok(())
        });
        if let Err(e) = r {
            // The service itself failed: every thread still out is lost.
            for _ in 0..live.len() {
                w.check(|| "round".into(), Err(e.clone()));
            }
            live.clear();
        }
        snap.replay(svc, &resumed);
        tick_no += 1;
    }
}

/// Service figures over the measured stretch, summed over services.
#[derive(Default)]
struct ServeTotals {
    slices: u64,
    migrations: u64,
    parked_high_water: u64,
    retained: u64,
}

impl ServeTotals {
    /// Adds what `svc` did since `before`.
    fn add(&mut self, svc: &Service, before: ServeStats) {
        let s = svc.stats();
        self.slices += s.slices - before.slices;
        self.migrations += s.migrations - before.migrations;
        self.parked_high_water = self.parked_high_water.max(s.parked_high_water);
        // Finished threads are never evicted: count what the service
        // still answers for.
        self.retained += (0..s.submitted)
            .filter(|&id| svc.poll(id).is_some())
            .count() as u64;
    }

    fn lines(&self, rec: &trace::Recording) -> Vec<Line> {
        let l = Ledger::of(rec);
        let mut ticks = l.durations.get("serve.tick").cloned().unwrap_or_default();
        ticks.sort_unstable();
        vec![
            line("serve.slices", self.slices as f64, "count"),
            line(
                "serve.ns_per_slice",
                l.self_ns("serve.tick") as f64 / self.slices.max(1) as f64,
                "ns",
            ),
            line(
                "serve.tick.p99_us",
                percentile(&ticks, 99.0) as f64 / 1e3,
                "us",
            ),
            line("serve.migrations", self.migrations as f64, "count"),
            line(
                "serve.parked_high_water",
                self.parked_high_water as f64,
                "count",
            ),
            line("serve.threads_retained", self.retained as f64, "count"),
        ]
    }
}

fn open_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        quantum: 2_000,
        migration: MigrationPolicy::Pinned,
        ..ServeConfig::default()
    }
}

fn rotate_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        quantum: 2_000,
        migration: MigrationPolicy::Rotate,
        ..ServeConfig::default()
    }
}

/// Builds a service and drains the warm-up population through it.
fn set_up(config: &ServeConfig, progs: &Programs, warm: &[Req], report: &mut Report) -> Service {
    let mut svc = Service::new(config.clone());
    let mut w = Window::default();
    closed_round(&mut svc, progs, warm, &mut w, &mut SnapReplay::default());
    report.attempted += w.attempted;
    report.failed += w.failed;
    svc
}

/// Spins until `at`. The generator never sleeps: a sleeping virtual CPU
/// wakes late, and that wake-up would be charged to the next request.
fn wait_until(at: Instant) {
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// `serve_open`: an open loop at a constant rate on one service. The
/// requests are cut into one chunk per slice of the window; before each
/// chunk the loop drains and a set-up on a service of its own is timed.
/// Request `i` of a chunk is due `i / rate` after the chunk starts; its
/// latency runs from then to the tick after which the thread is seen
/// finished, scaled to the reference clock. Tenants poll their live
/// threads after every tick and answer each yield at once. Percentiles
/// are taken over the whole window. Arrivals, the window and the SLO
/// keep wall time: the rate is offered in wall time.
pub fn open(seed: u64, size: &Size, traced: bool) -> Report {
    let t = Instant::now();
    let mut rng = Rng::new(seed ^ 0x09e4);
    let mut progs = Programs::default();
    let n = if traced {
        size.traced_requests
    } else {
        (RATE * size.seconds).round() as usize
    };
    let (t_off, e_off) = (rng.below(TENANTS), rng.below(EngineId::ALL.len()));
    let reqs: Vec<Req> = (0..n)
        .map(|i| Req {
            tenant: (i + t_off) % TENANTS,
            engine: EngineId::ALL[(i + e_off) % EngineId::ALL.len()],
            prog: progs.draw(rng.below(8), &mut rng),
        })
        .collect();
    let warm = progs.warm();
    let prep_s = t.elapsed().as_secs_f64();

    let mut report = Report::default();
    let config = open_config();
    let slices = size.slices(traced);
    let mut setups = Vec::new();
    let mut svc = timed(&mut setups, || set_up(&config, &progs, &warm, &mut report));
    let before = svc.stats();
    if traced {
        trace::enable();
    }
    let mut w = Window::default();
    let mut snap = SnapReplay::default();
    let mut gen_late: Vec<u64> = Vec::with_capacity(n);
    let mut backlog_end = 0;
    let mut slo_misses = 0u64;
    let mut next = 0;
    let mut live: Vec<(u64, usize)> = Vec::new();
    let mut iteration = 0;
    for slice in 0..slices {
        if slice > 0 {
            timed(&mut setups, || set_up(&config, &progs, &warm, &mut report));
        }
        let (first, end) = (next, n * (slice + 1) / slices);
        let start = Instant::now() + Duration::from_millis(1);
        let due = |i: usize| start + Duration::from_secs_f64((i - first) as f64 / RATE);
        let mut last_done = start;
        while next < end || !live.is_empty() {
            if live.is_empty() {
                // Sample the host's speed only while idle, well before
                // the next request is due.
                if due(next) > Instant::now() + Duration::from_millis(1) {
                    speed::poll();
                }
                wait_until(due(next));
            }
            let mut resumed = Vec::new();
            let r = guarded(iteration, || {
                while next < end && due(next) <= Instant::now() {
                    gen_late.push((Instant::now() - due(next)).as_nanos() as u64);
                    match progs.submit(&mut svc, reqs[next]) {
                        Ok(id) => live.push((id, next)),
                        Err(e) => {
                            slo_misses += 1;
                            w.check(|| format!("submit {next}"), Err(e));
                        }
                    }
                    next += 1;
                    if next == n {
                        backlog_end = live.len();
                    }
                }
                // Each tenant polls its own live thread after every tick:
                // a yield is answered at once, a finished thread checked.
                let tick = span("serve.tick", || svc.tick());
                let now = Instant::now();
                let mut i = 0;
                while i < live.len() {
                    let (id, k) = live[i];
                    let view = span("serve.poll", || svc.poll(id));
                    match view.as_ref().map(|v| &v.state) {
                        Some(&ThreadState::AwaitingTenant { code }) => {
                            let reply = u64::from(dispatcher_fill(code));
                            span("serve.resume", || svc.resume(id, reply))?;
                            resumed.push(id);
                            i += 1;
                            continue;
                        }
                        Some(ThreadState::Runnable) if tick.dispatched > 0 => {
                            i += 1;
                            continue;
                        }
                        _ => {}
                    }
                    let done = progs.verify(id, view, reqs[k]);
                    let lat = now - due(k);
                    if done.is_err() || lat > SLO {
                        slo_misses += 1;
                    }
                    w.done(speed::scaled(lat));
                    w.check(|| format!("t{id}"), done);
                    last_done = now;
                    live.swap_remove(i);
                }
                Ok(())
            });
            if let Err(e) = r {
                for _ in live.drain(..) {
                    slo_misses += 1;
                    w.check(|| "service".into(), Err(e.clone()));
                }
            }
            snap.replay(&svc, &resumed);
            iteration += 1;
        }
        w.add_time(last_done.saturating_duration_since(start));
    }
    report.attempted += w.attempted;
    report.failed += w.failed;
    if traced {
        let rec = trace::disable();
        let mut totals = ServeTotals::default();
        totals.add(&svc, before);
        report.lines = ledger_lines(&rec, &w);
        report.lines.extend(totals.lines(&rec));
        report.lines.extend(snap.lines());
        gen_late.sort_unstable();
        report.lines.push(line(
            "serve.gen_late_p99_us",
            percentile(&gen_late, 99.0) as f64 / 1e3,
            "us",
        ));
        report
            .lines
            .push(line("serve.backlog_end", backlog_end as f64, "count"));
        report.recording = Some(rec);
    } else {
        report.lines = end_to_end(prep_s, &setups, &w);
        report.lines.push(line(
            "slo_miss_ratio",
            slo_misses as f64 / n.max(1) as f64,
            "ratio",
        ));
    }
    report
}

/// `serve_rotate`: closed rounds of 17 × `threads_per_tenant` threads
/// under the `Rotate` policy (every slice migrates tiers) on two
/// workers. Tenants answer only once the run queue is dry, so the whole
/// yielding population is parked at once. An op is one response.
pub fn rotate(seed: u64, size: &Size, traced: bool) -> Report {
    let t = Instant::now();
    let mut rng = Rng::new(seed ^ 0x0707);
    let mut progs = Programs::default();
    let e_off = rng.below(EngineId::ALL.len());
    let per = size.threads_per_tenant;
    let reqs: Vec<Req> = (0..TENANTS * per)
        .map(|idx| Req {
            tenant: idx / per,
            engine: EngineId::ALL[(idx + e_off) % EngineId::ALL.len()],
            prog: progs.draw(idx % 8, &mut rng),
        })
        .collect();
    let warm = progs.warm();
    let prep_s = t.elapsed().as_secs_f64();

    let mut report = Report::default();
    let config = rotate_config();
    let mut setups = Vec::new();
    timed(&mut setups, || set_up(&config, &progs, &warm, &mut report));
    if traced {
        trace::enable();
    }
    let slice_s = size.seconds / size.slices(traced) as f64;
    let mut w = Window::default();
    let mut snap = SnapReplay::default();
    let mut totals = ServeTotals::default();
    let mut rounds = 0;
    // Wall time in rounds, which decides when the run stops.
    let mut wall = Duration::ZERO;
    loop {
        // A fresh service per round keeps rounds alike: nothing a
        // finished round leaves behind slows the next one.
        let (start, ref_start) = (Instant::now(), speed::now());
        let mut svc = Service::new(config.clone());
        closed_round(&mut svc, &progs, &reqs, &mut w, &mut snap);
        if traced {
            totals.add(&svc, ServeStats::default());
        }
        drop(svc);
        w.add_time(speed::now() - ref_start);
        wall += start.elapsed();
        rounds += 1;
        let done = if traced {
            rounds == TRACED_ROUNDS
        } else {
            wall.as_secs_f64() >= size.seconds
        };
        if done {
            break;
        }
        // Another set-up once the window has run a slice further.
        if !traced && wall.as_secs_f64() >= setups.len() as f64 * slice_s {
            timed(&mut setups, || set_up(&config, &progs, &warm, &mut report));
        }
    }
    report.attempted += w.attempted;
    report.failed += w.failed;
    if traced {
        let rec = trace::disable();
        report.lines = ledger_lines(&rec, &w);
        report.lines.extend(totals.lines(&rec));
        report.lines.extend(snap.lines());
        report.recording = Some(rec);
    } else {
        report.lines = end_to_end(prep_s, &setups, &w);
    }
    report
}
