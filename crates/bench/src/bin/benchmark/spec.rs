//! The metrics the benchmark declares, mirrored in the repository's
//! `BENCHMARK.json` (a smoke test keeps the two in step).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and how far it may worsen before a change counts
/// as a regression: by `bound` × the baseline median, or, for an
/// `absolute` gate, by `bound` itself.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub absolute: bool,
}

/// The end-to-end metrics every workload reports from its untraced
/// run, as `BENCHMARK.json` declares them. The bounds are the narrowest
/// that the seed-to-seed spreads measured on a shared host stay within
/// (see README.md).
pub const END_TO_END: [Gate; 4] = [
    relative("ops_per_s", "ops/s", Better::Higher, 0.25),
    relative("op_p50_us", "us", Better::Lower, 0.25),
    relative("peak_rss_mb", "MB", Better::Lower, 0.15),
    relative("setup_s", "s", Better::Lower, 0.25),
];

/// End-to-end metrics every workload also reports, gated by `compare`
/// only. `op_p99_us` spread past the largest bound `BENCHMARK.json`
/// allows on a shared host. The two ratios read 0 on a correct build,
/// so no bound can be a share of their baseline median: they are gated
/// by absolute amounts, and any failed op also makes the result line's
/// `correct` false.
pub const COMPARE_ONLY: [Gate; 3] = [
    relative("op_p99_us", "us", Better::Lower, 0.25),
    Gate {
        name: "failed_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        absolute: true,
    },
    Gate {
        name: "slo_miss_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.001,
        absolute: true,
    },
];

const fn relative(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Gate {
    Gate {
        name,
        unit,
        better,
        bound,
        absolute: false,
    }
}

/// The per-layer metrics a traced run reports in its result object: the
/// ones an optimisation of one layer is most likely to move. All are
/// shares, counts or ratios, so a layer a workload never reaches reads
/// a true 0 rather than a time. The full ledger (self times, per-call
/// percentiles, ns per instruction and per blob) is printed alongside.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("parse.share", "permille"),
    ("frontend.share", "permille"),
    ("cfg.share", "permille"),
    ("opt.share", "permille"),
    ("vm.codegen.share", "permille"),
    ("vm.decode.share", "permille"),
    ("vm.fuse.share", "permille"),
    ("sem.resolve.share", "permille"),
    ("exec.sem.share", "permille"),
    ("exec.sem-resolved.share", "permille"),
    ("exec.vm.share", "permille"),
    ("exec.vm-decoded.share", "permille"),
    ("exec.vm-fused.share", "permille"),
    ("rt.dispatch.share", "permille"),
    ("pool.share", "permille"),
    ("serve.submit.share", "permille"),
    ("serve.tick.share", "permille"),
    ("serve.awaiting.share", "permille"),
    ("serve.resume.share", "permille"),
    ("serve.poll.share", "permille"),
    ("op.share", "permille"),
    ("parse.bytes", "count"),
    ("cfg.nodes", "count"),
    ("opt.nodes_out", "count"),
    ("vm.codegen.insts", "count"),
    ("vm.fuse.heads", "count"),
    ("rt.dispatch.calls", "count"),
    ("exec.sem.sim_insts", "count"),
    ("exec.sem-resolved.sim_insts", "count"),
    ("exec.vm.sim_insts", "count"),
    ("exec.vm-decoded.sim_insts", "count"),
    ("exec.vm-fused.sim_insts", "count"),
    ("pool.batch.busy_ratio", "ratio"),
    ("pool.cache.hits", "count"),
    ("pool.cache.misses", "count"),
    ("pool.job_share.sem", "permille"),
    ("pool.job_share.sem-resolved", "permille"),
    ("pool.job_share.vm", "permille"),
    ("pool.job_share.vm-decoded", "permille"),
    ("pool.job_share.vm-fused", "permille"),
    ("serve.slices", "count"),
    ("serve.migrations", "count"),
    ("serve.parked_high_water", "count"),
    ("serve.threads_retained", "count"),
    ("serve.backlog_end", "count"),
    ("snap.blob_bytes", "bytes"),
    ("snap.blobs", "count"),
    ("pool.job_insts", "count"),
    ("pool.cache.inflight_waits", "count"),
    ("trace.overhead_pct", "%"),
];

/// The gate of an end-to-end metric, if it has one.
pub fn gate(metric: &str) -> Option<&'static Gate> {
    END_TO_END
        .iter()
        .chain(&COMPARE_ONLY)
        .find(|g| g.name == metric)
}
