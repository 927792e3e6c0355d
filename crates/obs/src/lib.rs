//! # cmm-obs — exception-flow observability
//!
//! The paper's thesis is that one intermediate language can host four
//! exception-implementation strategies with *predictable* costs. This
//! crate makes those costs (and the control flow behind them)
//! observable: every engine in the workspace — the reference abstract
//! machine, the pre-resolved engine, and both VM step loops — is
//! generic over a [`TraceSink`] and emits a structured [`Event`] at
//! every exception-relevant transition, from `cut to` transfers down to
//! individual Table 1 run-time-interface calls.
//!
//! The layer is *zero-cost when off*: the default [`NopSink`] carries
//! `ENABLED = false` as an associated constant, engines guard every
//! emission with it, and monomorphization deletes the branches — the
//! perf trajectory's committed instruction counts are measured through
//! exactly this instantiation and gate it in CI.
//!
//! On top of the raw streams sit:
//!
//! * [`projection`] / [`first_divergence`] — the engine-independent
//!   exception projection used by `tests/trace_equivalence.rs` and by
//!   difftest's divergence artifacts;
//! * [`Profile`] — per-procedure and per-strategy metrics with
//!   cost-model attribution (`cmm profile`);
//! * [`chrome_trace_json`] — Chrome `trace_event` export
//!   (`cmm trace`);
//! * [`MetricsRegistry`] — the live metrics runtime: sharded
//!   counters/gauges/log-bucketed histograms with Prometheus and
//!   deterministic-JSON export (`cmm metrics`);
//! * [`CacheStats`] — registry-backed service counters (hits, misses,
//!   evictions) for `cmm-pool`'s content-addressed compilation cache;
//! * [`FlightRecorder`] — a bounded ring-buffer sink that keeps a
//!   job's final events for post-mortem dumps when it fails.

pub mod chrome;
pub mod counters;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod sink;

pub use chrome::chrome_trace_json;
pub use counters::{CacheSnapshot, CacheStats, ShardedCacheStats};
pub use event::{first_divergence, projection, Event, ResumeKind, RtsOp, TimedEvent};
pub use flight::{FlightRecorder, SharedFlight, RTS_OP_NAMES};
pub use json::json_escape;
pub use metrics::{ProcStats, Profile, StrategyCounts};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metric, MetricClass, MetricsRegistry,
};
pub use sink::{CountingSink, EventCounts, NopSink, RecordingSink, TraceSink};
