//! # cmm-serve — a persistent multi-tenant execution service with
//! # snapshot-based work migration
//!
//! The paper's `Yield` transition is a natural suspension point; this
//! crate builds the service on top of it. Tenants submit C-- programs,
//! receive yield values, and resume suspended threads; the scheduler
//! advances thousands of concurrent service threads in fuel-bounded
//! slices over the `cmm-pool` worker set, parking every suspended
//! thread as a portable `cmm-snap` blob. That representation choice is
//! the whole design: between slices a thread is nothing but its blob,
//! so it can resume on **any** worker and **any** engine tier of its
//! family — work migration costs nothing beyond the snapshot the
//! scheduler was going to take anyway.
//!
//! * [`service`] — the in-process [`Service`](service::Service) API:
//!   the scheduler, the per-tenant resource governors, the virtual
//!   clock, and the deterministic event log.
//! * [`server`] — the wire protocol: newline-delimited JSON over TCP,
//!   a thin loop over [`handle_line`](server::handle_line).
//! * [`json`] — the hand-rolled flat-JSON reader the protocol parses
//!   requests with (the workspace has no JSON dependency).
//! * [`loadgen`] — the deterministic load generator: a seed-derived
//!   population of yield-heavy, exception-heavy, and compute-heavy
//!   tenants, driven on the virtual clock (`cmm serve --selftest`).
//!
//! Determinism is inherited from the layers below and preserved here:
//! slices execute on the ticking thread and the service's `cmm-pool`
//! [`Crew`](cmm_pool::Crew) (results in submission order), the clock
//! advances by the deterministic list-schedule makespan of each
//! quantum's slice costs, and every tenant-visible response is logged
//! in dispatch order — so the event log, the outcomes, and every
//! `Deterministic`-class metric are byte-identical at `-j1` and `-jN`.

pub mod json;
pub mod loadgen;
pub mod server;
pub mod service;

pub use loadgen::{acceptance_profile, load_config, run_load, LoadProfile, LoadReport};
pub use server::{handle_line, serve_on};
pub use service::{
    dispatcher_fill, MigrationPolicy, ServeConfig, ServeStats, Service, SubmitReq, ThreadState,
    ThreadView, TickReport,
};
