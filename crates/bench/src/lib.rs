//! # cmm-bench — the experiment harness
//!
//! One regenerator per table and figure of the paper's design-space
//! analysis (see `DESIGN.md` §3 for the index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig2_design_space` | Figure 2: the 2×2 space of control-transfer mechanisms |
//! | `fig34_branch_table` | Figures 3/4: the branch-table method's call-site costs |
//! | `sec2_setjmp_cost` | §2: `jmp_buf` sizes vs the 2-pointer native cutter |
//! | `appendixa_dispatchers` | Appendix A: the two Modula-3 dispatcher cost models and their crossover |
//! | `sec42_callee_saves` | §4.2: cut edges kill callee-saves registers |
//! | `table3_dataflow_effect` | §6/Table 3: what the optimizer buys on exception-heavy code |
//! | `all_experiments` | everything above, in order (the source of `EXPERIMENTS.md`) |
//!
//! Measurements are exact instruction/load/store counts from the
//! `cmm-vm` cost model — deterministic, so "benchmarks" here are tables,
//! not statistics. The [`trajectory`] module records the same kind of
//! deterministic figures for the implementation itself
//! (`BENCH_trajectory.json`); the implementation's wall-clock speed is
//! measured by the repository benchmark (`BENCHMARK.json`, the
//! `benchmark` binary).

pub mod experiments;
pub mod trajectory;

pub use experiments::*;
