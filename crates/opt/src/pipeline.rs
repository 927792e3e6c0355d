//! The optimization pipeline.
//!
//! "Therefore, a single optimizer should suffice for all C-- programs,
//! regardless of the original source language" (§1) — this is that
//! optimizer. Passes run in the classical order, iterated until nothing
//! changes (bounded), then callee-saves promotion runs **last**: until
//! then the callee-saves set `s` is empty everywhere (the direct
//! translation never populates it), so cut edges kill nothing and the
//! value-level passes need no kill handling. Every pass of one graph
//! reads the same [`Analyses`], rebuilt only where a pass changed what
//! they were built from.

use crate::analyses::Analyses;
use crate::callee_saves::{promote_callee_saves, CalleeSavesStats};
use crate::constprop::constprop;
use crate::dce::dce;
use crate::localopt::localopt;
use cmm_cfg::{Graph, Program, YIELD};

/// Options controlling the pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OptOptions {
    /// Run constant propagation and folding.
    pub constprop: bool,
    /// Run local copy propagation and CSE.
    pub localopt: bool,
    /// Run dead-code elimination.
    pub dce: bool,
    /// Callee-saves registers available for promotion (0 disables the
    /// pass).
    pub callee_save_regs: usize,
    /// Maximum pass-pipeline iterations.
    pub max_iters: usize,
}

impl Default for OptOptions {
    fn default() -> OptOptions {
        OptOptions {
            constprop: true,
            localopt: true,
            dce: true,
            callee_save_regs: 6,
            max_iters: 4,
        }
    }
}

impl OptOptions {
    /// Everything off: the identity pipeline.
    pub fn none() -> OptOptions {
        OptOptions {
            constprop: false,
            localopt: false,
            dce: false,
            callee_save_regs: 0,
            max_iters: 1,
        }
    }
}

/// What the pipeline did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OptStats {
    /// Expressions rewritten by constant propagation/folding.
    pub constprop_rewrites: usize,
    /// Rewrites by copy propagation and CSE.
    pub local_rewrites: usize,
    /// Nodes removed by DCE.
    pub dce_removed: usize,
    /// Callee-saves promotion results.
    pub callee_saves: CalleeSavesStats,
    /// Pipeline iterations executed.
    pub iterations: usize,
}

/// Optimizes a single graph in place.
///
/// Each pass is a function of the graph alone, so a pass that changed
/// nothing is not run again until another pass changes the graph: it
/// would change nothing again. Dead-code elimination repeats its rounds
/// until one removes nothing, so it leaves nothing for itself either.
pub fn optimize_graph(g: &mut Graph, opts: &OptOptions) -> OptStats {
    let mut stats = OptStats::default();
    let mut an = Analyses::new(g);
    type Pass = fn(&mut Graph, &mut Analyses) -> usize;
    // Each pass, whether it is on, and whether it runs to its own
    // fixpoint.
    let passes: [(bool, Pass, bool); 3] = [
        (opts.constprop, constprop, false),
        (opts.localopt, localopt, false),
        (opts.dce, dce, true),
    ];
    let (mut counts, mut quiet) = ([0; 3], [false; 3]);
    for _ in 0..opts.max_iters {
        stats.iterations += 1;
        let mut changed = 0;
        for (i, &(on, pass, settles)) in passes.iter().enumerate() {
            if !on || quiet[i] {
                continue;
            }
            let n = pass(g, &mut an);
            counts[i] += n;
            if n > 0 {
                quiet = [false; 3];
            }
            quiet[i] = n == 0 || settles;
            changed += n;
        }
        if changed == 0 {
            break;
        }
    }
    [
        stats.constprop_rewrites,
        stats.local_rewrites,
        stats.dce_removed,
    ] = counts;
    if opts.callee_save_regs > 0 {
        stats.callee_saves = promote_callee_saves(g, an, opts.callee_save_regs);
    }
    stats
}

/// Optimizes every procedure of a program in place (the `yield`
/// procedure — a bare `Yield` node — is left alone: "Yield: not in any
/// optimized procedure", Table 3).
pub fn optimize_program(p: &mut Program, opts: &OptOptions) -> OptStats {
    let mut total = OptStats::default();
    let names: Vec<_> = p.procs.keys().cloned().collect();
    for name in names {
        if name == YIELD {
            continue;
        }
        let mut g = p.procs.remove(&name).expect("procedure present");
        let s = optimize_graph(&mut g, opts);
        total.constprop_rewrites += s.constprop_rewrites;
        total.local_rewrites += s.local_rewrites;
        total.dce_removed += s.dce_removed;
        total.callee_saves.nodes_inserted += s.callee_saves.nodes_inserted;
        total.callee_saves.vars_promoted += s.callee_saves.vars_promoted;
        total.callee_saves.vars_blocked_by_cuts += s.callee_saves.vars_blocked_by_cuts;
        total.iterations = total.iterations.max(s.iterations);
        p.procs.insert(name, g);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::build_program;
    use cmm_parse::parse_module;
    use cmm_sem::{Machine, Status, Value};

    fn run(p: &Program, proc: &str, args: Vec<Value>) -> Status {
        let mut m = Machine::new(p);
        m.start(proc, args).unwrap();
        m.run(10_000_000)
    }

    #[test]
    fn full_pipeline_preserves_figure1() {
        let src = r#"
            sp1(bits32 n) {
                bits32 s, p;
                if n == 1 { return (1, 1); }
                else { s, p = sp1(n - 1); return (s + n, p * n); }
            }
        "#;
        let prog = build_program(&parse_module(src).unwrap()).unwrap();
        let mut opt = prog.clone();
        optimize_program(&mut opt, &OptOptions::default());
        assert_eq!(
            run(&prog, "sp1", vec![Value::b32(8)]),
            run(&opt, "sp1", vec![Value::b32(8)])
        );
    }

    #[test]
    fn pipeline_makes_progress_and_terminates() {
        let src = r#"
            f(bits32 n) {
                bits32 a, b, c, d;
                a = 2;
                b = a + a;
                c = b * b;
                d = n + 0;
                if c == 16 { return (d); } else { return (c); }
            }
        "#;
        let mut prog = build_program(&parse_module(src).unwrap()).unwrap();
        let stats = optimize_program(&mut prog, &OptOptions::default());
        assert!(stats.constprop_rewrites > 0);
        assert!(stats.dce_removed > 0);
        assert_eq!(
            run(&prog, "f", vec![Value::b32(9)]),
            Status::Terminated(vec![Value::b32(9)])
        );
    }

    #[test]
    fn exception_heavy_code_survives_pipeline() {
        let src = r#"
            f(bits32 x) {
                bits32 y, r, d;
                y = x * 2;
                r = g(k) also cuts to k;
                return (r + y);
                continuation k(d):
                return (d + y);
            }
            g(bits32 kk) { cut to kk(100); return (0); }
        "#;
        let prog = build_program(&parse_module(src).unwrap()).unwrap();
        let mut opt = prog.clone();
        let stats = optimize_program(&mut opt, &OptOptions::default());
        assert_eq!(
            run(&prog, "f", vec![Value::b32(4)]),
            run(&opt, "f", vec![Value::b32(4)])
        );
        // y is blocked from callee-saves promotion by the cut edge.
        assert!(stats.callee_saves.vars_blocked_by_cuts > 0);
    }

    #[test]
    fn identity_options_do_nothing() {
        let src = "f() { bits32 a; a = 1 + 1; return (a); }";
        let prog = build_program(&parse_module(src).unwrap()).unwrap();
        let mut opt = prog.clone();
        let stats = optimize_program(&mut opt, &OptOptions::none());
        assert_eq!(
            stats.constprop_rewrites + stats.local_rewrites + stats.dce_removed,
            0
        );
        assert_eq!(prog.proc("f").unwrap(), opt.proc("f").unwrap());
    }
}
