//! How often the abstract machines call the allocator per loop
//! iteration, and the lexer per token, counted by a global allocator.
//!
//! Figures 3/4 (plain calls and the branch-table return) and §4.2 (the
//! cut and unwind annotations), unoptimized and optimized, run for `n`
//! and `2n` iterations on both sem engines. The pre-resolved engine
//! reuses every container a call or return touches, so it must allocate
//! exactly as often at both sizes. The reference machine builds each
//! activation's environment as an ordered map, so each extra iteration
//! may cost it at most two allocations.
//!
//! The lexer's tokens borrow identifiers and string literals from the
//! source, so lexing a source twice as long may cost only a constant
//! number of extra allocations (the token vector growing), never one
//! per token.
//!
//! SSA construction and liveness build flat tables sized up front, so
//! a procedure with twice the nodes, φs and definitions may cost them
//! only a constant number of extra allocations (a vector growing),
//! never one per node, φ or definition.

use cmm_cfg::Program;
use cmm_sem::{Machine, ResolvedMachine, ResolvedProgram, Status, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations, so that the test harness's
/// own threads cannot perturb a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn compile(src: &str, optimize: bool) -> Program {
    let module = cmm_parse::parse_module(src).expect("example parses");
    let mut prog = cmm_cfg::build_program(&module).expect("example builds");
    if optimize {
        cmm_opt::optimize_program(&mut prog, &cmm_opt::OptOptions::default());
    }
    prog
}

fn terminated(s: Status) {
    assert!(matches!(s, Status::Terminated(_)), "run ended {s:?}");
}

#[test]
fn sem_loops_allocate_within_budget_per_iteration() {
    const N: u32 = 300;
    let examples = [
        ("fig34_plain", include_str!("../examples/fig34_plain.cmm")),
        ("fig34_table", include_str!("../examples/fig34_table.cmm")),
        ("sec42_cuts", include_str!("../examples/sec42_cuts.cmm")),
        (
            "sec42_unwinds",
            include_str!("../examples/sec42_unwinds.cmm"),
        ),
    ];
    for (name, src) in examples {
        for optimize in [false, true] {
            let prog = compile(src, optimize);
            let rp = ResolvedProgram::new(&prog);
            let sem = |n: u32| {
                allocations(|| {
                    let mut m = Machine::new(&prog);
                    m.start("f", vec![Value::b32(n)]).unwrap();
                    terminated(m.run(u64::MAX));
                })
            };
            let resolved = |n: u32| {
                allocations(|| {
                    let mut m = ResolvedMachine::new(&rp);
                    m.start("f", vec![Value::b32(n)]).unwrap();
                    terminated(m.run(u64::MAX));
                })
            };
            let what = format!("{name} (optimized: {optimize})");
            let (r1, r2) = (resolved(N), resolved(2 * N));
            assert_eq!(
                r1,
                r2,
                "{what}: sem-resolved allocated {r1} times at n = {N} but {r2} at n = {}",
                2 * N
            );
            let (s1, s2) = (sem(N), sem(2 * N));
            assert!(
                s2 <= s1 + 2 * u64::from(N),
                "{what}: sem allocated {s1} times at n = {N} and {s2} at n = {}, over 2 per extra iteration",
                2 * N
            );
        }
    }
}

#[test]
fn lexing_allocates_no_more_for_more_tokens() {
    let unit = concat!(
        include_str!("../examples/sec42_unwinds.cmm"),
        "\ndata msg { string \"off board\"; string \"a\\tb\\n\"; bits32 1, 0x2a, 7::bits8; }\n",
        "h(bits32 x) { return (%divu(x, 3) + %zx32(%lo8(x))); }\n",
    );
    let lex = |copies: usize| {
        let src = unit.repeat(copies);
        allocations(|| {
            let toks = cmm_parse::lexer::lex(&src).expect("source lexes");
            assert!(toks.len() > 100 * copies);
        })
    };
    // Build both sources outside the counted region: only lexing counts.
    let (once, twice) = (lex(8), lex(16));
    assert!(
        twice <= once + 2,
        "lexing 8 copies allocated {once} times and 16 copies {twice}"
    );
}

/// A procedure of `n` diamonds in a row, each assigning `s` on both
/// arms and `t` on one, so each join holds a φ of both: doubling `n`
/// doubles the nodes, the φs and the definitions.
fn diamonds(n: usize) -> cmm_cfg::Graph {
    let mut src = String::from("f(bits32 a) {\n    bits32 s, t;\n    s = 0;\n    t = a;\n");
    for i in 0..n {
        src.push_str(&format!(
            "    if a == {i} {{ s = s + 1; t = s; }} else {{ s = s + 2; }}\n"
        ));
    }
    src.push_str("    return (s + t);\n}\n");
    compile(&src, false).proc("f").expect("f").clone()
}

#[test]
fn ssa_and_liveness_allocate_no_more_for_more_nodes() {
    const N: usize = 64;
    let (small, large) = (diamonds(N), diamonds(2 * N));
    let ssa = |g: &cmm_cfg::Graph| {
        allocations(|| {
            let ssa = cmm_opt::Ssa::build(g);
            assert!(ssa.phis().len() >= 2 * N, "{} φs", ssa.phis().len());
        })
    };
    let (once, twice) = (ssa(&small), ssa(&large));
    assert!(
        twice <= once + 6,
        "SSA construction allocated {once} times for {N} diamonds and {twice} for {}",
        2 * N
    );
    let live = |g: &cmm_cfg::Graph| allocations(|| drop(cmm_opt::Liveness::compute(g)));
    let (once, twice) = (live(&small), live(&large));
    assert!(
        twice <= once + 6,
        "liveness allocated {once} times for {N} diamonds and {twice} for {}",
        2 * N
    );
}
