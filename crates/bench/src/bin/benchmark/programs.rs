//! The benchmark's input programs and their independent references.
//!
//! References are computed during prep, never by the pipeline under
//! test: hand-written expected values where the repository has them
//! (`GAME_CASES`, `raise_frequency_expected`, `no_raise_expected`, the
//! Figures 3/4 closed form), otherwise the formal semantics on the
//! *unoptimized* program — `observe_sem` for C--, `run_sem` for MiniM3.

use cmm_cfg::build_program;
use cmm_difftest::oracle::{observe_sem, Limits, Obs};
use cmm_frontend::workloads::{
    deep_raise, no_raise_expected, raise_frequency_expected, GAME, GAME_CASES, NO_RAISE,
    RAISE_FREQUENCY,
};
use cmm_frontend::{compile_minim3, run_sem, Strategy};
use cmm_parse::parse_module;
use std::sync::Arc;

/// A program the pipeline compiles from source.
#[derive(Clone, Debug)]
pub enum Source {
    /// Raw C--; entry `f`.
    Cmm(String),
    /// MiniM3 lowered with one exception strategy; entry `main`.
    M3 { src: String, strategy: Strategy },
}

/// What a run must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// C--: the outcome and every yield code, as the fixed dispatcher
    /// policy observes them.
    Obs(Obs),
    /// MiniM3: `main`'s value.
    Value(u32),
}

/// One input: a program, its arguments and the expected result.
#[derive(Clone, Debug)]
pub struct Input {
    /// Display name (program and strategy).
    pub name: String,
    pub source: Arc<Source>,
    pub args: Vec<u32>,
    /// Execution limits for C-- runs (the references ran under the
    /// same ones).
    pub limits: Limits,
    pub expect: Expect,
}

/// The seven MiniM3 strategies: the four core techniques and the three
/// `setjmp`/`longjmp` architectures of §2.
pub fn strategies() -> [Strategy; 7] {
    use cmm_vm::arch::{ALPHA_DIGITAL_UNIX, PENTIUM_LINUX, SPARC_SOLARIS};
    [
        Strategy::RuntimeUnwind,
        Strategy::Cutting,
        Strategy::NativeUnwind,
        Strategy::Cps,
        Strategy::Sjlj(PENTIUM_LINUX),
        Strategy::Sjlj(SPARC_SOLARIS),
        Strategy::Sjlj(ALPHA_DIGITAL_UNIX),
    ]
}

/// Limits for the paper programs, whose loops run far longer than a
/// generated case.
pub fn long_limits() -> Limits {
    Limits {
        sem_fuel: 2_000_000_000,
        vm_fuel: 2_000_000_000,
        max_yields: 64,
    }
}

/// The Figures 3/4 loop of always-normal calls; `table` adds one
/// alternate return continuation per call (the branch-table method).
pub fn fig34(table: bool) -> String {
    let (call, ret, cont) = if table {
        (
            "r = g(n) also returns to kexn;",
            "return <1/1> (x);",
            "continuation kexn(r):\n            return (0 - 1);",
        )
    } else {
        ("r = g(n);", "return (x);", "")
    };
    format!(
        r#"
        f(bits32 n) {{
            bits32 acc, r;
            acc = 0;
          loop:
            if n == 0 {{ return (acc); }} else {{
                {call}
                acc = acc + r;
                n = n - 1;
                goto loop;
            }}
            {cont}
        }}
        g(bits32 x) {{ {ret} }}
        "#
    )
}

/// The §4.2 callee-saves loop: locals live across a call annotated with
/// a cut edge (`cuts`) or an unwind edge.
pub fn sec42(cuts: bool) -> String {
    let ann = if cuts {
        "also cuts to k"
    } else {
        "also unwinds to k"
    };
    format!(
        r#"
        f(bits32 n) {{
            bits32 acc, x, y, w, r;
            acc = 0;
          loop:
            if n == 0 {{ return (acc); }} else {{
                y = n * 3;
                w = n + 7;
                r = g(n, k) {ann};
                acc = acc + r + y + w;
                n = n - 1;
                goto loop;
            }}
            continuation k(r):
            return (r + y + w);
        }}
        g(bits32 a, bits32 kk) {{
            return (a);
        }}
        "#
    )
}

/// The four paper C-- programs, by name.
pub fn paper_cmm() -> [(&'static str, String); 4] {
    [
        ("fig34_plain", fig34(false)),
        ("fig34_table", fig34(true)),
        ("sec42_cuts", sec42(true)),
        ("sec42_unwinds", sec42(false)),
    ]
}

/// Yield-chain service program: `b` dispatch exchanges through an
/// `also unwinds to` chain; every yield code is odd.
pub const YIELD_SRC: &str = r#"
    f(bits32 a, bits32 b) {
        bits32 r, i;
        r = a + b;
        i = b;
      loop:
        if i == 0 { return (r); } else {
            r = mid(r + i) also unwinds to k;
            i = i - 1;
            goto loop;
        }
        continuation k(r):
        return (r + 1);
    }
    mid(bits32 x) {
        bits32 r;
        r = g(x) also unwinds to ku;
        return (r);
        continuation ku(r):
        return (r + 100);
    }
    g(bits32 x) { yield(x | 1) also aborts; return (x); }
"#;

/// Compute-plus-yield service program: a 200-iteration spin between
/// dispatch exchanges, so threads park both on quantum expiry and on
/// yields.
pub const MIX_SRC: &str = r#"
    f(bits32 a, bits32 b) {
        bits32 r, i, j;
        r = a;
        i = b;
      outer:
        if i == 0 { return (r); } else { j = 200; goto spin; }
      spin:
        if j == 0 { goto hop; } else { r = (r + j) & 65535; j = j - 1; goto spin; }
      hop:
        r = mid(r + i) also unwinds to k;
        i = i - 1;
        goto outer;
        continuation k(r):
        return (r + 1);
    }
    mid(bits32 x) {
        bits32 r;
        r = g(x) also unwinds to ku;
        return (r);
        continuation ku(r):
        return (r + 100);
    }
    g(bits32 x) { yield(x | 1) also aborts; return (x); }
"#;

/// Compute-loop service program: never yields, parks only on quantum
/// expiry.
pub const LOOP_SRC: &str = r#"
    f(bits32 n, bits32 a) {
        bits32 s;
        s = a;
      loop:
        if n == 0 { return (s); } else { s = (s + n) & 65535; n = n - 1; goto loop; }
    }
"#;

/// The formal semantics' observation of C-- `src` on the unoptimized
/// program.
pub fn cmm_reference(src: &str, args: &[u32], limits: &Limits) -> Obs {
    let module = parse_module(src).expect("benchmark C-- parses");
    let prog = build_program(&module).expect("benchmark C-- builds");
    let a = |i: usize| args.get(i).copied().unwrap_or(0);
    observe_sem(&prog, (a(0), a(1)), limits).0
}

/// `main`'s value under the formal semantics, unoptimized.
pub fn m3_reference(src: &str, strategy: Strategy, args: &[u32]) -> u32 {
    let module = compile_minim3(src, strategy).expect("benchmark MiniM3 lowers");
    run_sem(&module, strategy, args).expect("benchmark MiniM3 runs")
}

/// A C-- input checked against the formal semantics.
pub fn cmm_input(name: &str, src: &str, args: Vec<u32>, limits: Limits) -> Input {
    Input {
        name: name.to_string(),
        expect: Expect::Obs(cmm_reference(src, &args, &limits)),
        source: Arc::new(Source::Cmm(src.to_string())),
        args,
        limits,
    }
}

/// The Figures 3/4 loop's observation in closed form: every call
/// returns normally with its argument, so `f(n)` halts with
/// `n(n+1)/2 mod 2^32` and never yields.
pub fn fig34_obs(n: u32) -> Obs {
    let sum = (u64::from(n) * (u64::from(n) + 1) / 2) as u32;
    Obs {
        outcome: cmm_difftest::oracle::Outcome::Halt(vec![u64::from(sum)]),
        yields: Vec::new(),
    }
}

/// A Figures 3/4 input, checked against [`fig34_obs`].
pub fn fig34_input(name: &str, table: bool, n: u32) -> Input {
    Input {
        name: name.to_string(),
        source: Arc::new(Source::Cmm(fig34(table))),
        args: vec![n],
        limits: long_limits(),
        expect: Expect::Obs(fig34_obs(n)),
    }
}

/// A MiniM3 input with a known expected value.
pub fn m3_input(name: &str, src: &str, strategy: Strategy, args: Vec<u32>, value: u32) -> Input {
    Input {
        name: format!("{name}/{}", strategy.label()),
        source: Arc::new(Source::M3 {
            src: src.to_string(),
            strategy,
        }),
        args,
        limits: long_limits(),
        expect: Expect::Value(value),
    }
}

/// The MiniM3 workload programs with their hand-written references:
/// every `GAME_CASES` row, `RAISE_FREQUENCY(n, m)` and `NO_RAISE(n)`.
pub fn m3_hand_checked(strategy: Strategy, rf: (u32, u32), nr: u32) -> Vec<Input> {
    let mut v: Vec<Input> = GAME_CASES
        .iter()
        .map(|&(seed, want)| m3_input("game", GAME, strategy, vec![seed], want))
        .collect();
    v.push(m3_input(
        "raise_frequency",
        RAISE_FREQUENCY,
        strategy,
        vec![rf.0, rf.1],
        raise_frequency_expected(rf.0, rf.1),
    ));
    v.push(m3_input(
        "no_raise",
        NO_RAISE,
        strategy,
        vec![nr],
        no_raise_expected(nr),
    ));
    v
}

/// Figure 2's deep raise at `depth`, checked against the semantics.
pub fn deep_raise_input(strategy: Strategy, depth: u32) -> Input {
    let src = deep_raise(true);
    let want = m3_reference(&src, strategy, &[depth]);
    m3_input("deep_raise", &src, strategy, vec![depth], want)
}

/// A raw `halt [..]` outcome string as the pool and the service print
/// it, for comparing their reports with an [`Obs`].
pub fn halt_string(obs: &Obs) -> Option<String> {
    match &obs.outcome {
        cmm_difftest::oracle::Outcome::Halt(vals) => Some(format!("halt {vals:?}")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_difftest::oracle::Outcome;

    #[test]
    fn closed_form_agrees_with_the_semantics() {
        for table in [false, true] {
            let want = fig34_input("f", table, 40).expect;
            let got = Expect::Obs(cmm_reference(&fig34(table), &[40], &long_limits()));
            assert_eq!(want, got);
        }
        let obs = cmm_reference(YIELD_SRC, &[3, 9], &Limits::default());
        assert!(matches!(obs.outcome, Outcome::Halt(_)));
        assert_eq!(obs.yields.len(), 9);
    }
}
