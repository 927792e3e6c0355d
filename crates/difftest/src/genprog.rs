//! Structured random generation of C-- test programs.
//!
//! A [`TestCase`] is a *tree*, not a string: generation and shrinking both
//! operate on the tree, and [`TestCase::render`] turns it into concrete
//! C-- syntax. Every rendered program is well formed (the fuzz driver
//! hands it to `cmm_cfg::build_program`, the one well-formedness check,
//! and counts a refusal as a generator bug) and structurally
//! terminating:
//!
//! * the driver procedure `f` runs a counted loop (`i` iterations, at
//!   most [`MAX_LOOP`]);
//! * generated statements contain no free `goto`s — the only back edge
//!   is the loop's own, and every continuation handler decrements `i`
//!   before re-entering the loop (or returns), so each handler entry and
//!   each full loop body makes progress;
//! * callees never recurse.
//!
//! The exceptional-control-flow features of the paper all appear:
//! weak continuations, `cut to` through annotated call sites,
//! `also unwinds to` / `also returns to` / `also aborts` annotations,
//! tail calls (`jump`), `yield` into the run-time system, fast fallible
//! primitives (`%divu`, shifts — may make the program "go wrong"), and
//! slow-but-solid `%%` checked primitives.

use crate::rng::Rng;
use std::fmt::Write as _;

/// Assignable `bits32` variables of the driver procedure `f`.
///
/// `a` and `b` are the formals; `c`, `d`, `t` are locals. The loop
/// counter `i` is read-only for generated code so termination cannot be
/// broken, and `t` doubles as every continuation's parameter.
pub const VARS: [&str; 5] = ["a", "b", "c", "d", "t"];

/// Binary operators the expression generator may emit, with their
/// concrete spellings. The last four can fail (`%divu`-style unspecified
/// behaviour — the semantics goes wrong), which is deliberate: the
/// substrates must *agree* on failing programs too.
pub const BIN_OPS: [&str; 13] = [
    "+", "-", "*", "&", "|", "^", "==", "!=", "<", ">", "<<", "/", "%",
];

/// Index of the first fallible operator in [`BIN_OPS`].
pub const FIRST_FALLIBLE: usize = 10;

/// Checked (`%%`) primitives the generator may call.
pub const CHECKED_PRIMS: [&str; 3] = ["%%divu", "%%modu", "%%shl"];

/// Maximum loop iterations of the driver procedure.
pub const MAX_LOOP: u32 = 4;

/// Number of `bits32` slots in the scratch data block `cells`.
pub const CELLS: u32 = 8;

/// A pure `bits32` expression over [`VARS`] and the `cells` data block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GenExpr {
    /// A literal constant.
    Lit(u32),
    /// One of [`VARS`] by index.
    Var(u8),
    /// `bits32[cells + (e % CELLS) * 4]` — a masked in-bounds load.
    Load(Box<GenExpr>),
    /// A binary operator from [`BIN_OPS`] by index.
    Bin(u8, Box<GenExpr>, Box<GenExpr>),
}

/// What a generated callee `g<i>` does with its argument.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CalleeKind {
    /// `return (x * 3 + 1);`
    Plain,
    /// `jump h(x);` — a tail call.
    Tail,
    /// `return <0/1> (..)` on a data-dependent condition, else
    /// `return <1/1> (..)`; the call site says `also returns to kr`.
    AltRet,
    /// `cut to kk(..)` on a data-dependent condition; the continuation
    /// arrives as the second argument and the call site says
    /// `also cuts to kc`.
    Cut,
    /// `yield(..) also aborts;` then return — exercises the run-time
    /// system walking over this activation.
    YieldAbort,
}

/// A generated callee: one per call site, so each site's annotations can
/// match its callee's behaviour exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Callee {
    /// Behaviour.
    pub kind: CalleeKind,
    /// Small constant folded into conditions and arithmetic so call
    /// sites differ; also supplies the optional-annotation bits.
    pub tweak: u32,
}

impl Callee {
    /// Whether the call site additionally says `also aborts`
    /// (semantically required for nothing here, but the annotation must
    /// be *allowed* everywhere, so fuzz it).
    pub fn site_aborts(&self) -> bool {
        self.tweak & 1 == 1
    }

    /// Whether the call site additionally says `also unwinds to ku`.
    pub fn site_unwinds(&self) -> bool {
        self.tweak & 2 == 2
    }
}

/// A generated statement of the driver's loop body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GenStmt {
    /// `v = e;`
    Assign(u8, GenExpr),
    /// `bits32[cells + (addr % CELLS) * 4] = e;`
    Store(GenExpr, GenExpr),
    /// `if c { .. } else { .. }`
    If(GenExpr, Vec<GenStmt>, Vec<GenStmt>),
    /// `v = h(e);` — call the fixed helper.
    CallH(u8, GenExpr),
    /// `v = g<idx>(e, ..) also ..;` — call generated callee `idx`.
    CallG(u8, usize, GenExpr),
    /// `v = %%prim(e1, e2) [also unwinds to ku];`
    Checked(u8, u8, GenExpr, GenExpr, bool),
    /// `yield(e & 15) [also unwinds to ku] also aborts;`
    Yield(GenExpr, bool),
}

/// What a continuation handler does after receiving its parameter `t`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Handler {
    /// `true`: accumulate and re-enter the loop (after decrementing the
    /// counter); `false`: return from `f` immediately.
    pub resume: bool,
    /// Which of [`VARS`] accumulates the parameter.
    pub acc: u8,
}

/// The three continuations of the driver, in fixed order.
pub const CONT_NAMES: [&str; 3] = ["kc", "kr", "ku"];

/// A complete generated test case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestCase {
    /// Arguments passed to `f`.
    pub args: (u32, u32),
    /// Loop iterations (1..=[`MAX_LOOP`]).
    pub loop_n: u32,
    /// The loop body.
    pub body: Vec<GenStmt>,
    /// Callees, indexed by [`GenStmt::CallG`].
    pub callees: Vec<Callee>,
    /// Handlers for `kc` (cut), `kr` (alternate return), `ku` (unwind).
    pub handlers: [Handler; 3],
}

// ----- generation -----

/// Generates a random test case.
pub fn generate(rng: &mut Rng) -> TestCase {
    let mut callees = Vec::new();
    let len = rng.range(1, 8) as usize;
    let body = gen_block(rng, len, 0, &mut callees);
    TestCase {
        args: (gen_lit(rng), gen_lit(rng)),
        loop_n: rng.range(1, MAX_LOOP),
        body,
        callees,
        handlers: [gen_handler(rng), gen_handler(rng), gen_handler(rng)],
    }
}

fn gen_handler(rng: &mut Rng) -> Handler {
    Handler {
        resume: rng.chance(3, 4),
        acc: rng.below(4) as u8,
    }
}

fn gen_block(rng: &mut Rng, len: usize, depth: usize, callees: &mut Vec<Callee>) -> Vec<GenStmt> {
    (0..len).map(|_| gen_stmt(rng, depth, callees)).collect()
}

fn gen_stmt(rng: &mut Rng, depth: usize, callees: &mut Vec<Callee>) -> GenStmt {
    let roll = rng.below(100);
    match roll {
        0..=29 => GenStmt::Assign(rng.below(VARS.len()) as u8, gen_expr(rng, 2)),
        30..=41 => GenStmt::Store(gen_expr(rng, 1), gen_expr(rng, 2)),
        42..=56 if depth < 2 => {
            let t_len = rng.range(1, 3) as usize;
            let e_len = rng.range(0, 2) as usize;
            let cond = gen_expr(rng, 2);
            let then_ = gen_block(rng, t_len, depth + 1, callees);
            let else_ = gen_block(rng, e_len, depth + 1, callees);
            GenStmt::If(cond, then_, else_)
        }
        42..=56 => GenStmt::Assign(rng.below(VARS.len()) as u8, gen_expr(rng, 2)),
        57..=66 => GenStmt::CallH(rng.below(VARS.len()) as u8, gen_expr(rng, 1)),
        67..=81 => {
            let kind = *rng.pick(&[
                CalleeKind::Plain,
                CalleeKind::Tail,
                CalleeKind::AltRet,
                CalleeKind::Cut,
                CalleeKind::Cut,
                CalleeKind::YieldAbort,
            ]);
            callees.push(Callee {
                kind,
                tweak: rng.next_u32() & 0xff,
            });
            GenStmt::CallG(
                rng.below(VARS.len()) as u8,
                callees.len() - 1,
                gen_expr(rng, 1),
            )
        }
        82..=91 => GenStmt::Checked(
            rng.below(VARS.len()) as u8,
            rng.below(CHECKED_PRIMS.len()) as u8,
            gen_expr(rng, 1),
            gen_expr(rng, 1),
            rng.chance(1, 2),
        ),
        _ => GenStmt::Yield(gen_expr(rng, 1), rng.chance(1, 2)),
    }
}

fn gen_lit(rng: &mut Rng) -> u32 {
    let small = rng.next_u32() & 0xff;
    *rng.pick(&[
        0u32,
        1,
        2,
        3,
        5,
        7,
        8,
        15,
        16,
        100,
        0x7fff_ffff,
        0xffff_ffff,
        small,
    ])
}

fn gen_expr(rng: &mut Rng, fuel: usize) -> GenExpr {
    if fuel == 0 || rng.chance(2, 5) {
        return if rng.chance(1, 2) {
            GenExpr::Lit(gen_lit(rng))
        } else {
            GenExpr::Var(rng.below(VARS.len()) as u8)
        };
    }
    if rng.chance(1, 8) {
        return GenExpr::Load(Box::new(gen_expr(rng, fuel - 1)));
    }
    // Fallible operators are rarer but present: "going wrong" must be
    // preserved by every oracle.
    let op = if rng.chance(1, 8) {
        rng.range(FIRST_FALLIBLE as u32, BIN_OPS.len() as u32 - 1) as u8
    } else {
        rng.below(FIRST_FALLIBLE) as u8
    };
    GenExpr::Bin(
        op,
        Box::new(gen_expr(rng, fuel - 1)),
        Box::new(gen_expr(rng, fuel - 1)),
    )
}

// ----- rendering -----

impl GenExpr {
    fn render(&self, out: &mut String) {
        match self {
            GenExpr::Lit(v) => {
                let _ = write!(out, "{v}");
            }
            GenExpr::Var(v) => out.push_str(VARS[*v as usize]),
            GenExpr::Load(a) => {
                out.push_str("bits32[cells + ((");
                a.render(out);
                let _ = write!(out, ") % {CELLS}) * 4]");
            }
            GenExpr::Bin(op, a, b) => {
                out.push('(');
                a.render(out);
                let _ = write!(out, " {} ", BIN_OPS[*op as usize]);
                b.render(out);
                out.push(')');
            }
        }
    }

    fn to_src(&self) -> String {
        let mut s = String::new();
        self.render(&mut s);
        s
    }
}

impl TestCase {
    /// The scratch-cell store/load address for an index expression.
    fn addr(e: &GenExpr) -> String {
        format!("cells + (({}) % {CELLS}) * 4", e.to_src())
    }

    /// Number of statements, counted recursively (`if` counts as one
    /// plus its arms) — the size metric shrinking minimizes.
    pub fn stmt_count(&self) -> usize {
        fn count(b: &[GenStmt]) -> usize {
            b.iter()
                .map(|s| match s {
                    GenStmt::If(_, t, e) => 1 + count(t) + count(e),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Callee indices actually referenced from the body.
    fn used_callees(&self) -> Vec<usize> {
        fn walk(b: &[GenStmt], used: &mut Vec<usize>) {
            for s in b {
                match s {
                    GenStmt::CallG(_, idx, _) if !used.contains(idx) => used.push(*idx),
                    GenStmt::If(_, t, e) => {
                        walk(t, used);
                        walk(e, used);
                    }
                    _ => {}
                }
            }
        }
        let mut used = Vec::new();
        walk(&self.body, &mut used);
        used.sort_unstable();
        used
    }

    /// Which continuations (by [`CONT_NAMES`] index) the body can reach.
    fn used_conts(&self) -> [bool; 3] {
        let mut used = [false; 3];
        fn walk(case: &TestCase, b: &[GenStmt], used: &mut [bool; 3]) {
            for s in b {
                match s {
                    GenStmt::CallG(_, idx, _) => {
                        let callee = &case.callees[*idx];
                        match callee.kind {
                            CalleeKind::Cut => used[0] = true,
                            CalleeKind::AltRet => used[1] = true,
                            CalleeKind::YieldAbort => used[2] |= callee.site_unwinds(),
                            _ => {}
                        }
                    }
                    GenStmt::Checked(_, _, _, _, unwind) => used[2] |= unwind,
                    GenStmt::Yield(_, unwind) => used[2] |= unwind,
                    GenStmt::If(_, t, e) => {
                        walk(case, t, used);
                        walk(case, e, used);
                    }
                    _ => {}
                }
            }
        }
        walk(self, &self.body, &mut used);
        used
    }

    fn render_stmt(&self, s: &GenStmt, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        match s {
            GenStmt::Assign(v, e) => {
                let _ = writeln!(out, "{pad}{} = {};", VARS[*v as usize], e.to_src());
            }
            GenStmt::Store(addr, e) => {
                let _ = writeln!(out, "{pad}bits32[{}] = {};", Self::addr(addr), e.to_src());
            }
            GenStmt::If(c, t, e) => {
                let _ = writeln!(out, "{pad}if {} {{", c.to_src());
                for s in t {
                    self.render_stmt(s, out, indent + 1);
                }
                let _ = writeln!(out, "{pad}}} else {{");
                for s in e {
                    self.render_stmt(s, out, indent + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
            GenStmt::CallH(v, e) => {
                let _ = writeln!(out, "{pad}{} = h({});", VARS[*v as usize], e.to_src());
            }
            GenStmt::CallG(v, idx, e) => {
                let callee = &self.callees[*idx];
                let mut anns = String::new();
                let args = match callee.kind {
                    CalleeKind::Cut => {
                        anns.push_str(" also cuts to kc");
                        format!("{}, kc", e.to_src())
                    }
                    CalleeKind::AltRet => {
                        anns.push_str(" also returns to kr");
                        e.to_src()
                    }
                    _ => e.to_src(),
                };
                if callee.site_unwinds() && matches!(callee.kind, CalleeKind::YieldAbort) {
                    anns.push_str(" also unwinds to ku");
                }
                if callee.site_aborts() {
                    anns.push_str(" also aborts");
                }
                let _ = writeln!(out, "{pad}{} = g{idx}({args}){anns};", VARS[*v as usize]);
            }
            GenStmt::Checked(v, prim, e1, e2, unwind) => {
                let ann = if *unwind { " also unwinds to ku" } else { "" };
                let _ = writeln!(
                    out,
                    "{pad}{} = {}({}, {}){ann};",
                    VARS[*v as usize],
                    CHECKED_PRIMS[*prim as usize],
                    e1.to_src(),
                    e2.to_src()
                );
            }
            GenStmt::Yield(e, unwind) => {
                let ann = if *unwind { " also unwinds to ku" } else { "" };
                let _ = writeln!(out, "{pad}yield(({}) & 15){ann} also aborts;", e.to_src());
            }
        }
    }

    fn render_callee(&self, idx: usize, out: &mut String) {
        let callee = &self.callees[idx];
        let k = callee.tweak;
        match callee.kind {
            CalleeKind::Plain => {
                let _ = writeln!(out, "g{idx}(bits32 x) {{ return ((x * 3) + {k}); }}");
            }
            CalleeKind::Tail => {
                let _ = writeln!(out, "g{idx}(bits32 x) {{ jump h(x + {k}); }}");
            }
            CalleeKind::AltRet => {
                let _ = writeln!(
                    out,
                    "g{idx}(bits32 x) {{\n    if (x & 1) == {} {{ return <0/1> (x ^ {k}); }} else {{ return <1/1> (x + 3); }}\n}}",
                    k & 1
                );
            }
            CalleeKind::Cut => {
                let _ = writeln!(
                    out,
                    "g{idx}(bits32 x, bits32 kk) {{\n    if x > {} {{ cut to kk(x - {}); }} else {{ return (x + 1); }}\n}}",
                    k & 31,
                    k & 7
                );
            }
            CalleeKind::YieldAbort => {
                let _ = writeln!(
                    out,
                    "g{idx}(bits32 x) {{ yield((x + {}) & 15) also aborts; return (x + 9); }}",
                    k & 15
                );
            }
        }
    }

    /// Renders the case as a complete C-- module.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let zeros = vec!["0"; CELLS as usize].join(", ");
        let _ = writeln!(out, "data cells {{ bits32 {zeros}; }}");
        let _ = writeln!(out, "h(bits32 x) {{ return ((x * 2) + 1); }}");
        for idx in self.used_callees() {
            self.render_callee(idx, &mut out);
        }
        let _ = writeln!(out, "f(bits32 a, bits32 b) {{");
        let _ = writeln!(out, "    bits32 c, d, t, i;");
        let _ = writeln!(out, "    c = 0; d = 0; t = 0;");
        let _ = writeln!(out, "    i = {};", self.loop_n);
        let _ = writeln!(out, "  loop:");
        let _ = writeln!(
            out,
            "    if i == 0 {{ return ((((a + b) + c) + d) + t); }} else {{"
        );
        for s in &self.body {
            self.render_stmt(s, &mut out, 2);
        }
        let _ = writeln!(out, "        i = i - 1;");
        let _ = writeln!(out, "        goto loop;");
        let _ = writeln!(out, "    }}");
        let used = self.used_conts();
        for (ci, name) in CONT_NAMES.iter().enumerate() {
            if !used[ci] {
                continue;
            }
            let h = self.handlers[ci];
            let _ = writeln!(out, "    continuation {name}(t):");
            if h.resume {
                let _ = writeln!(
                    out,
                    "    {0} = {0} + t;\n    i = i - 1;\n    goto loop;",
                    VARS[h.acc as usize]
                );
            } else {
                let _ = writeln!(out, "    return ((t + {}) + 1000);", VARS[h.acc as usize]);
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

// ----- shrinking candidates -----

/// Simpler variants of an expression, largest simplification first.
fn expr_cands(e: &GenExpr) -> Vec<GenExpr> {
    let mut out = Vec::new();
    match e {
        GenExpr::Lit(0) => {}
        GenExpr::Lit(v) => {
            out.push(GenExpr::Lit(0));
            if *v > 1 {
                out.push(GenExpr::Lit(v / 2));
            }
        }
        GenExpr::Var(_) => out.push(GenExpr::Lit(0)),
        GenExpr::Load(a) => {
            out.push(GenExpr::Lit(0));
            out.push((**a).clone());
            for a2 in expr_cands(a) {
                out.push(GenExpr::Load(Box::new(a2)));
            }
        }
        GenExpr::Bin(op, a, b) => {
            out.push(GenExpr::Lit(0));
            out.push((**a).clone());
            out.push((**b).clone());
            for a2 in expr_cands(a) {
                out.push(GenExpr::Bin(*op, Box::new(a2), b.clone()));
            }
            for b2 in expr_cands(b) {
                out.push(GenExpr::Bin(*op, a.clone(), Box::new(b2)));
            }
        }
    }
    out
}

/// Simpler variants of a statement (same statement kind, simpler
/// operands). Kind changes are handled by removal/splicing in
/// [`shrink_candidates`].
fn stmt_cands(s: &GenStmt) -> Vec<GenStmt> {
    match s {
        GenStmt::Assign(v, e) => expr_cands(e)
            .into_iter()
            .map(|e2| GenStmt::Assign(*v, e2))
            .collect(),
        GenStmt::Store(a, e) => {
            let mut out: Vec<GenStmt> = expr_cands(a)
                .into_iter()
                .map(|a2| GenStmt::Store(a2, e.clone()))
                .collect();
            out.extend(
                expr_cands(e)
                    .into_iter()
                    .map(|e2| GenStmt::Store(a.clone(), e2)),
            );
            out
        }
        GenStmt::If(c, t, e) => expr_cands(c)
            .into_iter()
            .map(|c2| GenStmt::If(c2, t.clone(), e.clone()))
            .collect(),
        GenStmt::CallH(v, e) => expr_cands(e)
            .into_iter()
            .map(|e2| GenStmt::CallH(*v, e2))
            .collect(),
        GenStmt::CallG(v, idx, e) => expr_cands(e)
            .into_iter()
            .map(|e2| GenStmt::CallG(*v, *idx, e2))
            .collect(),
        GenStmt::Checked(v, p, e1, e2, u) => {
            let mut out: Vec<GenStmt> = expr_cands(e1)
                .into_iter()
                .map(|a| GenStmt::Checked(*v, *p, a, e2.clone(), *u))
                .collect();
            out.extend(
                expr_cands(e2)
                    .into_iter()
                    .map(|b| GenStmt::Checked(*v, *p, e1.clone(), b, *u)),
            );
            out
        }
        GenStmt::Yield(e, u) => expr_cands(e)
            .into_iter()
            .map(|e2| GenStmt::Yield(e2, *u))
            .collect(),
    }
}

/// Every one-step-simpler block: statement removals first (largest
/// reductions), then `if`-arm splices, then in-place simplifications,
/// then recursion into `if` arms.
fn block_cands(b: &[GenStmt]) -> Vec<Vec<GenStmt>> {
    let mut out = Vec::new();
    let replace = |i: usize, with: Vec<GenStmt>| -> Vec<GenStmt> {
        let mut nb: Vec<GenStmt> = b[..i].to_vec();
        nb.extend(with);
        nb.extend_from_slice(&b[i + 1..]);
        nb
    };
    for i in 0..b.len() {
        out.push(replace(i, vec![]));
    }
    for (i, s) in b.iter().enumerate() {
        if let GenStmt::If(_, t, e) = s {
            out.push(replace(i, t.clone()));
            out.push(replace(i, e.clone()));
        }
    }
    for (i, s) in b.iter().enumerate() {
        for s2 in stmt_cands(s) {
            out.push(replace(i, vec![s2]));
        }
        if let GenStmt::If(c, t, e) = s {
            for t2 in block_cands(t) {
                out.push(replace(i, vec![GenStmt::If(c.clone(), t2, e.clone())]));
            }
            for e2 in block_cands(e) {
                out.push(replace(i, vec![GenStmt::If(c.clone(), t.clone(), e2)]));
            }
        }
    }
    out
}

/// All one-step-simpler variants of a case, in decreasing order of how
/// much they simplify. The delta debugger in `shrink` takes the first
/// variant that still fails and iterates to a fixpoint.
pub fn shrink_candidates(case: &TestCase) -> Vec<TestCase> {
    let mut out = Vec::new();
    for body in block_cands(&case.body) {
        out.push(TestCase {
            body,
            ..case.clone()
        });
    }
    if case.loop_n > 1 {
        out.push(TestCase {
            loop_n: 1,
            ..case.clone()
        });
    }
    if case.args != (0, 0) {
        out.push(TestCase {
            args: (0, 0),
            ..case.clone()
        });
        out.push(TestCase {
            args: (case.args.0, 0),
            ..case.clone()
        });
        out.push(TestCase {
            args: (0, case.args.1),
            ..case.clone()
        });
    }
    for ci in 0..3 {
        if case.handlers[ci].resume {
            let mut handlers = case.handlers;
            handlers[ci].resume = false;
            out.push(TestCase {
                handlers,
                ..case.clone()
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(seed: u64) -> TestCase {
        generate(&mut Rng::new(seed))
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(case(11).render(), case(11).render());
        // Different seeds give different programs essentially always.
        assert_ne!(case(1).render(), case(2).render());
    }

    #[test]
    fn generated_programs_build_to_cfg() {
        for seed in 0..200 {
            let src = case(seed).render();
            let m = cmm_parse::parse_module(&src)
                .unwrap_or_else(|e| panic!("seed {seed} does not parse: {e}\n{src}"));
            cmm_cfg::build_program(&m)
                .unwrap_or_else(|e| panic!("seed {seed} does not build: {e}\n{src}"));
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler_or_equal() {
        let c = case(5);
        for cand in shrink_candidates(&c) {
            assert!(cand.stmt_count() <= c.stmt_count());
            assert_ne!(cand, c);
        }
    }

    #[test]
    fn stmt_count_counts_nested_statements() {
        let c = TestCase {
            args: (0, 0),
            loop_n: 1,
            body: vec![GenStmt::If(
                GenExpr::Lit(1),
                vec![GenStmt::Assign(0, GenExpr::Lit(2))],
                vec![],
            )],
            callees: vec![],
            handlers: [Handler {
                resume: false,
                acc: 0,
            }; 3],
        };
        assert_eq!(c.stmt_count(), 2);
    }
}
