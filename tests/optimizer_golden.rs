//! Golden output of the optimizer and the VM code generator.
//!
//! Every program below is built into Abstract C--, run through
//! `optimize_program` with the default options, and compiled with
//! `cmm_vm::compile`. The test records, per program, the `OptStats`,
//! every optimized procedure as `graph_to_string` prints it, its SSA
//! numbering, and the VM instruction count with a digest of the
//! instruction stream and of each procedure's variable placement. The
//! generated difftest cases record digests only. The whole transcript
//! is checked against `tests/golden/opt.txt`.
//!
//! The corpus:
//!
//! * the four `.cmm` programs under `examples/`;
//! * the MiniM3 workloads `GAME`, `RAISE_FREQUENCY`, `NO_RAISE` and
//!   `deep_raise` (both shapes) under all seven exception strategies;
//! * the first 256 generated difftest cases at seed 1;
//! * synthetic procedures whose locals index has 63, 64, 65 and 130
//!   names, all live across one call annotated `also unwinds to k` and,
//!   in a second copy, `also cuts to k`. No other input has more than a
//!   dozen locals in a procedure, so these are the only ones whose bit
//!   rows span more than one word; they also pin that callee-saves
//!   promotion picks candidates in name order (`v0, v1, v10, ...`),
//!   not declaration order.
//!
//! The second test checks the allocation-free use/def visitors, and
//! the per-node rows of locals-index positions the analyses read
//! (`Refs`), against the Table 3 rules (`flow`) on every node of every
//! graph of the same corpus, before and after optimization, and checks
//! the SSA invariant (`Ssa::verify`) on each of those graphs. The rows
//! the passes keep current as they rewrite are checked after every
//! pass.
//!
//! The third checks, on the same corpus, that the target code numbers
//! procedures as the CFG program does: the owner of every pc
//! (`VmProgram::proc_id_at`, which trace events carry) is the procedure
//! with that id in the program both families are built from, before
//! and after optimization.
//!
//! Set `CMM_BLESS=1` to rewrite the expected file.

use cmm_cfg::display::graph_to_string;
use cmm_cfg::{build_program, Graph, ProcId, ProcNames, Program};
use cmm_frontend::workloads::{deep_raise, GAME, NO_RAISE, RAISE_FREQUENCY};
use cmm_frontend::{compile_minim3, Strategy};
use cmm_opt::constprop::constprop;
use cmm_opt::dataflow::{each_var_def, each_var_use};
use cmm_opt::dce::dce;
use cmm_opt::localopt::localopt;
use cmm_opt::locals::{Refs, UNTRACKED};
use cmm_opt::ssa::{ssa_to_string, Ssa};
use cmm_opt::{flow, optimize_program, Analyses, Locals, OptOptions, Slot};
use cmm_pool::Digest;
use cmm_vm::arch::{ALPHA_DIGITAL_UNIX, PENTIUM_LINUX, SPARC_SOLARIS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

const EXAMPLES: [&str; 4] = [
    "fig34_plain.cmm",
    "fig34_table.cmm",
    "sec42_cuts.cmm",
    "sec42_unwinds.cmm",
];

/// Generated difftest cases, at seed 1.
const CASES: u64 = 256;

/// A named program of the corpus, before optimization.
struct Entry {
    name: String,
    program: Program,
    /// Print the graphs in full, or digests only.
    full: bool,
}

fn strategies() -> [Strategy; 7] {
    [
        Strategy::CORE[0],
        Strategy::CORE[1],
        Strategy::CORE[2],
        Strategy::CORE[3],
        Strategy::Sjlj(PENTIUM_LINUX),
        Strategy::Sjlj(SPARC_SOLARIS),
        Strategy::Sjlj(ALPHA_DIGITAL_UNIX),
    ]
}

/// A procedure `f` whose locals index has exactly `n` names: the
/// variables `v0 .. v(n-2)` and the continuation `k`. Every variable
/// holds a value read from a global register, so nothing folds, and
/// every one is used both after the call and in `k`.
fn wide(n: usize, annotation: &str) -> String {
    let vars: Vec<String> = (0..n - 1).map(|i| format!("v{i}")).collect();
    let mut src = String::from("register bits32 gr;\nf() {\n");
    let _ = writeln!(src, "    bits32 {};", vars.join(", "));
    for (i, v) in vars.iter().enumerate() {
        let _ = writeln!(src, "    {v} = gr + {i};");
    }
    let _ = writeln!(src, "    g() also {annotation} to k;");
    let _ = writeln!(src, "    return ({});", vars.join(" + "));
    let _ = writeln!(src, "    continuation k():");
    let rev: Vec<&str> = vars.iter().rev().map(String::as_str).collect();
    let _ = writeln!(src, "    return ({});", rev.join(" - "));
    src.push_str("}\ng() { return; }\n");
    src
}

fn build(src: &str) -> Program {
    build_program(&cmm_parse::parse_module(src).expect("corpus program parses"))
        .expect("corpus program builds")
}

fn corpus() -> Vec<Entry> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for file in EXAMPLES {
        let src = std::fs::read_to_string(root.join("examples").join(file)).expect("read example");
        out.push(Entry {
            name: format!("examples/{file}"),
            program: build(&src),
            full: true,
        });
    }
    let m3: [(&str, String); 5] = [
        ("GAME", GAME.to_string()),
        ("RAISE_FREQUENCY", RAISE_FREQUENCY.to_string()),
        ("NO_RAISE", NO_RAISE.to_string()),
        ("deep_raise(false)", deep_raise(false)),
        ("deep_raise(true)", deep_raise(true)),
    ];
    for (label, src) in &m3 {
        for s in strategies() {
            let module = compile_minim3(src, s).expect("workload lowers");
            out.push(Entry {
                name: format!("{label} {}", s.label()),
                program: build_program(&module).expect("workload builds"),
                full: true,
            });
        }
    }
    for i in 0..CASES {
        out.push(Entry {
            name: format!("difftest case 1/{i}"),
            program: build(&cmm_difftest::case_for(1, i).render()),
            full: false,
        });
    }
    for n in [63, 64, 65, 130] {
        for annotation in ["unwinds", "cuts"] {
            out.push(Entry {
                name: format!("wide {n} {annotation}"),
                program: build(&wide(n, annotation)),
                full: true,
            });
        }
    }
    out
}

fn digest(text: &str) -> String {
    Digest::of(&[text.as_bytes()]).hex()
}

/// The VM side: instruction count, a digest of the instruction stream,
/// and a digest of every procedure's frame layout and variable
/// placement (in name order).
fn vm_line(p: &Program) -> String {
    let vm = cmm_vm::compile(p).expect("corpus program compiles");
    let mut meta = String::new();
    for m in &vm.proc_meta {
        let locs: BTreeMap<_, _> = m.var_locs.iter().collect();
        let _ = writeln!(
            meta,
            "{} {} {} {} {} {:?} {:?} {locs:?}",
            m.name, m.entry, m.end, m.frame_bytes, m.ra_offset, m.saved_callee, m.cont_slots
        );
    }
    format!(
        "vm: {} insts, code {}, frames {}",
        vm.code.len(),
        digest(&format!("{:?}", vm.code)),
        digest(&meta)
    )
}

fn transcript() -> String {
    let mut out = String::new();
    for e in corpus() {
        let mut p = e.program;
        let stats = optimize_program(&mut p, &OptOptions::default());
        let mut graphs = String::new();
        for (name, g) in &p.procs {
            let _ = writeln!(graphs, "-- {name}");
            graphs.push_str(&graph_to_string(g));
            if name != cmm_cfg::YIELD {
                graphs.push_str(&ssa_to_string(g, &Ssa::build(g)));
            }
        }
        let _ = writeln!(out, "== {}", e.name);
        let _ = writeln!(out, "{stats:?}");
        if e.full {
            out.push_str(&graphs);
        } else {
            let _ = writeln!(out, "graphs {}", digest(&graphs));
        }
        let _ = writeln!(out, "{}", vm_line(&p));
    }
    out
}

#[test]
fn optimizer_output_matches_golden() {
    let got = transcript();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/opt.txt");
    if std::env::var_os("CMM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read golden file");
    if got != want {
        let (i, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("", "")));
        panic!(
            "optimizer output differs from {} at line {}:\n  got:  {g}\n  want: {w}\n\
             (rerun with CMM_BLESS=1 to accept)",
            path.display(),
            i + 1
        );
    }
}

/// The visitors must yield exactly the `Slot::Var` entries of the
/// Table 3 rules, with the same names in the same order, and each
/// node's `Refs` rows exactly those entries' positions in the locals
/// index (`UNTRACKED` for globals and symbols). The graph's SSA
/// numbering must satisfy the SSA invariant.
fn check_graph(label: &str, g: &Graph) {
    let locals = Locals::of(g);
    check_rows(label, g, &locals, &Refs::of(g, &locals));
    if g.name != cmm_cfg::YIELD {
        let bad = Ssa::build(g).verify(g);
        assert!(bad.is_empty(), "{label}: {} breaks SSA at {bad:?}", g.name);
    }
}

/// Runs the value passes as `optimize_graph` does, checking after each
/// one that the rows its analyses keep agree with Table 3.
fn check_kept_rows(label: &str, mut g: Graph) {
    let mut an = Analyses::new(&g);
    for _ in 0..OptOptions::default().max_iters {
        let mut changed = constprop(&mut g, &mut an);
        check_rows(
            &format!("{label} after constprop"),
            &g,
            an.locals(),
            an.refs(),
        );
        changed += localopt(&mut g, &mut an);
        check_rows(
            &format!("{label} after localopt"),
            &g,
            an.locals(),
            an.refs(),
        );
        changed += dce(&mut g, &mut an);
        check_rows(&format!("{label} after dce"), &g, an.locals(), an.refs());
        if changed == 0 {
            break;
        }
    }
}

fn check_rows(label: &str, g: &Graph, locals: &Locals, refs: &Refs) {
    for id in g.ids() {
        let f = flow(g, id, &[]);
        let var = |s: &[Slot]| -> Vec<String> {
            s.iter()
                .filter_map(|s| match s {
                    Slot::Var(v) => Some(v.to_string()),
                    _ => None,
                })
                .collect()
        };
        let pos = |s: &[Slot]| -> Vec<u32> {
            s.iter()
                .filter_map(|s| match s {
                    Slot::Var(v) => Some(locals.index(v).map_or(UNTRACKED, |i| i as u32)),
                    _ => None,
                })
                .collect()
        };
        let mut uses = Vec::new();
        each_var_use(g, id, |v| uses.push(v.to_string()));
        let mut defs = Vec::new();
        each_var_def(g, id, |v| defs.push(v.to_string()));
        assert_eq!(uses, var(&f.uses), "{label}: uses at {}.{id}", g.name);
        assert_eq!(defs, var(&f.defs), "{label}: defs at {}.{id}", g.name);
        assert_eq!(
            refs.uses(id),
            pos(&f.uses),
            "{label}: use row at {}.{id}",
            g.name
        );
        assert_eq!(
            refs.defs(id),
            pos(&f.defs),
            "{label}: def row at {}.{id}",
            g.name
        );
    }
}

#[test]
fn use_def_visitors_agree_with_table_3() {
    for e in corpus() {
        let mut p = e.program;
        for g in p.procs.values() {
            check_graph(&e.name, g);
            if g.name != cmm_cfg::YIELD {
                check_kept_rows(&e.name, g.clone());
            }
        }
        optimize_program(&mut p, &OptOptions::default());
        for g in p.procs.values() {
            check_graph(&e.name, g);
        }
    }
}

#[test]
fn the_target_code_numbers_procedures_as_the_program_does() {
    for e in corpus() {
        let mut optimized = e.program.clone();
        optimize_program(&mut optimized, &OptOptions::default());
        let vm = cmm_vm::compile(&optimized).expect("corpus program compiles");
        assert_eq!(vm.proc_meta.len(), e.program.procs.len(), "{}", e.name);
        for (i, (name, _)) in e.program.procs.iter().enumerate() {
            let id = ProcId(i as u32);
            assert_eq!(e.program.procs.id(name), Some(id), "{}", e.name);
            assert_eq!(optimized.procs.id(name), Some(id), "{}: {name}", e.name);
            assert_eq!(vm.proc_name(id), name.as_str(), "{}: id {i}", e.name);
            let meta = &vm.proc_meta[i];
            for pc in meta.entry..meta.end {
                assert_eq!(vm.proc_id_at(pc), Some(id), "{}: pc {pc} of {name}", e.name);
            }
        }
        // The halt vector and the pcs past the code belong to nobody.
        let first = vm.proc_meta.iter().map(|m| m.entry).min().unwrap_or(0);
        for pc in (0..first).chain([vm.code.len() as u32]) {
            assert_eq!(vm.proc_id_at(pc), None, "{}: pc {pc}", e.name);
        }
        assert_eq!(vm.proc_name(ProcId::NONE), "?");
    }
}
