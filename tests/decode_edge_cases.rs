//! Edge cases for the pre-decoded/pre-resolved/fused engines' *decode
//! time*: shapes that stress index resolution and window formation
//! rather than execution — empty procedures, continuations nothing
//! ever targets, programs pushed past the small-index boundaries,
//! fusable sequences split by control-flow boundaries — plus the
//! checked-in corpus reproducers replayed on the new engines.
//!
//! Each such case asserts the new engine's observation equals the
//! reference engine's, using the `cmm-difftest` oracle observers. Two
//! checks guard the fusion pass itself: every window opcode forms on a
//! committed program, and a fused stream that formed no window is
//! still the `vm-fused` tier, for the engine id and the snapshot tag.

use cmm_cfg::Program;
use cmm_difftest::{
    observe_sem, observe_sem_resolved, observe_vm, observe_vm_decoded, observe_vm_fused, Limits,
};
use cmm_vm::{DInst, DOp, DecodedCode, FusedCode, VmProgram};
use std::fmt::Write as _;
use std::sync::Arc;

fn build(src: &str) -> Program {
    let module = cmm_parse::parse_module(src).expect("program parses");
    cmm_cfg::build_program(&module).expect("program builds")
}

/// Asserts both new engines observe exactly what their reference
/// engines observe on `src` at entry `f(args)`.
fn engines_agree(src: &str, args: (u32, u32)) {
    let limits = Limits::default();
    let prog = build(src);
    let (reference, ref_detail) = observe_sem(&prog, args, &limits);
    let (resolved, detail) = observe_sem_resolved(&prog, args, &limits);
    assert_eq!(
        resolved,
        reference,
        "resolved sem diverged: reference {}, observed {}",
        reference.describe(&ref_detail),
        resolved.describe(&detail)
    );
    let vp = cmm_vm::compile(&prog).expect("program compiles");
    let (vm_ref, vm_ref_detail) = observe_vm(&vp, args, &limits);
    let (decoded, detail) = observe_vm_decoded(&vp, args, &limits);
    assert_eq!(
        decoded,
        vm_ref,
        "decoded vm diverged: reference {}, observed {}",
        vm_ref.describe(&vm_ref_detail),
        decoded.describe(&detail)
    );
    let (fused, detail) = observe_vm_fused(&vp, args, &limits);
    assert_eq!(
        fused,
        vm_ref,
        "fused vm diverged: reference {}, observed {}",
        vm_ref.describe(&vm_ref_detail),
        fused.describe(&detail)
    );
}

/// Compiles `src` and returns its decoded and fused streams for
/// structural assertions on window formation.
fn streams(src: &str) -> (VmProgram, Arc<DecodedCode>, FusedCode) {
    let prog = build(src);
    let vp = cmm_vm::compile(&prog).expect("program compiles");
    let plain = Arc::new(DecodedCode::decode(&vp));
    let fused = FusedCode::fuse(&vp, plain.clone());
    (vp, plain, fused)
}

/// Every statically-visible control transfer target (branch, jump,
/// call) in `plain`.
fn static_targets(plain: &DecodedCode) -> Vec<u32> {
    plain
        .insts
        .iter()
        .filter_map(|i: &DInst| match i.op {
            DOp::Bz | DOp::Jmp | DOp::Call => Some(i.imm),
            _ => None,
        })
        .collect()
}

/// Asserts no fused window absorbs any of `targets` as an interior:
/// a transfer must always land on a window head, or execution would
/// teleport into the middle of a superinstruction.
fn assert_targets_are_window_heads(fused: &FusedCode, targets: &[u32]) {
    for (pc, fi) in fused.insts.iter().enumerate() {
        if fi.n <= 1 {
            continue;
        }
        for &t in targets {
            let t = t as usize;
            assert!(
                !(pc < t && t < pc + fi.n as usize),
                "target {t} is an interior of the window at {pc} (width {})",
                fi.n
            );
        }
    }
}

/// Procedures whose bodies are a bare `return;` decode to the minimal
/// node/instruction stream and still run.
#[test]
fn empty_procs_decode_and_run() {
    engines_agree(
        r#"
            e() { return; }
            e2(bits32 x) { return; }
            f(bits32 a, bits32 b) {
                e();
                e2(a);
                return (a + b);
            }
        "#,
        (31, 11),
    );
}

/// A continuation only ever named by a call annotation in a branch that
/// never executes: the decoder must still resolve it (it is part of the
/// entry's continuation environment) even though no execution reaches
/// it. This is the shape of the `dead-cont-value` corpus regression,
/// before any optimizer involvement.
#[test]
fn unreachable_continuations_decode() {
    engines_agree(
        r#"
            g0(bits32 x, bits32 kk) {
                if x > 9 { cut to kk(x - 1); } else { return (x + 1); }
            }
            f(bits32 a, bits32 b) {
                bits32 c, t;
                c = 0;
                if 0 {
                    c = g0(0, kc) also cuts to kc also aborts;
                } else {
                }
                return ((a + b) + c);
                continuation kc(t):
                return (t + 1000);
            }
        "#,
        (5, 6),
    );
}

/// A procedure pushed past the one-byte index boundaries: more than 256
/// CFG nodes, 80 local variables (slots), and 40 continuations, each of
/// which is genuinely cut to once. Exercises the dense index arrays the
/// decoders build.
#[test]
fn max_index_programs_decode() {
    let mut src = String::new();
    // 40 target procs, one per continuation.
    let _ = writeln!(
        src,
        "g0(bits32 x, bits32 kk) {{ if x > 9 {{ cut to kk(x - 1); }} else {{ return (x + 1); }} }}"
    );
    let _ = writeln!(src, "f(bits32 a, bits32 b) {{");
    // 80 locals.
    for i in 0..80 {
        let _ = writeln!(src, "    bits32 v{i};");
    }
    let _ = writeln!(src, "    bits32 acc;");
    for k in 0..40 {
        let _ = writeln!(src, "    bits32 t{k};");
    }
    for i in 0..80 {
        let _ = writeln!(src, "    v{i} = a + {i};");
    }
    // > 256 nodes of straight-line arithmetic.
    let _ = writeln!(src, "    acc = 0;");
    for i in 0..300 {
        let _ = writeln!(src, "    acc = (acc + v{}) & 65535;", i % 80);
    }
    // 40 continuations, each reached by one cut.
    for k in 0..40 {
        let _ = writeln!(src, "    acc = g0(15, k{k}) also cuts to k{k} also aborts;");
    }
    let _ = writeln!(src, "    return (acc + b);");
    for k in 0..40 {
        let _ = writeln!(src, "    continuation k{k}(t{k}):");
        let _ = writeln!(src, "    acc = acc + t{k};");
    }
    let _ = writeln!(src, "}}");
    engines_agree(&src, (2, 3));
}

/// The checked-in corpus reproducers (the two shrunk regressions from
/// the fuzzing subsystem's first sweep) replay cleanly on the new
/// engines.
#[test]
fn corpus_reproducers_agree_on_new_engines() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "cmm") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        engines_agree(&text, (0, 0));
        replayed += 1;
    }
    assert!(
        replayed >= 2,
        "expected both corpus reproducers, got {replayed}"
    );
}

/// And the full oracle stack over the corpus — the same check `cmm fuzz
/// --replay corpus` performs in CI.
#[test]
fn corpus_replay_is_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let report = cmm_difftest::replay_corpus(&dir, &Limits::default()).unwrap();
    assert!(report.files_run >= 2);
    assert!(
        report.ok(),
        "{}: {}",
        report.failures[0].path.display(),
        report.failures[0].failure
    );
}

/// A fusable `li`/`mov` pair whose second half is also a `goto` target:
/// the basic-block boundary must split the pair — the loop-head target
/// keeps its own dispatch slot — while the engines still agree
/// observation-for-observation.
#[test]
fn fusable_pairs_split_across_block_boundaries() {
    let src = r#"
        f(bits32 a, bits32 b) {
            bits32 c, i;
            c = 1;
            i = a;
          loop:
            c = (c + 3) & 65535;
            i = i - 1;
            if i > 0 { goto loop; }
            return (c + b);
        }
    "#;
    let (_vp, plain, fused) = streams(src);
    let targets = static_targets(&plain);
    assert!(!targets.is_empty(), "expected a backward branch");
    assert!(
        fused.insts.iter().any(|i| i.n > 1),
        "expected the loop body to fuse"
    );
    assert_targets_are_window_heads(&fused, &targets);
    engines_agree(src, (9, 4));
}

/// Branch targets landing mid-pattern suppress fusion on a shape the
/// fuser would otherwise collapse greedily: straight-line arithmetic
/// whose middle instruction is a branch target. Observed behaviour
/// must match the reference on both the fall-through and the taken
/// path.
#[test]
fn branch_targets_mid_pattern_suppress_fusion() {
    let src = r#"
        f(bits32 a, bits32 b) {
            bits32 c, d;
            c = (a + 1) & 65535;
            if b > 2 { goto mid; }
            c = (c * 3) & 65535;
          mid:
            d = (c + 5) & 65535;
            c = (d * 7) & 65535;
            return (c + d);
        }
    "#;
    let (_vp, plain, fused) = streams(src);
    assert_targets_are_window_heads(&fused, &static_targets(&plain));
    engines_agree(src, (9, 1));
    engines_agree(src, (9, 4));
}

/// A continuation parameter filled through `FindContParam` stays live
/// across a fused window in the continuation body: the first thing the
/// body does with the filled value is fusable arithmetic.
#[test]
fn continuation_params_live_across_fused_window() {
    let src = r#"
        g0(bits32 x, bits32 kk) {
            if x > 9 { cut to kk(x - 1); } else { return (x + 1); }
        }
        f(bits32 a, bits32 b) {
            bits32 c, t;
            c = (a + 3) & 65535;
            yield(2) also aborts;
            t = g0(15, kc) also cuts to kc also aborts;
            return (c + t);
            continuation kc(t):
            c = (t + 1) & 65535;
            c = (c * 3) + t;
            c = (c + t) & 65535;
            return (c + b);
        }
    "#;
    let (_vp, _plain, fused) = streams(src);
    assert!(
        fused.insts.iter().any(|i| i.n > 1),
        "expected the continuation body to fuse"
    );
    engines_agree(src, (15, 4));
}

/// The window opcodes, in declaration order. A new pattern joins this
/// list together with a committed program that forms it.
const WINDOW_OPS: [DOp; 40] = [
    DOp::CmpBz,
    DOp::LiCmpBz,
    DOp::AluJmp,
    DOp::AddiStore32,
    DOp::MovCall,
    DOp::RetJr,
    DOp::CutJr,
    DOp::MovMov,
    DOp::MovLi,
    DOp::MovLoad32,
    DOp::LiMov,
    DOp::LiStore32,
    DOp::LiBin32,
    DOp::Load32Mov,
    DOp::Load32Load32,
    DOp::Load32Store32,
    DOp::Store32Mov,
    DOp::Store32Li,
    DOp::Store32Store32,
    DOp::Bin32Store32,
    DOp::Bin32Mov,
    DOp::MovAddi,
    DOp::Store32Load32,
    DOp::AddiJr,
    DOp::Mov3,
    DOp::Mov4,
    DOp::Load32LiBin32,
    DOp::MovMovCall,
    DOp::Load32MovCall,
    DOp::MovRun,
    DOp::LiBin32Mov,
    DOp::LiBin32MovJmp,
    DOp::Load32Load32CmpBz,
    DOp::Load32LiBin32Store32Jmp,
    DOp::Load32MovLoad32MovCall,
    DOp::Bin32Li,
    DOp::Load32AddiJmp,
    DOp::WriteRun,
    DOp::ReadRun,
    DOp::MovBin32Mov,
];

/// Every window opcode forms at least once on the committed programs,
/// optimized: the C-- examples, Figure 2's deep raise, and the MiniM3
/// workloads under all seven strategies. A pattern nothing forms is
/// dispatch arms and fusion code that no program pays for.
#[test]
fn every_window_opcode_forms_on_a_committed_program() {
    use cmm_frontend::workloads::{GAME, NO_RAISE, RAISE_FREQUENCY};
    use cmm_frontend::{compile_minim3, Strategy};
    use cmm_vm::arch::{ALPHA_DIGITAL_UNIX, PENTIUM_LINUX, SPARC_SOLARIS};

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let read = |name: &str| std::fs::read_to_string(root.join(name)).expect("read example");
    let mut programs: Vec<(String, Program)> = Vec::new();
    for entry in std::fs::read_dir(&root).expect("examples directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "cmm") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let prog = build(&read(&name));
            programs.push((name, prog));
        }
    }
    let m3 = [
        ("fig2_deep_raise.m3", read("fig2_deep_raise.m3")),
        ("GAME", GAME.to_string()),
        ("RAISE_FREQUENCY", RAISE_FREQUENCY.to_string()),
        ("NO_RAISE", NO_RAISE.to_string()),
    ];
    let mut strategies = Strategy::CORE.to_vec();
    strategies.extend([PENTIUM_LINUX, SPARC_SOLARIS, ALPHA_DIGITAL_UNIX].map(Strategy::Sjlj));
    for (label, src) in &m3 {
        for &s in &strategies {
            let module = compile_minim3(src, s).expect("workload lowers");
            let prog = cmm_cfg::build_program(&module).expect("workload builds");
            programs.push((format!("{label} {}", s.label()), prog));
        }
    }
    let mut formed = vec![0usize; WINDOW_OPS.len()];
    for (name, mut prog) in programs {
        cmm_opt::optimize_program(&mut prog, &cmm_opt::OptOptions::default());
        let vp = cmm_vm::compile(&prog).expect("program compiles");
        let fused = FusedCode::fuse(&vp, Arc::new(DecodedCode::decode(&vp)));
        for head in fused.insts.iter().filter(|i| i.n > 1) {
            let Some(k) = WINDOW_OPS.iter().position(|&op| op == head.op) else {
                panic!("{name}: {:?} forms a window but is not listed", head.op);
            };
            formed[k] += 1;
        }
    }
    let never: Vec<DOp> = WINDOW_OPS
        .iter()
        .zip(&formed)
        .filter(|&(_, &count)| count == 0)
        .map(|(&op, _)| op)
        .collect();
    assert!(
        never.is_empty(),
        "window opcodes no committed program forms: {never:?}"
    );
}

/// A fused stream in which the pass formed no window is still the
/// `vm-fused` tier: the stream names its tier, so neither the engine
/// id a thread reports nor the tag a snapshot carries depends on how
/// many windows formed. The snapshot still resumes on `vm-decoded`.
#[test]
fn a_fused_stream_without_windows_is_still_vm_fused() {
    use cmm_chaos::{EngineId, Family, Table1};
    use cmm_pool::SourceKey;
    use cmm_snap::{SnapMeta, Snapshot};
    use cmm_vm::{VmStatus, VmThread};

    // Every compiled program forms a window: code generation always
    // emits the `yield` stub, whose frame push and pop fuse. So the
    // compiled `f() { return; }` is rewritten to the leaf `f: jr ra+0`,
    // every other slot a `halt`, which nothing fuses.
    let src = "f() { return; }";
    let mut vp = cmm_vm::compile(&build(src)).expect("program compiles");
    let entry = vp.entries["f"] as usize;
    for (pc, inst) in vp.code.iter_mut().enumerate().skip(8) {
        *inst = if pc == entry {
            cmm_vm::Inst::Jr {
                rs: cmm_vm::isa::regs::RA,
                off: 0,
            }
        } else {
            cmm_vm::Inst::Halt
        };
    }
    let fused = FusedCode::fuse(&vp, Arc::new(DecodedCode::decode(&vp)));
    assert_eq!(fused.fused_heads(), 0, "expected no window");

    let mut straight = VmThread::new_fused(&vp);
    assert_eq!(straight.engine(), EngineId::VmFused);
    straight.start("f", &[], 0);
    let VmStatus::Halted(want) = straight.run(1 << 20) else {
        panic!("straight run did not halt");
    };

    let mut t = VmThread::new_fused(&vp);
    t.start("f", &[], 0);
    assert_eq!(t.run(1), VmStatus::OutOfFuel);
    let meta = SnapMeta {
        entry: "f".into(),
        args: Vec::new(),
        fuel_remaining: 1 << 20,
        yields_done: 0,
        opt: false,
    };
    let digest = SourceKey::cmm(src, false, Family::Vm).digest();
    let snap = Snapshot::capture(&t, digest, meta, None).expect("capture at a fuel boundary");
    let blob = Snapshot::decode(&snap.encode()).expect("decode own encoding");
    assert_eq!(
        blob.engine,
        EngineId::VmFused,
        "the blob carries the fused tag"
    );

    let mut resumed = VmThread::new_decoded(&vp);
    blob.restore_into(&mut resumed)
        .expect("a fused blob restores on vm-decoded");
    assert_eq!(resumed.engine(), EngineId::VmDecoded);
    assert_eq!(resumed.run(1 << 20), VmStatus::Halted(want));
    assert_eq!(resumed.machine.cost, straight.machine.cost);
}
