//! Error-path coverage for the `cmm` binary's argument parsing, plus
//! determinism smokes over `cmm batch` and `cmm serve`.
//!
//! Every test drives the real executable (`CARGO_BIN_EXE_cmm`), so the
//! assertions hold for exactly what a user types: bad input must come
//! back as a one-line `cmm: ...` diagnostic and a nonzero exit, never a
//! panic backtrace.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn cmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmm"))
        .args(args)
        .output()
        .expect("spawn cmm")
}

/// Runs `cmm`, killing it if it is still running after `deadline`: a
/// command that ought to be refused must not serve forever instead.
fn cmm_within(args: &[&str], deadline: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cmm"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmm");
    let started = Instant::now();
    while child.try_wait().expect("poll cmm").is_none() {
        if started.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("cmm {args:?} was still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect cmm output")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch directory removed on drop, named per test to keep
/// concurrent test binaries out of each other's way.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cmm-cli-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn file(&self, name: &str, contents: &str) -> PathBuf {
        let p = self.0.join(name);
        std::fs::write(&p, contents).expect("write scratch file");
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_fails_mentioning(out: &Output, needle: &str) {
    assert!(!out.status.success(), "expected failure, got success");
    let err = stderr(out);
    assert!(
        err.contains(needle),
        "stderr should mention `{needle}`, got:\n{err}"
    );
    assert!(
        !err.contains("panicked"),
        "errors must be diagnostics, not panics:\n{err}"
    );
}

#[test]
fn no_arguments_prints_usage() {
    assert_fails_mentioning(&cmm(&[]), "usage:");
}

#[test]
fn unknown_subcommand_prints_usage() {
    assert_fails_mentioning(&cmm(&["frobnicate"]), "usage:");
}

#[test]
fn missing_file_is_a_diagnostic() {
    assert_fails_mentioning(&cmm(&["run", "no_such.cmm", "f"]), "no_such.cmm");
    assert_fails_mentioning(&cmm(&["batch", "no_such.manifest"]), "no_such.manifest");
}

#[test]
fn bad_numeric_arguments_are_diagnostics() {
    let s = Scratch::new("badnum");
    let src = s.file("t.cmm", "f(bits32 a) { return (a); }");
    let src = src.to_str().unwrap();
    assert_fails_mentioning(&cmm(&["run", src, "f", "not-a-number"]), "bad argument");
    assert_fails_mentioning(&cmm(&["run", src, "f", "--results"]), "--results");
    // Arguments are 32-bit machine words: out-of-range values must be
    // rejected up front, not silently truncated for one engine while
    // the other sees the full u64 (regression for the old `as u32`).
    assert_fails_mentioning(&cmm(&["run", src, "f", "4294967296"]), "bad argument");
    assert_fails_mentioning(&cmm(&["trace", src, "f", "4294967296"]), "bad argument");
    let m3 = s.file("t.m3", "proc main(n) { return n; }");
    let out = cmm(&["m3", m3.to_str().unwrap(), "cutting", "4294967296"]);
    assert_fails_mentioning(&out, "bad argument");
}

#[test]
fn fuzz_rejects_bad_options() {
    assert_fails_mentioning(&cmm(&["fuzz", "--frob"]), "--frob");
    assert_fails_mentioning(&cmm(&["fuzz", "--jobs", "0"]), "--jobs");
    assert_fails_mentioning(&cmm(&["fuzz", "--jobs"]), "--jobs");
    assert_fails_mentioning(&cmm(&["fuzz", "--cases"]), "--cases");
    // The snapshot-equivalence oracle slices fuel; a slice of zero
    // would never make progress and must be rejected at the parser.
    assert_fails_mentioning(&cmm(&["fuzz", "--snap-slice", "0"]), "--snap-slice");
    assert_fails_mentioning(&cmm(&["fuzz", "--snap-slice", "many"]), "--snap-slice");
    assert_fails_mentioning(&cmm(&["fuzz", "--snap-slice"]), "--snap-slice");
}

#[test]
fn snapshot_flags_reject_bad_numbers() {
    let s = Scratch::new("snapnum");
    let src = s.file("t.cmm", "f(bits32 a) { return (a); }");
    let src = src.to_str().unwrap();
    // Zero-interval checkpointing would snapshot before every
    // transition forever; zero fuel would never run at all.
    assert_fails_mentioning(
        &cmm(&["run", src, "f", "1", "--snapshot-every", "0"]),
        "--snapshot-every",
    );
    assert_fails_mentioning(
        &cmm(&["run", src, "f", "1", "--snapshot-every", "x"]),
        "--snapshot-every",
    );
    assert_fails_mentioning(
        &cmm(&["run", src, "f", "1", "--snapshot-every"]),
        "--snapshot-every",
    );
    assert_fails_mentioning(&cmm(&["snap", src, "f", "1", "--fuel", "0"]), "--fuel");
    assert_fails_mentioning(&cmm(&["snap", src, "f", "1", "--at", "many"]), "--at");
    assert_fails_mentioning(&cmm(&["snap", src, "f", "1", "--engine", "warp"]), "warp");
    // Entry arguments stay 32-bit words on the snap path too: no silent
    // `as u32` truncation for one engine family.
    assert_fails_mentioning(&cmm(&["snap", src, "f", "4294967296"]), "bad argument");
    assert_fails_mentioning(
        &cmm(&[
            "run",
            src,
            "f",
            "1",
            "--snapshot-every",
            "4294967296",
            "--snapshot-every",
            "0",
        ]),
        "--snapshot-every",
    );
    let m = s.file("one.manifest", "t.cmm sem entry=f args=1\n");
    assert_fails_mentioning(
        &cmm(&["batch", m.to_str().unwrap(), "--snapshot-every", "0"]),
        "--snapshot-every",
    );
}

#[test]
fn resume_rejects_garbage_and_mismatched_snapshots() {
    let s = Scratch::new("resumebad");
    let src = s.file("t.cmm", "f(bits32 a) { return (a); }");
    let src = src.to_str().unwrap();
    // Missing snapshot file.
    assert_fails_mentioning(&cmm(&["resume", "no_such.snap", src]), "no_such.snap");
    // A file that is not a snapshot at all: structured decode error,
    // not a panic.
    let junk = s.file("junk.snap", "this is not a snapshot");
    assert_fails_mentioning(&cmm(&["resume", junk.to_str().unwrap(), src]), "junk.snap");
    // A valid snapshot of one program refuses to resume over another.
    let loop_src = s.file(
        "loop.cmm",
        "f(bits32 n) {\n  bits32 acc;\n  acc = 0;\nloop:\n  if n == 0 { return (acc); }\n  else { acc = acc + n; n = n - 1; goto loop; }\n}",
    );
    let blob = s.0.join("loop.snap");
    let out = cmm(&[
        "snap",
        loop_src.to_str().unwrap(),
        "f",
        "50",
        "--at",
        "40",
        "--out",
        blob.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "snap failed: {}", stderr(&out));
    assert_fails_mentioning(
        &cmm(&["resume", blob.to_str().unwrap(), src]),
        "different program",
    );
    // ...and refuses an engine of the other family. The diagnostic is
    // structured: it names both engines, both families, and the blob's
    // program digest, so an operator can locate the blob and pick a
    // legal tier — and the execution service's set-engine path emits
    // the very same message.
    let snapshot =
        cmm_core::snap::Snapshot::decode(&std::fs::read(&blob).expect("read blob")).unwrap();
    let out = cmm(&[
        "resume",
        blob.to_str().unwrap(),
        loop_src.to_str().unwrap(),
        "--engine",
        "sem",
    ]);
    assert_fails_mentioning(&out, "engine families differ");
    let err = stderr(&out);
    let blob_engine = snapshot.engine.name();
    assert!(
        err.contains(&format!("{blob_engine} snapshot")),
        "stderr should name the blob engine `{blob_engine}`:\n{err}"
    );
    assert!(
        err.contains(&format!("family {}", snapshot.engine.family().name()))
            && err.contains("family sem"),
        "stderr should name both families:\n{err}"
    );
    let digest = snapshot.digest.hex();
    assert!(
        err.contains(&digest),
        "stderr should name the blob digest {digest}:\n{err}"
    );
}

/// A blob in the retired version-1 wire format, as `cmm snap` wrote it
/// before version 2, is refused by its version, and the message names
/// the version it has and the one this build reads.
#[test]
fn resume_refuses_a_version_1_blob_by_name() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let blob = format!("{dir}/../snap/tests/fixtures/fig34_plain.v1.snap");
    let src = format!("{dir}/../../examples/fig34_plain.cmm");
    let out = cmm(&["resume", &blob, &src]);
    assert_fails_mentioning(&out, "unsupported snapshot version 1");
    assert_fails_mentioning(&out, "reads version 2");
}

/// The headline CLI contract: `cmm snap --at K` + `cmm resume` prints
/// exactly what one straight `cmm snap` run prints, for every engine —
/// and a VM-tier snapshot resumes on a different tier.
#[test]
fn snap_then_resume_matches_the_straight_run_on_every_engine() {
    let s = Scratch::new("snapresume");
    let src = s.file(
        "loop.cmm",
        "f(bits32 n) {\n  bits32 acc;\n  acc = 0;\nloop:\n  if n == 0 { return (acc); }\n  else { acc = acc + n; n = n - 1; goto loop; }\n}",
    );
    let src = src.to_str().unwrap();
    for engine in ["sem", "sem-resolved", "vm", "vm-decoded", "vm-fused"] {
        let straight = cmm(&["snap", src, "f", "100", "--engine", engine]);
        assert!(straight.status.success(), "{engine}: {}", stderr(&straight));
        let blob = s.0.join(format!("{engine}.snap"));
        let blob = blob.to_str().unwrap();
        let out = cmm(&[
            "snap", src, "f", "100", "--engine", engine, "--at", "57", "--out", blob,
        ]);
        assert!(out.status.success(), "{engine} snap: {}", stderr(&out));
        assert!(
            stdout(&out).contains("snapshot written"),
            "{engine}: expected a snapshot, got:\n{}",
            stdout(&out)
        );
        let resumed = cmm(&["resume", blob, src]);
        assert!(
            resumed.status.success(),
            "{engine} resume: {}",
            stderr(&resumed)
        );
        assert_eq!(
            stdout(&resumed),
            stdout(&straight),
            "{engine}: resumed output differs from the straight run"
        );
        assert!(stdout(&straight).contains("outcome: halt"));
    }
    // Cross-tier: a stepped-tier blob resumes on the fused tier with
    // the same outcome and instruction count.
    let straight = cmm(&["snap", src, "f", "100", "--engine", "vm"]);
    let resumed = cmm(&[
        "resume",
        s.0.join("vm.snap").to_str().unwrap(),
        src,
        "--engine",
        "vm-fused",
    ]);
    assert!(resumed.status.success(), "cross-tier: {}", stderr(&resumed));
    assert_eq!(
        stdout(&resumed),
        stdout(&straight),
        "cross-tier output differs"
    );
}

/// `cmm run --snapshot-every` must not change what `cmm run` reports:
/// the self-round-trip is invisible except for the trailing snapshots
/// line.
#[test]
fn checkpointed_run_output_extends_the_plain_run() {
    let s = Scratch::new("ckptrun");
    let src = s.file(
        "loop.cmm",
        "f(bits32 n) {\n  bits32 acc;\n  acc = 0;\nloop:\n  if n == 0 { return (acc); }\n  else { acc = acc + n; n = n - 1; goto loop; }\n}",
    );
    let src = src.to_str().unwrap();
    let plain = cmm(&["run", src, "f", "60"]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let ckpt = cmm(&["run", src, "f", "60", "--snapshot-every", "16"]);
    assert!(ckpt.status.success(), "{}", stderr(&ckpt));
    let plain = stdout(&plain);
    let ckpt = stdout(&ckpt);
    assert!(
        ckpt.starts_with(&plain),
        "checkpointed run must print the plain run verbatim first:\nplain:\n{plain}\nckpt:\n{ckpt}"
    );
    let extra = &ckpt[plain.len()..];
    assert!(
        extra.starts_with("snapshots:") && extra.contains("checkpoint(s)"),
        "trailing snapshots line missing, got: {extra:?}"
    );
}

#[test]
fn batch_rejects_bad_options_and_manifests() {
    let s = Scratch::new("badmanifest");
    let good = s.file("ok.cmm", "f(bits32 a) { return (a); }");
    let _ = good;
    let m = s.file("bad.manifest", "ok.cmm warp-drive entry=f\n");
    assert_fails_mentioning(&cmm(&["batch", m.to_str().unwrap()]), "line 1");
    let m = s.file("bad2.manifest", "ok.cmm sem entry\n");
    assert_fails_mentioning(&cmm(&["batch", m.to_str().unwrap()]), "key=value");
    let m = s.file("empty.manifest", "# nothing here\n");
    assert_fails_mentioning(&cmm(&["batch", m.to_str().unwrap()]), "no jobs");
    assert_fails_mentioning(
        &cmm(&["batch", m.to_str().unwrap(), "--warp"]),
        "unknown batch option",
    );
    assert_fails_mentioning(&cmm(&["batch", m.to_str().unwrap(), "-j", "0"]), "--jobs");
}

/// Argument and result counts beyond the calling convention's value
/// registers come back as diagnostics: from `cmm run` (once a panic
/// writing past the register file) and from a manifest line (once an
/// abort sizing the result vector).
#[test]
fn oversized_arities_are_diagnostics_not_aborts() {
    let fig = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig34_plain.cmm"
    );
    let args: Vec<String> = (1..=60).map(|i| i.to_string()).collect();
    let mut argv = vec!["run", fig, "f"];
    argv.extend(args.iter().map(String::as_str));
    assert_fails_mentioning(&cmm(&argv), "60 arguments exceed");
    let s = Scratch::new("arity");
    s.file("ok.cmm", "f(bits32 a) { return (a); }");
    for results in ["1099511627776", "100", "9"] {
        let m = s.file(
            "big.manifest",
            &format!("ok.cmm sem args=1\nok.cmm vm,sem args=1 results={results}\n"),
        );
        let out = cmm(&["batch", m.to_str().unwrap()]);
        assert_fails_mentioning(&out, &format!("line 2: {results} results exceed"));
    }
}

#[test]
fn batch_compile_errors_fail_the_run_but_stay_in_the_report() {
    let s = Scratch::new("compileerr");
    s.file("ok.cmm", "f(bits32 a) { return (a + 1); }");
    s.file("broken.cmm", "f(bits32 a) { return (a +; }");
    let m = s.file("mix.manifest", "ok.cmm sem args=1\nbroken.cmm sem,vm\n");
    let out = cmm(&["batch", m.to_str().unwrap(), "--no-timing"]);
    assert!(!out.status.success(), "a compile error must fail the run");
    let json = stdout(&out);
    assert!(json.contains("\"outcome\": \"halt [2]\""), "good job ran");
    assert!(
        json.matches("\"outcome\": \"compile-error\"").count() == 2,
        "both broken jobs reported:\n{json}"
    );
    assert!(stderr(&out).contains("2 job(s) failed"));
}

#[test]
fn batch_reports_are_byte_identical_across_jobs_and_share_compiles() {
    let s = Scratch::new("determinism");
    s.file(
        "loop.cmm",
        "f(bits32 n) {\n  bits32 acc;\n  acc = 0;\nloop:\n  if n == 0 { return (acc); }\n  else { acc = acc + n; n = n - 1; goto loop; }\n}",
    );
    s.file(
        "raise.m3",
        "exception E;\nproc main(n) {\n  var r;\n  try { raise E(n); r = 0; } except { E(v) => { r = v + 1; } }\n  return r;\n}",
    );
    let m = s.file(
        "jobs.manifest",
        "loop.cmm sem,sem-resolved,vm,vm-decoded entry=f args=9\n\
         loop.cmm vm entry=f args=9 opt=none\n\
         raise.m3 sem,vm strategy=cutting args=5\n\
         raise.m3 vm strategy=runtime-unwind args=5\n",
    );
    let run = |jobs: &str| {
        let out = cmm(&["batch", m.to_str().unwrap(), "--no-timing", "-j", jobs]);
        assert!(out.status.success(), "batch -j{jobs}: {}", stderr(&out));
        stdout(&out)
    };
    let j1 = run("1");
    let j4 = run("4");
    assert_eq!(j1, j4, "-j1 and -j4 reports must be byte-identical");
    assert!(j1.contains("\"outcome\": \"halt [45]\""));
    assert!(j1.contains("\"outcome\": \"result 6\""));
    // Each digest group compiles once and every job then refetches, so
    // a fresh cache still finishes warm.
    let rate = j1
        .split("\"hit_rate_permille\": ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.trim_end_matches(['}', ',']).parse::<u64>().ok())
        .expect("report carries a hit rate");
    assert!(rate > 0, "cache hit rate must be nonzero:\n{j1}");
}

/// A worker count far beyond what a scheduling tick can use is capped
/// rather than honoured with a thread each: the run finishes with the
/// `-j 1` event digest.
#[test]
fn serve_caps_an_oversized_worker_count() {
    let digest = |jobs: &str| {
        let out = cmm(&[
            "serve",
            "--selftest",
            "--tenants",
            "2",
            "--threads",
            "4",
            "-j",
            jobs,
        ]);
        assert!(out.status.success(), "serve -j {jobs}: {}", stderr(&out));
        let text = stdout(&out);
        let line = text.lines().find(|l| l.starts_with("event digest:"));
        line.expect("selftest prints its digest").to_string()
    };
    let j1 = digest("1");
    assert!(j1.ends_with("0xc35acf3ee71ecc68"), "{j1}");
    assert_eq!(digest("1000000"), j1);
}

/// A run whose trace outgrows the recording cap says so: the profile
/// of 600000 calls records only the first 1000000 of its 1200001
/// events, and every count it prints covers that prefix alone.
#[test]
fn a_trace_past_the_recording_cap_reports_its_dropped_events() {
    let fig = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig34_plain.cmm"
    );
    let out = cmm(&["profile", fig, "f", "600000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("(1000000 events)"), "{text}");
    assert!(
        text.contains(
            "trace truncated: the first 1000000 events were recorded and 200001 more were dropped"
        ),
        "{text}"
    );
}

/// `profile` prints its report and writes no file, so an `--out` it
/// would silently ignore is refused, pointing at `trace --out`.
#[test]
fn profile_refuses_out_and_writes_no_file() {
    let s = Scratch::new("profout");
    let fig = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig34_plain.cmm"
    );
    let target = s.0.join("prof.json");
    let out = cmm(&["profile", fig, "f", "20", "--out", target.to_str().unwrap()]);
    assert_fails_mentioning(&out, "cmm trace --out");
    assert!(
        !target.exists(),
        "profile must not write {}",
        target.display()
    );
}

/// `dump-cfg` and `dump-ssa` take one optional procedure filter and
/// `dump-vm` none: a filter that names no procedure, or any argument
/// past those, is refused by name instead of printing nothing (or, for
/// `dump-vm -O0`, the optimized code) and exiting zero.
#[test]
fn dump_commands_refuse_arguments_they_would_ignore() {
    let fig = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig34_plain.cmm"
    );
    for cmd in ["dump-cfg", "dump-ssa"] {
        assert_fails_mentioning(&cmm(&[cmd, fig, "-O0"]), "`-O0`");
        assert_fails_mentioning(&cmm(&[cmd, fig, "nosuch"]), "`nosuch`");
        assert_fails_mentioning(&cmm(&[cmd, fig, "g", "-O0"]), "`-O0`");
        let out = cmm(&[cmd, fig, "g"]);
        assert!(out.status.success(), "{cmd} g: {}", stderr(&out));
        assert!(!stdout(&out).is_empty(), "{cmd} g printed nothing");
    }
    assert_fails_mentioning(&cmm(&["dump-vm", fig, "-O0"]), "`-O0`");
}

/// `serve --listen` reads none of the self-test's flags, and the two
/// modes exclude each other: each mix is refused before binding rather
/// than dropped (a `--metrics-out` file that is never written, an
/// address the self-test ignores).
#[test]
fn serve_refuses_flags_its_mode_does_not_read() {
    let s = Scratch::new("servemix");
    let out_file = s.0.join("out.json");
    let out_path = out_file.to_str().unwrap();
    for extra in [
        ["--metrics-out", out_path],
        ["--events-out", out_path],
        ["--tenants", "2"],
        ["--threads", "2"],
        ["--quanta", "5"],
        ["--seed", "7"],
    ] {
        let mut args = vec!["serve", "--listen", "127.0.0.1:0"];
        args.extend(extra);
        let out = cmm_within(&args, Duration::from_secs(10));
        assert_fails_mentioning(&out, extra[0]);
    }
    assert!(!out_file.exists(), "a refused serve wrote {out_path}");
    let out = cmm_within(
        &[
            "serve",
            "--selftest",
            "--tenants",
            "2",
            "--threads",
            "4",
            "--listen",
            "127.0.0.1:0",
        ],
        Duration::from_secs(10),
    );
    assert_fails_mentioning(&out, "--listen");
}

/// A `--jobs` too large to multiply by the fuzz wave width runs like
/// any other worker count: the executor starts one helper per case
/// beyond the first, and the report is the `--jobs 1` report.
#[test]
fn fuzz_takes_the_largest_jobs_value() {
    let report = |jobs: &str| {
        let out = cmm(&["fuzz", "--cases", "2", "--seed", "0", "--jobs", jobs]);
        assert!(
            !stderr(&out).contains("panicked"),
            "fuzz --jobs {jobs} panicked:\n{}",
            stderr(&out)
        );
        assert!(out.status.success(), "fuzz --jobs {jobs}: {}", stderr(&out));
        stdout(&out)
    };
    let one = report("1");
    assert!(one.contains("fuzz: 2 cases, seed 0: 0 failure(s)"), "{one}");
    assert_eq!(report("18446744073709551615"), one);
}

const FIG34: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/fig34_plain.cmm"
);
const FIG2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/fig2_deep_raise.m3"
);

/// A MiniM3 trace takes no result count: a MiniM3 `main` returns one
/// word.
#[test]
fn tracing_a_minim3_file_refuses_a_result_count() {
    for cmd in ["trace", "profile"] {
        let out = cmm(&[cmd, FIG2, "cutting", "5", "--results", "2"]);
        assert_fails_mentioning(&out, "`--results`");
    }
}

/// The MiniM3 semantics run the unoptimized program, so `-O0` under
/// `--sem` would change nothing.
#[test]
fn tracing_a_minim3_file_under_sem_refuses_o0() {
    for cmd in ["trace", "profile"] {
        let out = cmm(&[cmd, FIG2, "cutting", "5", "--sem", "-O0"]);
        assert_fails_mentioning(&out, "`-O0`");
    }
}

/// `--sem` names an engine as `--decoded` and `--fused` do; given
/// together, one of them would be dropped.
#[test]
fn sem_does_not_combine_with_a_vm_tier() {
    for tier in ["--decoded", "--fused"] {
        for cmd in ["trace", "profile"] {
            let out = cmm(&[cmd, FIG34, "f", "3", "--sem", tier]);
            assert_fails_mentioning(&out, tier);
        }
    }
}

#[test]
fn decoded_does_not_combine_with_fused() {
    for file in [FIG34, FIG2] {
        let entry = if file == FIG34 { "f" } else { "cutting" };
        let out = cmm(&["trace", file, entry, "3", "--decoded", "--fused"]);
        assert_fails_mentioning(&out, "--decoded and --fused cannot be combined");
    }
}

/// `fuzz --replay` re-runs the reproducers as they are: none of the
/// generator's flags applies to it.
#[test]
fn fuzz_replay_refuses_the_generators_flags() {
    let s = Scratch::new("replayflags");
    let dir = s.0.to_str().unwrap();
    for extra in [
        &["--cases", "3"][..],
        &["--seed", "7"],
        &["--shrink"],
        &["--corpus", dir],
        &["--jobs", "2"],
        &["--chaos"],
        &["--fault-seed", "1"],
        &["--schedules", "2"],
        &["--snap"],
        &["--snap-slice", "8"],
    ] {
        let mut args = vec!["fuzz", "--replay", dir];
        args.extend(extra);
        assert_fails_mentioning(&cmm(&args), &format!("`{}`", extra[0]));
    }
}

/// A flag given twice, under either spelling, is refused rather than
/// letting the last one win.
#[test]
fn a_flag_given_twice_is_refused() {
    assert_fails_mentioning(
        &cmm(&["fuzz", "--cases", "1", "--cases", "2"]),
        "--cases given twice",
    );
    assert_fails_mentioning(
        &cmm(&["fuzz", "--cases", "1", "-j", "1", "--jobs", "2"]),
        "--jobs given twice",
    );
}
