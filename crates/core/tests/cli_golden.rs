//! Golden output of the `cmm` binary across engines.
//!
//! Each command below runs from the workspace root on the committed
//! example programs, and its exit status, stdout and stderr are
//! checked against `tests/golden/cli.txt`. The set covers `cmm snap`
//! on every engine, a snapshot taken part-way and resumed on another
//! tier of the same family, `cmm run --snapshot-every`, the
//! `cmm batch` report on the committed manifest (plain and with
//! `--snapshot-every`), full `cmm trace` / `cmm profile` output on
//! the sem, vm, `--decoded` and `--fused` engines, the Chrome JSON of
//! `cmm trace --out -`, the `cmm metrics --json --no-timing` registry
//! on both committed manifests, and the post-mortem dumps that
//! `cmm batch --postmortem-dir` writes for the chaos manifest (appended
//! after the command's own output).
//!
//! Set `CMM_BLESS=1` to rewrite the expected file from the current
//! binary.

use std::path::{Path, PathBuf};
use std::process::Command;

const ENGINES: [&str; 5] = ["sem", "sem-resolved", "vm", "vm-decoded", "vm-fused"];

/// Every golden command, as arguments to `cmm`. `$TMP` stands for a
/// scratch directory.
fn commands() -> Vec<String> {
    let mut cmds = Vec::new();
    for (file, arg) in [("fig34_plain.cmm", "20"), ("sec42_cuts.cmm", "8")] {
        for e in ENGINES {
            cmds.push(format!("snap examples/{file} f {arg} --engine {e}"));
        }
    }
    // Snapshot part-way, then resume on another tier of the family.
    for (file, arg, from, at, to) in [
        ("fig34_plain.cmm", "20", "vm", "100", "vm-fused"),
        ("fig34_plain.cmm", "20", "vm-fused", "150", "vm-decoded"),
        ("fig34_plain.cmm", "20", "sem", "100", "sem-resolved"),
        ("sec42_cuts.cmm", "8", "sem-resolved", "50", "sem"),
        ("sec42_cuts.cmm", "8", "vm-decoded", "100", "vm"),
    ] {
        let blob = format!("$TMP/{from}-{at}.snap");
        cmds.push(format!(
            "snap examples/{file} f {arg} --engine {from} --at {at} --out {blob}"
        ));
        cmds.push(format!("resume {blob} examples/{file} --engine {to}"));
    }
    cmds.push("run examples/fig34_plain.cmm f 20 --snapshot-every 16".into());
    cmds.push("run examples/sec42_cuts.cmm f 8 --snapshot-every 16".into());
    // The batch report over the committed manifest, plain and with
    // checkpointing on.
    cmds.push("batch examples/batch.manifest --no-timing".into());
    cmds.push("batch examples/batch.manifest --no-timing --snapshot-every 64".into());
    let targets = [
        "examples/fig34_plain.cmm f 20",
        "examples/sec42_cuts.cmm f 8",
        "examples/fig2_deep_raise.m3 runtime-unwind 5",
    ];
    for cmd in ["trace", "profile"] {
        for target in targets {
            for flag in ["--sem", "", "--decoded", "--fused"] {
                cmds.push(format!("{cmd} {target} {flag}").trim_end().to_string());
            }
        }
    }
    for target in targets {
        for flag in ["--sem", "--fused"] {
            cmds.push(format!("trace {target} {flag} --out -"));
        }
    }
    for manifest in ["batch", "chaos"] {
        cmds.push(format!(
            "metrics examples/{manifest}.manifest --json --no-timing"
        ));
    }
    cmds.push("batch examples/chaos.manifest --no-timing --postmortem-dir $TMP/pm".into());
    cmds
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs every command and renders one transcript.
fn transcript(tmp: &Path) -> String {
    let tmp_str = tmp.to_str().expect("utf-8 temp path");
    let mut out = String::new();
    for cmd in commands() {
        let args: Vec<String> = cmd
            .split_whitespace()
            .map(|a| a.replace("$TMP", tmp_str))
            .collect();
        let o = Command::new(env!("CARGO_BIN_EXE_cmm"))
            .args(&args)
            .current_dir(root())
            .output()
            .expect("spawn cmm");
        let text = |b: &[u8]| String::from_utf8_lossy(b).replace(tmp_str, "$TMP");
        out.push_str(&format!("$ cmm {cmd}\n"));
        out.push_str(&text(&o.stdout));
        let err = text(&o.stderr);
        if !err.is_empty() {
            out.push_str(&format!("[stderr]\n{err}"));
        }
        out.push_str(&format!("[exit {}]\n", o.status.code().unwrap_or(-1)));
        // Append the files a `--postmortem-dir` run wrote, by name.
        if let Some(i) = args.iter().position(|a| a == "--postmortem-dir") {
            let mut files: Vec<PathBuf> = std::fs::read_dir(&args[i + 1])
                .expect("read post-mortem dir")
                .map(|e| e.expect("dir entry").path())
                .collect();
            files.sort();
            for f in files {
                let body = std::fs::read_to_string(&f).expect("read post-mortem");
                out.push_str(&format!(
                    "[file {}]\n{}",
                    text(f.to_str().unwrap().as_bytes()),
                    body
                ));
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn cli_output_matches_golden() {
    let tmp = std::env::temp_dir().join(format!("cmm-golden-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create scratch dir");
    let got = transcript(&tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli.txt");
    if std::env::var_os("CMM_BLESS").is_some() {
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
            "cmm output differs from {} at line {}:\n  got:  {g}\n  want: {w}\n\
             (rerun with CMM_BLESS=1 to accept)",
            path.display(),
            i + 1
        );
    }
}
