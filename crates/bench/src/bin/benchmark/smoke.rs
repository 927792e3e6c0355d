//! Smoke tests: every workload at a tiny size, checked for correct
//! outputs, complete and well-formed metrics, exact counts that repeat
//! under one seed, and a seed that actually reaches the inputs.

use crate::spec::{COMPARE_ONLY, END_TO_END, PER_LAYER};
use crate::workload::{run, Line, Size, WORKLOADS};
use std::collections::BTreeMap;

fn lines(w: &str, seed: u64, traced: bool) -> Vec<Line> {
    let r = run(w, seed, &Size::tiny(), traced).expect("workload runs");
    assert_eq!(
        r.failed, 0,
        "{w}: {} of {} ops failed",
        r.failed, r.attempted
    );
    assert!(r.attempted > 0, "{w} checked nothing");
    for l in &r.lines {
        assert!(l.value.is_finite(), "{w}: {} is {}", l.metric, l.value);
        assert!(!l.unit.is_empty(), "{w}: {} has no unit", l.metric);
    }
    assert_eq!(traced, r.recording.is_some(), "{w}: spans iff traced");
    r.lines
}

/// The counts of a traced run that are a pure function of the seed.
fn exact(w: &str, lines: &[Line]) -> BTreeMap<String, f64> {
    let keep = |m: &str| match w {
        "run_cold" | "run_hot" => crate::workload::COUNTS.contains(&m),
        "batch_mix" => matches!(
            m,
            "pool.cache.hits" | "pool.cache.misses" | "pool.job_insts"
        ),
        "serve_rotate" => matches!(
            m,
            "serve.slices"
                | "serve.migrations"
                | "serve.parked_high_water"
                | "serve.threads_retained"
                | "snap.blobs"
                | "snap.blob_bytes"
        ),
        _ => false,
    };
    lines
        .iter()
        .filter(|l| keep(&l.metric))
        .map(|l| (l.metric.clone(), l.value))
        .collect()
}

fn check_workload(w: &str) {
    let plain = lines(w, 1, false);
    for g in END_TO_END.iter().chain(&COMPARE_ONLY) {
        if g.name == "slo_miss_ratio" && w != "serve_open" {
            continue;
        }
        let l = plain.iter().find(|l| l.metric == g.name);
        let l = l.unwrap_or_else(|| panic!("{w} lacks {}", g.name));
        assert_eq!(l.unit, g.unit, "{w}: {}", g.name);
        assert!(
            g.absolute || l.value > 0.0,
            "{w}: {} is {}",
            g.name,
            l.value
        );
    }
    let first = lines(w, 1, true);
    for (name, unit) in PER_LAYER {
        if let Some(l) = first.iter().find(|l| l.metric == name) {
            assert_eq!(l.unit, unit, "{w}: {name}");
        }
    }
    let counts = exact(w, &first);
    if w == "serve_open" {
        // Its counts depend on timing; nothing more to compare.
        return;
    }
    assert!(!counts.is_empty(), "{w} reports no exact counts");
    assert_eq!(counts, exact(w, &lines(w, 1, true)), "{w}: seed 1 twice");
    assert_ne!(counts, exact(w, &lines(w, 2, true)), "{w}: seeds 1 and 2");
}

#[test]
fn run_cold() {
    check_workload("run_cold");
}

#[test]
fn run_hot() {
    check_workload("run_hot");
}

#[test]
fn batch_mix() {
    check_workload("batch_mix");
}

#[test]
fn serve_open() {
    check_workload("serve_open");
}

#[test]
fn serve_rotate() {
    check_workload("serve_rotate");
}

#[test]
fn benchmark_json_declares_the_same_metrics() {
    // Relative to this file, so it resolves the same in either build.
    let json = include_str!("../../../../../BENCHMARK.json");
    for g in END_TO_END {
        let better = match g.better {
            crate::spec::Better::Lower => "lower",
            crate::spec::Better::Higher => "higher",
        };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
            g.name, g.unit, g.bound
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"bound\":").count(), END_TO_END.len());
    for (name, unit) in PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\":")),
            "{w}"
        );
    }
}
