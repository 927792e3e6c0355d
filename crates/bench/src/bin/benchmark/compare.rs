//! `benchmark compare A… -- B…`: two sets of `--out` result files, one
//! row per workload × metric with each side's median and quartiles,
//! the pairwise win fraction and, for gated metrics, a verdict.

use crate::spec::{gate, Better, Gate};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;

type Results = BTreeMap<(String, String), (Vec<f64>, String)>;

/// Reads result files: one `workload metric value unit` line per
/// figure; blank lines and `#` comments are skipped.
fn read(files: &[String]) -> Result<Results, String> {
    let mut out = Results::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        for (n, l) in text.lines().enumerate() {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = l.split_whitespace().collect();
            let [w, m, v, u] = parts[..] else {
                return Err(format!(
                    "{f}:{}: expected `workload metric value unit`",
                    n + 1
                ));
            };
            let v: f64 = v
                .parse()
                .map_err(|_| format!("{f}:{}: bad value `{v}`", n + 1))?;
            let e = out
                .entry((w.to_string(), m.to_string()))
                .or_insert_with(|| (Vec::new(), u.to_string()));
            e.0.push(v);
        }
    }
    Ok(out)
}

/// Whether `new` reads strictly better than `old`.
fn beats(better: Better, new: f64, old: f64) -> bool {
    match better {
        Better::Lower => new < old,
        Better::Higher => new > old,
    }
}

/// The verdict on B against A under gate `g`: `worse` when B's median
/// is worse than A's by more than the bound, `unresolved` when either
/// side's spread (quartile distance) exceeds it — unless every B run
/// beats every A run — else `within bound`. For a relative gate both
/// distances are taken as a share of the median.
pub fn verdict(a: &[f64], b: &[f64], g: &Gate) -> &'static str {
    if b.iter().all(|&y| a.iter().all(|&x| beats(g.better, y, x))) {
        return "within bound";
    }
    let scale = |v: &[f64]| if g.absolute { 1.0 } else { median(v).abs() };
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / scale(v)
    };
    if !(spread(a) <= g.bound && spread(b) <= g.bound) {
        return "unresolved";
    }
    let (ma, mb) = (median(a), median(b));
    let by = match g.better {
        Better::Lower => (mb - ma) / scale(a),
        Better::Higher => (ma - mb) / scale(a),
    };
    if by > g.bound {
        "worse"
    } else {
        "within bound"
    }
}

/// Fraction of (a, b) pairs in which b is better; ties count for
/// neither side. `None` for metrics with no better direction.
fn wins(a: &[f64], b: &[f64], better: Option<Better>) -> Option<f64> {
    let better = better?;
    let mut n = 0usize;
    for &x in a {
        for &y in b {
            n += usize::from(beats(better, y, x));
        }
    }
    Some(n as f64 / (a.len() * b.len()).max(1) as f64)
}

/// Renders the comparison table.
pub fn compare(a_files: &[String], b_files: &[String]) -> Result<String, String> {
    if a_files.is_empty() || b_files.is_empty() {
        return Err("usage: benchmark compare A.txt... -- B.txt...".into());
    }
    let (a, b) = (read(a_files)?, read(b_files)?);
    let mut s = format!(
        "{:<13} {:<34} {:>27} {:>27} {:>5} verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "win"
    );
    for ((w, m), (av, unit)) in &a {
        let Some((bv, _)) = b.get(&(w.clone(), m.clone())) else {
            continue;
        };
        let g = gate(m);
        let col = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
        };
        let win =
            wins(av, bv, g.map(|g| g.better)).map_or("-".to_string(), |f| format!("{:.2}", f));
        let v = g.map_or("-", |g| verdict(av, bv, g));
        let _ = writeln!(
            s,
            "{w:<13} {:<34} {:>27} {:>27} {win:>5} {v}",
            format!("{m} ({unit})"),
            col(av),
            col(bv)
        );
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let ops = gate("ops_per_s").unwrap();
        let lat = gate("op_p50_us").unwrap();
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput down 30%: worse than a 25% bound.
        let b: Vec<f64> = a.iter().map(|x| x * 0.7).collect();
        assert_eq!(verdict(&a, &b, ops), "worse");
        // Down 10%: within.
        let b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&a, &b, ops), "within bound");
        // A latency that got faster on every run is within bound even
        // when one side is noisy.
        let noisy = [50.0, 90.0, 60.0, 95.0, 70.0];
        assert_eq!(verdict(&a, &noisy, lat), "within bound");
        // The same noise, but not uniformly better: unresolved.
        let noisy = [50.0, 190.0, 60.0, 195.0, 70.0];
        assert_eq!(verdict(&a, &noisy, lat), "unresolved");
        assert_eq!(wins(&a, &a, Some(Better::Lower)), Some(0.4));
    }

    #[test]
    fn absolute_gates_judge_zero_baselines() {
        let failed = gate("failed_ratio").unwrap();
        let slo = gate("slo_miss_ratio").unwrap();
        let zero = [0.0; 5];
        assert_eq!(verdict(&zero, &zero, failed), "within bound");
        assert_eq!(
            verdict(&zero, &[0.0, 0.0, 0.01, 0.0, 0.01], failed),
            "unresolved"
        );
        assert_eq!(verdict(&zero, &[0.01; 5], failed), "worse");
        assert_eq!(verdict(&zero, &[0.0005; 5], slo), "within bound");
        assert_eq!(verdict(&zero, &[0.002; 5], slo), "worse");
    }
}
