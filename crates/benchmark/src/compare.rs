//! `ceal-benchmark compare PARENT CHANGE`: the choosing-metrics rule
//! applied to two result sets, one row per workload.
//!
//! A result set is a directory of result files as `--out` writes them:
//! `<workload>.s<seed>.json` holds one untraced run's result line and
//! `<workload>.s<seed>.trace.json` one traced run's. Runs pair up in
//! file-name order, so the two sets should use the same seeds, run
//! alternately.
//!
//! For each end-to-end metric (the ones `BENCHMARK.json` bounds):
//!
//! * **improved** — the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ by more than the
//!   parent's interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **unresolved** — fewer than ten pairs, or the parent's spread is
//!   wider than the bound and not every change run beats every parent
//!   run;
//! * **unchanged** — otherwise.
//!
//! A higher median error rate (failed / attempted) also counts as
//! worse. Per-layer metrics have no bound: they are listed with their
//! medians and pair wins to show where a change moved time, not judged.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::Better;
use crate::stats::{median, quartiles};

/// Fewest paired runs a verdict needs.
pub const MIN_PAIRS: usize = 10;

/// Direction and regression bound per metric name.
pub type Bounds = BTreeMap<String, (Better, Option<f64>)>;

/// The outcome for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No difference shown, and the spread is within the bound.
    Unchanged,
    /// A gain by the pairwise rule.
    Improved,
    /// Too few pairs, or too noisy to call.
    Unresolved,
    /// Worse than the bound allows.
    Worse,
}

impl Verdict {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// Judges paired runs `parent[i]` / `change[i]` of one metric whose
/// improvement direction is `better` and regression bound `bound` (a
/// share of the parent's median).
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let n = parent.len().min(change.len());
    if n < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (p, c) = (&parent[..n], &change[..n]);
    // gain(x, y) > 0 when y is better than x.
    let gain = |x: f64, y: f64| match better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let wins = p
        .iter()
        .zip(c)
        .filter(|(x, y)| gain(**x, **y) > 0.0)
        .count();
    let (pm, cm) = (median(p), median(c));
    let iqr = quartiles(p).map_or(0.0, |(q1, q3)| q3 - q1);
    if wins * 10 >= n * 9 && gain(pm, cm) > iqr {
        return Verdict::Improved;
    }
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    if -gain(pm, cm) / scale > bound {
        return Verdict::Worse;
    }
    let every_run_better = p.iter().all(|&x| c.iter().all(|&y| gain(x, y) > 0.0));
    if iqr / scale > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// One run's result file.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name (from the file name).
    pub workload: String,
    /// Whether this was a traced run.
    pub traced: bool,
    /// `failed / attempted`.
    pub error_rate: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses one result line.
///
/// # Errors
///
/// Describes what is missing or malformed.
pub fn parse_result(workload: &str, traced: bool, text: &str) -> Result<RunResult, String> {
    let v = json::parse(text.trim())?;
    let count = |k: &str| {
        v.get(k)
            .and_then(Json::num)
            .ok_or_else(|| format!("result lacks `{k}`"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let mut metrics = BTreeMap::new();
    for (name, m) in v
        .get("metrics")
        .and_then(Json::obj)
        .ok_or("result lacks `metrics`")?
    {
        let value = m
            .get("value")
            .and_then(Json::num)
            .ok_or_else(|| format!("metric `{name}` lacks a value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(RunResult {
        workload: workload.to_string(),
        traced,
        error_rate: failed / attempted.max(1.0),
        metrics,
    })
}

/// Reads every result file of a set, in file-name order.
///
/// # Errors
///
/// An unreadable directory or file, or a malformed result.
pub fn read_set(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    names
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{}/{name}: {e}", dir.display()))?;
            let workload = name.split('.').next().unwrap_or_default();
            parse_result(workload, name.ends_with(".trace.json"), &text)
                .map_err(|e| format!("{}/{name}: {e}", dir.display()))
        })
        .collect()
}

/// Direction and bound per metric, from `BENCHMARK.json`; per-layer
/// metrics have no bound.
///
/// # Errors
///
/// A malformed spec.
pub fn read_bounds(spec: &str) -> Result<Bounds, String> {
    let v = json::parse(spec)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in v.get(key).and_then(Json::arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric lacks a name")?;
            let better = match m.get("better").and_then(Json::str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("metric `{name}` lacks a direction")),
            };
            out.insert(
                name.to_string(),
                (better, m.get("bound").and_then(Json::num)),
            );
        }
    }
    Ok(out)
}

/// Compares two result sets. Returns the report and whether any
/// workload regressed (a metric worse than its bound, or a higher error
/// rate).
pub fn compare(parent: &[RunResult], change: &[RunResult], bounds: &Bounds) -> (String, bool) {
    // (workload, traced) -> (parent runs, change runs)
    type Sides<'a> = (Vec<&'a RunResult>, Vec<&'a RunResult>);
    let mut groups: BTreeMap<(String, bool), Sides<'_>> = BTreeMap::new();
    for r in parent {
        let key = (r.workload.clone(), r.traced);
        groups.entry(key).or_default().0.push(r);
    }
    for r in change {
        let key = (r.workload.clone(), r.traced);
        groups.entry(key).or_default().1.push(r);
    }
    let mut report = String::new();
    let mut regressed = false;
    for ((workload, traced), (p, c)) in &groups {
        let pairs = p.len().min(c.len());
        let mut rows = String::new();
        let mut worst = Verdict::Unchanged;
        let mut tally: BTreeMap<Verdict, Vec<&str>> = BTreeMap::new();
        let series = |runs: &[&RunResult], name: &str| -> Vec<f64> {
            runs.iter()
                .map(|r| r.metrics.get(name).copied().unwrap_or(f64::NAN))
                .collect()
        };
        for (name, (better, bound)) in bounds {
            let (pv, cv) = (series(p, name), series(c, name));
            if pv.iter().chain(&cv).any(|x| x.is_nan()) || pv.is_empty() {
                continue;
            }
            let wins = pv
                .iter()
                .zip(&cv)
                .filter(|(x, y)| match better {
                    Better::Lower => y < x,
                    Better::Higher => y > x,
                })
                .count();
            let label = match bound {
                Some(b) => {
                    let v = verdict(&pv, &cv, *better, *b);
                    tally.entry(v).or_default().push(name);
                    worst = worst.max(v);
                    v.name()
                }
                None => "-",
            };
            let (q1, q3) = quartiles(&pv).unwrap_or((f64::NAN, f64::NAN));
            let _ = writeln!(
                rows,
                "  {name:<36} {label:<10} parent {:>12.4} [{q1:.4}, {q3:.4}]  change {:>12.4}  wins {wins}/{pairs}",
                median(&pv),
                median(&cv)
            );
        }
        let (pe, ce): (Vec<f64>, Vec<f64>) = (
            p.iter().map(|r| r.error_rate).collect(),
            c.iter().map(|r| r.error_rate).collect(),
        );
        if median(&ce) > median(&pe) {
            worst = Verdict::Worse;
            tally.entry(Verdict::Worse).or_default().push("error_rate");
        }
        let _ = writeln!(
            rows,
            "  {:<36} {:<10} parent {:>12.4}  change {:>12.4}",
            "error_rate",
            if median(&ce) > median(&pe) {
                "worse"
            } else {
                "-"
            },
            median(&pe),
            median(&ce)
        );
        regressed |= worst == Verdict::Worse;
        let kind = if *traced { " (traced)" } else { "" };
        let summary: Vec<String> = tally
            .iter()
            .map(|(v, names)| format!("{} {}", v.name(), names.join(",")))
            .collect();
        let verdict = if *traced { "per-layer" } else { worst.name() };
        let _ = writeln!(
            report,
            "{workload}{kind}: {verdict} ({pairs} pairs) {}",
            summary.join("; ")
        );
        report.push_str(&rows);
    }
    (report, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * f64::from(i % 5)).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let p = around(100.0, 1.0);
        let c = around(80.0, 1.0);
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Improved);
        assert_eq!(verdict(&c, &p, Better::Higher, 0.1), Verdict::Improved);
    }

    #[test]
    fn regression_beyond_bound_is_worse() {
        let p = around(100.0, 1.0);
        let c = around(120.0, 1.0);
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Worse);
        // A 5% slip within a 10% bound is no regression.
        let c = around(105.0, 1.0);
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_every_run_wins() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + 30.0 * f64::from(i % 3)).collect();
        let c: Vec<f64> = (0..10)
            .map(|i| 101.0 + 30.0 * f64::from((i + 1) % 3))
            .collect();
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Unresolved);
        let c = vec![50.0; 10];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Improved);
    }

    #[test]
    fn too_few_pairs_are_unresolved() {
        let p = vec![100.0; 9];
        let c = vec![50.0; 9];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Nine wins, one tie: still nine tenths.
        let p = vec![100.0; 10];
        let mut c = vec![90.0; 10];
        c[0] = 100.0;
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Improved);
        // Eight wins, two ties: not enough.
        c[1] = 100.0;
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Unchanged);
    }

    fn run(workload: &str, latency: f64, failed: u64) -> RunResult {
        let text = format!(
            "{{\"correct\": {}, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\"latency_p50_us\": {{\"value\": {latency}, \"unit\": \"us\"}}}}}}",
            failed == 0
        );
        parse_result(workload, false, &text).unwrap()
    }

    #[test]
    fn compare_reports_rows_and_flags_regressions() {
        let bounds = read_bounds(
            r#"{"end_to_end": [{"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let parent: Vec<RunResult> = (0..10)
            .map(|i| run("w", 100.0 + f64::from(i % 3), 0))
            .collect();
        let same: Vec<RunResult> = (0..10)
            .map(|i| run("w", 101.0 + f64::from(i % 2), 0))
            .collect();
        let (report, bad) = compare(&parent, &same, &bounds);
        assert!(!bad, "{report}");
        assert!(report.starts_with("w: unchanged (10 pairs)"), "{report}");

        let slower: Vec<RunResult> = (0..10)
            .map(|i| run("w", 150.0 + f64::from(i % 2), 0))
            .collect();
        let (report, bad) = compare(&parent, &slower, &bounds);
        assert!(bad && report.starts_with("w: worse"), "{report}");

        let failing: Vec<RunResult> = (0..10).map(|_| run("w", 90.0, 3)).collect();
        let (report, bad) = compare(&parent, &failing, &bounds);
        assert!(bad && report.contains("error_rate"), "{report}");
    }
}
