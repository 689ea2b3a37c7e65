//! Every workload at smoke size (the service in-process), the traced
//! run's trace files, and the agreement of the metric catalogue with
//! the repository's `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ceal_benchmark::json::{self, Json};
use ceal_benchmark::metrics::{END_TO_END, PER_LAYER};
use ceal_benchmark::{run, Config, Workload, DEFAULT_SECONDS};

fn config(trace: bool) -> Config {
    Config {
        seed: 7,
        seconds: 1.0,
        trace,
        smoke: true,
        cealc: PathBuf::new(),
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ceal-benchmark-traces"),
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for w in Workload::ALL {
        let out = run(w, &config(false)).expect("untraced run writes nothing");
        assert!(out.attempted > 0, "{}: nothing attempted", w.name());
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.problems);
        for m in END_TO_END {
            let v = out.values.get(m.name).copied().unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{}: {} = {v}", w.name(), m.name);
        }
        let line = json::parse(&out.result_json(false)).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}

struct Ev {
    name: String,
    ts: f64,
    dur: f64,
    parent: i64,
    seq: f64,
}

/// Spans nest per request, and the ledger (per-layer parts plus the
/// residual) closes on the traced total within 2%, as recomputed from
/// the spans in the file.
fn check_trace(workload: &str, v: &Json) {
    let events: Vec<Ev> = v
        .get("traceEvents")
        .and_then(Json::arr)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::str) == Some("X"))
        .map(|e| {
            let arg = |k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::num);
            Ev {
                name: e.get("name").and_then(Json::str).unwrap().to_string(),
                ts: e.get("ts").and_then(Json::num).unwrap(),
                dur: e.get("dur").and_then(Json::num).unwrap(),
                parent: arg("parent").unwrap() as i64,
                seq: arg("seq").unwrap(),
            }
        })
        .collect();
    assert!(!events.is_empty(), "{workload}: no spans");
    let mut child_us = vec![0.0; events.len()];
    for (i, e) in events.iter().enumerate() {
        if e.parent < 0 {
            continue;
        }
        let p = &events[e.parent as usize];
        assert!(e.parent < i as i64, "{workload}: parent after child");
        let eps = 0.002;
        assert!(
            e.ts + eps >= p.ts && e.ts + e.dur <= p.ts + p.dur + eps,
            "{workload}: `{}` escapes its parent `{}`",
            e.name,
            p.name
        );
        if e.seq != 0.0 && p.seq != 0.0 {
            assert_eq!(e.seq, p.seq, "{workload}: `{}` crosses requests", e.name);
        }
        child_us[e.parent as usize] += e.dur;
    }
    let mut self_us: BTreeMap<&str, f64> = BTreeMap::new();
    for (e, c) in events.iter().zip(&child_us) {
        *self_us.entry(e.name.as_str()).or_default() += e.dur - c;
    }

    let ledger = v.get("ledger").expect("ledger");
    let ns = |k: &str| ledger.get(k).and_then(Json::num).expect(k);
    let (total, residual) = (ns("total_ns"), ns("residual_ns"));
    assert!(total > 0.0, "{workload}: empty ledger");
    let roots: Vec<&str> = ledger
        .get("roots")
        .and_then(Json::arr)
        .expect("roots")
        .iter()
        .filter_map(Json::str)
        .collect();
    let from_spans: f64 = events
        .iter()
        .filter(|e| e.parent < 0 && roots.contains(&e.name.as_str()))
        .map(|e| e.dur * 1e3)
        .sum();
    let within = |a: f64, b: f64| (a - b).abs() <= 0.02 * total;
    assert!(
        within(from_spans, total),
        "{workload}: spans total {from_spans} vs ledger {total}"
    );
    let mut sum = residual;
    for (part, value) in ledger.get("parts").and_then(Json::obj).expect("parts") {
        let value = value.num().expect("part value");
        sum += value;
        if let Some(us) = self_us.get(part.as_str()) {
            assert!(
                within(us * 1e3, value),
                "{workload}: `{part}` self time {} vs ledger {value}",
                us * 1e3
            );
        }
    }
    assert!(
        within(sum, total),
        "{workload}: parts + residual {sum} vs total {total}"
    );
}

#[test]
fn traced_runs_write_consistent_traces_and_per_layer_metrics() {
    let cfg = config(true);
    for w in Workload::ALL {
        let out = run(w, &cfg).expect("trace file is written");
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.problems);
        let line = json::parse(&out.result_json(true)).expect("result line is JSON");
        let metrics = line.get("metrics").and_then(Json::obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
        let (layer, other) = if w.name().starts_with("sac") {
            ("runtime.commit_us", "wire.parse_ns")
        } else {
            ("wire.parse_ns", "runtime.commit_us")
        };
        assert!(value(layer) > 0.0, "{}: {layer} not measured", w.name());
        assert_eq!(value(other), 0.0, "{}: {other} is idle here", w.name());
        let path = cfg.trace_dir.join(format!("{}.json", w.name()));
        let text = std::fs::read_to_string(&path).expect("trace file");
        check_trace(w.name(), &json::parse(&text).expect("trace is JSON"));
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let v = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    assert_eq!(
        v.get("run_seconds").and_then(Json::num),
        Some(DEFAULT_SECONDS)
    );
    let names: Vec<&str> = v
        .get("workloads")
        .and_then(Json::arr)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = v.get(key).and_then(Json::arr).unwrap();
        assert_eq!(listed.len(), catalogue.len(), "{key}");
        for (m, spec) in listed.iter().zip(catalogue) {
            let s = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default();
            assert_eq!(
                (s("name"), s("unit"), s("better")),
                (spec.name, spec.unit, spec.better.name())
            );
        }
    }
    let bounds: Vec<(&str, f64)> = v
        .get("end_to_end")
        .and_then(Json::arr)
        .unwrap()
        .iter()
        .map(|m| {
            let b = m.get("bound").and_then(Json::num).unwrap();
            (m.get("name").and_then(Json::str).unwrap(), b)
        })
        .collect();
    let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
    for (name, b) in &bounds {
        assert!(*b > 0.0 && *b <= 0.25, "{name}: bound {b}");
        assert!(*b <= setup, "{name}: setup_s must have the largest bound");
    }
}
